//! A hand-rolled Rust surface lexer.
//!
//! The linter's rules are all *token-level*: they need to know whether a
//! pattern occurs in executable code, in a comment, or inside a string
//! literal. A full parse is overkill (and would drag in `syn`, which the
//! workspace deliberately does not vendor), so this module walks the source
//! character-by-character and splits every line into
//!
//! - `code`: the line's code text with string/char literal *contents* blanked
//!   to spaces (delimiters too), so rule patterns can never match inside a
//!   literal, while column positions stay stable; and
//! - `comment`: the concatenated text of any `//`, `///`, `/* .. */` comment
//!   on that line, which is where `SAFETY:` rationales and
//!   `lint: allow(..)` suppressions live.
//!
//! The lexer understands nested block comments, raw strings with arbitrary
//! hash fences (`r#".."#`, `br##".."##`), escapes in string and char
//! literals, and the lifetime-vs-char-literal ambiguity (`'a` vs `'a'`).

/// One source line, split into its code and comment channels.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Line {
    /// Code text with literal contents blanked to spaces.
    pub code: String,
    /// Concatenated comment text (markers included).
    pub comment: String,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum State {
    Normal,
    LineComment,
    /// Block comment with a nesting depth (Rust block comments nest).
    BlockComment(u32),
    Str,
    /// Raw string terminated by `"` followed by this many `#`s.
    RawStr(u32),
    CharLit,
}

/// Splits `source` into per-line code/comment channels.
pub fn scan(source: &str) -> Vec<Line> {
    let chars: Vec<char> = source.chars().collect();
    let mut lines = Vec::new();
    let mut line = Line::default();
    let mut state = State::Normal;
    let mut prev_ident = false; // was the previous Normal char part of an identifier?
    let mut i = 0;

    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            if state == State::LineComment {
                state = State::Normal;
            }
            lines.push(std::mem::take(&mut line));
            prev_ident = false;
            i += 1;
            continue;
        }
        match state {
            State::Normal => {
                let next = chars.get(i + 1).copied();
                if c == '/' && next == Some('/') {
                    state = State::LineComment;
                    line.comment.push_str("//");
                    i += 2;
                } else if c == '/' && next == Some('*') {
                    state = State::BlockComment(1);
                    line.comment.push_str("/*");
                    i += 2;
                } else if c == '"' {
                    state = State::Str;
                    line.code.push(' ');
                    prev_ident = false;
                    i += 1;
                } else if (c == 'r' || c == 'b') && !prev_ident {
                    // Possible raw-string opener: r"", r#"", br#"", b"".
                    let mut j = i + 1;
                    if c == 'b' && chars.get(j) == Some(&'r') {
                        j += 1;
                    }
                    let raw = j > i + 1 || c == 'r';
                    let mut hashes = 0u32;
                    while raw && chars.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    if raw && chars.get(j) == Some(&'"') {
                        state = State::RawStr(hashes);
                        for _ in i..=j {
                            line.code.push(' ');
                        }
                        prev_ident = false;
                        i = j + 1;
                    } else if c == 'b' && chars.get(i + 1) == Some(&'"') {
                        // byte string b"..."
                        state = State::Str;
                        line.code.push(' ');
                        line.code.push(' ');
                        prev_ident = false;
                        i += 2;
                    } else if c == 'b' && chars.get(i + 1) == Some(&'\'') {
                        // byte char b'x'
                        state = State::CharLit;
                        line.code.push(' ');
                        line.code.push(' ');
                        prev_ident = false;
                        i += 2;
                    } else {
                        line.code.push(c);
                        prev_ident = true;
                        i += 1;
                    }
                } else if c == '\'' {
                    // Lifetime or char literal? A char literal is `'x'` or
                    // `'\..'`; a lifetime is `'ident` with no closing quote.
                    let is_char = match next {
                        Some('\\') => true,
                        Some(_) => chars.get(i + 2) == Some(&'\''),
                        None => false,
                    };
                    if is_char {
                        state = State::CharLit;
                        line.code.push(' ');
                    } else {
                        line.code.push(c);
                    }
                    prev_ident = false;
                    i += 1;
                } else {
                    line.code.push(c);
                    prev_ident = c.is_alphanumeric() || c == '_';
                    i += 1;
                }
            }
            State::LineComment => {
                line.comment.push(c);
                i += 1;
            }
            State::BlockComment(depth) => {
                let next = chars.get(i + 1).copied();
                if c == '*' && next == Some('/') {
                    line.comment.push_str("*/");
                    state = if depth == 1 {
                        State::Normal
                    } else {
                        State::BlockComment(depth - 1)
                    };
                    i += 2;
                } else if c == '/' && next == Some('*') {
                    line.comment.push_str("/*");
                    state = State::BlockComment(depth + 1);
                    i += 2;
                } else {
                    line.comment.push(c);
                    i += 1;
                }
            }
            State::Str => {
                if c == '\\' {
                    line.code.push(' ');
                    if chars.get(i + 1).is_some() && chars[i + 1] != '\n' {
                        line.code.push(' ');
                        i += 1;
                    }
                } else if c == '"' {
                    state = State::Normal;
                    line.code.push(' ');
                } else {
                    line.code.push(' ');
                }
                i += 1;
            }
            State::RawStr(hashes) => {
                if c == '"' {
                    let mut ok = true;
                    for k in 0..hashes as usize {
                        if chars.get(i + 1 + k) != Some(&'#') {
                            ok = false;
                            break;
                        }
                    }
                    if ok {
                        for _ in 0..=hashes as usize {
                            line.code.push(' ');
                        }
                        state = State::Normal;
                        i += 1 + hashes as usize;
                        continue;
                    }
                }
                line.code.push(' ');
                i += 1;
            }
            State::CharLit => {
                if c == '\\' {
                    line.code.push(' ');
                    if chars.get(i + 1).is_some() && chars[i + 1] != '\n' {
                        line.code.push(' ');
                        i += 1;
                    }
                } else if c == '\'' {
                    state = State::Normal;
                    line.code.push(' ');
                } else {
                    line.code.push(' ');
                }
                i += 1;
            }
        }
    }
    if !line.code.is_empty() || !line.comment.is_empty() {
        lines.push(line);
    }
    lines
}

/// Returns true if `needle` occurs in `haystack` as a whole identifier token
/// (not as a substring of a longer identifier).
pub fn has_token(haystack: &str, needle: &str) -> bool {
    token_position(haystack, needle).is_some()
}

/// Byte offset of the first whole-token occurrence of `needle`, if any.
pub fn token_position(haystack: &str, needle: &str) -> Option<usize> {
    let bytes = haystack.as_bytes();
    let mut from = 0;
    while let Some(rel) = haystack[from..].find(needle) {
        let at = from + rel;
        let before_ok = at == 0 || !is_ident_byte(bytes[at - 1]);
        let end = at + needle.len();
        let after_ok = end >= bytes.len() || !is_ident_byte(bytes[end]);
        if before_ok && after_ok {
            return Some(at);
        }
        from = at + 1;
    }
    None
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Returns true if `name` occurs as a token that is *called* (followed,
/// after optional whitespace, by `(`), excluding `fn name(` definitions.
pub fn has_call(code: &str, name: &str) -> bool {
    let bytes = code.as_bytes();
    let mut from = 0;
    while let Some(rel) = code[from..].find(name) {
        let at = from + rel;
        from = at + 1;
        let before_ok = at == 0 || !is_ident_byte(bytes[at - 1]);
        let end = at + name.len();
        let after_ok = end >= bytes.len() || !is_ident_byte(bytes[end]);
        if !(before_ok && after_ok) {
            continue;
        }
        // Must be a call: next non-space char is '('.
        let mut j = end;
        while j < bytes.len() && bytes[j] == b' ' {
            j += 1;
        }
        if j >= bytes.len() || bytes[j] != b'(' {
            continue;
        }
        // Not a definition: `fn name(`.
        let head = code[..at].trim_end();
        if head.ends_with("fn") {
            continue;
        }
        return true;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codes(src: &str) -> Vec<String> {
        scan(src).into_iter().map(|l| l.code).collect()
    }

    #[test]
    fn line_comments_are_routed_to_the_comment_channel() {
        let lines = scan("let x = 1; // HashMap here\nlet y = 2;\n");
        assert!(!lines[0].code.contains("HashMap"));
        assert!(lines[0].comment.contains("HashMap"));
        assert_eq!(lines[1].code, "let y = 2;");
    }

    #[test]
    fn string_contents_are_blanked() {
        let c = codes("let s = \"HashMap::new() // not a comment\"; foo();\n");
        assert!(!c[0].contains("HashMap"));
        assert!(c[0].contains("foo();"));
    }

    #[test]
    fn escaped_quotes_do_not_end_strings() {
        let c = codes("let s = \"a\\\"HashMap\"; bar();\n");
        assert!(!c[0].contains("HashMap"));
        assert!(c[0].contains("bar();"));
    }

    #[test]
    fn raw_strings_with_hashes() {
        let c = codes("let s = r#\"unsafe \" still string\"#; baz();\n");
        assert!(!c[0].contains("unsafe"));
        assert!(c[0].contains("baz();"));
    }

    #[test]
    fn nested_block_comments() {
        let src = "a(); /* outer /* inner */ still comment */ b();\n";
        let lines = scan(src);
        assert!(lines[0].code.contains("a();"));
        assert!(lines[0].code.contains("b();"));
        assert!(!lines[0].code.contains("still"));
        assert!(lines[0].comment.contains("inner"));
    }

    #[test]
    fn multiline_block_comment_spans_lines() {
        let lines = scan("x(); /* one\ntwo HashMap\n*/ y();\n");
        assert!(!lines[1].code.contains("HashMap"));
        assert!(lines[1].comment.contains("HashMap"));
        assert!(lines[2].code.contains("y();"));
    }

    #[test]
    fn lifetimes_are_code_char_literals_are_not() {
        let c = codes("fn f<'a>(x: &'a str) { let c = 'x'; let q = '\\n'; }\n");
        assert!(c[0].contains("'a"));
        assert!(!c[0].contains('x') || !c[0].contains("'x'"));
        assert!(!c[0].contains("\\n"));
    }

    #[test]
    fn byte_and_raw_byte_literals() {
        let c = codes("let a = b\"unsafe\"; let b2 = br#\"unsafe\"#; let c0 = b'u'; ok();\n");
        assert!(!c[0].contains("unsafe"));
        assert!(c[0].contains("ok();"));
    }

    #[test]
    fn identifier_ending_in_r_is_not_a_raw_string() {
        let c = codes("let var\"x\" = 1;\n"); // pathological but must not panic
        assert!(c[0].contains("var"));
        let c = codes("attr\"s\";\n");
        assert!(c[0].contains("attr"));
    }

    #[test]
    fn token_matching_respects_identifier_boundaries() {
        assert!(has_token("use std::collections::HashMap;", "HashMap"));
        assert!(!has_token("#![forbid(unsafe_code)]", "unsafe"));
        assert!(has_token("unsafe { x }", "unsafe"));
        assert!(!has_token("MyHashMap::new()", "HashMap"));
    }

    #[test]
    fn call_matching_skips_definitions_and_bare_paths() {
        assert!(has_call("let y = a.mul_add(b, c);", "mul_add"));
        assert!(!has_call("pub fn mul_add(a: f32, b: f32) {", "mul_add"));
        assert!(!has_call("use ops::{mul_add, axpy};", "mul_add"));
        assert!(!has_call("my_mul_add(x)", "mul_add"));
    }
}
