//! LEAF-format dataset loading behind the [`FedTask`] interface.
//!
//! [LEAF](https://leaf.cmu.edu) is the federated-learning benchmark suite
//! the paper evaluates on (FEMNIST, Sentiment140, Reddit). Its on-disk
//! format is a JSON object per split:
//!
//! ```text
//! {
//!   "users":       ["f_0000", "f_0001", ...],
//!   "num_samples": [312, 44, ...],
//!   "user_data":   {"f_0000": {"x": ..., "y": ...}, ...}
//! }
//! ```
//!
//! with per-benchmark `x`/`y` payloads. This module parses that format with
//! the self-contained streaming reader in [`json`] (the workspace has no
//! JSON crate), featurizes each user straight
//! into a [`Dataset`], and assembles the *natural* per-user partition —
//! bypassing the synthetic splitters in [`crate::partition`] entirely,
//! which is the whole point: tier-skew effects only appear under real
//! per-user imbalance.
//!
//! Layout accepted by [`FedTask::from_leaf_dir`]:
//!
//! * `dir/train/*.json` + `dir/test/*.json` — LEAF's post-`split_data.sh`
//!   layout; the per-user train/test split is taken from disk verbatim.
//! * `dir/*.json` — a flat corpus; each user is split 80/20 with the same
//!   seeded scheme the synthetic suite uses.
//!
//! The [`writer`] submodule emits this exact format from in-memory tasks,
//! which makes the subsystem testable offline (generate fixture → parse →
//! train) and doubles as a documented interchange format. See
//! `docs/DATA.md` for the full contract.
#![expect(
    clippy::disallowed_types,
    reason = "R1: the hash containers below are parse-time indices and duplicate detectors whose iteration order never reaches an output; every user list is sorted before partitioning"
)]

pub mod json;
pub mod writer;

use crate::dataset::Dataset;
use crate::federated::{ClientData, FederatedDataset};
use crate::suite::FedTask;
use fedat_nn::models::ModelSpec;
use json::{JsonReader, JsonValue};
use std::collections::{HashMap, HashSet};
use std::fs::File;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};

/// Largest token id the Reddit featurizer accepts: token ids become `f32`
/// features, and 2^24 is the last integer `f32` represents exactly.
pub const MAX_TOKEN: u64 = 1 << 24;

/// Everything that can go wrong while reading a LEAF directory. Parsing
/// never panics — arbitrary bytes produce one of these (property-tested in
/// `tests/leaf_malformed.rs`).
#[derive(Debug)]
pub enum LeafError {
    /// Underlying file/stream I/O failure.
    Io(std::io::Error),
    /// Malformed JSON at `line:col` of the current file.
    Parse {
        /// 1-based line.
        line: usize,
        /// 1-based column.
        col: usize,
        /// What went wrong.
        msg: String,
    },
    /// A number overflowed to ±∞ (e.g. `1e999`) — LEAF corpora are finite.
    NonFinite {
        /// 1-based line.
        line: usize,
        /// 1-based column.
        col: usize,
    },
    /// Well-formed JSON that violates the LEAF schema.
    Schema(String),
    /// `num_samples[i]` disagrees with `user_data[users[i]]`'s row count.
    NumSamplesMismatch {
        /// The offending user.
        user: String,
        /// What `num_samples` declared.
        declared: usize,
        /// How many samples `user_data` actually holds.
        actual: usize,
    },
    /// A user listed in `users` is absent from `user_data` (or a train
    /// user has no matching test entry).
    MissingUser(String),
    /// A label falls outside the benchmark's class range.
    LabelOutOfRange {
        /// The offending user.
        user: String,
        /// The raw label value.
        label: f64,
        /// The benchmark's class count.
        classes: usize,
    },
    /// The directory or split holds no usable data.
    Empty(String),
}

impl std::fmt::Display for LeafError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LeafError::Io(e) => write!(f, "i/o error: {e}"),
            LeafError::Parse { line, col, msg } => {
                write!(f, "json parse error at {line}:{col}: {msg}")
            }
            LeafError::NonFinite { line, col } => {
                write!(f, "non-finite number at {line}:{col} (overflow or NaN)")
            }
            LeafError::Schema(msg) => write!(f, "leaf schema error: {msg}"),
            LeafError::NumSamplesMismatch {
                user,
                declared,
                actual,
            } => write!(
                f,
                "num_samples declares {declared} samples for user `{user}` but user_data holds {actual}"
            ),
            LeafError::MissingUser(u) => write!(f, "user `{u}` is listed but has no data"),
            LeafError::LabelOutOfRange {
                user,
                label,
                classes,
            } => write!(
                f,
                "label {label} of user `{user}` is outside the {classes}-class range"
            ),
            LeafError::Empty(msg) => write!(f, "empty leaf input: {msg}"),
        }
    }
}

impl std::error::Error for LeafError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LeafError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for LeafError {
    fn from(e: std::io::Error) -> Self {
        LeafError::Io(e)
    }
}

/// Which paper benchmark a LEAF directory encodes — selects the featurizer,
/// the model architecture and the time-to-accuracy target.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LeafBenchmark {
    /// FEMNIST: `x[i]` is a flat `height·width` grayscale pixel row,
    /// `y[i]` the class index.
    Femnist {
        /// Image height (28 for real FEMNIST; must be divisible by 4).
        height: usize,
        /// Image width (28 for real FEMNIST; must be divisible by 4).
        width: usize,
        /// Number of classes (62 for real FEMNIST).
        classes: usize,
    },
    /// Sentiment140: `x[i]` is the tweet text (either a bare string or, as
    /// in raw LEAF, an array whose *last* element is the text), `y[i]` the
    /// 0/1 sentiment. Features are token counts over a deterministic
    /// vocabulary (see [`FedTask::from_leaf_dir`]).
    Sent140 {
        /// Vocabulary cap when the vocabulary is built from the corpus.
        max_vocab: usize,
    },
    /// Reddit next-token prediction: `x[i]` is a token-id sequence, `y[i]`
    /// the sequence shifted by one (one next-token target per position).
    Reddit {
        /// Vocabulary size; `0` infers `max_token + 1` from the data.
        vocab: usize,
    },
}

impl LeafBenchmark {
    /// Real-FEMNIST shape: 28×28 grayscale, 62 classes.
    pub fn femnist() -> Self {
        LeafBenchmark::Femnist {
            height: 28,
            width: 28,
            classes: 62,
        }
    }

    /// Sentiment140 with a 2048-token vocabulary cap.
    pub fn sent140() -> Self {
        LeafBenchmark::Sent140 { max_vocab: 2048 }
    }

    /// Reddit with the vocabulary inferred from the corpus.
    pub fn reddit() -> Self {
        LeafBenchmark::Reddit { vocab: 0 }
    }

    /// Short benchmark name (used in task names and reports).
    pub fn name(&self) -> &'static str {
        match self {
            LeafBenchmark::Femnist { .. } => "femnist",
            LeafBenchmark::Sent140 { .. } => "sent140",
            LeafBenchmark::Reddit { .. } => "reddit",
        }
    }

    fn validate(&self) -> Result<(), LeafError> {
        match *self {
            LeafBenchmark::Femnist {
                height,
                width,
                classes,
            } => {
                if height == 0 || width == 0 || classes == 0 {
                    return Err(LeafError::Schema(
                        "femnist benchmark needs positive height/width/classes".into(),
                    ));
                }
                if height % 4 != 0 || width % 4 != 0 {
                    return Err(LeafError::Schema(format!(
                        "femnist images must have height/width divisible by 4 \
                         (the CnnLite model pools twice), got {height}×{width}"
                    )));
                }
            }
            LeafBenchmark::Sent140 { max_vocab } => {
                if max_vocab == 0 {
                    return Err(LeafError::Schema(
                        "sent140 benchmark needs a positive max_vocab".into(),
                    ));
                }
            }
            LeafBenchmark::Reddit { .. } => {}
        }
        Ok(())
    }
}

/// One parsed LEAF split: per-user datasets in `users` order.
#[derive(Clone, Debug)]
pub struct LeafSplit {
    /// User names, in the file's `users` order.
    pub users: Vec<String>,
    /// One featurized dataset per user, aligned with `users`.
    pub data: Vec<Dataset>,
}

// ---------------------------------------------------------------------------
// Featurizers
// ---------------------------------------------------------------------------

/// A featurized user before `Dataset` construction. Labels are *not* yet
/// range-checked against the class count here (Reddit's vocabulary may be
/// inferred across users later); [`finalize_users`] does that, so the
/// asserting [`Dataset`] constructors are only reached with valid data.
struct RawUser {
    name: String,
    rows: usize,
    width: usize,
    tpr: usize,
    xs: Vec<f32>,
    ys: Vec<u32>,
}

enum Featurizer {
    Femnist {
        features: usize,
        classes: usize,
    },
    Sent140 {
        vocab: Vec<String>,
        index: HashMap<String, usize>,
    },
    Reddit,
}

fn make_featurizer(
    bench: &LeafBenchmark,
    vocab: Option<&[String]>,
) -> Result<Featurizer, LeafError> {
    bench.validate()?;
    Ok(match *bench {
        LeafBenchmark::Femnist {
            height,
            width,
            classes,
        } => Featurizer::Femnist {
            features: height * width,
            classes,
        },
        LeafBenchmark::Sent140 { .. } => {
            let vocab = vocab
                .ok_or_else(|| {
                    LeafError::Schema(
                        "sent140 needs an explicit vocabulary at the reader level \
                         (directory loading resolves one automatically)"
                            .into(),
                    )
                })?
                .to_vec();
            if vocab.is_empty() {
                return Err(LeafError::Schema("sent140 vocabulary is empty".into()));
            }
            let index = vocab
                .iter()
                .enumerate()
                .map(|(i, t)| (t.clone(), i))
                .collect();
            Featurizer::Sent140 { vocab, index }
        }
        LeafBenchmark::Reddit { .. } => Featurizer::Reddit,
    })
}

/// Extracts the tweet text from a Sentiment140 `x` entry: either a bare
/// string or (raw LEAF) an array whose last element is the text.
fn sample_text<'a>(user: &str, i: usize, xi: &'a JsonValue) -> Result<&'a str, LeafError> {
    if let Some(s) = xi.as_str() {
        return Ok(s);
    }
    if let Some(s) = xi
        .as_array()
        .and_then(|a| a.last())
        .and_then(|v| v.as_str())
    {
        return Ok(s);
    }
    Err(LeafError::Schema(format!(
        "x[{i}] of user `{user}`: expected a string (or an array ending in one), found {}",
        xi.type_name()
    )))
}

/// Parses a classification label and range-checks it.
fn label(user: &str, v: &JsonValue, classes: usize) -> Result<u32, LeafError> {
    let f = v.as_f64().ok_or_else(|| {
        LeafError::Schema(format!(
            "label of user `{user}`: expected a number, found {}",
            v.type_name()
        ))
    })?;
    if f.fract() != 0.0 || f < 0.0 || f >= classes as f64 {
        return Err(LeafError::LabelOutOfRange {
            user: user.to_string(),
            label: f,
            classes,
        });
    }
    Ok(f as u32)
}

/// Parses a token id (Reddit): a small non-negative integer.
fn token(user: &str, v: &JsonValue) -> Result<u32, LeafError> {
    let f = v.as_f64().ok_or_else(|| {
        LeafError::Schema(format!(
            "token of user `{user}`: expected a number, found {}",
            v.type_name()
        ))
    })?;
    if f.fract() != 0.0 || f < 0.0 || f >= MAX_TOKEN as f64 {
        return Err(LeafError::Schema(format!(
            "token {f} of user `{user}` is not an integer in [0, {MAX_TOKEN})"
        )));
    }
    Ok(f as u32)
}

impl Featurizer {
    fn featurize(&self, user: &str, v: &JsonValue) -> Result<RawUser, LeafError> {
        let x = v
            .get("x")
            .ok_or_else(|| LeafError::Schema(format!("user `{user}` has no `x`")))?
            .as_array()
            .ok_or_else(|| LeafError::Schema(format!("`x` of user `{user}` is not an array")))?;
        let y = v
            .get("y")
            .ok_or_else(|| LeafError::Schema(format!("user `{user}` has no `y`")))?
            .as_array()
            .ok_or_else(|| LeafError::Schema(format!("`y` of user `{user}` is not an array")))?;
        if x.len() != y.len() {
            return Err(LeafError::Schema(format!(
                "user `{user}`: {} samples in x but {} labels in y",
                x.len(),
                y.len()
            )));
        }
        if x.is_empty() {
            return Err(LeafError::Schema(format!("user `{user}` has no samples")));
        }
        let rows = x.len();
        match self {
            Featurizer::Femnist { features, classes } => {
                let mut xs = Vec::with_capacity(rows * features);
                let mut ys = Vec::with_capacity(rows);
                for (i, xi) in x.iter().enumerate() {
                    let row = xi.as_array().ok_or_else(|| {
                        LeafError::Schema(format!(
                            "x[{i}] of user `{user}`: expected a pixel array, found {}",
                            xi.type_name()
                        ))
                    })?;
                    if row.len() != *features {
                        return Err(LeafError::Schema(format!(
                            "x[{i}] of user `{user}` has {} pixels, expected {features}",
                            row.len()
                        )));
                    }
                    for p in row {
                        let f = p.as_f64().ok_or_else(|| {
                            LeafError::Schema(format!(
                                "pixel of user `{user}`: expected a number, found {}",
                                p.type_name()
                            ))
                        })?;
                        let f32v = f as f32;
                        if !f32v.is_finite() {
                            return Err(LeafError::Schema(format!(
                                "pixel {f} of user `{user}` overflows f32"
                            )));
                        }
                        xs.push(f32v);
                    }
                    ys.push(label(user, &y[i], *classes)?);
                }
                Ok(RawUser {
                    name: user.to_string(),
                    rows,
                    width: *features,
                    tpr: 1,
                    xs,
                    ys,
                })
            }
            Featurizer::Sent140 { vocab, index } => {
                let mut xs = vec![0.0f32; rows * vocab.len()];
                let mut ys = Vec::with_capacity(rows);
                for (i, xi) in x.iter().enumerate() {
                    let text = sample_text(user, i, xi)?;
                    let counts = &mut xs[i * vocab.len()..(i + 1) * vocab.len()];
                    for tok in text.split_whitespace() {
                        if let Some(&j) = index.get(tok) {
                            counts[j] += 1.0;
                        }
                    }
                    ys.push(label(user, &y[i], 2)?);
                }
                Ok(RawUser {
                    name: user.to_string(),
                    rows,
                    width: vocab.len(),
                    tpr: 1,
                    xs,
                    ys,
                })
            }
            Featurizer::Reddit => {
                let first = x[0].as_array().ok_or_else(|| {
                    LeafError::Schema(format!(
                        "x[0] of user `{user}`: expected a token sequence, found {}",
                        x[0].type_name()
                    ))
                })?;
                let seq = first.len();
                if seq == 0 {
                    return Err(LeafError::Schema(format!(
                        "user `{user}` has an empty token sequence"
                    )));
                }
                let mut xs = Vec::with_capacity(rows * seq);
                let mut ys = Vec::with_capacity(rows * seq);
                for (i, xi) in x.iter().enumerate() {
                    let row = xi.as_array().ok_or_else(|| {
                        LeafError::Schema(format!(
                            "x[{i}] of user `{user}`: expected a token sequence, found {}",
                            xi.type_name()
                        ))
                    })?;
                    let targets = y[i].as_array().ok_or_else(|| {
                        LeafError::Schema(format!(
                            "y[{i}] of user `{user}`: expected a next-token sequence, found {}",
                            y[i].type_name()
                        ))
                    })?;
                    if row.len() != seq || targets.len() != seq {
                        return Err(LeafError::Schema(format!(
                            "user `{user}` mixes sequence lengths ({} and {} vs {seq})",
                            row.len(),
                            targets.len()
                        )));
                    }
                    for t in row {
                        xs.push(token(user, t)? as f32);
                    }
                    for t in targets {
                        ys.push(token(user, t)?);
                    }
                }
                Ok(RawUser {
                    name: user.to_string(),
                    rows,
                    width: seq,
                    tpr: seq,
                    xs,
                    ys,
                })
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Split parsing
// ---------------------------------------------------------------------------

/// Streams one LEAF split file: `users`/`num_samples` are collected,
/// `user_data` is featurized user-by-user (so memory is bounded by one
/// user's subtree, not the file), unknown keys are skipped.
fn parse_raw<R: BufRead>(reader: R, feat: &Featurizer) -> Result<Vec<RawUser>, LeafError> {
    let mut r = JsonReader::new(reader);
    r.expect(b'{')?;
    let mut users: Option<Vec<String>> = None;
    let mut num_samples: Option<Vec<usize>> = None;
    let mut parsed: Vec<RawUser> = Vec::new();
    let mut first = true;
    while let Some(key) = r.next_key(&mut first)? {
        match key.as_str() {
            "users" => users = Some(parse_string_array(&mut r)?),
            "num_samples" => num_samples = Some(parse_count_array(&mut r)?),
            "user_data" => {
                r.expect(b'{')?;
                let mut ufirst = true;
                while let Some(user) = r.next_key(&mut ufirst)? {
                    let subtree = r.parse_value(2)?;
                    parsed.push(feat.featurize(&user, &subtree)?);
                }
            }
            // Real LEAF files may carry extras (e.g. `hierarchies`).
            _ => {
                r.parse_value(1)?;
            }
        }
    }
    r.expect_eof()?;
    let users = users.ok_or_else(|| LeafError::Schema("missing `users` array".into()))?;
    let num_samples =
        num_samples.ok_or_else(|| LeafError::Schema("missing `num_samples` array".into()))?;
    if num_samples.len() != users.len() {
        return Err(LeafError::Schema(format!(
            "{} users but {} num_samples entries",
            users.len(),
            num_samples.len()
        )));
    }
    let mut by_name: HashMap<String, RawUser> = HashMap::with_capacity(parsed.len());
    for raw in parsed {
        if by_name.insert(raw.name.clone(), raw).is_some() {
            // Unreachable through the JSON reader (duplicate object keys
            // produce two entries, the second insert wins the map slot) —
            // keep the check for the multi-file merge path in the caller.
            return Err(LeafError::Schema("duplicate user in user_data".into()));
        }
    }
    let mut out = Vec::with_capacity(users.len());
    for (user, &declared) in users.iter().zip(num_samples.iter()) {
        let raw = by_name
            .remove(user)
            .ok_or_else(|| LeafError::MissingUser(user.clone()))?;
        if raw.rows != declared {
            return Err(LeafError::NumSamplesMismatch {
                user: user.clone(),
                declared,
                actual: raw.rows,
            });
        }
        out.push(raw);
    }
    if let Some(extra) = by_name.into_keys().next() {
        return Err(LeafError::Schema(format!(
            "user_data contains user `{extra}` not listed in `users`"
        )));
    }
    Ok(out)
}

fn parse_string_array<R: BufRead>(r: &mut JsonReader<R>) -> Result<Vec<String>, LeafError> {
    r.expect(b'[')?;
    let mut out = Vec::new();
    let mut first = true;
    while r.next_element(&mut first)? {
        r.expect(b'"')?;
        out.push(r.parse_string_body()?);
    }
    Ok(out)
}

fn parse_count_array<R: BufRead>(r: &mut JsonReader<R>) -> Result<Vec<usize>, LeafError> {
    r.expect(b'[')?;
    let mut out = Vec::new();
    let mut first = true;
    while r.next_element(&mut first)? {
        r.skip_ws()?;
        let n = r.parse_number()?;
        if n.fract() != 0.0 || n < 0.0 || n > u32::MAX as f64 {
            return Err(LeafError::Schema(format!(
                "num_samples entry {n} is not a non-negative integer"
            )));
        }
        out.push(n as usize);
    }
    Ok(out)
}

/// Range-checks labels (and, for token tasks, inputs) against the final
/// class count, enforces cross-user shape consistency, and only then
/// constructs the (asserting) [`Dataset`]s.
fn finalize_users(
    raw: Vec<RawUser>,
    classes: usize,
    inputs_are_tokens: bool,
) -> Result<Vec<Dataset>, LeafError> {
    let Some(head) = raw.first() else {
        return Err(LeafError::Empty("split has no users".into()));
    };
    let (width, tpr) = (head.width, head.tpr);
    let mut out = Vec::with_capacity(raw.len());
    for u in raw {
        if u.width != width || u.tpr != tpr {
            return Err(LeafError::Schema(format!(
                "user `{}` has row shape {}×{} but the split uses {width}×{tpr}",
                u.name, u.width, u.tpr
            )));
        }
        for &y in &u.ys {
            if y as usize >= classes {
                return Err(LeafError::LabelOutOfRange {
                    user: u.name.clone(),
                    label: y as f64,
                    classes,
                });
            }
        }
        if inputs_are_tokens {
            for &x in &u.xs {
                if x as usize >= classes {
                    return Err(LeafError::Schema(format!(
                        "input token {x} of user `{}` exceeds the {classes}-token vocabulary",
                        u.name
                    )));
                }
            }
        }
        out.push(Dataset::with_stride(
            fedat_tensor::Tensor::from_vec(u.xs, &[u.rows, width]),
            u.ys,
            classes,
            tpr,
        ));
    }
    Ok(out)
}

/// The class count a set of raw splits implies, honoring an explicit
/// Reddit vocabulary and inferring `max_token + 1` otherwise.
fn resolve_classes(bench: &LeafBenchmark, splits: &[&[RawUser]]) -> usize {
    match *bench {
        LeafBenchmark::Femnist { classes, .. } => classes,
        LeafBenchmark::Sent140 { .. } => 2,
        LeafBenchmark::Reddit { vocab } => {
            if vocab > 0 {
                vocab
            } else {
                let mut max = 1u32; // at least a 2-token vocabulary
                for split in splits {
                    for u in *split {
                        for &x in &u.xs {
                            max = max.max(x as u32);
                        }
                        for &y in &u.ys {
                            max = max.max(y);
                        }
                    }
                }
                max as usize + 1
            }
        }
    }
}

/// Parses one LEAF split from any buffered reader.
///
/// This is the stream-level entry point (also the surface the malformed-
/// input property tests drive): it needs no directory, but Sentiment140
/// must be given its vocabulary explicitly — [`FedTask::from_leaf_dir`]
/// resolves one from `vocab.json` or the corpus automatically. A Reddit
/// benchmark with `vocab: 0` infers the vocabulary from this split alone.
pub fn parse_split<R: BufRead>(
    reader: R,
    bench: &LeafBenchmark,
    vocab: Option<&[String]>,
) -> Result<LeafSplit, LeafError> {
    let feat = make_featurizer(bench, vocab)?;
    let raw = parse_raw(reader, &feat)?;
    let classes = resolve_classes(bench, &[&raw]);
    let users = raw.iter().map(|u| u.name.clone()).collect();
    let data = finalize_users(raw, classes, matches!(bench, LeafBenchmark::Reddit { .. }))?;
    Ok(LeafSplit { users, data })
}

// ---------------------------------------------------------------------------
// Directory loading
// ---------------------------------------------------------------------------

/// `*.json` files directly under `dir`, sorted by file name (LEAF shards
/// large corpora across several files; sorting pins the user order).
/// `vocab.json` is the Sentiment140 sidecar, not a split.
fn json_files(dir: &Path) -> Result<Vec<PathBuf>, LeafError> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let is_json = path.extension().is_some_and(|e| e == "json");
        let is_sidecar = path.file_name().is_some_and(|n| n == "vocab.json");
        if path.is_file() && is_json && !is_sidecar {
            out.push(path);
        }
    }
    out.sort();
    Ok(out)
}

fn open(path: &Path) -> Result<BufReader<File>, LeafError> {
    Ok(BufReader::with_capacity(1 << 16, File::open(path)?))
}

/// Parses and concatenates the split files of one side (train or test).
fn parse_files(paths: &[PathBuf], feat: &Featurizer) -> Result<Vec<RawUser>, LeafError> {
    let mut out: Vec<RawUser> = Vec::new();
    let mut seen: HashSet<String> = HashSet::new();
    for path in paths {
        for raw in parse_raw(open(path)?, feat)? {
            if !seen.insert(raw.name.clone()) {
                return Err(LeafError::Schema(format!(
                    "user `{}` appears in more than one split file",
                    raw.name
                )));
            }
            out.push(raw);
        }
    }
    Ok(out)
}

/// Streams `user_data` of one split file, invoking `f` per user subtree.
/// Used by the vocabulary-building pass, which must not featurize.
fn walk_user_data<R: BufRead>(
    reader: R,
    f: &mut impl FnMut(&str, &JsonValue) -> Result<(), LeafError>,
) -> Result<(), LeafError> {
    let mut r = JsonReader::new(reader);
    r.expect(b'{')?;
    let mut first = true;
    while let Some(key) = r.next_key(&mut first)? {
        if key == "user_data" {
            r.expect(b'{')?;
            let mut ufirst = true;
            while let Some(user) = r.next_key(&mut ufirst)? {
                let subtree = r.parse_value(2)?;
                f(&user, &subtree)?;
            }
        } else {
            r.parse_value(1)?;
        }
    }
    r.expect_eof()
}

/// Builds the deterministic Sentiment140 vocabulary from the training
/// corpus: tokens ordered by descending count, ties broken by the token
/// itself, truncated to `max_vocab`. A pure function of the corpus — two
/// machines pointed at the same download build the identical feature map.
pub fn build_sent140_vocab(
    train_paths: &[PathBuf],
    max_vocab: usize,
) -> Result<Vec<String>, LeafError> {
    let mut counts: HashMap<String, u64> = HashMap::new();
    for path in train_paths {
        walk_user_data(open(path)?, &mut |user, v| {
            let x = v
                .get("x")
                .and_then(|x| x.as_array())
                .ok_or_else(|| LeafError::Schema(format!("user `{user}` has no `x` array")))?;
            for (i, xi) in x.iter().enumerate() {
                for tok in sample_text(user, i, xi)?.split_whitespace() {
                    *counts.entry(tok.to_string()).or_insert(0) += 1;
                }
            }
            Ok(())
        })?;
    }
    if counts.is_empty() {
        return Err(LeafError::Empty(
            "sent140 corpus has no tokens to build a vocabulary from".into(),
        ));
    }
    let mut ranked: Vec<(String, u64)> = counts.into_iter().collect();
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    ranked.truncate(max_vocab);
    Ok(ranked.into_iter().map(|(t, _)| t).collect())
}

/// Reads the `vocab.json` sidecar (a JSON array of tokens in feature
/// order) that [`writer`] emits next to generated corpora.
fn read_vocab_sidecar(path: &Path) -> Result<Vec<String>, LeafError> {
    let mut r = JsonReader::new(open(path)?);
    let v = r.parse_value(0)?;
    r.expect_eof()?;
    let arr = v.as_array().ok_or_else(|| {
        LeafError::Schema(format!(
            "{}: expected a JSON array of tokens",
            path.display()
        ))
    })?;
    arr.iter()
        .map(|t| {
            t.as_str().map(str::to_string).ok_or_else(|| {
                LeafError::Schema(format!(
                    "{}: vocabulary entries must be strings, found {}",
                    path.display(),
                    t.type_name()
                ))
            })
        })
        .collect()
}

impl FedTask {
    /// Loads a LEAF-format directory as a ready-to-train task, preserving
    /// the **natural per-user partition** (no synthetic splitter runs).
    ///
    /// Layouts (see module docs): `dir/train/*.json` [+ `dir/test/*.json`]
    /// uses the on-disk train/test split verbatim; a flat `dir/*.json`
    /// corpus is split 80/20 per user with the suite's seeded scheme (only
    /// there does `seed` matter). For [`LeafBenchmark::Sent140`] the
    /// vocabulary comes from a `dir/vocab.json` sidecar when present and is
    /// otherwise built deterministically from the training corpus via
    /// [`build_sent140_vocab`].
    ///
    /// Everything is validated before any asserting constructor runs, so
    /// malformed input yields a typed [`LeafError`], never a panic.
    pub fn from_leaf_dir(
        dir: impl AsRef<Path>,
        bench: LeafBenchmark,
        seed: u64,
    ) -> Result<FedTask, LeafError> {
        let dir = dir.as_ref();
        bench.validate()?;
        let train_dir = dir.join("train");
        let (train_paths, test_paths) = if train_dir.is_dir() {
            let test_dir = dir.join("test");
            let test = if test_dir.is_dir() {
                json_files(&test_dir)?
            } else {
                Vec::new()
            };
            (json_files(&train_dir)?, test)
        } else {
            (json_files(dir)?, Vec::new())
        };
        if train_paths.is_empty() {
            return Err(LeafError::Empty(format!(
                "no .json split files under {}",
                dir.display()
            )));
        }
        let vocab: Option<Vec<String>> = match bench {
            LeafBenchmark::Sent140 { max_vocab } => {
                let sidecar = dir.join("vocab.json");
                Some(if sidecar.is_file() {
                    read_vocab_sidecar(&sidecar)?
                } else {
                    build_sent140_vocab(&train_paths, max_vocab)?
                })
            }
            _ => None,
        };
        let feat = make_featurizer(&bench, vocab.as_deref())?;
        let train = parse_files(&train_paths, &feat)?;
        let test = if test_paths.is_empty() {
            None
        } else {
            Some(parse_files(&test_paths, &feat)?)
        };

        let classes = match &test {
            Some(t) => resolve_classes(&bench, &[&train, t]),
            None => resolve_classes(&bench, &[&train]),
        };
        let tokens = matches!(bench, LeafBenchmark::Reddit { .. });
        let fed = match test {
            Some(test) => {
                // Natural partition: the on-disk split is the split.
                let train_users: Vec<String> = train.iter().map(|u| u.name.clone()).collect();
                let train_data = finalize_users(train, classes, tokens)?;
                let test_users: Vec<String> = test.iter().map(|u| u.name.clone()).collect();
                let mut test_by_name: HashMap<String, Dataset> = test_users
                    .into_iter()
                    .zip(finalize_users(test, classes, tokens)?)
                    .collect();
                let mut clients = Vec::with_capacity(train_data.len());
                for (name, train) in train_users.iter().zip(train_data) {
                    let test = test_by_name
                        .remove(name)
                        .ok_or_else(|| LeafError::MissingUser(name.clone()))?;
                    clients.push(ClientData { train, test });
                }
                if let Some(extra) = test_by_name.into_keys().next() {
                    return Err(LeafError::Schema(format!(
                        "test split contains user `{extra}` absent from the train split"
                    )));
                }
                FederatedDataset::from_client_splits(clients)
            }
            None => {
                let parts = finalize_users(train, classes, tokens)?;
                for (i, p) in parts.iter().enumerate() {
                    if p.len() < 2 {
                        return Err(LeafError::Schema(format!(
                            "flat-layout user #{i} has {} samples — the 80/20 split needs \
                             at least 2 (provide train/ and test/ subdirectories instead)",
                            p.len()
                        )));
                    }
                }
                FederatedDataset::from_partitions(parts, seed)
            }
        };

        let (model, target_accuracy) = match bench {
            LeafBenchmark::Femnist { height, width, .. } => (
                ModelSpec::CnnLite {
                    channels: 1,
                    height,
                    width,
                    classes,
                },
                0.70,
            ),
            LeafBenchmark::Sent140 { .. } => (
                ModelSpec::Logistic {
                    input: fed.features,
                    classes: 2,
                },
                0.73,
            ),
            LeafBenchmark::Reddit { .. } => (
                ModelSpec::LstmLm {
                    vocab: classes,
                    embed: 16,
                    hidden: 24,
                },
                0.25,
            ),
        };
        Ok(FedTask {
            name: format!("{}-leaf", bench.name()),
            fed,
            model,
            target_accuracy,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn femnist_small() -> LeafBenchmark {
        LeafBenchmark::Femnist {
            height: 4,
            width: 4,
            classes: 3,
        }
    }

    fn tiny_femnist_doc() -> String {
        let px: Vec<String> = (0..16).map(|i| format!("{}", i as f32 * 0.5)).collect();
        let row = px.join(", ");
        format!(
            r#"{{"users": ["a", "b"], "num_samples": [2, 1],
                "user_data": {{
                  "a": {{"x": [[{row}], [{row}]], "y": [0, 2]}},
                  "b": {{"x": [[{row}]], "y": [1]}}
                }}}}"#
        )
    }

    #[test]
    fn tiny_split_parses_in_user_order() {
        let split = parse_split(
            Cursor::new(tiny_femnist_doc().into_bytes()),
            &femnist_small(),
            None,
        )
        .unwrap();
        assert_eq!(split.users, vec!["a".to_string(), "b".to_string()]);
        assert_eq!(split.data[0].len(), 2);
        assert_eq!(split.data[1].len(), 1);
        assert_eq!(split.data[0].y, vec![0, 2]);
        assert_eq!(split.data[0].features(), 16);
        assert_eq!(split.data[0].x.row(0)[2], 1.0);
    }

    #[test]
    fn unknown_top_level_keys_are_skipped() {
        let doc = tiny_femnist_doc().replacen(
            "\"users\"",
            "\"hierarchies\": [[1, {\"deep\": true}]], \"users\"",
            1,
        );
        assert!(parse_split(Cursor::new(doc.into_bytes()), &femnist_small(), None).is_ok());
    }

    #[test]
    fn sent140_counts_tokens_against_vocab() {
        let doc = r#"{"users": ["u"], "num_samples": [2],
            "user_data": {"u": {"x": ["good good bad", [0, "bad ugly"]], "y": [1, 0]}}}"#;
        let vocab = vec!["bad".to_string(), "good".to_string()];
        let split = parse_split(
            Cursor::new(doc.as_bytes()),
            &LeafBenchmark::sent140(),
            Some(&vocab),
        )
        .unwrap();
        assert_eq!(split.data[0].x.row(0), &[1.0, 2.0]);
        assert_eq!(split.data[0].x.row(1), &[1.0, 0.0]); // "ugly" is OOV
        assert_eq!(split.data[0].y, vec![1, 0]);
    }

    #[test]
    fn reddit_infers_vocab_and_strides() {
        let doc = r#"{"users": ["u"], "num_samples": [2],
            "user_data": {"u": {"x": [[0, 4, 2], [1, 1, 1]], "y": [[4, 2, 3], [1, 1, 0]]}}}"#;
        let split =
            parse_split(Cursor::new(doc.as_bytes()), &LeafBenchmark::reddit(), None).unwrap();
        assert_eq!(split.data[0].targets_per_row, 3);
        assert_eq!(split.data[0].classes, 5);
        assert_eq!(split.data[0].y, vec![4, 2, 3, 1, 1, 0]);
    }

    #[test]
    fn sent140_without_vocab_is_a_schema_error_at_reader_level() {
        let doc = r#"{"users": [], "num_samples": [], "user_data": {}}"#;
        assert!(matches!(
            parse_split(Cursor::new(doc.as_bytes()), &LeafBenchmark::sent140(), None),
            Err(LeafError::Schema(_))
        ));
    }

    #[test]
    fn femnist_benchmark_validates_pool_divisibility() {
        let bad = LeafBenchmark::Femnist {
            height: 30,
            width: 30,
            classes: 62,
        };
        assert!(matches!(bad.validate(), Err(LeafError::Schema(_))));
        assert!(LeafBenchmark::femnist().validate().is_ok());
    }

    #[test]
    fn errors_display_their_context() {
        let e = LeafError::NumSamplesMismatch {
            user: "u9".into(),
            declared: 5,
            actual: 3,
        };
        let msg = e.to_string();
        assert!(
            msg.contains("u9") && msg.contains('5') && msg.contains('3'),
            "{msg}"
        );
    }
}
