//! The one-line result object a run prints, and its reader.
//!
//! Written by hand and read back through the repository's own
//! `fedat_data::leaf::json::JsonReader`: the build is offline and the
//! vendored `serde` has no JSON backend.

use crate::manifest::unit_of;
use fedat_data::leaf::json::{JsonReader, JsonValue};

/// What a pass reports: the driver's result object.
pub struct PassResult {
    /// Every output check passed.
    pub correct: bool,
    /// Full-length runs attempted.
    pub attempted: u64,
    /// Runs whose output failed a check.
    pub failed: u64,
    /// `(name, value)` in manifest order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Human-readable reasons behind `failed` / `!correct` (stderr).
    pub problems: Vec<String>,
}

/// Renders the result object: exactly the keys `correct`, `attempted`,
/// `failed` and `metrics`, every value with all its digits.
pub fn render_result(pass: &PassResult) -> String {
    let metrics: Vec<String> = pass
        .metrics
        .iter()
        .map(|(name, value)| {
            let unit = unit_of(name).expect("every reported metric is in the manifest");
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                number(*value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        pass.correct,
        pass.attempted,
        pass.failed,
        metrics.join(", ")
    )
}

/// A JSON number for `v`. JSON has no NaN or infinity; a pass that measured
/// one is already marked incorrect, and the value is written as 0.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// A result object read back.
#[derive(Clone, Debug, PartialEq)]
pub struct ParsedResult {
    /// Every output check passed.
    pub correct: bool,
    /// Runs attempted.
    pub attempted: u64,
    /// Runs failed.
    pub failed: u64,
    /// `(name, value, unit)` in file order.
    pub metrics: Vec<(String, f64, String)>,
}

/// Parses a whole JSON document.
pub fn parse_json(text: &str) -> Result<JsonValue, String> {
    let mut reader = JsonReader::new(text.as_bytes());
    let value = reader.parse_value(0).map_err(|e| e.to_string())?;
    reader.expect_eof().map_err(|e| e.to_string())?;
    Ok(value)
}

/// The members of a JSON object, or an error naming `what`.
pub fn members<'a>(v: &'a JsonValue, what: &str) -> Result<&'a [(String, JsonValue)], String> {
    match v {
        JsonValue::Object(m) => Ok(m),
        other => Err(format!(
            "{what}: expected object, found {}",
            other.type_name()
        )),
    }
}

/// Member `key` of object `v` as a number.
pub fn number_at(v: &JsonValue, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| format!("missing number `{key}`"))
}

/// Parses a result line printed by [`render_result`].
pub fn parse_result(line: &str) -> Result<ParsedResult, String> {
    let doc = parse_json(line)?;
    let keys: Vec<&str> = members(&doc, "result")?
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    if keys != ["correct", "attempted", "failed", "metrics"] {
        return Err(format!("unexpected result keys {keys:?}"));
    }
    let correct = match doc.get("correct") {
        Some(JsonValue::Bool(b)) => *b,
        _ => return Err("`correct` is not a boolean".to_string()),
    };
    let metrics = members(doc.get("metrics").expect("key checked above"), "metrics")?
        .iter()
        .map(|(name, m)| {
            let unit = m
                .get("unit")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| format!("metric {name}: missing unit"))?;
            Ok((name.clone(), number_at(m, "value")?, unit.to_string()))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(ParsedResult {
        correct,
        attempted: number_at(&doc, "attempted")? as u64,
        failed: number_at(&doc, "failed")? as u64,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips_through_the_reader() {
        let pass = PassResult {
            correct: true,
            attempted: 9,
            failed: 0,
            metrics: vec![
                ("client_rounds_per_s", 1234.567891234),
                ("setup_s", 0.000012034),
                ("accuracy_variance", 3.5e-7),
            ],
            problems: Vec::new(),
        };
        let line = render_result(&pass);
        assert!(!line.contains('\n'));
        let parsed = parse_result(&line).unwrap();
        assert_eq!(
            parsed,
            ParsedResult {
                correct: true,
                attempted: 9,
                failed: 0,
                metrics: vec![
                    ("client_rounds_per_s".into(), 1234.567891234, "1/s".into()),
                    ("setup_s".into(), 0.000012034, "s".into()),
                    ("accuracy_variance".into(), 3.5e-7, "1".into()),
                ],
            }
        );
    }

    #[test]
    fn non_finite_values_stay_valid_json_and_bad_lines_are_rejected() {
        assert_eq!(number(f64::NAN), "0");
        assert_eq!(number(f64::INFINITY), "0");
        assert_eq!(number(0.1 + 0.2), "0.30000000000000004");
        assert!(parse_result("{\"correct\": true}").is_err());
        assert!(parse_result("not json").is_err());
        assert!(parse_result("{} trailing").is_err());
    }
}
