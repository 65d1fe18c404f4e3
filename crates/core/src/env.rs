//! Warn-and-default environment-variable parsing shared by the harness
//! knobs (`MIC_SWEEP_*`, `MIC_TRACE`, `MIC_METRICS`, `MIC_STORE*`, …).
//!
//! Every reader follows one discipline: unset or empty means "use the
//! default", silently; a set-but-unusable value is rejected with a
//! one-line stderr warning (once per variable per process) and the default
//! is used anyway. Silent fallback used to make `MIC_SWEEP_THREADS=O`
//! typos indistinguishable from the default — the warn-once keeps a typo
//! loud without spamming a sweep that reads the knob thousands of times.
//!
//! The `parse_*` functions are pure (unit-testable without touching the
//! process environment); the same-named snake_case accessors wrap them
//! with the `std::env::var` read and the warning.

use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::{Mutex, OnceLock};

/// Emit the rejection warning for `name` once per process.
fn warn_once(name: &str, raw: &str, want: &str) {
    static WARNED: OnceLock<Mutex<HashSet<String>>> = OnceLock::new();
    let mut set = WARNED
        .get_or_init(|| Mutex::new(HashSet::new()))
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    if set.insert(name.to_string()) {
        eprintln!("mic-eval: ignoring {name}={raw:?} (need {want}); using default");
    }
}

/// Parse a positive-integer knob. Empty (after trimming) means "unset";
/// anything else must be an integer `>= 1`. `Err` carries the raw value
/// verbatim so the caller can name it.
pub(crate) fn parse_positive_usize(raw: &str) -> Result<Option<usize>, &str> {
    let t = raw.trim();
    if t.is_empty() {
        return Ok(None);
    }
    match t.parse::<usize>() {
        Ok(n) if n >= 1 => Ok(Some(n)),
        _ => Err(raw),
    }
}

/// Parse a non-negative-integer knob (zero allowed — callers give zero
/// its own meaning, e.g. "no deadline").
pub(crate) fn parse_nonneg_u64(raw: &str) -> Result<Option<u64>, &str> {
    let t = raw.trim();
    if t.is_empty() {
        return Ok(None);
    }
    t.parse::<u64>().map(Some).map_err(|_| raw)
}

/// Parse a path-valued knob: unset, empty and `0` all mean "off".
pub(crate) fn parse_path(raw: &str) -> Option<PathBuf> {
    if raw.is_empty() || raw == "0" {
        return None;
    }
    Some(PathBuf::from(raw))
}

/// `name` as a positive integer, or `None` (warning once if set but bad).
pub(crate) fn positive_usize(name: &str) -> Option<usize> {
    let raw = std::env::var(name).ok()?;
    match parse_positive_usize(&raw) {
        Ok(v) => v,
        Err(rejected) => {
            warn_once(name, rejected, "a positive integer");
            None
        }
    }
}

/// `name` as a non-negative integer, or `None` (warning once if set but
/// bad).
pub(crate) fn nonneg_u64(name: &str) -> Option<u64> {
    let raw = std::env::var(name).ok()?;
    match parse_nonneg_u64(&raw) {
        Ok(v) => v,
        Err(rejected) => {
            warn_once(name, rejected, "a non-negative integer");
            None
        }
    }
}

/// `name` as a file path; unset, empty and `0` all mean `None`. Never
/// warns — any other string is a legitimate path.
pub fn path(name: &str) -> Option<PathBuf> {
    parse_path(&std::env::var(name).ok()?)
}

/// `name` as a raw non-empty string (`None` when unset or empty). For
/// knobs with their own grammar, e.g. `MIC_METRICS`.
pub fn raw(name: &str) -> Option<String> {
    std::env::var(name).ok().filter(|v| !v.trim().is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn positive_usize_grammar() {
        // Pinned: this is the documented MIC_SWEEP_THREADS behavior.
        assert_eq!(parse_positive_usize("4"), Ok(Some(4)));
        assert_eq!(parse_positive_usize(" 12 "), Ok(Some(12)));
        assert_eq!(parse_positive_usize(""), Ok(None), "empty means unset");
        assert_eq!(parse_positive_usize("0"), Err("0"));
        assert_eq!(parse_positive_usize("O"), Err("O"));
        assert_eq!(parse_positive_usize("-3"), Err("-3"));
        assert_eq!(parse_positive_usize("4.5"), Err("4.5"));
    }

    #[test]
    fn nonneg_u64_grammar() {
        assert_eq!(parse_nonneg_u64("0"), Ok(Some(0)), "zero is legal here");
        assert_eq!(parse_nonneg_u64(" 250 "), Ok(Some(250)));
        assert_eq!(parse_nonneg_u64(""), Ok(None));
        assert_eq!(parse_nonneg_u64("-1"), Err("-1"));
        assert_eq!(parse_nonneg_u64("12ms"), Err("12ms"));
    }

    #[test]
    fn path_grammar() {
        assert_eq!(parse_path(""), None);
        assert_eq!(parse_path("0"), None, "0 means off, not a file named 0");
        assert_eq!(parse_path("out/trace.json"), Some("out/trace.json".into()));
    }
}
