//! Output digests and the committed goldens (`golden/fidelity.json`).
//!
//! Simulated cycles repeat exactly, so every rendered exhibit and every
//! served result has one right answer per commit. The goldens hold a
//! digest of each exhibit's text at the benchmark's scale and, per
//! committed seed and serve workload, a digest of the first block of
//! `(job key, cycles bits)` pairs. `mic-perf run --write-golden` rewrites
//! the file after a change that is meant to alter results.

use mic_eval::json::{self, Value};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// FNV-1a, 64 bit. Goldens need a stable fingerprint, not a secure one.
#[derive(Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(mut self, bytes: &[u8]) -> Digest {
        for b in bytes {
            self.0 = (self.0 ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

pub fn text_digest(text: &str) -> String {
    Digest::new().bytes(text.as_bytes()).hex()
}

/// Digest of `(key, cycles)` pairs in stream order.
pub fn pairs_digest<'a>(pairs: impl Iterator<Item = (&'a str, u64)>) -> String {
    pairs
        .fold(Digest::new(), |d, (key, bits)| {
            d.bytes(key.as_bytes())
                .bytes(&[0])
                .bytes(&bits.to_le_bytes())
        })
        .hex()
}

pub fn dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("golden")
}

/// Name → digest. Exhibits are `exhibit.<id>`; response blocks are
/// `responses.<seed>.<workload>`.
pub type Goldens = BTreeMap<String, String>;

pub fn responses_name(seed: u64, workload: &str) -> String {
    format!("responses.{seed}.{workload}")
}

pub fn load() -> Result<Goldens, String> {
    let path = dir().join("fidelity.json");
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    match json::parse(&text)? {
        Value::Obj(fields) => fields
            .into_iter()
            .map(|(k, v)| match v {
                Value::Str(s) => Ok((k, s)),
                other => Err(format!("golden {k} is not a string: {other:?}")),
            })
            .collect(),
        other => Err(format!("golden file is not an object: {other:?}")),
    }
}

pub fn write(goldens: &Goldens) -> std::io::Result<()> {
    std::fs::create_dir_all(dir())?;
    let mut text = String::from("{\n");
    for (i, (k, v)) in goldens.iter().enumerate() {
        let comma = if i + 1 < goldens.len() { "," } else { "" };
        text.push_str(&format!("  \"{}\": \"{}\"{comma}\n", json::escape(k), v));
    }
    text.push_str("}\n");
    std::fs::write(dir().join("fidelity.json"), text)
}

/// Compare one produced digest with its golden; `Some` names the failure.
/// Exhibits are `required` to have a golden; a response block of a seed
/// that is not committed has none and is not checked.
pub fn mismatch(goldens: &Goldens, name: &str, got: &str, required: bool) -> Option<String> {
    match goldens.get(name) {
        Some(want) if want != got => Some(format!("{name}: digest {got}, golden {want}")),
        None if required => Some(format!("{name}: no golden (run --write-golden)")),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digests_separate_keys_from_values_and_order() {
        let a = pairs_digest([("ab", 1u64), ("c", 2)].into_iter());
        let b = pairs_digest([("a", 1u64), ("bc", 2)].into_iter());
        let c = pairs_digest([("c", 2u64), ("ab", 1)].into_iter());
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(text_digest(""), "cbf29ce484222325");
        assert_eq!(text_digest("a"), "af63dc4c8601ec8c");
    }

    #[test]
    fn only_committed_names_are_checked() {
        let mut g = Goldens::new();
        g.insert("exhibit.fig2".into(), "00".into());
        assert!(mismatch(&g, "exhibit.fig2", "00", true).is_none());
        assert!(mismatch(&g, "exhibit.fig2", "01", true)
            .unwrap()
            .contains("fig2"));
        assert!(mismatch(&g, "responses.9.serve-hot", "01", false).is_none());
        assert!(mismatch(&g, "exhibit.new", "01", true).is_some());
    }
}
