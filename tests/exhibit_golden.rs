//! The exhibits' bytes are a tier-1 fact: every exhibit `all` prints,
//! rendered in-process at `Scale::Fraction(64)`, must equal
//! `tests/golden/all-64.txt` (the stdout of `all --scale 64`) byte for
//! byte. On a mismatch the rendered text is written beside the golden as
//! `all-64.actual.txt`, and the failure names the first differing line of
//! each exhibit. A change meant to alter results regenerates the golden
//! with `target/release/all --scale 64`.

use mic_eval::exhibit;
use mic_eval::graph::suite::Scale;
use std::path::Path;

#[test]
fn all_exhibits_at_scale_64_match_the_golden() {
    assert!(!mic_metrics::enabled(), "metrics capture must be off");
    assert!(
        mic_eval::config::current().fault.is_none(),
        "a fault plan is configured"
    );
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden");
    let golden = std::fs::read_to_string(dir.join("all-64.txt")).expect("read the golden");
    let golden_lines: Vec<&str> = golden.lines().collect();

    let mut actual = String::new();
    let mut diffs = Vec::new();
    for e in exhibit::registry().in_all() {
        // `all` prints each exhibit followed by a newline.
        let block = format!("{}\n", (e.run)(Scale::Fraction(64)));
        let first = actual.lines().count();
        let mismatch = block.lines().enumerate().find_map(|(i, got)| {
            let want = golden_lines.get(first + i).copied();
            (want != Some(got)).then(|| (first + i + 1, want.unwrap_or("<end of golden>"), got))
        });
        if let Some((line, want, got)) = mismatch {
            diffs.push(format!(
                "{}: line {line}\n  golden: {want}\n  actual: {got}",
                e.id
            ));
        }
        actual.push_str(&block);
    }
    if actual != golden {
        let out = dir.join("all-64.actual.txt");
        std::fs::write(&out, &actual).expect("write the actual text");
        if diffs.is_empty() {
            diffs.push(format!(
                "the golden has {} lines, the render {}",
                golden_lines.len(),
                actual.lines().count()
            ));
        }
        panic!(
            "exhibit text differs from {} (actual written to {}):\n{}",
            dir.join("all-64.txt").display(),
            out.display(),
            diffs.join("\n")
        );
    }
}
