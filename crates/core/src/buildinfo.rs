//! Build identification: crate version plus the git commit, when one can
//! be found — stamped into `serve stats` output and every `BENCH_*.json`
//! header so a performance point is attributable to the commit that
//! produced it.
//!
//! The commit is resolved at *runtime* by reading `.git/HEAD` (walking up
//! from the working directory), never by shelling out — release binaries
//! copied off-box simply report the version alone. The lookup runs once
//! per process and is cached.

use std::path::Path;
use std::sync::OnceLock;

/// The workspace crate version (compile-time).
pub fn version() -> &'static str {
    env!("CARGO_PKG_VERSION")
}

/// The current git commit (short, 12 hex chars), when the process runs
/// inside a checkout. `None` outside a repository or on any read error.
pub(crate) fn git_sha() -> Option<&'static str> {
    static SHA: OnceLock<Option<String>> = OnceLock::new();
    SHA.get_or_init(|| {
        let start = std::env::current_dir().ok()?;
        resolve_sha(&start)
    })
    .as_deref()
}

/// `<version>+<sha>` when the commit is known, else just `<version>`.
pub fn stamp() -> String {
    match git_sha() {
        Some(sha) => format!("{}+{sha}", version()),
        None => version().to_string(),
    }
}

/// Walk up from `start` looking for a `.git` directory, then resolve its
/// HEAD to a commit hash.
fn resolve_sha(start: &Path) -> Option<String> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        let git = d.join(".git");
        if git.is_dir() {
            return head_commit(&git);
        }
        dir = d.parent();
    }
    None
}

fn head_commit(git: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let full = if let Some(refname) = head.strip_prefix("ref: ") {
        let refname = refname.trim();
        match std::fs::read_to_string(git.join(refname)) {
            Ok(sha) => sha.trim().to_string(),
            // Loose ref absent: the ref may be packed.
            Err(_) => packed_ref(git, refname)?,
        }
    } else {
        // Detached HEAD holds the hash directly.
        head.to_string()
    };
    let short: String = full.chars().take(12).collect();
    (short.len() == 12 && short.chars().all(|c| c.is_ascii_hexdigit())).then_some(short)
}

fn packed_ref(git: &Path, refname: &str) -> Option<String> {
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    for line in packed.lines() {
        if line.starts_with('#') || line.starts_with('^') {
            continue;
        }
        if let Some((sha, name)) = line.split_once(' ') {
            if name.trim() == refname {
                return Some(sha.trim().to_string());
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn version_is_nonempty_semverish() {
        let v = version();
        assert!(!v.is_empty());
        assert!(v.split('.').count() >= 2, "looks like a version: {v}");
    }

    #[test]
    fn stamp_embeds_version() {
        assert!(stamp().starts_with(version()));
    }

    #[test]
    fn sha_when_present_is_short_hex() {
        if let Some(sha) = git_sha() {
            assert_eq!(sha.len(), 12);
            assert!(sha.chars().all(|c| c.is_ascii_hexdigit()));
        }
    }

    #[test]
    fn resolve_handles_synthetic_repo_shapes() {
        let base = std::env::temp_dir().join(format!("mic-buildinfo-{}", std::process::id()));
        let git = base.join(".git");
        std::fs::create_dir_all(git.join("refs/heads")).unwrap();
        // Loose ref.
        std::fs::write(git.join("HEAD"), "ref: refs/heads/main\n").unwrap();
        std::fs::write(
            git.join("refs/heads/main"),
            "0123456789abcdef0123456789abcdef01234567\n",
        )
        .unwrap();
        let nested = base.join("deep/inner");
        std::fs::create_dir_all(&nested).unwrap();
        assert_eq!(resolve_sha(&nested).as_deref(), Some("0123456789ab"));
        // Packed ref.
        std::fs::remove_file(git.join("refs/heads/main")).unwrap();
        std::fs::write(
            git.join("packed-refs"),
            "# pack-refs with: peeled fully-peeled sorted\n\
             fedcba9876543210fedcba9876543210fedcba98 refs/heads/main\n",
        )
        .unwrap();
        assert_eq!(resolve_sha(&base).as_deref(), Some("fedcba987654"));
        // Detached HEAD.
        std::fs::write(
            git.join("HEAD"),
            "1111222233334444555566667777888899990000\n",
        )
        .unwrap();
        assert_eq!(resolve_sha(&base).as_deref(), Some("111122223333"));
        // Garbage HEAD resolves to nothing.
        std::fs::write(git.join("HEAD"), "not a sha\n").unwrap();
        assert_eq!(resolve_sha(&base), None);
        let _ = std::fs::remove_dir_all(&base);
    }
}
