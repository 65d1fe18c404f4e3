//! The one argument parser behind every bench binary.
//!
//! Each bin used to hand-roll the same `--scale` loop with slightly
//! different `expect` messages; this module replaces the copies with one
//! set of semantics:
//!
//! - `--help` / `-h` print the bin's usage line and exit 0;
//! - `--scale K` parses a positive integer divisor (`K <= 1` = full
//!   paper size) — [`Cli::scale`] takes the bin's default;
//! - `--check` is a shared boolean flag; `--out PATH` and `--threads N`
//!   are shared valued flags;
//! - a flag missing its value, or an unparsable value (`--threads 0`
//!   included), prints the usage line and exits 2 (instead of a panic
//!   backtrace);
//! - unconsumed `--flags` and surplus positionals are rejected by
//!   [`Cli::positionals`] / [`Cli::done`], so typos fail loudly.
//!
//! [`Cli::parse`] also installs the environment
//! [`SuiteConfig`](mic_eval::config::SuiteConfig), making the typed
//! config the single knob path for every bin; flags a bin exposes on top
//! (e.g. `--out`) override the config per the builder-over-env rule.

use mic_eval::config::SuiteConfig;
use mic_eval::graph::suite::Scale;
use std::num::NonZeroUsize;
use std::path::PathBuf;
use std::str::FromStr;
use std::sync::Arc;

/// Parsed command line of a bench bin. Consume flags with the accessor
/// methods, then call [`positionals`](Cli::positionals) (or
/// [`done`](Cli::done)) to reject leftovers.
pub struct Cli {
    bin: &'static str,
    usage: &'static str,
    args: Vec<String>,
}

impl Cli {
    /// Parse the process arguments for `bin`. Handles `--help`, installs
    /// the environment [`SuiteConfig`] process-wide, and returns the
    /// remaining arguments for the accessors below.
    pub fn parse(bin: &'static str, usage: &'static str) -> Cli {
        Self::parse_from(bin, usage, std::env::args().skip(1).collect())
    }

    /// [`Cli::parse`] over an explicit argument vector (unit tests).
    pub(crate) fn parse_from(bin: &'static str, usage: &'static str, args: Vec<String>) -> Cli {
        if args.iter().any(|a| a == "--help" || a == "-h") {
            println!("usage: {usage}");
            std::process::exit(0);
        }
        SuiteConfig::from_env().install();
        Cli { bin, usage, args }
    }

    /// The installed suite configuration (env knobs, typed).
    pub fn config(&self) -> Arc<SuiteConfig> {
        mic_eval::config::current()
    }

    /// Print `msg` and the usage line, then exit 2.
    pub fn die(&self, msg: &str) -> ! {
        eprintln!("{}: {msg}", self.bin);
        eprintln!("usage: {}", self.usage);
        std::process::exit(2);
    }

    /// Consume a boolean flag; true if it was present.
    pub fn flag(&mut self, name: &str) -> bool {
        match self.args.iter().position(|a| a == name) {
            Some(i) => {
                self.args.remove(i);
                true
            }
            None => false,
        }
    }

    /// Consume `name VALUE`; `None` when the flag is absent, usage error
    /// when the value is missing.
    pub fn opt(&mut self, name: &str) -> Option<String> {
        let i = self.args.iter().position(|a| a == name)?;
        if i + 1 >= self.args.len() || self.args[i + 1].starts_with("--") {
            self.die(&format!("{name} needs a value"));
        }
        let value = self.args.remove(i + 1);
        self.args.remove(i);
        Some(value)
    }

    /// [`opt`](Cli::opt) parsed as `T`; usage error naming the flag on a
    /// bad value.
    pub fn opt_parse<T: FromStr>(&mut self, name: &str, want: &str) -> Option<T> {
        let raw = self.opt(name)?;
        match raw.parse::<T>() {
            Ok(v) => Some(v),
            Err(_) => self.die(&format!("{name} needs {want}, got {raw:?}")),
        }
    }

    /// `--scale K` with the bin's default: `K <= 1` means the full paper
    /// size, larger values divide the suite.
    pub fn scale(&mut self, default: Scale) -> Scale {
        match self.opt_parse::<u32>("--scale", "a positive integer divisor") {
            Some(k) if k <= 1 => Scale::Full,
            Some(k) => Scale::Fraction(k),
            None => default,
        }
    }

    /// `--threads N` with a default; `0` is a usage error.
    pub fn threads(&mut self, default: usize) -> usize {
        self.opt_parse::<NonZeroUsize>("--threads", "a positive integer")
            .map_or(default, NonZeroUsize::get)
    }

    /// `--out PATH`.
    pub fn out(&mut self) -> Option<PathBuf> {
        self.opt("--out").map(PathBuf::from)
    }

    /// `--check` (validate and exit nonzero on failure).
    pub fn check(&mut self) -> bool {
        self.flag("--check")
    }

    /// Remaining positional arguments, at most `max` of them. A leftover
    /// `--flag` is a usage error (it was not consumed by the bin, so it is
    /// a typo), and so is a positional beyond the `max`th.
    pub fn positionals(&mut self, max: usize) -> Vec<String> {
        if let Some(bad) = self.args.iter().find(|a| a.starts_with("--")) {
            self.die(&format!("unknown flag {bad}"));
        }
        if let Some(extra) = self.args.get(max) {
            self.die(&format!("unexpected argument {extra:?}"));
        }
        std::mem::take(&mut self.args)
    }

    /// Assert no arguments remain (bins without positionals).
    pub fn done(self) {
        if let Some(bad) = self.args.first() {
            self.die(&format!("unexpected argument {bad:?}"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Cli {
        Cli::parse_from(
            "test",
            "test [--scale K]",
            args.iter().map(|s| s.to_string()).collect(),
        )
    }

    #[test]
    fn scale_grammar() {
        assert_eq!(cli(&[]).scale(Scale::Full), Scale::Full);
        assert_eq!(
            cli(&["--scale", "64"]).scale(Scale::Full),
            Scale::Fraction(64)
        );
        assert_eq!(
            cli(&["--scale", "1"]).scale(Scale::Fraction(4)),
            Scale::Full
        );
        assert_eq!(cli(&[]).scale(Scale::Fraction(8)), Scale::Fraction(8));
    }

    #[test]
    fn flags_and_options_consume() {
        let mut c = cli(&["--list", "--out", "x.json", "a", "--check"]);
        assert!(c.flag("--list"));
        assert!(c.check());
        assert_eq!(c.out(), Some(PathBuf::from("x.json")));
        assert!(!c.flag("--list"), "consumed flags do not match twice");
        assert_eq!(c.positionals(1), vec!["a".to_string()]);
    }

    #[test]
    fn threads_default_applies() {
        assert_eq!(cli(&[]).threads(4), 4);
        assert_eq!(cli(&["--threads", "9"]).threads(4), 9);
    }
}
