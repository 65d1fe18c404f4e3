//! `mic-perf`: one layered benchmark for the exhibit pipeline and the
//! serve path. See README.md for the metrics and how they interact.
//!
//! ```text
//! mic-perf run [--workload NAME] [--seed N] [--seconds S] [--traced | --trace 0|1]
//!              [--out PATH] [--write-golden]
//! mic-perf agree A.json B.json
//! mic-perf spec                      # prints BENCHMARK.json
//! ```

mod agree;
mod catalogue;
mod child;
mod driver;
mod exhibits;
mod golden;
mod keys;
mod probes;
mod report;
mod serve;
mod spans;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "usage: mic-perf run [--workload NAME] [--seed N] [--seconds S] \
[--traced | --trace 0|1] [--out PATH] [--write-golden]\n       \
mic-perf agree A.json B.json\n       mic-perf spec";

/// `--flag value` pairs and bare flags, in any order.
struct Flags(Vec<String>);

impl Flags {
    fn value(&mut self, flag: &str) -> Result<Option<String>, String> {
        match self.0.iter().position(|a| a == flag) {
            None => Ok(None),
            Some(i) if i + 1 < self.0.len() => {
                self.0.remove(i);
                Ok(Some(self.0.remove(i)))
            }
            Some(_) => Err(format!("{flag} needs a value")),
        }
    }

    fn number<T: std::str::FromStr>(&mut self, flag: &str) -> Result<Option<T>, String> {
        self.value(flag)?
            .map(|v| v.parse().map_err(|_| format!("{flag}: bad value {v:?}")))
            .transpose()
    }

    fn present(&mut self, flag: &str) -> bool {
        let before = self.0.len();
        self.0.retain(|a| a != flag);
        self.0.len() != before
    }

    fn done(self) -> Result<(), String> {
        match self.0.first() {
            None => Ok(()),
            Some(extra) => Err(format!("unexpected argument {extra:?}\n{USAGE}")),
        }
    }
}

fn run(mut f: Flags) -> Result<bool, String> {
    let traced = f.present("--traced") | (f.number::<u8>("--trace")? == Some(1));
    let args = driver::RunArgs {
        workload: f.value("--workload")?,
        seed: f.number("--seed")?.unwrap_or(1),
        seconds: f
            .number("--seconds")?
            .unwrap_or(catalogue::RUN_SECONDS)
            .max(1),
        traced,
        out: f.value("--out")?.map(PathBuf::from),
        write_golden: f.present("--write-golden"),
    };
    f.done()?;
    driver::run(args)
}

fn child(mut f: Flags) -> Result<bool, String> {
    let spans = f.value("--spans")?.ok_or("child needs --spans")?;
    let args = child::ChildArgs {
        workload: f.value("--workload")?.ok_or("child needs --workload")?,
        seed: f.number("--seed")?.unwrap_or(1),
        window: Duration::from_millis(f.number("--window-ms")?.unwrap_or(0)),
        windows: match spans.as_str() {
            "off" => vec![false],
            "on" => vec![true],
            "both" => vec![false, true],
            other => return Err(format!("--spans: bad value {other:?}")),
        },
        spawned_at_ns: f.number("--spawned-at-ns")?.unwrap_or_else(child::now_ns),
        unchecked: f.present("--unchecked"),
    };
    f.done()?;
    child::run(args).map(|()| true)
}

fn agree(f: Flags) -> Result<bool, String> {
    let [a, b] = f.0.as_slice() else {
        return Err(USAGE.to_string());
    };
    let load = |path: &String| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        report::RunResult::from_json(&text).map_err(|e| format!("{path}: {e}"))
    };
    Ok(agree::compare(&load(a)?, &load(b)?))
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => run(Flags(args.split_off(1))),
        Some("child") => child(Flags(args.split_off(1))),
        Some("agree") => agree(Flags(args.split_off(1))),
        Some("spec") => {
            print!("{}", catalogue::benchmark_json());
            Ok(true)
        }
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("mic-perf: {why}");
            ExitCode::from(2)
        }
    }
}
