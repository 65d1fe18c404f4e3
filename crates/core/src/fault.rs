//! Deterministic fault injection for the whole harness.
//!
//! A [`FaultPlan`] is parsed from `MIC_FAULT=<seed>:<spec>` and decides,
//! purely from hashes of `(seed, class, site)`, whether a fault
//! fires at a given site — so the same seed always yields the same fault
//! schedule regardless of thread interleaving, and every failure CI finds
//! is replayable locally with one environment variable.
//!
//! Spec grammar (see DESIGN.md "Failure model & recovery"):
//!
//! ```text
//! MIC_FAULT = <seed> ":" rule ("," rule)*
//! rule      = class ("@" rate | "#" index)
//! class     = "job-panic"
//!           | "io-short-write" | "io-torn-page" | "io-fsync-fail" | "io-open-fail"
//! ```
//!
//! `@rate` fires probabilistically per site; `#index` targets one exact
//! site. Every class models a fault production can produce: a bug that
//! panics a job, or the store's file failing under it.
//!
//! A plan is a value held by what injects it; nothing is installed
//! process-wide. `job-panic` hits only [`crate::sweep::try_run`] given a
//! plan: `mic-serve` passes `ServeOpts::fault` (site = the N-th job a
//! shard starts). The strict sweep maps behind every exhibit take no
//! plan: an exhibit has nothing to degrade to, so its one failure is a
//! bug, and a bug stops the run. `io-*` faults hit the file boundaries of
//! a store opened with the plan as its [`IoFaults`] injector — serve's
//! result store and the workload cache's `MIC_STORE` tier of suite graphs
//! and PageRank iteration counts (site = the file offset of each 4 KiB
//! block of a record write, the log length for fsyncs, file-name hash for
//! opens). A body panicking inside a runtime construct needs no
//! injector: a test raises it by panicking (`failure_injection.rs`).
//!
//! An *unknown* `io-` subclass is skipped with a warning instead of
//! rejecting the whole spec — the io family is expected to grow, and a
//! chaos sweep with one newer rule should still run its known rules (any
//! other unknown class stays a hard error).

use mic_store::fault::{IoFault, IoFaults, IoOp, IoSite};
use std::sync::atomic::{AtomicU64, Ordering};

/// Every fault class the injector knows. The discriminants feed the
/// decision hash (and the flight recorder's `Fault` events), so they are
/// pinned: the committed chaos seeds keep firing at the same sites.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultClass {
    /// A served job panics in place of running.
    JobPanic = 0,
    /// A store record write lands half its bytes, then errors (torn
    /// prefix on disk — what a killed writer leaves).
    IoShortWrite = 7,
    /// A store record write silently lands corrupted bytes and reports
    /// success; only checksums catch it later (a torn record; the name
    /// predates the log format).
    IoTornPage = 8,
    /// A store fsync fails (the persist must not be acknowledged).
    IoFsyncFail = 9,
    /// Opening the store file fails.
    IoOpenFail = 10,
}

impl FaultClass {
    const ALL: [(FaultClass, &'static str); 5] = [
        (FaultClass::JobPanic, "job-panic"),
        (FaultClass::IoShortWrite, "io-short-write"),
        (FaultClass::IoTornPage, "io-torn-page"),
        (FaultClass::IoFsyncFail, "io-fsync-fail"),
        (FaultClass::IoOpenFail, "io-open-fail"),
    ];

    /// The spec-grammar name.
    pub fn name(self) -> &'static str {
        Self::ALL
            .iter()
            .find(|(c, _)| *c == self)
            .map(|(_, n)| n)
            .unwrap()
    }

    fn from_name(s: &str) -> Option<FaultClass> {
        Self::ALL.iter().find(|(_, n)| *n == s).map(|(c, _)| *c)
    }
}

/// When a rule fires.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Trigger {
    /// Fire with this probability at every site.
    Rate(f64),
    /// Fire at exactly this site.
    Index(u64),
}

/// One parsed rule of a fault spec.
#[derive(Clone, Debug, PartialEq)]
struct FaultRule {
    class: FaultClass,
    trigger: Trigger,
}

/// A seeded, deterministic fault schedule.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    rules: Vec<FaultRule>,
}

/// splitmix64: a tiny, well-mixed stateless hash — the decision function
/// depends only on its inputs, never on call order.
const fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

impl FaultPlan {
    /// Parse `<seed>:<rule>(,<rule>)*` (the `MIC_FAULT` value).
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let (seed_s, rules_s) = spec
            .split_once(':')
            .ok_or_else(|| format!("missing ':' in fault spec {spec:?} (want <seed>:<rules>)"))?;
        let seed: u64 = seed_s
            .trim()
            .parse()
            .map_err(|_| format!("fault seed {seed_s:?} is not a u64"))?;
        let mut rules = Vec::new();
        for raw in rules_s.split(',') {
            let raw = raw.trim();
            if raw.is_empty() {
                continue;
            }
            if let Some(rule) = Self::parse_rule(raw)? {
                rules.push(rule);
            }
        }
        if rules.is_empty() {
            return Err(format!("fault spec {spec:?} has no rules"));
        }
        Ok(FaultPlan { seed, rules })
    }

    /// `Ok(None)` = the rule was skipped with a warning (unknown `io-`
    /// subclass); any other malformed rule rejects the whole spec.
    fn parse_rule(raw: &str) -> Result<Option<FaultRule>, String> {
        let sep = raw
            .find(['@', '#'])
            .ok_or_else(|| format!("rule {raw:?} needs '@rate' or '#index'"))?;
        let class_name = &raw[..sep];
        let Some(class) = FaultClass::from_name(class_name) else {
            if class_name.starts_with("io-") {
                // The io family is expected to grow: skip-with-warning so
                // a spec with one newer subclass still runs its known
                // rules, instead of silently injecting nothing.
                eprintln!(
                    "mic-eval: skipping unknown io fault subclass {class_name:?} \
                     (known: io-short-write, io-torn-page, io-fsync-fail, io-open-fail)"
                );
                return Ok(None);
            }
            return Err(format!("unknown fault class {class_name:?}"));
        };
        let value_s = &raw[sep + 1..];
        let trigger = if raw.as_bytes()[sep] == b'@' {
            let rate: f64 = value_s
                .parse()
                .map_err(|_| format!("rule {raw:?}: bad rate {value_s:?}"))?;
            if !(0.0..=1.0).contains(&rate) {
                return Err(format!("rule {raw:?}: rate must be in [0, 1]"));
            }
            Trigger::Rate(rate)
        } else {
            Trigger::Index(
                value_s
                    .parse()
                    .map_err(|_| format!("rule {raw:?}: bad index {value_s:?}"))?,
            )
        };
        Ok(Some(FaultRule { class, trigger }))
    }

    /// The seed (for reporting).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Whether `class` fires at `site`. Pure: the same arguments always
    /// produce the same answer for a given plan.
    pub fn fires(&self, class: FaultClass, site: u64) -> bool {
        // The hash once had a fourth input, a retry-attempt index; its
        // attempt-0 term stays so every seed keeps its schedule.
        const ATTEMPT0: u64 = splitmix64(0).rotate_left(41);
        self.rules.iter().enumerate().any(|(ri, rule)| {
            rule.class == class
                && match rule.trigger {
                    Trigger::Index(target) => site == target,
                    Trigger::Rate(rate) => {
                        let h = splitmix64(
                            self.seed
                                ^ splitmix64((class as u64) << 32 | ri as u64)
                                ^ splitmix64(site).rotate_left(17)
                                ^ ATTEMPT0,
                        );
                        // 53 high bits -> uniform in [0, 1).
                        ((h >> 11) as f64) * (1.0 / (1u64 << 53) as f64) < rate
                    }
                }
        })
    }
}

/// The store's view of a plan: each file operation consults the `io-*`
/// classes that can apply to it, and the first firing rule wins.
impl IoFaults for FaultPlan {
    fn io_fault(&self, site: &IoSite) -> Option<IoFault> {
        let candidates: &[(FaultClass, IoFault)] = match site.op {
            IoOp::Open => &[(FaultClass::IoOpenFail, IoFault::Fail)],
            IoOp::Write => &[
                (FaultClass::IoShortWrite, IoFault::ShortWrite),
                (FaultClass::IoTornPage, IoFault::TornPage),
            ],
            IoOp::Fsync => &[(FaultClass::IoFsyncFail, IoFault::Fail)],
        };
        let &(class, fault) = candidates
            .iter()
            .find(|(class, _)| self.fires(*class, site.site))?;
        count_injection_at(class, site.site);
        Some(fault)
    }
}

/// Record a fired injection: the metrics counter (no-op when metrics are
/// off) plus a flight-recorder event, and — once per fault class per
/// process — a flight-recorder dump, so a chaos run ships a post-mortem
/// the moment its first fault of each kind lands. Both riders cost one
/// relaxed load when their subsystem is off.
pub(crate) fn count_injection_at(class: FaultClass, site: u64) {
    if crate::metrics::enabled() {
        crate::metrics::counter(
            "mic_fault_injections_total",
            "Injected faults fired, by fault class.",
            &[("class", class.name())],
        )
        .inc();
    }
    if mic_obs::enabled() {
        mic_obs::flight::record(mic_obs::flight::EventKind::Fault, class as u64, site, 0);
        static DUMPED: AtomicU64 = AtomicU64::new(0);
        let bit = 1u64 << (class as u64).min(63);
        if DUMPED.fetch_or(bit, Ordering::Relaxed) & bit == 0 {
            let _ = mic_obs::flight::dump(&format!("fault-{}", class.name()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_full_grammar() {
        let plan = FaultPlan::parse("42:job-panic@0.25,io-torn-page@0.1,io-open-fail#9").unwrap();
        assert_eq!(plan.seed(), 42);
        assert_eq!(plan.rules.len(), 3);
        assert_eq!(plan.rules[0].class, FaultClass::JobPanic);
        assert_eq!(plan.rules[0].trigger, Trigger::Rate(0.25));
        assert_eq!(plan.rules[1].class, FaultClass::IoTornPage);
        assert_eq!(plan.rules[2].class, FaultClass::IoOpenFail);
        assert_eq!(plan.rules[2].trigger, Trigger::Index(9));
    }

    #[test]
    fn rejects_malformed_specs() {
        for bad in [
            "",
            "noseed",
            "x:job-panic@0.5",
            "1:job-panic",
            "1:job-panic@1.5",
            "1:job-panic@x",
            "1:what-even@0.5",
            "1:job-panic#x",
            "7:",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    /// The timing-only and worker classes and the `:millis` suffix are
    /// gone: naming one rejects the spec like any unknown class does.
    #[test]
    fn removed_classes_and_millis_suffix_are_rejected() {
        for class in [
            "job-stall",
            "job-slow",
            "worker-panic",
            "worker-stall",
            "worker-slow",
            "worker-die",
        ] {
            let spec = format!("1:{class}@0.5,job-panic@0.5");
            assert!(FaultPlan::parse(&spec).is_err(), "{spec:?}");
        }
        assert!(FaultPlan::parse("1:job-panic@0.5:75").is_err());
        assert!(FaultPlan::parse("1:job-panic#3:75").is_err());
    }

    #[test]
    fn decisions_are_deterministic_and_seed_sensitive() {
        let a = FaultPlan::parse("1:job-panic@0.3").unwrap();
        let b = FaultPlan::parse("1:job-panic@0.3").unwrap();
        let c = FaultPlan::parse("2:job-panic@0.3").unwrap();
        let schedule = |p: &FaultPlan| -> Vec<bool> {
            (0..256)
                .map(|site| p.fires(FaultClass::JobPanic, site))
                .collect()
        };
        assert_eq!(schedule(&a), schedule(&b), "same seed, same schedule");
        assert_ne!(
            schedule(&a),
            schedule(&c),
            "different seed, different schedule"
        );
        let fired = schedule(&a).iter().filter(|f| **f).count();
        assert!(
            (32..=128).contains(&fired),
            "rate 0.3 over 256 sites fired {fired} times"
        );
    }

    /// The committed chaos seeds fire where they always have: the hash
    /// inputs (class discriminants included) are part of the contract.
    #[test]
    fn committed_seed_schedules_are_pinned() {
        let fired = |seed: u64, class: FaultClass, rate: f64, sites: u64| -> Vec<u64> {
            let plan = FaultPlan::parse(&format!("{seed}:{}@{rate}", class.name())).unwrap();
            (0..sites).filter(|s| plan.fires(class, *s)).collect()
        };
        assert_eq!(fired(1, FaultClass::JobPanic, 0.2, 24), [0, 12, 21]);
        assert_eq!(
            fired(7, FaultClass::JobPanic, 0.2, 24),
            [0, 5, 10, 12, 17, 23]
        );
        assert_eq!(fired(42, FaultClass::JobPanic, 0.2, 24), [3, 7, 8, 20]);
        assert_eq!(
            fired(7, FaultClass::IoTornPage, 0.25, 32),
            [7, 13, 17, 20, 22, 23, 24, 25, 27, 31]
        );
        assert_eq!(
            fired(42, FaultClass::IoFsyncFail, 0.25, 32),
            [10, 13, 16, 17, 22, 26, 28]
        );
    }

    #[test]
    fn io_rules_parse_and_unknown_subclasses_skip_with_warning() {
        let plan = FaultPlan::parse("5:io-torn-page@0.5,io-fsync-fail#3").unwrap();
        let classes: Vec<FaultClass> = plan.rules.iter().map(|r| r.class).collect();
        assert_eq!(classes, [FaultClass::IoTornPage, FaultClass::IoFsyncFail]);
        // An unknown io subclass is skipped; the known rule survives.
        let partial = FaultPlan::parse("5:io-phase-of-moon@0.5,io-open-fail@1.0").unwrap();
        assert_eq!(partial.rules.len(), 1);
        assert_eq!(partial.rules[0].class, FaultClass::IoOpenFail);
        // Nothing left after skipping → the spec is still rejected.
        assert!(FaultPlan::parse("5:io-phase-of-moon@0.5").is_err());
        // Non-io unknown classes remain hard errors.
        assert!(FaultPlan::parse("5:disk-on-fire@0.5,io-open-fail@1.0").is_err());
    }

    #[test]
    fn io_rules_bridge_to_store_hook() {
        let site = |op, site| IoSite { op, site };
        let plan = FaultPlan::parse("9:io-fsync-fail@1.0").unwrap();
        assert_eq!(plan.io_fault(&site(IoOp::Fsync, 2)), Some(IoFault::Fail));
        // A write-class op must not consult the fsync rule.
        assert!(plan.io_fault(&site(IoOp::Write, 2)).is_none());
        let plan = FaultPlan::parse("9:io-torn-page@1.0").unwrap();
        assert_eq!(
            plan.io_fault(&site(IoOp::Write, 0)),
            Some(IoFault::TornPage)
        );
        assert!(plan.io_fault(&site(IoOp::Fsync, 2)).is_none());
    }
}
