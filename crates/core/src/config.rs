//! `SuiteConfig`: the typed owner of every `MIC_*` knob.
//!
//! Historically each layer read its own environment variables at point of
//! use (`MIC_SWEEP_THREADS` in the sweep harness, `MIC_STORE` in the
//! workload cache, ...). That worked for one-shot bins but made the knobs
//! impossible to audit, to override programmatically (the serve layer
//! takes requests, not env vars), or to test without process-global
//! races. `SuiteConfig` replaces the ad-hoc plumbing:
//!
//! - [`SuiteConfig::from_env`] is the **only** place `MIC_*` environment
//!   variables are read (through the [`crate::env`] warn-once parsers; a
//!   CI grep forbids raw `std::env::var("MIC_…")` reads anywhere else);
//! - builder methods override individual knobs — precedence is **builder
//!   > env > default**;
//! - [`SuiteConfig::install`] publishes a config process-wide; every
//!   consumer (sweep, metrics policy, trace export, workload cache, fault
//!   injection, the bench bins and `mic-serve`) reads [`current`], which
//!   lazily installs `from_env()` on first use — so a plain bin run
//!   behaves exactly as before.
//!
//! | knob | env var | default |
//! |---|---|---|
//! | `sweep_threads` | `MIC_SWEEP_THREADS` | available parallelism, ≤ 16 |
//! | `fault` | `MIC_FAULT` | none |
//! | `metrics` | `MIC_METRICS` | off |
//! | `trace` | `MIC_TRACE` | off |
//! | `serve_shards` | `MIC_SERVE_SHARDS` | 4 |
//! | `serve_quota` | `MIC_SERVE_QUOTA` | 256 |
//! | `serve_max_request` | `MIC_SERVE_MAX_REQUEST` | 65536 |
//! | `serve_conn_cap` | `MIC_SERVE_CONNS` | 256 |
//! | `store_path` | `MIC_STORE` | off |
//! | `store_sync` | `MIC_STORE_SYNC` | 0 (persist on shutdown only) |
//! | `obs` | `MIC_OBS` | off |
//! | `obs_slow_ms` | `MIC_OBS_SLOW_MS` | none |

use crate::fault::FaultPlan;
use std::path::PathBuf;
use std::sync::{Arc, OnceLock, RwLock};

/// What `MIC_METRICS` (or the builder) asked for.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum MetricsMode {
    /// Metrics registry off; instrumented paths cost one relaxed load.
    #[default]
    Off,
    /// Registry on, with no snapshot file.
    On,
    /// Registry on, and the Prometheus text snapshot is written here.
    OnWithPath(PathBuf),
}

impl MetricsMode {
    /// `MIC_METRICS` grammar: unset/empty/`0` off, `1`/`true` on, anything
    /// else is a snapshot path (and on).
    fn parse(raw: Option<String>) -> MetricsMode {
        match raw {
            None => MetricsMode::Off,
            Some(v) => {
                let t = v.trim();
                if t == "0" {
                    MetricsMode::Off
                } else if t == "1" || t.eq_ignore_ascii_case("true") {
                    MetricsMode::On
                } else {
                    MetricsMode::OnWithPath(PathBuf::from(v))
                }
            }
        }
    }

    pub(crate) fn is_on(&self) -> bool {
        !matches!(self, MetricsMode::Off)
    }
}

/// What `MIC_OBS` (or the builder) asked for: request tracing + the
/// flight recorder, and where flight-recorder dumps land.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum ObsMode {
    /// Observability off; instrumented paths cost one relaxed load.
    #[default]
    Off,
    /// Tracing + flight recorder on; dumps go to the default `mic-obs/`
    /// directory.
    On,
    /// On, with dumps written under this directory.
    OnWithDir(PathBuf),
}

impl ObsMode {
    /// `MIC_OBS` grammar (mirrors `MIC_METRICS`): unset/empty/`0` off,
    /// `1`/`true` on with the default dump directory, anything else is a
    /// dump directory (and on).
    fn parse(raw: Option<String>) -> ObsMode {
        match raw {
            None => ObsMode::Off,
            Some(v) => {
                let t = v.trim();
                if t.is_empty() || t == "0" {
                    ObsMode::Off
                } else if t == "1" || t.eq_ignore_ascii_case("true") {
                    ObsMode::On
                } else {
                    ObsMode::OnWithDir(PathBuf::from(v))
                }
            }
        }
    }
}

/// The typed suite configuration. Construct with [`SuiteConfig::default`]
/// (all knobs at their documented defaults), [`SuiteConfig::from_env`]
/// (env overlaid on the defaults), then chain builder methods; publish
/// with [`SuiteConfig::install`].
#[derive(Clone, Debug)]
pub struct SuiteConfig {
    /// Sweep pool worker count; `None` = auto (available parallelism ≤ 16).
    pub sweep_threads: Option<usize>,
    /// The fault-injection plan. `ServeOpts::from_config` and the
    /// workload cache's store tier build their injectors from it; nothing
    /// else injects.
    pub fault: Option<FaultPlan>,
    /// Metrics policy.
    pub metrics: MetricsMode,
    /// Chrome trace output path; `None` = tracing off.
    pub trace: Option<PathBuf>,
    /// Worker shards in the serve router (each shard owns a dispatcher:
    /// queue, executor, pool, LRU).
    pub serve_shards: usize,
    /// Per-client (per peer IP) in-flight simulate quota; the soft tier
    /// sheds past it under load, the hard tier at twice it always.
    pub serve_quota: usize,
    /// Largest accepted request, in bytes — caps both a JSON line and a
    /// binary frame payload.
    pub serve_max_request: usize,
    /// Concurrent connection cap; connects past it are refused with a
    /// `shed` response instead of an unbounded thread spawn.
    pub serve_conn_cap: usize,
    /// Crash-safe append-only log persisting suite graphs, PageRank counts
    /// and serve results; `None` = durable tier off. One process per file.
    pub store_path: Option<PathBuf>,
    /// Auto-persist the store after this many puts; 0 = only on explicit
    /// persist (graceful shutdown). Raise durability under `kill -9` by
    /// lowering this.
    pub store_sync: usize,
    /// Observability policy: request tracing plus the flight recorder.
    pub obs: ObsMode,
    /// Requests slower than this dump the flight recorder (tail
    /// sampling); `None`/0 = no slow-request sampling.
    pub obs_slow_ms: Option<u64>,
}

impl Default for SuiteConfig {
    fn default() -> SuiteConfig {
        SuiteConfig {
            sweep_threads: None,
            fault: None,
            metrics: MetricsMode::Off,
            trace: None,
            serve_shards: 4,
            serve_quota: 256,
            serve_max_request: 64 * 1024,
            serve_conn_cap: 256,
            store_path: None,
            store_sync: 0,
            obs: ObsMode::Off,
            obs_slow_ms: None,
        }
    }
}

impl SuiteConfig {
    /// The environment-configured config: every `MIC_*` knob overlaid on
    /// the defaults. This is the single place the suite reads its
    /// environment variables; set-but-unusable values warn once and fall
    /// back (the [`crate::env`] discipline).
    pub fn from_env() -> SuiteConfig {
        let defaults = SuiteConfig::default();
        SuiteConfig {
            sweep_threads: crate::env::positive_usize("MIC_SWEEP_THREADS"),
            fault: parse_env_fault(),
            metrics: MetricsMode::parse(crate::env::raw("MIC_METRICS")),
            trace: crate::env::path("MIC_TRACE"),
            serve_shards: crate::env::positive_usize("MIC_SERVE_SHARDS")
                .map_or(defaults.serve_shards, |v| v.min(64)),
            serve_quota: crate::env::positive_usize("MIC_SERVE_QUOTA")
                .unwrap_or(defaults.serve_quota),
            serve_max_request: crate::env::positive_usize("MIC_SERVE_MAX_REQUEST")
                .map_or(defaults.serve_max_request, |v| v.clamp(256, 1 << 30)),
            serve_conn_cap: crate::env::positive_usize("MIC_SERVE_CONNS")
                .unwrap_or(defaults.serve_conn_cap),
            store_path: crate::env::path("MIC_STORE"),
            store_sync: crate::env::nonneg_u64("MIC_STORE_SYNC")
                .map_or(defaults.store_sync, |v| v.min(1 << 20) as usize),
            obs: ObsMode::parse(crate::env::raw("MIC_OBS")),
            obs_slow_ms: crate::env::nonneg_u64("MIC_OBS_SLOW_MS").filter(|v| *v > 0),
        }
    }

    // -- builder methods (each overrides one knob; precedence over env) --

    pub fn sweep_threads(mut self, threads: usize) -> Self {
        self.sweep_threads = Some(threads);
        self
    }

    pub fn fault(mut self, plan: Option<FaultPlan>) -> Self {
        self.fault = plan;
        self
    }

    pub fn metrics(mut self, mode: MetricsMode) -> Self {
        self.metrics = mode;
        self
    }

    pub fn trace(mut self, path: Option<PathBuf>) -> Self {
        self.trace = path;
        self
    }

    pub fn serve_shards(mut self, shards: usize) -> Self {
        self.serve_shards = shards.clamp(1, 64);
        self
    }

    pub fn serve_quota(mut self, quota: usize) -> Self {
        self.serve_quota = quota.max(1);
        self
    }

    pub fn serve_max_request(mut self, bytes: usize) -> Self {
        self.serve_max_request = bytes.clamp(256, 1 << 30);
        self
    }

    pub fn serve_conn_cap(mut self, cap: usize) -> Self {
        self.serve_conn_cap = cap.max(1);
        self
    }

    pub fn store_path(mut self, path: Option<PathBuf>) -> Self {
        self.store_path = path;
        self
    }

    pub fn store_sync(mut self, puts: usize) -> Self {
        self.store_sync = puts;
        self
    }

    pub fn obs(mut self, mode: ObsMode) -> Self {
        self.obs = mode;
        self
    }

    pub fn obs_slow_ms(mut self, ms: Option<u64>) -> Self {
        self.obs_slow_ms = ms.filter(|v| *v > 0);
        self
    }

    /// The [`mic_obs::ObsConfig`] this config asks for; `None` = off.
    pub(crate) fn obs_config(&self) -> Option<mic_obs::ObsConfig> {
        let dir = match &self.obs {
            ObsMode::Off => return None,
            ObsMode::On => PathBuf::from("mic-obs"),
            ObsMode::OnWithDir(d) => d.clone(),
        };
        Some(mic_obs::ObsConfig {
            dir,
            slow_ms: self.obs_slow_ms,
        })
    }

    /// The sweep worker count with the auto default applied.
    pub(crate) fn effective_sweep_threads(&self) -> usize {
        self.sweep_threads.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .min(16)
        })
    }

    /// Publish this config process-wide: subsequent [`current`] calls (in
    /// every layer) see it. Replaces any previously installed config.
    pub fn install(self) {
        self.apply();
        *slot().write().unwrap_or_else(|e| e.into_inner()) = Some(Arc::new(self));
    }

    /// Push the knobs that live outside the config slot into their process
    /// globals (the observability policy). Re-applying on every install
    /// keeps replacement configs consistent: a config with obs off
    /// disables it.
    fn apply(&self) {
        match self.obs_config() {
            Some(obs) => mic_obs::install(obs),
            None => mic_obs::disable(),
        }
    }
}

fn slot() -> &'static RwLock<Option<Arc<SuiteConfig>>> {
    static SLOT: OnceLock<RwLock<Option<Arc<SuiteConfig>>>> = OnceLock::new();
    SLOT.get_or_init(|| RwLock::new(None))
}

/// The installed [`SuiteConfig`], installing [`SuiteConfig::from_env`] on
/// first use. Cheap after the first call (one RwLock read + Arc clone).
pub fn current() -> Arc<SuiteConfig> {
    if let Some(cfg) = slot().read().unwrap_or_else(|e| e.into_inner()).as_ref() {
        return Arc::clone(cfg);
    }
    let mut w = slot().write().unwrap_or_else(|e| e.into_inner());
    // Racing installer may have won while we upgraded the lock.
    Arc::clone(w.get_or_insert_with(|| {
        let cfg = SuiteConfig::from_env();
        cfg.apply();
        Arc::new(cfg)
    }))
}

/// `MIC_FAULT`, parsed and reported once per process. A malformed spec is
/// rejected loudly rather than half-applied.
fn parse_env_fault() -> Option<FaultPlan> {
    let spec = crate::env::raw("MIC_FAULT")?;
    static REPORT: std::sync::Once = std::sync::Once::new();
    match FaultPlan::parse(&spec) {
        Ok(plan) => {
            REPORT.call_once(|| {
                eprintln!(
                    "mic-eval: fault injection active (MIC_FAULT seed {})",
                    plan.seed()
                );
            });
            Some(plan)
        }
        Err(e) => {
            REPORT.call_once(|| eprintln!("mic-eval: ignoring MIC_FAULT: {e}"));
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_documented_values() {
        let c = SuiteConfig::default();
        assert_eq!(c.sweep_threads, None);
        assert!(c.fault.is_none());
        assert_eq!(c.metrics, MetricsMode::Off);
        assert!(c.trace.is_none());
        assert_eq!(c.serve_shards, 4);
        assert_eq!(c.serve_quota, 256);
        assert_eq!(c.serve_max_request, 64 * 1024);
        assert_eq!(c.serve_conn_cap, 256);
        assert!(c.store_path.is_none());
        assert_eq!(c.store_sync, 0);
        assert_eq!(c.obs, ObsMode::Off);
        assert_eq!(c.obs_slow_ms, None);
    }

    #[test]
    fn store_builders_clamp_to_sane_ranges() {
        let c = SuiteConfig::default()
            .store_path(Some(PathBuf::from("/tmp/x.pg")))
            .store_sync(3);
        assert_eq!(c.store_path, Some(PathBuf::from("/tmp/x.pg")));
        assert_eq!(c.store_sync, 3);
    }

    #[test]
    fn serve_builders_clamp_to_sane_ranges() {
        let c = SuiteConfig::default()
            .serve_shards(0)
            .serve_quota(0)
            .serve_max_request(1)
            .serve_conn_cap(0);
        assert_eq!(c.serve_shards, 1, "at least one shard");
        assert_eq!(c.serve_quota, 1);
        assert_eq!(c.serve_max_request, 256, "cap floor keeps pings parseable");
        assert_eq!(c.serve_conn_cap, 1);
        assert_eq!(SuiteConfig::default().serve_shards(999).serve_shards, 64);
    }

    #[test]
    fn builder_overrides_win() {
        let c = SuiteConfig::default()
            .sweep_threads(3)
            .metrics(MetricsMode::On);
        assert_eq!(c.sweep_threads, Some(3));
        assert_eq!(c.effective_sweep_threads(), 3);
        assert!(c.metrics.is_on());
    }

    #[test]
    fn effective_threads_auto_is_bounded() {
        let t = SuiteConfig::default().effective_sweep_threads();
        assert!((1..=16).contains(&t));
    }

    #[test]
    fn obs_mode_grammar_and_builders() {
        assert_eq!(ObsMode::parse(None), ObsMode::Off);
        assert_eq!(ObsMode::parse(Some("0".into())), ObsMode::Off);
        assert_eq!(ObsMode::parse(Some("".into())), ObsMode::Off);
        assert_eq!(ObsMode::parse(Some("1".into())), ObsMode::On);
        assert_eq!(ObsMode::parse(Some("true".into())), ObsMode::On);
        assert_eq!(
            ObsMode::parse(Some("dumps/obs".into())),
            ObsMode::OnWithDir(PathBuf::from("dumps/obs"))
        );
        let c = SuiteConfig::default().obs(ObsMode::On).obs_slow_ms(Some(0));
        assert_eq!(c.obs_slow_ms, None, "zero threshold means no sampling");
        let oc = c.obs_config().expect("on");
        assert_eq!(oc.dir, PathBuf::from("mic-obs"));
        assert!(SuiteConfig::default().obs_config().is_none());
        let named = SuiteConfig::default()
            .obs(ObsMode::OnWithDir(PathBuf::from("/tmp/fd")))
            .obs_config()
            .unwrap();
        assert_eq!(named.dir, PathBuf::from("/tmp/fd"));
    }

    #[test]
    fn metrics_mode_grammar() {
        assert_eq!(MetricsMode::parse(None), MetricsMode::Off);
        assert_eq!(MetricsMode::parse(Some("0".into())), MetricsMode::Off);
        assert_eq!(MetricsMode::parse(Some("1".into())), MetricsMode::On);
        assert_eq!(MetricsMode::parse(Some("true".into())), MetricsMode::On);
        assert_eq!(
            MetricsMode::parse(Some("out/m.txt".into())),
            MetricsMode::OnWithPath(PathBuf::from("out/m.txt"))
        );
    }
}
