//! What a child process reports to the driver, and the result file the
//! driver writes. Both are JSON through `mic_eval::json`, whose number
//! rendering round-trips `f64` bit-exactly.

use crate::stats;
use mic_eval::json::{self, Value};
use std::collections::BTreeMap;

/// One child process's measurements (one repetition of one workload).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ChildReport {
    /// Spawn of the child until its timed phase could start.
    pub setup_s: f64,
    /// The child's `VmHWM` at exit.
    pub peak_rss_mb: f64,
    pub ops: u64,
    pub failed_ops: u64,
    /// What failed, by name (capped; `failed_ops` is the count).
    pub failures: Vec<String>,
    /// End-to-end metric → one sample per timed window or pass.
    pub samples: BTreeMap<String, Vec<f64>>,
    /// Per-layer metric → value.
    pub layers: BTreeMap<String, f64>,
    /// Values that must repeat exactly on one commit: counters of the
    /// fixed-length setup phases, chunk counts, output digests.
    pub exact: BTreeMap<String, String>,
}

/// Failure messages kept per report; the count is never capped.
const MAX_FAILURES: usize = 16;

impl ChildReport {
    pub fn fail(&mut self, what: String) {
        self.failed_ops += 1;
        if self.failures.len() < MAX_FAILURES {
            self.failures.push(what);
        }
    }

    /// Count another report's operations and failures as this one's.
    pub fn absorb_ops(&mut self, other: ChildReport) {
        self.ops += other.ops;
        self.failed_ops += other.failed_ops;
        self.failures.extend(other.failures);
        self.failures.truncate(MAX_FAILURES);
    }

    pub fn sample(&mut self, metric: &str, value: f64) {
        self.samples.entry(metric.into()).or_default().push(value);
    }

    pub fn to_json(&self) -> String {
        Value::Obj(vec![
            ("setup_s".into(), Value::Num(self.setup_s)),
            ("peak_rss_mb".into(), Value::Num(self.peak_rss_mb)),
            ("ops".into(), Value::Num(self.ops as f64)),
            ("failed_ops".into(), Value::Num(self.failed_ops as f64)),
            ("failures".into(), strs(&self.failures)),
            (
                "samples".into(),
                Value::Obj(
                    self.samples
                        .iter()
                        .map(|(k, v)| (k.clone(), nums(v)))
                        .collect(),
                ),
            ),
            (
                "layers".into(),
                Value::Obj(
                    self.layers
                        .iter()
                        .map(|(k, v)| (k.clone(), Value::Num(*v)))
                        .collect(),
                ),
            ),
            ("exact".into(), str_map(&self.exact)),
        ])
        .render()
    }

    pub fn from_json(text: &str) -> Result<ChildReport, String> {
        let doc = json::parse(text)?;
        Ok(ChildReport {
            setup_s: num(&doc, "setup_s")?,
            peak_rss_mb: num(&doc, "peak_rss_mb")?,
            ops: num(&doc, "ops")? as u64,
            failed_ops: num(&doc, "failed_ops")? as u64,
            failures: get_strs(&doc, "failures")?,
            samples: fields(&doc, "samples")?
                .iter()
                .map(|(k, v)| Ok((k.clone(), get_nums(v)?)))
                .collect::<Result<_, String>>()?,
            layers: fields(&doc, "layers")?
                .iter()
                .map(|(k, v)| Ok((k.clone(), v.as_f64().ok_or("layer value not a number")?)))
                .collect::<Result<_, String>>()?,
            exact: get_str_map(&doc, "exact")?,
        })
    }
}

/// One metric of one workload: the reported value is the median of its
/// samples; min, max and the count are reported beside it.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub samples: Vec<f64>,
}

impl Metric {
    pub fn median(&self) -> f64 {
        stats::median(&self.samples).unwrap_or(f64::NAN)
    }

    pub fn min(&self) -> f64 {
        self.samples.iter().copied().fold(f64::INFINITY, f64::min)
    }

    pub fn max(&self) -> f64 {
        self.samples
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("name".into(), Value::str(self.name.clone())),
            ("unit".into(), Value::str(self.unit.clone())),
            ("median".into(), Value::Num(self.median())),
            ("min".into(), Value::Num(self.min())),
            ("max".into(), Value::Num(self.max())),
            ("n".into(), Value::Num(self.samples.len() as f64)),
            ("samples".into(), nums(&self.samples)),
        ])
    }

    fn from_value(v: &Value) -> Result<Metric, String> {
        Ok(Metric {
            name: string(v, "name")?,
            unit: string(v, "unit")?,
            samples: get_nums(v.get("samples").ok_or("metric without samples")?)?,
        })
    }
}

#[derive(Clone, Debug, Default, PartialEq)]
pub struct WorkloadResult {
    pub name: String,
    pub ops: u64,
    pub failed_ops: u64,
    pub failures: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    pub exact: BTreeMap<String, String>,
}

/// The result file: a header identifying build and machine, then one
/// entry per workload.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunResult {
    pub header: BTreeMap<String, String>,
    pub workloads: Vec<WorkloadResult>,
}

impl RunResult {
    pub fn to_json(&self) -> String {
        let workloads = self
            .workloads
            .iter()
            .map(|w| {
                Value::Obj(vec![
                    ("name".into(), Value::str(w.name.clone())),
                    ("ops".into(), Value::Num(w.ops as f64)),
                    ("failed_ops".into(), Value::Num(w.failed_ops as f64)),
                    ("failures".into(), strs(&w.failures)),
                    (
                        "end_to_end".into(),
                        Value::Arr(w.end_to_end.iter().map(Metric::to_value).collect()),
                    ),
                    (
                        "per_layer".into(),
                        Value::Arr(w.per_layer.iter().map(Metric::to_value).collect()),
                    ),
                    ("exact".into(), str_map(&w.exact)),
                ])
            })
            .collect();
        Value::Obj(vec![
            ("header".into(), str_map(&self.header)),
            ("workloads".into(), Value::Arr(workloads)),
        ])
        .render()
    }

    pub fn from_json(text: &str) -> Result<RunResult, String> {
        let doc = json::parse(text)?;
        let metrics = |w: &Value, key: &str| -> Result<Vec<Metric>, String> {
            w.get(key)
                .and_then(Value::as_arr)
                .ok_or(format!("workload without {key}"))?
                .iter()
                .map(Metric::from_value)
                .collect()
        };
        let workloads = doc
            .get("workloads")
            .and_then(Value::as_arr)
            .ok_or("result without workloads")?
            .iter()
            .map(|w| {
                Ok(WorkloadResult {
                    name: string(w, "name")?,
                    ops: num(w, "ops")? as u64,
                    failed_ops: num(w, "failed_ops")? as u64,
                    failures: get_strs(w, "failures")?,
                    end_to_end: metrics(w, "end_to_end")?,
                    per_layer: metrics(w, "per_layer")?,
                    exact: get_str_map(w, "exact")?,
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(RunResult {
            header: get_str_map(&doc, "header")?,
            workloads,
        })
    }
}

fn nums(v: &[f64]) -> Value {
    Value::Arr(v.iter().map(|x| Value::Num(*x)).collect())
}

fn strs(v: &[String]) -> Value {
    Value::Arr(v.iter().map(|s| Value::str(s.clone())).collect())
}

fn str_map(m: &BTreeMap<String, String>) -> Value {
    Value::Obj(
        m.iter()
            .map(|(k, v)| (k.clone(), Value::str(v.clone())))
            .collect(),
    )
}

fn num(doc: &Value, key: &str) -> Result<f64, String> {
    doc.get(key)
        .and_then(Value::as_f64)
        .ok_or(format!("missing number {key:?}"))
}

fn string(doc: &Value, key: &str) -> Result<String, String> {
    doc.get(key)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or(format!("missing string {key:?}"))
}

fn fields<'a>(doc: &'a Value, key: &str) -> Result<&'a [(String, Value)], String> {
    match doc.get(key) {
        Some(Value::Obj(fields)) => Ok(fields),
        _ => Err(format!("missing object {key:?}")),
    }
}

fn get_nums(v: &Value) -> Result<Vec<f64>, String> {
    v.as_arr()
        .ok_or("expected an array of numbers")?
        .iter()
        .map(|x| x.as_f64().ok_or_else(|| "non-number in array".to_string()))
        .collect()
}

fn get_strs(doc: &Value, key: &str) -> Result<Vec<String>, String> {
    doc.get(key)
        .and_then(Value::as_arr)
        .ok_or(format!("missing array {key:?}"))?
        .iter()
        .map(|x| {
            x.as_str()
                .map(str::to_string)
                .ok_or_else(|| "non-string in array".to_string())
        })
        .collect()
}

fn get_str_map(doc: &Value, key: &str) -> Result<BTreeMap<String, String>, String> {
    fields(doc, key)?
        .iter()
        .map(|(k, v)| {
            Ok((
                k.clone(),
                v.as_str().ok_or("non-string map value")?.to_string(),
            ))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn child_report_round_trips() {
        let mut r = ChildReport {
            setup_s: 0.8127,
            peak_rss_mb: 41.5,
            ops: 2280,
            ..ChildReport::default()
        };
        r.sample("throughput_rps", 570.123456789);
        r.sample("throughput_rps", f64::from_bits(0x4081_d0f5_c28f_5c29));
        r.layers.insert("server.cache_hit_ratio".into(), 0.0);
        r.exact.insert("setup.server.received".into(), "63".into());
        r.fail("exhibit.fig2: digest 01, golden 02".into());
        assert_eq!(ChildReport::from_json(&r.to_json()).unwrap(), r);
        assert_eq!(r.failed_ops, 1);
    }

    #[test]
    fn failure_messages_are_capped_but_the_count_is_not() {
        let mut r = ChildReport::default();
        for i in 0..100 {
            r.fail(format!("f{i}"));
        }
        assert_eq!(r.failed_ops, 100);
        assert_eq!(r.failures.len(), MAX_FAILURES);
    }

    #[test]
    fn run_result_round_trips_and_reports_median_min_max() {
        let m = Metric {
            name: "wall_s".into(),
            unit: "s".into(),
            samples: vec![3.5, 3.3, 3.4, 3.9],
        };
        assert_eq!(m.median(), 3.45);
        assert_eq!((m.min(), m.max()), (3.3, 3.9));
        let result = RunResult {
            header: [("nproc".to_string(), "2".to_string())].into(),
            workloads: vec![WorkloadResult {
                name: "exhibits-cold".into(),
                ops: 84,
                failed_ops: 0,
                failures: vec![],
                end_to_end: vec![m],
                per_layer: vec![Metric {
                    name: "sim.chunks.cilk".into(),
                    unit: "count".into(),
                    samples: vec![123456.0],
                }],
                exact: [("sim.chunks.cilk".to_string(), "123456".to_string())].into(),
            }],
        };
        let text = result.to_json();
        assert_eq!(RunResult::from_json(&text).unwrap(), result);
        assert!(text.contains("\"median\":3.45"), "{text}");
    }
}
