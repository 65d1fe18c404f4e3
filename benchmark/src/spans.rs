//! The benchmark's own spans: recorded around each call into a layer of
//! the program, kept in memory, written out when the child exits.
//!
//! A span is name, start, end, the span that caused it, and the workload
//! it belongs to. A layer's self time is its span's duration minus the
//! part of that interval its children cover. With tracing off `span` still
//! runs and times the closure but records nothing, so traced and
//! untraced runs execute the same calls.

use mic_eval::json::Value;
use std::path::Path;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_us: f64,
    pub end_us: f64,
    /// Index of the causing span in the same trace.
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// One thread's span recorder. Threads record into their own `Tracer`
/// (sharing the epoch) and the owner merges them before writing.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    workload: String,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(workload: &str, on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            workload: workload.to_string(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recorder for another thread of the same run: same clock, same
    /// workload id, spans parented under `parent` once merged.
    pub fn fork(&self) -> Tracer {
        Tracer {
            on: self.on,
            epoch: self.epoch,
            workload: self.workload.clone(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Run `f` inside a span named `name`; returns its result and the
    /// span's duration in seconds.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> (R, f64) {
        let start_us = self.now_us();
        let idx = self.on.then(|| {
            self.spans.push(Span {
                name: name.to_string(),
                start_us,
                end_us: start_us,
                parent: self.open.last().copied(),
            });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        let out = f(self);
        let end_us = self.now_us();
        if let Some(i) = idx {
            self.spans[i].end_us = end_us;
            self.open.pop();
        }
        (out, (end_us - start_us) / 1e6)
    }

    /// Record a span measured elsewhere (a client thread's request).
    pub fn record(&mut self, name: &str, start: Instant, end: Instant) {
        if self.on {
            let us = |t: Instant| t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6;
            self.spans.push(Span {
                name: name.to_string(),
                start_us: us(start),
                end_us: us(end),
                parent: self.open.last().copied(),
            });
        }
    }

    /// Adopt another thread's spans; its roots become children of
    /// `parent`.
    pub fn merge(&mut self, other: Tracer, parent: Option<usize>) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base).or(parent);
            s
        }));
    }

    /// Index of the innermost open span.
    pub fn current(&self) -> Option<usize> {
        self.open.last().copied()
    }

    /// Write `{"workload":…,"spans":[{name,start_us,end_us,parent,self_us}]}`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let selfs = self_times_us(&self.spans);
        let spans = self
            .spans
            .iter()
            .zip(selfs)
            .map(|(s, self_us)| {
                Value::Obj(vec![
                    ("name".into(), Value::str(s.name.clone())),
                    ("start_us".into(), Value::Num(s.start_us)),
                    ("end_us".into(), Value::Num(s.end_us)),
                    (
                        "parent".into(),
                        s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                    ),
                    ("self_us".into(), Value::Num(self_us)),
                ])
            })
            .collect();
        let doc = Value::Obj(vec![
            ("workload".into(), Value::str(self.workload.clone())),
            ("spans".into(), Value::Arr(spans)),
        ]);
        std::fs::write(path, doc.render() + "\n")
    }
}

/// Self time of every span: duration minus the union of its children's
/// intervals, each child clipped to the parent's own interval (a child
/// that outlives its parent must not drive the parent negative, and two
/// overlapping children — concurrent client threads — count once).
pub fn self_times_us(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_us.max(spans[p].start_us);
            let hi = s.end_us.min(spans[p].end_us);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = f64::NEG_INFINITY;
            for (lo, hi) in kids {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            s.duration_us() - covered
        })
        .collect()
}

/// The Σ-exhibit-spans check: the share of a pass not covered by its
/// exhibit spans. The driver asserts it stays under 2 %.
pub fn residual(pass_s: f64, exhibit_s: &[f64]) -> f64 {
    (pass_s - exhibit_s.iter().sum::<f64>()).abs() / pass_s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_us: f64, end_us: f64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_us,
            end_us,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_children_clipped_to_the_parent() {
        let spans = vec![
            span("pass", 0.0, 100.0, None),
            span("a", 10.0, 30.0, Some(0)),
            // Overlaps `a` (a second client thread): the union counts once.
            span("b", 20.0, 50.0, Some(0)),
            // Outlives the parent: only 90..100 is inside it.
            span("c", 90.0, 140.0, Some(0)),
            // Entirely outside: covers nothing.
            span("d", 200.0, 300.0, Some(0)),
            span("leaf", 12.0, 18.0, Some(1)),
        ];
        let selfs = self_times_us(&spans);
        assert_eq!(selfs[0], 100.0 - 40.0 - 10.0);
        assert_eq!(selfs[1], 20.0 - 6.0);
        assert_eq!(selfs[2], 30.0);
        assert_eq!(selfs[5], 6.0);
    }

    #[test]
    fn nested_spans_record_parents_and_merge_rebases_them() {
        let mut t = Tracer::new("w", true);
        let mut worker = t.fork();
        worker.span("request", |w| {
            w.span("decode", |_| ());
        });
        let ((), _) = t.span("window", |t| {
            let parent = t.current();
            t.span("setup", |_| ());
            let w = std::mem::replace(&mut worker, Tracer::new("w", true));
            t.merge(w, parent);
        });
        let names: Vec<_> = t.spans().iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["window", "setup", "request", "decode"]);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(
            t.spans()[2].parent,
            Some(0),
            "merged root adopts the parent"
        );
        assert_eq!(t.spans()[3].parent, Some(2), "merged child is rebased");
    }

    #[test]
    fn tracing_off_records_nothing_but_still_times() {
        let mut t = Tracer::new("w", false);
        let (v, secs) = t.span("x", |_| 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn residual_is_the_uncovered_share_of_the_pass() {
        assert!((residual(2.0, &[0.5, 1.0, 0.48]) - 0.01).abs() < 1e-12);
        assert!(residual(2.0, &[1.0]) > 0.02);
    }
}
