//! In-memory span recorder for the traced run. A span is a named host
//! interval with a parent; spans opened on pool workers name the phase
//! span that fanned them out as their parent. Spans are coarse (one per
//! program, tape, row or cell), so one mutex-guarded vector suffices.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id (the root is 0).
    pub id: u32,
    /// Id of the enclosing span (the root is its own parent).
    pub parent: u32,
    /// Layer name, e.g. `trace.record`.
    pub name: &'static str,
    /// Worker lanes the span fans out to: 1 for work, the pool width
    /// for a phase container whose children run on pool workers.
    pub lanes: u32,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Collects spans; the root span, closed by [`Tracer::finish`], is the
/// traced wall. A disabled tracer runs the same closures and records
/// nothing, so untraced passes share the traced code.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

/// Id of the root span.
pub const ROOT: u32 = 0;

impl Tracer {
    /// A recorder whose root span opens now.
    pub fn new() -> Tracer {
        Tracer {
            enabled: true,
            epoch: Instant::now(),
            next: AtomicU32::new(ROOT + 1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// A tracer that records nothing.
    pub fn disabled() -> Tracer {
        Tracer {
            enabled: false,
            ..Tracer::new()
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a work span named `name` under `parent`.
    pub fn span<T>(&self, parent: u32, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.open(parent, name, 1, |_| f())
    }

    /// Runs `f` inside a phase container spanning `lanes` pool workers;
    /// `f` receives the container's id to parent the workers' spans.
    pub fn phase<T>(
        &self,
        parent: u32,
        name: &'static str,
        lanes: usize,
        f: impl FnOnce(u32) -> T,
    ) -> T {
        self.open(parent, name, lanes as u32, f)
    }

    fn open<T>(&self, parent: u32, name: &'static str, lanes: u32, f: impl FnOnce(u32) -> T) -> T {
        if !self.enabled {
            return f(ROOT);
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(id);
        let end_ns = self.now_ns();
        self.spans
            .lock()
            .expect("span recorder poisoned")
            .push(Span {
                id,
                parent,
                name,
                lanes,
                start_ns,
                end_ns,
            });
        out
    }

    /// Closes the root span and returns every span, root first.
    pub fn finish(self) -> Vec<Span> {
        let end_ns = self.now_ns();
        let mut spans = self.spans.into_inner().expect("span recorder poisoned");
        spans.insert(
            0,
            Span {
                id: ROOT,
                parent: ROOT,
                name: "run",
                lanes: 1,
                start_ns: 0,
                end_ns,
            },
        );
        spans
    }
}

/// Per-span self time: the span's duration minus the part of it that
/// its children cover (children on parallel lanes may overlap, so the
/// covered part is the union of their intervals).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let index: std::collections::HashMap<u32, usize> =
        spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans.iter().filter(|s| s.id != ROOT) {
        children[index[&s.parent]].push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for (lo, hi) in kids {
                let (lo, hi) = (lo.max(reach), hi.min(s.end_ns));
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered) as f64 * 1e-9
        })
        .collect()
}

/// Share of the traced wall that named work spans account for. The
/// wall is weighted by lanes: a phase fanned out to `k` workers offers
/// `k` × its duration. Containers (the root and phase spans) count as
/// unaccounted, so idle workers and scheduling gaps lower the share.
pub fn coverage(spans: &[Span]) -> f64 {
    let selfs = self_times(spans);
    let wall: f64 = spans[0].secs()
        + spans
            .iter()
            .filter(|s| s.lanes > 1)
            .map(|s| (s.lanes - 1) as f64 * s.secs())
            .sum::<f64>();
    let work: f64 = spans
        .iter()
        .zip(&selfs)
        .filter(|(s, _)| s.id != ROOT && s.lanes == 1)
        .map(|(_, t)| t)
        .sum();
    work / wall
}

/// Σ self time of every span named `name`, in seconds.
pub fn self_secs(spans: &[Span], selfs: &[f64], name: &str) -> f64 {
    spans
        .iter()
        .zip(selfs)
        .filter(|(s, _)| s.name == name)
        .map(|(_, t)| t)
        .sum()
}

/// Renders the spans as one JSON array (id, parent, name, lanes, start
/// and end in ns).
pub fn to_json(spans: &[Span]) -> String {
    let body: Vec<String> = spans
        .iter()
        .map(|s| {
            format!(
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"lanes\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.name, s.lanes, s.start_ns, s.end_ns
            )
        })
        .collect();
    format!("[\n{}\n]\n", body.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, lanes: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "x",
            lanes,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(0, 0, 1, 0, 100),
            span(1, 0, 2, 10, 90),
            span(2, 1, 1, 10, 60),
            span(3, 1, 1, 20, 80),
            span(4, 0, 1, 90, 100),
        ];
        let selfs = self_times(&spans);
        let ns = |s: f64| (s * 1e9).round() as u64;
        assert_eq!(
            selfs.iter().map(|&s| ns(s)).collect::<Vec<_>>(),
            vec![10, 10, 50, 60, 10]
        );
        // Lane-weighted wall: 100 + (2-1)*80 = 180; work = 50 + 60 + 10.
        assert!((coverage(&spans) - 120.0 / 180.0).abs() < 1e-12);
    }
}
