//! In-memory span recorder and the timing statistics built on it.
//!
//! Spans are recorded from the benchmark's own code, around the calls it
//! makes into each layer of the program. They stay in memory while the
//! workload runs and are written out once, at exit.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One closed (or still open) span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `sim.run`.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created (`u64::MAX`
    /// while open).
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Wall time between start and end.
    pub fn duration(&self) -> Duration {
        Duration::from_nanos(self.end_ns.saturating_sub(self.start_ns))
    }
}

/// Records nested spans on one thread.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Recorder {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX - 1)
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: u64::MAX,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Adds an already-measured span under the innermost open span
    /// (for intervals timed on another thread).
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        let at = |t: Instant| {
            u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(0)
        };
        self.spans.push(Span {
            name,
            start_ns: at(start),
            end_ns: at(end),
            parent: self.open.last().copied(),
        });
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every span named `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<Duration> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration)
            .collect()
    }

    /// A span's duration minus the part of its interval its direct
    /// children cover (overlapping children are counted once).
    pub fn self_time(&self, id: usize) -> Duration {
        let span = &self.spans[id];
        let mut children: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(id))
            .map(|c| {
                (
                    c.start_ns.clamp(span.start_ns, span.end_ns),
                    c.end_ns.clamp(span.start_ns, span.end_ns),
                )
            })
            .collect();
        children.sort_unstable();
        let mut covered = 0u64;
        let mut reach = span.start_ns;
        for (start, end) in children {
            let start = start.max(reach);
            if end > start {
                covered += end - start;
                reach = end;
            }
        }
        span.duration()
            .saturating_sub(Duration::from_nanos(covered))
    }

    /// Summed self time of every span named `name`.
    pub fn self_total(&self, name: &str) -> Duration {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .map(|i| self.self_time(i))
            .sum()
    }

    /// The spans as a JSON array (`name`, `start_ns`, `end_ns`, `parent`).
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}",
                s.name, s.start_ns, s.end_ns
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push(']');
        out.push('\n');
        out
    }
}

/// Candidate tail percentiles in tenths of a percent, highest first.
const TAIL_PERMILLE: [usize; 4] = [999, 990, 900, 500];

/// Samples that must lie beyond a reported tail percentile.
const TAIL_MIN_BEYOND: usize = 10;

/// The highest percentile of `n` samples that has at least
/// [`TAIL_MIN_BEYOND`] samples beyond it, if any does.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_PERMILLE
        .into_iter()
        .find(|&p| n.saturating_sub(rank(n, p)) >= TAIL_MIN_BEYOND)
        .map(|p| p as f64 / 10.0)
}

/// Nearest-rank position (1-based) of the percentile given in tenths of
/// a percent among `n` samples, in integer arithmetic so that e.g. p99
/// of 1000 samples is exactly rank 990.
fn rank(n: usize, permille: usize) -> usize {
    (permille * n).div_ceil(1000).clamp(1, n.max(1))
}

/// Nearest-rank percentile `p` of `samples` (unsorted); 0 when empty.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let permille = (p * 10.0).round() as usize;
    sorted[rank(sorted.len(), permille) - 1]
}

/// Median of `samples`, averaging the middle pair; 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Milliseconds in `d`, as a float.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    fn recorder(spans: Vec<Span>) -> Recorder {
        Recorder {
            spans,
            ..Recorder::default()
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let r = recorder(vec![
            span("run", 0, 100, None),
            span("slice", 10, 30, Some(0)),
            // Overlaps the first child: only 30..50 is new coverage.
            span("slice", 20, 50, Some(0)),
            span("slice", 60, 70, Some(0)),
            // A grandchild does not count against the root a second time.
            span("inner", 62, 68, Some(3)),
        ]);
        assert_eq!(r.self_time(0), Duration::from_nanos(100 - 40 - 10));
        assert_eq!(r.self_time(3), Duration::from_nanos(4));
        assert_eq!(r.self_total("slice"), Duration::from_nanos(20 + 30 + 4));
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        let r = recorder(vec![
            span("outer", 100, 200, None),
            span("late", 150, 260, Some(0)),
        ]);
        assert_eq!(r.self_time(0), Duration::from_nanos(50));
    }

    #[test]
    fn nested_time_calls_link_parents() {
        let mut r = Recorder::default();
        r.time("a", |r| {
            r.time("b", |r| r.time("c", |_| ()));
            r.time("d", |_| ());
        });
        let parents: Vec<Option<usize>> = r.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(1), Some(0)]);
        assert!(r.spans().iter().all(|s| s.end_ns >= s.start_ns));
        assert!(r.to_json().contains("\"name\": \"c\""));
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(9999), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let samples: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        assert_eq!(percentile(&samples, 50.0), 500.0);
        assert_eq!(percentile(&samples, 99.0), 990.0);
        assert_eq!(percentile(&samples, 100.0), 1000.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
