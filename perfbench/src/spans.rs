//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps each call into a layer's public function in a span
//! (name, start, end, parent span, request id). Spans stay in memory and
//! are written out when the run ends. A layer's *self time* is its span
//! minus the part of that interval its child spans cover; the self times
//! of all spans plus the residual (traced wall time no span covers) sum to
//! the traced total exactly, which [`Spans::breakdown`] checks.
//!
//! A disabled recorder costs one branch per call and never reads the
//! clock, so the untraced passes run the same code with tracing off. When
//! the recorder would overflow, [`Spans::make_room`] folds the recorded
//! spans into the running self-time totals and starts over, so a long
//! traced run keeps its totals exact and its most recent spans.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start: u64,
    end: u64,
    parent: u32,
    request: u32,
}

/// Handle returned by [`Spans::enter`]; pass it back to [`Spans::exit`].
#[derive(Debug, Clone, Copy)]
#[must_use]
pub struct Open(u32);

/// Bounded span recorder.
#[derive(Debug)]
pub struct Spans {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    capacity: usize,
    dropped: u64,
    request: u32,
    /// Traced wall time accumulated by [`Spans::measure`] sections since
    /// the last fold.
    total_ns: u64,
    /// Self-time totals of the spans folded away by [`Spans::make_room`].
    folded: Breakdown,
}

/// Self-time accounting of one traced run.
#[derive(Debug, Default)]
pub struct Breakdown {
    /// Self time per layer (the span name up to its first `.`), ns.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Total duration and call count per span name.
    pub per_name: BTreeMap<&'static str, (u64, u64)>,
    /// Traced wall time no span covers (the benchmark's own loop), ns.
    pub residual_ns: u64,
    /// Traced wall time, ns.
    pub total_ns: u64,
}

impl Breakdown {
    fn merge(&mut self, other: &Breakdown) {
        for (&layer, &ns) in &other.self_ns {
            *self.self_ns.entry(layer).or_default() += ns;
        }
        for (&name, &(ns, calls)) in &other.per_name {
            let e = self.per_name.entry(name).or_default();
            e.0 += ns;
            e.1 += calls;
        }
        self.residual_ns += other.residual_ns;
        self.total_ns += other.total_ns;
    }
}

impl Spans {
    /// A recorder that records nothing.
    pub fn off() -> Spans {
        Spans::new(false, 0)
    }

    /// A recording recorder holding at most `capacity` spans; further
    /// spans are dropped and counted.
    pub fn on(capacity: usize) -> Spans {
        Spans::new(true, capacity)
    }

    fn new(on: bool, capacity: usize) -> Spans {
        Spans {
            on,
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
            stack: Vec::new(),
            capacity,
            dropped: 0,
            request: 0,
            total_ns: 0,
            folded: Breakdown::default(),
        }
    }

    /// Whether spans are recorded.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.on
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts a new request: spans opened from now on carry its id.
    #[inline]
    pub fn next_request(&mut self) {
        self.request += 1;
    }

    /// Opens a span named `name` (by convention `layer.function`).
    #[inline]
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(NO_PARENT);
        }
        if self.spans.len() >= self.capacity {
            self.dropped += 1;
            return Open(NO_PARENT);
        }
        let idx = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            request: self.request,
        });
        self.stack.push(idx);
        Open(idx)
    }

    /// Closes a span opened by [`Spans::enter`].
    #[inline]
    pub fn exit(&mut self, open: Open) {
        if open.0 == NO_PARENT {
            return;
        }
        let end = self.now();
        self.spans[open.0 as usize].end = end;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(open.0), "spans close in LIFO order");
    }

    /// Runs `f` as part of the traced total (the wall time the self times
    /// and the residual must account for).
    pub fn measure<R>(&mut self, f: impl FnOnce(&mut Spans) -> R) -> R {
        let start = Instant::now();
        let r = f(self);
        self.total_ns += start.elapsed().as_nanos() as u64;
        r
    }

    /// Spans held (recorded since the last fold).
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Spans dropped because the recorder was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Makes room for `needed` more spans: if they would not fit, folds the
    /// held spans into the self-time totals and clears them. Call between
    /// measured sections only.
    pub fn make_room(&mut self, needed: usize) {
        if self.capacity.saturating_sub(self.spans.len()) >= needed {
            return;
        }
        let held = self.held_breakdown();
        self.folded.merge(&held);
        self.spans.clear();
        self.total_ns = 0;
    }

    /// Self time per layer, per-name totals and the residual over every
    /// span recorded, held or folded.
    pub fn breakdown(&self) -> Breakdown {
        let mut b = self.held_breakdown();
        b.merge(&self.folded);
        b
    }

    /// Self-time accounting of the held spans.
    ///
    /// # Panics
    ///
    /// Panics if the self times plus the residual do not sum to the traced
    /// total, which would mean overlapping or unclosed spans.
    fn held_breakdown(&self) -> Breakdown {
        let mut child_ns = vec![0u64; self.spans.len()];
        let mut top_ns = 0u64;
        for s in &self.spans {
            let dur = s.end - s.start;
            if s.parent == NO_PARENT {
                top_ns += dur;
            } else {
                child_ns[s.parent as usize] += dur;
            }
        }
        let mut b = Breakdown {
            total_ns: self.total_ns,
            ..Breakdown::default()
        };
        let mut self_sum = 0u64;
        for (s, &children) in self.spans.iter().zip(&child_ns) {
            let dur = s.end - s.start;
            let own = dur
                .checked_sub(children)
                .expect("child spans lie inside their parent");
            self_sum += own;
            let layer = s.name.split('.').next().unwrap_or(s.name);
            *b.self_ns.entry(layer).or_default() += own;
            let e = b.per_name.entry(s.name).or_default();
            e.0 += dur;
            e.1 += 1;
        }
        b.residual_ns = self
            .total_ns
            .checked_sub(top_ns)
            .expect("spans lie inside the traced total");
        assert_eq!(
            self_sum + b.residual_ns,
            b.total_ns,
            "layer self times plus residual must equal the traced total"
        );
        b
    }

    /// Durations (ns) of every held span named `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .collect()
    }

    /// The held spans as CSV (`name,start_ns,end_ns,parent,request`;
    /// parent `-1` for a root span).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("name,start_ns,end_ns,parent,request\n");
        for s in &self.spans {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            let _ = writeln!(
                out,
                "{},{},{},{},{}",
                s.name, s.start, s.end, parent, s.request
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_and_residual_sum_to_total() {
        let mut sp = Spans::on(16);
        sp.measure(|sp| {
            for _ in 0..3 {
                sp.next_request();
                let r = sp.enter("bench.request");
                let a = sp.enter("serve.submit");
                let b = sp.enter("admission.try_admit");
                std::hint::black_box((0..1000).sum::<u64>());
                sp.exit(b);
                sp.exit(a);
                sp.exit(r);
            }
        });
        let b = sp.breakdown();
        assert_eq!(b.per_name["serve.submit"].1, 3);
        assert_eq!(b.self_ns.values().sum::<u64>() + b.residual_ns, b.total_ns);
    }

    #[test]
    fn folding_keeps_the_totals_exact() {
        let mut sp = Spans::on(4);
        for _ in 0..3 {
            sp.make_room(2);
            sp.measure(|sp| {
                let a = sp.enter("serve.submit");
                let b = sp.enter("admission.try_admit");
                sp.exit(b);
                sp.exit(a);
            });
        }
        let b = sp.breakdown();
        assert_eq!(sp.len(), 2);
        assert_eq!(b.per_name["serve.submit"].1, 3);
        assert_eq!(b.self_ns.values().sum::<u64>() + b.residual_ns, b.total_ns);
    }

    #[test]
    fn full_recorder_drops_and_counts() {
        let mut sp = Spans::on(1);
        let a = sp.enter("x.a");
        let b = sp.enter("x.b");
        sp.exit(b);
        sp.exit(a);
        assert_eq!((sp.len(), sp.dropped()), (1, 1));
    }
}
