//! Per-operation costs of the simulator's building blocks, measured on
//! their public types at a workload's shape: `EventQueue` push/pop,
//! `FifoReadyQueue` enqueue/dequeue_highest and one `OverheadModel` call.
//! Each probe reports the median of several repeats, in ns per operation.
//! Also the trace recorder's cost: the same inputs with it off and on.

use std::hint::black_box;
use std::time::Instant;

use rtseed::exec_sim::{SimArena, SimExecutor};
use rtseed::obs::{QueueBand, TraceEvent};
use rtseed_model::{Priority, Time, Topology};
use rtseed_sim::{
    splitmix64, BackgroundLoad, Calibration, EventQueue, FifoReadyQueue, OverheadModel,
};

use crate::stats::median;

const REPEATS: usize = 5;
const OPS: u64 = 200_000;
/// Recorder-off/recorder-on pairs behind [`recorder_overhead_pct`].
const RECORDER_PAIRS: usize = 2;

/// The queue shape a workload runs at.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Hardware threads of the simulated machine.
    pub hw_threads: usize,
    /// Tasks resident on it.
    pub tasks: usize,
    /// Parallel optional parts per task.
    pub parts: usize,
}

impl Shape {
    /// Pending events: one completion per busy hardware thread plus one
    /// release per task.
    fn eventq_depth(self) -> usize {
        self.hw_threads + self.tasks
    }

    /// Queued work per hardware thread: its share of the mandatory threads
    /// and optional parts.
    fn readyq_depth(self) -> usize {
        (self.tasks * (1 + self.parts))
            .div_ceil(self.hw_threads)
            .max(1)
    }

    /// Distinct priority levels in one ready queue.
    fn readyq_levels(self) -> usize {
        self.tasks.clamp(1, 48)
    }
}

fn repeat(mut once: impl FnMut() -> f64) -> f64 {
    let samples: Vec<f64> = (0..REPEATS).map(|_| once()).collect();
    median(&samples)
}

/// ns per `EventQueue` operation (a pop followed by a push counts two).
pub fn eventq_op_ns(shape: Shape, seed: u64) -> f64 {
    repeat(|| {
        let mut q = EventQueue::new();
        for i in 0..shape.eventq_depth() as u64 {
            q.push(Time::from_nanos(splitmix64(seed, i) % 1_000_000), i);
        }
        let start = Instant::now();
        for i in 0..OPS {
            let (at, v) = q.pop().expect("queue never drains");
            let delta = splitmix64(seed, i) % 1_000_000;
            q.push(Time::from_nanos(at.as_nanos() + delta), black_box(v));
        }
        start.elapsed().as_nanos() as f64 / (2 * OPS) as f64
    })
}

/// ns per `FifoReadyQueue` operation (a dequeue_highest followed by an
/// enqueue counts two).
pub fn readyq_op_ns(shape: Shape, seed: u64) -> f64 {
    let levels: Vec<Priority> = (0..shape.readyq_levels())
        .map(|i| Priority::new(Priority::RTQ_MIN.level() + i as u8).expect("RTQ level"))
        .collect();
    let pick = |i: u64| levels[(splitmix64(seed, i) % levels.len() as u64) as usize];
    repeat(|| {
        let mut q = FifoReadyQueue::new();
        for i in 0..shape.readyq_depth() as u64 {
            q.enqueue(pick(i), i);
        }
        let start = Instant::now();
        for i in 0..OPS {
            let (_, v) = q.dequeue_highest().expect("queue never drains");
            q.enqueue(pick(i), black_box(v));
        }
        start.elapsed().as_nanos() as f64 / (2 * OPS) as f64
    })
}

/// ns per `OverheadModel` call, cycling through the four overhead kinds
/// the engine samples (Δm, Δb per part, Δs, Δe per part).
pub fn overhead_model_ns(topology: Topology, load: BackgroundLoad, shape: Shape, seed: u64) -> f64 {
    repeat(|| {
        let mut m = OverheadModel::new(Calibration::default(), topology, load, seed);
        let mut acc = 0u64;
        let start = Instant::now();
        for i in 0..OPS / 4 {
            acc += m.begin_mandatory().as_nanos();
            acc += m.signal_one_optional().as_nanos();
            acc += m.switch_to_optional(shape.parts).as_nanos();
            acc += m.end_one_part(i % 2 == 0).as_nanos();
        }
        black_box(acc);
        start.elapsed().as_nanos() as f64 / OPS as f64
    })
}

/// Cost of the trace recorder, %: `pass(on)` runs the same inputs with the
/// recorder on or off and returns the ns it took; the best of interleaved
/// off/on pairs are compared.
pub fn recorder_overhead_pct(
    mut pass: impl FnMut(bool) -> Result<u64, String>,
) -> Result<f64, String> {
    let (mut off, mut on) = (u64::MAX, u64::MAX);
    for _ in 0..RECORDER_PAIRS {
        off = off.min(pass(false)?);
        on = on.min(pass(true)?);
    }
    Ok((on as f64 / off as f64 - 1.0) * 100.0)
}

/// Ready-queue operations among a recorder's `Queue` events (sleep-queue
/// parks are not ready-queue work).
pub fn readyq_ops(events: &[(Time, TraceEvent)]) -> u64 {
    events
        .iter()
        .filter(|(_, e)| matches!(e, TraceEvent::Queue { band, .. } if *band != QueueBand::Sq))
        .count() as u64
}

/// Runs every executor once on `arena`: the summed `run_in` time, ns, and
/// the ready-queue operations the recorder saw.
///
/// # Errors
///
/// When a recorder dropped events, which would undercount the operations.
pub fn sim_pass(executors: &[SimExecutor], arena: &mut SimArena) -> Result<(u64, u64), String> {
    let (mut ns, mut ops) = (0, 0);
    for ex in executors {
        let start = Instant::now();
        let o = ex.run_in(arena);
        ns += start.elapsed().as_nanos() as u64;
        if o.trace.dropped() > 0 {
            return Err(format!("recorder dropped {} events", o.trace.dropped()));
        }
        ops += readyq_ops(o.trace.events());
    }
    Ok((ns, ops))
}
