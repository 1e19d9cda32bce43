//! `mc-grid`: seeded `taskgen` sets across utilization × np × placement
//! policy × topology with no faults injected. A request admits one set
//! through `SystemConfig::build_with_placement` and, when admitted,
//! simulates it through `SimExecutor::run_in` on one recycled arena.

use std::time::Instant;

use rtseed::config::SystemConfig;
use rtseed::exec_sim::{SimArena, SimExecutor};
use rtseed::executor::RunConfig;
use rtseed::obs::TraceConfig;
use rtseed::policy::AssignmentPolicy;
use rtseed_analysis::taskgen::{generate, TaskGenConfig};
use rtseed_analysis::{PartitionHeuristic, PlacementPolicy};
use rtseed_model::{Span, TaskSet, Topology};
use rtseed_sim::{splitmix64, BackgroundLoad, FaultPlan, OverheadKind};

use crate::probes::{self, Shape};
use crate::spans::Spans;
use crate::stats::{percentile, share, Digest};
use crate::timings::{Step, Timings};
use crate::{Accounting, LayerCtx, Layers, Line, Workload};

/// Per-hardware-thread utilization levels.
const UTILIZATIONS: [f64; 6] = [0.35, 0.50, 0.65, 0.80, 0.95, 1.10];
/// Parallel optional parts per task.
const NP: [usize; 2] = [2, 8];
/// Simulated machines as (cores, SMT threads per core).
const TOPOLOGIES: [(u32, u32); 3] = [(2, 2), (4, 2), (8, 4)];
/// Sets per grid cell.
const REPS: usize = 8;
/// Jobs each set simulates, split evenly over its tasks, so sets on wide
/// and narrow machines cost about the same and the latency tail is made of
/// many sets rather than the few largest.
const JOBS_PER_SET: u64 = 480;
/// Fewest tasks per set; wider machines get 1.5 per hardware thread.
const MIN_TASKS: usize = 12;
/// Recorder ring for the recorder-on round; large enough that nothing drops.
const RECORDER_CAPACITY: usize = 1 << 20;

struct Set {
    tasks: TaskSet,
    topology: Topology,
    placement: PlacementPolicy,
    seed: u64,
}

/// Jobs each task of `set` runs.
fn jobs_per_task(set: &Set) -> u64 {
    JOBS_PER_SET / set.tasks.len() as u64
}

fn run_config(set: &Set, trace: TraceConfig) -> RunConfig {
    RunConfig {
        jobs: jobs_per_task(set),
        seed: set.seed,
        fault_plan: FaultPlan::none(),
        trace,
        ..RunConfig::default()
    }
}

pub struct McGrid {
    sets: Vec<Set>,
    arena: SimArena,
    acc: Accounting,
    /// Overhead samples (all four kinds) of the last round.
    overhead_samples: u64,
    /// Jobs an admitted set must complete, summed over the last round.
    expected_jobs: u64,
}

impl McGrid {
    pub fn setup(seed: u64) -> McGrid {
        let mut sets = Vec::new();
        for &u in &UTILIZATIONS {
            for &np in &NP {
                for placement in PlacementPolicy::ALL {
                    for &(cores, smt) in &TOPOLOGIES {
                        for _ in 0..REPS {
                            let set_seed = splitmix64(seed, sets.len() as u64);
                            let topology = Topology::new(cores, smt).expect("valid topology");
                            let hw = topology.hw_threads() as usize;
                            let tasks = generate(
                                &TaskGenConfig {
                                    tasks: MIN_TASKS.max(hw * 3 / 2),
                                    total_utilization: u * hw as f64,
                                    period_min: Span::from_millis(10),
                                    period_max: Span::from_millis(200),
                                    mandatory_fraction: (0.3, 0.6),
                                    optional_parts: (np, np),
                                    optional_scale: (0.2, 0.8),
                                },
                                set_seed,
                            );
                            sets.push(Set {
                                tasks,
                                topology,
                                placement,
                                seed: set_seed,
                            });
                        }
                    }
                }
            }
        }
        McGrid {
            sets,
            arena: SimArena::new(),
            acc: Accounting::default(),
            overhead_samples: 0,
            expected_jobs: 0,
        }
    }

    fn admit(set: &Set, tasks: TaskSet) -> Option<SystemConfig> {
        SystemConfig::build_with_placement(
            tasks,
            set.topology,
            AssignmentPolicy::OneByOne,
            PartitionHeuristic::FirstFitDecreasing,
            set.placement,
        )
        .ok()
    }
}

impl Workload for McGrid {
    fn round(&mut self, sp: &mut Spans, t: &mut Timings) -> Digest {
        self.acc = Accounting::default();
        self.overhead_samples = 0;
        self.expected_jobs = 0;
        let mut d = Digest::default();
        for set in &self.sets {
            // The build consumes its task set; the copy is not timed.
            let tasks = set.tasks.clone();
            sp.next_request();
            let start = Instant::now();
            let open = sp.enter("config.build");
            let system = Self::admit(set, tasks);
            sp.exit(open);
            let out = system.map(|system| {
                let ex = SimExecutor::new(system, run_config(set, TraceConfig::disabled()));
                let open = sp.enter("exec_sim.run_in");
                let out = ex.run_in(&mut self.arena);
                sp.exit(open);
                out
            });
            t.record(Step::Request, start.elapsed().as_nanos() as u64);

            self.acc.attempted += 1;
            d.add(u64::from(out.is_some()));
            if let Some(out) = out {
                let q = &out.qos;
                let (ach, req) = (
                    q.achieved_total().as_nanos(),
                    q.requested_total().as_nanos(),
                );
                for v in [
                    q.jobs(),
                    q.deadline_misses(),
                    ach,
                    req,
                    out.events_processed,
                ] {
                    d.add(v);
                }
                self.acc.admitted += 1;
                self.acc.admitted_missing += u64::from(q.deadline_misses() > 0);
                self.acc.jobs += q.jobs();
                self.acc.misses += q.deadline_misses();
                self.acc.qos_achieved_ns += ach;
                self.acc.qos_requested_ns += req;
                self.acc.events += out.events_processed;
                self.expected_jobs += jobs_per_task(set) * set.tasks.len() as u64;
                self.overhead_samples += OverheadKind::ALL
                    .iter()
                    .map(|&k| out.metrics.overhead(k).count())
                    .sum::<u64>();
            }
        }
        d
    }

    fn accounting(&self) -> Accounting {
        self.acc
    }

    fn admits(&self) -> bool {
        true
    }

    fn lines(&self, _: &Timings, _: f64) -> Vec<Line> {
        Vec::new()
    }

    fn check(&mut self) -> Result<(), String> {
        if self.acc.jobs != self.expected_jobs {
            return Err(format!(
                "mc-grid admitted sets ran {} jobs, expected {}",
                self.acc.jobs, self.expected_jobs
            ));
        }
        if self.acc.admitted == 0 || self.acc.admitted == self.acc.attempted {
            return Err("mc-grid must both admit and reject sets".into());
        }
        Ok(())
    }

    fn layers(&mut self, ctx: &LayerCtx, out: &mut Layers) -> Result<(), String> {
        let acc = self.acc;
        let mut builds = ctx.spans.durations("config.build");
        out.set(
            "config.build_us",
            percentile(&mut builds, 50.0) as f64 / 1e3,
        );
        let runs = ctx.spans.durations("exec_sim.run_in");
        let rounds = (runs.len() as u64 / acc.admitted).max(1);
        let ns_per_event = runs.iter().sum::<u64>() as f64 / (acc.events * rounds) as f64;

        // Recorder on vs off over the same inputs.
        let systems: Vec<_> = self
            .sets
            .iter()
            .filter_map(|set| Some((Self::admit(set, set.tasks.clone())?, set)))
            .collect();
        let with_trace = |trace| -> Vec<SimExecutor> {
            systems
                .iter()
                .map(|(system, set)| SimExecutor::new(system.clone(), run_config(set, trace)))
                .collect()
        };
        let off = with_trace(TraceConfig::disabled());
        let on = with_trace(TraceConfig::bounded(RECORDER_CAPACITY));
        let mut queue_ops = 0;
        let arena = &mut self.arena;
        let pct = probes::recorder_overhead_pct(|recording| {
            let (ns, ops) = probes::sim_pass(if recording { &on } else { &off }, arena)?;
            queue_ops = ops;
            Ok(ns)
        })?;
        out.set("obs.recorder_overhead_pct", pct);

        // The middle machine of the grid at its baseline task count.
        let topology = Topology::new(TOPOLOGIES[1].0, TOPOLOGIES[1].1).expect("valid topology");
        let shape = Shape {
            hw_threads: topology.hw_threads() as usize,
            tasks: MIN_TASKS,
            parts: NP[1],
        };
        let eq = probes::eventq_op_ns(shape, ctx.seed);
        let rq = probes::readyq_op_ns(shape, ctx.seed);
        let model = probes::overhead_model_ns(topology, BackgroundLoad::NoLoad, shape, ctx.seed);
        let modelled = 2.0 * eq
            + rq * share(queue_ops, acc.events)
            + model * share(self.overhead_samples, acc.events);
        out.set("exec_sim.ns_per_event", ns_per_event);
        out.set("exec_sim.events_per_job", share(acc.events, acc.jobs));
        out.set("exec_sim.residual_ns_per_event", ns_per_event - modelled);
        out.set("eventq.op_ns", eq);
        out.set("readyq.op_ns", rq);
        out.set("readyq.ops_per_job", share(queue_ops, acc.jobs));
        out.set("overhead.model_ns", model);
        out.set(
            "overhead.samples_per_job",
            share(self.overhead_samples, acc.jobs),
        );
        Ok(())
    }
}
