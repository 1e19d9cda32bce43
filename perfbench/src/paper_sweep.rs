//! `paper-sweep`: the paper's §V evaluation. One task (T = 1 s,
//! m = w = 250 ms, np optional parts of 1 s) on the simulated 57×4 Xeon Phi,
//! for every np × assignment policy × background load, terminated by
//! `SigjmpTimer`, through `SimExecutor::run_in` on one recycled arena.
//! A request is one `run_in` call: 100 jobs of one configuration.

use std::time::Instant;

use rtseed::config::SystemConfig;
use rtseed::exec_sim::{SimArena, SimExecutor};
use rtseed::executor::{Outcome, RunConfig};
use rtseed::obs::TraceConfig;
use rtseed::policy::AssignmentPolicy;
use rtseed::termination::TerminationMode;
use rtseed_model::{Span, TaskSet, TaskSpec, Topology};
use rtseed_sim::{BackgroundLoad, OverheadKind};

use crate::probes::{self, Shape};
use crate::spans::Spans;
use crate::stats::{percentile, share, Digest};
use crate::timings::{Step, Timings};
use crate::{Accounting, LayerCtx, Layers, Line, Workload};

/// The paper's np sweep (§V-A).
const NP_SET: [usize; 8] = [4, 8, 16, 32, 57, 114, 171, 228];
/// Jobs per configuration (§V-A).
const JOBS: u64 = 100;
/// Recorder ring for the recorder-on round; large enough that nothing drops.
const RECORDER_CAPACITY: usize = 1 << 20;

/// The paper's evaluation task with `np` parallel optional parts.
fn paper_task_set(np: usize) -> TaskSet {
    let task = TaskSpec::builder("τ1")
        .period(Span::from_secs(1))
        .mandatory(Span::from_millis(250))
        .windup(Span::from_millis(250))
        .optional_parts(np, Span::from_secs(1))
        .build()
        .expect("paper task is valid");
    TaskSet::new(vec![task]).expect("non-empty")
}

fn build(np: usize, policy: AssignmentPolicy) -> SystemConfig {
    SystemConfig::build(paper_task_set(np), Topology::xeon_phi_3120a(), policy)
        .expect("paper workload is schedulable")
}

fn run_config(load: BackgroundLoad, seed: u64, trace: TraceConfig) -> RunConfig {
    RunConfig {
        jobs: JOBS,
        load,
        seed,
        termination: TerminationMode::SigjmpTimer,
        trace,
        ..RunConfig::default()
    }
}

pub struct PaperSweep {
    seed: u64,
    /// One executor per (load, policy, np), built during set-up.
    executors: Vec<(BackgroundLoad, SimExecutor)>,
    arena: SimArena,
    acc: Accounting,
    /// Δm/Δb/Δs/Δe sample counts and sums of the last round.
    overheads: [(u64, u128); 4],
}

impl PaperSweep {
    pub fn setup(seed: u64) -> PaperSweep {
        let mut executors = Vec::new();
        for load in BackgroundLoad::ALL {
            for policy in AssignmentPolicy::PAPER_POLICIES {
                for np in NP_SET {
                    executors.push((
                        load,
                        SimExecutor::new(
                            build(np, policy),
                            run_config(load, seed, TraceConfig::disabled()),
                        ),
                    ));
                }
            }
        }
        PaperSweep {
            seed,
            executors,
            arena: SimArena::new(),
            acc: Accounting::default(),
            overheads: [(0, 0); 4],
        }
    }

    fn fold(&mut self, d: &mut Digest, out: &Outcome) {
        let q = &out.qos;
        let (jobs, misses) = (q.jobs(), q.deadline_misses());
        let (ach, req) = (
            q.achieved_total().as_nanos(),
            q.requested_total().as_nanos(),
        );
        for v in [jobs, misses, ach, req, out.events_processed] {
            d.add(v);
        }
        for (slot, kind) in self.overheads.iter_mut().zip(OverheadKind::ALL) {
            let h = out.metrics.overhead(kind);
            d.add(h.count());
            d.add(h.sum() as u64);
            slot.0 += h.count();
            slot.1 += h.sum();
        }
        self.acc.jobs += jobs;
        self.acc.misses += misses;
        self.acc.qos_achieved_ns += ach;
        self.acc.qos_requested_ns += req;
        self.acc.events += out.events_processed;
        self.acc.attempted += 1;
        self.acc.admitted += 1;
        self.acc.admitted_missing += u64::from(misses > 0);
    }
}

impl Workload for PaperSweep {
    fn round(&mut self, sp: &mut Spans, t: &mut Timings) -> Digest {
        self.acc = Accounting::default();
        self.overheads = [(0, 0); 4];
        let mut d = Digest::default();
        for i in 0..self.executors.len() {
            sp.next_request();
            let start = Instant::now();
            let open = sp.enter("exec_sim.run_in");
            let out = self.executors[i].1.run_in(&mut self.arena);
            sp.exit(open);
            t.record(Step::Request, start.elapsed().as_nanos() as u64);
            self.fold(&mut d, &out);
        }
        d
    }

    fn accounting(&self) -> Accounting {
        self.acc
    }

    fn lines(&self, _: &Timings, _: f64) -> Vec<Line> {
        OverheadKind::ALL
            .iter()
            .zip(&self.overheads)
            .map(|(kind, &(count, sum))| Line {
                name: match kind {
                    OverheadKind::BeginMandatory => "mean_delta_m_us",
                    OverheadKind::BeginOptional => "mean_delta_b_us",
                    OverheadKind::SwitchToOptional => "mean_delta_s_us",
                    OverheadKind::EndOptional => "mean_delta_e_us",
                },
                value: if count == 0 {
                    0.0
                } else {
                    sum as f64 / count as f64 / 1e3
                },
                unit: "us",
                better: crate::Better::Lower,
                base: format!("{count} samples, simulated"),
            })
            .collect()
    }

    fn check(&mut self) -> Result<(), String> {
        let want = JOBS * self.executors.len() as u64;
        if self.acc.jobs != want {
            return Err(format!(
                "paper-sweep ran {} jobs, expected {want}",
                self.acc.jobs
            ));
        }
        Ok(())
    }

    fn layers(&mut self, ctx: &LayerCtx, out: &mut Layers) -> Result<(), String> {
        // Config builds fall in set-up here; time them anyway.
        let mut builds = Vec::new();
        for policy in AssignmentPolicy::PAPER_POLICIES {
            for np in NP_SET {
                let t = Instant::now();
                std::hint::black_box(build(np, policy));
                builds.push(t.elapsed().as_nanos() as u64);
            }
        }
        out.set(
            "config.build_us",
            percentile(&mut builds, 50.0) as f64 / 1e3,
        );

        let acc = self.acc;
        let run_ns: u64 = ctx.spans.durations("exec_sim.run_in").iter().sum();
        let runs = ctx.spans.durations("exec_sim.run_in").len() as u64;
        let rounds = runs / self.executors.len() as u64;
        let ns_per_event = run_ns as f64 / (acc.events * rounds) as f64;
        let events_per_job = share(acc.events, acc.jobs);
        let samples: u64 = self.overheads.iter().map(|o| o.0).sum();

        // Recorder on vs off over the same inputs.
        let with_trace = |trace| -> Vec<SimExecutor> {
            self.executors
                .iter()
                .map(|(load, ex)| {
                    SimExecutor::new(ex.config().clone(), run_config(*load, self.seed, trace))
                })
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

        let shape = Shape {
            hw_threads: Topology::xeon_phi_3120a().hw_threads() as usize,
            tasks: 1,
            parts: *NP_SET.last().expect("non-empty"),
        };
        let eq = probes::eventq_op_ns(shape, ctx.seed);
        let rq = probes::readyq_op_ns(shape, ctx.seed);
        let model = probes::overhead_model_ns(
            Topology::xeon_phi_3120a(),
            BackgroundLoad::NoLoad,
            shape,
            ctx.seed,
        );
        let readyq_per_job = share(queue_ops, acc.jobs);
        let modelled =
            2.0 * eq + rq * share(queue_ops, acc.events) + model * share(samples, acc.events);
        out.set("exec_sim.ns_per_event", ns_per_event);
        out.set("exec_sim.events_per_job", events_per_job);
        out.set("exec_sim.residual_ns_per_event", ns_per_event - modelled);
        out.set("eventq.op_ns", eq);
        out.set("readyq.op_ns", rq);
        out.set("readyq.ops_per_job", readyq_per_job);
        out.set("overhead.model_ns", model);
        out.set("overhead.samples_per_job", share(samples, acc.jobs));
        Ok(())
    }
}
