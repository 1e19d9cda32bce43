//! `desk-churn`: the control plane. Trading desks from `desk_task_set`
//! (periods across several log₂ buckets, 1–4 analyses, 2 symbols) are
//! submitted one call at a time (`SessionManager::submit`) to a 57×4
//! session until it fills and rejects; every third call departs a seeded
//! earlier desk (`SessionManager::depart`). The admitted population then
//! runs to completion (`SessionManager::run_in`). A request is one submit.
//! A round runs two such sessions, each with its own seeded desks, so the
//! rejection tail is made of twice as many submissions.
//!
//! Set-up replays each call sequence on a bare `AdmissionEngine` to pick
//! which live desk each departure removes; the session's verdicts must
//! equal that replay's.

use std::time::Instant;

use rtseed::executor::RunConfig;
use rtseed::obs::TraceConfig;
use rtseed::policy::AssignmentPolicy;
use rtseed::serve::{ServeArena, SessionManager};
use rtseed_analysis::{AdmissionDecision, AdmissionEngine, PartitionHeuristic, TaskKey};
use rtseed_model::{Span, TaskSpec, TenantState, Topology};
use rtseed_sim::{splitmix64, BackgroundLoad, OverheadKind};
use rtseed_trading::imprecise::desk_task_set;

use crate::probes::{self, Shape};
use crate::spans::Spans;
use crate::stats::{percentile, share, Digest};
use crate::timings::{Step, Timings};
use crate::{Accounting, Better, LayerCtx, Layers, Line, Workload};

/// Calls per session; roughly the second half of the submissions meet a
/// full machine.
const CALLS: usize = 6000;
/// Jobs each admitted task runs once the population is in.
const JOBS: u64 = 8;
/// Packing heuristic of the session and of the replay.
const HEURISTIC: PartitionHeuristic = PartitionHeuristic::WorstFitDecreasing;
/// Symbols per desk.
const SYMBOLS: [&str; 2] = ["EURUSD", "USDJPY"];
/// Independent sessions per round.
const SESSIONS: u64 = 2;
/// Admission replays paired with traced sessions.
const REPLAYS: usize = 3;
/// Recorder ring for the recorder-on round; large enough that nothing drops.
const RECORDER_CAPACITY: usize = 1 << 21;

#[derive(Debug, Clone, Copy)]
enum Call {
    Submit(usize),
    Depart(usize),
}

struct Desk {
    name: String,
    tasks: Vec<TaskSpec>,
}

fn topology() -> Topology {
    Topology::xeon_phi_3120a()
}

fn run_config(seed: u64, trace: TraceConfig) -> RunConfig {
    RunConfig {
        jobs: JOBS,
        seed,
        trace,
        ..RunConfig::default()
    }
}

/// Desk `i`: a 2–256 ms period (log₂ buckets 1–7) and 1–4 analyses.
fn desk(seed: u64, i: usize) -> Desk {
    let r = splitmix64(seed, i as u64);
    let bucket = 1 + r % 7;
    let frac = (r >> 8) % 1000;
    let period = Span::from_micros((1000 << bucket) * (1000 + frac) / 1000);
    let analyses = 1 + ((r >> 20) % 4) as usize;
    let name = format!("desk{i}");
    let tasks = desk_task_set(&name, &SYMBOLS, analyses, period).expect("valid desk");
    Desk { name, tasks }
}

/// What the admission replay of the call sequence measured.
#[derive(Debug, Default)]
struct Replay {
    verdicts: Vec<bool>,
    try_admit_ns: Vec<u64>,
    rejected_ns: Vec<u64>,
    evict_ns: Vec<u64>,
    recomputes: u64,
    hits: u64,
}

/// Replays `calls` on a bare `AdmissionEngine`, timing every call.
fn replay(desks: &[Desk], calls: &[Call]) -> Replay {
    let mut engine = AdmissionEngine::new(topology().hw_threads() as usize, HEURISTIC);
    let mut keys: Vec<Vec<TaskKey>> = vec![Vec::new(); desks.len()];
    let mut r = Replay::default();
    for &call in calls {
        match call {
            Call::Submit(i) => {
                let t = Instant::now();
                let decision = engine.try_admit(&desks[i].tasks);
                let ns = t.elapsed().as_nanos() as u64;
                r.try_admit_ns.push(ns);
                match decision {
                    AdmissionDecision::Admitted(a) => {
                        keys[i] = a.tasks.iter().map(|t| t.key).collect();
                        r.verdicts.push(true);
                    }
                    _ => {
                        r.rejected_ns.push(ns);
                        r.verdicts.push(false);
                    }
                }
            }
            Call::Depart(i) => {
                let t = Instant::now();
                engine.evict(&keys[i]);
                r.evict_ns.push(t.elapsed().as_nanos() as u64);
            }
        }
    }
    r.recomputes = engine.cache().total_recomputes();
    r.hits = engine.cache().total_hits();
    r
}

/// One session's seeded desks and call sequence.
struct Plan {
    seed: u64,
    desks: Vec<Desk>,
    calls: Vec<Call>,
    /// Admission verdicts of the set-up replay, one per submit.
    expected: Vec<bool>,
    /// Live tasks after the last call.
    resident: usize,
}

impl Plan {
    /// Builds the call sequence, replaying it on an `AdmissionEngine` to
    /// depart only live desks.
    fn new(seed: u64) -> Result<Plan, String> {
        let mut engine = AdmissionEngine::new(topology().hw_threads() as usize, HEURISTIC);
        let mut desks = Vec::new();
        let mut calls = Vec::with_capacity(CALLS);
        let mut live: Vec<(usize, Vec<TaskKey>)> = Vec::new();
        let mut expected = Vec::new();
        for c in 0..CALLS {
            if c % 3 == 2 && !live.is_empty() {
                let pick = splitmix64(seed ^ 0xdead, c as u64) as usize % live.len();
                let (i, keys) = live.swap_remove(pick);
                engine.evict(&keys);
                calls.push(Call::Depart(i));
            } else {
                let i = desks.len();
                desks.push(desk(seed, i));
                let decision = engine.try_admit(&desks[i].tasks);
                expected.push(decision.is_admitted());
                if let AdmissionDecision::Admitted(a) = decision {
                    live.push((i, a.tasks.iter().map(|t| t.key).collect()));
                }
                calls.push(Call::Submit(i));
            }
        }
        if expected.iter().all(|&v| v) {
            return Err("desk-churn never filled the machine".into());
        }
        Ok(Plan {
            seed,
            desks,
            calls,
            expected,
            resident: engine.resident_tasks(),
        })
    }

    fn departures(&self) -> usize {
        self.calls.len() - self.expected.len()
    }
}

/// What one session measured.
struct Session {
    digest: Digest,
    acc: Accounting,
    verdicts: Vec<bool>,
    departs_failed: u64,
    submissions: u64,
    od_updates: u64,
    overhead_samples: u64,
    /// Wall time of the calls plus the run, ns.
    wall_ns: u64,
    /// Ready-queue operations the recorder saw.
    queue_ops: u64,
    /// Events the recorder dropped.
    dropped: u64,
}

pub struct DeskChurn {
    plans: Vec<Plan>,
    arena: ServeArena,
    /// The last round's sessions, in plan order.
    last: Vec<Session>,
}

impl DeskChurn {
    pub fn setup(seed: u64) -> Result<DeskChurn, String> {
        Ok(DeskChurn {
            plans: (0..SESSIONS)
                .map(|s| Plan::new(splitmix64(seed, s)))
                .collect::<Result<_, _>>()?,
            arena: ServeArena::new(),
            last: Vec::new(),
        })
    }

    /// One session over plan `p`'s call sequence.
    fn session(
        &mut self,
        p: usize,
        trace: TraceConfig,
        sp: &mut Spans,
        t: &mut Timings,
    ) -> Session {
        let plan = &self.plans[p];
        let mut d = Digest::default();
        let mut verdicts = Vec::with_capacity(plan.expected.len());
        let mut departs_failed = 0;
        let mut mgr = SessionManager::new_in(
            topology(),
            HEURISTIC,
            AssignmentPolicy::OneByOne,
            run_config(plan.seed, trace),
            &mut self.arena,
        );
        let mut wall_ns = 0;
        for &call in &plan.calls {
            sp.next_request();
            let start = Instant::now();
            let (step, ok) = match call {
                Call::Submit(i) => {
                    let desk = &plan.desks[i];
                    let open = sp.enter("serve.submit");
                    let ok = mgr.submit(desk.name.as_str(), &desk.tasks).is_ok();
                    sp.exit(open);
                    verdicts.push(ok);
                    (Step::Request, ok)
                }
                Call::Depart(i) => {
                    let open = sp.enter("serve.depart");
                    let ok = mgr.depart(&plan.desks[i].name);
                    sp.exit(open);
                    departs_failed += u64::from(!ok);
                    (Step::Depart, ok)
                }
            };
            let ns = start.elapsed().as_nanos() as u64;
            t.record(step, ns);
            wall_ns += ns;
            d.add(u64::from(ok));
        }
        let start = Instant::now();
        let open = sp.enter("serve.run");
        let out = mgr.run_in(&mut self.arena);
        sp.exit(open);
        let ns = start.elapsed().as_nanos() as u64;
        t.record(Step::Other, ns);
        wall_ns += ns;

        let q = &out.outcome.qos;
        let mut acc = Accounting {
            jobs: q.jobs(),
            misses: q.deadline_misses(),
            attempted: verdicts.len() as u64,
            qos_achieved_ns: q.achieved_total().as_nanos(),
            qos_requested_ns: q.requested_total().as_nanos(),
            events: out.outcome.events_processed,
            ..Accounting::default()
        };
        for v in [
            acc.jobs,
            acc.misses,
            acc.qos_achieved_ns,
            acc.qos_requested_ns,
            acc.events,
        ] {
            d.add(v);
        }
        for t in &out.tenants {
            d.add(t.qos.deadline_misses());
            if t.state != TenantState::Rejected {
                acc.admitted += 1;
                acc.admitted_missing += u64::from(t.qos.deadline_misses() > 0);
            }
        }
        Session {
            digest: d,
            acc,
            verdicts,
            departs_failed,
            submissions: out.counters.submissions,
            od_updates: out.counters.od_updates_applied,
            overhead_samples: OverheadKind::ALL
                .iter()
                .map(|&k| out.outcome.metrics.overhead(k).count())
                .sum(),
            wall_ns,
            queue_ops: probes::readyq_ops(out.outcome.trace.events()),
            dropped: out.outcome.trace.dropped(),
        }
    }

    /// Sum of `f` over the last round's sessions.
    fn total(&self, f: impl Fn(&Session) -> u64) -> u64 {
        self.last.iter().map(f).sum()
    }
}

impl Workload for DeskChurn {
    fn round(&mut self, sp: &mut Spans, t: &mut Timings) -> Digest {
        self.last.clear();
        let mut d = Digest::default();
        for p in 0..self.plans.len() {
            let run = self.session(p, TraceConfig::disabled(), sp, t);
            d.add(run.digest.value());
            self.last.push(run);
        }
        d
    }

    fn accounting(&self) -> Accounting {
        let mut acc = Accounting::default();
        for s in &self.last {
            acc += s.acc;
        }
        acc
    }

    fn admits(&self) -> bool {
        true
    }

    fn lines(&self, t: &Timings, _: f64) -> Vec<Line> {
        let submits = format!(
            "{} submits, best of {} rounds each",
            t.count(Step::Request),
            t.rounds()
        );
        vec![
            Line {
                name: "submit_p50_us",
                value: t.percentile(Step::Request, 50.0) as f64 / 1e3,
                unit: "us",
                better: Better::Lower,
                base: submits.clone(),
            },
            Line {
                name: "submit_p99_us",
                value: t.percentile(Step::Request, 99.0) as f64 / 1e3,
                unit: "us",
                better: Better::Lower,
                base: submits,
            },
            Line {
                name: "depart_p50_us",
                value: t.percentile(Step::Depart, 50.0) as f64 / 1e3,
                unit: "us",
                better: Better::Lower,
                base: format!("{} departures", t.count(Step::Depart)),
            },
        ]
    }

    fn check(&mut self) -> Result<(), String> {
        for (p, (plan, run)) in self.plans.iter().zip(&self.last).enumerate() {
            if let Some(at) = run
                .verdicts
                .iter()
                .zip(&plan.expected)
                .position(|(a, b)| a != b)
            {
                return Err(format!(
                    "session {p} verdict at submit {at} differs from the AdmissionEngine replay"
                ));
            }
            if run.verdicts.len() != plan.expected.len() {
                return Err(format!("session {p} made {} submits", run.verdicts.len()));
            }
        }
        let failed = self.total(|s| s.departs_failed);
        if failed > 0 {
            return Err(format!("{failed} departures found no live desk"));
        }
        if self.total(|s| s.submissions) != self.accounting().attempted {
            return Err("serve counters disagree with the submissions made".into());
        }
        Ok(())
    }

    fn layers(&mut self, ctx: &LayerCtx, out: &mut Layers) -> Result<(), String> {
        let acc = self.accounting();
        let submits = ctx.spans.durations("serve.submit");
        let departs = ctx.spans.durations("serve.depart");
        let per_round = acc.attempted as usize;
        let departs_per_round: usize = self.plans.iter().map(Plan::departures).sum();
        let rounds = (submits.len() / per_round).max(1);

        // The first session's calls straight on the admission engine, paired
        // call by call with that session in the first traced rounds.
        let plan = &self.plans[0];
        let mut admit_ns = Vec::new();
        let mut rejected_ns = Vec::new();
        let mut evict_ns = Vec::new();
        let mut submit_self = Vec::new();
        let mut depart_self = Vec::new();
        let mut last = Replay::default();
        for round in 0..rounds.min(REPLAYS) {
            let r = replay(&plan.desks, &plan.calls);
            if r.verdicts != plan.expected {
                return Err("admission replay is not deterministic".into());
            }
            for (i, &ns) in r.try_admit_ns.iter().enumerate() {
                submit_self.push(submits[round * per_round + i] as i64 - ns as i64);
            }
            for (i, &ns) in r.evict_ns.iter().enumerate() {
                depart_self.push(departs[round * departs_per_round + i] as i64 - ns as i64);
            }
            admit_ns.extend_from_slice(&r.try_admit_ns);
            rejected_ns.extend_from_slice(&r.rejected_ns);
            evict_ns.extend_from_slice(&r.evict_ns);
            last = r;
        }
        let median_i64 = |v: &mut Vec<i64>| {
            v.sort_unstable();
            v.get(v.len() / 2).copied().unwrap_or(0) as f64
        };
        out.set(
            "admission.try_admit_p50_us",
            percentile(&mut admit_ns, 50.0) as f64 / 1e3,
        );
        out.set(
            "admission.try_admit_p99_us",
            percentile(&mut admit_ns, 99.0) as f64 / 1e3,
        );
        out.set(
            "admission.try_admit_rejected_us",
            percentile(&mut rejected_ns, 50.0) as f64 / 1e3,
        );
        out.set(
            "admission.evict_us",
            percentile(&mut evict_ns, 50.0) as f64 / 1e3,
        );
        out.set(
            "admission.rta_recomputes_per_submit",
            share(last.recomputes, plan.expected.len() as u64),
        );
        out.set(
            "admission.rta_hit_ratio",
            share(last.hits, last.hits + last.recomputes),
        );
        out.set(
            "admission.rta_lookups",
            (last.hits + last.recomputes) as f64,
        );
        out.set("serve.submit_self_us", median_i64(&mut submit_self) / 1e3);
        out.set("serve.depart_self_us", median_i64(&mut depart_self) / 1e3);
        out.set(
            "serve.od_updates_per_submit",
            share(self.total(|s| s.od_updates), self.total(|s| s.submissions)),
        );
        let run_ns: u64 = ctx.spans.durations("serve.run").iter().sum();
        out.set(
            "serve.ns_per_event",
            run_ns as f64 / (acc.events * rounds as u64) as f64,
        );
        out.set("serve.events_per_job", share(acc.events, acc.jobs));
        out.set(
            "overhead.samples_per_job",
            share(self.total(|s| s.overhead_samples), acc.jobs),
        );

        // Recorder on vs off over the first session.
        let mut queue_ops = 0;
        let mut jobs = 0;
        let pct = probes::recorder_overhead_pct(|recording| {
            let trace = if recording {
                TraceConfig::bounded(RECORDER_CAPACITY)
            } else {
                TraceConfig::disabled()
            };
            let run = self.session(0, trace, &mut Spans::off(), &mut Timings::default());
            if run.dropped > 0 {
                return Err(format!("recorder dropped {} events", run.dropped));
            }
            queue_ops = run.queue_ops;
            jobs = run.acc.jobs;
            Ok(run.wall_ns)
        })?;
        out.set("obs.recorder_overhead_pct", pct);
        out.set("readyq.ops_per_job", share(queue_ops, jobs));

        let shape = Shape {
            hw_threads: topology().hw_threads() as usize,
            tasks: self.plans[0].resident,
            parts: 4,
        };
        out.set("eventq.op_ns", probes::eventq_op_ns(shape, ctx.seed));
        out.set("readyq.op_ns", probes::readyq_op_ns(shape, ctx.seed));
        out.set(
            "overhead.model_ns",
            probes::overhead_model_ns(topology(), BackgroundLoad::NoLoad, shape, ctx.seed),
        );
        Ok(())
    }
}
