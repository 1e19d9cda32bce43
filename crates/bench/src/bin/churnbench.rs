//! `churnbench` — serving-layer benchmark: online admission throughput,
//! admission-decision latency, and QoS under tenant churn.
//!
//! A multi-tenant middleware's control plane must keep up with tenant
//! arrivals: every submission runs the full RMWP response-time analysis
//! against the resident population, so admission cost grows with
//! residency. This harness measures
//!
//! * **admission throughput** — tenants admitted per second when filling
//!   an empty machine to its first rejection (the admission test's cost
//!   on a *growing* resident set), and
//! * **churn replay** — wall-clock and scheduling events/sec of a full
//!   [`SessionManager`] run under a scripted arrive/depart plan, with the
//!   end-to-end QoS the admitted tenants achieved, and
//! * **submission storm** (`--storm`) — a seeded burst of 1 000 tenant
//!   submissions (200 under `--quick`) against a guarded session with an
//!   adversarial tenant overrunning 10×: deferred-admission latency
//!   percentiles, per-reason rejection counts, and degradation-ladder
//!   transition counts, all byte-deterministic across repeats, and
//! * **tenant-scale sweep** (`--tenants N`) — N single-task tenants
//!   admitted three ways on a 228-thread topology: through the
//!   incremental [`AdmissionEngine`] (per-CPU RTA fixpoints memoised in
//!   its [`RtaCache`](rtseed_analysis::RtaCache)), through the
//!   full-recompute baseline (`without_cache`, re-running RTA over every
//!   non-empty CPU per decision — the pre-cache controller's cost), and
//!   through a parallel [`ShardedAdmission`] batch path. A decision
//!   fingerprint (FNV-1a over placements and granted ODs) proves the
//!   cached and full paths decide *identically*; the row records the
//!   speedup.
//!
//! Output is `BENCH_churnbench.json` in the same stable `{"schema": 1}`
//! shape `simbench` uses, so future PRs can diff the serving layer's perf
//! trajectory:
//!
//! ```json
//! {
//!   "schema": 1,
//!   "bench": "churnbench",
//!   "mode": "full",
//!   "admission": [
//!     {"bench": "admit_quad_4x2", "config": {"cores": 4, "smt": 2},
//!      "admitted": 12, "repeats": 5, "wall_ms": 1.2,
//!      "admissions_per_sec": 10000.0, "wall_ms_min": 1.0,
//!      "admissions_per_sec_best": 12000.0}
//!   ],
//!   "churn": [
//!     {"bench": "churn_quad_4x2", "config": {"cores": 4, "smt": 2,
//!      "tenants": 12, "jobs": 20, "seed": 0}, "events": 12345,
//!      "jobs": 200, "misses": 0, "repeats": 5, "wall_ms": 9.8,
//!      "events_per_sec": 1000000.0, "wall_ms_min": 9.0,
//!      "events_per_sec_best": 1100000.0}
//!   ]
//! }
//! ```
//!
//! Usage:
//!
//! ```text
//! churnbench [--quick] [--storm] [--tenants N] [--out PATH]
//!            [--check BASELINE] [--repeats N]
//! ```
//!
//! `--storm` runs the storm suite *instead of* the admission/churn suites
//! (the JSON always carries all four arrays; the ones not run are empty).
//! `--tenants N` adds the scale sweep to the default suites. `--check`
//! compares each produced row's best-of throughput against a baseline
//! JSON (tolerance `CHURNBENCH_TOLERANCE`, default 30 %) and — when the
//! sweep ran — enforces the incremental ≥ `CHURNBENCH_MIN_SPEEDUP`
//! (default 5) × full-recompute floor.

use std::process::ExitCode;
use std::time::Instant;

use rtseed::exec_sim::SimArena;
use rtseed::policy::AssignmentPolicy;
use rtseed::serve::{GuardConfig, SessionManager};
use rtseed::RunConfig;
use rtseed_analysis::{
    AdmissionDecision, AdmissionEngine, PartitionHeuristic, ShardedAdmission,
};
use rtseed_model::{Span, TaskSpec, Time, Topology};
use rtseed_sim::{ChaosPlan, ChurnPlan};

/// The task set every benchmark tenant submits: one pipeline task, 8 %
/// mandatory+wind-up utilization, two optional parts.
fn tenant_tasks(i: usize) -> Vec<TaskSpec> {
    vec![TaskSpec::builder(format!("t{i}"))
        .period(Span::from_millis(50))
        .mandatory(Span::from_millis(2))
        .windup(Span::from_millis(2))
        .optional_parts(2, Span::from_millis(10))
        .build()
        .expect("benchmark spec is valid")]
}

struct AdmissionPoint {
    name: &'static str,
    cores: u32,
    smt: u32,
}

struct AdmissionMeasured {
    point: AdmissionPoint,
    admitted: usize,
    repeats: usize,
    wall_ms: f64,
    admissions_per_sec: f64,
    wall_ms_min: f64,
    admissions_per_sec_best: f64,
}

/// Fills an empty engine with single-task tenants until the first
/// rejection; returns (admitted, wall seconds). Cost grows with residency
/// — exactly the control-plane path a serving process pays per submission.
fn fill_to_rejection(cores: u32, smt: u32) -> (usize, f64) {
    let topo = Topology::new(cores, smt).expect("non-degenerate");
    let mut eng = AdmissionEngine::new(
        topo.hw_threads() as usize,
        PartitionHeuristic::WorstFitDecreasing,
    );
    let start = Instant::now();
    let mut admitted = 0;
    while eng.try_admit(&tenant_tasks(admitted)).is_admitted() {
        admitted += 1;
    }
    (admitted, start.elapsed().as_secs_f64())
}

fn measure_admission(point: AdmissionPoint, repeats: usize) -> AdmissionMeasured {
    let (admitted, _) = fill_to_rejection(point.cores, point.smt); // warmup
    let mut walls: Vec<f64> = (0..repeats)
        .map(|_| {
            let (a, wall) = fill_to_rejection(point.cores, point.smt);
            assert_eq!(a, admitted, "non-deterministic admission in {}", point.name);
            wall * 1e3
        })
        .collect();
    walls.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let wall_ms = walls[walls.len() / 2];
    let wall_ms_min = walls[0];
    AdmissionMeasured {
        admitted,
        repeats,
        wall_ms,
        admissions_per_sec: admitted as f64 / (wall_ms / 1e3),
        wall_ms_min,
        admissions_per_sec_best: admitted as f64 / (wall_ms_min / 1e3),
        point,
    }
}

struct ChurnPoint {
    name: &'static str,
    cores: u32,
    smt: u32,
    tenants: usize,
    jobs: u64,
    seed: u64,
}

struct ChurnMeasured {
    point: ChurnPoint,
    events: u64,
    jobs: u64,
    misses: u64,
    repeats: usize,
    wall_ms: f64,
    events_per_sec: f64,
    wall_ms_min: f64,
    events_per_sec_best: f64,
}

/// A deterministic plan: `tenants` staggered arrivals 10 ms apart, the
/// first half departing mid-run (so the survivors' optional deadlines are
/// recomputed under load).
fn churn_plan(tenants: usize) -> ChurnPlan {
    let mut plan = ChurnPlan::new();
    for i in 0..tenants {
        plan = plan.arrive(
            Time::from_nanos(i as u64 * 10_000_000),
            format!("t{i}"),
            tenant_tasks(i),
        );
    }
    for i in 0..tenants / 2 {
        plan = plan.depart(
            Time::from_nanos(400_000_000 + i as u64 * 10_000_000),
            format!("t{i}"),
        );
    }
    plan
}

fn run_churn(p: &ChurnPoint, arena: &mut SimArena) -> (u64, u64, u64, f64) {
    let topo = Topology::new(p.cores, p.smt).expect("non-degenerate");
    let run = RunConfig {
        jobs: p.jobs,
        seed: p.seed,
        ..RunConfig::default()
    };
    let mgr = SessionManager::new_in(
        topo,
        PartitionHeuristic::WorstFitDecreasing,
        AssignmentPolicy::OneByOne,
        run,
        arena,
    );
    let plan = churn_plan(p.tenants);
    let start = Instant::now();
    let out = mgr.run_with_churn_in(&plan, arena);
    let wall = start.elapsed().as_secs_f64() * 1e3;
    (
        out.outcome.events_processed,
        out.outcome.qos.jobs(),
        out.outcome.qos.deadline_misses(),
        wall,
    )
}

fn measure_churn(point: ChurnPoint, repeats: usize) -> ChurnMeasured {
    // One arena across warmup + every repeat: after the warmup run parks
    // its buffers, no repeat cold-starts the executor (hot ≡ cold is a
    // tested contract of `SimArena`).
    let mut arena = SimArena::new();
    let (events, jobs, misses, _) = run_churn(&point, &mut arena); // warmup
    let mut walls: Vec<f64> = (0..repeats)
        .map(|_| {
            let (e, j, m, wall) = run_churn(&point, &mut arena);
            assert_eq!(
                (e, j, m),
                (events, jobs, misses),
                "non-deterministic churn replay in {}",
                point.name
            );
            wall
        })
        .collect();
    walls.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let wall_ms = walls[walls.len() / 2];
    let wall_ms_min = walls[0];
    ChurnMeasured {
        events,
        jobs,
        misses,
        repeats,
        wall_ms,
        events_per_sec: events as f64 / (wall_ms / 1e3),
        wall_ms_min,
        events_per_sec_best: events as f64 / (wall_ms_min / 1e3),
        point,
    }
}

struct StormPoint {
    name: &'static str,
    cores: u32,
    smt: u32,
    submissions: usize,
    jobs: u64,
    seed: u64,
}

/// Everything about a storm run that must replay identically; the
/// determinism assert compares whole values of this struct.
#[derive(Clone, PartialEq, Debug)]
struct StormStats {
    admitted: u64,
    deferred: u64,
    deferred_admitted: u64,
    admission_rounds: u64,
    rejected_capacity: u64,
    rejected_queue_full: u64,
    rejected_deadline: u64,
    rejected_evicted: u64,
    sheds: u64,
    quarantines: u64,
    evictions: u64,
    recoveries: u64,
    latency_count: u64,
    latency_p50_ns: u64,
    latency_p90_ns: u64,
    latency_p99_ns: u64,
    latency_max_ns: u64,
    events: u64,
    jobs: u64,
    misses: u64,
}

struct StormMeasured {
    point: StormPoint,
    stats: StormStats,
    repeats: usize,
    wall_ms: f64,
    wall_ms_min: f64,
}

/// The adversary occupies a fat slice of one CPU and overruns its
/// mandatory WCET 10× on every job, so the guard walks it down the whole
/// ladder and its eviction re-offers real capacity to the deferred queue.
fn adversary_tasks() -> Vec<TaskSpec> {
    vec![TaskSpec::builder("adv")
        .period(Span::from_millis(50))
        .mandatory(Span::from_millis(10))
        .windup(Span::from_millis(10))
        .optional_parts(1, Span::from_millis(5))
        .build()
        .expect("benchmark spec is valid")]
}

/// One guarded storm run: `submissions` seeded arrivals in the first
/// 500 ms, departure waves from 600 ms re-offering capacity to the
/// deferred queue, the adversary walking the ladder throughout.
///
/// At this density (~50 resident tenants on 8 threads) the calibrated
/// scheduling overheads — which the RMWP admission analysis deliberately
/// does not model — can push a handful of wind-up completions a few
/// hundred µs past their deadline, so `misses` is small but non-zero and
/// the ladder's shed → recover hysteresis is exercised on well-behaved
/// tenants too (visible as `recoveries > 0`).
fn run_storm(p: &StormPoint, arena: &mut SimArena) -> (StormStats, f64) {
    let topo = Topology::new(p.cores, p.smt).expect("non-degenerate");
    let mut plan = ChaosPlan::adversarial_storm(
        p.seed,
        adversary_tasks(),
        10.0,
        p.submissions,
        Span::from_millis(500),
        tenant_tasks,
    );
    let mut churn = std::mem::take(&mut plan.churn);
    for i in 0..p.submissions / 4 {
        // Departures of storm tenants that never got in are no-ops; the
        // admitted ones free capacity for deferred retries.
        churn = churn.depart(
            Time::from_nanos(600_000_000 + i as u64 * 5_000_000),
            format!("s{i}"),
        );
    }
    plan.churn = churn;
    let run = RunConfig {
        jobs: p.jobs,
        seed: p.seed,
        fault_plan: plan.faults.clone(),
        ..RunConfig::default()
    };
    let mgr = SessionManager::new_in(
        topo,
        PartitionHeuristic::WorstFitDecreasing,
        AssignmentPolicy::OneByOne,
        run,
        arena,
    )
    .with_guard(GuardConfig {
        queue_depth: 256,
        ..GuardConfig::armed()
    });
    let start = Instant::now();
    let out = mgr.run_with_churn_in(&plan.churn, arena);
    let wall = start.elapsed().as_secs_f64() * 1e3;
    let c = &out.counters;
    let h = &out.deferred_latency;
    let stats = StormStats {
        admitted: c.admissions,
        deferred: c.deferred_submissions,
        deferred_admitted: c.deferred_admissions,
        admission_rounds: c.admission_rounds,
        rejected_capacity: c.rejected_capacity,
        rejected_queue_full: c.rejected_queue_full,
        rejected_deadline: c.rejected_deadline,
        rejected_evicted: c.rejected_evicted,
        sheds: c.sheds,
        quarantines: c.quarantines,
        evictions: c.evictions,
        recoveries: c.recoveries,
        latency_count: h.count(),
        latency_p50_ns: h.quantile_bound(0.5),
        latency_p90_ns: h.quantile_bound(0.9),
        latency_p99_ns: h.quantile_bound(0.99),
        latency_max_ns: h.max(),
        events: out.outcome.events_processed,
        jobs: out.outcome.qos.jobs(),
        misses: out.outcome.qos.deadline_misses(),
    };
    (stats, wall)
}

fn measure_storm(point: StormPoint, repeats: usize) -> StormMeasured {
    let mut arena = SimArena::new();
    let (stats, _) = run_storm(&point, &mut arena); // warmup
    let mut walls: Vec<f64> = (0..repeats)
        .map(|_| {
            let (s, wall) = run_storm(&point, &mut arena);
            assert_eq!(s, stats, "non-deterministic storm replay in {}", point.name);
            wall
        })
        .collect();
    walls.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let wall_ms = walls[walls.len() / 2];
    let wall_ms_min = walls[0];
    StormMeasured {
        point,
        stats,
        repeats,
        wall_ms,
        wall_ms_min,
    }
}

// ----- tenant-scale sweep: incremental vs full-recompute vs sharded -------

/// How one scale row drives the admission control.
#[derive(Clone, Copy, PartialEq)]
enum ScaleMode {
    /// [`AdmissionEngine`] with its per-CPU RTA cache (the default path).
    Incremental,
    /// `AdmissionEngine::without_cache()`: every decision re-runs RTA
    /// over every non-empty CPU — the pre-cache controller's cost.
    FullRecompute,
    /// [`ShardedAdmission`] admitting in parallel batches.
    Sharded { shards: usize, batch: usize },
}

struct ScalePoint {
    name: String,
    mode: ScaleMode,
    cores: u32,
    smt: u32,
    tenants: usize,
}

struct ScaleMeasured {
    point: ScalePoint,
    admitted: u64,
    rejected: u64,
    /// FNV-1a over every decision's (submission index, placement, OD).
    fingerprint: u64,
    repeats: usize,
    wall_ms: f64,
    submissions_per_sec: f64,
    wall_ms_min: f64,
    submissions_per_sec_best: f64,
}

fn fnv1a(fp: &mut u64, v: u64) {
    *fp ^= v;
    *fp = fp.wrapping_mul(0x100_0000_01b3);
}

fn fold_decision(fp: &mut u64, admitted: &mut u64, rejected: &mut u64, i: usize, d: &AdmissionDecision) {
    match d {
        AdmissionDecision::Admitted(a) => {
            *admitted += 1;
            for t in &a.tasks {
                fnv1a(fp, i as u64);
                fnv1a(fp, t.hw_thread.index() as u64);
                fnv1a(fp, t.optional_deadline.as_nanos());
            }
        }
        _ => {
            *rejected += 1;
            fnv1a(fp, i as u64);
            fnv1a(fp, u64::MAX);
        }
    }
}

/// One pass of the sweep: submit `tenants` single-task tenants through
/// the chosen admission path; returns (admitted, rejected, decision
/// fingerprint, wall seconds).
fn run_scale(p: &ScalePoint) -> (u64, u64, u64, f64) {
    let topo = Topology::new(p.cores, p.smt).expect("non-degenerate");
    let hw = topo.hw_threads() as usize;
    let heuristic = PartitionHeuristic::WorstFitDecreasing;
    let (mut admitted, mut rejected) = (0u64, 0u64);
    let mut fp: u64 = 0xcbf2_9ce4_8422_2325;
    let wall = match p.mode {
        ScaleMode::Incremental | ScaleMode::FullRecompute => {
            let mut eng = AdmissionEngine::new(hw, heuristic);
            if p.mode == ScaleMode::FullRecompute {
                eng = eng.without_cache();
            }
            let start = Instant::now();
            for i in 0..p.tenants {
                let d = eng.try_admit(&tenant_tasks(i));
                fold_decision(&mut fp, &mut admitted, &mut rejected, i, &d);
            }
            start.elapsed().as_secs_f64()
        }
        ScaleMode::Sharded { shards, batch } => {
            let mut ctl = ShardedAdmission::new(hw, shards, heuristic);
            let start = Instant::now();
            let mut i = 0;
            while i < p.tenants {
                let end = (i + batch).min(p.tenants);
                let wave: Vec<Vec<TaskSpec>> = (i..end).map(tenant_tasks).collect();
                for (off, d) in ctl.admit_batch(&wave).iter().enumerate() {
                    fold_decision(&mut fp, &mut admitted, &mut rejected, i + off, d);
                }
                i = end;
            }
            start.elapsed().as_secs_f64()
        }
    };
    (admitted, rejected, fp, wall)
}

fn measure_scale(point: ScalePoint, repeats: usize) -> ScaleMeasured {
    let (admitted, rejected, fingerprint, _) = run_scale(&point); // warmup
    let mut walls: Vec<f64> = (0..repeats)
        .map(|_| {
            let (a, r, f, wall) = run_scale(&point);
            assert_eq!(
                (a, r, f),
                (admitted, rejected, fingerprint),
                "non-deterministic admission in {}",
                point.name
            );
            wall * 1e3
        })
        .collect();
    walls.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let wall_ms = walls[walls.len() / 2];
    let wall_ms_min = walls[0];
    let subs = point.tenants as f64;
    ScaleMeasured {
        admitted,
        rejected,
        fingerprint,
        repeats,
        wall_ms,
        submissions_per_sec: subs / (wall_ms / 1e3),
        wall_ms_min,
        submissions_per_sec_best: subs / (wall_ms_min / 1e3),
        point,
    }
}

fn render_json(
    mode: &str,
    adm: &[AdmissionMeasured],
    churn: &[ChurnMeasured],
    storm: &[StormMeasured],
    scale: &[ScaleMeasured],
) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"schema\": 1,");
    let _ = writeln!(out, "  \"bench\": \"churnbench\",");
    let _ = writeln!(out, "  \"mode\": \"{mode}\",");
    let _ = writeln!(out, "  \"admission\": [");
    for (i, m) in adm.iter().enumerate() {
        let p = &m.point;
        let _ = write!(
            out,
            "    {{\"bench\": \"{}\", \"config\": {{\"cores\": {}, \"smt\": {}}}, \
             \"admitted\": {}, \"repeats\": {}, \"wall_ms\": {:.3}, \
             \"admissions_per_sec\": {:.1}, \"wall_ms_min\": {:.3}, \
             \"admissions_per_sec_best\": {:.1}}}",
            p.name, p.cores, p.smt, m.admitted, m.repeats, m.wall_ms,
            m.admissions_per_sec, m.wall_ms_min, m.admissions_per_sec_best,
        );
        let _ = writeln!(out, "{}", if i + 1 < adm.len() { "," } else { "" });
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"churn\": [");
    for (i, m) in churn.iter().enumerate() {
        let p = &m.point;
        let _ = write!(
            out,
            "    {{\"bench\": \"{}\", \"config\": {{\"cores\": {}, \"smt\": {}, \
             \"tenants\": {}, \"jobs\": {}, \"seed\": {}}}, \
             \"events\": {}, \"jobs\": {}, \"misses\": {}, \"repeats\": {}, \
             \"wall_ms\": {:.3}, \"events_per_sec\": {:.1}, \
             \"wall_ms_min\": {:.3}, \"events_per_sec_best\": {:.1}}}",
            p.name, p.cores, p.smt, p.tenants, p.jobs, p.seed,
            m.events, m.jobs, m.misses, m.repeats, m.wall_ms,
            m.events_per_sec, m.wall_ms_min, m.events_per_sec_best,
        );
        let _ = writeln!(out, "{}", if i + 1 < churn.len() { "," } else { "" });
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"storm\": [");
    for (i, m) in storm.iter().enumerate() {
        let p = &m.point;
        let s = &m.stats;
        let _ = write!(
            out,
            "    {{\"bench\": \"{}\", \"config\": {{\"cores\": {}, \"smt\": {}, \
             \"submissions\": {}, \"jobs\": {}, \"seed\": {}}}, \
             \"admitted\": {}, \"deferred\": {}, \"deferred_admitted\": {}, \
             \"admission_rounds\": {}, \
             \"rejected\": {{\"capacity\": {}, \"queue_full\": {}, \
             \"deadline\": {}, \"evicted\": {}}}, \
             \"ladder\": {{\"sheds\": {}, \"quarantines\": {}, \
             \"evictions\": {}, \"recoveries\": {}}}, \
             \"deferred_latency_ns\": {{\"count\": {}, \"p50\": {}, \
             \"p90\": {}, \"p99\": {}, \"max\": {}}}, \
             \"events\": {}, \"jobs\": {}, \"misses\": {}, \"repeats\": {}, \
             \"wall_ms\": {:.3}, \"wall_ms_min\": {:.3}}}",
            p.name, p.cores, p.smt, p.submissions, p.jobs, p.seed,
            s.admitted, s.deferred, s.deferred_admitted, s.admission_rounds,
            s.rejected_capacity, s.rejected_queue_full, s.rejected_deadline,
            s.rejected_evicted, s.sheds, s.quarantines, s.evictions,
            s.recoveries, s.latency_count, s.latency_p50_ns, s.latency_p90_ns,
            s.latency_p99_ns, s.latency_max_ns, s.events, s.jobs, s.misses,
            m.repeats, m.wall_ms, m.wall_ms_min,
        );
        let _ = writeln!(out, "{}", if i + 1 < storm.len() { "," } else { "" });
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"scale\": [");
    for (i, m) in scale.iter().enumerate() {
        let p = &m.point;
        let (mode_label, shards) = match p.mode {
            ScaleMode::Incremental => ("incremental", 1),
            ScaleMode::FullRecompute => ("full_recompute", 1),
            ScaleMode::Sharded { shards, .. } => ("sharded", shards),
        };
        let _ = write!(
            out,
            "    {{\"bench\": \"{}\", \"config\": {{\"cores\": {}, \"smt\": {}, \
             \"tenants\": {}, \"mode\": \"{}\", \"shards\": {}}}, \
             \"admitted\": {}, \"rejected\": {}, \"fingerprint\": \"{:016x}\", \
             \"repeats\": {}, \"wall_ms\": {:.3}, \
             \"submissions_per_sec\": {:.1}, \"wall_ms_min\": {:.3}, \
             \"submissions_per_sec_best\": {:.1}}}",
            p.name, p.cores, p.smt, p.tenants, mode_label, shards,
            m.admitted, m.rejected, m.fingerprint, m.repeats, m.wall_ms,
            m.submissions_per_sec, m.wall_ms_min, m.submissions_per_sec_best,
        );
        let _ = writeln!(out, "{}", if i + 1 < scale.len() { "," } else { "" });
    }
    let _ = writeln!(out, "  ]");
    out.push_str("}\n");
    out
}

/// Extracts the best-of throughput for `bench` from a baseline in this
/// harness's own schema (a purpose-built scanner, like simbench's — the
/// workspace is offline and the schema is ours). Tries each suite's
/// `_best` field, falling back to its median.
fn baseline_best(baseline: &str, bench: &str) -> Option<f64> {
    let anchor = format!("\"bench\": \"{bench}\"");
    let at = baseline.find(&anchor)?;
    let point = &baseline[at + anchor.len()..];
    // Bound the scan at the next point's anchor so a missing field is not
    // satisfied by a neighbour.
    let point = &point[..point.find("\"bench\": ").unwrap_or(point.len())];
    let field = |key: &str| {
        let vs = point.find(key)? + key.len();
        let rest = &point[vs..];
        let end = rest.find(|c: char| c != '.' && !c.is_ascii_digit())?;
        rest[..end].parse().ok()
    };
    [
        "\"submissions_per_sec_best\": ",
        "\"events_per_sec_best\": ",
        "\"admissions_per_sec_best\": ",
        "\"submissions_per_sec\": ",
        "\"events_per_sec\": ",
        "\"admissions_per_sec\": ",
    ]
    .iter()
    .find_map(|k| field(k))
}

/// The regression gate: every produced row's best-of throughput must stay
/// within tolerance of the checked-in baseline, and — when the scale
/// sweep ran — the incremental path must beat the full-recompute baseline
/// by at least the configured speedup floor at equal decisions.
fn check(
    rows: &[(String, f64)],
    scale: &[ScaleMeasured],
    baseline_path: &str,
) -> Result<(), String> {
    let baseline = std::fs::read_to_string(baseline_path)
        .map_err(|e| format!("cannot read baseline {baseline_path}: {e}"))?;
    let tolerance: f64 = std::env::var("CHURNBENCH_TOLERANCE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.30);
    let min_speedup: f64 = std::env::var("CHURNBENCH_MIN_SPEEDUP")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(5.0);
    let mut failures = Vec::new();
    for (name, best) in rows {
        let Some(base) = baseline_best(&baseline, name) else {
            eprintln!("churnbench: no baseline for {name}, skipping");
            continue;
        };
        let floor = base * (1.0 - tolerance);
        // Best-of-repeats: CI-host interference only ever slows runs
        // down, so a genuine regression slows even the best run.
        if *best < floor {
            failures.push(format!(
                "{name}: best {best:.0}/sec < {floor:.0} (baseline {base:.0} − {:.0} %)",
                tolerance * 100.0
            ));
        }
    }
    let inc = scale
        .iter()
        .find(|m| m.point.mode == ScaleMode::Incremental);
    let full = scale
        .iter()
        .find(|m| m.point.mode == ScaleMode::FullRecompute);
    if let (Some(inc), Some(full)) = (inc, full) {
        if inc.fingerprint != full.fingerprint {
            failures.push(format!(
                "scale sweep: incremental and full-recompute decisions diverged \
                 ({:016x} vs {:016x})",
                inc.fingerprint, full.fingerprint
            ));
        }
        let speedup = inc.submissions_per_sec_best / full.submissions_per_sec_best;
        if speedup < min_speedup {
            failures.push(format!(
                "scale sweep: incremental is only {speedup:.1}× the full-RTA \
                 baseline (floor {min_speedup:.0}×)"
            ));
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("\n"))
    }
}

fn main() -> ExitCode {
    let mut quick = false;
    let mut storm_mode = false;
    let mut out_path = String::from("BENCH_churnbench.json");
    let mut repeats: Option<usize> = None;
    let mut tenants: Option<usize> = None;
    let mut baseline: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--storm" => storm_mode = true,
            "--out" => out_path = args.next().expect("--out needs a path"),
            "--check" => baseline = Some(args.next().expect("--check needs a path")),
            "--tenants" => {
                tenants = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--tenants needs a count"),
                )
            }
            "--repeats" => {
                repeats = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--repeats needs a count"),
                )
            }
            other => {
                eprintln!("churnbench: unknown argument {other}");
                return ExitCode::FAILURE;
            }
        }
    }
    let repeats = repeats.unwrap_or(if quick { 3 } else { 5 });
    let mode = match (storm_mode, quick) {
        (true, true) => "storm-quick",
        (true, false) => "storm",
        (false, true) => "quick",
        (false, false) => "full",
    };
    let j = |full: u64, q: u64| if quick { q } else { full };

    if storm_mode {
        let storm_points = vec![StormPoint {
            name: "storm_quad_4x2",
            cores: 4,
            smt: 2,
            submissions: if quick { 200 } else { 1000 },
            jobs: j(20, 12),
            seed: 0,
        }];
        let mut storm = Vec::new();
        for point in storm_points {
            let name = point.name;
            let m = measure_storm(point, repeats);
            let s = &m.stats;
            println!(
                "{name:>16}: {} submitted, {} admitted ({} after deferral), \
                 {} deferred, rejected cap {} / queue-full {} / deadline {} / \
                 evicted {}, ladder {}/{}/{}/{}, latency p50 {} p90 {} p99 {} ns \
                 (n={}), {} misses, median {:>8.3} ms (n={repeats})",
                m.point.submissions, s.admitted, s.deferred_admitted, s.deferred,
                s.rejected_capacity, s.rejected_queue_full, s.rejected_deadline,
                s.rejected_evicted, s.sheds, s.quarantines, s.evictions,
                s.recoveries, s.latency_p50_ns, s.latency_p90_ns,
                s.latency_p99_ns, s.latency_count, s.misses, m.wall_ms,
            );
            storm.push(m);
        }
        let json = render_json(mode, &[], &[], &storm, &[]);
        std::fs::write(&out_path, &json).expect("write benchmark output");
        println!("churnbench: wrote {out_path}");
        return ExitCode::SUCCESS;
    }

    let admission_points = vec![
        AdmissionPoint { name: "admit_quad_4x2", cores: 4, smt: 2 },
        AdmissionPoint { name: "admit_phi_57x4", cores: 57, smt: 4 },
    ];
    let mut adm = Vec::new();
    for point in admission_points {
        let name = point.name;
        let m = measure_admission(point, repeats);
        println!(
            "{name:>16}: {:>5} admitted, median {:>8.3} ms = {:>10.0} adm/s, \
             best {:>8.3} ms = {:>10.0} adm/s (n={repeats})",
            m.admitted, m.wall_ms, m.admissions_per_sec, m.wall_ms_min,
            m.admissions_per_sec_best
        );
        adm.push(m);
    }

    let churn_points = vec![
        ChurnPoint {
            name: "churn_quad_4x2",
            cores: 4,
            smt: 2,
            tenants: 12,
            jobs: j(40, 10),
            seed: 0,
        },
        ChurnPoint {
            name: "churn_phi_57x4",
            cores: 57,
            smt: 4,
            tenants: 64,
            jobs: j(40, 10),
            seed: 0,
        },
    ];
    let mut churn = Vec::new();
    for point in churn_points {
        let name = point.name;
        let m = measure_churn(point, repeats);
        println!(
            "{name:>16}: {:>8} events, {:>5} jobs, {} misses, median {:>8.3} ms = \
             {:>10.0} ev/s, best {:>8.3} ms = {:>10.0} ev/s (n={repeats})",
            m.events, m.jobs, m.misses, m.wall_ms, m.events_per_sec,
            m.wall_ms_min, m.events_per_sec_best
        );
        churn.push(m);
    }

    let mut scale = Vec::new();
    if let Some(n) = tenants {
        let points = vec![
            ScalePoint {
                name: format!("scale_incremental_{n}"),
                mode: ScaleMode::Incremental,
                cores: 57,
                smt: 4,
                tenants: n,
            },
            ScalePoint {
                name: format!("scale_full_rta_{n}"),
                mode: ScaleMode::FullRecompute,
                cores: 57,
                smt: 4,
                tenants: n,
            },
            ScalePoint {
                name: format!("scale_sharded_{n}"),
                mode: ScaleMode::Sharded {
                    shards: 8,
                    batch: 64,
                },
                cores: 57,
                smt: 4,
                tenants: n,
            },
        ];
        for point in points {
            let name = point.name.clone();
            let m = measure_scale(point, repeats);
            println!(
                "{name:>24}: {:>5} admitted / {:>4} rejected, fp {:016x}, \
                 median {:>9.3} ms = {:>9.0} subs/s, best {:>9.3} ms = \
                 {:>9.0} subs/s (n={repeats})",
                m.admitted, m.rejected, m.fingerprint, m.wall_ms,
                m.submissions_per_sec, m.wall_ms_min, m.submissions_per_sec_best,
            );
            scale.push(m);
        }
        let inc = scale
            .iter()
            .find(|m| m.point.mode == ScaleMode::Incremental)
            .expect("incremental row just measured");
        let full = scale
            .iter()
            .find(|m| m.point.mode == ScaleMode::FullRecompute)
            .expect("full-recompute row just measured");
        println!(
            "{:>24}: incremental is {:.1}x the full-RTA baseline at equal \
             decisions ({})",
            "speedup",
            inc.submissions_per_sec_best / full.submissions_per_sec_best,
            if inc.fingerprint == full.fingerprint {
                "fingerprints match"
            } else {
                "FINGERPRINT MISMATCH"
            },
        );
        // Correctness is not optional at any scale: a fingerprint mismatch
        // means the incremental admission path diverged from the full-RTA
        // ground truth, so every sweep (with or without --check, including
        // the --tenants 10000 rejection-path run in CI) fails hard on it.
        if inc.fingerprint != full.fingerprint {
            eprintln!(
                "churnbench: FATAL — incremental fingerprint {:016x} != \
                 full-RTA fingerprint {:016x} at {n} tenants",
                inc.fingerprint, full.fingerprint
            );
            return ExitCode::FAILURE;
        }
    }

    let json = render_json(mode, &adm, &churn, &[], &scale);
    std::fs::write(&out_path, &json).expect("write benchmark output");
    println!("churnbench: wrote {out_path}");

    if let Some(baseline_path) = baseline {
        let mut rows: Vec<(String, f64)> = Vec::new();
        for m in &adm {
            rows.push((m.point.name.to_string(), m.admissions_per_sec_best));
        }
        for m in &churn {
            rows.push((m.point.name.to_string(), m.events_per_sec_best));
        }
        for m in &scale {
            rows.push((m.point.name.clone(), m.submissions_per_sec_best));
        }
        if let Err(report) = check(&rows, &scale, &baseline_path) {
            eprintln!("churnbench: REGRESSION\n{report}");
            return ExitCode::FAILURE;
        }
        println!("churnbench: within tolerance of {baseline_path}");
    }
    ExitCode::SUCCESS
}
