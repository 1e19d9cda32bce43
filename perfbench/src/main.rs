//! The repository benchmark: one command, four seeded single-threaded
//! closed-loop workloads, end-to-end metrics from untraced runs and
//! per-layer metrics from a separate traced run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper-sweep|mc-grid|desk-churn|tick-to-order> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. See `perfbench/README.md`
//! for every metric, its unit and direction, and the public functions each
//! workload calls.

mod desk_churn;
mod mc_grid;
mod paper_sweep;
mod probes;
mod spans;
mod stats;
mod tick_to_order;
mod timings;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use spans::{Breakdown, Spans};
use stats::{median, share, Digest};
use timings::{Step, Timings};

/// Set-up runs per invocation; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Fewest timed rounds per pass, however long a round takes.
const MIN_ROUNDS: usize = 3;
/// Spans the traced pass holds before folding them into its totals.
const SPAN_CAPACITY: usize = 1 << 20;

/// Whether a larger value of a metric is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    fn arrow(self) -> &'static str {
        match self {
            Better::Higher => "↑ better",
            Better::Lower => "↓ better",
        }
    }
}

/// The end-to-end metrics every workload reports (the gated set in
/// `BENCHMARK.json`).
const END_TO_END: [(&str, &str, Better); 5] = [
    ("setup_s", "s", Better::Lower),
    ("peak_rss_mib", "MiB", Better::Lower),
    ("jobs_per_s", "1/s", Better::Higher),
    ("request_p50_us", "us", Better::Lower),
    ("request_p99_us", "us", Better::Lower),
];

/// The per-layer metrics of the traced run. Every workload reports every
/// one; a layer the workload never calls reads 0.
const PER_LAYER: [(&str, &str); 47] = [
    ("config.build_us", "us"),
    ("exec_sim.ns_per_event", "ns"),
    ("exec_sim.events_per_job", "count"),
    ("exec_sim.residual_ns_per_event", "ns"),
    ("eventq.op_ns", "ns"),
    ("readyq.op_ns", "ns"),
    ("readyq.ops_per_job", "count"),
    ("overhead.model_ns", "ns"),
    ("overhead.samples_per_job", "count"),
    ("obs.recorder_overhead_pct", "%"),
    ("admission.try_admit_p50_us", "us"),
    ("admission.try_admit_p99_us", "us"),
    ("admission.try_admit_rejected_us", "us"),
    ("admission.evict_us", "us"),
    ("admission.rta_recomputes_per_submit", "count"),
    ("admission.rta_hit_ratio", "ratio"),
    ("admission.rta_lookups", "count"),
    ("serve.submit_self_us", "us"),
    ("serve.depart_self_us", "us"),
    ("serve.od_updates_per_submit", "count"),
    ("serve.ns_per_event", "ns"),
    ("serve.events_per_job", "count"),
    ("imprecise.ingest_ns", "ns"),
    ("strategy.bollinger_ns", "ns"),
    ("strategy.macd_ns", "ns"),
    ("strategy.rsi_ns", "ns"),
    ("strategy.fundamental_ns", "ns"),
    ("imprecise.decide_ns", "ns"),
    ("imprecise.decide_p99_ns", "ns"),
    ("execution.fill_share", "ratio"),
    ("self_ms.config", "ms"),
    ("self_ms.exec_sim", "ms"),
    ("self_ms.admission", "ms"),
    ("self_ms.serve", "ms"),
    ("self_ms.imprecise", "ms"),
    ("self_ms.strategy", "ms"),
    ("trace.residual_ms", "ms"),
    ("trace.total_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.dropped", "count"),
    ("deadline_miss_share", "ratio"),
    ("jobs", "count"),
    ("admitted_miss_share", "ratio"),
    ("admitted", "count"),
    ("reject_share", "ratio"),
    ("admission_attempts", "count"),
    ("qos_ppm", "ppm"),
];

/// Deterministic outcome of one round, identical in every round of an
/// invocation (it is folded into the round digest).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Accounting {
    /// Jobs completed: simulated jobs, or trading cycles on tick-to-order.
    pub jobs: u64,
    /// Simulated jobs that missed their deadline.
    pub misses: u64,
    /// Admission attempts (task sets or tenant submissions).
    pub attempted: u64,
    /// Attempts admitted.
    pub admitted: u64,
    /// Admitted sets or tenants with at least one deadline miss.
    pub admitted_missing: u64,
    /// Optional execution achieved, ns.
    pub qos_achieved_ns: u64,
    /// Optional execution requested, ns.
    pub qos_requested_ns: u64,
    /// Simulator events processed.
    pub events: u64,
}

impl std::ops::AddAssign for Accounting {
    fn add_assign(&mut self, o: Accounting) {
        self.jobs += o.jobs;
        self.misses += o.misses;
        self.attempted += o.attempted;
        self.admitted += o.admitted;
        self.admitted_missing += o.admitted_missing;
        self.qos_achieved_ns += o.qos_achieved_ns;
        self.qos_requested_ns += o.qos_requested_ns;
        self.events += o.events;
    }
}

/// A workload-specific end-to-end metric, printed with its base.
#[derive(Debug, Clone)]
pub struct Line {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub better: Better,
    pub base: String,
}

/// What a workload's per-layer probes may read.
#[derive(Debug)]
pub struct LayerCtx<'a> {
    pub seed: u64,
    /// The traced pass's spans.
    pub spans: &'a Spans,
}

/// The per-layer metrics being filled in.
#[derive(Debug)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    fn new() -> Layers {
        Layers(PER_LAYER.iter().map(|&(n, _)| (n, 0.0)).collect())
    }

    /// Sets metric `name`, which must be one of [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        let slot = self
            .0
            .get_mut(name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
        *slot = value;
    }
}

/// A benchmark workload: generated inputs plus the closed loop over them.
pub trait Workload {
    /// Runs one round over the generated inputs, recording spans into `sp`
    /// and step times into `t`; returns the digest of every output.
    fn round(&mut self, sp: &mut Spans, t: &mut Timings) -> Digest;
    /// Accounting of the last round.
    fn accounting(&self) -> Accounting;
    /// Whether jobs are simulated (misses and QoS apply).
    fn simulated(&self) -> bool {
        true
    }
    /// Whether admission outcomes apply (reject and admitted-miss shares).
    fn admits(&self) -> bool {
        false
    }
    /// The workload's own end-to-end metrics, from the untraced pass.
    fn lines(&self, t: &Timings, jobs_per_s: f64) -> Vec<Line>;
    /// Independent correctness checks on the outputs.
    fn check(&mut self) -> Result<(), String>;
    /// Per-layer probes of the traced run.
    fn layers(&mut self, ctx: &LayerCtx, out: &mut Layers) -> Result<(), String>;
}

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn make(workload: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    Ok(match workload {
        "paper-sweep" => Box::new(paper_sweep::PaperSweep::setup(seed)),
        "mc-grid" => Box::new(mc_grid::McGrid::setup(seed)),
        "desk-churn" => Box::new(desk_churn::DeskChurn::setup(seed)?),
        "tick-to-order" => Box::new(tick_to_order::TickToOrder::setup(seed)),
        other => return Err(format!("unknown workload {other:?}")),
    })
}

/// Peak resident set size of this process, MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// Runs one round and checks its digest against `reference`.
fn checked_round(
    w: &mut dyn Workload,
    sp: &mut Spans,
    t: &mut Timings,
    reference: Digest,
) -> Result<(), String> {
    t.begin_round();
    let digest = w.round(sp, t);
    t.end_round()?;
    if digest != reference {
        return Err(format!(
            "round {} {} digest {:016x} differs from the reference {:016x}",
            t.rounds(),
            if sp.enabled() {
                "(traced)"
            } else {
                "(untraced)"
            },
            digest.value(),
            reference.value()
        ));
    }
    Ok(())
}

/// Runs untraced rounds until `budget` has passed (at least
/// [`MIN_ROUNDS`]).
fn untraced_pass(
    w: &mut dyn Workload,
    budget: Duration,
    reference: Digest,
) -> Result<Timings, String> {
    let mut t = Timings::default();
    let mut off = Spans::off();
    let start = Instant::now();
    while t.rounds() < MIN_ROUNDS || start.elapsed() < budget {
        checked_round(w, &mut off, &mut t, reference)?;
    }
    Ok(t)
}

/// Alternates untraced and traced rounds until `budget` has passed (at
/// least [`MIN_ROUNDS`] pairs), so host drift touches both sides alike.
/// Tracing must not change an output: every digest must equal `reference`.
fn interleaved_pass(
    w: &mut dyn Workload,
    budget: Duration,
    reference: Digest,
) -> Result<(Timings, Timings, Spans), String> {
    let (mut untraced, mut traced) = (Timings::default(), Timings::default());
    let mut off = Spans::off();
    let mut sp = Spans::on(SPAN_CAPACITY);
    let start = Instant::now();
    let mut per_round = 0;
    while traced.rounds() < MIN_ROUNDS || start.elapsed() < budget {
        checked_round(w, &mut off, &mut untraced, reference)?;
        sp.make_room(per_round);
        let before = sp.len();
        sp.measure(|sp| checked_round(w, sp, &mut traced, reference))?;
        per_round = sp.len() - before;
    }
    Ok((untraced, traced, sp))
}

fn fmt_value(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn run(args: &Args) -> Result<String, String> {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "perfbench workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );

    // Set-up: input generation plus the first (warm-up) round, whose digest
    // is the reference every later round must reproduce.
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut workload = None;
    let mut reference = None;
    for _ in 0..SETUP_REPEATS {
        // The previous set-up's state goes first, outside the timing, so
        // two never coexist.
        drop(workload.take());
        let start = Instant::now();
        let mut w = make(&args.workload, args.seed)?;
        let digest = w.round(&mut Spans::off(), &mut Timings::default());
        setups.push(start.elapsed().as_secs_f64());
        if reference.is_some_and(|r| r != digest) {
            return Err("set-up is not deterministic: warm-up digests differ".into());
        }
        reference = Some(digest);
        workload = Some(w);
    }
    let (mut w, reference) = workload.zip(reference).expect("at least one set-up");
    let setup_s = median(&setups);

    let budget = Duration::from_secs_f64(args.seconds);
    let (t, traced) = if args.trace {
        let (untraced, traced, sp) = interleaved_pass(w.as_mut(), budget, reference)?;
        (untraced, Some((traced, sp)))
    } else {
        (untraced_pass(w.as_mut(), budget, reference)?, None)
    };
    let acc = w.accounting();
    let jobs_per_s = acc.jobs as f64 / (t.total_ns() as f64 / 1e9);
    let requests = t.count(Step::Request);
    let p50_us = t.percentile(Step::Request, 50.0) as f64 / 1e3;
    let p99_us = t.percentile(Step::Request, 99.0) as f64 / 1e3;
    let mut lines = w.lines(&t, jobs_per_s);

    w.check()?;

    let rss = peak_rss_mib()?;
    let e2e = [setup_s, rss, jobs_per_s, p50_us, p99_us];
    let _ = writeln!(
        out,
        "rounds={} timed steps={} distinct requests={} digest={:016x}",
        t.rounds(),
        t.timed(),
        requests,
        reference.value()
    );

    // The issue-level end-to-end table: the gated metrics, then this
    // workload's own, each with unit, direction and base. Every time is
    // best-of: each step keeps its fastest repetition across the rounds.
    let mut table = Vec::new();
    for (&(name, unit, better), &value) in END_TO_END.iter().zip(&e2e) {
        let base = match name {
            "setup_s" => format!("median of {SETUP_REPEATS} set-ups"),
            "jobs_per_s" => format!(
                "{} jobs per round over the summed best step times of {} rounds",
                acc.jobs,
                t.rounds()
            ),
            "request_p50_us" | "request_p99_us" => {
                format!(
                    "{requests} distinct requests, best of {} rounds each",
                    t.rounds()
                )
            }
            _ => String::new(),
        };
        table.push(Line {
            name,
            value,
            unit,
            better,
            base,
        });
    }
    if w.simulated() {
        table.push(Line {
            name: "sim_jobs_per_s",
            value: jobs_per_s,
            unit: "1/s",
            better: Better::Higher,
            base: "simulated jobs per host second".into(),
        });
        table.push(Line {
            name: "deadline_miss_share",
            value: share(acc.misses, acc.jobs),
            unit: "ratio",
            better: Better::Lower,
            base: format!("{} missed of {} jobs", acc.misses, acc.jobs),
        });
        table.push(Line {
            name: "qos_ppm",
            value: share(acc.qos_achieved_ns, acc.qos_requested_ns) * 1e6,
            unit: "ppm",
            better: Better::Higher,
            base: format!(
                "{} ns achieved of {} ns requested",
                acc.qos_achieved_ns, acc.qos_requested_ns
            ),
        });
    }
    if w.admits() {
        table.push(Line {
            name: "admitted_miss_share",
            value: share(acc.admitted_missing, acc.admitted),
            unit: "ratio",
            better: Better::Lower,
            base: format!(
                "{} with a miss of {} admitted",
                acc.admitted_missing, acc.admitted
            ),
        });
        table.push(Line {
            name: "reject_share",
            value: share(acc.attempted - acc.admitted, acc.attempted),
            unit: "ratio",
            better: Better::Lower,
            base: format!(
                "{} rejected of {} attempted",
                acc.attempted - acc.admitted,
                acc.attempted
            ),
        });
    }
    table.append(&mut lines);
    let _ = writeln!(out, "end-to-end (untraced):");
    for l in &table {
        let _ = writeln!(
            out,
            "  {:<22} {:>16.4} {:<6} {:<9} {}",
            l.name,
            l.value,
            l.unit,
            l.better.arrow(),
            l.base
        );
    }

    let mut metrics = String::new();
    let mut push_metric = |name: &str, value: f64, unit: &str| {
        if !metrics.is_empty() {
            metrics.push_str(", ");
        }
        let _ = write!(
            metrics,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            fmt_value(value)
        );
    };
    if let Some((tt, sp)) = traced {
        let mut layers = Layers::new();
        layers.set(
            "trace.overhead_pct",
            (tt.total_ns() as f64 / t.total_ns() as f64 - 1.0) * 100.0,
        );
        layers.set("trace.dropped", sp.dropped() as f64);
        let b: Breakdown = sp.breakdown();
        for (layer, &ns) in &b.self_ns {
            let name = match *layer {
                "config" => "self_ms.config",
                "exec_sim" => "self_ms.exec_sim",
                "admission" => "self_ms.admission",
                "serve" => "self_ms.serve",
                "imprecise" => "self_ms.imprecise",
                "strategy" => "self_ms.strategy",
                other => return Err(format!("span layer {other:?} has no self-time metric")),
            };
            layers.set(name, ns as f64 / 1e6);
        }
        layers.set("trace.residual_ms", b.residual_ns as f64 / 1e6);
        layers.set("trace.total_ms", b.total_ns as f64 / 1e6);
        layers.set("jobs", acc.jobs as f64);
        layers.set("admitted", acc.admitted as f64);
        layers.set("admission_attempts", acc.attempted as f64);
        if w.simulated() {
            layers.set("deadline_miss_share", share(acc.misses, acc.jobs));
            layers.set(
                "qos_ppm",
                share(acc.qos_achieved_ns, acc.qos_requested_ns) * 1e6,
            );
        }
        if w.admits() {
            layers.set(
                "admitted_miss_share",
                share(acc.admitted_missing, acc.admitted),
            );
            layers.set(
                "reject_share",
                share(acc.attempted - acc.admitted, acc.attempted),
            );
        }
        let ctx = LayerCtx {
            seed: args.seed,
            spans: &sp,
        };
        w.layers(&ctx, &mut layers)?;

        let _ = writeln!(
            out,
            "traced run: {} rounds, {} spans ({} dropped{}), tracing overhead {:.2}% (best-of round cost)",
            tt.rounds(),
            sp.len(),
            sp.dropped(),
            if sp.dropped() > 0 { ": counts are lower bounds" } else { "" },
            layers.0["trace.overhead_pct"]
        );
        let _ = writeln!(
            out,
            "self time by layer (ms), plus residual = traced total:"
        );
        for (layer, &ns) in &b.self_ns {
            let _ = writeln!(out, "  {:<12} {:>12.3}", layer, ns as f64 / 1e6);
        }
        let _ = writeln!(
            out,
            "  {:<12} {:>12.3}",
            "residual",
            b.residual_ns as f64 / 1e6
        );
        let _ = writeln!(out, "  {:<12} {:>12.3}", "total", b.total_ns as f64 / 1e6);
        let _ = writeln!(out, "calls by span (total ms, calls):");
        for (name, &(ns, calls)) in &b.per_name {
            let _ = writeln!(
                out,
                "  {:<26} {:>12.3} {:>10}",
                name,
                ns as f64 / 1e6,
                calls
            );
        }
        let _ = writeln!(out, "per-layer:");
        for &(name, unit) in &PER_LAYER {
            let v = layers.0[name];
            let _ = writeln!(out, "  {name:<38} {v:>16.4} {unit}");
            push_metric(name, v, unit);
        }
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
        let path = format!("{dir}/spans-{}-seed{}.csv", args.workload, args.seed);
        std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, sp.to_csv()))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        let _ = writeln!(out, "spans written to {path}");
    } else {
        for (&(name, unit, _), &value) in END_TO_END.iter().zip(&e2e) {
            push_metric(name, value, unit);
        }
    }
    let attempted = t.timed().max(1);
    let _ = writeln!(
        out,
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": 0, \"metrics\": {{{metrics}}}}}"
    );
    Ok(out)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(out) => {
            print!("{out}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: check failed: {e}");
            println!("{{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {{}}}}");
            ExitCode::FAILURE
        }
    }
}
