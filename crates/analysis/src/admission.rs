//! Incremental online admission control for P-RMWP serving.
//!
//! [`crate::partition`] answers the *offline* question — "does this whole
//! task set fit on this machine?" — in one shot. A serving middleware
//! (YASMIN-style, see PAPERS.md) instead faces a *stream* of tenant
//! submissions and departures and must answer each one against the tasks
//! already running. [`AdmissionEngine`] keeps the per-hardware-thread
//! bins alive between decisions **and memoises the RMWP response-time
//! fixpoints per CPU** in an [`RtaCache`], so each decision re-runs RTA
//! only for the CPUs it actually touches:
//!
//! * [`AdmissionEngine::try_admit`] places a batch of tasks with the
//!   same decreasing-utilization bin-packing heuristics and the same exact
//!   RMWP response-time test as the offline partitioner — all-or-nothing,
//!   so a partially admissible tenant leaves no residue (including no
//!   cache residue);
//! * [`AdmissionEngine::evict`] removes tasks, drops exactly the victim
//!   CPUs' fixpoints, and reports how the optional deadlines of the
//!   survivors *grow* (less interference);
//! * [`AdmissionEngine::od_update`] re-analyzes a single resident's
//!   host CPU(s) after a spec change, falling back to
//!   [`AdmissionDecision::NeedsFullRecompute`] when the change does not
//!   fit in place;
//! * admitting returns [`OdUpdate`]s for pre-existing tasks whose optional
//!   deadlines *shrink* because a new neighbour landed on their thread.
//!
//! Untouched CPUs are served from cache, and each placement probe of a
//! CPU is incremental: it keeps the cached fixpoints of the residents
//! above the candidate in priority order, rejects the CPU from a one-step
//! lower bound on the residents below before solving anything, and
//! warm-starts the solves it cannot avoid. Probes still add up with the
//! width of the box: an admitted task probes each CPU the heuristic tries
//! before the one that takes it, but a rejected task probes every shared
//! CPU (and the fallback policies probe them again), each probe costing
//! in proportion to that CPU's population.
//!
//! The engine honours the whole [`PlacementPolicy`] family: under
//! [`PlacementPolicy::SemiPartitioned`] a task that fits nowhere whole is
//! split across two CPUs (the same split-aware `2T`-arrival RTA term as
//! the offline partitioner), and under
//! [`PlacementPolicy::SemiFederated`] a parallel-heavy task receives a
//! dedicated-core grant for its wind-up band plus a packed mandatory
//! residual. Either way every bin's analysis remains a pure function of
//! its membership, which is what keeps cached decisions byte-identical to
//! full recomputation under every policy.
//!
//! Within a bin, priorities are plain Rate Monotonic over whole tasks
//! (shorter period ⇒ higher priority, ties broken by admission order) —
//! except a granted core's wind-up band, which preempts everything. The
//! serving layer deploys this order through RTQ levels, but there periods
//! in one log₂ bucket share a level and tie-break FIFO, which this
//! analysis does not model: co-located same-bucket tasks can be admitted
//! and still miss (ROADMAP open item 1).
//!
//! # Examples
//!
//! ```
//! use rtseed_analysis::{AdmissionDecision, AdmissionEngine, PartitionHeuristic, RejectReason};
//! use rtseed_model::{Span, TaskSpec};
//!
//! let task = TaskSpec::builder("t")
//!     .period(Span::from_millis(100))
//!     .mandatory(Span::from_millis(30))
//!     .windup(Span::from_millis(30))
//!     .build()?;
//! // Two hardware threads: two 0.6-utilization tasks fit, a third cannot.
//! let mut eng = AdmissionEngine::new(2, PartitionHeuristic::WorstFitDecreasing);
//! let a = eng.try_admit(std::slice::from_ref(&task)).admitted().unwrap();
//! let b = eng.try_admit(std::slice::from_ref(&task)).admitted().unwrap();
//! match eng.try_admit(std::slice::from_ref(&task)) {
//!     AdmissionDecision::Rejected(RejectReason::Unschedulable { index }) => {
//!         assert_eq!(index, 0);
//!     }
//!     other => panic!("expected a typed rejection, got {other:?}"),
//! }
//! // Evicting the first frees its thread for a newcomer.
//! eng.evict(&[a.tasks[0].key]);
//! assert!(eng.try_admit(std::slice::from_ref(&task)).is_admitted());
//! # drop(b);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use core::cmp::Ordering;
use core::fmt;
use std::collections::BinaryHeap;

use rtseed_model::{HwThreadId, Span, TaskSpec};
use serde::{Deserialize, Serialize};

use crate::partition::{bin_task_for, PartitionHeuristic, PlacementPolicy, Residency};
use crate::rmwp::{analyze_ordered, BinFix, BinTask};
use crate::rta::Interferer;

/// Opaque handle to one task admitted by an [`AdmissionEngine`].
///
/// Keys are assigned monotonically and never reused, so a stale key from
/// an evicted task can never alias a live one.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct TaskKey(pub u64);

impl fmt::Display for TaskKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "k{}", self.0)
    }
}

/// How an admitted task was placed, beyond its primary hardware thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlacementKind {
    /// The whole task runs on its primary hardware thread.
    #[default]
    Whole,
    /// Semi-partitioned split: jobs alternate between the primary thread
    /// (even-numbered jobs) and `secondary` (odd-numbered jobs), migrating
    /// only at job boundaries.
    Split {
        /// The second host CPU (odd-numbered jobs).
        secondary: HwThreadId,
    },
    /// Semi-federated grant: the mandatory residual runs on the primary
    /// thread while the parallel phase (optional parts + wind-up) owns the
    /// top-priority band of `granted`.
    Federated {
        /// The dedicated core granted to the parallel phase.
        granted: HwThreadId,
    },
}

/// One admitted task: where it was bound and the optional deadline the
/// per-thread RMWP analysis granted it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdmittedTask {
    /// Handle for later eviction.
    pub key: TaskKey,
    /// Hardware thread the mandatory part is pinned to.
    pub hw_thread: HwThreadId,
    /// Whole, split across a second CPU, or federated onto a granted core.
    pub kind: PlacementKind,
    /// Relative optional deadline under the thread's current population.
    pub optional_deadline: Span,
}

/// A changed optional deadline for a task that was *already* admitted:
/// admission shrinks neighbours' ODs, eviction grows them. The serving
/// layer forwards these to the running engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OdUpdate {
    /// The affected pre-existing task.
    pub key: TaskKey,
    /// Its new relative optional deadline.
    pub optional_deadline: Span,
}

/// Result of a successful [`AdmissionEngine::try_admit`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Admission {
    /// Placements for the submitted tasks, in submission order.
    pub tasks: Vec<AdmittedTask>,
    /// New optional deadlines for pre-existing tasks on the touched
    /// threads (only entries whose OD actually changed).
    pub od_updates: Vec<OdUpdate>,
}

/// Why an [`AdmissionEngine`] turned an operation away.
///
/// This is the analysis-level rejection vocabulary; the serving layer's
/// `rtseed::serve::RejectReason` extends it with guard-ladder reasons.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum RejectReason {
    /// The `index`-th submitted task could not be admitted on any
    /// hardware thread without breaking RMWP schedulability.
    Unschedulable {
        /// Index into the submitted slice.
        index: usize,
    },
    /// The submission was empty.
    EmptySubmission,
    /// The referenced [`TaskKey`] is not resident (never admitted, or
    /// already evicted).
    UnknownKey,
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RejectReason::Unschedulable { index } => write!(
                f,
                "submitted task #{index} is not RMWP-schedulable on any hardware thread"
            ),
            RejectReason::EmptySubmission => write!(f, "submission contains no tasks"),
            RejectReason::UnknownKey => write!(f, "task key is not resident"),
        }
    }
}

/// Typed outcome of an [`AdmissionEngine`] operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmissionDecision {
    /// The operation succeeded: placements plus neighbour OD deltas.
    Admitted(Admission),
    /// The operation was refused; the engine state (bins, utilization,
    /// cache) is exactly as before.
    Rejected(RejectReason),
    /// An in-place [`AdmissionEngine::od_update`] no longer fits on the
    /// task's current CPU(s). The engine state is unchanged; the caller
    /// must decide globally — typically evict `key` and re-admit the new
    /// spec through `try_admit` so the packing heuristic can move it.
    NeedsFullRecompute {
        /// The resident task whose update did not fit in place.
        key: TaskKey,
    },
}

impl AdmissionDecision {
    /// `true` for [`AdmissionDecision::Admitted`].
    #[inline]
    pub fn is_admitted(&self) -> bool {
        matches!(self, AdmissionDecision::Admitted(_))
    }

    /// Unwraps the [`Admission`], or `None` for the other arms.
    pub fn admitted(self) -> Option<Admission> {
        match self {
            AdmissionDecision::Admitted(a) => Some(a),
            _ => None,
        }
    }
}

/// The memoised RMWP fixpoints of one CPU, in bin (admission) order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CpuFixpoints {
    /// Relative optional deadline ODᵢ = Dᵢ − R^w_i per resident.
    pub optional_deadlines: Vec<Span>,
    /// Mandatory-part response time R^m_i per resident.
    pub mandatory_responses: Vec<Span>,
    /// Wind-up-part response time R^w_i per resident.
    pub windup_responses: Vec<Span>,
}

impl CpuFixpoints {
    /// The fixpoints of the resident at bin position `i`.
    fn get(&self, i: usize) -> BinFix {
        BinFix {
            mandatory_response: self.mandatory_responses[i],
            windup_response: self.windup_responses[i],
            optional_deadline: self.optional_deadlines[i],
        }
    }

    /// Overwrites the fixpoints of the resident at bin position `i`.
    fn set(&mut self, i: usize, fix: &BinFix) {
        self.mandatory_responses[i] = fix.mandatory_response;
        self.windup_responses[i] = fix.windup_response;
        self.optional_deadlines[i] = fix.optional_deadline;
    }
}

#[derive(Debug, Clone, Default)]
struct CpuSlot {
    fix: Option<CpuFixpoints>,
    recomputes: u64,
    hits: u64,
}

/// Per-CPU memo of RMWP response-time fixpoints.
///
/// The cache is keyed by CPU index; an entry is the full fixpoint vector
/// (ODs plus mandatory/wind-up response times) of that CPU's resident
/// bin, in admission order. The owning [`AdmissionEngine`] maintains the
/// invariant that after every public operation each CPU's entry is
/// **valid** — it equals what a fresh analysis of the bin would
/// produce — because every mutation that touches a bin stores the
/// fixpoints it had to compute for the schedulability test anyway. This
/// holds under every [`PlacementPolicy`] because a bin's analysis is a
/// pure function of its membership (split subtasks carry their `2T`
/// arrival with them; a granted wind-up band's OD is `T − w` from the
/// spec alone). Counters expose the cache economics: `recomputes` counts
/// RTA probes against a CPU — one per placement probe, whether it passes,
/// fails a solve or is rejected by the lower bound before any solve, and
/// one per from-scratch re-analysis — and `hits` counts reads served from
/// the memo.
#[derive(Debug, Clone, Default)]
pub struct RtaCache {
    cpus: Vec<CpuSlot>,
}

impl RtaCache {
    fn new(cpus: usize, primed: bool) -> RtaCache {
        RtaCache {
            cpus: (0..cpus)
                .map(|_| CpuSlot {
                    fix: primed.then(CpuFixpoints::default),
                    recomputes: 0,
                    hits: 0,
                })
                .collect(),
        }
    }

    /// Number of CPUs tracked.
    #[inline]
    pub fn cpu_count(&self) -> usize {
        self.cpus.len()
    }

    /// `true` if `cpu`'s fixpoints are memoised (always, between public
    /// engine operations, unless caching is disabled or the entry was
    /// explicitly invalidated).
    #[inline]
    pub fn is_cached(&self, cpu: usize) -> bool {
        self.cpus[cpu].fix.is_some()
    }

    /// The memoised fixpoints of `cpu`, without recomputing.
    pub fn fixpoints(&self, cpu: usize) -> Option<&CpuFixpoints> {
        self.cpus[cpu].fix.as_ref()
    }

    /// The memoised optional deadlines of `cpu`, in bin order.
    pub fn optional_deadlines(&self, cpu: usize) -> Option<&[Span]> {
        self.cpus[cpu]
            .fix
            .as_ref()
            .map(|f| f.optional_deadlines.as_slice())
    }

    /// RTA probes performed against `cpu`: placement probes (passing or
    /// not) plus from-scratch re-analyses.
    #[inline]
    pub fn recomputes(&self, cpu: usize) -> u64 {
        self.cpus[cpu].recomputes
    }

    /// Reads of `cpu`'s fixpoints served from the memo.
    #[inline]
    pub fn hits(&self, cpu: usize) -> u64 {
        self.cpus[cpu].hits
    }

    /// Total RTA probes across all CPUs.
    pub fn total_recomputes(&self) -> u64 {
        self.cpus.iter().map(|c| c.recomputes).sum()
    }

    /// Total memo-served reads across all CPUs.
    pub fn total_hits(&self) -> u64 {
        self.cpus.iter().map(|c| c.hits).sum()
    }

    fn note_recompute(&mut self, cpu: usize) {
        self.cpus[cpu].recomputes += 1;
    }

    fn note_hit(&mut self, cpu: usize) {
        self.cpus[cpu].hits += 1;
    }

    fn store(&mut self, cpu: usize, fix: CpuFixpoints) {
        self.cpus[cpu].fix = Some(fix);
    }

    fn restore(&mut self, cpu: usize, fix: Option<CpuFixpoints>) {
        self.cpus[cpu].fix = fix;
    }

    fn invalidate(&mut self, cpu: usize) {
        self.cpus[cpu].fix = None;
    }
}

/// One bin resident: its stable key, spec and residency kind, in
/// admission order. A split task owns one entry in each of its two host
/// bins; a federated task owns a [`Residency::FedWindup`] entry in its
/// grant bin and a [`Residency::FedResidual`] entry in its primary bin.
/// Exactly one entry per task is `primary` (the one on the hardware
/// thread reported as `AdmittedTask::hw_thread`).
#[derive(Debug, Clone)]
struct Entry {
    key: TaskKey,
    spec: TaskSpec,
    kind: Residency,
    primary: bool,
}

/// The share of bin utilization one entry accounts for.
fn util_for(spec: &TaskSpec, kind: Residency) -> f64 {
    match kind {
        Residency::Whole => spec.utilization(),
        // Each host CPU sees every other job.
        Residency::Split => spec.utilization() / 2.0,
        Residency::FedWindup => spec.windup() / spec.period(),
        Residency::FedResidual => spec.mandatory() / spec.period(),
    }
}

fn entry_util(e: &Entry) -> f64 {
    util_for(&e.spec, e.kind)
}

/// Committed placement of one batch task (internal mirror of
/// [`AdmittedTask`] before ODs are known).
#[derive(Debug, Clone, Copy)]
struct Placed {
    hw: HwThreadId,
    kind: PlacementKind,
}

/// Rollback record for one bin touched by a tentative placement.
struct TouchedBin {
    bin: usize,
    saved_len: usize,
    saved_util: f64,
    saved_grant: Option<TaskKey>,
    /// Pre-placement ODs of the bin (caching mode only; used for deltas).
    old_ods: Vec<Span>,
    /// Pre-placement cache entry, restored verbatim on rollback.
    saved_fix: Option<CpuFixpoints>,
}

/// Incremental online admission engine: the per-hardware-thread bins of
/// the offline [`crate::Partition`], kept alive between decisions, with
/// per-CPU RMWP fixpoints memoised in an [`RtaCache`].
///
/// Operations return a typed [`AdmissionDecision`]; rejected operations
/// leave the engine (bins, utilizations *and* cache) exactly as before.
/// [`AdmissionEngine::without_cache`] turns the memo off, re-running the
/// full RTA sweep over every resident bin on every operation — the
/// full-recompute baseline that `churnbench --tenants` races the
/// incremental path against; both modes produce byte-identical decisions
/// under every [`PlacementPolicy`].
#[derive(Debug, Clone)]
pub struct AdmissionEngine {
    bins: Vec<Vec<Entry>>,
    bin_util: Vec<f64>,
    /// The key holding each bin's federated grant, if any. A granted bin
    /// leaves the shared pool until its holder departs.
    grant_of: Vec<Option<TaskKey>>,
    heuristic: PartitionHeuristic,
    policy: PlacementPolicy,
    cache: RtaCache,
    caching: bool,
    cpu_base: u32,
    next_key: u64,
}

impl AdmissionEngine {
    /// Creates an empty engine for a machine with `hw_threads` hardware
    /// threads, placing with `heuristic` under the default
    /// [`PlacementPolicy::Partitioned`], with the incremental cache on.
    ///
    /// # Panics
    ///
    /// Panics if `hw_threads` is zero.
    pub fn new(hw_threads: usize, heuristic: PartitionHeuristic) -> AdmissionEngine {
        assert!(hw_threads > 0, "need at least one hardware thread");
        AdmissionEngine {
            bins: vec![Vec::new(); hw_threads],
            bin_util: vec![0.0; hw_threads],
            grant_of: vec![None; hw_threads],
            heuristic,
            policy: PlacementPolicy::default(),
            cache: RtaCache::new(hw_threads, true),
            caching: true,
            cpu_base: 0,
            next_key: 0,
        }
    }

    /// Disables the per-CPU memo: every operation recomputes the RMWP
    /// fixpoints of every resident bin, and every placement probe analyzes
    /// its bin from scratch, like the pre-cache controller. Decisions are
    /// identical to the caching mode; only cost differs. This mode is the
    /// oracle the differential tests hold the incremental probes to.
    pub fn without_cache(mut self) -> AdmissionEngine {
        assert_eq!(self.resident_tasks(), 0, "disable caching before admitting");
        self.caching = false;
        self.cache = RtaCache::new(self.bins.len(), false);
        self
    }

    /// Selects the placement policy the engine falls back on when a task
    /// fits nowhere whole. Must be called before any task is admitted.
    pub fn with_placement(mut self, policy: PlacementPolicy) -> AdmissionEngine {
        assert_eq!(self.resident_tasks(), 0, "set the policy before admitting");
        self.policy = policy;
        self
    }

    /// Offsets the [`HwThreadId`]s this engine reports by `base` — used
    /// by [`crate::ShardedAdmission`] so each shard names global CPUs.
    pub fn with_cpu_base(mut self, base: u32) -> AdmissionEngine {
        self.cpu_base = base;
        self
    }

    /// Number of hardware threads the engine packs onto.
    #[inline]
    pub fn hw_threads(&self) -> usize {
        self.bins.len()
    }

    /// First global hardware-thread id of this engine's CPU range.
    #[inline]
    pub fn cpu_base(&self) -> u32 {
        self.cpu_base
    }

    /// `true` if the per-CPU fixpoint memo is enabled.
    #[inline]
    pub fn is_caching(&self) -> bool {
        self.caching
    }

    /// The placement policy governing fallback placement.
    #[inline]
    pub fn placement_policy(&self) -> PlacementPolicy {
        self.policy
    }

    /// Number of currently resident tasks (a split or federated task
    /// counts once, though it occupies two bins).
    pub fn resident_tasks(&self) -> usize {
        self.bins.iter().flatten().filter(|e| e.primary).count()
    }

    /// Total utilization of resident tasks (sum over threads).
    pub fn total_utilization(&self) -> f64 {
        self.bin_util.iter().sum()
    }

    /// Utilization currently packed onto `thread` (a global id; this
    /// engine serves `cpu_base .. cpu_base + hw_threads`).
    ///
    /// # Panics
    ///
    /// Panics if `thread` is outside the engine's CPU range.
    #[inline]
    pub fn thread_utilization(&self, thread: HwThreadId) -> f64 {
        self.bin_util[thread.index() - self.cpu_base as usize]
    }

    /// The per-CPU fixpoint memo (counters and cached values).
    #[inline]
    pub fn cache(&self) -> &RtaCache {
        &self.cache
    }

    /// `true` if `key` is currently resident.
    pub fn contains(&self, key: TaskKey) -> bool {
        self.bins.iter().flatten().any(|e| e.key == key)
    }

    /// The residents of local CPU `cpu` as `(key, spec)` pairs, in
    /// admission order — the membership the cached fixpoints describe. A
    /// split or federated resident appears on both of its host CPUs.
    pub fn residents_on(
        &self,
        cpu: usize,
    ) -> impl Iterator<Item = (TaskKey, &TaskSpec)> + '_ {
        self.bins[cpu].iter().map(|e| (e.key, &e.spec))
    }

    /// Drops the memoised fixpoints of local CPU `cpu`; the next read
    /// recomputes them. A testing/tooling hook — normal operation never
    /// needs it because mutations refresh the entries they touch.
    pub fn invalidate(&mut self, cpu: usize) {
        self.cache.invalidate(cpu);
    }

    /// Tries to admit `tasks` as one atomic batch.
    ///
    /// Tasks are placed in decreasing-utilization order (ties by
    /// submission index); each placement runs the exact RMWP
    /// response-time test on the candidate thread's population plus the
    /// newcomer, incrementally from that thread's memoised fixpoints.
    /// Only the touched CPUs store new fixpoints — untouched CPUs keep
    /// serving their memoised ones. A task that fits nowhere
    /// whole falls back to the engine's [`PlacementPolicy`] (splitting or
    /// a federated grant); if it *still* fails the whole batch is
    /// rejected and the engine is left exactly as before.
    pub fn try_admit(&mut self, tasks: &[TaskSpec]) -> AdmissionDecision {
        let base = self.next_key;
        self.next_key += tasks.len() as u64;
        self.try_admit_with_keys(tasks, base)
    }

    /// As [`AdmissionEngine::try_admit`] but with caller-assigned keys
    /// `base..base + tasks.len()` — the sharded frontend pre-allocates
    /// key ranges so batches admit in parallel without coordinating.
    pub(crate) fn try_admit_with_keys(
        &mut self,
        tasks: &[TaskSpec],
        base: u64,
    ) -> AdmissionDecision {
        if tasks.is_empty() {
            return AdmissionDecision::Rejected(RejectReason::EmptySubmission);
        }
        if self.caching {
            match self.place_batch(tasks, base) {
                Ok((placement, touched)) => {
                    self.admitted_from_touched(tasks, base, placement, touched)
                }
                Err(reason) => AdmissionDecision::Rejected(reason),
            }
        } else {
            let old = self.full_snapshot();
            match self.place_batch(tasks, base) {
                Ok((placement, _)) => {
                    let new = self.full_snapshot();
                    let admitted = admitted_tasks(tasks.len(), base, &placement, &new);
                    AdmissionDecision::Admitted(Admission {
                        od_updates: od_deltas(&old, &new),
                        tasks: admitted,
                    })
                }
                Err(reason) => AdmissionDecision::Rejected(reason),
            }
        }
    }

    /// Builds the [`Admission`] for a committed caching-mode placement:
    /// old/new OD pairs come from the touched bins (plus the split
    /// partners of their residents, whose effective OD is a min over both
    /// hosts — served from cache, no extra RTA solve), ordered by bin
    /// index to match the full-sweep path.
    fn admitted_from_touched(
        &mut self,
        tasks: &[TaskSpec],
        base: u64,
        placement: Vec<Placed>,
        touched: Vec<TouchedBin>,
    ) -> AdmissionDecision {
        let touched_bins: Vec<usize> = touched.iter().map(|t| t.bin).collect();
        let read = self.read_set(&touched_bins);
        let mut old_pairs = Vec::new();
        let mut new_pairs = Vec::new();
        for &b in &read {
            if let Some(t) = touched.iter().find(|t| t.bin == b) {
                collect_pairs(&self.bins[b][..t.saved_len], &t.old_ods, &mut old_pairs);
                let ods = self
                    .cache
                    .optional_deadlines(b)
                    .expect("touched bins were analyzed during placement")
                    .to_vec();
                collect_pairs(&self.bins[b], &ods, &mut new_pairs);
            } else {
                // Split partner outside the touched set: unmutated, so it
                // contributes the same pairs to both snapshots.
                let ods = self.ods_of(b);
                collect_pairs(&self.bins[b], &ods, &mut old_pairs);
                collect_pairs(&self.bins[b], &ods, &mut new_pairs);
            }
        }
        let old_pairs = merge_min(old_pairs);
        let new_pairs = merge_min(new_pairs);
        let admitted = admitted_tasks(tasks.len(), base, &placement, &new_pairs);
        AdmissionDecision::Admitted(Admission {
            od_updates: od_deltas(&old_pairs, &new_pairs),
            tasks: admitted,
        })
    }

    /// The bins whose OD pairs must be read when `bins` were mutated: the
    /// bins themselves plus (transitively) the split partners of any
    /// split resident, since a split task's effective OD is the minimum
    /// over its two host bins.
    fn read_set(&self, bins: &[usize]) -> Vec<usize> {
        let mut set: Vec<usize> = bins.to_vec();
        let mut i = 0;
        while i < set.len() {
            for e in &self.bins[set[i]] {
                if e.kind == Residency::Split {
                    for (other, _) in self.locate(e.key) {
                        if !set.contains(&other) {
                            set.push(other);
                        }
                    }
                }
            }
            i += 1;
        }
        set.sort_unstable();
        set.dedup();
        set
    }

    /// Records rollback state for `bin` if this batch has not touched it
    /// yet.
    fn touch(&mut self, touched: &mut Vec<TouchedBin>, bin: usize) {
        if !touched.iter().any(|t| t.bin == bin) {
            let old_ods = if self.caching {
                self.ods_of(bin)
            } else {
                Vec::new()
            };
            touched.push(TouchedBin {
                bin,
                saved_len: self.bins[bin].len(),
                saved_util: self.bin_util[bin],
                saved_grant: self.grant_of[bin],
                old_ods,
                saved_fix: self.cache.fixpoints(bin).cloned(),
            });
        }
    }

    /// Places every task of the batch, mutating bins/utilization/cache in
    /// place and recording rollback state per touched bin. On failure the
    /// rollback has already been applied.
    fn place_batch(
        &mut self,
        tasks: &[TaskSpec],
        base: u64,
    ) -> Result<(Vec<Placed>, Vec<TouchedBin>), RejectReason> {
        let m = self.bins.len();
        let mut order: Vec<usize> = (0..tasks.len()).collect();
        order.sort_by(|&a, &b| {
            let ua = tasks[a].utilization();
            let ub = tasks[b].utilization();
            ub.partial_cmp(&ua)
                .expect("utilizations are finite")
                .then(a.cmp(&b))
        });

        let mut placement = vec![
            Placed {
                hw: HwThreadId(self.cpu_base),
                kind: PlacementKind::Whole,
            };
            tasks.len()
        ];
        let mut touched: Vec<TouchedBin> = Vec::new();
        for &i in &order {
            let spec = &tasks[i];
            let key = TaskKey(base + i as u64);
            // Granted bins leave the shared pool. `tried` records the bins
            // in the heuristic's order as the whole-placement scan pops
            // them; the fallbacks below run only once it has drained the
            // order.
            let mut tried = Vec::with_capacity(m);
            let mut placed = false;
            let candidates = CandidateOrder::new(self.heuristic, &self.bin_util, |b| {
                self.grant_of[b].is_none()
            });
            for bin in candidates {
                tried.push(bin);
                let Some(fix) = self.probe(bin, (key, spec, Residency::Whole)) else {
                    continue;
                };
                self.touch(&mut touched, bin);
                self.insert(bin, key, spec, Residency::Whole, true, fix);
                placement[i] = Placed {
                    hw: HwThreadId(self.cpu_base + bin as u32),
                    kind: PlacementKind::Whole,
                };
                placed = true;
                break;
            }
            // Semi-partitioned fallback: split into two subtasks pinned to
            // two CPUs, each receiving every other job (arrival `2T`,
            // deadline `T`). Both host bins must pass the split-aware RTA.
            // Each probe depends only on its own bin, so the first passing
            // pair is simply the first two bins that pass.
            if !placed && self.policy == PlacementPolicy::SemiPartitioned {
                let mut hosts = tried.iter().filter_map(|&b| {
                    self.probe(b, (key, spec, Residency::Split))
                        .map(|fix| (b, fix))
                });
                if let (Some((a, fix_a)), Some((b, fix_b))) = (hosts.next(), hosts.next()) {
                    self.touch(&mut touched, a);
                    self.touch(&mut touched, b);
                    self.insert(a, key, spec, Residency::Split, true, fix_a);
                    self.insert(b, key, spec, Residency::Split, false, fix_b);
                    placement[i] = Placed {
                        hw: HwThreadId(self.cpu_base + a as u32),
                        kind: PlacementKind::Split {
                            secondary: HwThreadId(self.cpu_base + b as u32),
                        },
                    };
                    placed = true;
                }
            }
            // Semi-federated fallback: grant a core's top band to the
            // parallel phase (wind-up runs there with response exactly w),
            // and pack the mandatory residual into another shared bin with
            // deadline T − w. Grant bins are tried in index order; their
            // earlier residents must stay schedulable under the new band.
            // A residual probe depends only on its own bin, so a grant `g`
            // takes the first passing residual host other than `g`: the
            // first two passing hosts are all the search ever needs.
            if !placed
                && self.policy == PlacementPolicy::SemiFederated
                && spec.optional_utilization() >= 1.0
            {
                let mut hosts: Vec<(usize, CpuFixpoints)> = tried
                    .iter()
                    .filter_map(|&b| {
                        self.probe(b, (key, spec, Residency::FedResidual))
                            .map(|fix| (b, fix))
                    })
                    .take(2)
                    .collect();
                for g in 0..m {
                    if self.grant_of[g].is_some() {
                        continue;
                    }
                    let Some(host) = hosts.iter().position(|&(b, _)| b != g) else {
                        continue;
                    };
                    let Some(fix_g) = self.probe(g, (key, spec, Residency::FedWindup)) else {
                        continue;
                    };
                    let (bin, fix_r) = hosts.swap_remove(host);
                    self.touch(&mut touched, g);
                    self.touch(&mut touched, bin);
                    self.insert(g, key, spec, Residency::FedWindup, false, fix_g);
                    self.insert(bin, key, spec, Residency::FedResidual, true, fix_r);
                    self.grant_of[g] = Some(key);
                    placement[i] = Placed {
                        hw: HwThreadId(self.cpu_base + bin as u32),
                        kind: PlacementKind::Federated {
                            granted: HwThreadId(self.cpu_base + g as u32),
                        },
                    };
                    placed = true;
                    break;
                }
            }
            if !placed {
                self.rollback(&touched);
                return Err(RejectReason::Unschedulable { index: i });
            }
        }
        Ok((placement, touched))
    }

    /// One placement probe: the fixpoints of `bin` plus `candidate`, or
    /// `None` if that population is unschedulable. Counts one RTA
    /// recompute against `bin` whatever the outcome. With a valid memo
    /// entry the probe is incremental ([`probe_bin`]); without one —
    /// caching disabled, or the entry invalidated — it analyzes the bin
    /// from scratch.
    fn probe(
        &mut self,
        bin: usize,
        candidate: (TaskKey, &TaskSpec, Residency),
    ) -> Option<CpuFixpoints> {
        self.cache.note_recompute(bin);
        match self.cache.fixpoints(bin) {
            Some(cached) => probe_bin(&self.bins[bin], cached, candidate),
            None => analyze_bin(&self.bins[bin], Some(candidate)),
        }
    }

    /// Commits one residency of `key` to `bin`, storing the fixpoints its
    /// probe computed.
    fn insert(
        &mut self,
        bin: usize,
        key: TaskKey,
        spec: &TaskSpec,
        kind: Residency,
        primary: bool,
        fix: CpuFixpoints,
    ) {
        self.bins[bin].push(Entry {
            key,
            spec: spec.clone(),
            kind,
            primary,
        });
        self.bin_util[bin] += util_for(spec, kind);
        if self.caching {
            self.cache.store(bin, fix);
        }
    }

    fn rollback(&mut self, touched: &[TouchedBin]) {
        for t in touched {
            self.bins[t.bin].truncate(t.saved_len);
            self.bin_util[t.bin] = t.saved_util;
            self.grant_of[t.bin] = t.saved_grant;
            if self.caching {
                self.cache.restore(t.bin, t.saved_fix.clone());
            }
        }
    }

    /// Evicts `keys` (unknown keys are ignored) and returns the optional
    /// deadlines that grew for the remaining residents of the vacated
    /// threads. Exactly the victim CPUs' fixpoints are dropped and
    /// refreshed; every other CPU's memo entry is untouched. Evicting a
    /// federated task releases its core grant back to the shared pool.
    pub fn evict(&mut self, keys: &[TaskKey]) -> Vec<OdUpdate> {
        if !self.caching {
            let old = self.full_snapshot();
            self.remove_keys(keys);
            let new = self.full_snapshot();
            return od_deltas(&old, &new);
        }
        let victims: Vec<usize> = (0..self.bins.len())
            .filter(|&b| self.bins[b].iter().any(|e| keys.contains(&e.key)))
            .collect();
        if victims.is_empty() {
            return Vec::new();
        }
        let read = self.read_set(&victims);
        let mut old_pairs = Vec::new();
        for &b in &read {
            let ods = self.ods_of(b);
            collect_pairs(&self.bins[b], &ods, &mut old_pairs);
        }
        for &b in &victims {
            self.cache.invalidate(b);
            if self.grant_of[b].is_some_and(|k| keys.contains(&k)) {
                self.grant_of[b] = None;
            }
            self.bins[b].retain(|e| !keys.contains(&e.key));
            self.bin_util[b] = self.bins[b].iter().map(entry_util).sum();
            let fix = if self.bins[b].is_empty() {
                CpuFixpoints::default()
            } else {
                self.cache.note_recompute(b);
                analyze_bin(&self.bins[b], None)
                    .expect("shrinking a schedulable bin keeps it schedulable")
            };
            self.cache.store(b, fix);
        }
        let mut new_pairs = Vec::new();
        for &b in &read {
            let ods = self.ods_of(b);
            collect_pairs(&self.bins[b], &ods, &mut new_pairs);
        }
        od_deltas(&merge_min(old_pairs), &merge_min(new_pairs))
    }

    fn remove_keys(&mut self, keys: &[TaskKey]) {
        for bin in 0..self.bins.len() {
            let before = self.bins[bin].len();
            if self.grant_of[bin].is_some_and(|k| keys.contains(&k)) {
                self.grant_of[bin] = None;
            }
            self.bins[bin].retain(|e| !keys.contains(&e.key));
            if self.bins[bin].len() != before {
                self.bin_util[bin] = self.bins[bin].iter().map(entry_util).sum();
            }
        }
    }

    /// Replaces the spec of resident `key` in place, re-analyzing only
    /// its host CPU(s) — both of them for a split or federated resident,
    /// whose residency kinds are preserved by the update.
    ///
    /// Returns [`AdmissionDecision::Admitted`] (the updated task plus
    /// neighbour OD deltas), [`AdmissionDecision::Rejected`] with
    /// [`RejectReason::UnknownKey`] if `key` is not resident, or
    /// [`AdmissionDecision::NeedsFullRecompute`] when the new spec does
    /// not fit on the task's current CPU(s) — the engine is then
    /// unchanged and the caller should evict and re-admit through the
    /// packer.
    pub fn od_update(&mut self, key: TaskKey, spec: &TaskSpec) -> AdmissionDecision {
        let locs = self.locate(key);
        if locs.is_empty() {
            return AdmissionDecision::Rejected(RejectReason::UnknownKey);
        }
        let bins: Vec<usize> = locs.iter().map(|&(b, _)| b).collect();
        let read = if self.caching {
            self.read_set(&bins)
        } else {
            Vec::new()
        };
        let old_pairs = if self.caching {
            let mut pairs = Vec::new();
            for &b in &read {
                let ods = self.ods_of(b);
                collect_pairs(&self.bins[b], &ods, &mut pairs);
            }
            merge_min(pairs)
        } else {
            self.full_snapshot()
        };
        let (b0, i0) = locs[0];
        let old_spec = std::mem::replace(&mut self.bins[b0][i0].spec, spec.clone());
        for &(b, idx) in &locs[1..] {
            self.bins[b][idx].spec = spec.clone();
        }
        let mut fixes = Vec::with_capacity(bins.len());
        for &b in &bins {
            self.cache.note_recompute(b);
            match analyze_bin(&self.bins[b], None) {
                Some(fix) => fixes.push((b, fix)),
                None => {
                    for &(b2, i2) in &locs {
                        self.bins[b2][i2].spec = old_spec.clone();
                    }
                    return AdmissionDecision::NeedsFullRecompute { key };
                }
            }
        }
        for &(b, idx) in &locs {
            let kind = self.bins[b][idx].kind;
            self.bin_util[b] += util_for(spec, kind) - util_for(&old_spec, kind);
        }
        let mut hw = HwThreadId(self.cpu_base);
        let mut kind = PlacementKind::Whole;
        for &(b, idx) in &locs {
            let e = &self.bins[b][idx];
            let global = HwThreadId(self.cpu_base + b as u32);
            match e.kind {
                Residency::Whole => hw = global,
                Residency::Split if e.primary => hw = global,
                Residency::Split => {
                    kind = PlacementKind::Split { secondary: global };
                }
                Residency::FedResidual => hw = global,
                Residency::FedWindup => {
                    kind = PlacementKind::Federated { granted: global };
                }
            }
        }
        if self.caching {
            for (b, fix) in fixes {
                self.cache.store(b, fix);
            }
        }
        let new_pairs = if self.caching {
            let mut pairs = Vec::new();
            for &b in &read {
                let ods = self.ods_of(b);
                collect_pairs(&self.bins[b], &ods, &mut pairs);
            }
            merge_min(pairs)
        } else {
            self.full_snapshot()
        };
        let od = lookup(&new_pairs, key).expect("updated task is resident");
        let mut od_updates = od_deltas(&old_pairs, &new_pairs);
        od_updates.retain(|u| u.key != key);
        AdmissionDecision::Admitted(Admission {
            tasks: vec![AdmittedTask {
                key,
                hw_thread: hw,
                kind,
                optional_deadline: od,
            }],
            od_updates,
        })
    }

    /// Every `(bin, index)` hosting `key` — one for a whole task, two for
    /// a split or federated one (ascending bin order).
    fn locate(&self, key: TaskKey) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for (bin, entries) in self.bins.iter().enumerate() {
            if let Some(idx) = entries.iter().position(|e| e.key == key) {
                out.push((bin, idx));
            }
        }
        out
    }

    /// The ODs of local CPU `cpu`, served from the memo when valid.
    fn ods_of(&mut self, cpu: usize) -> Vec<Span> {
        if self.bins[cpu].is_empty() {
            return Vec::new();
        }
        if self.caching && self.cache.is_cached(cpu) {
            self.cache.note_hit(cpu);
            return self
                .cache
                .optional_deadlines(cpu)
                .expect("checked is_cached")
                .to_vec();
        }
        self.cache.note_recompute(cpu);
        let fix = analyze_bin(&self.bins[cpu], None)
            .expect("resident bins were admitted incrementally");
        let ods = fix.optional_deadlines.clone();
        if self.caching {
            self.cache.store(cpu, fix);
        }
        ods
    }

    /// Full-recompute snapshot: fresh RMWP fixpoints of every non-empty
    /// bin — the whole-box sweep the cache exists to avoid. Split keys
    /// appear in two bins and are min-merged like the cached path.
    fn full_snapshot(&mut self) -> Vec<(TaskKey, Span)> {
        let mut out = Vec::with_capacity(self.resident_tasks());
        for bin in 0..self.bins.len() {
            if self.bins[bin].is_empty() {
                continue;
            }
            self.cache.note_recompute(bin);
            let fix = analyze_bin(&self.bins[bin], None)
                .expect("resident bins were admitted incrementally");
            collect_pairs(&self.bins[bin], &fix.optional_deadlines, &mut out);
        }
        merge_min(out)
    }
}

fn admitted_tasks(
    n: usize,
    base: u64,
    placement: &[Placed],
    new_pairs: &[(TaskKey, Span)],
) -> Vec<AdmittedTask> {
    (0..n)
        .map(|i| {
            let key = TaskKey(base + i as u64);
            AdmittedTask {
                key,
                hw_thread: placement[i].hw,
                kind: placement[i].kind,
                optional_deadline: lookup(new_pairs, key)
                    .expect("admitted task has an analyzed OD"),
            }
        })
        .collect()
}

/// The order in which one task's placement probes visit the shared bins:
/// index order under first-fit, decreasing utilization under best-fit,
/// increasing utilization under worst-fit, ties by bin index. Excluded
/// (granted) bins never appear.
///
/// The bins sit in a binary heap and are popped lazily, so a placement
/// that succeeds on its `k`-th probe costs `O(m + k log m)` instead of a
/// full `O(m log m)` sort; draining it yields exactly the stable sort
/// the offline [`crate::Partition`] applies.
struct CandidateOrder {
    heap: BinaryHeap<Candidate>,
}

/// One heap slot: the max-heap pops the largest `rank`, then the smallest
/// `bin`.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    rank: f64,
    bin: usize,
}

impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> Ordering {
        self.rank
            .partial_cmp(&other.rank)
            .expect("finite utilization")
            .then(other.bin.cmp(&self.bin))
    }
}

impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Candidate {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Candidate {}

impl CandidateOrder {
    /// The probe order over the bins `b` with `shared(b)`, whose current
    /// utilizations are `util[b]`.
    fn new(
        heuristic: PartitionHeuristic,
        util: &[f64],
        shared: impl Fn(usize) -> bool,
    ) -> CandidateOrder {
        let rank = |u: f64| match heuristic {
            PartitionHeuristic::FirstFitDecreasing => 0.0,
            PartitionHeuristic::BestFitDecreasing => u,
            PartitionHeuristic::WorstFitDecreasing => -u,
        };
        let slots: Vec<Candidate> = (0..util.len())
            .filter(|&b| shared(b))
            .map(|bin| Candidate {
                rank: rank(util[bin]),
                bin,
            })
            .collect();
        CandidateOrder {
            heap: BinaryHeap::from(slots),
        }
    }
}

impl Iterator for CandidateOrder {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        self.heap.pop().map(|c| c.bin)
    }
}

/// Within-bin priority, highest first: the grant core's wind-up band
/// preempts everything, then Rate Monotonic by period, ties by key (that
/// is, by admission order).
fn priority(key: TaskKey, spec: &TaskSpec, kind: Residency) -> (bool, Span, TaskKey) {
    (kind != Residency::FedWindup, spec.period(), key)
}

/// RMWP-analyzes `bin` (+ optional `candidate`) from scratch under the
/// within-bin [`priority`] order. Returns the per-task fixpoints in `bin`
/// member order (candidate last, if present), or `None` if unschedulable.
fn analyze_bin(
    bin: &[Entry],
    candidate: Option<(TaskKey, &TaskSpec, Residency)>,
) -> Option<CpuFixpoints> {
    let n = bin.len() + usize::from(candidate.is_some());
    let member = |i: usize| -> (TaskKey, &TaskSpec, Residency) {
        match bin.get(i) {
            Some(e) => (e.key, &e.spec, e.kind),
            None => candidate.expect("index beyond bin implies candidate"),
        }
    };
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_by_key(|&i| {
        let (key, spec, kind) = member(i);
        priority(key, spec, kind)
    });
    let entries: Vec<BinTask> = idx
        .iter()
        .map(|&i| {
            let (_, spec, kind) = member(i);
            bin_task_for(spec, kind)
        })
        .collect();
    let fixes = analyze_ordered(&entries).ok()?;
    let mut fix = CpuFixpoints {
        optional_deadlines: vec![Span::ZERO; n],
        mandatory_responses: vec![Span::ZERO; n],
        windup_responses: vec![Span::ZERO; n],
    };
    for (local, &orig) in idx.iter().enumerate() {
        fix.set(orig, &fixes[local]);
    }
    Some(fix)
}

/// The incremental placement probe: exactly
/// `analyze_bin(bin, Some(candidate))`, computed from `cached`, the bin's
/// valid memo entry.
///
/// * Inserting the candidate changes nothing above it in the [`priority`]
///   order, so those residents keep their cached fixpoints.
/// * Each resident below it gains one interferer, which bounds its new
///   fixpoints from below ([`BinTask::raised_bounds`]). If one of those
///   bounds already breaks a deadline, the bin is rejected after one
///   `div_ceil` per resident, with no sort and no RTA solve.
/// * Otherwise the residents below are re-solved lowest priority first
///   (the likeliest to fail), each warm-started from its bound, and then
///   the candidate cold. A fixpoint depends only on the set of
///   higher-priority `(arrival, demand)` pairs, so neither the solve order
///   nor the order of the residents above matters.
fn probe_bin(
    bin: &[Entry],
    cached: &CpuFixpoints,
    candidate: (TaskKey, &TaskSpec, Residency),
) -> Option<CpuFixpoints> {
    let (key, spec, kind) = candidate;
    let cand = bin_task_for(spec, kind);
    let extra = cand.interferer();
    let at = priority(key, spec, kind);
    // The candidate's interferers: the residents above it, in member order.
    let mut hp: Vec<Interferer> = Vec::with_capacity(bin.len() + 1);
    // The residents below it: bin position, entry, warm starts.
    let mut below: Vec<(usize, BinTask, (Span, Span))> = Vec::new();
    for (i, e) in bin.iter().enumerate() {
        let t = bin_task_for(&e.spec, e.kind);
        if priority(e.key, &e.spec, e.kind) < at {
            hp.push(t.interferer());
        } else {
            below.push((i, t, t.raised_bounds(&cached.get(i), extra)?));
        }
    }
    let above = hp.len();
    below.sort_by_key(|&(i, ..)| priority(bin[i].key, &bin[i].spec, bin[i].kind));
    hp.push(extra);
    hp.extend(below.iter().map(|(_, t, _)| t.interferer()));
    let mut solved = Vec::with_capacity(below.len());
    for (rank, &(i, t, (windup_start, mandatory_start))) in below.iter().enumerate().rev() {
        // Everything above this resident, the candidate included.
        let interferers = &hp[..=above + rank];
        solved.push((i, t.solve(interferers, windup_start, mandatory_start).ok()?));
    }
    let own = cand.solve(&hp[..above], Span::ZERO, Span::ZERO).ok()?;
    let mut fix = cached.clone();
    for (i, f) in &solved {
        fix.set(*i, f);
    }
    fix.optional_deadlines.push(own.optional_deadline);
    fix.mandatory_responses.push(own.mandatory_response);
    fix.windup_responses.push(own.windup_response);
    Some(fix)
}

/// Appends `(key, od)` pairs for a bin's entries, skipping federated
/// residuals — a federated task's OD comes from its wind-up entry on the
/// grant core (`T − w`), never from the residual's synthetic deadline.
fn collect_pairs(entries: &[Entry], ods: &[Span], out: &mut Vec<(TaskKey, Span)>) {
    for (e, &od) in entries.iter().zip(ods) {
        if e.kind != Residency::FedResidual {
            out.push((e.key, od));
        }
    }
}

/// Collapses duplicate keys (split tasks contribute one OD per host bin)
/// to their minimum, preserving first-occurrence order.
fn merge_min(pairs: Vec<(TaskKey, Span)>) -> Vec<(TaskKey, Span)> {
    let mut out: Vec<(TaskKey, Span)> = Vec::with_capacity(pairs.len());
    for (key, od) in pairs {
        match out.iter_mut().find(|(k, _)| *k == key) {
            Some((_, existing)) => *existing = (*existing).min(od),
            None => out.push((key, od)),
        }
    }
    out
}

fn lookup(ods: &[(TaskKey, Span)], key: TaskKey) -> Option<Span> {
    ods.iter().find(|(k, _)| *k == key).map(|(_, od)| *od)
}

/// ODs present in both snapshots whose value changed.
fn od_deltas(old: &[(TaskKey, Span)], new: &[(TaskKey, Span)]) -> Vec<OdUpdate> {
    new.iter()
        .filter_map(|&(key, od)| match lookup(old, key) {
            Some(prev) if prev != od => Some(OdUpdate {
                key,
                optional_deadline: od,
            }),
            _ => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtseed_model::Span;

    fn task(name: &str, period_ms: u64, m_ms: u64, w_ms: u64) -> TaskSpec {
        let mut b = TaskSpec::builder(name);
        b.period(Span::from_millis(period_ms))
            .mandatory(Span::from_millis(m_ms))
            .windup(Span::from_millis(w_ms));
        b.build().unwrap()
    }

    /// Utilization 0.6 — at most one per thread.
    fn heavy(name: &str) -> TaskSpec {
        task(name, 100, 30, 30)
    }

    /// Utilization 0.1 — many fit per thread.
    fn light(name: &str) -> TaskSpec {
        task(name, 100, 5, 5)
    }

    #[test]
    fn fills_threads_then_rejects() {
        let mut eng = AdmissionEngine::new(4, PartitionHeuristic::WorstFitDecreasing);
        for i in 0..4 {
            let a = eng
                .try_admit(&[heavy(&format!("t{i}"))])
                .admitted()
                .unwrap();
            assert_eq!(a.tasks.len(), 1);
            assert_eq!(a.tasks[0].kind, PlacementKind::Whole);
            assert!(a.od_updates.is_empty(), "one heavy task per thread");
        }
        assert_eq!(eng.resident_tasks(), 4);
        assert_eq!(
            eng.try_admit(&[heavy("t4")]),
            AdmissionDecision::Rejected(RejectReason::Unschedulable { index: 0 })
        );
        // Rejection left no residue.
        assert_eq!(eng.resident_tasks(), 4);
        assert!((eng.total_utilization() - 2.4).abs() < 1e-9);
    }

    #[test]
    fn eviction_frees_capacity_and_grows_ods() {
        let mut eng = AdmissionEngine::new(1, PartitionHeuristic::FirstFitDecreasing);
        // Co-located: the low-priority task's OD shrinks vs running alone
        // (860 ms with interference, 900 ms alone — same numbers as the
        // partition tests).
        let a = eng
            .try_admit(&[task("lo", 1000, 100, 100)])
            .admitted()
            .unwrap();
        assert_eq!(a.tasks[0].optional_deadline, Span::from_millis(900));
        let b = eng.try_admit(&[task("hi", 100, 10, 10)]).admitted().unwrap();
        assert_eq!(b.od_updates.len(), 1);
        assert_eq!(b.od_updates[0].key, a.tasks[0].key);
        assert_eq!(b.od_updates[0].optional_deadline, Span::from_millis(860));
        // Evicting the interferer restores the lone-task OD.
        let ups = eng.evict(&[b.tasks[0].key]);
        assert_eq!(
            ups,
            vec![OdUpdate {
                key: a.tasks[0].key,
                optional_deadline: Span::from_millis(900)
            }]
        );
        assert_eq!(eng.resident_tasks(), 1);
    }

    #[test]
    fn batch_is_all_or_nothing() {
        let mut eng = AdmissionEngine::new(2, PartitionHeuristic::WorstFitDecreasing);
        eng.try_admit(&[heavy("a")]).admitted().unwrap();
        // Batch of two heavies: only one thread is free, so the batch
        // must be rejected wholesale.
        let d = eng.try_admit(&[heavy("b"), heavy("c")]);
        assert!(matches!(
            d,
            AdmissionDecision::Rejected(RejectReason::Unschedulable { .. })
        ));
        assert_eq!(eng.resident_tasks(), 1);
        // A single heavy still fits afterwards.
        assert!(eng.try_admit(&[heavy("d")]).is_admitted());
    }

    #[test]
    fn keys_are_never_reused() {
        let mut eng = AdmissionEngine::new(2, PartitionHeuristic::FirstFitDecreasing);
        let a = eng.try_admit(&[light("a")]).admitted().unwrap();
        eng.evict(&[a.tasks[0].key]);
        let b = eng.try_admit(&[light("b")]).admitted().unwrap();
        assert_ne!(a.tasks[0].key, b.tasks[0].key);
    }

    #[test]
    fn empty_submission_rejected() {
        let mut eng = AdmissionEngine::new(1, PartitionHeuristic::FirstFitDecreasing);
        assert_eq!(
            eng.try_admit(&[]),
            AdmissionDecision::Rejected(RejectReason::EmptySubmission)
        );
        assert!(RejectReason::EmptySubmission
            .to_string()
            .contains("no tasks"));
    }

    #[test]
    fn evicting_unknown_key_is_a_noop() {
        let mut eng = AdmissionEngine::new(1, PartitionHeuristic::FirstFitDecreasing);
        eng.try_admit(&[light("a")]).admitted().unwrap();
        assert!(eng.evict(&[TaskKey(999)]).is_empty());
        assert_eq!(eng.resident_tasks(), 1);
    }

    #[test]
    fn agrees_with_offline_partition_on_rejection() {
        // Mirror of partition.rs's `overload_reported`: five 0.6-U tasks
        // on 4 threads fail identically through the incremental path.
        let mut eng = AdmissionEngine::new(4, PartitionHeuristic::FirstFitDecreasing);
        let batch: Vec<TaskSpec> = (0..5).map(|i| heavy(&format!("t{i}"))).collect();
        assert!(!eng.try_admit(&batch).is_admitted());
        assert!(eng.try_admit(&batch[..4]).is_admitted());
    }

    // ---- placement-policy family --------------------------------------

    #[test]
    fn semi_partitioned_splits_when_nothing_fits_whole() {
        // Same numbers as partition.rs: two 0.7-U residents own both
        // CPUs; a 0.6-U high-rate task fits neither whole but splits.
        let mut eng = AdmissionEngine::new(2, PartitionHeuristic::FirstFitDecreasing)
            .with_placement(PlacementPolicy::SemiPartitioned);
        let r0 = eng.try_admit(&[task("r0", 400, 280, 0)]).admitted().unwrap();
        let r1 = eng.try_admit(&[task("r1", 400, 280, 0)]).admitted().unwrap();
        assert_ne!(r0.tasks[0].hw_thread, r1.tasks[0].hw_thread);
        let big = eng.try_admit(&[task("big", 100, 60, 0)]).admitted().unwrap();
        let placed = &big.tasks[0];
        match placed.kind {
            PlacementKind::Split { secondary } => {
                assert_ne!(placed.hw_thread, secondary);
            }
            other => panic!("expected a split placement, got {other:?}"),
        }
        // One task, two bins; utilization splits between the hosts.
        assert_eq!(eng.resident_tasks(), 3);
        assert!((eng.total_utilization() - 2.0).abs() < 1e-9);
        // A plain engine rejects the same sequence.
        let mut plain = AdmissionEngine::new(2, PartitionHeuristic::FirstFitDecreasing);
        plain
            .try_admit(&[task("r0", 400, 280, 0)])
            .admitted()
            .unwrap();
        plain
            .try_admit(&[task("r1", 400, 280, 0)])
            .admitted()
            .unwrap();
        assert!(!plain.try_admit(&[task("big", 100, 60, 0)]).is_admitted());
        // Evicting the split task clears both bins.
        eng.evict(&[placed.key]);
        assert_eq!(eng.resident_tasks(), 2);
        assert!((eng.total_utilization() - 1.4).abs() < 1e-9);
    }

    fn parallel_heavy(name: &str) -> TaskSpec {
        let mut b = TaskSpec::builder(name);
        b.period(Span::from_millis(100))
            .mandatory(Span::from_millis(30))
            .windup(Span::from_millis(10))
            .optional_parts(2, Span::from_millis(100));
        b.build().unwrap()
    }

    #[test]
    fn semi_federated_grants_core_where_plain_rejects() {
        // Same numbers as partition.rs's fed_win_set.
        let mut eng = AdmissionEngine::new(2, PartitionHeuristic::FirstFitDecreasing)
            .with_placement(PlacementPolicy::SemiFederated);
        let t0 = eng.try_admit(&[task("t0", 100, 27, 28)]).admitted().unwrap();
        eng.try_admit(&[task("t1", 100, 27, 28)]).admitted().unwrap();
        let fed = eng.try_admit(&[parallel_heavy("par")]).admitted().unwrap();
        let placed = &fed.tasks[0];
        assert_eq!(
            placed.kind,
            PlacementKind::Federated {
                granted: HwThreadId(0)
            }
        );
        assert_eq!(placed.hw_thread, HwThreadId(1));
        // OD = T − w, a pure function of the spec under the top band.
        assert_eq!(placed.optional_deadline, Span::from_millis(90));
        // The grant bin's earlier resident shrinks: 72 → 62.
        assert_eq!(fed.od_updates.len(), 1);
        assert_eq!(fed.od_updates[0].key, t0.tasks[0].key);
        assert_eq!(fed.od_updates[0].optional_deadline, Span::from_millis(62));
        // A plain engine rejects the same third submission.
        let mut plain = AdmissionEngine::new(2, PartitionHeuristic::FirstFitDecreasing);
        plain
            .try_admit(&[task("t0", 100, 27, 28)])
            .admitted()
            .unwrap();
        plain
            .try_admit(&[task("t1", 100, 27, 28)])
            .admitted()
            .unwrap();
        assert!(!plain.try_admit(&[parallel_heavy("par")]).is_admitted());
        // The granted core leaves the shared pool while the grant lives:
        // a slow background task that CPU 0 could trivially host is
        // packed onto CPU 1 instead.
        let later = eng.try_admit(&[task("later", 1000, 5, 5)]).admitted().unwrap();
        assert_eq!(later.tasks[0].hw_thread, HwThreadId(1));
        // …and eviction releases it, restoring t0's OD.
        let ups = eng.evict(&[placed.key]);
        assert!(ups
            .iter()
            .any(|u| u.key == t0.tasks[0].key
                && u.optional_deadline == Span::from_millis(72)));
        // First-fit now reaches CPU 0 again.
        let reuse = eng
            .try_admit(&[task("reuse", 1000, 100, 100)])
            .admitted()
            .unwrap();
        assert_eq!(reuse.tasks[0].hw_thread, HwThreadId(0));
    }

    #[test]
    fn fallback_policies_match_plain_without_eligible_tasks() {
        // Whole-placeable workloads take the identical fast path under
        // every policy: byte-identical decisions.
        let specs: Vec<TaskSpec> = (0..8)
            .map(|i| task(&format!("t{i}"), 50 + 10 * (i % 5), 2 + i % 3, 2))
            .collect();
        let mut engines: Vec<AdmissionEngine> = PlacementPolicy::ALL
            .iter()
            .map(|&p| {
                AdmissionEngine::new(2, PartitionHeuristic::BestFitDecreasing)
                    .with_placement(p)
            })
            .collect();
        for spec in &specs {
            let decisions: Vec<AdmissionDecision> = engines
                .iter_mut()
                .map(|e| e.try_admit(std::slice::from_ref(spec)))
                .collect();
            assert_eq!(decisions[0], decisions[1]);
            assert_eq!(decisions[0], decisions[2]);
        }
    }

    #[test]
    fn cached_matches_full_recompute_under_all_policies() {
        // Mixed churn (admits, evicts, od_updates) with some tasks that
        // only place via the fallback: cached and uncached engines must
        // agree byte-for-byte under every policy.
        for policy in PlacementPolicy::ALL {
            let mut specs: Vec<TaskSpec> = (0..10)
                .map(|i| task(&format!("t{i}"), 50 + 10 * (i % 5), 2 + i % 3, 2))
                .collect();
            specs.insert(3, task("r0", 400, 280, 0));
            specs.insert(5, task("r1", 400, 280, 0));
            specs.insert(7, task("big", 100, 60, 0));
            specs.push(parallel_heavy("par"));
            let mut cached =
                AdmissionEngine::new(3, PartitionHeuristic::FirstFitDecreasing)
                    .with_placement(policy);
            let mut full = AdmissionEngine::new(3, PartitionHeuristic::FirstFitDecreasing)
                .with_placement(policy)
                .without_cache();
            for (i, spec) in specs.iter().enumerate() {
                let a = cached.try_admit(std::slice::from_ref(spec));
                let b = full.try_admit(std::slice::from_ref(spec));
                assert_eq!(a, b, "submission {i} diverged between modes ({policy})");
                if i % 4 == 3 {
                    let key = TaskKey(i as u64);
                    assert_eq!(
                        cached.evict(&[key]),
                        full.evict(&[key]),
                        "eviction {i} diverged ({policy})"
                    );
                }
                if i % 5 == 2 {
                    let key = TaskKey(i as u64 - 1);
                    let bumped = task(&format!("u{i}"), 60, 3, 2);
                    assert_eq!(
                        cached.od_update(key, &bumped),
                        full.od_update(key, &bumped),
                        "od_update {i} diverged ({policy})"
                    );
                }
            }
            assert_eq!(cached.resident_tasks(), full.resident_tasks());
            assert!(
                (cached.total_utilization() - full.total_utilization()).abs() < 1e-12
            );
        }
    }

    // ---- RtaCache behaviour -------------------------------------------

    #[test]
    fn untouched_cpus_serve_from_cache() {
        let mut eng = AdmissionEngine::new(4, PartitionHeuristic::FirstFitDecreasing);
        for i in 0..4 {
            eng.try_admit(&[heavy(&format!("t{i}"))]).admitted().unwrap();
        }
        // FFD probes CPUs 0..k in order, so admitting the 4th heavy cost
        // probes on every CPU; from here, a light long-period task lands
        // on CPU 0 after exactly one probe and no other CPU is analyzed.
        let before: Vec<u64> = (0..4).map(|c| eng.cache().recomputes(c)).collect();
        eng.try_admit(&[task("nudge", 200, 5, 5)]).admitted().unwrap();
        assert_eq!(eng.cache().recomputes(0), before[0] + 1);
        for (c, &rec) in before.iter().enumerate().skip(1) {
            assert_eq!(
                eng.cache().recomputes(c),
                rec,
                "CPU {c} must be served from cache"
            );
            assert!(eng.cache().is_cached(c));
        }
    }

    #[test]
    fn eviction_drops_exactly_the_victim_cpus_fixpoints() {
        let mut eng = AdmissionEngine::new(2, PartitionHeuristic::WorstFitDecreasing);
        let a = eng.try_admit(&[heavy("a")]).admitted().unwrap(); // CPU 0
        let b = eng.try_admit(&[heavy("b")]).admitted().unwrap(); // CPU 1
        assert_ne!(a.tasks[0].hw_thread, b.tasks[0].hw_thread);
        let victim = a.tasks[0].hw_thread.index();
        let other = b.tasks[0].hw_thread.index();
        let fix_other_before = eng.cache().fixpoints(other).cloned();
        let rec_other = eng.cache().recomputes(other);
        eng.evict(&[a.tasks[0].key]);
        // Victim CPU: fixpoints replaced (empty bin ⇒ empty vectors).
        assert!(eng.cache().is_cached(victim));
        assert_eq!(
            eng.cache().fixpoints(victim),
            Some(&CpuFixpoints::default())
        );
        // Other CPU: memo entry byte-identical, no RTA solve spent.
        assert_eq!(eng.cache().fixpoints(other).cloned(), fix_other_before);
        assert_eq!(eng.cache().recomputes(other), rec_other);
    }

    #[test]
    fn rejected_batch_restores_cache_exactly() {
        let mut eng = AdmissionEngine::new(2, PartitionHeuristic::WorstFitDecreasing);
        eng.try_admit(&[light("a"), light("b")]).admitted().unwrap();
        let fix: Vec<_> = (0..2).map(|c| eng.cache().fixpoints(c).cloned()).collect();
        // One heavy fits, the second cannot: the batch partially places
        // (mutating bins and cache) before the rollback.
        assert!(!eng
            .try_admit(&[heavy("x"), heavy("y"), heavy("z")])
            .is_admitted());
        for (c, expected) in fix.iter().enumerate() {
            assert_eq!(
                eng.cache().fixpoints(c),
                expected.as_ref(),
                "rollback must restore CPU {c}'s memo entry verbatim"
            );
        }
        assert_eq!(eng.resident_tasks(), 2);
    }

    #[test]
    fn rejected_batch_restores_grants_exactly() {
        let mut eng = AdmissionEngine::new(2, PartitionHeuristic::FirstFitDecreasing)
            .with_placement(PlacementPolicy::SemiFederated);
        eng.try_admit(&[task("t0", 100, 27, 28)]).admitted().unwrap();
        eng.try_admit(&[task("t1", 100, 27, 28)]).admitted().unwrap();
        // The batch grants a core for `par`, then fails on the second
        // heavy task: the rollback must release the tentative grant.
        assert!(!eng
            .try_admit(&[parallel_heavy("par"), heavy("x")])
            .is_admitted());
        assert_eq!(eng.resident_tasks(), 2);
        // The grant was rolled back: `par` alone still admits onto it.
        assert!(eng.try_admit(&[parallel_heavy("par2")]).is_admitted());
    }

    #[test]
    fn explicit_invalidation_forces_one_recompute() {
        let mut eng = AdmissionEngine::new(1, PartitionHeuristic::FirstFitDecreasing);
        eng.try_admit(&[light("a")]).admitted().unwrap();
        assert!(eng.cache().is_cached(0));
        eng.invalidate(0);
        assert!(!eng.cache().is_cached(0));
        let rec = eng.cache().recomputes(0);
        // The next eviction needs the old ODs: a recompute, then the
        // entry is primed again.
        eng.try_admit(&[light("b")]).admitted().unwrap();
        assert!(eng.cache().recomputes(0) > rec);
        assert!(eng.cache().is_cached(0));
    }

    #[test]
    fn cached_matches_full_recompute_decisions() {
        let specs: Vec<TaskSpec> = (0..12)
            .map(|i| task(&format!("t{i}"), 50 + 10 * (i % 5), 2 + i % 3, 2))
            .collect();
        let mut cached = AdmissionEngine::new(3, PartitionHeuristic::BestFitDecreasing);
        let mut full =
            AdmissionEngine::new(3, PartitionHeuristic::BestFitDecreasing).without_cache();
        for (i, spec) in specs.iter().enumerate() {
            let a = cached.try_admit(std::slice::from_ref(spec));
            let b = full.try_admit(std::slice::from_ref(spec));
            assert_eq!(a, b, "submission {i} diverged between modes");
            if i % 4 == 3 {
                let key = TaskKey(i as u64);
                assert_eq!(cached.evict(&[key]), full.evict(&[key]));
            }
        }
        assert_eq!(cached.resident_tasks(), full.resident_tasks());
        assert!((cached.total_utilization() - full.total_utilization()).abs() < 1e-12);
    }

    #[test]
    fn od_update_in_place_and_needs_full_recompute() {
        let mut eng = AdmissionEngine::new(1, PartitionHeuristic::FirstFitDecreasing);
        let a = eng
            .try_admit(&[task("lo", 1000, 100, 100)])
            .admitted()
            .unwrap();
        let b = eng.try_admit(&[task("hi", 100, 10, 10)]).admitted().unwrap();
        let lo = a.tasks[0].key;
        let hi = b.tasks[0].key;
        // Shrinking the interferer in place succeeds and grows lo's OD.
        let d = eng.od_update(hi, &task("hi", 100, 5, 5)).admitted().unwrap();
        assert_eq!(d.tasks[0].key, hi);
        assert_eq!(d.tasks[0].kind, PlacementKind::Whole);
        assert_eq!(d.od_updates.len(), 1);
        assert_eq!(d.od_updates[0].key, lo);
        assert!(d.od_updates[0].optional_deadline > Span::from_millis(860));
        // Blowing the task up past the CPU's capacity defers to a full
        // recompute and leaves the engine untouched.
        let util = eng.total_utilization();
        assert_eq!(
            eng.od_update(hi, &task("hi", 100, 60, 40)),
            AdmissionDecision::NeedsFullRecompute { key: hi }
        );
        assert!((eng.total_utilization() - util).abs() < 1e-12);
        // Unknown keys are a typed rejection.
        assert_eq!(
            eng.od_update(TaskKey(999), &light("x")),
            AdmissionDecision::Rejected(RejectReason::UnknownKey)
        );
    }

    #[test]
    fn od_update_on_split_task_touches_both_hosts() {
        let mut eng = AdmissionEngine::new(2, PartitionHeuristic::FirstFitDecreasing)
            .with_placement(PlacementPolicy::SemiPartitioned);
        eng.try_admit(&[task("r0", 400, 280, 0)]).admitted().unwrap();
        eng.try_admit(&[task("r1", 400, 280, 0)]).admitted().unwrap();
        let big = eng.try_admit(&[task("big", 100, 60, 0)]).admitted().unwrap();
        let key = big.tasks[0].key;
        // Shrinking the split task in place keeps it split on both hosts.
        let d = eng
            .od_update(key, &task("big", 100, 40, 0))
            .admitted()
            .unwrap();
        assert!(matches!(d.tasks[0].kind, PlacementKind::Split { .. }));
        assert_eq!(d.tasks[0].hw_thread, big.tasks[0].hw_thread);
        // Growing it past both hosts' capacity is refused atomically.
        let util = eng.total_utilization();
        assert_eq!(
            eng.od_update(key, &task("big", 100, 95, 0)),
            AdmissionDecision::NeedsFullRecompute { key }
        );
        assert!((eng.total_utilization() - util).abs() < 1e-12);
    }

    // ---- incremental probe ≡ from-scratch analysis ---------------------

    /// One drawn bin member: log₂ period bucket (2–256 ms), period offset
    /// in ‰, mandatory and wind-up in ‰ of the period (wind-up 0 makes a
    /// deadline-only task), residency index.
    type Drawn = (u64, u64, u64, u64, usize);

    fn drawn() -> impl proptest::strategy::Strategy<Value = Drawn> {
        (1u64..8, 0u64..1000, 1u64..400, 0u64..400, 0usize..6)
    }

    const RESIDENCIES: [Residency; 4] = [
        Residency::Whole,
        Residency::Split,
        Residency::FedWindup,
        Residency::FedResidual,
    ];

    fn drawn_spec(&(bucket, frac, m, w, _): &Drawn) -> TaskSpec {
        let period = Span::from_micros((1000 << bucket) * (1000 + frac) / 1000);
        // A quarter of the draws have no wind-up and no optional part.
        let w = w.saturating_sub(100);
        let mut b = TaskSpec::builder("p");
        b.period(period)
            .mandatory(period * m / 1000)
            .windup(period * w / 1000);
        if w > 0 {
            b.optional_part(period);
        }
        b.build().unwrap()
    }

    /// Whole residents dominate, as they do in service.
    fn drawn_residency(&(.., r): &Drawn) -> Residency {
        RESIDENCIES[r.saturating_sub(2)]
    }

    /// The probe equals `analyze_bin(bin, Some(candidate))` — `None` or
    /// identical fixpoints — on random schedulable bins filled to the edge
    /// of schedulability, for every residency of the candidate, with
    /// candidate keys interleaved among the residents' keys. Where the
    /// full analysis accepts, each raised bound is a true lower bound, so
    /// the bound never rejects a bin the full analysis accepts.
    #[test]
    fn probe_equals_full_analysis() {
        use proptest::collection::vec;
        use proptest::test_runner::{ProptestConfig, TestCaseError, TestRunner};
        // Accepted, rejected by the bound, rejected by a solve.
        let outcomes = std::cell::Cell::new([0usize; 3]);
        let mut runner = TestRunner::new(ProptestConfig::with_cases(768));
        let strategy = (vec(drawn(), 0..16), drawn(), 0u64..17);
        runner.run_named("probe_equals_full_analysis", strategy, |(members, cand, slot)| {
            // Residents get odd keys; the candidate's even key lands
            // anywhere among them.
            let mut bin: Vec<Entry> = Vec::new();
            for (i, d) in members.iter().enumerate() {
                let e = Entry {
                    key: TaskKey(2 * i as u64 + 1),
                    spec: drawn_spec(d),
                    kind: drawn_residency(d),
                    primary: true,
                };
                if analyze_bin(&bin, Some((e.key, &e.spec, e.kind))).is_some() {
                    bin.push(e);
                }
            }
            let cached = analyze_bin(&bin, None).expect("filled schedulably");
            let spec = drawn_spec(&cand);
            for kind in RESIDENCIES {
                let candidate = (TaskKey(2 * slot), &spec, kind);
                let full = analyze_bin(&bin, Some(candidate));
                let probed = probe_bin(&bin, &cached, candidate);
                if probed != full {
                    return Err(TestCaseError::fail(format!(
                        "{kind:?} probe {probed:?} != full {full:?}"
                    )));
                }
                let extra = bin_task_for(&spec, kind).interferer();
                let at = priority(candidate.0, &spec, kind);
                let mut bounded = true;
                for (i, e) in bin.iter().enumerate() {
                    if priority(e.key, &e.spec, e.kind) < at {
                        continue;
                    }
                    let bounds = bin_task_for(&e.spec, e.kind).raised_bounds(&cached.get(i), extra);
                    bounded &= bounds.is_some();
                    if let Some(fix) = &full {
                        let (rw, rm) = bounds.ok_or_else(|| {
                            TestCaseError::fail(format!("bound rejected accepted {kind:?}"))
                        })?;
                        if rw > fix.windup_responses[i] || rm > fix.mandatory_responses[i] {
                            return Err(TestCaseError::fail("raised bound above the fixpoint"));
                        }
                    }
                }
                let mut seen = outcomes.get();
                seen[match (&full, bounded) {
                    (Some(_), _) => 0,
                    (None, false) => 1,
                    (None, true) => 2,
                }] += 1;
                outcomes.set(seen);
            }
            Ok(())
        });
        let [accepted, by_bound, by_solve] = outcomes.get();
        assert!(
            accepted > 500 && by_bound > 500 && by_solve > 200,
            "weak coverage: {accepted} accepted, {by_bound} bound rejections, \
             {by_solve} solve rejections"
        );
    }

    /// The full stable sort the lazy [`CandidateOrder`] replaces.
    fn sorted_candidates(h: PartitionHeuristic, util: &[f64], granted: &[bool]) -> Vec<usize> {
        let mut candidates: Vec<usize> = (0..util.len()).filter(|&b| !granted[b]).collect();
        match h {
            PartitionHeuristic::FirstFitDecreasing => {}
            PartitionHeuristic::BestFitDecreasing => candidates.sort_by(|&a, &b| {
                util[b].partial_cmp(&util[a]).unwrap().then(a.cmp(&b))
            }),
            PartitionHeuristic::WorstFitDecreasing => candidates.sort_by(|&a, &b| {
                util[a].partial_cmp(&util[b]).unwrap().then(a.cmp(&b))
            }),
        }
        candidates
    }

    proptest::proptest! {
        /// Draining the lazy order yields exactly the stable sort, with
        /// exact utilization ties (signed zeros included: an emptied bin
        /// can hold −0.0 next to +0.0) and granted bins excluded.
        #[test]
        fn lazy_candidate_order_equals_stable_sort(
            bins in proptest::collection::vec((0usize..6, 0usize..4), 0..40),
        ) {
            const UTILS: [f64; 6] = [0.0, -0.0, 0.25, 0.5, 0.1 + 0.2, 0.3];
            let util: Vec<f64> = bins.iter().map(|&(u, _)| UTILS[u]).collect();
            let granted: Vec<bool> = bins.iter().map(|&(_, g)| g == 0).collect();
            for h in [
                PartitionHeuristic::FirstFitDecreasing,
                PartitionHeuristic::BestFitDecreasing,
                PartitionHeuristic::WorstFitDecreasing,
            ] {
                let lazy: Vec<usize> = CandidateOrder::new(h, &util, |b| !granted[b]).collect();
                proptest::prop_assert_eq!(lazy, sorted_candidates(h, &util, &granted));
            }
        }
    }
}
