//! Simulation executor: runs the complete RT-Seed protocol of paper Fig. 6
//! on the `rtseed-sim` discrete-event many-core substrate.
//!
//! Per job of every task the executor simulates, in order:
//!
//! 1. periodic release (`clock_nanosleep` wake-up) — costs **Δm** before
//!    the mandatory part can begin;
//! 2. preemptive SCHED_FIFO execution of the **mandatory part** on the
//!    task's pinned hardware thread;
//! 3. the `pthread_cond_signal` loop waking every parallel optional thread
//!    — **Δb**, O(npᵢ) — plus the mandatory→optional context switch
//!    **Δs**; optional parts whose signal arrives run on their
//!    policy-assigned hardware threads at NRTQ priority;
//! 4. the one-shot optional-deadline timer: at `ODᵢ`, still-active parts
//!    are terminated (per the configured
//!    [`TerminationMode`](crate::termination::TerminationMode)) and the
//!    handling — timer interrupt, `siglongjmp` restore, completion
//!    signalling — costs **Δe** before the wind-up part is released;
//! 5. preemptive execution of the **wind-up part**; the job's deadline is
//!    checked and its QoS (completed / terminated / discarded parts,
//!    achieved optional execution) recorded.
//!
//! Mandatory/wind-up parts of co-located tasks preempt lower-priority work
//! exactly per SCHED_FIFO (preempted threads resume at the head of their
//! level); equal-priority optional parts sharing a hardware thread are
//! serialized FIFO. Everything is deterministic in the run seed.
//!
//! All protocol decisions live in the shared [`Engine`](crate::engine):
//! this module is a *driver* that owns only the discrete-event mechanism —
//! the event queue, per-CPU ready queues and preemption, and the
//! [`OverheadModel`] whose RNG stream is sampled in exactly the order the
//! protocol performs the underlying actions. The mechanism exists once:
//! [`SimExecutor`] runs a fixed task set on it, and the serving layer's
//! [`SessionManager`](crate::serve::SessionManager) steps the same driver
//! between tenant arrivals and departures. Both recycle one [`SimArena`].

use rtseed_model::{HwThreadId, Priority, QosSummary, Span, TenantId, Time, Topology};
use rtseed_sim::{EventQueue, FaultPlan, FifoReadyQueue, OverheadKind, OverheadModel};

use crate::config::SystemConfig;
use crate::engine::{AfterMandatory, Cursor, Engine, OdAction, WindupCommand};
use crate::executor::{Backend, ExecError, Executor, Outcome, RunConfig};
use crate::obs::{QueueBand, QueueOp, TraceEvent};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Work {
    task: usize,
    cursor: Cursor,
}

#[derive(Debug)]
enum Event {
    Release { task: usize, retried: bool },
    Ready { work: Work },
    Complete { hw: usize, gen: u64 },
    OdExpire { task: usize, seq: u64 },
    WindupReady { task: usize, seq: u64 },
    StallStart { hw: usize, duration: Span },
    StallEnd { hw: usize },
}

#[derive(Debug, Clone, Copy)]
struct Running {
    work: Work,
    prio: Priority,
    since: Time,
    gen: u64,
}

#[derive(Debug, Default)]
struct Cpu {
    queue: FifoReadyQueue<Work>,
    running: Option<Running>,
    /// Depth of overlapping fault-plan stall windows; > 0 means the
    /// hardware thread executes nothing.
    stalled: u32,
}

/// Reusable per-worker scratch for [`SimExecutor::run_in`] and the serving
/// layer's [`SessionManager::new_in`](crate::serve::SessionManager::new_in).
///
/// Holds everything a run allocates on its hot path — the event-queue
/// slab, the per-CPU ready queues, the Δb signal buffer and a recycled
/// [`Engine`] (task vector, supervisor, recorder ring) — so a worker pool
/// can execute thousands of runs or sessions with a handful of allocations
/// per worker instead of a handful per run. One arena may serve both
/// clients in any order.
///
/// The arena carries **no cross-run state**: every buffer is cleared (or
/// rebuilt from the new configuration) before the next run touches it, so
/// a run over a hot arena is byte-identical to a cold one — a contract the
/// differential tests below and in the serving suite pin down.
#[derive(Debug, Default)]
pub struct SimArena {
    events: EventQueue<Event>,
    cpus: Vec<Cpu>,
    signal_scratch: Vec<Time>,
    engine: Option<Engine>,
}

impl SimArena {
    /// An empty arena; buffers grow to each run's high-water mark and are
    /// kept for the next run.
    pub fn new() -> SimArena {
        SimArena::default()
    }
}

/// The simulation executor.
#[derive(Debug)]
pub struct SimExecutor {
    config: SystemConfig,
    run_cfg: RunConfig,
}

impl SimExecutor {
    /// Creates an executor for `config` with run parameters `run_cfg`.
    pub fn new(config: SystemConfig, run_cfg: RunConfig) -> SimExecutor {
        SimExecutor { config, run_cfg }
    }

    /// The system configuration this executor runs.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Runs the simulation to completion and returns the measurements.
    pub fn run(&self) -> Outcome {
        self.run_in(&mut SimArena::new())
    }

    /// Runs the simulation to completion reusing `arena`'s buffers.
    ///
    /// Identical in every observable to [`SimExecutor::run`]; the arena
    /// only recycles allocations across runs. The executor borrows the
    /// buffers for the duration of the run and returns them (grown, never
    /// carrying state) before producing the [`Outcome`].
    pub fn run_in(&self, arena: &mut SimArena) -> Outcome {
        let (cfg, run) = (&self.config, &self.run_cfg);
        let mut sim = SimState::take(arena, *cfg.topology(), run, |parked| match parked {
            Some(mut eng) => {
                eng.reset(cfg, run);
                eng
            }
            None => Engine::new(cfg, run),
        });
        if run.jobs > 0 {
            // One decision event per task records where the assignment
            // policy placed its optional parts (paper Fig. 8).
            sim.eng.trace_policy_decisions(cfg);
            for task in 0..sim.eng.task_count() {
                sim.push_release(task);
            }
            // Planned CPU stall windows enter the same event queue as
            // everything else, so a faulted run replays exactly like a
            // healthy one.
            sim.push_stalls(&run.fault_plan);
            while sim.eng.has_live_tasks() && sim.step() {}
        }
        sim.park(arena).0
    }
}

impl Executor for SimExecutor {
    fn backend(&self) -> Backend {
        Backend::Sim
    }

    fn system(&self) -> &SystemConfig {
        &self.config
    }

    fn execute(&mut self) -> Result<Outcome, ExecError> {
        self.run_cfg.validate()?;
        Ok(self.run())
    }
}

/// The discrete-event driver: event queue, per-CPU SCHED_FIFO ready
/// queues, the overhead model and the [`Engine`] they feed.
///
/// Clients push releases and stall windows, then [`SimState::step`] one
/// event at a time; equal-time events pop in push order. A client may
/// advance [`SimState::now`] between steps (the serving layer does, for
/// churn and deferred retries), but never past [`SimState::peek_time`].
#[derive(Debug)]
pub(crate) struct SimState {
    /// The current simulated time.
    pub(crate) now: Time,
    /// The protocol state machine the mechanism drives.
    pub(crate) eng: Engine,
    events: EventQueue<Event>,
    cpus: Vec<Cpu>,
    model: OverheadModel,
    gen_counter: u64,
    events_processed: u64,
    /// Reused buffer for per-part signal ready-times (Δb loop): cleared
    /// and refilled each mandatory completion instead of reallocated.
    signal_scratch: Vec<Time>,
}

impl SimState {
    /// Builds a driver on top of `arena`'s recycled buffers: the event
    /// queue and ready queues are cleared and the CPU vector is resized to
    /// `topology`. `engine` turns the engine parked in the arena (if any)
    /// into the one for this run, resetting it in place instead of
    /// reallocating.
    pub(crate) fn take(
        arena: &mut SimArena,
        topology: Topology,
        run: &RunConfig,
        engine: impl FnOnce(Option<Engine>) -> Engine,
    ) -> SimState {
        let mut events = std::mem::take(&mut arena.events);
        events.clear();
        let mut cpus = std::mem::take(&mut arena.cpus);
        for cpu in &mut cpus {
            cpu.queue.clear();
            cpu.running = None;
            cpu.stalled = 0;
        }
        cpus.resize_with(topology.hw_threads() as usize, Cpu::default);
        let mut signal_scratch = std::mem::take(&mut arena.signal_scratch);
        signal_scratch.clear();
        SimState {
            now: Time::ZERO,
            eng: engine(arena.engine.take()),
            events,
            cpus,
            model: OverheadModel::new(run.calibration, topology, run.load, run.seed),
            gen_counter: 0,
            events_processed: 0,
            signal_scratch,
        }
    }

    /// Extracts the run's measurements and parks every buffer (and the
    /// engine) back in `arena` for the next run. Also returns the
    /// per-tenant QoS accounting, which only the serving layer fills.
    pub(crate) fn park(self, arena: &mut SimArena) -> (Outcome, Vec<(TenantId, QosSummary)>) {
        let SimState {
            mut eng,
            now,
            events_processed,
            events,
            cpus,
            signal_scratch,
            ..
        } = self;
        let out = eng.take_output(now);
        arena.events = events;
        arena.cpus = cpus;
        arena.signal_scratch = signal_scratch;
        arena.engine = Some(eng);
        let outcome = Outcome {
            overheads: out.overheads,
            qos: out.qos,
            trace: out.trace,
            metrics: out.metrics,
            faults: out.faults,
            events_processed,
            ..Default::default()
        };
        (outcome, out.tenant_qos)
    }

    /// The time of the next queued event, if any.
    pub(crate) fn peek_time(&self) -> Option<Time> {
        self.events.peek_time()
    }

    /// Queues the first release of engine task `task` at the current time.
    pub(crate) fn push_release(&mut self, task: usize) {
        self.events.push(
            self.now,
            Event::Release {
                task,
                retried: false,
            },
        );
    }

    /// Queues `plan`'s CPU stall windows; windows on hardware threads the
    /// topology lacks are ignored.
    pub(crate) fn push_stalls(&mut self, plan: &FaultPlan) {
        for stall in plan.stalls() {
            let hw = stall.hw as usize;
            if hw >= self.cpus.len() {
                continue;
            }
            self.events.push(
                stall.at,
                Event::StallStart {
                    hw,
                    duration: stall.duration,
                },
            );
            self.events
                .push(stall.at + stall.duration, Event::StallEnd { hw });
        }
    }

    /// Pops and handles the next event; `false` when the queue is empty.
    pub(crate) fn step(&mut self) -> bool {
        let Some((at, event)) = self.events.pop() else {
            return false;
        };
        debug_assert!(at >= self.now, "event time went backwards");
        self.now = at;
        self.events_processed += 1;
        match event {
            Event::Release { task, retried } => self.on_release(task, retried),
            Event::Ready { work } => self.on_ready(work),
            Event::Complete { hw, gen } => self.on_complete(hw, gen),
            Event::OdExpire { task, seq } => self.on_od_expire(task, seq),
            Event::WindupReady { task, seq } => self.on_windup_ready(task, seq),
            Event::StallStart { hw, duration } => self.on_stall_start(hw, duration),
            Event::StallEnd { hw } => self.on_stall_end(hw),
        }
        true
    }

    // ----- event handlers -------------------------------------------------

    fn on_release(&mut self, task: usize, retried: bool) {
        // A job may complete at the very instant of the next release; the
        // completion event is already queued ahead of us (FIFO), so requeue
        // the release once to let it land before declaring an overrun.
        if self.eng.job_in_flight(task) && !retried {
            self.events.push(
                self.now,
                Event::Release {
                    task,
                    retried: true,
                },
            );
            return;
        }
        // Abort a job that overran into its next release (deadline missed
        // hard): finalize it so the new job starts clean.
        if self.eng.jobs_done(task) > 0 || self.eng.job_in_flight(task) {
            if self.eng.job_in_flight(task) {
                self.abort_job(task);
            }
            if self.eng.task_retired(task) {
                return; // quota exhausted or the tenant departed
            }
        }

        let release = self.now;
        let rel = self.eng.release(task, release);

        // Δm: wake-up latency before the mandatory thread is runnable.
        let dm = self.model.begin_mandatory();
        self.eng.sample(OverheadKind::BeginMandatory, dm);
        self.events.push(
            release + dm,
            Event::Ready {
                work: Work {
                    task,
                    cursor: Cursor::Mandatory,
                },
            },
        );

        // The optional-deadline timer (armed per job; the handler no-ops if
        // the Table I signal-mask defect broke the timer). The fault plan
        // may delay the one-shot or lose it outright.
        if rel.has_parts {
            if let Some(at) = self.eng.arm_timer(task, release) {
                self.events.push(at, Event::OdExpire { task, seq: rel.seq });
            }
        }

        // Periodic releases continue while jobs remain.
        if let Some(at) = rel.next_release {
            self.events.push(
                at,
                Event::Release {
                    task,
                    retried: false,
                },
            );
        }
    }

    fn on_ready(&mut self, work: Work) {
        // A serving tenant may have departed between signalling and
        // readiness.
        if self.eng.task_retired(work.task) && !self.eng.job_in_flight(work.task) {
            return;
        }
        let (hw, prio) = match work.cursor {
            Cursor::Mandatory => {
                (self.eng.mandatory_hw(work.task), self.eng.mand_prio(work.task))
            }
            // The wind-up runs on the federated task's granted core; for
            // everything else `windup_hw` is the (job-bound) mandatory CPU.
            Cursor::Windup => {
                (self.eng.windup_hw(work.task), self.eng.mand_prio(work.task))
            }
            Cursor::Optional(k) => (
                self.eng.placement(work.task, k as usize),
                self.eng.opt_prio(work.task),
            ),
        };
        // Hot path: build the queue event only when someone is recording.
        if self.eng.tracing() {
            let job = self.eng.job(work.task);
            self.eng.trace(
                self.now,
                TraceEvent::Queue {
                    band: QueueBand::of(prio),
                    op: QueueOp::Enqueue,
                    job,
                    hw: Some(HwThreadId(hw as u32)),
                },
            );
        }
        self.cpus[hw].queue.enqueue(prio, work);
        self.resched(hw);
    }

    fn on_complete(&mut self, hw: usize, gen: u64) {
        let Some(running) = self.cpus[hw].running else {
            return;
        };
        if running.gen != gen {
            return; // stale completion (preempted or terminated meanwhile)
        }
        self.cpus[hw].running = None;
        let work = running.work;
        if matches!(work.cursor, Cursor::Mandatory | Cursor::Windup) {
            // Bank what actually ran; the engine cuts the part at its
            // supervisor budget if demand remains.
            let ran = self.now.saturating_elapsed_since(running.since);
            self.eng.bank(work.task, work.cursor, ran);
            self.eng.cut_if_over_budget(work.task, work.cursor, self.now);
        }
        match work.cursor {
            Cursor::Mandatory => {
                let after = self.eng.mandatory_completed(work.task, self.now);
                self.after_mandatory(work.task, after);
            }
            Cursor::Optional(k) => {
                if let Some(cmd) = self.eng.optional_completed(work.task, k, self.now) {
                    self.apply_windup(work.task, cmd);
                }
            }
            Cursor::Windup => {
                self.eng.windup_completed(work.task, self.now);
            }
        }
        self.resched(hw);
    }

    /// Maps the engine's post-mandatory decision onto the event queue: the
    /// Δb `pthread_cond_signal` loop and the Δs mandatory→optional switch
    /// for signalled parts, or the wind-up command otherwise.
    fn after_mandatory(&mut self, task: usize, after: AfterMandatory) {
        match after {
            AfterMandatory::Windup(cmd) => self.apply_windup(task, cmd),
            AfterMandatory::Signal { np } => {
                // Δb: the signal loop over all parallel optional threads,
                // executed sequentially by the mandatory thread. The
                // ready-time buffer is a reused scratch vector (taken out
                // of self to keep the borrow checker happy across the model
                // calls), so the signalling loop allocates nothing after
                // the first job.
                let mut ready_times = std::mem::take(&mut self.signal_scratch);
                ready_times.clear();
                let mut cum = Span::ZERO;
                for _ in 0..np {
                    cum += self.model.signal_one_optional();
                    ready_times.push(self.now + cum);
                }
                self.eng.sample(OverheadKind::BeginOptional, cum);

                // Δs: the mandatory→optional context switch; parts placed
                // on the mandatory thread's own processor additionally wait
                // for it.
                let ds = self.model.switch_to_optional(np);
                self.eng.sample(OverheadKind::SwitchToOptional, ds);

                let mandatory_hw = self.eng.mandatory_hw(task);
                for (k, &base) in ready_times.iter().enumerate() {
                    let at = if self.eng.placement(task, k) == mandatory_hw {
                        base + ds
                    } else {
                        base
                    };
                    self.events.push(
                        at,
                        Event::Ready {
                            work: Work {
                                task,
                                cursor: Cursor::Optional(k as u32),
                            },
                        },
                    );
                }
                self.signal_scratch = ready_times;
            }
        }
    }

    /// Maps a wind-up command onto the event queue (a `Finished` or
    /// `AlreadyScheduled` command needs no mechanism).
    fn apply_windup(&mut self, task: usize, cmd: WindupCommand) {
        if let WindupCommand::At { at, seq } = cmd {
            self.events.push(at, Event::WindupReady { task, seq });
        }
    }

    fn on_od_expire(&mut self, task: usize, seq: u64) {
        match self.eng.od_expired(task, seq, self.now) {
            OdAction::Stale | OdAction::Handled => {}
            OdAction::Terminate { np } => {
                // Terminate every un-ended part, in part order. Termination
                // handling is serialized — the O(npᵢ) mechanism behind
                // Fig. 13 — and hops between cores cost extra under load.
                for k in 0..np {
                    let Some(target) = self.eng.plan_terminate(task, k) else {
                        continue;
                    };
                    let cost = self.model.end_one_part(target.cross_core);
                    self.eng.note_termination_cost(cost);
                    // Remove the part from its processor (running or
                    // queued).
                    self.stop_work(
                        target.hw,
                        Work {
                            task,
                            cursor: Cursor::Optional(k as u32),
                        },
                        target.prio,
                    );
                    self.eng.commit_terminate(task, k, self.now);
                }
                let cmd = self.eng.finish_termination(task, self.now);
                self.apply_windup(task, cmd);
            }
        }
    }

    fn on_windup_ready(&mut self, task: usize, seq: u64) {
        if self.eng.windup_ready(task, seq, self.now) {
            self.on_ready(Work {
                task,
                cursor: Cursor::Windup,
            });
        }
    }

    fn on_stall_start(&mut self, hw: usize, duration: Span) {
        self.eng.stall_started(hw, duration, self.now);
        self.cpus[hw].stalled += 1;
        // Whatever was running loses the processor; its banked progress is
        // kept and it resumes at the head of its priority level when the
        // stall window closes.
        if let Some(r) = self.cpus[hw].running.take() {
            let ran = self.now.saturating_elapsed_since(r.since);
            self.eng.bank(r.work.task, r.work.cursor, ran);
            self.cpus[hw].queue.enqueue_front(r.prio, r.work);
        }
    }

    fn on_stall_end(&mut self, hw: usize) {
        self.cpus[hw].stalled = self.cpus[hw].stalled.saturating_sub(1);
        if self.cpus[hw].stalled == 0 {
            self.resched(hw);
        }
    }

    // ----- helpers --------------------------------------------------------

    /// Forcibly ends `task`'s in-flight job: at its next release (a hard
    /// deadline miss) or when its serving tenant leaves.
    pub(crate) fn abort_job(&mut self, task: usize) {
        // Scrub real-time work (the wind-up may live on a federated
        // task's granted core rather than the mandatory CPU).
        let mand_hw = self.eng.mandatory_hw(task);
        let windup_hw = self.eng.windup_hw(task);
        let mand_prio = self.eng.mand_prio(task);
        self.stop_work(
            mand_hw,
            Work {
                task,
                cursor: Cursor::Mandatory,
            },
            mand_prio,
        );
        self.stop_work(
            windup_hw,
            Work {
                task,
                cursor: Cursor::Windup,
            },
            mand_prio,
        );
        // Scrub optional work and finalize outcomes.
        for k in 0..self.eng.part_count(task) {
            if self.eng.part_ended(task, k) {
                continue;
            }
            let hw = self.eng.placement(task, k);
            let opt_prio = self.eng.opt_prio(task);
            self.stop_work(
                hw,
                Work {
                    task,
                    cursor: Cursor::Optional(k as u32),
                },
                opt_prio,
            );
            self.eng.abort_part(task, k, self.now);
        }
        self.eng.finish_abort(task, self.now);
    }

    /// Stops `work` on `hw` whether it is currently running or queued.
    fn stop_work(&mut self, hw: usize, work: Work, prio: Priority) {
        let cpu = &mut self.cpus[hw];
        if cpu.running.is_some_and(|r| r.work == work) {
            let r = cpu.running.take().expect("checked");
            // Bank the execution it achieved up to now.
            let ran = self.now.saturating_elapsed_since(r.since);
            self.eng.bank(work.task, work.cursor, ran);
            self.resched(hw);
        } else if self.cpus[hw].queue.remove(prio, &work) && self.eng.tracing() {
            let job = self.eng.job(work.task);
            self.eng.trace(
                self.now,
                TraceEvent::Queue {
                    band: QueueBand::of(prio),
                    op: QueueOp::Remove,
                    job,
                    hw: Some(HwThreadId(hw as u32)),
                },
            );
        }
    }

    /// SCHED_FIFO dispatch for one processor: preempt if a higher-priority
    /// thread is waiting, then fill an idle processor with the best thread.
    fn resched(&mut self, hw: usize) {
        // A stalled hardware thread dispatches nothing until the window
        // closes (the stall handler already vacated it).
        if self.cpus[hw].stalled > 0 {
            return;
        }
        // Preemption check.
        if let Some(running) = self.cpus[hw].running {
            let waiting = self.cpus[hw].queue.peek_highest_priority();
            if waiting.is_some_and(|p| p > running.prio) {
                self.cpus[hw].running = None;
                let ran = self.now.saturating_elapsed_since(running.since);
                self.eng.bank(running.work.task, running.work.cursor, ran);
                // Preempted SCHED_FIFO threads resume at the head of their
                // level.
                self.cpus[hw]
                    .queue
                    .enqueue_front(running.prio, running.work);
            } else {
                return;
            }
        }
        // Dispatch the best waiting thread.
        let Some((prio, work)) = self.cpus[hw].queue.dequeue_highest() else {
            return;
        };
        if self.eng.tracing() {
            let job = self.eng.job(work.task);
            self.eng.trace(
                self.now,
                TraceEvent::Queue {
                    band: QueueBand::of(prio),
                    op: QueueOp::Dispatch,
                    job,
                    hw: Some(HwThreadId(hw as u32)),
                },
            );
        }
        let remaining = self.eng.on_dispatch(work.task, work.cursor, hw, self.now);
        self.gen_counter += 1;
        let gen = self.gen_counter;
        self.cpus[hw].running = Some(Running {
            work,
            prio,
            since: self.now,
            gen,
        });
        self.events.push(self.now + remaining, Event::Complete { hw, gen });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::AssignmentPolicy;
    use crate::supervisor::SupervisorConfig;
    use crate::termination::TerminationMode;
    use rtseed_model::{TaskId, TaskSet, TaskSpec, Topology};
    use rtseed_sim::{FaultPlan, FaultTarget, TimerFault};

    fn paper_set(np: usize) -> TaskSet {
        let t = TaskSpec::builder("τ1")
            .period(Span::from_secs(1))
            .mandatory(Span::from_millis(250))
            .windup(Span::from_millis(250))
            .optional_parts(np, Span::from_secs(1))
            .build()
            .unwrap();
        TaskSet::new(vec![t]).unwrap()
    }

    fn executor(np: usize, policy: AssignmentPolicy, run: RunConfig) -> SimExecutor {
        let cfg =
            SystemConfig::build(paper_set(np), Topology::xeon_phi_3120a(), policy).unwrap();
        SimExecutor::new(cfg, run)
    }

    fn quick_run(np: usize, jobs: u64) -> Outcome {
        executor(
            np,
            AssignmentPolicy::OneByOne,
            RunConfig {
                jobs,
                trace: crate::obs::TraceConfig::enabled(),
                ..Default::default()
            },
        )
        .run()
    }

    #[test]
    fn paper_workload_no_misses() {
        let out = quick_run(57, 10);
        assert_eq!(out.qos.jobs(), 10);
        assert_eq!(out.qos.deadline_misses(), 0);
    }

    #[test]
    fn overrunning_parts_are_terminated_not_completed() {
        // o = 1 s but only 500 ms fit between OD and the earliest start:
        // every part is terminated.
        let out = quick_run(57, 5);
        let (completed, terminated, discarded) = out.qos.outcome_totals();
        assert_eq!(completed, 0);
        assert_eq!(terminated, 57 * 5);
        assert_eq!(discarded, 0);
    }

    #[test]
    fn overhead_sample_counts() {
        let jobs = 8;
        let out = quick_run(16, jobs);
        for kind in OverheadKind::ALL {
            assert_eq!(out.overheads.count(kind), jobs as usize, "{kind:?}");
        }
    }

    #[test]
    fn qos_achieved_matches_window() {
        // Parts start right after the mandatory part (~250 ms) and are
        // terminated at OD (750 ms): achieved ≈ 500 ms each (minus
        // signalling overheads).
        let out = quick_run(8, 3);
        let per_part = out.qos.achieved_total() / (8 * 3) as u64;
        assert!(
            per_part > Span::from_millis(520) && per_part < Span::from_millis(575),
            "{per_part}"
        );
    }

    #[test]
    fn short_parts_complete_early() {
        // 50 ms optional parts easily finish inside the 500 ms window.
        let t = TaskSpec::builder("τ1")
            .period(Span::from_secs(1))
            .mandatory(Span::from_millis(250))
            .windup(Span::from_millis(250))
            .optional_parts(4, Span::from_millis(50))
            .build()
            .unwrap();
        let cfg = SystemConfig::build(
            TaskSet::new(vec![t]).unwrap(),
            Topology::xeon_phi_3120a(),
            AssignmentPolicy::OneByOne,
        )
        .unwrap();
        let out = SimExecutor::new(
            cfg,
            RunConfig {
                jobs: 5,
                ..Default::default()
            },
        )
        .run();
        let (completed, terminated, discarded) = out.qos.outcome_totals();
        assert_eq!(completed, 20);
        assert_eq!(terminated, 0);
        assert_eq!(discarded, 0);
        assert_eq!(out.qos.deadline_misses(), 0);
        assert!((out.qos.aggregate_ratio() - 1.0).abs() < 1e-9);
        // No termination happened, so no Δe samples.
        assert_eq!(out.overheads.count(OverheadKind::EndOptional), 0);
    }

    #[test]
    fn trace_contains_full_job_lifecycle() {
        let out = quick_run(4, 1);
        let events = &out.trace;
        assert_eq!(events.count(|e| matches!(e, TraceEvent::JobReleased { .. })), 1);
        assert_eq!(
            events.count(|e| matches!(e, TraceEvent::MandatoryStarted { .. })),
            1
        );
        assert_eq!(
            events.count(|e| matches!(e, TraceEvent::MandatoryCompleted { .. })),
            1
        );
        assert_eq!(
            events.count(|e| matches!(e, TraceEvent::OptionalStarted { .. })),
            4
        );
        assert_eq!(
            events.count(|e| matches!(e, TraceEvent::OptionalEnded { .. })),
            4
        );
        assert_eq!(
            events.count(|e| matches!(e, TraceEvent::WindupCompleted { .. })),
            1
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let a = quick_run(32, 5);
        let b = quick_run(32, 5);
        assert_eq!(a.qos, b.qos);
        assert_eq!(a.overheads, b.overheads);
        assert_eq!(a.trace, b.trace);
        assert!(a.faults.is_clean());
    }

    #[test]
    fn arena_reuse_is_observably_identical_to_fresh_runs() {
        // One hot arena across heterogeneous back-to-back runs (different
        // np, topology, jobs, faults) must reproduce what a cold executor
        // produces for each — i.e. the arena carries no cross-run state.
        let mut arena = SimArena::new();
        let runs: Vec<SimExecutor> = vec![
            executor(
                32,
                AssignmentPolicy::AllByAll,
                RunConfig {
                    jobs: 5,
                    trace: crate::obs::TraceConfig::enabled(),
                    ..Default::default()
                },
            ),
            // Smaller topology than the previous run: the CPU vector must
            // shrink, and stale queues on dropped CPUs must not leak.
            {
                let t = TaskSpec::builder("small")
                    .period(Span::from_millis(100))
                    .mandatory(Span::from_millis(10))
                    .windup(Span::from_millis(10))
                    .optional_parts(2, Span::from_millis(100))
                    .build()
                    .unwrap();
                SimExecutor::new(
                    SystemConfig::build(
                        TaskSet::new(vec![t]).unwrap(),
                        Topology::uniprocessor(),
                        AssignmentPolicy::OneByOne,
                    )
                    .unwrap(),
                    RunConfig {
                        jobs: 3,
                        seed: 7,
                        ..Default::default()
                    },
                )
            },
            executor(
                8,
                AssignmentPolicy::TwoByTwo,
                RunConfig {
                    jobs: 6,
                    seed: 99,
                    fault_plan: FaultPlan::new(99).with_random_overruns(
                        rtseed_sim::RandomOverruns {
                            probability: 0.4,
                            min_factor: 2.0,
                            max_factor: 6.0,
                            target: FaultTarget::Mandatory,
                        },
                    ),
                    supervisor: SupervisorConfig::armed(),
                    trace: crate::obs::TraceConfig::enabled(),
                    ..Default::default()
                },
            ),
            executor(
                4,
                AssignmentPolicy::OneByOne,
                RunConfig {
                    jobs: 0,
                    ..Default::default()
                },
            ),
        ];
        for (i, exec) in runs.iter().enumerate() {
            let hot = exec.run_in(&mut arena);
            let cold = exec.run();
            assert_eq!(hot.qos, cold.qos, "run {i}: qos diverged");
            assert_eq!(hot.overheads, cold.overheads, "run {i}: overheads diverged");
            assert_eq!(hot.trace, cold.trace, "run {i}: trace diverged");
            assert_eq!(hot.faults, cold.faults, "run {i}: faults diverged");
            assert_eq!(
                hot.events_processed, cold.events_processed,
                "run {i}: event count diverged"
            );
        }
    }

    #[test]
    fn arena_repeats_same_run_identically() {
        let exec = executor(
            16,
            AssignmentPolicy::OneByOne,
            RunConfig {
                jobs: 4,
                trace: crate::obs::TraceConfig::enabled(),
                ..Default::default()
            },
        );
        let mut arena = SimArena::new();
        let a = exec.run_in(&mut arena);
        let b = exec.run_in(&mut arena);
        assert_eq!(a.qos, b.qos);
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.events_processed, b.events_processed);
    }

    fn mandatory_fault_plan(factor: f64, jobs: rtseed_sim::JobWindow) -> FaultPlan {
        FaultPlan::new(1).with_wcet_fault(rtseed_sim::WcetFault {
            task: None,
            jobs,
            target: FaultTarget::Mandatory,
            factor,
        })
    }

    #[test]
    fn wcet_fault_without_supervisor_misses_deadlines() {
        // 5× the mandatory demand (0.75 × 250 ms × 5 = 937.5 ms) blows past
        // the optional deadline and leaves no room for the wind-up part.
        let out = executor(
            4,
            AssignmentPolicy::OneByOne,
            RunConfig {
                jobs: 4,
                fault_plan: mandatory_fault_plan(5.0, rtseed_sim::JobWindow::ALL),
                ..Default::default()
            },
        )
        .run();
        assert_eq!(out.qos.deadline_misses(), 4);
        assert_eq!(out.faults.wcet_faults, 4);
        // Unsupervised: faults observed, nothing cut, nothing degraded.
        assert_eq!(out.faults.budget_cuts, 0);
        assert_eq!(out.faults.degraded_entries, 0);
    }

    #[test]
    fn supervisor_budget_cut_preserves_deadlines_under_same_fault() {
        let out = executor(
            4,
            AssignmentPolicy::OneByOne,
            RunConfig {
                jobs: 4,
                fault_plan: mandatory_fault_plan(5.0, rtseed_sim::JobWindow::ALL),
                supervisor: SupervisorConfig::armed(),
                trace: crate::obs::TraceConfig::enabled(),
                ..Default::default()
            },
        )
        .run();
        // Every mandatory part is cut at its declared budget, so the
        // analysed schedule holds: zero misses.
        assert_eq!(out.qos.deadline_misses(), 0);
        assert_eq!(out.faults.budget_cuts, 4);
        assert_eq!(out.faults.overruns_detected, 4);
        // Sustained overrun ⇒ degraded mode (entered at the 2nd cut) and
        // eventually quarantine (3rd consecutive overrun).
        assert_eq!(out.faults.degraded_entries, 1);
        assert_eq!(out.faults.quarantines, 1);
        assert_eq!(out.faults.jobs_degraded, 3, "jobs 1..=3 shed optional");
        assert_eq!(out.qos.degraded_jobs(), 3);
        assert!(out.faults.degraded_dwell > Span::ZERO);
        assert_eq!(
            out.trace
                .count(|e| matches!(e, TraceEvent::BudgetCut { .. })),
            4
        );
        assert_eq!(
            out.trace
                .count(|e| matches!(e, TraceEvent::DegradedModeEntered)),
            1
        );
    }

    #[test]
    fn supervisor_recovers_when_the_fault_clears() {
        // Fault the first two jobs only; the remaining clean jobs must
        // bring the system back to normal mode with full QoS.
        let out = executor(
            4,
            AssignmentPolicy::OneByOne,
            RunConfig {
                jobs: 8,
                fault_plan: mandatory_fault_plan(5.0, rtseed_sim::JobWindow::new(0, 2)),
                supervisor: SupervisorConfig::armed(),
                trace: crate::obs::TraceConfig::enabled(),
                ..Default::default()
            },
        )
        .run();
        assert_eq!(out.qos.deadline_misses(), 0);
        assert_eq!(out.faults.degraded_entries, 1);
        assert!(out.faults.recovery_latency > Span::ZERO);
        assert_eq!(
            out.trace
                .count(|e| matches!(e, TraceEvent::DegradedModeExited)),
            1
        );
        // Post-recovery jobs deliver optional QoS again.
        let (_, terminated, discarded) = out.qos.outcome_totals();
        assert!(terminated > 0, "recovered jobs run optional parts");
        assert!(discarded > 0, "degraded jobs shed optional parts");
    }

    #[test]
    fn lost_timer_fault_breaks_one_job() {
        let plan = FaultPlan::new(0).with_timer_fault(rtseed_sim::TimerFaultSpec {
            task: None,
            jobs: rtseed_sim::JobWindow::new(0, 1),
            fault: TimerFault::Lost,
        });
        let out = executor(
            4,
            AssignmentPolicy::OneByOne,
            RunConfig {
                jobs: 3,
                fault_plan: plan,
                ..Default::default()
            },
        )
        .run();
        // Job 0's parts (o = 1 s) run unchecked until the next release
        // aborts the job; jobs 1–2 are healthy.
        assert_eq!(out.qos.deadline_misses(), 1);
        assert_eq!(out.faults.timer_faults, 1);
    }

    #[test]
    fn delayed_timer_extends_optional_window() {
        let delayed = |d_ms| {
            executor(
                2,
                AssignmentPolicy::OneByOne,
                RunConfig {
                    jobs: 2,
                    fault_plan: FaultPlan::new(0).with_timer_fault(
                        rtseed_sim::TimerFaultSpec {
                            task: None,
                            jobs: rtseed_sim::JobWindow::ALL,
                            fault: TimerFault::Delay(Span::from_millis(d_ms)),
                        },
                    ),
                    ..Default::default()
                },
            )
            .run()
        };
        let on_time = quick_run(2, 2);
        let late = delayed(30);
        // Parts keep executing during the latency spike...
        assert!(late.qos.achieved_total() > on_time.qos.achieved_total());
        // ...and a 30 ms spike fits inside the wind-up slack
        // (1000 − 750 − 187.5 ≈ 62 ms), so deadlines still hold.
        assert_eq!(late.qos.deadline_misses(), 0);
        assert_eq!(late.faults.timer_faults, 2);
        // A spike larger than the slack pushes the wind-up past the
        // deadline.
        assert_eq!(delayed(100).qos.deadline_misses(), 2);
    }

    #[test]
    fn cpu_stall_starves_the_pinned_mandatory_thread() {
        let plan = FaultPlan::new(0).with_cpu_stall(rtseed_sim::CpuStall {
            hw: 0,
            at: Time::ZERO,
            duration: Span::from_millis(900),
        });
        let out = executor(
            4,
            AssignmentPolicy::OneByOne,
            RunConfig {
                jobs: 3,
                fault_plan: plan,
                trace: crate::obs::TraceConfig::enabled(),
                ..Default::default()
            },
        )
        .run();
        // Job 0 cannot start its mandatory part until 900 ms and is aborted
        // by the next release; later jobs are healthy.
        assert_eq!(out.qos.deadline_misses(), 1);
        assert_eq!(out.faults.cpu_stalls, 1);
        assert_eq!(
            out.trace
                .count(|e| matches!(e, TraceEvent::CpuStallStarted { .. })),
            1
        );
    }

    #[test]
    fn faulted_run_replays_bit_identically() {
        let run = || {
            executor(
                8,
                AssignmentPolicy::OneByOne,
                RunConfig {
                    jobs: 6,
                    fault_plan: FaultPlan::new(99)
                        .with_random_overruns(rtseed_sim::RandomOverruns {
                            probability: 0.4,
                            min_factor: 2.0,
                            max_factor: 6.0,
                            target: FaultTarget::Mandatory,
                        })
                        .with_cpu_stall(rtseed_sim::CpuStall {
                            hw: 1,
                            at: Time::from_nanos(2_300_000_000),
                            duration: Span::from_millis(40),
                        }),
                    supervisor: SupervisorConfig::armed(),
                    trace: crate::obs::TraceConfig::enabled(),
                    ..Default::default()
                },
            )
            .run()
        };
        let a = run();
        let b = run();
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.qos, b.qos);
        assert_eq!(a.faults, b.faults);
        assert!(!a.faults.is_clean());
    }

    #[test]
    fn zero_jobs_is_empty_run() {
        let out = executor(
            4,
            AssignmentPolicy::OneByOne,
            RunConfig {
                jobs: 0,
                ..Default::default()
            },
        )
        .run();
        assert_eq!(out.qos.jobs(), 0);
    }

    #[test]
    fn plain_liu_layland_task_runs() {
        let t = TaskSpec::builder("plain")
            .period(Span::from_millis(100))
            .mandatory(Span::from_millis(30))
            .build()
            .unwrap();
        let cfg = SystemConfig::build(
            TaskSet::new(vec![t]).unwrap(),
            Topology::uniprocessor(),
            AssignmentPolicy::OneByOne,
        )
        .unwrap();
        let out = SimExecutor::new(
            cfg,
            RunConfig {
                jobs: 10,
                ..Default::default()
            },
        )
        .run();
        assert_eq!(out.qos.jobs(), 10);
        assert_eq!(out.qos.deadline_misses(), 0);
        assert!((out.qos.aggregate_ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn two_colocated_tasks_interfere_but_meet_deadlines() {
        let mk = |name: &str, period_ms: u64| {
            TaskSpec::builder(name)
                .period(Span::from_millis(period_ms))
                .mandatory(Span::from_millis(10))
                .windup(Span::from_millis(10))
                .optional_parts(2, Span::from_millis(period_ms))
                .build()
                .unwrap()
        };
        let set = TaskSet::new(vec![mk("fast", 100), mk("slow", 400)]).unwrap();
        let cfg =
            SystemConfig::build(set, Topology::uniprocessor(), AssignmentPolicy::OneByOne)
                .unwrap();
        let out = SimExecutor::new(
            cfg,
            RunConfig {
                jobs: 8,
                ..Default::default()
            },
        )
        .run();
        assert_eq!(out.qos.jobs(), 16);
        assert_eq!(out.qos.deadline_misses(), 0);
    }

    #[test]
    fn periodic_check_delays_windup_but_gains_qos() {
        let sig = executor(
            8,
            AssignmentPolicy::OneByOne,
            RunConfig {
                jobs: 5,
                ..Default::default()
            },
        )
        .run();
        let pc = executor(
            8,
            AssignmentPolicy::OneByOne,
            RunConfig {
                jobs: 5,
                termination: TerminationMode::PeriodicCheck {
                    interval: Span::from_millis(40),
                },
                ..Default::default()
            },
        )
        .run();
        // The cooperative mode keeps running until the next checkpoint:
        // more achieved optional execution, larger Δe (lag included).
        assert!(pc.qos.achieved_total() > sig.qos.achieved_total());
        assert!(
            pc.overheads.mean(OverheadKind::EndOptional)
                > sig.overheads.mean(OverheadKind::EndOptional)
        );
        // With a 40 ms interval and 250 ms of wind-up slack, deadlines
        // still hold.
        assert_eq!(pc.qos.deadline_misses(), 0);
    }

    #[test]
    fn unwind_defect_breaks_later_jobs() {
        // Table I: try-catch does not restore the signal mask; after the
        // first job, optional-deadline timers never fire, parts run to
        // completion (1 s each!) and wind-up parts miss deadlines.
        let out = executor(
            4,
            AssignmentPolicy::OneByOne,
            RunConfig {
                jobs: 4,
                termination: TerminationMode::UnwindCatch,
                ..Default::default()
            },
        )
        .run();
        assert!(
            out.qos.deadline_misses() >= 2,
            "expected later jobs to miss deadlines, got {}",
            out.qos.deadline_misses()
        );
        // The healthy mechanism has zero misses on the same workload.
        let healthy = executor(
            4,
            AssignmentPolicy::OneByOne,
            RunConfig {
                jobs: 4,
                termination: TerminationMode::SigjmpTimer,
                ..Default::default()
            },
        )
        .run();
        assert_eq!(healthy.qos.deadline_misses(), 0);
    }

    #[test]
    fn mandatory_overrunning_od_discards_all_parts() {
        // m = 950 ms WCET with rt_exec_fraction = 1.0 completes exactly at
        // OD = D − w = 950 ms: no time remains, every part is discarded
        // and the wind-up part runs right after the mandatory part (§II-B).
        let t = TaskSpec::builder("late")
            .period(Span::from_secs(1))
            .mandatory(Span::from_millis(950))
            .windup(Span::from_millis(50))
            .optional_parts(4, Span::from_millis(100))
            .build()
            .unwrap();
        let cfg = SystemConfig::build(
            TaskSet::new(vec![t]).unwrap(),
            Topology::xeon_phi_3120a(),
            AssignmentPolicy::OneByOne,
        )
        .unwrap();
        let zero_dm = rtseed_sim::Calibration {
            begin_mandatory_ns: 0,
            jitter: 0.0,
            ..rtseed_sim::Calibration::default()
        };
        let out = SimExecutor::new(
            cfg,
            RunConfig {
                jobs: 3,
                rt_exec_fraction: 1.0,
                calibration: zero_dm,
                ..Default::default()
            },
        )
        .run();
        let (completed, terminated, discarded) = out.qos.outcome_totals();
        assert_eq!(discarded, 12, "c/t = {completed}/{terminated}");
        assert_eq!(completed + terminated, 0);
        // The wind-up still fits: 950 + 50 = 1000 = D.
        assert_eq!(out.qos.deadline_misses(), 0);
        // No signalling happened, so no Δb/Δs/Δe samples.
        assert_eq!(out.overheads.count(OverheadKind::BeginOptional), 0);
        assert_eq!(out.overheads.count(OverheadKind::EndOptional), 0);
    }

    #[test]
    fn rt_parts_preempt_optional_parts_on_shared_thread() {
        // Task A (higher RM rank by insertion-order tie) shares the single
        // hw thread with task B: B's optional window is squeezed by A's
        // mandatory part and bounded by B's interference-shrunk OD.
        let a = TaskSpec::builder("a")
            .period(Span::from_secs(1))
            .mandatory(Span::from_millis(200))
            .windup(Span::from_millis(200))
            .optional_parts(1, Span::from_millis(1))
            .build()
            .unwrap();
        let b = TaskSpec::builder("b")
            .period(Span::from_secs(1))
            .mandatory(Span::from_millis(50))
            .windup(Span::from_millis(50))
            .optional_parts(1, Span::from_secs(1))
            .build()
            .unwrap();
        let cfg = SystemConfig::build(
            TaskSet::new(vec![a, b]).unwrap(),
            Topology::uniprocessor(),
            AssignmentPolicy::OneByOne,
        )
        .unwrap();
        // B's wind-up response under A's interference: R = 50 + 400 = 450,
        // so OD_B = 550 ms.
        assert_eq!(cfg.optional_deadline(TaskId(1)), Span::from_millis(550));
        let out = SimExecutor::new(
            cfg,
            RunConfig {
                jobs: 2,
                ..Default::default()
            },
        )
        .run();
        assert_eq!(out.qos.deadline_misses(), 0);
        // Per job: A's mandatory runs 0–150 ms (0.75 × 200), B's mandatory
        // 150–187.5, B's optional then runs until OD_B = 550, minus A's
        // tiny optional part: ≈ 360 ms. Two jobs ⇒ ≈ 720 ms total.
        let achieved = out.qos.achieved_total();
        assert!(
            achieved > Span::from_millis(2 * 320) && achieved < Span::from_millis(2 * 380),
            "preempted optional window should be ≈ 360 ms/job: {achieved}"
        );
    }

    #[test]
    fn shared_hw_thread_serializes_optional_parts() {
        // 8 optional parts on a uniprocessor: all run (serialized) on the
        // single hardware thread; total achieved is bounded by the OD
        // window, far below 8 × window.
        let t = TaskSpec::builder("uni")
            .period(Span::from_secs(1))
            .mandatory(Span::from_millis(100))
            .windup(Span::from_millis(100))
            .optional_parts(8, Span::from_secs(1))
            .build()
            .unwrap();
        let cfg = SystemConfig::build(
            TaskSet::new(vec![t]).unwrap(),
            Topology::uniprocessor(),
            AssignmentPolicy::OneByOne,
        )
        .unwrap();
        let out = SimExecutor::new(
            cfg,
            RunConfig {
                jobs: 2,
                ..Default::default()
            },
        )
        .run();
        // OD = 900 ms, mandatory done ~75 ms (0.75 × 100 ms WCET):
        // ~825 ms of serialized optional execution per job.
        let per_job = out.qos.achieved_total() / 2;
        assert!(
            per_job > Span::from_millis(780) && per_job < Span::from_millis(830),
            "{per_job}"
        );
        assert_eq!(out.qos.deadline_misses(), 0);
    }
}
