//! Semi-fixed-priority analysis for the **practical imprecise computation
//! model** (multiple mandatory parts) — the paper's future work (§VII),
//! reconstructed along the same lines as the RMWP analysis in
//! [`crate::rmwp`]:
//!
//! * every mandatory part of every task runs at the task's (RM) fixed
//!   priority; optional parts never interfere with mandatory parts
//!   (the multi-stage analogue of the paper's Theorem 1);
//! * stage *j*'s optional deadline `OD_j` is the latest point at which
//!   the *remaining* mandatory demand `Σ_{i>j} m_i` still provably
//!   finishes by the deadline:
//!   `OD_j = D − R(Σ_{i>j} m_i)` with the standard RTA fixpoint over
//!   higher-priority tasks' total mandatory demand;
//! * the set is schedulable iff for every task and stage,
//!   `R(Σ_{i≤j} m_i) ≤ OD_j` — the prefix provably completes before the
//!   point where its successor must start.
//!
//! For two-stage tasks this reduces exactly to the RMWP analysis (see the
//! cross-check test).

use core::fmt;

use rtseed_model::practical::PracticalTaskSpec;
use rtseed_model::{Span, TaskId};
use serde::{Deserialize, Serialize};

use crate::rta::{response_time, Interferer, RtaError};

/// A set of practical imprecise tasks (one processor's partition).
#[derive(Debug, Clone, PartialEq)]
pub struct PracticalTaskSet {
    tasks: Vec<PracticalTaskSpec>,
}

impl PracticalTaskSet {
    /// Creates a set.
    ///
    /// # Errors
    ///
    /// Returns [`PracticalError::Empty`] if `tasks` is empty.
    pub fn new(tasks: Vec<PracticalTaskSpec>) -> Result<PracticalTaskSet, PracticalError> {
        if tasks.is_empty() {
            return Err(PracticalError::Empty);
        }
        Ok(PracticalTaskSet { tasks })
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Always `false` for a constructed set.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// The task with the given id.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn task(&self, id: TaskId) -> &PracticalTaskSpec {
        &self.tasks[id.index()]
    }

    /// Ids in Rate Monotonic order.
    pub fn rm_order(&self) -> Vec<TaskId> {
        let mut ids: Vec<TaskId> = (0..self.tasks.len() as u32).map(TaskId).collect();
        ids.sort_by_key(|id| (self.tasks[id.index()].period(), id.0));
        ids
    }
}

/// Per-task, per-stage optional deadlines for a practical task set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PracticalAnalysis {
    // optional_deadline[task][stage]: termination point of stage's
    // optional parts (last stage's entry equals the deadline).
    optional_deadline: Vec<Vec<Span>>,
    prefix_response: Vec<Vec<Span>>,
}

impl PracticalAnalysis {
    /// Analyzes `set` under multi-stage semi-fixed-priority scheduling on
    /// one processor.
    ///
    /// # Errors
    ///
    /// [`PracticalError::Unschedulable`] naming the first failing task and
    /// stage.
    pub fn analyze(set: &PracticalTaskSet) -> Result<PracticalAnalysis, PracticalError> {
        let order = set.rm_order();
        let n = set.len();
        let mut optional_deadline = vec![Vec::new(); n];
        let mut prefix_response = vec![Vec::new(); n];

        for (rank, &id) in order.iter().enumerate() {
            let spec = set.task(id);
            let hp: Vec<Interferer> = order[..rank]
                .iter()
                .map(|&j| {
                    let s = set.task(j);
                    Interferer {
                        period: s.period(),
                        demand: s.total_mandatory(),
                    }
                })
                .collect();

            let stages = spec.stages().len();
            let mut ods = Vec::with_capacity(stages);
            let mut prefixes = Vec::with_capacity(stages);
            for j in 0..stages {
                let remaining = spec.remaining_mandatory_after(j);
                let od = if remaining.is_zero() {
                    spec.deadline()
                } else {
                    let r_rem = response_time(remaining, &hp, spec.deadline(), Span::ZERO).map_err(
                        |source| PracticalError::Unschedulable {
                            task: id,
                            stage: j,
                            source,
                        },
                    )?;
                    spec.deadline() - r_rem
                };
                let prefix = spec.mandatory_through(j);
                let r_prefix =
                    response_time(prefix, &hp, od, Span::ZERO).map_err(|source| {
                        PracticalError::Unschedulable {
                            task: id,
                            stage: j,
                            source,
                        }
                    })?;
                ods.push(od);
                prefixes.push(r_prefix);
            }
            optional_deadline[id.index()] = ods;
            prefix_response[id.index()] = prefixes;
        }

        Ok(PracticalAnalysis {
            optional_deadline,
            prefix_response,
        })
    }

    /// The optional deadline of `task`'s stage `stage` (relative to
    /// release). The last stage's value equals the task deadline.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn optional_deadline(&self, task: TaskId, stage: usize) -> Span {
        self.optional_deadline[task.index()][stage]
    }

    /// Worst-case response time of the mandatory prefix through `stage`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn prefix_response(&self, task: TaskId, stage: usize) -> Span {
        self.prefix_response[task.index()][stage]
    }
}

/// Errors from practical-model analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum PracticalError {
    /// The set contained no tasks.
    Empty,
    /// A stage's mandatory chain misses its bound.
    Unschedulable {
        /// The failing task.
        task: TaskId,
        /// The failing stage index.
        stage: usize,
        /// Underlying RTA failure.
        source: RtaError,
    },
}

impl fmt::Display for PracticalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PracticalError::Empty => write!(f, "practical task set is empty"),
            PracticalError::Unschedulable { task, stage, .. } => {
                write!(f, "task {task} stage {stage} is unschedulable")
            }
        }
    }
}

impl std::error::Error for PracticalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PracticalError::Empty => None,
            PracticalError::Unschedulable { source, .. } => Some(source),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rmwp::RmwpAnalysis;
    use rtseed_model::practical::Stage;
    use rtseed_model::TaskSet;

    fn ms(v: u64) -> Span {
        Span::from_millis(v)
    }

    fn two_stage(period: u64, m: u64, w: u64) -> PracticalTaskSpec {
        PracticalTaskSpec::new(
            format!("p{period}"),
            ms(period),
            vec![
                Stage::new(ms(m), vec![ms(period)]).unwrap(),
                Stage::new(ms(w), vec![]).unwrap(),
            ],
        )
        .unwrap()
    }

    #[test]
    fn single_two_stage_matches_rmwp() {
        // The paper's evaluation task expressed as a practical task.
        let pset = PracticalTaskSet::new(vec![two_stage(1000, 250, 250)]).unwrap();
        let pa = PracticalAnalysis::analyze(&pset).unwrap();
        assert_eq!(pa.optional_deadline(TaskId(0), 0), ms(750));
        assert_eq!(pa.optional_deadline(TaskId(0), 1), ms(1000));
        assert_eq!(pa.prefix_response(TaskId(0), 0), ms(250));
    }

    #[test]
    fn cross_check_with_rmwp_under_interference() {
        // Two co-located tasks: the practical analysis of two-stage tasks
        // must agree with the RMWP analysis of the equivalent extended
        // tasks.
        let p1 = two_stage(100, 10, 10);
        let p2 = two_stage(1000, 100, 100);
        let pset = PracticalTaskSet::new(vec![p1.clone(), p2.clone()]).unwrap();
        let pa = PracticalAnalysis::analyze(&pset).unwrap();

        let eset = TaskSet::new(vec![
            p1.to_extended().unwrap(),
            p2.to_extended().unwrap(),
        ])
        .unwrap();
        let ra = RmwpAnalysis::analyze(&eset).unwrap();

        for id in [TaskId(0), TaskId(1)] {
            assert_eq!(
                pa.optional_deadline(id, 0),
                ra.optional_deadline(id),
                "{id}"
            );
        }
    }

    #[test]
    fn three_stage_ods_are_monotone() {
        let t = PracticalTaskSpec::new(
            "multi",
            ms(1000),
            vec![
                Stage::new(ms(100), vec![ms(500)]).unwrap(),
                Stage::new(ms(150), vec![ms(500)]).unwrap(),
                Stage::new(ms(50), vec![]).unwrap(),
            ],
        )
        .unwrap();
        let pset = PracticalTaskSet::new(vec![t]).unwrap();
        let pa = PracticalAnalysis::analyze(&pset).unwrap();
        // OD_0 = 1000 − (150 + 50) = 800; OD_1 = 1000 − 50 = 950;
        // OD_2 = deadline.
        assert_eq!(pa.optional_deadline(TaskId(0), 0), ms(800));
        assert_eq!(pa.optional_deadline(TaskId(0), 1), ms(950));
        assert_eq!(pa.optional_deadline(TaskId(0), 2), ms(1000));
        // Prefix responses are monotone and within their ODs.
        assert!(pa.prefix_response(TaskId(0), 0) <= pa.optional_deadline(TaskId(0), 0));
        assert!(pa.prefix_response(TaskId(0), 1) <= pa.optional_deadline(TaskId(0), 1));
        assert!(
            pa.prefix_response(TaskId(0), 0) < pa.prefix_response(TaskId(0), 1)
        );
    }

    #[test]
    fn interference_shrinks_every_stage_od() {
        let hi = two_stage(100, 10, 10);
        let multi = PracticalTaskSpec::new(
            "multi",
            ms(1000),
            vec![
                Stage::new(ms(100), vec![ms(100)]).unwrap(),
                Stage::new(ms(100), vec![ms(100)]).unwrap(),
                Stage::new(ms(100), vec![]).unwrap(),
            ],
        )
        .unwrap();
        let alone =
            PracticalAnalysis::analyze(&PracticalTaskSet::new(vec![multi.clone()]).unwrap())
                .unwrap();
        let shared = PracticalAnalysis::analyze(
            &PracticalTaskSet::new(vec![hi, multi]).unwrap(),
        )
        .unwrap();
        for stage in 0..2 {
            assert!(
                shared.optional_deadline(TaskId(1), stage)
                    < alone.optional_deadline(TaskId(0), stage),
                "stage {stage}"
            );
        }
    }

    #[test]
    fn unschedulable_stage_reported() {
        // Saturating high-priority task leaves no room for a 3-stage task.
        let hi = two_stage(10, 5, 4);
        let multi = PracticalTaskSpec::new(
            "multi",
            ms(100),
            vec![
                Stage::new(ms(20), vec![]).unwrap(),
                Stage::new(ms(20), vec![]).unwrap(),
                Stage::new(ms(20), vec![]).unwrap(),
            ],
        )
        .unwrap();
        let err = PracticalAnalysis::analyze(
            &PracticalTaskSet::new(vec![hi, multi]).unwrap(),
        )
        .unwrap_err();
        assert!(matches!(err, PracticalError::Unschedulable { task: TaskId(1), .. }));
        assert!(std::error::Error::source(&err).is_some());
        assert!(err.to_string().contains("unschedulable"));
    }

    #[test]
    fn empty_set_rejected() {
        assert_eq!(
            PracticalTaskSet::new(vec![]).unwrap_err(),
            PracticalError::Empty
        );
    }

    #[test]
    fn rm_order_by_period() {
        let set = PracticalTaskSet::new(vec![
            two_stage(1000, 10, 10),
            two_stage(100, 10, 10),
        ])
        .unwrap();
        assert_eq!(set.rm_order(), vec![TaskId(1), TaskId(0)]);
        assert_eq!(set.len(), 2);
        assert!(!set.is_empty());
    }
}
