//! Exact response-time analysis (RTA) for uniprocessor fixed-priority
//! scheduling.
//!
//! The classic fixpoint of Joseph & Pandya / Audsley et al.:
//!
//! ```text
//! R = C + Σ_{j ∈ hp} ⌈R / Tⱼ⌉ · Cⱼ
//! ```
//!
//! iterated from `R₀ = C` until it converges or exceeds the deadline. This
//! is the work-horse for every higher-level test in this crate: plain RM
//! admission, the RMWP mandatory/wind-up response times, and partitioned
//! admission.

use core::fmt;

use rtseed_model::Span;

/// Interference source for RTA: a higher-priority periodic contributor with
/// period `period` demanding `demand` units each period.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interferer {
    /// The contributor's period Tⱼ.
    pub period: Span,
    /// Execution demand per period (for RMWP this is `mⱼ + wⱼ`).
    pub demand: Span,
}

/// Errors from the RTA fixpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum RtaError {
    /// The response time exceeded the supplied bound (deadline): the task is
    /// unschedulable at this priority.
    ExceedsBound {
        /// Value of the iterate when it crossed the bound.
        reached: Span,
        /// The bound that was crossed.
        bound: Span,
    },
    /// The fixpoint failed to converge within the iteration budget, which
    /// only happens for pathological inputs (e.g. total utilization ≥ 1
    /// combined with an enormous bound).
    Diverged,
}

impl fmt::Display for RtaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RtaError::ExceedsBound { reached, bound } => {
                write!(f, "response time {reached} exceeds bound {bound}")
            }
            RtaError::Diverged => write!(f, "response-time iteration diverged"),
        }
    }
}

impl std::error::Error for RtaError {}

/// Maximum fixpoint iterations before declaring divergence. Each iteration
/// strictly increases the iterate by at least 1 ns when not converged, but
/// realistic task sets converge within a handful of steps; the budget only
/// guards against adversarial inputs.
const MAX_ITERS: usize = 1_000_000;

/// Computes the worst-case response time of a job of cost `cost` released
/// together with all higher-priority interferers (critical instant),
/// bounded by `bound`.
///
/// The iteration starts from `start` (raised to `cost` if lower); pass
/// [`Span::ZERO`] for the classic cold start. Any `start` at or below the
/// least fixpoint gives the same answer in fewer iterations: the operator
/// is monotone, so the iterates still climb to that fixpoint. (The one
/// exception is a cold run that exhausts the iteration budget, which
/// only pathological inputs reach; a warm run may then still converge.)
/// Incremental admission warm-starts a resident from a lower bound on its
/// new fixpoint once another interferer arrives, which is such a value.
///
/// # Errors
///
/// * [`RtaError::ExceedsBound`] if the fixpoint crosses `bound` — the task
///   misses its deadline;
/// * [`RtaError::Diverged`] if the iteration budget is exhausted.
///
/// # Examples
///
/// ```
/// use rtseed_model::Span;
/// use rtseed_analysis::rta::{response_time, Interferer};
/// let hp = [Interferer { period: Span::from_millis(10), demand: Span::from_millis(2) }];
/// let r = response_time(Span::from_millis(3), &hp, Span::from_millis(20), Span::ZERO).unwrap();
/// assert_eq!(r, Span::from_millis(5));
/// // A warm start below the fixpoint converges to the same value.
/// let (cost, bound, start) = (Span::from_millis(3), Span::from_millis(20), Span::from_millis(4));
/// assert_eq!(response_time(cost, &hp, bound, start), Ok(r));
/// ```
pub fn response_time(
    cost: Span,
    higher_priority: &[Interferer],
    bound: Span,
    start: Span,
) -> Result<Span, RtaError> {
    if cost > bound {
        return Err(RtaError::ExceedsBound {
            reached: cost,
            bound,
        });
    }
    let mut r = start.max(cost);
    for _ in 0..MAX_ITERS {
        let mut next = cost;
        for hp in higher_priority {
            debug_assert!(!hp.period.is_zero(), "interferer period must be positive");
            let jobs = r.div_ceil(hp.period).max(1);
            next = match hp
                .demand
                .checked_mul(jobs)
                .and_then(|d| next.checked_add(d))
            {
                Some(v) => v,
                None => {
                    return Err(RtaError::ExceedsBound {
                        reached: Span::MAX,
                        bound,
                    })
                }
            };
        }
        if next > bound {
            return Err(RtaError::ExceedsBound {
                reached: next,
                bound,
            });
        }
        if next == r {
            return Ok(r);
        }
        r = next;
    }
    Err(RtaError::Diverged)
}

/// Convenience: the worst-case response time of task `index` (0 = highest
/// priority) in a priority-ordered list of `(cost, period)` pairs with
/// implicit deadlines.
///
/// # Errors
///
/// Propagates [`RtaError`] from [`response_time`].
///
/// # Panics
///
/// Panics if `index` is out of range.
pub fn response_time_at(
    tasks: &[(Span, Span)],
    index: usize,
) -> Result<Span, RtaError> {
    let (cost, period) = tasks[index];
    let hp: Vec<Interferer> = tasks[..index]
        .iter()
        .map(|&(c, t)| Interferer {
            period: t,
            demand: c,
        })
        .collect();
    response_time(cost, &hp, period, Span::ZERO)
}

/// Checks whether every task in a priority-ordered `(cost, period)` list
/// meets its implicit deadline under preemptive fixed-priority scheduling.
pub fn all_schedulable(tasks: &[(Span, Span)]) -> bool {
    (0..tasks.len()).all(|i| response_time_at(tasks, i).is_ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Span {
        Span::from_millis(v)
    }

    #[test]
    fn no_interference_is_cost() {
        assert_eq!(response_time(ms(3), &[], ms(10), Span::ZERO).unwrap(), ms(3));
    }

    #[test]
    fn textbook_example() {
        // τ1 = (1, 4), τ2 = (2, 6), τ3 = (3, 13) — a classic RTA example.
        let tasks = [(ms(1), ms(4)), (ms(2), ms(6)), (ms(3), ms(13))];
        assert_eq!(response_time_at(&tasks, 0).unwrap(), ms(1));
        assert_eq!(response_time_at(&tasks, 1).unwrap(), ms(3));
        // R3 = 3 + ⌈R/4⌉·1 + ⌈R/6⌉·2 → fixpoint at 10 (3 + 3·1 + 2·2).
        assert_eq!(response_time_at(&tasks, 2).unwrap(), ms(10));
        assert!(all_schedulable(&tasks));
    }

    #[test]
    fn deadline_miss_detected() {
        // Two tasks with combined utilization 1.25 cannot fit.
        let tasks = [(ms(5), ms(8)), (ms(5), ms(8))];
        assert!(matches!(
            response_time_at(&tasks, 1),
            Err(RtaError::ExceedsBound { .. })
        ));
        assert!(!all_schedulable(&tasks));
    }

    #[test]
    fn cost_larger_than_bound_fails_fast() {
        let err = response_time(ms(10), &[], ms(5), Span::ZERO).unwrap_err();
        assert_eq!(
            err,
            RtaError::ExceedsBound {
                reached: ms(10),
                bound: ms(5)
            }
        );
    }

    #[test]
    fn exact_fit_at_bound_is_schedulable() {
        // R = exactly the deadline is a (just) schedulable task.
        let tasks = [(ms(4), ms(8)), (ms(4), ms(8))];
        assert_eq!(response_time_at(&tasks, 1).unwrap(), ms(8));
    }

    #[test]
    fn full_utilization_harmonic_set() {
        // Harmonic periods schedule up to U = 1 under RM.
        let tasks = [(ms(2), ms(4)), (ms(2), ms(8)), (ms(2), ms(16))];
        assert!(all_schedulable(&tasks));
        assert_eq!(response_time_at(&tasks, 2).unwrap(), ms(8));
    }

    #[test]
    fn overflow_reported_as_exceeds_bound() {
        let hp = [Interferer {
            period: Span::from_nanos(1),
            demand: Span::MAX / 2,
        }];
        assert!(response_time(Span::from_nanos(1), &hp, Span::MAX, Span::ZERO).is_err());
    }

    #[test]
    fn interference_counts_at_least_one_job() {
        // Even an interferer with a huge period contributes one job at the
        // critical instant.
        let hp = [Interferer {
            period: Span::from_secs(1000),
            demand: ms(5),
        }];
        assert_eq!(response_time(ms(1), &hp, ms(100), Span::ZERO).unwrap(), ms(6));
    }

    #[test]
    fn error_display() {
        let e = RtaError::ExceedsBound {
            reached: ms(12),
            bound: ms(10),
        };
        assert_eq!(e.to_string(), "response time 12ms exceeds bound 10ms");
        assert_eq!(RtaError::Diverged.to_string(), "response-time iteration diverged");
    }
}
