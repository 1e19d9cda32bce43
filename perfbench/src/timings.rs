//! Best-of timing of the steps of a round.
//!
//! Every round makes the same calls in the same order, so step `i` of one
//! round repeats step `i` of every other. Contention from other tenants on
//! a shared host only ever adds time to a step, so each step keeps the
//! fastest of its repetitions: the uncontended cost of that exact call.
//! Latency percentiles are taken across the steps of one kind, and a
//! round's cost is the sum of its steps' best times.

use crate::stats::percentile;

/// What a timed step is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// The workload's request (its latency percentiles are reported).
    Request,
    /// A tenant departure (desk-churn).
    Depart,
    /// Timed work that is not a request, such as running the admitted
    /// population to completion.
    Other,
}

/// Per-step best times across the rounds of one pass.
#[derive(Debug, Default)]
pub struct Timings {
    best: Vec<(Step, u64)>,
    cursor: usize,
    rounds: usize,
    timed: u64,
}

impl Timings {
    /// Starts a round: steps are matched to the previous rounds' by order.
    pub fn begin_round(&mut self) {
        self.cursor = 0;
    }

    /// Ends a round.
    ///
    /// # Errors
    ///
    /// When the round made a different number of steps than the first.
    pub fn end_round(&mut self) -> Result<(), String> {
        if self.cursor != self.best.len() {
            return Err(format!(
                "round made {} timed steps, the first made {}",
                self.cursor,
                self.best.len()
            ));
        }
        self.rounds += 1;
        Ok(())
    }

    /// Records the next step of the round.
    ///
    /// # Panics
    ///
    /// When the step differs in kind from the same step of the first round.
    #[inline]
    pub fn record(&mut self, step: Step, ns: u64) {
        if self.rounds == 0 {
            self.best.push((step, ns));
        } else if let Some(slot) = self.best.get_mut(self.cursor) {
            assert_eq!(slot.0, step, "rounds make the same steps in the same order");
            slot.1 = slot.1.min(ns);
        }
        self.cursor += 1;
        self.timed += 1;
    }

    /// Rounds completed.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Steps timed across all rounds.
    pub fn timed(&self) -> u64 {
        self.timed
    }

    /// Sum of every step's best time: the round's uncontended cost, ns.
    pub fn total_ns(&self) -> u64 {
        self.best.iter().map(|&(_, ns)| ns).sum()
    }

    /// Distinct steps of kind `step` in a round.
    pub fn count(&self, step: Step) -> usize {
        self.best.iter().filter(|&&(s, _)| s == step).count()
    }

    /// Nearest-rank percentile `p` of the best times of the `step` steps.
    pub fn percentile(&self, step: Step, p: f64) -> u64 {
        let mut v: Vec<u64> = self
            .best
            .iter()
            .filter(|&&(s, _)| s == step)
            .map(|&(_, ns)| ns)
            .collect();
        percentile(&mut v, p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_each_steps_fastest_repetition() {
        let mut t = Timings::default();
        for round in [[5, 9, 3], [4, 12, 7]] {
            t.begin_round();
            t.record(Step::Request, round[0]);
            t.record(Step::Other, round[1]);
            t.record(Step::Request, round[2]);
            t.end_round().unwrap();
        }
        assert_eq!(t.total_ns(), 4 + 9 + 3);
        assert_eq!(t.percentile(Step::Request, 100.0), 4);
        assert_eq!((t.count(Step::Request), t.rounds(), t.timed()), (2, 2, 6));
    }

    #[test]
    fn a_round_with_missing_steps_is_an_error() {
        let mut t = Timings::default();
        t.begin_round();
        t.record(Step::Request, 1);
        t.end_round().unwrap();
        t.begin_round();
        assert!(t.end_round().is_err());
    }
}
