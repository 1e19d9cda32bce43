//! Property-based tests for the analysis substrate.

use proptest::prelude::*;
use rtseed_analysis::bounds::{hyperbolic_schedulable, liu_layland_schedulable};
use rtseed_analysis::rmwp::RmwpAnalysis;
use rtseed_analysis::rta::{all_schedulable, response_time, Interferer};
use rtseed_analysis::taskgen::{generate, log_uniform_period, uunifast, TaskGenConfig};
use rtseed_model::{Span, TaskSet};

proptest! {
    #[test]
    fn uunifast_always_sums(n in 1usize..30, total in 0.01f64..8.0, seed in 0u64..1000) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let utils = uunifast(&mut rng, n, total);
        prop_assert_eq!(utils.len(), n);
        let sum: f64 = utils.iter().sum();
        prop_assert!((sum - total).abs() < 1e-9);
        prop_assert!(utils.iter().all(|&u| u >= -1e-12));
    }

    #[test]
    fn log_uniform_stays_in_range(seed in 0u64..1000, lo in 1u64..1_000_000, width in 0u64..1_000_000) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let min = Span::from_nanos(lo);
        let max = Span::from_nanos(lo + width);
        let p = log_uniform_period(&mut rng, min, max);
        prop_assert!(p >= min && p <= max);
    }

    /// RTA is monotone in cost: more execution never shrinks the response.
    #[test]
    fn rta_monotone_in_cost(c1 in 1u64..1000, extra in 0u64..1000) {
        let hp = [Interferer {
            period: Span::from_micros(50),
            demand: Span::from_micros(10),
        }];
        let bound = Span::from_millis(100);
        let r1 = response_time(Span::from_micros(c1), &hp, bound, Span::ZERO);
        let r2 = response_time(Span::from_micros(c1 + extra), &hp, bound, Span::ZERO);
        if let (Ok(r1), Ok(r2)) = (r1, r2) {
            prop_assert!(r2 >= r1);
        }
    }

    /// Response time is at least the cost plus one job of every interferer.
    #[test]
    fn rta_lower_bound(cost in 1u64..10_000) {
        let hp = [
            Interferer { period: Span::from_micros(100), demand: Span::from_micros(7) },
            Interferer { period: Span::from_micros(300), demand: Span::from_micros(11) },
        ];
        if let Ok(r) = response_time(Span::from_nanos(cost), &hp, Span::from_secs(1), Span::ZERO) {
            prop_assert!(r >= Span::from_nanos(cost) + Span::from_micros(18));
        }
    }

    /// A warm start anywhere at or below the least fixpoint converges to
    /// exactly the cold-start answer.
    #[test]
    fn rta_warm_start_reaches_cold_fixpoint(cost in 1u64..40_000, back in 0u64..200_000) {
        let hp = [
            Interferer { period: Span::from_micros(100), demand: Span::from_micros(7) },
            Interferer { period: Span::from_micros(300), demand: Span::from_micros(11) },
            Interferer { period: Span::from_micros(1_000), demand: Span::from_micros(90) },
        ];
        let (cost, bound) = (Span::from_nanos(cost), Span::from_millis(1));
        if let Ok(r) = response_time(cost, &hp, bound, Span::ZERO) {
            let start = r.saturating_sub(Span::from_nanos(back));
            prop_assert_eq!(response_time(cost, &hp, bound, start), Ok(r));
        }
    }

    /// Utilization-bound tests are *sufficient*: whenever they accept, the
    /// exact RTA accepts too.
    #[test]
    fn bounds_imply_rta(seed in 0u64..300, n in 1usize..8) {
        let set = generate(&TaskGenConfig {
            tasks: n,
            total_utilization: 0.9,
            optional_parts: (0, 0),
            ..TaskGenConfig::default()
        }, seed);
        let order = set.rm_order();
        let pairs: Vec<(Span, Span)> = order
            .iter()
            .map(|&id| {
                let t = set.task(id);
                (t.wcet(), t.period())
            })
            .collect();
        if liu_layland_schedulable(&set) || hyperbolic_schedulable(&set) {
            prop_assert!(all_schedulable(&pairs), "sufficient bound accepted an RTA-rejected set");
        }
    }

    /// RMWP schedulable ⇒ plain RM (on C = m + w) schedulable: RMWP's test
    /// is strictly more conservative.
    #[test]
    fn rmwp_implies_rm(seed in 0u64..300, n in 1usize..6) {
        let set = generate(&TaskGenConfig {
            tasks: n,
            total_utilization: 0.7,
            ..TaskGenConfig::default()
        }, seed);
        if RmwpAnalysis::analyze(&set).is_ok() {
            let order = set.rm_order();
            let pairs: Vec<(Span, Span)> = order
                .iter()
                .map(|&id| (set.task(id).wcet(), set.task(id).period()))
                .collect();
            prop_assert!(all_schedulable(&pairs));
        }
    }

    /// The analysis is deterministic and order-independent in ids.
    #[test]
    fn analysis_deterministic(seed in 0u64..300) {
        let set = generate(&TaskGenConfig {
            tasks: 4,
            total_utilization: 0.5,
            ..TaskGenConfig::default()
        }, seed);
        let a = RmwpAnalysis::analyze(&set);
        let b = RmwpAnalysis::analyze(&set);
        match (a, b) {
            (Ok(a), Ok(b)) => {
                for id in set.ids() {
                    prop_assert_eq!(a.optional_deadline(id), b.optional_deadline(id));
                }
            }
            (Err(_), Err(_)) => {}
            _ => prop_assert!(false, "non-deterministic schedulability"),
        }
    }

    /// Higher-priority demand can only shrink a lower-priority OD.
    #[test]
    fn od_antimonotone_in_interference(extra_ms in 1u64..40) {
        let mk = |hp_cost: u64| {
            let hi = rtseed_model::TaskSpec::builder("hi")
                .period(Span::from_millis(100))
                .mandatory(Span::from_millis(hp_cost))
                .windup(Span::from_millis(5))
                .build()
                .unwrap();
            let lo = rtseed_model::TaskSpec::builder("lo")
                .period(Span::from_millis(1000))
                .mandatory(Span::from_millis(50))
                .windup(Span::from_millis(50))
                .build()
                .unwrap();
            TaskSet::new(vec![hi, lo]).unwrap()
        };
        let light = RmwpAnalysis::analyze(&mk(1));
        let heavy = RmwpAnalysis::analyze(&mk(1 + extra_ms));
        if let (Ok(light), Ok(heavy)) = (light, heavy) {
            let id = rtseed_model::TaskId(1);
            prop_assert!(heavy.optional_deadline(id) <= light.optional_deadline(id));
        }
    }
}

// ----- placement-policy family -------------------------------------------

use rtseed_analysis::{AdmissionDecision, AdmissionEngine, PartitionHeuristic, PlacementPolicy};
use rtseed_model::TaskSpec;

/// A deterministic pseudo-random spec mix: mostly light whole-placeable
/// tasks, occasionally a heavy single-CPU task (split bait) or a heavy
/// parallel task (federation bait).
fn churn_spec(rng: &mut rand::rngs::StdRng, i: usize) -> TaskSpec {
    use rand::Rng;
    let period_ms: u64 = [10, 20, 50, 100][rng.random_range(0..4usize)];
    let roll: f64 = rng.random_range(0.0..1.0);
    let period = Span::from_millis(period_ms);
    if roll < 0.15 {
        // Heavy sequential: high utilization, no optionals — the only
        // candidate for semi-partitioned splitting.
        let m = (period_ms * rng.random_range(55..70u64) / 100).max(1);
        TaskSpec::builder(format!("p{i}"))
            .period(period)
            .mandatory(Span::from_millis(m))
            .build()
            .unwrap()
    } else if roll < 0.3 {
        // Heavy parallel phase: optional utilization ≥ 1 — the only
        // candidate for a semi-federated core grant.
        let m = (period_ms * rng.random_range(10..30u64) / 100).max(1);
        let w = (period_ms * rng.random_range(5..15u64) / 100).max(1);
        TaskSpec::builder(format!("p{i}"))
            .period(period)
            .mandatory(Span::from_millis(m))
            .windup(Span::from_millis(w))
            .optional_parts(2, period)
            .build()
            .unwrap()
    } else {
        let m = (period_ms * rng.random_range(5..25u64) / 100).max(1);
        let w = period_ms * rng.random_range(0..10u64) / 100;
        TaskSpec::builder(format!("p{i}"))
            .period(period)
            .mandatory(Span::from_millis(m))
            .windup(Span::from_millis(w))
            .build()
            .unwrap()
    }
}

proptest! {
    /// With no split- or federation-eligible task (everything fits whole),
    /// the new policies make decisions byte-identical to plain P-RMWP
    /// partitioning: same placements, same keys, same optional deadlines.
    #[test]
    fn fallback_policies_are_byte_identical_to_plain(seed in 0u64..200, n in 1usize..10) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let specs: Vec<TaskSpec> = (0..n)
            .map(|i| {
                use rand::Rng;
                let period_ms: u64 = [10, 20, 50, 100][rng.random_range(0..4usize)];
                let m = (period_ms * rng.random_range(5..20u64) / 100).max(1);
                let w = period_ms * rng.random_range(0..10u64) / 100;
                TaskSpec::builder(format!("t{i}"))
                    .period(Span::from_millis(period_ms))
                    .mandatory(Span::from_millis(m))
                    .windup(Span::from_millis(w))
                    .build()
                    .unwrap()
            })
            .collect();
        let mut plain = AdmissionEngine::new(4, PartitionHeuristic::FirstFitDecreasing);
        let base = plain.try_admit(&specs);
        for policy in [PlacementPolicy::SemiPartitioned, PlacementPolicy::SemiFederated] {
            let mut eng = AdmissionEngine::new(4, PartitionHeuristic::FirstFitDecreasing)
                .with_placement(policy);
            let got = eng.try_admit(&specs);
            if base.is_admitted() {
                // Plain succeeded for every task, so the lazy fallbacks
                // never fire and the decisions must match exactly.
                prop_assert_eq!(format!("{base:?}"), format!("{got:?}"), "{}", policy);
            }
        }
    }

    /// Under both new policies, the incremental (cached) admission path
    /// makes byte-identical decisions to full recomputation across a
    /// randomized admit/evict/od-update churn.
    #[test]
    fn incremental_matches_full_recompute_under_new_policies(seed in 0u64..150) {
        use rand::{Rng, SeedableRng};
        for policy in [PlacementPolicy::SemiPartitioned, PlacementPolicy::SemiFederated] {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut cached = AdmissionEngine::new(3, PartitionHeuristic::FirstFitDecreasing)
                .with_placement(policy);
            let mut full = AdmissionEngine::new(3, PartitionHeuristic::FirstFitDecreasing)
                .without_cache()
                .with_placement(policy);
            let mut admitted_keys = Vec::new();
            for i in 0..24usize {
                let spec = churn_spec(&mut rng, i);
                let a = cached.try_admit(std::slice::from_ref(&spec));
                let b = full.try_admit(std::slice::from_ref(&spec));
                prop_assert_eq!(format!("{a:?}"), format!("{b:?}"), "{} step {}", policy, i);
                if let AdmissionDecision::Admitted(adm) = a {
                    admitted_keys.extend(adm.tasks.iter().map(|t| t.key));
                }
                if i % 4 == 3 && !admitted_keys.is_empty() {
                    let victim = admitted_keys.remove(rng.random_range(0..admitted_keys.len()));
                    let ua = cached.evict(&[victim]);
                    let ub = full.evict(&[victim]);
                    prop_assert_eq!(format!("{ua:?}"), format!("{ub:?}"), "{} evict {}", policy, i);
                }
                if i % 5 == 4 && !admitted_keys.is_empty() {
                    let key = admitted_keys[rng.random_range(0..admitted_keys.len())];
                    let shrunk = TaskSpec::builder(format!("u{i}"))
                        .period(Span::from_millis(100))
                        .mandatory(Span::from_millis(rng.random_range(1..8u64)))
                        .windup(Span::from_millis(1))
                        .build()
                        .unwrap();
                    let ua = cached.od_update(key, &shrunk);
                    let ub = full.od_update(key, &shrunk);
                    prop_assert_eq!(format!("{ua:?}"), format!("{ub:?}"), "{} od {}", policy, i);
                }
            }
        }
    }
}
