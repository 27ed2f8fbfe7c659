//! Property-based tests of the Q-learning toolkit.

use proptest::prelude::*;

use qlearn::discretize::Quantizer;
use qlearn::federated::{merge, MergeAccumulator};
use qlearn::policy::EpsilonGreedy;
use qlearn::qtable::{DenseQTable, QTable};
use qlearn::{decode_table, encode_table, QLearning};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Strategy: an arbitrary small Q-table with 9 actions.
fn arb_table() -> impl Strategy<Value = QTable> {
    proptest::collection::vec((0u64..500, 0usize..9, -50.0..50.0f64, 1usize..4), 0..40).prop_map(
        |entries| {
            let mut t = QTable::new(9);
            for (s, a, v, visits) in entries {
                for _ in 0..visits {
                    t.set(s, a, v);
                }
            }
            t
        },
    )
}

proptest! {
    /// The `NXQT` codec round-trips arbitrary tables exactly.
    #[test]
    fn codec_roundtrips(table in arb_table()) {
        let decoded: DenseQTable = decode_table(&encode_table(&table)).expect("own encoding decodes");
        prop_assert_eq!(decoded, table);
    }

    /// Q-values stay bounded by `r_max / (1 − γ)` under arbitrary
    /// update sequences with bounded rewards.
    #[test]
    fn q_values_bounded_by_return_bound(
        updates in proptest::collection::vec((0u64..20, 0usize..9, -3.0..3.0f64, 0u64..20), 1..400),
        alpha in 0.01..1.0f64,
        gamma in 0.0..0.95f64,
    ) {
        let learner = QLearning::new(alpha, gamma);
        let mut table = QTable::new(9);
        let bound = 3.0 / (1.0 - gamma) + 1e-9;
        for (s, a, r, s2) in updates {
            let q = learner.update(&mut table, s, a, r, s2);
            prop_assert!(q.abs() <= bound, "q {q} exceeded bound {bound}");
        }
    }

    /// The greedy action always attains the maximum value.
    #[test]
    fn best_action_attains_max(table in arb_table(), state in 0u64..500) {
        let (a, v) = table.best_action(state);
        let values = table.values(state);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!((v - max).abs() < 1e-12);
        prop_assert!((values[a] - max).abs() < 1e-12);
    }

    /// ε-greedy with ε = 0 always returns an argmax action.
    #[test]
    fn greedy_policy_returns_argmax(table in arb_table(), state in 0u64..500, seed in 0u64..1000) {
        let policy = EpsilonGreedy::greedy();
        let mut rng = StdRng::seed_from_u64(seed);
        let a = policy.choose(&mut rng, &table, state);
        let values = table.values(state);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!((values[a] - max).abs() <= 1e-12);
    }

    /// Federated merging stays inside the convex hull of the input
    /// values for every visited state-action pair.
    #[test]
    fn merge_stays_in_convex_hull(a in arb_table(), b in arb_table(), c in arb_table()) {
        let merged = merge(&[&a, &b, &c]).unwrap();
        for state in merged.state_keys() {
            for action in 0..9 {
                if merged.visits(state, action) == 0 {
                    continue;
                }
                let inputs: Vec<f64> = [&a, &b, &c]
                    .iter()
                    .filter(|t| t.visits(state, action) > 0)
                    .map(|t| t.q(state, action))
                    .collect();
                let lo = inputs.iter().copied().fold(f64::INFINITY, f64::min);
                let hi = inputs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                let v = merged.q(state, action);
                prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9, "{v} outside [{lo}, {hi}]");
            }
        }
    }

    /// Merged visit counts are the exact sums.
    #[test]
    fn merge_sums_visits(a in arb_table(), b in arb_table()) {
        let merged = merge(&[&a, &b]).unwrap();
        for state in merged.state_keys() {
            for action in 0..9 {
                prop_assert_eq!(
                    merged.visits(state, action),
                    a.visits(state, action) + b.visits(state, action)
                );
            }
        }
    }

    /// Folding tables one at a time through the accumulator (dropping
    /// each immediately) gives the same result as the batch entry point.
    #[test]
    fn accumulator_fold_order_is_batch_merge(a in arb_table(), b in arb_table()) {
        let batch = merge(&[&a, &b]).unwrap();
        let mut acc = MergeAccumulator::new(9, a.default_q());
        acc.fold(&a).unwrap();
        drop(a);
        acc.fold(&b).unwrap();
        drop(b);
        let streamed = acc.finish().unwrap();
        prop_assert_eq!(encode_table(&streamed), encode_table(&batch));
    }

    /// Quantiser indices stay in range and `center` round-trips.
    #[test]
    fn quantizer_index_in_range(
        lo in -1e3..1e3f64,
        span in 1e-3..1e3f64,
        bins in 1usize..64,
        x in -2e3..2e3f64,
    ) {
        let q = Quantizer::new(lo, lo + span, bins);
        let idx = q.index(x);
        prop_assert!(idx < bins);
        prop_assert_eq!(q.index(q.center(idx)), idx);
    }

    /// Quantiser is monotone.
    #[test]
    fn quantizer_monotone(x in -100.0..100.0f64, dx in 0.0..100.0f64, bins in 1usize..64) {
        let q = Quantizer::new(-100.0, 100.0, bins);
        prop_assert!(q.index(x + dx) >= q.index(x));
    }
}
