//! Property tests: the dense and copy-on-write overlay Q-table
//! backends are observationally identical to an independent reference
//! backend under arbitrary update sequences, and the `NXQT` codec
//! round-trips across all of them.

use std::collections::BTreeMap;
use std::sync::Arc;

use proptest::prelude::*;

use qlearn::backend::{RowVisitor, RowVisitorMut, StateKey};
use qlearn::qtable::{DenseQTable, QTable};
use qlearn::{
    apply_delta, decode_table, delta_between, encode_table, DenseStore, QLearning, QStore,
};

/// The reference backend: one `BTreeMap` entry per touched state, with
/// no index, arena or sharing — simple enough to be obviously right.
#[derive(Debug, Clone, PartialEq)]
struct RefStore {
    n_actions: usize,
    rows: BTreeMap<StateKey, (Vec<f64>, Vec<u64>)>,
}

impl QStore for RefStore {
    fn with_actions(n_actions: usize) -> Self {
        assert!(n_actions > 0, "action set must be non-empty");
        RefStore {
            n_actions,
            rows: BTreeMap::new(),
        }
    }

    fn n_actions(&self) -> usize {
        self.n_actions
    }

    fn len(&self) -> usize {
        self.rows.len()
    }

    fn row(&self, state: StateKey) -> Option<(&[f64], &[u64])> {
        self.rows
            .get(&state)
            .map(|(values, visits)| (values.as_slice(), visits.as_slice()))
    }

    fn row_mut(&mut self, state: StateKey, fill: f64) -> (&mut [f64], &mut [u64]) {
        let n = self.n_actions;
        let (values, visits) = self
            .rows
            .entry(state)
            .or_insert_with(|| (vec![fill; n], vec![0; n]));
        (values, visits)
    }

    fn contains(&self, state: StateKey) -> bool {
        self.rows.contains_key(&state)
    }

    fn state_keys(&self) -> Vec<StateKey> {
        self.rows.keys().copied().collect()
    }

    fn for_each_row(&self, f: &mut RowVisitor<'_>) {
        for (&k, (values, visits)) in &self.rows {
            f(k, values, visits);
        }
    }

    fn for_each_row_mut(&mut self, f: &mut RowVisitorMut<'_>) {
        for (&k, (values, visits)) in &mut self.rows {
            f(k, values, visits);
        }
    }
}

/// An arbitrary update sequence over a 9-action table: `(state, action,
/// value)` triples, with states drawn from a smallish range so
/// collisions (re-updates of the same pair) are common.
fn arb_updates() -> impl Strategy<Value = Vec<(u64, usize, f64)>> {
    proptest::collection::vec((0u64..400, 0usize..9, -50.0..50.0f64), 0..120)
}

/// Applies the same update sequence to the reference and the dense
/// backend.
fn build_pair(default_q: f64, updates: &[(u64, usize, f64)]) -> (QTable<RefStore>, DenseQTable) {
    let mut reference = QTable::empty(9, default_q);
    let mut dense = DenseQTable::with_default_q(9, default_q);
    for &(s, a, v) in updates {
        reference.set(s, a, v);
        dense.set(s, a, v);
    }
    (reference, dense)
}

proptest! {
    /// `q`, `set`, `best_action`, `best_actions`, `values`, `visits`,
    /// `contains` and `len` agree between the dense and reference
    /// backends after any update sequence.
    #[test]
    fn backends_observationally_identical(
        updates in arb_updates(),
        default_q in -10.0..10.0f64,
        probe_state in 0u64..500,
    ) {
        let (reference, dense) = build_pair(default_q, &updates);
        prop_assert_eq!(reference.len(), dense.len());
        prop_assert_eq!(reference.is_empty(), dense.is_empty());
        prop_assert_eq!(reference.total_visits(), dense.total_visits());
        prop_assert_eq!(reference.state_keys(), dense.state_keys());
        prop_assert_eq!(reference.contains(probe_state), dense.contains(probe_state));
        prop_assert_eq!(reference.best_action(probe_state), dense.best_action(probe_state));
        prop_assert_eq!(reference.best_actions(probe_state), dense.best_actions(probe_state));
        prop_assert_eq!(reference.values(probe_state), dense.values(probe_state));
        for a in 0..9 {
            prop_assert_eq!(reference.q(probe_state, a), dense.q(probe_state, a));
            prop_assert_eq!(reference.visits(probe_state, a), dense.visits(probe_state, a));
        }
    }

    /// Both backends encode to the same bytes, whatever the insertion
    /// order was.
    #[test]
    fn backends_encode_identically(updates in arb_updates(), default_q in -10.0..10.0f64) {
        let (reference, dense) = build_pair(default_q, &updates);
        prop_assert_eq!(encode_table(&reference), encode_table(&dense));
    }

    /// Codec cross-compatibility: encode on one backend, decode into
    /// the other, re-encode — all byte-identical.
    #[test]
    fn codec_crosses_backends(updates in arb_updates(), default_q in -10.0..10.0f64) {
        let (reference, dense) = build_pair(default_q, &updates);
        let bytes = encode_table(&reference);
        let dense_decoded: DenseQTable = decode_table(&bytes).expect("dense reads reference");
        prop_assert_eq!(encode_table(&dense_decoded), bytes.clone());
        prop_assert_eq!(&dense_decoded, &dense);
        let reference_decoded: QTable<RefStore> =
            decode_table(&encode_table(&dense)).expect("reference reads dense");
        prop_assert_eq!(encode_table(&reference_decoded), bytes);
        prop_assert_eq!(&reference_decoded, &reference);
    }

    /// `to_backend` conversion preserves the encoded form both ways.
    #[test]
    fn conversion_roundtrips(updates in arb_updates(), default_q in -10.0..10.0f64) {
        let (reference, dense) = build_pair(default_q, &updates);
        let converted_dense: DenseQTable = reference.to_backend::<DenseStore>();
        prop_assert_eq!(&converted_dense, &dense);
        let converted_reference: QTable<RefStore> = dense.to_backend::<RefStore>();
        prop_assert_eq!(&converted_reference, &reference);
    }

    /// The Q-learning update rule produces identical trajectories on
    /// the dense and reference backends (same transitions, same
    /// resulting tables).
    #[test]
    fn learner_trajectories_identical(
        transitions in proptest::collection::vec(
            (0u64..50, 0usize..9, -3.0..3.0f64, 0u64..50),
            1..200,
        ),
        alpha in 0.01..1.0f64,
        gamma in 0.0..0.95f64,
    ) {
        let learner = QLearning::new(alpha, gamma);
        let mut reference: QTable<RefStore> = QTable::empty(9, 0.0);
        let mut dense = DenseQTable::new(9);
        for &(s, a, r, s2) in &transitions {
            let qr = learner.update(&mut reference, s, a, r, s2);
            let qd = learner.update(&mut dense, s, a, r, s2);
            prop_assert_eq!(qr, qd, "update diverged at ({}, {})", s, a);
        }
        prop_assert_eq!(encode_table(&reference), encode_table(&dense));
    }

    /// An overlay over an **empty** base is just a sparse table: it
    /// must match the reference backend bit for bit after any update
    /// sequence.
    #[test]
    fn overlay_over_empty_base_matches_reference(
        updates in arb_updates(),
        default_q in -10.0..10.0f64,
    ) {
        let (reference, _) = build_pair(default_q, &updates);
        let base = Arc::new(DenseQTable::with_default_q(9, default_q));
        let mut overlay = QTable::overlay(base);
        for &(s, a, v) in &updates {
            overlay.set(s, a, v);
        }
        prop_assert_eq!(overlay.len(), reference.len());
        prop_assert_eq!(encode_table(&overlay), encode_table(&reference));
    }

    /// An overlay over a **trained** base is observationally identical
    /// to a dense clone of that base driven through the same update
    /// sequence — reads fall through to base rows, writes shadow them.
    #[test]
    fn overlay_over_trained_base_matches_dense(
        seed_updates in arb_updates(),
        updates in arb_updates(),
        default_q in -10.0..10.0f64,
        probe_state in 0u64..500,
    ) {
        let mut base = DenseQTable::with_default_q(9, default_q);
        for &(s, a, v) in &seed_updates {
            base.set(s, a, v);
        }
        let mut dense = base.clone();
        let base = Arc::new(base);
        let mut overlay = QTable::overlay(Arc::clone(&base));
        for &(s, a, v) in &updates {
            overlay.set(s, a, v);
            dense.set(s, a, v);
        }
        prop_assert_eq!(overlay.len(), dense.len());
        prop_assert_eq!(overlay.total_visits(), dense.total_visits());
        prop_assert_eq!(overlay.state_keys(), dense.state_keys());
        prop_assert_eq!(overlay.contains(probe_state), dense.contains(probe_state));
        prop_assert_eq!(overlay.values(probe_state), dense.values(probe_state));
        prop_assert_eq!(overlay.best_action(probe_state), dense.best_action(probe_state));
        prop_assert_eq!(encode_table(&overlay), encode_table(&dense));
        prop_assert_eq!(&overlay.to_backend::<DenseStore>(), &dense);
    }

    /// The overlay's O(touched) delta is byte-identical to the
    /// full-space `delta_between` diff, and applying it to the base
    /// reconstructs the trained table exactly.
    #[test]
    fn overlay_delta_matches_full_space_diff(
        seed_updates in arb_updates(),
        updates in arb_updates(),
        default_q in -10.0..10.0f64,
    ) {
        let mut base = DenseQTable::with_default_q(9, default_q);
        for &(s, a, v) in &seed_updates {
            base.set(s, a, v);
        }
        let mut dense = base.clone();
        let base = Arc::new(base);
        let mut overlay = QTable::overlay(Arc::clone(&base));
        for &(s, a, v) in &updates {
            overlay.set(s, a, v);
            dense.set(s, a, v);
        }
        let reference = delta_between(&*base, &dense).expect("trained table keeps base rows");
        prop_assert_eq!(overlay.delta_bytes(), reference.clone());
        let rebuilt = apply_delta(&*base, &overlay.into_delta()).expect("own delta applies");
        prop_assert_eq!(encode_table(&rebuilt), encode_table(&dense));
    }

    /// The direct slot-table index (bounded key space) behaves exactly
    /// like the hashed index.
    #[test]
    fn direct_index_matches_hashed_index(
        updates in proptest::collection::vec((0u64..400, 0usize..9, -50.0..50.0f64), 0..120),
        default_q in -10.0..10.0f64,
    ) {
        let mut mapped = DenseQTable::with_default_q(9, default_q);
        let mut direct = DenseQTable::dense_for_space(9, default_q, 400);
        for &(s, a, v) in &updates {
            mapped.set(s, a, v);
            direct.set(s, a, v);
        }
        prop_assert_eq!(&mapped, &direct);
        prop_assert_eq!(encode_table(&mapped), encode_table(&direct));
        for s in 0..400 {
            prop_assert_eq!(mapped.best_action(s), direct.best_action(s));
        }
    }
}
