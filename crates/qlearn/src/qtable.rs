//! The Q-table: action values + visit counts over a storage backend.
//!
//! States are pre-encoded by the caller into a [`StateKey`] (the Next
//! agent packs its discretised observation tuple into the key), so the
//! table itself is domain-agnostic. Any `u64` key is accepted and no
//! state space is declared up front, so a table learned under one
//! encoding (say, coarser FPS bins) keeps learning under another.
//! Storage goes through [`QStore`]: [`DenseStore`] for the
//! cache-friendly learn/act hot path, or the copy-on-write
//! [`crate::overlay::OverlayStore`] over a shared dense base — see
//! [`crate::backend`]. Tables persist through the `NXQT` codec
//! ([`crate::codec`]), which writes rows in sorted key order and so
//! encodes both backends to the same bytes.

use crate::backend::{DenseStore, QStore};

pub use crate::backend::StateKey;

/// Action-value table: `Q(s, a)` for a fixed-size action set, stored in
/// backend `S` (the dense arena by default).
///
/// Unvisited state-action pairs read the table's *default value*
/// (0 unless configured). Setting an **optimistic** default — above any
/// realistically achievable return — makes a greedy learner try every
/// action of every visited state at least once, the classic cure for
/// premature exploitation under positive rewards.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QTable<S: QStore = DenseStore> {
    default_q: f64,
    store: S,
}

/// A Q-table on the dense-indexed arena backend — the learn/act hot
/// path: values and visits of all actions of a state live contiguously,
/// and argmax is a single probe plus one slice scan.
pub type DenseQTable = QTable<DenseStore>;

impl QTable<DenseStore> {
    /// Creates an empty table for `n_actions` actions with a default
    /// value of 0.
    ///
    /// # Panics
    ///
    /// Panics if `n_actions` is zero.
    #[must_use]
    pub fn new(n_actions: usize) -> Self {
        QTable::empty(n_actions, 0.0)
    }

    /// Creates an empty table whose unvisited pairs read `default_q`
    /// (use an optimistic value to drive exploration).
    ///
    /// # Panics
    ///
    /// Panics if `n_actions` is zero or `default_q` is not finite.
    #[must_use]
    pub fn with_default_q(n_actions: usize, default_q: f64) -> Self {
        QTable::empty(n_actions, default_q)
    }
}

impl<S: QStore> QTable<S> {
    /// Creates an empty table on backend `S`.
    ///
    /// # Panics
    ///
    /// Panics if `n_actions` is zero or `default_q` is not finite.
    #[must_use]
    pub fn empty(n_actions: usize, default_q: f64) -> Self {
        assert!(default_q.is_finite(), "default q must be finite");
        QTable {
            default_q,
            store: S::with_actions(n_actions),
        }
    }

    /// Resident heap bytes attributable to this table's own rows (see
    /// [`QStore::resident_bytes`]): deterministic, capacity-blind, and
    /// excluding any storage the backend shares (an overlay's `Arc`
    /// base is counted once by whoever owns the base, not per clone).
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        self.store.resident_bytes()
    }

    /// Number of actions per state.
    #[must_use]
    pub fn n_actions(&self) -> usize {
        self.store.n_actions()
    }

    /// The value unvisited pairs read.
    #[must_use]
    pub fn default_q(&self) -> f64 {
        self.default_q
    }

    /// Number of states with at least one recorded value.
    #[must_use]
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// Whether the table has no states.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// `Q(state, action)`; unvisited pairs read the table default.
    ///
    /// Unvisited cells of a touched row physically hold the default
    /// (see [`QStore::row_mut`]), so this is a single probe plus one
    /// load — the visit row is never consulted.
    ///
    /// # Panics
    ///
    /// Panics if `action >= n_actions`.
    #[must_use]
    pub fn q(&self, state: StateKey, action: usize) -> f64 {
        assert!(action < self.n_actions(), "action {action} out of range");
        match self.store.row(state) {
            Some((values, _)) => values[action],
            None => self.default_q,
        }
    }

    /// All action values of `state` (defaults where unvisited).
    #[must_use]
    pub fn values(&self, state: StateKey) -> Vec<f64> {
        match self.store.row(state) {
            None => vec![self.default_q; self.n_actions()],
            Some((values, _)) => values.to_vec(),
        }
    }

    /// Overwrites `Q(state, action)` and counts a visit.
    ///
    /// # Panics
    ///
    /// Panics if `action >= n_actions` or `value` is not finite.
    pub fn set(&mut self, state: StateKey, action: usize, value: f64) {
        assert!(action < self.n_actions(), "action {action} out of range");
        assert!(value.is_finite(), "q-values must be finite");
        let (values, visits) = self.store.row_mut(state, self.default_q);
        values[action] = value;
        visits[action] += 1;
    }

    /// Visits recorded for `(state, action)`.
    #[must_use]
    pub fn visits(&self, state: StateKey, action: usize) -> u64 {
        self.store
            .row(state)
            .map_or(0, |(_, visits)| visits[action])
    }

    /// Total visits across the whole table.
    #[must_use]
    pub fn total_visits(&self) -> u64 {
        let mut total = 0u64;
        self.store
            .for_each_row(&mut |_, _, visits| total += visits.iter().sum::<u64>());
        total
    }

    /// The greedy action and its value (defaults apply to unvisited
    /// pairs); ties break towards the lowest action index. Use
    /// [`QTable::best_actions`] for the full argmax set.
    ///
    /// One row fetch, one branch-free contiguous scan of the value
    /// slice — the argmax never probes the backend per action and never
    /// loads the visit row.
    #[must_use]
    pub fn best_action(&self, state: StateKey) -> (usize, f64) {
        match self.store.row(state) {
            None => (0, self.default_q),
            Some((values, _)) => {
                let mut best = 0;
                let mut best_v = values[0];
                for (a, &v) in values.iter().enumerate().skip(1) {
                    if v > best_v {
                        best = a;
                        best_v = v;
                    }
                }
                (best, best_v)
            }
        }
    }

    /// All actions whose value ties the maximum (within `1e-12`).
    #[must_use]
    pub fn best_actions(&self, state: StateKey) -> Vec<usize> {
        let (_, best_v) = self.best_action(state);
        match self.store.row(state) {
            None => (0..self.n_actions()).collect(),
            Some((values, _)) => values
                .iter()
                .enumerate()
                .filter(|&(_, &v)| (v - best_v).abs() <= 1e-12)
                .map(|(a, _)| a)
                .collect(),
        }
    }

    /// `max_a Q(state, a)` (the default for fully unvisited states).
    #[must_use]
    pub fn max_q(&self, state: StateKey) -> f64 {
        self.best_action(state).1
    }

    /// Whether the state has been visited at least once.
    #[must_use]
    pub fn contains(&self, state: StateKey) -> bool {
        self.store.contains(state)
    }

    /// Iterator over `(state, action_values)` in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (StateKey, &[f64])> + '_ {
        self.store.state_keys().into_iter().map(move |k| {
            // qlint::allow(PN01, reason = "k comes from state_keys() of the same store, so the row exists")
            let (values, _) = self.store.row(k).expect("listed key has a row");
            (k, values)
        })
    }

    /// Rebuilds the table on a different storage backend, preserving all
    /// rows (and therefore the encoded bytes).
    #[must_use]
    pub fn to_backend<T: QStore>(&self) -> QTable<T> {
        let mut out: QTable<T> = QTable::empty(self.n_actions(), self.default_q);
        let default_q = self.default_q;
        self.store.for_each_row(&mut |state, values, visits| {
            let (v, n) = out.store.row_mut(state, default_q);
            v.copy_from_slice(values);
            n.copy_from_slice(visits);
        });
        out
    }

    /// Wraps a raw store into a table. The caller guarantees the store
    /// upholds the table invariant (unvisited cells physically hold
    /// `default_q`) — used by the federated merge accumulator after it
    /// normalises its weighted sums.
    ///
    /// # Panics
    ///
    /// Panics if `default_q` is not finite.
    pub(crate) fn from_store(default_q: f64, store: S) -> Self {
        assert!(default_q.is_finite(), "default q must be finite");
        QTable { default_q, store }
    }

    /// Read access to the raw store (crate-internal machinery).
    pub(crate) fn store(&self) -> &S {
        &self.store
    }

    /// Raw accessor used by the federated merger.
    pub(crate) fn entry_raw(&self, state: StateKey) -> Option<(&[f64], &[u64])> {
        self.store.row(state)
    }

    /// Raw writer used by the federated merger (replaces values and
    /// visits wholesale; unvisited cells are canonicalised to the
    /// table default they read as).
    pub(crate) fn insert_raw(&mut self, state: StateKey, values: &[f64], visits: &[u64]) {
        debug_assert_eq!(values.len(), self.n_actions());
        debug_assert_eq!(visits.len(), self.n_actions());
        let default_q = self.default_q;
        let (v, n) = self.store.row_mut(state, default_q);
        v.copy_from_slice(values);
        n.copy_from_slice(visits);
        for (cell, &count) in v.iter_mut().zip(n.iter()) {
            if count == 0 {
                *cell = default_q;
            }
        }
    }

    /// All state keys, sorted.
    #[must_use]
    pub fn state_keys(&self) -> Vec<StateKey> {
        self.store.state_keys()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{decode_table, encode_table};
    use crate::overlay::OverlayStore;

    #[test]
    fn unvisited_states_read_zero() {
        let t = QTable::new(9);
        assert_eq!(t.q(42, 3), 0.0);
        assert_eq!(t.best_action(42), (0, 0.0));
        assert_eq!(t.max_q(42), 0.0);
        assert!(!t.contains(42));
        assert!(t.is_empty());
    }

    #[test]
    fn set_and_best_action() {
        let mut t = QTable::new(3);
        t.set(7, 0, 0.1);
        t.set(7, 1, 0.9);
        t.set(7, 2, 0.5);
        assert_eq!(t.best_action(7), (1, 0.9));
        assert_eq!(t.len(), 1);
        assert_eq!(t.visits(7, 1), 1);
        assert_eq!(t.total_visits(), 3);
    }

    #[test]
    fn ties_break_to_lowest_index() {
        let mut t = QTable::new(3);
        t.set(1, 2, 0.5);
        t.set(1, 0, 0.5);
        assert_eq!(t.best_action(1).0, 0);
    }

    #[test]
    fn codec_roundtrip() {
        let mut t = QTable::new(4);
        t.set(0, 0, -1.25);
        t.set(9_999_999_999, 3, 1e-7);
        t.set(5, 2, 42.0);
        t.set(5, 2, 43.5); // overwrite, second visit
        let bytes = encode_table(&t);
        let back: DenseQTable = decode_table(&bytes).expect("roundtrip");
        assert_eq!(back, t);
        assert_eq!(back.visits(5, 2), 2);
    }

    #[test]
    fn codec_crosses_backends() {
        let mut d = QTable::with_default_q(4, 1.5);
        d.set(11, 3, -2.0);
        d.set(2, 0, 0.25);
        let bytes = encode_table(&d);
        let o: QTable<OverlayStore> = decode_table(&bytes).expect("overlay decodes dense bytes");
        assert_eq!(
            encode_table(&o),
            bytes,
            "overlay re-encoding is byte-identical"
        );
        let d2: DenseQTable = decode_table(&encode_table(&o)).expect("dense decodes overlay");
        assert_eq!(d2, d);
    }

    #[test]
    fn to_backend_preserves_rows() {
        let mut d = QTable::with_default_q(3, 9.0);
        d.set(1, 0, 2.0);
        d.set(500, 2, -1.0);
        let o: QTable<OverlayStore> = d.to_backend();
        assert_eq!(encode_table(&o), encode_table(&d));
        assert_eq!(o.default_q(), 9.0);
        let d2: DenseQTable = o.to_backend();
        assert_eq!(d2, d);
    }

    #[test]
    fn optimistic_default_applies_to_unvisited_pairs_only() {
        let mut t = QTable::with_default_q(3, 25.0);
        assert_eq!(t.q(7, 1), 25.0);
        assert_eq!(t.max_q(7), 25.0);
        t.set(7, 1, 2.0);
        assert_eq!(t.q(7, 1), 2.0, "visited pair reads its learned value");
        assert_eq!(t.q(7, 0), 25.0, "sibling actions stay optimistic");
        assert_eq!(
            t.best_actions(7),
            vec![0, 2],
            "untried actions tie at the optimum"
        );
        let back: DenseQTable = decode_table(&encode_table(&t)).expect("roundtrip");
        assert_eq!(back, t);
        assert_eq!(back.default_q(), 25.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_out_of_range_panics() {
        let mut t = QTable::new(2);
        t.set(0, 2, 1.0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn set_nan_panics() {
        let mut t = QTable::new(2);
        t.set(0, 0, f64::NAN);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_actions_panics() {
        let _ = QTable::new(0);
    }

    #[test]
    fn encode_is_sorted_and_stable() {
        let mut a = QTable::new(2);
        a.set(10, 0, 1.0);
        a.set(3, 1, 2.0);
        let mut b = QTable::new(2);
        b.set(3, 1, 2.0);
        b.set(10, 0, 1.0);
        assert_eq!(
            encode_table(&a),
            encode_table(&b),
            "encoding must not depend on insertion order"
        );
    }
}
