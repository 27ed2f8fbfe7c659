//! Copy-on-write Q-table overlays: the campaign's per-device backend.
//!
//! A federated round warm-starts every device from the same merged
//! global table. Cloning that table per device costs O(states) time
//! and memory — at paper scale, hundreds of thousands of rows copied
//! so a single simulated day can touch a few hundred of them. An
//! [`OverlayStore`] makes the warm start O(1) instead: it holds an
//! [`Arc`]-shared **immutable base** (the round's merged global) plus
//! a sparse private map of rows copied on first write.
//!
//! * **Warm start** is an `Arc` clone — no row is copied until the
//!   device actually writes one.
//! * **Resident memory** is O(rows touched): the base is shared by
//!   every device of the shard and counted once, not per device.
//! * **Delta extraction** ([`QTable::into_delta`] /
//!   [`QTable::delta_bytes`]) encodes the touched rows straight out of
//!   the overlay — no full-space diff against the base. Untouched rows
//!   *are* the base's rows bitwise, so the result is byte-identical to
//!   [`crate::codec::delta_between`] run on materialised copies.
//! * **Merging** gets a fast path:
//!   [`crate::federated::MergeAccumulator::fold_overlay`] folds only
//!   the touched rows of each device and reconstructs the shared
//!   base's contribution in closed form.
//!
//! The overlay is a full [`QStore`]: every table operation — reads,
//! learning updates, the codec, merging — behaves exactly like the
//! dense backend over the same logical contents (equivalence is
//! property-tested in `tests/backend_equiv.rs`). The copied-row
//! invariant holds throughout: a row absent from the private map reads
//! through to the base, so the store's effective contents are
//! `base ∪ overlay` with the overlay shadowing.

// qlint::allow(ND03, reason = "per-device COW row map; artifacts read it via sorted state_keys() or the commutative merge fold")
use std::collections::HashMap;
use std::sync::Arc;

use crate::backend::{KeyHashBuilder, QStore, RowVisitor, RowVisitorMut, StateKey};
use crate::codec;
use crate::qtable::{DenseQTable, QTable};

/// One privately-owned row: a base row copied on first write, or a
/// brand-new row the base never had.
#[derive(Debug, Clone, PartialEq)]
struct OverlayRow {
    values: Vec<f64>,
    visits: Vec<u64>,
}

/// Copy-on-write storage backend: an `Arc`-shared immutable base plus
/// a sparse map of copied-on-first-write rows.
///
/// Reads prefer the private map and fall through to the base;
/// [`QStore::row_mut`] copies the base row into the map on first
/// touch. [`QStore::for_each_row_mut`] must hand out every row mutably
/// and therefore materialises the **whole base** into the map first —
/// that path (used by the merge accumulator's finish, never by a
/// device) costs O(base), which is the documented price of mutating an
/// overlay wholesale.
#[derive(Debug, Clone)]
pub struct OverlayStore {
    /// The shared immutable base. Never written through.
    base: Arc<DenseQTable>,
    /// Copied-on-first-write rows, shadowing the base.
    // qlint::allow(ND03, reason = "delta extraction sorts changed keys before encoding; for_each_touched feeds per-key independent merge folds only")
    rows: HashMap<StateKey, OverlayRow, KeyHashBuilder>,
    /// Private rows whose key the base does **not** contain (so `len`
    /// is O(1) instead of re-probing the base per query).
    novel: usize,
}

impl OverlayStore {
    /// An empty overlay over `base`.
    #[must_use]
    pub fn over(base: Arc<DenseQTable>) -> Self {
        OverlayStore {
            base,
            // qlint::allow(ND03, reason = "constructor for the field annotated above")
            rows: HashMap::default(),
            novel: 0,
        }
    }

    /// The shared base table.
    #[must_use]
    pub fn base(&self) -> &Arc<DenseQTable> {
        &self.base
    }

    /// Number of privately-owned (touched) rows.
    #[must_use]
    pub fn touched_rows(&self) -> usize {
        self.rows.len()
    }

    /// Calls `f` once per **touched** row only (unspecified order) —
    /// the merge fast path's kernel. Untouched base rows are not
    /// visited; the caller reconstructs their contribution from the
    /// shared base.
    pub fn for_each_touched(&self, f: &mut RowVisitor<'_>) {
        for (&k, row) in &self.rows {
            f(k, &row.values, &row.visits);
        }
    }
}

impl QStore for OverlayStore {
    fn with_actions(n_actions: usize) -> Self {
        assert!(n_actions > 0, "action set must be non-empty");
        OverlayStore::over(Arc::new(QTable::empty(n_actions, 0.0)))
    }

    fn n_actions(&self) -> usize {
        self.base.n_actions()
    }

    fn len(&self) -> usize {
        self.base.len() + self.novel
    }

    fn row(&self, state: StateKey) -> Option<(&[f64], &[u64])> {
        match self.rows.get(&state) {
            Some(row) => Some((row.values.as_slice(), row.visits.as_slice())),
            None => self.base.entry_raw(state),
        }
    }

    fn row_mut(&mut self, state: StateKey, fill: f64) -> (&mut [f64], &mut [u64]) {
        if !self.rows.contains_key(&state) {
            // First touch: copy the base row, or start a fresh one.
            let row = if let Some((values, visits)) = self.base.entry_raw(state) {
                OverlayRow {
                    values: values.to_vec(),
                    visits: visits.to_vec(),
                }
            } else {
                self.novel += 1;
                OverlayRow {
                    values: vec![fill; self.n_actions()],
                    visits: vec![0; self.n_actions()],
                }
            };
            self.rows.insert(state, row);
        }
        // qlint::allow(PN01, reason = "the branch above inserts the row when absent; the probe cannot miss")
        let row = self.rows.get_mut(&state).expect("row ensured above");
        (&mut row.values, &mut row.visits)
    }

    fn contains(&self, state: StateKey) -> bool {
        self.rows.contains_key(&state) || self.base.contains(state)
    }

    fn state_keys(&self) -> Vec<StateKey> {
        let mut keys = self.base.state_keys();
        keys.extend(self.rows.keys().filter(|k| !self.base.contains(**k)));
        keys.sort_unstable();
        keys
    }

    fn for_each_row(&self, f: &mut RowVisitor<'_>) {
        for (&k, row) in &self.rows {
            f(k, &row.values, &row.visits);
        }
        let rows = &self.rows;
        self.base.store().for_each_row(&mut |k, values, visits| {
            if !rows.contains_key(&k) {
                f(k, values, visits);
            }
        });
    }

    fn for_each_row_mut(&mut self, f: &mut RowVisitorMut<'_>) {
        // Every row is handed out mutably, so the whole base must be
        // copied into the private map first — the O(base) cost of
        // mutating an overlay wholesale (see the type-level docs).
        let rows = &mut self.rows;
        self.base.store().for_each_row(&mut |k, values, visits| {
            rows.entry(k).or_insert_with(|| OverlayRow {
                values: values.to_vec(),
                visits: visits.to_vec(),
            });
        });
        for (&k, row) in &mut self.rows {
            f(k, &mut row.values, &mut row.visits);
        }
    }

    fn resident_bytes(&self) -> usize {
        // Only privately-owned rows count: the base is shared and
        // attributed to its owner, the overlay holds one Arc pointer.
        self.rows.len() * (self.n_actions() * 16 + 8) + std::mem::size_of::<usize>()
    }
}

/// Equality is observational, like the dense backend's: same action
/// count, same touched states, same effective rows — two overlays are
/// equal whether a row lives in the base or the private map, and an
/// overlay equals the dense/hash table with the same logical contents
/// after conversion.
impl PartialEq for OverlayStore {
    fn eq(&self, other: &Self) -> bool {
        if self.n_actions() != other.n_actions() || self.len() != other.len() {
            return false;
        }
        let mut equal = true;
        self.for_each_row(&mut |k, values, visits| {
            if equal {
                equal = other
                    .row(k)
                    .is_some_and(|(ov, on)| values == ov && visits == on);
            }
        });
        equal
    }
}

impl QTable<OverlayStore> {
    /// O(1) warm start: a table whose initial contents are exactly
    /// `base`, sharing it by `Arc` — nothing is copied until a row is
    /// written. The table's default Q-value is the base's.
    #[must_use]
    pub fn overlay(base: Arc<DenseQTable>) -> Self {
        QTable::from_store(base.default_q(), OverlayStore::over(base))
    }

    /// The shared base this overlay reads through to.
    #[must_use]
    pub fn base(&self) -> &Arc<DenseQTable> {
        self.store().base()
    }

    /// Number of privately-owned (touched) rows — the device's actual
    /// working set, and what [`QTable::resident_bytes`] is proportional
    /// to.
    #[must_use]
    pub fn touched_rows(&self) -> usize {
        self.store().touched_rows()
    }

    /// Encodes the `NXQT` delta (kind 2) that transforms the base into
    /// this table, in O(touched rows): only privately-owned rows are
    /// even candidates — an untouched row *is* the base's row bitwise —
    /// and candidates that were copied but never actually changed are
    /// filtered by the same bitwise row comparison
    /// [`crate::codec::delta_between`] uses. The bytes are identical to
    /// `delta_between(&base, &self.to_backend::<DenseStore>())`.
    #[must_use]
    pub fn delta_bytes(&self) -> Vec<u8> {
        let store = self.store();
        let mut changed: Vec<StateKey> = store
            .rows
            .iter()
            .filter(|(k, row)| {
                codec::row_differs(store.base.entry_raw(**k), &row.values, &row.visits)
            })
            .map(|(&k, _)| k)
            .collect();
        changed.sort_unstable();
        let mut out = Vec::with_capacity(32 + changed.len() * (3 + self.n_actions() * 10));
        codec::encode_header(
            &mut out,
            codec::KIND_DELTA,
            self.n_actions(),
            self.default_q(),
        );
        codec::put_varint(&mut out, changed.len() as u64);
        let mut prev = None;
        for k in changed {
            let row = &store.rows[&k];
            codec::encode_row(&mut out, prev, k, &row.values, &row.visits);
            prev = Some(k);
        }
        out
    }

    /// Consuming alias of [`QTable::delta_bytes`]: the round's uplink
    /// payload, extracted as the overlay is retired.
    #[must_use]
    pub fn into_delta(self) -> Vec<u8> {
        self.delta_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::DenseStore;
    use crate::codec::{apply_delta, delta_between};

    fn trained_base() -> Arc<DenseQTable> {
        let mut t = DenseQTable::dense_for_space(4, 25.0, 1_000);
        for s in [0u64, 7, 42, 999] {
            for a in 0..4usize {
                if !(s as usize + a).is_multiple_of(3) {
                    t.set(s, a, (s as f64).mul_add(0.5, a as f64) - 3.0);
                }
            }
        }
        Arc::new(t)
    }

    #[test]
    fn warm_start_shares_the_base_without_copying() {
        let base = trained_base();
        let overlay = QTable::overlay(Arc::clone(&base));
        assert!(Arc::ptr_eq(overlay.base(), &base));
        assert_eq!(overlay.touched_rows(), 0);
        assert_eq!(overlay.len(), base.len());
        assert_eq!(overlay.default_q(), base.default_q());
        // Reads go straight through to the base.
        assert_eq!(overlay.q(7, 1), base.q(7, 1));
        assert_eq!(overlay.best_action(42), base.best_action(42));
        assert_eq!(overlay.values(999), base.values(999));
        assert_eq!(overlay.state_keys(), base.state_keys());
        assert_eq!(overlay.total_visits(), base.total_visits());
    }

    #[test]
    fn writes_copy_exactly_the_touched_rows() {
        let base = trained_base();
        let before = base.q(7, 0);
        let mut overlay = QTable::overlay(Arc::clone(&base));
        overlay.set(7, 1, -9.0); // shadows a base row
        overlay.set(123, 2, 1.5); // novel row
        assert_eq!(overlay.touched_rows(), 2);
        assert_eq!(overlay.len(), base.len() + 1);
        // The shadowed row kept its untouched cells.
        assert_eq!(overlay.q(7, 1), -9.0);
        assert_eq!(overlay.q(7, 0), before);
        assert_eq!(overlay.visits(7, 1), base.visits(7, 1) + 1);
        // The base never moved.
        assert_ne!(base.q(7, 1), -9.0);
        assert!(!base.contains(123));
        // Untouched rows still read through.
        assert_eq!(overlay.values(42), base.values(42));
    }

    #[test]
    fn overlay_encodes_like_its_materialised_copy() {
        let base = trained_base();
        let mut overlay = QTable::overlay(Arc::clone(&base));
        let mut dense = (*base).clone();
        for (s, a, v) in [(7u64, 1usize, -9.0f64), (123, 2, 1.5), (0, 0, 0.25)] {
            overlay.set(s, a, v);
            dense.set(s, a, v);
        }
        assert_eq!(crate::encode_table(&overlay), crate::encode_table(&dense));
        assert_eq!(overlay.to_backend::<DenseStore>(), dense);
    }

    #[test]
    fn delta_bytes_match_the_full_space_diff_exactly() {
        let base = trained_base();
        let mut overlay = QTable::overlay(Arc::clone(&base));
        overlay.set(7, 1, -9.0);
        overlay.set(123, 2, 1.5);
        // Touch a row without changing it: copied, then overwritten
        // back to its base bits (set counts a visit, so force the
        // visit row back too).
        {
            let before = base.entry_raw(42).expect("base row").1.to_vec();
            overlay.set(42, 3, base.q(42, 3));
            let store_row = overlay.q(42, 3);
            assert_eq!(store_row, base.q(42, 3));
            // Undo the visit count bump through insert_raw semantics:
            // re-materialise the base row bit-for-bit.
            let bv = base.entry_raw(42).expect("base row").0.to_vec();
            overlay.insert_raw(42, &bv, &before);
        }
        assert_eq!(overlay.touched_rows(), 3);

        let dense = overlay.to_backend::<DenseStore>();
        let reference = delta_between(&*base, &dense).expect("materialised diff");
        let fast = overlay.delta_bytes();
        assert_eq!(fast, reference, "O(touched) delta must be byte-identical");
        // The unchanged touched row was filtered out: only 2 rows ride.
        let reconstructed = apply_delta(&*base, &fast).expect("delta applies");
        assert_eq!(reconstructed, dense);
        assert_eq!(overlay.into_delta(), fast);
    }

    #[test]
    fn empty_overlay_yields_an_empty_delta() {
        let base = trained_base();
        let overlay = QTable::overlay(Arc::clone(&base));
        let delta = overlay.delta_bytes();
        let reference = delta_between(&*base, &*base).expect("self diff");
        assert_eq!(delta, reference);
        assert_eq!(apply_delta(&*base, &delta).expect("applies"), *base);
    }

    #[test]
    fn for_each_row_mut_materialises_the_base() {
        let base = trained_base();
        let mut store = OverlayStore::over(Arc::clone(&base));
        store.row_mut(123, 25.0).0[2] = 1.5; // one novel row
        let mut seen = 0usize;
        store.for_each_row_mut(&mut |_, values, _| {
            seen += 1;
            for v in values.iter_mut() {
                *v += 1.0;
            }
        });
        // Wholesale mutation copied every base row into the map.
        assert_eq!(seen, base.len() + 1);
        assert_eq!(store.touched_rows(), base.len() + 1);
        // The shared base itself never moved.
        assert_eq!(store.row(7).expect("row").0[1], base.q(7, 1) + 1.0);
        let base_row = base.entry_raw(7).expect("base row");
        assert_eq!(base_row.0[1], base.q(7, 1));
        // fold_weighted rides on row_mut, so the default trait impl
        // works unchanged over an overlay.
        let mut acc = OverlayStore::with_actions(4);
        acc.fold_weighted(&store);
        assert_eq!(acc.len(), store.len());
    }

    #[test]
    fn observational_equality_ignores_where_rows_live() {
        let base = trained_base();
        // Same logical contents, different split between base and map.
        let mut a = QTable::overlay(Arc::clone(&base));
        a.set(7, 1, -9.0);
        let mut materialised = (*base).clone();
        materialised.set(7, 1, -9.0);
        let b = materialised.to_backend::<OverlayStore>();
        assert_eq!(a, b);
        let mut c = QTable::overlay(Arc::clone(&base));
        c.set(7, 1, -8.5);
        assert_ne!(a, c);
    }

    #[test]
    fn resident_bytes_counts_touched_rows_only() {
        let base = trained_base();
        let mut overlay = QTable::overlay(Arc::clone(&base));
        let empty = overlay.resident_bytes();
        overlay.set(7, 1, -9.0);
        overlay.set(123, 2, 1.5);
        let touched = overlay.resident_bytes();
        assert!(touched > empty);
        assert!(
            touched < (*base).resident_bytes() / 4,
            "2 touched rows must cost far less than the {}-row base",
            base.len()
        );
    }

    #[test]
    fn delta_cost_follows_the_writes_not_the_base() {
        // Two fully populated 9-action bases, 2^12 and 2^16 states,
        // filled by one formula, take the same writes: 1 % of the
        // smaller base's states. What the overlay owns and emits must
        // be identical over both: its cost is a function of the writes.
        fn full_base(states: u64) -> Arc<DenseQTable> {
            let mut table = DenseQTable::dense_for_space(9, 0.0, states);
            for s in 0..states {
                let values: Vec<f64> = (0..9u64)
                    .map(|a| ((s * 31 + a * 7) % 1_000) as f64 * 0.01 - 5.0)
                    .collect();
                let visits: Vec<u64> = (0..9u64).map(|a| 1 + (s + a) % 5).collect();
                table.insert_raw(s, &values, &visits);
            }
            Arc::new(table)
        }
        let written: Vec<u64> = (0..41).map(|i| i * 100).collect();
        let mut outcomes = Vec::new();
        for states in [1u64 << 12, 1 << 16] {
            let base = full_base(states);
            assert_eq!(base.len() as u64, states);
            let mut overlay = QTable::overlay(Arc::clone(&base));
            for &k in &written {
                overlay.set(k, (k % 9) as usize, -1.0 - k as f64);
            }
            let mut touched = Vec::new();
            overlay
                .store()
                .for_each_touched(&mut |k, _, _| touched.push(k));
            touched.sort_unstable();
            assert_eq!(touched, written, "only the written rows are owned");
            let delta = overlay.delta_bytes();
            let reference = delta_between(&*base, &overlay.to_backend::<DenseStore>())
                .expect("materialised diff");
            assert_eq!(delta, reference, "O(touched) delta must be byte-identical");
            outcomes.push((overlay.touched_rows(), overlay.resident_bytes(), delta));
        }
        assert_eq!(outcomes[0], outcomes[1], "the base size must not show");
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_actions_rejected() {
        let _ = OverlayStore::with_actions(0);
    }
}
