//! Offline training in the cloud and federated averaging (§IV-C).
//!
//! The paper observes that a manufacturer ships many devices running the
//! same applications, so per-application Q-tables can be learned
//! federated-style: devices upload their tables, the cloud merges them,
//! and the merged action values are pushed back. Training in the cloud
//! is also simply *faster* — Fig. 6 compares on-device training time
//! against a 16-core Xeon E7-8860v3 with a measured round-trip
//! communication overhead of up to 4 seconds.
//!
//! # Streaming merge
//!
//! At fleet scale the cloud folds tables from millions of devices, so
//! the merger is a **streaming accumulator** ([`MergeAccumulator`]):
//! tables are folded one at a time, each fold touching every input row
//! exactly once, with memory bounded by the *union* of visited states —
//! a device's table can be dropped (or streamed from the network) the
//! moment it has been folded. The eager all-keys merge (materialise
//! and sort the concatenated key set of *every* table, then probe each
//! table per key) survives only as the oracle of this module's tests.
//!
//! A fold walks the input's rows once and adds `q·n` and `n` per cell
//! into the accumulator's row of the same key — one index probe per
//! row, no sorting, no key decoding. Campaign devices fold as overlays
//! ([`MergeAccumulator::fold_overlay`]): only the rows a device touched
//! are walked, and the shared base is added in closed form.

// qlint::allow(ND03, reason = "touched-row counters; iterated only in the finish fold where each key contributes independently")
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use crate::backend::{DenseStore, KeyHashBuilder, QStore, StateKey};
use crate::overlay::OverlayStore;
use crate::qtable::{DenseQTable, QTable};

/// Error returned by [`merge`] and by [`MergeAccumulator`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MergeError {
    /// No table was provided/folded — there is nothing to merge.
    NoTables,
    /// A table's action count disagrees with the accumulator's.
    ActionMismatch {
        /// Action count the accumulator was created with.
        expected: usize,
        /// Action count of the offending table.
        got: usize,
    },
    /// An overlay fold saw a table whose shared base is a different
    /// `Arc` than the first overlay's — the closed-form base
    /// reconstruction only holds when every device reads the same base.
    BaseMismatch,
    /// [`MergeAccumulator::fold`] and
    /// [`MergeAccumulator::fold_overlay`] were mixed in one
    /// accumulator; the base correction cannot tell the two
    /// populations apart.
    MixedFold,
}

impl fmt::Display for MergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MergeError::NoTables => write!(f, "cannot merge zero tables"),
            MergeError::ActionMismatch { expected, got } => write!(
                f,
                "all tables must share the action space: expected {expected} actions, got {got}"
            ),
            MergeError::BaseMismatch => {
                write!(f, "overlay folds must share a single Arc base table")
            }
            MergeError::MixedFold => {
                write!(f, "cannot mix overlay folds and plain folds in one merge")
            }
        }
    }
}

impl std::error::Error for MergeError {}

/// Streaming visit-weighted merger: fold device tables one at a time,
/// then [`finish`](MergeAccumulator::finish) into the fleet table.
///
/// Internally the store holds per-pair numerators `Σ(visits·q)` in the
/// value cells and denominators `Σ visits` in the visit cells; `finish`
/// normalises in place. Memory stays proportional to the union of
/// visited states — tables never need to coexist, and no key set is
/// ever sorted.
///
/// ```
/// use qlearn::federated::MergeAccumulator;
/// use qlearn::QTable;
///
/// let mut a = QTable::new(3);
/// a.set(7, 1, 2.0);
/// let mut b = QTable::new(3);
/// b.set(7, 1, 4.0);
///
/// let mut acc = MergeAccumulator::new(3, 0.0);
/// acc.fold(&a).unwrap();
/// drop(a); // folded tables can be released immediately
/// acc.fold(&b).unwrap();
/// let fleet = acc.finish().unwrap();
/// assert_eq!(fleet.q(7, 1), 3.0);
/// assert_eq!(fleet.visits(7, 1), 2);
/// ```
#[derive(Debug, Clone)]
pub struct MergeAccumulator<S: QStore = DenseStore> {
    store: S,
    default_q: f64,
    folded: usize,
    overlay: Option<OverlayFold>,
}

/// Book-keeping for the overlay fast path: the shared base every
/// folded overlay reads through to, and how many folded devices
/// touched (shadowed) each base row. Untouched base rows contribute
/// `base_row × (folded − touched)` in closed form at finish time
/// instead of being re-folded per device.
#[derive(Debug, Clone)]
struct OverlayFold {
    base: Arc<DenseQTable>,
    // qlint::allow(ND03, reason = "per-key shadow counters; finish reads them by probing, never by iteration order")
    touched: HashMap<StateKey, u64, KeyHashBuilder>,
}

impl<S: QStore> MergeAccumulator<S> {
    /// Creates an empty accumulator for `n_actions` actions whose
    /// merged table will read `default_q` on unvisited pairs.
    ///
    /// # Panics
    ///
    /// Panics if `n_actions` is zero or `default_q` is not finite.
    #[must_use]
    pub fn new(n_actions: usize, default_q: f64) -> Self {
        assert!(default_q.is_finite(), "default q must be finite");
        MergeAccumulator {
            store: S::with_actions(n_actions),
            default_q,
            folded: 0,
            overlay: None,
        }
    }

    /// Number of tables folded so far.
    #[must_use]
    pub fn n_folded(&self) -> usize {
        self.folded
    }

    /// Folds one device table into the accumulator: every row of
    /// `table` is added once, as visit-weighted sums, into the
    /// accumulator's row of the same key.
    ///
    /// # Errors
    ///
    /// Returns [`MergeError::ActionMismatch`] when the table's action
    /// count differs from the accumulator's, or
    /// [`MergeError::MixedFold`] after an overlay fold; the
    /// accumulator is left untouched in either case.
    pub fn fold(&mut self, table: &QTable<S>) -> Result<(), MergeError> {
        if self.overlay.is_some() {
            return Err(MergeError::MixedFold);
        }
        if table.n_actions() != self.store.n_actions() {
            return Err(MergeError::ActionMismatch {
                expected: self.store.n_actions(),
                got: table.n_actions(),
            });
        }
        let store = &mut self.store;
        table
            .store()
            .for_each_row(&mut |k, values, visits| add_weighted(store, k, values, visits));
        self.folded += 1;
        Ok(())
    }

    /// Folds the closed-form contribution of untouched base rows —
    /// every folded device whose overlay did not shadow a base row
    /// contributed that row verbatim, so `folded − touched` copies are
    /// added in one pass over the base instead of once per device.
    /// Rows are materialised unconditionally so the merged table's row
    /// set stays the union of the inputs' rows, exactly like the
    /// per-device fold.
    fn apply_overlay_corrections(&mut self) {
        let Some(fold) = self.overlay.take() else {
            return;
        };
        let folded = self.folded as u64;
        let store = &mut self.store;
        fold.base.store().for_each_row(&mut |k, bv, bn| {
            let untouched = folded - fold.touched.get(&k).copied().unwrap_or(0);
            let (v, n) = store.row_mut(k, 0.0);
            for a in 0..bv.len() {
                v[a] += untouched as f64 * (bv[a] * bn[a] as f64);
                n[a] += untouched * bn[a];
            }
        });
    }

    /// Normalises the accumulated sums into the merged fleet table:
    /// every visited pair becomes `Σ(visits·q) / Σ visits` with the
    /// summed visit count; unvisited pairs read the default.
    ///
    /// # Errors
    ///
    /// Returns [`MergeError::NoTables`] when nothing was folded.
    pub fn finish(mut self) -> Result<QTable<S>, MergeError> {
        if self.folded == 0 {
            return Err(MergeError::NoTables);
        }
        self.apply_overlay_corrections();
        let default_q = self.default_q;
        self.store.for_each_row_mut(&mut |_, values, visits| {
            for (v, &n) in values.iter_mut().zip(visits.iter()) {
                if n > 0 {
                    *v /= n as f64;
                } else {
                    *v = default_q;
                }
            }
        });
        Ok(QTable::from_store(default_q, self.store))
    }

    /// Like [`finish`](MergeAccumulator::finish), but divides the
    /// summed visit counts by the number of folded tables (rounding
    /// down, floored at 1 for visited pairs) so visit magnitudes stay
    /// *stationary* across repeated merge generations.
    ///
    /// [`finish`](MergeAccumulator::finish) sums visits — correct for a
    /// one-shot fleet merge, but a campaign folds every device's table
    /// into the global table **every round**, and each device's table
    /// starts from the previous merged table: summed counts would grow
    /// by roughly a factor of the device count per round and overflow
    /// `u64` within a handful of rounds at 10⁶ devices. Normalising by
    /// the fold count keeps the merged count an *average* per device
    /// (the value average is unchanged — it is weighted by the raw
    /// sums either way).
    ///
    /// # Errors
    ///
    /// Returns [`MergeError::NoTables`] when nothing was folded.
    pub fn finish_normalized(mut self) -> Result<QTable<S>, MergeError> {
        if self.folded == 0 {
            return Err(MergeError::NoTables);
        }
        self.apply_overlay_corrections();
        let default_q = self.default_q;
        let folded = self.folded as u64;
        self.store.for_each_row_mut(&mut |_, values, visits| {
            for (v, n) in values.iter_mut().zip(visits.iter_mut()) {
                if *n > 0 {
                    *v /= *n as f64;
                    *n = (*n / folded).max(1);
                } else {
                    *v = default_q;
                }
            }
        });
        Ok(QTable::from_store(default_q, self.store))
    }
}

impl MergeAccumulator<DenseStore> {
    /// Folds one device **overlay** in O(rows the device touched).
    ///
    /// Every overlay of the round shares the merged global as its
    /// `Arc` base, so a device's table is `base` with a handful of
    /// shadowed rows. Only those shadowed rows are folded here; the
    /// untouched remainder — identical across all devices — is added
    /// in closed form (`base_row × untouched_device_count`) when the
    /// accumulator finishes. The merged *result* is the same
    /// visit-weighted average [`MergeAccumulator::fold`] produces over
    /// materialised copies (per-row addition order differs, so the
    /// last floating-point bits may too), at a per-device cost
    /// proportional to one day's working set instead of the full
    /// state space.
    ///
    /// # Errors
    ///
    /// Returns [`MergeError::ActionMismatch`] on a differing action
    /// count, [`MergeError::BaseMismatch`] when `table` does not share
    /// the first overlay's `Arc` base, and [`MergeError::MixedFold`]
    /// after a plain [`MergeAccumulator::fold`]; the accumulator is
    /// left untouched in every error case.
    pub fn fold_overlay(&mut self, table: &QTable<OverlayStore>) -> Result<(), MergeError> {
        if table.n_actions() != self.store.n_actions() {
            return Err(MergeError::ActionMismatch {
                expected: self.store.n_actions(),
                got: table.n_actions(),
            });
        }
        if let Some(fold) = &self.overlay {
            if !Arc::ptr_eq(&fold.base, table.base()) {
                return Err(MergeError::BaseMismatch);
            }
        } else {
            if self.folded > 0 {
                return Err(MergeError::MixedFold);
            }
            self.overlay = Some(OverlayFold {
                base: Arc::clone(table.base()),
                // qlint::allow(ND03, reason = "constructor for the field annotated above")
                touched: HashMap::default(),
            });
        }
        // qlint::allow(PN01, reason = "both branches above leave self.overlay populated")
        let fold = self.overlay.as_mut().expect("overlay fold ensured above");
        let store = &mut self.store;
        table.store().for_each_touched(&mut |k, values, visits| {
            add_weighted(store, k, values, visits);
            *fold.touched.entry(k).or_insert(0) += 1;
        });
        self.folded += 1;
        Ok(())
    }
}

/// Adds one input row into the accumulator's row of the same key as
/// visit-weighted sums: `Σ(q·n) += q·n` and `Σn += n` per action (a row
/// the accumulator lacks starts at zero).
fn add_weighted<S: QStore>(store: &mut S, k: StateKey, values: &[f64], visits: &[u64]) {
    let (v, n) = store.row_mut(k, 0.0);
    for a in 0..values.len() {
        v[a] += values[a] * visits[a] as f64;
        n[a] += visits[a];
    }
}

/// Merges device Q-tables into a fleet table by visit-weighted
/// averaging: for every `(state, action)` the merged value is
/// `Σ(visits·q) / Σ(visits)` over the tables that visited the pair,
/// and the merged visit count is the sum. Pairs no device visited read
/// the first table's default.
///
/// Streams through [`MergeAccumulator`] — bounded memory, one pass per
/// table.
///
/// # Errors
///
/// Returns [`MergeError`] when `tables` is empty or the action counts
/// disagree.
pub fn merge<S: QStore>(tables: &[&QTable<S>]) -> Result<QTable<S>, MergeError> {
    let first = tables.first().ok_or(MergeError::NoTables)?;
    let mut acc = MergeAccumulator::new(first.n_actions(), first.default_q());
    for t in tables {
        acc.fold(t)?;
    }
    acc.finish()
}

/// Timing model for cloud/offline training (Fig. 6).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CloudModel {
    /// How much faster the cloud executes Q-updates than the device's
    /// LITTLE cluster.
    pub speedup: f64,
    /// Fixed to-and-fro communication overhead per training round,
    /// seconds.
    pub comm_overhead_s: f64,
}

impl CloudModel {
    /// The paper's setup: a 16-core Xeon E7-8860v3 with 64 GB DDR3 —
    /// roughly an order of magnitude faster than the Cortex-A55 cluster
    /// for the table updates — plus the measured ≤4 s round-trip.
    #[must_use]
    pub fn xeon_e7_8860v3() -> Self {
        CloudModel {
            speedup: 9.0,
            comm_overhead_s: 4.0,
        }
    }

    /// Wall-clock time the cloud needs for a training run that takes
    /// `online_time_s` on the device, including the communication
    /// round-trip.
    ///
    /// # Panics
    ///
    /// Panics if `speedup` is not positive.
    #[must_use]
    pub fn cloud_time_s(&self, online_time_s: f64) -> f64 {
        assert!(self.speedup > 0.0, "speedup must be positive");
        online_time_s.max(0.0) / self.speedup + self.comm_overhead_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::encode_table;
    use proptest::prelude::*;

    /// The eager all-keys merge: materialises and sorts the
    /// concatenated key set of every table, then probes each table once
    /// per key. It is the oracle of the streaming merge — the per-pair
    /// fold order is identical, so even the floating-point rounding
    /// must match.
    fn merge_eager(tables: &[&DenseQTable]) -> DenseQTable {
        let n_actions = tables[0].n_actions();
        let mut merged = QTable::with_default_q(n_actions, tables[0].default_q());
        let mut all_states: Vec<_> = tables.iter().flat_map(|t| t.state_keys()).collect();
        all_states.sort_unstable();
        all_states.dedup();
        for state in all_states {
            let mut values = vec![0.0f64; n_actions];
            let mut weights = vec![0u64; n_actions];
            for t in tables {
                if let Some((v, n)) = t.entry_raw(state) {
                    for a in 0..n_actions {
                        values[a] += v[a] * n[a] as f64;
                        weights[a] += n[a];
                    }
                }
            }
            for a in 0..n_actions {
                if weights[a] > 0 {
                    values[a] /= weights[a] as f64;
                }
            }
            merged.insert_raw(state, &values, &weights);
        }
        merged
    }

    fn table_with(state: u64, action: usize, value: f64, visits: u64) -> QTable {
        let mut t = QTable::new(3);
        for _ in 0..visits {
            t.set(state, action, value);
        }
        t
    }

    #[test]
    fn merge_single_table_is_identity_on_values() {
        let t = table_with(5, 1, 2.0, 3);
        let merged = merge(&[&t]).unwrap();
        assert_eq!(merged.q(5, 1), 2.0);
        assert_eq!(merged.visits(5, 1), 3);
    }

    #[test]
    fn merge_weights_by_visits() {
        // Device A visited (0,0) once with value 0; device B ten times
        // with value 1 — the merge should sit near B.
        let a = table_with(0, 0, 0.0, 1);
        let b = table_with(0, 0, 1.0, 10);
        let merged = merge(&[&a, &b]).unwrap();
        let q = merged.q(0, 0);
        assert!((q - 10.0 / 11.0).abs() < 1e-12, "q {q}");
        assert_eq!(merged.visits(0, 0), 11);
    }

    #[test]
    fn merge_unions_disjoint_states() {
        let a = table_with(1, 0, 1.0, 1);
        let b = table_with(2, 2, -1.0, 1);
        let merged = merge(&[&a, &b]).unwrap();
        assert_eq!(merged.len(), 2);
        assert_eq!(merged.q(1, 0), 1.0);
        assert_eq!(merged.q(2, 2), -1.0);
    }

    #[test]
    fn merge_stays_in_convex_hull() {
        let a = table_with(0, 0, -2.0, 4);
        let b = table_with(0, 0, 3.0, 2);
        let c = table_with(0, 0, 0.5, 1);
        let merged = merge(&[&a, &b, &c]).unwrap();
        let q = merged.q(0, 0);
        assert!(
            (-2.0..=3.0).contains(&q),
            "merged value {q} escaped the hull"
        );
    }

    #[test]
    fn merge_returns_typed_errors() {
        assert_eq!(merge::<DenseStore>(&[]), Err(MergeError::NoTables));
        let a = QTable::new(2);
        let b = QTable::new(3);
        assert_eq!(
            merge(&[&a, &b]),
            Err(MergeError::ActionMismatch {
                expected: 2,
                got: 3
            })
        );
        assert!(merge(&[&a]).is_ok());
    }

    #[test]
    fn accumulator_rejects_mismatch_and_stays_usable() {
        let mut acc: MergeAccumulator = MergeAccumulator::new(3, 0.0);
        let good = table_with(1, 0, 1.0, 2);
        let bad = QTable::new(2);
        acc.fold(&good).expect("3-action table folds");
        assert!(matches!(
            acc.fold(&bad),
            Err(MergeError::ActionMismatch {
                expected: 3,
                got: 2
            })
        ));
        assert_eq!(acc.n_folded(), 1, "failed fold must not count");
        let merged = acc.finish().expect("one table folded");
        assert_eq!(merged.q(1, 0), 1.0);
    }

    #[test]
    fn normalized_finish_keeps_values_and_averages_visits() {
        let a = table_with(0, 0, 1.0, 6);
        let b = table_with(0, 0, 4.0, 2);
        let summed = {
            let mut acc: MergeAccumulator = MergeAccumulator::new(3, 0.0);
            acc.fold(&a).unwrap();
            acc.fold(&b).unwrap();
            acc.finish().unwrap()
        };
        let normalized = {
            let mut acc: MergeAccumulator = MergeAccumulator::new(3, 0.0);
            acc.fold(&a).unwrap();
            acc.fold(&b).unwrap();
            acc.finish_normalized().unwrap()
        };
        // Values are bit-identical; only the visit magnitude changes.
        assert_eq!(normalized.q(0, 0).to_bits(), summed.q(0, 0).to_bits());
        assert_eq!(summed.visits(0, 0), 8);
        assert_eq!(normalized.visits(0, 0), 4, "8 visits over 2 tables");
        // A pair visited fewer times than the fold count floors at 1
        // rather than vanishing back to "unvisited".
        let c = table_with(5, 1, 2.0, 1);
        let d = table_with(9, 2, 3.0, 1);
        let mut acc: MergeAccumulator = MergeAccumulator::new(3, 0.0);
        acc.fold(&c).unwrap();
        acc.fold(&d).unwrap();
        let out = acc.finish_normalized().unwrap();
        assert_eq!(out.visits(5, 1), 1);
        assert_eq!(out.visits(9, 2), 1);
        assert_eq!(out.q(5, 1), 2.0);
    }

    #[test]
    fn empty_accumulator_refuses_to_finish() {
        let acc: MergeAccumulator = MergeAccumulator::new(3, 0.0);
        assert_eq!(acc.finish().err(), Some(MergeError::NoTables));
    }

    #[test]
    fn streaming_matches_eager_reference_exactly() {
        let tables = [
            table_with(0, 0, 1.5, 3),
            table_with(0, 0, -2.0, 5),
            table_with(9, 2, 0.25, 1),
            table_with(0, 1, 4.0, 2),
        ];
        let refs: Vec<&QTable> = tables.iter().collect();
        let eager = merge_eager(&refs);
        let streaming = merge(&refs).unwrap();
        assert_eq!(streaming, eager);
        assert_eq!(
            encode_table(&streaming),
            encode_table(&eager),
            "bit-identical"
        );
    }

    #[test]
    fn dense_fast_path_handles_divergent_layouts_and_spaces() {
        // Table B visits a key far beyond table A's keys, in a different
        // row order; the accumulator must union the two.
        let mut a = QTable::new(3);
        a.set(4, 1, 2.0);
        a.set(2, 0, 1.0);
        let mut b = QTable::new(3);
        b.set(2, 0, 3.0);
        b.set(5_000, 2, -1.0);
        let mut acc: MergeAccumulator<DenseStore> = MergeAccumulator::new(3, 0.0);
        acc.fold(&a).unwrap();
        acc.fold(&b).unwrap();
        let merged = acc.finish().unwrap();
        assert_eq!(merged.q(2, 0), 2.0, "visit-weighted mean of 1 and 3");
        assert_eq!(merged.q(4, 1), 2.0);
        assert_eq!(merged.q(5_000, 2), -1.0);
        assert_eq!(merged.len(), 3);

        // The eager oracle gives the same bytes.
        assert_eq!(encode_table(&merged), encode_table(&merge_eager(&[&a, &b])));
    }

    #[test]
    fn dense_identical_layout_zips_arenas() {
        // Three tables built by the same population walk share row
        // order; the streaming merge must match the eager reference bit
        // for bit.
        let build = |scale: f64| {
            let mut t = QTable::new(4);
            for s in 0..64u64 {
                for a in 0..4 {
                    t.set(s, a, scale * (s as f64 - a as f64));
                }
            }
            t
        };
        let a = build(1.0);
        let b = build(-0.5);
        let c = build(0.25);
        let refs = vec![&a, &b, &c];
        assert_eq!(merge(&refs).unwrap(), merge_eager(&refs));
    }

    #[test]
    fn merge_preserves_default_q_of_first_table() {
        let a = QTable::with_default_q(2, 7.5);
        let mut b = QTable::with_default_q(2, 7.5);
        b.set(3, 0, 1.0);
        let merged = merge(&[&a, &b]).unwrap();
        assert_eq!(merged.default_q(), 7.5);
        assert_eq!(merged.q(3, 1), 7.5, "unvisited sibling reads default");
        assert_eq!(merged.q(3, 0), 1.0);
    }

    fn shared_base() -> Arc<DenseQTable> {
        // Dyadic values keep every product/sum exactly representable,
        // so the overlay fast path and the materialised-copy fold are
        // comparable bit for bit despite their differing addition
        // order.
        let mut t = DenseQTable::with_default_q(3, 0.25);
        for s in 0..32u64 {
            for a in 0..3 {
                for _ in 0..=(s as usize % 3) {
                    t.set(s, a, s as f64 * 0.5 - a as f64 * 0.25);
                }
            }
        }
        Arc::new(t)
    }

    fn device_overlays(base: &Arc<DenseQTable>) -> Vec<QTable<OverlayStore>> {
        (0..4u64)
            .map(|d| {
                let mut t = QTable::overlay(Arc::clone(base));
                // Shadow a couple of base rows and add one novel row;
                // devices overlap on row 5.
                t.set(5, (d % 3) as usize, d as f64 * 0.5 - 1.0);
                t.set(10 + d, 1, 2.0 - d as f64 * 0.25);
                t.set(100 + d, 2, 0.75); // beyond the base's 32 rows
                t
            })
            .collect()
    }

    #[test]
    fn overlay_fold_matches_dense_fold_on_materialised_copies() {
        let base = shared_base();
        let overlays = device_overlays(&base);

        let mut fast: MergeAccumulator<DenseStore> = MergeAccumulator::new(3, base.default_q());
        for t in &overlays {
            fast.fold_overlay(t).expect("shared-base overlay folds");
        }
        assert_eq!(fast.n_folded(), overlays.len());

        let mut reference: MergeAccumulator<DenseStore> =
            MergeAccumulator::new(3, base.default_q());
        for t in &overlays {
            reference.fold(&t.to_backend::<DenseStore>()).expect("fold");
        }

        let fast_n = fast.clone().finish_normalized().expect("tables folded");
        let ref_n = reference
            .clone()
            .finish_normalized()
            .expect("tables folded");
        assert_eq!(
            encode_table(&fast_n),
            encode_table(&ref_n),
            "normalized merge bits"
        );

        let fast_t = fast.finish().expect("tables folded");
        let ref_t = reference.finish().expect("tables folded");
        assert_eq!(
            encode_table(&fast_t),
            encode_table(&ref_t),
            "summed merge bits"
        );
        // The merged row set is the union: all base rows plus novels.
        assert_eq!(fast_t.len(), base.len() + 4);
    }

    #[test]
    fn overlay_fold_of_untouched_devices_reproduces_the_base() {
        let base = shared_base();
        let mut acc: MergeAccumulator<DenseStore> = MergeAccumulator::new(3, base.default_q());
        for _ in 0..3 {
            acc.fold_overlay(&QTable::overlay(Arc::clone(&base)))
                .expect("empty overlay folds");
        }
        let merged = acc.finish_normalized().expect("tables folded");
        // Averaging N identical copies is the identity on values, and
        // normalisation brings the visit magnitudes back to one copy.
        assert_eq!(encode_table(&merged), encode_table(&*base));
    }

    #[test]
    fn overlay_fold_rejects_foreign_bases_and_mixing() {
        let base = shared_base();
        let other = shared_base(); // equal contents, different Arc
        let mut acc: MergeAccumulator<DenseStore> = MergeAccumulator::new(3, base.default_q());
        acc.fold_overlay(&QTable::overlay(Arc::clone(&base)))
            .expect("first fold");
        assert_eq!(
            acc.fold_overlay(&QTable::overlay(other)),
            Err(MergeError::BaseMismatch)
        );
        assert_eq!(
            acc.fold(&QTable::new(3)),
            Err(MergeError::MixedFold),
            "plain fold after overlay fold"
        );
        assert_eq!(acc.n_folded(), 1, "failed folds must not count");
        assert!(acc.finish().is_ok());

        let mut plain: MergeAccumulator<DenseStore> = MergeAccumulator::new(3, 0.0);
        plain.fold(&QTable::new(3)).expect("plain fold");
        assert_eq!(
            plain.fold_overlay(&QTable::overlay(base)),
            Err(MergeError::MixedFold),
            "overlay fold after plain fold"
        );
        let wrong_width = QTable::overlay(Arc::new(QTable::new(2)));
        let mut acc2: MergeAccumulator<DenseStore> = MergeAccumulator::new(3, 0.0);
        assert_eq!(
            acc2.fold_overlay(&wrong_width),
            Err(MergeError::ActionMismatch {
                expected: 3,
                got: 2
            })
        );
    }

    #[test]
    fn cloud_time_scales_and_adds_overhead() {
        let cloud = CloudModel::xeon_e7_8860v3();
        let t = cloud.cloud_time_s(207.0); // paper's 3 min 27 s
        assert!(t < 207.0 / 2.0, "cloud should be much faster: {t}");
        assert!(t >= cloud.comm_overhead_s);
        assert_eq!(cloud.cloud_time_s(0.0), cloud.comm_overhead_s);
    }

    #[test]
    fn cloud_time_monotonic_in_online_time() {
        let cloud = CloudModel::xeon_e7_8860v3();
        assert!(cloud.cloud_time_s(100.0) < cloud.cloud_time_s(300.0));
    }

    /// Strategy: an arbitrary small Q-table with 9 actions.
    fn arb_table() -> impl Strategy<Value = DenseQTable> {
        proptest::collection::vec((0u64..500, 0usize..9, -50.0..50.0f64, 1usize..4), 0..40)
            .prop_map(|entries| {
                let mut t = QTable::new(9);
                for (s, a, v, visits) in entries {
                    for _ in 0..visits {
                        t.set(s, a, v);
                    }
                }
                t
            })
    }

    proptest! {
        /// The streaming merge reproduces the eager all-keys merge bit
        /// for bit on arbitrary tables.
        #[test]
        fn streaming_merge_matches_eager(a in arb_table(), b in arb_table(), c in arb_table()) {
            let refs = [&a, &b, &c];
            prop_assert_eq!(encode_table(&merge(&refs).unwrap()), encode_table(&merge_eager(&refs)));
        }
    }
}
