//! Q-table storage backends behind the [`QStore`] abstraction.
//!
//! The table's hot path — argmax over a state's actions, then one value
//! update — runs every control period of every simulated session, so the
//! storage layout matters. [`DenseStore`] keeps the values and visit
//! counts of **all** actions of a state contiguously in two arena
//! `Vec`s, reached through a single probe of a row index (a direct slot
//! table for bounded key spaces, a fast-hashed map otherwise). An argmax
//! touches one index slot plus one contiguous row — no per-action
//! probing, no pointer chasing through per-state allocations — which is
//! what makes the learn/act loop cache-friendly.
//!
//! The copy-on-write [`crate::overlay::OverlayStore`] layers sparse
//! private rows over an `Arc`-shared dense base. Both expose rows through
//! the same [`QStore`] trait, so [`crate::qtable::QTable`] implements
//! lookup, update and argmax exactly once, and [`crate::codec`] encodes
//! either backend to the same bytes.

// qlint::allow(ND03, reason = "hot-path backends; every artifact path reads keys via sorted state_keys()")
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// Callback receiving `(state, values, visits)` for one table row.
pub type RowVisitor<'a> = dyn FnMut(StateKey, &[f64], &[u64]) + 'a;

/// An encoded discrete state.
///
/// The Next agent packs its discretised observation tuple into this key
/// via `next_core::StateSpace`, which produces *compact* keys
/// (`0..size`); the backends accept any `u64`.
pub type StateKey = u64;

/// SplitMix64-style finaliser used to hash [`StateKey`]s.
///
/// `std`'s default SipHash is a keyed hash hardened against collision
/// flooding — pointless for simulation-internal integer keys and several
/// times slower per probe. This hasher is a single multiply/xor-shift
/// chain with full avalanche, so sequential state keys (the common case
/// after dense re-indexing) spread uniformly across buckets.
#[derive(Debug, Default, Clone)]
pub struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Generic path (not used for u64 keys): fold bytes in.
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        }
    }

    fn write_u64(&mut self, n: u64) {
        let mut z = n.wrapping_add(0x9e37_79b9_7f4a_7c15).wrapping_add(self.0);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        self.0 = z ^ (z >> 31);
    }
}

/// `BuildHasher` for [`KeyHasher`]-backed maps.
pub type KeyHashBuilder = BuildHasherDefault<KeyHasher>;

/// Storage backend of a Q-table: rows of per-action values and visit
/// counts, keyed by [`StateKey`].
///
/// A state is *touched* once [`QStore::row_mut`] has been called for it,
/// even if every visit count is still zero (e.g. a decoded row with an
/// empty cell mask) — every backend must agree on this so
/// `contains`/`len` are backend-independent.
///
/// Fresh rows are filled with the table's default Q-value (`fill`), so
/// the **value row alone answers every read**: `Q(s, a)` is
/// `values[a]` whether or not the pair was visited, and argmax is a
/// branch-free scan of the value slice that never loads the visit row.
/// That invariant is what makes the hot path cheap; the visit row only
/// serves visit-count queries, adaptive learning rates and federated
/// weighting.
pub trait QStore: fmt::Debug + Clone + PartialEq {
    /// Creates an empty store whose rows hold `n_actions` actions.
    ///
    /// # Panics
    ///
    /// Panics if `n_actions` is zero.
    #[must_use]
    fn with_actions(n_actions: usize) -> Self;

    /// Number of actions per row.
    fn n_actions(&self) -> usize;

    /// Number of touched states.
    fn len(&self) -> usize;

    /// Whether no state has been touched.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The contiguous `(values, visits)` row of `state`, if touched.
    fn row(&self, state: StateKey) -> Option<(&[f64], &[u64])>;

    /// Mutable row of `state`; on first touch the value row is created
    /// holding `fill` (the table's default Q-value) and the visit row
    /// zeroed.
    fn row_mut(&mut self, state: StateKey, fill: f64) -> (&mut [f64], &mut [u64]);

    /// Whether `state` has been touched.
    fn contains(&self, state: StateKey) -> bool;

    /// All touched state keys, sorted ascending.
    fn state_keys(&self) -> Vec<StateKey>;

    /// Calls `f` once per touched row, in unspecified order.
    fn for_each_row(&self, f: &mut RowVisitor<'_>);

    /// Calls `f` once per touched row with mutable access, in
    /// unspecified order.
    fn for_each_row_mut(&mut self, f: &mut RowVisitorMut<'_>);

    /// Folds `other` into `self` as **visit-weighted sums**: for every
    /// row of `other`, `values[a] += q[a]·n[a]` and `visits[a] += n[a]`
    /// (rows absent from `self` start at zero).
    ///
    /// This is the streaming kernel behind
    /// [`crate::federated::MergeAccumulator`]: `self` temporarily holds
    /// Σ(q·n)/Σn numerators and denominators, *not* Q-values, and is
    /// normalised only when the accumulator finishes. One fold touches
    /// each input row exactly once, so merging T tables costs
    /// O(rows·T) with memory bounded by the union of visited states —
    /// no all-keys materialisation, no sort.
    ///
    /// The default implementation walks `other` row by row through the
    /// index; backends may override it with a faster layout-aware path
    /// (see [`DenseStore`]'s arena zip).
    fn fold_weighted(&mut self, other: &Self) {
        debug_assert_eq!(self.n_actions(), other.n_actions());
        other.for_each_row(&mut |state, values, visits| {
            let (v, n) = self.row_mut(state, 0.0);
            for a in 0..v.len() {
                v[a] += values[a] * visits[a] as f64;
                n[a] += visits[a];
            }
        });
    }

    /// Creates an empty store laid out for a **bounded** key space of
    /// `n_states` states. Backends with a space-aware index (the dense
    /// slot table) override this; the default ignores the hint.
    ///
    /// # Panics
    ///
    /// Panics if `n_actions` is zero.
    #[must_use]
    fn with_space(n_actions: usize, _n_states: u64) -> Self {
        Self::with_actions(n_actions)
    }

    /// Whether every key of a space of `n_states` states can be stored
    /// without re-indexing. Always true unless the backend declared a
    /// smaller bounded space (the dense direct slot table).
    fn covers_space(&self, _n_states: u64) -> bool {
        true
    }

    /// Resident heap bytes attributable to **this** store's rows — the
    /// campaign memory-accounting number. Computed from row counts
    /// only (never from container capacities), so it is deterministic
    /// across allocators, platforms, and insertion histories. Shared
    /// storage (an overlay's `Arc` base) is excluded by the backend
    /// that shares it.
    fn resident_bytes(&self) -> usize {
        // Per touched row: one f64 + one u64 per action, plus the key.
        self.len() * (self.n_actions() * 16 + 8)
    }
}

/// Callback receiving mutable `(state, values, visits)` for one row.
pub type RowVisitorMut<'a> = dyn FnMut(StateKey, &mut [f64], &mut [u64]) + 'a;

/// Key → row-number index of the dense backend.
///
/// With a bounded, compact key space (what `StateSpace` produces) the
/// index is a **direct slot table**: `slots[key]` holds the row number
/// and a probe is one predictable load from a small array that lives in
/// cache — no hashing at all. Open-ended key spaces fall back to a
/// fast-hashed map.
#[derive(Debug, Clone, PartialEq)]
enum RowIndex {
    /// Fast-hashed map for unbounded keys.
    // qlint::allow(ND03, reason = "probe-only index (key -> row number); never iterated, rows live in the arena Vecs")
    Map(HashMap<StateKey, u32, KeyHashBuilder>),
    /// Direct slot table for keys `< slots.len()`; `u32::MAX` = empty.
    Direct(Vec<u32>),
}

/// Sentinel marking an empty direct-index slot.
const EMPTY_SLOT: u32 = u32::MAX;

impl RowIndex {
    #[inline]
    fn get(&self, state: StateKey) -> Option<u32> {
        match self {
            RowIndex::Map(map) => map.get(&state).copied(),
            RowIndex::Direct(slots) => {
                let slot = *slots.get(usize::try_from(state).ok()?)?;
                (slot != EMPTY_SLOT).then_some(slot)
            }
        }
    }

    fn insert(&mut self, state: StateKey, row: u32) {
        match self {
            RowIndex::Map(map) => {
                map.insert(state, row);
            }
            RowIndex::Direct(slots) => {
                let i = usize::try_from(state).unwrap_or(usize::MAX);
                assert!(
                    i < slots.len(),
                    "state {state} outside the declared direct-index capacity {}",
                    slots.len()
                );
                slots[i] = row;
            }
        }
    }
}

/// The dense-indexed backend: all rows live contiguously in two arena
/// `Vec`s, reached through a row index.
///
/// * one probe per table operation, not one *per action* during
///   argmax — and with the direct slot-table index
///   ([`DenseStore::with_space`]) the probe is a single array load,
///   not a hash,
/// * a state's action values are one contiguous slice (branch-free
///   argmax scan) instead of per-state heap allocations,
/// * growing never moves other rows' data relative to each other, so a
///   training session's working set stays hot.
#[derive(Debug, Clone)]
pub struct DenseStore {
    n_actions: usize,
    /// `state -> row number` (row `i` spans `i*n_actions..(i+1)*n_actions`).
    index: RowIndex,
    /// `row number -> state`, for iteration without walking the index.
    keys: Vec<StateKey>,
    values: Vec<f64>,
    visits: Vec<u64>,
}

impl Default for DenseStore {
    fn default() -> Self {
        DenseStore {
            n_actions: 0,
            // qlint::allow(ND03, reason = "probe-only row index, never iterated")
            index: RowIndex::Map(HashMap::default()),
            keys: Vec::new(),
            values: Vec::new(),
            visits: Vec::new(),
        }
    }
}

impl DenseStore {
    /// Largest declared state-space size that gets a direct slot-table
    /// index (16M states = 64 MB of `u32` slots). Bigger spaces use the
    /// fast-hashed map, which costs memory proportional to *visited*
    /// states only.
    pub const DIRECT_INDEX_LIMIT: u64 = 1 << 24;

    /// Empty store for a **bounded** key space of `n_states` states
    /// (every key must stay `< n_states`, which `StateSpace` encodings
    /// guarantee). Spaces up to [`DenseStore::DIRECT_INDEX_LIMIT`] get
    /// the direct slot-table index — a table probe becomes one array
    /// load; bigger spaces silently use the hashed index.
    ///
    /// # Panics
    ///
    /// Panics if `n_actions` is zero.
    #[must_use]
    pub fn with_space(n_actions: usize, n_states: u64) -> Self {
        assert!(n_actions > 0, "action set must be non-empty");
        let index = if n_states <= Self::DIRECT_INDEX_LIMIT {
            #[allow(clippy::cast_possible_truncation)]
            RowIndex::Direct(vec![EMPTY_SLOT; n_states as usize])
        } else {
            // qlint::allow(ND03, reason = "probe-only row index, never iterated")
            RowIndex::Map(HashMap::default())
        };
        DenseStore {
            n_actions,
            index,
            keys: Vec::new(),
            values: Vec::new(),
            visits: Vec::new(),
        }
    }

    /// Whether the index is the direct slot table (vs the hashed map).
    #[must_use]
    pub fn is_direct_indexed(&self) -> bool {
        matches!(self.index, RowIndex::Direct(_))
    }

    /// Whether every key of a space of `n_states` states can be stored:
    /// always true for the hashed index, bounded by the slot-table
    /// length for the direct index.
    #[must_use]
    pub fn covers_space(&self, n_states: u64) -> bool {
        match &self.index {
            RowIndex::Map(_) => true,
            RowIndex::Direct(slots) => slots.len() as u64 >= n_states,
        }
    }

    fn span(&self, row: u32) -> std::ops::Range<usize> {
        let start = row as usize * self.n_actions;
        start..start + self.n_actions
    }

    /// Whether the index can store `state` without panicking (the
    /// direct slot table is bounded by its declared capacity).
    fn index_accepts(&self, state: StateKey) -> bool {
        match &self.index {
            RowIndex::Map(_) => true,
            RowIndex::Direct(slots) => usize::try_from(state).is_ok_and(|i| i < slots.len()),
        }
    }

    /// Replaces a capacity-bounded direct index with an equivalent
    /// hashed map, so keys beyond the declared space can be folded in
    /// (federated merging unions tables from arbitrary encoders).
    fn demote_index_to_map(&mut self) {
        if let RowIndex::Direct(_) = self.index {
            // qlint::allow(ND03, reason = "probe-only row index, never iterated")
            let mut map: HashMap<StateKey, u32, KeyHashBuilder> = HashMap::default();
            map.reserve(self.keys.len());
            for (row, &k) in self.keys.iter().enumerate() {
                // qlint::allow(PN01, reason = "row_mut already rejects tables beyond u32 rows, so every existing row number fits")
                map.insert(k, u32::try_from(row).expect("row count fits u32"));
            }
            self.index = RowIndex::Map(map);
        }
    }
}

impl QStore for DenseStore {
    fn with_actions(n_actions: usize) -> Self {
        assert!(n_actions > 0, "action set must be non-empty");
        DenseStore {
            n_actions,
            // qlint::allow(ND03, reason = "probe-only row index, never iterated")
            index: RowIndex::Map(HashMap::default()),
            keys: Vec::new(),
            values: Vec::new(),
            visits: Vec::new(),
        }
    }

    fn n_actions(&self) -> usize {
        self.n_actions
    }

    fn len(&self) -> usize {
        self.keys.len()
    }

    fn row(&self, state: StateKey) -> Option<(&[f64], &[u64])> {
        let row = self.index.get(state)?;
        let span = self.span(row);
        Some((&self.values[span.clone()], &self.visits[span]))
    }

    fn row_mut(&mut self, state: StateKey, fill: f64) -> (&mut [f64], &mut [u64]) {
        let row = if let Some(r) = self.index.get(state) {
            r
        } else {
            // qlint::allow(PN01, reason = "4 billion touched rows exceeds any state space here; a capacity panic beats silent row aliasing")
            let r = u32::try_from(self.keys.len()).expect("dense table exceeds u32 rows");
            self.index.insert(state, r);
            self.keys.push(state);
            self.values.resize(self.values.len() + self.n_actions, fill);
            self.visits.resize(self.visits.len() + self.n_actions, 0);
            r
        };
        let span = self.span(row);
        (&mut self.values[span.clone()], &mut self.visits[span])
    }

    fn contains(&self, state: StateKey) -> bool {
        self.index.get(state).is_some()
    }

    fn state_keys(&self) -> Vec<StateKey> {
        let mut keys = self.keys.clone();
        keys.sort_unstable();
        keys
    }

    fn for_each_row(&self, f: &mut RowVisitor<'_>) {
        for (i, &k) in self.keys.iter().enumerate() {
            let span = {
                let start = i * self.n_actions;
                start..start + self.n_actions
            };
            f(k, &self.values[span.clone()], &self.visits[span]);
        }
    }

    fn for_each_row_mut(&mut self, f: &mut RowVisitorMut<'_>) {
        let rows = self
            .values
            .chunks_exact_mut(self.n_actions)
            .zip(self.visits.chunks_exact_mut(self.n_actions));
        for (&k, (values, visits)) in self.keys.iter().zip(rows) {
            f(k, values, visits);
        }
    }

    fn with_space(n_actions: usize, n_states: u64) -> Self {
        DenseStore::with_space(n_actions, n_states)
    }

    fn covers_space(&self, n_states: u64) -> bool {
        DenseStore::covers_space(self, n_states)
    }

    fn resident_bytes(&self) -> usize {
        let index = match &self.index {
            // Direct slot tables are sized by the declared space.
            RowIndex::Direct(slots) => slots.len() * 4,
            // Hashed index: count entries, not capacity (determinism).
            RowIndex::Map(_) => self.keys.len() * 12,
        };
        self.values.len() * 8 + self.visits.len() * 8 + self.keys.len() * 8 + index
    }

    /// Dense fast path: when the two arenas share the exact row layout
    /// (same keys in the same row order — e.g. an accumulator seeded
    /// from a sibling table, or fully-populated tables built over the
    /// same `StateSpace` walk), the fold is a straight zip of the four
    /// arena `Vec`s: no index probes, no key decoding, just one
    /// contiguous multiply-add pass. An empty accumulator bulk-adopts
    /// the first input's layout wholesale. Only genuinely divergent
    /// layouts pay the per-row index path — and even that is one
    /// slot-table load per row for space-declared tables.
    fn fold_weighted(&mut self, other: &Self) {
        debug_assert_eq!(self.n_actions, other.n_actions);
        if self.keys.is_empty() {
            // First fold: adopt the input's layout and weight in place.
            self.index = other.index.clone();
            self.keys.clone_from(&other.keys);
            self.visits.clone_from(&other.visits);
            self.values = other
                .values
                .iter()
                .zip(&other.visits)
                .map(|(&q, &n)| q * n as f64)
                .collect();
            return;
        }
        if self.keys == other.keys {
            // Identical layout: zip the arenas directly.
            let rows = self.values.iter_mut().zip(self.visits.iter_mut());
            let others = other.values.iter().zip(&other.visits);
            for ((v, n), (&q, &m)) in rows.zip(others) {
                *v += q * m as f64;
                *n += m;
            }
            return;
        }
        // Divergent layouts: per-row probe of this store's index. A key
        // beyond a direct index's declared capacity demotes the index
        // to the hashed map once (unions may exceed any one space).
        for (i, &k) in other.keys.iter().enumerate() {
            let span = i * self.n_actions..(i + 1) * self.n_actions;
            if !self.index_accepts(k) {
                self.demote_index_to_map();
            }
            let (v, n) = self.row_mut(k, 0.0);
            let (ov, on) = (&other.values[span.clone()], &other.visits[span]);
            for a in 0..v.len() {
                v[a] += ov[a] * on[a] as f64;
                n[a] += on[a];
            }
        }
    }
}

/// Row-insertion order is an implementation detail of the arena, so
/// equality compares *contents*: same action count, same touched states,
/// same rows.
impl PartialEq for DenseStore {
    fn eq(&self, other: &Self) -> bool {
        if self.n_actions != other.n_actions || self.keys.len() != other.keys.len() {
            return false;
        }
        self.keys.iter().enumerate().all(|(i, &k)| {
            let span = i * self.n_actions..(i + 1) * self.n_actions;
            other.row(k).is_some_and(|(ov, on)| {
                self.values[span.clone()] == *ov && self.visits[span.clone()] == *on
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fill<S: QStore>(pairs: &[(StateKey, usize, f64)]) -> S {
        let mut s = S::with_actions(3);
        for &(k, a, v) in pairs {
            let (values, visits) = s.row_mut(k, 0.0);
            values[a] = v;
            visits[a] += 1;
        }
        s
    }

    #[test]
    fn dense_rows_are_contiguous_and_isolated() {
        let s: DenseStore = fill(&[(10, 0, 1.0), (7, 2, -2.0), (10, 1, 3.0)]);
        assert_eq!(s.len(), 2);
        let (v10, n10) = s.row(10).unwrap();
        assert_eq!(v10, &[1.0, 3.0, 0.0]);
        assert_eq!(n10, &[1, 1, 0]);
        let (v7, n7) = s.row(7).unwrap();
        assert_eq!(v7, &[0.0, 0.0, -2.0]);
        assert_eq!(n7, &[0, 0, 1]);
        assert!(s.row(11).is_none());
    }

    #[test]
    fn dense_equality_ignores_insertion_order() {
        let a: DenseStore = fill(&[(1, 0, 1.0), (2, 1, 2.0)]);
        let b: DenseStore = fill(&[(2, 1, 2.0), (1, 0, 1.0)]);
        assert_eq!(a, b);
        let c: DenseStore = fill(&[(2, 1, 2.5), (1, 0, 1.0)]);
        assert_ne!(a, c);
    }

    #[test]
    fn backends_agree_on_touched_state_bookkeeping() {
        let ops = [(5u64, 1usize, 0.5f64), (9, 0, -1.0), (5, 2, 2.0)];
        let o: crate::overlay::OverlayStore = fill(&ops);
        let d: DenseStore = fill(&ops);
        assert_eq!(o.len(), d.len());
        assert_eq!(o.state_keys(), d.state_keys());
        for k in o.state_keys() {
            assert_eq!(o.row(k), d.row(k));
        }
        assert!(o.contains(5) && d.contains(5));
        assert!(!o.contains(6) && !d.contains(6));
    }

    #[test]
    fn key_hasher_spreads_sequential_keys() {
        use std::hash::Hasher as _;
        let mut seen = std::collections::HashSet::new();
        for k in 0u64..1_000 {
            let mut h = KeyHasher::default();
            h.write_u64(k);
            // Low 10 bits decide the bucket in a 1024-slot table.
            seen.insert(h.finish() & 0x3ff);
        }
        assert!(seen.len() > 600, "only {} distinct buckets", seen.len());
    }

    #[test]
    fn direct_index_matches_map_index() {
        let ops = [
            (5u64, 1usize, 0.5f64),
            (999, 0, -1.0),
            (5, 2, 2.0),
            (0, 0, 7.0),
        ];
        let mapped: DenseStore = fill(&ops);
        let mut direct = DenseStore::with_space(3, 1_000);
        assert!(direct.is_direct_indexed());
        assert!(!mapped.is_direct_indexed());
        for &(k, a, v) in &ops {
            let (values, visits) = direct.row_mut(k, 0.0);
            values[a] = v;
            visits[a] += 1;
        }
        assert_eq!(direct, mapped, "index layout must not be observable");
        assert_eq!(direct.state_keys(), mapped.state_keys());
        assert!(direct.row(1).is_none());
        assert!(
            direct.row(5_000).is_none(),
            "out-of-space probe reads as absent"
        );
    }

    #[test]
    fn oversized_space_falls_back_to_map() {
        let s = DenseStore::with_space(9, DenseStore::DIRECT_INDEX_LIMIT + 1);
        assert!(!s.is_direct_indexed());
    }

    #[test]
    #[should_panic(expected = "outside the declared direct-index capacity")]
    fn direct_index_rejects_out_of_space_writes() {
        let mut s = DenseStore::with_space(3, 10);
        let _ = s.row_mut(10, 0.0);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_actions_rejected() {
        let _ = DenseStore::with_actions(0);
    }
}
