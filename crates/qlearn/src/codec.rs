//! Compact binary Q-table and delta codec (`NXQT`).
//!
//! JSON cannot carry fleet-scale table state: a populated paper-space
//! table is ~600k cells, and a self-describing JSON cell record costs
//! ~60 bytes where the binary form costs ~11. This is the one format
//! tables persist in: the CLI's table files, campaign checkpoints and
//! the uplink-cost model (bytes a device actually sends per federated
//! round) all need an exact, dependency-free encoding — exact meaning
//! *bit*-exact: values travel as raw IEEE-754 bits, so a decoded table
//! re-encodes to identical bytes and a resumed campaign reproduces an
//! uninterrupted run byte for byte.
//!
//! # Wire format (version 1, all integers little-endian)
//!
//! ```text
//! magic      4 bytes  "NXQT"
//! version    u16      1
//! kind       u8       1 = full table, 2 = delta
//! n_actions  u16      1..=64 (the cell mask is a u64)
//! default_q  f64      raw bits; must be finite
//! row_count  varint
//! rows, sorted by ascending state key:
//!   state gap   varint   first row: the key itself; later rows:
//!                        key - previous key (>= 1, keys strictly ascend)
//!   cell mask   varint   bit a set iff visits[a] > 0; bits >= n_actions
//!                        must be clear
//!   per set bit, ascending action index:
//!     value     f64      raw bits; must be finite
//!     visits    varint   > 0 (the mask marks exactly the visited cells)
//! ```
//!
//! Unvisited cells are never encoded: the table invariant (enforced at
//! every write path) is that a cell with zero visits physically holds
//! the table default, so eliding it is lossless. Rows whose cells are
//! *all* unvisited still appear (empty mask) — row existence is
//! observable through `contains`/`len`.
//!
//! A **delta** (`kind = 2`) uses the identical row format but carries
//! only rows that changed: applying it to the base table replaces those
//! rows wholesale. [`delta_between`] computes the minimal such delta
//! (bitwise row comparison, so even a `-0.0` vs `0.0` flip is caught)
//! and [`apply_delta`] reconstructs the exact new table — the federated
//! uplink in `simkit::campaign` sends these bytes instead of a fixed
//! per-round constant.
//!
//! Fields go through [`crate::wire`], whose varints are canonical LEB128
//! (at most 10 bytes), and whose structural faults arrive as
//! [`CodecError::Wire`]. Decoding also validates kind, action count,
//! mask width, key ordering, value finiteness, non-zero visit counts
//! and a visit total that fits a `u64`, so a successful decode
//! re-encodes to exactly its input.

use std::fmt;

use crate::backend::{QStore, StateKey};
use crate::qtable::QTable;
use crate::wire::{put_f64, put_header, put_u16, put_varint, Reader, WireError};

/// Wire magic: "NXQT".
pub const MAGIC: [u8; 4] = *b"NXQT";
/// Current wire version.
pub const VERSION: u16 = 1;
/// Most actions a table may have: each row's cell mask is a `u64`.
/// Platforms have at most 24 (three per DVFS domain, at most eight
/// domains).
pub const MAX_ACTIONS: usize = 64;

const KIND_FULL: u8 = 1;
pub(crate) const KIND_DELTA: u8 = 2;

/// Error returned by the binary codec entry points.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// A structural fault: bad magic or version, truncation, trailing
    /// bytes or a malformed varint.
    Wire(WireError),
    /// The kind byte is neither full-table nor delta.
    BadKind(u8),
    /// A full-table entry point got a delta, or vice versa.
    WrongKind {
        /// Kind the caller required.
        expected: u8,
        /// Kind the input carried.
        got: u8,
    },
    /// The header declares zero actions.
    ZeroActions,
    /// The header declares more than [`MAX_ACTIONS`] actions.
    TooManyActions(u16),
    /// The default-q bits decode to NaN or an infinity.
    NonFiniteDefault,
    /// A cell value's bits decode to NaN or an infinity.
    NonFiniteValue,
    /// Row keys are not strictly ascending.
    NonAscendingState,
    /// A cell mask has bits set at or above `n_actions`.
    BadMask,
    /// A state-key gap overflowed the u64 key space.
    KeyOverflow,
    /// A cell whose mask bit is set carries a zero visit count.
    ZeroVisits,
    /// The visit counts sum past `u64::MAX`, which no run can record
    /// (and [`QTable::total_visits`] could not add up).
    VisitOverflow,
    /// Delta and base disagree on action count or default value.
    DeltaMismatch {
        /// Which header field disagrees.
        field: &'static str,
    },
    /// `delta_between` saw a base row absent from the new table; the
    /// delta format expresses row replacement, not removal.
    RowRemoved(StateKey),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Wire(e) => write!(f, "{e}"),
            CodecError::BadKind(k) => write!(f, "unknown NXQT kind {k}"),
            CodecError::WrongKind { expected, got } => {
                write!(f, "expected NXQT kind {expected}, got {got}")
            }
            CodecError::ZeroActions => write!(f, "action count must be non-zero"),
            CodecError::TooManyActions(n) => {
                write!(f, "{n} actions exceed the NXQT limit of {MAX_ACTIONS}")
            }
            CodecError::NonFiniteDefault => write!(f, "non-finite default q"),
            CodecError::NonFiniteValue => write!(f, "non-finite q-value"),
            CodecError::NonAscendingState => write!(f, "state keys must strictly ascend"),
            CodecError::BadMask => write!(f, "cell mask wider than the action count"),
            CodecError::KeyOverflow => write!(f, "state key gap overflows u64"),
            CodecError::ZeroVisits => write!(f, "visited cell with a zero visit count"),
            CodecError::VisitOverflow => write!(f, "visit counts sum past u64::MAX"),
            CodecError::DeltaMismatch { field } => {
                write!(f, "delta does not match base table: {field} differs")
            }
            CodecError::RowRemoved(state) => write!(
                f,
                "state {state} exists in the base but not the new table; \
                 deltas cannot express row removal"
            ),
        }
    }
}

impl std::error::Error for CodecError {}

impl From<WireError> for CodecError {
    fn from(e: WireError) -> Self {
        CodecError::Wire(e)
    }
}

/// One decoded row: full value/visit slices, ready for `insert_raw`.
struct Row {
    state: StateKey,
    values: Vec<f64>,
    visits: Vec<u64>,
}

/// Encodes a table or delta of `kind`: the header, then `rows` (state
/// key, values, visits) in ascending key order. The one row writer of
/// [`encode_table`], [`delta_between`] and `QTable::delta_bytes`.
pub(crate) fn encode_rows<'a>(
    kind: u8,
    n_actions: usize,
    default_q: f64,
    rows: impl ExactSizeIterator<Item = (StateKey, &'a [f64], &'a [u64])>,
) -> Vec<u8> {
    assert!(
        n_actions <= MAX_ACTIONS,
        "NXQT encodes at most {MAX_ACTIONS} actions, table has {n_actions}"
    );
    let mut out = Vec::with_capacity(32 + rows.len() * (3 + n_actions * 10));
    put_header(&mut out, MAGIC, VERSION);
    out.push(kind);
    put_u16(&mut out, n_actions as u16);
    put_f64(&mut out, default_q);
    put_varint(&mut out, rows.len() as u64);
    let mut prev = None;
    for (state, values, visits) in rows {
        put_varint(&mut out, prev.map_or(state, |p| state - p));
        let mut mask = 0u64;
        for (a, &n) in visits.iter().enumerate() {
            if n > 0 {
                mask |= 1 << a;
            }
        }
        put_varint(&mut out, mask);
        for (&v, &n) in values.iter().zip(visits.iter()) {
            if n > 0 {
                put_f64(&mut out, v);
                put_varint(&mut out, n);
            }
        }
        prev = Some(state);
    }
    out
}

/// Encodes a full table (kind 1). The row order is the sorted key
/// order, so the bytes are independent of insertion order and backend.
///
/// # Panics
///
/// Panics if the table has more than [`MAX_ACTIONS`] actions.
#[must_use]
pub fn encode_table<S: QStore>(table: &QTable<S>) -> Vec<u8> {
    let rows = table.state_keys().into_iter().map(|k| {
        // qlint::allow(PN01, reason = "k comes from state_keys() of the same table, so the row exists")
        let (values, visits) = table.entry_raw(k).expect("listed key has a row");
        (k, values, visits)
    });
    encode_rows(KIND_FULL, table.n_actions(), table.default_q(), rows)
}

fn decode_body(bytes: &[u8], want_kind: u8) -> Result<(usize, f64, Vec<Row>), CodecError> {
    let mut r = Reader::open(bytes, MAGIC, VERSION)?;
    let kind = r.u8()?;
    if kind != KIND_FULL && kind != KIND_DELTA {
        return Err(CodecError::BadKind(kind));
    }
    if kind != want_kind {
        return Err(CodecError::WrongKind {
            expected: want_kind,
            got: kind,
        });
    }
    let declared_actions = r.u16()?;
    let n_actions = usize::from(declared_actions);
    if n_actions == 0 {
        return Err(CodecError::ZeroActions);
    }
    if n_actions > MAX_ACTIONS {
        return Err(CodecError::TooManyActions(declared_actions));
    }
    let default_q = r.f64()?;
    if !default_q.is_finite() {
        return Err(CodecError::NonFiniteDefault);
    }
    let row_count = r.varint()?;
    // Every row takes at least two bytes (its gap and mask varints), so
    // the input bounds the rows that can follow, whatever the count says.
    let mut rows = Vec::with_capacity(
        usize::try_from(row_count)
            .unwrap_or(usize::MAX)
            .min(r.remaining() / 2),
    );
    let mut prev: Option<StateKey> = None;
    let mut total_visits = 0u64;
    for _ in 0..row_count {
        let gap = r.varint()?;
        let state = match prev {
            None => gap,
            Some(p) => {
                if gap == 0 {
                    return Err(CodecError::NonAscendingState);
                }
                p.checked_add(gap).ok_or(CodecError::KeyOverflow)?
            }
        };
        let mask = r.varint()?;
        if n_actions < MAX_ACTIONS && mask >> n_actions != 0 {
            return Err(CodecError::BadMask);
        }
        let mut values = vec![default_q; n_actions];
        let mut visits = vec![0u64; n_actions];
        for a in 0..n_actions {
            if mask & (1 << a) != 0 {
                let v = r.f64()?;
                if !v.is_finite() {
                    return Err(CodecError::NonFiniteValue);
                }
                values[a] = v;
                visits[a] = r.varint()?;
                if visits[a] == 0 {
                    return Err(CodecError::ZeroVisits);
                }
                total_visits = total_visits
                    .checked_add(visits[a])
                    .ok_or(CodecError::VisitOverflow)?;
            }
        }
        rows.push(Row {
            state,
            values,
            visits,
        });
        prev = Some(state);
    }
    r.finish()?;
    Ok((n_actions, default_q, rows))
}

/// Decodes a full table (kind 1) into backend `S`.
///
/// # Errors
///
/// Returns [`CodecError`] on any malformed input: wrong magic, version
/// or kind, an action count outside `1..=`[`MAX_ACTIONS`], truncation,
/// trailing bytes, non-finite values, out-of-range masks, zero visit
/// counts under set mask bits, visit counts summing past `u64::MAX` or
/// non-ascending keys.
pub fn decode_table<S: QStore>(bytes: &[u8]) -> Result<QTable<S>, CodecError> {
    let (n_actions, default_q, rows) = decode_body(bytes, KIND_FULL)?;
    let mut table: QTable<S> = QTable::empty(n_actions, default_q);
    for row in rows {
        table.insert_raw(row.state, &row.values, &row.visits);
    }
    Ok(table)
}

pub(crate) fn row_differs(base: Option<(&[f64], &[u64])>, values: &[f64], visits: &[u64]) -> bool {
    match base {
        None => true,
        Some((bv, bn)) => {
            // Bitwise comparison: byte-identity of the re-encoded
            // table is the contract, and f64 `==` would miss a
            // -0.0/0.0 flip.
            bn != visits
                || bv
                    .iter()
                    .zip(values.iter())
                    .any(|(a, b)| a.to_bits() != b.to_bits())
        }
    }
}

/// Encodes the delta (kind 2) that transforms `base` into `new`: the
/// rows of `new` that are missing from `base` or differ from it bitwise
/// (values compared by raw bits, visits exactly). Applying the result
/// with [`apply_delta`] reproduces `new` exactly.
///
/// The returned byte length is the campaign's per-device uplink cost —
/// a device that learned little sends little.
///
/// # Errors
///
/// Returns [`CodecError::DeltaMismatch`] when the tables disagree on
/// action count or default value, and [`CodecError::RowRemoved`] when
/// `base` holds a row `new` lacks (deltas cannot express removal; the
/// federated warm start never shrinks a table).
///
/// # Panics
///
/// Panics if the tables have more than [`MAX_ACTIONS`] actions.
pub fn delta_between<S: QStore>(base: &QTable<S>, new: &QTable<S>) -> Result<Vec<u8>, CodecError> {
    if base.n_actions() != new.n_actions() {
        return Err(CodecError::DeltaMismatch { field: "n_actions" });
    }
    if base.default_q().to_bits() != new.default_q().to_bits() {
        return Err(CodecError::DeltaMismatch { field: "default_q" });
    }
    for k in base.state_keys() {
        if !new.contains(k) {
            return Err(CodecError::RowRemoved(k));
        }
    }
    let mut changed = Vec::new();
    for k in new.state_keys() {
        // qlint::allow(PN01, reason = "k comes from state_keys() of the same table, so the row exists")
        let (values, visits) = new.entry_raw(k).expect("listed key has a row");
        if row_differs(base.entry_raw(k), values, visits) {
            changed.push((k, values, visits));
        }
    }
    Ok(encode_rows(
        KIND_DELTA,
        new.n_actions(),
        new.default_q(),
        changed.into_iter(),
    ))
}

/// Applies an encoded delta (kind 2) to `base`, replacing every carried
/// row wholesale, and returns the reconstructed table.
///
/// # Errors
///
/// Returns [`CodecError`] on malformed delta bytes, and
/// [`CodecError::DeltaMismatch`] when the delta header's action count
/// or default value (compared bitwise) disagrees with `base`.
pub fn apply_delta<S: QStore>(base: &QTable<S>, delta: &[u8]) -> Result<QTable<S>, CodecError> {
    let (n_actions, default_q, rows) = decode_body(delta, KIND_DELTA)?;
    if n_actions != base.n_actions() {
        return Err(CodecError::DeltaMismatch { field: "n_actions" });
    }
    if default_q.to_bits() != base.default_q().to_bits() {
        return Err(CodecError::DeltaMismatch { field: "default_q" });
    }
    let mut out = base.clone();
    for row in rows {
        out.insert_raw(row.state, &row.values, &row.visits);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::DenseStore;
    use crate::overlay::OverlayStore;
    use crate::qtable::DenseQTable;
    use crate::wire::WireErrorKind;
    use proptest::prelude::*;

    fn sample_table() -> DenseQTable {
        let mut t = QTable::with_default_q(9, 25.0);
        for s in [0u64, 3, 17, 622_079] {
            for a in 0..9usize {
                if !(s as usize + a).is_multiple_of(3) {
                    t.set(s, a, ((s as f64) + 1.0).recip() * (a as f64 - 4.0));
                }
            }
        }
        t
    }

    /// `sample_table()` with one row changed and one row added: the
    /// new side of the pinned delta.
    fn edited_sample_table() -> DenseQTable {
        let mut t = sample_table();
        t.set(3, 1, -0.125); // changed row
        t.set(1_000_000, 0, 2.5); // brand-new row
        t
    }

    /// FNV-1a 64 of `bytes`; the byte pins store it beside the length.
    fn fnv1a64(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// Byte pins of the full table and the delta: any change to the
    /// NXQT bytes the program writes fails here. Each sample also
    /// decodes and re-encodes to itself.
    #[test]
    fn encodings_are_pinned() {
        let base = sample_table();
        let full = encode_table(&base);
        assert_eq!(
            (full.len(), fnv1a64(&full)),
            (248, 0x4b14_2683_ae61_3b37),
            "NXQT full table"
        );
        let back: DenseQTable = decode_table(&full).expect("pinned table decodes");
        assert_eq!(encode_table(&back), full);

        let delta = delta_between(&base, &edited_sample_table()).expect("delta encodes");
        assert_eq!(
            (delta.len(), fnv1a64(&delta)),
            (88, 0x0b66_fefd_7404_9a11),
            "NXQT delta"
        );
        let new = apply_delta(&base, &delta).expect("pinned delta applies");
        assert_eq!(delta_between(&base, &new).expect("delta re-encodes"), delta);
    }

    #[test]
    fn full_table_roundtrips_bitwise() {
        let t = sample_table();
        let bytes = encode_table(&t);
        let back: DenseQTable = decode_table(&bytes).expect("own encoding decodes");
        assert_eq!(back, t);
        assert_eq!(encode_table(&back), bytes, "encode∘decode is a fixpoint");
    }

    #[test]
    fn backends_encode_identically() {
        let d = sample_table();
        let o: QTable<OverlayStore> = d.to_backend();
        assert_eq!(encode_table(&d), encode_table(&o));
        let od: DenseQTable = decode_table::<OverlayStore>(&encode_table(&d))
            .expect("overlay decodes")
            .to_backend();
        assert_eq!(od, d);
    }

    #[test]
    fn empty_and_all_unvisited_rows_survive() {
        let empty = DenseQTable::new(4);
        let bytes = encode_table(&empty);
        let back: DenseQTable = decode_table(&bytes).expect("empty decodes");
        assert!(back.is_empty());

        // A row that exists but has zero visits everywhere must keep
        // existing across the trip.
        let mut t = DenseQTable::new(2);
        t.insert_raw(7, &[0.0, 0.0], &[0, 0]);
        assert!(t.contains(7));
        let back: DenseQTable = decode_table(&encode_table(&t)).expect("decodes");
        assert!(back.contains(7), "empty-mask row preserved");
        assert_eq!(back, t);
    }

    /// A full-table header for `n_actions` actions and `default_q`,
    /// followed by `body` (row count and rows).
    fn hand_built(n_actions: u16, default_q: f64, body: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        put_header(&mut out, MAGIC, VERSION);
        out.push(KIND_FULL);
        put_u16(&mut out, n_actions);
        put_f64(&mut out, default_q);
        out.extend_from_slice(body);
        out
    }

    /// The structural error `kind` of an NXQT input.
    fn wire(kind: WireErrorKind) -> CodecError {
        CodecError::Wire(WireError {
            format: MAGIC,
            kind,
        })
    }

    /// One hand-built row: `(gap, mask, [(value, visits)])`, raw.
    type HandRow<'a> = (u64, u64, &'a [(f64, u64)]);

    /// Row-section bytes: a row count, then each row's varints and
    /// cells.
    fn rows(rows: &[HandRow<'_>]) -> Vec<u8> {
        let mut out = Vec::new();
        put_varint(&mut out, rows.len() as u64);
        for &(gap, mask, cells) in rows {
            put_varint(&mut out, gap);
            put_varint(&mut out, mask);
            for &(v, n) in cells {
                put_f64(&mut out, v);
                put_varint(&mut out, n);
            }
        }
        out
    }

    #[test]
    fn rejects_each_malformed_input() {
        let cases: [(&str, Vec<u8>, CodecError); 10] = [
            (
                "zero actions",
                hand_built(0, 0.0, &rows(&[])),
                CodecError::ZeroActions,
            ),
            (
                "65 actions overflow the u64 cell mask",
                hand_built(65, 0.0, &rows(&[(5, 1, &[(1.0, 1)])])),
                CodecError::TooManyActions(65),
            ),
            (
                "NaN default",
                hand_built(2, f64::NAN, &rows(&[])),
                CodecError::NonFiniteDefault,
            ),
            (
                "infinite cell value",
                hand_built(2, 0.0, &rows(&[(5, 1, &[(f64::INFINITY, 1)])])),
                CodecError::NonFiniteValue,
            ),
            (
                "repeated state key",
                hand_built(2, 0.0, &rows(&[(5, 0, &[]), (0, 0, &[])])),
                CodecError::NonAscendingState,
            ),
            (
                "key gap past u64::MAX",
                hand_built(2, 0.0, &rows(&[(u64::MAX, 0, &[]), (1, 0, &[])])),
                CodecError::KeyOverflow,
            ),
            (
                "mask bit beyond the action count",
                hand_built(2, 0.0, &rows(&[(5, 0b100, &[])])),
                CodecError::BadMask,
            ),
            (
                "row count varint longer than a u64",
                hand_built(2, 0.0, &[0xff; 10]),
                wire(WireErrorKind::BadVarint),
            ),
            (
                "set mask bit with zero visits",
                hand_built(2, 0.0, &rows(&[(5, 1, &[(7.0, 0)])])),
                CodecError::ZeroVisits,
            ),
            (
                "visit counts past u64::MAX",
                hand_built(
                    2,
                    0.0,
                    &rows(&[(5, 0b11, &[(1.0, 1 << 63), (1.0, 1 << 63)])]),
                ),
                CodecError::VisitOverflow,
            ),
        ];
        for (what, bytes, want) in cases {
            assert_eq!(decode_table::<DenseStore>(&bytes), Err(want), "{what}");
        }
        // The limit itself decodes: bit 63 of a 64-action mask is valid.
        let widest = hand_built(64, 0.0, &rows(&[(5, 1 << 63, &[(2.5, 3)])]));
        let t: DenseQTable = decode_table(&widest).expect("64 actions decode");
        assert_eq!((t.q(5, 63), t.visits(5, 63)), (2.5, 3));
        assert_eq!(encode_table(&t), widest);
    }

    #[test]
    #[should_panic(expected = "NXQT encodes at most 64 actions, table has 70")]
    fn encoder_rejects_more_than_64_actions() {
        let mut t = DenseQTable::new(70);
        t.set(1, 69, 1.0);
        let _ = encode_table(&t);
    }

    #[test]
    fn rejects_bad_magic_version_kind_and_truncation() {
        let bytes = encode_table(&sample_table());

        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert_eq!(
            decode_table::<DenseStore>(&bad).unwrap_err(),
            wire(WireErrorKind::BadMagic)
        );

        let mut bad = bytes.clone();
        bad[4] = 99;
        assert_eq!(
            decode_table::<DenseStore>(&bad).unwrap_err(),
            wire(WireErrorKind::BadVersion {
                found: 99,
                expected: VERSION
            })
        );

        let mut bad = bytes.clone();
        bad[6] = 7;
        assert_eq!(
            decode_table::<DenseStore>(&bad).unwrap_err(),
            CodecError::BadKind(7)
        );

        // Every proper prefix is rejected (truncation anywhere).
        for cut in 0..bytes.len() {
            assert!(
                decode_table::<DenseStore>(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes must not decode"
            );
        }

        let mut long = bytes.clone();
        long.push(0);
        assert_eq!(
            decode_table::<DenseStore>(&long).unwrap_err(),
            wire(WireErrorKind::TrailingBytes(1))
        );
    }

    /// A varint padded with a zero last byte decodes to the value of its
    /// short form but re-encodes to fewer bytes, so it is rejected
    /// wherever it appears.
    #[test]
    fn overlong_varints_are_rejected() {
        let value = 7.0f64.to_le_bytes();
        let row = |count: &[u8], gap: &[u8], mask: &[u8], visits: &[u8]| {
            hand_built(2, 0.0, &[count, gap, mask, &value, visits].concat())
        };
        let canonical = row(&[1], &[5], &[1], &[3]);
        assert_eq!(canonical, hand_built(2, 0.0, &rows(&[(5, 1, &[(7.0, 3)])])));
        assert!(decode_table::<DenseStore>(&canonical).is_ok());
        for (what, bytes) in [
            ("row count", row(&[0x81, 0x00], &[5], &[1], &[3])),
            ("state gap", row(&[1], &[0x85, 0x00], &[1], &[3])),
            ("cell mask", row(&[1], &[5], &[0x81, 0x00], &[3])),
            ("visit count", row(&[1], &[5], &[1], &[0x83, 0x80, 0x00])),
        ] {
            assert_eq!(
                decode_table::<DenseStore>(&bytes),
                Err(wire(WireErrorKind::BadVarint)),
                "{what}"
            );
        }
    }

    #[test]
    fn full_entry_point_rejects_deltas_and_vice_versa() {
        let t = sample_table();
        let delta =
            delta_between(&QTable::with_default_q(9, 25.0), &t).expect("delta from empty base");
        assert_eq!(
            decode_table::<DenseStore>(&delta).unwrap_err(),
            CodecError::WrongKind {
                expected: 1,
                got: 2
            }
        );
        let full = encode_table(&t);
        assert_eq!(
            apply_delta(&t, &full).unwrap_err(),
            CodecError::WrongKind {
                expected: 2,
                got: 1
            }
        );
    }

    #[test]
    fn delta_apply_equals_full_table() {
        let base = sample_table();
        let new = edited_sample_table();
        let delta = delta_between(&base, &new).expect("delta encodes");
        let reconstructed = apply_delta(&base, &delta).expect("delta applies");
        assert_eq!(reconstructed, new);
        assert_eq!(
            encode_table(&reconstructed),
            encode_table(&new),
            "reconstruction is byte-identical"
        );
        // The delta carries only the touched rows, so it is much
        // smaller than the full table.
        assert!(
            delta.len() < encode_table(&new).len() / 2,
            "delta {} bytes vs full {}",
            delta.len(),
            encode_table(&new).len()
        );
    }

    #[test]
    fn identical_tables_produce_an_empty_delta() {
        let t = sample_table();
        let delta = delta_between(&t, &t).expect("self-delta");
        let rows_after_header = decode_body(&delta, KIND_DELTA).expect("decodes").2;
        assert!(rows_after_header.is_empty());
        assert_eq!(apply_delta(&t, &delta).expect("applies"), t);
    }

    #[test]
    fn delta_mismatches_are_typed_errors() {
        let base = DenseQTable::new(3);
        let other = DenseQTable::new(4);
        assert_eq!(
            delta_between(&base, &other).unwrap_err(),
            CodecError::DeltaMismatch { field: "n_actions" }
        );
        let optimistic = DenseQTable::with_default_q(3, 25.0);
        assert_eq!(
            delta_between(&base, &optimistic).unwrap_err(),
            CodecError::DeltaMismatch { field: "default_q" }
        );
        let mut shrunk = DenseQTable::new(3);
        shrunk.set(5, 0, 1.0);
        assert_eq!(
            delta_between(&shrunk, &base).unwrap_err(),
            CodecError::RowRemoved(5)
        );
        // Applying a mismatched delta is rejected too.
        let delta = delta_between(&base, &base).expect("empty delta");
        assert_eq!(
            apply_delta(&other, &delta).unwrap_err(),
            CodecError::DeltaMismatch { field: "n_actions" }
        );
    }

    #[test]
    fn minus_zero_flip_is_a_detected_change() {
        let mut base = DenseQTable::new(2);
        base.set(1, 0, 0.0);
        let mut new = DenseQTable::new(2);
        new.set(1, 0, -0.0);
        let delta = delta_between(&base, &new).expect("delta encodes");
        let rows = decode_body(&delta, KIND_DELTA).expect("decodes").2;
        assert_eq!(rows.len(), 1, "bitwise comparison catches -0.0");
        assert_eq!(
            encode_table(&apply_delta(&base, &delta).unwrap()),
            encode_table(&new)
        );
    }

    proptest! {
        #[test]
        fn roundtrip_random_tables(
            cells in proptest::collection::vec(
                (0u64..100_000, 0usize..9, -1.0e3f64..1.0e3), 0..60),
            default_q in -10.0f64..30.0,
        ) {
            let mut t = DenseQTable::with_default_q(9, default_q);
            for (s, a, v) in cells {
                t.set(s, a, v);
            }
            let bytes = encode_table(&t);
            let back: DenseQTable = decode_table(&bytes).expect("decodes");
            prop_assert_eq!(&back, &t);
            prop_assert_eq!(encode_table(&back), bytes);
        }

        #[test]
        fn random_deltas_reconstruct_exactly(
            base_cells in proptest::collection::vec(
                (0u64..5_000, 0usize..4, -1.0e2f64..1.0e2), 0..40),
            extra_cells in proptest::collection::vec(
                (0u64..10_000, 0usize..4, -1.0e2f64..1.0e2), 0..40),
        ) {
            let mut base = DenseQTable::new(4);
            for (s, a, v) in base_cells {
                base.set(s, a, v);
            }
            let mut new = base.clone();
            for (s, a, v) in extra_cells {
                new.set(s, a, v);
            }
            let delta = delta_between(&base, &new).expect("delta encodes");
            let back = apply_delta(&base, &delta).expect("delta applies");
            prop_assert_eq!(&back, &new);
            prop_assert_eq!(encode_table(&back), encode_table(&new));
        }

    }

    /// Every single-bit flip and every truncation of the full and delta
    /// samples, and inflated row counts, in debug and release builds
    /// alike: decoding never panics, truncations and inflated counts are
    /// rejected, and whatever decodes re-encodes to exactly its input.
    /// The NXTR and NXCP decoders have the same sweep in
    /// `simkit::trace` and `simkit::campaign`.
    #[test]
    fn corrupted_bytes_never_panic() {
        let base = sample_table();
        let full = encode_table(&base);
        let delta = delta_between(&base, &edited_sample_table()).expect("delta encodes");
        let decodes_to_itself = |kind: u8, bytes: &[u8]| {
            if kind == KIND_FULL {
                if let Ok(t) = decode_table::<DenseStore>(bytes) {
                    assert_eq!(encode_table(&t), bytes);
                }
            } else {
                let _ = apply_delta(&base, bytes);
            }
            if let Ok((n_actions, default_q, rows)) = decode_body(bytes, kind) {
                let rows = rows.iter().map(|r| (r.state, &r.values[..], &r.visits[..]));
                assert_eq!(encode_rows(kind, n_actions, default_q, rows), bytes);
            }
        };
        for (kind, bytes) in [(KIND_FULL, full), (KIND_DELTA, delta)] {
            for at in 0..bytes.len() {
                assert!(decode_body(&bytes[..at], kind).is_err(), "cut {at}");
                for bit in 0..8 {
                    let mut bad = bytes.clone();
                    bad[at] ^= 1 << bit;
                    decodes_to_itself(kind, &bad);
                }
            }
            // The row count is the one-byte varint after the 17-byte
            // header.
            let rows = u64::from(bytes[17]);
            assert!(rows < 0x80);
            for count in [u64::from(u32::MAX), u64::MAX, rows + 1] {
                let mut bad = bytes[..17].to_vec();
                put_varint(&mut bad, count);
                bad.extend_from_slice(&bytes[18..]);
                assert!(decode_body(&bad, kind).is_err(), "{count} rows");
            }
        }
    }
}
