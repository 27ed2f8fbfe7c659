//! Compact binary Q-table and delta codec (`NXQT`).
//!
//! JSON cannot carry fleet-scale table state: a populated paper-space
//! table is ~600k cells, and a self-describing JSON cell record costs
//! ~60 bytes where the binary form costs ~11. This is the one format
//! tables persist in: the per-app table store's directory mode, the
//! CLI's table files, campaign checkpoints and the uplink-cost model
//! (bytes a device actually sends per federated round) all need an
//! exact, dependency-free encoding — exact meaning
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
//! Varints are unsigned LEB128 (7 bits per byte, low group first),
//! capped at 10 bytes. Decoding validates magic, version, kind, action
//! count, mask width, key ordering, value finiteness, non-zero visit
//! counts and exact input length, in the style of
//! `docs/TRACE_FORMAT.md`.

use std::fmt;

use crate::backend::{QStore, StateKey};
use crate::qtable::QTable;

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
    /// The input does not start with the `NXQT` magic.
    BadMagic,
    /// The wire version is not one this build understands.
    BadVersion(u16),
    /// The kind byte is neither full-table nor delta.
    BadKind(u8),
    /// A full-table entry point got a delta, or vice versa.
    WrongKind {
        /// Kind the caller required.
        expected: u8,
        /// Kind the input carried.
        got: u8,
    },
    /// The input ended before the declared content.
    Truncated,
    /// Valid content followed by unconsumed bytes.
    TrailingBytes,
    /// A varint ran past 10 bytes (cannot fit a u64).
    BadVarint,
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
            CodecError::BadMagic => write!(f, "bad magic (expected NXQT)"),
            CodecError::BadVersion(v) => write!(f, "unsupported NXQT version {v}"),
            CodecError::BadKind(k) => write!(f, "unknown NXQT kind {k}"),
            CodecError::WrongKind { expected, got } => {
                write!(f, "expected NXQT kind {expected}, got {got}")
            }
            CodecError::Truncated => write!(f, "truncated input"),
            CodecError::TrailingBytes => write!(f, "trailing bytes after table"),
            CodecError::BadVarint => write!(f, "varint exceeds 10 bytes"),
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

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

pub(crate) fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let group = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(group);
            return;
        }
        out.push(group | 0x80);
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let end = self.pos.checked_add(n).ok_or(CodecError::Truncated)?;
        if end > self.buf.len() {
            return Err(CodecError::Truncated);
        }
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, CodecError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn f64(&mut self) -> Result<f64, CodecError> {
        let b = self.take(8)?;
        let mut bits = [0u8; 8];
        bits.copy_from_slice(b);
        Ok(f64::from_bits(u64::from_le_bytes(bits)))
    }

    fn varint(&mut self) -> Result<u64, CodecError> {
        let mut value = 0u64;
        for i in 0..10 {
            let byte = self.u8()?;
            let group = u64::from(byte & 0x7f);
            // The 10th byte may only carry the top bit of a u64.
            if i == 9 && group > 1 {
                return Err(CodecError::BadVarint);
            }
            value |= group << (7 * i);
            if byte & 0x80 == 0 {
                return Ok(value);
            }
        }
        Err(CodecError::BadVarint)
    }

    fn done(&self) -> Result<(), CodecError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(CodecError::TrailingBytes)
        }
    }
}

/// One decoded row: full value/visit slices, ready for `insert_raw`.
struct Row {
    state: StateKey,
    values: Vec<f64>,
    visits: Vec<u64>,
}

pub(crate) fn encode_header(out: &mut Vec<u8>, kind: u8, n_actions: usize, default_q: f64) {
    assert!(
        n_actions <= MAX_ACTIONS,
        "NXQT encodes at most {MAX_ACTIONS} actions, table has {n_actions}"
    );
    out.extend_from_slice(&MAGIC);
    put_u16(out, VERSION);
    out.push(kind);
    put_u16(out, n_actions as u16);
    put_f64(out, default_q);
}

pub(crate) fn encode_row(
    out: &mut Vec<u8>,
    prev: Option<StateKey>,
    state: StateKey,
    values: &[f64],
    visits: &[u64],
) {
    let gap = match prev {
        None => state,
        Some(p) => state - p,
    };
    put_varint(out, gap);
    let mut mask = 0u64;
    for (a, &n) in visits.iter().enumerate() {
        if n > 0 {
            mask |= 1 << a;
        }
    }
    put_varint(out, mask);
    for (&v, &n) in values.iter().zip(visits.iter()) {
        if n > 0 {
            put_f64(out, v);
            put_varint(out, n);
        }
    }
}

/// Encodes a full table (kind 1). The row order is the sorted key
/// order, so the bytes are independent of insertion order and backend.
///
/// # Panics
///
/// Panics if the table has more than [`MAX_ACTIONS`] actions.
#[must_use]
pub fn encode_table<S: QStore>(table: &QTable<S>) -> Vec<u8> {
    let keys = table.state_keys();
    let mut out = Vec::with_capacity(32 + keys.len() * (3 + table.n_actions() * 10));
    encode_header(&mut out, KIND_FULL, table.n_actions(), table.default_q());
    put_varint(&mut out, keys.len() as u64);
    let mut prev = None;
    for k in keys {
        // qlint::allow(PN01, reason = "k comes from state_keys() of the same table, so the row exists")
        let (values, visits) = table.entry_raw(k).expect("listed key has a row");
        encode_row(&mut out, prev, k, values, visits);
        prev = Some(k);
    }
    out
}

fn decode_body(bytes: &[u8], want_kind: u8) -> Result<(usize, f64, Vec<Row>), CodecError> {
    let mut r = Reader::new(bytes);
    if r.take(4)? != MAGIC {
        return Err(CodecError::BadMagic);
    }
    let version = r.u16()?;
    if version != VERSION {
        return Err(CodecError::BadVersion(version));
    }
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
    let mut rows = Vec::with_capacity(usize::try_from(row_count).unwrap_or(0).min(1 << 20));
    let mut prev: Option<StateKey> = None;
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
            }
        }
        rows.push(Row {
            state,
            values,
            visits,
        });
        prev = Some(state);
    }
    r.done()?;
    Ok((n_actions, default_q, rows))
}

/// Decodes a full table (kind 1) into backend `S`.
///
/// # Errors
///
/// Returns [`CodecError`] on any malformed input: wrong magic, version
/// or kind, an action count outside `1..=`[`MAX_ACTIONS`], truncation,
/// trailing bytes, non-finite values, out-of-range masks, zero visit
/// counts under set mask bits or non-ascending keys.
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
    let mut changed: Vec<StateKey> = Vec::new();
    for k in new.state_keys() {
        // qlint::allow(PN01, reason = "k comes from state_keys() of the same table, so the row exists")
        let (values, visits) = new.entry_raw(k).expect("listed key has a row");
        if row_differs(base.entry_raw(k), values, visits) {
            changed.push(k);
        }
    }
    let mut out = Vec::with_capacity(32 + changed.len() * (3 + new.n_actions() * 10));
    encode_header(&mut out, KIND_DELTA, new.n_actions(), new.default_q());
    put_varint(&mut out, changed.len() as u64);
    let mut prev = None;
    for k in changed {
        // qlint::allow(PN01, reason = "changed only holds keys just probed successfully above")
        let (values, visits) = new.entry_raw(k).expect("changed key has a row");
        encode_row(&mut out, prev, k, values, visits);
        prev = Some(k);
    }
    Ok(out)
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
        let mut out = MAGIC.to_vec();
        put_u16(&mut out, VERSION);
        out.push(KIND_FULL);
        put_u16(&mut out, n_actions);
        put_f64(&mut out, default_q);
        out.extend_from_slice(body);
        out
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
        let cases: [(&str, Vec<u8>, CodecError); 9] = [
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
                CodecError::BadVarint,
            ),
            (
                "set mask bit with zero visits",
                hand_built(2, 0.0, &rows(&[(5, 1, &[(7.0, 0)])])),
                CodecError::ZeroVisits,
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
            CodecError::BadMagic
        );

        let mut bad = bytes.clone();
        bad[4] = 99;
        assert_eq!(
            decode_table::<DenseStore>(&bad).unwrap_err(),
            CodecError::BadVersion(99)
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
            CodecError::TrailingBytes
        );
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
        let mut new = base.clone();
        new.set(3, 1, -0.125); // changed row
        new.set(1_000_000, 0, 2.5); // brand-new row
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

    /// Every single-bit flip at every offset of a valid encoding must
    /// decode to `Ok` or a typed error — never panic, in debug and
    /// release builds alike. (Every truncation is rejected by
    /// `rejects_bad_magic_version_kind_and_truncation`.)
    #[test]
    fn corrupted_bytes_never_panic() {
        let bytes = encode_table(&sample_table());
        for at in 0..bytes.len() {
            for bit in 0..8 {
                let mut bad = bytes.clone();
                bad[at] ^= 1 << bit;
                let _ = decode_table::<DenseStore>(&bad);
            }
        }
    }
}
