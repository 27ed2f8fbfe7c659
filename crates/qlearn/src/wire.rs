//! Little-endian wire primitives shared by every binary format the
//! program writes: `NXQT` tables and deltas ([`crate::codec`]), `NXCP`
//! campaign checkpoints (`simkit::campaign`) and `NXTR` day traces
//! (`simkit::trace`).
//!
//! A format writes its `magic | version` header with [`put_header`]
//! and its fields with the `put_*` functions, and reads them back
//! through a [`Reader`] opened on the same magic and version. Every
//! structural fault — wrong magic or version, truncation, trailing
//! bytes, a malformed varint, a string that is not UTF-8 — is one
//! [`WireError`] that names the format; each format's own error type
//! adds only what is particular to its content.
//!
//! Integers and floats are little-endian; floats travel as raw
//! IEEE-754 bits. Varints are unsigned LEB128 (7 bits per byte, low
//! group first), at most 10 bytes, and canonical: the reader rejects a
//! multi-byte varint whose last byte is zero, so every value has
//! exactly one encoding and a decoded input re-encodes to itself.

use std::fmt;

/// Writes the `magic | version` header every format opens with.
pub fn put_header(out: &mut Vec<u8>, magic: [u8; 4], version: u16) {
    out.extend_from_slice(&magic);
    put_u16(out, version);
}

/// Writes a `u16`.
#[inline]
pub fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Writes a `u32`.
#[inline]
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Writes a `u64`.
#[inline]
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Writes the raw bits of an `f32`.
#[inline]
pub fn put_f32(out: &mut Vec<u8>, v: f32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Writes the raw bits of an `f64`.
#[inline]
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Writes `v` as a canonical unsigned LEB128 varint (1 to 10 bytes).
#[inline]
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
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

/// Writes `s` as a `u16` byte length followed by its UTF-8 bytes.
///
/// # Panics
///
/// Panics when `s` is longer than `u16::MAX` bytes.
pub fn put_str16(out: &mut Vec<u8>, s: &str) {
    assert!(
        u16::try_from(s.len()).is_ok(),
        "string overflows a u16 length"
    );
    put_u16(out, s.len() as u16);
    out.extend_from_slice(s.as_bytes());
}

/// Writes `s` as a `u32` byte length followed by its UTF-8 bytes.
///
/// # Panics
///
/// Panics when `s` is longer than `u32::MAX` bytes.
pub fn put_str32(out: &mut Vec<u8>, s: &str) {
    assert!(
        u32::try_from(s.len()).is_ok(),
        "string overflows a u32 length"
    );
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// What is structurally wrong with a wire-format input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireErrorKind {
    /// The input does not start with the format's magic.
    BadMagic,
    /// The header carries a version this build does not read.
    BadVersion {
        /// Version the input declares.
        found: u16,
        /// The one version this build reads.
        expected: u16,
    },
    /// The input ends before the declared content.
    Truncated,
    /// This many bytes follow the declared content.
    TrailingBytes(usize),
    /// A varint runs past 10 bytes, overflows a `u64`, or is not in
    /// its shortest form.
    BadVarint,
    /// A length-prefixed string is not valid UTF-8.
    BadUtf8,
}

/// A structural fault in a wire-format input, naming the format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireError {
    /// Magic of the format the [`Reader`] was opened on, e.g. `*b"NXCP"`.
    pub format: [u8; 4],
    /// What is wrong.
    pub kind: WireErrorKind,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: ", String::from_utf8_lossy(&self.format))?;
        match self.kind {
            WireErrorKind::BadMagic => write!(f, "bad magic"),
            WireErrorKind::BadVersion { found, expected } => {
                write!(
                    f,
                    "unsupported version {found} (this build reads {expected})"
                )
            }
            WireErrorKind::Truncated => write!(f, "truncated input"),
            WireErrorKind::TrailingBytes(n) => write!(f, "{n} trailing byte(s) after the content"),
            WireErrorKind::BadVarint => write!(f, "malformed varint"),
            WireErrorKind::BadUtf8 => write!(f, "string is not valid UTF-8"),
        }
    }
}

impl std::error::Error for WireError {}

/// Lets the `String` errors of the campaign API take a structural
/// fault with `?`.
impl From<WireError> for String {
    fn from(e: WireError) -> String {
        e.to_string()
    }
}

/// A bounds-checked cursor over one wire-format input. Every read
/// either returns the next field or a [`WireError`] naming the format
/// the reader was opened on; none panics.
#[derive(Debug)]
pub struct Reader<'a> {
    rest: &'a [u8],
    format: [u8; 4],
}

impl<'a> Reader<'a> {
    /// Opens `bytes` as input of the format `magic`, checking the magic
    /// and then the version, and leaves the reader after the header.
    ///
    /// # Errors
    ///
    /// [`WireErrorKind::Truncated`] on an input shorter than the
    /// header, [`WireErrorKind::BadMagic`] or
    /// [`WireErrorKind::BadVersion`].
    pub fn open(bytes: &'a [u8], magic: [u8; 4], version: u16) -> Result<Self, WireError> {
        let mut r = Reader {
            rest: bytes,
            format: magic,
        };
        if r.array::<4>()? != magic {
            return Err(r.error(WireErrorKind::BadMagic));
        }
        let found = r.u16()?;
        if found != version {
            return Err(r.error(WireErrorKind::BadVersion {
                found,
                expected: version,
            }));
        }
        Ok(r)
    }

    fn error(&self, kind: WireErrorKind) -> WireError {
        WireError {
            format: self.format,
            kind,
        }
    }

    /// The next `n` bytes.
    ///
    /// # Errors
    ///
    /// [`WireErrorKind::Truncated`] when fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let (head, tail) = self
            .rest
            .split_at_checked(n)
            .ok_or(self.error(WireErrorKind::Truncated))?;
        self.rest = tail;
        Ok(head)
    }

    /// The next `N` bytes as an array.
    ///
    /// # Errors
    ///
    /// [`WireErrorKind::Truncated`] when fewer than `N` bytes remain.
    #[inline]
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let (head, tail) = self
            .rest
            .split_first_chunk::<N>()
            .ok_or(self.error(WireErrorKind::Truncated))?;
        self.rest = tail;
        Ok(*head)
    }

    /// Reads a `u8`.
    ///
    /// # Errors
    ///
    /// [`WireErrorKind::Truncated`] at the end of the input.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(u8::from_le_bytes(self.array()?))
    }

    /// Reads a `u16`.
    ///
    /// # Errors
    ///
    /// [`WireErrorKind::Truncated`] when fewer than 2 bytes remain.
    pub fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    /// Reads a `u32`.
    ///
    /// # Errors
    ///
    /// [`WireErrorKind::Truncated`] when fewer than 4 bytes remain.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// Reads a `u64`.
    ///
    /// # Errors
    ///
    /// [`WireErrorKind::Truncated`] when fewer than 8 bytes remain.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// Reads the raw bits of an `f32`.
    ///
    /// # Errors
    ///
    /// [`WireErrorKind::Truncated`] when fewer than 4 bytes remain.
    pub fn f32(&mut self) -> Result<f32, WireError> {
        Ok(f32::from_le_bytes(self.array()?))
    }

    /// Reads the raw bits of an `f64`.
    ///
    /// # Errors
    ///
    /// [`WireErrorKind::Truncated`] when fewer than 8 bytes remain.
    pub fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_le_bytes(self.array()?))
    }

    /// Reads a canonical unsigned LEB128 varint.
    ///
    /// # Errors
    ///
    /// [`WireErrorKind::BadVarint`] when the varint runs past 10 bytes,
    /// overflows a `u64`, or ends in a zero byte after a continuation
    /// (an overlong encoding of a shorter varint);
    /// [`WireErrorKind::Truncated`] when the input ends inside it.
    pub fn varint(&mut self) -> Result<u64, WireError> {
        let mut value = 0u64;
        for i in 0..10 {
            let byte = self.u8()?;
            let group = u64::from(byte & 0x7f);
            // The 10th byte may only carry the top bit of a u64.
            if i == 9 && group > 1 {
                break;
            }
            value |= group << (7 * i);
            if byte & 0x80 == 0 {
                if byte == 0 && i > 0 {
                    break;
                }
                return Ok(value);
            }
        }
        Err(self.error(WireErrorKind::BadVarint))
    }

    /// Reads a string written by [`put_str16`].
    ///
    /// # Errors
    ///
    /// [`WireErrorKind::Truncated`] or [`WireErrorKind::BadUtf8`].
    pub fn str16(&mut self) -> Result<String, WireError> {
        let len = self.u16()?;
        self.string(usize::from(len))
    }

    /// Reads a string written by [`put_str32`].
    ///
    /// # Errors
    ///
    /// [`WireErrorKind::Truncated`] or [`WireErrorKind::BadUtf8`].
    pub fn str32(&mut self) -> Result<String, WireError> {
        let len = self.u32()?;
        self.string(usize::try_from(len).unwrap_or(usize::MAX))
    }

    fn string(&mut self, len: usize) -> Result<String, WireError> {
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes)
            .map(str::to_owned)
            .map_err(|_| self.error(WireErrorKind::BadUtf8))
    }

    /// Bytes left to read. A decoder checks a count read from the input
    /// against this before sizing a buffer from it.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }

    /// Ends the read.
    ///
    /// # Errors
    ///
    /// [`WireErrorKind::TrailingBytes`] when input is left over.
    pub fn finish(self) -> Result<(), WireError> {
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(self.error(WireErrorKind::TrailingBytes(self.rest.len())))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAGIC: [u8; 4] = *b"TEST";

    fn err(kind: WireErrorKind) -> WireError {
        WireError {
            format: MAGIC,
            kind,
        }
    }

    fn varint_of(bytes: &[u8]) -> Result<u64, WireError> {
        let mut input = Vec::new();
        put_header(&mut input, MAGIC, 3);
        input.extend_from_slice(bytes);
        let mut r = Reader::open(&input, MAGIC, 3)?;
        let v = r.varint()?;
        r.finish()?;
        Ok(v)
    }

    #[test]
    fn header_is_checked_magic_first() {
        let mut ok = Vec::new();
        put_header(&mut ok, MAGIC, 3);
        assert_eq!(ok, b"TEST\x03\x00");
        assert!(Reader::open(&ok, MAGIC, 3).is_ok());
        assert_eq!(
            Reader::open(&ok, MAGIC, 4).unwrap_err(),
            err(WireErrorKind::BadVersion {
                found: 3,
                expected: 4
            })
        );
        assert_eq!(
            Reader::open(b"XEST\x04\x00", MAGIC, 3).unwrap_err(),
            err(WireErrorKind::BadMagic)
        );
        for cut in 0..ok.len() {
            assert_eq!(
                Reader::open(&ok[..cut], MAGIC, 3).unwrap_err(),
                err(WireErrorKind::Truncated),
                "cut {cut}"
            );
        }
    }

    #[test]
    fn fields_round_trip_and_the_reader_ends_exactly() {
        let mut out = Vec::new();
        put_header(&mut out, MAGIC, 1);
        put_u16(&mut out, 0xbeef);
        put_u32(&mut out, 0xdead_beef);
        put_u64(&mut out, u64::MAX - 1);
        put_f32(&mut out, -0.0);
        put_f64(&mut out, f64::MIN_POSITIVE);
        put_str16(&mut out, "exynos9810");
        put_str32(&mut out, "");
        out.push(7);
        let mut r = Reader::open(&out, MAGIC, 1).expect("header");
        assert_eq!(r.u16(), Ok(0xbeef));
        assert_eq!(r.u32(), Ok(0xdead_beef));
        assert_eq!(r.u64(), Ok(u64::MAX - 1));
        assert_eq!(r.f32().map(f32::to_bits), Ok((-0.0f32).to_bits()));
        assert_eq!(r.f64(), Ok(f64::MIN_POSITIVE));
        assert_eq!(r.str16().as_deref(), Ok("exynos9810"));
        assert_eq!(r.str32().as_deref(), Ok(""));
        assert_eq!(r.remaining(), 1);
        assert_eq!(r.take(2), Err(err(WireErrorKind::Truncated)));
        assert_eq!(r.array::<2>(), Err(err(WireErrorKind::Truncated)));
        assert_eq!(r.u8(), Ok(7));
        assert_eq!(r.finish(), Ok(()));
        let r = Reader::open(b"TEST\x01\x00\x09", MAGIC, 1).expect("header");
        assert_eq!(r.finish(), Err(err(WireErrorKind::TrailingBytes(1))));
    }

    #[test]
    fn strings_must_be_utf8() {
        let mut out = Vec::new();
        put_header(&mut out, MAGIC, 1);
        put_u16(&mut out, 2);
        out.extend_from_slice(&[0xc3, 0x28]);
        let mut r = Reader::open(&out, MAGIC, 1).expect("header");
        assert_eq!(r.str16(), Err(err(WireErrorKind::BadUtf8)));
    }

    #[test]
    fn varints_are_canonical_and_fit_a_u64() {
        for v in [0, 1, 127, 128, 300, 1 << 32, u64::MAX >> 1, u64::MAX] {
            let mut bytes = Vec::new();
            put_varint(&mut bytes, v);
            assert_eq!(varint_of(&bytes), Ok(v), "{v}");
        }
        let bad = err(WireErrorKind::BadVarint);
        // Overlong: 2 and 0 in two bytes, and u64::MAX >> 1 (nine
        // bytes) padded to ten.
        assert_eq!(varint_of(&[0x82, 0x00]), Err(bad));
        assert_eq!(varint_of(&[0x80, 0x00]), Err(bad));
        let mut padded = vec![0xff; 9];
        padded.push(0x00);
        assert_eq!(varint_of(&padded), Err(bad));
        // The 10th byte may only carry bit 63, and there is no 11th.
        let mut wide = vec![0xff; 9];
        wide.push(0x02);
        assert_eq!(varint_of(&wide), Err(bad));
        assert_eq!(varint_of(&[0xff; 11]), Err(bad));
        assert_eq!(varint_of(&[0x80]), Err(err(WireErrorKind::Truncated)));
    }

    #[test]
    fn errors_name_the_format() {
        let e = err(WireErrorKind::Truncated);
        assert_eq!(e.to_string(), "TEST: truncated input");
        assert_eq!(String::from(e), "TEST: truncated input");
        assert_eq!(
            err(WireErrorKind::TrailingBytes(3)).to_string(),
            "TEST: 3 trailing byte(s) after the content"
        );
    }

    #[test]
    #[should_panic(expected = "string overflows a u16 length")]
    fn str16_rejects_long_strings() {
        put_str16(&mut Vec::new(), &"x".repeat(65_536));
    }
}
