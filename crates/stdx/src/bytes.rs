//! Bounded little-endian byte decoding: the one reader behind every binary
//! format in the workspace (wire frames, contig stores, minimizer indexes,
//! graph images, staged reads, file trailers), and the writers it reads.
//!
//! A [`Cursor`] only moves forward. Every read is checked against the
//! bytes that remain, so a truncated or lying input is a [`Corrupt`]
//! naming its source, the field and the byte offset, never a panic. A
//! count prefix goes through [`Cursor::count`] before anything is
//! reserved for it, so a hostile count cannot allocate memory its bytes
//! do not back.

use std::fmt;

/// Append `v` little-endian.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append `v` little-endian.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append `s` as a `u32` byte length and its UTF-8 bytes, the layout
/// [`Cursor::string`] reads.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// Bytes that failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Corrupt {
    /// Where the bytes came from: a file path or a peer address.
    pub source: String,
    /// The field being read.
    pub label: &'static str,
    /// Byte offset of that field in the input.
    pub offset: usize,
    /// What was wrong with it.
    pub detail: String,
}

impl Corrupt {
    /// The failure without its source: field, offset and detail.
    pub fn message(&self) -> String {
        format!("{} at byte {}: {}", self.label, self.offset, self.detail)
    }
}

impl fmt::Display for Corrupt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.source, self.message())
    }
}

impl std::error::Error for Corrupt {}

/// Convenience alias for decoding results.
pub type Result<T> = std::result::Result<T, Corrupt>;

/// Forward-only, bounds-checked reader over `buf`.
#[derive(Debug, Clone)]
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
    source: &'a str,
}

impl<'a> Cursor<'a> {
    /// A reader at the start of `buf`; `source` names it in errors.
    pub fn new(buf: &'a [u8], source: &'a str) -> Self {
        Cursor {
            buf,
            pos: 0,
            source,
        }
    }

    /// Bytes not yet read.
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// A [`Corrupt`] for the field `label` at the current offset.
    #[cold]
    pub fn corrupt(&self, label: &'static str, detail: impl Into<String>) -> Corrupt {
        Corrupt {
            source: self.source.to_string(),
            label,
            offset: self.pos,
            detail: detail.into(),
        }
    }

    /// The next `n` bytes.
    #[inline]
    pub fn take(&mut self, n: usize, label: &'static str) -> Result<&'a [u8]> {
        if n > self.remaining() {
            let detail = format!("truncated: wants {n} bytes, {} left", self.remaining());
            return Err(self.corrupt(label, detail));
        }
        self.pos += n;
        Ok(&self.buf[self.pos - n..self.pos])
    }

    #[inline]
    pub fn u8(&mut self, label: &'static str) -> Result<u8> {
        Ok(self.take(1, label)?[0])
    }

    #[inline]
    pub fn u32(&mut self, label: &'static str) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4, label)?.try_into().unwrap()))
    }

    #[inline]
    pub fn u64(&mut self, label: &'static str) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8, label)?.try_into().unwrap()))
    }

    /// A flag byte: `0` or `1`, anything else is corrupt.
    pub fn bool(&mut self, label: &'static str) -> Result<bool> {
        match self.u8(label)? {
            0 => Ok(false),
            1 => Ok(true),
            b => {
                self.pos -= 1;
                Err(self.corrupt(label, format!("flag byte {b} is neither 0 nor 1")))
            }
        }
    }

    /// A count prefix of `n` elements that each take at least `min_bytes`
    /// of what remains: `n` as a `usize`, safe to reserve, or corrupt if
    /// the remaining bytes could not hold that many.
    pub fn count(&self, n: u64, min_bytes: usize, label: &'static str) -> Result<usize> {
        match usize::try_from(n) {
            Ok(n) if n.saturating_mul(min_bytes) <= self.remaining() => Ok(n),
            _ => {
                let left = self.remaining();
                let detail = format!("{n} of at least {min_bytes} bytes exceed the {left} left");
                Err(self.corrupt(label, detail))
            }
        }
    }

    /// A `u32` count prefix, checked by [`count`](Cursor::count) against
    /// `min_bytes` an element, then that many elements read by `item`.
    pub fn list<T>(
        &mut self,
        min_bytes: usize,
        label: &'static str,
        mut item: impl FnMut(&mut Self) -> Result<T>,
    ) -> Result<Vec<T>> {
        let n = self.u32(label)?;
        let mut out = Vec::with_capacity(self.count(n.into(), min_bytes, label)?);
        for _ in 0..n {
            out.push(item(self)?);
        }
        Ok(out)
    }

    /// A string written by [`put_str`], at most `max` bytes long.
    pub fn string(&mut self, max: usize, label: &'static str) -> Result<String> {
        let len = self.u32(label)? as usize;
        if len > max {
            return Err(self.corrupt(label, format!("length {len} exceeds {max}")));
        }
        let bytes = self.take(len, label)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| self.corrupt(label, "not valid UTF-8"))
    }

    /// Succeed only if every byte was read: trailing bytes mean a length
    /// upstream lied.
    pub fn finish(&self) -> Result<()> {
        match self.remaining() {
            0 => Ok(()),
            left => Err(self.corrupt("end", format!("{left} trailing bytes"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_what_the_writers_wrote() {
        let mut buf = vec![7u8, 1];
        put_u32(&mut buf, 0xdead_beef);
        put_u64(&mut buf, u64::MAX - 1);
        put_str(&mut buf, "peer");
        let mut c = Cursor::new(&buf, "test");
        assert_eq!(c.u8("byte").unwrap(), 7);
        assert!(c.bool("flag").unwrap());
        assert_eq!(c.u32("u32").unwrap(), 0xdead_beef);
        assert_eq!(c.u64("u64").unwrap(), u64::MAX - 1);
        assert_eq!(c.string(16, "name").unwrap(), "peer");
        c.finish().unwrap();
    }

    #[test]
    fn errors_name_the_source_the_field_and_the_offset() {
        let buf = [1u8, 2, 3, 4, 5];
        let mut c = Cursor::new(&buf, "10.0.0.9:5000");
        c.u8("tag").unwrap();
        let e = c.u64("request id").unwrap_err();
        assert_eq!((e.label, e.offset), ("request id", 1));
        assert_eq!(
            e.to_string(),
            "10.0.0.9:5000: request id at byte 1: truncated: wants 8 bytes, 4 left"
        );
        // A failed read consumes nothing.
        assert_eq!(c.remaining(), 4);
        assert_eq!(c.finish().unwrap_err().detail, "4 trailing bytes");
        let e = Cursor::new(&[2], "f").bool("strand").unwrap_err();
        assert_eq!(
            (e.offset, e.detail.as_str()),
            (0, "flag byte 2 is neither 0 nor 1")
        );
    }

    #[test]
    fn a_count_is_capped_by_the_bytes_left() {
        let c = Cursor::new(&[0u8; 64], "f");
        assert_eq!(c.count(8, 8, "n").unwrap(), 8);
        assert!(c.count(9, 8, "n").is_err());
        assert!(c.count(u64::MAX, 1, "n").is_err());
        assert!(c.count(u64::MAX / 2, 4, "n").is_err());
        assert_eq!(
            c.count(u64::MAX, 0, "n").ok(),
            usize::try_from(u64::MAX).ok()
        );
    }

    #[test]
    fn a_list_reads_its_count_then_its_elements() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 3);
        for v in [5u32, 6, 7] {
            put_u32(&mut buf, v);
        }
        let mut c = Cursor::new(&buf, "f");
        assert_eq!(c.list(4, "n", |c| c.u32("v")).unwrap(), [5, 6, 7]);
        c.finish().unwrap();
        // Four elements cannot fit twelve bytes: refused before reserving.
        buf[0] = 4;
        let e = Cursor::new(&buf, "f")
            .list(4, "n", |c| c.u32("v"))
            .unwrap_err();
        assert_eq!((e.label, e.offset), ("n", 4));
    }

    #[test]
    fn strings_are_capped_and_must_be_utf8() {
        let mut buf = Vec::new();
        put_str(&mut buf, "toolong");
        assert!(Cursor::new(&buf, "f").string(6, "id").is_err());
        let bad = [1u8, 0, 0, 0, 0xff];
        let e = Cursor::new(&bad, "f").string(6, "id").unwrap_err();
        assert!(e.detail.contains("UTF-8"), "{e}");
    }

    #[test]
    fn random_bytes_never_panic() {
        crate::check_cases(256, |rng| {
            let buf = rng.vec(0..40, |r| r.next_u64() as u8);
            let mut c = Cursor::new(&buf, "fuzz");
            while c.remaining() > 0 {
                let step = match rng.below(6) {
                    0 => c.u8("a").map(drop),
                    1 => c.u32("b").map(drop),
                    2 => c.u64("c").map(drop),
                    3 => c.bool("d").map(drop),
                    4 => c.string(8, "e").map(drop),
                    _ => c.count(rng.next_u64() >> rng.below(64), 4, "f").map(drop),
                };
                if step.is_err() && rng.below(2) == 0 {
                    break;
                }
            }
        });
    }
}
