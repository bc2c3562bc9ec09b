//! Length-prefixed, checksummed message framing for byte-stream
//! transports (the `qnet` wire format).
//!
//! One frame is `u32 LE payload length ‖ u64 LE FNV-1a(payload) ‖ payload`.
//! The checksum is the same [`fnv1a`] that seals every spill blob, so a
//! frame torn by a dropped connection or a flipped bit fails loudly as
//! [`StreamError::Corrupt`] naming the peer — it can never be delivered
//! short or altered. EOF exactly on a frame boundary is the *only* clean
//! way for a stream to end ([`read_frame`] returns `Ok(None)`); EOF
//! anywhere inside a frame is corruption, which is what lets `qnet`
//! distinguish an orderly close from a mid-message drop.

use crate::record::fnv1a;
use crate::StreamError;
use std::io::{ErrorKind, Read, Write};
use stdx::bytes::Cursor;

/// Bytes of framing ahead of the payload: `u32` length + `u64` checksum.
pub const FRAME_HEADER_BYTES: usize = 12;

/// Hard cap on a single frame's payload. A length field above this is
/// treated as corruption rather than an allocation request — the same
/// "implausible header" discipline as `ContigStore::decode`.
pub const MAX_FRAME_BYTES: usize = 64 << 20;

/// The most [`read_frame`] reserves for a payload before its bytes arrive.
const PAYLOAD_RESERVE_BYTES: usize = 64 << 10;

/// Write one frame: header then payload, no flush.
///
/// Payloads above [`MAX_FRAME_BYTES`] are a caller bug surfaced as
/// [`StreamError::BadConfig`] — the peer would be required to reject them.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> crate::Result<()> {
    if payload.len() > MAX_FRAME_BYTES {
        return Err(StreamError::BadConfig(format!(
            "frame payload of {} bytes exceeds the {} byte cap",
            payload.len(),
            MAX_FRAME_BYTES
        )));
    }
    let mut header = [0u8; FRAME_HEADER_BYTES];
    header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[4..].copy_from_slice(&fnv1a(payload).to_le_bytes());
    w.write_all(&header)?;
    w.write_all(payload)?;
    Ok(())
}

/// How a buffered read against a possibly-closing stream ended.
enum Fill {
    /// The buffer was filled completely.
    Full,
    /// EOF before the first byte.
    CleanEof,
    /// EOF after `got` of the wanted bytes.
    Torn { got: usize },
}

fn fill<R: Read>(r: &mut R, buf: &mut [u8]) -> std::io::Result<Fill> {
    let mut got = 0;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => {
                return Ok(if got == 0 {
                    Fill::CleanEof
                } else {
                    Fill::Torn { got }
                })
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(Fill::Full)
}

/// The payload length a frame header names, from its first four bytes.
/// Too few bytes, or a length over [`MAX_FRAME_BYTES`], is corrupt naming
/// `peer`.
pub fn frame_len(header: &[u8], peer: &str) -> crate::Result<usize> {
    let len = Cursor::new(header, peer).u32("frame length")? as usize;
    if len > MAX_FRAME_BYTES {
        let detail = format!("implausible length {len} (cap {MAX_FRAME_BYTES})");
        return Err(Cursor::new(header, peer)
            .corrupt("frame length", detail)
            .into());
    }
    Ok(len)
}

/// Read one frame from `r`.
///
/// Returns `Ok(None)` iff the stream ended cleanly *between* frames.
/// A truncated header or payload, a checksum mismatch, or an implausible
/// length all return [`StreamError::Corrupt`] naming `peer`; transport
/// errors (including read timeouts) pass through as [`StreamError::Io`].
pub fn read_frame<R: Read>(r: &mut R, peer: &str) -> crate::Result<Option<Vec<u8>>> {
    let mut header = [0u8; FRAME_HEADER_BYTES];
    match fill(r, &mut header)? {
        Fill::CleanEof => return Ok(None),
        Fill::Torn { got } => {
            return Err(StreamError::Corrupt(format!(
            "peer {peer}: stream ended {got} bytes into a {FRAME_HEADER_BYTES}-byte frame header"
        )))
        }
        Fill::Full => {}
    }
    let len = frame_len(&header, peer)?;
    let expected = u64::from_le_bytes(header[4..].try_into().unwrap());
    // The buffer grows as bytes arrive, so a header that claims a huge
    // payload costs no more memory than the bytes that really follow.
    let mut payload = Vec::with_capacity(len.min(PAYLOAD_RESERVE_BYTES));
    r.take(len as u64).read_to_end(&mut payload)?;
    if payload.len() < len {
        return Err(StreamError::Corrupt(format!(
            "peer {peer}: stream ended inside a {len}-byte frame payload"
        )));
    }
    let actual = fnv1a(&payload);
    if actual != expected {
        return Err(StreamError::Corrupt(format!(
            "peer {peer}: frame checksum mismatch (stored {expected:#018x}, computed {actual:#018x})"
        )));
    }
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn corrupt_msg(res: crate::Result<Option<Vec<u8>>>) -> String {
        match res {
            Err(StreamError::Corrupt(m)) => m,
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn frames_roundtrip_back_to_back() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello").unwrap();
        write_frame(&mut wire, b"").unwrap();
        write_frame(&mut wire, &[0xAB; 1000]).unwrap();
        let mut r = Cursor::new(wire);
        assert_eq!(read_frame(&mut r, "t").unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r, "t").unwrap().unwrap(), b"");
        assert_eq!(read_frame(&mut r, "t").unwrap().unwrap(), vec![0xAB; 1000]);
        // Clean EOF exactly on the boundary: end of stream, not an error.
        assert!(read_frame(&mut r, "t").unwrap().is_none());
        assert!(read_frame(&mut r, "t").unwrap().is_none());
    }

    #[test]
    fn torn_header_and_torn_payload_are_corrupt() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"payload bytes").unwrap();
        for cut in 1..wire.len() {
            let msg = corrupt_msg(read_frame(&mut Cursor::new(&wire[..cut]), "node9"));
            assert!(msg.contains("node9"), "{msg}");
            assert!(msg.contains("ended"), "{msg}");
        }
    }

    #[test]
    fn flipped_bit_fails_the_checksum_naming_the_peer() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"genome data").unwrap();
        let last = wire.len() - 1;
        wire[last] ^= 0x10;
        let msg = corrupt_msg(read_frame(&mut Cursor::new(&wire), "10.0.0.7:9000"));
        assert!(msg.contains("10.0.0.7:9000"), "{msg}");
        assert!(msg.contains("checksum"), "{msg}");
    }

    #[test]
    fn implausible_length_is_corrupt_not_an_allocation() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&u32::MAX.to_le_bytes());
        wire.extend_from_slice(&0u64.to_le_bytes());
        let msg = corrupt_msg(read_frame(&mut Cursor::new(&wire), "p"));
        assert!(msg.contains("implausible"), "{msg}");
    }

    #[test]
    fn oversized_payload_is_rejected_at_the_writer() {
        struct Null;
        impl std::io::Write for Null {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let big = vec![0u8; MAX_FRAME_BYTES + 1];
        assert!(matches!(
            write_frame(&mut Null, &big),
            Err(StreamError::BadConfig(_))
        ));
    }
}
