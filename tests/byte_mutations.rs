//! Seeded mutation loop over every binary decoder: each fixed encoding of
//! `common::encodings` is truncated, extended and bit-flipped, then handed
//! to the decoder that reads it. Every result must be `Ok` or that
//! format's typed `Corrupt`, never a panic. A failing case prints its seed
//! (`stdx::check_cases`); the loop stops early once its time box is spent.

mod common;

use common::encodings::{encodings, Format, STAGED_READS, STAGED_READ_LEN};
use lasagna_repro::genome::{GenomeError, ReadSet};
use lasagna_repro::gstream::{self, Footer, StreamError};
use lasagna_repro::lasagna::StringGraph;
use lasagna_repro::qnet::{QnetError, Request, Response};
use lasagna_repro::qserve::{ContigStore, MinimizerIndex};
use std::path::Path;
use std::time::{Duration, Instant};
use stdx::SplitMix64;

/// Wall-clock budget of the whole loop.
const TIME_BOX: Duration = Duration::from_secs(2);

/// `Ok(true)` for a decoded value, `Ok(false)` for the typed `Corrupt`.
fn stream<T>(r: gstream::Result<T>) -> Result<bool, String> {
    match r {
        Ok(_) => Ok(true),
        Err(StreamError::Corrupt(_)) => Ok(false),
        Err(e) => Err(format!("{e:?}")),
    }
}

fn qnet<T>(r: Result<T, QnetError>) -> Result<bool, String> {
    match r {
        Ok(_) => Ok(true),
        Err(QnetError::Corrupt { .. }) => Ok(false),
        Err(e) => Err(format!("{e:?}")),
    }
}

/// Feed `bytes` to `format`'s decoder: `Ok(true)` if it decoded,
/// `Ok(false)` if it failed with the format's typed `Corrupt`. Staged
/// reads also take their two counts from a sidecar a user can edit, so
/// those are `counts`.
fn decode(format: Format, bytes: &[u8], counts: (usize, usize)) -> Result<bool, String> {
    let path = Path::new("mutated");
    match format {
        Format::Store => stream(ContigStore::decode(bytes, path)),
        Format::Index => stream(MinimizerIndex::decode(bytes, path)),
        Format::Graph => stream(StringGraph::from_bytes(bytes)),
        Format::SpillTrailer => stream(Footer::decode(bytes, Footer::SPILL, path)),
        Format::BlobTrailer => stream(Footer::decode(bytes, Footer::BLOB, path)),
        Format::Request => qnet(Request::decode(bytes, "peer")),
        Format::Response => qnet(Response::decode(bytes, "peer")),
        Format::StagedReads => match ReadSet::from_packed_bytes(counts.0, counts.1, bytes) {
            Ok(_) => Ok(true),
            Err(GenomeError::Corrupt(_)) => Ok(false),
            Err(e) => Err(format!("{e:?}")),
        },
    }
}

/// One to three truncations, extensions or bit flips of `bytes`.
fn mutate(rng: &mut SplitMix64, mut bytes: Vec<u8>) -> Vec<u8> {
    for _ in 0..rng.range(1..4) {
        match rng.below(3) {
            0 => bytes.truncate(rng.below(bytes.len() as u64 + 1) as usize),
            1 => bytes.extend(rng.vec(1..17, |r| r.next_u64() as u8)),
            _ if !bytes.is_empty() => {
                let i = rng.below(bytes.len() as u64) as usize;
                bytes[i] ^= 1 << rng.below(8);
            }
            _ => {}
        }
    }
    bytes
}

/// A count as a tampered sidecar might hold it: anything from zero to
/// `usize::MAX`.
fn any_count(rng: &mut SplitMix64) -> usize {
    (rng.next_u64() >> rng.below(64)) as usize
}

#[test]
fn mutated_encodings_decode_or_fail_typed_never_panic() {
    let goldens = encodings();
    let start = Instant::now();
    stdx::check_cases(1024, |rng| {
        if start.elapsed() > TIME_BOX {
            return;
        }
        for (name, format, bytes) in &goldens {
            let counts = match rng.below(4) {
                0 => (any_count(rng), any_count(rng)),
                _ => (STAGED_READ_LEN, STAGED_READS),
            };
            let mutated = mutate(rng, bytes.clone());
            if let Err(e) = decode(*format, &mutated, counts) {
                panic!("{name}: {mutated:02x?} failed untyped: {e}");
            }
        }
    });
}

#[test]
fn every_golden_encoding_decodes() {
    for (name, format, bytes) in encodings() {
        let counts = (STAGED_READ_LEN, STAGED_READS);
        assert_eq!(decode(format, &bytes, counts), Ok(true), "{name}");
    }
}
