//! The bytes of every binary format, pinned: one FNV-1a digest per fixed
//! encoding (store, index, graph image, staged reads, both trailers, one
//! payload per request and response tag). A decoder or encoder change
//! that moves a byte fails here.

mod common;

use common::encodings::encodings;
use lasagna_repro::gstream::Fnv64;

const GOLDENS: &[(&str, u64)] = &[
    ("store", 0x0c45fdd972bd684f),
    ("index", 0xbd54585af14feb43),
    ("graph", 0x828f42043f574864),
    ("staged reads", 0xd183c0a67260d0f9),
    ("spill trailer", 0x1babb7a80ccaf3b5),
    ("blob trailer", 0xb4453b074fc87ed4),
    ("request 0", 0xb8c81ffb53ef7f3b),
    ("request 1", 0x403db41c13c93842),
    ("request 2", 0xaf63be4c8601b992),
    ("request 3", 0xaf63b94c8601b113),
    ("request 4", 0xaf63b84c8601af60),
    ("request 5", 0x6bedb2c5a26b55e0),
    ("response 0", 0xece96f71092daeca),
    ("response 1", 0x86981b7a36e3bc34),
    ("response 2", 0x3b6ad7a8b1567310),
    ("response 3", 0x80dbf38a694683e4),
    ("response 4", 0xe705556b74676e42),
    ("response 5", 0xaf63ba4c8601b2c6),
    ("response 6", 0x469bbc25f2474037),
    ("response 7", 0x07f5242640f18362),
    ("response 8", 0x89d27ae0b2b49f2b),
    ("response 9", 0x06825c467d46065c),
    ("response 10", 0xa7b7e687bd3ba80d),
];

#[test]
fn every_encoding_is_byte_identical_to_its_golden() {
    let got: Vec<(String, u64)> = encodings()
        .into_iter()
        .map(|(name, _, bytes)| {
            let mut h = Fnv64::new();
            h.update(&bytes);
            (name, h.finish())
        })
        .collect();
    let want: Vec<(String, u64)> = GOLDENS.iter().map(|&(n, d)| (n.to_string(), d)).collect();
    assert_eq!(got, want);
}
