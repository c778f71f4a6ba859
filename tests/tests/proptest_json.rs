//! The vendored JSON parser against hostile input.
//!
//! `serde::parse` reads bytes the workspace does not control: service
//! recovery feeds it snapshot files from disk, and tools re-read exported
//! traces. Whatever it is given, it must return `Ok` or a `DeError` and
//! never panic. Two input families:
//!
//! * arbitrary byte strings, both uniform and drawn from the JSON
//!   alphabet so they reach past the first token;
//! * real exporter output — a Chrome trace, a telemetry snapshot and a
//!   `FleetReport` — with bytes flipped, truncated or inserted.
//!
//! Unmutated exporter output must also re-serialize through
//! `serde::to_json` byte-identically.

mod common;

use flux_core::{migrate, FleetConfig, FleetScheduler, MigrationRequest, MigrationSpec};
use flux_simcore::{FaultConfig, FaultPlan, SimDuration};
use flux_telemetry::{chrome_trace, json_snapshot};
use proptest::prelude::*;
use std::sync::OnceLock;

/// Bytes that make up JSON documents, weighted towards structure.
const ALPHABET: &[u8] = b"{}[]{}[]\"\":,:,0123456789.-+eEtrufalsn\\/ \t\nu\x01\xc3\xa9";

/// The exporter documents the mutations start from: a faulted
/// migration's Chrome trace and telemetry snapshot, and a two-request
/// fleet's report. Built once; every case reads them.
fn documents() -> &'static [String; 3] {
    static DOCS: OnceLock<[String; 3]> = OnceLock::new();
    DOCS.get_or_init(|| {
        let plan = FaultPlan::generate(42, &FaultConfig::uniform(0.2, SimDuration::from_secs(120)));
        let (mut world, home, guest, pkg) = common::staged_faulty("WhatsApp", 42, plan);
        migrate(&mut world, MigrationSpec::new(&pkg).between(home, guest)).expect("migrate");
        world.harvest_metrics();
        world.telemetry.finish(world.clock.now());

        let (mut fleet, pairs) = common::fleet_world(&["WhatsApp", "Twitter"], 42);
        let requests = pairs
            .iter()
            .zip(1..)
            .map(|((home, guest, pkg), id)| MigrationRequest::new(id, *home, *guest, pkg))
            .collect();
        let report = FleetScheduler::new(FleetConfig::default())
            .expect("config")
            .run(&mut fleet, requests)
            .expect("fleet run");
        [
            chrome_trace(&world.telemetry),
            json_snapshot(&world.telemetry),
            serde::to_json(&report),
        ]
    })
}

/// One byte-level edit: `(kind, position, byte)`. Kind 0 flips bits of
/// the byte at `position`, 1 truncates there, 2 inserts `byte` there.
fn edit() -> impl Strategy<Value = (u8, usize, u8)> {
    (0..3u8, any::<usize>(), any::<u8>())
}

/// Applies `edits` to `doc`; positions wrap to the current length.
fn mutate(doc: &str, edits: &[(u8, usize, u8)]) -> Vec<u8> {
    let mut bytes = doc.as_bytes().to_vec();
    for &(kind, pos, byte) in edits {
        let at = pos % (bytes.len() + 1);
        match kind {
            0 if at < bytes.len() => bytes[at] ^= byte.max(1),
            1 => bytes.truncate(at),
            _ => bytes.insert(at, byte),
        }
    }
    bytes
}

/// Parses `bytes` (lossily decoded, as a reader of a damaged file would)
/// and, when it parses, checks the result re-serializes to a document
/// that parses to the same value.
fn parse_is_total(bytes: &[u8]) {
    let text = String::from_utf8_lossy(bytes);
    if let Ok(value) = serde::parse(&text) {
        let again = serde::to_json(&value);
        assert_eq!(serde::parse(&again), Ok(value), "reprint of {text:?}");
    }
}

#[test]
fn exporter_output_round_trips_byte_identically() {
    for doc in documents() {
        let value = serde::parse(doc).expect("exporter output parses");
        assert_eq!(&serde::to_json(&value), doc);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Uniform random bytes.
    #[test]
    fn arbitrary_bytes_parse_or_error(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        parse_is_total(&bytes);
    }

    /// Random strings over the JSON alphabet.
    #[test]
    fn json_alphabet_soup_parses_or_errors(
        picks in prop::collection::vec(0..ALPHABET.len(), 0..512),
    ) {
        let bytes: Vec<u8> = picks.into_iter().map(|i| ALPHABET[i]).collect();
        parse_is_total(&bytes);
    }

    /// Exporter documents with up to four flips, truncations or inserts.
    #[test]
    fn mutated_exporter_output_parses_or_errors(
        which in 0..3usize,
        edits in prop::collection::vec(edit(), 1..5),
    ) {
        parse_is_total(&mutate(&documents()[which], &edits));
    }
}
