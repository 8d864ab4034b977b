//! Byte pins and one corruption sweep for the six on-disk formats.
//!
//! Each format encodes one small fixed input, and the bytes must equal
//! the hex pinned below. The pins were captured from the encoders as
//! they stood before the formats moved onto the shared framing codec
//! (`dctstream_obs::frame`), so any byte that codec changes fails here.
//!
//! The sweep then damages each pinned artifact in every way a byte can
//! be damaged — every single-byte flip and every truncation — and
//! demands a typed `Err` from the format's own decoder, never a panic
//! and never a silent success. Two formats answer differently by
//! design:
//!
//! - `DCTS` (a bare summary payload) carries no checksum of its own; a
//!   flipped coefficient byte decodes to a different finite value, so
//!   only "never panics" holds for flips. Truncation is always an error.
//! - `DCTW` (a WAL segment) treats a truncated newest segment as a torn
//!   tail: the scan cuts it, reports the cut, and keeps the records
//!   before it. A cut exactly at a frame boundary is a clean shorter log.

use bytes::Bytes;
use dctstream_core::{CosineSynopsis, Domain, Grid};
use dctstream_obs::{MetricsRegistry, MetricsSnapshot};
use dctstream_replay::{decode_trace, encode_trace, RegisterKind, TraceOp, TraceRecord};
use dctstream_stream::shard::{FleetManifest, ShardMeta};
use dctstream_stream::{
    scan_records, verify_checkpoint_bytes, MemStorage, RetryPolicy, StreamEvent, StreamProcessor,
    Summary, SyncPolicy, Tuple, Wal, WalOptions, WalRecord,
};
use std::collections::BTreeMap;

const DCTS_HEX: &str = concat!(
    "444354530201000000000000000000000f000000000000000400000000000000",
    "000000000000104000000000000010400000000000001040d62dab3dc17d0140",
    "87ff3867783a0740555e5b3f3e55f5bf",
);
const DCTR_HEX: &str = concat!(
    "4443545203000000010000000000000000000000000000000900000000000000",
    "01000000000000000d0000000000000073657276652e696e6765737473070000",
    "0000000000010000000000000001000000000000007301500000000000000044",
    "4354530201000000000000000000000f00000000000000040000000000000000",
    "000000000018400000000000001840000000000000184003dd585d60280c40e3",
    "0b950d8750f53fdb64de73ac9710c08f486c7cf3261b04",
);
const DCTW_HEX: &str = concat!(
    "4443545701000000010000000000000072d923d04a0000004567edd504010000",
    "007340000000444354530201000000000000000000000f000000000000000200",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000003373c5d512000000084054db0101000000730100000003000000",
    "0000000029e9fb1d12000000084054db02010000007301000000040000000000",
    "0000523db8fd1a000000e768e01e030100000073000000000000044001000000",
    "0500000000000000596787dc06000000c0802f0405010000007326396315",
);
const DCTF_HEX: &str = concat!(
    "444354460102000000000000000100000000000000130073686172642d30302f",
    "7072696d6172792d6531140073686172642d30302f666f6c6c6f7765722d6531",
    "010000000200000000000000130073686172642d30312f7072696d6172792d65",
    "31140073686172642d30312f666f6c6c6f7765722d6531c2d5fc11",
);
const DCTT_HEX: &str = concat!(
    "444354540100000028000000cd58c24401000000000000000001000000740100",
    "0000730100000000000000000f0000000000000004000000a2015f3e3f000000",
    "eb370c8902280000000000000001000000740100000073020000000100000003",
    "00000000000000000000000000f03f0100000009000000000000000000000000",
    "00e0bf0e458ceb1c0000003b378b3b0332000000000000000100000074010000",
    "00730100000073020000001e1d98650900000096904c5c000300000000000000",
    "4d138668",
);
const DCTM_HEX: &str = concat!(
    "4443544d0100000001000000000000000800000000000000612e6576656e7473",
    "010000000000000004000000000000006b696e640600000000000000636f7369",
    "6e65070000000000000001000000000000000700000000000000622e6c657665",
    "6c0000000000000000000000000000f4bf010000000000000009000000000000",
    "00632e6c6174656e637900000000000000000100000000000000840300000000",
    "0000150000000000000001000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "00000000000000000000000000000000000096ab9370",
);

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn synopsis() -> CosineSynopsis {
    let mut s = CosineSynopsis::new(Domain::new(0, 15), Grid::Midpoint, 4).unwrap();
    for v in [1i64, 3, 3, 14] {
        s.insert(v).unwrap();
    }
    s
}

fn dcts() -> Vec<u8> {
    synopsis().to_bytes().to_vec()
}

fn dctr() -> Vec<u8> {
    let mut p = StreamProcessor::new();
    p.register("s", Summary::Cosine(synopsis())).unwrap();
    p.process_weighted("s", &[5], 2.0).unwrap();
    let metrics = BTreeMap::from([("serve.ingests".to_string(), 7u64)]);
    p.checkpoint_bytes_with_meta(9, &metrics).unwrap().to_vec()
}

fn wal_opts() -> WalOptions {
    WalOptions {
        sync: SyncPolicy::Manual,
        retry: RetryPolicy::none(),
        ..WalOptions::default()
    }
}

/// One segment holding one record of every kind, as `(name, bytes)`.
fn dctw() -> (String, Vec<u8>) {
    let storage = MemStorage::new();
    let (mut wal, _) = Wal::open(storage.clone(), wal_opts(), 0).unwrap();
    let empty = CosineSynopsis::new(Domain::new(0, 15), Grid::Midpoint, 2).unwrap();
    for rec in [
        WalRecord::register("s", empty.to_bytes()),
        WalRecord::event("s", StreamEvent::Insert(Tuple::unary(3))),
        WalRecord::event("s", StreamEvent::Delete(Tuple::unary(4))),
        WalRecord::weighted("s", &[5], 2.5),
        WalRecord::drop_stream("s"),
    ] {
        wal.append(&rec).unwrap();
    }
    wal.sync().unwrap();
    let mut files = storage.snapshot();
    assert_eq!(files.len(), 1, "the fixture fits one segment");
    files.pop_first().unwrap()
}

fn manifest() -> FleetManifest {
    FleetManifest {
        shards: (0..2u32)
            .map(|id| ShardMeta {
                id,
                epoch: 1 + id as u64,
                primary_dir: format!("shard-{id:02}/primary-e1"),
                follower_dir: format!("shard-{id:02}/follower-e1"),
            })
            .collect(),
    }
}

fn dctf() -> Vec<u8> {
    manifest().to_bytes()
}

fn trace() -> Vec<TraceRecord> {
    vec![
        TraceRecord {
            at_us: 0,
            tenant: "t".into(),
            op: TraceOp::Register {
                stream: "s".into(),
                kind: RegisterKind::Cosine {
                    lo: 0,
                    hi: 15,
                    m: 4,
                },
            },
        },
        TraceRecord {
            at_us: 40,
            tenant: "t".into(),
            op: TraceOp::Ingest {
                stream: "s".into(),
                rows: vec![(vec![3], 1.0), (vec![9], -0.5)],
            },
        },
        TraceRecord {
            at_us: 90,
            tenant: "t".into(),
            op: TraceOp::Estimate {
                left: "s".into(),
                right: "s".into(),
                budget: Some(2),
            },
        },
    ]
}

fn dctt() -> Vec<u8> {
    encode_trace(&trace()).unwrap()
}

fn dctm() -> Vec<u8> {
    let r = MetricsRegistry::new();
    r.counter_with("a.events", &[("kind", "cosine")]).add(7);
    r.gauge("b.level").set(-1.25);
    r.histogram("c.latency").record(900);
    r.snapshot().to_bytes()
}

#[test]
fn all_six_formats_encode_to_their_pinned_bytes() {
    let pins = [
        ("DCTS", dcts(), DCTS_HEX),
        ("DCTR", dctr(), DCTR_HEX),
        ("DCTW", dctw().1, DCTW_HEX),
        ("DCTF", dctf(), DCTF_HEX),
        ("DCTT", dctt(), DCTT_HEX),
        ("DCTM", dctm(), DCTM_HEX),
    ];
    for (format, bytes, pinned) in pins {
        assert_eq!(&bytes[..4], format.as_bytes(), "{format} magic");
        assert_eq!(hex(&bytes), pinned, "{format} bytes moved");
    }
}

/// Every single-byte flip and every truncation of `bytes`, handed to
/// `check` as `(what, damaged)`.
fn sweep(bytes: &[u8], mut check: impl FnMut(&str, &[u8])) {
    for i in 0..bytes.len() {
        let mut bad = bytes.to_vec();
        bad[i] ^= 0x01;
        check(&format!("flip at byte {i}"), &bad);
    }
    for n in 0..bytes.len() {
        check(&format!("truncation to {n} bytes"), &bytes[..n]);
    }
}

#[test]
fn every_flip_and_truncation_of_a_sealed_format_is_a_typed_error() {
    sweep(&dctr(), |what, bad| {
        assert!(
            StreamProcessor::restore_bytes_with_meta(bad).is_err(),
            "DCTR restore accepted a {what}"
        );
        let (_, violations) = verify_checkpoint_bytes(bad);
        assert!(!violations.is_empty(), "DCTR verify passed a {what}");
    });
    sweep(&dctf(), |what, bad| {
        assert!(
            FleetManifest::from_bytes(bad).is_err(),
            "DCTF accepted a {what}"
        );
    });
    sweep(&dctt(), |what, bad| {
        assert!(decode_trace(bad).is_err(), "DCTT accepted a {what}");
    });
    sweep(&dctm(), |what, bad| {
        assert!(
            MetricsSnapshot::from_bytes(bad).is_err(),
            "DCTM accepted a {what}"
        );
    });
}

#[test]
fn a_damaged_summary_payload_never_panics_and_a_short_one_errs() {
    let full = dcts();
    sweep(&full, |what, bad| {
        let decoded = CosineSynopsis::from_bytes(Bytes::from(bad));
        if bad.len() < full.len() {
            assert!(decoded.is_err(), "DCTS accepted a {what}");
        }
    });
}

#[test]
fn a_damaged_wal_segment_errs_and_a_short_one_is_a_torn_tail() {
    let (name, full) = dctw();
    let intact = {
        let storage = MemStorage::new();
        storage.restore(BTreeMap::from([(name.clone(), full.clone())]));
        scan_records(&storage, &wal_opts(), 0).unwrap().records
    };
    assert_eq!(intact.len(), 5);
    // Frame boundaries: after the header and after each whole frame.
    let mut boundaries = vec![20usize];
    for (_, rec) in &intact {
        let last = *boundaries.last().unwrap();
        boundaries.push(last + 12 + rec.encode().len());
    }
    assert_eq!(*boundaries.last().unwrap(), full.len());

    sweep(&full, |what, bad| {
        let storage = MemStorage::new();
        storage.restore(BTreeMap::from([(name.clone(), bad.to_vec())]));
        let scan = scan_records(&storage, &wal_opts(), 0);
        if bad.len() == full.len() {
            assert!(scan.is_err(), "DCTW accepted a {what}");
            return;
        }
        let scan = scan.unwrap_or_else(|e| panic!("DCTW {what}: not a torn tail: {e}"));
        assert_eq!(
            scan.records[..],
            intact[..scan.records.len()],
            "DCTW {what}: the kept records are not a prefix"
        );
        match scan.torn_tail {
            Some(torn) => {
                assert_eq!(torn.offset + torn.dropped, bad.len() as u64, "{what}");
                let cut = if bad.len() < 20 {
                    0
                } else {
                    boundaries[scan.records.len()]
                };
                assert_eq!(
                    torn.offset, cut as u64,
                    "DCTW {what}: cut at the wrong byte"
                );
            }
            None => assert!(
                boundaries.contains(&bad.len()),
                "DCTW {what}: a mid-frame cut reported no torn tail"
            ),
        }
    });
}
