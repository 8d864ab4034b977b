//! Fleet fault-injection harness: kill a shard mid-ingest and mid-ship
//! (sweeping ship-round boundaries), answer every query through
//! follower substitution with correct staleness attribution, and verify
//! promotion reproduces the surviving acked prefix bit-identically —
//! plus the retention-pin regression (checkpoint during slow shipping
//! must never strand the follower) and a torn shipped segment.

use dctstream_core::{CosineSynopsis, Domain, Grid};
use dctstream_stream::{
    FleetOptions, RecoveryOptions, RegistrySnapshot, ShardStaleness, ShardedRegistry, ShipOptions,
    StreamProcessor, Summary, WalOptions,
};
use proptest::collection::vec;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "dctfleet_{name}_{}_{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::SeqCst)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn cosine() -> Summary {
    Summary::Cosine(CosineSynopsis::new(Domain::of_size(64), Grid::Midpoint, 16).unwrap())
}

/// Tiny segments and a tiny shipping budget so a handful of rows spans
/// many segments and many ship rounds — every round boundary is a place
/// a crash can land.
fn small_opts() -> FleetOptions {
    FleetOptions {
        recovery: RecoveryOptions {
            wal: WalOptions {
                segment_max_bytes: 512,
                ..WalOptions::default()
            },
            flush_threshold: None,
        },
        ship: ShipOptions {
            max_bytes_per_round: 96,
            ..ShipOptions::default()
        },
    }
}

fn rows(n: i64, stride: i64, w: f64) -> Vec<(Vec<i64>, f64)> {
    (0..n).map(|v| (vec![(v * stride) % 64], w)).collect()
}

/// `l ⋈ r` on a fresh merged capture, with its dead-shard staleness.
fn estimate(fleet: &ShardedRegistry) -> (f64, Vec<ShardStaleness>) {
    let (snap, dead) = fleet.capture_merged_at(1).unwrap();
    (snap.estimate_cosine_join("l", "r", None).unwrap(), dead)
}

/// `l ⋈ r` on a capture of a single registry.
fn single_estimate(p: &mut StreamProcessor) -> f64 {
    RegistrySnapshot::capture(p, 1)
        .unwrap()
        .estimate_cosine_join("l", "r", None)
        .unwrap()
}

fn drain_ship(fleet: &ShardedRegistry) {
    for i in 0.. {
        assert!(i < 100_000, "shipping failed to drain");
        let reports = fleet.ship_and_replay().unwrap();
        if reports
            .iter()
            .all(|r| !r.budget_exhausted && r.bytes_shipped == 0)
        {
            return;
        }
    }
}

/// The reduced sweep: for every shard and several counts of completed
/// ship rounds (0 = nothing shipped, through well past segment
/// boundaries), kill the shard, query through the follower, promote,
/// and require the post-promotion fleet to answer bit-identically to
/// the pre-kill fleet — every acked record survived, none doubled.
#[test]
fn kill_each_shard_at_ship_round_boundaries() {
    for shard in 0..4usize {
        for ship_rounds in [0usize, 1, 3, 8] {
            let dir = tmp("sweep");
            let fleet = ShardedRegistry::create(&dir, 4, small_opts()).unwrap();
            fleet.register("l", cosine()).unwrap();
            fleet.register("r", cosine()).unwrap();
            fleet.ingest("l", &rows(300, 1, 1.0)).unwrap();
            fleet.ingest("r", &rows(300, 7, 2.0)).unwrap();
            let (before, dead) = estimate(&fleet);
            assert!(dead.is_empty());

            for _ in 0..ship_rounds {
                fleet.ship_and_replay().unwrap();
            }
            let acked = fleet.kill(shard).unwrap();

            // Every query keeps answering, attributed to the right shard.
            let (degraded, dead) = estimate(&fleet);
            assert_eq!(dead.len(), 1, "shard {shard} x{ship_rounds}");
            assert_eq!(dead[0].shard, shard);
            assert!(degraded.is_finite());
            let status = &fleet.status()[shard];
            assert!(!status.alive);
            assert_eq!(status.records_behind, dead[0].records_behind);

            // Promotion replays the shipped tail and must preserve every
            // acked record.
            let report = fleet.promote(shard).unwrap();
            assert!(
                report.watermark >= acked.seq,
                "shard {shard} x{ship_rounds}: promoted to {} but {} was acked",
                report.watermark,
                acked.seq
            );
            let (after, dead) = estimate(&fleet);
            assert!(dead.is_empty());
            assert_eq!(
                before.to_bits(),
                after.to_bits(),
                "shard {shard} x{ship_rounds}: {before} vs {after}"
            );
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}

/// Kill mid-ingest: records written after the last sync are unacked and
/// may die with the primary. The promoted fleet must answer exactly as
/// the degraded (fully drained follower) view did — the surviving
/// prefix, no invented or doubled records — and must cover everything
/// acked.
#[test]
fn kill_mid_ingest_promotion_matches_surviving_prefix() {
    let dir = tmp("midingest");
    let fleet = ShardedRegistry::create(&dir, 4, small_opts()).unwrap();
    fleet.register("l", cosine()).unwrap();
    fleet.register("r", cosine()).unwrap();
    fleet.ingest("l", &rows(200, 1, 1.0)).unwrap();
    fleet.ingest("r", &rows(200, 5, 1.0)).unwrap();

    // Unsynced tail: routed single updates with no publish — whichever
    // shard they land on may lose them on kill.
    for v in 0..40 {
        let _ = fleet.process_weighted("l", &[v % 64], 1.0);
    }
    let acked = fleet.kill(2).unwrap();

    // Drain the dead shard's durable bytes into its follower: that IS
    // the surviving prefix.
    drain_ship(&fleet);
    let (degraded, dead) = estimate(&fleet);
    assert_eq!(dead.len(), 1);
    assert_eq!(dead[0].shard, 2);

    let report = fleet.promote(2).unwrap();
    assert!(report.watermark >= acked.seq, "acked records lost");
    let (after, dead) = estimate(&fleet);
    assert!(dead.is_empty());
    assert_eq!(
        degraded.to_bits(),
        after.to_bits(),
        "promotion must reproduce the drained follower state exactly: {degraded} vs {after}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A torn frame at the tail of the dead primary's newest WAL segment
/// (power loss mid-write) must be truncated by both the follower replay
/// and the promotion recovery — never doubled, never fatal.
#[test]
fn torn_primary_tail_is_truncated_not_fatal() {
    let dir = tmp("torn");
    let fleet = ShardedRegistry::create(&dir, 4, small_opts()).unwrap();
    fleet.register("l", cosine()).unwrap();
    fleet.register("r", cosine()).unwrap();
    fleet.ingest("l", &rows(250, 1, 1.0)).unwrap();
    fleet.ingest("r", &rows(250, 3, 1.0)).unwrap();
    let (before, _) = estimate(&fleet);
    let acked = fleet.kill(1).unwrap();

    // Simulate the torn write: garbage half-frame appended to the dead
    // primary's newest segment.
    let primary_dir = dir.join("shard-01/primary-e1");
    let mut segments: Vec<PathBuf> = std::fs::read_dir(&primary_dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("wal-"))
        })
        .collect();
    segments.sort();
    let newest = segments.last().expect("the shard logged segments");
    let mut bytes = std::fs::read(newest).unwrap();
    bytes.extend_from_slice(&[0xAB; 7]);
    std::fs::write(newest, &bytes).unwrap();

    let report = fleet.promote(1).unwrap();
    assert!(report.watermark >= acked.seq);
    let (after, dead) = estimate(&fleet);
    assert!(dead.is_empty());
    assert_eq!(
        before.to_bits(),
        after.to_bits(),
        "torn garbage must not change the answer: {before} vs {after}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The retention regression: a checkpoint taken while shipping is slow
/// must not retire WAL segments the follower has not replayed. Before
/// retention pins, this scenario stranded the follower with a "records
/// missing" gap; with pins, shipping drains to parity afterwards.
#[test]
fn checkpoint_during_slow_shipping_does_not_strand_followers() {
    let dir = tmp("retention");
    let fleet = ShardedRegistry::create(&dir, 2, small_opts()).unwrap();
    fleet.register("s", cosine()).unwrap();
    fleet.ingest("s", &rows(400, 1, 1.0)).unwrap();

    // One tiny round: followers are now pinned far behind the primary.
    fleet.ship_and_replay().unwrap();
    let behind_before: u64 = fleet.status().iter().map(|s| s.records_behind).sum();
    assert!(behind_before > 0, "shipping budget too large for the test");

    // Checkpoint while the followers lag. Retention pins must keep every
    // unreplayed segment alive even though the manifest would otherwise
    // retire them.
    fleet.checkpoint_all().unwrap();
    fleet.ingest("s", &rows(100, 11, 1.0)).unwrap();

    drain_ship(&fleet);
    for s in fleet.status() {
        assert_eq!(
            s.records_behind, 0,
            "follower stranded after checkpoint: {s:?}"
        );
        assert_eq!(s.published_seq, s.follower_applied_seq);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Concurrent ingest, continuous estimates, and a mid-flight shard kill:
/// readers must always get an answer (degraded or not) and never a
/// panic or a silently wrong merge (checked against a single registry
/// after promotion).
#[test]
fn queries_survive_a_mid_flight_shard_kill() {
    let dir = tmp("race");
    let fleet = Arc::new(ShardedRegistry::create(&dir, 4, FleetOptions::default()).unwrap());
    fleet.register("l", cosine()).unwrap();
    fleet.register("r", cosine()).unwrap();
    fleet.ingest("l", &rows(200, 1, 1.0)).unwrap();
    fleet.ingest("r", &rows(200, 7, 1.0)).unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    let write_stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let (fleet, write_stop) = (Arc::clone(&fleet), Arc::clone(&write_stop));
        std::thread::spawn(move || {
            let mut applied = Vec::new();
            for batch in 0.. {
                if write_stop.load(Ordering::SeqCst) {
                    break;
                }
                let rows = rows(20, 3 + batch, 1.0);
                match fleet.ingest("l", &rows) {
                    Ok(_) => applied.extend(rows),
                    Err(_) => break, // a routed-to shard died: stop writing
                }
            }
            applied
        })
    };
    let reader = {
        let (fleet, stop) = (Arc::clone(&fleet), Arc::clone(&stop));
        std::thread::spawn(move || {
            let mut answers = 0u64;
            while !stop.load(Ordering::SeqCst) {
                let (snap, _) = fleet
                    .capture_merged_at(1)
                    .expect("queries must keep answering");
                let est = snap
                    .estimate_cosine_join("l", "r", None)
                    .expect("queries must keep answering");
                assert!(est.is_finite());
                answers += 1;
            }
            answers
        })
    };
    // Let the race run, then park the writer BEFORE the kill: `ingest`
    // applies each shard's partition independently, so a batch that
    // dies on one shard still lands rows on the others — rows the
    // writer's ledger (whole batches only) could never account for.
    // The reader keeps racing straight through the kill.
    std::thread::sleep(std::time::Duration::from_millis(30));
    write_stop.store(true, Ordering::SeqCst);
    let applied = writer.join().expect("writer panicked");
    fleet.kill(3).unwrap();
    std::thread::sleep(std::time::Duration::from_millis(30));
    stop.store(true, Ordering::SeqCst);
    let answers = reader.join().expect("reader panicked");
    assert!(answers > 0, "reader made no progress");

    // Promote and cross-check the merged answer against one registry
    // fed the exact surviving row set.
    drain_ship(&fleet);
    fleet.promote(3).unwrap();
    let (after, dead) = estimate(&fleet);
    assert!(dead.is_empty());
    let mut single = StreamProcessor::new();
    single.register("l", cosine()).unwrap();
    single.register("r", cosine()).unwrap();
    for (t, w) in rows(200, 1, 1.0).iter().chain(applied.iter()) {
        single.process_weighted("l", t, *w).unwrap();
    }
    for (t, w) in rows(200, 7, 1.0) {
        single.process_weighted("r", &t, w).unwrap();
    }
    let reference = single_estimate(&mut single);
    let rel = (after - reference).abs() / reference.abs().max(1e-12);
    assert!(rel <= 1e-9, "fleet {after} vs single-registry {reference}");
    std::fs::remove_dir_all(&dir).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The coordinator's merge is the single registry: one shard
    /// bit-identical, N shards within f64 reassociation (≤1e-9
    /// relative), for arbitrary row sets and shard counts.
    #[test]
    fn merged_fleet_answer_matches_single_registry(
        left in vec((0i64..64, 1u8..4), 1..120),
        right in vec((0i64..64, 1u8..4), 1..120),
        shards in 1usize..5,
    ) {
        let dir = tmp("prop");
        let fleet = ShardedRegistry::create(&dir, shards, FleetOptions::default()).unwrap();
        fleet.register("l", cosine()).unwrap();
        fleet.register("r", cosine()).unwrap();
        let lrows: Vec<(Vec<i64>, f64)> =
            left.iter().map(|&(v, w)| (vec![v], w as f64)).collect();
        let rrows: Vec<(Vec<i64>, f64)> =
            right.iter().map(|&(v, w)| (vec![v], w as f64)).collect();
        fleet.ingest("l", &lrows).unwrap();
        fleet.ingest("r", &rrows).unwrap();
        let (est, dead) = estimate(&fleet);
        prop_assert!(dead.is_empty());

        let mut single = StreamProcessor::new();
        single.register("l", cosine()).unwrap();
        single.register("r", cosine()).unwrap();
        for (t, w) in &lrows {
            single.process_weighted("l", t, *w).unwrap();
        }
        for (t, w) in &rrows {
            single.process_weighted("r", t, *w).unwrap();
        }
        let reference = single_estimate(&mut single);
        if shards == 1 {
            prop_assert_eq!(
                est.to_bits(), reference.to_bits(),
                "one-shard fleet must be bit-identical: {} vs {}", est, reference
            );
        } else {
            let rel = (est - reference).abs() / reference.abs().max(1e-12);
            prop_assert!(rel <= 1e-9, "fleet {} vs single {}", est, reference);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
