//! Group-commit concurrency and crash tests (ISSUE 6).
//!
//! `SyncPolicy::Group` must deliver `Always`-grade acknowledgements —
//! no record is acknowledged before the fsync covering it returns —
//! while amortizing one fsync over every record queued behind the
//! leader. Three legs:
//!
//! - N writer threads through one [`GroupWal`]: every acknowledged
//!   sequence number is on storage afterwards, and the fsync count
//!   (observed via the `obs` `wal.fsyncs` counter) is a fraction of the
//!   record count.
//! - The same through [`GroupDurable`], checking the recovered registry
//!   absorbs every acknowledged update.
//! - A kill sweep at every fsync boundary with a storage that *drops
//!   unsynced bytes* at the kill (a power cut loses the page cache):
//!   an acknowledged record must never be among the dropped bytes.

use dctstream_core::{CosineSynopsis, Domain, Grid};
use dctstream_stream::{
    DurableProcessor, GroupDurable, GroupWal, MemStorage, RecoveryOptions, RetryPolicy, Summary,
    SyncPolicy, Wal, WalOptions, WalRecord, WalStorage,
};
use std::collections::BTreeMap;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread;
use std::time::Duration;

/// The `obs` metrics registry is process-global; tests that measure
/// counter deltas serialize on this lock so concurrent legs don't bleed
/// into each other's windows.
static OBS_SERIAL: Mutex<()> = Mutex::new(());

fn obs_window() -> MutexGuard<'static, ()> {
    OBS_SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn counter(name: &str) -> u64 {
    dctstream_obs::global().counter(name).get()
}

fn wal_opts() -> WalOptions {
    WalOptions {
        sync: SyncPolicy::Group,
        // Small segments so the sweep crosses rotations under concurrency.
        segment_max_bytes: 4096,
        retry: RetryPolicy::none(),
    }
}

fn summary() -> Summary {
    Summary::Cosine(CosineSynopsis::new(Domain::of_size(64), Grid::Midpoint, 8).unwrap())
}

// ---------------------------------------------------------------------------
// SlowSync: a WalStorage whose fsync takes real time, so concurrent
// writers actually pile up behind a leader (on a 1-core runner an
// instant fsync would make every group a group of one).
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct SlowSync {
    inner: MemStorage,
    syncs: Arc<AtomicU64>,
}

impl SlowSync {
    fn new(inner: MemStorage) -> Self {
        SlowSync {
            inner,
            syncs: Arc::new(AtomicU64::new(0)),
        }
    }
}

impl WalStorage for SlowSync {
    fn append(&mut self, name: &str, data: &[u8]) -> io::Result<()> {
        self.inner.append(name, data)
    }

    fn sync(&mut self, name: &str) -> io::Result<()> {
        self.syncs.fetch_add(1, Ordering::Relaxed);
        thread::sleep(Duration::from_micros(300));
        self.inner.sync(name)
    }

    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        self.inner.read(name)
    }

    fn list(&self) -> io::Result<Vec<String>> {
        self.inner.list()
    }

    fn remove(&mut self, name: &str) -> io::Result<()> {
        self.inner.remove(name)
    }

    fn truncate(&mut self, name: &str, len: u64) -> io::Result<()> {
        self.inner.truncate(name, len)
    }

    fn write_atomic(&mut self, name: &str, data: &[u8]) -> io::Result<()> {
        self.inner.write_atomic(name, data)
    }
}

const WRITERS: usize = 8;
const PER_WRITER: usize = 64;

#[test]
fn concurrent_group_wal_acks_survive_and_share_fsyncs() {
    let _w = obs_window();
    dctstream_obs::set_enabled(true);
    let fsyncs_before = counter("wal.fsyncs");

    let mem = MemStorage::new();
    let (gw, _) = GroupWal::open(SlowSync::new(mem.clone()), wal_opts(), 0).unwrap();

    let mut handles = Vec::new();
    for t in 0..WRITERS {
        let gw = gw.clone();
        handles.push(thread::spawn(move || {
            let mut acked = Vec::new();
            for i in 0..PER_WRITER {
                let v = (t * PER_WRITER + i) as i64;
                let seq = gw.append(&WalRecord::weighted("s", &[v], 1.0)).unwrap();
                acked.push(seq);
            }
            acked
        }));
    }
    let mut acked: Vec<u64> = handles
        .into_iter()
        .flat_map(|h| h.join().unwrap())
        .collect();
    acked.sort_unstable();

    let total = (WRITERS * PER_WRITER) as u64;
    let expect: Vec<u64> = (1..=total).collect();
    assert_eq!(acked, expect, "each append gets a distinct sequence");
    assert_eq!(gw.durable_watermark(), total, "every ack is durable");

    let fsyncs = counter("wal.fsyncs") - fsyncs_before;
    dctstream_obs::set_enabled(false);
    assert!(fsyncs >= 1);
    assert!(
        fsyncs * 2 < total,
        "group commit must amortize fsyncs: {fsyncs} fsyncs for {total} records"
    );

    // Every acknowledged sequence number is on storage.
    let (_, outcome) = Wal::open(mem, wal_opts(), 0).unwrap();
    let replayed: Vec<u64> = outcome.records.iter().map(|(seq, _)| *seq).collect();
    for seq in &acked {
        assert!(replayed.contains(seq), "acked seq {seq} missing on storage");
    }
}

#[test]
fn concurrent_group_durable_recovers_every_acked_update() {
    let _w = obs_window();
    dctstream_obs::set_enabled(true);
    let fsyncs_before = counter("wal.fsyncs");

    let mem = MemStorage::new();
    let opts = RecoveryOptions {
        wal: wal_opts(),
        flush_threshold: None,
    };
    let (gd, _) = GroupDurable::open_with(SlowSync::new(mem.clone()), opts.clone()).unwrap();
    gd.register("left", summary()).unwrap();
    gd.register("right", summary()).unwrap();

    let mut handles = Vec::new();
    for t in 0..WRITERS {
        let gd = gd.clone();
        handles.push(thread::spawn(move || {
            let stream = if t % 2 == 0 { "left" } else { "right" };
            let mut acked = Vec::new();
            for i in 0..PER_WRITER {
                let v = ((t * PER_WRITER + i) % 64) as i64;
                acked.push(gd.process_weighted(stream, &[v], 1.0).unwrap());
            }
            acked
        }));
    }
    let acked: Vec<u64> = handles
        .into_iter()
        .flat_map(|h| h.join().unwrap())
        .collect();

    let total = (WRITERS * PER_WRITER) as u64;
    assert_eq!(acked.len() as u64, total);
    assert_eq!(gd.events_processed(), total);
    assert_eq!(
        gd.durable_watermark(),
        gd.wal_watermark(),
        "after every caller returned, nothing may remain unsynced"
    );

    let fsyncs = counter("wal.fsyncs") - fsyncs_before;
    dctstream_obs::set_enabled(false);
    assert!(
        fsyncs * 2 < total,
        "group commit must amortize fsyncs: {fsyncs} fsyncs for {total} records"
    );

    // A fresh recovery absorbs every acknowledged update.
    let (dp, report) = DurableProcessor::open_with(mem, opts).unwrap();
    assert!(report.quarantined.is_empty());
    assert_eq!(dp.events_processed(), total);
    assert_eq!(dp.processor().streams().count(), 2);
}

// ---------------------------------------------------------------------------
// KillAtSync: a WalStorage that models a power cut at a chosen fsync
// boundary — the chosen sync call fails, the store goes dead, and every
// byte written since the last successful sync of each file is DROPPED
// (the page cache is gone). An acknowledged record must never be among
// the dropped bytes: that is the ack-after-fsync invariant.
// ---------------------------------------------------------------------------

#[derive(Debug, Default)]
struct KillState {
    /// Successful syncs remaining before the kill fires.
    remaining: u64,
    dead: bool,
    /// Per-file contents as of each file's last successful sync (or
    /// atomic write). What survives the power cut.
    synced: BTreeMap<String, Vec<u8>>,
}

#[derive(Debug, Clone)]
struct KillAtSync {
    inner: MemStorage,
    state: Arc<Mutex<KillState>>,
}

impl KillAtSync {
    fn new(inner: MemStorage, kill_after_syncs: u64) -> Self {
        KillAtSync {
            inner,
            state: Arc::new(Mutex::new(KillState {
                remaining: kill_after_syncs,
                dead: false,
                synced: BTreeMap::new(),
            })),
        }
    }

    fn dead() -> io::Error {
        io::Error::other("injected power cut")
    }

    /// The power cut: rewrite the backing store to the last-synced
    /// contents of every file, dropping everything newer.
    fn drop_unsynced(inner: &mut MemStorage, st: &KillState) {
        for name in inner.list().unwrap() {
            match st.synced.get(&name) {
                Some(bytes) => inner.write_atomic(&name, bytes).unwrap(),
                None => inner.remove(&name).unwrap(),
            }
        }
    }
}

/// Split the struct's borrows so the state guard and the inner store
/// can be used together.
fn parts(s: &mut KillAtSync) -> (&mut MemStorage, MutexGuard<'_, KillState>) {
    let guard = s.state.lock().unwrap_or_else(|e| e.into_inner());
    (&mut s.inner, guard)
}

impl WalStorage for KillAtSync {
    fn append(&mut self, name: &str, data: &[u8]) -> io::Result<()> {
        let (inner, st) = parts(self);
        if st.dead {
            return Err(Self::dead());
        }
        inner.append(name, data)
    }

    fn sync(&mut self, name: &str) -> io::Result<()> {
        let (inner, mut st) = parts(self);
        if st.dead {
            return Err(Self::dead());
        }
        if st.remaining == 0 {
            st.dead = true;
            Self::drop_unsynced(inner, &st);
            return Err(Self::dead());
        }
        st.remaining -= 1;
        let bytes = inner.read(name).unwrap_or_default();
        st.synced.insert(name.to_string(), bytes);
        inner.sync(name)
    }

    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        self.inner.read(name)
    }

    fn list(&self) -> io::Result<Vec<String>> {
        self.inner.list()
    }

    fn remove(&mut self, name: &str) -> io::Result<()> {
        let (inner, mut st) = parts(self);
        if st.dead {
            return Err(Self::dead());
        }
        st.synced.remove(name);
        inner.remove(name)
    }

    fn truncate(&mut self, name: &str, len: u64) -> io::Result<()> {
        let (inner, mut st) = parts(self);
        if st.dead {
            return Err(Self::dead());
        }
        inner.truncate(name, len)?;
        let cut = inner.read(name)?;
        st.synced.insert(name.to_string(), cut);
        Ok(())
    }

    fn write_atomic(&mut self, name: &str, data: &[u8]) -> io::Result<()> {
        let (inner, mut st) = parts(self);
        if st.dead {
            return Err(Self::dead());
        }
        st.synced.insert(name.to_string(), data.to_vec());
        inner.write_atomic(name, data)
    }
}

/// Run a fixed concurrent workload through `GroupDurable` over a store
/// that kills at the `kill_after`-th fsync, each thread stopping at its
/// first error. Returns `(acked update seqs, register acked)`.
fn run_killed(mem: MemStorage, kill_after: u64) -> (Vec<u64>, bool) {
    const THREADS: usize = 4;
    const RECORDS: usize = 12;
    let opts = RecoveryOptions {
        wal: wal_opts(),
        flush_threshold: None,
    };
    let storage = KillAtSync::new(mem, kill_after);
    let Ok((gd, _)) = GroupDurable::open_with(storage, opts) else {
        return (Vec::new(), false);
    };
    if gd.register("s", summary()).is_err() {
        return (Vec::new(), false);
    }
    let mut handles = Vec::new();
    for t in 0..THREADS {
        let gd = gd.clone();
        handles.push(thread::spawn(move || {
            let mut acked = Vec::new();
            for i in 0..RECORDS {
                let v = ((t * RECORDS + i) % 64) as i64;
                match gd.process_weighted("s", &[v], 1.0) {
                    Ok(seq) => acked.push(seq),
                    Err(_) => break,
                }
            }
            acked
        }));
    }
    let acked = handles
        .into_iter()
        .flat_map(|h| h.join().unwrap())
        .collect();
    (acked, true)
}

#[test]
fn kill_at_every_fsync_boundary_never_loses_an_acked_record() {
    // Its fsyncs bump the global `wal.fsyncs` counter; hold the window
    // so they cannot land inside a concurrent leg's measured delta.
    let _w = obs_window();
    // Size the sweep: a clean run's fsync count (scheduling-dependent,
    // so treat it as an upper bound; later kill points simply never
    // fire, which still exercises the clean path).
    let clean = MemStorage::new();
    let probe = KillAtSync::new(clean, u64::MAX);
    let probe_state = probe.state.clone();
    {
        let opts = RecoveryOptions {
            wal: wal_opts(),
            flush_threshold: None,
        };
        let (gd, _) = GroupDurable::open_with(probe, opts).unwrap();
        gd.register("s", summary()).unwrap();
        for i in 0..48 {
            gd.process_weighted("s", &[i % 64], 1.0).unwrap();
        }
    }
    let total_syncs = u64::MAX
        - probe_state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remaining;
    assert!(total_syncs > 0);

    for kill_after in 0..=total_syncs {
        let mem = MemStorage::new();
        let (acked, registered) = run_killed(mem.clone(), kill_after);

        // The "disk" now holds only fsync-covered bytes. Recover.
        let opts = RecoveryOptions {
            wal: wal_opts(),
            flush_threshold: None,
        };
        let (dp, report) = DurableProcessor::open_with(mem, opts).unwrap_or_else(|e| {
            panic!("kill at fsync {kill_after}: recovery must not fail, got {e}")
        });
        assert!(
            report.quarantined.is_empty(),
            "kill at fsync {kill_after}: a power cut must not quarantine streams"
        );
        if registered && !acked.is_empty() {
            assert!(
                dp.processor().summary("s").is_some(),
                "kill at fsync {kill_after}: acked registration lost"
            );
        }
        let max_acked = acked.iter().copied().max().unwrap_or(0);
        assert!(
            dp.wal_watermark() >= max_acked,
            "kill at fsync {kill_after}: acked seq {max_acked} lost \
             (recovered watermark {})",
            dp.wal_watermark()
        );
        assert!(
            dp.events_processed() >= acked.len() as u64,
            "kill at fsync {kill_after}: {} updates acked, only {} recovered",
            acked.len(),
            dp.events_processed()
        );
    }
}

/// Through a single handle (no concurrency) the group front end must be
/// observationally identical to `SyncPolicy::Always`: same acked
/// records, same recovered state.
#[test]
fn single_threaded_group_commit_matches_always() {
    let _w = obs_window();
    let mem_group = MemStorage::new();
    let mem_always = MemStorage::new();
    let group_opts = RecoveryOptions {
        wal: wal_opts(),
        flush_threshold: None,
    };
    let always_opts = RecoveryOptions {
        wal: WalOptions {
            sync: SyncPolicy::Always,
            ..wal_opts()
        },
        flush_threshold: None,
    };

    let (gd, _) = GroupDurable::open_with(mem_group.clone(), group_opts.clone()).unwrap();
    let (mut dp, _) = DurableProcessor::open_with(mem_always.clone(), always_opts.clone()).unwrap();
    gd.register("s", summary()).unwrap();
    dp.register("s", summary()).unwrap();
    for i in 0..40i64 {
        let w = if i % 3 == 0 { -1.0 } else { 2.0 };
        gd.process_weighted("s", &[i % 64], w).unwrap();
        dp.process_weighted("s", &[i % 64], w).unwrap();
    }
    drop(gd);
    drop(dp);

    let (mut a, _) = DurableProcessor::open_with(mem_group, group_opts).unwrap();
    let (mut b, _) = DurableProcessor::open_with(mem_always, always_opts).unwrap();
    assert_eq!(a.wal_watermark(), b.wal_watermark());
    assert_eq!(
        a.processor_mut().checkpoint_bytes().unwrap(),
        b.processor_mut().checkpoint_bytes().unwrap(),
        "group-commit recovery diverges from Always"
    );
}
