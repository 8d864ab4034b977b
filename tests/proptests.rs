//! Property-based tests (proptest) over the workspace's core invariants.

use dctstream::stream::DenseFreq;
use dctstream::{
    estimate_band_join, estimate_chain_join, estimate_equi_join, ChainLink, CosineSynopsis, Domain,
    Grid, MultiDimSynopsis,
};
use dctstream_datagen::{round_to_total, zipf_frequencies, ValueMapping};
use dctstream_sketch::{AmsSketch, MisraGries, SketchSchema};
use proptest::collection::vec;
use proptest::prelude::*;

fn freq_table(n: usize) -> impl Strategy<Value = Vec<u64>> {
    vec(0u64..50, n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Eq. (3.4) claim: the incrementally maintained coefficients equal
    /// the batch-computed ones, for any insertion sequence.
    #[test]
    fn incremental_equals_batch(values in vec(0i64..64, 1..200)) {
        let d = Domain::of_size(64);
        let mut streamed = CosineSynopsis::new(d, Grid::Midpoint, 16).unwrap();
        for &v in &values {
            streamed.insert(v).unwrap();
        }
        let mut freqs = vec![0u64; 64];
        for &v in &values {
            freqs[v as usize] += 1;
        }
        let batch = CosineSynopsis::from_frequencies(d, Grid::Midpoint, 16, &freqs).unwrap();
        prop_assert_eq!(streamed.count(), batch.count());
        for (a, b) in streamed.sums().iter().zip(batch.sums()) {
            prop_assert!((a - b).abs() < 1e-6 * (1.0 + a.abs()));
        }
    }

    /// Insertions followed by their deletions restore the synopsis, no
    /// matter how the two phases interleave.
    #[test]
    fn insert_delete_cancellation(
        base in vec(0i64..32, 1..50),
        churn in vec(0i64..32, 0..50),
    ) {
        let d = Domain::of_size(32);
        let mut syn = CosineSynopsis::new(d, Grid::Midpoint, 12).unwrap();
        for &v in &base {
            syn.insert(v).unwrap();
        }
        let snapshot = syn.sums().to_vec();
        // Interleave inserts and deletes of the churn set.
        for &v in &churn {
            syn.insert(v).unwrap();
        }
        for &v in &churn {
            syn.delete(v).unwrap();
        }
        for (a, b) in syn.sums().iter().zip(&snapshot) {
            prop_assert!((a - b).abs() < 1e-6);
        }
        prop_assert_eq!(syn.count(), base.len() as f64);
    }

    /// Parseval (Eq. 4.3): with all n coefficients on the midpoint grid,
    /// the join estimate is exact for arbitrary frequency tables.
    #[test]
    fn full_coefficient_join_is_exact(
        f1 in freq_table(48),
        f2 in freq_table(48),
    ) {
        let exact = DenseFreq(f1.clone()).equi_join(&DenseFreq(f2.clone()));
        prop_assume!(exact > 0.0);
        let d = Domain::of_size(48);
        let a = CosineSynopsis::from_frequencies(d, Grid::Midpoint, 48, &f1).unwrap();
        let b = CosineSynopsis::from_frequencies(d, Grid::Midpoint, 48, &f2).unwrap();
        let est = estimate_equi_join(&a, &b, None).unwrap();
        prop_assert!((est - exact).abs() < 1e-6 * exact.max(1.0),
            "est {} exact {}", est, exact);
    }

    /// Self-join via the synopsis equals the second frequency moment with
    /// full coefficients.
    #[test]
    fn self_join_equals_f2(f in freq_table(40)) {
        prop_assume!(f.iter().any(|&x| x > 0));
        let exact: f64 = f.iter().map(|&x| (x * x) as f64).sum();
        let d = Domain::of_size(40);
        let s = CosineSynopsis::from_frequencies(d, Grid::Midpoint, 40, &f).unwrap();
        prop_assert!((s.self_join(None) - exact).abs() < 1e-6 * exact.max(1.0));
    }

    /// Range estimates with full coefficients equal exact range counts
    /// for every subrange.
    #[test]
    fn full_coefficient_ranges_are_exact(
        f in freq_table(32),
        lo in 0i64..32,
        width in 0i64..32,
    ) {
        prop_assume!(f.iter().any(|&x| x > 0));
        let d = Domain::of_size(32);
        let s = CosineSynopsis::from_frequencies(d, Grid::Midpoint, 32, &f).unwrap();
        let hi = (lo + width).min(31);
        let exact = DenseFreq(f).range_count(lo, hi);
        let est = s.estimate_range_count(lo, hi).unwrap();
        prop_assert!((est - exact as f64).abs() < 1e-6 * (exact as f64).max(1.0));
    }

    /// Band join with full coefficients equals brute force for any width.
    #[test]
    fn full_coefficient_band_join_is_exact(
        f1 in freq_table(24),
        f2 in freq_table(24),
        w in 0i64..24,
    ) {
        prop_assume!(f1.iter().any(|&x| x > 0) && f2.iter().any(|&x| x > 0));
        let d = Domain::of_size(24);
        let a = CosineSynopsis::from_frequencies(d, Grid::Midpoint, 24, &f1).unwrap();
        let b = CosineSynopsis::from_frequencies(d, Grid::Midpoint, 24, &f2).unwrap();
        let est = estimate_band_join(&a, &b, w).unwrap();
        let exact = DenseFreq(f1).band_join(&DenseFreq(f2), w);
        prop_assert!((est - exact).abs() < 1e-5 * exact.max(1.0),
            "w={} est {} exact {}", w, est, exact);
    }

    /// The chain estimator with two end links must agree with the single
    /// join estimator at every budget.
    #[test]
    fn chain_of_two_equals_single_join(
        f1 in freq_table(30),
        f2 in freq_table(30),
        budget in 1usize..30,
    ) {
        let d = Domain::of_size(30);
        let a = CosineSynopsis::from_frequencies(d, Grid::Midpoint, 30, &f1).unwrap();
        let b = CosineSynopsis::from_frequencies(d, Grid::Midpoint, 30, &f2).unwrap();
        let single = estimate_equi_join(&a, &b, Some(budget)).unwrap();
        let chain = estimate_chain_join(
            &[ChainLink::End(&a), ChainLink::End(&b)], Some(budget)).unwrap();
        prop_assert!((single - chain).abs() < 1e-9 * (1.0 + single.abs()));
    }

    /// Multi-dim marginals commute with data marginals: building a 1-d
    /// synopsis of the marginal equals extracting the marginal from the
    /// 2-d synopsis.
    #[test]
    fn marginal_extraction_commutes(
        cells in vec(((0i64..12, 0i64..12), 1u64..10), 1..40),
    ) {
        let domains = vec![Domain::of_size(12), Domain::of_size(12)];
        let tuples: Vec<([i64; 2], u64)> =
            cells.iter().map(|&((a, b), f)| ([a, b], f)).collect();
        let md = MultiDimSynopsis::from_sparse_frequencies(
            domains, Grid::Midpoint, 8,
            tuples.iter().map(|(t, f)| (&t[..], *f))).unwrap();
        let mut marg = vec![0u64; 12];
        for &((a, _), f) in &cells {
            marg[a as usize] += f;
        }
        let direct = CosineSynopsis::from_frequencies(
            Domain::of_size(12), Grid::Midpoint, 8, &marg).unwrap();
        let extracted = md.marginal(0).unwrap();
        for k in 0..8 {
            prop_assert!((extracted.coefficient(k) - direct.coefficient(k)).abs() < 1e-9);
        }
    }

    /// AMS atomic sketches are linear: sketch(A ∪ B) = sketch(A) + sketch(B).
    #[test]
    fn ams_sketch_is_linear(
        s1 in vec(0i64..100, 1..60),
        s2 in vec(0i64..100, 1..60),
    ) {
        let schema = SketchSchema::new(11, 2, 6, 1).unwrap();
        let mut a = AmsSketch::new(schema, vec![0]).unwrap();
        let mut b = AmsSketch::new(schema, vec![0]).unwrap();
        let mut union = AmsSketch::new(schema, vec![0]).unwrap();
        for &v in &s1 {
            a.update(&[v], 1.0).unwrap();
            union.update(&[v], 1.0).unwrap();
        }
        for &v in &s2 {
            b.update(&[v], 1.0).unwrap();
            union.update(&[v], 1.0).unwrap();
        }
        for ((x, y), u) in a.atoms().iter().zip(b.atoms()).zip(union.atoms()) {
            prop_assert!((x + y - u).abs() < 1e-9);
        }
    }

    /// The heavy tracker never overestimates and never exceeds its
    /// physical size bound.
    #[test]
    fn heavy_tracker_is_a_lower_bound(
        stream in vec((0u64..64, 1u64..20), 1..300),
        cap in 1usize..16,
    ) {
        let mut mg = MisraGries::new(cap);
        let mut truth = std::collections::HashMap::new();
        for &(k, w) in &stream {
            mg.update(k, w as f64);
            *truth.entry(k).or_insert(0.0) += w as f64;
        }
        prop_assert!(mg.len() <= 2 * cap);
        for (&k, &t) in &truth {
            prop_assert!(mg.estimate(k) <= t + 1e-9);
        }
    }

    /// Largest-remainder rounding conserves totals and stays within one
    /// of the exact shares.
    #[test]
    fn rounding_conserves_total(
        weights in vec(0.0f64..10.0, 1..100),
        total in 0u64..100_000,
    ) {
        let sum: f64 = weights.iter().sum();
        prop_assume!(sum > 0.0);
        let norm: Vec<f64> = weights.iter().map(|w| w / sum).collect();
        let counts = round_to_total(&norm, total);
        prop_assert_eq!(counts.iter().sum::<u64>(), total);
        for (c, w) in counts.iter().zip(&norm) {
            let exact = w * total as f64;
            prop_assert!((*c as f64 - exact).abs() <= 1.0 + 1e-9,
                "count {} vs exact {}", c, exact);
        }
    }

    /// Zipf frequency tables are monotone in rank and conserve the total.
    #[test]
    fn zipf_tables_are_well_formed(n in 1usize..500, z in 0.0f64..2.0, total in 0u64..1_000_000) {
        let f = zipf_frequencies(n, z, total);
        prop_assert_eq!(f.len(), n);
        prop_assert_eq!(f.iter().sum::<u64>(), total);
        prop_assert!(f.windows(2).all(|w| w[0] >= w[1]));
    }

    /// Value mappings are permutations, and applying them preserves the
    /// frequency multiset.
    #[test]
    fn mappings_are_permutations(n in 1usize..300, seed in any::<u64>(), frac in 0.0f64..1.0) {
        let m = ValueMapping::random(n, seed).partially_permuted(frac, seed ^ 1);
        let mut seen = vec![false; n];
        for &v in m.as_slice() {
            prop_assert!(!seen[v]);
            seen[v] = true;
        }
        let f: Vec<u64> = (0..n as u64).collect();
        let mut applied = m.apply(&f);
        applied.sort_unstable();
        prop_assert_eq!(applied, f);
    }

    /// The chain-join contraction equals an independent brute-force
    /// reference over the same coefficient set, for arbitrary sparse inner
    /// relations and budgets.
    #[test]
    fn chain_contraction_matches_brute_force(
        f1 in freq_table(14),
        f3 in freq_table(14),
        cells in vec(((0i64..14, 0i64..14), 1u64..9), 1..30),
        budget in 1usize..120,
    ) {
        let n = 14usize;
        let d = Domain::of_size(n);
        let a = CosineSynopsis::from_frequencies(d, Grid::Midpoint, n, &f1).unwrap();
        let c = CosineSynopsis::from_frequencies(d, Grid::Midpoint, n, &f3).unwrap();
        let tuples: Vec<([i64; 2], u64)> =
            cells.iter().map(|&((x, y), f)| ([x, y], f)).collect();
        let b = MultiDimSynopsis::from_sparse_frequencies(
            vec![d, d], Grid::Midpoint, n,
            tuples.iter().map(|(t, f)| (&t[..], *f))).unwrap();
        let est = estimate_chain_join(
            &[
                ChainLink::End(&a),
                ChainLink::Inner { synopsis: &b, left: 0, right: 1 },
                ChainLink::End(&c),
            ],
            Some(budget),
        ).unwrap();
        // Brute force over the same graded-prefix coefficient set.
        let m_end = a.coefficient_count().min(budget);
        let used = b.indices().len().min(budget);
        let mut brute = 0.0;
        for (rank, idx) in b.indices().iter().take(used) {
            let (k1, k2) = (idx[0] as usize, idx[1] as usize);
            if k1 < m_end && k2 < c.coefficient_count().min(budget) {
                brute += a.sums()[k1] * b.sums()[rank] * c.sums()[k2];
            }
        }
        brute /= (n * n) as f64;
        prop_assert!((est - brute).abs() < 1e-6 * (1.0 + brute.abs()),
            "est {} vs brute {}", est, brute);
    }

    /// Truncation error bound (Eq. 4.7/4.8): for any data, the observed
    /// error at any budget respects the a-priori bound.
    #[test]
    fn truncation_respects_error_bound(
        f1 in freq_table(40),
        f2 in freq_table(40),
        m in 1usize..40,
    ) {
        let n1: u64 = f1.iter().sum();
        let n2: u64 = f2.iter().sum();
        prop_assume!(n1 > 0 && n2 > 0);
        let exact = DenseFreq(f1.clone()).equi_join(&DenseFreq(f2.clone()));
        let d = Domain::of_size(40);
        let a = CosineSynopsis::from_frequencies(d, Grid::Midpoint, 40, &f1).unwrap();
        let b = CosineSynopsis::from_frequencies(d, Grid::Midpoint, 40, &f2).unwrap();
        let est = estimate_equi_join(&a, &b, Some(m)).unwrap();
        let bound = dctstream::core::bounds::absolute_error_bound(
            40, m, n1 as f64, n2 as f64);
        prop_assert!((est - exact).abs() <= bound + 1e-6,
            "err {} bound {}", (est - exact).abs(), bound);
    }
}

// ---- blocked kernel & parallel ingestion -----------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The 8-wide blocked Chebyshev kernel must agree with repeated
    /// scalar accumulation for any batch shape: empty, shorter than one
    /// block, ragged tails (len % 8 != 0), and degenerate coefficient
    /// counts m ∈ {0, 1}.
    #[test]
    fn blocked_kernel_matches_scalar(
        pairs in vec((0.0f64..1.0, -2.0f64..2.0), 0..41),
        m_sel in 0usize..6,
    ) {
        use dctstream::core::basis::{accumulate_phi, accumulate_phi_block};
        let m = [0usize, 1, 2, 7, 8, 33][m_sel];
        let xs: Vec<f64> = pairs.iter().map(|&(x, _)| x).collect();
        let ws: Vec<f64> = pairs.iter().map(|&(_, w)| w).collect();
        let mut blocked = vec![0.0f64; m];
        accumulate_phi_block(&xs, &ws, &mut blocked);
        let mut scalar = vec![0.0f64; m];
        for (&x, &w) in xs.iter().zip(&ws) {
            accumulate_phi(x, w, &mut scalar);
        }
        for (k, (a, b)) in blocked.iter().zip(&scalar).enumerate() {
            prop_assert!(
                (a - b).abs() <= 1e-9 * (1.0 + a.abs().max(b.abs())),
                "coefficient {}: blocked {} vs scalar {}", k, a, b
            );
        }
    }

    /// WAL frame encoding is a bijection: any record — any stream name,
    /// tuple arity, extreme values, insert or delete — decodes back to
    /// itself, and the decoder consumes the frame exactly.
    #[test]
    fn wal_record_framing_roundtrips(
        name_sel in vec(0usize..26, 1..12),
        values in vec(any::<i64>(), 0..6),
        weight in -4.0f64..4.0,
        kind in 0usize..3,
    ) {
        use dctstream::stream::{StreamEvent, Tuple, WalRecord};
        let name: String = name_sel.iter().map(|&c| (b'a' + c as u8) as char).collect();
        let record = match kind {
            0 => WalRecord::event(&name, StreamEvent::Insert(Tuple(values.clone()))),
            1 => WalRecord::event(&name, StreamEvent::Delete(Tuple(values.clone()))),
            _ => WalRecord::weighted(&name, &values, weight),
        };
        let wire = record.encode();
        let decoded = WalRecord::decode(&wire).expect("own encoding must decode");
        prop_assert_eq!(&decoded, &record);
        // Any strict prefix must be rejected, not silently accepted.
        for cut in 0..wire.len() {
            prop_assert!(WalRecord::decode(&wire[..cut]).is_err(),
                "prefix of {} bytes decoded", cut);
        }
    }

    /// The stream-event wire form consumes exactly what it wrote for
    /// arbitrary tuples, including extreme i64 values.
    #[test]
    fn stream_event_wire_roundtrips(
        values in vec(any::<i64>(), 0..8),
        del in 0usize..2,
    ) {
        use bytes::{Buf, BytesMut};
        use dctstream::stream::{StreamEvent, Tuple};
        let ev = if del == 1 {
            StreamEvent::Delete(Tuple(values))
        } else {
            StreamEvent::Insert(Tuple(values))
        };
        let mut buf = BytesMut::new();
        ev.encode_into(&mut buf);
        let mut wire = buf.freeze();
        let back = StreamEvent::decode_from(&mut wire).expect("own encoding must decode");
        prop_assert_eq!(back, ev);
        prop_assert_eq!(wire.remaining(), 0);
    }

    /// Appending any record sequence to a WAL and reopening it replays
    /// exactly that sequence, in order, with contiguous sequence numbers
    /// — under every sync policy.
    #[test]
    fn wal_append_then_reopen_replays_everything(
        ops in vec((0usize..3, any::<i64>(), -2.0f64..2.0), 1..40),
        policy_sel in 0usize..3,
        segment_max in 64u64..512,
    ) {
        use dctstream::stream::{
            MemStorage, RetryPolicy, SyncPolicy, Wal, WalOptions, WalRecord,
        };
        let opts = WalOptions {
            sync: [SyncPolicy::Always, SyncPolicy::EveryN(4), SyncPolicy::Manual][policy_sel],
            segment_max_bytes: segment_max,
            retry: RetryPolicy::none(),
        };
        let storage = MemStorage::new();
        let records: Vec<WalRecord> = ops
            .iter()
            .map(|&(s, v, w)| WalRecord::weighted(["a", "b", "c"][s], &[v], w))
            .collect();
        let (mut wal, _) = Wal::open(storage.clone(), opts.clone(), 0).unwrap();
        for (i, r) in records.iter().enumerate() {
            let seq = wal.append(r).unwrap();
            prop_assert_eq!(seq, i as u64 + 1);
        }
        wal.sync().unwrap();
        let (reopened, outcome) = Wal::open(storage, opts, 0).unwrap();
        prop_assert_eq!(reopened.watermark(), records.len() as u64);
        prop_assert_eq!(outcome.records.len(), records.len());
        for (i, ((seq, got), want)) in outcome.records.iter().zip(&records).enumerate() {
            prop_assert_eq!(*seq, i as u64 + 1);
            prop_assert_eq!(got, want);
        }
    }

    /// Shard-and-merge parallel flush must agree with the serial batch
    /// path for any insert/delete mix, at every worker count; W = 1 is
    /// bit-identical by construction.
    #[test]
    fn parallel_flush_matches_serial(
        ops in vec((0i64..64, 0usize..4), 8..300),
        w_sel in 0usize..3,
    ) {
        use dctstream::stream::ParallelIngest;
        let threads = [1usize, 2, 7][w_sel];
        // ~25% deletions.
        let batch: Vec<(i64, f64)> = ops
            .iter()
            .map(|&(v, k)| (v, if k == 0 { -1.0 } else { 1.0 }))
            .collect();
        let d = Domain::of_size(64);
        let mut serial = CosineSynopsis::new(d, Grid::Midpoint, 24).unwrap();
        serial.update_batch(&batch).unwrap();
        let mut par = CosineSynopsis::new(d, Grid::Midpoint, 24).unwrap();
        ParallelIngest::with_threads(threads)
            .with_min_parallel_batch(8)
            .flush_cosine(&mut par, &batch)
            .unwrap();
        prop_assert_eq!(serial.count(), par.count());
        for (k, (a, b)) in serial.sums().iter().zip(par.sums()).enumerate() {
            if threads == 1 {
                prop_assert_eq!(
                    a.to_bits(), b.to_bits(),
                    "W=1 must be bit-identical at coefficient {}", k
                );
            } else {
                prop_assert!(
                    (a - b).abs() <= 1e-9 * (1.0 + a.abs().max(b.abs())),
                    "coefficient {}: serial {} vs parallel {}", k, a, b
                );
            }
        }
    }
}

// ---- stream-health supervision ---------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Model check of the health state machine: any attempted transition
    /// either succeeds (when the module diagram allows it) or is rejected
    /// leaving the recorded state untouched — no interleaving of attempts
    /// reaches a state outside the model, and `is_degraded` always means
    /// exactly `Quarantined | Repairing`.
    #[test]
    fn health_registry_never_leaves_the_state_machine(
        steps in vec((0usize..3, 0usize..4), 1..80),
    ) {
        use dctstream::stream::{HealthCause, HealthRegistry, HealthState};
        let states = [
            HealthState::Healthy,
            HealthState::Suspect,
            HealthState::Quarantined,
            HealthState::Repairing,
        ];
        let mut reg = HealthRegistry::new();
        let mut model = std::collections::HashMap::new();
        for &(s, t) in &steps {
            let name = ["a", "b", "c"][s];
            let to = states[t];
            let from = *model.get(name).unwrap_or(&HealthState::Healthy);
            let res = reg.transition(name, to, HealthCause::ScrubPassed);
            if from.can_transition(to) {
                prop_assert_eq!(res.unwrap(), from);
                model.insert(name, to);
            } else {
                prop_assert!(res.is_err(), "{} -> {} accepted", from, to);
            }
            let got = reg.state(name);
            prop_assert_eq!(got, *model.get(name).unwrap_or(&HealthState::Healthy));
            prop_assert_eq!(
                got.is_degraded(),
                matches!(got, HealthState::Quarantined | HealthState::Repairing)
            );
        }
    }

    /// Arbitrary interleavings of updates, injected I/O faults, scrubs,
    /// repairs, syncs, and checkpoints: no public entry point ever
    /// returns with a stream resting in `Repairing`, and a degraded
    /// participant is never silent — an answer carries attribution or is
    /// a typed `StreamQuarantined` exactly when a participant is
    /// degraded, so mid-repair state is never observable as healthy.
    #[test]
    fn fault_repair_scrub_interleavings_stay_sound(
        steps in vec((0usize..8, 0i64..32, 0usize..2), 1..40),
    ) {
        use dctstream::stream::{
            DurableProcessor, FailingStorage, HealthState, MemStorage, RecoveryOptions,
            RetryPolicy, Summary, SyncPolicy, WalOptions,
        };
        use dctstream::{CosineSynopsis, DctError, Domain, Grid};
        let opts = RecoveryOptions {
            wal: WalOptions {
                sync: SyncPolicy::Always,
                segment_max_bytes: 256,
                retry: RetryPolicy::none(),
            },
            flush_threshold: None,
        };
        let storage = FailingStorage::with_transient_failures(MemStorage::new(), 0);
        let (mut dp, _) = DurableProcessor::open_with(storage.clone(), opts).unwrap();
        for name in ["a", "b"] {
            dp.register(
                name,
                Summary::Cosine(
                    CosineSynopsis::new(Domain::of_size(32), Grid::Midpoint, 8).unwrap(),
                ),
            )
            .unwrap();
        }
        for &(op, v, which) in &steps {
            let name = ["a", "b"][which];
            match op {
                0 | 1 => { let _ = dp.process_weighted(name, &[v], 1.0); }
                2 => { let _ = dp.process_weighted(name, &[v], -1.0); }
                3 => {
                    // Fault the next storage mutation; the append that
                    // follows quarantines the stream (apply-then-log).
                    storage.fail_next(1);
                    let _ = dp.process_weighted(name, &[v], 1.0);
                }
                4 => { let _ = dp.scrub(); }
                5 => { let _ = dp.repair_all(); }
                6 => { let _ = dp.sync(); }
                _ => { let _ = dp.checkpoint(); }
            }
            // Repairing is transient: every entry point settles repairs
            // before returning.
            for n in ["a", "b"] {
                prop_assert!(
                    dp.health().state(n) != HealthState::Repairing,
                    "stream '{}' left mid-repair after op {}", n, op
                );
            }
            // The answer is attributed or refused iff a participant is
            // degraded.
            let any_degraded =
                dp.health().is_degraded("a") || dp.health().is_degraded("b");
            let snap = dp.capture_snapshot(1);
            prop_assert!(snap.is_ok(), "capture failed: {:?}", snap.err());
            let snap = snap.unwrap();
            let flagged = match snap.estimate_cosine_join("a", "b", None) {
                Ok(_) => !snap.attribution(["a", "b"]).is_empty(),
                Err(DctError::StreamQuarantined { .. }) => true,
                Err(e) => {
                    return Err(TestCaseError::fail(format!(
                        "untyped refusal after op {op}: {e}"
                    )))
                }
            };
            prop_assert_eq!(
                flagged, any_degraded,
                "answer flagged={} with degraded={}", flagged, any_degraded
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Observability: lock-free metrics under concurrent writers.
// ---------------------------------------------------------------------------

proptest! {
    // Each case spawns real threads, so keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Counter totals are exact under concurrency: N threads each add a
    /// known sequence to one shared counter and one labelled per-thread
    /// counter; after joining, the shared total is the grand sum and every
    /// per-thread counter holds exactly its own sum.
    #[test]
    fn concurrent_counter_totals_are_exact(
        per_thread in proptest::collection::vec(
            proptest::collection::vec(1u64..1_000, 1..40), 2..5)
    ) {
        let registry = dctstream_obs::MetricsRegistry::new();
        let shared = registry.counter("proptest.shared");
        let handles: Vec<_> = per_thread
            .iter()
            .cloned()
            .enumerate()
            .map(|(t, adds)| {
                let shared = shared.clone();
                let tid = t.to_string();
                let own = registry
                    .counter_with("proptest.per_thread", &[("thread", &tid)]);
                std::thread::spawn(move || {
                    let mut sum = 0u64;
                    for n in adds {
                        shared.add(n);
                        own.add(n);
                        sum += n;
                    }
                    sum
                })
            })
            .collect();
        let sums: Vec<u64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        prop_assert_eq!(shared.get(), sums.iter().sum::<u64>());
        let snap = registry.snapshot();
        for (t, &sum) in sums.iter().enumerate() {
            let tid = t.to_string();
            let c = snap
                .counters
                .iter()
                .find(|c| {
                    c.name == "proptest.per_thread"
                        && c.labels == vec![("thread".to_string(), tid.clone())]
                })
                .expect("per-thread counter in snapshot");
            prop_assert_eq!(c.value, sum);
        }
    }

    /// Histogram accounting is exact once writers quiesce: the count equals
    /// the number of observations, the sum equals the summed values, and
    /// every observation landed in exactly one bucket.
    #[test]
    fn concurrent_histogram_accounts_every_observation(
        per_thread in proptest::collection::vec(
            proptest::collection::vec(0u64..30_000_000_000, 1..40), 2..5)
    ) {
        let registry = dctstream_obs::MetricsRegistry::new();
        let hist = registry.histogram("proptest.latency");
        let handles: Vec<_> = per_thread
            .iter()
            .cloned()
            .map(|obs| {
                let hist = hist.clone();
                std::thread::spawn(move || {
                    let (mut n, mut sum) = (0u64, 0u64);
                    for v in obs {
                        hist.record(v);
                        n += 1;
                        sum += v;
                    }
                    (n, sum)
                })
            })
            .collect();
        let (mut total_n, mut total_sum) = (0u64, 0u64);
        for h in handles {
            let (n, s) = h.join().unwrap();
            total_n += n;
            total_sum += s;
        }
        prop_assert_eq!(hist.count(), total_n);
        prop_assert_eq!(hist.sum_nanos(), total_sum);
        prop_assert_eq!(hist.bucket_counts().iter().sum::<u64>(), total_n);
        let snap = registry.snapshot();
        let h = snap
            .histograms
            .iter()
            .find(|h| h.name == "proptest.latency")
            .expect("histogram in snapshot");
        prop_assert_eq!(h.count, total_n);
        prop_assert_eq!(h.sum_nanos, total_sum);
        prop_assert_eq!(h.buckets.iter().sum::<u64>(), total_n);
    }

    /// Snapshots taken *while* writers are hammering the registry never
    /// tear: the histogram bucket total always accounts for at least the
    /// observed count (the count is bumped last in `record`, read first in
    /// `snapshot`), counter values are monotone across successive
    /// snapshots, and nothing panics.
    #[test]
    fn snapshot_during_writes_never_tears(
        writers in 2usize..5,
        iters in 50u64..400,
        nanos in 0u64..5_000_000_000,
    ) {
        let registry = std::sync::Arc::new(dctstream_obs::MetricsRegistry::new());
        let counter = registry.counter("proptest.live");
        let hist = registry.histogram("proptest.live_latency");
        let handles: Vec<_> = (0..writers)
            .map(|_| {
                let counter = counter.clone();
                let hist = hist.clone();
                std::thread::spawn(move || {
                    for _ in 0..iters {
                        counter.inc();
                        hist.record(nanos);
                    }
                })
            })
            .collect();
        let mut last_count = 0u64;
        let mut last_value = 0u64;
        loop {
            let snap = registry.snapshot();
            let c = snap
                .counters
                .iter()
                .find(|c| c.name == "proptest.live")
                .expect("live counter");
            prop_assert!(
                c.value >= last_value,
                "counter went backwards: {} -> {}", last_value, c.value
            );
            last_value = c.value;
            let h = snap
                .histograms
                .iter()
                .find(|h| h.name == "proptest.live_latency")
                .expect("live histogram");
            let bucket_total: u64 = h.buckets.iter().sum();
            prop_assert!(
                bucket_total >= h.count,
                "torn histogram snapshot: buckets {} < count {}", bucket_total, h.count
            );
            prop_assert!(
                h.count >= last_count,
                "histogram count went backwards: {} -> {}", last_count, h.count
            );
            last_count = h.count;
            if h.count == writers as u64 * iters {
                break;
            }
        }
        for h in handles {
            h.join().unwrap();
        }
        prop_assert_eq!(counter.get(), writers as u64 * iters);
        prop_assert_eq!(hist.sum_nanos(), writers as u64 * iters * nanos);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// ISSUE 6 equivalence: every `accumulate_phi` kernel — the scalar
    /// recurrence, the portable 8-lane block, the runtime-dispatched
    /// entry point, and (where the CPU supports it) the explicit
    /// AVX2/FMA kernel — agrees to ≤ 1e-12 of the gross update weight,
    /// across random coefficient counts, block counts, ragged tails,
    /// and turnstile (negative) weights.
    ///
    /// `m` stays ≤ 64 here: the Chebyshev recurrence's worst-case error
    /// grows as k²ε near θ ≈ 0/π, so 1e-12-relative agreement is only
    /// *guaranteed* for small m. Larger m (the bench's 4096) is covered
    /// at 1e-9 by deterministic tests in the basis module.
    #[test]
    fn phi_kernels_agree_to_1e12(
        m in 0usize..65,
        pairs in vec((0.0f64..1.0, -3.0f64..3.0), 0..70),
    ) {
        use dctstream_core::basis;

        let xs: Vec<f64> = pairs.iter().map(|(x, _)| *x).collect();
        let ws: Vec<f64> = pairs.iter().map(|(_, w)| *w).collect();
        let gross: f64 = ws.iter().map(|w| w.abs()).sum();
        let tol = 1e-12 * gross.max(1.0);

        let mut scalar = vec![0.0; m];
        for (&x, &w) in xs.iter().zip(&ws) {
            basis::accumulate_phi(x, w, &mut scalar);
        }

        let mut portable = vec![0.0; m];
        basis::accumulate_phi_block_portable(&xs, &ws, &mut portable);
        for (k, (a, b)) in portable.iter().zip(&scalar).enumerate() {
            prop_assert!((a - b).abs() <= tol,
                "portable k={} {} vs scalar {} (tol {})", k, a, b, tol);
        }

        let mut dispatched = vec![0.0; m];
        basis::accumulate_phi_block(&xs, &ws, &mut dispatched);
        for (k, (a, b)) in dispatched.iter().zip(&scalar).enumerate() {
            prop_assert!((a - b).abs() <= tol,
                "dispatched ({}) k={} {} vs scalar {} (tol {})",
                basis::kernel_name(), k, a, b, tol);
        }

        #[cfg(target_arch = "x86_64")]
        if basis::simd_available() {
            let mut simd = vec![0.0; m];
            basis::accumulate_phi_block_avx2(&xs, &ws, &mut simd);
            for (k, (a, b)) in simd.iter().zip(&scalar).enumerate() {
                prop_assert!((a - b).abs() <= tol,
                    "avx2 k={} {} vs scalar {} (tol {})", k, a, b, tol);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The coalescing `CosineSink` (one net weight per value, one flush)
    /// agrees with per-row `update` to ≤ 1e-12 of the gross update
    /// weight per coefficient sum — the `phi_kernels_agree_to_1e12`
    /// tolerance — on duplicate-heavy input with turnstile weights read
    /// from a weight column, exact cancellations included.
    #[test]
    fn coalesced_sink_matches_per_row_updates_to_1e12(
        m in 1usize..65,
        rows in vec((0i64..24, -6i32..7), 0..400),
    ) {
        use dctstream_intake::{
            run, Column, ColumnType, CosineSink, IntakeOptions, RejectLedger, Schema,
        };
        use std::io::Cursor;

        let rows: Vec<(i64, f64)> = rows.iter().map(|&(v, k)| (v * 10, f64::from(k) / 2.0)).collect();
        let csv: String = rows.iter().map(|(v, w)| format!("{v},{w}\n")).collect();
        let schema = Schema {
            delimiter: b',',
            has_header: false,
            columns: vec![
                Column { name: "v".into(), ty: ColumnType::Int, domain: None },
                Column { name: "w".into(), ty: ColumnType::Text, domain: None },
            ],
        };
        let d = Domain::new(0, 255);
        let mut coalesced = CosineSynopsis::new(d, Grid::Midpoint, m).unwrap();
        let report = run(
            Cursor::new(csv.as_bytes()),
            &schema,
            &IntakeOptions { weight: Some(1), ..IntakeOptions::default() },
            &mut RejectLedger::new(8),
            &mut CosineSink::new(&mut coalesced, 1, &[0]),
        )
        .unwrap();
        prop_assert_eq!(report.accepted, rows.len() as u64);

        let mut per_row = CosineSynopsis::new(d, Grid::Midpoint, m).unwrap();
        for &(v, w) in &rows {
            per_row.update(v, w).unwrap();
        }
        let gross: f64 = rows.iter().map(|(_, w)| w.abs()).sum();
        let tol = 1e-12 * gross.max(1.0);
        prop_assert!((coalesced.count() - per_row.count()).abs() <= tol);
        for (k, (a, b)) in coalesced.sums().iter().zip(per_row.sums()).enumerate() {
            prop_assert!((a - b).abs() <= tol,
                "k={} coalesced {} vs per-row {} (tol {})", k, a, b, tol);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// ISSUE 9 round-trip: a schema inferred by a full-scan probe,
    /// rendered to its `.schema` text form, and parsed back must accept
    /// every row of the file it was inferred from — `probe` then
    /// `verify` on the same input never rejects.
    #[test]
    fn probed_schemas_accept_their_source_file(
        rows in vec((0i64..1000, -500i64..500, 0.0f64..100.0), 1..120),
    ) {
        use dctstream_intake::{
            probe, run, CountSink, IntakeOptions, ProbeOptions, RejectLedger, Schema,
        };
        use std::io::Cursor;

        let csv: String = rows
            .iter()
            .map(|(a, b, w)| format!("{a},{b},{w:.2}\n"))
            .collect();

        let opts = ProbeOptions { sample_rows: 0, ..ProbeOptions::default() };
        let (schema, report) = probe(Cursor::new(csv.as_bytes()), &opts).unwrap();
        prop_assert_eq!(report.rows_skipped, 0);
        prop_assert_eq!(schema.arity(), 3);

        // Text round-trip is lossless.
        let reparsed = Schema::parse(&schema.render()).unwrap();
        prop_assert_eq!(&reparsed, &schema);

        // The reparsed schema accepts the entire source file.
        let mut ledger = RejectLedger::new(8);
        let verdict = run(
            Cursor::new(csv.as_bytes()),
            &reparsed,
            &IntakeOptions { targets: vec![0, 1], ..IntakeOptions::default() },
            &mut ledger,
            &mut CountSink,
        )
        .unwrap();
        prop_assert_eq!(verdict.rejected, 0, "rejects: {:?}", verdict.sample);
        prop_assert_eq!(verdict.accepted, rows.len() as u64);
    }

    /// ISSUE 9 equivalence: intake through a schema over clean CSV is
    /// bit-identical to flushing the same rows, coalesced to one net
    /// weight per value in ascending order, straight into the synopsis —
    /// the typed front end adds validation, never drift. Both sides use
    /// one whole-batch `ParallelIngest` flush, the determinism contract
    /// intake's sinks are built on.
    #[test]
    fn intake_is_bit_identical_to_direct_updates(
        values in vec((0i64..256, 1u8..4), 1..300),
    ) {
        use dctstream_intake::{
            run, Column, ColumnType, CosineSink, IntakeOptions, RejectLedger, Schema,
        };
        use std::io::Cursor;

        let csv: String = values
            .iter()
            .map(|(v, w)| format!("{v},{w}\n"))
            .collect();
        let schema = Schema {
            delimiter: b',',
            has_header: false,
            columns: vec![
                Column { name: "v".into(), ty: ColumnType::Int, domain: Some((0, 255)) },
                Column { name: "w".into(), ty: ColumnType::Int, domain: Some((0, 16)) },
            ],
        };

        let d = Domain::new(0, 255);
        let mut via_intake = CosineSynopsis::new(d, Grid::Midpoint, 24).unwrap();
        let mut ledger = RejectLedger::new(8);
        let report = {
            let mut sink = CosineSink::new(&mut via_intake, 1, &[0]);
            run(
                Cursor::new(csv.as_bytes()),
                &schema,
                &IntakeOptions { weight: Some(1), ..IntakeOptions::default() },
                &mut ledger,
                &mut sink,
            )
            .unwrap()
        };
        prop_assert_eq!(report.rejected, 0);

        let mut direct = CosineSynopsis::new(d, Grid::Midpoint, 24).unwrap();
        let mut nets = std::collections::BTreeMap::new();
        for &(v, w) in &values {
            *nets.entry(v).or_insert(0.0) += f64::from(w);
        }
        let batch: Vec<(i64, f64)> = nets.into_iter().collect();
        dctstream::stream::ParallelIngest::with_threads(1)
            .flush_cosine(&mut direct, &batch)
            .unwrap();
        prop_assert_eq!(via_intake.to_bytes(), direct.to_bytes());
    }
}
