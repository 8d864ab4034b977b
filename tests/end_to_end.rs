//! Cross-crate integration tests: the full pipeline from workload
//! generation through streaming ingestion to estimation, for every
//! summary type, against exact ground truth.

use dctstream::stream::{exact_chain_join, shared, DenseFreq, RegistrySnapshot, SparseFreq2};
use dctstream::{
    estimate_band_join, estimate_chain_join, estimate_equi_join, ChainLink, ContinuousJoinQuery,
    CosineSynopsis, Domain, Grid, MultiDimSynopsis, StreamProcessor, StreamSummary, Summary,
};
use dctstream_baselines::{estimate_join_from_histograms, EquiWidthHistogram};
use dctstream_datagen::{
    census, correlated_pair, frequencies_to_stream, net_trace, ClusteredConfig, ClusteredGenerator,
    Correlation, Protocol,
};
use dctstream_sketch::{estimate_join, estimate_skimmed_join, SketchSchema, SkimmedSketch};
use dctstream_stream::{BatchBuffer, StreamEvent, Tuple};

/// The headline pipeline: generate correlated streams, ingest them
/// tuple-at-a-time through the processor, and verify the cosine estimate
/// tracks the exact join size.
#[test]
fn streaming_pipeline_tracks_exact_join() {
    let n = 2_000usize;
    let (f1, f2) = correlated_pair(n, 0.5, 1.0, 60_000, 60_000, Correlation::SmoothPositive, 42);
    let exact = DenseFreq(f1.clone()).equi_join(&DenseFreq(f2.clone()));

    let domain = Domain::of_size(n);
    let mut processor = StreamProcessor::new();
    processor
        .register(
            "left",
            Summary::Cosine(CosineSynopsis::new(domain, Grid::Midpoint, 400).unwrap()),
        )
        .unwrap();
    processor
        .register(
            "right",
            Summary::Cosine(CosineSynopsis::new(domain, Grid::Midpoint, 400).unwrap()),
        )
        .unwrap();
    let mut query = ContinuousJoinQuery::new("left", "right", None, 10_000);
    for v in frequencies_to_stream(&f1, 1) {
        processor
            .process("left", &StreamEvent::Insert(Tuple::unary(v)))
            .unwrap();
        query.observe(&mut processor).unwrap();
    }
    for v in frequencies_to_stream(&f2, 2) {
        processor
            .process("right", &StreamEvent::Insert(Tuple::unary(v)))
            .unwrap();
        query.observe(&mut processor).unwrap();
    }
    let est = RegistrySnapshot::capture(&mut processor, 1)
        .unwrap()
        .estimate_cosine_join("left", "right", None)
        .unwrap();
    let rel = (est - exact).abs() / exact;
    assert!(rel < 0.05, "relative error {rel}");
    assert!(!query.history().is_empty());
    // The continuous query's estimates grow as the right stream fills in.
    let last = query.history().last().unwrap().1;
    assert!(last > 0.0);
}

/// All four summary kinds agree with the exact join within their expected
/// accuracy on a moderately skewed workload, at equal budget.
#[test]
fn all_methods_estimate_the_same_join() {
    let n = 1_500usize;
    let budget = 300usize;
    let (f1, f2) = correlated_pair(
        n,
        0.5,
        1.0,
        100_000,
        100_000,
        Correlation::WeakPositive(0.1),
        7,
    );
    let exact = DenseFreq(f1.clone()).equi_join(&DenseFreq(f2.clone()));
    let domain = Domain::of_size(n);

    // Cosine.
    let c1 = CosineSynopsis::from_frequencies(domain, Grid::Midpoint, budget, &f1).unwrap();
    let c2 = CosineSynopsis::from_frequencies(domain, Grid::Midpoint, budget, &f2).unwrap();
    let cos = estimate_equi_join(&c1, &c2, None).unwrap();

    // Sketches.
    let schema = SketchSchema::with_total_atoms(9, budget, 5, 1).unwrap();
    let mut s1 = SkimmedSketch::new(schema, vec![0], vec![domain], 150).unwrap();
    let mut s2 = SkimmedSketch::new(schema, vec![0], vec![domain], 150).unwrap();
    for (v, &f) in f1.iter().enumerate() {
        if f > 0 {
            s1.update(&[v as i64], f as f64).unwrap();
        }
    }
    for (v, &f) in f2.iter().enumerate() {
        if f > 0 {
            s2.update(&[v as i64], f as f64).unwrap();
        }
    }
    s1.prepare_default();
    s2.prepare_default();
    let skim = estimate_skimmed_join(&[&s1, &s2], None).unwrap();
    let basic = estimate_join(&[s1.ams(), s2.ams()], None).unwrap();

    // Histogram baseline.
    let mut h1 = EquiWidthHistogram::new(domain, budget).unwrap();
    let mut h2 = EquiWidthHistogram::new(domain, budget).unwrap();
    for (v, (&x, &y)) in f1.iter().zip(&f2).enumerate() {
        h1.update(v as i64, x as f64).unwrap();
        h2.update(v as i64, y as f64).unwrap();
    }
    let hist = estimate_join_from_histograms(&h1, &h2).unwrap();

    for (name, est, tol) in [
        ("cosine", cos, 0.8),
        ("skimmed", skim, 1.5),
        ("basic", basic, 5.0),
        ("histogram", hist, 1.0),
    ] {
        let rel = (est - exact).abs() / exact;
        assert!(
            rel < tol,
            "{name}: estimate {est}, exact {exact}, rel {rel}"
        );
    }
}

/// Turnstile correctness across the stack: inserting then deleting a
/// block of tuples returns every linear summary to its prior estimates.
#[test]
fn turnstile_deletions_are_exact_for_linear_summaries() {
    let n = 512usize;
    let domain = Domain::of_size(n);
    let mut cos = CosineSynopsis::new(domain, Grid::Midpoint, 64).unwrap();
    let schema = SketchSchema::new(3, 3, 20, 1).unwrap();
    let mut ams = dctstream::AmsSketch::new(schema, vec![0]).unwrap();

    for v in 0..200i64 {
        cos.insert(v % n as i64).unwrap();
        ams.update(&[v % n as i64], 1.0).unwrap();
    }
    let cos_before = cos.sums().to_vec();
    let ams_before = ams.atoms().to_vec();

    // A burst arrives and is fully retracted.
    for v in 0..500i64 {
        let t = (v * 17) % n as i64;
        cos.insert(t).unwrap();
        ams.update(&[t], 1.0).unwrap();
    }
    for v in 0..500i64 {
        let t = (v * 17) % n as i64;
        cos.delete(t).unwrap();
        ams.update(&[t], -1.0).unwrap();
    }
    for (a, b) in cos.sums().iter().zip(&cos_before) {
        assert!((a - b).abs() < 1e-6);
    }
    for (a, b) in ams.atoms().iter().zip(&ams_before) {
        assert!((a - b).abs() < 1e-6);
    }
}

/// Batch buffering (§3.2) must be transparent: flushing buffered events
/// produces the same synopsis as per-tuple processing.
#[test]
fn batched_ingestion_is_transparent() {
    let n = 256usize;
    let domain = Domain::of_size(n);
    let mut direct = CosineSynopsis::new(domain, Grid::Midpoint, 32).unwrap();
    let mut via_batch = CosineSynopsis::new(domain, Grid::Midpoint, 32).unwrap();
    let mut buf = BatchBuffer::new();
    for i in 0..5_000i64 {
        let ev = if i % 11 == 10 {
            StreamEvent::Delete(Tuple::unary(i % n as i64))
        } else {
            StreamEvent::Insert(Tuple::unary((i * 3) % n as i64))
        };
        direct.update(ev.tuple().values()[0], ev.weight()).unwrap();
        buf.push(&ev);
        if i % 500 == 499 {
            buf.flush_into(&mut via_batch).unwrap();
        }
    }
    buf.flush_into(&mut via_batch).unwrap();
    assert_eq!(direct.count(), via_batch.count());
    for (a, b) in direct.sums().iter().zip(via_batch.sums()) {
        assert!((a - b).abs() < 1e-6);
    }
}

/// Chain join across three generated relations: synopsis estimate vs the
/// exact sparse contraction.
#[test]
fn clustered_chain_join_end_to_end() {
    let cfg = ClusteredConfig {
        dims: 2,
        domain_size: 128,
        regions: 8,
        z_inter: 1.0,
        z_intra: 0.2,
        volume_range: (50, 100),
        total_tuples: 100_000,
    };
    let g2 = ClusteredGenerator::new(cfg, 77);
    let g1 = g2.derive_correlated(0.8, 78);
    let g3 = g2.transposed().derive_correlated(0.8, 79);
    let mid = g2.materialize();
    let first = g1.materialize().marginal(0);
    let last = g3.materialize().marginal(0);

    let mut sf = SparseFreq2::new();
    for (t, f) in &mid.cells {
        sf.add(t[0], t[1], *f);
    }
    let exact = exact_chain_join(&DenseFreq(first.clone()), &[&sf], &DenseFreq(last.clone()));
    assert!(exact > 0.0);

    let d = Domain::of_size(128);
    let c1 = CosineSynopsis::from_frequencies(d, Grid::Midpoint, 128, &first).unwrap();
    let c3 = CosineSynopsis::from_frequencies(d, Grid::Midpoint, 128, &last).unwrap();
    let tuples: Vec<([i64; 2], u64)> = mid.cells.iter().map(|(t, f)| ([t[0], t[1]], *f)).collect();
    let c2 = MultiDimSynopsis::from_sparse_frequencies(
        vec![d, d],
        Grid::Midpoint,
        60,
        tuples.iter().map(|(t, f)| (&t[..], *f)),
    )
    .unwrap();
    let est = estimate_chain_join(
        &[
            ChainLink::End(&c1),
            ChainLink::Inner {
                synopsis: &c2,
                left: 0,
                right: 1,
            },
            ChainLink::End(&c3),
        ],
        None,
    )
    .unwrap();
    let rel = (est - exact).abs() / exact;
    assert!(rel < 0.25, "relative error {rel}");
}

/// The §6 band-join extension against brute force on trace-like data.
#[test]
fn band_join_on_trace_data() {
    let t0 = net_trace(Protocol::Tcp, 0, 5);
    let t1 = net_trace(Protocol::Tcp, 1, 5);
    let n = 400usize; // restrict to the busiest low host ids
    let f0: Vec<u64> = t0.marginal(0)[..n].to_vec();
    let f1: Vec<u64> = t1.marginal(0)[..n].to_vec();
    let d = Domain::of_size(n);
    let a = CosineSynopsis::from_frequencies(d, Grid::Midpoint, n, &f0).unwrap();
    let b = CosineSynopsis::from_frequencies(d, Grid::Midpoint, n, &f1).unwrap();
    let est = estimate_band_join(&a, &b, 2).unwrap();
    let exact = DenseFreq(f0).band_join(&DenseFreq(f1), 2);
    let rel = (est - exact).abs() / exact;
    // Full coefficients -> near exact.
    assert!(rel < 0.01, "relative error {rel}");
}

/// Census two-join through the public API (the §5.3 query).
#[test]
fn census_two_join_is_accurate() {
    let m0 = census(0, 3);
    let m1 = census(1, 3);
    let m2 = census(2, 3);
    let mut joint = SparseFreq2::new();
    for &((a, e), f) in &m1.cells {
        joint.add(a, e, f);
    }
    let exact = exact_chain_join(
        &DenseFreq(m0.marginal(0)),
        &[&joint],
        &DenseFreq(m2.marginal(1)),
    );
    let age = Domain::of_size(m1.domain_a);
    let edu = Domain::of_size(m1.domain_b);
    let c0 = CosineSynopsis::from_frequencies(age, Grid::Midpoint, 40, &m0.marginal(0)).unwrap();
    let c2 = CosineSynopsis::from_frequencies(edu, Grid::Midpoint, 40, &m2.marginal(1)).unwrap();
    let tuples: Vec<([i64; 2], u64)> = m1.cells.iter().map(|&((a, e), f)| ([a, e], f)).collect();
    let cm = MultiDimSynopsis::from_sparse_frequencies(
        vec![age, edu],
        Grid::Midpoint,
        30,
        tuples.iter().map(|(t, f)| (&t[..], *f)),
    )
    .unwrap();
    let est = estimate_chain_join(
        &[
            ChainLink::End(&c0),
            ChainLink::Inner {
                synopsis: &cm,
                left: 0,
                right: 1,
            },
            ChainLink::End(&c2),
        ],
        None,
    )
    .unwrap();
    let rel = (est - exact).abs() / exact;
    assert!(rel < 0.05, "relative error {rel}");
}

/// Concurrent ingestion through the shared processor stays consistent.
#[test]
fn shared_processor_concurrent_ingestion() {
    let n = 1_000usize;
    let domain = Domain::of_size(n);
    let mut p = StreamProcessor::new();
    p.register(
        "a",
        Summary::Cosine(CosineSynopsis::new(domain, Grid::Midpoint, 100).unwrap()),
    )
    .unwrap();
    p.register(
        "b",
        Summary::Cosine(CosineSynopsis::new(domain, Grid::Midpoint, 100).unwrap()),
    )
    .unwrap();
    let sp = shared(p);
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let sp = &sp;
            s.spawn(move || {
                let name = if t % 2 == 0 { "a" } else { "b" };
                for i in 0..10_000i64 {
                    sp.write()
                        .process_weighted(name, &[(i + t as i64 * 7) % n as i64], 1.0)
                        .unwrap();
                }
            });
        }
    });
    assert_eq!(sp.read().events_processed(), 40_000);
    // Both streams are uniform over the domain -> join ≈ N_a·N_b/n.
    let est = sp
        .publish()
        .unwrap()
        .estimate_cosine_join("a", "b", None)
        .unwrap();
    let expect = 20_000.0 * 20_000.0 / n as f64;
    assert!(
        (est - expect).abs() / expect < 0.05,
        "est {est} vs {expect}"
    );
}

/// Summary-enum ergonomics: heterogeneous registry driving all methods.
#[test]
fn heterogeneous_registry() {
    let domain = Domain::of_size(64);
    let schema = SketchSchema::new(5, 3, 10, 1).unwrap();
    let mut p = StreamProcessor::new();
    p.register(
        "cosine",
        Summary::Cosine(CosineSynopsis::new(domain, Grid::Midpoint, 16).unwrap()),
    )
    .unwrap();
    p.register(
        "ams",
        Summary::Ams(dctstream::AmsSketch::new(schema, vec![0]).unwrap()),
    )
    .unwrap();
    p.register(
        "skimmed",
        Summary::Skimmed(SkimmedSketch::new(schema, vec![0], vec![domain], 16).unwrap()),
    )
    .unwrap();
    for v in 0..64i64 {
        for name in ["cosine", "ams", "skimmed"] {
            p.process_weighted(name, &[v], (v % 3 + 1) as f64).unwrap();
        }
    }
    for name in ["cosine", "ams", "skimmed"] {
        let s = p.summary(name).unwrap();
        assert_eq!(s.tuple_count(), 127.0, "{name}");
        assert!(s.space() > 0);
    }
}
