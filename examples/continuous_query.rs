//! Continuous query over live streams: two producer threads push tuples
//! through a bounded mpsc channel into a shared [`StreamProcessor`]; a
//! [`ContinuousJoinQuery`] — "issued once and then run continuously"
//! (§1) — samples the join-size estimate as the data flows by.
//!
//! ```text
//! cargo run --release --example continuous_query
//! ```

use dctstream::stream::shared;
use dctstream::{ContinuousJoinQuery, CosineSynopsis, Domain, Grid, StreamProcessor, Summary};
use dctstream_datagen::{correlated_pair, frequencies_to_stream, Correlation};
use std::thread;

fn main() -> dctstream::Result<()> {
    let n = 5_000usize;
    let domain = Domain::of_size(n);
    let m = 256;

    let mut processor = StreamProcessor::new();
    processor.register(
        "trades",
        Summary::Cosine(CosineSynopsis::new(domain, Grid::Midpoint, m)?),
    )?;
    processor.register(
        "calls",
        Summary::Cosine(CosineSynopsis::new(domain, Grid::Midpoint, m)?),
    )?;
    let processor = shared(processor);

    // The continuous query: |trades ⋈ calls| sampled every 20,000 events.
    let mut query = ContinuousJoinQuery::new("trades", "calls", None, 20_000);

    // Producers simulate two unbounded, unsynchronized sources (§1: "no
    // control over the order in which they arrive").
    let (tx, rx) = std::sync::mpsc::sync_channel::<(&'static str, i64)>(1024);
    let (f1, f2) = correlated_pair(
        n,
        0.5,
        1.0,
        100_000,
        100_000,
        Correlation::SmoothPositive,
        99,
    );
    let stream1 = frequencies_to_stream(&f1, 5);
    let stream2 = frequencies_to_stream(&f2, 6);
    let t1 = {
        let tx = tx.clone();
        thread::spawn(move || {
            for v in stream1 {
                tx.send(("trades", v)).expect("consumer alive");
            }
        })
    };
    let t2 = thread::spawn(move || {
        for v in stream2 {
            tx.send(("calls", v)).expect("consumer alive");
        }
    });

    // Consumer: route events, let the continuous query observe progress.
    println!("{:>12} {:>16}", "events", "estimated join");
    for (stream, v) in rx.iter() {
        let mut guard = processor.write();
        guard.process_weighted(stream, &[v], 1.0)?;
        if let Some(est) = query.observe(&mut guard)? {
            println!("{:>12} {est:>16.0}", guard.events_processed());
        }
    }
    t1.join().expect("producer 1");
    t2.join().expect("producer 2");

    // Final report, read from a published snapshot.
    let final_est = processor
        .publish()?
        .estimate_cosine_join("trades", "calls", None)?;
    let exact: f64 = f1.iter().zip(&f2).map(|(&a, &b)| a as f64 * b as f64).sum();
    println!("\nprocessed {} events", processor.read().events_processed());
    println!("samples taken      : {}", query.history().len());
    println!("exact join size    : {exact:.0}");
    println!("final estimate     : {final_est:.0}");
    println!(
        "relative error     : {:.2}%",
        (final_est - exact).abs() / exact * 100.0
    );
    Ok(())
}
