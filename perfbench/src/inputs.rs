//! The four workloads: their fixed parameters, and the inputs generated
//! from the seed the benchmark takes. The program under test only ever
//! sees these generated inputs.

use dctstream_datagen::{inject, CorruptionClass, ZipfSampler};
use dctstream_replay::{
    synthesize, ChainLink, OpMix, RegisterKind, SynthesisConfig, TraceOp, TraceRecord,
};
use dctstream_stream::DenseFreq;
use rand::{rngs::StdRng, RngExt, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Open-loop ingest-heavy traffic against the single-registry daemon.
    ServeIngest,
    /// Closed-loop read-heavy traffic against the single-registry daemon.
    ServeQuery,
    /// Closed-loop mixed traffic against `serve --shards 2`.
    FleetMixed,
    /// The offline `probe` → `build` → `join` pipeline over dirty CSVs.
    BatchBuild,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::ServeIngest,
        Workload::ServeQuery,
        Workload::FleetMixed,
        Workload::BatchBuild,
    ];

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeIngest => "serve-ingest",
            Workload::ServeQuery => "serve-query",
            Workload::FleetMixed => "fleet-mixed",
            Workload::BatchBuild => "batch-build",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The serve parameters, or `None` for the offline workload.
    pub fn serve(self) -> Option<ServeParams> {
        let base = ServeParams {
            shards: 0,
            open_loop: false,
            ops_per_second: 0.0,
            connections: 2,
            tenants: 4,
            mix: OpMix::default(),
            rows_per_ingest: 32,
            m: 64,
            degree: 8,
            preload_ops: 0,
        };
        match self {
            Workload::ServeIngest => Some(ServeParams {
                open_loop: true,
                ops_per_second: SERVE_INGEST_OFFERED_RATE,
                mix: OpMix {
                    ingest: 8,
                    estimate: 1,
                    chain: 1,
                },
                rows_per_ingest: 64,
                ..base
            }),
            Workload::ServeQuery => Some(ServeParams {
                ops_per_second: SERVE_QUERY_PLANNED_RATE,
                tenants: 8,
                mix: OpMix {
                    ingest: 1,
                    estimate: 6,
                    chain: 3,
                },
                m: 512,
                degree: 16,
                preload_ops: 400,
                ..base
            }),
            Workload::FleetMixed => Some(ServeParams {
                shards: 2,
                ops_per_second: FLEET_MIXED_PLANNED_RATE,
                ..base
            }),
            Workload::BatchBuild => None,
        }
    }

    /// The workload's parameters as one `key=value` line for the stamp.
    pub fn params(self) -> String {
        match self.serve() {
            Some(p) => format!(
                "shards={} loop={} ops_per_second={} connections={} tenants={} mix={}:{}:{} \
                 rows_per_ingest={} m={} degree={} preload_ops={} daemon_flags=default",
                p.shards,
                if p.open_loop { "open" } else { "closed" },
                p.ops_per_second,
                p.connections,
                p.tenants,
                p.mix.ingest,
                p.mix.estimate,
                p.mix.chain,
                p.rows_per_ingest,
                p.m,
                p.degree,
                p.preload_ops
            ),
            None => {
                let b = BATCH;
                format!(
                    "files=2 rows_per_file={} key_domain=0:{} m={} zipf={}/{} dirty_fraction={} \
                     clean_head={} build_threads={}",
                    b.rows,
                    b.domain - 1,
                    b.m,
                    b.zipf[0],
                    b.zipf[1],
                    b.dirty_fraction,
                    b.clean_head,
                    b.build_threads
                )
            }
        }
    }
}

/// Offered rate of `serve-ingest`, ops/s: about a quarter of the
/// closed-loop capacity (4.2–5.2k ops/s) of the 2-core box the bounds
/// were tuned on. At half of capacity the latency medians swung by up
/// to 80% between runs there, too far for any usable bound.
pub const SERVE_INGEST_OFFERED_RATE: f64 = 1000.0;
/// Closed-loop ops per second of `--seconds` for `serve-query`: the
/// trace length is fixed by the seed and the run length, so the final
/// state — and the digest of the final answers — repeats exactly.
pub const SERVE_QUERY_PLANNED_RATE: f64 = 10000.0;
/// Closed-loop ops per second of `--seconds` for `fleet-mixed`.
pub const FLEET_MIXED_PLANNED_RATE: f64 = 5000.0;

/// Parameters of one serve workload.
#[derive(Debug, Clone, Copy)]
pub struct ServeParams {
    /// `serve --shards N` (0 = the single-registry daemon).
    pub shards: usize,
    /// Open loop (ops sent at their due times) or closed loop.
    pub open_loop: bool,
    /// Ops per second of `--seconds`: the offered rate of the open
    /// loop, the planned trace length of a closed loop.
    pub ops_per_second: f64,
    /// Sender threads, one keep-alive connection each.
    pub connections: usize,
    /// Tenants (Zipf popularity).
    pub tenants: usize,
    /// Ingest : estimate : chain weights.
    pub mix: OpMix,
    /// Rows per ingest request.
    pub rows_per_ingest: usize,
    /// Cosine coefficients per stream.
    pub m: u32,
    /// Per-dimension coefficients of each tenant's 2-d `m0` stream.
    pub degree: u32,
    /// Ingest-only ops replayed during set-up.
    pub preload_ops: usize,
}

/// Salt separating the preload trace's seed from the measured trace's.
const PRELOAD_SALT: u64 = 0x9E37_79B9_7F4A_7C15;

/// The generated inputs of one serve run.
#[derive(Debug, Clone)]
pub struct ServeInputs {
    /// The register preamble (set-up).
    pub registers: Vec<TraceRecord>,
    /// Ingest-only ops replayed during set-up.
    pub preload: Vec<TraceRecord>,
    /// The measured ops, with due times in `at_us`.
    pub measured: Vec<TraceRecord>,
    /// The fixed final reads answered after the forced publish.
    pub finals: Vec<TraceRecord>,
}

impl ServeInputs {
    /// Set-up and measured ops in order: everything that mutates state.
    pub fn all_ops(&self) -> impl Iterator<Item = &TraceRecord> {
        self.registers
            .iter()
            .chain(&self.preload)
            .chain(&self.measured)
    }
}

fn synth_config(p: &ServeParams, seed: u64, ops: usize) -> SynthesisConfig {
    SynthesisConfig {
        seed,
        ops,
        tenants: p.tenants,
        mix: p.mix,
        rows_per_ingest: p.rows_per_ingest,
        coefficients: p.m,
        degree: p.degree,
        mean_gap_us: (1e6 / p.ops_per_second).round() as u64,
        ..SynthesisConfig::default()
    }
}

/// Generate one serve run's inputs from `seed`.
pub fn serve_inputs(p: &ServeParams, seed: u64, seconds: f64) -> ServeInputs {
    let ops = (p.ops_per_second * seconds).round().max(1.0) as usize;
    let cfg = synth_config(p, seed, ops);
    let trace = synthesize(&cfg).expect("workload parameters are valid");
    let (registers, measured): (Vec<_>, Vec<_>) = trace
        .into_iter()
        .partition(|r| matches!(r.op, TraceOp::Register { .. }));
    let preload = if p.preload_ops == 0 {
        Vec::new()
    } else {
        let cfg = SynthesisConfig {
            seed: seed ^ PRELOAD_SALT,
            ops: p.preload_ops,
            mix: OpMix {
                ingest: 1,
                estimate: 0,
                chain: 0,
            },
            ..cfg.clone()
        };
        synthesize(&cfg)
            .expect("preload parameters are valid")
            .into_iter()
            .filter(|r| !matches!(r.op, TraceOp::Register { .. }))
            .collect()
    };
    ServeInputs {
        registers,
        preload,
        measured,
        finals: final_queries(&cfg),
    }
}

/// The fixed final reads: for every tenant, each unordered pair of its
/// cosine streams as an estimate and as a 3-link chain through `m0`.
fn final_queries(cfg: &SynthesisConfig) -> Vec<TraceRecord> {
    let mut out = Vec::new();
    for t in 0..cfg.tenants {
        let tenant = format!("t{t}");
        for a in 0..cfg.streams_per_tenant {
            for b in a..cfg.streams_per_tenant {
                out.push(TraceRecord {
                    at_us: 0,
                    tenant: tenant.clone(),
                    op: TraceOp::Estimate {
                        left: format!("s{a}"),
                        right: format!("s{b}"),
                        budget: None,
                    },
                });
                out.push(TraceRecord {
                    at_us: 0,
                    tenant: tenant.clone(),
                    op: TraceOp::Chain {
                        links: vec![
                            ChainLink::End {
                                stream: format!("s{a}"),
                            },
                            ChainLink::Inner {
                                stream: "m0".into(),
                                left: 0,
                                right: 1,
                            },
                            ChainLink::End {
                                stream: format!("s{b}"),
                            },
                        ],
                        budget: None,
                    },
                });
            }
        }
    }
    out
}

/// Exact answers over the generated rows. Deletes are turnstile
/// updates, so a value's net frequency can go negative; frequencies are
/// kept signed (`stream::exact`'s tables are unsigned).
#[derive(Debug, Default)]
pub struct ExactState {
    lo: BTreeMap<String, i64>,
    one_d: BTreeMap<String, Vec<f64>>,
    two_d: BTreeMap<String, BTreeMap<(i64, i64), f64>>,
}

impl ExactState {
    /// Replay every register and ingest op.
    pub fn from_ops<'a>(ops: impl Iterator<Item = &'a TraceRecord>) -> Self {
        let mut s = ExactState::default();
        for rec in ops {
            match &rec.op {
                TraceOp::Register {
                    stream,
                    kind: RegisterKind::Cosine { lo, hi, .. },
                } => {
                    let key = format!("{}/{stream}", rec.tenant);
                    s.lo.insert(key.clone(), *lo);
                    s.one_d.insert(key, vec![0.0; (hi - lo + 1) as usize]);
                }
                TraceOp::Register { stream, .. } => {
                    s.two_d
                        .insert(format!("{}/{stream}", rec.tenant), BTreeMap::new());
                }
                TraceOp::Ingest { stream, rows } => {
                    let key = format!("{}/{stream}", rec.tenant);
                    if let Some(freq) = s.one_d.get_mut(&key) {
                        let lo = s.lo[&key];
                        for (t, w) in rows {
                            freq[(t[0] - lo) as usize] += w;
                        }
                    } else if let Some(cells) = s.two_d.get_mut(&key) {
                        for (t, w) in rows {
                            *cells.entry((t[0], t[1])).or_insert(0.0) += w;
                        }
                    }
                }
                TraceOp::Estimate { .. } | TraceOp::Chain { .. } => {}
            }
        }
        s
    }

    /// The exact answer to an estimate or chain op (0 for anything else).
    pub fn answer(&self, rec: &TraceRecord) -> f64 {
        let one = |s: &str| {
            let key = format!("{}/{s}", rec.tenant);
            (self.lo[&key], &self.one_d[&key])
        };
        match &rec.op {
            TraceOp::Estimate { left, right, .. } => {
                let (_, a) = one(left);
                let (_, b) = one(right);
                a.iter().zip(b).map(|(x, y)| x * y).sum()
            }
            TraceOp::Chain { links, .. } => match links.as_slice() {
                [ChainLink::End { stream: a }, ChainLink::Inner { stream: mid, .. }, ChainLink::End { stream: b }] =>
                {
                    let (alo, fa) = one(a);
                    let (blo, fb) = one(b);
                    let cells = &self.two_d[&format!("{}/{mid}", rec.tenant)];
                    cells
                        .iter()
                        .map(|(&(x, y), f)| fa[(x - alo) as usize] * f * fb[(y - blo) as usize])
                        .sum()
                }
                _ => 0.0,
            },
            _ => 0.0,
        }
    }
}

/// Mean of `|est − exact| / exact` over the queries with a positive
/// exact answer, with the count of those queries.
pub fn mean_rel_err(pairs: &[(f64, f64)]) -> (f64, usize) {
    let errs: Vec<f64> = pairs
        .iter()
        .filter(|(_, exact)| *exact > 0.0)
        .map(|(est, exact)| (est - exact).abs() / exact)
        .collect();
    let n = errs.len();
    (errs.iter().sum::<f64>() / n.max(1) as f64, n)
}

/// Parameters of `batch-build`.
#[derive(Debug, Clone, Copy)]
pub struct BatchParams {
    /// Data rows per CSV file.
    pub rows: usize,
    /// Key domain `[0, domain)`.
    pub domain: i64,
    /// Cosine coefficients per synopsis.
    pub m: usize,
    /// Share of rows (after the clean head) corrupted by `datagen::dirty`.
    pub dirty_fraction: f64,
    /// Zipf skew of each file's keys.
    pub zipf: [f64; 2],
    /// Leading rows kept clean, which is also `probe --sample-rows`.
    /// They open with the domain's two ends, so the probed schema
    /// carries the full domain and every injected row is a reject by
    /// construction. A sample this large makes `probe` real work, so
    /// `setup_s` is not one process start.
    pub clean_head: usize,
    /// `build --threads`: the CLI feeds the batched (SIMD-dispatched)
    /// Chebyshev kernel only through `ParallelIngest`; at `--threads 1`
    /// it replays per-row updates instead.
    pub build_threads: usize,
}

/// The `batch-build` parameters.
pub const BATCH: BatchParams = BatchParams {
    rows: 2_000_000,
    domain: 65_536,
    m: 4096,
    dirty_fraction: 0.01,
    zipf: [1.0, 0.7],
    clean_head: 200_000,
    build_threads: 2,
};

/// Domain of the second (non-key) CSV column.
const VAL_DOMAIN: i64 = 1000;

/// One generated CSV file and its ground truth.
#[derive(Debug, Clone)]
pub struct BatchFile {
    /// The file: header plus data rows.
    pub bytes: Vec<u8>,
    /// Keys of the rows intake must accept.
    pub accepted_keys: DenseFreq,
    /// 1-based data-row numbers the rejects ledger must hold.
    pub rejected_rows: BTreeSet<u64>,
    /// Data rows in the file.
    pub rows: u64,
}

/// Generate CSV file `which` (0 or 1) of a `batch-build` run.
pub fn batch_file(p: &BatchParams, seed: u64, which: usize) -> BatchFile {
    let salt = (which as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F);
    let mut rng = StdRng::seed_from_u64(seed ^ salt);
    let zipf = ZipfSampler::new(p.domain as usize, p.zipf[which]);
    let mut keys = Vec::with_capacity(p.rows);
    let mut head = String::from("key,val\n");
    let mut body = String::with_capacity(p.rows * 12);
    for i in 0..p.rows {
        let (k, v) = match i {
            0 => (0, 0),
            1 => (p.domain - 1, VAL_DOMAIN - 1),
            _ => (
                zipf.sample(&mut rng) as i64,
                rng.random_range(0..VAL_DOMAIN),
            ),
        };
        keys.push(k);
        let text = if i < p.clean_head {
            &mut head
        } else {
            &mut body
        };
        let _ = writeln!(text, "{k},{v}");
    }
    let dirty = inject(
        &body,
        p.dirty_fraction,
        seed ^ salt.rotate_left(17),
        &CorruptionClass::ALL,
    );
    let head_rows = p.clean_head.min(p.rows) as u64;
    let rejected_rows: BTreeSet<u64> = dirty
        .corrupted
        .iter()
        .filter(|(_, class)| !class.still_valid())
        .map(|(row, _)| head_rows + row + 1)
        .collect();
    let mut counts = vec![0u64; p.domain as usize];
    for (i, k) in keys.iter().enumerate() {
        if !rejected_rows.contains(&(i as u64 + 1)) {
            counts[*k as usize] += 1;
        }
    }
    let mut bytes = head.into_bytes();
    bytes.extend_from_slice(&dirty.bytes);
    BatchFile {
        bytes,
        accepted_keys: DenseFreq(counts),
        rejected_rows,
        rows: p.rows as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traces_repeat_for_a_seed_and_differ_across_seeds() {
        for w in Workload::ALL {
            let Some(p) = w.serve() else { continue };
            let a = serve_inputs(&p, 7, 0.5);
            let b = serve_inputs(&p, 7, 0.5);
            let c = serve_inputs(&p, 8, 0.5);
            assert_eq!(a.measured, b.measured, "{}", w.name());
            assert_eq!(a.preload, b.preload, "{}", w.name());
            assert_ne!(a.measured, c.measured, "{}", w.name());
            assert!(!a.registers.is_empty());
            assert!(a
                .measured
                .iter()
                .all(|r| !matches!(r.op, TraceOp::Register { .. })));
        }
    }

    #[test]
    fn csvs_repeat_for_a_seed_and_differ_across_seeds() {
        let p = BatchParams {
            rows: 20_000,
            clean_head: 2_000,
            ..BATCH
        };
        let a = batch_file(&p, 3, 0);
        let b = batch_file(&p, 3, 0);
        let c = batch_file(&p, 4, 0);
        assert_eq!(a.bytes, b.bytes);
        assert_eq!(a.rejected_rows, b.rejected_rows);
        assert_ne!(a.bytes, c.bytes);
        assert_ne!(a.bytes, batch_file(&p, 3, 1).bytes, "the two files differ");
        // Dirty rows only after the clean head, about 1% of the rest.
        assert!(a.rejected_rows.iter().all(|&r| r > p.clean_head as u64));
        let dirty = a.rejected_rows.len() as f64 / (p.rows - p.clean_head) as f64;
        assert!((0.003..0.02).contains(&dirty), "{dirty}");
        let accepted: u64 = a.accepted_keys.0.iter().sum();
        assert!(accepted < a.rows && accepted > a.rows * 98 / 100);
    }

    #[test]
    fn exact_answers_follow_turnstile_rows() {
        let rec = |op| TraceRecord {
            at_us: 0,
            tenant: "t".into(),
            op,
        };
        let reg = |s: &str| {
            rec(TraceOp::Register {
                stream: s.into(),
                kind: RegisterKind::Cosine { lo: 0, hi: 3, m: 4 },
            })
        };
        let ops = [
            reg("a"),
            reg("b"),
            rec(TraceOp::Ingest {
                stream: "a".into(),
                rows: vec![(vec![1], 1.0), (vec![1], 1.0), (vec![2], -1.0)],
            }),
            rec(TraceOp::Ingest {
                stream: "b".into(),
                rows: vec![(vec![1], 3.0), (vec![2], 1.0)],
            }),
        ];
        let s = ExactState::from_ops(ops.iter());
        let q = rec(TraceOp::Estimate {
            left: "a".into(),
            right: "b".into(),
            budget: None,
        });
        assert_eq!(s.answer(&q), 2.0 * 3.0 - 1.0);
    }
}
