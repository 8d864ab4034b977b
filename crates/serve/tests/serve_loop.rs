//! End-to-end daemon tests over a real socket: concurrent clients
//! during active ingest, tenant isolation, and the crash leg — kill the
//! daemon mid-ingest and verify the recovered registry answers
//! bit-identically for everything it acked.

use dctstream_serve::{ServeOptions, Server};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dctserve_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// One blocking HTTP/1.1 exchange on a fresh connection.
fn request(addr: SocketAddr, method: &str, path_query: &str, body: &str) -> (u16, String) {
    let mut conn = TcpStream::connect(addr).expect("connect to daemon");
    write!(
        conn,
        "{method} {path_query} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    let mut raw = String::new();
    conn.read_to_string(&mut raw).expect("read response");
    let status: u16 = raw
        .strip_prefix("HTTP/1.1 ")
        .and_then(|r| r.get(..3))
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("malformed response: {raw:?}"));
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

/// Pull a numeric field out of the daemon's flat JSON bodies.
fn json_num(body: &str, field: &str) -> f64 {
    let key = format!("\"{field}\":");
    let rest = &body[body
        .find(&key)
        .unwrap_or_else(|| panic!("no {field} in {body}"))
        + key.len()..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end]
        .trim()
        .parse()
        .unwrap_or_else(|e| panic!("bad {field} in {body}: {e}"))
}

fn register_cosine(addr: SocketAddr, tenant: &str, stream: &str) {
    let (status, body) = request(
        addr,
        "POST",
        &format!("/v1/register?tenant={tenant}&stream={stream}&lo=0&hi=31&m=16"),
        "",
    );
    assert_eq!(status, 200, "{body}");
}

fn ingest(addr: SocketAddr, tenant: &str, stream: &str, rows: &str) -> (u16, String) {
    request(
        addr,
        "POST",
        &format!("/v1/ingest?tenant={tenant}&stream={stream}"),
        rows,
    )
}

/// The acceptance gate for the lock-convoy fix: four reader clients all
/// complete their estimate queries over the socket *while* a writer
/// client ingests continuously. Under the old flush-on-read design the
/// readers would serialize behind the ingest write lock.
#[test]
fn concurrent_readers_progress_during_active_ingest() {
    let dir = tmp_dir("concurrent");
    let (server, _report) = Server::start(
        &dir,
        "127.0.0.1:0",
        ServeOptions {
            workers: 6,
            publish_every: 64,
            ..ServeOptions::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();
    register_cosine(addr, "acme", "l");
    register_cosine(addr, "acme", "r");
    // Seed both streams so estimates are non-trivial from the start.
    let seed: String = (0..64).map(|v| format!("{}\n", v % 32)).collect();
    assert_eq!(ingest(addr, "acme", "l", &seed).0, 200);
    assert_eq!(ingest(addr, "acme", "r", &seed).0, 200);

    let stop = Arc::new(AtomicBool::new(false));
    let batches = Arc::new(AtomicU64::new(0));
    let writer = {
        let (stop, batches) = (Arc::clone(&stop), Arc::clone(&batches));
        std::thread::spawn(move || {
            let rows: String = (0..50).map(|v| format!("{}:2\n", (v * 7) % 32)).collect();
            while !stop.load(Ordering::SeqCst) {
                let (status, body) = ingest(addr, "acme", "l", &rows);
                assert_eq!(status, 200, "{body}");
                batches.fetch_add(1, Ordering::SeqCst);
            }
        })
    };

    const READERS: usize = 4;
    const ESTIMATES_EACH: usize = 25;
    let readers: Vec<_> = (0..READERS)
        .map(|_| {
            std::thread::spawn(move || {
                for _ in 0..ESTIMATES_EACH {
                    let (status, body) =
                        request(addr, "GET", "/v1/estimate?tenant=acme&left=l&right=r", "");
                    assert_eq!(status, 200, "{body}");
                    let est = json_num(&body, "estimate");
                    assert!(est.is_finite());
                    // Every answer states how stale it is.
                    assert!(json_num(&body, "epoch") >= 1.0);
                    let _ = json_num(&body, "records_behind");
                    let _ = json_num(&body, "gross_weight_behind");
                }
            })
        })
        .collect();
    for r in readers {
        r.join().expect("reader panicked");
    }
    // The readers finished while the writer was still going.
    assert!(
        !stop.load(Ordering::SeqCst),
        "readers outlived the writer harness"
    );
    stop.store(true, Ordering::SeqCst);
    writer.join().expect("writer panicked");
    assert!(
        batches.load(Ordering::SeqCst) > 0,
        "writer made no progress while readers ran"
    );

    let report = server.shutdown(true);
    assert!(matches!(report.checkpoint, Some(Ok(_))), "{report:?}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Tenants are namespaces: the same stream names under two tenants hold
/// different data, and one tenant cannot read another's streams.
#[test]
fn tenants_are_isolated_namespaces() {
    let dir = tmp_dir("tenants");
    let (server, _) = Server::start(
        &dir,
        "127.0.0.1:0",
        ServeOptions {
            publish_every: 1,
            ..ServeOptions::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();
    for tenant in ["acme", "globex"] {
        register_cosine(addr, tenant, "l");
        register_cosine(addr, tenant, "r");
    }
    // Same shape, different mass: acme gets 3x the weight.
    let rows: String = (0..40).map(|v| format!("{}\n", v % 32)).collect();
    let heavy: String = (0..40).map(|v| format!("{}:3\n", v % 32)).collect();
    for s in ["l", "r"] {
        assert_eq!(ingest(addr, "acme", s, &heavy).0, 200);
        assert_eq!(ingest(addr, "globex", s, &rows).0, 200);
    }
    let (s1, acme) = request(addr, "GET", "/v1/estimate?tenant=acme&left=l&right=r", "");
    let (s2, globex) = request(addr, "GET", "/v1/estimate?tenant=globex&left=l&right=r", "");
    assert_eq!((s1, s2), (200, 200), "{acme} / {globex}");
    let (ea, eg) = (json_num(&acme, "estimate"), json_num(&globex, "estimate"));
    assert!(
        (ea - 9.0 * eg).abs() < 1e-6 * ea.abs().max(1.0),
        "3x weight per side must scale the join estimate 9x: {ea} vs {eg}"
    );
    // Unknown tenant (or unregistered stream) is a typed rejection, not
    // a fallback to someone else's data.
    let (status, body) = request(
        addr,
        "GET",
        "/v1/estimate?tenant=initech&left=l&right=r",
        "",
    );
    assert_eq!(status, 422, "{body}");
    // Listing is scoped too.
    let (status, body) = request(addr, "GET", "/v1/streams?tenant=acme", "");
    assert_eq!(status, 200);
    assert!(
        body.contains("\"stream\":\"l\"") && !body.contains("globex"),
        "{body}"
    );

    server.shutdown(false);
    std::fs::remove_dir_all(&dir).ok();
}

/// Protocol edges: unknown routes, wrong methods, malformed rows.
#[test]
fn protocol_errors_are_status_codes_not_hangs() {
    let dir = tmp_dir("errors");
    let (server, _) = Server::start(&dir, "127.0.0.1:0", ServeOptions::default()).unwrap();
    let addr = server.local_addr();
    assert_eq!(request(addr, "GET", "/nope", "").0, 404);
    assert_eq!(request(addr, "GET", "/v1/ingest?stream=x", "").0, 405);
    assert_eq!(request(addr, "POST", "/v1/register?stream=x", "").0, 400);
    register_cosine(addr, "default", "s");
    // A malformed row no longer fails the batch: it is quarantined with
    // row-level attribution in the answer.
    let (status, body) = ingest(addr, "default", "s", "not-a-number\n");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"accepted\":0"), "{body}");
    assert!(body.contains("\"rejected\":1"), "{body}");
    assert!(body.contains("\"row\":1"), "{body}");
    // An empty body is still a usage error — there is nothing to ack.
    assert_eq!(ingest(addr, "default", "s", "").0, 400);
    assert_eq!(request(addr, "GET", "/healthz", "").0, 200);
    let (status, metrics) = request(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    assert!(metrics.contains("serve_requests_total"), "{metrics}");
    server.shutdown(false);
    std::fs::remove_dir_all(&dir).ok();
}

/// Read one response off a keep-alive connection by its framing alone:
/// status line, headers, then exactly `Content-Length` body bytes.
fn read_framed(reader: &mut BufReader<TcpStream>) -> (String, usize, String) {
    let mut status_line = String::new();
    reader.read_line(&mut status_line).unwrap();
    let mut content_length = None;
    loop {
        let mut h = String::new();
        reader.read_line(&mut h).unwrap();
        let h = h.trim_end();
        if h.is_empty() {
            break;
        }
        if let Some(v) = h.strip_prefix("Content-Length: ") {
            content_length = Some(v.parse::<usize>().unwrap());
        }
    }
    let len = content_length.expect("Content-Length header");
    let mut body = vec![0u8; len];
    reader.read_exact(&mut body).unwrap();
    (status_line, len, String::from_utf8(body).unwrap())
}

/// An estimate answer read off a raw socket is one well-framed response:
/// its `Content-Length` is the body's length, and the next answer on the
/// same keep-alive connection starts right after it.
#[test]
fn estimate_answer_is_framed_by_its_content_length() {
    let dir = tmp_dir("framing");
    let (server, _) = Server::start(&dir, "127.0.0.1:0", ServeOptions::default()).unwrap();
    let addr = server.local_addr();
    register_cosine(addr, "acme", "l");
    assert_eq!(ingest(addr, "acme", "l", "1\n2\n3:2.5\n").0, 200);
    // A checkpoint publishes, so the estimate sees the rows.
    assert_eq!(request(addr, "POST", "/v1/checkpoint", "").0, 200);
    let mut conn = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(conn.try_clone().unwrap());
    for _ in 0..2 {
        conn.write_all(b"GET /v1/estimate?tenant=acme&left=l&right=l HTTP/1.1\r\nHost: t\r\n\r\n")
            .unwrap();
        let (status_line, len, body) = read_framed(&mut reader);
        assert_eq!(status_line, "HTTP/1.1 200 OK\r\n");
        assert_eq!(len, body.len());
        assert!(body.starts_with('{') && body.ends_with('}'), "{body}");
        assert!(json_num(&body, "estimate") > 0.0, "{body}");
    }
    drop((conn, reader));
    server.shutdown(false);
    std::fs::remove_dir_all(&dir).ok();
}

/// `serve.respond` times every response write, the 400 for an
/// unparseable request included, and `/metrics` exports it.
#[test]
fn respond_stage_is_exported_through_metrics() {
    let dir = tmp_dir("respond_span");
    let (server, _) = Server::start(&dir, "127.0.0.1:0", ServeOptions::default()).unwrap();
    let addr = server.local_addr();
    let respond_count = |metrics: &str| -> u64 {
        metrics
            .lines()
            .find_map(|l| l.strip_prefix("dctstream_serve_respond_count "))
            .unwrap_or_else(|| panic!("no serve.respond histogram in {metrics}"))
            .parse()
            .unwrap()
    };
    assert_eq!(request(addr, "GET", "/healthz", "").0, 200);
    let (status, metrics) = request(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    let before = respond_count(&metrics);
    assert!(before >= 1, "{metrics}");
    assert!(
        metrics.contains("dctstream_serve_respond_bucket{le="),
        "{metrics}"
    );
    let mut conn = TcpStream::connect(addr).unwrap();
    conn.write_all(b"GARBAGE\r\n\r\n").unwrap();
    let mut raw = String::new();
    conn.read_to_string(&mut raw).unwrap();
    assert!(raw.starts_with("HTTP/1.1 400 Bad Request\r\n"), "{raw}");
    // The first /metrics answer and the 400 were both written since.
    let after = respond_count(&request(addr, "GET", "/metrics", "").1);
    assert!(after >= before + 2, "{before} -> {after}");
    server.shutdown(false);
    std::fs::remove_dir_all(&dir).ok();
}

/// Row-level quarantine over the socket: a dirty batch lands its good
/// rows, attributes every bad one (body line + cause), and only the
/// accepted rows shape the estimate. With `reject_threshold`, a mostly
/// bad batch quarantines the stream through the health registry.
#[test]
fn ingest_quarantines_bad_rows_with_attribution() {
    let dir = tmp_dir("rejects");
    let (server, _) = Server::start(
        &dir,
        "127.0.0.1:0",
        ServeOptions {
            publish_every: 1,
            ..ServeOptions::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();
    register_cosine(addr, "acme", "dirty");
    register_cosine(addr, "acme", "clean");

    // Line 2 fails to parse, line 4 is out of the registered domain,
    // line 5 has the wrong arity; lines 1 and 3 are good.
    let (status, body) = ingest(addr, "acme", "dirty", "3\nsoup\n7:2\n99\n1,2\n");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"accepted\":2"), "{body}");
    assert!(body.contains("\"rejected\":3"), "{body}");
    for row in ["\"row\":2", "\"row\":4", "\"row\":5"] {
        assert!(body.contains(row), "missing {row} in {body}");
    }
    // The accepted rows alone define the stream: bit-identical to a
    // clean ingest of just the good rows.
    assert_eq!(ingest(addr, "acme", "clean", "3\n7:2\n").0, 200);
    let (s1, dirty) = request(
        addr,
        "GET",
        "/v1/estimate?tenant=acme&left=dirty&right=dirty",
        "",
    );
    let (s2, clean) = request(
        addr,
        "GET",
        "/v1/estimate?tenant=acme&left=clean&right=clean",
        "",
    );
    assert_eq!((s1, s2), (200, 200), "{dirty} / {clean}");
    assert_eq!(
        json_num(&dirty, "estimate").to_bits(),
        json_num(&clean, "estimate").to_bits(),
        "accepted rows must shape the synopsis exactly: {dirty} vs {clean}"
    );

    // Past the threshold: typed rejection and a quarantined stream —
    // checkpoints now refuse until the operator intervenes.
    let (status, body) = request(
        addr,
        "POST",
        "/v1/ingest?tenant=acme&stream=dirty&reject_threshold=0.5",
        "bad\nworse\nterrible\n5\n",
    );
    assert_eq!(status, 422, "{body}");
    assert!(body.contains("quarantined"), "{body}");
    let (status, body) = request(addr, "POST", "/v1/checkpoint", "");
    assert_eq!(
        status, 422,
        "quarantined stream must block checkpoint: {body}"
    );

    server.shutdown(false);
    std::fs::remove_dir_all(&dir).ok();
}

/// A quarantined stream is never read silently: after the reject-rate
/// quarantine, estimates and chains over it answer from its checkpointed
/// summary — bit-identical to the checkpoint-time answer — and name it
/// in a `degraded` entry with its post-checkpoint staleness. Answers
/// that do not read it keep their healthy shape.
#[test]
fn quarantined_stream_answers_from_its_checkpoint_with_attribution() {
    let dir = tmp_dir("degraded");
    let (server, _) = Server::start(
        &dir,
        "127.0.0.1:0",
        ServeOptions {
            publish_every: 1,
            ..ServeOptions::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();
    register_cosine(addr, "default", "l");
    register_cosine(addr, "default", "r");
    let rows: String = (0..40).map(|v| format!("{}\n", (v * 3) % 32)).collect();
    assert_eq!(ingest(addr, "default", "l", &rows).0, 200);
    assert_eq!(ingest(addr, "default", "r", &rows).0, 200);
    let (status, body) = request(addr, "POST", "/v1/checkpoint", "");
    assert_eq!(status, 200, "{body}");
    let (_, body) = request(addr, "GET", "/v1/estimate?left=l&right=r", "");
    let at_checkpoint = json_num(&body, "estimate");
    assert!(!body.contains("degraded"), "{body}");

    // Five post-checkpoint records (gross mass 6.5), then a batch that
    // trips the reject threshold after applying its one good row.
    assert_eq!(ingest(addr, "default", "l", "1\n2\n3:2.5\n4\n5\n").0, 200);
    let (status, body) = request(
        addr,
        "POST",
        "/v1/ingest?stream=l&reject_threshold=0.5",
        "bad\nworse\n7\n",
    );
    assert_eq!(status, 422, "{body}");

    let expected = "{\"stream\":\"default/l\",\"state\":\"quarantined\",\
                    \"checkpoint_watermark\":82,\"records_behind\":6,\"gross_weight_behind\":7.5}";
    let (status, body) = request(addr, "GET", "/v1/estimate?left=l&right=r", "");
    assert_eq!(status, 200, "{body}");
    assert_eq!(
        json_num(&body, "estimate").to_bits(),
        at_checkpoint.to_bits(),
        "the substitute is the checkpointed summary: {body}"
    );
    assert!(body.contains(expected), "{body}");
    let (status, body) = request(addr, "POST", "/v1/chain", "end l\nend r\n");
    assert_eq!(status, 200, "{body}");
    assert_eq!(
        json_num(&body, "estimate").to_bits(),
        at_checkpoint.to_bits()
    );
    assert!(body.contains(expected), "{body}");
    // An answer that does not read 'l' carries no degraded field.
    let (status, body) = request(addr, "GET", "/v1/estimate?left=r&right=r", "");
    assert_eq!(status, 200, "{body}");
    assert!(!body.contains("degraded"), "{body}");

    server.shutdown(false);
    std::fs::remove_dir_all(&dir).ok();
}

/// The slowloris regression: a client that sends half a request and
/// stalls cannot pin the (single) worker past the request deadline — a
/// healthy client connecting afterwards is still served.
#[test]
fn half_sent_request_cannot_pin_a_worker() {
    let dir = tmp_dir("slowloris");
    let (server, _) = Server::start(
        &dir,
        "127.0.0.1:0",
        ServeOptions {
            workers: 1,
            request_timeout_ms: 300,
            ..ServeOptions::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    // Stall mid-request-line and keep the socket open.
    let mut stalled = TcpStream::connect(addr).unwrap();
    stalled.write_all(b"GET /healthz HTT").unwrap();
    // Wait until the lone worker has demonstrably picked the stalled
    // connection up (readiness, not a guessed sleep that flakes on a
    // loaded runner).
    let t0 = std::time::Instant::now();
    while server.active_connections() < 1 {
        assert!(
            t0.elapsed() < std::time::Duration::from_secs(5),
            "worker never picked up the stalled connection"
        );
        std::thread::sleep(std::time::Duration::from_millis(2));
    }

    // The healthy client must get through once the deadline cuts the
    // stalled connection off (well under the old 5s per-read timeout).
    let start = std::time::Instant::now();
    let (status, body) = request(addr, "GET", "/healthz", "");
    assert_eq!(status, 200, "{body}");
    assert!(
        start.elapsed() < std::time::Duration::from_secs(3),
        "healthy client waited {:?} behind a stalled one",
        start.elapsed()
    );
    // The stalled connection was closed on the server side.
    let mut buf = [0u8; 16];
    stalled
        .set_read_timeout(Some(std::time::Duration::from_secs(3)))
        .unwrap();
    assert_eq!(
        stalled.read(&mut buf).unwrap_or(0),
        0,
        "server must close the half-sent connection without a response"
    );

    server.shutdown(false);
    std::fs::remove_dir_all(&dir).ok();
}

/// Fleet mode over the socket: hash-routed ingest, merged answers, a
/// shard kill answered from the follower with attribution, and a fleet
/// restart that reopens from the manifest.
#[test]
fn fleet_daemon_degrades_and_recovers_over_http() {
    let dir = tmp_dir("fleet");
    let opts = ServeOptions {
        shards: 4,
        publish_every: 1,
        ..ServeOptions::default()
    };
    let (server, _) = Server::start(&dir, "127.0.0.1:0", opts.clone()).unwrap();
    let addr = server.local_addr();
    register_cosine(addr, "acme", "l");
    register_cosine(addr, "acme", "r");
    let rows: String = (0..120).map(|v| format!("{}\n", v % 32)).collect();
    assert_eq!(ingest(addr, "acme", "l", &rows).0, 200);
    assert_eq!(ingest(addr, "acme", "r", &rows).0, 200);

    // Healthy fleet: merged answer, empty degraded list.
    let (status, body) = request(addr, "GET", "/v1/estimate?tenant=acme&left=l&right=r", "");
    assert_eq!(status, 200, "{body}");
    let healthy = json_num(&body, "estimate");
    assert!(body.contains("\"degraded\":[]"), "{body}");

    // Ship followers to parity, then kill one shard.
    let (status, body) = request(addr, "POST", "/v1/fleet/ship", "");
    assert_eq!(status, 200, "{body}");
    server
        .with_fleet(|f| {
            while f
                .ship_and_replay()
                .unwrap()
                .iter()
                .any(|r| r.budget_exhausted || r.bytes_shipped > 0)
            {}
            f.kill(1).unwrap();
        })
        .expect("fleet backend");

    // Status shows the dead shard; estimates still answer, attributed.
    let (status, body) = request(addr, "GET", "/v1/fleet", "");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"alive\":false"), "{body}");
    let (status, body) = request(addr, "GET", "/v1/estimate?tenant=acme&left=l&right=r", "");
    assert_eq!(status, 200, "{body}");
    let degraded = json_num(&body, "estimate");
    assert!(body.contains("\"degraded\":[{\"shard\":1"), "{body}");
    assert_eq!(
        healthy.to_bits(),
        degraded.to_bits(),
        "follower at parity must answer bit-identically: {healthy} vs {degraded}"
    );

    // Restart over the same directory: the manifest reopens the fleet
    // (the killed shard's durable directory recovers on open).
    server.kill();
    let (revived, _) = Server::start(&dir, "127.0.0.1:0", opts).unwrap();
    let addr = revived.local_addr();
    let (status, body) = request(addr, "GET", "/v1/estimate?tenant=acme&left=l&right=r", "");
    assert_eq!(status, 200, "{body}");
    assert_eq!(
        json_num(&body, "estimate").to_bits(),
        healthy.to_bits(),
        "reopened fleet must answer bit-identically: {body}"
    );
    assert!(body.contains("\"degraded\":[]"), "{body}");
    revived.shutdown(true);
    std::fs::remove_dir_all(&dir).ok();
}

/// A two-shard daemon that publishes only on register, checkpoint,
/// startup, failure and generation moves: an ingest never reaches the
/// `publish_every` threshold in these tests.
fn quiet_fleet(dir: &std::path::Path) -> Server {
    let opts = ServeOptions {
        shards: 2,
        publish_every: 1_000_000,
        ..ServeOptions::default()
    };
    Server::start(dir, "127.0.0.1:0", opts).unwrap().0
}

/// `count` distinct values in `0..32` that route to `shard`, one per line.
fn rows_on_shard(server: &Server, shard: usize, count: usize) -> String {
    let rows: Vec<String> = (0..32i64)
        .filter(|v| server.with_fleet(|f| f.route(&[*v])) == Some(shard))
        .take(count)
        .map(|v| format!("{v}\n"))
        .collect();
    assert_eq!(rows.len(), count, "too few values route to shard {shard}");
    rows.concat()
}

/// Ship every follower to parity.
fn ship_to_parity(server: &Server) {
    server
        .with_fleet(|f| {
            while f
                .ship_and_replay()
                .unwrap()
                .iter()
                .any(|r| r.budget_exhausted || r.bytes_shipped > 0)
            {}
        })
        .expect("fleet backend");
}

/// Fleet reads answer from the published merged snapshot: on an idle
/// fleet, back-to-back answers read the same epoch.
#[test]
fn fleet_idle_answers_share_the_published_epoch() {
    let dir = tmp_dir("fleet_idle");
    let server = quiet_fleet(&dir);
    let addr = server.local_addr();
    register_cosine(addr, "default", "l");
    let rows: String = (0..40).map(|v| format!("{}\n", v % 32)).collect();
    assert_eq!(ingest(addr, "default", "l", &rows).0, 200);
    let (s1, first) = request(addr, "GET", "/v1/estimate?left=l&right=l", "");
    let (s2, second) = request(addr, "GET", "/v1/estimate?left=l&right=l", "");
    assert_eq!((s1, s2), (200, 200), "{first} / {second}");
    assert_eq!(
        json_num(&first, "epoch"),
        json_num(&second, "epoch"),
        "an idle fleet must not mint an epoch per answer: {first} / {second}"
    );
    assert_eq!(json_num(&first, "epoch"), server.published_epoch() as f64);
    server.shutdown(false);
    std::fs::remove_dir_all(&dir).ok();
}

/// A kill and a promotion reach the very next answer, with no ingest
/// (and so no publish) in between: they move the fleet generation.
#[test]
fn fleet_kill_and_promote_reach_the_next_answer() {
    let dir = tmp_dir("fleet_generation");
    let server = quiet_fleet(&dir);
    let addr = server.local_addr();
    register_cosine(addr, "default", "l");
    let rows: String = (0..40).map(|v| format!("{}\n", v % 32)).collect();
    assert_eq!(ingest(addr, "default", "l", &rows).0, 200);
    let estimate = || request(addr, "GET", "/v1/estimate?left=l&right=l", "");
    // The ingest did not publish: the answer trails by its 40 rows.
    let (_, body) = estimate();
    assert!(body.contains("\"degraded\":[]"), "{body}");
    assert_eq!(json_num(&body, "records_behind"), 40.0, "{body}");

    ship_to_parity(&server);
    server.with_fleet(|f| f.kill(1).unwrap()).unwrap();
    let (status, body) = estimate();
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"degraded\":[{\"shard\":1,"), "{body}");
    assert_eq!(json_num(&body, "records_behind"), 0.0, "{body}");

    server.with_fleet(|f| f.promote(1).unwrap()).unwrap();
    let (status, body) = estimate();
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"degraded\":[]"), "{body}");
    server.shutdown(false);
    std::fs::remove_dir_all(&dir).ok();
}

/// Fleet answers trail by up to `publish_every` rows and say so:
/// `records_behind` is exactly the rows ingested since the last publish,
/// after a reopen and after a batch that failed on a killed shard once
/// the live shard had applied its part.
#[test]
fn fleet_records_behind_counts_rows_since_the_last_publish() {
    let dir = tmp_dir("fleet_behind");
    let estimate = |addr| request(addr, "GET", "/v1/estimate?left=l&right=l", "");

    // Reopen: the restarted daemon's first publish already holds the
    // recovered rows, so only the rows after it are behind.
    let server = quiet_fleet(&dir);
    let addr = server.local_addr();
    register_cosine(addr, "default", "l");
    let rows: String = (0..60).map(|v| format!("{}\n", v % 32)).collect();
    assert_eq!(ingest(addr, "default", "l", &rows).0, 200);
    server.shutdown(true);
    let server = quiet_fleet(&dir);
    let addr = server.local_addr();
    let (_, body) = estimate(addr);
    assert_eq!(json_num(&body, "records_behind"), 0.0, "{body}");
    assert_eq!(ingest(addr, "default", "l", "1\n2\n3\n4\n5\n").0, 200);
    let (_, body) = estimate(addr);
    assert_eq!(json_num(&body, "records_behind"), 5.0, "{body}");
    assert_eq!(json_num(&body, "gross_weight_behind"), 5.0, "{body}");

    // Partial failure: shard 1 is dead, so a batch routed to both
    // shards fails after shard 0 applied (and synced) its part.
    ship_to_parity(&server);
    server.with_fleet(|f| f.kill(1).unwrap()).unwrap();
    let both = format!(
        "{}{}",
        rows_on_shard(&server, 0, 4),
        rows_on_shard(&server, 1, 4)
    );
    let (status, body) = ingest(addr, "default", "l", &both);
    assert_eq!(status, 422, "{body}");
    let (_, body) = estimate(addr);
    assert_eq!(json_num(&body, "records_behind"), 0.0, "{body}");
    let live = rows_on_shard(&server, 0, 3);
    assert_eq!(ingest(addr, "default", "l", &live).0, 200);
    let (_, body) = estimate(addr);
    assert_eq!(json_num(&body, "records_behind"), 3.0, "{body}");
    assert!(body.contains("\"degraded\":[{\"shard\":1,"), "{body}");
    server.shutdown(false);
    std::fs::remove_dir_all(&dir).ok();
}

/// The reject-rate quarantine covers the fleet too: past the threshold
/// the stream is quarantined on every shard, so checkpoints and further
/// ingest are refused, and answers naming it read each shard's
/// checkpointed summary and carry the stream's `degraded` entries.
#[test]
fn fleet_reject_threshold_quarantines_the_stream() {
    let dir = tmp_dir("fleet_quarantine");
    let server = quiet_fleet(&dir);
    let addr = server.local_addr();
    register_cosine(addr, "default", "l");
    register_cosine(addr, "default", "r");
    let rows: String = (0..40).map(|v| format!("{}\n", (v * 3) % 32)).collect();
    assert_eq!(ingest(addr, "default", "l", &rows).0, 200);
    assert_eq!(ingest(addr, "default", "r", &rows).0, 200);
    let (status, body) = request(addr, "POST", "/v1/checkpoint", "");
    assert_eq!(status, 200, "{body}");
    let (_, body) = request(addr, "GET", "/v1/estimate?left=l&right=r", "");
    let at_checkpoint = json_num(&body, "estimate");

    // Post-checkpoint rows, then a batch that trips the threshold
    // after applying its one good row (7).
    assert_eq!(ingest(addr, "default", "l", "1\n2\n3:2.5\n4\n5\n").0, 200);
    let (status, body) = request(
        addr,
        "POST",
        "/v1/ingest?stream=l&reject_threshold=0.5",
        "bad\nworse\n7\n",
    );
    assert_eq!(status, 422, "{body}");
    assert!(body.contains("quarantined"), "{body}");

    let (status, body) = request(addr, "POST", "/v1/checkpoint", "");
    assert_eq!(
        status, 422,
        "quarantined stream must block checkpoint: {body}"
    );
    let (status, body) = ingest(addr, "default", "l", "9\n");
    assert_eq!(status, 422, "quarantined stream must refuse ingest: {body}");

    // One entry per shard, in shard order. Each shard's checkpoint
    // covers its two registrations plus its share of the 80 rows; its
    // staleness is its share of the six post-checkpoint rows.
    let on = |v: i64| server.with_fleet(|f| f.route(&[v])).unwrap();
    let entry = |shard: usize| {
        let pre = (0..40).filter(|v| on((v * 3) % 32) == shard).count() * 2;
        let post: Vec<(i64, f64)> = [(1, 1.0), (2, 1.0), (3, 2.5), (4, 1.0), (5, 1.0), (7, 1.0)]
            .into_iter()
            .filter(|(v, _)| on(*v) == shard)
            .collect();
        format!(
            "{{\"stream\":\"default/l\",\"state\":\"quarantined\",\"checkpoint_watermark\":{},\
             \"records_behind\":{},\"gross_weight_behind\":{}}}",
            2 + pre,
            post.len(),
            post.iter().map(|(_, w)| w).sum::<f64>()
        )
    };
    let expected = format!("\"degraded\":[{},{}]", entry(0), entry(1));
    let (status, body) = request(addr, "GET", "/v1/estimate?left=l&right=r", "");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains(&expected), "{body}\nexpected {expected}");
    assert_eq!(
        json_num(&body, "estimate").to_bits(),
        at_checkpoint.to_bits(),
        "the substitute is the checkpointed summary: {body}"
    );
    let (status, body) = request(addr, "GET", "/v1/estimate?left=r&right=r", "");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"degraded\":[]"), "{body}");
    server.shutdown(false);
    std::fs::remove_dir_all(&dir).ok();
}

/// The crash leg: kill the daemon mid-ingest (no shutdown checkpoint, no
/// final sync) and restart over the same directory. Everything the
/// daemon acked was fsynced before the ack, so the recovered registry
/// must answer exactly — bit-identically — as it did before the crash.
#[test]
fn kill_mid_ingest_recovers_acked_data_bit_identically() {
    let dir = tmp_dir("kill");
    let opts = ServeOptions {
        publish_every: 1, // publish on every batch: estimates are live
        ..ServeOptions::default()
    };
    let (server, _) = Server::start(&dir, "127.0.0.1:0", opts.clone()).unwrap();
    let addr = server.local_addr();
    register_cosine(addr, "acme", "l");
    register_cosine(addr, "acme", "r");
    for batch in 0..10 {
        let rows: String = (0..40)
            .map(|v| format!("{}:{}\n", (v + batch * 3) % 32, 1 + batch % 3))
            .collect();
        assert_eq!(ingest(addr, "acme", "l", &rows).0, 200);
        assert_eq!(ingest(addr, "acme", "r", &rows).0, 200);
    }
    let (status, body) = request(addr, "GET", "/v1/estimate?tenant=acme&left=l&right=r", "");
    assert_eq!(status, 200, "{body}");
    let before = json_num(&body, "estimate");
    assert_eq!(
        json_num(&body, "records_behind"),
        0.0,
        "publish_every=1 keeps reads fresh: {body}"
    );
    let events_before = server
        .with_registry(|dp| dp.events_processed())
        .expect("single-registry daemon");

    // Crash: no final sync, no checkpoint. Acked records were already
    // fsynced (the ack *is* the durability receipt), so nothing acked
    // may be lost.
    server.kill();

    let (revived, report) = Server::start(&dir, "127.0.0.1:0", opts).unwrap();
    assert!(
        report.replayed > 0,
        "recovery must replay the WAL: {report:?}"
    );
    let addr = revived.local_addr();
    let events_after = revived
        .with_registry(|dp| dp.events_processed())
        .expect("single-registry daemon");
    assert_eq!(
        events_after, events_before,
        "acked events lost in the crash"
    );
    let (status, body) = request(addr, "GET", "/v1/estimate?tenant=acme&left=l&right=r", "");
    assert_eq!(status, 200, "{body}");
    let after = json_num(&body, "estimate");
    assert!(
        before.to_bits() == after.to_bits(),
        "recovered estimate must be bit-identical: {before} vs {after}"
    );

    // And the revived daemon keeps serving: more ingest, fresh answers.
    assert_eq!(ingest(addr, "acme", "l", "1\n2\n3\n").0, 200);
    let (status, body) = request(addr, "GET", "/v1/estimate?tenant=acme&left=l&right=r", "");
    assert_eq!(status, 200, "{body}");
    assert!(json_num(&body, "epoch") >= 1.0);
    let report = revived.shutdown(true);
    assert!(matches!(report.checkpoint, Some(Ok(_))), "{report:?}");
    std::fs::remove_dir_all(&dir).ok();
}
