//! `dctstream record` in proxy mode: a TCP proxy that sits in front of
//! a serve daemon, forwards every request upstream, relays the answer
//! back, and appends each *recognized, upstream-accepted* operation
//! (register / ingest / estimate / chain) to a `.dctt` trace with its
//! arrival time relative to proxy start.
//!
//! Only operations the upstream answered 2xx are recorded — a trace is
//! a replayable workload, and replaying a request the daemon refused
//! (unknown stream, malformed batch) would only reproduce the refusal.
//! Unrecognized routes (`/metrics`, `/v1/streams`, health checks) are
//! forwarded but never recorded.

use crate::client::Client;
use crate::trace::{ChainLink, RegisterKind, TraceOp, TraceRecord, TraceWriter};
use crate::ReplayError;
use dctstream_serve::http::{read_request, respond, Request, Status};
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// State shared between the accept loop and per-connection handlers.
struct Shared {
    /// The writer until an append fails, then that error: `shutdown`
    /// returns it and writes no trailer. `None` once shut down.
    writer: Mutex<Option<Result<TraceWriter<BufWriter<File>>, ReplayError>>>,
    started: Instant,
    upstream: SocketAddr,
    timeout: Duration,
}

/// A running recording proxy. Dropping it without calling
/// [`RecordingProxy::shutdown`] leaves the trace without its trailer —
/// deliberately unreadable, so a crashed recording session cannot pass
/// for a complete one.
pub struct RecordingProxy {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_handle: Option<JoinHandle<()>>,
    shared: Arc<Shared>,
}

impl RecordingProxy {
    /// Listen on `127.0.0.1:port` (0 picks an ephemeral port), forward
    /// to `upstream`, and append recognized operations to the trace at
    /// `out`.
    pub fn start(
        port: u16,
        upstream: SocketAddr,
        out: &Path,
    ) -> Result<RecordingProxy, ReplayError> {
        let file = File::create(out)?;
        let writer = TraceWriter::new(BufWriter::new(file))?;
        let listener = TcpListener::bind(("127.0.0.1", port))?;
        let addr = listener.local_addr()?;
        // Poll-accept so shutdown does not need a wake-up connection.
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let shared = Arc::new(Shared {
            writer: Mutex::new(Some(Ok(writer))),
            started: Instant::now(),
            upstream,
            timeout: Duration::from_secs(30),
        });
        let accept_handle = {
            let stop = Arc::clone(&stop);
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    match listener.accept() {
                        Ok((conn, _)) => {
                            let shared = Arc::clone(&shared);
                            std::thread::spawn(move || handle_conn(conn, &shared));
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(5));
                        }
                        Err(_) => break,
                    }
                }
            })
        };
        Ok(RecordingProxy {
            addr,
            stop,
            accept_handle: Some(accept_handle),
            shared,
        })
    }

    /// Where the proxy is listening.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, seal the trace with its trailer, and return how
    /// many operations were recorded — or the first error an append
    /// hit, in which case the trace is left without its trailer.
    pub fn shutdown(mut self) -> Result<u64, ReplayError> {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.accept_handle.take() {
            let _ = h.join();
        }
        let writer = self
            .shared
            .writer
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take();
        match writer {
            Some(Ok(w)) => w.finish(),
            Some(Err(e)) => Err(e),
            None => Err(ReplayError::Config(
                "recording proxy already shut down".to_string(),
            )),
        }
    }
}

impl Shared {
    /// Append `rec` unless an earlier append failed; a failure replaces
    /// the writer and ends the recording.
    fn record(&self, rec: &TraceRecord) {
        let mut guard = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(Ok(w)) = guard.as_mut() {
            if let Err(e) = w.append(rec) {
                *guard = Some(Err(e));
            }
        }
    }
}

/// Serve one downstream connection: read requests with the daemon's own
/// parser, forward each upstream on a dedicated connection (preserving
/// per-connection order), relay the answer, and record accepted ops.
fn handle_conn(downstream: TcpStream, shared: &Shared) {
    let _ = downstream.set_nodelay(true);
    let _ = downstream.set_read_timeout(Some(shared.timeout));
    let _ = downstream.set_write_timeout(Some(shared.timeout));
    let mut writer = match downstream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(downstream);
    let mut upstream: Option<Client> = None;
    loop {
        let req = match read_request(&mut reader) {
            Ok(Some(req)) => req,
            // Clean close, parse error, or timeout — stop relaying.
            Ok(None) | Err(_) => return,
        };
        if upstream.is_none() {
            upstream = match Client::connect(shared.upstream, shared.timeout) {
                Ok(c) => Some(c),
                Err(_) => {
                    let _ = relay(&mut writer, 503, "{\"error\":\"upstream unreachable\"}");
                    return;
                }
            };
        }
        let at_us = shared.started.elapsed().as_micros() as u64;
        let body = String::from_utf8_lossy(&req.body).into_owned();
        let target = rebuild_target(&req);
        // invariant: populated above.
        let client = upstream.as_mut().expect("upstream connected");
        let resp = match client.request(&req.method, &target, &body) {
            Ok(r) => r,
            Err(_) => {
                let _ = relay(
                    &mut writer,
                    502,
                    "{\"error\":\"upstream failed mid-exchange\"}",
                );
                return;
            }
        };
        if (200..300).contains(&resp.status) {
            if let Some(op) = recognize(&req, &body) {
                let tenant = req.param("tenant").unwrap_or("default").to_string();
                shared.record(&TraceRecord { at_us, tenant, op });
            }
        }
        if relay(&mut writer, resp.status, &resp.body).is_err() || !req.keep_alive {
            return;
        }
    }
}

/// Reassemble `path?query` for the upstream leg (the parser split and
/// percent-decoded it; trace fields never need re-encoding because the
/// daemon's names are `[A-Za-z0-9_.-]`).
fn rebuild_target(req: &Request) -> String {
    if req.query.is_empty() {
        return req.path.clone();
    }
    let mut pairs: Vec<String> = req.query.iter().map(|(k, v)| format!("{k}={v}")).collect();
    pairs.sort(); // HashMap order is arbitrary; keep the wire stable
    format!("{}?{}", req.path, pairs.join("&"))
}

/// Relay one answer downstream through the daemon's own writer. Codes
/// the proxy names keep their reason phrase; any other upstream code
/// goes out as `<code> Response`.
fn relay<W: Write>(w: &mut W, code: u16, body: &str) -> std::io::Result<()> {
    let status = match code {
        200 => Status::Ok,
        400 => Status::BadRequest,
        404 => Status::NotFound,
        429 => Status::TooManyRequests,
        502 => Status::BadGateway,
        503 => Status::Unavailable,
        other => Status::Other(other),
    };
    respond(w, status, "application/json", body, true)
}

/// Map a request onto a trace operation, or `None` when the route is
/// not part of the recorded workload.
fn recognize(req: &Request, body: &str) -> Option<TraceOp> {
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/v1/register") => {
            let stream = req.param("stream")?.to_string();
            match req.param("kind").unwrap_or("cosine") {
                "multi" => {
                    let degree: u32 = req.param("degree")?.parse().ok()?;
                    let mut domains = Vec::new();
                    for part in req.param("domains")?.split(',') {
                        let (lo, hi) = part.split_once(':')?;
                        domains.push((lo.trim().parse().ok()?, hi.trim().parse().ok()?));
                    }
                    Some(TraceOp::Register {
                        stream,
                        kind: RegisterKind::Multi { degree, domains },
                    })
                }
                _ => Some(TraceOp::Register {
                    stream,
                    kind: RegisterKind::Cosine {
                        lo: req.param("lo")?.parse().ok()?,
                        hi: req.param("hi")?.parse().ok()?,
                        m: req.param("m")?.parse().ok()?,
                    },
                }),
            }
        }
        ("POST", "/v1/ingest") => {
            let stream = req.param("stream")?.to_string();
            // Record exactly the rows the daemon's own parser accepts;
            // quarantined junk is not part of the replayable workload.
            let rows: Vec<(Vec<i64>, f64)> = body
                .lines()
                .filter(|l| !l.trim().is_empty())
                .filter_map(|l| dctstream_serve::parse_row(l).ok())
                .collect();
            if rows.is_empty() {
                return None;
            }
            Some(TraceOp::Ingest { stream, rows })
        }
        ("GET", "/v1/estimate") => Some(TraceOp::Estimate {
            left: req.param("left")?.to_string(),
            right: req.param("right")?.to_string(),
            budget: req.param("budget").and_then(|b| b.parse().ok()),
        }),
        ("POST", "/v1/chain") => {
            let mut links = Vec::new();
            for line in body.lines() {
                let line = line.trim();
                if line.is_empty() {
                    continue;
                }
                let mut parts = line.split_whitespace();
                match (parts.next(), parts.next(), parts.next(), parts.next()) {
                    (Some("end"), Some(s), None, _) => links.push(ChainLink::End {
                        stream: s.to_string(),
                    }),
                    (Some("inner"), Some(s), Some(l), Some(r)) => links.push(ChainLink::Inner {
                        stream: s.to_string(),
                        left: l.parse().ok()?,
                        right: r.parse().ok()?,
                    }),
                    _ => return None,
                }
            }
            if links.is_empty() {
                return None;
            }
            Some(TraceOp::Chain {
                links,
                budget: req.param("budget").and_then(|b| b.parse().ok()),
            })
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn req(method: &str, path: &str, params: &[(&str, &str)]) -> Request {
        Request {
            method: method.to_string(),
            path: path.to_string(),
            query: params
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect::<HashMap<_, _>>(),
            body: Vec::new(),
            keep_alive: true,
        }
    }

    #[test]
    fn recognizes_the_recorded_routes() {
        let r = req(
            "POST",
            "/v1/register",
            &[("stream", "s0"), ("lo", "0"), ("hi", "99"), ("m", "32")],
        );
        assert!(matches!(
            recognize(&r, ""),
            Some(TraceOp::Register {
                kind: RegisterKind::Cosine {
                    lo: 0,
                    hi: 99,
                    m: 32
                },
                ..
            })
        ));
        let r = req(
            "POST",
            "/v1/register",
            &[
                ("stream", "m0"),
                ("kind", "multi"),
                ("degree", "4"),
                ("domains", "0:9,0:9"),
            ],
        );
        assert!(matches!(
            recognize(&r, ""),
            Some(TraceOp::Register {
                kind: RegisterKind::Multi { degree: 4, .. },
                ..
            })
        ));
        let r = req("POST", "/v1/ingest", &[("stream", "s0")]);
        let op = recognize(&r, "1:1\n2,\n3:0.5\n").expect("ingest recognized");
        match op {
            TraceOp::Ingest { rows, .. } => {
                // The malformed middle line is dropped, not recorded.
                assert_eq!(rows, vec![(vec![1], 1.0), (vec![3], 0.5)]);
            }
            other => panic!("wrong op {other:?}"),
        }
        let r = req("GET", "/v1/estimate", &[("left", "a"), ("right", "b")]);
        assert!(matches!(recognize(&r, ""), Some(TraceOp::Estimate { .. })));
        let r = req("POST", "/v1/chain", &[]);
        let op = recognize(&r, "end a\ninner m0 0 1\nend b\n").expect("chain recognized");
        assert!(matches!(op, TraceOp::Chain { ref links, .. } if links.len() == 3));
    }

    #[test]
    fn ignores_unrecorded_routes_and_garbage() {
        assert!(recognize(&req("GET", "/metrics", &[]), "").is_none());
        assert!(recognize(&req("GET", "/v1/streams", &[]), "").is_none());
        assert!(recognize(&req("POST", "/v1/ingest", &[("stream", "s0")]), "junk\n").is_none());
        assert!(recognize(&req("POST", "/v1/chain", &[]), "frob a\n").is_none());
    }

    #[test]
    fn rebuild_target_is_stable() {
        let r = req("GET", "/v1/estimate", &[("left", "a"), ("right", "b")]);
        assert_eq!(rebuild_target(&r), "/v1/estimate?left=a&right=b");
        assert_eq!(rebuild_target(&req("GET", "/metrics", &[])), "/metrics");
    }

    #[test]
    fn relay_keeps_the_proxy_status_lines() {
        let body = "{\"ok\":1}";
        for (code, line) in [
            (200, "200 OK"),
            (400, "400 Bad Request"),
            (404, "404 Not Found"),
            (422, "422 Response"),
            (429, "429 Too Many Requests"),
            (502, "502 Bad Gateway"),
            (503, "503 Service Unavailable"),
        ] {
            let mut out = Vec::new();
            relay(&mut out, code, body).unwrap();
            let expected = format!(
                "HTTP/1.1 {line}\r\nContent-Type: application/json\r\nContent-Length: 8\r\n\
                 Connection: keep-alive\r\n\r\n{body}"
            );
            assert_eq!(String::from_utf8(out).unwrap(), expected);
        }
    }

    #[test]
    fn a_refused_append_ends_the_recording_and_shutdown_returns_it() {
        let out = std::env::temp_dir().join(format!(
            "dctstream_proxy_refused_{}.dctt",
            std::process::id()
        ));
        // No client connects, so the upstream is never dialled.
        let proxy = RecordingProxy::start(0, "127.0.0.1:9".parse().unwrap(), &out).unwrap();
        let small = TraceRecord {
            at_us: 0,
            tenant: "t".into(),
            op: TraceOp::Estimate {
                left: "a".into(),
                right: "b".into(),
                budget: None,
            },
        };
        // A unary ingest row encodes to 20 bytes: one row past the cap.
        let huge = TraceRecord {
            at_us: 1,
            tenant: "t".into(),
            op: TraceOp::Ingest {
                stream: "a".into(),
                rows: vec![(vec![1], 1.0); crate::trace::MAX_FRAME / 20 + 1],
            },
        };
        proxy.shared.record(&small);
        proxy.shared.record(&huge);
        proxy.shared.record(&small);
        let err = proxy.shutdown().unwrap_err();
        assert!(matches!(err, ReplayError::TooLarge(_)), "{err}");
        // No trailer: the partial recording cannot pass for a complete one.
        let read = crate::trace::read_trace(&out);
        let _ = std::fs::remove_file(&out);
        assert!(matches!(read, Err(ReplayError::Corrupt { .. })), "{read:?}");
    }
}
