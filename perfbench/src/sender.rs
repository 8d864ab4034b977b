//! The benchmark's load generator: one process, one keep-alive
//! [`Client`] per sender thread.
//!
//! Like `dctstream replay`, every op is pinned to a connection by the
//! FNV-1a hash of its anchor stream, so each stream's updates arrive in
//! trace order and the final state repeats exactly whatever the
//! interleaving. Unlike it, the open loop times every request from its
//! *due* time, not from the moment it was sent: a stall then shows in
//! the latency of every request queued behind it, instead of hiding in
//! a late send.

use crate::stats::Fnv;
use dctstream_replay::client::{json_num, Response};
use dctstream_replay::{ChainLink, Client, RegisterKind, ReplayError, TraceOp, TraceRecord};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Per-request client timeout.
pub const TIMEOUT: Duration = Duration::from_secs(30);

/// The route an op goes to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Route {
    /// `POST /v1/register`.
    Register,
    /// `POST /v1/ingest`.
    Ingest,
    /// `GET /v1/estimate`.
    Estimate,
    /// `POST /v1/chain`.
    Chain,
}

impl Route {
    /// The route's name in metric names.
    pub fn name(self) -> &'static str {
        match self {
            Route::Register => "register",
            Route::Ingest => "ingest",
            Route::Estimate => "estimate",
            Route::Chain => "chain",
        }
    }
}

/// One op rendered as an HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Route.
    pub route: Route,
    /// HTTP method.
    pub method: &'static str,
    /// Path and query string.
    pub path_query: String,
    /// Body.
    pub body: String,
}

impl Request {
    /// The request as the bytes [`Client::request`] sends.
    pub fn wire_bytes(&self) -> Vec<u8> {
        format!(
            "{} {} HTTP/1.1\r\nHost: replay\r\nContent-Length: {}\r\n\r\n{}",
            self.method,
            self.path_query,
            self.body.len(),
            self.body
        )
        .into_bytes()
    }
}

/// Render an op as the request the daemon's wire protocol expects (the
/// same rendering `dctstream replay` uses).
pub fn render(rec: &TraceRecord) -> Request {
    let t = &rec.tenant;
    match &rec.op {
        TraceOp::Register { stream, kind } => {
            let path_query = match kind {
                RegisterKind::Cosine { lo, hi, m } => format!(
                    "/v1/register?tenant={t}&stream={stream}&kind=cosine&lo={lo}&hi={hi}&m={m}"
                ),
                RegisterKind::Multi { degree, domains } => {
                    let doms: Vec<String> = domains
                        .iter()
                        .map(|(lo, hi)| format!("{lo}:{hi}"))
                        .collect();
                    format!(
                        "/v1/register?tenant={t}&stream={stream}&kind=multi&degree={degree}&domains={}",
                        doms.join(",")
                    )
                }
            };
            Request {
                route: Route::Register,
                method: "POST",
                path_query,
                body: String::new(),
            }
        }
        TraceOp::Ingest { stream, rows } => {
            let mut body = String::with_capacity(rows.len() * 8);
            for (tuple, w) in rows {
                let vals: Vec<String> = tuple.iter().map(i64::to_string).collect();
                body.push_str(&vals.join(","));
                body.push(':');
                body.push_str(&w.to_string());
                body.push('\n');
            }
            Request {
                route: Route::Ingest,
                method: "POST",
                path_query: format!("/v1/ingest?tenant={t}&stream={stream}"),
                body,
            }
        }
        TraceOp::Estimate {
            left,
            right,
            budget,
        } => {
            let mut path_query = format!("/v1/estimate?tenant={t}&left={left}&right={right}");
            if let Some(b) = budget {
                path_query.push_str(&format!("&budget={b}"));
            }
            Request {
                route: Route::Estimate,
                method: "GET",
                path_query,
                body: String::new(),
            }
        }
        TraceOp::Chain { links, budget } => {
            let mut body = String::new();
            for link in links {
                match link {
                    ChainLink::End { stream } => body.push_str(&format!("end {stream}\n")),
                    ChainLink::Inner {
                        stream,
                        left,
                        right,
                    } => body.push_str(&format!("inner {stream} {left} {right}\n")),
                }
            }
            let mut path_query = format!("/v1/chain?tenant={t}");
            if let Some(b) = budget {
                path_query.push_str(&format!("&budget={b}"));
            }
            Request {
                route: Route::Chain,
                method: "POST",
                path_query,
                body,
            }
        }
    }
}

/// The stream whose order the op depends on: the partition key.
pub fn anchor(rec: &TraceRecord) -> String {
    let stream = match &rec.op {
        TraceOp::Register { stream, .. } | TraceOp::Ingest { stream, .. } => stream.as_str(),
        TraceOp::Estimate { left, .. } => left.as_str(),
        TraceOp::Chain { links, .. } => match links.first() {
            Some(ChainLink::End { stream }) | Some(ChainLink::Inner { stream, .. }) => {
                stream.as_str()
            }
            None => "",
        },
    };
    format!("{}/{stream}", rec.tenant)
}

/// Split `ops` across `n` connections by anchor stream, keeping trace
/// order within each connection.
pub fn partition(ops: &[TraceRecord], n: usize) -> Vec<Vec<&TraceRecord>> {
    let n = n.max(1);
    let mut buckets: Vec<Vec<&TraceRecord>> = (0..n).map(|_| Vec::new()).collect();
    for rec in ops {
        let h = Fnv::default().bytes(anchor(rec).as_bytes()).value();
        buckets[(h % n as u64) as usize].push(rec);
    }
    buckets
}

/// One answered request.
#[derive(Debug, Clone)]
pub struct Answer {
    /// Route.
    pub route: Route,
    /// HTTP status.
    pub status: u16,
    /// Milliseconds from the due time (open loop) or the send (closed
    /// loop) to the complete answer.
    pub ms: f64,
    /// `records_behind` of an estimate or chain answer.
    pub records_behind: Option<u64>,
    /// The raw `"estimate":` text of an estimate or chain answer.
    pub estimate: Option<String>,
    /// Rows an ingest answer accepted.
    pub accepted: u64,
}

impl Answer {
    /// Whether the daemon answered 2xx.
    pub fn ok(&self) -> bool {
        (200..300).contains(&self.status)
    }
}

/// What one drive measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every answered request.
    pub answers: Vec<Answer>,
    /// Requests that got no answer at all.
    pub transport_failures: u64,
    /// Open loop only: how late each send was past the later of its due
    /// time and its connection's previous answer, in milliseconds.
    pub lateness_ms: Vec<f64>,
    /// Wall-clock seconds of the drive.
    pub wall_s: f64,
}

impl Outcome {
    /// Requests attempted.
    pub fn attempted(&self) -> u64 {
        self.answers.len() as u64 + self.transport_failures
    }

    /// Requests that failed: no answer, or a non-2xx answer (429 and
    /// 503 included).
    pub fn failed(&self) -> u64 {
        self.transport_failures + self.answers.iter().filter(|a| !a.ok()).count() as u64
    }

    /// Latencies of the 2xx answers of one route.
    pub fn latencies(&self, route: Route) -> Vec<f64> {
        self.answers
            .iter()
            .filter(|a| a.route == route && a.ok())
            .map(|a| a.ms)
            .collect()
    }
}

/// How ops are paced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pacing {
    /// Each connection sends its next op when the previous one answers.
    Closed,
    /// Each op is due `at_us` after the drive starts.
    Open,
}

/// Play `ops` against the daemon at `addr` over `connections`
/// connections.
pub fn drive(addr: SocketAddr, ops: &[TraceRecord], connections: usize, pacing: Pacing) -> Outcome {
    let buckets = partition(ops, connections);
    let start = Instant::now();
    let parts: Vec<Outcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = buckets
            .iter()
            .map(|bucket| scope.spawn(move || send_all(addr, bucket, pacing, start)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("sender threads do not panic"))
            .collect()
    });
    let mut out = Outcome {
        wall_s: start.elapsed().as_secs_f64(),
        ..Outcome::default()
    };
    for p in parts {
        out.answers.extend(p.answers);
        out.transport_failures += p.transport_failures;
        out.lateness_ms.extend(p.lateness_ms);
    }
    out
}

fn send_all(addr: SocketAddr, bucket: &[&TraceRecord], pacing: Pacing, start: Instant) -> Outcome {
    let mut client: Option<Client> = None;
    let mut out = Outcome::default();
    let mut free_at = start;
    for rec in bucket {
        let req = render(rec);
        let due = (pacing == Pacing::Open).then(|| start + Duration::from_micros(rec.at_us));
        if let Some(due) = due {
            loop {
                let now = Instant::now();
                if now >= due {
                    break;
                }
                std::thread::sleep(due - now);
            }
        }
        let sent = Instant::now();
        if let Some(due) = due {
            let ready = due.max(free_at);
            out.lateness_ms
                .push(sent.saturating_duration_since(ready).as_secs_f64() * 1e3);
        }
        let origin = due.unwrap_or(sent);
        let result = exchange(&mut client, addr, &req);
        free_at = Instant::now();
        match result {
            Ok(resp) => {
                let ms = free_at.saturating_duration_since(origin).as_secs_f64() * 1e3;
                let read =
                    matches!(req.route, Route::Estimate | Route::Chain) && resp.status == 200;
                out.answers.push(Answer {
                    route: req.route,
                    status: resp.status,
                    ms,
                    records_behind: if read {
                        json_num(&resp.body, "records_behind").map(|v| v as u64)
                    } else {
                        None
                    },
                    estimate: if read {
                        estimate_text(&resp.body)
                    } else {
                        None
                    },
                    accepted: if req.route == Route::Ingest && resp.status == 200 {
                        json_num(&resp.body, "accepted").map_or(0, |v| v as u64)
                    } else {
                        0
                    },
                });
                // Non-keep-alive answers close the connection.
                if resp.status != 200 && resp.status != 429 {
                    client = None;
                }
            }
            Err(_) => {
                out.transport_failures += 1;
                client = None;
            }
        }
    }
    out
}

/// One exchange; a transport failure reconnects once (the daemon may
/// have closed an idle connection).
fn exchange(
    client: &mut Option<Client>,
    addr: SocketAddr,
    req: &Request,
) -> Result<Response, ReplayError> {
    fn attempt(
        client: &mut Option<Client>,
        addr: SocketAddr,
        req: &Request,
    ) -> Result<Response, ReplayError> {
        if client.is_none() {
            *client = Some(Client::connect(addr, TIMEOUT)?);
        }
        client.as_mut().expect("connected just above").request(
            req.method,
            &req.path_query,
            &req.body,
        )
    }
    match attempt(client, addr, req) {
        Ok(r) => Ok(r),
        Err(ReplayError::Io(_)) | Err(ReplayError::Protocol(_)) => {
            *client = None;
            attempt(client, addr, req)
        }
        Err(e) => Err(e),
    }
}

/// The exact `"estimate":` text of an answer: the digest hashes the
/// daemon's own rendering, so no float parsing can mask a ULP drift.
pub fn estimate_text(body: &str) -> Option<String> {
    let key = "\"estimate\":";
    let rest = &body[body.find(key)? + key.len()..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partitioning_keeps_each_stream_on_one_connection_in_order() {
        let ops: Vec<TraceRecord> = (0..200)
            .map(|i| TraceRecord {
                at_us: i,
                tenant: format!("t{}", i % 3),
                op: TraceOp::Ingest {
                    stream: format!("s{}", i % 5),
                    rows: vec![(vec![i as i64], 1.0)],
                },
            })
            .collect();
        let buckets = partition(&ops, 2);
        assert_eq!(buckets.iter().map(Vec::len).sum::<usize>(), 200);
        for b in &buckets {
            assert!(b.windows(2).all(|w| w[0].at_us < w[1].at_us));
        }
        for rec in &ops {
            let homes = buckets
                .iter()
                .filter(|b| b.iter().any(|r| anchor(r) == anchor(rec)))
                .count();
            assert_eq!(homes, 1);
        }
    }

    #[test]
    fn estimate_text_is_the_raw_number() {
        assert_eq!(
            estimate_text("{\"estimate\":1921.7712527409724,\"epoch\":5}").as_deref(),
            Some("1921.7712527409724")
        );
        assert_eq!(estimate_text("{\"error\":\"x\"}"), None);
    }
}
