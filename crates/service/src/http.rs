//! A std-only HTTP responder for the telemetry plane: Prometheus text
//! at `GET /metrics`, the accuracy ledger as JSON at `GET /accuracy`.
//!
//! The workspace builds offline, so there is no hyper/axum — just a
//! [`TcpListener`] on the crate's one blocking accept loop (the one
//! under [`WireServer`](crate::WireServer)), answering each connection
//! on the accept thread with the two lines of HTTP/1.1 a scraper needs.
//! Every response is built from immutable snapshot reads
//! ([`StatsCatalog::snapshot`] + monotone counters), so serving a
//! scrape never blocks estimation or refresh work.
//!
//! The render functions are public on their own so tests and the bench
//! harness can check the exposition without opening a socket.
//!
//! [`StatsCatalog::snapshot`]: samplehist_engine::StatsCatalog::snapshot

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Weak};
use std::time::Duration;

use samplehist_obs::json::write_escaped;
use samplehist_obs::prom::escape_label_value;

use crate::server::Acceptor;
use crate::service::StatsService;

/// Render the service's Prometheus text exposition (format 0.0.4):
/// query/refresh counters, the queue-depth gauge, and per-column
/// q-error quantiles from the accuracy ledgers.
pub fn render_metrics(svc: &StatsService) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let tally = svc.tally();

    out.push_str("# HELP samplehist_service_queries_total Queries served, by outcome.\n");
    out.push_str("# TYPE samplehist_service_queries_total counter\n");
    for (outcome, value) in
        [("hit", svc.hits()), ("miss", svc.misses()), ("stale", svc.stale_hits())]
    {
        writeln!(out, "samplehist_service_queries_total{{outcome=\"{outcome}\"}} {value}")
            .expect("write to String");
    }

    out.push_str("# HELP samplehist_service_refresh_total Refresh pipeline outcomes.\n");
    out.push_str("# TYPE samplehist_service_refresh_total counter\n");
    for (event, value) in [
        ("completed", tally.completed),
        ("failed", tally.failed),
        ("probes", tally.probes),
        ("probe_passes", tally.probe_passes),
        ("full_reanalyzes", tally.full_reanalyzes),
        ("rejected", tally.rejected),
    ] {
        writeln!(out, "samplehist_service_refresh_total{{event=\"{event}\"}} {value}")
            .expect("write to String");
    }

    out.push_str(
        "# HELP samplehist_service_accuracy_breaches_total Accuracy-ledger breaches \
         (each queued a feedback-driven refresh).\n",
    );
    out.push_str("# TYPE samplehist_service_accuracy_breaches_total counter\n");
    writeln!(out, "samplehist_service_accuracy_breaches_total {}", svc.accuracy_breaches())
        .expect("write to String");

    out.push_str("# HELP samplehist_service_queue_depth Pending refresh jobs.\n");
    out.push_str("# TYPE samplehist_service_queue_depth gauge\n");
    writeln!(out, "samplehist_service_queue_depth {}", svc.queue_depth()).expect("write to String");

    out.push_str(
        "# HELP samplehist_service_qerror Observed estimation q-error per column \
         (current statistics epoch).\n",
    );
    out.push_str("# TYPE samplehist_service_qerror summary\n");
    for snap in svc.catalog().snapshot() {
        let table = escape_label_value(&snap.stats.table);
        let column = escape_label_value(&snap.stats.column);
        let sketch = snap.accuracy.sketch();
        for (q, value) in [("0.5", sketch.p50()), ("0.95", sketch.p95()), ("0.99", sketch.p99())] {
            if let Some(v) = value {
                writeln!(
                    out,
                    "samplehist_service_qerror{{table=\"{table}\",column=\"{column}\",\
                     quantile=\"{q}\"}} {}",
                    prom_f64(v)
                )
                .expect("write to String");
            }
        }
        writeln!(
            out,
            "samplehist_service_qerror_count{{table=\"{table}\",column=\"{column}\"}} {}",
            sketch.count()
        )
        .expect("write to String");
    }
    out
}

/// Render the accuracy ledgers as one JSON document (the `/accuracy`
/// endpoint): per-column observation counts, q-error quantiles, and the
/// worst-offending predicate, plus the service-wide breach counter.
pub fn accuracy_json(svc: &StatsService) -> String {
    use std::fmt::Write;
    let mut out = String::from("{\"breaches\":");
    write!(out, "{}", svc.accuracy_breaches()).expect("write to String");
    out.push_str(",\"columns\":[");
    for (i, snap) in svc.catalog().snapshot().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let sketch = snap.accuracy.sketch();
        out.push_str("{\"table\":");
        write_escaped(&snap.stats.table, &mut out);
        out.push_str(",\"column\":");
        write_escaped(&snap.stats.column, &mut out);
        write!(
            out,
            ",\"epoch\":{},\"observations\":{},\"underestimates\":{},\"overestimates\":{}",
            snap.epoch,
            snap.accuracy.observations(),
            snap.accuracy.underestimates(),
            snap.accuracy.overestimates(),
        )
        .expect("write to String");
        for (key, value) in [
            ("p50", sketch.p50()),
            ("p95", sketch.p95()),
            ("p99", sketch.p99()),
            ("max", sketch.max()),
        ] {
            write!(out, ",\"{key}\":").expect("write to String");
            json_f64_opt(value, &mut out);
        }
        out.push_str(",\"worst\":");
        match snap.accuracy.worst() {
            None => out.push_str("null"),
            Some(w) => {
                out.push_str("{\"predicate\":");
                write_escaped(&w.predicate, &mut out);
                out.push_str(",\"predicted\":");
                json_f64_opt(Some(w.predicted), &mut out);
                out.push_str(",\"actual\":");
                json_f64_opt(Some(w.actual), &mut out);
                out.push_str(",\"qerror\":");
                json_f64_opt(Some(w.qerror), &mut out);
                out.push('}');
            }
        }
        out.push('}');
    }
    out.push_str("]}");
    out
}

/// Prometheus sample value: `+Inf`/`-Inf`/`NaN` spellings for the
/// non-finite cases, plain `{}` otherwise.
fn prom_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

/// JSON number, with `null` for absent or non-finite values (JSON has
/// no Inf/NaN literals).
fn json_f64_opt(v: Option<f64>, out: &mut String) {
    use std::fmt::Write;
    match v {
        Some(v) if v.is_finite() => write!(out, "{v}").expect("write to String"),
        _ => out.push_str("null"),
    }
}

/// The background HTTP responder. Binds at [`start`](Self::start), serves
/// until dropped (or [`stop`](Self::stop)); holds the service only
/// weakly, so a scraper can never keep a shut-down service alive.
#[derive(Debug)]
pub struct MetricsServer {
    acceptor: Acceptor,
}

impl MetricsServer {
    /// Bind `addr` (use port 0 for an ephemeral port — the bound address
    /// is reported by [`addr`](Self::addr)) and start serving.
    pub fn start(svc: &Arc<StatsService>, addr: &str) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let weak: Weak<StatsService> = Arc::downgrade(svc);
        let acceptor = Acceptor::spawn(listener, "metrics-http", move |stream| {
            let Some(svc) = weak.upgrade() else { return false };
            let _ = serve_one(stream, &svc);
            true
        })?;
        Ok(Self { acceptor })
    }

    /// The address actually bound (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.acceptor.addr()
    }

    /// Stop accepting and join the responder thread (dropping does the
    /// same).
    pub fn stop(mut self) {
        self.acceptor.stop();
    }
}

/// Read one request head, answer it, close. Any I/O error just drops
/// the connection — a scraper retries on its next interval.
fn serve_one(mut stream: TcpStream, svc: &StatsService) -> std::io::Result<()> {
    // A stalled scraper may hold the accept thread this long per read.
    stream.set_read_timeout(Some(Duration::from_millis(500)))?;
    let mut head = Vec::with_capacity(512);
    let mut buf = [0u8; 512];
    // Read until the blank line ending the request head (we ignore
    // bodies: both endpoints are GETs).
    while !head.windows(4).any(|w| w == b"\r\n\r\n") {
        if head.len() > 8 * 1024 {
            break;
        }
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => head.extend_from_slice(&buf[..n]),
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    let request_line =
        std::str::from_utf8(&head).ok().and_then(|t| t.lines().next()).unwrap_or("").to_string();
    let mut parts = request_line.split_whitespace();
    let (method, path) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    let (status, content_type, body) = match (method, path) {
        ("GET", "/metrics") => {
            ("200 OK", "text/plain; version=0.0.4; charset=utf-8", render_metrics(svc))
        }
        ("GET", "/accuracy") => ("200 OK", "application/json", accuracy_json(svc)),
        _ => ("404 Not Found", "text/plain; charset=utf-8", "not found\n".to_string()),
    };
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n\
         Connection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(response.as_bytes())?;
    stream.flush()
}
