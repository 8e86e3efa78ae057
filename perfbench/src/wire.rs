//! The `wire-serve` workload: a warm four-tenant registry behind a
//! `WireServer` on loopback, driven by one `WireClient` in a closed loop.
//!
//! Every round trip pipelines a group of four requests — single
//! `Estimate`s and `EstimateBatch`es of width 1–32 — across tenants and
//! columns. Half the requests of a group share one (tenant, column), so
//! the server's dispatch has predicates to coalesce.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::Rng;
use samplehist_engine::{
    estimate_cardinality_batch, AnalyzeOptions, CardinalityEstimate, Predicate, Table,
};
use samplehist_service::{
    dispatch, AdmissionControl, FrameDecoder, Request, Response, ServerOptions, ServiceConfig,
    TenantId, TenantRegistry, WireClient, WireServer,
};
use samplehist_storage::Layout;

use crate::util::{mean, put, quantile, stream, timed, Deadline, Ledger, Metrics};

/// Tenants in the registry.
pub const TENANTS: u64 = 4;
/// Histogram buckets per column.
pub const WIRE_BUCKETS: usize = 200;
/// Requests pipelined per round trip.
pub const GROUP: usize = 4;
/// Client connections (and client threads).
pub const CONNECTIONS: usize = 1;
/// The table every tenant serves.
const TABLE: &str = "orders";
/// Its columns: `amount` has 1009 distinct values, `id` is a key.
const COLUMNS: [&str; 2] = ["amount", "id"];
/// Distinct values of `amount`.
const AMOUNT_DOMAIN: i64 = 1009;
/// Every this-many-th wire answer is compared with the in-process API.
const IDENTITY_EVERY: u64 = 16;

/// The served registry, its server, and the client's connection.
pub struct WireWorld {
    registry: Arc<TenantRegistry>,
    server: WireServer,
    client: Option<WireClient>,
    rows: u64,
}

/// Build and ANALYZE every tenant's table, then start the server.
pub fn setup(seed: u64, rows: u64) -> WireWorld {
    let registry = TenantRegistry::new(ServiceConfig {
        analyze: AnalyzeOptions::adaptive(WIRE_BUCKETS),
        ..ServiceConfig::deterministic(seed)
    });
    for t in 0..TENANTS {
        let svc = registry.create(TenantId(t));
        let amount: Vec<i64> =
            (0..rows as i64).map(|i| (i * 7 + t as i64 * 13) % AMOUNT_DOMAIN).collect();
        let id: Vec<i64> = (0..rows as i64).collect();
        let mut rng = stream(seed, "wire.layout", t, 0);
        let table = Table::builder(TABLE)
            .column_with_blocking(COLUMNS[0], amount, 50, Layout::Random, &mut rng)
            .column_with_blocking(COLUMNS[1], id, 50, Layout::Random, &mut rng)
            .build();
        svc.register_table(table, None);
        for column in COLUMNS {
            svc.refresh_now(TABLE, column).expect("warm ANALYZE of a registered column");
        }
    }
    let server = WireServer::start(&registry, "127.0.0.1:0", ServerOptions::default())
        .expect("bind a loopback port");
    let client = WireClient::connect(server.addr()).ok();
    WireWorld { registry, server, client, rows }
}

fn domain(column: usize, rows: u64) -> i64 {
    if column == 0 {
        AMOUNT_DOMAIN
    } else {
        rows as i64
    }
}

fn predicate(rng: &mut StdRng, domain: i64) -> Predicate {
    let slack = (domain / 100).max(1);
    let x = rng.gen_range(-slack..domain + slack);
    match rng.gen_range(0..4) {
        0 => Predicate::Eq(x),
        1 => Predicate::Le(x),
        2 => Predicate::Ge(x),
        _ => Predicate::Between { low: x, high: x + rng.gen_range(0..domain / 5 + 1) },
    }
}

/// One round trip's requests.
fn make_group(rng: &mut StdRng, rows: u64) -> Vec<Request> {
    let primary = (rng.gen_range(0..TENANTS), rng.gen_range(0..COLUMNS.len()));
    (0..GROUP)
        .map(|_| {
            let (t, c) = if rng.gen_range(0..2) == 0 {
                primary
            } else {
                (rng.gen_range(0..TENANTS), rng.gen_range(0..COLUMNS.len()))
            };
            let d = domain(c, rows);
            let (tenant, table, column) = (TenantId(t), TABLE.to_string(), COLUMNS[c].to_string());
            if rng.gen_range(0..2) == 0 {
                Request::Estimate { tenant, table, column, predicate: predicate(rng, d) }
            } else {
                let width = rng.gen_range(1..33);
                let predicates = (0..width).map(|_| predicate(rng, d)).collect();
                Request::EstimateBatch { tenant, table, column, predicates }
            }
        })
        .collect()
}

/// The predicates of an estimate request, with its key.
fn key_and_predicates(req: &Request) -> Option<(TenantId, &str, &str, &[Predicate])> {
    match req {
        Request::Estimate { tenant, table, column, predicate } => {
            Some((*tenant, table, column, std::slice::from_ref(predicate)))
        }
        Request::EstimateBatch { tenant, table, column, predicates } => {
            Some((*tenant, table, column, predicates))
        }
        _ => None,
    }
}

/// The measurements of one kind of slice (traced or untraced), summed
/// over every slice of the run.
#[derive(Debug)]
pub struct WireRun {
    traced: bool,
    /// The request-group stream.
    rng: StdRng,
    /// Answers received, for the every-16th identity check.
    answers: u64,
    /// Round-trip latencies in microseconds.
    rtt_us: Vec<f64>,
    /// Requests answered.
    requests: u64,
    /// Wall time of the slices, in seconds.
    wall_s: f64,
    stages: Stages,
}

/// Per-round-trip stage samples of the traced half (nanoseconds).
#[derive(Debug, Default)]
struct Stages {
    encode: Vec<f64>,
    decode: Vec<f64>,
    dispatch: Vec<f64>,
    residual_us: Vec<f64>,
    coalesce_width: Vec<f64>,
    tenant_get: Vec<f64>,
    service_ns: f64,
    selectivity_ns: f64,
    index_ns: f64,
    predicates: f64,
    probes: f64,
    mismatches: u64,
}

impl WireRun {
    /// An empty accumulator; traced and untraced slices draw their
    /// request groups from separate streams.
    pub fn new(seed: u64, traced: bool) -> Self {
        Self {
            traced,
            rng: stream(seed, "wire.groups", traced as u64, 0),
            answers: 0,
            rtt_us: Vec::new(),
            requests: 0,
            wall_s: 0.0,
            stages: Stages::default(),
        }
    }

    /// Median round trip, µs.
    pub fn p50_us(&self) -> f64 {
        quantile(&self.rtt_us, 0.5)
    }

    /// 90th-percentile round trip, µs.
    pub fn p90_us(&self) -> f64 {
        quantile(&self.rtt_us, 0.9)
    }
}

/// Run round trips until `deadline` (at least one) on the world's
/// connection, appending to `out`.
pub fn run(world: &mut WireWorld, deadline: Deadline, ledger: &mut Ledger, out: &mut WireRun) {
    let addr = world.server.addr();
    let started = Instant::now();
    loop {
        if world.client.is_none() {
            world.client = connect(addr, ledger);
        }
        let Some(conn) = world.client.as_mut() else { break };
        let group = make_group(&mut out.rng, world.rows);
        let sent = Instant::now();
        let reply = conn.call_many(&group);
        let rtt_ns = sent.elapsed().as_nanos() as f64;
        match reply {
            Err(_) => {
                // An I/O error fails the whole group; reconnect.
                ledger.ops(GROUP as u64, GROUP as u64);
                world.client = None;
            }
            Ok(responses) => {
                out.rtt_us.push(rtt_ns / 1e3);
                out.requests += GROUP as u64;
                for (req, resp) in group.iter().zip(&responses) {
                    out.answers += 1;
                    let failed = check_response(world, req, resp, out.answers, ledger);
                    ledger.ops(1, failed as u64);
                }
                if out.traced {
                    replay(world, &group, &responses, rtt_ns, &mut out.stages);
                }
            }
        }
        if deadline.passed() {
            break;
        }
    }
    out.wall_s += started.elapsed().as_secs_f64();
}

fn connect(addr: SocketAddr, ledger: &mut Ledger) -> Option<WireClient> {
    let client = WireClient::connect(addr);
    ledger.ops(1, client.is_err() as u64);
    client.ok()
}

/// Validate one answer; returns whether the request failed (error
/// response or missing statistics). Every `IDENTITY_EVERY`-th answer is
/// compared bit for bit with the in-process API.
fn check_response(
    world: &WireWorld,
    req: &Request,
    resp: &Response,
    answer: u64,
    ledger: &mut Ledger,
) -> bool {
    let Some((tenant, table, column, predicates)) = key_and_predicates(req) else {
        return true;
    };
    let estimates: Vec<(f64, f64)> = match (req, resp) {
        (Request::Estimate { .. }, Response::Estimate(Some(e))) => vec![(e.rows, e.selectivity)],
        (Request::EstimateBatch { .. }, Response::EstimateBatch(Some(v))) => {
            v.iter().map(|e| (e.rows, e.selectivity)).collect()
        }
        (_, Response::Error(_))
        | (_, Response::Estimate(None))
        | (_, Response::EstimateBatch(None)) => {
            return true;
        }
        _ => {
            ledger.check("wire_response_kind", false, || format!("{req:?} answered by {resp:?}"));
            return true;
        }
    };
    ledger.check("wire_response_width", estimates.len() == predicates.len(), || {
        format!("{} predicates, {} answers", predicates.len(), estimates.len())
    });
    for &(rows, selectivity) in &estimates {
        ledger.check_estimate(rows);
        ledger.check_estimate(selectivity);
    }
    if answer.is_multiple_of(IDENTITY_EVERY) {
        let svc = world.registry.get(tenant).expect("warm tenant");
        for (p, &(rows, selectivity)) in predicates.iter().zip(&estimates) {
            let want = svc.estimate_cardinality(table, column, p);
            let same = want.is_some_and(|w| {
                w.rows.to_bits() == rows.to_bits()
                    && w.selectivity.to_bits() == selectivity.to_bits()
            });
            ledger.check("wire_identical_to_in_process", same, || {
                format!("{tenant} {table}.{column} {p}: wire {rows} vs in-process {want:?}")
            });
        }
    }
    false
}

/// Repetitions for calls too short to time one at a time.
const REPS: u32 = 8;

/// Replay one round trip in process, stage by stage: request encode and
/// decode, dispatch, response encode and decode. The residual is what
/// the round trip spent elsewhere: sockets and scheduling. Then time the
/// layers under dispatch on the same predicates.
fn replay(world: &WireWorld, group: &[Request], wire: &[Response], rtt_ns: f64, st: &mut Stages) {
    let (bytes, enc_req) = timed(|| group.iter().flat_map(|r| r.encode()).collect::<Vec<u8>>());
    let (requests, dec_req) = timed(|| {
        let mut decoder = FrameDecoder::new();
        decoder.feed(&bytes);
        let mut out = Vec::with_capacity(group.len());
        while let Ok(Some(frame)) = decoder.next_frame() {
            out.extend(Request::decode_payload(frame.kind, &frame.payload).ok());
        }
        out
    });
    let ctl = AdmissionControl::default();
    let (answers, dispatch_ns) = timed(|| dispatch(&world.registry, &requests, &ctl));
    let (out_bytes, enc_resp) =
        timed(|| answers.iter().flat_map(|r| r.encode()).collect::<Vec<u8>>());
    let (decoded, dec_resp) = timed(|| {
        let mut decoder = FrameDecoder::new();
        decoder.feed(&out_bytes);
        let mut out = Vec::with_capacity(answers.len());
        while let Ok(Some(frame)) = decoder.next_frame() {
            out.extend(Response::decode_payload(frame.kind, &frame.payload).ok());
        }
        out
    });
    if decoded != wire || requests != group {
        st.mismatches += 1;
    }
    let stages = enc_req + dec_req + dispatch_ns + enc_resp + dec_resp;
    st.encode.push(enc_req + enc_resp);
    st.decode.push(dec_req + dec_resp);
    st.dispatch.push(dispatch_ns);
    st.residual_us.push((rtt_ns - stages) / 1e3);

    // Coalesced groups, in first-seen order as dispatch forms them.
    let mut keys: Vec<(TenantId, &str, &str, Vec<Predicate>)> = Vec::new();
    for req in group {
        if let Some((t, table, column, preds)) = key_and_predicates(req) {
            match keys.iter_mut().find(|k| k.0 == t && k.1 == table && k.2 == column) {
                Some(k) => k.3.extend_from_slice(preds),
                None => keys.push((t, table, column, preds.to_vec())),
            }
        }
    }
    let total: usize = keys.iter().map(|k| k.3.len()).sum();
    st.coalesce_width.push(total as f64 / keys.len().max(1) as f64);
    for (tenant, table, column, preds) in &keys {
        let (svc, get_ns) = timed(|| {
            let mut svc = None;
            for _ in 0..REPS {
                svc = std::hint::black_box(world.registry.get(*tenant));
            }
            svc
        });
        st.tenant_get.push(get_ns / REPS as f64);
        let svc = svc.expect("warm tenant");
        let snap = svc.catalog().get(table, column).expect("warm column");
        let ranges: Vec<(i64, i64)> = preds.iter().filter_map(Predicate::as_range).collect();
        let mut out = vec![CardinalityEstimate { rows: 0.0, selectivity: 0.0 }; preds.len()];
        let mut range_out = vec![0.0f64; ranges.len()];
        st.service_ns += timed(|| {
            for _ in 0..REPS {
                std::hint::black_box(svc.estimate_cardinality_batch(table, column, preds));
            }
        })
        .1 / REPS as f64;
        st.selectivity_ns += timed(|| {
            for _ in 0..REPS {
                estimate_cardinality_batch(&snap.stats, preds, &mut out);
                std::hint::black_box(&out);
            }
        })
        .1 / REPS as f64;
        let index = &snap.stats.index().histogram;
        st.index_ns += timed(|| {
            for _ in 0..REPS {
                index.estimate_range_batch(&ranges, &mut range_out);
                std::hint::black_box(&range_out);
            }
        })
        .1 / REPS as f64;
        st.predicates += preds.len() as f64;
        st.probes += ranges.len() as f64;
    }
}

/// The per-layer metrics: stage means from the traced half, tail
/// latencies and throughput from the untraced one.
pub fn per_layer(untraced: &WireRun, traced: &WireRun, metrics: &mut Metrics) -> Vec<String> {
    let st = &traced.stages;
    let encode = mean(&st.encode);
    let decode = mean(&st.decode);
    let dispatch_ns = mean(&st.dispatch);
    put(metrics, "wire.encode_ns", encode, "ns");
    put(metrics, "wire.decode_ns", decode, "ns");
    put(metrics, "server.dispatch_ns", dispatch_ns, "ns");
    put(metrics, "server.coalesce_width", mean(&st.coalesce_width), "count");
    put(metrics, "server.residual_us_p50", quantile(&st.residual_us, 0.5), "us");
    put(metrics, "server.residual_us_p90", quantile(&st.residual_us, 0.9), "us");
    put(metrics, "tenant.get_ns", mean(&st.tenant_get), "ns");
    put(metrics, "service.batch_ns_per_pred", st.service_ns / st.predicates.max(1.0), "ns");
    put(metrics, "selectivity.batch_ns_per_pred", st.selectivity_ns / st.predicates.max(1.0), "ns");
    put(metrics, "index.ns_per_probe", st.index_ns / st.probes.max(1.0), "ns");
    put(metrics, "server.calls_per_s", untraced.requests as f64 / untraced.wall_s, "1/s");
    put(metrics, "wire_p99_us", quantile(&untraced.rtt_us, 0.99), "us");
    put(metrics, "wire_p999_us", quantile(&untraced.rtt_us, 0.999), "us");
    let stages_us = (encode + decode + dispatch_ns) / 1e3;
    vec![
        format!(
            "wire-serve   round trip p50 {:.1} us = stages {:.2} us (encode {:.2} + decode {:.2} \
             + dispatch {:.2}) + residual p50 {:.1} us (p90 {:.1} us) [{} round trips]",
            traced.p50_us(),
            stages_us,
            encode / 1e3,
            decode / 1e3,
            dispatch_ns / 1e3,
            quantile(&st.residual_us, 0.5),
            quantile(&st.residual_us, 0.9),
            traced.rtt_us.len()
        ),
        format!("wire-serve   in-process replays that diverged from the wire: {}", st.mismatches),
    ]
}
