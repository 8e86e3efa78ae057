//! End-to-end wire server tests: real loopback sockets, concurrent
//! clients, byte-equality against the in-process API, typed shedding,
//! backpressure against peers that never read, and shutdown under a
//! deadline.

use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use samplehist_engine::{Predicate, Table};
use samplehist_service::{
    dispatch, AdmissionControl, Request, Response, ServerOptions, ServiceConfig, StatsService,
    TenantId, TenantRegistry, WireClient, WireError, WireServer,
};
use samplehist_storage::Layout;

use rand::rngs::StdRng;
use rand::SeedableRng;

fn warm_registry(seed: u64, tenants: u64) -> Arc<TenantRegistry> {
    let registry = TenantRegistry::new(ServiceConfig::deterministic(seed));
    for t in 0..tenants {
        let svc = registry.create(TenantId(t));
        let values: Vec<i64> = (0..20_000).map(|i| (i * 7 + t as i64 * 13) % 1009).collect();
        let mut rng = StdRng::seed_from_u64(seed ^ t);
        let table = Table::builder("orders")
            .column_with_blocking("amount", values, 50, Layout::Random, &mut rng)
            .build();
        svc.register_table(table, None);
        svc.refresh_now("orders", "amount").expect("warm analyze");
    }
    registry
}

fn probe_predicates() -> Vec<Predicate> {
    (0..64)
        .map(|i| match i % 4 {
            0 => Predicate::Eq(i * 17 % 1009),
            1 => Predicate::Le(i * 31 % 1009),
            2 => Predicate::Ge(i * 13 % 1009),
            _ => Predicate::Between { low: i * 5 % 500, high: i * 5 % 500 + 100 },
        })
        .collect()
}

/// The tentpole contract: estimates served over the socket are
/// *byte-identical* (f64 bit patterns included) to the in-process API.
#[test]
fn wire_responses_are_byte_identical_to_in_process_api() {
    let registry = warm_registry(0xE2E, 2);
    let server =
        WireServer::start(&registry, "127.0.0.1:0", ServerOptions::default()).expect("bind");
    let mut client = WireClient::connect(server.addr()).expect("connect");

    for t in 0..2u64 {
        let svc = registry.get(TenantId(t)).expect("warm tenant");
        for p in probe_predicates() {
            let got = client
                .call(&Request::Estimate {
                    tenant: TenantId(t),
                    table: "orders".into(),
                    column: "amount".into(),
                    predicate: p,
                })
                .expect("call");
            let want = svc.estimate_cardinality("orders", "amount", &p).expect("in-process");
            match got {
                Response::Estimate(Some(est)) => {
                    assert_eq!(est.rows.to_bits(), want.rows.to_bits(), "{p:?}");
                    assert_eq!(est.selectivity.to_bits(), want.selectivity.to_bits(), "{p:?}");
                }
                other => panic!("expected an estimate for {p:?}, got {other:?}"),
            }
        }
        // The batched path too: one pipelined batch, same bits.
        let preds = probe_predicates();
        let got = client
            .call(&Request::EstimateBatch {
                tenant: TenantId(t),
                table: "orders".into(),
                column: "amount".into(),
                predicates: preds.clone(),
            })
            .expect("batch call");
        let Response::EstimateBatch(Some(ests)) = got else {
            panic!("expected batch estimates, got {got:?}");
        };
        assert_eq!(ests.len(), preds.len());
        for (est, p) in ests.iter().zip(&preds) {
            let want = svc.estimate_cardinality("orders", "amount", p).expect("in-process");
            assert_eq!(est.rows.to_bits(), want.rows.to_bits(), "{p:?}");
        }
    }
    assert!(server.requests_served() > 0);
    server.stop();
}

/// Many concurrent clients pipelining mixed requests: every response
/// arrives, in order, with no hangs and no cross-talk.
#[test]
fn concurrent_clients_each_get_their_own_answers() {
    let registry = warm_registry(0xC0C0, 4);
    let server =
        WireServer::start(&registry, "127.0.0.1:0", ServerOptions::default()).expect("bind");
    let addr = server.addr();

    let handles: Vec<_> = (0..4u64)
        .map(|t| {
            std::thread::spawn(move || {
                let mut client = WireClient::connect(addr).expect("connect");
                let reqs: Vec<Request> = (0..50)
                    .flat_map(|i| {
                        vec![
                            Request::Ping,
                            Request::Estimate {
                                tenant: TenantId(t),
                                table: "orders".into(),
                                column: "amount".into(),
                                predicate: Predicate::Le(i * 11 % 1009),
                            },
                            Request::RecordMods {
                                tenant: TenantId(t),
                                table: "orders".into(),
                                column: "amount".into(),
                                count: 1,
                            },
                        ]
                    })
                    .collect();
                let resps = client.call_many(&reqs).expect("pipelined call");
                assert_eq!(resps.len(), reqs.len());
                for chunk in resps.chunks(3) {
                    assert_eq!(chunk[0], Response::Pong);
                    assert!(
                        matches!(chunk[1], Response::Estimate(Some(_))),
                        "warm tenant must estimate: {chunk:?}"
                    );
                    assert_eq!(chunk[2], Response::Ack { known: true, qerror: None });
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }
    server.stop();
}

/// Unknown tenants get a typed error; malformed payloads get a typed
/// error on a surviving connection; protocol violations get a typed
/// error then a close — never a hang, never a panic.
#[test]
fn typed_errors_for_unknown_tenants_and_bad_bytes() {
    let registry = warm_registry(0xBAD, 1);
    let server =
        WireServer::start(&registry, "127.0.0.1:0", ServerOptions::default()).expect("bind");
    let mut client = WireClient::connect(server.addr()).expect("connect");

    let got = client
        .call(&Request::Estimate {
            tenant: TenantId(999),
            table: "orders".into(),
            column: "amount".into(),
            predicate: Predicate::Eq(1),
        })
        .expect("call");
    assert_eq!(got, Response::Error(WireError::UnknownTenant { tenant: 999 }));

    // A well-framed but undecodable payload: unknown kind byte. The
    // connection answers Malformed and keeps serving.
    let mut bad = Vec::new();
    bad.extend_from_slice(&samplehist_service::wire::MAGIC.to_le_bytes());
    bad.push(samplehist_service::wire::VERSION);
    bad.push(0x7F); // no such kind
    bad.extend_from_slice(&0u32.to_le_bytes());
    let resps = client.call_raw(&bad, 1).expect("malformed answered");
    assert_eq!(resps, vec![Response::Error(WireError::Malformed)]);
    assert_eq!(client.call(&Request::Ping).expect("survives"), Response::Pong);

    // A header violation (wrong version): typed protocol error, then
    // the server closes the stream.
    let mut fatal = Vec::new();
    fatal.extend_from_slice(&samplehist_service::wire::MAGIC.to_le_bytes());
    fatal.push(samplehist_service::wire::VERSION + 9);
    fatal.push(0x01);
    fatal.extend_from_slice(&0u32.to_le_bytes());
    let resps = client.call_raw(&fatal, 1).expect("typed protocol error");
    assert_eq!(resps, vec![Response::Error(WireError::Protocol)]);
    assert!(
        client.call(&Request::Ping).is_err(),
        "poisoned connection must be closed, not left hanging"
    );
    server.stop();
}

/// The accept-side admission gate: connections beyond the cap receive a
/// typed shed with a retry hint instead of hanging in a backlog.
#[test]
fn connection_cap_sheds_with_typed_retry_hint() {
    let registry = warm_registry(0x51ED, 1);
    let opts = ServerOptions { max_connections: 1, retry_after_ms: 123, ..Default::default() };
    let server = WireServer::start(&registry, "127.0.0.1:0", opts).expect("bind");

    let mut first = WireClient::connect(server.addr()).expect("first connect");
    assert_eq!(first.call(&Request::Ping).expect("first client served"), Response::Pong);

    // The second connection must be told to go away, promptly.
    let mut shed_seen = false;
    for _ in 0..50 {
        let mut second = match WireClient::connect(server.addr()) {
            Ok(c) => c,
            Err(_) => continue,
        };
        match second.call_raw(&[], 1) {
            Ok(resps) => {
                assert_eq!(resps, vec![Response::Error(WireError::Shed { retry_after_ms: 123 })]);
                shed_seen = true;
                break;
            }
            // The acceptor may not have seen the first connection yet;
            // retry until the cap is observably enforced.
            Err(_) => std::thread::sleep(std::time::Duration::from_millis(5)),
        }
    }
    assert!(shed_seen, "over-cap connection was never shed");
    assert!(server.accept_sheds() > 0);
    // The first client is still healthy.
    assert_eq!(first.call(&Request::Ping).expect("still served"), Response::Pong);
    server.stop();
}

/// The dispatch-side admission gate: a tenant with a deep refresh queue
/// sheds estimates (typed, with the hint) but still accepts feedback.
#[test]
fn queue_depth_sheds_estimates_but_not_feedback() {
    let registry = warm_registry(0xDEEB, 1);
    let svc = registry.get(TenantId(0)).expect("tenant");
    // Pile up refresh work without draining it: report massive churn so
    // the next stale lookup queues a refresh that stays queued.
    svc.record_modifications("orders", "amount", 1_000_000);
    let _ = svc.estimate_cardinality("orders", "amount", &Predicate::Eq(1));
    assert!(svc.queue_depth() > 0, "churn must queue a refresh");

    let ctl = AdmissionControl { shed_queue_depth: 0, retry_after_ms: 77 };
    let reqs = vec![
        Request::Estimate {
            tenant: TenantId(0),
            table: "orders".into(),
            column: "amount".into(),
            predicate: Predicate::Eq(1),
        },
        Request::RecordMods {
            tenant: TenantId(0),
            table: "orders".into(),
            column: "amount".into(),
            count: 1,
        },
    ];
    let resps = dispatch(&registry, &reqs, &ctl);
    assert_eq!(resps[0], Response::Error(WireError::Shed { retry_after_ms: 77 }));
    assert_eq!(resps[1], Response::Ack { known: true, qerror: None }, "feedback never shed");
}

/// Coalescing correctness at the dispatch layer: interleaved tenants,
/// tables and single/batch shapes all come back to the right requester
/// with the right arity.
#[test]
fn dispatch_coalesces_across_interleaved_requests() {
    let registry = warm_registry(0xC0A1, 2);
    let ctl = AdmissionControl::default();
    let p = probe_predicates();
    let reqs = vec![
        Request::Estimate {
            tenant: TenantId(0),
            table: "orders".into(),
            column: "amount".into(),
            predicate: p[0],
        },
        Request::Estimate {
            tenant: TenantId(1),
            table: "orders".into(),
            column: "amount".into(),
            predicate: p[1],
        },
        Request::EstimateBatch {
            tenant: TenantId(0),
            table: "orders".into(),
            column: "amount".into(),
            predicates: p[2..6].to_vec(),
        },
        Request::Ping,
        Request::Estimate {
            tenant: TenantId(0),
            table: "orders".into(),
            column: "amount".into(),
            predicate: p[6],
        },
    ];
    let resps = dispatch(&registry, &reqs, &ctl);
    assert_eq!(resps.len(), 5);
    let svc0 = registry.get(TenantId(0)).unwrap();
    let svc1 = registry.get(TenantId(1)).unwrap();
    let expect = |svc: &StatsService, p: &Predicate| {
        svc.estimate_cardinality("orders", "amount", p).expect("warm").rows.to_bits()
    };
    match (&resps[0], &resps[1], &resps[4]) {
        (Response::Estimate(Some(a)), Response::Estimate(Some(b)), Response::Estimate(Some(c))) => {
            assert_eq!(a.rows.to_bits(), expect(&svc0, &p[0]));
            assert_eq!(b.rows.to_bits(), expect(&svc1, &p[1]));
            assert_eq!(c.rows.to_bits(), expect(&svc0, &p[6]));
        }
        other => panic!("wrong estimate shapes: {other:?}"),
    }
    let Response::EstimateBatch(Some(batch)) = &resps[2] else {
        panic!("expected a batch response: {:?}", resps[2]);
    };
    assert_eq!(batch.len(), 4);
    for (est, pred) in batch.iter().zip(&p[2..6]) {
        assert_eq!(est.rows.to_bits(), expect(&svc0, pred));
    }
    assert_eq!(resps[3], Response::Pong);
}

/// Run `body` on its own thread and fail the test if it is still
/// running after `limit`, so a hung server fails instead of hanging.
fn within<T: Send + 'static>(limit: Duration, body: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        let _ = tx.send(body());
    });
    match rx.recv_timeout(limit) {
        Ok(value) => value,
        Err(RecvTimeoutError::Timeout) => panic!("test body still running after {limit:?}"),
        Err(RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(handle.join().expect_err("body ended without a value"))
        }
    }
}

/// How much a client that never reads may pipeline before the test
/// concludes that the server keeps reading it.
const STUCK_CAP: usize = 64 << 20;

/// Connect a client that pipelines `Ping`s and never reads its `Pong`s.
/// Returns the connection once one of its writes times out, that is,
/// once the server has stopped reading it; `None` if `STUCK_CAP` bytes
/// went through without one.
fn stuck_client(addr: SocketAddr) -> Option<TcpStream> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_write_timeout(Some(Duration::from_millis(200))).expect("write timeout");
    let pings = Request::Ping.encode().repeat(8192);
    // Offset into `pings`, so a partial write never tears a frame.
    let (mut pos, mut sent) = (0, 0);
    while sent < STUCK_CAP {
        match stream.write(&pings[pos..]) {
            Ok(n) => {
                sent += n;
                pos = (pos + n) % pings.len();
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                return Some(stream)
            }
            Err(e) => panic!("write failed after {sent} bytes: {e}"),
        }
    }
    None
}

/// Backpressure: the server writes each read's answers before it reads
/// again, so a peer that pipelines without reading stops being read
/// (its writes time out) instead of growing server memory — and it
/// holds up only its own connection.
#[test]
fn a_client_that_never_reads_stops_being_read() {
    within(Duration::from_secs(60), || {
        let registry = warm_registry(0xB4C, 1);
        let server =
            WireServer::start(&registry, "127.0.0.1:0", ServerOptions::default()).expect("bind");
        let stuck = stuck_client(server.addr());
        assert!(stuck.is_some(), "server kept reading {STUCK_CAP} bytes nobody read answers to");
        let mut other = WireClient::connect(server.addr()).expect("connect");
        assert_eq!(other.call(&Request::Ping).expect("other client served"), Response::Pong);
        server.stop();
    });
}

/// `stop()` closes every kind of connection promptly: idle, holding
/// half a frame, and blocked writing to a peer that never reads.
#[test]
fn stop_returns_promptly_with_idle_half_frame_and_stuck_clients() {
    within(Duration::from_secs(60), || {
        let registry = warm_registry(0x5709, 1);
        let server =
            WireServer::start(&registry, "127.0.0.1:0", ServerOptions::default()).expect("bind");
        let addr = server.addr();
        let mut idle = WireClient::connect(addr).expect("connect");
        assert_eq!(idle.call(&Request::Ping).expect("idle client served"), Response::Pong);
        let mut half = TcpStream::connect(addr).expect("connect");
        let ping = Request::Ping.encode();
        half.write_all(&ping[..ping.len() / 2]).expect("half a frame");
        let stuck = stuck_client(addr).expect("server must stop reading the stuck client");

        let started = Instant::now();
        server.stop();
        let took = started.elapsed();
        assert!(took < Duration::from_secs(2), "stop() took {took:?}");
        assert!(idle.call(&Request::Ping).is_err(), "idle connection must be closed");
        drop((half, stuck));
    });
}

/// A closed connection frees its slot: with room for one connection,
/// 200 sequential connect → `Ping` → close cycles are all served and
/// none is shed. The client closes gracefully (half-close, then read to
/// EOF); the server frees the slot before it closes its side, so the
/// next connect always finds it free.
#[test]
fn a_closed_connection_frees_its_slot() {
    within(Duration::from_secs(60), || {
        let registry = warm_registry(0x1C0, 1);
        let opts = ServerOptions { max_connections: 1, ..Default::default() };
        let server = WireServer::start(&registry, "127.0.0.1:0", opts).expect("bind");
        for cycle in 0..200 {
            let mut stream = TcpStream::connect(server.addr()).expect("connect");
            stream.write_all(&Request::Ping.encode()).expect("send ping");
            stream.shutdown(Shutdown::Write).expect("half-close");
            let mut reply = Vec::new();
            stream.read_to_end(&mut reply).expect("read to EOF");
            assert_eq!(reply, Response::Pong.encode(), "cycle {cycle}");
        }
        assert_eq!(server.accept_sheds(), 0);
        server.stop();
    });
}
