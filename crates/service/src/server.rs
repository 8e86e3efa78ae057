//! The network front-end: a std-only blocking TCP server speaking the
//! [`wire`](crate::wire) protocol over a [`TenantRegistry`].
//!
//! Same zero-dependency stance as [`MetricsServer`](crate::MetricsServer),
//! generalized from one-shot HTTP responses to long-lived pipelined
//! connections. One thread blocks in `accept`; every accepted
//! connection gets its own thread, which blocks in `read`, decodes
//! every complete frame it has, answers them all through [`dispatch`],
//! and `write_all`s the answers before it reads again. No epoll, no
//! async runtime, no sleeps or timeouts on the request path: a request
//! is answered as soon as its bytes arrive.
//! [`ServerOptions::max_connections`] bounds the thread count.
//!
//! **Backpressure**: answers are written before the next read, so a
//! peer that pipelines requests without reading its answers blocks its
//! own connection thread in `write_all` and stops being read. The
//! kernel's socket buffers, not the server's heap, absorb it.
//!
//! **Shutdown**: [`WireServer::stop`] sets a flag and connects to the
//! listener once to wake the blocked `accept`, then shuts down a clone
//! of every live socket, which fails any blocked `read` or `write`, and
//! joins every thread.
//!
//! **Batching/coalescing**: all estimate requests that one read brings
//! in are grouped per (tenant, table, column) and answered through
//! [`StatsService::estimate_cardinality_batch`] — one snapshot lookup
//! and a few eight-lane tree descents for the whole group. Because the
//! engine's batched router is bit-identical to its scalar router,
//! coalescing is invisible in the bytes: every response equals what the
//! in-process API returns for that predicate. [`dispatch`] is public
//! precisely so tests and the no-socket simulation harness drive the
//! *same* code path the server does.
//!
//! **Admission control**: two typed shed points, never a hang — the
//! acceptor refuses connections beyond
//! [`ServerOptions::max_connections`] with a [`WireError::Shed`] frame,
//! and estimate groups against a tenant whose refresh queue is deeper
//! than [`ServerOptions::shed_queue_depth`] (the same queue-depth gauge
//! `/metrics` exports) are shed with a `retry_after_ms` hint. Feedback
//! writes ([`Request::RecordActual`] / [`Request::RecordMods`]) are
//! never shed: they are cheap, and starving the feedback loop under
//! pressure is how estimates rot exactly when fresh ones matter most.
//!
//! [`StatsService::estimate_cardinality_batch`]:
//!     crate::StatsService::estimate_cardinality_batch

use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, Weak};
use std::thread::JoinHandle;
use std::time::Duration;

use samplehist_engine::Predicate;

use crate::tenant::{TenantId, TenantRegistry};
use crate::wire::{FrameDecoder, Request, Response, WireError};

/// Tuning for a [`WireServer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerOptions {
    /// No longer read: the server runs one thread per connection. Kept
    /// only because the repository benchmark prints its default.
    pub workers: usize,
    /// Live-connection cap, and so the connection-thread cap; the
    /// acceptor sheds beyond it.
    pub max_connections: usize,
    /// Per-tenant refresh-queue depth beyond which estimate requests
    /// are shed (feedback writes always pass).
    pub shed_queue_depth: usize,
    /// The backoff hint carried in every shed response.
    pub retry_after_ms: u32,
}

impl Default for ServerOptions {
    fn default() -> Self {
        Self { workers: 2, max_connections: 256, shed_queue_depth: 512, retry_after_ms: 50 }
    }
}

/// The queue-depth shed decision, split from [`ServerOptions`] so
/// [`dispatch`] can run without a server (simulation, tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionControl {
    /// Shed estimates against tenants whose refresh queue is deeper.
    pub shed_queue_depth: usize,
    /// Backoff hint for shed responses, in milliseconds.
    pub retry_after_ms: u32,
}

impl From<&ServerOptions> for AdmissionControl {
    fn from(o: &ServerOptions) -> Self {
        Self { shed_queue_depth: o.shed_queue_depth, retry_after_ms: o.retry_after_ms }
    }
}

impl Default for AdmissionControl {
    fn default() -> Self {
        (&ServerOptions::default()).into()
    }
}

/// Answer a slice of decoded requests in order, coalescing estimate
/// requests per (tenant, table, column) through the batched estimation
/// path. This is the single dispatch surface: the socket server, the
/// deterministic simulation harness, and the end-to-end tests all call
/// exactly this function, which is what makes "the wire answers
/// byte-equal the in-process API" a checkable property rather than a
/// hope.
pub fn dispatch(
    registry: &TenantRegistry,
    requests: &[Request],
    ctl: &AdmissionControl,
) -> Vec<Response> {
    struct Member {
        slot: usize,
        offset: usize,
        len: usize,
        batch: bool,
    }
    struct Group {
        tenant: TenantId,
        table: String,
        column: String,
        predicates: Vec<Predicate>,
        members: Vec<Member>,
    }
    let recorder = samplehist_obs::global();
    let mut responses: Vec<Option<Response>> = Vec::with_capacity(requests.len());
    responses.resize_with(requests.len(), || None);
    // First-seen group order, so multi-group dispatches touch tenant
    // counters in a deterministic order whatever HashMap the index uses.
    let mut groups: Vec<Group> = Vec::new();
    let mut index: HashMap<(u64, String, String), usize> = HashMap::new();
    let mut enqueue = |groups: &mut Vec<Group>,
                       tenant: &TenantId,
                       table: &str,
                       column: &str,
                       predicates: &[Predicate],
                       member: (usize, bool)| {
        let key = (tenant.0, table.to_string(), column.to_string());
        let gi = *index.entry(key).or_insert_with(|| {
            groups.push(Group {
                tenant: *tenant,
                table: table.to_string(),
                column: column.to_string(),
                predicates: Vec::new(),
                members: Vec::new(),
            });
            groups.len() - 1
        });
        let g = &mut groups[gi];
        let offset = g.predicates.len();
        g.predicates.extend_from_slice(predicates);
        g.members.push(Member { slot: member.0, offset, len: predicates.len(), batch: member.1 });
    };
    for (i, req) in requests.iter().enumerate() {
        match req {
            Request::Ping => responses[i] = Some(Response::Pong),
            Request::Estimate { tenant, table, column, predicate } => {
                enqueue(
                    &mut groups,
                    tenant,
                    table,
                    column,
                    std::slice::from_ref(predicate),
                    (i, false),
                );
            }
            Request::EstimateBatch { tenant, table, column, predicates } => {
                enqueue(&mut groups, tenant, table, column, predicates, (i, true));
            }
            Request::RecordActual { tenant, table, column, predicate, predicted, actual } => {
                responses[i] = Some(match registry.get(*tenant) {
                    None => Response::Error(WireError::UnknownTenant { tenant: tenant.0 }),
                    Some(svc) => {
                        let qerror = svc
                            .record_actual_predicate(table, column, predicate, *predicted, *actual);
                        Response::Ack { known: qerror.is_some(), qerror }
                    }
                });
            }
            Request::RecordMods { tenant, table, column, count } => {
                responses[i] = Some(match registry.get(*tenant) {
                    None => Response::Error(WireError::UnknownTenant { tenant: tenant.0 }),
                    Some(svc) => Response::Ack {
                        known: svc.record_modifications(table, column, *count),
                        qerror: None,
                    },
                });
            }
        }
    }
    drop(index);
    for g in groups {
        let answer: Box<dyn Fn(usize, usize) -> Response> = match registry.get(g.tenant) {
            None => {
                let t = g.tenant.0;
                Box::new(move |_, _| Response::Error(WireError::UnknownTenant { tenant: t }))
            }
            Some(svc) if svc.queue_depth() > ctl.shed_queue_depth => {
                let ms = ctl.retry_after_ms;
                recorder.counter("server.shed.queue_depth", g.members.len() as u64);
                Box::new(move |_, _| Response::Error(WireError::Shed { retry_after_ms: ms }))
            }
            Some(svc) => {
                if recorder.is_enabled() {
                    recorder.counter("server.batch.calls", 1);
                    recorder.counter("server.batch.probes", g.predicates.len() as u64);
                    recorder.observe("server.batch_width", "estimate", g.predicates.len() as f64);
                }
                match svc.estimate_cardinality_batch(&g.table, &g.column, &g.predicates) {
                    None => Box::new(|_, _| Response::Estimate(None)),
                    Some(ests) => {
                        let wire: Vec<crate::wire::WireEstimate> =
                            ests.into_iter().map(Into::into).collect();
                        Box::new(move |offset, len| {
                            Response::EstimateBatch(Some(wire[offset..offset + len].to_vec()))
                        })
                    }
                }
            }
        };
        for m in &g.members {
            responses[m.slot] = Some(match answer(m.offset, m.len) {
                // Single-predicate members unwrap their one-element batch.
                Response::EstimateBatch(Some(v)) if !m.batch => Response::Estimate(Some(v[0])),
                Response::EstimateBatch(None) if !m.batch => Response::Estimate(None),
                Response::Estimate(None) if m.batch => Response::EstimateBatch(None),
                other => other,
            });
        }
    }
    responses.into_iter().map(|r| r.expect("every request answered")).collect()
}

/// Bytes a connection thread reads at a time.
const READ_BUF: usize = 64 * 1024;

/// A listener served by a blocking `accept` loop on its own thread: the
/// one accept loop under both [`WireServer`] and
/// [`MetricsServer`](crate::MetricsServer). Stopping sets a flag, then
/// connects to the listener once so the blocked `accept` returns and
/// sees it. Dropping stops it.
#[derive(Debug)]
pub(crate) struct Acceptor {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl Acceptor {
    /// Start accepting on `listener`. `on_accept` handles each
    /// connection on the accept thread and returns `false` to stop.
    pub(crate) fn spawn(
        listener: TcpListener,
        name: &str,
        mut on_accept: impl FnMut(TcpStream) -> bool + Send + 'static,
    ) -> std::io::Result<Self> {
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::Builder::new().name(name.to_string()).spawn(move || {
            for stream in listener.incoming() {
                if flag.load(Ordering::SeqCst) {
                    break;
                }
                // An accept error concerns one peer (say, it reset
                // before we got to it); the listener is still good.
                if let Ok(stream) = stream {
                    if !on_accept(stream) {
                        break;
                    }
                }
            }
        })?;
        Ok(Self { addr, stop, thread: Some(thread) })
    }

    /// The bound address (resolves ephemeral ports).
    pub(crate) fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting and join the accept thread; later calls do nothing.
    pub(crate) fn stop(&mut self) {
        let Some(thread) = self.thread.take() else { return };
        self.stop.store(true, Ordering::SeqCst);
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => std::net::Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => std::net::Ipv6Addr::LOCALHOST.into(),
            });
        }
        // Refused if the loop already ended on its own; harmless.
        let _ = TcpStream::connect_timeout(&wake, Duration::from_secs(1));
        let _ = thread.join();
    }
}

impl Drop for Acceptor {
    fn drop(&mut self) {
        self.stop();
    }
}

struct Shared {
    /// A clone of every live connection's socket, by connection id: its
    /// size is the live count, and `stop` shuts these down to unblock
    /// the connection threads.
    conns: Mutex<HashMap<u64, TcpStream>>,
    /// Connection threads; finished ones are dropped at each accept.
    threads: Mutex<Vec<JoinHandle<()>>>,
    sheds: AtomicU64,
    requests: AtomicU64,
}

/// The wire-protocol TCP server. Start with [`WireServer::start`];
/// stops (joining all threads) on [`WireServer::stop`] or drop.
///
/// The server holds the registry only weakly — like
/// [`MetricsServer`](crate::MetricsServer), dropping the registry's
/// last user `Arc` quiesces the server rather than leaking it: each
/// connection closes at its next read, the acceptor at its next accept.
pub struct WireServer {
    acceptor: Acceptor,
    shared: Arc<Shared>,
}

impl std::fmt::Debug for WireServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WireServer").field("addr", &self.addr()).finish()
    }
}

impl WireServer {
    /// Bind `addr` (use port 0 for an ephemeral port; [`Self::addr`]
    /// reports what was bound) and start the acceptor thread.
    pub fn start(
        registry: &Arc<TenantRegistry>,
        addr: impl ToSocketAddrs,
        opts: ServerOptions,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let shared = Arc::new(Shared {
            conns: Mutex::new(HashMap::new()),
            threads: Mutex::new(Vec::new()),
            sheds: AtomicU64::new(0),
            requests: AtomicU64::new(0),
        });
        let acceptor = {
            let shared = Arc::clone(&shared);
            let registry = Arc::downgrade(registry);
            let mut next_id = 0u64;
            Acceptor::spawn(listener, "statserve-accept", move |stream| {
                if registry.strong_count() == 0 {
                    return false;
                }
                next_id += 1;
                admit(stream, next_id, &shared, &registry, &opts);
                true
            })?
        };
        samplehist_obs::global().counter("server.started", 1);
        Ok(Self { acceptor, shared })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.acceptor.addr()
    }

    /// Connections shed at accept (the `max_connections` gate).
    pub fn accept_sheds(&self) -> u64 {
        self.shared.sheds.load(Ordering::Relaxed)
    }

    /// Requests answered over the wire (all kinds, sheds included).
    pub fn requests_served(&self) -> u64 {
        self.shared.requests.load(Ordering::Relaxed)
    }

    /// Stop accepting, close every connection, join every thread.
    pub fn stop(mut self) {
        self.shutdown();
    }

    /// Runs in `Drop`, so it must not panic: a poisoned lock is still
    /// usable, as every update to the map and the list is a single call.
    fn shutdown(&mut self) {
        // The acceptor goes first, so no connection is added after the
        // sweep below.
        self.acceptor.stop();
        for stream in self.shared.conns.lock().unwrap_or_else(PoisonError::into_inner).values() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        let threads = std::mem::take(
            &mut *self.shared.threads.lock().unwrap_or_else(PoisonError::into_inner),
        );
        for h in threads {
            let _ = h.join();
        }
    }
}

impl Drop for WireServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Give an accepted connection its own thread, or shed it with a typed
/// frame when `max_connections` are already live.
fn admit(
    mut stream: TcpStream,
    id: u64,
    shared: &Arc<Shared>,
    registry: &Weak<TenantRegistry>,
    opts: &ServerOptions,
) {
    let recorder = samplehist_obs::global();
    let mut conns = shared.conns.lock().expect("conn table");
    if conns.len() >= opts.max_connections {
        drop(conns);
        // Typed shed, then close: the client learns why and when to
        // retry instead of watching a hang.
        shared.sheds.fetch_add(1, Ordering::Relaxed);
        shared.requests.fetch_add(1, Ordering::Relaxed);
        recorder.counter("server.shed.connection", 1);
        let _ = stream.set_write_timeout(Some(Duration::from_millis(100)));
        let frame =
            Response::Error(WireError::Shed { retry_after_ms: opts.retry_after_ms }).encode();
        let _ = stream.write_all(&frame);
        return;
    }
    let Ok(clone) = stream.try_clone() else { return };
    conns.insert(id, clone);
    drop(conns);
    recorder.counter("server.connections", 1);
    let _ = stream.set_nodelay(true);
    let (thread_shared, registry, ctl) = (Arc::clone(shared), registry.clone(), opts.into());
    let spawned =
        std::thread::Builder::new().name(format!("statserve-conn-{id}")).spawn(move || {
            serve_connection(stream, &registry, &ctl, &thread_shared);
            // Only now does the socket close (the clone is its last
            // handle), so a peer that sees EOF sees a freed slot.
            thread_shared.conns.lock().expect("conn table").remove(&id);
        });
    let mut threads = shared.threads.lock().expect("thread list");
    threads.retain(|h| !h.is_finished());
    match spawned {
        Ok(h) => threads.push(h),
        Err(_) => drop(shared.conns.lock().expect("conn table").remove(&id)),
    }
}

/// Serve one connection until EOF, an I/O error, a frame error or a
/// dropped registry: read what has arrived, answer every complete frame,
/// write the answers, and only then read again.
fn serve_connection(
    mut stream: TcpStream,
    registry: &Weak<TenantRegistry>,
    ctl: &AdmissionControl,
    shared: &Shared,
) {
    let mut decoder = FrameDecoder::new();
    let mut buf = vec![0u8; READ_BUF];
    let mut out = Vec::new();
    loop {
        let n = match stream.read(&mut buf) {
            Ok(n) if n > 0 => n,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            _ => return,
        };
        decoder.feed(&buf[..n]);
        let Some(registry) = registry.upgrade() else { return };
        let poisoned = answer_frames(&mut decoder, &registry, ctl, shared, &mut out);
        drop(registry);
        if stream.write_all(&out).is_err() || poisoned {
            return;
        }
        out.clear();
    }
}

/// Decode every complete frame in `decoder` and append the encoded
/// answers to `out`, in order. A malformed payload is answered with a
/// typed `Malformed` error and the stream goes on. A frame error
/// poisons the stream: it is answered with a typed `Protocol` error
/// after everything decoded before it, and `true` is returned so the
/// caller closes the connection.
fn answer_frames(
    decoder: &mut FrameDecoder,
    registry: &TenantRegistry,
    ctl: &AdmissionControl,
    shared: &Shared,
    out: &mut Vec<u8>,
) -> bool {
    let recorder = samplehist_obs::global();
    let mut requests = Vec::new();
    // Per frame in arrival order: did its payload decode?
    let mut decoded = Vec::new();
    let poisoned = loop {
        match decoder.next_frame() {
            Ok(Some(frame)) => match Request::decode_payload(frame.kind, &frame.payload) {
                Ok(req) => {
                    requests.push(req);
                    decoded.push(true);
                }
                Err(_) => decoded.push(false),
            },
            Ok(None) => break false,
            Err(_) => break true,
        }
    };
    if !decoded.is_empty() {
        shared.requests.fetch_add(decoded.len() as u64, Ordering::Relaxed);
        recorder.counter("server.requests", decoded.len() as u64);
        let mut span = recorder.span("server.cycle");
        span.field("requests", decoded.len() as u64);
        let mut answers = dispatch(registry, &requests, ctl).into_iter();
        for ok in decoded {
            let resp = if ok {
                answers.next().expect("dispatch answers all requests")
            } else {
                recorder.counter("server.malformed", 1);
                Response::Error(WireError::Malformed)
            };
            out.extend_from_slice(&resp.encode());
        }
    }
    if poisoned {
        recorder.counter("server.protocol_error", 1);
        out.extend_from_slice(&Response::Error(WireError::Protocol).encode());
    }
    poisoned
}

/// A minimal blocking client for the wire protocol — what the netbench
/// phase, the end-to-end tests, and README examples use. Pipelines
/// freely: [`Self::call_many`] writes every request before reading the
/// first response.
#[derive(Debug)]
pub struct WireClient {
    stream: TcpStream,
    decoder: FrameDecoder,
}

impl WireClient {
    /// Connect (blocking I/O).
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(Self { stream, decoder: FrameDecoder::new() })
    }

    /// Send one request, wait for its response.
    pub fn call(&mut self, req: &Request) -> std::io::Result<Response> {
        Ok(self.call_many(std::slice::from_ref(req))?.remove(0))
    }

    /// Pipeline `reqs` and collect their responses in order.
    pub fn call_many(&mut self, reqs: &[Request]) -> std::io::Result<Vec<Response>> {
        let mut wire = Vec::new();
        for r in reqs {
            wire.extend_from_slice(&r.encode());
        }
        self.stream.write_all(&wire)?;
        self.read_responses(reqs.len())
    }

    /// Send pre-encoded frame bytes and collect `expect` responses —
    /// the raw entry point the protocol-abuse tests use.
    pub fn call_raw(&mut self, bytes: &[u8], expect: usize) -> std::io::Result<Vec<Response>> {
        self.stream.write_all(bytes)?;
        self.read_responses(expect)
    }

    fn read_responses(&mut self, want: usize) -> std::io::Result<Vec<Response>> {
        let mut out = Vec::with_capacity(want);
        let mut buf = [0u8; 4096];
        while out.len() < want {
            loop {
                match self.decoder.next_frame() {
                    Ok(Some(frame)) => {
                        let resp =
                            Response::decode_payload(frame.kind, &frame.payload).map_err(|e| {
                                std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string())
                            })?;
                        out.push(resp);
                        if out.len() == want {
                            return Ok(out);
                        }
                    }
                    Ok(None) => break,
                    Err(e) => {
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::InvalidData,
                            e.to_string(),
                        ))
                    }
                }
            }
            let n = self.stream.read(&mut buf)?;
            if n == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    format!("connection closed with {} of {want} responses", out.len()),
                ));
            }
            self.decoder.feed(&buf[..n]);
        }
        Ok(out)
    }
}
