//! The statserve wire protocol: length-prefixed binary frames over TCP,
//! zero-dep and std-only.
//!
//! Every frame is an 8-byte header followed by a payload:
//!
//! ```text
//! ┌────────┬─────────┬──────┬──────────────┬───────────────┐
//! │ magic  │ version │ kind │ payload len  │ payload bytes │
//! │ u16 LE │ u8      │ u8   │ u32 LE       │ len bytes     │
//! └────────┴─────────┴──────┴──────────────┴───────────────┘
//! ```
//!
//! Integers are little-endian; floats travel as their IEEE-754 bit
//! patterns (`f64::to_bits`), which is what makes the server's answers
//! *byte*-comparable to the in-process API — no text formatting in the
//! path, no rounding. Strings are length-prefixed UTF-8 (u16 length).
//!
//! Decoding is split into two layers with different failure semantics:
//!
//! * **Framing** ([`FrameDecoder`]) is incremental — feed it whatever a
//!   socket read produced, it yields complete frames and buffers
//!   partial ones, so torn reads and pipelined clients both just work.
//!   A header-level violation (wrong magic, unknown version, oversized
//!   length) is a [`FrameError`]: the stream offset can no longer be
//!   trusted, the connection must answer with a typed error and close.
//! * **Payload decoding** ([`Request::decode_payload`] /
//!   [`Response::decode_payload`]) is per-frame — a malformed payload
//!   yields a [`PayloadError`], the server answers
//!   [`WireError::Malformed`] and keeps the connection (framing is
//!   still sound). Every read is bounds-checked and every count field
//!   is validated against the remaining bytes before allocation, so
//!   arbitrary input can never panic or balloon memory.

use samplehist_engine::{CardinalityEstimate, Predicate};

use crate::tenant::TenantId;

/// Frame magic: `"SH"` little-endian ("sample histogram").
pub const MAGIC: u16 = 0x4853;
/// Protocol version carried in every frame header.
pub const VERSION: u8 = 1;
/// Header bytes before the payload.
pub const HEADER_LEN: usize = 8;
/// Largest accepted payload. Far above any legitimate request (a
/// full batch of 4096 predicates is ~70 KiB) while keeping a hostile
/// length field from reserving gigabytes.
pub const MAX_PAYLOAD: u32 = 1 << 20;

/// Frame kind bytes. Requests have the high bit clear, responses set.
pub mod kind {
    /// Liveness check.
    pub const PING: u8 = 0x01;
    /// Single-predicate cardinality estimate.
    pub const ESTIMATE: u8 = 0x02;
    /// Multi-predicate estimate against one column.
    pub const ESTIMATE_BATCH: u8 = 0x03;
    /// Observed-cardinality feedback.
    pub const RECORD_ACTUAL: u8 = 0x04;
    /// Data-churn report (staleness signal).
    pub const RECORD_MODS: u8 = 0x05;
    /// Response to [`PING`].
    pub const PONG: u8 = 0x81;
    /// Response to [`ESTIMATE`].
    pub const ESTIMATE_RESP: u8 = 0x82;
    /// Response to [`ESTIMATE_BATCH`].
    pub const ESTIMATE_BATCH_RESP: u8 = 0x83;
    /// Response to [`RECORD_ACTUAL`] / [`RECORD_MODS`].
    pub const ACK: u8 = 0x84;
    /// Typed error response (any request kind).
    pub const ERROR: u8 = 0xEE;
}

/// A complete frame as the decoder yields it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// The header's kind byte (not yet validated against known kinds).
    pub kind: u8,
    /// The payload bytes.
    pub payload: Vec<u8>,
}

/// A header-level protocol violation: the stream offset is unusable and
/// the connection must close (after a best-effort typed error reply).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// The first two bytes were not [`MAGIC`].
    BadMagic {
        /// What arrived instead.
        got: u16,
    },
    /// The header named a protocol version this build does not speak.
    UnsupportedVersion {
        /// The version byte received.
        got: u8,
    },
    /// The header's payload length exceeds [`MAX_PAYLOAD`].
    Oversized {
        /// The length received.
        len: u32,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::BadMagic { got } => write!(f, "bad frame magic 0x{got:04x}"),
            FrameError::UnsupportedVersion { got } => {
                write!(f, "unsupported protocol version {got} (want {VERSION})")
            }
            FrameError::Oversized { len } => {
                write!(f, "frame payload of {len} bytes exceeds the {MAX_PAYLOAD}-byte cap")
            }
        }
    }
}

/// A per-frame payload violation: the frame was well-delimited but its
/// bytes do not decode as the kind claims. The connection survives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PayloadError {
    /// The kind byte names no known request/response.
    UnknownKind {
        /// The kind byte received.
        kind: u8,
    },
    /// The payload ended before a field did.
    Truncated,
    /// The payload has bytes left over after the last field.
    TrailingBytes,
    /// A length-prefixed string was not valid UTF-8.
    BadUtf8,
    /// An enum tag byte was out of range.
    BadTag,
    /// A count field promised more elements than the payload can hold.
    BadCount,
}

impl std::fmt::Display for PayloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PayloadError::UnknownKind { kind } => write!(f, "unknown frame kind 0x{kind:02x}"),
            PayloadError::Truncated => write!(f, "payload truncated"),
            PayloadError::TrailingBytes => write!(f, "payload has trailing bytes"),
            PayloadError::BadUtf8 => write!(f, "string field is not UTF-8"),
            PayloadError::BadTag => write!(f, "enum tag out of range"),
            PayloadError::BadCount => write!(f, "count field exceeds payload"),
        }
    }
}

/// Incremental frame decoder: feed it bytes as they arrive, take frames
/// as they complete. Tolerates any fragmentation — per-byte feeds, torn
/// headers, many frames in one read — because it only ever *peeks*
/// until a full frame is buffered.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    pos: usize,
}

impl FrameDecoder {
    /// A fresh decoder with empty buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append freshly-read bytes.
    pub fn feed(&mut self, bytes: &[u8]) {
        // Compact before growing: consumed frames leave a dead prefix.
        if self.pos > 0 && (self.pos >= self.buf.len() || self.pos > 4096) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed as frames.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The next complete frame, `Ok(None)` while one is still partial.
    /// A [`FrameError`] is sticky in spirit: the caller must stop
    /// decoding this stream (the offset is garbage from here on).
    pub fn next_frame(&mut self) -> Result<Option<Frame>, FrameError> {
        let avail = &self.buf[self.pos..];
        if avail.len() < HEADER_LEN {
            return Ok(None);
        }
        let magic = u16::from_le_bytes([avail[0], avail[1]]);
        if magic != MAGIC {
            return Err(FrameError::BadMagic { got: magic });
        }
        let version = avail[2];
        if version != VERSION {
            return Err(FrameError::UnsupportedVersion { got: version });
        }
        let kind = avail[3];
        let len = u32::from_le_bytes([avail[4], avail[5], avail[6], avail[7]]);
        if len > MAX_PAYLOAD {
            return Err(FrameError::Oversized { len });
        }
        let total = HEADER_LEN + len as usize;
        if avail.len() < total {
            return Ok(None);
        }
        let payload = avail[HEADER_LEN..total].to_vec();
        self.pos += total;
        Ok(Some(Frame { kind, payload }))
    }
}

/// A client-to-server request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness check; answered with [`Response::Pong`].
    Ping,
    /// One predicate's cardinality estimate on `tenant`'s
    /// `table.column`.
    Estimate {
        /// The tenant whose catalog answers.
        tenant: TenantId,
        /// Table name.
        table: String,
        /// Column name.
        column: String,
        /// The predicate to estimate.
        predicate: Predicate,
    },
    /// Many predicates against one column, answered in one frame. The
    /// server coalesces these (plus concurrent [`Request::Estimate`]s on
    /// the same column) into the engine's batched descent kernels.
    EstimateBatch {
        /// The tenant whose catalog answers.
        tenant: TenantId,
        /// Table name.
        table: String,
        /// Column name.
        column: String,
        /// The predicates to estimate.
        predicates: Vec<Predicate>,
    },
    /// Observed-cardinality feedback for the accuracy ledger.
    RecordActual {
        /// The tenant whose ledger records.
        tenant: TenantId,
        /// Table name.
        table: String,
        /// Column name.
        column: String,
        /// The executed predicate.
        predicate: Predicate,
        /// The estimate the plan used.
        predicted: f64,
        /// The cardinality execution observed.
        actual: f64,
    },
    /// Data-churn report: `count` modifications against a column.
    RecordMods {
        /// The tenant whose counters move.
        tenant: TenantId,
        /// Table name.
        table: String,
        /// Column name.
        column: String,
        /// Modified-row count to add.
        count: u64,
    },
}

/// One estimate on the wire — [`CardinalityEstimate`] plus nothing; a
/// distinct type only so wire stays decoupled from engine layout.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireEstimate {
    /// Estimated matching rows.
    pub rows: f64,
    /// `rows / num_rows`.
    pub selectivity: f64,
}

impl From<CardinalityEstimate> for WireEstimate {
    fn from(e: CardinalityEstimate) -> Self {
        Self { rows: e.rows, selectivity: e.selectivity }
    }
}

/// A server-to-client response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Liveness answer.
    Pong,
    /// Answer to [`Request::Estimate`]; `None` mirrors the in-process
    /// API's "no statistics yet, refresh queued".
    Estimate(Option<WireEstimate>),
    /// Answer to [`Request::EstimateBatch`], aligned with the request's
    /// predicate order.
    EstimateBatch(Option<Vec<WireEstimate>>),
    /// Answer to the record requests. `known` is false when the
    /// table/column was not registered; `qerror` carries
    /// [`StatsService::record_actual_predicate`]'s return for
    /// [`Request::RecordActual`].
    ///
    /// [`StatsService::record_actual_predicate`]:
    ///     crate::StatsService::record_actual_predicate
    Ack {
        /// Whether the table/column was known to the tenant.
        known: bool,
        /// The feedback observation's q-error, when one was recorded.
        qerror: Option<f64>,
    },
    /// Typed failure.
    Error(WireError),
}

/// Typed errors a server can answer with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The request named a tenant this server does not host.
    UnknownTenant {
        /// The tenant id received.
        tenant: u64,
    },
    /// Admission control rejected the request; retry after the given
    /// delay. Shedding is always answered, never a silent hang.
    Shed {
        /// Suggested client backoff in milliseconds.
        retry_after_ms: u32,
    },
    /// The request frame's payload did not decode.
    Malformed,
    /// The request frame's header did not parse (echoed before close).
    Protocol,
}

// ---- primitive encoders/decoders -----------------------------------------

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    let bytes = s.as_bytes();
    debug_assert!(bytes.len() <= u16::MAX as usize, "wire strings are u16-length-prefixed");
    put_u16(out, bytes.len() as u16);
    out.extend_from_slice(bytes);
}

fn put_predicate(out: &mut Vec<u8>, p: &Predicate) {
    match p {
        Predicate::Eq(v) => {
            out.push(0);
            put_i64(out, *v);
        }
        Predicate::Lt(v) => {
            out.push(1);
            put_i64(out, *v);
        }
        Predicate::Le(v) => {
            out.push(2);
            put_i64(out, *v);
        }
        Predicate::Gt(v) => {
            out.push(3);
            put_i64(out, *v);
        }
        Predicate::Ge(v) => {
            out.push(4);
            put_i64(out, *v);
        }
        Predicate::Between { low, high } => {
            out.push(5);
            put_i64(out, *low);
            put_i64(out, *high);
        }
    }
}

/// Bounds-checked reader over one payload.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], PayloadError> {
        let end = self.pos.checked_add(n).ok_or(PayloadError::Truncated)?;
        if end > self.buf.len() {
            return Err(PayloadError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn u8(&mut self) -> Result<u8, PayloadError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, PayloadError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, PayloadError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, PayloadError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    fn i64(&mut self) -> Result<i64, PayloadError> {
        Ok(self.u64()? as i64)
    }

    fn f64(&mut self) -> Result<f64, PayloadError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn str(&mut self) -> Result<String, PayloadError> {
        let len = self.u16()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| PayloadError::BadUtf8)
    }

    fn predicate(&mut self) -> Result<Predicate, PayloadError> {
        let tag = self.u8()?;
        Ok(match tag {
            0 => Predicate::Eq(self.i64()?),
            1 => Predicate::Lt(self.i64()?),
            2 => Predicate::Le(self.i64()?),
            3 => Predicate::Gt(self.i64()?),
            4 => Predicate::Ge(self.i64()?),
            5 => Predicate::Between { low: self.i64()?, high: self.i64()? },
            _ => return Err(PayloadError::BadTag),
        })
    }

    /// An element count that must fit in the remaining bytes at
    /// `min_elem_bytes` each — rejects hostile counts before any
    /// allocation happens.
    fn count(&mut self, min_elem_bytes: usize) -> Result<usize, PayloadError> {
        let count = self.u32()? as usize;
        if count.saturating_mul(min_elem_bytes) > self.remaining() {
            return Err(PayloadError::BadCount);
        }
        Ok(count)
    }

    fn finish(self) -> Result<(), PayloadError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(PayloadError::TrailingBytes)
        }
    }
}

fn frame_bytes(kind: u8, payload: &[u8]) -> Vec<u8> {
    debug_assert!(payload.len() <= MAX_PAYLOAD as usize, "payload exceeds the wire cap");
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    put_u16(&mut out, MAGIC);
    out.push(VERSION);
    out.push(kind);
    put_u32(&mut out, payload.len() as u32);
    out.extend_from_slice(payload);
    out
}

impl Request {
    /// Encode as one complete frame (header + payload).
    pub fn encode(&self) -> Vec<u8> {
        let mut p = Vec::new();
        let kind = match self {
            Request::Ping => kind::PING,
            Request::Estimate { tenant, table, column, predicate } => {
                put_u64(&mut p, tenant.0);
                put_str(&mut p, table);
                put_str(&mut p, column);
                put_predicate(&mut p, predicate);
                kind::ESTIMATE
            }
            Request::EstimateBatch { tenant, table, column, predicates } => {
                put_u64(&mut p, tenant.0);
                put_str(&mut p, table);
                put_str(&mut p, column);
                put_u32(&mut p, predicates.len() as u32);
                for pred in predicates {
                    put_predicate(&mut p, pred);
                }
                kind::ESTIMATE_BATCH
            }
            Request::RecordActual { tenant, table, column, predicate, predicted, actual } => {
                put_u64(&mut p, tenant.0);
                put_str(&mut p, table);
                put_str(&mut p, column);
                put_predicate(&mut p, predicate);
                put_f64(&mut p, *predicted);
                put_f64(&mut p, *actual);
                kind::RECORD_ACTUAL
            }
            Request::RecordMods { tenant, table, column, count } => {
                put_u64(&mut p, tenant.0);
                put_str(&mut p, table);
                put_str(&mut p, column);
                put_u64(&mut p, *count);
                kind::RECORD_MODS
            }
        };
        frame_bytes(kind, &p)
    }

    /// Decode a frame's payload as the request its kind byte claims.
    pub fn decode_payload(kind: u8, payload: &[u8]) -> Result<Self, PayloadError> {
        let mut r = Reader::new(payload);
        let req = match kind {
            kind::PING => Request::Ping,
            kind::ESTIMATE => Request::Estimate {
                tenant: TenantId(r.u64()?),
                table: r.str()?,
                column: r.str()?,
                predicate: r.predicate()?,
            },
            kind::ESTIMATE_BATCH => {
                let tenant = TenantId(r.u64()?);
                let table = r.str()?;
                let column = r.str()?;
                // Smallest predicate encoding: 1 tag + 8 value bytes.
                let count = r.count(9)?;
                let mut predicates = Vec::with_capacity(count);
                for _ in 0..count {
                    predicates.push(r.predicate()?);
                }
                Request::EstimateBatch { tenant, table, column, predicates }
            }
            kind::RECORD_ACTUAL => Request::RecordActual {
                tenant: TenantId(r.u64()?),
                table: r.str()?,
                column: r.str()?,
                predicate: r.predicate()?,
                predicted: r.f64()?,
                actual: r.f64()?,
            },
            kind::RECORD_MODS => Request::RecordMods {
                tenant: TenantId(r.u64()?),
                table: r.str()?,
                column: r.str()?,
                count: r.u64()?,
            },
            other => return Err(PayloadError::UnknownKind { kind: other }),
        };
        r.finish()?;
        Ok(req)
    }
}

fn put_estimate(out: &mut Vec<u8>, e: &WireEstimate) {
    put_f64(out, e.rows);
    put_f64(out, e.selectivity);
}

impl Response {
    /// Encode as one complete frame (header + payload).
    pub fn encode(&self) -> Vec<u8> {
        let mut p = Vec::new();
        let kind = match self {
            Response::Pong => kind::PONG,
            Response::Estimate(est) => {
                match est {
                    None => p.push(0),
                    Some(e) => {
                        p.push(1);
                        put_estimate(&mut p, e);
                    }
                }
                kind::ESTIMATE_RESP
            }
            Response::EstimateBatch(ests) => {
                match ests {
                    None => p.push(0),
                    Some(v) => {
                        p.push(1);
                        put_u32(&mut p, v.len() as u32);
                        for e in v {
                            put_estimate(&mut p, e);
                        }
                    }
                }
                kind::ESTIMATE_BATCH_RESP
            }
            Response::Ack { known, qerror } => {
                p.push(u8::from(*known));
                match qerror {
                    None => p.push(0),
                    Some(q) => {
                        p.push(1);
                        put_f64(&mut p, *q);
                    }
                }
                kind::ACK
            }
            Response::Error(err) => {
                match err {
                    WireError::UnknownTenant { tenant } => {
                        p.push(0);
                        put_u64(&mut p, *tenant);
                    }
                    WireError::Shed { retry_after_ms } => {
                        p.push(1);
                        put_u32(&mut p, *retry_after_ms);
                    }
                    WireError::Malformed => p.push(2),
                    WireError::Protocol => p.push(3),
                }
                kind::ERROR
            }
        };
        frame_bytes(kind, &p)
    }

    /// Decode a frame's payload as the response its kind byte claims.
    pub fn decode_payload(kind: u8, payload: &[u8]) -> Result<Self, PayloadError> {
        let mut r = Reader::new(payload);
        let resp = match kind {
            kind::PONG => Response::Pong,
            kind::ESTIMATE_RESP => Response::Estimate(match r.u8()? {
                0 => None,
                1 => Some(WireEstimate { rows: r.f64()?, selectivity: r.f64()? }),
                _ => return Err(PayloadError::BadTag),
            }),
            kind::ESTIMATE_BATCH_RESP => Response::EstimateBatch(match r.u8()? {
                0 => None,
                1 => {
                    let count = r.count(16)?;
                    let mut v = Vec::with_capacity(count);
                    for _ in 0..count {
                        v.push(WireEstimate { rows: r.f64()?, selectivity: r.f64()? });
                    }
                    Some(v)
                }
                _ => return Err(PayloadError::BadTag),
            }),
            kind::ACK => {
                let known = match r.u8()? {
                    0 => false,
                    1 => true,
                    _ => return Err(PayloadError::BadTag),
                };
                let qerror = match r.u8()? {
                    0 => None,
                    1 => Some(r.f64()?),
                    _ => return Err(PayloadError::BadTag),
                };
                Response::Ack { known, qerror }
            }
            kind::ERROR => Response::Error(match r.u8()? {
                0 => WireError::UnknownTenant { tenant: r.u64()? },
                1 => WireError::Shed { retry_after_ms: r.u32()? },
                2 => WireError::Malformed,
                3 => WireError::Protocol,
                _ => return Err(PayloadError::BadTag),
            }),
            other => return Err(PayloadError::UnknownKind { kind: other }),
        };
        r.finish()?;
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(req: &Request) {
        let bytes = req.encode();
        let mut d = FrameDecoder::new();
        d.feed(&bytes);
        let frame = d.next_frame().expect("framing").expect("complete");
        let back = Request::decode_payload(frame.kind, &frame.payload).expect("payload");
        assert_eq!(&back, req);
        assert!(d.next_frame().expect("framing").is_none());
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_request(&Request::Ping);
        roundtrip_request(&Request::Estimate {
            tenant: TenantId(7),
            table: "orders".into(),
            column: "amount".into(),
            predicate: Predicate::Between { low: -5, high: i64::MAX },
        });
        roundtrip_request(&Request::EstimateBatch {
            tenant: TenantId(u64::MAX),
            table: "t".into(),
            column: "c".into(),
            predicates: vec![
                Predicate::Eq(i64::MIN),
                Predicate::Lt(0),
                Predicate::Le(1),
                Predicate::Gt(2),
                Predicate::Ge(3),
            ],
        });
        roundtrip_request(&Request::RecordActual {
            tenant: TenantId(0),
            table: "t".into(),
            column: "c".into(),
            predicate: Predicate::Eq(9),
            predicted: 1.5,
            actual: 0.1 + 0.2,
        });
        roundtrip_request(&Request::RecordMods {
            tenant: TenantId(3),
            table: "τ-table".into(),
            column: "c".into(),
            count: u64::MAX,
        });
    }

    #[test]
    fn responses_roundtrip_bit_exactly() {
        let cases = vec![
            Response::Pong,
            Response::Estimate(None),
            Response::Estimate(Some(WireEstimate { rows: 0.1 + 0.2, selectivity: -0.0 })),
            Response::EstimateBatch(None),
            Response::EstimateBatch(Some(vec![
                WireEstimate { rows: f64::MAX, selectivity: f64::MIN_POSITIVE },
                WireEstimate { rows: 0.0, selectivity: 0.0 },
            ])),
            Response::Ack { known: true, qerror: Some(1.0000000001) },
            Response::Ack { known: false, qerror: None },
            Response::Error(WireError::UnknownTenant { tenant: 42 }),
            Response::Error(WireError::Shed { retry_after_ms: 50 }),
            Response::Error(WireError::Malformed),
            Response::Error(WireError::Protocol),
        ];
        for resp in cases {
            let bytes = resp.encode();
            let mut d = FrameDecoder::new();
            d.feed(&bytes);
            let frame = d.next_frame().expect("framing").expect("complete");
            let back = Response::decode_payload(frame.kind, &frame.payload).expect("payload");
            // PartialEq on f64 fields is not bit-equality (-0.0 == 0.0),
            // so compare re-encodings byte-for-byte as well.
            assert_eq!(back.encode(), bytes);
        }
    }

    #[test]
    fn decoder_tolerates_torn_reads() {
        let req = Request::Estimate {
            tenant: TenantId(1),
            table: "t".into(),
            column: "c".into(),
            predicate: Predicate::Le(10),
        };
        let bytes = [req.encode(), Request::Ping.encode()].concat();
        // Feed one byte at a time: exactly two frames, in order.
        let mut d = FrameDecoder::new();
        let mut frames = Vec::new();
        for &b in &bytes {
            d.feed(&[b]);
            while let Some(f) = d.next_frame().expect("framing") {
                frames.push(f);
            }
        }
        assert_eq!(frames.len(), 2);
        assert_eq!(Request::decode_payload(frames[0].kind, &frames[0].payload).unwrap(), req);
        assert_eq!(
            Request::decode_payload(frames[1].kind, &frames[1].payload).unwrap(),
            Request::Ping
        );
        assert_eq!(d.pending(), 0);
    }

    #[test]
    fn header_violations_are_typed() {
        let mut d = FrameDecoder::new();
        d.feed(&[0xde, 0xad, 0, 0, 0, 0, 0, 0]);
        assert_eq!(d.next_frame(), Err(FrameError::BadMagic { got: 0xadde }));

        let mut d = FrameDecoder::new();
        let mut bad = Request::Ping.encode();
        bad[2] = 9; // future protocol version
        d.feed(&bad);
        assert_eq!(d.next_frame(), Err(FrameError::UnsupportedVersion { got: 9 }));

        let mut d = FrameDecoder::new();
        let mut huge = Vec::new();
        put_u16(&mut huge, MAGIC);
        huge.push(VERSION);
        huge.push(kind::PING);
        put_u32(&mut huge, MAX_PAYLOAD + 1);
        d.feed(&huge);
        assert_eq!(d.next_frame(), Err(FrameError::Oversized { len: MAX_PAYLOAD + 1 }));
    }

    #[test]
    fn payload_violations_are_typed() {
        // Unknown kind.
        assert_eq!(
            Request::decode_payload(0x77, &[]),
            Err(PayloadError::UnknownKind { kind: 0x77 })
        );
        // Truncated: an Estimate payload cut mid-string.
        let full = Request::Estimate {
            tenant: TenantId(1),
            table: "table".into(),
            column: "column".into(),
            predicate: Predicate::Eq(1),
        }
        .encode();
        let payload = &full[HEADER_LEN..];
        for cut in 0..payload.len() {
            let err = Request::decode_payload(kind::ESTIMATE, &payload[..cut]);
            assert!(err.is_err(), "cut at {cut} must not decode");
        }
        // Trailing bytes.
        let mut extended = payload.to_vec();
        extended.push(0);
        assert_eq!(
            Request::decode_payload(kind::ESTIMATE, &extended),
            Err(PayloadError::TrailingBytes)
        );
        // Hostile batch count: promises 4B predicates in a tiny payload.
        let mut hostile = Vec::new();
        put_u64(&mut hostile, 1);
        put_str(&mut hostile, "t");
        put_str(&mut hostile, "c");
        put_u32(&mut hostile, u32::MAX);
        assert_eq!(
            Request::decode_payload(kind::ESTIMATE_BATCH, &hostile),
            Err(PayloadError::BadCount)
        );
    }
}
