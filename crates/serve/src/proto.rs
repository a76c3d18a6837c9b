//! The wire protocol: length-prefixed binary frames.
//!
//! Every message on the socket is one *frame*: a little-endian `u32`
//! length prefix followed by exactly that many body bytes. The first
//! body byte is the opcode, the rest is the opcode's fixed payload
//! layout (all integers little-endian). The protocol is deliberately
//! tiny — five request opcodes, six response opcodes — and decoding is
//! **total**: every malformed input (truncated prefix, truncated body,
//! oversized frame, unknown opcode, short or trailing payload bytes)
//! maps to a [`ProtoError`] value, never a panic, so one bad client
//! cannot take a connection worker down.
//!
//! | opcode | direction | payload |
//! |---|---|---|
//! | `0x01` Lookup     | → | `u32 source, u32 target[, u8 class]` |
//! | `0x02` Batch      | → | `u32 count, count × (u32 source, u32 target)[, u8 class]` |
//! | `0x03` Health     | → | empty |
//! | `0x04` Metrics    | → | empty |
//! | `0x05` Stats      | → | empty |
//! | `0x06` Register   | → | `string name, string expr` |
//! | `0x07` Deregister | → | `string name` |
//! | `0x81` Route      | ← | `u64 epoch, outcome` |
//! | `0x82` Batch      | ← | `u64 epoch, u32 count, count × outcome` |
//! | `0x83` Health     | ← | `u64 epoch, u64 digest, u8 fresh` |
//! | `0x84` Metrics    | ← | `u64 epoch, u32 len, len JSON bytes` |
//! | `0x85` Stats      | ← | fixed counters, see [`StatsSnapshot`] |
//! | `0x86` Registered | ← | `u64 epoch, u8 class, string scheme` |
//! | `0x87` Deregistered | ← | `u64 epoch, u8 class` |
//! | `0xEE` Error      | ← | `u8 code, u32 len, len UTF-8 bytes` |
//!
//! A `string` is `u32 len` + `len` UTF-8 bytes. `Register` carries a
//! tenant algebra expression (`cpr_algebra::expr` grammar); the server
//! gates it through the Prop. 2 / Thm. 1 / Thm. 3 admissibility checks
//! and either registers a new traffic class (answering with the class
//! id and selected scheme) or rejects with an [`ERR_INADMISSIBLE`]
//! error frame naming the gate and the measured witness pair.
//!
//! An *outcome* is `u8 kind`: `0` = delivered (`u32 hop_count + 1`
//! node ids, source first, target last), `1` = unroutable in the
//! current topology, `2` = failed (`u32 len` + UTF-8 error text).
//!
//! The `epoch` carried by every response is the serving epoch the
//! answer was computed against — the client-visible face of the
//! RCU-style hot swap (see [`crate::epoch`]).
//!
//! ## Pipelining
//!
//! A client may send further requests before reading the replies to
//! earlier ones. The server answers the frames of a connection strictly
//! in arrival order, one reply per request, and sends the replies to
//! every request it found already buffered with a single write
//! ([`RouteClient::call_pipelined`](crate::RouteClient::call_pipelined)
//! is the client side). A frame that violates the protocol ends the
//! connection *after* the requests before it were answered: one
//! [`ERR_PROTO`] error frame, then close.
//!
//! ## Traffic classes
//!
//! Lookup and Batch carry an optional trailing `u8` *traffic class*
//! selecting which served algebra answers the query (a multi-algebra
//! server compiles all Table 1 policies plus the BGP compositions into
//! one process; see `cpr_plane::multi`). The byte is strictly optional
//! and strictly trailing: a frame **without** it — every frame an older
//! client emits — decodes to class `0`, and the encoder omits the byte
//! for class `0`, so class-0 traffic is byte-identical to the legacy
//! protocol in both directions. A class id outside the server's
//! registry is answered with an [`ERR_PROTO`] error frame, never
//! silently remapped.

use std::fmt;
use std::io::{self, Read, Write};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};

/// Default cap on one frame's body length. A route over a plane of
/// `n ≤ 100k` nodes fits comfortably; anything larger is a protocol
/// violation, not a big route.
pub const DEFAULT_MAX_FRAME: u32 = 1 << 20;

/// Default cap on pairs per batched lookup.
pub const DEFAULT_MAX_BATCH: u32 = 4096;

/// Request opcodes.
pub const OP_LOOKUP: u8 = 0x01;
/// See [`OP_LOOKUP`].
pub const OP_BATCH: u8 = 0x02;
/// See [`OP_LOOKUP`].
pub const OP_HEALTH: u8 = 0x03;
/// See [`OP_LOOKUP`].
pub const OP_METRICS: u8 = 0x04;
/// See [`OP_LOOKUP`].
pub const OP_STATS: u8 = 0x05;
/// See [`OP_LOOKUP`].
pub const OP_REGISTER: u8 = 0x06;
/// See [`OP_LOOKUP`].
pub const OP_DEREGISTER: u8 = 0x07;

/// Response opcodes.
pub const OP_ROUTE_REPLY: u8 = 0x81;
/// See [`OP_ROUTE_REPLY`].
pub const OP_BATCH_REPLY: u8 = 0x82;
/// See [`OP_ROUTE_REPLY`].
pub const OP_HEALTH_REPLY: u8 = 0x83;
/// See [`OP_ROUTE_REPLY`].
pub const OP_METRICS_REPLY: u8 = 0x84;
/// See [`OP_ROUTE_REPLY`].
pub const OP_STATS_REPLY: u8 = 0x85;
/// See [`OP_ROUTE_REPLY`].
pub const OP_REGISTER_REPLY: u8 = 0x86;
/// See [`OP_ROUTE_REPLY`].
pub const OP_DEREGISTER_REPLY: u8 = 0x87;
/// See [`OP_ROUTE_REPLY`].
pub const OP_ERROR: u8 = 0xEE;

/// Error codes carried by an `Error` response.
pub const ERR_PROTO: u8 = 1;
/// The request decoded but violated a server limit (e.g. batch cap).
pub const ERR_BAD_REQUEST: u8 = 2;
/// The server failed internally while answering.
pub const ERR_INTERNAL: u8 = 3;
/// A `Register` expression parsed but failed an admissibility gate
/// (Prop. 2 / Thm. 1 / Thm. 3); the message names the gate and the
/// measured witness pair. Nothing was compiled.
pub const ERR_INADMISSIBLE: u8 = 4;

/// Why a frame or payload failed to decode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProtoError {
    /// The stream ended (or the payload ran out) before `context` was
    /// fully read.
    Truncated {
        /// What was being read when the bytes ran out.
        context: &'static str,
    },
    /// The length prefix exceeds the frame cap.
    Oversized {
        /// Announced body length.
        len: u32,
        /// The cap it violates.
        max: u32,
    },
    /// The first body byte is not a known opcode.
    UnknownOpcode(u8),
    /// The payload decoded structurally but is invalid (zero-length
    /// frame, trailing bytes, bad UTF-8, …).
    BadPayload(&'static str),
    /// An I/O error other than clean end-of-stream.
    Io(io::ErrorKind),
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Truncated { context } => write!(f, "truncated {context}"),
            ProtoError::Oversized { len, max } => {
                write!(f, "frame of {len} bytes exceeds cap of {max}")
            }
            ProtoError::UnknownOpcode(op) => write!(f, "unknown opcode {op:#04x}"),
            ProtoError::BadPayload(what) => write!(f, "bad payload: {what}"),
            ProtoError::Io(kind) => write!(f, "i/o error: {kind:?}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<io::Error> for ProtoError {
    fn from(e: io::Error) -> Self {
        ProtoError::Io(e.kind())
    }
}

/// A client → server request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Route one `(source, target)` pair.
    Lookup {
        /// Source node id.
        source: u32,
        /// Target node id.
        target: u32,
        /// Traffic class: which served algebra answers. `0` is the
        /// default class and encodes without the trailing byte (legacy
        /// frame shape).
        class: u8,
    },
    /// Route a batch of pairs against one consistent epoch.
    Batch {
        /// The pairs, answered in order.
        pairs: Vec<(u32, u32)>,
        /// Traffic class for every pair of the batch; `0` = default.
        class: u8,
    },
    /// Register a tenant algebra expression as a new traffic class.
    Register {
        /// Registry name the class will serve under.
        name: String,
        /// The algebra expression (`cpr_algebra::expr` grammar,
        /// optionally wrapped in `compact(…)`).
        expr: String,
    },
    /// Deregister a runtime-registered traffic class by name.
    Deregister {
        /// The class's registry name.
        name: String,
    },
    /// Liveness + freshness probe.
    Health,
    /// The introspection endpoint: the server's `cpr-obs` registry
    /// snapshot as JSON.
    Metrics,
    /// Fixed-layout serving statistics.
    Stats,
}

/// How one pair was answered.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RouteOutcome {
    /// Delivered: the full node path, source first, target last.
    Path(Vec<u32>),
    /// The pair is unroutable in the serving topology.
    Unroutable,
    /// The plane failed loudly (hop budget, bad port, …).
    Failed(String),
}

/// The fixed-layout payload of a `Stats` reply.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Current serving epoch.
    pub epoch: u64,
    /// Topology digest of the serving epoch.
    pub digest: u64,
    /// Completed hot swaps since boot.
    pub swaps: u64,
    /// Queries answered (single lookups + batched pairs).
    pub queries: u64,
    /// Queries delivered at their target.
    pub delivered: u64,
    /// Queries answered "unroutable".
    pub unroutable: u64,
    /// Queries that failed loudly.
    pub failed: u64,
    /// Per-epoch query counts, ascending by epoch.
    pub epoch_queries: Vec<(u64, u64)>,
}

/// A server → client response.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    /// Answer to `Lookup`.
    Route {
        /// Serving epoch the answer was computed against.
        epoch: u64,
        /// The outcome.
        outcome: RouteOutcome,
    },
    /// Answer to `Batch`: every pair answered against one epoch.
    Batch {
        /// Serving epoch the whole batch was computed against.
        epoch: u64,
        /// Outcomes in request order.
        outcomes: Vec<RouteOutcome>,
    },
    /// Answer to `Register`: the class is live and serving.
    Registered {
        /// Serving epoch after the registration swap.
        epoch: u64,
        /// The wire traffic-class id the new class answers under.
        class: u8,
        /// The scheme the admissibility gate selected
        /// (`"dest-table"` / `"cowen"` / `"sw-class-table"`).
        scheme: String,
    },
    /// Answer to `Deregister`: the slot is retired.
    Deregistered {
        /// Serving epoch after the deregistration swap.
        epoch: u64,
        /// The retired traffic-class id.
        class: u8,
    },
    /// Answer to `Health`.
    Health {
        /// Current serving epoch.
        epoch: u64,
        /// Topology digest of the serving epoch.
        digest: u64,
        /// `true` when no repair is pending (always `true` for a
        /// published snapshot — swaps only publish clean planes).
        fresh: bool,
    },
    /// Answer to `Metrics`: the registry snapshot as compact JSON.
    Metrics {
        /// Current serving epoch.
        epoch: u64,
        /// `Registry::render_json().to_compact()` output.
        json: String,
    },
    /// Answer to `Stats`.
    Stats(StatsSnapshot),
    /// The request could not be served.
    Error {
        /// One of [`ERR_PROTO`], [`ERR_BAD_REQUEST`], [`ERR_INTERNAL`].
        code: u8,
        /// Human-readable detail.
        message: String,
    },
}

// ---------------------------------------------------------------------
// Payload cursor: every read is bounds-checked.

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], ProtoError> {
        if self.remaining() < n {
            return Err(ProtoError::Truncated { context });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self, context: &'static str) -> Result<u8, ProtoError> {
        Ok(self.take(1, context)?[0])
    }

    fn u32(&mut self, context: &'static str) -> Result<u32, ProtoError> {
        Ok(u32::from_le_bytes(
            self.take(4, context)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self, context: &'static str) -> Result<u64, ProtoError> {
        Ok(u64::from_le_bytes(
            self.take(8, context)?.try_into().expect("8 bytes"),
        ))
    }

    fn string(&mut self, context: &'static str) -> Result<String, ProtoError> {
        let len = self.u32(context)? as usize;
        let bytes = self.take(len, context)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| ProtoError::BadPayload("invalid UTF-8"))
    }

    /// A `Batch` payload's `u32 count` + `count` pairs, appended to
    /// `pairs`.
    fn batch_pairs(&mut self, pairs: &mut Vec<(u32, u32)>) -> Result<(), ProtoError> {
        let count = self.u32("batch count")? as usize;
        if count.saturating_mul(8) > self.remaining() {
            return Err(ProtoError::Truncated {
                context: "batch pairs",
            });
        }
        pairs.reserve(count);
        for _ in 0..count {
            pairs.push((self.u32("batch source")?, self.u32("batch target")?));
        }
        Ok(())
    }

    /// Exactly one trailing byte is the traffic class; its absence (a
    /// legacy frame) means class 0. Anything else trailing is left for
    /// [`finish`](Self::finish) to reject.
    fn trailing_class(&mut self, context: &'static str) -> Result<u8, ProtoError> {
        if self.remaining() == 1 {
            self.u8(context)
        } else {
            Ok(0)
        }
    }

    fn finish(&self) -> Result<(), ProtoError> {
        if self.remaining() != 0 {
            return Err(ProtoError::BadPayload("trailing bytes"));
        }
        Ok(())
    }
}

/// Decodes a `Lookup` or `Batch` body into caller-owned storage — the
/// borrowed decode of the request path: the pairs replace the contents
/// of `pairs` (no allocation within its capacity) and the return value
/// is `(is a batch, traffic class)`. `Ok(None)` for any other opcode,
/// which [`Request::decode`] handles; for these two it accepts and
/// rejects exactly what [`Request::decode`] does.
pub(crate) fn decode_query(
    body: &[u8],
    pairs: &mut Vec<(u32, u32)>,
) -> Result<Option<(bool, u8)>, ProtoError> {
    let mut c = Cursor::new(body);
    pairs.clear();
    let (batch, class) = match c.u8("opcode")? {
        OP_LOOKUP => {
            pairs.push((c.u32("lookup source")?, c.u32("lookup target")?));
            (false, c.trailing_class("lookup class")?)
        }
        OP_BATCH => {
            c.batch_pairs(pairs)?;
            (true, c.trailing_class("batch class")?)
        }
        _ => return Ok(None),
    };
    c.finish()?;
    Ok(Some((batch, class)))
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_string(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

impl Request {
    /// Serializes the request into a frame *body* (opcode + payload; no
    /// length prefix — [`frame_into`] adds that).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// [`encode`](Self::encode), appending to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Request::Lookup {
                source,
                target,
                class,
            } => {
                out.push(OP_LOOKUP);
                put_u32(out, *source);
                put_u32(out, *target);
                if *class != 0 {
                    out.push(*class);
                }
            }
            Request::Batch { pairs, class } => {
                out.push(OP_BATCH);
                put_u32(out, pairs.len() as u32);
                out.reserve(pairs.len() * 8 + 1);
                for &(s, t) in pairs {
                    put_u32(out, s);
                    put_u32(out, t);
                }
                if *class != 0 {
                    out.push(*class);
                }
            }
            Request::Register { name, expr } => {
                out.push(OP_REGISTER);
                put_string(out, name);
                put_string(out, expr);
            }
            Request::Deregister { name } => {
                out.push(OP_DEREGISTER);
                put_string(out, name);
            }
            Request::Health => out.push(OP_HEALTH),
            Request::Metrics => out.push(OP_METRICS),
            Request::Stats => out.push(OP_STATS),
        }
    }

    /// Decodes a frame body into a request.
    ///
    /// # Errors
    ///
    /// Any [`ProtoError`]; never panics, whatever the bytes.
    pub fn decode(body: &[u8]) -> Result<Request, ProtoError> {
        let mut c = Cursor::new(body);
        let op = c.u8("opcode")?;
        let req = match op {
            OP_LOOKUP => {
                let source = c.u32("lookup source")?;
                let target = c.u32("lookup target")?;
                Request::Lookup {
                    source,
                    target,
                    class: c.trailing_class("lookup class")?,
                }
            }
            OP_BATCH => {
                let mut pairs = Vec::new();
                c.batch_pairs(&mut pairs)?;
                Request::Batch {
                    pairs,
                    class: c.trailing_class("batch class")?,
                }
            }
            OP_REGISTER => Request::Register {
                name: c.string("register name")?,
                expr: c.string("register expression")?,
            },
            OP_DEREGISTER => Request::Deregister {
                name: c.string("deregister name")?,
            },
            OP_HEALTH => Request::Health,
            OP_METRICS => Request::Metrics,
            OP_STATS => Request::Stats,
            other => return Err(ProtoError::UnknownOpcode(other)),
        };
        c.finish()?;
        Ok(req)
    }
}

/// Opcode + payload head of a `Route` reply; one outcome follows.
pub(crate) fn put_route_head(out: &mut Vec<u8>, epoch: u64) {
    out.push(OP_ROUTE_REPLY);
    put_u64(out, epoch);
}

/// Opcode + payload head of a `Batch` reply; `count` outcomes follow.
pub(crate) fn put_batch_head(out: &mut Vec<u8>, epoch: u64, count: usize) {
    out.push(OP_BATCH_REPLY);
    put_u64(out, epoch);
    put_u32(out, count as u32);
}

/// A delivered outcome: the node path, source first.
pub(crate) fn put_path(out: &mut Vec<u8>, path: &[u32]) {
    out.push(0);
    put_u32(out, path.len() as u32);
    let at = out.len();
    out.resize(at + 4 * path.len(), 0);
    for (slot, &v) in out[at..].chunks_exact_mut(4).zip(path) {
        slot.copy_from_slice(&v.to_le_bytes());
    }
}

/// An unroutable outcome.
pub(crate) fn put_unroutable(out: &mut Vec<u8>) {
    out.push(1);
}

/// A failed outcome with its error text.
pub(crate) fn put_failed(out: &mut Vec<u8>, message: &str) {
    out.push(2);
    put_string(out, message);
}

fn encode_outcome(out: &mut Vec<u8>, outcome: &RouteOutcome) {
    match outcome {
        RouteOutcome::Path(path) => put_path(out, path),
        RouteOutcome::Unroutable => put_unroutable(out),
        RouteOutcome::Failed(msg) => put_failed(out, msg),
    }
}

fn decode_outcome(c: &mut Cursor<'_>) -> Result<RouteOutcome, ProtoError> {
    match c.u8("outcome kind")? {
        0 => {
            let len = c.u32("path length")? as usize;
            if len.saturating_mul(4) > c.remaining() {
                return Err(ProtoError::Truncated {
                    context: "path nodes",
                });
            }
            let mut path = Vec::with_capacity(len);
            for _ in 0..len {
                path.push(c.u32("path node")?);
            }
            Ok(RouteOutcome::Path(path))
        }
        1 => Ok(RouteOutcome::Unroutable),
        2 => Ok(RouteOutcome::Failed(c.string("failure text")?)),
        _ => Err(ProtoError::BadPayload("unknown outcome kind")),
    }
}

impl Response {
    /// Serializes the response into a frame body.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// [`encode`](Self::encode), appending to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Response::Route { epoch, outcome } => {
                put_route_head(out, *epoch);
                encode_outcome(out, outcome);
            }
            Response::Batch { epoch, outcomes } => {
                put_batch_head(out, *epoch, outcomes.len());
                for o in outcomes {
                    encode_outcome(out, o);
                }
            }
            Response::Registered {
                epoch,
                class,
                scheme,
            } => {
                out.push(OP_REGISTER_REPLY);
                put_u64(out, *epoch);
                out.push(*class);
                put_string(out, scheme);
            }
            Response::Deregistered { epoch, class } => {
                out.push(OP_DEREGISTER_REPLY);
                put_u64(out, *epoch);
                out.push(*class);
            }
            Response::Health {
                epoch,
                digest,
                fresh,
            } => {
                out.push(OP_HEALTH_REPLY);
                put_u64(out, *epoch);
                put_u64(out, *digest);
                out.push(u8::from(*fresh));
            }
            Response::Metrics { epoch, json } => {
                out.push(OP_METRICS_REPLY);
                put_u64(out, *epoch);
                put_string(out, json);
            }
            Response::Stats(s) => {
                out.push(OP_STATS_REPLY);
                put_u64(out, s.epoch);
                put_u64(out, s.digest);
                put_u64(out, s.swaps);
                put_u64(out, s.queries);
                put_u64(out, s.delivered);
                put_u64(out, s.unroutable);
                put_u64(out, s.failed);
                put_u32(out, s.epoch_queries.len() as u32);
                for &(e, q) in &s.epoch_queries {
                    put_u64(out, e);
                    put_u64(out, q);
                }
            }
            Response::Error { code, message } => {
                out.push(OP_ERROR);
                out.push(*code);
                put_string(out, message);
            }
        }
    }

    /// Decodes a frame body into a response.
    ///
    /// # Errors
    ///
    /// Any [`ProtoError`]; never panics, whatever the bytes.
    pub fn decode(body: &[u8]) -> Result<Response, ProtoError> {
        let mut c = Cursor::new(body);
        let op = c.u8("opcode")?;
        let resp = match op {
            OP_ROUTE_REPLY => Response::Route {
                epoch: c.u64("route epoch")?,
                outcome: decode_outcome(&mut c)?,
            },
            OP_BATCH_REPLY => {
                let epoch = c.u64("batch epoch")?;
                let count = c.u32("batch reply count")? as usize;
                if count > c.remaining() {
                    // Each outcome is at least one byte.
                    return Err(ProtoError::Truncated {
                        context: "batch outcomes",
                    });
                }
                let mut outcomes = Vec::with_capacity(count);
                for _ in 0..count {
                    outcomes.push(decode_outcome(&mut c)?);
                }
                Response::Batch { epoch, outcomes }
            }
            OP_REGISTER_REPLY => Response::Registered {
                epoch: c.u64("register epoch")?,
                class: c.u8("register class")?,
                scheme: c.string("register scheme")?,
            },
            OP_DEREGISTER_REPLY => Response::Deregistered {
                epoch: c.u64("deregister epoch")?,
                class: c.u8("deregister class")?,
            },
            OP_HEALTH_REPLY => Response::Health {
                epoch: c.u64("health epoch")?,
                digest: c.u64("health digest")?,
                fresh: match c.u8("health freshness")? {
                    0 => false,
                    1 => true,
                    _ => return Err(ProtoError::BadPayload("freshness is not a bool")),
                },
            },
            OP_METRICS_REPLY => Response::Metrics {
                epoch: c.u64("metrics epoch")?,
                json: c.string("metrics json")?,
            },
            OP_STATS_REPLY => {
                let mut s = StatsSnapshot {
                    epoch: c.u64("stats epoch")?,
                    digest: c.u64("stats digest")?,
                    swaps: c.u64("stats swaps")?,
                    queries: c.u64("stats queries")?,
                    delivered: c.u64("stats delivered")?,
                    unroutable: c.u64("stats unroutable")?,
                    failed: c.u64("stats failed")?,
                    epoch_queries: Vec::new(),
                };
                let count = c.u32("stats epoch count")? as usize;
                if count.saturating_mul(16) > c.remaining() {
                    return Err(ProtoError::Truncated {
                        context: "stats epoch counts",
                    });
                }
                for _ in 0..count {
                    s.epoch_queries
                        .push((c.u64("stats epoch id")?, c.u64("stats epoch queries")?));
                }
                Response::Stats(s)
            }
            OP_ERROR => Response::Error {
                code: c.u8("error code")?,
                message: c.string("error message")?,
            },
            other => return Err(ProtoError::UnknownOpcode(other)),
        };
        c.finish()?;
        Ok(resp)
    }
}

// ---------------------------------------------------------------------
// Frame I/O: one writer ([`frame_into`]), one reader ([`FrameReader`]).

/// Appends one frame to `out`: the `u32` little-endian length prefix,
/// then whatever `body` appends. Building the prefix and the body in
/// one buffer is what makes a frame — or a burst of them — one `write`.
///
/// # Panics
///
/// Panics if the body exceeds `u32::MAX` bytes (a caller bug — encoded
/// bodies are bounded by the protocol caps long before that).
pub fn frame_into(out: &mut Vec<u8>, body: impl FnOnce(&mut Vec<u8>)) {
    let prefix = out.len();
    out.extend_from_slice(&[0; 4]);
    body(out);
    let len = u32::try_from(out.len() - prefix - 4).expect("frame body exceeds u32::MAX");
    out[prefix..prefix + 4].copy_from_slice(&len.to_le_bytes());
}

/// Writes `body` as one frame with a single `write_all`.
///
/// # Errors
///
/// Propagates I/O errors from `w`.
///
/// # Panics
///
/// As [`frame_into`].
pub fn write_frame(w: &mut impl Write, body: &[u8]) -> io::Result<()> {
    let mut framed = Vec::with_capacity(4 + body.len());
    frame_into(&mut framed, |out| out.extend_from_slice(body));
    w.write_all(&framed)?;
    w.flush()
}

/// Initial size of a [`FrameReader`]'s buffer: several `Batch`-256
/// requests or replies. It grows, once, to the largest frame a peer
/// announces within the frame cap.
const READ_BUFFER: usize = 16 << 10;

/// The buffered frame reader of both ends of a connection: each `read`
/// on the transport takes whatever has arrived — a whole frame in one
/// call when the peer wrote it in one, several frames when it
/// pipelined them — and frames are handed out as slices of the buffer,
/// with no per-frame allocation.
pub struct FrameReader {
    buf: Vec<u8>,
    /// Start of the bytes not yet handed out.
    head: usize,
    /// End of the bytes read so far.
    tail: usize,
    max_frame: u32,
}

impl FrameReader {
    /// A reader enforcing `max_frame` on every announced body length.
    pub fn new(max_frame: u32) -> Self {
        FrameReader {
            buf: vec![0; READ_BUFFER],
            head: 0,
            tail: 0,
            max_frame,
        }
    }

    /// Body length announced by the frame at `head`, once its prefix is
    /// in and valid.
    fn announced(&self) -> Result<Option<usize>, ProtoError> {
        let Some(prefix) = self.buf[self.head..self.tail].first_chunk::<4>() else {
            return Ok(None);
        };
        let len = u32::from_le_bytes(*prefix);
        if len == 0 {
            return Err(ProtoError::BadPayload("empty frame"));
        }
        if len > self.max_frame {
            return Err(ProtoError::Oversized {
                len,
                max: self.max_frame,
            });
        }
        Ok(Some(len as usize))
    }

    fn take(&mut self) -> Result<Option<Range<usize>>, ProtoError> {
        let Some(len) = self.announced()? else {
            return Ok(None);
        };
        let body = self.head + 4..self.head + 4 + len;
        if body.end > self.tail {
            return Ok(None);
        }
        self.head = body.end;
        Ok(Some(body))
    }

    /// The next complete frame body **already buffered**, without
    /// touching the transport; `Ok(None)` when the buffer holds no
    /// complete frame.
    ///
    /// # Errors
    ///
    /// [`ProtoError::BadPayload`] / [`Oversized`](ProtoError::Oversized)
    /// on a bad length prefix.
    pub fn buffered(&mut self) -> Result<Option<&[u8]>, ProtoError> {
        Ok(self.take()?.map(|body| &self.buf[body]))
    }

    /// The next frame body, reading from `r` until one is complete.
    /// Returns `Ok(None)` on a clean end-of-stream at a frame boundary
    /// (the peer closed between frames); end-of-stream anywhere else is
    /// [`ProtoError::Truncated`].
    ///
    /// With a `stop` flag the read is *polling*: the flag is checked
    /// before every `read`, a timed-out or would-block `read` just
    /// polls again, and a raised flag returns `Ok(None)` — a partial
    /// frame at shutdown is discarded, the peer is going away with us.
    /// Without one, those two error kinds are errors like any other.
    ///
    /// # Errors
    ///
    /// [`ProtoError::Truncated`] / [`Oversized`](ProtoError::Oversized)
    /// / [`BadPayload`](ProtoError::BadPayload) (empty frame) /
    /// [`Io`](ProtoError::Io).
    pub fn read(
        &mut self,
        r: &mut impl Read,
        stop: Option<&AtomicBool>,
    ) -> Result<Option<&[u8]>, ProtoError> {
        loop {
            if let Some(body) = self.take()? {
                return Ok(Some(&self.buf[body]));
            }
            if stop.is_some_and(|s| s.load(Ordering::Relaxed)) {
                return Ok(None);
            }
            self.make_room();
            match r.read(&mut self.buf[self.tail..]) {
                Ok(0) => {
                    return match self.tail - self.head {
                        0 => Ok(None),
                        1..=3 => Err(ProtoError::Truncated {
                            context: "length prefix",
                        }),
                        _ => Err(ProtoError::Truncated {
                            context: "frame body",
                        }),
                    }
                }
                Ok(k) => self.tail += k,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e)
                    if stop.is_some()
                        && matches!(
                            e.kind(),
                            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                        ) => {}
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Makes the frame being assembled at `head` fit: rewinds an empty
    /// buffer, moves a partial frame that would run off the end to the
    /// front, and grows the buffer to a frame larger than it. Runs
    /// after [`take`](Self::take) found the frame incomplete, so a
    /// prefix that is in has passed the cap.
    fn make_room(&mut self) {
        if self.head == self.tail {
            (self.head, self.tail) = (0, 0);
        }
        let need = 4 + self.announced().ok().flatten().unwrap_or(0);
        if self.head + need > self.buf.len() {
            self.buf.copy_within(self.head..self.tail, 0);
            (self.head, self.tail) = (0, self.tail - self.head);
            if need > self.buf.len() {
                self.buf.resize(need, 0);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &[0xAA, 0xBB]).unwrap();
        assert_eq!(buf, vec![2, 0, 0, 0, 0xAA, 0xBB]);
        let mut reader = FrameReader::new(DEFAULT_MAX_FRAME);
        let body = reader.read(&mut buf.as_slice(), None).unwrap().unwrap();
        assert_eq!(body, [0xAA, 0xBB]);
    }

    fn read_one(mut wire: &[u8], max_frame: u32) -> Result<Option<Vec<u8>>, ProtoError> {
        let mut reader = FrameReader::new(max_frame);
        Ok(reader.read(&mut wire, None)?.map(<[u8]>::to_vec))
    }

    #[test]
    fn clean_eof_is_none_midframe_eof_is_truncated() {
        assert_eq!(read_one(&[], 1024).unwrap(), None);
        assert_eq!(
            read_one(&[5, 0], 1024).unwrap_err(),
            ProtoError::Truncated {
                context: "length prefix"
            }
        );
        assert_eq!(
            read_one(&[5, 0, 0, 0, 1, 2], 1024).unwrap_err(),
            ProtoError::Truncated {
                context: "frame body"
            }
        );
    }

    #[test]
    fn oversized_frames_are_rejected_before_allocation() {
        assert_eq!(
            read_one(&[0xFF, 0xFF, 0xFF, 0x7F, 0], 1024).unwrap_err(),
            ProtoError::Oversized {
                len: 0x7FFF_FFFF,
                max: 1024
            }
        );
    }

    #[test]
    fn request_roundtrip_all_variants() {
        for req in [
            Request::Lookup {
                source: 3,
                target: 999,
                class: 0,
            },
            Request::Lookup {
                source: 3,
                target: 999,
                class: 7,
            },
            Request::Batch {
                pairs: vec![(0, 1), (7, 2)],
                class: 0,
            },
            Request::Batch {
                pairs: vec![(0, 1), (7, 2)],
                class: 255,
            },
            Request::Batch {
                pairs: vec![],
                class: 0,
            },
            Request::Register {
                name: "gold".into(),
                expr: "lex(widest-path, shortest-path)".into(),
            },
            Request::Register {
                name: String::new(),
                expr: String::new(),
            },
            Request::Deregister {
                name: "gold".into(),
            },
            Request::Health,
            Request::Metrics,
            Request::Stats,
        ] {
            assert_eq!(Request::decode(&req.encode()).unwrap(), req);
        }
    }

    #[test]
    fn register_frames_reject_truncation_and_trailing_bytes() {
        let body = Request::Register {
            name: "t".into(),
            expr: "shortest-path".into(),
        }
        .encode();
        // Every proper prefix must fail cleanly, never panic.
        for cut in 1..body.len() {
            assert!(Request::decode(&body[..cut]).is_err(), "cut at {cut}");
        }
        let mut trailing = body.clone();
        trailing.push(0);
        assert_eq!(
            Request::decode(&trailing).unwrap_err(),
            ProtoError::BadPayload("trailing bytes")
        );
    }

    #[test]
    fn class_zero_is_byte_identical_to_legacy_and_legacy_decodes_to_class_zero() {
        // Encoder: class 0 emits exactly the legacy frame shape.
        let body = Request::Lookup {
            source: 1,
            target: 2,
            class: 0,
        }
        .encode();
        assert_eq!(body.len(), 9); // opcode + 2 × u32, no class byte
                                   // Decoder: a hand-built legacy frame (no class byte) is class 0.
        let mut legacy = vec![OP_LOOKUP];
        legacy.extend_from_slice(&7u32.to_le_bytes());
        legacy.extend_from_slice(&9u32.to_le_bytes());
        assert_eq!(
            Request::decode(&legacy).unwrap(),
            Request::Lookup {
                source: 7,
                target: 9,
                class: 0
            }
        );
        let mut legacy_batch = vec![OP_BATCH];
        legacy_batch.extend_from_slice(&1u32.to_le_bytes());
        legacy_batch.extend_from_slice(&3u32.to_le_bytes());
        legacy_batch.extend_from_slice(&4u32.to_le_bytes());
        assert_eq!(
            Request::decode(&legacy_batch).unwrap(),
            Request::Batch {
                pairs: vec![(3, 4)],
                class: 0
            }
        );
    }

    #[test]
    fn response_roundtrip_all_variants() {
        for resp in [
            Response::Route {
                epoch: 9,
                outcome: RouteOutcome::Path(vec![1, 5, 2]),
            },
            Response::Route {
                epoch: 0,
                outcome: RouteOutcome::Unroutable,
            },
            Response::Route {
                epoch: 1,
                outcome: RouteOutcome::Failed("loop".into()),
            },
            Response::Batch {
                epoch: 2,
                outcomes: vec![RouteOutcome::Path(vec![0, 1]), RouteOutcome::Unroutable],
            },
            Response::Health {
                epoch: 4,
                digest: 0xDEAD_BEEF,
                fresh: true,
            },
            Response::Metrics {
                epoch: 5,
                json: "{}".into(),
            },
            Response::Stats(StatsSnapshot {
                epoch: 6,
                digest: 1,
                swaps: 2,
                queries: 100,
                delivered: 98,
                unroutable: 2,
                failed: 0,
                epoch_queries: vec![(0, 40), (6, 60)],
            }),
            Response::Registered {
                epoch: 7,
                class: 12,
                scheme: "sw-class-table".into(),
            },
            Response::Deregistered {
                epoch: 8,
                class: 12,
            },
            Response::Error {
                code: ERR_PROTO,
                message: "bad".into(),
            },
            Response::Error {
                code: ERR_INADMISSIBLE,
                message: "rejected by the proposition-2 gate".into(),
            },
        ] {
            assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
        }
    }

    #[test]
    fn unknown_opcode_and_trailing_bytes_error_cleanly() {
        assert_eq!(
            Request::decode(&[0x7A]).unwrap_err(),
            ProtoError::UnknownOpcode(0x7A)
        );
        let mut body = Request::Health.encode();
        body.push(0);
        assert_eq!(
            Request::decode(&body).unwrap_err(),
            ProtoError::BadPayload("trailing bytes")
        );
    }
}
