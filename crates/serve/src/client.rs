//! A blocking client for the serve protocol.

use std::fmt;
use std::io::{self, Write};
use std::net::{TcpStream, ToSocketAddrs};

use crate::proto::{
    frame_into, FrameReader, ProtoError, Request, Response, RouteOutcome, StatsSnapshot,
    DEFAULT_MAX_FRAME,
};

/// Why a client call failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ClientError {
    /// The wire layer failed (I/O, malformed frame, peer closed
    /// mid-conversation).
    Proto(ProtoError),
    /// The server answered with an `Error` frame.
    Server {
        /// The server's error code.
        code: u8,
        /// The server's error message.
        message: String,
    },
    /// The server answered with a response type that does not match the
    /// request (a server bug, surfaced rather than swallowed).
    Unexpected(&'static str),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Proto(e) => write!(f, "protocol: {e}"),
            ClientError::Server { code, message } => write!(f, "server error {code}: {message}"),
            ClientError::Unexpected(what) => write!(f, "unexpected response: {what}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<ProtoError> for ClientError {
    fn from(e: ProtoError) -> Self {
        ClientError::Proto(e)
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Proto(ProtoError::Io(e.kind()))
    }
}

/// One blocking connection: requests go out, responses come back, in
/// order — one at a time ([`call`](Self::call)) or a burst at a time
/// ([`call_pipelined`](Self::call_pipelined)).
pub struct RouteClient {
    stream: TcpStream,
    reader: FrameReader,
    /// Reused send buffer: a call's frames are built here and leave in
    /// one `write`.
    out: Vec<u8>,
}

impl RouteClient {
    /// Connects to a running [`RouteServer`](crate::RouteServer).
    ///
    /// # Errors
    ///
    /// Any I/O error from connecting.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<RouteClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(RouteClient {
            stream,
            reader: FrameReader::new(DEFAULT_MAX_FRAME),
            out: Vec::new(),
        })
    }

    fn send(&mut self, requests: &[Request]) -> Result<(), ClientError> {
        self.out.clear();
        for request in requests {
            frame_into(&mut self.out, |body| request.encode_into(body));
        }
        Ok(self.stream.write_all(&self.out)?)
    }

    fn receive(&mut self) -> Result<Response, ClientError> {
        match self.reader.read(&mut self.stream, None)? {
            Some(body) => Ok(Response::decode(body)?),
            None => Err(ClientError::Proto(ProtoError::Io(
                io::ErrorKind::UnexpectedEof,
            ))),
        }
    }

    /// Sends one request and reads one response — the raw exchange the
    /// typed helpers below are built on.
    ///
    /// # Errors
    ///
    /// [`ClientError::Proto`] on wire failure; an `Error` frame is
    /// returned as a normal [`Response::Error`], not an `Err`.
    pub fn call(&mut self, request: &Request) -> Result<Response, ClientError> {
        self.send(std::slice::from_ref(request))?;
        self.receive()
    }

    /// Sends every request of `requests` in one write, then reads the
    /// replies — the server answers pipelined frames in order, so reply
    /// `i` answers request `i`. All requests are written before any
    /// reply is read: keep a burst (and its replies) within what the
    /// socket buffers hold, or both ends block on a full buffer.
    ///
    /// # Errors
    ///
    /// As [`call`](Self::call); after an error the connection is out of
    /// step and must be dropped.
    pub fn call_pipelined(&mut self, requests: &[Request]) -> Result<Vec<Response>, ClientError> {
        self.send(requests)?;
        requests.iter().map(|_| self.receive()).collect()
    }

    fn reject(response: Response, want: &'static str) -> ClientError {
        match response {
            Response::Error { code, message } => ClientError::Server { code, message },
            _ => ClientError::Unexpected(want),
        }
    }

    /// Routes one pair in the default traffic class (0); returns the
    /// serving epoch and the outcome.
    ///
    /// # Errors
    ///
    /// [`ClientError`] on wire failure or an `Error` frame.
    pub fn lookup(&mut self, source: u32, target: u32) -> Result<(u64, RouteOutcome), ClientError> {
        self.lookup_class(source, target, 0)
    }

    /// Routes one pair in traffic class `class` (which served algebra
    /// answers — see `cpr_plane::multi`); returns the serving epoch and
    /// the outcome. Class 0 emits the legacy frame shape.
    ///
    /// # Errors
    ///
    /// [`ClientError`] on wire failure or an `Error` frame — in
    /// particular an `ERR_PROTO` server error when `class` is outside
    /// the server's registry.
    pub fn lookup_class(
        &mut self,
        source: u32,
        target: u32,
        class: u8,
    ) -> Result<(u64, RouteOutcome), ClientError> {
        match self.call(&Request::Lookup {
            source,
            target,
            class,
        })? {
            Response::Route { epoch, outcome } => Ok((epoch, outcome)),
            other => Err(Self::reject(other, "route reply")),
        }
    }

    /// Routes a batch in the default traffic class (0) against one
    /// consistent epoch; returns the epoch and per-pair outcomes in
    /// request order.
    ///
    /// # Errors
    ///
    /// [`ClientError`] on wire failure or an `Error` frame.
    pub fn batch(
        &mut self,
        pairs: Vec<(u32, u32)>,
    ) -> Result<(u64, Vec<RouteOutcome>), ClientError> {
        self.batch_class(pairs, 0)
    }

    /// Routes a batch in traffic class `class` against one consistent
    /// epoch; returns the epoch and per-pair outcomes in request order.
    ///
    /// # Errors
    ///
    /// [`ClientError`] on wire failure or an `Error` frame — in
    /// particular an `ERR_PROTO` server error when `class` is outside
    /// the server's registry.
    pub fn batch_class(
        &mut self,
        pairs: Vec<(u32, u32)>,
        class: u8,
    ) -> Result<(u64, Vec<RouteOutcome>), ClientError> {
        match self.call(&Request::Batch { pairs, class })? {
            Response::Batch { epoch, outcomes } => Ok((epoch, outcomes)),
            other => Err(Self::reject(other, "batch reply")),
        }
    }

    /// Probes liveness; returns `(epoch, digest, fresh)`.
    ///
    /// # Errors
    ///
    /// [`ClientError`] on wire failure or an `Error` frame.
    pub fn health(&mut self) -> Result<(u64, u64, bool), ClientError> {
        match self.call(&Request::Health)? {
            Response::Health {
                epoch,
                digest,
                fresh,
            } => Ok((epoch, digest, fresh)),
            other => Err(Self::reject(other, "health reply")),
        }
    }

    /// Fetches the server's `cpr-obs` registry snapshot as compact JSON.
    ///
    /// # Errors
    ///
    /// [`ClientError`] on wire failure or an `Error` frame.
    pub fn metrics(&mut self) -> Result<(u64, String), ClientError> {
        match self.call(&Request::Metrics)? {
            Response::Metrics { epoch, json } => Ok((epoch, json)),
            other => Err(Self::reject(other, "metrics reply")),
        }
    }

    /// Fetches the fixed-layout serving statistics.
    ///
    /// # Errors
    ///
    /// [`ClientError`] on wire failure or an `Error` frame.
    pub fn stats(&mut self) -> Result<StatsSnapshot, ClientError> {
        match self.call(&Request::Stats)? {
            Response::Stats(snapshot) => Ok(snapshot),
            other => Err(Self::reject(other, "stats reply")),
        }
    }

    /// Registers a new tenant class from an algebra expression (see
    /// `cpr_algebra::expr` for the grammar); returns the serving epoch
    /// the class first appears in, the wire class id assigned to it,
    /// and the scheme the admissibility gates chose.
    ///
    /// # Errors
    ///
    /// [`ClientError`] on wire failure or an `Error` frame — in
    /// particular an `ERR_INADMISSIBLE` server error naming the theorem
    /// gate that rejected the expression.
    pub fn register_class(
        &mut self,
        name: &str,
        expr: &str,
    ) -> Result<(u64, u8, String), ClientError> {
        match self.call(&Request::Register {
            name: name.to_string(),
            expr: expr.to_string(),
        })? {
            Response::Registered {
                epoch,
                class,
                scheme,
            } => Ok((epoch, class, scheme)),
            other => Err(Self::reject(other, "register reply")),
        }
    }

    /// Deregisters a previously registered tenant class by name;
    /// returns the serving epoch the class disappears in and the wire
    /// class id it held (the id is retired, never reused for lookups).
    ///
    /// # Errors
    ///
    /// [`ClientError`] on wire failure or an `Error` frame — in
    /// particular an `ERR_BAD_REQUEST` server error when `name` is
    /// unknown or names a seed (non-dynamic) class.
    pub fn deregister_class(&mut self, name: &str) -> Result<(u64, u8), ClientError> {
        match self.call(&Request::Deregister {
            name: name.to_string(),
        })? {
            Response::Deregistered { epoch, class } => Ok((epoch, class)),
            other => Err(Self::reject(other, "deregister reply")),
        }
    }
}
