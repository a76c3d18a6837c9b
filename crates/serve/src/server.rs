//! The daemon's socket side: a [`RouteServer`] (TCP accept loop on
//! scoped threads) in front of a [`MultiRouteService`].
//!
//! The split mirrors a real router: the **data path** is
//! [`MultiRouteService::answer`] — load the current snapshot from the
//! epoch cell, walk the compiled plane, count the query. The **control
//! path** is [`MultiRouteService::reconcile`] — diff a (possibly
//! drifted) topology on the master plane, repair it off the serving
//! path, then publish a cloned snapshot with one atomic swap. Queries
//! in flight during a swap finish against the epoch they started on;
//! queries accepted after the swap see the new epoch. No query is ever
//! dropped or answered against a topology older than the epoch stamped
//! on its response.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::multi::MultiRouteService;
use crate::proto::{
    self, ProtoError, Request, Response, DEFAULT_MAX_BATCH, DEFAULT_MAX_FRAME, ERR_PROTO,
};

/// Limits and switches for one serving instance.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Frame-body cap enforced on every inbound frame.
    pub max_frame: u32,
    /// Pairs-per-batch cap enforced after decode.
    pub max_batch: u32,
    /// Record per-query wall-clock latency into the registry
    /// (`serve.latency_us`). Off by default: latency is wall-clock, so
    /// byte-deterministic registry snapshots must exclude it — the
    /// bench turns it on exactly when timing is enabled.
    pub record_latency: bool,
    /// Socket read timeout for connection workers; bounds how long a
    /// worker waits on an idle client before re-checking the stop flag.
    pub read_timeout_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_frame: DEFAULT_MAX_FRAME,
            max_batch: DEFAULT_MAX_BATCH,
            record_latency: false,
            read_timeout_ms: 20,
        }
    }
}

/// The TCP daemon: a non-blocking accept loop that hands each
/// connection to a scoped worker thread. Workers poll the shared stop
/// flag between (timed-out) reads, so [`run`](Self::run) returns — with
/// every worker joined — shortly after the flag is raised.
pub struct RouteServer {
    service: Arc<MultiRouteService>,
    listener: TcpListener,
    stop: Arc<AtomicBool>,
}

impl RouteServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port).
    ///
    /// # Errors
    ///
    /// Any I/O error from binding or configuring the listener.
    pub fn bind(service: Arc<MultiRouteService>, addr: &str) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        Ok(RouteServer {
            service,
            listener,
            stop: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound address (useful with an ephemeral port).
    ///
    /// # Errors
    ///
    /// Any I/O error from the socket.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that stops [`run`](Self::run) when set to `true`.
    pub fn stop_handle(&self) -> Arc<AtomicBool> {
        self.stop.clone()
    }

    /// The serving state, shared with the accept loop.
    pub fn service(&self) -> &Arc<MultiRouteService> {
        &self.service
    }

    /// Accepts and serves connections until the stop handle is raised.
    /// Blocks the calling thread; run it on a dedicated (scoped) thread
    /// and raise the stop handle to shut down.
    ///
    /// # Errors
    ///
    /// Fatal listener errors only; per-connection errors are answered
    /// with an `Error` frame (best-effort) and close that connection.
    pub fn run(&self) -> io::Result<()> {
        std::thread::scope(|scope| loop {
            if self.stop.load(Ordering::Relaxed) {
                return Ok(());
            }
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    let service = Arc::clone(&self.service);
                    let stop = Arc::clone(&self.stop);
                    scope.spawn(move || handle_connection(&service, stream, &stop));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        })
    }
}

/// Reads one frame body, polling `stop` across read timeouts. Returns
/// `Ok(None)` on clean end-of-stream at a frame boundary *or* when the
/// stop flag is raised (a partial frame at shutdown is discarded — the
/// peer is going away with us).
fn read_frame_polling(
    stream: &mut TcpStream,
    stop: &AtomicBool,
    max_frame: u32,
) -> Result<Option<Vec<u8>>, ProtoError> {
    fn fill(
        stream: &mut TcpStream,
        stop: &AtomicBool,
        buf: &mut [u8],
        context: &'static str,
    ) -> Result<bool, ProtoError> {
        let mut at = 0usize;
        while at < buf.len() {
            if stop.load(Ordering::Relaxed) {
                return Ok(false);
            }
            match stream.read(&mut buf[at..]) {
                Ok(0) => {
                    if at == 0 && context == "length prefix" {
                        return Ok(false);
                    }
                    return Err(ProtoError::Truncated { context });
                }
                Ok(k) => at += k,
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock
                            | io::ErrorKind::TimedOut
                            | io::ErrorKind::Interrupted
                    ) => {}
                Err(e) => return Err(e.into()),
            }
        }
        Ok(true)
    }

    let mut prefix = [0u8; 4];
    if !fill(stream, stop, &mut prefix, "length prefix")? {
        return Ok(None);
    }
    let len = u32::from_le_bytes(prefix);
    if len == 0 {
        return Err(ProtoError::BadPayload("empty frame"));
    }
    if len > max_frame {
        return Err(ProtoError::Oversized {
            len,
            max: max_frame,
        });
    }
    let mut body = vec![0u8; len as usize];
    if !fill(stream, stop, &mut body, "frame body")? {
        return Ok(None);
    }
    Ok(Some(body))
}

/// One connection worker: frames in, frames out, until the peer closes,
/// the stop flag is raised, or the peer violates the protocol (which is
/// answered with a best-effort `Error` frame and a close — never a
/// panic, never a poisoned worker).
fn handle_connection(service: &MultiRouteService, mut stream: TcpStream, stop: &AtomicBool) {
    let config = *service.config();
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(config.read_timeout_ms.max(1))));
    service.obs().incr("serve.connections");
    loop {
        let body = match read_frame_polling(&mut stream, stop, config.max_frame) {
            Ok(Some(body)) => body,
            Ok(None) => return,
            Err(err) => {
                service.obs().incr("serve.proto_errors");
                send_error(&mut stream, ERR_PROTO, &err.to_string());
                return;
            }
        };
        let request = match Request::decode(&body) {
            Ok(req) => req,
            Err(err) => {
                service.obs().incr("serve.proto_errors");
                send_error(&mut stream, ERR_PROTO, &err.to_string());
                return;
            }
        };
        let started = Instant::now();
        let response = service.answer(&request);
        if config.record_latency {
            service
                .obs()
                .record("serve.latency_us", started.elapsed().as_micros() as u64);
        }
        if write_response(&mut stream, &response).is_err() {
            return;
        }
    }
}

fn write_response(stream: &mut TcpStream, response: &Response) -> io::Result<()> {
    proto::write_frame(stream, &response.encode())
}

fn send_error(stream: &mut TcpStream, code: u8, message: &str) {
    let _ = write_response(
        stream,
        &Response::Error {
            code,
            message: message.to_string(),
        },
    );
    let _ = stream.flush();
    let _ = stream.shutdown(std::net::Shutdown::Both);
}
