//! The daemon's socket side: a [`RouteServer`] (TCP accept loop on
//! scoped threads) in front of a [`MultiRouteService`].
//!
//! The split mirrors a real router: the **data path** is
//! [`MultiRouteService::answer_frame`] — load the current snapshot from
//! the epoch cell, walk the compiled plane, count the query. The **control
//! path** is [`MultiRouteService::reconcile`] — diff a (possibly
//! drifted) topology on the master plane, repair it off the serving
//! path, then publish a cloned snapshot with one atomic swap. Queries
//! in flight during a swap finish against the epoch they started on;
//! queries accepted after the swap see the new epoch. No query is ever
//! dropped or answered against a topology older than the epoch stamped
//! on its response.

use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::multi::{ConnScratch, MultiRouteService};
use crate::proto::{
    frame_into, FrameReader, Response, DEFAULT_MAX_BATCH, DEFAULT_MAX_FRAME, ERR_PROTO,
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
                Ok((mut stream, _peer)) => {
                    let service = Arc::clone(&self.service);
                    let stop = Arc::clone(&self.stop);
                    scope.spawn(move || {
                        let timeout = service.config().read_timeout_ms.max(1);
                        let _ = stream.set_nodelay(true);
                        let _ = stream.set_read_timeout(Some(Duration::from_millis(timeout)));
                        handle_connection(&service, &mut stream, &stop);
                        let _ = stream.shutdown(Shutdown::Both);
                    });
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

/// One connection worker: frames in, frames out, until the peer closes,
/// the stop flag is raised, or the peer violates the protocol (which is
/// answered with a best-effort `Error` frame and a close — never a
/// panic, never a poisoned worker).
///
/// Each turn blocks for one frame, then answers it **and every further
/// complete frame already in the read buffer** into one output buffer
/// sent with one `write` — a client that pipelines `k` requests gets
/// `k` in-order replies for one write, a client that does not gets one
/// `write` per frame. Generic over the transport so tests drive this
/// loop over in-memory bytes; socket options are the caller's.
fn handle_connection<T: Read + Write>(
    service: &MultiRouteService,
    transport: &mut T,
    stop: &AtomicBool,
) {
    let config = *service.config();
    service.obs().incr("serve.connections");
    let mut reader = FrameReader::new(config.max_frame);
    let mut scratch = ConnScratch::default();
    let mut out = Vec::new();
    loop {
        out.clear();
        let mut frame = match reader.read(transport, Some(stop)) {
            Ok(None) => return,
            first => first,
        };
        let violation = loop {
            let body = match frame {
                Ok(Some(body)) => body,
                Ok(None) => break None,
                Err(err) => break Some(err),
            };
            let started = config.record_latency.then(Instant::now);
            if let Err(err) = service.answer_frame(body, &mut scratch, &mut out) {
                break Some(err);
            }
            if let Some(started) = started {
                service
                    .obs()
                    .record("serve.latency_us", started.elapsed().as_micros() as u64);
            }
            frame = reader.buffered();
        };
        if let Some(err) = &violation {
            service.obs().incr("serve.proto_errors");
            let refusal = Response::Error {
                code: ERR_PROTO,
                message: err.to_string(),
            };
            frame_into(&mut out, |body| refusal.encode_into(body));
        }
        let sent = transport.write_all(&out).and_then(|()| transport.flush());
        if sent.is_err() || violation.is_some() {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    //! The production connection loop over an in-memory transport: what
    //! a `read` returns and how many `write`s leave is scripted and
    //! counted here, which a socket test cannot do.

    use std::collections::VecDeque;

    use cpr_algebra::policies::ShortestPath;
    use cpr_graph::{generators, EdgeWeights, Graph};
    use cpr_plane::MultiBuilder;
    use cpr_routing::DestTable;
    use rand::SeedableRng;

    use super::*;
    use crate::proto::{write_frame, Request};

    enum Step {
        /// Bytes the peer has sent; a `read` takes as many as fit.
        Bytes(Vec<u8>),
        /// One `read` fails with this kind (a timeout poll).
        Fail(io::ErrorKind),
        /// The stop flag goes up before the next `read` returns.
        RaiseStop,
    }

    /// A scripted peer: `read` plays the steps (end-of-stream after the
    /// last), `write` records each call.
    struct Scripted<'a> {
        steps: VecDeque<Step>,
        /// `Some(k)`: a `read` returns at most `k` bytes.
        read_cap: Option<usize>,
        stop: &'a AtomicBool,
        writes: Vec<Vec<u8>>,
    }

    impl Read for Scripted<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            loop {
                match self.steps.pop_front() {
                    None => return Ok(0),
                    Some(Step::Fail(kind)) => return Err(kind.into()),
                    Some(Step::RaiseStop) => {
                        self.stop.store(true, Ordering::Relaxed);
                        return Err(io::ErrorKind::TimedOut.into());
                    }
                    Some(Step::Bytes(bytes)) if bytes.is_empty() => {}
                    Some(Step::Bytes(mut bytes)) => {
                        let k = bytes
                            .len()
                            .min(buf.len())
                            .min(self.read_cap.unwrap_or(usize::MAX));
                        buf[..k].copy_from_slice(&bytes[..k]);
                        bytes.drain(..k);
                        self.steps.push_front(Step::Bytes(bytes));
                        return Ok(k);
                    }
                }
            }
        }
    }

    impl Write for Scripted<'_> {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn service() -> MultiRouteService {
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        let g = generators::gnp_connected(12, 0.3, &mut rng);
        let registry = MultiBuilder::new().class("shortest-path", |g: &Graph| {
            DestTable::build(g, &EdgeWeights::uniform(g, 1u64), &ShortestPath)
        });
        MultiRouteService::new(
            &g,
            registry,
            ServeConfig::default(),
            cpr_obs::Obs::with_null_tracer(),
        )
        .unwrap()
    }

    fn lookup(source: u32, target: u32) -> Request {
        Request::Lookup {
            source,
            target,
            class: 0,
        }
    }

    fn batch(pairs: usize) -> Request {
        Request::Batch {
            pairs: (0..pairs as u32).map(|i| (i % 12, (i / 12) % 12)).collect(),
            class: 0,
        }
    }

    fn framed(requests: &[Request]) -> Vec<u8> {
        let mut wire = Vec::new();
        for request in requests {
            write_frame(&mut wire, &request.encode()).unwrap();
        }
        wire
    }

    /// The reply frames `answer` gives `requests`, concatenated.
    fn replies(service: &MultiRouteService, requests: &[Request]) -> Vec<u8> {
        let mut wire = Vec::new();
        for request in requests {
            write_frame(&mut wire, &service.answer(request).encode()).unwrap();
        }
        wire
    }

    fn refusal(err: &crate::ProtoError) -> Vec<u8> {
        let mut wire = Vec::new();
        let refusal = Response::Error {
            code: ERR_PROTO,
            message: err.to_string(),
        };
        write_frame(&mut wire, &refusal.encode()).unwrap();
        wire
    }

    /// Runs the connection loop over `steps`; returns the `write` calls.
    fn serve(
        service: &MultiRouteService,
        steps: impl IntoIterator<Item = Step>,
        read_cap: Option<usize>,
    ) -> Vec<Vec<u8>> {
        let stop = AtomicBool::new(false);
        let mut peer = Scripted {
            steps: steps.into_iter().collect(),
            read_cap,
            stop: &stop,
            writes: Vec::new(),
        };
        handle_connection(service, &mut peer, &stop);
        peer.writes
    }

    #[test]
    fn one_byte_per_read_answers_each_frame_with_its_own_write() {
        let service = service();
        let requests = [lookup(0, 7), batch(40), Request::Health, lookup(3, 3)];
        let writes = serve(&service, [Step::Bytes(framed(&requests))], Some(1));
        assert_eq!(writes.len(), requests.len());
        assert_eq!(writes.concat(), replies(&service, &requests));
    }

    #[test]
    fn eight_frames_in_one_read_are_answered_in_order_with_one_write() {
        let service = service();
        let requests: Vec<Request> = (0..8)
            .map(|i| {
                if i % 3 == 2 {
                    batch(5 + i)
                } else {
                    lookup(i as u32, 11)
                }
            })
            .collect();
        let writes = serve(&service, [Step::Bytes(framed(&requests))], None);
        assert_eq!(writes.len(), 1);
        assert_eq!(writes[0], replies(&service, &requests));
    }

    #[test]
    fn frames_straddling_and_outgrowing_the_read_buffer_are_reassembled() {
        let service = service();
        // Twelve 2 KiB frames cross the 16 KiB buffer boundary mid-frame;
        // the 32 KiB one does not fit the buffer at all until it grows.
        let mut requests = vec![batch(256); 12];
        requests.push(batch(4096));
        requests.push(lookup(1, 2));
        let wire = framed(&requests);
        let expected = replies(&service, &requests);
        for read_cap in [None, Some(5000), Some(1)] {
            let writes = serve(&service, [Step::Bytes(wire.clone())], read_cap);
            assert_eq!(writes.concat(), expected, "read cap {read_cap:?}");
        }
    }

    #[test]
    fn timeouts_between_any_two_bytes_are_polled_through() {
        let service = service();
        let requests = [lookup(2, 9), batch(3)];
        let wire = framed(&requests);
        let expected = replies(&service, &requests);
        for cut in 0..=wire.len() {
            let steps = [
                Step::Bytes(wire[..cut].to_vec()),
                Step::Fail(io::ErrorKind::WouldBlock),
                Step::Fail(io::ErrorKind::TimedOut),
                Step::Fail(io::ErrorKind::Interrupted),
                Step::Bytes(wire[cut..].to_vec()),
            ];
            let writes = serve(&service, steps, None);
            assert_eq!(writes.concat(), expected, "cut at {cut}");
        }
    }

    #[test]
    fn a_stop_raised_mid_frame_ends_the_worker_without_a_reply() {
        let service = service();
        let first = framed(&[lookup(2, 9)]);
        let second = framed(&[batch(3)]);
        for cut in 0..second.len() {
            let mut sent = first.clone();
            sent.extend_from_slice(&second[..cut]);
            let steps = [
                Step::Bytes(sent),
                Step::RaiseStop,
                Step::Bytes(second[cut..].to_vec()),
            ];
            let writes = serve(&service, steps, None);
            assert_eq!(
                writes.concat(),
                replies(&service, &[lookup(2, 9)]),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn a_bad_prefix_mid_burst_answers_what_came_before_then_refuses_and_closes() {
        let service = service();
        let before = [lookup(0, 5), batch(7)];
        let empty = crate::ProtoError::BadPayload("empty frame");
        let oversized = crate::ProtoError::Oversized {
            len: DEFAULT_MAX_FRAME + 1,
            max: DEFAULT_MAX_FRAME,
        };
        for (prefix, err) in [(0u32, &empty), (DEFAULT_MAX_FRAME + 1, &oversized)] {
            let mut wire = framed(&before);
            wire.extend_from_slice(&prefix.to_le_bytes());
            wire.extend_from_slice(&framed(&[lookup(1, 2)]));
            let mut expected = replies(&service, &before);
            expected.extend_from_slice(&refusal(err));
            // One read: the burst's replies and the refusal share a write.
            let writes = serve(&service, [Step::Bytes(wire.clone())], None);
            assert_eq!(writes, [expected.clone()], "prefix {prefix}");
            // Byte by byte: same bytes, nothing after the refusal.
            let writes = serve(&service, [Step::Bytes(wire)], Some(1));
            assert_eq!(writes.concat(), expected, "prefix {prefix}");
        }
        // An undecodable body is refused the same way.
        let mut wire = framed(&before);
        write_frame(&mut wire, &[0x7F]).unwrap();
        wire.extend_from_slice(&framed(&[lookup(1, 2)]));
        let mut expected = replies(&service, &before);
        expected.extend_from_slice(&refusal(&crate::ProtoError::UnknownOpcode(0x7F)));
        assert_eq!(serve(&service, [Step::Bytes(wire)], None), [expected]);
    }
}
