//! Wire-protocol coverage: encode/decode round-trips over every frame
//! type (property-tested from seeds), total decoding over arbitrary
//! byte soup, and malformed frames against a *live* server asserting
//! clean connection errors — never a worker panic.

use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use cpr_algebra::policies::ShortestPath;
use cpr_graph::{generators, EdgeWeights, Graph};
use cpr_plane::MultiBuilder;
use cpr_routing::DestTable;
use cpr_serve::proto::{
    write_frame, FrameReader, ProtoError, Request, Response, RouteOutcome, StatsSnapshot,
    ERR_BAD_REQUEST, ERR_PROTO,
};
use cpr_serve::{MultiRouteService, RouteClient, RouteServer, ServeConfig};
use proptest::prelude::*;
use rand::SeedableRng;

/// A tiny deterministic generator so arbitrary protocol values come
/// from one `u64` seed (the vendored proptest has no enum strategies).
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        // splitmix64: full-period, seed 0 safe.
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn string(&mut self) -> String {
        let len = self.below(20) as usize;
        (0..len)
            .map(|_| char::from(b'a' + self.below(26) as u8))
            .collect()
    }

    fn outcome(&mut self) -> RouteOutcome {
        match self.below(3) {
            0 => RouteOutcome::Path((0..self.below(12)).map(|_| self.next() as u32).collect()),
            1 => RouteOutcome::Unroutable,
            _ => RouteOutcome::Failed(self.string()),
        }
    }

    fn class(&mut self) -> u8 {
        // Half the frames are class 0 (the legacy encoding), the rest
        // spread over the full byte so both wire shapes round-trip.
        if self.below(2) == 0 {
            0
        } else {
            self.next() as u8
        }
    }

    fn request(&mut self) -> Request {
        match self.below(5) {
            0 => Request::Lookup {
                source: self.next() as u32,
                target: self.next() as u32,
                class: self.class(),
            },
            1 => Request::Batch {
                pairs: (0..self.below(10))
                    .map(|_| (self.next() as u32, self.next() as u32))
                    .collect(),
                class: self.class(),
            },
            2 => Request::Health,
            3 => Request::Metrics,
            _ => Request::Stats,
        }
    }

    fn response(&mut self) -> Response {
        match self.below(6) {
            0 => Response::Route {
                epoch: self.next(),
                outcome: self.outcome(),
            },
            1 => Response::Batch {
                epoch: self.next(),
                outcomes: (0..self.below(8)).map(|_| self.outcome()).collect(),
            },
            2 => Response::Health {
                epoch: self.next(),
                digest: self.next(),
                fresh: self.below(2) == 0,
            },
            3 => Response::Metrics {
                epoch: self.next(),
                json: self.string(),
            },
            4 => Response::Stats(StatsSnapshot {
                epoch: self.next(),
                digest: self.next(),
                swaps: self.next(),
                queries: self.next(),
                delivered: self.next(),
                unroutable: self.next(),
                failed: self.next(),
                epoch_queries: (0..self.below(6))
                    .map(|_| (self.next(), self.next()))
                    .collect(),
            }),
            _ => Response::Error {
                code: self.below(4) as u8,
                message: self.string(),
            },
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn requests_roundtrip(seed in proptest::arbitrary::any::<u64>()) {
        let req = Mix(seed).request();
        prop_assert_eq!(Request::decode(&req.encode()).as_ref(), Ok(&req));
    }

    #[test]
    fn responses_roundtrip(seed in proptest::arbitrary::any::<u64>()) {
        let resp = Mix(seed).response();
        prop_assert_eq!(Response::decode(&resp.encode()).as_ref(), Ok(&resp));
    }

    #[test]
    fn framed_responses_roundtrip(seed in proptest::arbitrary::any::<u64>()) {
        let resp = Mix(seed).response();
        let mut wire = Vec::new();
        write_frame(&mut wire, &resp.encode()).unwrap();
        let mut reader = FrameReader::new(1 << 20);
        let body = reader.read(&mut wire.as_slice(), None).unwrap().unwrap();
        prop_assert_eq!(Response::decode(body).unwrap(), resp);
    }

    /// Decoding is total: arbitrary byte soup yields `Ok` or a
    /// `ProtoError`, never a panic.
    #[test]
    fn decode_never_panics(seed in proptest::arbitrary::any::<u64>(), len in 0usize..64) {
        let mut mix = Mix(seed);
        let bytes: Vec<u8> = (0..len).map(|_| mix.next() as u8).collect();
        let _ = Request::decode(&bytes);
        let _ = Response::decode(&bytes);
        let _ = FrameReader::new(1 << 10).read(&mut bytes.as_slice(), None);
    }

    /// Truncating a valid encoded request anywhere yields a clean error
    /// (or decodes as a shorter valid frame — never panics, never
    /// misparses into the original).
    #[test]
    fn truncated_requests_error_cleanly(seed in proptest::arbitrary::any::<u64>()) {
        let req = Mix(seed).request();
        let full = req.encode();
        for cut in 0..full.len() {
            if let Ok(short) = Request::decode(&full[..cut]) {
                prop_assert_ne!(short, req.clone());
            }
        }
    }

    /// The traffic-class byte round-trips on both classed opcodes for
    /// every value, including 0 (which encodes as the legacy shape).
    #[test]
    fn class_byte_roundtrips(seed in proptest::arbitrary::any::<u64>()) {
        let mut mix = Mix(seed);
        let class = mix.next() as u8;
        let lookup = Request::Lookup {
            source: mix.next() as u32,
            target: mix.next() as u32,
            class,
        };
        prop_assert_eq!(Request::decode(&lookup.encode()).as_ref(), Ok(&lookup));
        let batch = Request::Batch {
            pairs: (0..mix.below(10))
                .map(|_| (mix.next() as u32, mix.next() as u32))
                .collect(),
            class,
        };
        prop_assert_eq!(Request::decode(&batch.encode()).as_ref(), Ok(&batch));
    }

    /// Legacy-frame compatibility: a hand-built frame with **no** class
    /// byte — exactly what every pre-multi client sends — decodes to
    /// class 0, for both Lookup and Batch.
    #[test]
    fn legacy_frames_decode_to_class_zero(seed in proptest::arbitrary::any::<u64>()) {
        let mut mix = Mix(seed);
        let (source, target) = (mix.next() as u32, mix.next() as u32);
        let mut legacy = vec![cpr_serve::proto::OP_LOOKUP];
        legacy.extend_from_slice(&source.to_le_bytes());
        legacy.extend_from_slice(&target.to_le_bytes());
        prop_assert_eq!(
            Request::decode(&legacy),
            Ok(Request::Lookup { source, target, class: 0 })
        );

        let pairs: Vec<(u32, u32)> = (0..mix.below(10))
            .map(|_| (mix.next() as u32, mix.next() as u32))
            .collect();
        let mut legacy = vec![cpr_serve::proto::OP_BATCH];
        legacy.extend_from_slice(&(pairs.len() as u32).to_le_bytes());
        for &(s, t) in &pairs {
            legacy.extend_from_slice(&s.to_le_bytes());
            legacy.extend_from_slice(&t.to_le_bytes());
        }
        prop_assert_eq!(
            Request::decode(&legacy),
            Ok(Request::Batch { pairs, class: 0 })
        );
    }
}

// ---------------------------------------------------------------------
// Malformed frames against a live server.

/// A one-class daemon: the single-algebra deployment is a one-entry
/// registry.
fn boot() -> (
    RouteServer,
    std::net::SocketAddr,
    Arc<std::sync::atomic::AtomicBool>,
) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    let g = generators::gnp_connected(8, 0.4, &mut rng);
    let registry = MultiBuilder::new().class("shortest-path", |g: &Graph| {
        DestTable::build(g, &EdgeWeights::uniform(g, 1u64), &ShortestPath)
    });
    let config = ServeConfig {
        max_frame: 256,
        max_batch: 4,
        ..ServeConfig::default()
    };
    let service = Arc::new(
        MultiRouteService::new(&g, registry, config, cpr_obs::Obs::with_null_tracer()).unwrap(),
    );
    let server = RouteServer::bind(service, "127.0.0.1:0").unwrap();
    let addr = server.local_addr().unwrap();
    let stop = server.stop_handle();
    (server, addr, stop)
}

/// Reads the server's reaction to a poisoned connection: either a
/// best-effort `Error` frame (whose code is checked) or a bare close.
fn expect_error_then_close(stream: &mut TcpStream, code: u8) {
    let mut reader = FrameReader::new(1 << 20);
    match reader.read(stream, None) {
        Ok(Some(body)) => {
            match Response::decode(body).expect("server sent an undecodable frame") {
                Response::Error { code: got, .. } => assert_eq!(got, code),
                other => panic!("expected an error frame, got {other:?}"),
            }
            // After the error frame the server closes the connection.
            match reader.read(stream, None) {
                Ok(None) | Err(ProtoError::Io(_)) => {}
                other => panic!("expected close after error frame, got {other:?}"),
            }
        }
        // The close can win the race with our read.
        Ok(None) | Err(ProtoError::Io(_)) => {}
        Err(e) => panic!("expected error frame or close, got {e:?}"),
    }
}

#[test]
fn malformed_frames_close_cleanly_and_never_panic_workers() {
    let (server, addr, stop) = boot();
    std::thread::scope(|scope| {
        let server_handle = scope.spawn(|| server.run().unwrap());

        // 1. Truncated length prefix: two bytes, then close.
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(&[0x02, 0x00]).unwrap();
        drop(s);

        // 2. Truncated body: announce 10 bytes, send 3, then close.
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(&[10, 0, 0, 0, 1, 2, 3]).unwrap();
        s.shutdown(std::net::Shutdown::Write).unwrap();
        expect_error_then_close(&mut s, ERR_PROTO);

        // 3. Oversized frame: the prefix alone trips the cap.
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(&0x7FFF_FFFFu32.to_le_bytes()).unwrap();
        expect_error_then_close(&mut s, ERR_PROTO);

        // 4. Unknown opcode in a well-formed frame.
        let mut s = TcpStream::connect(addr).unwrap();
        write_frame(&mut s, &[0x7F]).unwrap();
        expect_error_then_close(&mut s, ERR_PROTO);

        // 5. Zero-length frame.
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(&[0, 0, 0, 0]).unwrap();
        expect_error_then_close(&mut s, ERR_PROTO);

        // 6. A batch over the configured cap is refused with a typed
        //    error but the connection survives.
        let mut client = RouteClient::connect(addr).unwrap();
        let too_big: Vec<(u32, u32)> = (0..5).map(|i| (0, i + 1)).collect();
        match client.batch(too_big) {
            Err(cpr_serve::ClientError::Server { code, .. }) => assert_eq!(code, ERR_BAD_REQUEST),
            other => panic!("expected a server error, got {other:?}"),
        }
        let (epoch, outcome) = client.lookup(0, 1).unwrap();
        assert_eq!(epoch, 0);
        assert!(matches!(outcome, RouteOutcome::Path(_)));

        // 7. An out-of-range traffic class on a one-class service is a
        //    protocol error — for Lookup and Batch alike — and the
        //    connection keeps serving class 0 afterwards (step 6's
        //    class-less `lookup` is the legacy frame landing there).
        for class in [1u8, 7, 255] {
            match client.lookup_class(0, 1, class) {
                Err(cpr_serve::ClientError::Server { code, message }) => {
                    assert_eq!(code, ERR_PROTO);
                    assert!(message.contains("class"), "unhelpful error: {message}");
                }
                other => panic!("expected ERR_PROTO for class {class}, got {other:?}"),
            }
        }
        match client.batch_class(vec![(0, 1)], 3) {
            Err(cpr_serve::ClientError::Server { code, .. }) => assert_eq!(code, ERR_PROTO),
            other => panic!("expected ERR_PROTO for a classed batch, got {other:?}"),
        }
        let (_, outcome) = client.lookup_class(0, 1, 0).unwrap();
        assert!(matches!(outcome, RouteOutcome::Path(_)));

        // After all that abuse, a fresh connection is still served —
        // no worker died, no state was poisoned.
        let mut client = RouteClient::connect(addr).unwrap();
        let (epoch, digest, fresh) = client.health().unwrap();
        assert_eq!(epoch, 0);
        assert_ne!(digest, 0);
        assert!(fresh);

        stop.store(true, Ordering::Relaxed);
        server_handle.join().unwrap();
    });
    // A panicked connection worker would have propagated through the
    // server's thread scope and failed the join above.
}
