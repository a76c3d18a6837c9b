//! The request path against its oracle. `MultiRouteService::answer` is
//! the decoded-`Response` adapter over the one routing body;
//! `answer_frame` is the wire adapter a connection worker runs. Both
//! must produce the same bytes, the same `Stats` and the same rendered
//! registry — on every class of the standard registry, on and off the
//! flat core, and on every refusal. Plus the two socket-level
//! behaviours the path adds: a retired class id is a typed refusal
//! (never a panic), and pipelined frames are answered in order.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use cpr_conform::standard_builder;
use cpr_graph::{generators, Graph};
use cpr_plane::RepairPolicy;
use cpr_routing::RouteError;
use cpr_serve::proto::{write_frame, ERR_BAD_REQUEST};
use cpr_serve::{
    ClientError, ConnScratch, MultiRouteService, Request, Response, RouteClient, RouteOutcome,
    RouteServer, ServeConfig,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SEED: u64 = 0x5E47_E000_0011;
const N: usize = 64;
const CLASSES: u8 = 12;
const MAX_BATCH: u32 = 48;

fn service(graph: &Graph) -> MultiRouteService {
    let config = ServeConfig {
        max_batch: MAX_BATCH,
        ..ServeConfig::default()
    };
    MultiRouteService::new(
        graph,
        standard_builder(),
        config,
        cpr_obs::Obs::with_null_tracer(),
    )
    .expect("the standard registry compiles")
}

/// An edge whose removal keeps `graph` connected, and the graph
/// without it.
fn drop_non_bridge(graph: &Graph) -> Graph {
    graph
        .edges()
        .find_map(|(e, _)| {
            let kept = graph.edges().filter(|&(i, _)| i != e).map(|(_, uv)| uv);
            let g = Graph::from_edges(graph.node_count(), kept).expect("edge subset is valid");
            cpr_graph::traversal::is_connected(&g).then_some(g)
        })
        .expect("a G(n, p) instance this dense has a cycle")
}

/// Every shape of `Lookup` / `Batch` the body distinguishes, over every
/// class, against the serving state of `service`.
fn traffic(service: &MultiRouteService, rng: &mut StdRng) -> Vec<Request> {
    let snap = service.current();
    let mut requests = Vec::new();
    let node = |rng: &mut StdRng| rng.gen_range(0..N as u32);
    for class in 0..CLASSES {
        let uniform = (0..32).map(|_| (node(rng), node(rng))).collect();
        let target = node(rng);
        let same_destination = (0..32).map(|_| (node(rng), target)).collect();
        let v = node(rng);
        requests.extend([
            Request::Batch {
                pairs: uniform,
                class,
            },
            Request::Batch {
                pairs: same_destination,
                class,
            },
            Request::Lookup {
                source: node(rng),
                target: node(rng),
                class,
            },
            Request::Lookup {
                source: v,
                target: v,
                class,
            },
            Request::Lookup {
                source: N as u32,
                target: v,
                class,
            },
            Request::Batch {
                pairs: vec![(v, v), (v, N as u32 + 7), (u32::MAX, v), (v, node(rng))],
                class,
            },
            Request::Batch {
                pairs: Vec::new(),
                class,
            },
            Request::Batch {
                pairs: vec![(0, 1); MAX_BATCH as usize + 1],
                class,
            },
        ]);
    }
    // A pair some policy class cannot route (valley-free export rules
    // leave such pairs on any instance with more than one tier).
    let (class, s, t) = (0..usize::from(CLASSES))
        .flat_map(|c| (0..N).flat_map(move |s| (0..N).map(move |t| (c, s, t))))
        .find(|&(c, s, t)| matches!(snap.lookup(c, s, t), Err(RouteError::Unroutable { .. })))
        .expect("some class leaves some pair unroutable");
    let (class, s, t) = (class as u8, s as u32, t as u32);
    requests.extend([
        Request::Lookup {
            source: s,
            target: t,
            class,
        },
        Request::Batch {
            pairs: vec![(s, t), (t, t), (s, t)],
            class,
        },
    ]);
    for class in [CLASSES, 200, 255] {
        requests.extend([
            Request::Lookup {
                source: 0,
                target: 1,
                class,
            },
            Request::Batch {
                pairs: vec![(0, 1)],
                class,
            },
        ]);
    }
    requests
}

/// Feeds `requests` to `decoded` through `answer` and to `wire` through
/// `answer_frame` (one connection's scratch and output buffer, reused
/// the way a worker reuses them) and compares the framed bytes.
fn assert_same_bytes(decoded: &MultiRouteService, wire: &MultiRouteService, requests: &[Request]) {
    let mut scratch = ConnScratch::default();
    let mut out = Vec::new();
    for request in requests {
        let mut expected = Vec::new();
        write_frame(&mut expected, &decoded.answer(request).encode()).unwrap();
        out.clear();
        wire.answer_frame(&request.encode(), &mut scratch, &mut out)
            .expect("a well-formed body");
        assert_eq!(out, expected, "reply bytes diverged for {request:?}");
    }
    assert_eq!(decoded.stats(), wire.stats());
    assert_eq!(
        decoded.obs().registry.render_json().to_compact(),
        wire.obs().registry.render_json().to_compact()
    );
}

#[test]
fn wire_entry_and_decoded_entry_agree_on_and_off_the_core() {
    let mut rng = StdRng::seed_from_u64(SEED);
    let g0 = generators::gnp_connected(N, 0.08, &mut rng);
    let (decoded, wire) = (service(&g0), service(&g0));

    let requests = traffic(&decoded, &mut rng);
    assert_same_bytes(&decoded, &wire, &requests);
    let stats = wire.stats();
    assert!(stats.delivered > 0 && stats.unroutable > 0 && stats.failed > 0);

    // A removal patches the classes whose routes crossed the edge:
    // those leave their flat core and serve through the healed walk.
    let g1 = drop_non_bridge(&g0);
    let policy = RepairPolicy {
        max_dirty_fraction: 1.0,
        ..RepairPolicy::default()
    };
    for s in [&decoded, &wire] {
        assert!(s.reconcile(&g1, &policy).expect("reconcile").swapped);
    }
    let snap = wire.current();
    let off_core = (0..usize::from(CLASSES))
        .filter(|&c| !snap.class_on_core(c))
        .count();
    assert!(off_core > 0, "the removal left every class on its core");
    let requests = traffic(&decoded, &mut rng);
    assert_same_bytes(&decoded, &wire, &requests);

    // A retired slot refuses the same way through both entries.
    for s in [&decoded, &wire] {
        let (class, _, _) = s
            .register_class("tenant", "scale(shortest-path, 3)")
            .expect("register");
        assert_eq!(class, CLASSES);
        s.deregister_class("tenant").expect("deregister");
    }
    let stale = [
        Request::Lookup {
            source: 0,
            target: 1,
            class: CLASSES,
        },
        Request::Batch {
            pairs: vec![(0, 1), (2, 3)],
            class: CLASSES,
        },
    ];
    assert_same_bytes(&decoded, &wire, &stale);
    for request in &stale {
        match decoded.answer(request) {
            Response::Error { code, message } => {
                assert_eq!(code, ERR_BAD_REQUEST);
                assert!(message.contains("is deregistered"), "{message}");
            }
            other => panic!("retired class answered {other:?}"),
        }
    }
}

fn boot(graph: &Graph) -> (Arc<MultiRouteService>, RouteServer) {
    let service = Arc::new(service(graph));
    let server = RouteServer::bind(Arc::clone(&service), "127.0.0.1:0").expect("bind");
    (service, server)
}

#[test]
fn a_retired_class_id_is_refused_and_the_connection_keeps_serving() {
    let mut rng = StdRng::seed_from_u64(SEED ^ 0xDE4E);
    let g = generators::gnp_connected(20, 0.25, &mut rng);
    let (_service, server) = boot(&g);
    let addr = server.local_addr().unwrap();
    let stop = server.stop_handle();
    std::thread::scope(|scope| {
        let running = scope.spawn(|| server.run().unwrap());
        let mut client = RouteClient::connect(addr).expect("connect");
        let (_, class, _) = client
            .register_class("tenant", "scale(shortest-path, 3)")
            .expect("register");
        assert!(matches!(
            client.lookup_class(0, 1, class),
            Ok((_, RouteOutcome::Path(_)))
        ));
        client.deregister_class("tenant").expect("deregister");

        let refused = |reply: Result<_, ClientError>| match reply {
            Err(ClientError::Server { code, message }) => {
                assert_eq!(code, ERR_BAD_REQUEST);
                assert!(message.contains("is deregistered"), "{message}");
            }
            Ok(_) | Err(_) => panic!("a retired class id was not refused"),
        };
        refused(client.lookup_class(0, 1, class).map(|_| ()));
        refused(client.batch_class(vec![(0, 1), (1, 2)], class).map(|_| ()));
        // Same connection, a live class: still served.
        let (_, outcome) = client.lookup_class(0, 1, 0).expect("class 0 serves");
        assert!(matches!(outcome, RouteOutcome::Path(_)));

        stop.store(true, Ordering::Relaxed);
        running.join().unwrap();
    });
}

fn epoch_of(response: &Response) -> u64 {
    match response {
        Response::Route { epoch, .. }
        | Response::Batch { epoch, .. }
        | Response::Health { epoch, .. } => *epoch,
        other => panic!("unexpected reply {other:?}"),
    }
}

#[test]
fn a_pipelined_burst_is_answered_in_order_like_sequential_calls() {
    let mut rng = StdRng::seed_from_u64(SEED ^ 0x919E);
    let g0 = generators::gnp_connected(20, 0.25, &mut rng);
    let g1 = drop_non_bridge(&g0);
    let (service, server) = boot(&g0);
    let addr = server.local_addr().unwrap();
    let stop = server.stop_handle();

    let node = |rng: &mut StdRng| rng.gen_range(0..20u32);
    let burst: Vec<Request> = (0..8u8)
        .map(|i| match i % 4 {
            0 | 1 => Request::Lookup {
                source: node(&mut rng),
                target: node(&mut rng),
                class: i,
            },
            2 => Request::Batch {
                pairs: (0..16).map(|_| (node(&mut rng), node(&mut rng))).collect(),
                class: i,
            },
            _ => Request::Health,
        })
        .collect();

    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let running = scope.spawn(|| server.run().unwrap());
        let mut client = RouteClient::connect(addr).expect("connect");

        // Quiet daemon: depth 8 is the same eight replies as eight calls.
        let pipelined = client.call_pipelined(&burst).expect("pipelined burst");
        let sequential: Vec<Response> = burst
            .iter()
            .map(|r| client.call(r).expect("sequential call"))
            .collect();
        assert_eq!(pipelined, sequential);

        // Beside a reconciling control thread: every burst still gets
        // its eight replies in request order, and the epochs they carry
        // never go back — within a burst or across bursts.
        let control = scope.spawn(|| {
            let policy = RepairPolicy::default();
            for graph in [&g1, &g0, &g1, &g0] {
                assert!(
                    service
                        .reconcile(graph, &policy)
                        .expect("reconcile")
                        .swapped
                );
            }
            done.store(true, Ordering::Release);
        });
        let mut last = 0u64;
        loop {
            let finished = done.load(Ordering::Acquire);
            let replies = client.call_pipelined(&burst).expect("pipelined burst");
            assert_eq!(replies.len(), burst.len());
            for (request, reply) in burst.iter().zip(&replies) {
                match (request, reply) {
                    (Request::Lookup { .. }, Response::Route { .. })
                    | (Request::Health, Response::Health { .. }) => {}
                    (Request::Batch { pairs, .. }, Response::Batch { outcomes, .. }) => {
                        assert_eq!(pairs.len(), outcomes.len());
                    }
                    other => panic!("reply out of order: {other:?}"),
                }
                let epoch = epoch_of(reply);
                assert!(epoch >= last, "epoch went back: {last} then {epoch}");
                last = epoch;
            }
            if finished {
                break;
            }
        }
        control.join().unwrap();
        assert_eq!(last, service.current().epoch());
        assert_eq!(last, 4);

        stop.store(true, Ordering::Relaxed);
        running.join().unwrap();
    });
}
