//! Answer verification. Inside the timed loops every answer gets the
//! cheap structural check of [`Checker`]; after the legs, outside
//! timing, [`differential_replay`] compares the socket hop-for-hop with
//! an independently built replica.

use cpr_graph::Graph;
use cpr_routing::RouteError;
use cpr_serve::{Request, Response, RouteClient, RouteOutcome};

use crate::inputs::BATCH;

/// The instance's adjacency as an n×n bitset.
pub struct EdgeBits {
    n: usize,
    bits: Vec<u64>,
}

impl EdgeBits {
    /// Both directions of every edge of `graph`.
    pub fn of(graph: &Graph) -> EdgeBits {
        let n = graph.node_count();
        let mut bits = vec![0u64; (n * n).div_ceil(64)];
        for (_, (u, v)) in graph.edges() {
            for i in [u * n + v, v * n + u] {
                bits[i / 64] |= 1 << (i % 64);
            }
        }
        EdgeBits { n, bits }
    }

    fn has(&self, u: u32, v: u32) -> bool {
        let (u, v) = (u as usize, v as usize);
        if u >= self.n || v >= self.n {
            return false;
        }
        let i = u * self.n + v;
        self.bits[i / 64] >> (i % 64) & 1 == 1
    }
}

/// Which edges are live at each serving epoch. The event list is fixed
/// before the churn leg starts and every event is a real delta, so the
/// topology of an epoch is known without asking the program: from
/// `first_epoch`, odd offsets serve the instance minus one removal and
/// even offsets the instance itself.
pub struct EpochEdges<'a> {
    /// The instance's edges.
    pub base: &'a EdgeBits,
    /// Serving epoch when the churn leg starts.
    pub first_epoch: u64,
    /// Removal edge of each event pair, in order; empty on a quiet leg.
    pub removals: &'a [(u32, u32)],
}

impl EpochEdges<'_> {
    /// `Some(removed edge, if any)` for a valid epoch, `None` for an
    /// epoch the event list cannot have produced.
    fn removed_at(&self, epoch: u64) -> Option<Option<(u32, u32)>> {
        let offset = epoch.checked_sub(self.first_epoch)? as usize;
        if offset > 2 * self.removals.len() {
            return None;
        }
        Some((offset % 2 == 1).then(|| self.removals[offset / 2]))
    }
}

/// Per-connection verifier: outcome kind, endpoints, every hop a live
/// edge of the epoch stamped on the response, epochs non-decreasing.
pub struct Checker<'a> {
    edges: EpochEdges<'a>,
    last_epoch: u64,
}

impl<'a> Checker<'a> {
    /// A checker for one connection.
    pub fn new(edges: EpochEdges<'a>) -> Self {
        let last_epoch = edges.first_epoch;
        Checker { edges, last_epoch }
    }

    fn outcome_ok(&self, removed: Option<(u32, u32)>, s: u32, t: u32, o: &RouteOutcome) -> bool {
        match o {
            // Whether the pair really is unroutable in its class is the
            // replica's call, in the differential replay.
            RouteOutcome::Unroutable => true,
            RouteOutcome::Failed(_) => false,
            RouteOutcome::Path(path) => {
                path.first() == Some(&s)
                    && path.last() == Some(&t)
                    && path.windows(2).all(|h| {
                        let (a, b) = (h[0], h[1]);
                        self.edges.base.has(a, b)
                            && removed != Some((a, b))
                            && removed != Some((b, a))
                    })
            }
        }
    }

    /// Number of failed operations in `response` to `request`: 0 or 1
    /// for a `Lookup`, 0 to the batch length for a `Batch` (a refused or
    /// mismatched frame fails every pair it carried).
    pub fn failures(&mut self, request: &Request, response: &Response) -> u64 {
        let ops = ops_of(request);
        let epoch = match response {
            Response::Route { epoch, .. } | Response::Batch { epoch, .. } => *epoch,
            _ => return ops,
        };
        let Some(removed) = self.edges.removed_at(epoch) else {
            return ops;
        };
        if epoch < self.last_epoch {
            return ops;
        }
        self.last_epoch = epoch;
        match (request, response) {
            (Request::Lookup { source, target, .. }, Response::Route { outcome, .. }) => {
                u64::from(!self.outcome_ok(removed, *source, *target, outcome))
            }
            (Request::Batch { pairs, .. }, Response::Batch { outcomes, .. })
                if pairs.len() == outcomes.len() =>
            {
                pairs
                    .iter()
                    .zip(outcomes)
                    .filter(|(&(s, t), o)| !self.outcome_ok(removed, s, t, o))
                    .count() as u64
            }
            _ => ops,
        }
    }
}

/// Operations (queries or pairs) a request carries.
pub fn ops_of(request: &Request) -> u64 {
    match request {
        Request::Batch { pairs, .. } => pairs.len() as u64,
        _ => 1,
    }
}

/// Outcome of the post-run replay.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReplayResult {
    /// Pairs replayed.
    pub attempted: u64,
    /// Pairs whose socket answer differed from the replica's.
    pub mismatched: u64,
    /// Pairs both sides agree are unroutable in their class.
    pub unroutable: u64,
}

/// Replays `pairs[class]` over the socket in `Batch` frames and
/// compares every answer hop-for-hop with `replica(class, s, t)` — the
/// lookup of an instance built independently of the served one, from
/// the same inputs.
pub fn differential_replay(
    client: &mut RouteClient,
    pairs: &[Vec<(u32, u32)>],
    replica: impl Fn(usize, usize, usize) -> Result<Vec<usize>, RouteError>,
) -> ReplayResult {
    let mut result = ReplayResult::default();
    for (class, pairs) in pairs.iter().enumerate() {
        for frame in pairs.chunks(BATCH) {
            result.attempted += frame.len() as u64;
            let Ok((_, outcomes)) = client.batch_class(frame.to_vec(), class as u8) else {
                result.mismatched += frame.len() as u64;
                continue;
            };
            if outcomes.len() != frame.len() {
                result.mismatched += frame.len() as u64;
                continue;
            }
            for (&(s, t), outcome) in frame.iter().zip(&outcomes) {
                let expected = replica(class, s as usize, t as usize);
                let same = match (outcome, &expected) {
                    (RouteOutcome::Path(got), Ok(want)) => {
                        got.len() == want.len()
                            && got.iter().zip(want).all(|(&g, &w)| g as usize == w)
                    }
                    (RouteOutcome::Unroutable, Err(RouteError::Unroutable { .. })) => {
                        result.unroutable += 1;
                        true
                    }
                    _ => false,
                };
                result.mismatched += u64::from(!same);
            }
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_graph() -> Graph {
        // 0 - 1 - 2 - 3, plus the chord 0 - 2.
        Graph::from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 2)]).unwrap()
    }

    fn lookup(s: u32, t: u32) -> Request {
        Request::Lookup {
            source: s,
            target: t,
            class: 0,
        }
    }

    fn route(epoch: u64, path: &[u32]) -> Response {
        Response::Route {
            epoch,
            outcome: RouteOutcome::Path(path.to_vec()),
        }
    }

    #[test]
    fn structural_check_catches_each_kind_of_bad_answer() {
        let bits = EdgeBits::of(&path_graph());
        let quiet = || {
            Checker::new(EpochEdges {
                base: &bits,
                first_epoch: 0,
                removals: &[],
            })
        };
        assert_eq!(quiet().failures(&lookup(0, 3), &route(0, &[0, 2, 3])), 0);
        assert_eq!(quiet().failures(&lookup(0, 3), &route(0, &[0, 1, 2, 3])), 0);
        // Wrong source, wrong target, a hop that is no edge, a node out
        // of range, a loud failure, a refusal, an impossible epoch.
        assert_eq!(quiet().failures(&lookup(0, 3), &route(0, &[1, 2, 3])), 1);
        assert_eq!(quiet().failures(&lookup(0, 3), &route(0, &[0, 2])), 1);
        assert_eq!(quiet().failures(&lookup(0, 3), &route(0, &[0, 3])), 1);
        assert_eq!(quiet().failures(&lookup(0, 3), &route(0, &[0, 9, 3])), 1);
        let failed = Response::Route {
            epoch: 0,
            outcome: RouteOutcome::Failed("hop budget".into()),
        };
        assert_eq!(quiet().failures(&lookup(0, 3), &failed), 1);
        let refused = Response::Error {
            code: 1,
            message: "no".into(),
        };
        assert_eq!(quiet().failures(&lookup(0, 3), &refused), 1);
        assert_eq!(quiet().failures(&lookup(0, 3), &route(1, &[0, 2, 3])), 1);
        let unroutable = Response::Route {
            epoch: 0,
            outcome: RouteOutcome::Unroutable,
        };
        assert_eq!(quiet().failures(&lookup(0, 3), &unroutable), 0);
    }

    #[test]
    fn hops_must_be_live_in_the_stamped_epoch_and_epochs_monotone() {
        let bits = EdgeBits::of(&path_graph());
        let removals = [(0, 2)];
        let mut c = Checker::new(EpochEdges {
            base: &bits,
            first_epoch: 5,
            removals: &removals,
        });
        assert_eq!(c.failures(&lookup(0, 3), &route(5, &[0, 2, 3])), 0);
        // Epoch 6 serves the graph without (0, 2): the chord is dead, in
        // either direction.
        assert_eq!(c.failures(&lookup(0, 3), &route(6, &[0, 2, 3])), 1);
        assert_eq!(c.failures(&lookup(2, 0), &route(6, &[2, 0])), 1);
        assert_eq!(c.failures(&lookup(0, 3), &route(6, &[0, 1, 2, 3])), 0);
        // Going back to epoch 5 on the same connection is a failure.
        assert_eq!(c.failures(&lookup(0, 3), &route(5, &[0, 1, 2, 3])), 1);
        assert_eq!(c.failures(&lookup(0, 3), &route(7, &[0, 2, 3])), 0);
        assert_eq!(c.failures(&lookup(0, 3), &route(8, &[0, 2, 3])), 1);
        assert_eq!(c.failures(&lookup(0, 3), &route(4, &[0, 2, 3])), 1);
    }

    #[test]
    fn a_batch_counts_failures_per_pair() {
        let bits = EdgeBits::of(&path_graph());
        let mut c = Checker::new(EpochEdges {
            base: &bits,
            first_epoch: 0,
            removals: &[],
        });
        let request = Request::Batch {
            pairs: vec![(0, 3), (1, 3), (3, 0)],
            class: 0,
        };
        let ok = |p: &[u32]| RouteOutcome::Path(p.to_vec());
        let response = Response::Batch {
            epoch: 0,
            outcomes: vec![ok(&[0, 2, 3]), ok(&[1, 3]), ok(&[3, 2, 0])],
        };
        assert_eq!(c.failures(&request, &response), 1);
        let short = Response::Batch {
            epoch: 0,
            outcomes: vec![ok(&[0, 2, 3])],
        };
        assert_eq!(c.failures(&request, &short), 3);
        assert_eq!(ops_of(&request), 3);
    }
}
