//! Tenant classes: compiling admitted algebra expressions into
//! [`ClassPlane`]s.
//!
//! This is the bridge between `cpr_algebra::expr` (parse → classify →
//! gate) and the multi-plane: an admitted [`Decision`] names a scheme
//! ([`SchemeChoice`]), and this module builds the matching
//! [`TypedClassPlane`] with a *topology-closed* factory — edge weights
//! derive from [`pair_atom`] endpoint hashes, so churn maintains or
//! rebuilds the scheme on any future graph deterministically, and an
//! external oracle using the same hash can never disagree with the plane.
//!
//! Inadmissible expressions are rejected **before** any compilation
//! work: [`build_tenant_class`] runs the gate first and returns
//! [`TenantError::Inadmissible`] carrying the gate name and the
//! measured witness pair.

use std::fmt;

use cpr_algebra::expr::{decide_text, Decision, DynAlgebra, DynWeight, ExprError, Rejection};
use cpr_algebra::{pair_atom, SchemeChoice};
use cpr_graph::{EdgeWeights, Graph, NodeId};
use cpr_paths::SwWeight;
use cpr_routing::{CowenScheme, DestTable, LandmarkStrategy, SwClassTable};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::compile::CompileError;
use crate::multi::{ClassPlane, TypedClassPlane};

/// Hard cap on simultaneously registered classes: the wire protocol
/// addresses a class with one byte.
pub const MAX_CLASSES: usize = 256;

/// Why a tenant registration (or deregistration) was refused.
#[derive(Clone, Debug, PartialEq)]
pub enum TenantError {
    /// The expression text did not parse or lower.
    Parse(ExprError),
    /// The expression parsed but a theorem gate rejected it; the
    /// [`Rejection`] carries the gate and the measured witness pair.
    Inadmissible(Rejection),
    /// The admitted scheme failed to compile over the current topology.
    Compile(CompileError),
    /// A live class already serves under this name.
    DuplicateName(String),
    /// No live class serves under this name.
    UnknownClass(String),
    /// The named class is a seed (build-time) class; only runtime
    /// registrations can be deregistered.
    SeedClass(String),
    /// All [`MAX_CLASSES`] wire slots are live.
    RegistryFull,
}

impl fmt::Display for TenantError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TenantError::Parse(e) => write!(f, "expression error: {e}"),
            TenantError::Inadmissible(r) => write!(f, "{r}"),
            TenantError::Compile(e) => write!(f, "compile error: {e}"),
            TenantError::DuplicateName(n) => write!(f, "class `{n}` is already registered"),
            TenantError::UnknownClass(n) => write!(f, "no class named `{n}`"),
            TenantError::SeedClass(n) => write!(f, "class `{n}` is a seed class"),
            TenantError::RegistryFull => {
                write!(f, "all {MAX_CLASSES} traffic-class slots are live")
            }
        }
    }
}

impl std::error::Error for TenantError {}

impl From<ExprError> for TenantError {
    fn from(e: ExprError) -> Self {
        TenantError::Parse(e)
    }
}

impl From<CompileError> for TenantError {
    fn from(e: CompileError) -> Self {
        TenantError::Compile(e)
    }
}

/// Edge weights of a lowered expression over any topology: edge
/// `{u, v}` is weighed by interpreting the [`pair_atom`] endpoint hash.
pub fn dyn_edge_weights(alg: &DynAlgebra, graph: &Graph) -> EdgeWeights<DynWeight> {
    EdgeWeights::from_fn(graph, |e| {
        let (u, v) = graph.endpoints(e);
        dyn_weight(alg, u, v)
    })
}

/// The `(Capacity, cost)` projection of a shortest-widest-shaped
/// expression's weights, for [`SwClassTable::build`].
///
/// # Panics
///
/// Panics when the expression's carrier is not the
/// `lex(widest-path, int)` pair — [`build_tenant_class`] only routes
/// Theorem 1 admissions here, and the gate enforces the shape.
pub fn sw_edge_weights(alg: &DynAlgebra, graph: &Graph) -> EdgeWeights<SwWeight> {
    EdgeWeights::from_fn(graph, |e| {
        let (u, v) = graph.endpoints(e);
        sw_weight(alg, u, v)
    })
}

/// Edge `{u, v}`'s weight under `alg`: the [`pair_atom`] endpoint hash,
/// interpreted.
fn dyn_weight(alg: &DynAlgebra, u: NodeId, v: NodeId) -> DynWeight {
    alg.weight_from_atom(pair_atom(u as u64, v as u64))
}

/// [`dyn_weight`] projected to `(Capacity, cost)`; see
/// [`sw_edge_weights`].
fn sw_weight(alg: &DynAlgebra, u: NodeId, v: NodeId) -> SwWeight {
    match dyn_weight(alg, u, v) {
        DynWeight::Pair(a, b) => match (*a, *b) {
            (DynWeight::Cap(c), DynWeight::Int(s)) => (c, s),
            (a, b) => panic!("sw carrier must be (capacity, int); got ({a}, {b})"),
        },
        w => panic!("sw carrier must be a pair; got {w}"),
    }
}

fn fnv64(text: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// A successfully admitted and compiled tenant class.
pub struct TenantClass {
    /// The compiled class, ready for a registry slot.
    pub plane: Box<dyn ClassPlane>,
    /// The full gate decision (lowered algebra, property report,
    /// admissibility verdict).
    pub decision: Decision,
    /// The scheme the gate selected.
    pub scheme: SchemeChoice,
}

/// Parses, gates and compiles one tenant expression over `graph`.
///
/// The gate runs **first**: a rejected expression returns
/// [`TenantError::Inadmissible`] without compiling anything.
///
/// # Errors
///
/// [`TenantError::Parse`], [`TenantError::Inadmissible`] or
/// [`TenantError::Compile`].
pub fn build_tenant_class(
    name: &str,
    text: &str,
    graph: &Graph,
) -> Result<TenantClass, TenantError> {
    let decision = decide_text(text)?;
    let scheme = match &decision.admissibility {
        cpr_algebra::Admissibility::Admitted { scheme, .. } => *scheme,
        cpr_algebra::Admissibility::Rejected(r) => {
            return Err(TenantError::Inadmissible(r.clone()))
        }
    };
    let alg = decision.algebra.clone();
    // The two table schemes are maintained across churn by their
    // incremental factories; Cowen's landmark draw is rebuilt.
    let plane: Box<dyn ClassPlane> = match scheme {
        SchemeChoice::DestTable => {
            let weigh = alg.clone();
            let factory = DestTable::factory(alg, move |u, v| dyn_weight(&weigh, u, v));
            Box::new(TypedClassPlane::new(name, graph, factory)?)
        }
        SchemeChoice::SwClassTable => {
            let factory = SwClassTable::factory(move |u, v| sw_weight(&alg, u, v));
            Box::new(TypedClassPlane::new(name, graph, factory)?)
        }
        SchemeChoice::Cowen => {
            // The landmark draw is seeded from the canonical expression
            // text, so churn rebuilds of the same class are
            // deterministic — and so is any external replica.
            let seed = fnv64(decision.algebra.text()) ^ 0x7465_6e61_6e74;
            Box::new(TypedClassPlane::new(name, graph, move |g: &Graph| {
                let mut rng = StdRng::seed_from_u64(seed);
                CowenScheme::build(
                    g,
                    &dyn_edge_weights(&alg, g),
                    &alg,
                    LandmarkStrategy::TzRandom { attempts: 4 },
                    &mut rng,
                )
            })?)
        }
    };
    Ok(TenantClass {
        plane,
        decision,
        scheme,
    })
}
