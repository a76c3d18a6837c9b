//! The differential conformance engine.
//!
//! For one [`Instance`], the engine sweeps every registered algebra and
//! every scheme whose admissibility gate the algebra's *empirical*
//! property set passes, and checks each against the exhaustive
//! simple-path oracle:
//!
//! * **Routability agreement** — a scheme must deliver exactly the pairs
//!   the oracle says are reachable, and refuse the rest; any
//!   [`RouteError`] at a reachable pair (loop, bad port) is a violation.
//! * **Stretch certification** — every delivered path's algebraic weight
//!   is checked against Definition 3 with the scheme's *claimed* bound
//!   (`k = 1` for table schemes, `k = 3` for Cowen per Theorem 3);
//!   [`StretchVerdict::Exceeded`] is a hard failure.
//! * **Plane conformance** — the cpr-plane compiler must reproduce the
//!   live scheme hop-for-hop over all pairs
//!   ([`cpr_plane::validate`]), and after the fault/repair drill the
//!   healed plane must agree with a freshly built scheme on the degraded
//!   topology, with routes re-certified against the degraded oracle.
//! * **Classifier conformance** — the mutant algebras must be detected
//!   (a counterexample for every designed-broken property) and rejected
//!   by the gate that their well-behaved baseline passes
//!   ([`check_mutants`]).
//!
//! Everything is deterministic: violations are emitted in a fixed sweep
//! order and [`Report::render`] is byte-identical for identical inputs
//! across `CPR_THREADS` settings.

use std::fmt;

use cpr_algebra::{
    check_all_properties, check_stretch, embeds_shortest_path, policies, Property, SampleWeights,
    StretchVerdict,
};
use cpr_graph::{EdgeWeights, Graph};
use cpr_paths::{exhaustive_preferred_all, SourceRouting};
use cpr_plane::{DirtySource, RepairPolicy, SelfHealingPlane};
use cpr_routing::{
    route, CowenScheme, DestTable, LabelSwapping, LandmarkStrategy, RouteError, RoutingScheme,
    SrcDestTable, SwClassTable,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::algebras::{AlgebraId, ConformAlgebra, ALL_ALGEBRAS};
use crate::generate::Instance;
use crate::mutant::{classify_mutant, Detour, NarrowSelf, Penalty, Plateau, ALL_MUTANTS};

/// Claimed stretch of the table schemes (they route preferred paths).
pub const TABLE_STRETCH: u32 = 1;
/// Claimed stretch of the generalized Cowen scheme (Theorem 3).
pub const COWEN_STRETCH: u32 = 3;

/// One conformance violation. Every field is deterministic text so a
/// violation renders identically on every run and thread count.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// The instance tag ([`Instance::tag`]), or `"-"` for
    /// instance-independent checks (mutant classification).
    pub instance: String,
    /// Algebra name.
    pub algebra: String,
    /// Scheme name, or the gate being checked.
    pub scheme: String,
    /// Violation class, e.g. `stretch-exceeded`, `plane-divergence`.
    pub kind: String,
    /// Human-readable specifics (pair, weights, verdicts).
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {} / {} ({}): {}",
            self.kind, self.algebra, self.scheme, self.instance, self.detail
        )
    }
}

/// Aggregated outcome of a conformance run.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Scheme instances run to completion (including healed planes).
    pub schemes_run: usize,
    /// Ordered `(source, target)` pairs differentially checked.
    pub pairs_checked: u64,
    /// `algebra:scheme-kind` combinations actually exercised; lets the
    /// harness *prove* its coverage claim instead of asserting counts.
    pub coverage: std::collections::BTreeSet<String>,
    /// Gate skips, as `algebra/scheme: reason` lines (deterministic order).
    pub skips: Vec<String>,
    /// All violations, in sweep order.
    pub violations: Vec<Violation>,
}

impl Report {
    /// Folds `other` into `self`.
    pub fn merge(&mut self, other: Report) {
        self.schemes_run += other.schemes_run;
        self.pairs_checked += other.pairs_checked;
        self.coverage.extend(other.coverage);
        self.skips.extend(other.skips);
        self.violations.extend(other.violations);
    }

    /// The distinct scheme kinds exercised (the suffix of each
    /// [`coverage`](Self::coverage) entry).
    pub fn scheme_kinds(&self) -> std::collections::BTreeSet<&str> {
        self.coverage
            .iter()
            .filter_map(|c| c.split(':').nth(1))
            .collect()
    }

    /// `true` when no violation was found.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Renders the report as deterministic text: identical inputs yield
    /// byte-identical output regardless of `CPR_THREADS`.
    pub fn render(&self) -> String {
        let mut out = format!(
            "schemes_run={} pairs_checked={} skips={} violations={}\n",
            self.schemes_run,
            self.pairs_checked,
            self.skips.len(),
            self.violations.len()
        );
        for s in &self.skips {
            out.push_str("  skip ");
            out.push_str(s);
            out.push('\n');
        }
        for v in &self.violations {
            out.push_str("  FAIL ");
            out.push_str(&v.to_string());
            out.push('\n');
        }
        out
    }
}

/// Shared per-(instance, algebra) context threaded through the checks.
struct Ctx<'a, A: ConformAlgebra>
where
    A::W: Send + Sync,
{
    inst: &'a Instance,
    id: AlgebraId,
    alg: &'a A,
    graph: &'a Graph,
    weights: &'a EdgeWeights<A::W>,
    oracle: &'a [SourceRouting<A::W>],
}

impl<A: ConformAlgebra> Ctx<'_, A>
where
    A::W: Send + Sync,
{
    fn violation(&self, scheme: &str, kind: &str, detail: String) -> Violation {
        Violation {
            instance: self.inst.tag(),
            algebra: self.id.name().to_owned(),
            scheme: scheme.to_owned(),
            kind: kind.to_owned(),
            detail,
        }
    }
}

/// Runs the full conformance sweep on one instance: every registered
/// algebra, every admissible scheme, plane compilation, and (when the
/// instance carries a heal edge) the fault/repair drill.
pub fn check_instance(inst: &Instance) -> Report {
    let mut report = Report::default();
    for id in ALL_ALGEBRAS {
        crate::with_algebra!(id, alg => check_algebra(inst, id, &alg, &mut report));
    }
    report
}

fn check_algebra<A>(inst: &Instance, id: AlgebraId, alg: &A, report: &mut Report)
where
    A: ConformAlgebra,
    A::W: Send + Sync + Clone + fmt::Debug + PartialEq,
{
    let graph = inst.graph();
    let weights = alg.weights_from_atoms(&graph, &inst.atoms);
    let props = check_all_properties(alg, &alg.sample()).holding();
    let prune = props.contains(Property::Monotone);
    let oracle = exhaustive_preferred_all(&graph, &weights, alg, prune);
    let ctx = Ctx {
        inst,
        id,
        alg,
        graph: &graph,
        weights: &weights,
        oracle: &oracle,
    };

    // Destination tables: admissible iff the empirical properties are
    // regular (Proposition 2). Dijkstra and the oracle may break weight
    // ties differently, so agreement is weight-level, not path-level.
    if props.is_regular() {
        let scheme = DestTable::build(&graph, &weights, alg);
        run_scheme(&ctx, &scheme, "dest-table", TABLE_STRETCH, false, report);
    } else {
        report
            .skips
            .push(format!("{}/dest-table: not regular", id.name()));
    }

    // Generalized Cowen: Theorem 3 needs a delimited regular algebra.
    // Landmark sampling is re-seeded from the instance seed so replays
    // rebuild the identical scheme.
    if props.is_regular() && props.contains(Property::Delimited) {
        let mut rng = StdRng::seed_from_u64(inst.seed ^ 0x636f_7765_6e00);
        let scheme = CowenScheme::build(
            &graph,
            &weights,
            alg,
            LandmarkStrategy::TzRandom { attempts: 4 },
            &mut rng,
        );
        run_scheme(&ctx, &scheme, "cowen", COWEN_STRETCH, false, report);
    } else {
        report
            .skips
            .push(format!("{}/cowen: not delimited regular", id.name()));
    }

    // Source–destination pair tables (§3.1 fallback) and label swapping:
    // provisioned directly from the oracle, admissible for any algebra,
    // and expected to reproduce the provisioned paths *exactly*.
    let pair_tables = SrcDestTable::build(&graph, &alg.name(), |s| {
        graph
            .nodes()
            .map(|t| oracle[s].path_to(t).map(<[_]>::to_vec))
            .collect()
    });
    run_scheme(
        &ctx,
        &pair_tables,
        "src-dest-table",
        TABLE_STRETCH,
        true,
        report,
    );

    let label_swapping = LabelSwapping::provision(&graph, &alg.name(), |s, t| {
        oracle[s].path_to(t).map(<[_]>::to_vec)
    });
    run_scheme(
        &ctx,
        &label_swapping,
        "label-swapping",
        TABLE_STRETCH,
        true,
        report,
    );

    // The SW-specific bottleneck-class tables ride only the
    // shortest-widest arm (their carrier is the SW weight).
    if id == AlgebraId::ShortestWidest {
        let sw = policies::shortest_widest();
        let sw_weights = sw.weights_from_atoms(&graph, &inst.atoms);
        let scheme = SwClassTable::build(&graph, &sw_weights);
        run_scheme(
            &ctx,
            &scheme,
            "sw-class-table",
            TABLE_STRETCH,
            false,
            report,
        );
    }

    // Fault → repair drill over the destination tables.
    if props.is_regular() {
        if inst.heal_edge.is_some() {
            heal_drill(&ctx, prune, report);
        } else {
            report
                .skips
                .push(format!("{}/heal: no removable edge", id.name()));
        }
    }
}

/// Differentially checks one scheme: per-pair routability agreement and
/// stretch certification against the oracle, then hop-for-hop plane
/// conformance via compile + validate.
fn run_scheme<A, S>(
    ctx: &Ctx<'_, A>,
    scheme: &S,
    kind: &'static str,
    k: u32,
    exact: bool,
    report: &mut Report,
) where
    A: ConformAlgebra,
    A::W: Send + Sync + Clone + fmt::Debug + PartialEq,
    S: RoutingScheme + Sync,
    S::Header: Send,
{
    let name = scheme.name();
    let n = ctx.graph.node_count();
    for s in 0..n {
        for t in 0..n {
            if s == t {
                continue;
            }
            report.pairs_checked += 1;
            let preferred = ctx.oracle[s].weight(t);
            match route(scheme, ctx.graph, s, t) {
                Err(RouteError::Unroutable { .. }) if preferred.is_infinite() => {}
                Err(e) => report.violations.push(ctx.violation(
                    &name,
                    "route-error",
                    format!("{s}→{t}: {e} (oracle: {preferred:?})"),
                )),
                Ok(path) => {
                    if preferred.is_infinite() {
                        report.violations.push(ctx.violation(
                            &name,
                            "phantom-route",
                            format!("{s}→{t}: delivered {path:?} but no traversable path exists"),
                        ));
                        continue;
                    }
                    if path.first() != Some(&s) || path.last() != Some(&t) {
                        report.violations.push(ctx.violation(
                            &name,
                            "misdelivery",
                            format!("{s}→{t}: delivered along {path:?}"),
                        ));
                        continue;
                    }
                    let actual = ctx.weights.path_weight(ctx.alg, ctx.graph, &path);
                    if check_stretch(ctx.alg, &actual, preferred, k) == StretchVerdict::Exceeded {
                        report.violations.push(ctx.violation(
                            &name,
                            "stretch-exceeded",
                            format!(
                                "{s}→{t}: path {path:?} weighs {actual:?}, exceeding the \
                                 stretch-{k} bound over preferred {preferred:?}"
                            ),
                        ));
                    }
                    if exact && Some(path.as_slice()) != ctx.oracle[s].path_to(t) {
                        report.violations.push(ctx.violation(
                            &name,
                            "path-divergence",
                            format!(
                                "{s}→{t}: routed {path:?}, provisioned {:?}",
                                ctx.oracle[s].path_to(t)
                            ),
                        ));
                    }
                }
            }
        }
    }

    match cpr_plane::compile(scheme, ctx.graph) {
        Ok(plane) => {
            if let Err(d) = cpr_plane::validate(&plane, scheme, ctx.graph) {
                report
                    .violations
                    .push(ctx.violation(&name, "plane-divergence", format!("{d:?}")));
            }
        }
        Err(e) => report
            .violations
            .push(ctx.violation(&name, "plane-compile", e.to_string())),
    }
    report.coverage.insert(format!("{}:{kind}", ctx.id.name()));
    report.schemes_run += 1;
}

/// The fault → repair drill: compile a self-healing plane over the
/// intact topology, remove the instance's heal edge, repair against a
/// freshly built scheme on the degraded topology, then demand
/// hop-for-hop agreement with the live scheme and re-certify stretch
/// against the degraded oracle.
fn heal_drill<A>(ctx: &Ctx<'_, A>, prune: bool, report: &mut Report)
where
    A: ConformAlgebra,
    A::W: Send + Sync + Clone + fmt::Debug + PartialEq,
{
    let scheme = DestTable::build(ctx.graph, ctx.weights, ctx.alg);
    let name = format!("{}+heal", scheme.name());
    let mut plane = match SelfHealingPlane::new(&scheme, ctx.graph) {
        Ok(p) => p,
        Err(e) => {
            report
                .violations
                .push(ctx.violation(&name, "heal-compile", e.to_string()));
            return;
        }
    };

    let graph2 = ctx.inst.degraded_graph();
    let atoms2 = ctx.inst.atoms_without_heal_edge();
    let weights2 = ctx.alg.weights_from_atoms(&graph2, &atoms2);
    let scheme2 = DestTable::build(&graph2, &weights2, ctx.alg);
    // `repair` observes the degraded topology first; the threshold is
    // off so the one failed link exercises the patch path.
    let policy = RepairPolicy {
        max_dirty_fraction: 1.0,
        ..RepairPolicy::default()
    };
    if let Err(e) = plane.repair(
        &scheme2,
        &graph2,
        DirtySource::Walks,
        &policy,
        &cpr_obs::Obs::disabled(),
    ) {
        report
            .violations
            .push(ctx.violation(&name, "heal-repair", e.to_string()));
        return;
    }
    if !plane.is_fresh_for(&graph2) {
        report.violations.push(ctx.violation(
            &name,
            "heal-stale",
            format!("{} pairs still dirty after repair", plane.dirty_pairs()),
        ));
    }

    let oracle2 = exhaustive_preferred_all(&graph2, &weights2, ctx.alg, prune);
    let n = graph2.node_count();
    for s in 0..n {
        for t in 0..n {
            if s == t {
                continue;
            }
            report.pairs_checked += 1;
            let healed = plane.route(&scheme2, &graph2, s, t);
            let live = route(&scheme2, &graph2, s, t);
            let preferred = oracle2[s].weight(t);
            match (healed, live) {
                (Ok((hp, _served)), Ok(lp)) => {
                    if hp != lp {
                        report.violations.push(ctx.violation(
                            &name,
                            "heal-divergence",
                            format!("{s}→{t}: healed {hp:?} vs live {lp:?}"),
                        ));
                        continue;
                    }
                    let actual = weights2.path_weight(ctx.alg, &graph2, &hp);
                    if check_stretch(ctx.alg, &actual, preferred, TABLE_STRETCH)
                        == StretchVerdict::Exceeded
                    {
                        report.violations.push(ctx.violation(
                            &name,
                            "stretch-exceeded",
                            format!(
                                "{s}→{t}: post-repair path {hp:?} weighs {actual:?}, exceeding \
                                 the stretch-{TABLE_STRETCH} bound over preferred {preferred:?}"
                            ),
                        ));
                    }
                }
                (Err(_), Err(_)) => {
                    if !preferred.is_infinite() {
                        report.violations.push(ctx.violation(
                            &name,
                            "heal-unroutable",
                            format!(
                                "{s}→{t}: both planes refuse but the degraded oracle routes \
                                 at {preferred:?}"
                            ),
                        ));
                    }
                }
                (h, l) => report.violations.push(ctx.violation(
                    &name,
                    "heal-divergence",
                    format!("{s}→{t}: healed {h:?} vs live {l:?}"),
                )),
            }
        }
    }
    report.coverage.insert(format!("{}:heal", ctx.id.name()));
    report.schemes_run += 1;
}

/// Classifier conformance over the mutant catalogue: every mutant must
/// be *detected* (counterexamples for exactly its designed-broken
/// properties, intact ones surviving) and *rejected* by a gate its
/// well-behaved baseline algebra passes.
pub fn check_mutants() -> Vec<Violation> {
    let mutant_violation = |scheme: &str, kind: &str, detail: String| Violation {
        instance: "-".to_owned(),
        algebra: "mutants".to_owned(),
        scheme: scheme.to_owned(),
        kind: kind.to_owned(),
        detail,
    };
    let mut out = Vec::new();

    for id in ALL_MUTANTS {
        for error in classify_mutant(id) {
            out.push(mutant_violation(id.name(), "mutant-classifier", error));
        }
    }

    // Detour (¬M) and Penalty (¬I) lose regularity: the table/Cowen gate
    // their baseline (shortest path) passes must refuse them.
    assert!(
        check_all_properties(&policies::ShortestPath, &policies::ShortestPath.sample())
            .is_regular(),
        "baseline shortest path must pass the regularity gate"
    );
    for (label, regular) in [
        (
            "mutant-detour",
            check_all_properties(&Detour, &Detour.sample()).is_regular(),
        ),
        (
            "mutant-penalty",
            check_all_properties(&Penalty, &Penalty.sample()).is_regular(),
        ),
    ] {
        if regular {
            out.push(mutant_violation(
                label,
                "mutant-not-rejected",
                "passes the regularity gate its mutation should break".to_owned(),
            ));
        }
    }

    // Plateau (¬SM): Theorem 2's lower bound rides on the Lemma 2
    // embedding of (N, +, ≤), which strict monotonicity drives. The
    // baseline generator embeds; the idempotent mutant must not.
    if !embeds_shortest_path(&policies::ShortestPath, &3u64, 16) {
        out.push(mutant_violation(
            "mutant-plateau",
            "mutant-gate-baseline",
            "baseline shortest path no longer embeds (N, +, ≤)".to_owned(),
        ));
    }
    if embeds_shortest_path(&Plateau, &20u64, 16) {
        out.push(mutant_violation(
            "mutant-plateau",
            "mutant-not-rejected",
            "idempotent mutant still embeds (N, +, ≤), so the Theorem 2 gate accepts it".to_owned(),
        ));
    }

    // NarrowSelf (¬S): Theorem 1's Θ(log n) tree compression gates on
    // selective + monotone; the widest-path baseline qualifies.
    let thm1 = |props: cpr_algebra::PropertySet| {
        props.contains(Property::Selective) && props.contains(Property::Monotone)
    };
    if !thm1(check_all_properties(&policies::WidestPath, &policies::WidestPath.sample()).holding())
    {
        out.push(mutant_violation(
            "mutant-narrow-self",
            "mutant-gate-baseline",
            "baseline widest path no longer passes the Theorem 1 gate".to_owned(),
        ));
    }
    if thm1(check_all_properties(&NarrowSelf, &NarrowSelf.sample()).holding()) {
        out.push(mutant_violation(
            "mutant-narrow-self",
            "mutant-not-rejected",
            "selectivity-breaking mutant still passes the Theorem 1 gate".to_owned(),
        ));
    }

    out
}

/// Cap on recorded violations per scale-scheme sweep: at 10⁴ nodes a
/// systematic bug would otherwise push 10⁸ violation strings.
const SCALE_VIOLATION_CAP: usize = 100;

/// Conformance at Internet scale. The exhaustive simple-path oracle is
/// exponential in the instance size, so this arm replaces it with
/// parallel-BFS hop optima ([`cpr_paths::HopMatrix`]) — exact ground
/// truth for the shortest-path algebra under unit weights — and sweeps
/// one `n`-node scale-free instance:
///
/// * **Digest determinism** — the streaming shard compiler must produce
///   byte-identical planes at 1 and 2 workers, for both schemes.
/// * **Plane conformance** — [`cpr_plane::validate`] replays every pair
///   hop-for-hop against the live scheme.
/// * **Routability + stretch certification** — every ordered pair is
///   walked through the zero-alloc batched lookup core: exactly the
///   BFS-reachable pairs must deliver, destination tables must be
///   hop-optimal (stretch 1), and Cowen must stay within Theorem 3's
///   multiplicative-3 bound — per pair, not on average.
///
/// Violations are capped at [`SCALE_VIOLATION_CAP`] per scheme (with a
/// final summary entry carrying the overflow count); `pairs_checked`
/// always reflects the full sweep.
pub fn check_scale_instance(n: usize, seed: u64) -> Report {
    let mut rng = StdRng::seed_from_u64(seed);
    let graph = cpr_graph::generators::barabasi_albert(n, 2, &mut rng);
    let weights = EdgeWeights::uniform(&graph, 1u64);
    let optima = cpr_paths::HopMatrix::compute(&graph);
    let tag = format!("scale-free/{n}@{seed:#x}");

    let mut report = Report::default();
    let dest = DestTable::build(&graph, &weights, &policies::ShortestPath);
    check_scale_scheme(
        &mut report,
        &graph,
        &optima,
        &dest,
        "dest-table",
        TABLE_STRETCH,
        &tag,
    );
    let mut cowen_rng = StdRng::seed_from_u64(seed ^ 0x636f_7765_6e00);
    let cowen = CowenScheme::build(
        &graph,
        &weights,
        &policies::ShortestPath,
        LandmarkStrategy::TzRandom { attempts: 4 },
        &mut cowen_rng,
    );
    check_scale_scheme(
        &mut report,
        &graph,
        &optima,
        &cowen,
        "cowen",
        COWEN_STRETCH,
        &tag,
    );
    report
}

fn check_scale_scheme<S: RoutingScheme + Sync>(
    report: &mut Report,
    graph: &Graph,
    optima: &cpr_paths::HopMatrix,
    scheme: &S,
    kind: &'static str,
    k: u32,
    tag: &str,
) where
    S::Header: Send,
{
    let violation = |scheme_name: &str, vkind: &str, detail: String| Violation {
        instance: tag.to_owned(),
        algebra: "shortest-path".to_owned(),
        scheme: scheme_name.to_owned(),
        kind: vkind.to_owned(),
        detail,
    };
    let name = scheme.name();

    let plane = cpr_plane::compile_with_threads(scheme, graph, 1).expect("scheme compiles");
    let two = cpr_plane::compile_with_threads(scheme, graph, 2).expect("scheme compiles");
    if two.digest() != plane.digest() {
        report.violations.push(violation(
            &name,
            "digest-divergence",
            format!(
                "2-worker compile digest {:016x} != serial {:016x}",
                two.digest(),
                plane.digest()
            ),
        ));
    }
    if let Err(d) = cpr_plane::validate(&plane, scheme, graph) {
        report
            .violations
            .push(violation(&name, "plane-divergence", d.to_string()));
    }

    let n = graph.node_count();
    let core = plane.lookup_core();
    let mut scratch = cpr_plane::BatchScratch::new();
    let mut batch = Vec::with_capacity(n);
    let mut dropped = 0usize;
    for s in 0..n {
        batch.clear();
        batch.extend((0..n).filter(|&t| t != s).map(|t| (s, t)));
        core.lookup_batch(&batch, &mut scratch);
        let mut outcomes = scratch.results();
        for &(s, t) in &batch {
            let outcome = outcomes.next().expect("one outcome per query");
            report.pairs_checked += 1;
            let mut push = |vkind: &str, detail: String| {
                if report.violations.len() < SCALE_VIOLATION_CAP {
                    report.violations.push(violation(&name, vkind, detail));
                } else {
                    dropped += 1;
                }
            };
            match (outcome, optima.hops(s, t)) {
                (Some(hops), Some(opt)) => {
                    if hops > opt.saturating_mul(k) {
                        push(
                            "stretch-exceeded",
                            format!("{s} → {t}: {hops} hops, optimum {opt}, bound ×{k}"),
                        );
                    } else if hops < opt {
                        push(
                            "better-than-optimal",
                            format!("{s} → {t}: {hops} hops beats BFS optimum {opt}"),
                        );
                    }
                }
                (None, None) => {}
                (Some(hops), None) => push(
                    "routability",
                    format!("{s} → {t}: delivered in {hops} hops but BFS says unreachable"),
                ),
                (None, Some(opt)) => push(
                    "routability",
                    format!("{s} → {t}: failed but BFS reaches it in {opt} hops"),
                ),
            }
        }
    }
    if dropped > 0 {
        report.violations.push(violation(
            &name,
            "violations-capped",
            format!("{dropped} further violations suppressed"),
        ));
    }
    report.schemes_run += 1;
    report
        .coverage
        .insert(format!("shortest-path:{kind}@scale"));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::generate;

    #[test]
    fn mutant_conformance_is_clean() {
        let violations = check_mutants();
        assert!(
            violations.is_empty(),
            "{}",
            violations
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("\n")
        );
    }

    #[test]
    fn a_small_instance_sweep_is_clean() {
        for seed in 0..4 {
            let inst = generate(seed);
            let report = check_instance(&inst);
            assert!(report.is_clean(), "{}", report.render());
            assert!(report.schemes_run >= 3, "{}", report.render());
        }
    }

    #[test]
    fn a_planted_stretch_violation_is_caught() {
        // A scheme that routes 0→2 the long way round a triangle with a
        // heavy detour edge must trip the k = 1 certification.
        let inst = Instance {
            seed: 0,
            family: "manual".into(),
            n: 3,
            edges: vec![(0, 1), (1, 2), (0, 2)],
            atoms: vec![(99, 0), (99, 0), (0, 0)],
            heal_edge: None,
            note: String::new(),
        };
        let graph = inst.graph();
        let alg = policies::ShortestPath;
        let weights = alg.weights_from_atoms(&graph, &inst.atoms);
        let oracle = exhaustive_preferred_all(&graph, &weights, &alg, true);
        let ctx = Ctx {
            inst: &inst,
            id: AlgebraId::ShortestPath,
            alg: &alg,
            graph: &graph,
            weights: &weights,
            oracle: &oracle,
        };
        // Provision pair tables with deliberately bad paths: every pair
        // routes over the two heavy edges when a light direct edge exists.
        let bad = SrcDestTable::build(&graph, "planted", |s| {
            (0..3)
                .map(|t: usize| match (s, t) {
                    (s, t) if s == t => Some(vec![s]),
                    (0, 2) => Some(vec![0, 1, 2]),
                    (2, 0) => Some(vec![2, 1, 0]),
                    (a, b) => Some(vec![a, b]),
                })
                .collect()
        });
        let mut report = Report::default();
        run_scheme(
            &ctx,
            &bad,
            "src-dest-table",
            TABLE_STRETCH,
            false,
            &mut report,
        );
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.kind == "stretch-exceeded"),
            "planted stretch violation must be caught:\n{}",
            report.render()
        );
    }

    #[test]
    fn reports_render_deterministically() {
        let inst = generate(7);
        let a = check_instance(&inst).render();
        let b = check_instance(&inst).render();
        assert_eq!(a, b);
    }
}
