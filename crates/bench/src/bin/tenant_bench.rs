//! **Dynamic tenancy** — algebra expressions registered at runtime
//! against a live twelve-class [`MultiRouteService`], through the same
//! gate-and-compile path the wire's `RegisterClass` opcode uses.
//!
//! The study measures four things:
//!
//! * **admission** — per-tenant register latency (`register_ms`), the
//!   selected scheme, the stamped epoch, and the substrate bits each
//!   tenant adds on top of the shared core (`marginal_bits`), versus
//!   what the same class would cost as an independent plane;
//! * **gatekeeping** — an inadmissible expression (`detour`) probed
//!   against the live registry: the gate that rejects it and proof the
//!   registry is untouched (`rejection`);
//! * **tenant serving** — a batched query sweep through every tenant
//!   class over the wire-protocol request shapes (`serving`);
//! * **slot churn** — a deregister → re-register cycle showing the
//!   tombstone discipline: the wire id is reused, never renumbered
//!   (`slot_cycle`).
//!
//! The run writes `BENCH_tenant.json` (override with `CPR_BENCH_OUT`).
//! All reported quantities are logical — bit counts, pair counts,
//! permille ratios — and wall-clock fields are nulled under
//! `CPR_BENCH_TIMING=0`, so the file is byte-identical across runs and
//! `CPR_THREADS` settings. Knobs: `CPR_BENCH_N` (nodes),
//! `CPR_BENCH_QUERIES` (queries per tenant class).
//!
//! ```text
//! cargo run --release -p cpr-bench --bin tenant_bench
//! CPR_BENCH_N=384 cargo run --release -p cpr-bench --bin tenant_bench
//! ```

use std::time::Instant;

use cpr_bench::{
    env_size, experiment_rng, experiment_seed, report_path, timing_field, write_report, Json,
    TextTable,
};
use cpr_conform::{dynamic_classes, standard_builder, standard_classes};
use cpr_graph::generators;
use cpr_plane::TenantError;
use cpr_serve::{MultiRouteService, Request, Response, RouteOutcome, ServeConfig};

const DEFAULT_N: usize = 160;
const DEFAULT_QUERIES: usize = 1_000;
const BATCH: usize = 64;

/// The deterministic per-class workload: `queries` pairs drawn by a
/// fixed stride so every tenant sees the same source/target mix.
fn workload(n: usize, class: usize, queries: usize) -> Vec<(u32, u32)> {
    let mut pairs = Vec::with_capacity(queries);
    let mut i = 0usize;
    while pairs.len() < queries {
        let s = (i.wrapping_mul(7).wrapping_add(class)) % n;
        let t = (i.wrapping_mul(11).wrapping_add(3)) % n;
        i += 1;
        if s != t {
            pairs.push((s as u32, t as u32));
        }
    }
    pairs
}

#[derive(Default)]
struct ClassTally {
    delivered: u64,
    unroutable: u64,
    hops: u64,
}

/// Sweeps one class through the service over batched wire requests,
/// all answered against one consistent epoch.
fn sweep_class(
    service: &MultiRouteService,
    n: usize,
    class: usize,
    queries: usize,
    expect_epoch: u64,
) -> ClassTally {
    let mut tally = ClassTally::default();
    for chunk in workload(n, class, queries).chunks(BATCH) {
        let reply = service.answer(&Request::Batch {
            pairs: chunk.to_vec(),
            class: u8::try_from(class).expect("registry fits a traffic-class byte"),
        });
        let Response::Batch { epoch, outcomes } = reply else {
            panic!("class {class}: batch answered with {reply:?}");
        };
        assert_eq!(epoch, expect_epoch, "class {class}: served off-epoch");
        for outcome in outcomes {
            match outcome {
                RouteOutcome::Path(path) => {
                    tally.delivered += 1;
                    tally.hops += path.len() as u64 - 1;
                }
                RouteOutcome::Unroutable => tally.unroutable += 1,
                RouteOutcome::Failed(e) => panic!("class {class}: plane failure: {e}"),
            }
        }
    }
    tally
}

/// Probes an inadmissible expression against the live registry and
/// reports the gate that stopped it. The registry must be untouched:
/// same epoch, same class count, nothing compiled.
fn rejection_section(service: &MultiRouteService, expect_epoch: u64) -> Json {
    let classes_before = service.class_names().len();
    let err = service
        .register_class("tenant-detour", "detour")
        .expect_err("detour breaks monotonicity and must never compile");
    let TenantError::Inadmissible(rejection) = &err else {
        panic!("detour must be inadmissible, got {err}");
    };
    assert_eq!(
        service.stats().epoch,
        expect_epoch,
        "rejection must not swap"
    );
    assert_eq!(
        service.class_names().len(),
        classes_before,
        "rejection must not grow the registry"
    );
    Json::obj([
        ("expr", Json::str("detour")),
        ("gate", Json::str(rejection.gate.name())),
        (
            "witnesses",
            Json::int(rejection.witness.as_ref().map_or(0, |w| w.witnesses.len())),
        ),
        ("registry_untouched", Json::Bool(true)),
    ])
}

fn main() {
    let n = env_size("CPR_BENCH_N", DEFAULT_N);
    let queries = env_size("CPR_BENCH_QUERIES", DEFAULT_QUERIES);
    let out_path = report_path("BENCH_tenant.json");

    let seed_count = standard_classes().len();
    let tenants = dynamic_classes();
    println!(
        "Dynamic tenancy: n={n} scale-free, {seed_count} seed classes, {} tenant \
         expressions registered live, {queries} queries per tenant\n",
        tenants.len()
    );

    let mut rng = experiment_rng("tenant", n);
    let graph = generators::barabasi_albert(n, 2, &mut rng);
    let service = MultiRouteService::new(
        &graph,
        standard_builder(),
        ServeConfig::default(),
        cpr_obs::Obs::from_env(),
    )
    .expect("multi compile");

    // Gatekeeping first: the probe must bounce off the epoch-0 registry.
    let rejection = rejection_section(&service, 0);

    // Admission: register every tenant expression, tracking the bits
    // each adds to the shared substrate versus independent deployment.
    let mut table = TextTable::new(vec![
        "tenant",
        "scheme",
        "epoch",
        "marginal KiB",
        "independent KiB",
    ]);
    let mut admissions = Vec::with_capacity(tenants.len());
    let mut before = service.memory();
    for (i, spec) in tenants.iter().enumerate() {
        let t0 = Instant::now();
        let (class, scheme, epoch) = service
            .register_class(spec.name, spec.expr)
            .expect("admissible tenant registers");
        let register_ms = t0.elapsed().as_secs_f64() * 1e3;
        assert_eq!(class as usize, seed_count + i, "slots append in order");
        assert_eq!(scheme, spec.scheme.name(), "gate must pick the spec scheme");
        assert_eq!(epoch, 1 + i as u64, "every registration swaps once");
        let after = service.memory();
        let marginal_bits = after.multi_total_bits - before.multi_total_bits;
        let independent_bits = after.independent_total_bits - before.independent_total_bits;
        assert!(
            marginal_bits < independent_bits,
            "{}: tenant must ride the shared substrate ({marginal_bits} vs \
             {independent_bits} bits)",
            spec.name
        );
        table.row(vec![
            spec.name.to_string(),
            scheme.clone(),
            epoch.to_string(),
            (marginal_bits / 8 / 1024).to_string(),
            (independent_bits / 8 / 1024).to_string(),
        ]);
        admissions.push(Json::obj([
            ("class", Json::int(class)),
            ("name", Json::str(spec.name)),
            ("expr", Json::str(spec.expr)),
            ("scheme", Json::str(scheme)),
            ("epoch", Json::int(epoch)),
            ("marginal_bits", Json::int(marginal_bits)),
            ("independent_bits", Json::int(independent_bits)),
            (
                "shared_savings_permille",
                Json::int(1000 - marginal_bits * 1000 / independent_bits),
            ),
            ("register_ms", timing_field(register_ms)),
        ]));
        before = after;
    }
    println!("{table}");

    // Tenant serving: every tenant swept over batched wire requests on
    // the post-admission epoch.
    let epoch = tenants.len() as u64;
    let mut serving = Vec::with_capacity(tenants.len());
    let mut sweep_table =
        TextTable::new(vec!["tenant", "queries", "delivered", "unroutable", "hops"]);
    for (i, spec) in tenants.iter().enumerate() {
        let class = seed_count + i;
        let tally = sweep_class(&service, n, class, queries, epoch);
        let total = tally.delivered + tally.unroutable;
        sweep_table.row(vec![
            spec.name.to_string(),
            total.to_string(),
            tally.delivered.to_string(),
            tally.unroutable.to_string(),
            format!("{:.2}", tally.hops as f64 / tally.delivered.max(1) as f64),
        ]);
        serving.push(Json::obj([
            ("class", Json::int(class)),
            ("name", Json::str(spec.name)),
            ("queries", Json::int(total)),
            ("delivered", Json::int(tally.delivered)),
            ("unroutable", Json::int(tally.unroutable)),
            (
                "delivered_permille",
                Json::int(tally.delivered * 1000 / total.max(1)),
            ),
            (
                "mean_hops_permille",
                Json::int(tally.hops * 1000 / tally.delivered.max(1)),
            ),
        ]));
    }
    println!("{sweep_table}");

    // Slot churn: tombstone the first tenant, then re-register a new
    // expression and prove the freed wire id is reused, not renumbered.
    let retired = tenants[0].name;
    let t0 = Instant::now();
    let (freed, dereg_epoch) = service
        .deregister_class(retired)
        .expect("dynamic tenant deregisters");
    let deregister_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert_eq!(freed as usize, seed_count, "first tenant slot retires");
    assert_eq!(dereg_epoch, epoch + 1);
    let t0 = Instant::now();
    let (reused, scheme, reuse_epoch) = service
        .register_class("tenant-hops", "hop-count")
        .expect("replacement tenant registers");
    let reuse_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert_eq!(reused, freed, "the tombstoned wire id must be reused");
    assert_eq!(reuse_epoch, epoch + 2);
    let reuse_tally = sweep_class(&service, n, reused as usize, queries, reuse_epoch);
    let slot_cycle = Json::obj([
        ("retired", Json::str(retired)),
        ("freed_class", Json::int(freed)),
        ("reused_by", Json::str("tenant-hops")),
        ("reused_scheme", Json::str(scheme)),
        ("final_epoch", Json::int(reuse_epoch)),
        ("reuse_delivered", Json::int(reuse_tally.delivered)),
        ("reuse_unroutable", Json::int(reuse_tally.unroutable)),
        ("deregister_ms", timing_field(deregister_ms)),
        ("reregister_ms", timing_field(reuse_ms)),
    ]);

    let stats = service.stats();
    assert_eq!(stats.failed, 0, "no tenant may fail a single query");
    assert_eq!(stats.epoch, epoch + 2);

    let report = Json::obj([
        ("bench", Json::str("tenant")),
        ("host", cpr_bench::host_metadata()),
        ("n", Json::int(n)),
        ("queries_per_tenant", Json::int(queries)),
        (
            "seed",
            Json::str(format!("{:#018x}", experiment_seed("tenant", n))),
        ),
        ("seed_classes", Json::int(seed_count)),
        ("rejection", rejection),
        ("admissions", Json::Arr(admissions)),
        ("serving", Json::Arr(serving)),
        ("slot_cycle", slot_cycle),
        ("metrics", service.obs().registry.render_json()),
    ]);
    write_report(&out_path, &report);
}
