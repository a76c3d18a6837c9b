//! # cpr-bench — the experiment harness
//!
//! Shared plumbing for the binaries that regenerate every table and figure
//! of *Compact Policy Routing*: aligned text tables, asymptotic growth
//! classification of measured memory curves, and the standard topology
//! suite the experiments sweep over.
//!
//! | Binary | Reproduces |
//! |---|---|
//! | `table1` | Table 1 (local memory requirements of six policies) |
//! | `classify` | Table 1's property columns + Lemma 2 embeddings, incl. `B1`–`B4` |
//! | `fig1` | Fig. 1 (a–c): non-selective policies don't map to trees |
//! | `fig2` | Fig. 2 / Theorem 4: the lower-bound family and stretch escapes |
//! | `stretch3` | Theorem 3: Cowen scheme memory/stretch sweep |
//! | `bgp_tables` | Tables 2–3: the `B1`/`B2` composition tables, operationally |
//! | `bgp_bounds` | Theorems 5 & 8: BGP incompressibility constructions |
//! | `bgp_compact` | Theorems 6 & 7: compact schemes vs the Θ(n) baseline |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use cpr_graph::{generators, Graph};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The workspace JSON emitter now lives in `cpr-obs` (one emitter for
/// BENCH reports and trace lines alike); re-exported here so existing
/// `cpr_bench::Json` callers keep compiling.
pub use cpr_obs::Json;

/// The size knob `key` of a bench binary (an instance size, a query or
/// event count): its value when set, else `default`.
///
/// # Panics
///
/// Panics when `key` is set to anything but an integer ≥ 2.
pub fn env_size(key: &str, default: usize) -> usize {
    match std::env::var(key) {
        Ok(v) => v
            .parse::<usize>()
            .ok()
            .filter(|&v| v >= 2)
            .unwrap_or_else(|| panic!("{key} must be an integer ≥ 2, got {v:?}")),
        Err(_) => default,
    }
}

/// Where a bench binary writes its JSON report: `CPR_BENCH_OUT` when
/// set, else `default`.
pub fn report_path(default: &str) -> String {
    std::env::var("CPR_BENCH_OUT").unwrap_or_else(|_| default.to_string())
}

/// Writes `report` pretty-printed to `path` and says so on stdout.
///
/// # Panics
///
/// Panics when the file cannot be written.
pub fn write_report(path: &str, report: &Json) {
    std::fs::write(path, report.to_pretty()).expect("write bench report");
    println!("\nwrote {path}");
}

/// `false` when `CPR_BENCH_TIMING=0`: bench binaries then skip repeated
/// timing trials and render every wall-clock field as `null`, making
/// whole `BENCH_*.json` files byte-deterministic (the mode the
/// determinism tests pin). Defaults to `true`.
pub fn timing_enabled() -> bool {
    std::env::var("CPR_BENCH_TIMING").map_or(true, |v| v != "0")
}

/// `ms` as a JSON float, or `null` when timing is disabled — wall-clock
/// fields must never reach a pinned report.
pub fn timing_field(ms: f64) -> Json {
    if timing_enabled() {
        Json::float(ms)
    } else {
        Json::Null
    }
}

/// Host metadata for BENCH reports: the machine's hardware parallelism
/// and the effective worker-thread count (which honors `CPR_THREADS`).
/// Both are host-dependent, so under `CPR_BENCH_TIMING=0` every field
/// renders as `null` — pinned reports must stay byte-identical across
/// machines and thread counts.
pub fn host_metadata() -> Json {
    let field = |v: Json| if timing_enabled() { v } else { Json::Null };
    Json::obj([
        (
            "hardware_threads",
            field(Json::int(
                std::thread::available_parallelism().map_or(1, usize::from),
            )),
        ),
        (
            "cpr_threads",
            field(Json::int(cpr_core::par::thread_count())),
        ),
    ])
}

/// `true` when a parallel speedup measured at `threads` workers means
/// something on this host: the machine must actually have that many
/// hardware threads. On an oversubscribed host the workers time-slice
/// one core and the ratio measures scheduler noise, not scaling.
pub fn speedup_reliable(threads: usize) -> bool {
    std::thread::available_parallelism().map_or(1, usize::from) >= threads
}

/// A `*_speedup` report field: the measured ratio when the host
/// genuinely ran `threads` workers in parallel (and timing is enabled),
/// `null` otherwise. Pair with [`speedup_unreliable_field`] so readers
/// can tell "not measured" from "measured but meaningless".
pub fn speedup_field(ratio: f64, threads: usize) -> Json {
    if timing_enabled() && speedup_reliable(threads) {
        Json::float(ratio)
    } else {
        Json::Null
    }
}

/// The `speedup_unreliable` flag accompanying a sweep row: `true` when
/// the host has fewer hardware threads than the row's worker count (its
/// `*_speedup` fields are then `null`), `false` when the ratio is
/// trustworthy. Host-dependent, so it renders as `null` under
/// `CPR_BENCH_TIMING=0` like every other host-dependent field.
pub fn speedup_unreliable_field(threads: usize) -> Json {
    if timing_enabled() {
        Json::Bool(!speedup_reliable(threads))
    } else {
        Json::Null
    }
}

/// A plain-text table printer with right-aligned columns.
///
/// # Examples
///
/// ```
/// use cpr_bench::TextTable;
///
/// let mut t = TextTable::new(vec!["n", "bits"]);
/// t.row(vec!["64".into(), "1290".into()]);
/// let s = t.to_string();
/// assert!(s.contains("bits"));
/// ```
#[derive(Clone, Debug)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new(header: Vec<&str>) -> Self {
        TextTable {
            header: header.into_iter().map(str::to_owned).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the header.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells);
    }
}

impl std::fmt::Display for TextTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let cols = self.header.len();
        let mut width = vec![0usize; cols];
        for (i, h) in self.header.iter().enumerate() {
            width[i] = h.chars().count();
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                width[i] = width[i].max(c.chars().count());
            }
        }
        let print_row = |f: &mut std::fmt::Formatter<'_>, cells: &[String]| {
            for (i, c) in cells.iter().enumerate() {
                if i > 0 {
                    write!(f, "  ")?;
                }
                // Left-align the first column, right-align the rest.
                let pad = width[i].saturating_sub(c.chars().count());
                if i == 0 {
                    write!(f, "{c}{}", " ".repeat(pad))?;
                } else {
                    write!(f, "{}{c}", " ".repeat(pad))?;
                }
            }
            writeln!(f)
        };
        print_row(f, &self.header)?;
        writeln!(
            f,
            "{}",
            "-".repeat(width.iter().sum::<usize>() + 2 * (cols - 1))
        )?;
        for row in &self.rows {
            print_row(f, row)?;
        }
        Ok(())
    }
}

/// How a measured curve scales with `n`, classified by least-squares fit
/// quality against candidate shapes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Growth {
    /// Best fit `a·log n + b`.
    Logarithmic,
    /// Best fit `a·√n·log n + b` (the Cowen/TZ regime).
    SqrtLog,
    /// Best fit `a·n + b`.
    Linear,
    /// Best fit `a·n² + b`.
    Quadratic,
}

impl std::fmt::Display for Growth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Growth::Logarithmic => "Θ(log n)",
            Growth::SqrtLog => "Õ(√n)",
            Growth::Linear => "Θ(n)",
            Growth::Quadratic => "Θ(n²)",
        })
    }
}

/// Classifies a `(n, measurement)` series by which transform of `n`
/// explains it best (highest R² of a linear least-squares fit through the
/// transformed predictor).
///
/// # Panics
///
/// Panics with fewer than 3 points.
pub fn classify_growth(series: &[(usize, f64)]) -> Growth {
    assert!(series.len() >= 3, "need at least 3 points to classify");
    type Shape = fn(f64) -> f64;
    let shapes: [(Growth, Shape); 4] = [
        (Growth::Logarithmic, |n| n.ln()),
        (Growth::SqrtLog, |n| n.sqrt() * n.ln()),
        (Growth::Linear, |n| n),
        (Growth::Quadratic, |n| n * n),
    ];
    let mut best = (Growth::Linear, f64::NEG_INFINITY);
    for (g, f) in shapes {
        let xs: Vec<f64> = series.iter().map(|&(n, _)| f(n as f64)).collect();
        let ys: Vec<f64> = series.iter().map(|&(_, y)| y).collect();
        let r2 = r_squared(&xs, &ys);
        if r2 > best.1 {
            best = (g, r2);
        }
    }
    best.0
}

/// R² of the best linear fit `y = a·x + b`.
fn r_squared(xs: &[f64], ys: &[f64]) -> f64 {
    let n = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let sxy: f64 = xs.iter().zip(ys).map(|(x, y)| (x - mx) * (y - my)).sum();
    let sxx: f64 = xs.iter().map(|x| (x - mx) * (x - mx)).sum();
    let syy: f64 = ys.iter().map(|y| (y - my) * (y - my)).sum();
    if sxx == 0.0 || syy == 0.0 {
        return 0.0;
    }
    (sxy * sxy) / (sxx * syy)
}

/// The standard experiment topologies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Topology {
    /// Connected Erdős–Rényi with `p ≈ 2.5 ln n / n`.
    Gnp,
    /// Barabási–Albert preferential attachment with `m = 2`.
    ScaleFree,
    /// Two-dimensional grid (≈ √n × √n).
    Grid,
    /// Waxman geometric random graph (router-level locality bias).
    Waxman,
}

impl Topology {
    /// All standard topologies.
    pub const ALL: [Topology; 4] = [
        Topology::Gnp,
        Topology::ScaleFree,
        Topology::Grid,
        Topology::Waxman,
    ];

    /// Short label for tables.
    pub fn label(&self) -> &'static str {
        match self {
            Topology::Gnp => "gnp",
            Topology::ScaleFree => "scale-free",
            Topology::Grid => "grid",
            Topology::Waxman => "waxman",
        }
    }

    /// Builds an instance with roughly `n` nodes.
    pub fn build(&self, n: usize, rng: &mut StdRng) -> Graph {
        match self {
            Topology::Gnp => {
                let p = (2.5 * (n as f64).ln() / n as f64).min(0.5);
                generators::gnp_connected(n, p, rng)
            }
            Topology::ScaleFree => generators::barabasi_albert(n, 2, rng),
            Topology::Grid => {
                let side = (n as f64).sqrt().round() as usize;
                generators::grid(side.max(2), side.max(2))
            }
            Topology::Waxman => generators::waxman_connected(n, 0.9, 0.1, rng),
        }
    }
}

/// The deterministic seed behind [`experiment_rng`], exposed so bench
/// reports can record exactly which stream produced their numbers.
pub fn experiment_seed(tag: &str, n: usize) -> u64 {
    let mut seed = 0xC0FFEE_u64;
    for b in tag.bytes() {
        seed = seed.wrapping_mul(31).wrapping_add(b as u64);
    }
    seed ^ (n as u64).wrapping_mul(0x9E3779B97F4A7C15)
}

/// The workspace-wide deterministic RNG for experiment `tag` at size `n`.
pub fn experiment_rng(tag: &str, n: usize) -> StdRng {
    StdRng::seed_from_u64(experiment_seed(tag, n))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_layout() {
        let mut t = TextTable::new(vec!["name", "x"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["bb".into(), "22".into()]);
        let s = t.to_string();
        assert!(s.lines().count() >= 4);
        assert!(s.contains("name"));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn table_arity_checked() {
        let mut t = TextTable::new(vec!["a", "b"]);
        t.row(vec!["x".into()]);
    }

    #[test]
    fn growth_classification_recovers_shapes() {
        let ns = [32usize, 64, 128, 256, 512, 1024];
        let log_series: Vec<(usize, f64)> = ns
            .iter()
            .map(|&n| (n, 3.0 * (n as f64).ln() + 5.0))
            .collect();
        assert_eq!(classify_growth(&log_series), Growth::Logarithmic);
        let lin_series: Vec<(usize, f64)> =
            ns.iter().map(|&n| (n, 7.0 * n as f64 + 100.0)).collect();
        assert_eq!(classify_growth(&lin_series), Growth::Linear);
        let sqrt_series: Vec<(usize, f64)> = ns
            .iter()
            .map(|&n| (n, 2.0 * (n as f64).sqrt() * (n as f64).ln()))
            .collect();
        assert_eq!(classify_growth(&sqrt_series), Growth::SqrtLog);
        let quad_series: Vec<(usize, f64)> =
            ns.iter().map(|&n| (n, 0.5 * (n * n) as f64)).collect();
        assert_eq!(classify_growth(&quad_series), Growth::Quadratic);
    }

    #[test]
    fn topologies_build() {
        for topo in Topology::ALL {
            let mut rng = experiment_rng("test", 64);
            let g = topo.build(64, &mut rng);
            assert!(g.node_count() >= 60);
            assert!(cpr_graph::traversal::is_connected(&g), "{topo:?}");
        }
    }

    #[test]
    fn experiment_rng_is_deterministic() {
        use rand::RngCore;
        let a = experiment_rng("x", 10).next_u64();
        let b = experiment_rng("x", 10).next_u64();
        let c = experiment_rng("y", 10).next_u64();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
