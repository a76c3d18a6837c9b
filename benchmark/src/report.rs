//! What a run reports: named metrics with units, the contract's result
//! line, and the detailed JSON report `compare` reads.

use cpr_obs::Json;

use crate::stats::WindowSummary;

/// One reported number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Final name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The value: for a timing metric, the quartile over windows on its
    /// better side (`WindowSummary::quiet`).
    pub value: f64,
    /// Median over windows, where the value is taken over windows.
    pub median: Option<f64>,
    /// Window quartiles, where the value is taken over windows.
    pub quartiles: Option<(f64, f64)>,
    /// Windows (or samples) the value was taken over.
    pub samples: u64,
}

impl Metric {
    /// A metric that is one exact number.
    pub fn exact(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name,
            unit,
            value,
            median: None,
            quartiles: None,
            samples: 1,
        }
    }

    /// The quiet quartile of `values` (one per window or sample), with
    /// their median and quartiles. NaN when `values` is empty, which
    /// fails the run.
    pub fn quiet_of(
        name: &'static str,
        unit: &'static str,
        lower_is_better: bool,
        values: &[f64],
    ) -> Metric {
        match WindowSummary::of(values) {
            Some(s) => Metric {
                name,
                unit,
                value: s.quiet(lower_is_better),
                median: Some(s.median),
                quartiles: Some((s.q1, s.q3)),
                samples: s.windows as u64,
            },
            None => Metric::exact(name, unit, f64::NAN),
        }
    }

    fn to_json(&self) -> Json {
        let (q1, q3) = self.quartiles.unzip();
        Json::obj([
            ("value", Json::float(self.value)),
            ("unit", Json::str(self.unit)),
            ("median", self.median.map_or(Json::Null, Json::float)),
            ("q1", q1.map_or(Json::Null, Json::float)),
            ("q3", q3.map_or(Json::Null, Json::float)),
            ("samples", Json::int(self.samples)),
        ])
    }
}

/// One run of one workload.
#[derive(Clone, Debug)]
pub struct Report {
    /// Workload name.
    pub workload: &'static str,
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`.
    pub seconds: u64,
    /// `--smoke`.
    pub smoke: bool,
    /// Whether this is the traced run (per-layer metrics).
    pub traced: bool,
    /// The metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Operations attempted: queries, pairs, events, replayed pairs.
    pub attempted: u64,
    /// Operations refused, failed, lost on the wire or failing
    /// verification.
    pub failed: u64,
    /// Input digests, load shape and per-leg detail.
    pub detail: Json,
}

impl Report {
    /// `failed / attempted`.
    pub fn fail_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// No operation failed and every metric is a number.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// Every metric by name, with value and unit, one per line.
    pub fn table(&self) -> String {
        let mut out = format!(
            "workload {} seed {} seconds {}{}{}\n",
            self.workload,
            self.seed,
            self.seconds,
            if self.smoke { " smoke" } else { "" },
            if self.traced { " traced" } else { "" },
        );
        for m in &self.metrics {
            out.push_str(&format!("  {:<44} {:>16.4} {}", m.name, m.value, m.unit));
            if let Some((q1, q3)) = m.quartiles {
                out.push_str(&format!("   [q1 {q1:.4}, q3 {q3:.4}, n {}]", m.samples));
            }
            out.push('\n');
        }
        out.push_str(&format!(
            "  {} failed of {} attempted: fail_share {:.6}\n",
            self.failed,
            self.attempted,
            self.fail_share()
        ));
        out
    }

    /// The contract's last line of standard output.
    pub fn result_line(&self) -> String {
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::int(self.attempted)),
            ("failed", Json::int(self.failed)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|m| {
                    (
                        m.name,
                        Json::obj([("value", Json::float(m.value)), ("unit", Json::str(m.unit))]),
                    )
                })),
            ),
        ])
        .to_compact()
    }

    /// The detailed report written under `benchmark/out/`.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("workload", Json::str(self.workload)),
            ("seed", Json::int(self.seed)),
            ("seconds", Json::int(self.seconds)),
            ("smoke", Json::Bool(self.smoke)),
            ("traced", Json::Bool(self.traced)),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::int(self.attempted)),
            ("failed", Json::int(self.failed)),
            ("fail_share", Json::float(self.fail_share())),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|m| (m.name, m.to_json()))),
            ),
            ("detail", self.detail.clone()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jsonparse::{get, number, parse, string};

    fn report(failed: u64) -> Report {
        Report {
            workload: "lookup-steady",
            seed: 1,
            seconds: 10,
            smoke: false,
            traced: false,
            metrics: vec![
                Metric::quiet_of("lookup_p50_us", "us", true, &[19.0, 21.0, 20.0, 20.5]),
                Metric::exact("bytes_per_node", "B", 17156.0),
            ],
            attempted: 1000,
            failed,
            detail: Json::Null,
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = report(0).result_line();
        let v = parse(&line).unwrap();
        let Json::Obj(fields) = &v else { panic!() };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(get(&v, "correct"), Some(&Json::Bool(true)));
        let m = get(get(&v, "metrics").unwrap(), "lookup_p50_us").unwrap();
        assert_eq!(number(get(m, "value").unwrap()), Some(19.0));
        assert_eq!(string(get(m, "unit").unwrap()), Some("us"));
        assert!(!line.contains('\n'));
    }

    #[test]
    fn a_failure_or_a_missing_number_makes_the_run_incorrect() {
        assert!(report(0).correct());
        assert!(!report(1).correct());
        assert_eq!(report(5).fail_share(), 0.005);
        let mut r = report(0);
        r.metrics.push(Metric::quiet_of("batch_p50_us", "us", true, &[]));
        assert!(!r.correct());
        let table = report(0).table();
        assert!(table.contains("lookup_p50_us") && table.contains("fail_share"));
        let detailed = parse(&report(0).to_json().to_pretty()).unwrap();
        let m = get(get(&detailed, "metrics").unwrap(), "lookup_p50_us").unwrap();
        assert_eq!(number(get(m, "median").unwrap()), Some(20.0));
        assert_eq!(number(get(m, "q1").unwrap()), Some(19.0));
        assert_eq!(number(get(m, "q3").unwrap()), Some(20.5));
    }
}
