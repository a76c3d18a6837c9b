//! `compare A.json B.json`: B (the change) against A (the parent),
//! metric by metric, with the bounds `BENCHMARK.json` fixes.

use cpr_obs::Json;

use crate::jsonparse::{get, items, number, string};

/// Verdict on one (workload, metric) row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// B is no worse than A by more than the bound.
    Ok,
    /// B is worse than A by more than the bound.
    Worse,
    /// The spread between window quartiles of either side is wider than
    /// the bound, so a difference within it cannot be told from noise.
    Unresolved,
    /// The metric is missing from one side.
    Missing,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
            Verdict::Missing => "missing",
        }
    }
}

/// One side's reading of a metric: value and, where it is a median
/// over windows, the window quartiles.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Reading {
    /// The reported value.
    pub value: f64,
    /// Window quartiles, when reported.
    pub quartiles: Option<(f64, f64)>,
}

impl Reading {
    fn spread(&self) -> f64 {
        match self.quartiles {
            Some((q1, q3)) if self.value != 0.0 => (q3 - q1) / self.value.abs(),
            _ => 0.0,
        }
    }
}

/// Judges B against A. `worse_by` is the share of A's value by which B
/// is worse (negative when better). A regression beyond the bound is
/// `Worse` unless the windows are noisier than the bound *and* the two
/// quartile ranges overlap; anything else with noisy windows is
/// `Unresolved` rather than `Ok`.
pub fn judge(a: Reading, b: Reading, lower_is_better: bool, bound: f64) -> (Verdict, f64) {
    let worse_by = match (a.value == 0.0, lower_is_better) {
        (true, _) => 0.0,
        (false, true) => (b.value - a.value) / a.value.abs(),
        (false, false) => (a.value - b.value) / a.value.abs(),
    };
    let noisy = a.spread() > bound || b.spread() > bound;
    let overlap = match (a.quartiles, b.quartiles) {
        (Some((a1, a3)), Some((b1, b3))) => a1 <= b3 && b1 <= a3,
        _ => false,
    };
    let verdict = match (worse_by > bound, noisy) {
        (true, true) if overlap => Verdict::Unresolved,
        (true, _) => Verdict::Worse,
        (false, true) => Verdict::Unresolved,
        (false, false) => Verdict::Ok,
    };
    (verdict, worse_by)
}

/// The runs of a report file: the file itself when it is one run, its
/// `runs` and `traces` when it is a merged report.
fn runs(report: &Json) -> Vec<&Json> {
    if get(report, "workload").is_some() {
        return vec![report];
    }
    ["runs", "traces"]
        .iter()
        .filter_map(|k| get(report, k))
        .flat_map(items)
        .collect()
}

fn find_run<'a>(report: &'a Json, workload: &str, traced: bool) -> Option<&'a Json> {
    runs(report).into_iter().find(|r| {
        get(r, "workload").and_then(string) == Some(workload)
            && get(r, "traced") == Some(&Json::Bool(traced))
    })
}

fn reading(run: &Json, metric: &str) -> Option<Reading> {
    let m = get(get(run, "metrics")?, metric)?;
    Some(Reading {
        value: number(get(m, "value")?)?,
        quartiles: get(m, "q1")
            .and_then(number)
            .zip(get(m, "q3").and_then(number)),
    })
}

/// Compares two report files under `benchmark`'s bounds. Returns the
/// printed table and whether any row is `worse` or `missing`.
pub fn compare(benchmark: &Json, a: &Json, b: &Json) -> (String, bool) {
    let mut out = format!(
        "{:<14} {:<26} {:>14} {:>14} {:>9} {:>7}  verdict\n",
        "workload", "metric", "A", "B", "worse by", "bound"
    );
    let mut bad = false;
    let mut row = |w: &str, m: &str, a: f64, b: f64, worse_by: f64, bound: f64, v: Verdict| {
        bad |= matches!(v, Verdict::Worse | Verdict::Missing);
        out.push_str(&format!(
            "{w:<14} {m:<26} {a:>14.4} {b:>14.4} {:>8.2}% {:>6.1}%  {}\n",
            worse_by * 100.0,
            bound * 100.0,
            v.label()
        ));
    };
    for workload in items(get(benchmark, "workloads").unwrap_or(&Json::Null)) {
        let Some(workload) = get(workload, "name").and_then(string) else {
            continue;
        };
        // Untraced runs: every end-to-end metric under its bound, and
        // the failure share, which may not rise at all.
        if let (Some(ra), Some(rb)) = (find_run(a, workload, false), find_run(b, workload, false)) {
            for metric in items(get(benchmark, "end_to_end").unwrap_or(&Json::Null)) {
                let name = get(metric, "name").and_then(string).unwrap_or("?");
                let lower = get(metric, "better").and_then(string) != Some("higher");
                let bound = get(metric, "bound").and_then(number).unwrap_or(0.0);
                match (reading(ra, name), reading(rb, name)) {
                    (Some(x), Some(y)) => {
                        let (v, worse_by) = judge(x, y, lower, bound);
                        row(workload, name, x.value, y.value, worse_by, bound, v);
                    }
                    _ => row(
                        workload,
                        name,
                        f64::NAN,
                        f64::NAN,
                        0.0,
                        bound,
                        Verdict::Missing,
                    ),
                }
            }
            let share = |r| get(r, "fail_share").and_then(number).unwrap_or(f64::NAN);
            let (x, y) = (share(ra), share(rb));
            let v = if y <= x { Verdict::Ok } else { Verdict::Worse };
            row(workload, "fail_share", x, y, y - x, 0.0, v);
        } else if find_run(a, workload, false).is_some() != find_run(b, workload, false).is_some() {
            row(
                workload,
                "(untraced run)",
                f64::NAN,
                f64::NAN,
                0.0,
                0.0,
                Verdict::Missing,
            );
        }
        // Traced runs: the counts that repeat exactly must be equal.
        if let (Some(ra), Some(rb)) = (find_run(a, workload, true), find_run(b, workload, true)) {
            for name in crate::traced::EXACT_COUNTS {
                match (reading(ra, name), reading(rb, name)) {
                    (Some(x), Some(y)) => {
                        let v = if x.value == y.value {
                            Verdict::Ok
                        } else {
                            Verdict::Worse
                        };
                        row(workload, name, x.value, y.value, 0.0, 0.0, v);
                    }
                    _ => row(
                        workload,
                        name,
                        f64::NAN,
                        f64::NAN,
                        0.0,
                        0.0,
                        Verdict::Missing,
                    ),
                }
            }
        }
    }
    (out, bad)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jsonparse::parse;

    fn r(value: f64, q: Option<(f64, f64)>) -> Reading {
        Reading {
            value,
            quartiles: q,
        }
    }

    #[test]
    fn bounds_apply_in_the_metric_s_direction() {
        // Lower is better, bound 10 %.
        assert_eq!(
            judge(r(100.0, None), r(109.0, None), true, 0.1).0,
            Verdict::Ok
        );
        assert_eq!(
            judge(r(100.0, None), r(111.0, None), true, 0.1).0,
            Verdict::Worse
        );
        assert_eq!(
            judge(r(100.0, None), r(50.0, None), true, 0.1).0,
            Verdict::Ok
        );
        // Higher is better.
        assert_eq!(
            judge(r(100.0, None), r(91.0, None), false, 0.1).0,
            Verdict::Ok
        );
        assert_eq!(
            judge(r(100.0, None), r(89.0, None), false, 0.1).0,
            Verdict::Worse
        );
        assert_eq!(
            judge(r(100.0, None), r(150.0, None), false, 0.1).0,
            Verdict::Ok
        );
        // Exact metrics: bound 0.
        assert_eq!(
            judge(r(17156.0, None), r(17156.0, None), true, 0.0).0,
            Verdict::Ok
        );
        assert_eq!(
            judge(r(17156.0, None), r(17157.0, None), true, 0.0).0,
            Verdict::Worse
        );
        let (_, worse_by) = judge(r(200.0, None), r(210.0, None), true, 0.1);
        assert!((worse_by - 0.05).abs() < 1e-12);
    }

    #[test]
    fn noisy_windows_are_unresolved_unless_the_ranges_are_disjoint() {
        let noisy_a = r(100.0, Some((90.0, 110.0)));
        // Within the bound but the windows spread 20 %: cannot call it.
        assert_eq!(
            judge(noisy_a, r(104.0, Some((95.0, 112.0))), true, 0.1).0,
            Verdict::Unresolved
        );
        // Beyond the bound, quartile ranges overlap: still unresolved.
        assert_eq!(
            judge(noisy_a, r(112.0, Some((100.0, 125.0))), true, 0.1).0,
            Verdict::Unresolved
        );
        // Beyond the bound and every quartile of B above A's: worse.
        assert_eq!(
            judge(noisy_a, r(150.0, Some((140.0, 160.0))), true, 0.1).0,
            Verdict::Worse
        );
        // Quiet windows on both sides: plain bound.
        let quiet = r(100.0, Some((99.0, 101.0)));
        assert_eq!(
            judge(quiet, r(105.0, Some((104.0, 106.0))), true, 0.1).0,
            Verdict::Ok
        );
    }

    #[test]
    fn compares_report_files_and_flags_regressions() {
        let benchmark = parse(
            r#"{"workloads":[{"name":"w","why":"x"}],
                "end_to_end":[{"name":"lat","unit":"us","better":"lower","bound":0.1},
                              {"name":"qps","unit":"1/s","better":"higher","bound":0.1}]}"#,
        )
        .unwrap();
        let run = |lat: f64, qps: f64, fail: f64| {
            parse(&format!(
                r#"{{"workload":"w","traced":false,"fail_share":{fail},
                    "metrics":{{"lat":{{"value":{lat},"q1":null,"q3":null}},
                               "qps":{{"value":{qps},"q1":null,"q3":null}}}}}}"#
            ))
            .unwrap()
        };
        let (table, bad) = compare(&benchmark, &run(10.0, 1000.0, 0.0), &run(10.5, 990.0, 0.0));
        assert!(!bad, "{table}");
        assert_eq!(table.matches(" ok\n").count(), 3);
        let (table, bad) = compare(&benchmark, &run(10.0, 1000.0, 0.0), &run(12.0, 1000.0, 0.0));
        assert!(bad && table.contains("worse\n"), "{table}");
        let (_, bad) = compare(
            &benchmark,
            &run(10.0, 1000.0, 0.0),
            &run(10.0, 1000.0, 0.001),
        );
        assert!(bad, "a rise in fail_share is a regression");
        // A merged report is searched by workload.
        let merged = Json::obj([("runs", Json::arr([run(10.0, 1000.0, 0.0)]))]);
        let (_, bad) = compare(&benchmark, &merged, &run(10.0, 1000.0, 0.0));
        assert!(!bad);
        // A metric missing from one side is not silently passed.
        let partial =
            parse(r#"{"workload":"w","traced":false,"fail_share":0,"metrics":{}}"#).unwrap();
        let (table, bad) = compare(&benchmark, &run(10.0, 1000.0, 0.0), &partial);
        assert!(bad && table.contains("missing"), "{table}");
    }
}
