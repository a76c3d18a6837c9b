//! `--smoke` runs of both binaries, checked against `BENCHMARK.json`:
//! the report parses, every metric the contract names is there with its
//! unit, nothing failed, and the traced ladder's spans link up.

use std::path::{Path, PathBuf};
use std::process::Command;

use cpr_benchmark::inputs::specs;
use cpr_benchmark::jsonparse::{get, items, number, parse, string};
use cpr_benchmark::run::END_TO_END;
use cpr_obs::Json;

const UNTRACED: &str = env!("CARGO_BIN_EXE_cpr-benchmark");
const TRACED: &str = env!("CARGO_BIN_EXE_cpr-benchmark-traced");

fn contract() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    parse(&std::fs::read_to_string(path).expect("BENCHMARK.json is at the repository root"))
        .expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric the contract lists under `section`.
fn contract_metrics(section: &str) -> Vec<(String, String)> {
    items(get(&contract(), section).expect("section present"))
        .iter()
        .map(|m| {
            let field = |k| {
                string(get(m, k).expect("key present"))
                    .expect("a string")
                    .to_owned()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn out_dir(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(tag);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs one smoke run; returns the parsed result line.
fn smoke(binary: &str, workload: &str, trace: &str, out: &Path) -> Json {
    let output = Command::new(binary)
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--trace",
            trace,
            "--smoke",
            "--out",
        ])
        .arg(out)
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8(output.stdout).expect("stdout is UTF-8");
    assert!(
        output.status.success(),
        "{workload} --trace {trace} exited {:?}\n{stdout}\n{}",
        output.status.code(),
        String::from_utf8_lossy(&output.stderr)
    );
    parse(stdout.lines().last().expect("a result line")).expect("the result line is JSON")
}

/// Asserts the result line carries exactly `expected` metrics, each a
/// finite number with the contract's unit, and that nothing failed.
fn assert_result(result: &Json, expected: &[(String, String)], what: &str) {
    assert_eq!(get(result, "correct"), Some(&Json::Bool(true)), "{what}");
    assert_eq!(
        get(result, "failed").and_then(number),
        Some(0.0),
        "{what}: fail_share must be 0"
    );
    assert!(get(result, "attempted").and_then(number).unwrap() >= 1.0);
    let Some(Json::Obj(metrics)) = get(result, "metrics") else {
        panic!("{what}: no metrics object");
    };
    let reported: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let wanted: Vec<&str> = expected.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(reported, wanted, "{what}: metric names");
    for ((name, unit), (_, m)) in expected.iter().zip(metrics) {
        assert_eq!(
            get(m, "unit").and_then(string),
            Some(unit.as_str()),
            "{what}: unit of {name}"
        );
        let value = get(m, "value").and_then(number);
        assert!(
            value.is_some_and(f64::is_finite),
            "{what}: {name} = {value:?}"
        );
    }
}

#[test]
fn the_contract_names_what_the_code_measures() {
    let contract = contract();
    let workloads: Vec<(String, String)> = items(get(&contract, "workloads").unwrap())
        .iter()
        .map(|w| {
            let field = |k| string(get(w, k).unwrap()).unwrap().to_owned();
            (field("name"), field("why"))
        })
        .collect();
    let in_code: Vec<(String, String)> = specs()
        .iter()
        .map(|s| (s.name.to_owned(), s.why.to_owned()))
        .collect();
    assert_eq!(workloads, in_code);
    assert!(in_code
        .iter()
        .all(|(_, why)| why.len() <= 200 && !why.contains('\n')));

    let end_to_end: Vec<(String, String, String)> = items(get(&contract, "end_to_end").unwrap())
        .iter()
        .map(|m| {
            let field = |k| string(get(m, k).unwrap()).unwrap().to_owned();
            let bound = number(get(m, "bound").unwrap()).unwrap();
            assert!((0.0..=0.25).contains(&bound), "bound of {}", field("name"));
            (field("name"), field("unit"), field("better"))
        })
        .collect();
    let in_code: Vec<(String, String, String)> = END_TO_END
        .iter()
        .map(|&(n, u, b)| (n.to_owned(), u.to_owned(), b.to_owned()))
        .collect();
    assert_eq!(end_to_end, in_code);
    assert!(contract_metrics("per_layer").len() <= 128);
}

#[test]
fn untraced_smoke_reports_every_end_to_end_metric() {
    let expected = contract_metrics("end_to_end");
    let out = out_dir("untraced");
    for spec in specs() {
        let result = smoke(UNTRACED, spec.name, "0", &out);
        assert_result(&result, &expected, spec.name);
        let report = std::fs::read_to_string(out.join(format!("run-{}.json", spec.name))).unwrap();
        let report = parse(&report).expect("the report file parses");
        assert_eq!(get(&report, "fail_share").and_then(number), Some(0.0));
        let inputs = get(get(&report, "detail").unwrap(), "inputs").unwrap();
        for digest in ["graph_digest", "request_fnv", "event_fnv"] {
            assert_eq!(
                string(get(inputs, digest).unwrap()).unwrap().len(),
                16,
                "{digest}"
            );
        }
        // The same seed again measures the same load: equal digests and
        // the exact metric equal.
        if spec.name == "churn-mixed" {
            let again = out_dir("untraced-again");
            smoke(UNTRACED, spec.name, "0", &again);
            let again = std::fs::read_to_string(again.join("run-churn-mixed.json")).unwrap();
            let again = parse(&again).unwrap();
            assert_eq!(get(get(&again, "detail").unwrap(), "inputs"), Some(inputs));
            let bytes = |r| number(get(get(get(r, "metrics")?, "bytes_per_node")?, "value")?);
            assert!(bytes(&again).is_some() && bytes(&again) == bytes(&report));
        }
    }
}

#[test]
fn traced_smoke_reports_every_layer_and_a_linked_ladder() {
    let expected = contract_metrics("per_layer");
    let out = out_dir("traced");
    for spec in specs() {
        // `failed == 0` here means every depth of the ladder gave the
        // socket's answer, the replica agreed hop-for-hop after the same
        // events, and every event published its epoch.
        let result = smoke(TRACED, spec.name, "1", &out);
        assert_result(&result, &expected, spec.name);

        let spans =
            std::fs::read_to_string(out.join(format!("trace-{}.jsonl", spec.name))).unwrap();
        let spans: Vec<Json> = spans
            .lines()
            .map(|l| parse(l).expect("a span is JSON"))
            .collect();
        assert!(spans.len() > 50, "{}: {} spans", spec.name, spans.len());
        for (i, span) in spans.iter().enumerate() {
            assert_eq!(get(span, "id").and_then(number), Some(i as f64));
            assert!(number(get(span, "end_ns").unwrap()) >= number(get(span, "start_ns").unwrap()));
            // A parent is an earlier span of the same chunk.
            if let Some(parent) = get(span, "parent").and_then(number) {
                assert!((parent as usize) < i);
                assert_eq!(get(&spans[parent as usize], "chunk"), get(span, "chunk"));
            }
        }
        let named = |name: &str| {
            spans
                .iter()
                .any(|s| get(s, "name").and_then(string) == Some(name))
        };
        assert!(named("serve.client.call[lookup]") && named("plane.engine.walk[batch]"));

        // Self times along each ladder add up to the round trip.
        let report =
            parse(&std::fs::read_to_string(out.join(format!("trace-{}.json", spec.name))).unwrap())
                .unwrap();
        for ladder in ["lookup_ladder", "batch_ladder"] {
            let ladder = get(get(&report, "detail").unwrap(), ladder).unwrap();
            let ratio = number(get(ladder, "self_sum_over_round_trip").unwrap()).unwrap();
            assert!(
                (ratio - 1.0).abs() < 0.1,
                "{}: ladder sums to {ratio}",
                spec.name
            );
        }
    }
}

#[test]
fn each_binary_refuses_the_other_s_mode_without_a_result() {
    for (binary, trace) in [(UNTRACED, "1"), (TRACED, "0")] {
        let output = Command::new(binary)
            .args(["--workload", "lookup-steady", "--smoke", "--trace", trace])
            .output()
            .unwrap();
        assert_eq!(output.status.code(), Some(2));
        assert!(output.stdout.is_empty());
    }
    let output = Command::new(UNTRACED)
        .args(["--workload", "nope"])
        .output()
        .unwrap();
    assert_eq!(output.status.code(), Some(2));
}
