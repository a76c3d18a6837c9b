//! Command line of both binaries.
//!
//! ```text
//! cpr-benchmark --workload NAME [--seed N] [--seconds N] [--trace 0|1]
//!               [--smoke] [--out DIR]
//! cpr-benchmark merge DIR
//! cpr-benchmark compare A.json B.json [--benchmark BENCHMARK.json]
//! ```

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use cpr_obs::Json;

use crate::inputs::{specs, CPR_THREADS, DEFAULT_SEED, HELD_OUT_SEED};
use crate::report::Report;
use crate::{alloc, compare, jsonparse, run, traced};

const USAGE: &str = "usage:
  cpr-benchmark --workload NAME [--seed N] [--seconds N] [--trace 0|1] [--smoke] [--out DIR]
  cpr-benchmark merge DIR
  cpr-benchmark compare A.json B.json [--benchmark BENCHMARK.json]
workloads: lookup-steady batch-steady churn-mixed bringup-1024
(--trace 1 needs the counting allocator: run it through benchmark/run.sh)";

/// Where run reports go unless `--out` says otherwise; relative to the
/// working directory, which `run.sh` makes the repository root.
const DEFAULT_OUT: &str = "benchmark/out";
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: u64 = 6;

struct RunArgs {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    out: PathBuf,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        out: PathBuf::from(DEFAULT_OUT),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            parsed.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: `{value}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => parsed.workload = value.clone(),
            "--seed" => parsed.seed = number()?,
            "--seconds" => parsed.seconds = number()?.clamp(1, 60),
            "--trace" => parsed.trace = number()? != 0,
            "--out" => parsed.out = PathBuf::from(value),
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(parsed)
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    jsonparse::parse(&text).map_err(|(at, why)| format!("{}: byte {at}: {why}", path.display()))
}

fn run_workload(args: RunArgs) -> Result<Report, String> {
    let spec = specs()
        .into_iter()
        .find(|s| s.name == args.workload)
        .ok_or_else(|| format!("unknown workload `{}`\n{USAGE}", args.workload))?;
    if args.trace != alloc::installed() {
        return Err(format!(
            "--trace {} runs in the {} binary; use benchmark/run.sh, which picks it",
            u8::from(args.trace),
            if args.trace {
                "cpr-benchmark-traced"
            } else {
                "cpr-benchmark"
            },
        ));
    }
    let (spec, timing) = if args.smoke {
        spec.smoke()
    } else {
        let timing = spec.timing(args.seconds);
        (spec, timing)
    };
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let stem = if args.trace { "trace" } else { "run" };
    let report = if args.trace {
        let (report, recorder) =
            traced::per_layer(&spec, &timing, args.seed, args.seconds, args.smoke);
        let path = args.out.join(format!("trace-{}.jsonl", spec.name));
        let file = std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        recorder
            .write_jsonl(file)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        report
    } else {
        run::end_to_end(&spec, &timing, args.seed, args.seconds, args.smoke)
    };
    write_file(
        &args.out.join(format!("{stem}-{}.json", spec.name)),
        &report.to_json().to_pretty(),
    )?;
    Ok(report)
}

/// Folds the per-workload reports of `dir` into `dir/report.json`.
fn merge(dir: &Path) -> Result<(), String> {
    let collect = |stem: &str| {
        specs()
            .iter()
            .map(|s| dir.join(format!("{stem}-{}.json", s.name)))
            .filter(|p| p.exists())
            .map(|p| read_json(&p))
            .collect::<Result<Vec<_>, _>>()
    };
    let merged = Json::obj([
        ("runs", Json::Arr(collect("run")?)),
        ("traces", Json::Arr(collect("trace")?)),
    ]);
    let path = dir.join("report.json");
    write_file(&path, &merged.to_pretty())?;
    println!("wrote {}", path.display());
    Ok(())
}

fn compare_files(args: &[String]) -> Result<bool, String> {
    let (mut files, mut benchmark) = (Vec::new(), PathBuf::from("BENCHMARK.json"));
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--benchmark" {
            benchmark = PathBuf::from(it.next().ok_or("--benchmark needs a path")?);
        } else {
            files.push(PathBuf::from(arg));
        }
    }
    let [a, b] = files.as_slice() else {
        return Err(format!("compare takes two report files\n{USAGE}"));
    };
    let (table, bad) = compare::compare(&read_json(&benchmark)?, &read_json(a)?, &read_json(b)?);
    print!("{table}");
    Ok(bad)
}

/// Entry point of both binaries. Exit code 0 on a correct run or a
/// clean comparison, 1 on a `worse`/`missing` row, 2 on a usage or I/O
/// error, 3 when a run completed but an operation failed (the result
/// line is still printed, with `"correct": false`).
pub fn main() -> ExitCode {
    // Fixed, never read from the machine; before any thread exists.
    std::env::set_var("CPR_THREADS", CPR_THREADS.to_string());
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => compare_files(&args[1..]).map(u8::from),
        Some("merge") if args.len() == 2 => merge(Path::new(&args[1])).map(|()| 0),
        Some(flag) if flag.starts_with("--") => {
            parse_run(&args).and_then(run_workload).map(|report| {
                print!("{}", report.table());
                println!("{}", report.result_line());
                if report.correct() {
                    0
                } else {
                    3
                }
            })
        }
        _ => Err(format!(
            "{USAGE}\nseeds: default {DEFAULT_SEED}, held out {HELD_OUT_SEED}"
        )),
    };
    match outcome {
        Ok(code) => ExitCode::from(code),
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
