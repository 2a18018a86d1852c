//! `jessy-benchmark`: the repo's pinned end-to-end + per-layer benchmark.
//!
//! With `--workload NAME` it measures that workload in this process and prints
//! one JSON result as its last line (the contract in `../BENCHMARK.json`).
//! Without it, it runs all five workloads, each in a child process, and prints
//! every metric by name and unit. See `README.md`.

mod catalog;
mod child;
mod probes;
mod spans;
mod stats;
mod suite;
mod sys;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use workloads::Workload;

const USAGE: &str = "usage: run.sh [--workload bh_1t|bh_8t|sor_8t|water_migrate|sessions_64t]
              [--seed N] [--seconds N] [--trace 0|1]
              [--quick] [--no-pin] [--selfcheck] [--out DIR]
  --workload   measure one workload; the last line printed is its JSON result
               (omit to run all five, one child process each)
  --seed       workload seed: same seed, same inputs (default 42)
  --seconds    how long the timed repetitions run (default 10)
  --trace      0: end-to-end metrics, tracing off; 1: per-layer metrics from a
               traced repetition and the layer probes
  --quick      `small` presets, one repetition: a smoke run in under 20 s
  --no-pin     do not pin to one CPU (diagnosis only; results are noisy)
  --selfcheck  run the suite twice; fail if any end-to-end median pair differs
               by more than its bound or any deterministic metric differs at all
  --out        where results and trace files go (default: benchmark/out)";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    pin: bool,
    selfcheck: bool,
    print_benchmark_json: bool,
    out_dir: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: catalog::RUN_SECONDS as f64,
        trace: false,
        quick: false,
        pin: true,
        selfcheck: false,
        print_benchmark_json: false,
        out_dir: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out")),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload = Some(
                    Workload::parse(name).ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--out" => args.out_dir = PathBuf::from(value()?),
            "--quick" => args.quick = true,
            "--no-pin" => args.pin = false,
            "--selfcheck" => args.selfcheck = true,
            "--print-benchmark-json" => args.print_benchmark_json = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.selfcheck && args.workload.is_some() {
        return Err("--selfcheck runs the whole suite; drop --workload".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.print_benchmark_json {
        print!("{}", catalog::benchmark_json());
        return ExitCode::SUCCESS;
    }
    let outcome = match args.workload {
        Some(workload) => child::run(&child::ChildArgs {
            workload,
            seed: args.seed,
            seconds: args.seconds,
            trace: args.trace,
            quick: args.quick,
            pin: args.pin,
            out_dir: args.out_dir,
        })
        // A failed operation is reported in the result; the process itself
        // still ran to completion.
        .map(|()| true),
        None => suite::run(&suite::SuiteArgs {
            seed: args.seed,
            seconds: args.seconds,
            quick: args.quick,
            pin: args.pin,
            selfcheck: args.selfcheck,
            out_dir: args.out_dir,
        }),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
