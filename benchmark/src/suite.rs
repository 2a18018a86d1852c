//! The whole suite: one child process per workload, one after another, so no
//! workload inherits another's heap, page cache or peak RSS. `--selfcheck` runs
//! the suite twice and holds the benchmark to its own bounds.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use serde::Value;

use crate::catalog::{Better, END_TO_END, PER_LAYER};
use crate::workloads::Workload;

pub struct SuiteArgs {
    pub seed: u64,
    pub seconds: f64,
    pub quick: bool,
    pub pin: bool,
    pub selfcheck: bool,
    pub out_dir: PathBuf,
}

/// The last line a child printed, parsed.
struct ChildResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// `(name, value, unit)` in the order printed.
    metrics: Vec<(String, f64, String)>,
}

fn parse_result(line: &str) -> Result<ChildResult, String> {
    let doc: Value =
        serde_json::from_str(line).map_err(|e| format!("result line is not JSON: {e}"))?;
    let pairs = doc.as_object().ok_or("result line is not an object")?;
    let metrics = Value::field(pairs, "metrics")
        .as_object()
        .ok_or("result has no metrics")?
        .iter()
        .map(|(name, m)| {
            let m = m.as_object().ok_or("metric is not an object")?;
            let value = Value::field(m, "value")
                .as_f64()
                .ok_or("metric has no value")?;
            let unit = Value::field(m, "unit")
                .as_str()
                .ok_or("metric has no unit")?;
            Ok((name.clone(), value, unit.to_string()))
        })
        .collect::<Result<Vec<_>, &str>>()?;
    Ok(ChildResult {
        correct: Value::field(pairs, "correct")
            .as_bool()
            .ok_or("result has no `correct`")?,
        attempted: Value::field(pairs, "attempted")
            .as_u64()
            .ok_or("result has no `attempted`")?,
        failed: Value::field(pairs, "failed")
            .as_u64()
            .ok_or("result has no `failed`")?,
        metrics,
    })
}

/// Run one workload in a child of this same executable and wait for it.
fn run_child(
    exe: &Path,
    args: &SuiteArgs,
    workload: Workload,
    trace: bool,
) -> Result<ChildResult, String> {
    let mut cmd = Command::new(exe);
    cmd.arg("--workload")
        .arg(workload.name())
        .arg("--seed")
        .arg(args.seed.to_string())
        .arg("--seconds")
        .arg(args.seconds.to_string())
        .arg("--trace")
        .arg(if trace { "1" } else { "0" })
        .arg("--out")
        .arg(&args.out_dir)
        .stdout(Stdio::piped());
    if args.quick {
        cmd.arg("--quick");
    }
    if !args.pin {
        cmd.arg("--no-pin");
    }
    let output = cmd
        .output()
        .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or_default();
    for line in lines {
        println!("{line}");
    }
    if !output.status.success() {
        return Err(format!(
            "{} --trace {} exited with {}",
            workload.name(),
            u8::from(trace),
            output.status
        ));
    }
    parse_result(last).map_err(|e| format!("{}: {e}", workload.name()))
}

/// Every workload once, one child after another.
fn run_set(
    exe: &Path,
    args: &SuiteArgs,
    trace: bool,
) -> Result<Vec<(Workload, ChildResult)>, String> {
    Workload::ALL
        .into_iter()
        .map(|w| run_child(exe, args, w, trace).map(|r| (w, r)))
        .collect()
}

fn failures_line(w: Workload, r: &ChildResult) -> String {
    format!(
        "{:<14} correct {}  failed {} / attempted {}",
        w.name(),
        r.correct,
        r.failed,
        r.attempted
    )
}

fn results_json(sets: &[(&str, &[(Workload, ChildResult)])]) -> Value {
    Value::Object(
        sets.iter()
            .map(|(label, set)| {
                let workloads = set
                    .iter()
                    .map(|(w, r)| {
                        let metrics = r
                            .metrics
                            .iter()
                            .map(|(n, v, u)| {
                                (
                                    n.clone(),
                                    Value::Object(vec![
                                        ("value".into(), Value::Float(*v)),
                                        ("unit".into(), Value::Str(u.clone())),
                                    ]),
                                )
                            })
                            .collect();
                        (
                            w.name().to_string(),
                            Value::Object(vec![
                                ("correct".into(), Value::Bool(r.correct)),
                                ("attempted".into(), Value::UInt(r.attempted)),
                                ("failed".into(), Value::UInt(r.failed)),
                                ("metrics".into(), Value::Object(metrics)),
                            ]),
                        )
                    })
                    .collect();
                (label.to_string(), Value::Object(workloads))
            })
            .collect(),
    )
}

fn write_results(args: &SuiteArgs, doc: &Value) -> Result<(), String> {
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("{}: {e}", args.out_dir.display()))?;
    let path = args.out_dir.join("results.json");
    let body = serde_json::to_string_pretty(doc).expect("a Value tree always serializes");
    std::fs::write(&path, body + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
    println!("\nresults written to {}", path.display());
    Ok(())
}

/// One column per workload, one row per metric.
fn print_table(title: &str, names: &[(&str, &str)], set: &[(Workload, ChildResult)]) {
    println!("\n{title}");
    print!("{:<40} {:<9}", "metric", "unit");
    for (w, _) in set {
        print!(" {:>14}", w.name());
    }
    println!();
    for (name, unit) in names {
        print!("{name:<40} {unit:<9}");
        for (_, r) in set {
            match r.metrics.iter().find(|(n, _, _)| n == name) {
                Some((_, v, _)) => print!(" {v:>14.4}"),
                None => print!(" {:>14}", "-"),
            }
        }
        println!();
    }
}

/// Run the suite; `Ok(false)` means it ran but some operation failed or the
/// self-check found the benchmark unsteady.
pub fn run(args: &SuiteArgs) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let e2e_names: Vec<(&str, &str)> = END_TO_END.iter().map(|m| (m.name, m.unit)).collect();

    if args.selfcheck {
        let first = run_set(&exe, args, false)?;
        let second = run_set(&exe, args, false)?;
        print_table("END-TO-END, first set", &e2e_names, &first);
        print_table("END-TO-END, second set", &e2e_names, &second);
        let mut ok = true;
        println!();
        for ((w, a), (_, b)) in first.iter().zip(&second) {
            for r in [a, b] {
                println!("{}", failures_line(*w, r));
                ok &= r.correct;
            }
            for m in &END_TO_END {
                let value = |r: &ChildResult| {
                    r.metrics
                        .iter()
                        .find(|(n, _, _)| n == m.name)
                        .map(|(_, v, _)| *v)
                };
                let (Some(x), Some(y)) = (value(a), value(b)) else {
                    println!("SELFCHECK FAIL {} on {}: metric missing", m.name, w.name());
                    ok = false;
                    continue;
                };
                let moved = (y - x).abs() / x.abs();
                if m.deterministic && x != y {
                    println!(
                        "SELFCHECK FAIL {} on {}: deterministic metric differs, {x} vs {y}",
                        m.name,
                        w.name()
                    );
                    ok = false;
                } else if moved > m.bound {
                    println!(
                        "SELFCHECK FAIL {} on {}: {x} vs {y} differ by {:.1} %, bound {:.1} %",
                        m.name,
                        w.name(),
                        100.0 * moved,
                        100.0 * m.bound
                    );
                    ok = false;
                }
            }
        }
        println!("selfcheck {}", if ok { "passed" } else { "FAILED" });
        write_results(
            args,
            &results_json(&[("first", &first), ("second", &second)]),
        )?;
        return Ok(ok);
    }

    let end_to_end = run_set(&exe, args, false)?;
    let layers = run_set(&exe, args, true)?;
    print_table("END-TO-END (tracing off)", &e2e_names, &end_to_end);
    let layer_names: Vec<(&str, &str)> = PER_LAYER.iter().map(|m| (m.name, m.unit)).collect();
    print_table("PER-LAYER (traced run and probes)", &layer_names, &layers);
    println!("\neach layer metric and the end-to-end metric it should move:");
    for m in &PER_LAYER {
        println!("  {:<40} -> {}", m.name, m.moves);
    }
    println!("\nbounds: a later change may worsen a median by at most");
    for m in &END_TO_END {
        let direction = match m.better {
            Better::Higher => "higher is better",
            Better::Lower => "lower is better",
        };
        println!("  {:<26} {:>5.1} %  ({direction})", m.name, 100.0 * m.bound);
    }
    println!();
    let mut ok = true;
    for (w, r) in end_to_end.iter().chain(&layers) {
        println!("{}", failures_line(*w, r));
        ok &= r.correct;
    }
    write_results(
        args,
        &results_json(&[("end_to_end", &end_to_end), ("per_layer", &layers)]),
    )?;
    Ok(ok)
}
