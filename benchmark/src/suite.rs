//! The whole benchmark in one command: every workload, both passes, each in
//! a process of its own; and `--repeat`, which holds two sets of such runs
//! against the declared bounds.

use crate::report::quoted;
use crate::schema::{Better, MetricDecl, END_TO_END, WORKLOADS};
use crate::stats::median;
use crate::{out_dir, Args};
use netserve::json::Json;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::{Command, ExitCode};

/// One child run, as read back from its standard output.
struct Child {
    correct: bool,
    metrics: BTreeMap<String, f64>,
    /// The `exact:` line: values that must repeat for one build and seed.
    exact: String,
    /// The result line, verbatim, for `result.json`.
    line: String,
}

fn run_child(workload: &str, args: &Args, trace: bool) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?;
    let output = Command::new(exe)
        .args([
            "--workload",
            workload,
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .args([
            "--seed",
            &args.seed.to_string(),
            "--seconds",
            &args.seconds.to_string(),
        ])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {workload} run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    let mut lines = stdout.lines().rev();
    let line = lines
        .next()
        .ok_or_else(|| format!("the {workload} run printed nothing ({})", output.status))?;
    let exact = lines
        .next()
        .and_then(|l| l.strip_prefix("exact: "))
        .ok_or_else(|| format!("the {workload} run printed no exact line"))?;
    let result = Json::parse(line).map_err(|e| format!("the {workload} run's result line: {e}"))?;
    let Some(Json::Object(raw)) = result.get("metrics") else {
        return Err(format!("the {workload} run's result has no metrics"));
    };
    let metrics = raw
        .iter()
        .filter_map(|(name, entry)| Some((name.clone(), number(entry.get("value")?)?)))
        .collect();
    Ok(Child {
        correct: result.get("correct") == Some(&Json::Bool(true)) && output.status.success(),
        metrics,
        exact: exact.to_owned(),
        line: line.to_owned(),
    })
}

fn number(value: &Json) -> Option<f64> {
    match value {
        Json::UInt(v) => Some(*v as f64),
        Json::Int(v) => Some(*v as f64),
        Json::Float(v) => Some(*v),
        _ => None,
    }
}

/// By how much `second` is worse than `first`, as a share of `first`
/// (negative when it is better).
fn worsening(decl: &MetricDecl, first: f64, second: f64) -> f64 {
    match decl.better {
        Better::Lower => (second - first) / first,
        Better::Higher => (first - second) / first,
    }
}

/// The layer with the largest `walk.*_share` of a traced run.
fn top_layer(metrics: &BTreeMap<String, f64>) -> &str {
    metrics
        .iter()
        .filter_map(|(name, share)| {
            Some((name.strip_prefix("walk.")?.strip_suffix("_share")?, share))
        })
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map_or("none", |(layer, _)| layer)
}

fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|output| output.status.success())
        .map(|output| String::from_utf8_lossy(&output.stdout).trim().to_owned())
        .filter(|line| !line.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

pub fn run(args: &Args) -> ExitCode {
    match run_all(args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(2)
        }
    }
}

fn run_all(args: &Args) -> Result<bool, String> {
    let mut ok = true;
    // runs[workload] = its end-to-end runs in order; traced[workload] = its
    // one traced run.
    let mut runs: Vec<Vec<Child>> = WORKLOADS.iter().map(|_| Vec::new()).collect();
    let mut traced = Vec::new();
    for repeat in 0..args.repeat {
        for (workload, runs) in WORKLOADS.iter().zip(&mut runs) {
            runs.push(run_child(workload.name, args, false)?);
            if repeat == 0 {
                traced.push(run_child(workload.name, args, true)?);
            }
        }
    }

    println!(
        "\n== summary (seed {}, {} s per run, {} run(s) per workload) ==",
        args.seed, args.seconds, args.repeat
    );
    for ((workload, runs), traced) in WORKLOADS.iter().zip(&runs).zip(&traced) {
        let all_correct = runs.iter().chain([traced]).all(|run| run.correct);
        ok &= all_correct;
        println!(
            "{}: outputs {}, top layer {}",
            workload.name,
            if all_correct { "verified" } else { "WRONG" },
            top_layer(&traced.metrics)
        );
        for decl in &END_TO_END {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|run| run.metrics.get(decl.name).copied())
                .collect();
            print!(
                "  {:<18} {:>14.4} {:<4}",
                decl.name,
                median(&values),
                decl.unit
            );
            if args.repeat < 2 {
                println!();
                continue;
            }
            // Two sets of runs, interleaved in time: even and odd.
            let set = |parity: usize| {
                median(
                    &values
                        .iter()
                        .skip(parity)
                        .step_by(2)
                        .copied()
                        .collect::<Vec<_>>(),
                )
            };
            let (first, second) = (set(0), set(1));
            let bound = decl.bound.expect("end-to-end metrics carry a bound");
            let apart = worsening(decl, first, second).abs();
            let agrees = apart <= bound;
            ok &= agrees;
            println!(
                " first {first:.4} second {second:.4} apart {:.2} % of bound {:.0} % {}",
                apart * 100.0,
                bound * 100.0,
                if agrees { "ok" } else { "DISAGREES" }
            );
        }
        let exact_repeats = runs
            .iter()
            .chain([traced])
            .all(|run| run.exact == runs[0].exact);
        ok &= exact_repeats;
        println!(
            "  simulated time and cache counts {}: {}",
            if exact_repeats {
                "repeat exactly"
            } else {
                "DIFFER BETWEEN RUNS"
            },
            runs[0].exact
        );
    }

    let out = out_dir();
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    let path = out.join("result.json");
    std::fs::write(&path, result_json(args, &runs, &traced))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(ok)
}

fn result_json(args: &Args, runs: &[Vec<Child>], traced: &[Child]) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"seed\": {}, \"seconds\": {}, \"available_parallelism\": {}, \"rustc\": {}, \"git_rev\": {}, \"fidelity\": \"unvalidated\",\n\"workloads\": {{\n",
        args.seed,
        args.seconds,
        std::thread::available_parallelism().map_or(0, usize::from),
        quoted(&tool_line("rustc", &["--version"])),
        quoted(&tool_line("git", &["rev-parse", "HEAD"])),
    );
    for (index, ((workload, runs), traced)) in WORKLOADS.iter().zip(runs).zip(traced).enumerate() {
        let lines: Vec<&str> = runs.iter().map(|run| run.line.as_str()).collect();
        let _ = writeln!(
            out,
            "{}: {{\"top_layer\": {}, \"exact\": {}, \"end_to_end\": [{}],\n  \"per_layer\": {}}}{}",
            quoted(workload.name),
            quoted(top_layer(&traced.metrics)),
            runs[0].exact,
            lines.join(", "),
            traced.line,
            if index + 1 == WORKLOADS.len() { "" } else { "," }
        );
    }
    out.push_str("}}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_is_signed_by_the_metrics_direction() {
        let lower = &END_TO_END[0];
        let higher = END_TO_END
            .iter()
            .find(|d| d.better == Better::Higher)
            .unwrap();
        assert_eq!(lower.better, Better::Lower);
        assert!((worsening(lower, 10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((worsening(higher, 10.0, 9.0) - 0.1).abs() < 1e-12);
        assert!(worsening(higher, 10.0, 11.0) < 0.0);
    }

    #[test]
    fn top_layer_is_the_largest_walk_share() {
        let metrics = BTreeMap::from([
            ("walk.engine_share".to_owned(), 0.2),
            ("walk.serve_share".to_owned(), 0.7),
            ("serve.largest_batch".to_owned(), 8.0),
        ]);
        assert_eq!(top_layer(&metrics), "serve");
    }
}
