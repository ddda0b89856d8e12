//! `bench-runner` — the deterministic evaluation front end.
//!
//! Runs the `bench` crate's scenario registry on the bank-parallel
//! runtime, prints a per-scenario metric table (simulated time, energy,
//! DPU instructions, host wall-clock), and emits/compares schema-versioned
//! `BENCH_*.json` reports; or, with `--figures`, reruns the paper's
//! figures (`bench::figures`), prints their tables and writes the
//! paper-vs-simulated table that is checked in as `FIGURES.md`:
//!
//! ```sh
//! bench-runner --list
//! bench-runner --profile smoke --out BENCH_baseline.json
//! bench-runner --profile smoke --baseline BENCH_baseline.json
//! bench-runner --profile full --filter fig09 --threads 8
//! bench-runner --figures --out FIGURES.md
//! bench-runner --figures --filter fig09
//! ```
//!
//! The regression gate compares **simulated femtoseconds** (exact,
//! machine-independent) against the baseline with a relative tolerance
//! (default 10%), and the functional `values_checksum` exactly; host
//! wall-clock is printed for humans but never gated and never written
//! (`benchmark/` is where host time is measured), so `--out` output is
//! byte-reproducible. Exit codes: 0 pass, 1 regression (or missing
//! scenario / checksum drift, or a figure claim outside its recorded
//! band), 2 usage or I/O error.

use bench::figures;
use bench::regress::{compare, passes_gate, restrict_to_selected};
use bench::report::BenchReport;
use bench::scenario::{registry, run_scenarios, select, RunProfile, ScenarioCtx};
use bench::Table;
use localut_repro::cli::{self, CliError, Flags};
use std::process::ExitCode;

struct Args {
    profile: RunProfile,
    filter: Option<String>,
    threads: usize,
    out: Option<String>,
    baseline: Option<String>,
    tolerance: f64,
    tag: Option<String>,
    list: bool,
    figures: bool,
}

const USAGE: &str = "usage: bench-runner [--profile smoke|full] [--filter SUBSTR] \
[--threads N] [--out FILE] [--baseline FILE] [--tolerance FRACTION] [--tag NAME] \
[--list] | --figures [--filter SUBSTR] [--out FIGURES.md]";

fn parse_args() -> Result<Args, CliError> {
    let mut args = Args {
        profile: RunProfile::Smoke,
        filter: None,
        threads: 4,
        out: None,
        baseline: None,
        tolerance: 0.10,
        tag: None,
        list: false,
        figures: false,
    };
    let mut flags = Flags::from_env(USAGE);
    while let Some(flag) = flags.next_flag()? {
        match flag.as_str() {
            "--profile" => args.profile = flags.parsed("--profile")?,
            "--filter" => args.filter = Some(flags.value("--filter")?),
            "--threads" => args.threads = flags.positive("--threads")?,
            "--out" => args.out = Some(flags.value("--out")?),
            "--baseline" => args.baseline = Some(flags.value("--baseline")?),
            "--tolerance" => {
                args.tolerance = flags.parsed("--tolerance")?;
                if !(args.tolerance >= 0.0 && args.tolerance.is_finite()) {
                    return Err(flags.usage_error("--tolerance must be a non-negative fraction"));
                }
            }
            "--tag" => args.tag = Some(flags.value("--tag")?),
            "--list" => args.list = true,
            "--figures" => args.figures = true,
            other => return Err(flags.unknown(other)),
        }
    }
    Ok(args)
}

fn list_scenarios(args: &Args) {
    let mut table = Table::new(&["scenario", "smoke", "description"]);
    for s in select(RunProfile::Full, args.filter.as_deref()) {
        table.row(vec![
            s.name.to_owned(),
            if s.smoke { "yes" } else { "no" }.to_owned(),
            s.title.to_owned(),
        ]);
    }
    table.print();
}

/// `--figures`: rerun the paper's figures, print their tables and the
/// paper-vs-simulated rows, and write the latter as Markdown to `--out`.
fn run_figures(args: &Args) -> Result<ExitCode, String> {
    let selected = figures::select(args.filter.as_deref());
    if selected.is_empty() {
        return Err(format!("no figure matches filter {:?}", args.filter));
    }
    let rule = "=".repeat(64);
    let mut reports = Vec::new();
    for figure in selected {
        println!("\n{rule}\n{}: {}\n{rule}", figure.name, figure.title);
        let report = figure.run().map_err(|e| format!("{}: {e}", figure.name))?;
        for (caption, table) in &report.tables {
            if !caption.is_empty() {
                println!("\n  {caption}");
            }
            print!("{table}");
        }
        reports.push(report);
    }
    println!("\n{rule}\npaper vs simulated (ratio = simulated / paper)\n{rule}");
    print!("{}", figures::fidelity_table(&reports));
    if let Some(path) = &args.out {
        std::fs::write(path, figures::fidelity_markdown(&reports))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("\nwrote {path} (deterministic: byte-identical on re-run)");
    }
    let mut code = ExitCode::SUCCESS;
    for claim in reports.iter().flat_map(|r| &r.claims) {
        if !claim.holds() {
            eprintln!("out of band: {claim}");
            code = ExitCode::FAILURE;
        }
    }
    Ok(code)
}

fn run(args: &Args) -> Result<ExitCode, String> {
    let scenarios = select(args.profile, args.filter.as_deref());
    if scenarios.is_empty() {
        return Err(format!(
            "no scenario matches profile '{}' and filter {:?}",
            args.profile.name(),
            args.filter
        ));
    }
    let ctx = ScenarioCtx {
        threads: args.threads,
    };
    println!(
        "bench-runner: {} scenario(s), profile {}, {} worker thread(s)",
        scenarios.len(),
        args.profile.name(),
        ctx.threads
    );
    let measured = run_scenarios(&scenarios, &ctx);
    let tag = args
        .tag
        .clone()
        .unwrap_or_else(|| args.profile.name().to_owned());
    let report = BenchReport::new(&tag, args.profile.name(), ctx.threads, &measured);

    let mut table = Table::new(&[
        "scenario",
        "sim (ms)",
        "energy (J)",
        "instructions",
        "wall (ms)",
    ]);
    for (row, m) in report.scenarios.iter().zip(&measured) {
        table.row(vec![
            row.name.clone(),
            format!("{:.4}", row.sim_millis()),
            format!("{:.3e}", row.energy_pj as f64 / 1e12),
            row.instructions.to_string(),
            format!("{:.1}", m.wall_nanos as f64 / 1e6),
        ]);
    }
    table.print();

    if let Some(path) = &args.out {
        std::fs::write(path, report.to_json()).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("\nwrote {path} (deterministic: byte-identical on re-run)");
    }

    let Some(baseline_path) = &args.baseline else {
        return Ok(ExitCode::SUCCESS);
    };
    let text = std::fs::read_to_string(baseline_path)
        .map_err(|e| format!("cannot read {baseline_path}: {e}"))?;
    let baseline = BenchReport::from_json(&text).map_err(|e| format!("{baseline_path}: {e}"))?;
    // Baseline scenarios this invocation deliberately did not select
    // (profile/filter subset) are not "missing" — drop them from the
    // comparison. A scenario deleted from the registry still fails.
    let selected: Vec<&str> = scenarios.iter().map(|s| s.name).collect();
    let registered: Vec<&str> = registry().iter().map(|s| s.name).collect();
    let restricted = restrict_to_selected(&baseline, &selected, &registered);
    if restricted.scenarios.len() < baseline.scenarios.len() {
        println!(
            "\nnote: {} baseline scenario(s) outside this run's profile/filter were skipped",
            baseline.scenarios.len() - restricted.scenarios.len()
        );
    }
    let comparisons = compare(&restricted, &report, args.tolerance);

    println!(
        "\nregression check vs {baseline_path} (tolerance ±{:.0}% simulated time):",
        args.tolerance * 100.0
    );
    let mut table = Table::new(&[
        "scenario",
        "baseline (ms)",
        "current (ms)",
        "ratio",
        "verdict",
    ]);
    for c in &comparisons {
        table.row(vec![
            c.name.clone(),
            format!("{:.4}", c.baseline_femtos as f64 / 1e12),
            format!("{:.4}", c.current_femtos as f64 / 1e12),
            if c.ratio.is_finite() {
                format!("{:.3}", c.ratio)
            } else {
                "inf".to_owned()
            },
            c.verdict.to_string(),
        ]);
    }
    table.print();

    if passes_gate(&comparisons) {
        println!("\nperf gate: PASS");
        Ok(ExitCode::SUCCESS)
    } else {
        println!(
            "\nperf gate: FAIL — see EXPERIMENTS.md \"Recording a baseline\" if this \
             change is intentional"
        );
        Ok(ExitCode::FAILURE)
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => return cli::exit(&e),
    };
    if args.list {
        list_scenarios(&args);
        return ExitCode::SUCCESS;
    }
    let outcome = if args.figures {
        run_figures(&args)
    } else {
        run(&args)
    };
    match outcome {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
    }
}
