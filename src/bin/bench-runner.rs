//! `bench-runner` — the deterministic evaluation front end.
//!
//! Runs the `bench` crate's scenario registry on the bank-parallel
//! runtime, prints a per-scenario metric table (simulated time, energy,
//! DPU instructions) and writes the report that is checked in as
//! `BENCH_baseline.json`; or, with `--figures`, reruns the paper's
//! figures (`bench::figures`), prints their tables and writes the
//! paper-vs-simulated table that is checked in as `FIGURES.md`:
//!
//! ```sh
//! bench-runner --list
//! bench-runner --out BENCH_baseline.json
//! bench-runner --filter fig09 --threads 8
//! bench-runner --figures --out FIGURES.md
//! bench-runner --figures --filter fig09
//! ```
//!
//! Both files hold simulated numbers only — exact, machine-independent,
//! the same at any `--threads` — so `--out` output is byte-reproducible
//! and a change is read with `diff`. Nothing here compares: the tier-1
//! tests `tests/bench_harness.rs` and `tests/paper_figures.rs` hold the
//! committed files to what this tree generates. Host time is measured by
//! `benchmark/`. Exit codes: 0 success, 1 a figure claim outside its
//! recorded band, 2 usage or I/O error.

use bench::figures;
use bench::report::render;
use bench::scenario::{run_scenarios, select, ScenarioCtx};
use bench::Table;
use localut_repro::cli::{self, CliError, Flags};
use std::process::ExitCode;

struct Args {
    filter: Option<String>,
    threads: usize,
    out: Option<String>,
    list: bool,
    figures: bool,
}

const USAGE: &str = "usage: bench-runner [--filter SUBSTR] [--threads N] [--out FILE] \
[--list] | --figures [--filter SUBSTR] [--out FIGURES.md]";

fn parse_args() -> Result<Args, CliError> {
    let mut args = Args {
        filter: None,
        threads: 4,
        out: None,
        list: false,
        figures: false,
    };
    let mut flags = Flags::from_env(USAGE);
    while let Some(flag) = flags.next_flag()? {
        match flag.as_str() {
            "--filter" => args.filter = Some(flags.value("--filter")?),
            "--threads" => args.threads = flags.positive("--threads")?,
            "--out" => args.out = Some(flags.value("--out")?),
            "--list" => args.list = true,
            "--figures" => args.figures = true,
            other => return Err(flags.unknown(other)),
        }
    }
    Ok(args)
}

fn list_scenarios(args: &Args) {
    let mut table = Table::new(&["scenario", "description"]);
    for s in select(args.filter.as_deref()) {
        table.row(vec![s.name.to_owned(), s.title.to_owned()]);
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
    let scenarios = select(args.filter.as_deref());
    if scenarios.is_empty() {
        return Err(format!("no scenario matches filter {:?}", args.filter));
    }
    let threads = args.threads;
    println!(
        "bench-runner: {} scenario(s), {threads} worker thread(s)",
        scenarios.len()
    );
    let rows = run_scenarios(&scenarios, &ScenarioCtx { threads });

    let mut table = Table::new(&["scenario", "sim (ms)", "energy (J)", "instructions"]);
    for (name, outcome) in &rows {
        table.row(vec![
            (*name).to_owned(),
            format!("{:.4}", outcome.stats.total_femtos() as f64 / 1e12),
            format!("{:.3e}", outcome.energy_pj as f64 / 1e12),
            outcome.stats.instructions.to_string(),
        ]);
    }
    table.print();

    if let Some(path) = &args.out {
        std::fs::write(path, render(&rows)).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("\nwrote {path} (deterministic: byte-identical on re-run)");
    }
    Ok(ExitCode::SUCCESS)
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
