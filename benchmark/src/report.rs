//! What a run prints and writes: the result line the driver reads, the
//! lines an operator reads, and the span dump of a traced pass.

use crate::schema::MetricDecl;
use crate::spans::{self_time_by_name, self_times, Span};
use std::fmt::Write as _;
use std::path::Path;

/// The outcome of one `--workload` run.
pub struct RunResult {
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    /// Ops attempted in the timed section.
    pub attempted: u64,
    /// Ops that failed, were refused, or whose output was wrong.
    pub failed: u64,
    pub metrics: Vec<(&'static MetricDecl, f64)>,
    /// Values that must repeat exactly for one build and seed: simulated
    /// time and op count of a round, and the round's cache counters.
    pub exact: Vec<(&'static str, u128)>,
    /// Lines for the operator: verification notes, the top layer.
    pub notes: Vec<String>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The last line of standard output: one JSON object with exactly the
    /// keys `correct`, `attempted`, `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(decl, value)| {
                format!(
                    "{}: {{\"value\": {value}, \"unit\": {}}}",
                    quoted(decl.name),
                    quoted(decl.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The line before it: the values that must repeat exactly, for
    /// `--repeat` to compare. Integers as strings, since femtoseconds
    /// overflow a double.
    pub fn exact_line(&self) -> String {
        let pairs: Vec<String> = self
            .exact
            .iter()
            .map(|(name, value)| format!("{}: \"{value}\"", quoted(name)))
            .collect();
        format!("exact: {{{}}}", pairs.join(", "))
    }

    /// Every metric by name with its unit, then the op counts.
    pub fn print_table(&self) {
        println!(
            "workload {} seed {} ({} pass)",
            self.workload,
            self.seed,
            if self.traced { "traced" } else { "end-to-end" }
        );
        for (decl, value) in &self.metrics {
            println!("  {:<34} {:>16.4} {}", decl.name, value, decl.unit);
        }
        println!(
            "  ops attempted {} succeeded {} failed {} (failed_share {})",
            self.attempted,
            self.attempted - self.failed.min(self.attempted),
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64
        );
        // No paper-vs-simulated table exists in the repository yet, so no
        // error figure can stand beside the simulated numbers.
        println!("  fidelity: unvalidated");
        for note in &self.notes {
            println!("  {note}");
        }
    }
}

/// `text` as a JSON string.
pub fn quoted(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Writes the traced pass's spans, each with its self time, and the self
/// time summed by span name.
pub fn write_trace(path: &Path, workload: &str, seed: u64, spans: &[Span]) -> std::io::Result<()> {
    let mut out = String::with_capacity(spans.len() * 96 + 256);
    let _ = write!(
        out,
        "{{\"workload\": {}, \"seed\": {seed}, \"self_ns_by_name\": {{",
        quoted(workload)
    );
    for (index, (name, self_ns)) in self_time_by_name(spans).into_iter().enumerate() {
        let _ = write!(
            out,
            "{}{}: {self_ns}",
            if index == 0 { "" } else { ", " },
            quoted(name)
        );
    }
    out.push_str("},\n\"spans\": [\n");
    for (id, (span, self_ns)) in spans.iter().zip(self_times(spans)).enumerate() {
        let parent = span.parent.map_or("null".to_owned(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\": {id}, \"parent\": {parent}, \"op\": {}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {self_ns}}}{}",
            span.op,
            quoted(span.name),
            span.start_ns,
            span.end_ns,
            if id + 1 == spans.len() { "" } else { "," }
        );
    }
    out.push_str("]}\n");
    std::fs::write(path, out)
}

/// Peak resident set size of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kib| kib.trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::END_TO_END;
    use netserve::json::Json;

    #[test]
    fn result_line_is_one_json_object_with_exactly_the_contract_keys() {
        let result = RunResult {
            workload: "w".to_owned(),
            seed: 1,
            traced: false,
            attempted: 10,
            failed: 1,
            metrics: END_TO_END.iter().map(|decl| (decl, 0.5)).collect(),
            exact: vec![("sim_femtos_per_round", u128::MAX)],
            notes: Vec::new(),
        };
        let line = result.result_line();
        assert!(!line.contains('\n'));
        let Json::Object(top) = Json::parse(&line).unwrap() else {
            panic!("not an object");
        };
        assert_eq!(
            top.keys().collect::<Vec<_>>(),
            ["attempted", "correct", "failed", "metrics"]
        );
        assert_eq!(top["correct"], Json::Bool(false));
        let Json::Object(metrics) = &top["metrics"] else {
            panic!("metrics is not an object");
        };
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(
            metrics["setup_s"].get("unit").and_then(Json::as_str),
            Some("s")
        );
        let exact = result.exact_line();
        let parsed = Json::parse(exact.strip_prefix("exact: ").unwrap()).unwrap();
        assert_eq!(
            parsed.get("sim_femtos_per_round").and_then(Json::as_str),
            Some(u128::MAX.to_string().as_str())
        );
    }

    #[test]
    fn trace_dump_is_valid_json_with_self_times() {
        let spans = [
            Span {
                name: "engine.submit",
                start_ns: 0,
                end_ns: 100,
                parent: None,
                op: 3,
            },
            Span {
                name: "localut.run_panel",
                start_ns: 10,
                end_ns: 70,
                parent: Some(0),
                op: 3,
            },
        ];
        let dir =
            std::env::temp_dir().join(format!("localut-benchmark-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.json");
        write_trace(&path, "w", 9, &spans).unwrap();
        let parsed = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let dumped = parsed.get("spans").and_then(Json::as_array).unwrap();
        assert_eq!(dumped.len(), 2);
        assert_eq!(dumped[0].get("self_ns").and_then(Json::as_uint), Some(40));
        assert_eq!(dumped[1].get("parent").and_then(Json::as_uint), Some(0));
        assert_eq!(
            parsed
                .get("self_ns_by_name")
                .and_then(|m| m.get("localut.run_panel"))
                .and_then(Json::as_uint),
            Some(60)
        );
    }

    #[test]
    fn peak_rss_is_a_positive_number_on_linux() {
        assert!(peak_rss_mib().unwrap() > 1.0);
    }
}
