//! `BENCH_*.json`: the schema-versioned, diffable perf report.
//!
//! A [`BenchReport`] is the on-disk artifact `bench-runner` emits and the
//! regression gate compares against. Design constraints:
//!
//! * **Schema-versioned** — `schema_version` is checked on read so a
//!   stale baseline fails loudly instead of comparing garbage.
//! * **Deterministic bytes** — object keys sort, integers are exact
//!   decimal, scenarios keep registry order, and no host-dependent
//!   number is ever written (host time is the `benchmark/` program's
//!   job), so regenerating an unchanged baseline is byte-identical. A
//!   report written before that — carrying a `wall_nanos` key per
//!   scenario — still loads; the key is ignored.
//! * **Integer metrics** — simulated time is the `u128` femtosecond
//!   ledger from [`pim_sim::Stats`], energy is rounded picojoules, and
//!   the functional fingerprint is a `u64` checksum; comparison never
//!   parses floats.

use crate::json::Json;
use crate::scenario::MeasuredScenario;
use pim_sim::Category;

/// The report schema version this crate writes and reads.
pub const SCHEMA_VERSION: u64 = 1;

/// One scenario's serialized metrics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioReport {
    /// Scenario registry name (the comparison key).
    pub name: String,
    /// Total simulated femtoseconds (the regression-gated metric).
    pub sim_femtos: u128,
    /// Per-category simulated femtoseconds (non-zero categories only,
    /// sorted by label).
    pub categories: Vec<(String, u128)>,
    /// Profiles merged into the aggregate.
    pub banks: u64,
    /// Bytes read from DRAM banks.
    pub dram_read_bytes: u128,
    /// Bytes written to DRAM banks.
    pub dram_write_bytes: u128,
    /// WRAM word accesses.
    pub wram_accesses: u128,
    /// DPU instructions retired.
    pub instructions: u128,
    /// Bytes over the host link.
    pub host_bytes: u128,
    /// Host scalar operations.
    pub host_ops: u128,
    /// Modeled energy in picojoules.
    pub energy_pj: u128,
    /// Fingerprint of functional output values (0 = analytic scenario).
    pub values_checksum: u64,
}

impl ScenarioReport {
    /// Builds the serializable report row from a measured scenario.
    #[must_use]
    pub fn from_measured(m: &MeasuredScenario) -> ScenarioReport {
        let snap = m.outcome.stats.snapshot();
        let mut categories: Vec<(String, u128)> = snap
            .category_femtos
            .iter()
            .map(|&(c, f)| (c.label().to_owned(), f))
            .collect();
        categories.sort();
        ScenarioReport {
            name: m.name.clone(),
            sim_femtos: snap.total_femtos,
            categories,
            banks: snap.banks,
            dram_read_bytes: snap.dram_read_bytes,
            dram_write_bytes: snap.dram_write_bytes,
            wram_accesses: snap.wram_accesses,
            instructions: snap.instructions,
            host_bytes: snap.host_bytes,
            host_ops: snap.host_ops,
            energy_pj: m.outcome.energy_pj,
            values_checksum: m.outcome.checksum,
        }
    }

    /// Simulated milliseconds (for human-facing tables only).
    #[must_use]
    pub fn sim_millis(&self) -> f64 {
        self.sim_femtos as f64 / 1e12
    }

    fn to_json(&self) -> Json {
        Json::object(vec![
            ("name", Json::Str(self.name.clone())),
            ("sim_femtos", Json::UInt(self.sim_femtos)),
            (
                "categories",
                Json::Object(
                    self.categories
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::UInt(*v)))
                        .collect(),
                ),
            ),
            ("banks", Json::UInt(u128::from(self.banks))),
            ("dram_read_bytes", Json::UInt(self.dram_read_bytes)),
            ("dram_write_bytes", Json::UInt(self.dram_write_bytes)),
            ("wram_accesses", Json::UInt(self.wram_accesses)),
            ("instructions", Json::UInt(self.instructions)),
            ("host_bytes", Json::UInt(self.host_bytes)),
            ("host_ops", Json::UInt(self.host_ops)),
            ("energy_pj", Json::UInt(self.energy_pj)),
            (
                "values_checksum",
                Json::UInt(u128::from(self.values_checksum)),
            ),
        ])
    }

    fn from_json(v: &Json) -> Result<ScenarioReport, String> {
        let name = v
            .get("name")
            .and_then(Json::as_str)
            .ok_or("scenario missing 'name'")?
            .to_owned();
        let uint = |key: &str| -> Result<u128, String> {
            v.get(key)
                .and_then(Json::as_uint)
                .ok_or_else(|| format!("scenario '{name}' missing integer '{key}'"))
        };
        let mut categories = Vec::new();
        match v.get("categories") {
            Some(Json::Object(map)) => {
                for (label, value) in map {
                    if Category::from_label(label).is_none() {
                        return Err(format!("scenario '{name}': unknown category '{label}'"));
                    }
                    let femtos = value.as_uint().ok_or_else(|| {
                        format!("scenario '{name}': category '{label}' not an integer")
                    })?;
                    categories.push((label.clone(), femtos));
                }
            }
            _ => return Err(format!("scenario '{name}' missing 'categories' object")),
        }
        // BTreeMap iteration already sorts, but don't rely on it silently.
        categories.sort();
        Ok(ScenarioReport {
            sim_femtos: uint("sim_femtos")?,
            banks: u64::try_from(uint("banks")?).map_err(|_| "banks out of range")?,
            dram_read_bytes: uint("dram_read_bytes")?,
            dram_write_bytes: uint("dram_write_bytes")?,
            wram_accesses: uint("wram_accesses")?,
            instructions: uint("instructions")?,
            host_bytes: uint("host_bytes")?,
            host_ops: uint("host_ops")?,
            energy_pj: uint("energy_pj")?,
            values_checksum: u64::try_from(uint("values_checksum")?)
                .map_err(|_| "values_checksum out of range")?,
            categories,
            name,
        })
    }
}

/// A full perf report: header + one row per scenario, in run order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchReport {
    /// Tag naming this report (e.g. `baseline`, a branch, a commit).
    pub tag: String,
    /// The run profile (`smoke` / `full`).
    pub profile: String,
    /// Host worker threads the run used (informational; simulated
    /// numbers are thread-invariant).
    pub threads: u64,
    /// Scenario rows in run order.
    pub scenarios: Vec<ScenarioReport>,
}

impl BenchReport {
    /// Assembles a report from measured scenarios.
    #[must_use]
    pub fn new(
        tag: &str,
        profile: &str,
        threads: usize,
        measured: &[MeasuredScenario],
    ) -> BenchReport {
        BenchReport {
            tag: tag.to_owned(),
            profile: profile.to_owned(),
            threads: threads as u64,
            scenarios: measured.iter().map(ScenarioReport::from_measured).collect(),
        }
    }

    /// The row for `name`, if present.
    #[must_use]
    pub fn scenario(&self, name: &str) -> Option<&ScenarioReport> {
        self.scenarios.iter().find(|s| s.name == name)
    }

    /// Serializes to canonical, byte-reproducible JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        Json::object(vec![
            ("schema_version", Json::UInt(u128::from(SCHEMA_VERSION))),
            ("tag", Json::Str(self.tag.clone())),
            ("profile", Json::Str(self.profile.clone())),
            ("threads", Json::UInt(u128::from(self.threads))),
            (
                "scenarios",
                Json::Array(self.scenarios.iter().map(ScenarioReport::to_json).collect()),
            ),
        ])
        .to_pretty()
    }

    /// Parses a report, validating the schema version.
    ///
    /// # Errors
    ///
    /// Malformed JSON, wrong `schema_version`, or missing/ill-typed
    /// fields.
    pub fn from_json(text: &str) -> Result<BenchReport, String> {
        let root = Json::parse(text)?;
        let version = root
            .get("schema_version")
            .and_then(Json::as_uint)
            .ok_or("missing 'schema_version'")?;
        if version != u128::from(SCHEMA_VERSION) {
            return Err(format!(
                "schema version {version} unsupported (this binary reads {SCHEMA_VERSION}); \
                 regenerate the baseline with bench-runner --out"
            ));
        }
        let field = |key: &str| -> Result<String, String> {
            root.get(key)
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("missing string '{key}'"))
        };
        let scenarios = root
            .get("scenarios")
            .and_then(Json::as_array)
            .ok_or("missing 'scenarios' array")?
            .iter()
            .map(ScenarioReport::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(BenchReport {
            tag: field("tag")?,
            profile: field("profile")?,
            threads: u64::try_from(
                root.get("threads")
                    .and_then(Json::as_uint)
                    .ok_or("missing integer 'threads'")?,
            )
            .map_err(|_| "threads out of range")?,
            scenarios,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn sample_row(name: &str, femtos: u128, checksum: u64) -> ScenarioReport {
        ScenarioReport {
            name: name.to_owned(),
            sim_femtos: femtos,
            categories: vec![
                ("accumulate".to_owned(), femtos / 2),
                ("lut-load".to_owned(), femtos - femtos / 2),
            ],
            banks: 2,
            dram_read_bytes: 1 << 40,
            dram_write_bytes: 7,
            wram_accesses: 11,
            instructions: u128::from(u64::MAX) + 5,
            host_bytes: 0,
            host_ops: 3,
            energy_pj: 999_999,
            values_checksum: checksum,
        }
    }

    fn sample() -> BenchReport {
        BenchReport {
            tag: "baseline".into(),
            profile: "smoke".into(),
            threads: 4,
            scenarios: vec![
                sample_row("fig09_gemm", 1_000_000, 42),
                sample_row("fig14_energy", 5, 0),
            ],
        }
    }

    #[test]
    fn json_roundtrip_preserves_every_field() {
        let report = sample();
        let text = report.to_json();
        let parsed = BenchReport::from_json(&text).unwrap();
        assert_eq!(parsed, report);
        // Byte-level determinism.
        assert_eq!(text, parsed.to_json());
    }

    #[test]
    fn schema_version_is_checked() {
        let text = sample()
            .to_json()
            .replace("\"schema_version\": 1", "\"schema_version\": 999");
        let err = BenchReport::from_json(&text).unwrap_err();
        assert!(err.contains("schema version 999"), "{err}");
    }

    #[test]
    fn unknown_categories_are_rejected() {
        let text = sample().to_json().replace("lut-load", "warp-drive");
        let err = BenchReport::from_json(&text).unwrap_err();
        assert!(err.contains("unknown category"), "{err}");
    }

    #[test]
    fn missing_fields_error_with_context() {
        let text = sample()
            .to_json()
            .replace("\"sim_femtos\"", "\"sim_femtoz\"");
        let err = BenchReport::from_json(&text).unwrap_err();
        assert!(err.contains("sim_femtos"), "{err}");
        assert!(BenchReport::from_json("{}").is_err());
        assert!(BenchReport::from_json("not json").is_err());
    }

    #[test]
    fn scenario_lookup_by_name() {
        let report = sample();
        assert_eq!(report.scenario("fig09_gemm").unwrap().values_checksum, 42);
        assert!(report.scenario("absent").is_none());
    }
}
