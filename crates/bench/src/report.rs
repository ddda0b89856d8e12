//! `BENCH_baseline.json`: the deterministic trajectory, written one way.
//!
//! [`render`] is the whole format: one object per scenario, in run order,
//! holding the exact integer ledger of [`pim_sim::Stats::snapshot`], the
//! rounded picojoules and the functional checksum. Object keys sort,
//! integers are exact decimal, and no host-dependent value — wall time,
//! worker count, a tag — is ever written, so the bytes depend on the
//! simulator and the registry alone. Nothing reads the file back:
//! `tests/bench_harness.rs` compares a fresh rendering against the
//! committed bytes, and a change is read with `diff`.

use crate::json::Json;
use crate::scenario::ScenarioOutcome;

/// Renders measured scenarios as the canonical, byte-reproducible report.
#[must_use]
pub fn render(rows: &[(&'static str, ScenarioOutcome)]) -> String {
    let scenarios = rows.iter().map(|(name, outcome)| row(name, outcome));
    Json::object(vec![("scenarios", Json::Array(scenarios.collect()))]).to_pretty()
}

fn row(name: &str, outcome: &ScenarioOutcome) -> Json {
    let snap = outcome.stats.snapshot();
    let categories = snap
        .category_femtos
        .iter()
        .map(|&(category, femtos)| (category.label().to_owned(), Json::UInt(femtos)));
    Json::object(vec![
        ("name", Json::Str(name.to_owned())),
        ("sim_femtos", Json::UInt(snap.total_femtos)),
        ("categories", Json::Object(categories.collect())),
        ("banks", Json::UInt(u128::from(snap.banks))),
        ("dram_read_bytes", Json::UInt(snap.dram_read_bytes)),
        ("dram_write_bytes", Json::UInt(snap.dram_write_bytes)),
        ("wram_accesses", Json::UInt(snap.wram_accesses)),
        ("instructions", Json::UInt(snap.instructions)),
        ("host_bytes", Json::UInt(snap.host_bytes)),
        ("host_ops", Json::UInt(snap.host_ops)),
        ("energy_pj", Json::UInt(outcome.energy_pj)),
        ("values_checksum", Json::UInt(u128::from(outcome.checksum))),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_sim::{Category, CycleLedger, Stats};

    #[test]
    fn rows_keep_run_order_and_every_integer_is_exact() {
        let mut ledger = CycleLedger::new();
        ledger.charge(Category::LutLoad, 2e-15);
        ledger.charge(Category::Accumulate, 1e-15);
        ledger.instructions = 7;
        let outcome = ScenarioOutcome {
            stats: Stats::from_ledger(&ledger),
            energy_pj: u128::from(u64::MAX) + 5,
            checksum: u64::MAX,
        };
        let text = render(&[("zulu", outcome.clone()), ("alpha", outcome)]);
        assert!(text.find("zulu").unwrap() < text.find("alpha").unwrap());
        assert!(text.contains("\"sim_femtos\": 3,"));
        assert!(text.contains("\"accumulate\": 1,\n        \"lut-load\": 2\n"));
        assert!(text.contains("\"energy_pj\": 18446744073709551620,"));
        assert!(text.contains("\"values_checksum\": 18446744073709551615,"));
        assert_eq!(Json::parse(&text).unwrap().to_pretty(), text);
    }
}
