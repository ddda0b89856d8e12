//! Typed responses: values, merged statistics, energy, and checksums.
//!
//! Everything in a response is **deterministic**: integer-femtosecond
//! statistics, picojoule energy (rounded once from the f64 model at
//! ingest), and an FNV-1a fingerprint of functional output — two runs of
//! one request, at any worker count, return identical responses.

use crate::cachelife::lru::CacheOutcome;
use dnn::InferenceReport;
use localut::{GemmDims, Method};
use pim_sim::{Profile, Stats, SystemProfile};
use runtime::BankResult;

/// Converts modeled Joules to integer picojoules (round-to-nearest) — the
/// single f64→integer crossing of engine responses and perf reports,
/// applied once at ingest so serialized metrics stay exact from then on.
#[must_use]
pub fn picojoules(joules: f64) -> u128 {
    debug_assert!(joules >= 0.0 && joules.is_finite(), "bad energy {joules}");
    (joules * 1e12).round() as u128
}

/// The result of one [`crate::request::GemmRequest`].
#[derive(Debug, Clone, PartialEq)]
pub struct GemmResponse {
    /// Row-major `M×N` integer outputs (bit-identical to the serial path).
    pub values: Vec<i32>,
    /// Full GEMM dimensions.
    pub dims: GemmDims,
    /// The method that executed (after applying engine defaults; pinned
    /// requests report the method class of the pinned kernel).
    pub method: Method,
    /// Associative merge of the per-bank statistics — identical for every
    /// merge order and worker count.
    pub stats: Stats,
    /// Deterministic fold of the per-bank profiles in shard order.
    pub profile: Profile,
    /// Per-bank shard results in shard order.
    pub per_bank: Vec<BankResult>,
    /// Modeled energy of the bank fleet, in picojoules.
    pub energy_pj: u128,
    /// FNV-1a fingerprint of `values` ([`runtime::values_checksum`]).
    pub checksum: u64,
    /// Whether the shared LUT images came from the engine cache (`None`
    /// for LUT-free methods, which have no shared image).
    pub lut_cache: Option<CacheOutcome>,
}

/// The result of one [`crate::request::BatchGemmRequest`].
#[derive(Debug, Clone, PartialEq)]
pub struct BatchGemmResponse {
    /// Per-request responses, in request order.
    pub responses: Vec<GemmResponse>,
    /// Associative merge of every response's statistics.
    pub stats: Stats,
    /// Sum of per-response energies, in picojoules.
    pub energy_pj: u128,
}

impl BatchGemmResponse {
    /// Number of requests served.
    #[must_use]
    pub fn requests(&self) -> usize {
        self.responses.len()
    }

    /// FNV-1a fold of the per-response checksums, in request order — one
    /// fingerprint for the whole batch ([`runtime::fnv1a_64`]).
    #[must_use]
    pub fn checksum(&self) -> u64 {
        runtime::fnv1a_64(self.responses.iter().flat_map(|r| r.checksum.to_le_bytes()))
    }
}

/// The result of one [`crate::request::InferenceRequest`].
#[derive(Debug, Clone, PartialEq)]
pub struct InferenceResponse {
    /// Per-workload end-to-end reports, in request order.
    pub reports: Vec<InferenceReport>,
    /// Deterministic request-order fold of the per-request profiles.
    pub merged: SystemProfile,
    /// Associative merge of per-request statistics (one ingest per
    /// request, so `stats.banks()` counts requests).
    pub stats: Stats,
    /// Modeled system energy over the merged profile, in picojoules.
    pub energy_pj: u128,
    /// The method that executed (after applying engine defaults).
    pub method: Method,
}

impl InferenceResponse {
    /// Total serving-session seconds (requests serialize on the UPMEM
    /// host, so the session time is the sum).
    #[must_use]
    pub fn total_seconds(&self) -> f64 {
        self.reports
            .iter()
            .map(InferenceReport::total_seconds)
            .sum()
    }

    /// Number of workloads served.
    #[must_use]
    pub fn requests(&self) -> usize {
        self.reports.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picojoules_rounds_once() {
        assert_eq!(picojoules(0.0), 0);
        assert_eq!(picojoules(1.0), 1_000_000_000_000);
        assert_eq!(picojoules(1.4e-12), 1);
        assert_eq!(picojoules(0.4e-12), 0);
    }
}
