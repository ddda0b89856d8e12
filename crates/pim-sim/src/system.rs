//! System-level model: ranks × banks of DPUs behind a host CPU.
//!
//! UPMEM systems hang PIM DIMMs off ordinary DDR4 channels; all inter-bank
//! communication travels through the host (§V-B, ref \[67\]). We model:
//!
//! * **host → PIM broadcast** (same bytes to every DPU, e.g. LUT images),
//! * **host → PIM scatter** (distinct slice per DPU, e.g. activation tiles),
//! * **PIM → host gather** (outputs),
//! * **host compute** (quantization, sorting/packing, softmax, ...),
//!
//! and combine them with the per-DPU kernel time. Kernels simulate one
//! representative DPU (the workload is balanced by construction — data and
//! context parallelism split identical tiles across banks, §V-B), so system
//! time = host phases + slowest (= representative) DPU time.

use crate::stats::{Category, CycleLedger, Profile};
use crate::SimError;

/// Static description of the PIM system.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// Number of ranks (UPMEM server in the paper: 32).
    pub n_ranks: u32,
    /// DPUs (banks) per rank (UPMEM: 64).
    pub dpus_per_rank: u32,
    /// Effective host→PIM broadcast bandwidth in bytes/s. Broadcasts are
    /// rank-parallel on UPMEM, so this is high (~16 GB/s across 8 channels).
    pub broadcast_bytes_per_sec: f64,
    /// Effective host→PIM scatter (distinct data per DPU) bandwidth in
    /// bytes/s of *aggregate* payload.
    pub scatter_bytes_per_sec: f64,
    /// Effective PIM→host gather bandwidth in bytes/s (UPMEM reads are
    /// slower than writes).
    pub gather_bytes_per_sec: f64,
    /// Host scalar-op throughput in ops/s (multicore Xeon performing
    /// quantization, sorting, packing; ~10 Gop/s sustained).
    pub host_ops_per_sec: f64,
    /// Sustained bandwidth of **one rank's** host link in bytes/s. Every
    /// byte entering or leaving any bank of a rank crosses this shared
    /// bus (UPMEM has no inter-bank path), so a rank whose banks move
    /// more data than its siblings becomes the transfer bottleneck — the
    /// rank-bus contention the aggregate scatter/gather numbers above
    /// average away.
    pub rank_link_bytes_per_sec: f64,
}

impl SystemConfig {
    /// The paper's evaluation platform: 32 ranks × 64 DPUs = 2048 DPUs
    /// behind an Intel Xeon Gold 5215.
    #[must_use]
    pub fn upmem_server() -> Self {
        SystemConfig {
            n_ranks: 32,
            dpus_per_rank: 64,
            broadcast_bytes_per_sec: 16.0e9,
            scatter_bytes_per_sec: 12.0e9,
            gather_bytes_per_sec: 8.0e9,
            host_ops_per_sec: 10.0e9,
            rank_link_bytes_per_sec: 1.6e9,
        }
    }

    /// Total number of DPUs.
    #[must_use]
    pub fn n_dpus(&self) -> u32 {
        self.n_ranks * self.dpus_per_rank
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        Self::upmem_server()
    }
}

/// The PIM system: topology + host link model.
#[derive(Debug, Clone, Default)]
pub struct PimSystem {
    cfg: SystemConfig,
}

/// A system-level execution profile: host-side and PIM-side ledgers.
///
/// Host and PIM phases are serial on UPMEM (synchronous kernel launches),
/// so the total is the sum of both sides.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SystemProfile {
    /// Host-side time/events (transfers, quantization, sorting, ...).
    pub host: Profile,
    /// Per-DPU (representative bank) time/events.
    pub pim: Profile,
}

impl SystemProfile {
    /// Total end-to-end seconds (host phases + PIM phases, serialized).
    #[must_use]
    pub fn total_seconds(&self) -> f64 {
        self.host.total_seconds() + self.pim.total_seconds()
    }

    /// Serial composition.
    #[must_use]
    pub fn merged(&self, other: &SystemProfile) -> SystemProfile {
        SystemProfile {
            host: self.host.merged(&other.host),
            pim: self.pim.merged(&other.pim),
        }
    }

    /// Scales both sides by `n` repetitions.
    #[must_use]
    pub fn scaled(&self, n: u64) -> SystemProfile {
        SystemProfile {
            host: self.host.scaled(n),
            pim: self.pim.scaled(n),
        }
    }
}

impl PimSystem {
    /// Creates a system from a configuration.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] when the topology is empty or a bandwidth
    /// is non-positive.
    pub fn new(cfg: SystemConfig) -> Result<Self, SimError> {
        if cfg.n_ranks == 0 || cfg.dpus_per_rank == 0 {
            return Err(SimError::InvalidConfig(
                "system must have at least one DPU".into(),
            ));
        }
        if cfg.broadcast_bytes_per_sec <= 0.0
            || cfg.scatter_bytes_per_sec <= 0.0
            || cfg.gather_bytes_per_sec <= 0.0
            || cfg.host_ops_per_sec <= 0.0
            || cfg.rank_link_bytes_per_sec <= 0.0
        {
            return Err(SimError::InvalidConfig(
                "bandwidths and host throughput must be positive".into(),
            ));
        }
        Ok(PimSystem { cfg })
    }

    /// The paper's 2048-DPU UPMEM server.
    #[must_use]
    pub fn upmem_server() -> Self {
        PimSystem {
            cfg: SystemConfig::upmem_server(),
        }
    }

    /// System configuration.
    #[must_use]
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Seconds to broadcast `bytes` (same payload) to every DPU.
    #[must_use]
    pub fn broadcast_seconds(&self, bytes: u64) -> f64 {
        bytes as f64 / self.cfg.broadcast_bytes_per_sec
    }

    /// Seconds to scatter `total_bytes` of distinct per-DPU payloads.
    #[must_use]
    pub fn scatter_seconds(&self, total_bytes: u64) -> f64 {
        total_bytes as f64 / self.cfg.scatter_bytes_per_sec
    }

    /// Seconds to gather `total_bytes` of results back to the host.
    #[must_use]
    pub fn gather_seconds(&self, total_bytes: u64) -> f64 {
        total_bytes as f64 / self.cfg.gather_bytes_per_sec
    }

    /// Seconds for `ops` host scalar operations.
    #[must_use]
    pub fn host_ops_seconds(&self, ops: u64) -> f64 {
        ops as f64 / self.cfg.host_ops_per_sec
    }

    /// Seconds for one rank's host link to move `bytes`.
    #[must_use]
    pub fn rank_link_seconds(&self, bytes: u64) -> f64 {
        bytes as f64 / self.cfg.rank_link_bytes_per_sec
    }

    /// The rank-bus contention phase for one execution epoch: each entry
    /// of `per_rank_bytes` is the total byte volume one rank's banks
    /// moved. Ranks transfer in parallel, but a rank's banks share its
    /// link, so the epoch's occupancy is the **slowest** (busiest) rank's
    /// link time — the bottleneck term a flat aggregate-bandwidth model
    /// misses when tiles are ragged across ranks.
    ///
    /// The returned profile charges the occupancy to
    /// [`Category::HostTransfer`] and records the fleet-wide byte total
    /// in `host_bytes`. An empty or all-zero input yields an empty phase.
    ///
    /// # Examples
    ///
    /// ```
    /// use pim_sim::{Category, PimSystem};
    ///
    /// let sys = PimSystem::upmem_server();
    /// let phase = sys.rank_link_profile(&[1000, 4000, 2000]);
    /// // The busiest rank (4000 B) bounds the epoch...
    /// assert!((phase.seconds(Category::HostTransfer)
    ///     - sys.rank_link_seconds(4000)).abs() < 1e-18);
    /// // ...while the counter records everything that moved.
    /// assert_eq!(phase.ledger().host_bytes, 7000);
    /// ```
    #[must_use]
    pub fn rank_link_profile(&self, per_rank_bytes: &[u64]) -> Profile {
        let mut ledger = CycleLedger::new();
        let busiest = per_rank_bytes.iter().copied().max().unwrap_or(0);
        ledger.charge(Category::HostTransfer, self.rank_link_seconds(busiest));
        ledger.host_bytes = per_rank_bytes.iter().sum();
        Profile::from_ledger(ledger)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn upmem_server_has_2048_dpus() {
        assert_eq!(SystemConfig::upmem_server().n_dpus(), 2048);
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut cfg = SystemConfig::upmem_server();
        cfg.n_ranks = 0;
        assert!(PimSystem::new(cfg).is_err());
        let mut cfg = SystemConfig::upmem_server();
        cfg.gather_bytes_per_sec = 0.0;
        assert!(PimSystem::new(cfg).is_err());
    }

    #[test]
    fn transfer_times_scale_linearly() {
        let sys = PimSystem::upmem_server();
        let one = sys.scatter_seconds(1_000_000);
        let ten = sys.scatter_seconds(10_000_000);
        assert!((ten - 10.0 * one).abs() < 1e-12);
        assert!(sys.gather_seconds(1 << 20) > sys.broadcast_seconds(1 << 20));
    }

    #[test]
    fn rank_link_bottleneck_is_the_busiest_rank() {
        let sys = PimSystem::upmem_server();
        let phase = sys.rank_link_profile(&[100, 900, 500, 900]);
        assert!((phase.seconds(Category::HostTransfer) - sys.rank_link_seconds(900)).abs() < 1e-18);
        assert_eq!(phase.ledger().host_bytes, 2400);
        // Degenerate inputs yield an empty phase.
        assert_eq!(sys.rank_link_profile(&[]).total_seconds(), 0.0);
        assert_eq!(sys.rank_link_profile(&[0, 0]).total_seconds(), 0.0);
    }

    #[test]
    fn rank_link_bandwidth_must_be_positive() {
        let mut cfg = SystemConfig::upmem_server();
        cfg.rank_link_bytes_per_sec = 0.0;
        assert!(PimSystem::new(cfg).is_err());
    }

    #[test]
    fn system_profile_total_is_serial_sum() {
        let sys = PimSystem::upmem_server();
        let host = sys.rank_link_profile(&[1 << 20]);
        let mut pim_ledger = CycleLedger::new();
        pim_ledger.charge(Category::Compute, 0.5);
        let sp = SystemProfile {
            host: host.clone(),
            pim: Profile::from_ledger(pim_ledger),
        };
        assert!((sp.total_seconds() - (host.total_seconds() + 0.5)).abs() < 1e-12);
        let doubled = sp.scaled(2);
        assert!((doubled.total_seconds() - 2.0 * sp.total_seconds()).abs() < 1e-12);
    }

    #[test]
    fn merged_profiles_add() {
        let sys = PimSystem::upmem_server();
        let a = SystemProfile {
            host: sys.rank_link_profile(&[100]),
            pim: Profile::new(),
        };
        let b = a.clone();
        let m = a.merged(&b);
        assert!((m.total_seconds() - 2.0 * a.total_seconds()).abs() < 1e-15);
    }
}
