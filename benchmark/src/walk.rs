//! The layer walk: one GEMM replayed from outside, through each layer's
//! public functions, with a span around every call.
//!
//! `Engine::submit` cannot be seen into from here, so the walk performs the
//! same steps with the same public calls `runtime::ParallelExecutor` makes
//! — slice the operands per band (`quant`), resolve one activation panel
//! per column band and run one kernel per shard (`localut`), fold the
//! per-bank ledgers (`pim-sim`), scatter and fingerprint the tiles
//! (`runtime`) — on one thread, and checks that it arrives at the engine's
//! checksum and statistics. What the walk cannot reach (thread start-up,
//! work stealing, imbalance between workers) shows up as the difference
//! between the executor's measured time and the walk's parts.

use crate::schema::Metrics;
use crate::spans::Tracer;
use engine::{Engine, GemmRequest, Topology};
use localut::kernels::{BankKernel, SharedLuts};
use localut::{GemmDims, LocaLutError};
use pim_sim::Stats;
use quant::{NumericFormat, QMatrix};
use runtime::ShardPlan;
use std::collections::HashMap;
use std::time::Instant;

/// Host time of one op split over the layers, in nanoseconds (or, after
/// [`Shares::normalized`], as shares that sum to 1).
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Shares {
    pub quant: f64,
    /// Panel resolution and the gather kernel.
    pub localut_kernel: f64,
    /// Planning and LUT image builds.
    pub localut_build: f64,
    pub pim_sim: f64,
    pub runtime: f64,
    pub dnn: f64,
    pub engine: f64,
    pub serve: f64,
    pub netserve: f64,
    /// The part of the total above that was found by difference, not by a
    /// span of its own.
    pub unattributed: f64,
}

impl Shares {
    /// `(metric suffix, value)` for every layer, in a fixed order.
    pub fn layers(&self) -> [(&'static str, f64); 9] {
        [
            ("quant", self.quant),
            ("localut_kernel", self.localut_kernel),
            ("localut_build", self.localut_build),
            ("pim-sim", self.pim_sim),
            ("runtime", self.runtime),
            ("dnn", self.dnn),
            ("engine", self.engine),
            ("serve", self.serve),
            ("netserve", self.netserve),
        ]
    }

    pub fn total(&self) -> f64 {
        self.layers().iter().map(|(_, v)| v).sum()
    }

    /// Field by field, `with(own, other's)`.
    fn zip(&self, other: &Shares, with: impl Fn(f64, f64) -> f64) -> Shares {
        Shares {
            quant: with(self.quant, other.quant),
            localut_kernel: with(self.localut_kernel, other.localut_kernel),
            localut_build: with(self.localut_build, other.localut_build),
            pim_sim: with(self.pim_sim, other.pim_sim),
            runtime: with(self.runtime, other.runtime),
            dnn: with(self.dnn, other.dnn),
            engine: with(self.engine, other.engine),
            serve: with(self.serve, other.serve),
            netserve: with(self.netserve, other.netserve),
            unattributed: with(self.unattributed, other.unattributed),
        }
    }

    pub fn add(&mut self, other: &Shares) {
        *self = self.zip(other, |own, others| own + others);
    }

    pub fn scaled(&self, factor: f64) -> Shares {
        self.zip(self, |own, _| own * factor)
    }

    /// Shares of the total; all zero when nothing was attributed.
    pub fn normalized(&self) -> Shares {
        let total = self.total();
        if total > 0.0 {
            self.scaled(1.0 / total)
        } else {
            Shares::default()
        }
    }

    /// The layer with the largest share, and that share.
    pub fn top_layer(&self) -> (&'static str, f64) {
        self.layers()
            .into_iter()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .expect("the layer list is not empty")
    }
}

/// LUT images the walk has already built, so walking many requests of one
/// format builds each image once — as the engine's own cache would.
#[derive(Default)]
pub struct LutPool(HashMap<(NumericFormat, NumericFormat, u32), SharedLuts>);

impl LutPool {
    /// A pool that already holds `luts`.
    pub fn holding(luts: SharedLuts) -> Self {
        let key = (luts.weight_format(), luts.activation_format(), luts.p());
        LutPool(HashMap::from([(key, luts)]))
    }

    pub fn get(
        &mut self,
        wf: NumericFormat,
        af: NumericFormat,
        p: u32,
    ) -> Result<SharedLuts, LocaLutError> {
        if let Some(luts) = self.0.get(&(wf, af, p)) {
            return Ok(luts.clone());
        }
        let luts = SharedLuts::build(wf, af, p)?;
        self.0.insert((wf, af, p), luts.clone());
        Ok(luts)
    }
}

/// The shard plan the engine gives `request`: a per-request bank override
/// shards flat, otherwise the engine's topology decides.
pub fn shard_plan_for(engine: &Engine, request: &GemmRequest, dims: GemmDims) -> ShardPlan {
    match (request.banks, engine.topology()) {
        (Some(banks), _) | (None, Topology::Flat(banks)) => ShardPlan::for_banks(dims, banks),
        (
            None,
            Topology::Ranked {
                ranks,
                banks_per_rank,
            },
        ) => ShardPlan::for_ranks(dims, ranks, banks_per_rank),
    }
}

/// One GEMM's host time by step, in nanoseconds: each the minimum over
/// the walk's repetitions, because the steps are compared by difference
/// and interference from the host only ever adds time.
#[derive(Debug, Clone, Copy)]
pub struct GemmWalk {
    /// `Engine::submit`, cache warm.
    pub submit_ns: f64,
    /// `ParallelExecutor::execute_plan_with` on the engine's own pool.
    pub execute_ns: f64,
    pub shard_plan_ns: f64,
    /// `QMatrix::submatrix`, one per row band and per column band.
    pub slice_ns: f64,
    /// `BankKernel::resolve_panel`, summed over column bands.
    pub panel_ns: f64,
    /// `BankKernel::run_panel`, summed over shards, on one thread.
    pub kernel_ns: f64,
    /// `Stats::from_profile` + `Stats::merge` per bank, and the rank link.
    pub merge_ns: f64,
    /// Tile scatter and `values_checksum`.
    pub scatter_ns: f64,
    /// Workers the executor can keep busy: `min(pool threads, shards)`.
    pub workers: f64,
    /// The walk reached the engine's checksum and statistics.
    pub checksum_ok: bool,
}

impl GemmWalk {
    /// The executor's time that is not a call into another layer: its
    /// share of `execute_plan_with`. Kernels run on `workers` threads, so
    /// they block the result for a `1/workers` part of their summed time.
    pub fn runtime_self_ns(&self) -> f64 {
        (self.execute_ns - self.children_ns()).max(0.0)
    }

    fn children_ns(&self) -> f64 {
        self.slice_ns + self.panel_ns + self.kernel_ns / self.workers + self.merge_ns
    }

    /// Sets the walk's own metrics: the executor's time, the share of it
    /// that is the executor's own, and what `Engine::submit` adds on top.
    pub fn report(&self, metrics: &mut Metrics) {
        metrics.set("runtime.execute_ms", self.execute_ns / 1e6);
        metrics.set(
            "runtime.self_share",
            self.runtime_self_ns() / self.execute_ns,
        );
        metrics.set(
            "engine.submit_self_us",
            (self.submit_ns - self.execute_ns).max(0.0) / 1e3,
        );
    }

    /// One warm `Engine::submit`, split over the layers; sums to
    /// `submit_ns`.
    pub fn shares(&self) -> Shares {
        let runtime_self = self.runtime_self_ns();
        Shares {
            quant: self.slice_ns,
            localut_kernel: self.panel_ns + self.kernel_ns / self.workers,
            pim_sim: self.merge_ns,
            runtime: self.shard_plan_ns + runtime_self,
            engine: (self.submit_ns - self.execute_ns - self.shard_plan_ns).max(0.0),
            unattributed: (runtime_self - self.scatter_ns).max(0.0),
            ..Shares::default()
        }
    }
}

/// Times `body` as one span; the result and its host nanoseconds.
pub fn step<R>(
    tracer: &mut Tracer,
    name: &'static str,
    op: u64,
    body: impl FnOnce(&mut Tracer) -> R,
) -> (R, f64) {
    let start = Instant::now();
    let result = tracer.span(name, op, body);
    (result, start.elapsed().as_nanos() as f64)
}

/// Walks `request` on `engine` `reps` times. `op` tags the spans.
pub fn walk_gemm(
    engine: &Engine,
    request: &GemmRequest,
    luts: &mut LutPool,
    tracer: &mut Tracer,
    op: u64,
    reps: usize,
) -> Result<GemmWalk, String> {
    let (w, a) = (&request.w, &request.a);
    let dims = GemmDims::of(w, a).map_err(|e| e.to_string())?;
    let method = request.method.unwrap_or(engine.default_method());
    // The engine's own construction path, with the walk's LUT pool in
    // place of the engine's cache.
    let bank = BankKernel::build_with(
        engine.gemm_config(),
        method,
        w.format(),
        a.format(),
        dims,
        |wf, af, p, _| luts.get(wf, af, p),
    )
    .map_err(|e| e.to_string())?;

    // submit, execute, shard plan, then the replay's five parts.
    let mut fastest = [f64::INFINITY; 8];
    let mut keep = |slot: usize, ns: f64| fastest[slot] = fastest[slot].min(ns);
    let mut checksum_ok = true;
    let mut shards = 0;
    for _ in 0..reps {
        let (response, ns) = step(tracer, "engine.submit", op, |_| engine.submit(request));
        let response = response.map_err(|e| e.to_string())?;
        keep(0, ns);

        let (plan, ns) = step(tracer, "runtime.shard_plan", op, |_| {
            shard_plan_for(engine, request, dims)
        });
        keep(2, ns);
        shards = plan.len();

        let (executed, ns) = step(tracer, "runtime.execute", op, |_| {
            engine.pool().execute_plan_with(&plan, &bank, w, a)
        });
        executed.map_err(|e| e.to_string())?;
        keep(1, ns);

        let replay = tracer.span("walk.replay", op, |tracer| {
            replay_executor(engine, &plan, &bank, w, a, tracer, op)
        })?;
        for (slot, ns) in replay.parts.into_iter().enumerate() {
            keep(3 + slot, ns);
        }
        checksum_ok &= replay.checksum == response.checksum
            && replay.stats == response.stats
            && replay.values == response.values;
    }
    let [submit_ns, execute_ns, shard_plan_ns, slice_ns, panel_ns, kernel_ns, merge_ns, scatter_ns] =
        fastest;
    Ok(GemmWalk {
        submit_ns,
        execute_ns,
        shard_plan_ns,
        slice_ns,
        panel_ns,
        kernel_ns,
        merge_ns,
        scatter_ns,
        workers: engine.pool().threads().min(shards.max(1)) as f64,
        checksum_ok,
    })
}

struct Replay {
    /// slice, panel, kernel, merge, scatter — nanoseconds.
    parts: [f64; 5],
    values: Vec<i32>,
    checksum: u64,
    stats: Stats,
}

/// `execute_plan_with`, step by step on one thread.
fn replay_executor(
    engine: &Engine,
    plan: &ShardPlan,
    bank: &BankKernel,
    w: &QMatrix,
    a: &QMatrix,
    tracer: &mut Tracer,
    op: u64,
) -> Result<Replay, String> {
    let dims = plan.dims();

    // One operand tile per distinct band, shared by the band's shards.
    let mut row_bands: Vec<(std::ops::Range<usize>, QMatrix)> = Vec::new();
    let mut col_bands: Vec<(std::ops::Range<usize>, QMatrix)> = Vec::new();
    let (placed, slice_ns) = step(tracer, "quant.submatrix", op, |_| {
        plan.shards()
            .iter()
            .map(|shard| {
                let row = row_bands
                    .iter()
                    .position(|(r, _)| *r == shard.rows)
                    .unwrap_or_else(|| {
                        let tile = w.submatrix(shard.rows.clone(), 0..dims.k);
                        row_bands.push((shard.rows.clone(), tile));
                        row_bands.len() - 1
                    });
                let col = col_bands
                    .iter()
                    .position(|(c, _)| *c == shard.cols)
                    .unwrap_or_else(|| {
                        let tile = a.submatrix(0..dims.k, shard.cols.clone());
                        col_bands.push((shard.cols.clone(), tile));
                        col_bands.len() - 1
                    });
                (row, col)
            })
            .collect::<Vec<_>>()
    });

    let (panels, panel_ns) = step(tracer, "localut.resolve_panel", op, |_| {
        col_bands
            .iter()
            .map(|(_, a_tile)| bank.resolve_panel(a_tile))
            .collect::<Result<Vec<_>, _>>()
    });
    let panels = panels.map_err(|e| e.to_string())?;

    let (tiles, kernel_ns) = step(tracer, "localut.run_panel", op, |_| {
        placed
            .iter()
            .map(|&(row, col)| {
                bank.run_panel(&row_bands[row].1, &col_bands[col].1, panels[col].as_ref())
            })
            .collect::<Result<Vec<_>, _>>()
    });
    let tiles = tiles.map_err(|e| e.to_string())?;

    let (stats, merge_ns) = step(tracer, "pim-sim.stats_merge", op, |_| {
        let mut stats = Stats::default();
        match plan.rank_plan() {
            None => {
                for tile in &tiles {
                    stats.merge(&Stats::from_profile(&tile.profile));
                }
            }
            Some(ranks) => {
                let mut per_rank_bytes = Vec::with_capacity(ranks.populated());
                for owned in ranks.assignments() {
                    let mut rank = Stats::default();
                    for tile in &tiles[owned.clone()] {
                        rank.merge(&Stats::from_profile(&tile.profile));
                    }
                    per_rank_bytes.push(
                        u64::try_from(rank.dram_read_bytes + rank.dram_write_bytes)
                            .unwrap_or(u64::MAX),
                    );
                    stats.merge(&rank);
                }
                let link = engine.pool().system().rank_link_profile(&per_rank_bytes);
                stats.merge(&Stats::from_phase_ledger(link.ledger()));
            }
        }
        stats
    });

    let ((values, checksum), scatter_ns) = step(tracer, "runtime.scatter", op, |_| {
        let mut values = vec![0i32; dims.m * dims.n];
        for (shard, tile) in plan.shards().iter().zip(&tiles) {
            let tile_n = shard.cols.len();
            for (i, r) in shard.rows.clone().enumerate() {
                let dst = r * dims.n + shard.cols.start;
                values[dst..dst + tile_n]
                    .copy_from_slice(&tile.values[i * tile_n..(i + 1) * tile_n]);
            }
        }
        let checksum = runtime::values_checksum(&values);
        (values, checksum)
    });

    Ok(Replay {
        parts: [slice_ns, panel_ns, kernel_ns, merge_ns, scatter_ns],
        values,
        checksum,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shares_normalize_to_one_and_name_the_top_layer() {
        let shares = Shares {
            quant: 1.0,
            localut_kernel: 5.0,
            runtime: 1.0,
            engine: 1.0,
            unattributed: 2.0,
            ..Shares::default()
        };
        let normal = shares.normalized();
        assert_eq!(normal.total(), 1.0);
        assert_eq!(normal.localut_kernel, 0.625);
        // The unattributed part is a slice of the total, not an extra layer.
        assert_eq!(normal.unattributed, 0.25);
        assert_eq!(normal.top_layer(), ("localut_kernel", 0.625));
        assert_eq!(Shares::default().normalized(), Shares::default());
    }

    #[test]
    fn gemm_walk_shares_sum_to_the_submit_time() {
        let walk = GemmWalk {
            submit_ns: 1_000.0,
            execute_ns: 900.0,
            shard_plan_ns: 20.0,
            slice_ns: 50.0,
            panel_ns: 30.0,
            kernel_ns: 1_200.0,
            merge_ns: 40.0,
            scatter_ns: 60.0,
            workers: 2.0,
            checksum_ok: true,
        };
        // execute 900 = slice 50 + panel 30 + kernel 600 + merge 40 + self 180
        assert_eq!(walk.runtime_self_ns(), 180.0);
        let shares = walk.shares();
        assert_eq!(shares.total(), 1_000.0);
        assert_eq!(shares.runtime, 200.0);
        assert_eq!(shares.engine, 80.0);
        assert_eq!(shares.unattributed, 120.0);
    }

    #[test]
    fn the_walk_reaches_the_engines_checksum() {
        let engine = Engine::builder().threads(2).banks(4).build();
        let request = GemmRequest::new(
            QMatrix::pseudo_random(32, 24, NumericFormat::Bipolar, 5),
            QMatrix::pseudo_random(24, 8, NumericFormat::Int(3), 6),
        );
        let mut tracer = Tracer::on(Instant::now());
        let walk = walk_gemm(
            &engine,
            &request,
            &mut LutPool::default(),
            &mut tracer,
            0,
            2,
        )
        .unwrap();
        assert!(walk.checksum_ok);
        assert!(walk.submit_ns > 0.0 && walk.kernel_ns > 0.0);
        // Every step left a span under the replay.
        assert!(tracer
            .spans()
            .iter()
            .any(|s| s.name == "localut.run_panel" && s.parent.is_some()));
    }
}
