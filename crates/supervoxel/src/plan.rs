//! Iteration-invariant per-SV plans.
//!
//! The paper's central amortization (Sections 4.1/4.3) is a *one-time*
//! layout transform: the SVB band shapes, the chunk decomposition, the
//! `u8`-quantized A chunks, and the coalescing behaviour of the
//! transformed layout all depend only on the system matrix and the
//! tiling — never on the image — yet a naive driver re-derives them on
//! every voxel visit of every iteration. An [`SvPlanSet`] computes all
//! of it once (in parallel, with the deterministic `mbir-parallel`
//! engine), together with the lane backend's flat A/offset tables
//! ([`LaneTables`]), and is then shared by reference across iterations
//! by both the GPU-ICD and PSV-ICD drivers — and across drivers for
//! different scans, since nothing in it depends on the weights.
//!
//! The plan is the only source of this state: the drivers never
//! re-chunk or re-quantize a column during iterations. Every cached
//! quantity is byte-for-byte what a per-visit recomputation would
//! produce (pinned by `cached_tallies_match_fresh_recomputation` and
//! the `lanes` tests).

use crate::chunks::chunk_column;
use crate::lanes::LaneTables;
use crate::quant::QuantizedColumn;
use crate::svb::{SvbLayout, SvbShape};
use crate::tiling::Tiling;
use ct_core::sysmat::SystemMatrix;
use gpu_sim::coalesce::affine_transactions;

/// The iteration-invariant knobs a plan set is specialized for —
/// derived from the driver's options at construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanConfig {
    /// Chunk decomposition width of the transformed layout, or `None`
    /// for the naive layout (no chunk tallies cached).
    pub chunk_width: Option<usize>,
    /// A-matrix quantization bit width, or `None` to keep f32 columns
    /// (no quantized chunks cached).
    pub quant_bits: Option<u32>,
    /// SVB layout the driver gathers with; fixes the cached byte sizes.
    pub layout: SvbLayout,
}

/// Everything about one voxel's column that iterations reuse.
#[derive(Debug, Clone)]
pub struct VoxelPlan {
    /// Linear image index of the voxel.
    pub voxel: usize,
    /// Column entries (dot-product length of one visit).
    pub nnz: u32,
    /// Dense elements the transformed kernel streams for this voxel:
    /// the summed chunk areas when chunking, else `nnz`.
    pub dense: u64,
    /// Chunk descriptors read per visit (chunk count when chunking,
    /// else the view count).
    pub descriptors: u32,
    /// `sum A^2` of the column (`SystemMatrix::column_norm_sq`).
    pub norm_sq: f32,
    /// The column quantized once, replacing the two per-visit
    /// `quantize_bits` calls (theta accumulation + write-back).
    pub quant: Option<QuantizedColumn>,
}

/// Warp transaction counts for streaming one row of the transformed
/// per-SV data, precomputed from the closed-form coalescer. These are
/// properties of the padded layout alone — the whole point of the
/// transform is that they stay small and fixed across iterations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowTransactions {
    /// Transactions for one padded SVB error row read as f64 pairs.
    pub e_row: u32,
    /// Transactions for one padded SVB weight row read as f32.
    pub w_row: u32,
    /// Transactions for one A-chunk row (`chunk_width` lanes) at the
    /// quantized (u8) or full (f32) element width.
    pub a_row: u32,
}

/// One SuperVoxel's immutable plan.
#[derive(Debug, Clone)]
pub struct SvPlan {
    /// SV id within the tiling.
    pub sv: usize,
    /// The SV's band shape over the sinogram.
    pub shape: SvbShape,
    /// Per-voxel cached state, in `tiling.voxels(sv)` order.
    pub voxels: Vec<VoxelPlan>,
    /// One f32 buffer's bytes in the configured layout
    /// (`shape.bytes(config.layout)`).
    pub svb_bytes: f64,
    /// Mean band width in channels over views.
    pub band_width: f64,
    /// Coalescing transaction counts of the SV's padded rows (only
    /// when chunking; the naive layout has no fixed row shape).
    pub row_tx: Option<RowTransactions>,
    /// The lane backend's flat `(adq, idx)` tables of every voxel,
    /// bound to this SV's band and the configured layout.
    pub lanes: LaneTables,
}

impl SvPlan {
    /// Build the plan for one SV.
    pub fn build(a: &SystemMatrix, tiling: &Tiling, sv: usize, config: PlanConfig) -> SvPlan {
        let shape = SvbShape::compute(a, tiling, sv);
        let nviews = shape.num_views();
        let svb_bytes = shape.bytes(config.layout) as f64;
        let band_width = shape.width.iter().map(|&w| w as f64).sum::<f64>() / nviews.max(1) as f64;
        let voxels: Vec<VoxelPlan> = tiling
            .voxels(sv)
            .map(|j| {
                let col = a.column(j);
                let (dense, descriptors) = match config.chunk_width {
                    Some(w) => {
                        let chunks = chunk_column(&col, w);
                        (chunks.iter().map(|c| c.len() as u64).sum(), chunks.len() as u32)
                    }
                    None => (col.nnz() as u64, nviews as u32),
                };
                VoxelPlan {
                    voxel: j,
                    nnz: col.nnz() as u32,
                    dense,
                    descriptors,
                    norm_sq: col.values_flat().iter().map(|&v| v * v).sum(),
                    quant: config.quant_bits.map(|bits| QuantizedColumn::quantize_bits(&col, bits)),
                }
            })
            .collect();
        let row_tx = config.chunk_width.map(|w| {
            let a_bytes = if config.quant_bits.is_some() { 1 } else { 4 };
            RowTransactions {
                e_row: affine_transactions(0, 8, 8, (shape.padded_width / 2).max(1) as u32),
                w_row: affine_transactions(0, 4, 4, shape.padded_width.max(1) as u32),
                a_row: affine_transactions(0, a_bytes, a_bytes, w as u32),
            }
        });
        let lanes = LaneTables::build(a, &voxels, &shape, config.layout);
        SvPlan { sv, shape, voxels, svb_bytes, band_width, row_tx, lanes }
    }

    /// Per-voxel plans, in `tiling.voxels(sv)` order.
    pub fn voxels(&self) -> &[VoxelPlan] {
        &self.voxels
    }
}

/// The full set of per-SV plans for one tiling — built once at driver
/// setup, shared by reference across iterations.
#[derive(Debug, Clone)]
pub struct SvPlanSet {
    config: PlanConfig,
    tiling: Tiling,
    plans: Vec<SvPlan>,
}

impl SvPlanSet {
    /// Build every SV's plan in parallel on `threads` workers (0 = all
    /// available). `mbir_parallel::par_map` preserves SV order, so the
    /// result is identical at any thread count.
    pub fn build(a: &SystemMatrix, tiling: &Tiling, config: PlanConfig, threads: usize) -> Self {
        let plans = mbir_parallel::par_map(threads, tiling.len(), |sv| {
            SvPlan::build(a, tiling, sv, config)
        });
        SvPlanSet { config, tiling: tiling.clone(), plans }
    }

    /// The configuration the plans were specialized for.
    pub fn config(&self) -> PlanConfig {
        self.config
    }

    /// The tiling the plans cover.
    pub fn tiling(&self) -> &Tiling {
        &self.tiling
    }

    /// All plans, indexed by SV id.
    pub fn plans(&self) -> &[SvPlan] {
        &self.plans
    }

    /// One SV's plan.
    pub fn plan(&self, sv: usize) -> &SvPlan {
        &self.plans[sv]
    }

    /// Approximate resident bytes of the cached state (diagnostics).
    pub fn bytes(&self) -> usize {
        self.plans
            .iter()
            .map(|p| {
                let shape =
                    4 * (p.shape.first.len() + p.shape.width.len()) + 4 * p.shape.row_offset.len();
                let vox: usize = p
                    .voxels
                    .iter()
                    .map(|v| {
                        std::mem::size_of::<VoxelPlan>() + v.quant.as_ref().map_or(0, |q| q.bytes())
                    })
                    .sum();
                shape + vox + p.lanes.bytes()
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ct_core::geometry::Geometry;
    use gpu_sim::coalesce::transactions;

    fn setup() -> (Geometry, SystemMatrix, Tiling) {
        let g = Geometry::tiny_scale();
        let a = SystemMatrix::compute(&g);
        let t = Tiling::new(g.grid, 8);
        (g, a, t)
    }

    fn chunked_config() -> PlanConfig {
        PlanConfig { chunk_width: Some(16), quant_bits: Some(8), layout: SvbLayout::Transposed }
    }

    #[test]
    fn cached_tallies_match_fresh_recomputation() {
        // The drivers read every column's tallies and quantized codes
        // from the plan; this is the reference for what a per-visit
        // recomputation would produce, for every plan shape they use.
        let (g, a, t) = setup();
        for (chunk_width, layout) in
            [(Some(16), SvbLayout::Transposed), (None, SvbLayout::SensorMajor)]
        {
            for quant_bits in [Some(8), None] {
                let config = PlanConfig { chunk_width, quant_bits, layout };
                let set = SvPlanSet::build(&a, &t, config, 1);
                for sv in 0..t.len() {
                    let plan = set.plan(sv);
                    let fresh_shape = SvbShape::compute(&a, &t, sv);
                    assert_eq!(plan.shape.first, fresh_shape.first);
                    assert_eq!(plan.shape.width, fresh_shape.width);
                    assert_eq!(plan.svb_bytes, fresh_shape.bytes(config.layout) as f64);
                    assert_eq!(plan.row_tx.is_some(), config.chunk_width.is_some(), "{config:?}");
                    for (vp, j) in plan.voxels().iter().zip(t.voxels(sv)) {
                        assert_eq!(vp.voxel, j);
                        let col = a.column(j);
                        assert_eq!(vp.nnz as usize, col.nnz());
                        let (dense, descriptors) = match chunk_width {
                            Some(w) => {
                                let chunks = chunk_column(&col, w);
                                (chunks.iter().map(|c| c.len() as u64).sum(), chunks.len())
                            }
                            None => (col.nnz() as u64, g.num_views),
                        };
                        assert_eq!(vp.dense, dense, "{config:?} voxel {j}");
                        assert_eq!(vp.descriptors as usize, descriptors, "{config:?} voxel {j}");
                        assert_eq!(vp.norm_sq, a.column_norm_sq(j));
                        assert_eq!(vp.quant.is_some(), config.quant_bits.is_some(), "{config:?}");
                        if let (Some(q), Some(bits)) = (&vp.quant, quant_bits) {
                            let fresh_q = QuantizedColumn::quantize_bits(&col, bits);
                            assert_eq!(q.scale, fresh_q.scale);
                            assert_eq!(q.codes, fresh_q.codes);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn parallel_build_is_deterministic() {
        let (_, a, t) = setup();
        let config = chunked_config();
        let s1 = SvPlanSet::build(&a, &t, config, 1);
        let s8 = SvPlanSet::build(&a, &t, config, 8);
        assert_eq!(s1.plans().len(), s8.plans().len());
        for (p1, p8) in s1.plans().iter().zip(s8.plans()) {
            assert_eq!(p1.sv, p8.sv);
            assert_eq!(p1.shape.first, p8.shape.first);
            assert_eq!(p1.svb_bytes, p8.svb_bytes);
            assert_eq!(p1.band_width, p8.band_width);
            for (v1, v8) in p1.voxels().iter().zip(p8.voxels()) {
                assert_eq!(v1.voxel, v8.voxel);
                assert_eq!(v1.dense, v8.dense);
                assert_eq!(
                    v1.quant.as_ref().map(|q| &q.codes),
                    v8.quant.as_ref().map(|q| &q.codes)
                );
            }
        }
    }

    #[test]
    fn naive_config_caches_view_tallies() {
        let (g, a, t) = setup();
        let set = SvPlanSet::build(
            &a,
            &t,
            PlanConfig { chunk_width: None, quant_bits: None, layout: SvbLayout::SensorMajor },
            0,
        );
        let plan = set.plan(1);
        assert!(plan.row_tx.is_none());
        for vp in plan.voxels() {
            assert_eq!(vp.dense, vp.nnz as u64);
            assert_eq!(vp.descriptors as usize, g.num_views);
            assert!(vp.quant.is_none());
        }
    }

    #[test]
    fn row_transactions_match_materialized_addresses() {
        let (_, a, t) = setup();
        let set = SvPlanSet::build(&a, &t, chunked_config(), 0);
        for sv in [0usize, t.len() - 1] {
            let plan = set.plan(sv);
            let tx = plan.row_tx.expect("chunked plan has row transactions");
            let pw = plan.shape.padded_width;
            // e row: padded_width/2 lanes of f64 pairs.
            let e_addrs: Vec<u64> = (0..(pw / 2).max(1) as u64).map(|i| i * 8).collect();
            assert_eq!(tx.e_row, transactions(&e_addrs, 8));
            // w row: padded_width lanes of f32.
            let w_addrs: Vec<u64> = (0..pw.max(1) as u64).map(|i| i * 4).collect();
            assert_eq!(tx.w_row, transactions(&w_addrs, 4));
            // A chunk row: chunk_width lanes of u8.
            let a_addrs: Vec<u64> = (0..16u64).collect();
            assert_eq!(tx.a_row, transactions(&a_addrs, 1));
        }
    }

    #[test]
    fn plan_bytes_accounts_quantized_columns() {
        let (_, a, t) = setup();
        let quant = SvPlanSet::build(&a, &t, chunked_config(), 0);
        let plain = SvPlanSet::build(
            &a,
            &t,
            PlanConfig { chunk_width: Some(16), quant_bits: None, layout: SvbLayout::Transposed },
            0,
        );
        assert!(quant.bytes() > plain.bytes());
    }
}
