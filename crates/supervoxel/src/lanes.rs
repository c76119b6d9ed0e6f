//! One-time folded tables for the SIMD lane backend's ICD inner loop.
//!
//! The theta accumulation (Algorithm 1 steps 3-6) folds three streams
//! per element: `theta1 -= w * A * e`, `theta2 += w * A * A`. Of those,
//! only `e` changes between voxel visits — the weights and the system
//! matrix are iteration-invariant, and on the default quantized path
//! the dequantization `code as f32 * scale / levels` costs a divide
//! per element per visit. On top of that, the run-major walk pays
//! per-view bookkeeping (band indexing, run slicing) for runs that
//! average only ~2-3 channels, which is where a naive staged lane
//! path loses its vector win. A [`LaneTables`] folds everything
//! invariant once at driver setup:
//!
//! - `wa[k] = w[k] * a[k]` — the weighted A entry,
//! - `waa[k] = (w[k] * a[k]) * a[k]` — its theta2 contribution,
//! - `adq[k] = a[k]` — the (dequantized) A entry, for the write-back
//!   `e[k] -= a[k] * delta`,
//! - `idx[k]` — the element's offset in the SV's buffered band, which
//!   depends only on the band shape and layout,
//!
//! so a visit is two branchless element-wise loops: gather `e` by
//! `idx` and run the two-flop 8-wide theta kernel, then scatter the
//! committed delta back through the same offsets.
//!
//! The fold is bitwise-neutral: Rust parses `w * a * e` as
//! `(w * a) * e`, so memoizing the rounded product `w * a` (with the
//! canonical dequantization already applied) leaves every per-element
//! expression tree of the scalar reference walk unchanged — pinned by
//! the `theta_tables_*` proptests in `mbir-simd` and end-to-end by
//! `tests/determinism_simd.rs`.

use crate::plan::SvPlanSet;
use crate::quant::QuantizedColumn;
use crate::svb::{SvbLayout, SvbShape};
use ct_core::sinogram::Sinogram;
use ct_core::sysmat::{ColumnView, SystemMatrix};

/// Per-voxel folded tables, in `values_flat` element order, bound to
/// one SV band shape and layout (the `idx` offsets).
#[derive(Debug, Clone, Default)]
pub struct LaneTables {
    /// `w * a` per element (dequantized `a` for quantized columns).
    pub wa: Vec<f32>,
    /// `(w * a) * a` per element — the theta2 summand.
    pub waa: Vec<f32>,
    /// The A entry per element, exactly as the per-visit walk sees it:
    /// dequantized in canonical order for quantized columns, the raw
    /// `values_flat` entry otherwise.
    pub adq: Vec<f32>,
    /// Offset of the element in the SV's buffered band.
    pub idx: Vec<u32>,
}

impl LaneTables {
    /// Fold one column against the weight sinogram and its SV's band
    /// geometry. `quant` carries the quantized codes when the driver
    /// runs the u8 A-matrix path.
    pub fn build(
        col: &ColumnView<'_>,
        quant: Option<&QuantizedColumn>,
        w: &Sinogram,
        shape: &SvbShape,
        layout: SvbLayout,
    ) -> LaneTables {
        let values = col.values_flat();
        let n = values.len();
        let mut t = LaneTables {
            wa: Vec::with_capacity(n),
            waa: Vec::with_capacity(n),
            adq: Vec::with_capacity(n),
            idx: Vec::with_capacity(n),
        };
        let mut k = 0usize;
        for v in 0..col.num_views() {
            let (fc, run) = col.run(v);
            let wv = w.view(v);
            for kk in 0..run {
                let a = match quant {
                    Some(q) => q.dequant(k),
                    None => values[k],
                };
                let wa = wv[fc + kk] * a;
                t.wa.push(wa);
                t.waa.push(wa * a);
                t.adq.push(a);
                t.idx.push(shape.index_of(layout, v, fc + kk) as u32);
                k += 1;
            }
        }
        t
    }

    /// Fold every voxel of a plan set's tiling, in parallel on
    /// `threads` workers (0 = all; deterministic — per-SV folds are
    /// independent and `par_map` preserves SV order). Quantization
    /// comes from each voxel plan's `quant` and the band offsets from
    /// the plan's layout, so the fold reads A exactly as the driver's
    /// per-visit walk does.
    ///
    /// Indexed `[sv][vi]` with `vi` the voxel's position in
    /// `plan.plan(sv).voxels()` — NOT by linear voxel id: adjacent SVs
    /// share boundary voxels, and a shared voxel's `idx` offsets are
    /// relative to the band shape of the SV visiting it, so one voxel
    /// needs a distinct fold per covering SV.
    pub fn build_for_plan(
        a: &SystemMatrix,
        w: &Sinogram,
        plan: &SvPlanSet,
        threads: usize,
    ) -> Vec<Vec<LaneTables>> {
        let layout = plan.config().layout;
        mbir_parallel::par_map(threads, plan.plans().len(), |sv| {
            let sp = plan.plan(sv);
            sp.voxels()
                .iter()
                .map(|vp| {
                    let col = a.column(vp.voxel);
                    LaneTables::build(&col, vp.quant.as_ref(), w, &sp.shape, layout)
                })
                .collect()
        })
    }

    /// Elements in the fold.
    pub fn len(&self) -> usize {
        self.idx.len()
    }

    /// Whether the fold is empty (a voxel with no footprint).
    pub fn is_empty(&self) -> bool {
        self.idx.is_empty()
    }

    /// Resident bytes of this voxel's tables.
    pub fn bytes(&self) -> usize {
        4 * (self.wa.len() + self.waa.len() + self.adq.len() + self.idx.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::PlanConfig;
    use crate::svb::Svb;
    use crate::tiling::Tiling;
    use ct_core::geometry::Geometry;
    use ct_core::phantom::Phantom;

    fn setup() -> (Geometry, SystemMatrix, Tiling, Sinogram, Sinogram) {
        let g = Geometry::tiny_scale();
        let a = SystemMatrix::compute(&g);
        let t = Tiling::new(g.grid, 8);
        let truth = Phantom::water_cylinder(0.6).render(g.grid, 1);
        let y = a.forward(&truth);
        let mut w = Sinogram::filled(&g, 1.0);
        for v in 0..g.num_views {
            for (c, val) in w.view_mut(v).iter_mut().enumerate() {
                *val = 0.5 + ((v * 31 + c * 7) % 13) as f32 * 0.1;
            }
        }
        (g, a, t, y, w)
    }

    fn plan_for(
        a: &SystemMatrix,
        t: &Tiling,
        quant_bits: Option<u32>,
        layout: SvbLayout,
    ) -> SvPlanSet {
        SvPlanSet::build(a, t, PlanConfig { chunk_width: None, quant_bits, layout }, 1)
    }

    #[test]
    fn tabled_thetas_match_scalar_walk_bitwise() {
        let (_, a, t, y, w) = setup();
        let layout = SvbLayout::Transposed;
        let plan = plan_for(&a, &t, None, layout);
        let tables = LaneTables::build_for_plan(&a, &w, &plan, 1);
        for (sv, sv_tables) in tables.iter().enumerate() {
            let svb = Svb::gather(&plan.plan(sv).shape, layout, &y, &w);
            for (vi, j) in t.voxels(sv).enumerate() {
                let col = a.column(j);
                let reference = svb.thetas(&col, mbir_simd::SimdBackend::Scalar);
                let tabled = svb.thetas_tabled(&sv_tables[vi]);
                assert_eq!(reference.theta1.to_bits(), tabled.theta1.to_bits(), "voxel {j}");
                assert_eq!(reference.theta2.to_bits(), tabled.theta2.to_bits(), "voxel {j}");
            }
        }
    }

    #[test]
    fn tabled_quant_thetas_and_apply_match_scalar_walk_bitwise() {
        let (_, a, t, y, w) = setup();
        let layout = SvbLayout::SensorMajor;
        let plan = plan_for(&a, &t, Some(8), layout);
        let tables = LaneTables::build_for_plan(&a, &w, &plan, 1);
        let sv = t.len() / 2;
        let mut svb = Svb::gather(&plan.plan(sv).shape, layout, &y, &w);
        let mut svb_ref = svb.clone();
        for (vi, j) in t.voxels(sv).enumerate() {
            let col = a.column(j);
            let q = QuantizedColumn::quantize_bits(&col, 8);
            let reference = svb_ref.thetas_quant(&col, &q, mbir_simd::SimdBackend::Scalar);
            let tabled = svb.thetas_tabled(&tables[sv][vi]);
            assert_eq!(reference.theta1.to_bits(), tabled.theta1.to_bits(), "voxel {j}");
            assert_eq!(reference.theta2.to_bits(), tabled.theta2.to_bits(), "voxel {j}");
            let delta = 0.001 + (j % 5) as f32 * 1e-4;
            svb_ref.apply_quant_delta(&col, &q, delta, mbir_simd::SimdBackend::Scalar);
            svb.apply_tabled(&tables[sv][vi], delta);
            let eb: Vec<u32> = svb.e.iter().map(|x| x.to_bits()).collect();
            let rb: Vec<u32> = svb_ref.e.iter().map(|x| x.to_bits()).collect();
            assert_eq!(eb, rb, "voxel {j} write-back");
        }
    }

    #[test]
    fn build_is_thread_count_invariant() {
        let (_, a, t, _, w) = setup();
        let layout = SvbLayout::Transposed;
        let plan = plan_for(&a, &t, Some(8), layout);
        let t1 = LaneTables::build_for_plan(&a, &w, &plan, 1);
        let t4 = LaneTables::build_for_plan(&a, &w, &plan, 4);
        assert_eq!(t1.len(), t4.len());
        for (sv1, sv4) in t1.iter().zip(&t4) {
            assert_eq!(sv1.len(), sv4.len());
            for (x, y) in sv1.iter().zip(sv4) {
                assert_eq!(x.wa, y.wa);
                assert_eq!(x.waa, y.waa);
                assert_eq!(x.adq, y.adq);
                assert_eq!(x.idx, y.idx);
            }
        }
    }
}
