//! Flat lane tables for the SIMD lane backend's ICD inner loop.
//!
//! The theta accumulation (Algorithm 1 steps 3-6) folds three streams
//! per element: `theta1 -= w * A * e`, `theta2 += w * A * A`. The
//! run-major walk pays per-view bookkeeping (band indexing, run
//! slicing) for runs that average only ~2-3 channels, and on the
//! default quantized path a divide per element for the dequantization
//! `code as f32 * scale / levels`. The tables split what a visit needs
//! by what it depends on:
//!
//! - **A and the band only → the plan.** A [`LaneTables`] holds, per
//!   element of every voxel of one SV, `adq[k]` (the A entry exactly
//!   as the per-visit walk dequantizes it) and `idx[k]` (its offset in
//!   the SV's buffered band, fixed by the band shape and layout). It
//!   is built once in [`crate::SvPlanSet::build`] and shared by every
//!   driver through the plan's `Arc`: 8 B per element per plan.
//! - **The weights → the driver.** `theta2 = Σ (w * a) * a` does not
//!   depend on `e`, so [`theta2_per_voxel`] computes it once per voxel
//!   when a driver is built: 4 B per voxel per driver.
//!
//! A visit is then one branchless gather through `idx` for `theta1`
//! (`mbir_simd::theta_gather_lanes` over the SVB's `e` and `w` bands)
//! and one scatter `e[idx[k]] -= adq[k] * delta` for the write-back.
//!
//! The split is bitwise-neutral: the gather computes `w[q] * a * e[q]`
//! with the same `a`, the same cell `q`, the same canonical lane
//! `k % 8` and the same tree as the run-major walk, and the per-voxel
//! `theta2` is the walk's theta2 half summed over the same stream.
//! Pinned per voxel by the tests below and end to end by
//! `tests/determinism_simd.rs`.

use crate::plan::{SvPlanSet, VoxelPlan};
use crate::svb::{SvbLayout, SvbShape};
use ct_core::sinogram::Sinogram;
use ct_core::sysmat::SystemMatrix;

/// One SV's flat tables, in plan-voxel order and, within a voxel, in
/// `values_flat` element order. Bound to the SV's band shape and
/// layout (the `idx` offsets): adjacent SVs share boundary voxels, and
/// a shared voxel's offsets are relative to the band of the SV
/// visiting it, so every covering SV holds its own copy.
#[derive(Debug, Clone)]
pub struct LaneTables {
    /// The A entry per element, exactly as the per-visit walk sees it:
    /// dequantized in canonical order for quantized columns, the raw
    /// `values_flat` entry otherwise.
    pub adq: Vec<f32>,
    /// Offset of the element in the SV's buffered band.
    pub idx: Vec<u32>,
    /// Per plan voxel: its first element (length `voxels + 1`).
    start: Vec<u32>,
}

impl LaneTables {
    /// Fold the columns of one SV's voxel plans against its band
    /// geometry. Quantization comes from each voxel plan's `quant`, so
    /// the fold reads A exactly as the per-visit walk does.
    pub fn build(
        a: &SystemMatrix,
        voxels: &[VoxelPlan],
        shape: &SvbShape,
        layout: SvbLayout,
    ) -> LaneTables {
        let n: usize = voxels.iter().map(|vp| vp.nnz as usize).sum();
        assert!(u32::try_from(n).is_ok(), "SV too large for u32 lane offsets");
        let mut t = LaneTables {
            adq: Vec::with_capacity(n),
            idx: Vec::with_capacity(n),
            start: Vec::with_capacity(voxels.len() + 1),
        };
        t.start.push(0);
        for vp in voxels {
            let col = a.column(vp.voxel);
            let values = col.values_flat();
            let mut k = 0usize;
            for v in 0..col.num_views() {
                let (fc, run) = col.run(v);
                for c in fc..fc + run {
                    t.adq.push(vp.quant.as_ref().map_or(values[k], |q| q.dequant(k)));
                    t.idx.push(shape.index_of(layout, v, c) as u32);
                    k += 1;
                }
            }
            t.start.push(t.idx.len() as u32);
        }
        t
    }

    /// The `(adq, idx)` slices of the voxel at position `vi` of the
    /// SV's plan-voxel list.
    #[inline]
    pub fn voxel(&self, vi: usize) -> (&[f32], &[u32]) {
        let r = self.start[vi] as usize..self.start[vi + 1] as usize;
        (&self.adq[r.clone()], &self.idx[r])
    }

    /// Resident bytes of the tables.
    pub fn bytes(&self) -> usize {
        4 * (self.adq.len() + self.idx.len() + self.start.len())
    }
}

/// Per linear voxel id: `theta2 = Σ (w * a) * a` over the plan's lane
/// tables, in canonical lane order ([`mbir::update::theta2_gather`],
/// the helper sequential ICD's flat walk uses too). Computed in
/// parallel on `threads` workers (0 = all) from each voxel's owning SV
/// ([`crate::Tiling::owner_of`]); every covering SV would give the same
/// bits, since the band holds the global weights and the column is
/// quantized per voxel. Thread-count invariant.
pub fn theta2_per_voxel(plan: &SvPlanSet, w: &Sinogram, threads: usize) -> Vec<f32> {
    let tiling = plan.tiling();
    let layout = plan.config().layout;
    let per_sv = mbir_parallel::par_map(threads, plan.plans().len(), |sv| {
        let sp = plan.plan(sv);
        let band = sp.shape.gather_band(layout, w);
        sp.voxels()
            .iter()
            .enumerate()
            .filter(|(_, vp)| tiling.owner_of(vp.voxel) == sv)
            .map(|(vi, vp)| {
                let (adq, idx) = sp.lanes.voxel(vi);
                (vp.voxel, mbir::update::theta2_gather(adq, idx, &band))
            })
            .collect::<Vec<_>>()
    });
    let mut theta2 = vec![0.0f32; tiling.grid().num_voxels()];
    for (j, t2) in per_sv.into_iter().flatten() {
        theta2[j] = t2;
    }
    theta2
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::PlanConfig;
    use crate::svb::Svb;
    use crate::tiling::Tiling;
    use ct_core::geometry::Geometry;
    use ct_core::phantom::Phantom;
    use mbir_simd::SimdBackend;

    fn setup() -> (SystemMatrix, Tiling, Sinogram, Sinogram) {
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
        (a, t, y, w)
    }

    fn configs() -> impl Iterator<Item = PlanConfig> {
        [(Some(16), SvbLayout::Transposed), (None, SvbLayout::SensorMajor)].into_iter().flat_map(
            |(chunk_width, layout)| {
                [Some(8), None].map(|quant_bits| PlanConfig { chunk_width, quant_bits, layout })
            },
        )
    }

    fn bits(x: &[f32]) -> Vec<u32> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn tables_match_scalar_walk_bitwise_for_every_sv_and_voxel() {
        // Plan tables plus the per-voxel theta2 must give the scalar
        // walk's thetas, and the tabled write-back its band, for every
        // voxel of every SV (shared boundary voxels included) under
        // every plan configuration.
        let (a, t, y, w) = setup();
        for config in configs() {
            let plan = SvPlanSet::build(&a, &t, config, 1);
            let theta2 = theta2_per_voxel(&plan, &w, 1);
            for sv in 0..t.len() {
                let sp = plan.plan(sv);
                let mut svb = Svb::gather(&sp.shape, config.layout, &y, &w);
                let mut svb_ref = svb.clone();
                for (vi, vp) in sp.voxels().iter().enumerate() {
                    let j = vp.voxel;
                    let col = a.column(j);
                    let (adq, idx) = sp.lanes.voxel(vi);
                    let reference = match &vp.quant {
                        Some(q) => svb_ref.thetas_quant(&col, q, SimdBackend::Scalar),
                        None => svb_ref.thetas(&col, SimdBackend::Scalar),
                    };
                    let theta1 = mbir_simd::theta_gather_lanes(adq, idx, &svb.e, &svb.w);
                    assert_eq!(
                        reference.theta1.to_bits(),
                        theta1.to_bits(),
                        "{config:?} sv {sv} voxel {j} theta1"
                    );
                    assert_eq!(
                        reference.theta2.to_bits(),
                        theta2[j].to_bits(),
                        "{config:?} sv {sv} voxel {j} theta2"
                    );
                    let delta = 0.001 + (j % 5) as f32 * 1e-4;
                    match &vp.quant {
                        Some(q) => svb_ref.apply_quant_delta(&col, q, delta, SimdBackend::Scalar),
                        None => svb_ref.apply_col_delta(&col, delta, SimdBackend::Scalar),
                    }
                    mbir_simd::sub_scaled_gather(&mut svb.e, adq, idx, delta);
                    assert_eq!(bits(&svb.e), bits(&svb_ref.e), "{config:?} sv {sv} voxel {j}");
                }
            }
        }
    }

    #[test]
    fn theta2_is_thread_count_invariant_and_covers_every_voxel() {
        let (a, t, _, w) = setup();
        let plan = SvPlanSet::build(&a, &t, configs().next().unwrap(), 1);
        let t1 = theta2_per_voxel(&plan, &w, 1);
        let t4 = theta2_per_voxel(&plan, &w, 4);
        assert_eq!(bits(&t1), bits(&t4));
        assert_eq!(t1.len(), t.grid().num_voxels());
        for (j, &t2) in t1.iter().enumerate() {
            assert_eq!(t2 > 0.0, a.column(j).nnz() > 0, "voxel {j}");
        }
    }
}
