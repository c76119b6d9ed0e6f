//! SuperVoxel buffers (SVBs).
//!
//! An SVB is a per-SV copy of the sinogram band the SV's voxels touch:
//! for each view, the union of the member voxels' channel runs. Copying
//! it out of the global sinogram linearizes the sinusoidal access
//! pattern (PPoPP 2016, Fig. 2 of the paper). Both the error and the
//! weight sinograms are buffered.
//!
//! Two layouts are supported, mirroring paper Section 4.1:
//!
//! - [`SvbLayout::SensorMajor`]: the original packed layout — each
//!   view's band stored back to back with no padding (rows start at
//!   arbitrary offsets; GPU accesses are uncoalesced).
//! - [`SvbLayout::Transposed`]: the transformed layout — one row per
//!   view, all rows padded to the same width and aligned to 32-byte
//!   boundaries ("we make the SVB perfectly rectangular by
//!   zero-padding, and place each row at an aligned address").

use std::cell::RefCell;

use crate::quant::QuantizedColumn;
use crate::tiling::Tiling;
use ct_core::sinogram::Sinogram;
use ct_core::sysmat::{ColumnView, SystemMatrix};
use mbir::update::{Thetas, WeightedError};
use mbir_simd::SimdBackend;

/// Floats per 32-byte alignment sector; padded row widths are rounded
/// up to this.
const ALIGN_F32: usize = 8;

/// How an SVB lays out its `(view, channel)` band in memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SvbLayout {
    /// Packed per-view bands, no padding (the CPU/naive-GPU layout).
    SensorMajor,
    /// Rectangular, zero-padded, 32B-aligned rows (the transformed
    /// layout of paper Fig. 4b).
    Transposed,
}

/// The geometry-static footprint of one SV's band over the sinogram.
#[derive(Debug, Clone)]
pub struct SvbShape {
    /// Per view: first channel of the band.
    pub first: Vec<u32>,
    /// Per view: band width in channels (unpadded).
    pub width: Vec<u32>,
    /// Per view: offset of the view's band in the packed layout
    /// (length `num_views + 1`).
    pub row_offset: Vec<u32>,
    /// Max band width over views, rounded up for row alignment.
    pub padded_width: usize,
}

impl SvbShape {
    /// Compute the band of SV `sv` by scanning its member voxels' runs
    /// in the system matrix.
    pub fn compute(a: &SystemMatrix, tiling: &Tiling, sv: usize) -> SvbShape {
        let nviews = a.geometry().num_views;
        let mut first = vec![u32::MAX; nviews];
        let mut last = vec![0u32; nviews];
        for j in tiling.voxels(sv) {
            let col = a.column(j);
            for v in 0..nviews {
                let (fc, n) = col.run(v);
                if n == 0 {
                    continue;
                }
                first[v] = first[v].min(fc as u32);
                last[v] = last[v].max((fc + n) as u32);
            }
        }
        let mut width = vec![0u32; nviews];
        let mut max_w = 0usize;
        for v in 0..nviews {
            if first[v] == u32::MAX {
                first[v] = 0;
            } else {
                width[v] = last[v] - first[v];
                max_w = max_w.max(width[v] as usize);
            }
        }
        let mut row_offset = Vec::with_capacity(nviews + 1);
        let mut off = 0u32;
        row_offset.push(0);
        for &w in &width {
            off += w;
            row_offset.push(off);
        }
        let padded_width = max_w.div_ceil(ALIGN_F32) * ALIGN_F32;
        SvbShape { first, width, row_offset, padded_width }
    }

    /// Compute shapes for every SV of a tiling.
    pub fn compute_all(a: &SystemMatrix, tiling: &Tiling) -> Vec<SvbShape> {
        (0..tiling.len()).map(|sv| SvbShape::compute(a, tiling, sv)).collect()
    }

    /// Number of views.
    pub fn num_views(&self) -> usize {
        self.width.len()
    }

    /// Entries in the packed layout.
    pub fn packed_len(&self) -> usize {
        *self.row_offset.last().unwrap() as usize
    }

    /// Entries in the padded rectangular layout.
    pub fn padded_len(&self) -> usize {
        self.padded_width * self.num_views()
    }

    /// Buffer offset of `(view, channel)` in the given layout;
    /// `channel` is absolute. The pure-shape form of [`Svb::index`],
    /// usable before any buffer is gathered (the lane tables
    /// precompute these offsets once per voxel).
    #[inline]
    pub fn index_of(&self, layout: SvbLayout, view: usize, ch: usize) -> usize {
        let rel = ch - self.first[view] as usize;
        debug_assert!(rel < self.width[view] as usize, "channel {ch} outside band at view {view}");
        match layout {
            SvbLayout::SensorMajor => self.row_offset[view] as usize + rel,
            SvbLayout::Transposed => view * self.padded_width + rel,
        }
    }

    /// Copy this band of one sinogram into a buffer in the given
    /// layout (zero in padding).
    pub fn gather_band(&self, layout: SvbLayout, s: &Sinogram) -> Vec<f32> {
        let len = match layout {
            SvbLayout::SensorMajor => self.packed_len(),
            SvbLayout::Transposed => self.padded_len(),
        };
        let mut band = vec![0.0f32; len];
        for v in 0..self.num_views() {
            let fc = self.first[v] as usize;
            let wd = self.width[v] as usize;
            let base = match layout {
                SvbLayout::SensorMajor => self.row_offset[v] as usize,
                SvbLayout::Transposed => v * self.padded_width,
            };
            band[base..base + wd].copy_from_slice(&s.view(v)[fc..fc + wd]);
        }
        band
    }

    /// Bytes of one f32 buffer in the given layout (the paper's SVB
    /// size; `e` and `w` double it).
    pub fn bytes(&self, layout: SvbLayout) -> usize {
        4 * match layout {
            SvbLayout::SensorMajor => self.packed_len(),
            SvbLayout::Transposed => self.padded_len(),
        }
    }
}

/// An SVB instance: buffered error and weight bands for one SV.
#[derive(Debug, Clone)]
pub struct Svb<'a> {
    shape: &'a SvbShape,
    layout: SvbLayout,
    /// Buffered error band (zero in padding).
    pub e: Vec<f32>,
    /// Buffered weight band (zero in padding).
    pub w: Vec<f32>,
}

impl<'a> Svb<'a> {
    /// Copy the SV's band out of the global sinograms (the paper's
    /// "create SVBs" kernel / PSV-ICD lines 11-12).
    pub fn gather(shape: &'a SvbShape, layout: SvbLayout, e: &Sinogram, w: &Sinogram) -> Svb<'a> {
        Svb { shape, layout, e: shape.gather_band(layout, e), w: shape.gather_band(layout, w) }
    }

    /// The shape this buffer was gathered with.
    pub fn shape(&self) -> &SvbShape {
        self.shape
    }

    /// The layout in use.
    pub fn layout(&self) -> SvbLayout {
        self.layout
    }

    /// Buffer index of `(view, channel)`; `channel` is absolute.
    #[inline]
    pub fn index(&self, view: usize, ch: usize) -> usize {
        self.shape.index_of(self.layout, view, ch)
    }

    /// Add `self - orig` back into the global error sinogram (PSV-ICD
    /// lines 16-19 / the GPU-ICD write-back kernel). Additive deltas
    /// commute across SVs that share boundary sinogram cells.
    ///
    /// Scatters through [`mbir_simd::add_diff`] — one element-wise
    /// kernel shared by every backend (untouched cells add an exact
    /// `+0.0`; see `add_diff` for the zero-sign note), so the scatter
    /// is backend-invariant by construction and free to vectorize.
    pub fn scatter_delta(&self, orig: &Svb<'_>, e: &mut Sinogram) {
        assert_eq!(self.layout, orig.layout);
        for v in 0..self.shape.num_views() {
            let fc = self.shape.first[v] as usize;
            let wd = self.shape.width[v] as usize;
            let base = match self.layout {
                SvbLayout::SensorMajor => self.shape.row_offset[v] as usize,
                SvbLayout::Transposed => v * self.shape.padded_width,
            };
            let row = e.view_mut(v);
            mbir_simd::add_diff(
                &mut row[fc..fc + wd],
                &self.e[base..base + wd],
                &orig.e[base..base + wd],
            );
        }
    }

    /// Stage the error/weight entries under a voxel column's runs into
    /// flat buffers aligned with [`ColumnView::values_flat`]. Per-view
    /// runs are contiguous in both layouts, so this is a handful of
    /// `memcpy`s per view — the staging that lets the lane kernels run
    /// one long vectorized loop instead of a per-element indexed walk.
    fn stage_column(&self, col: &ColumnView<'_>, es: &mut Vec<f32>, ws: &mut Vec<f32>) {
        es.clear();
        ws.clear();
        es.reserve(col.nnz());
        ws.reserve(col.nnz());
        let first = col.first_channels();
        let count = col.counts();
        for v in 0..first.len() {
            let n = count[v] as usize;
            if n == 0 {
                continue;
            }
            let i0 = self.index(v, first[v] as usize);
            es.extend_from_slice(&self.e[i0..i0 + n]);
            ws.extend_from_slice(&self.w[i0..i0 + n]);
        }
    }

    /// Theta accumulation over a voxel's column (Algorithm 1 steps
    /// 3-6), backend-dispatched. `Scalar` walks element-at-a-time
    /// through the [`WeightedError`] view (the canonical reference);
    /// `Lanes` stages the band into flat buffers and runs the chunked
    /// 8-wide kernel. Bitwise-identical results either way.
    pub fn thetas(&self, col: &ColumnView<'_>, backend: SimdBackend) -> Thetas {
        match mbir_simd::resolve(backend) {
            SimdBackend::Lanes => STAGE.with(|s| {
                let (es, ws) = &mut *s.borrow_mut();
                self.stage_column(col, es, ws);
                let (theta1, theta2) = mbir_simd::theta_flat_lanes(col.values_flat(), es, ws);
                Thetas { theta1, theta2 }
            }),
            _ => mbir::update::compute_thetas(col, self),
        }
    }

    /// Theta accumulation over a u8-quantized column (paper Section
    /// 4.3.1), backend-dispatched; dequantization stays in the
    /// canonical `code * scale / levels` per-entry order.
    pub fn thetas_quant(
        &self,
        col: &ColumnView<'_>,
        q: &QuantizedColumn,
        backend: SimdBackend,
    ) -> Thetas {
        match mbir_simd::resolve(backend) {
            SimdBackend::Lanes => STAGE.with(|s| {
                let (es, ws) = &mut *s.borrow_mut();
                self.stage_column(col, es, ws);
                let (theta1, theta2) =
                    mbir_simd::theta_quant_flat_lanes(&q.codes, q.scale, q.levels, es, ws);
                Thetas { theta1, theta2 }
            }),
            _ => {
                let first = col.first_channels();
                let count = col.counts();
                let mut acc = mbir_simd::ThetaAcc::new();
                let mut k = 0usize;
                for v in 0..first.len() {
                    let n = count[v] as usize;
                    let fc = first[v] as usize;
                    for kk in 0..n {
                        let (e, w) = self.get(v, fc + kk);
                        acc.push_quant(q.codes[k], q.scale, q.levels, e, w);
                        k += 1;
                    }
                }
                let (theta1, theta2) = acc.finish();
                Thetas { theta1, theta2 }
            }
        }
    }

    /// Scatter `e -= A * delta` over the voxel's footprint (Algorithm 1
    /// steps 9-11), backend-dispatched. The update is element-wise
    /// (`e[k] -= a[k] * delta`, no reduction), so the backends perform
    /// identical ops; `Lanes` just runs them on contiguous run slices.
    pub fn apply_col_delta(&mut self, col: &ColumnView<'_>, delta: f32, backend: SimdBackend) {
        match mbir_simd::resolve(backend) {
            SimdBackend::Lanes => {
                let first = col.first_channels();
                let count = col.counts();
                let values = col.values_flat();
                let mut off = 0usize;
                for v in 0..first.len() {
                    let n = count[v] as usize;
                    if n > 0 {
                        let i0 = self.index(v, first[v] as usize);
                        mbir_simd::sub_scaled(
                            &mut self.e[i0..i0 + n],
                            &values[off..off + n],
                            delta,
                        );
                    }
                    off += n;
                }
            }
            _ => mbir::update::apply_delta(col, self, delta),
        }
    }

    /// Quantized-column variant of [`Svb::apply_col_delta`].
    pub fn apply_quant_delta(
        &mut self,
        col: &ColumnView<'_>,
        q: &QuantizedColumn,
        delta: f32,
        backend: SimdBackend,
    ) {
        let first = col.first_channels();
        let count = col.counts();
        match mbir_simd::resolve(backend) {
            SimdBackend::Lanes => {
                let mut off = 0usize;
                for v in 0..first.len() {
                    let n = count[v] as usize;
                    if n > 0 {
                        let i0 = self.index(v, first[v] as usize);
                        mbir_simd::sub_scaled_quant(
                            &mut self.e[i0..i0 + n],
                            &q.codes[off..off + n],
                            q.scale,
                            q.levels,
                            delta,
                        );
                    }
                    off += n;
                }
            }
            _ => {
                let mut k = 0usize;
                for v in 0..first.len() {
                    let n = count[v] as usize;
                    let fc = first[v] as usize;
                    for kk in 0..n {
                        let av = q.dequant(k);
                        self.sub(v, fc + kk, av * delta);
                        k += 1;
                    }
                }
            }
        }
    }
}

thread_local! {
    /// Per-thread staging buffers for the lane backend: the (e, w)
    /// entries under one voxel column, flattened to `values_flat`
    /// order. Reused across voxel visits to keep staging allocation-free.
    static STAGE: RefCell<(Vec<f32>, Vec<f32>)> = const { RefCell::new((Vec::new(), Vec::new())) };
}

impl WeightedError for Svb<'_> {
    #[inline]
    fn get(&self, view: usize, ch: usize) -> (f32, f32) {
        let i = self.index(view, ch);
        (self.e[i], self.w[i])
    }

    #[inline]
    fn sub(&mut self, view: usize, ch: usize, amount: f32) {
        let i = self.index(view, ch);
        self.e[i] -= amount;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ct_core::geometry::Geometry;
    use ct_core::image::Image;
    use ct_core::phantom::Phantom;
    use mbir::prior::QuadraticPrior;
    use mbir::update::{compute_thetas, update_voxel, SinogramPair};

    fn setup() -> (Geometry, SystemMatrix, Tiling, Sinogram, Sinogram) {
        let g = Geometry::tiny_scale();
        let a = SystemMatrix::compute(&g);
        let t = Tiling::new(g.grid, 8);
        let truth = Phantom::water_cylinder(0.6).render(g.grid, 1);
        let y = a.forward(&truth);
        let w = Sinogram::filled(&g, 1.0);
        (g, a, t, y, w)
    }

    #[test]
    fn band_covers_member_runs() {
        let (g, a, t, _, _) = setup();
        for sv in 0..t.len() {
            let shape = SvbShape::compute(&a, &t, sv);
            for j in t.voxels(sv) {
                let col = a.column(j);
                for v in 0..g.num_views {
                    let (fc, n) = col.run(v);
                    if n == 0 {
                        continue;
                    }
                    assert!(fc >= shape.first[v] as usize);
                    assert!(fc + n <= (shape.first[v] + shape.width[v]) as usize);
                }
            }
        }
    }

    #[test]
    fn padded_rows_are_aligned() {
        let (_, a, t, _, _) = setup();
        let shape = SvbShape::compute(&a, &t, 0);
        assert_eq!(shape.padded_width % ALIGN_F32, 0);
        assert!(shape.padded_len() >= shape.packed_len());
    }

    #[test]
    fn gather_roundtrips_both_layouts() {
        let (g, a, t, y, w) = setup();
        let shape = SvbShape::compute(&a, &t, 4);
        for layout in [SvbLayout::SensorMajor, SvbLayout::Transposed] {
            let svb = Svb::gather(&shape, layout, &y, &w);
            for v in 0..g.num_views {
                for k in 0..shape.width[v] as usize {
                    let ch = shape.first[v] as usize + k;
                    let (e, wt) = svb.get(v, ch);
                    assert_eq!(e, y.at(v, ch));
                    assert_eq!(wt, w.at(v, ch));
                }
            }
        }
    }

    #[test]
    fn thetas_match_global_sinogram() {
        let (_, a, t, y, w) = setup();
        let sv = 4;
        let shape = SvbShape::compute(&a, &t, sv);
        let svb = Svb::gather(&shape, SvbLayout::Transposed, &y, &w);
        let mut e = y.clone();
        let pair = SinogramPair { e: &mut e, w: &w };
        for j in t.voxels(sv) {
            let col = a.column(j);
            let th_global = compute_thetas(&col, &pair);
            let th_svb = compute_thetas(&col, &svb);
            assert!((th_global.theta1 - th_svb.theta1).abs() < 1e-4);
            assert!((th_global.theta2 - th_svb.theta2).abs() < 1e-4);
        }
    }

    #[test]
    fn scatter_delta_reproduces_direct_updates() {
        // Updating voxels through an SVB and scattering the delta must
        // produce the same global error sinogram as updating directly.
        let (g, a, t, y, w) = setup();
        let sv = 4;
        let prior = QuadraticPrior { sigma: 0.05 };
        let shape = SvbShape::compute(&a, &t, sv);

        // Path 1: direct updates on the global sinogram.
        let mut img1 = Image::zeros(g.grid);
        let mut e1 = y.clone();
        {
            let mut pair = SinogramPair { e: &mut e1, w: &w };
            for j in t.voxels(sv) {
                update_voxel(j, &mut img1, &a.column(j), &mut pair, &prior, true);
            }
        }

        // Path 2: through an SVB.
        let mut img2 = Image::zeros(g.grid);
        let mut e2 = y.clone();
        let orig = Svb::gather(&shape, SvbLayout::Transposed, &e2, &w);
        let mut svb = orig.clone();
        for j in t.voxels(sv) {
            update_voxel(j, &mut img2, &a.column(j), &mut svb, &prior, true);
        }
        svb.scatter_delta(&orig, &mut e2);

        assert_eq!(img1, img2);
        for i in 0..e1.data().len() {
            assert!((e1.data()[i] - e2.data()[i]).abs() < 1e-4);
        }
    }

    #[test]
    fn scatter_outside_band_untouched() {
        let (g, a, t, y, w) = setup();
        let shape = SvbShape::compute(&a, &t, 0);
        let orig = Svb::gather(&shape, SvbLayout::SensorMajor, &y, &w);
        let mut modified = orig.clone();
        for v in modified.e.iter_mut() {
            *v += 1.0;
        }
        let mut e = y.clone();
        modified.scatter_delta(&orig, &mut e);
        // Exactly the banded cells moved by +1.
        let mut changed = 0usize;
        for v in 0..g.num_views {
            for ch in 0..g.num_channels {
                let d = e.at(v, ch) - y.at(v, ch);
                if (shape.first[v] as usize..(shape.first[v] + shape.width[v]) as usize)
                    .contains(&ch)
                {
                    assert!((d - 1.0).abs() < 1e-6);
                    changed += 1;
                } else {
                    assert_eq!(d, 0.0);
                }
            }
        }
        assert_eq!(changed, shape.packed_len());
    }

    #[test]
    fn theta_backends_bitwise_equal_on_real_columns() {
        let (_g, a, t, y, w) = setup();
        for layout in [SvbLayout::SensorMajor, SvbLayout::Transposed] {
            for sv in [0, 4, t.len() - 1] {
                let shape = SvbShape::compute(&a, &t, sv);
                let svb = Svb::gather(&shape, layout, &y, &w);
                for j in t.voxels(sv) {
                    let col = a.column(j);
                    let q = QuantizedColumn::quantize(&col);
                    let s = svb.thetas(&col, SimdBackend::Scalar);
                    let l = svb.thetas(&col, SimdBackend::Lanes);
                    assert_eq!(s.theta1.to_bits(), l.theta1.to_bits(), "sv {sv} voxel {j}");
                    assert_eq!(s.theta2.to_bits(), l.theta2.to_bits(), "sv {sv} voxel {j}");
                    let sq = svb.thetas_quant(&col, &q, SimdBackend::Scalar);
                    let lq = svb.thetas_quant(&col, &q, SimdBackend::Lanes);
                    assert_eq!(sq.theta1.to_bits(), lq.theta1.to_bits(), "quant sv {sv} voxel {j}");
                    assert_eq!(sq.theta2.to_bits(), lq.theta2.to_bits(), "quant sv {sv} voxel {j}");
                }
            }
        }
    }

    #[test]
    fn apply_backends_bitwise_equal_on_real_columns() {
        let (_, a, t, y, w) = setup();
        let sv = 4;
        let shape = SvbShape::compute(&a, &t, sv);
        for layout in [SvbLayout::SensorMajor, SvbLayout::Transposed] {
            let mut svb_s = Svb::gather(&shape, layout, &y, &w);
            let mut svb_l = svb_s.clone();
            for (step, j) in t.voxels(sv).enumerate() {
                let col = a.column(j);
                let q = QuantizedColumn::quantize(&col);
                let delta = 0.001 + step as f32 * 0.0007;
                if step % 2 == 0 {
                    svb_s.apply_col_delta(&col, delta, SimdBackend::Scalar);
                    svb_l.apply_col_delta(&col, delta, SimdBackend::Lanes);
                } else {
                    svb_s.apply_quant_delta(&col, &q, delta, SimdBackend::Scalar);
                    svb_l.apply_quant_delta(&col, &q, delta, SimdBackend::Lanes);
                }
            }
            let bs: Vec<u32> = svb_s.e.iter().map(|v| v.to_bits()).collect();
            let bl: Vec<u32> = svb_l.e.iter().map(|v| v.to_bits()).collect();
            assert_eq!(bs, bl);
        }
    }

    #[test]
    fn thetas_dispatch_matches_generic_walk() {
        // The Scalar backend must be literally the generic
        // compute_thetas walk, and Lanes must equal it bitwise.
        let (_, a, t, y, w) = setup();
        let sv = 2;
        let shape = SvbShape::compute(&a, &t, sv);
        let svb = Svb::gather(&shape, SvbLayout::Transposed, &y, &w);
        for j in t.voxels(sv) {
            let col = a.column(j);
            let reference = compute_thetas(&col, &svb);
            for backend in [SimdBackend::Scalar, SimdBackend::Lanes] {
                let got = svb.thetas(&col, backend);
                assert_eq!(got.theta1.to_bits(), reference.theta1.to_bits());
                assert_eq!(got.theta2.to_bits(), reference.theta2.to_bits());
            }
        }
    }

    #[test]
    fn svb_fits_l2_at_paper_scale_sides() {
        // Sanity for the paper's claim that SVBs fit the 3MB GPU L2.
        let (_, a, t, _, _) = setup();
        let shape = SvbShape::compute(&a, &t, t.len() / 2);
        assert!(shape.bytes(SvbLayout::Transposed) < 3 * 1024 * 1024);
    }
}
