//! Sequential ICD — the single-core reference the paper's speedups are
//! measured against ("the publicly available, single-core MBIR
//! implementation \[16\]"), and the producer of golden images.
//!
//! Voxels are visited in a randomized order (faster convergence,
//! paper Section 2) with optional zero-skipping. Work is accounted in
//! *equits*: one equit is `N` voxel updates where `N` is the image's
//! voxel count.
//!
//! Under the lane backend ([`mbir_simd::SimdBackend::Lanes`], the
//! default) a pass walks each column through a flat index into the
//! error sinogram ([`FlatWalk`]) instead of the per-view runs of
//! [`update_voxel`]; the scalar backend keeps the per-view walk as the
//! reference. Both produce the same bits (see [`FlatWalk`]).

use crate::prior::Prior;
use crate::update::{
    solve_and_commit, theta2_gather, update_voxel, zero_skippable, SinogramPair, Thetas,
};
use ct_core::hu::rmse_hu;
use ct_core::image::Image;
use ct_core::sinogram::Sinogram;
use ct_core::sysmat::SystemMatrix;
use mbir_simd::SimdBackend;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Knobs shared by the ICD drivers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IcdConfig {
    /// Skip voxels whose value and neighbourhood are all zero.
    pub zero_skip: bool,
    /// Clip voxel values at zero.
    pub positivity: bool,
    /// Shuffle the visit order each pass.
    pub randomize: bool,
    /// RNG seed for visit-order shuffles.
    pub seed: u64,
}

impl Default for IcdConfig {
    fn default() -> Self {
        IcdConfig { zero_skip: true, positivity: true, randomize: true, seed: 0 }
    }
}

/// Work counters for equit accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct IcdStats {
    /// Voxel visits that performed the full update.
    pub updates: u64,
    /// Voxel visits skipped by zero-skipping.
    pub skipped: u64,
    /// Sum of `|delta|` over all updates (drives SV selection upstream).
    pub total_abs_delta: f64,
}

impl IcdStats {
    /// Equits represented by these counters for an image of `nvox`
    /// voxels.
    pub fn equits(&self, nvox: usize) -> f64 {
        self.updates as f64 / nvox as f64
    }
}

/// Tables for the flat-index lane walk of [`SequentialIcd::pass`],
/// built once per driver: `w` and `A` are fixed for its lifetime.
///
/// A visit computes `theta1` with [`mbir_simd::theta_gather_lanes`]
/// over `(A column, idx slice)` and scatters `e -= A * delta` with
/// [`mbir_simd::sub_scaled_gather`]. Every element is the expression of
/// the per-view walk (`(w * a) * e`, `(w * a) * a`) in the same
/// canonical lane `k % 8`, reduced by the same tree, so `theta1`,
/// `theta2`, and hence every step, image, and error bit are unchanged;
/// the indices of one column are distinct, so scatter order is free.
///
/// Memory: 4 B per matrix entry for `idx` plus 4 B per voxel, held only
/// as long as the driver (the golden's driver is dropped before any
/// later driver is built).
struct FlatWalk {
    /// Per matrix entry, in the matrix's voxel-major entry order (see
    /// [`SystemMatrix::entry_range`]): the flat `Sinogram::data` index
    /// `view * num_channels + channel` the entry touches.
    idx: Vec<u32>,
    /// Per voxel: `theta2 = sum (w * a) * a` in canonical lane order.
    theta2: Vec<f32>,
}

impl FlatWalk {
    /// Build both tables, filling fixed voxel ranges on the process's
    /// worker threads ([`mbir_parallel::threads`]); every entry depends
    /// on its own voxel only, so the tables are thread-count invariant.
    fn build(a: &SystemMatrix, weights: &Sinogram) -> FlatWalk {
        assert!(
            u32::try_from(weights.data().len()).is_ok(),
            "sinogram too large for a u32 flat index"
        );
        let nvox = a.geometry().grid.num_voxels();
        let mut idx = vec![0u32; a.nnz()];
        let mut theta2 = vec![0.0f32; nvox];
        let chunk = nvox.div_ceil(mbir_parallel::threads()).max(1);
        std::thread::scope(|s| {
            let mut idx_rest = idx.as_mut_slice();
            let mut theta2_rest = theta2.as_mut_slice();
            for lo in (0..nvox).step_by(chunk) {
                let hi = (lo + chunk).min(nvox);
                let len = a.entry_range(hi - 1).end - a.entry_range(lo).start;
                let (idx_part, rest) = std::mem::take(&mut idx_rest).split_at_mut(len);
                idx_rest = rest;
                let (theta2_part, rest) = std::mem::take(&mut theta2_rest).split_at_mut(hi - lo);
                theta2_rest = rest;
                s.spawn(move || Self::fill(a, weights, lo, idx_part, theta2_part));
            }
        });
        FlatWalk { idx, theta2 }
    }

    /// Fill the tables of voxels `lo..lo + theta2.len()`.
    fn fill(a: &SystemMatrix, weights: &Sinogram, lo: usize, idx: &mut [u32], theta2: &mut [f32]) {
        let nch = weights.num_channels();
        let base = a.entry_range(lo).start;
        for (j, t2) in (lo..).zip(theta2) {
            let r = a.entry_range(j);
            let col = a.column(j);
            let mut k = r.start - base;
            for seg in col.segments() {
                let q0 = seg.view * nch + seg.first_channel;
                for (c, q) in idx[k..k + seg.values.len()].iter_mut().enumerate() {
                    *q = (q0 + c) as u32;
                }
                k += seg.values.len();
            }
            *t2 = theta2_gather(col.values_flat(), &idx[r.start - base..k], weights.data());
        }
    }
}

/// The sequential ICD reconstruction state.
pub struct SequentialIcd<'a, P: Prior> {
    a: &'a SystemMatrix,
    prior: &'a P,
    weights: &'a Sinogram,
    config: IcdConfig,
    image: Image,
    error: Sinogram,
    stats: IcdStats,
    pass_count: u64,
    /// Present iff the process-wide backend resolved to `Lanes` at
    /// construction; `None` runs the scalar per-view walk.
    flat: Option<FlatWalk>,
}

impl<'a, P: Prior> SequentialIcd<'a, P> {
    /// Initialize from a measurement `y` and starting image `init`
    /// (often zeros or an FBP image); computes `e = y - A init`. The
    /// lane-kernel backend is resolved here, once ([`mbir_simd::active`]).
    pub fn new(
        a: &'a SystemMatrix,
        y: &Sinogram,
        weights: &'a Sinogram,
        prior: &'a P,
        init: Image,
        config: IcdConfig,
    ) -> Self {
        let ax = a.forward(&init);
        let mut error = y.clone();
        for (e, axv) in error.data_mut().iter_mut().zip(ax.data()) {
            *e -= axv;
        }
        let flat = (mbir_simd::active() == SimdBackend::Lanes).then(|| FlatWalk::build(a, weights));
        SequentialIcd {
            a,
            prior,
            weights,
            config,
            image: init,
            error,
            stats: IcdStats::default(),
            pass_count: 0,
            flat,
        }
    }

    /// The lane-kernel backend this driver resolved at construction.
    pub fn simd(&self) -> SimdBackend {
        if self.flat.is_some() {
            SimdBackend::Lanes
        } else {
            SimdBackend::Scalar
        }
    }

    /// One pass visiting every voxel once (in randomized order).
    /// Returns the pass's own counters.
    pub fn pass(&mut self) -> IcdStats {
        let nvox = self.image.grid().num_voxels();
        let mut order: Vec<u32> = (0..nvox as u32).collect();
        if self.config.randomize {
            let mut rng =
                StdRng::seed_from_u64(self.config.seed ^ self.pass_count.wrapping_mul(0x9e3779b9));
            order.shuffle(&mut rng);
        }
        self.pass_count += 1;
        // Zero-skipping is suppressed on the first pass: from a zero
        // initial image it would otherwise skip every voxel and the
        // reconstruction could never start.
        let allow_skip = self.config.zero_skip && self.pass_count > 1;
        let mut pass_stats = IcdStats::default();
        for &j in &order {
            let j = j as usize;
            if allow_skip && zero_skippable(&self.image, j) {
                pass_stats.skipped += 1;
                continue;
            }
            let col = self.a.column(j);
            let delta = match &self.flat {
                Some(flat) => {
                    let a = col.values_flat();
                    let idx = &flat.idx[self.a.entry_range(j)];
                    let e = self.error.data_mut();
                    let th = Thetas {
                        theta1: mbir_simd::theta_gather_lanes(a, idx, e, self.weights.data()),
                        theta2: flat.theta2[j],
                    };
                    let delta = solve_and_commit(
                        j,
                        &mut self.image,
                        th,
                        self.prior,
                        self.config.positivity,
                    );
                    if delta != 0.0 {
                        mbir_simd::sub_scaled_gather(e, a, idx, delta);
                    }
                    delta
                }
                None => {
                    let mut pair = SinogramPair { e: &mut self.error, w: self.weights };
                    update_voxel(
                        j,
                        &mut self.image,
                        &col,
                        &mut pair,
                        self.prior,
                        self.config.positivity,
                    )
                }
            };
            pass_stats.updates += 1;
            pass_stats.total_abs_delta += delta.abs() as f64;
        }
        self.stats.updates += pass_stats.updates;
        self.stats.skipped += pass_stats.skipped;
        self.stats.total_abs_delta += pass_stats.total_abs_delta;
        pass_stats
    }

    /// Run passes until at least `equits` of work has been done.
    pub fn run_equits(&mut self, equits: f64) {
        let nvox = self.image.grid().num_voxels();
        while self.stats.equits(nvox) < equits {
            let before = self.stats.updates;
            self.pass();
            if self.stats.updates == before {
                break; // fully zero-skipped image
            }
        }
    }

    /// Run passes until the RMSE against `golden` drops below
    /// `threshold_hu`, or `max_passes` is reached. Returns the final
    /// RMSE in HU.
    pub fn run_to_rmse(&mut self, golden: &Image, threshold_hu: f32, max_passes: usize) -> f32 {
        let mut rmse = rmse_hu(&self.image, golden);
        for _ in 0..max_passes {
            if rmse < threshold_hu {
                break;
            }
            self.pass();
            rmse = rmse_hu(&self.image, golden);
        }
        rmse
    }

    /// Run passes until a golden-free [`crate::stopping::StopRule`]
    /// fires or `max_passes` elapse; returns passes used.
    pub fn run_until(&mut self, rule: crate::stopping::StopRule, max_passes: usize) -> usize {
        let mut state = crate::stopping::StopState::new(rule);
        let nvox = self.image.grid().num_voxels();
        for p in 0..max_passes {
            let pass_stats = self.pass();
            let cost = match rule {
                crate::stopping::StopRule::CostPlateau { .. } => {
                    crate::convergence::cost(&self.image, &self.error, self.weights, self.prior)
                }
                _ => 0.0,
            };
            state.observe(&pass_stats, &self.stats, cost, nvox);
            if state.should_stop() {
                return p + 1;
            }
        }
        max_passes
    }

    /// Current reconstruction.
    pub fn image(&self) -> &Image {
        &self.image
    }

    /// Current error sinogram `e = y - A x`.
    pub fn error(&self) -> &Sinogram {
        &self.error
    }

    /// Cumulative work counters.
    pub fn stats(&self) -> IcdStats {
        self.stats
    }

    /// Equits of work done so far.
    pub fn equits(&self) -> f64 {
        self.stats.equits(self.image.grid().num_voxels())
    }

    /// Consume the driver, returning the reconstruction.
    pub fn into_image(self) -> Image {
        self.image
    }
}

/// Produce a golden image by running sequential ICD for `equits`
/// equits (the paper uses 40, "by when it is known to converge").
pub fn golden_image<P: Prior>(
    a: &SystemMatrix,
    y: &Sinogram,
    weights: &Sinogram,
    prior: &P,
    init: Image,
    equits: f64,
) -> Image {
    let mut icd = SequentialIcd::new(a, y, weights, prior, init, IcdConfig::default());
    icd.run_equits(equits);
    icd.into_image()
}

#[cfg(test)]
mod tests {
    use super::golden_image;
    use super::*;
    use crate::convergence::cost;
    use crate::prior::QggmrfPrior;
    use ct_core::geometry::Geometry;
    use ct_core::phantom::Phantom;
    use ct_core::project::{scan, NoiseModel};

    fn setup() -> (Geometry, SystemMatrix, ct_core::project::Scan) {
        let g = Geometry::tiny_scale();
        let a = SystemMatrix::compute(&g);
        let truth = Phantom::water_cylinder(0.55).render(g.grid, 2);
        let s = scan(&a, &truth, Some(NoiseModel { i0: 1.0e5 }), 7);
        (g, a, s)
    }

    #[test]
    fn cost_decreases_monotonically() {
        let (g, a, s) = setup();
        let prior = QggmrfPrior::standard(0.002);
        let mut icd = SequentialIcd::new(
            &a,
            &s.y,
            &s.weights,
            &prior,
            Image::zeros(g.grid),
            IcdConfig::default(),
        );
        let mut prev = cost(icd.image(), icd.error(), &s.weights, &prior);
        for _ in 0..4 {
            icd.pass();
            let c = cost(icd.image(), icd.error(), &s.weights, &prior);
            assert!(c <= prev + prev.abs() * 1e-6, "cost rose: {prev} -> {c}");
            prev = c;
        }
    }

    #[test]
    fn converges_to_golden_from_fbp_init() {
        // The paper's convergence criterion: RMSE < 10 HU against a
        // 40-equit golden image, reached within a handful of equits
        // when initialized from FBP.
        let (g, a, s) = setup();
        let prior = QggmrfPrior::standard(0.002);
        let init = ct_core::fbp::reconstruct(&g, &s.y);
        let golden = golden_image(&a, &s.y, &s.weights, &prior, init.clone(), 40.0);
        // The golden image itself must be anatomically accurate.
        assert!(rmse_hu(&golden, &s.ground_truth) < 60.0);
        let mut icd = SequentialIcd::new(&a, &s.y, &s.weights, &prior, init, IcdConfig::default());
        let rmse = icd.run_to_rmse(&golden, 10.0, 12);
        assert!(rmse < 10.0, "rmse {rmse} HU after {:.1} equits", icd.equits());
        assert!(icd.equits() < 10.0, "took {:.1} equits", icd.equits());
    }

    #[test]
    fn zero_skip_reduces_updates_on_sparse_images() {
        let (g, a, s) = setup();
        let prior = QggmrfPrior::standard(0.002);
        let mut with = SequentialIcd::new(
            &a,
            &s.y,
            &s.weights,
            &prior,
            Image::zeros(g.grid),
            IcdConfig { zero_skip: true, ..Default::default() },
        );
        let first = with.pass();
        // The first pass visits everything (skipping is suppressed).
        assert_eq!(first.skipped, 0);
        assert_eq!(first.updates, g.grid.num_voxels() as u64);
        // From the second pass on, far-from-object voxels (clipped to
        // zero by positivity) are skipped.
        let second = with.pass();
        assert!(second.skipped > 0, "no skips on second pass");
        assert!(second.updates < g.grid.num_voxels() as u64);
    }

    #[test]
    fn equits_accounting() {
        let (g, a, s) = setup();
        let prior = QggmrfPrior::standard(0.002);
        let mut icd = SequentialIcd::new(
            &a,
            &s.y,
            &s.weights,
            &prior,
            Image::zeros(g.grid),
            IcdConfig { zero_skip: false, ..Default::default() },
        );
        icd.pass();
        assert!((icd.equits() - 1.0).abs() < 1e-9);
        icd.pass();
        assert!((icd.equits() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn deterministic_given_seed() {
        let (g, a, s) = setup();
        let prior = QggmrfPrior::standard(0.002);
        let run = |seed: u64| {
            let mut icd = SequentialIcd::new(
                &a,
                &s.y,
                &s.weights,
                &prior,
                Image::zeros(g.grid),
                IcdConfig { seed, ..Default::default() },
            );
            icd.run_equits(2.0);
            icd.into_image()
        };
        assert_eq!(run(5), run(5));
    }

    #[test]
    fn error_sinogram_invariant_after_passes() {
        let (g, a, s) = setup();
        let prior = QggmrfPrior::standard(0.002);
        let mut icd = SequentialIcd::new(
            &a,
            &s.y,
            &s.weights,
            &prior,
            Image::zeros(g.grid),
            IcdConfig::default(),
        );
        icd.pass();
        icd.pass();
        let ax = a.forward(icd.image());
        for i in 0..s.y.data().len() {
            let expect = s.y.data()[i] - ax.data()[i];
            assert!((icd.error().data()[i] - expect).abs() < 2e-3);
        }
        let _ = g;
    }
}
