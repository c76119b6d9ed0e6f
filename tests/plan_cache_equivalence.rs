//! The SV plan is built once at driver setup and is the only source of
//! iteration-invariant column state (band shapes, chunk tallies,
//! quantized columns). Sharing one prebuilt plan across drivers via
//! `with_plan` is the intended way to amortize that build, so a driver
//! handed a shared plan has to be bitwise indistinguishable from one
//! that built its own: same images, error sinograms, iteration reports
//! and modeled seconds. What the plan caches is pinned against a fresh
//! recomputation by the `supervoxel::plan` unit tests.

use ct_core::fbp;
use ct_core::geometry::Geometry;
use ct_core::phantom::Phantom;
use ct_core::project::{scan, NoiseModel, Scan};
use ct_core::sysmat::SystemMatrix;
use gpu_icd::{GpuIcd, GpuIterationReport, GpuOptions};
use mbir::prior::QggmrfPrior;
use psv_icd::{PsvConfig, PsvIcd, PsvIterationReport};
use std::sync::Arc;

struct Setup {
    a: SystemMatrix,
    scan: Scan,
    prior: QggmrfPrior,
    init: ct_core::image::Image,
}

fn setup() -> Setup {
    let geom = Geometry::tiny_scale();
    let a = SystemMatrix::compute(&geom);
    let truth = Phantom::baggage(5).render(geom.grid, 2);
    let s = scan(&a, &truth, Some(NoiseModel { i0: 1.0e5 }), 21);
    let prior = QggmrfPrior::standard(0.002);
    let init = fbp::reconstruct(&geom, &s.y);
    Setup { a, scan: s, prior, init }
}

#[test]
fn prebuilt_plan_matches_internally_built() {
    let s = setup();
    let (y, w) = (&s.scan.y, &s.scan.weights);

    let opts =
        GpuOptions { sv_side: 6, threadblocks_per_sv: 4, svs_per_batch: 4, ..Default::default() };
    let mut gpu_new = GpuIcd::new(&s.a, y, w, &s.prior, s.init.clone(), opts);
    let rep_new: Vec<GpuIterationReport> = (0..4).map(|_| gpu_new.iteration()).collect();
    let plan = Arc::clone(gpu_new.plan());
    let mut gpu_shared = GpuIcd::with_plan(&s.a, y, w, &s.prior, s.init.clone(), opts, plan);
    let rep_shared: Vec<GpuIterationReport> = (0..4).map(|_| gpu_shared.iteration()).collect();
    assert_eq!(gpu_new.image(), gpu_shared.image(), "gpu image");
    assert_eq!(gpu_new.error().data(), gpu_shared.error().data(), "gpu error sinogram");
    assert_eq!(rep_new, rep_shared, "gpu iteration reports");
    assert_eq!(gpu_new.modeled_seconds(), gpu_shared.modeled_seconds(), "gpu modeled seconds");

    let config = PsvConfig { sv_side: 6, ..Default::default() };
    let mut psv_new = PsvIcd::new(&s.a, y, w, &s.prior, s.init.clone(), config);
    let rep_new: Vec<PsvIterationReport> = (0..4).map(|_| psv_new.iteration()).collect();
    let plan = Arc::clone(psv_new.plan());
    let mut psv_shared = PsvIcd::with_plan(&s.a, y, w, &s.prior, s.init.clone(), config, plan);
    let rep_shared: Vec<PsvIterationReport> = (0..4).map(|_| psv_shared.iteration()).collect();
    assert_eq!(psv_new.image(), psv_shared.image(), "psv image");
    assert_eq!(psv_new.error().data(), psv_shared.error().data(), "psv error sinogram");
    assert_eq!(rep_new, rep_shared, "psv iteration reports");
    assert_eq!(psv_new.modeled_seconds(), psv_shared.modeled_seconds(), "psv modeled seconds");
}
