//! The SV plan is built once at driver setup and is the only source of
//! iteration-invariant column state (band shapes, chunk tallies,
//! quantized columns, and the lane backend's flat A/offset tables).
//! Sharing one prebuilt plan across drivers via `with_plan` is the
//! intended way to amortize that build — `serve` builds every lease's
//! driver from one plan, for scans with different weights — so a driver
//! handed a shared plan has to be bitwise indistinguishable from one
//! that built its own: same images, error sinograms, iteration reports
//! and modeled seconds, whatever scans the plan served before. What the
//! plan caches is pinned against a fresh recomputation by the
//! `supervoxel::plan` and `supervoxel::lanes` unit tests.

use ct_core::fbp;
use ct_core::geometry::Geometry;
use ct_core::image::Image;
use ct_core::phantom::Phantom;
use ct_core::project::{scan, NoiseModel, Scan};
use ct_core::sysmat::SystemMatrix;
use gpu_icd::{AMatrixMode, GpuIcd, GpuIterationReport, GpuOptions, Layout};
use mbir::prior::QggmrfPrior;
use psv_icd::{PsvConfig, PsvIcd, PsvIterationReport};
use std::sync::Arc;

const ITERS: usize = 4;

struct Setup {
    a: SystemMatrix,
    prior: QggmrfPrior,
    /// Two scans of different phantoms with different noise draws, so
    /// their weight sinograms differ.
    scans: [(Scan, Image); 2],
}

fn setup() -> Setup {
    let geom = Geometry::tiny_scale();
    let a = SystemMatrix::compute(&geom);
    let scans = [(5, 21), (2, 77)].map(|(phantom, noise_seed)| {
        let truth = Phantom::baggage(phantom).render(geom.grid, 2);
        let s = scan(&a, &truth, Some(NoiseModel { i0: 1.0e5 }), noise_seed);
        let init = fbp::reconstruct(&geom, &s.y);
        (s, init)
    });
    assert_ne!(scans[0].0.weights.data(), scans[1].0.weights.data());
    Setup { a, prior: QggmrfPrior::standard(0.002), scans }
}

/// Everything a run leaves behind, with floats as bits.
#[derive(Debug, PartialEq)]
struct Outcome<R> {
    image: Vec<u32>,
    error: Vec<u32>,
    reports: Vec<R>,
    modeled_seconds: u64,
}

fn bits(x: &[f32]) -> Vec<u32> {
    x.iter().map(|v| v.to_bits()).collect()
}

fn gpu_outcome(gpu: &mut GpuIcd<'_, QggmrfPrior>) -> Outcome<GpuIterationReport> {
    let reports = (0..ITERS).map(|_| gpu.iteration()).collect();
    Outcome {
        image: bits(gpu.image().data()),
        error: bits(gpu.error().data()),
        reports,
        modeled_seconds: gpu.modeled_seconds().to_bits(),
    }
}

fn psv_outcome(psv: &mut PsvIcd<'_, QggmrfPrior>) -> Outcome<PsvIterationReport> {
    let reports = (0..ITERS).map(|_| psv.iteration()).collect();
    Outcome {
        image: bits(psv.image().data()),
        error: bits(psv.error().data()),
        reports,
        modeled_seconds: psv.modeled_seconds().to_bits(),
    }
}

#[test]
fn prebuilt_plan_matches_internally_built() {
    let s = setup();
    let base =
        GpuOptions { sv_side: 6, threadblocks_per_sv: 4, svs_per_batch: 4, ..Default::default() };
    let configs = [
        ("chunked+u8", base),
        ("chunked+f32", GpuOptions { amatrix: AMatrixMode::GlobalF32, ..base }),
        ("naive", GpuOptions { layout: Layout::Naive, ..base }),
    ];
    for (label, opts) in configs {
        // Reference: every scan on a driver that builds its own plan.
        let mut plan = None;
        let fresh: Vec<_> = s
            .scans
            .iter()
            .map(|(sc, init)| {
                let mut gpu = GpuIcd::new(&s.a, &sc.y, &sc.weights, &s.prior, init.clone(), opts);
                plan.get_or_insert_with(|| Arc::clone(gpu.plan()));
                gpu_outcome(&mut gpu)
            })
            .collect();
        let plan = plan.expect("two scans");
        // Both scans through the one shared plan, in both orders.
        for order in [[0, 1], [1, 0]] {
            for i in order {
                let (sc, init) = &s.scans[i];
                let mut gpu = GpuIcd::with_plan(
                    &s.a,
                    &sc.y,
                    &sc.weights,
                    &s.prior,
                    init.clone(),
                    opts,
                    Arc::clone(&plan),
                );
                assert_eq!(gpu_outcome(&mut gpu), fresh[i], "gpu {label}: scan {i} of {order:?}");
            }
        }
    }

    let config = PsvConfig { sv_side: 6, ..Default::default() };
    let mut plan = None;
    let fresh: Vec<_> = s
        .scans
        .iter()
        .map(|(sc, init)| {
            let mut psv = PsvIcd::new(&s.a, &sc.y, &sc.weights, &s.prior, init.clone(), config);
            plan.get_or_insert_with(|| Arc::clone(psv.plan()));
            psv_outcome(&mut psv)
        })
        .collect();
    let plan = plan.expect("two scans");
    for order in [[0, 1], [1, 0]] {
        for i in order {
            let (sc, init) = &s.scans[i];
            let mut psv = PsvIcd::with_plan(
                &s.a,
                &sc.y,
                &sc.weights,
                &s.prior,
                init.clone(),
                config,
                Arc::clone(&plan),
            );
            assert_eq!(psv_outcome(&mut psv), fresh[i], "psv: scan {i} of {order:?}");
        }
    }
}
