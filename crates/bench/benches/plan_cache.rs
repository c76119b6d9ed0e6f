//! SV plan benchmark: the one-time per-SV plan build (band shapes,
//! chunk tallies, quantized columns) every driver amortizes across its
//! iterations.

use criterion::{criterion_group, criterion_main, Criterion};
use ct_core::geometry::Geometry;
use ct_core::sysmat::SystemMatrix;
use gpu_icd::{plan_config, GpuOptions};
use std::hint::black_box;
use supervoxel::{SvPlanSet, Tiling};

/// The one-time cost being amortized: building every SV's plan
/// (shapes, chunk tallies, quantized columns), serial vs all cores.
fn bench_sv_plan_build(c: &mut Criterion) {
    let g = Geometry::test_scale();
    let a = SystemMatrix::compute(&g);
    let opts =
        GpuOptions { sv_side: 8, threadblocks_per_sv: 12, svs_per_batch: 16, ..Default::default() };
    let tiling = Tiling::new(g.grid, opts.sv_side);
    let config = plan_config(&opts);
    let mut group = c.benchmark_group("sv_plan_build");
    group.sample_size(10);
    for threads in [1usize, mbir_parallel::available().max(2)] {
        group.bench_function(&format!("build_64_threads{threads}"), |b| {
            b.iter(|| black_box(SvPlanSet::build(&a, &tiling, config, threads)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_sv_plan_build);
criterion_main!(benches);
