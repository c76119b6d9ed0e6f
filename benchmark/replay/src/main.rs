//! `replay` — the end-to-end benchmark's in-process half.
//!
//! `benchmark/run.py` drives the real `mbirctl` binary for every
//! end-to-end number. This program covers what the CLI cannot show
//! from outside: it replays the CLI's call sequence through each
//! crate's public functions with a wall-clock timer around every
//! layer, and it runs the output checks that need library calls.
//!
//! ```text
//! replay info
//! replay rmse     --scale S --pairs <phantom>=<img.csv>[;...]
//! replay modeled  --scale S --sino <scan.csv> --target <img.csv> [--fleet <cluster.json>] [--threads N]
//! replay recon    --scale S --sino <scan.csv> --out <img.pgm> --csv <img.csv> [--fleet <cluster.json>] [--threads N]
//! replay baseline --scale S --sino <scan.csv> [--fleet <cluster.json>] [--iters K] [--threads N]
//! replay serve    --jobs <jobs.json> --devices N --report <cli-report.json> [--trace] [--threads N]
//! ```
//!
//! Every subcommand prints one JSON object on stdout.

use ct_core::fbp;
use ct_core::geometry::Geometry;
use ct_core::hu::{mu_from_hu, rmse_hu};
use ct_core::image::Image;
use ct_core::io;
use ct_core::project::{scan, NoiseModel};
use ct_core::sinogram::Sinogram;
use ct_core::sysmat::SystemMatrix;
use gpu_icd::{plan_config, GpuIcd, GpuOptions, MbirError};
use mbir::convergence::ConvergenceTrace;
use mbir::prior::QggmrfPrior;
use mbir::sequential::golden_image;
use mbir_bench::{gpu_options_for, Args, Scale};
use mbir_fleet::FleetSpec;
use mbir_serve::{solo_run, JobSpec, Server, WorkloadSpec};
use mbir_topo::ClusterSpec;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;
use supervoxel::plan::SvPlanSet;
use supervoxel::tiling::Tiling;

/// The CLI's defaults for the flags the benchmark leaves unset.
const I0: f32 = 2.0e4;
const SIGMA: f32 = 0.002;
const GOLDEN_EQUITS: f64 = 40.0;
const STOP_HU: f32 = 10.0;
const MAX_ITERS: usize = 200;

fn main() -> ExitCode {
    let cmd = std::env::args().nth(1).unwrap_or_default();
    let args = Args::capture_offset(1);
    mbir_parallel::set_threads(args.get_or("threads", 0usize));
    let result = match cmd.as_str() {
        "info" => Ok(cmd_info()),
        "rmse" => cmd_rmse(&args),
        "modeled" => cmd_modeled(&args),
        "recon" => cmd_recon(&args),
        "baseline" => cmd_baseline(&args),
        "serve" => cmd_serve(&args),
        _ => Err(MbirError::Usage(format!("unknown subcommand '{cmd}'"))),
    };
    match result {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("replay {cmd}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Accumulated wall seconds per named layer.
#[derive(Default)]
struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        *self.0.entry(name).or_default() += start.elapsed().as_secs_f64();
        out
    }
}

/// A JSON object rendered by hand: every value the benchmark reads is
/// a number, a bool, a string, a list of numbers, or such an object.
#[derive(Default)]
struct Obj(Vec<(String, String)>);

impl Obj {
    fn num(mut self, k: &str, v: f64) -> Obj {
        // Non-finite values are not JSON; the reader treats null as a
        // failed measurement.
        let s = if v.is_finite() { format!("{v:?}") } else { "null".into() };
        self.0.push((k.into(), s));
        self
    }
    fn flag(mut self, k: &str, v: bool) -> Obj {
        self.0.push((k.into(), v.to_string()));
        self
    }
    fn text(mut self, k: &str, v: &str) -> Obj {
        self.0.push((k.into(), format!("{v:?}")));
        self
    }
    fn nums(mut self, k: &str, v: &[f64]) -> Obj {
        let items: Vec<String> = v.iter().map(|x| format!("{x:?}")).collect();
        self.0.push((k.into(), format!("[{}]", items.join(", "))));
        self
    }
    fn obj(mut self, k: &str, v: Obj) -> Obj {
        self.0.push((k.into(), v.render()));
        self
    }
    fn layers(self, k: &str, l: &Layers) -> Obj {
        let inner = l.0.iter().fold(Obj::default(), |o, (name, s)| o.num(name, *s));
        self.obj(k, inner)
    }
    fn render(&self) -> String {
        let fields: Vec<String> = self.0.iter().map(|(k, v)| format!("{k:?}: {v}")).collect();
        format!("{{{}}}", fields.join(", "))
    }
}

impl std::fmt::Display for Obj {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

fn path_arg(args: &Args, name: &str) -> Result<PathBuf, MbirError> {
    args.get(name)
        .map(PathBuf::from)
        .ok_or_else(|| MbirError::Usage(format!("missing --{name} <path>")))
}

fn same_bits(a: &Image, b: &Image) -> bool {
    a.data().len() == b.data().len()
        && a.data().iter().zip(b.data()).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn cmd_info() -> String {
    let dims = |s: Scale| {
        let g = s.geometry();
        Obj::default()
            .num("nx", g.grid.nx as f64)
            .num("ny", g.grid.ny as f64)
            .num("views", g.num_views as f64)
            .num("channels", g.num_channels as f64)
    };
    Obj::default()
        .text("simd", mbir_simd::resolve(mbir_simd::SimdBackend::Auto).name())
        .num("threads", mbir_parallel::threads() as f64)
        .obj("test", dims(Scale::Test))
        .obj("harness", dims(Scale::Harness))
        .to_string()
}

/// RMSE in HU of each image CSV against its phantom's truth, rendered
/// the way `mbirctl scan` renders it (2x2 supersampling).
fn cmd_rmse(args: &Args) -> Result<String, MbirError> {
    let geom = args.scale().geometry();
    let pairs = args.get("pairs").ok_or_else(|| MbirError::Usage("missing --pairs".into()))?;
    let mut rmse = Vec::new();
    for pair in pairs.split(';') {
        let (phantom, csv) = pair
            .split_once('=')
            .ok_or_else(|| MbirError::Usage(format!("bad pair '{pair}' (want phantom=csv)")))?;
        let truth = mbir_serve::spec::parse_phantom(phantom)
            .map_err(MbirError::Usage)?
            .render(geom.grid, 2);
        let img = io::read_image_csv(&PathBuf::from(csv), geom.grid.pixel_size)
            .map_err(|e| MbirError::io(csv, e))?;
        if img.grid() != geom.grid {
            return Err(MbirError::InvalidData(format!("{csv}: image grid does not match scale")));
        }
        rmse.push(rmse_hu(&img, &truth) as f64);
    }
    Ok(Obj::default().nums("rmse_hu", &rmse).to_string())
}

/// A `--fleet` cluster spec file, parsed the way `mbirctl` parses one.
fn read_cluster(path: &str) -> Result<ClusterSpec, MbirError> {
    let text = std::fs::read_to_string(path).map_err(|e| MbirError::io(path, e))?;
    let bad = |e: String| MbirError::Usage(format!("bad cluster spec '{path}': {e}"));
    let v = mbir_telemetry::json::parse(&text).map_err(|e| bad(e.to_string()))?;
    ClusterSpec::from_json(&v).map_err(bad)
}

/// What `mbirctl reconstruct` prepares before its first GPU-ICD
/// iteration, minus the golden (which only the stopping rule needs).
struct Problem {
    a: SystemMatrix,
    y: Sinogram,
    w: Sinogram,
    prior: QggmrfPrior,
    init: Image,
    opts: GpuOptions,
    cluster: Option<ClusterSpec>,
}

impl Problem {
    fn load(args: &Args, l: &mut Layers) -> Result<Problem, MbirError> {
        let scale = args.scale();
        let geom = scale.geometry();
        let sino = path_arg(args, "sino")?;
        let cluster = args.get("fleet").map(read_cluster).transpose()?;
        let y = l
            .time("ct_core.io_s", || io::read_sinogram_csv(&sino))
            .map_err(|e| MbirError::io(&sino, e))?;
        if y.num_views() != geom.num_views || y.num_channels() != geom.num_channels {
            return Err(MbirError::InvalidData(format!(
                "{}: sinogram does not match --scale",
                sino.display()
            )));
        }
        let a = l.time("ct_core.sysmat_s", || SystemMatrix::compute_parallel(&geom, 0));
        let w = weights(&geom, &y);
        let init = l.time("ct_core.fbp_s", || fbp::reconstruct(&geom, &y));
        let devices = cluster.as_ref().map_or(1, ClusterSpec::total_devices);
        let opts = GpuOptions { devices, ..gpu_options_for(scale) };
        Ok(Problem { a, y, w, prior: QggmrfPrior::standard(SIGMA), init, opts, cluster })
    }

    fn plan(&self) -> Arc<SvPlanSet> {
        let tiling = Tiling::new(self.init.grid(), self.opts.sv_side);
        Arc::new(SvPlanSet::build(&self.a, &tiling, plan_config(&self.opts), self.opts.threads))
    }

    /// `GpuIcd::new` minus its plan build, plus the `--fleet` cluster.
    fn driver(&self, plan: Arc<SvPlanSet>) -> Result<GpuIcd<'_, QggmrfPrior>, MbirError> {
        let mut gpu = GpuIcd::with_plan(
            &self.a,
            &self.y,
            &self.w,
            &self.prior,
            self.init.clone(),
            self.opts,
            plan,
        );
        if let Some(cluster) = &self.cluster {
            gpu.set_cluster_spec(cluster.clone())?;
        }
        Ok(gpu)
    }
}

/// The CLI's statistical weights, `w = I0 exp(-y)`.
fn weights(geom: &Geometry, y: &Sinogram) -> Sinogram {
    let mut w = Sinogram::zeros(geom);
    for (wi, &yi) in w.data_mut().iter_mut().zip(y.data()) {
        *wi = I0 * (-yi.max(0.0)).exp();
    }
    w
}

/// Modeled seconds to the CLI's stop without paying for the golden: run
/// GPU-ICD from the same start until its image equals the CLI's output
/// image bit for bit. GPU-ICD is deterministic and the CLI's stop test
/// reads the image alone, so the first equal boundary is the one the
/// CLI stopped at.
fn cmd_modeled(args: &Args) -> Result<String, MbirError> {
    let target = path_arg(args, "target")?;
    let p = Problem::load(args, &mut Layers::default())?;
    let target = io::read_image_csv(&target, p.init.grid().pixel_size)
        .map_err(|e| MbirError::io(&target, e))?;
    let mut gpu = p.driver(p.plan())?;
    let mut reached = same_bits(gpu.image(), &target);
    for _ in 0..MAX_ITERS {
        if reached {
            break;
        }
        gpu.iteration();
        reached = same_bits(gpu.image(), &target);
    }
    Ok(Obj::default().flag("reached", reached).num("modeled_s", gpu.modeled_seconds()).to_string())
}

/// Replay `mbirctl reconstruct --algo gpu` layer by layer.
fn cmd_recon(args: &Args) -> Result<String, MbirError> {
    let out = path_arg(args, "out")?;
    let csv = path_arg(args, "csv")?;
    let mut l = Layers::default();
    let p = Problem::load(args, &mut l)?;
    let golden = l.time("mbir.golden_s", || {
        golden_image(&p.a, &p.y, &p.w, &p.prior, p.init.clone(), GOLDEN_EQUITS)
    });
    let plan = l.time("supervoxel.plan_build_s", || p.plan());
    let mut gpu = l.time("gpu_icd.driver_init_s", || p.driver(plan))?;
    // `GpuIcd::run_to_rmse`, unrolled: a stop check before every
    // iteration and a convergence-trace point after it.
    let mut trace = ConvergenceTrace::default();
    l.time("gpu_icd.stop_check_s", || {
        trace.record(gpu.equits(), gpu.modeled_seconds(), gpu.image(), &golden)
    });
    for _ in 0..MAX_ITERS {
        if l.time("gpu_icd.stop_check_s", || rmse_hu(gpu.image(), &golden)) < STOP_HU {
            break;
        }
        l.time("gpu_icd.iteration_s", || gpu.iteration());
        l.time("gpu_icd.stop_check_s", || {
            trace.record(gpu.equits(), gpu.modeled_seconds(), gpu.image(), &golden)
        });
    }
    l.time("ct_core.io_s", || {
        io::write_pgm(&out, gpu.image(), mu_from_hu(-1000.0), mu_from_hu(1500.0))
            .map_err(|e| MbirError::io(&out, e))?;
        io::write_image_csv(&csv, gpu.image()).map_err(|e| MbirError::io(&csv, e))
    })?;

    let mut o = Obj::default().layers("layers", &l).num("modeled_s", gpu.modeled_seconds());
    if let Some(fr) = gpu.fleet_report() {
        let n = fr.per_device.len().max(1) as f64;
        o = o.obj(
            "fleet",
            Obj::default()
                .num("wall_s", fr.wall_seconds)
                .num("exchange_s", fr.exchange_seconds)
                .num("exchange_bytes", fr.exchange_bytes as f64)
                .num("utilization", fr.per_device.iter().map(|d| d.utilization).sum::<f64>() / n)
                .num("idle_s", fr.per_device.iter().map(|d| d.idle_seconds).sum()),
        );
    }
    Ok(o.to_string())
}

/// The single-threaded baseline: the system-matrix build and `iters`
/// GPU-ICD iterations, each timed at one thread and at the process's
/// thread count, with the two images checked bitwise equal.
fn cmd_baseline(args: &Args) -> Result<String, MbirError> {
    let threads = mbir_parallel::threads();
    let iters: usize = args.get_or("iters", 3);
    let mut many = Layers::default();
    let p = Problem::load(args, &mut many)?;
    let geom = args.scale().geometry();
    let mut one = Layers::default();
    mbir_parallel::set_threads(1);
    one.time("ct_core.sysmat_s", || SystemMatrix::compute_parallel(&geom, 0));
    mbir_parallel::set_threads(threads);
    let plan = p.plan();
    let mut images = Vec::new();
    for (n, l) in [(threads, &mut many), (1, &mut one)] {
        mbir_parallel::set_threads(n);
        let mut gpu = p.driver(plan.clone())?;
        for _ in 0..iters {
            l.time("gpu_icd.iteration_s", || gpu.iteration());
        }
        images.push(gpu.image().clone());
    }
    mbir_parallel::set_threads(threads);
    let ratio = |k: &str| one.0[k] / many.0[k];
    Ok(Obj::default()
        .num("threads", threads as f64)
        .num("iters", iters as f64)
        .layers("one_thread", &one)
        .layers("threads_n", &many)
        .num("sysmat_speedup", ratio("ct_core.sysmat_s"))
        .num("iteration_speedup", ratio("gpu_icd.iteration_s"))
        .flag("bitwise_equal", same_bits(&images[0], &images[1]))
        .to_string())
}

/// Check a `mbirctl serve` run: the in-process `Server::run` of the same
/// job file reproduces the CLI's report byte for byte, and every
/// completed job's image and modeled seconds equal `solo_run`'s. With
/// `--trace`, also replay the server's host work layer by layer.
fn cmd_serve(args: &Args) -> Result<String, MbirError> {
    let jobs = path_arg(args, "jobs")?;
    let report = path_arg(args, "report")?;
    let text = std::fs::read_to_string(&jobs).map_err(|e| MbirError::io(&jobs, e))?;
    let workload = WorkloadSpec::parse(&text).map_err(MbirError::Usage)?;
    let fleet = FleetSpec::titan_x_pcie(args.get_or("devices", 2usize));
    let mut l = Layers::default();
    let outcome =
        l.time("serve.run_s", || Server::new(fleet.clone(), workload.clone()).run(None))?;
    let cli = std::fs::read_to_string(&report).map_err(|e| MbirError::io(&report, e))?;
    let ours = serde_json::to_string_pretty(&outcome.report)
        .map_err(|e| MbirError::InvalidData(format!("report serialization: {e}")))?;

    let spec_of = |id: &str| workload.jobs.iter().find(|j| j.id == id).expect("image of a job");
    let mut solo_mismatch = Vec::new();
    let mut rmse = Vec::new();
    for (id, img) in &outcome.images {
        let spec = spec_of(id);
        let (solo, solo_s) = solo_run(&fleet, spec)?;
        let row = outcome.report.jobs.iter().find(|j| &j.id == id).expect("row of a job");
        if !same_bits(img, &solo) || row.modeled_seconds.to_bits() != solo_s.to_bits() {
            solo_mismatch.push(id.clone());
        }
        let truth =
            spec.resolve_phantom().map_err(MbirError::Usage)?.render(spec.scale.geometry().grid, 2);
        rmse.push(rmse_hu(img, &truth) as f64);
    }
    let mut o = Obj::default()
        .flag("report_equal", cli == ours)
        .num("images", outcome.images.len() as f64)
        .num("solo_mismatches", solo_mismatch.len() as f64)
        .nums("rmse_hu", &rmse);
    if args.has("trace") {
        let images = replay_serve(&fleet, &workload, &outcome.report, &mut l)?;
        let same = outcome
            .images
            .iter()
            .all(|(id, img)| images.iter().any(|(rid, rimg)| rid == id && same_bits(img, rimg)));
        o = o.flag("replay_equal", same);
    }
    Ok(o.layers("layers", &l).to_string())
}

/// `Server::run`'s host work through public calls: one system matrix
/// and plan per scale, then per job the scan, the FBP init, one driver
/// per lease grant, the iterations, and a checkpoint plus restore per
/// preemption (taken as early as possible; the host cost is the same
/// at any boundary).
fn replay_serve(
    fleet: &FleetSpec,
    workload: &WorkloadSpec,
    report: &mbir_serve::ServeReport,
    l: &mut Layers,
) -> Result<Vec<(String, Image)>, MbirError> {
    type Cache = Vec<(Scale, Arc<SystemMatrix>, Arc<SvPlanSet>)>;
    let mut cache: Cache = Vec::new();
    let mut images = Vec::new();
    for row in report.jobs.iter().filter(|j| j.status == "completed") {
        let spec: &JobSpec = workload.jobs.iter().find(|j| j.id == row.id).expect("job row");
        let geom = spec.scale.geometry();
        let mut opts = gpu_options_for(spec.scale);
        opts.devices = spec.devices;
        opts.seed = spec.seed;
        let (a, plan) = match cache.iter().find(|(s, _, _)| *s == spec.scale) {
            Some((_, a, plan)) => (a.clone(), plan.clone()),
            None => {
                let a = l.time("ct_core.sysmat_s", || {
                    Arc::new(SystemMatrix::compute_parallel(&geom, opts.threads))
                });
                let plan = l.time("supervoxel.plan_build_s", || {
                    let tiling = Tiling::new(geom.grid, opts.sv_side);
                    Arc::new(SvPlanSet::build(&a, &tiling, plan_config(&opts), opts.threads))
                });
                cache.push((spec.scale, a.clone(), plan.clone()));
                (a, plan)
            }
        };
        let phantom = spec.resolve_phantom().map_err(MbirError::Usage)?;
        let s = l.time("ct_core.scan_s", || {
            scan(&a, &phantom.render(geom.grid, 2), Some(NoiseModel::default_dose()), spec.seed)
        });
        let prior = QggmrfPrior::standard(spec.sigma);
        let init = l.time("ct_core.fbp_s", || fbp::reconstruct(&geom, &s.y));
        let build = || -> Result<GpuIcd<'_, QggmrfPrior>, MbirError> {
            let mut gpu =
                GpuIcd::with_plan(&a, &s.y, &s.weights, &prior, init.clone(), opts, plan.clone());
            if spec.devices > 1 {
                let carved =
                    fleet.carve(spec.devices).map_err(|e| MbirError::Usage(e.to_string()))?;
                gpu.set_fleet_spec(carved)?;
            }
            Ok(gpu)
        };
        let mut gpu = l.time("gpu_icd.driver_init_s", build)?;
        let mut preemptions = row.preemptions;
        for _ in 0..spec.iters {
            l.time("gpu_icd.iteration_s", || gpu.iteration());
            if preemptions > 0 {
                preemptions -= 1;
                let ckp = l.time("gpu_icd.checkpoint_s", || gpu.checkpoint());
                gpu = l.time("gpu_icd.driver_init_s", build)?;
                l.time("gpu_icd.checkpoint_s", || gpu.restore(&ckp))?;
            }
        }
        images.push((row.id.clone(), gpu.image().clone()));
    }
    Ok(images)
}
