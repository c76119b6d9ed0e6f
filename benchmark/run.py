#!/usr/bin/env python3
"""End-to-end benchmark of the MBIR reproduction, on two clocks.

    python3 benchmark/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run builds `mbirctl` (the
root workspace's `mbir-cli` package) and `benchmark/replay` into
`$CARGO_TARGET_DIR` (default `.bench_build`). The benchmark then drives
the real `mbirctl` binary, one child at a time, with `--threads` equal
to the number of cores this process may use: a closed loop with one
client. It generates every input from `--seed` and checks every output.
The last line of stdout is one JSON object:
`{"correct", "attempted", "failed", "metrics"}`. The process exits 1
if any check failed.

Two clocks
----------
*Host* metrics are wall seconds and peak memory of the child processes.
*Modeled* metrics are Titan X seconds from the program's own ledgers:
the `--profile` JSON of `reconstruct`, and the `--out` report of
`serve`. A modeled metric repeats exactly for a given seed.

Workloads, and why each was chosen
----------------------------------
recon-harness
    One 256x256, 360-view baggage scan, reconstructed with
    `mbirctl reconstruct --scale harness --algo gpu` on one device. This
    is the fixed user command that the paper's Table 1 times. About 95%
    of its host time is set-up (the 40-equit golden, the system matrix,
    and the plan and lane tables). It has no exchange. So it shows
    set-up and stopping-rule changes, and predicts no change for
    fleet or topology changes.
cluster-2x2
    A batch of ten 64x64, 96-view baggage scans, each reconstructed
    on `--fleet specs/cluster_2x2.json` (2 nodes x 2 devices, NVLink
    and 100GbE, 2 slabs). It is the only workload where the topology
    phases do work (intra gather, inter exchange, broadcast, slab load,
    seam halo). Each image must equal the single-device image of the
    same scan bit for bit.
serve-mixed
    100 test-scale jobs from three tenants on `mbirctl serve --devices
    4`: urgent 2-iteration jobs with deadlines, 4-iteration streaming
    jobs, and 8-iteration low-priority jobs on 2-device leases. Arrivals
    are an open loop on the modeled clock, every 0.2 ms, so that leases
    contend and jobs get preempted. Job latency counts from the
    scheduled arrival. This workload computes no golden. It rebuilds a
    driver from a shared plan on every lease grant, so its host time
    goes to driver init and iterations, and only the scheduler sets
    its latencies. 100 jobs leave 10 samples beyond p90.

Every workload takes its phantoms from a fixed suite (`baggage:0` to
`baggage:9`) and draws each scan's noise from the seed. Iterations to
the 10 HU stop differ up to six-fold between phantoms (2.6 to 15.1
equits at harness scale), which would swamp any bound if the seed chose
the phantom.

Faults are left out: the fleet layer is measured by cluster-2x2 and by
the 2-device leases of serve-mixed, and the conformance goldens pin the
fault ledger.

End-to-end metrics (`--trace 0`; every workload reports each one)
-----------------------------------------------------------------
wall_s          median host seconds of the measured command: the
                tracing-off `reconstruct` to the CLI's stopping rule
                (recon_wall_s), or one `serve` of the job file
                (serve_wall_s).
setup_s         median host seconds of the same command with no work:
                `reconstruct --max-iters 0`, which pays everything
                before the first iteration; or `serve` of the same jobs
                cut to one iteration each (serve refuses zero).
peak_rss_mb     median peak resident memory of the measured command.
modeled_s       median modeled seconds from submission to result: per
                scan, the modeled seconds to the CLI's stop (the paper's
                Table 1 quantity); per serve job, the latency from its
                scheduled arrival (serve_p50_s). For a scan, `replay
                modeled` runs GPU-ICD until its image equals the CLI's
                output bit for bit, which skips a second golden; trace
                runs check that this equals the profile's
                iterations[].modeled_seconds sum.
modeled_p90_s   90th percentile of the same (serve_p90_s).
jobs_per_hour   results per modeled hour (serve_jobs_per_hour).
rmse_truth_hu   median RMSE in HU of the result images against the
                phantom truth. It guards quality when a stopping rule
                changes.

Failed, refused and check-failing operations are `failed` out of
`attempted` in the result line (fail_frac). Deadline misses, where
refused jobs count as misses, are `serve.deadline_miss_frac`. Both are
0 on a healthy run, so neither can be a bounded metric.

Per-layer metrics (`--trace 1`) and the end-to-end metric each should move
-------------------------------------------------------------------------
Host layers, timed by `replay` around the same public calls `mbirctl`
makes, one scan or one serve run each, reported as medians over scans:
  ct_core.sysmat_s, ct_core.fbp_s, ct_core.io_s  -> setup_s on
      recon-harness (about 4% / 0.5% / <0.1%). Serve builds the system
      matrix once per scale; ct_core.scan_s is serve's per-job scan.
  mbir.golden_s -> wall_s and setup_s on recon-harness and cluster-2x2
      (about 85%). It is 0 on serve-mixed; dropping the golden should
      not move serve.
  supervoxel.plan_build_s, gpu_icd.driver_init_s -> setup_s on
      recon-harness (about 7%), wall_s on serve-mixed (one driver per
      lease grant).
  gpu_icd.iteration_s, gpu_icd.stop_check_s -> wall_s on recon-harness
      (about 5%) and on serve-mixed. gpu_icd.checkpoint_s is serve's
      preemption cost.
  serve.run_s (`Server::run`, the whole scheduler) -> wall_s on
      serve-mixed.
  parallel.{sysmat,iteration}_speedup: the system-matrix build and
      three GPU-ICD iterations at 1 thread over the same at all cores.
Modeled solver and kernels, from the profile (serve: from the report
and the profile's kernel totals):
  gpu_icd.{iterations,equits,updates,zero_skip_frac},
  gpu_sim.{svb_create,mbir_update,writeback}_s, gpu_sim.launches,
  gpu_sim.{dram,tex,l2}_bytes, gpu_sim.tex_hit_rate,
  gpu_sim.occupancy, gpu_sim.mbir_update_flops_per_dram_byte
      -> modeled_s on recon-harness, and the serve latencies.
Modeled exchange, from `GpuIcd::fleet_report()` and the profile's
exchange lane:
  fleet.{exchange_s,exchange_bytes,exchange_share,utilization,idle_s},
  topo.{intra_gather,inter_exchange,intra_broadcast,slab_load,
  seam_halo}_s, topo.inter_bytes
      -> modeled_s on cluster-2x2. They are 0 on recon-harness, so a
      change there should move nothing. On serve-mixed, fleet
      utilization and idle come from the serve report.
Modeled scheduler, from the serve report:
  serve.{queue_p90_s,preemptions,utilization,fairness_jain,
  ingest_hidden_s,deadline_miss_frac} -> modeled_p90_s and
      jobs_per_hour on serve-mixed.
The benchmark itself:
  telemetry.overhead_s  median wall_s with `--profile` minus without.
  telemetry.totals_gap_s  profile totals.seconds minus the iteration
      timeline (serve: minus the report's device-busy seconds). Reported,
      not asserted.
  trace.coverage  the traced host layers over the median untraced
      wall_s. Far from 1 means the replay no longer follows the CLI.

Output checks (each failure counts in `failed`)
-----------------------------------------------
- every child exits 0;
- GPU-ICD reaches the CLI's image bit for bit, as do a profiled run
  and the traced replay;
- every cluster-2x2 image equals the single-device image of its scan;
- every serve report equals the in-process `Server::run` report byte
  for byte, and every completed job's image and modeled seconds equal
  `mbir_serve::solo_run`;
- the modeled time to the stop prints as the CLI prints it; in trace
  runs the profile's iterations[].modeled_seconds sum also equals its
  last convergence point and the replay's modeled seconds;
- every image's RMSE against the truth stays within a fixed bound.
"""

import argparse
import collections
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

WORKLOADS = ("recon-harness", "cluster-2x2", "serve-mixed")
CLUSTER_SPEC = "specs/cluster_2x2.json"
PHANTOM_SUITE = 10
CLUSTER_SCANS = 10
SERVE_JOBS = 100
SERVE_SPACING_S = 2e-4
SERVE_DEADLINE_S = 6e-4
SERVE_DEVICES = 4
BASELINE_ITERS = 3
# Upper bounds on RMSE against the phantom truth. Converged images sit
# near 30 HU at test scale; 2-iteration serve jobs stop near 120 HU.
RMSE_BOUND_HU = {"recon": 80.0, "serve": 250.0}
# The CLI prints modeled time as "modeled Titan X time 0.0350 s".
PRINTED_MODELED = re.compile(r"modeled Titan X time ([0-9.]+) s")

END_TO_END = ("wall_s", "setup_s", "peak_rss_mb", "modeled_s", "modeled_p90_s",
              "jobs_per_hour", "rmse_truth_hu")
UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "modeled_s": "s",
         "modeled_p90_s": "s", "jobs_per_hour": "1/h", "rmse_truth_hu": "HU",
         "gpu_icd.equits": "equits", "gpu_sim.mbir_update_flops_per_dram_byte": "flop/B"}
PER_LAYER = (
    "ct_core.sysmat_s", "ct_core.fbp_s", "ct_core.io_s", "ct_core.scan_s",
    "mbir.golden_s", "supervoxel.plan_build_s", "gpu_icd.driver_init_s",
    "gpu_icd.iteration_s", "gpu_icd.stop_check_s", "gpu_icd.checkpoint_s",
    "serve.run_s", "parallel.sysmat_speedup", "parallel.iteration_speedup",
    "gpu_icd.iterations", "gpu_icd.equits", "gpu_icd.updates",
    "gpu_icd.zero_skip_frac",
    "gpu_sim.svb_create_s", "gpu_sim.mbir_update_s", "gpu_sim.writeback_s",
    "gpu_sim.launches", "gpu_sim.dram_bytes", "gpu_sim.tex_bytes",
    "gpu_sim.l2_bytes", "gpu_sim.tex_hit_rate", "gpu_sim.occupancy",
    "gpu_sim.mbir_update_flops_per_dram_byte",
    "fleet.exchange_s", "fleet.exchange_bytes", "fleet.exchange_share",
    "fleet.utilization", "fleet.idle_s",
    "topo.intra_gather_s", "topo.inter_exchange_s", "topo.intra_broadcast_s",
    "topo.slab_load_s", "topo.seam_halo_s", "topo.inter_bytes",
    "serve.queue_p90_s", "serve.preemptions", "serve.utilization",
    "serve.fairness_jain", "serve.ingest_hidden_s", "serve.deadline_miss_frac",
    "telemetry.overhead_s", "telemetry.totals_gap_s", "trace.coverage",
)
HOST_LAYERS = PER_LAYER[:10]
TOPO_PHASES = ("intra_gather", "inter_exchange", "intra_broadcast", "slab_load", "seam_halo")


def unit_of(name):
    if name in UNITS:
        return UNITS[name]
    leaf = name.split(".")[-1]
    for suffix, unit in (("_s", "s"), ("_bytes", "B"), ("_speedup", "x")):
        if leaf.endswith(suffix):
            return unit
    return "count" if leaf in ("iterations", "updates", "launches", "preemptions") else "ratio"


def percentile(sample, p):
    """Nearest-rank percentile, the definition `mbir_serve` reports."""
    v = sorted(sample)
    rank = -(-p * len(v) // 100)
    return v[min(max(int(rank), 1), len(v)) - 1]


def tail_percentile(n):
    """The highest of p50/p90/p99 with at least ten samples beyond it."""
    return max((p for p in (50, 90, 99) if n * (100 - p) / 100 >= 10), default=None)


class Ledger:
    """Operations attempted and failed: child processes and checks."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)
            print(f"check failed: {what}", file=sys.stderr)
        return ok


Child = collections.namedtuple("Child", "rc wall rss_mb stdout stderr")


class Bench:
    def __init__(self, args, mbirctl, replay, work):
        self.args = args
        self.mbirctl, self.replay, self.work = str(mbirctl), str(replay), work
        self.threads = len(os.sched_getaffinity(0))
        self.ledger = Ledger()
        self.samples = {}
        self.start = time.perf_counter()
        self.serial = 0

    def elapsed(self):
        return time.perf_counter() - self.start

    def run(self, argv, what):
        """Run one child to completion; time it and read its peak RSS."""
        self.serial += 1
        out_path = self.work / f"child{self.serial}.out"
        err_path = self.work / f"child{self.serial}.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        child = Child(proc.returncode, wall, usage.ru_maxrss / 1024.0,
                      out_path.read_text(errors="replace"), err_path.read_text(errors="replace"))
        out_path.unlink()
        err_path.unlink()
        if not self.ledger.check(child.rc == 0, f"{what} exited {child.rc}"):
            print(child.stderr[-2000:], file=sys.stderr)
        return child

    def mbir(self, what, *argv):
        return self.run([self.mbirctl, *argv, "--threads", str(self.threads)], what)

    def replay_json(self, what, *argv):
        child = self.run([self.replay, *argv, "--threads", str(self.threads)], what)
        return json.loads(child.stdout) if child.rc == 0 else None

    def sample(self, name, value):
        self.samples.setdefault(name, []).append(value)

    def rmse_checked(self, scale, pairs, bound, what):
        out = self.replay_json(f"rmse {what}", "rmse", "--scale", scale,
                               "--pairs", ";".join(f"{p}={csv}" for p, csv in pairs))
        values = out["rmse_hu"] if out else []
        for (phantom, _), v in zip(pairs, values):
            self.ledger.check(v < bound, f"{what} {phantom}: RMSE {v:.1f} HU >= {bound} HU")
        return values


def same_file(a, b):
    return Path(a).read_bytes() == Path(b).read_bytes()


def profile_modeled(bench, profile, printed, what):
    """Modeled per-layer numbers from a reconstruct profile, after the
    ledger check: iterations sum == last convergence point == printed."""
    its = profile["iterations"]
    timeline = sum(i["modeled_seconds"] for i in its)
    last = profile["convergence"][-1]["seconds"]
    bench.ledger.check(timeline == last,
                       f"{what}: iteration sum {timeline!r} != last convergence {last!r}")
    bench.ledger.check(printed == f"{timeline:.4f}",
                       f"{what}: printed modeled time {printed} != {timeline:.4f}")
    updates = sum(i["updates"] for i in its)
    skipped = sum(i["skipped"] for i in its)
    m = kernel_layers(profile)
    m.update({
        "gpu_icd.iterations": len(its),
        "gpu_icd.equits": its[-1]["equits"] if its else 0.0,
        "gpu_icd.updates": updates,
        "gpu_icd.zero_skip_frac": skipped / (updates + skipped) if updates + skipped else 0.0,
        "telemetry.totals_gap_s": profile["totals"]["seconds"] - timeline,
    })
    for phase in TOPO_PHASES:
        m[f"topo.{phase}_s"] = sum(x["duration_seconds"] for x in profile["exchanges"]
                                   if x["phase"] == phase)
    m["topo.inter_bytes"] = sum(x["bytes"] for x in profile["exchanges"]
                                if x["phase"] == "inter_exchange")
    return timeline, m


def kernel_layers(profile):
    k = {x["kernel"]: x for x in profile["kernels"]}
    upd = k.get("mbir_update", {})
    m = {f"gpu_sim.{name}_s": k[kernel]["seconds"] if kernel in k else 0.0
         for name, kernel in (("svb_create", "svb_create"), ("mbir_update", "mbir_update"),
                              ("writeback", "error_writeback"))}
    m["gpu_sim.launches"] = sum(x["launches"] for x in k.values())
    for b in ("dram", "tex", "l2"):
        m[f"gpu_sim.{b}_bytes"] = sum(x[f"{b}_bytes"] for x in k.values())
    m["gpu_sim.tex_hit_rate"] = upd.get("tex_hit_rate", 0.0)
    m["gpu_sim.occupancy"] = upd.get("occupancy", 0.0)
    dram = upd.get("dram_bytes", 0.0)
    m["gpu_sim.mbir_update_flops_per_dram_byte"] = upd["flops"] / dram if dram else 0.0
    return m


def scan_args(scale, seed, i, out):
    """`mbirctl scan` arguments for scan `i` of a recon workload: a
    phantom from the fixed suite, noise drawn from the seed."""
    return ["scan", "--scale", scale, "--phantom", f"baggage:{i % PHANTOM_SUITE}",
            "--seed", str(seed * 1000 + i), "--out", str(out)]


def run_recon(bench, scale, fleet, scans):
    """recon-harness and cluster-2x2: a closed loop over a batch of
    scans. The first pass makes every check and reads the modeled
    clock; further passes, while `--seconds` lasts, add host samples."""
    seed, trace = bench.args.seed, bench.args.trace
    fleet_args = ["--fleet", fleet] if fleet else []
    work = bench.work
    batch = []
    for i in range(scans):
        sino = work / f"scan{i}.csv"
        args = scan_args(scale, seed, i, sino)
        bench.mbir(f"scan {i}", *args)
        batch.append((args[4], sino))
    base = ["reconstruct", "--scale", scale, "--algo", "gpu"]
    modeled, layers, plain_walls, prof_walls = [], [], [], []
    images = []

    def setup_and_plain(i, sino):
        if not trace:
            s = bench.mbir(f"setup {i}", *base, "--sino", str(sino), *fleet_args,
                           "--max-iters", "0", "--out", str(work / "setup.pgm"))
            bench.sample("setup_s", s.wall)
        csv = work / f"plain{i}.csv"
        plain = bench.mbir(f"reconstruct {i}", *base, "--sino", str(sino), *fleet_args,
                           "--out", str(work / "plain.pgm"), "--csv", str(csv))
        bench.sample("wall_s", plain.wall)
        bench.sample("peak_rss_mb", plain.rss_mb)
        return plain, csv

    for i, (phantom, sino) in enumerate(batch):
        plain, csv = setup_and_plain(i, sino)
        if plain.rc:
            continue
        printed = PRINTED_MODELED.search(plain.stderr)
        printed = printed.group(1) if printed else "?"
        if trace:
            prof_path = work / "profile.json"
            prof = bench.mbir(f"profiled reconstruct {i}", *base, "--sino", str(sino),
                              *fleet_args, "--out", str(work / "prof.pgm"),
                              "--csv", str(work / "prof.csv"), "--profile", str(prof_path))
            if prof.rc:
                continue
            bench.ledger.check(same_file(csv, work / "prof.csv"),
                               f"scan {i}: profiled image differs from unprofiled")
            timeline, m = profile_modeled(bench, json.loads(prof_path.read_text()), printed,
                                          f"scan {i}")
        else:
            # The modeled clock without a second golden: the replay runs
            # GPU-ICD until it reaches the CLI's image. Trace runs check
            # that this equals the profile's timeline.
            rep = bench.replay_json(f"modeled {i}", "modeled", "--scale", scale, "--sino",
                                    str(sino), *fleet_args, "--target", str(csv))
            if rep is None:
                continue
            bench.ledger.check(rep["reached"], f"scan {i}: GPU-ICD never reached the CLI's image")
            timeline, m = rep["modeled_s"], {}
            bench.ledger.check(printed == f"{timeline:.4f}",
                               f"scan {i}: printed modeled time {printed} != {timeline:.4f}")
        modeled.append(timeline)
        images.append((phantom, csv))
        if fleet:
            single = work / f"single{i}.csv"
            bench.mbir(f"single-device reconstruct {i}", *base, "--sino", str(sino),
                       "--out", str(work / "single.pgm"), "--csv", str(single))
            bench.ledger.check(single.exists() and same_file(csv, single),
                               f"scan {i}: cluster image differs from single-device image")
        if trace:
            rep = bench.replay_json(f"replay {i}", "recon", "--scale", scale, "--sino", str(sino),
                                    *fleet_args, "--out", str(work / "replay.pgm"),
                                    "--csv", str(work / "replay.csv"))
            if rep is None:
                continue
            bench.ledger.check(same_file(csv, work / "replay.csv"),
                               f"scan {i}: replayed image differs from the CLI's")
            bench.ledger.check(rep["modeled_s"] == timeline,
                               f"scan {i}: replay modeled {rep['modeled_s']!r} != {timeline!r}")
            m.update(rep["layers"])
            fr = rep.get("fleet")
            if fr:
                m.update({"fleet.exchange_s": fr["exchange_s"],
                          "fleet.exchange_bytes": fr["exchange_bytes"],
                          "fleet.exchange_share": fr["exchange_s"] / fr["wall_s"],
                          "fleet.utilization": fr["utilization"],
                          "fleet.idle_s": fr["idle_s"]})
            plain_walls.append(plain.wall)
            prof_walls.append(prof.wall)
            m["trace.coverage"] = sum(rep["layers"].get(k, 0.0) for k in HOST_LAYERS) / plain.wall
        layers.append(m)

    rmse = bench.rmse_checked(scale, images, RMSE_BOUND_HU["recon"], "reconstruct")
    if not trace:
        # Further passes while time lasts: host samples only, each image
        # checked against its first-pass twin.
        while bench.elapsed() < bench.args.seconds:
            for i, (phantom, sino) in enumerate(batch):
                if bench.elapsed() >= bench.args.seconds:
                    break
                plain, csv = setup_and_plain(i, sino)
                if plain.rc == 0:
                    bench.ledger.check(same_file(csv, work / f"plain{i}.csv"),
                                       f"scan {i}: rerun image differs")
    metrics = {}
    if modeled:
        metrics.update({
            "modeled_s": statistics.median(modeled),
            "modeled_p90_s": percentile(modeled, 90),
            "jobs_per_hour": 3600.0 * len(modeled) / sum(modeled),
        })
        bench.samples["modeled_s"] = modeled
    if rmse:
        metrics["rmse_truth_hu"] = statistics.median(rmse)
    if trace and layers:
        metrics.update(layer_medians(layers))
        metrics["telemetry.overhead_s"] = (statistics.median(prof_walls)
                                           - statistics.median(plain_walls))
        base_out = bench.replay_json("baseline", "baseline", "--scale", scale,
                                     "--sino", str(batch[0][1]), *fleet_args,
                                     "--iters", str(BASELINE_ITERS))
        if base_out:
            bench.ledger.check(base_out["bitwise_equal"],
                               "baseline: 1-thread image differs from all-core image")
            metrics["parallel.sysmat_speedup"] = base_out["sysmat_speedup"]
            metrics["parallel.iteration_speedup"] = base_out["iteration_speedup"]
    return metrics


def layer_medians(layers):
    names = sorted({k for m in layers for k in m})
    return {k: statistics.median(m.get(k, 0.0) for m in layers) for k in names}


def serve_jobs(seed, iters_override=None):
    """The serve-mixed job file: three tenants in the repro_serve
    pattern, at fixed spacing on the modeled clock."""
    jobs = []
    for i in range(SERVE_JOBS):
        arrival = i * SERVE_SPACING_S
        job = {"id": f"job-{i:03d}", "scale": "test", "phantom": f"baggage:{i % PHANTOM_SUITE}",
               "seed": seed * 1000 + i, "arrival_seconds": arrival}
        if i % 3 == 1:
            job.update(tenant="trauma", priority=5, iters=2,
                       deadline_seconds=arrival + SERVE_DEADLINE_S)
        elif i % 3 == 2:
            job.update(tenant="archive", priority=-1, iters=8, devices=2)
        else:
            job.update(tenant="radiology", priority=1, iters=4, view_rate=20000.0)
        if iters_override is not None:
            job["iters"] = iters_override
        jobs.append(job)
    return json.dumps({"jobs": jobs}, indent=1) + "\n"


def run_serve(bench):
    seed, trace, work = bench.args.seed, bench.args.trace, bench.work
    jobs, setup_jobs = work / "jobs.json", work / "jobs_setup.json"
    jobs.write_text(serve_jobs(seed))
    setup_jobs.write_text(serve_jobs(seed, iters_override=1))
    serve = ["serve", "--jobs", str(jobs), "--devices", str(SERVE_DEVICES)]
    first = work / "report0.json"

    def plain(k):
        out = work / f"report{k}.json"
        c = bench.mbir(f"serve {k}", *serve, "--out", str(out))
        bench.sample("wall_s", c.wall)
        bench.sample("peak_rss_mb", c.rss_mb)
        if k and c.rc == 0:
            bench.ledger.check(same_file(out, first), f"serve {k}: report differs from run 0")

    k = 0
    while k == 0 or (not trace and bench.elapsed() < bench.args.seconds):
        if not trace:
            s = bench.mbir(f"setup serve {k}", "serve", "--jobs", str(setup_jobs),
                           "--devices", str(SERVE_DEVICES), "--out", str(work / "setup.json"))
            bench.sample("setup_s", s.wall)
        plain(k)
        k += 1
    if not first.exists():
        return {}
    report = json.loads(first.read_text())
    extra = ["--trace"] if trace else []
    chk = bench.replay_json("serve check", "serve", "--jobs", str(jobs), "--devices",
                            str(SERVE_DEVICES), "--report", str(first), *extra)
    walls = bench.samples["wall_s"]
    metrics = {}
    if chk:
        bench.ledger.check(chk["report_equal"], "serve: CLI report != in-process Server::run")
        for n in range(int(chk["images"])):
            bench.ledger.check(n >= chk["solo_mismatches"], "serve: job image != solo_run")
        for v in chk["rmse_hu"]:
            bench.ledger.check(v < RMSE_BOUND_HU["serve"], f"serve job RMSE {v:.1f} HU")
        if chk["rmse_hu"]:
            metrics["rmse_truth_hu"] = statistics.median(chk["rmse_hu"])
    rows = report["jobs"]
    done = [j for j in rows if j["status"] == "completed"]
    for j in rows:
        bench.ledger.check(j["status"] == "completed", f"serve: job {j['id']} {j['reason']}")
    latency = [j["latency_seconds"] for j in done]
    bench.samples["modeled_s"] = latency
    if latency:
        metrics.update({"modeled_s": percentile(latency, 50),
                        "modeled_p90_s": percentile(latency, 90),
                        "jobs_per_hour": report["jobs_per_hour"]})
    if trace:
        with_deadline = [j for j in rows if j["deadline_seconds"] is not None]
        missed = [j for j in with_deadline if j["missed_deadline"] or j["status"] != "completed"]
        devices = report["devices"]
        metrics.update({
            "serve.queue_p90_s": percentile([j["queue_seconds"] for j in done], 90),
            "serve.preemptions": report["preemptions"],
            "serve.utilization": report["utilization"],
            "serve.fairness_jain": report["fairness_jain"],
            "serve.ingest_hidden_s": sum(j["ingest_hidden_seconds"] for j in rows),
            "serve.deadline_miss_frac": len(missed) / len(with_deadline),
            "gpu_icd.iterations": sum(j["iterations"] for j in rows),
            "fleet.utilization": report["utilization"],
            "fleet.idle_s": devices * report["wall_seconds"] - sum(report["per_device_busy_seconds"]),
        })
        prof_path = work / "profile.json"
        prof = bench.mbir("profiled serve", *serve, "--out", str(work / "prof_report.json"),
                          "--profile", str(prof_path))
        if prof.rc == 0:
            bench.ledger.check(same_file(work / "prof_report.json", first),
                               "serve: profiled report differs from unprofiled")
            profile = json.loads(prof_path.read_text())
            metrics.update(kernel_layers(profile))
            metrics["telemetry.totals_gap_s"] = (profile["totals"]["seconds"]
                                                 - sum(report["per_device_busy_seconds"]))
            metrics["telemetry.overhead_s"] = prof.wall - statistics.median(walls)
        if chk:
            bench.ledger.check(chk.get("replay_equal", False), "serve: replay images != server")
            metrics.update(chk["layers"])
            leaf = sum(v for k, v in chk["layers"].items() if k in HOST_LAYERS)
            metrics["trace.coverage"] = leaf / statistics.median(walls)
        sino = work / "baseline.csv"
        bench.mbir("baseline scan", *scan_args("test", seed, 0, sino))
        base_out = bench.replay_json("baseline", "baseline", "--scale", "test", "--sino", str(sino),
                                     "--iters", str(BASELINE_ITERS))
        if base_out:
            bench.ledger.check(base_out["bitwise_equal"],
                               "baseline: 1-thread image differs from all-core image")
            metrics["parallel.sysmat_speedup"] = base_out["sysmat_speedup"]
            metrics["parallel.iteration_speedup"] = base_out["iteration_speedup"]
    return metrics


def source_digest():
    """SHA-256 over the sources the build reads (the checkout the
    benchmark runs in is not a git repository)."""
    h = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for sub in ("crates", "benchmark/replay"):
        files += sorted(p for p in (ROOT / sub).rglob("*")
                        if p.is_file() and p.suffix in (".rs", ".toml", ".lock"))
    for p in files:
        if p.exists():
            h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def git_rev():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def build():
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates" / "cli").is_dir():
        sys.exit(f"run.py: {ROOT} holds no mbir workspace to build")
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    for argv in (["cargo", "build", "--release", "--offline", "-q", "-p", "mbir-cli"],
                 ["cargo", "build", "--release", "--offline", "-q",
                  "--manifest-path", "benchmark/replay/Cargo.toml"]):
        if subprocess.run(argv, cwd=ROOT, env=env, stdout=sys.stderr).returncode:
            sys.exit(f"run.py: build failed: {' '.join(argv)}")
    return target / "release" / "mbirctl", target / "release" / "replay"


def report(bench, metrics, record):
    names = PER_LAYER if bench.args.trace else END_TO_END
    missing = [n for n in names if n not in metrics]
    if bench.args.trace:
        # A layer a workload never enters reads 0 (see the docstring).
        for n in missing:
            metrics[n] = 0.0
    else:
        bench.ledger.check(not missing, f"metrics not measured: {missing}")
    print(f"# record {json.dumps(record, sort_keys=True)}")
    print(f"# {'metric':<40} {'value':>16} {'unit':<6} samples  tail")
    for n in names:
        if n not in metrics:
            continue
        sample = bench.samples.get(n, [])
        tail = tail_percentile(len(sample))
        tail_txt = f"p{tail}={percentile(sample, tail):.6g}" if tail else "-"
        print(f"# {n:<40} {metrics[n]:>16.6g} {unit_of(n):<6} {len(sample):>7}  {tail_txt}")
    failed = len(bench.ledger.failures)
    attempted = max(bench.ledger.attempted, 1)
    print(f"# fail_frac {failed / attempted:.6g} ({failed} of {attempted} operations)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": unit_of(n)} for n in names if n in metrics},
    }
    print(json.dumps(result))
    return failed == 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    mbirctl, replay = build()
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        bench = Bench(args, mbirctl, replay, work)
        info = bench.replay_json("info", "info")
        if args.workload == "serve-mixed":
            metrics = run_serve(bench)
        else:
            harness = args.workload == "recon-harness"
            metrics = run_recon(bench, "harness" if harness else "test",
                                None if harness else CLUSTER_SPEC, 1 if harness else CLUSTER_SCANS)
        for name in ("wall_s", "setup_s", "peak_rss_mb"):
            if bench.samples.get(name):
                metrics[name] = statistics.median(bench.samples[name])
        record = {
            "git_rev": git_rev(),
            "source_sha256": source_digest(),
            "nproc": os.cpu_count(),
            "threads": bench.threads,
            "simd": info and info["simd"],
            "scale": info and info["harness" if args.workload == "recon-harness" else "test"],
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "samples": {k: len(v) for k, v in sorted(bench.samples.items())},
            "seconds": round(bench.elapsed(), 3),
        }
        ok = report(bench, metrics, record)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
