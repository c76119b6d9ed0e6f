//! Driver-side fleet state: sharding GPU-ICD batches across simulated
//! devices.
//!
//! The functional computation is untouched by sharding — SVs of one
//! batch share no boundary voxels, every device gathers from the same
//! error-sinogram snapshot, and commits merge in batch order — so the
//! fleet only re-prices the timeline: each device runs the kernels of
//! its shard, the slowest device sets the batch's compute span, and an
//! all-gather of error-band deltas and image halos follows (the ring on
//! one node, the hierarchical reduce across nodes).
//!
//! The shard itself is planned once at setup from *modeled per-SV
//! cost*: each SV's plan is priced as a one-SV batch through the same
//! [`GpuWorkModel`] that prices real batches, and
//! [`mbir_fleet::ShardPlan`] balances those costs with its LPT
//! partition. Balancing by cost rather than SV count matters at ragged
//! image edges, where clipped SVs carry a fraction of an interior SV's
//! work.

use crate::model::{GpuWorkModel, ProfileSkeleton};
use crate::opts::GpuOptions;
use crate::tally::{BatchTally, SvTally};
use mbir_fleet::{FaultSpec, Fleet, FleetReport, ShardPlan};
use mbir_topo::{ClusterSpec, SlabPlan, SlabStreamer, Topology};
use supervoxel::plan::{SvPlan, SvPlanSet};
use supervoxel::tiling::Tiling;

/// Sharding plan, per-SV exchange payloads, liveness, fault schedule,
/// slab residency, and the fleet clocks for one GPU-ICD run. Every
/// device shape is a cluster: a flat fleet is one node with one slab
/// ([`ClusterSpec::single_node`]), a single device a one-device fleet.
pub struct FleetState {
    /// Partition of SVs over *shard slots*; [`FleetState::device_ids`]
    /// maps a slot to the physical device holding it (the identity map
    /// until a failure shrinks the fleet).
    pub(crate) shard: ShardPlan,
    /// Shard slot -> physical device id (one entry per live device).
    pub(crate) device_ids: Vec<usize>,
    /// Per physical device: still alive?
    pub(crate) live: Vec<bool>,
    /// Modeled per-SV cost the shard is balanced by — retained so a
    /// failure can re-run the LPT partition over the survivors.
    pub(crate) costs: Vec<f64>,
    /// Per SV: bytes the owning device publishes after a batch touching
    /// it — the SV's error-band delta plane plus its boundary-voxel
    /// image halo.
    pub(crate) payload_bytes: Vec<u64>,
    pub(crate) fleet: Fleet,
    /// Scheduled adverse events (empty = healthy run).
    pub(crate) faults: FaultSpec,
    /// Per fault event: already surfaced to the telemetry fault lane?
    /// (Episodes spanning many batches are reported once, at onset.)
    pub(crate) episode_emitted: Vec<bool>,
    /// Prices the exchange (the hierarchical reduce; on one node, the
    /// flat ring) and, through its intra-node link, slab streaming
    /// loads and seam-halo transfers.
    pub(crate) topology: Topology,
    /// Effective slab count (clamped to the SV-row count). One slab
    /// means the whole volume fits every device: no streaming, no
    /// seams.
    pub(crate) slabs: usize,
    /// Per SV: the axial slab owning its SV row.
    pub(crate) sv_slab: Vec<usize>,
    /// Per SV: seam-halo bytes a batch touching it pays (0 off-seam —
    /// one boundary row of f32 voxels on a slab seam).
    pub(crate) seam_bytes: Vec<u64>,
    /// Per-device slab residency and the streaming-load counter.
    pub(crate) streamer: SlabStreamer,
}

impl FleetState {
    /// Plan the shard over `costs` (see [`sv_costs`]) and zero the
    /// clocks. SVs shard *within* their slab's device group, so devices
    /// only ever touch slabs they are assigned, keeping streaming loads
    /// to the unavoidable minimum; with one slab every group is the
    /// whole fleet and the plan is the unconstrained LPT partition.
    pub fn new(plans: &SvPlanSet, tiling: &Tiling, costs: Vec<f64>, cluster: ClusterSpec) -> Self {
        let devices = cluster.total_devices();
        let payload_bytes = tiling
            .svs()
            .iter()
            .zip(plans.plans())
            .map(|(sv, plan)| {
                // Halo: the tile's boundary voxels, one f32 each.
                let interior = sv.rows.saturating_sub(2) * sv.cols.saturating_sub(2);
                let halo = (sv.rows * sv.cols - interior) as u64 * 4;
                plan.svb_bytes as u64 + halo
            })
            .collect();

        let (sv_rows, _) = tiling.sv_grid();
        let plan = SlabPlan::new(sv_rows, cluster.slabs);
        let sv_slab: Vec<usize> =
            tiling.svs().iter().map(|sv| plan.slab_of_row(sv.sv_row)).collect();
        let seam_bytes = tiling
            .svs()
            .iter()
            .map(|sv| if plan.is_seam_row(sv.sv_row) { sv.cols as u64 * 4 } else { 0 })
            .collect();
        let allowed: Vec<(usize, usize)> =
            sv_slab.iter().map(|&s| plan.device_group(s, devices)).collect();

        // Modeled per-device footprint of one slab: its share of the
        // image plane plus its share of the error bands.
        let grid = tiling.grid();
        let image_bytes = (grid.nx * grid.ny) as u64 * 4;
        let band_bytes: u64 = plans.plans().iter().map(|p| p.svb_bytes as u64).sum();
        let slab_bytes = (image_bytes + band_bytes) / plan.slabs() as u64;

        FleetState {
            shard: ShardPlan::balanced_within(&costs, devices, &allowed),
            device_ids: (0..devices).collect(),
            live: vec![true; devices],
            costs,
            payload_bytes,
            fleet: Fleet::new(devices),
            faults: FaultSpec::none(),
            episode_emitted: Vec::new(),
            topology: Topology::new(cluster),
            slabs: plan.slabs(),
            sv_slab,
            seam_bytes,
            streamer: SlabStreamer::new(devices, slab_bytes),
        }
    }

    /// The sharding plan in force.
    pub fn shard(&self) -> &ShardPlan {
        &self.shard
    }

    /// Physical device currently owning `sv`.
    pub fn device_of(&self, sv: usize) -> usize {
        self.device_ids[self.shard.device_of(sv)]
    }

    /// Install a fault schedule (validated against the device count).
    pub(crate) fn set_faults(&mut self, spec: FaultSpec) {
        self.episode_emitted = vec![false; spec.events.len()];
        self.faults = spec;
    }

    /// Devices still alive.
    pub fn live_devices(&self) -> usize {
        self.live.iter().filter(|&&l| l).count()
    }

    /// Mark `device` dead and re-run the LPT partition of *all* SVs
    /// over the survivors (the retained per-SV costs make the new plan
    /// deterministic and as balanced as the original). Panics if it
    /// would leave no survivor — [`FaultSpec::validate`] rules that
    /// out for any schedule reaching the driver.
    pub(crate) fn kill(&mut self, device: usize) {
        assert!(self.live[device], "device {device} already dead");
        self.live[device] = false;
        let survivors = self.live_devices();
        assert!(survivors >= 1, "fault schedule left no survivor");
        self.device_ids =
            self.live.iter().enumerate().filter(|(_, &l)| l).map(|(d, _)| d).collect();
        self.shard = ShardPlan::balanced(&self.costs, survivors);
    }

    /// Snapshot of the fleet ledger (wall seconds, exchange bytes,
    /// per-device utilization, fault/recovery counters).
    pub fn report(&self) -> FleetReport {
        self.fleet.report()
    }
}

/// Whether the batch schedule can carry device faults on `cluster`:
/// resharding after a failure replays the flat LPT partition, which
/// knows neither node nor slab groups.
pub(crate) fn carries_faults(cluster: &ClusterSpec) -> bool {
    cluster.nodes == 1 && cluster.slabs == 1
}

/// Price every SV's plan as a one-SV batch through the work model —
/// the deterministic per-SV cost the shard is balanced by.
pub fn sv_costs(
    model: &GpuWorkModel,
    skeleton: &ProfileSkeleton,
    plans: &SvPlanSet,
    opts: &GpuOptions,
    num_channels: usize,
) -> Vec<f64> {
    plans
        .plans()
        .iter()
        .map(|plan| {
            let tally = BatchTally { svs: vec![sv_tally(plan, opts)] };
            model.batch_with(skeleton, &tally, num_channels).seconds()
        })
        .collect()
}

/// A synthetic full-visit tally for one SV: what a batch containing
/// the SV would tally if every voxel updated (no zero-skips) — the
/// setup-time stand-in for per-iteration work.
fn sv_tally(plan: &SvPlan, opts: &GpuOptions) -> SvTally {
    let mut t = SvTally {
        sv: plan.sv,
        updates: plan.voxels().len() as u64,
        svb_bytes: plan.svb_bytes,
        band_width: plan.band_width,
        max_block_share: 1.0 / opts.blocks_per_sv() as f64,
        ..Default::default()
    };
    for vp in plan.voxels() {
        t.nnz += vp.nnz as f64;
        t.dense += vp.dense as f64;
        t.descriptors += vp.descriptors as f64;
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::plan_config;
    use ct_core::geometry::Geometry;
    use ct_core::sysmat::SystemMatrix;
    use mbir_fleet::FleetSpec;

    fn state(devices: usize) -> (FleetState, usize) {
        cluster_state_of(ClusterSpec::single_node(FleetSpec::titan_x_pcie(devices)))
    }

    #[test]
    fn shard_covers_every_sv() {
        let (fs, n) = state(3);
        assert_eq!(fs.shard().svs(), n);
        assert!((0..n).all(|sv| fs.shard().device_of(sv) < 3));
        assert!((0..3).all(|d| fs.shard().load(d) > 0.0), "every device gets work");
    }

    #[test]
    fn payloads_are_positive_and_per_sv() {
        let (fs, n) = state(2);
        assert_eq!(fs.payload_bytes.len(), n);
        assert!(fs.payload_bytes.iter().all(|&b| b > 0));
    }

    #[test]
    fn kill_reshards_all_svs_over_survivors() {
        let (mut fs, n) = state(3);
        assert_eq!(fs.live_devices(), 3);
        fs.kill(1);
        assert_eq!(fs.live_devices(), 2);
        assert!(!fs.live[1]);
        assert_eq!(fs.device_ids, vec![0, 2], "slots map to the survivors");
        assert_eq!(fs.shard().svs(), n, "every SV still owned");
        for sv in 0..n {
            let d = fs.device_of(sv);
            assert!(d == 0 || d == 2, "sv {sv} owned by dead device {d}");
        }
        // The new plan is the same LPT partition a 2-device fleet
        // would have been given from the start.
        let (two, _) = state(2);
        for sv in 0..n {
            assert_eq!(fs.shard().device_of(sv), two.shard().device_of(sv));
        }
    }

    #[test]
    #[should_panic(expected = "already dead")]
    fn double_kill_is_a_bug() {
        let (mut fs, _) = state(2);
        fs.kill(0);
        fs.kill(0);
    }

    fn cluster_state(nodes: usize, dpn: usize, slabs: usize) -> (FleetState, usize) {
        cluster_state_of(ClusterSpec::titan_x_cluster(nodes, dpn).with_slabs(slabs))
    }

    fn cluster_state_of(cluster: ClusterSpec) -> (FleetState, usize) {
        let g = Geometry::tiny_scale();
        let a = SystemMatrix::compute(&g);
        let opts =
            GpuOptions { sv_side: 6, devices: cluster.total_devices(), ..Default::default() };
        let tiling = Tiling::new(g.grid, opts.sv_side);
        let plans = SvPlanSet::build(&a, &tiling, plan_config(&opts), 1);
        let model = GpuWorkModel::titan_x();
        let skeleton = model.skeleton(&opts);
        let n = tiling.len();
        let costs = sv_costs(&model, &skeleton, &plans, &opts, g.num_channels);
        (FleetState::new(&plans, &tiling, costs, cluster), n)
    }

    #[test]
    fn cluster_shard_stays_inside_each_svs_slab_group() {
        let (fs, n) = cluster_state(2, 2, 2);
        let plan = SlabPlan::new(4, 2); // tiny_scale @ sv_side 6: 4 SV rows
        for sv in 0..n {
            let (lo, hi) = plan.device_group(fs.sv_slab[sv], 4);
            let d = fs.device_of(sv);
            assert!(d >= lo && d < hi, "sv {sv} (slab {}) on device {d}", fs.sv_slab[sv]);
        }
        // Middle rows flank the slab seam and carry halo bytes; the
        // outer rows do not.
        assert!((0..n).any(|sv| fs.seam_bytes[sv] > 0));
        assert!((0..n).any(|sv| fs.seam_bytes[sv] == 0));
    }

    #[test]
    fn degenerate_cluster_reproduces_the_flat_shard() {
        // One node, one slab: the cluster planner must replay the flat
        // fleet's LPT partition bitwise (same visit order, same
        // tie-breaks) — the identity the equivalence suite leans on.
        let (cluster, n) = cluster_state(1, 3, 1);
        let (flat, _) = state(3);
        for sv in 0..n {
            assert_eq!(cluster.shard().device_of(sv), flat.shard().device_of(sv));
        }
        assert!(cluster.seam_bytes.iter().all(|&b| b == 0), "one slab has no seams");
        assert!(cluster.sv_slab.iter().all(|&s| s == 0));
    }

    #[test]
    fn slab_bytes_split_the_modeled_footprint() {
        let (one, _) = cluster_state(2, 2, 1);
        let (four, _) = cluster_state(2, 2, 4);
        let whole = one.streamer.slab_bytes();
        let quarter = four.streamer.slab_bytes();
        assert!(whole > 0);
        assert_eq!(quarter, whole / 4);
    }

    #[test]
    fn costs_reflect_ragged_edges() {
        // tiny_scale's grid does not divide evenly by side 6, so edge
        // tiles are clipped and must cost less than interior tiles.
        let g = Geometry::tiny_scale();
        let a = SystemMatrix::compute(&g);
        let opts = GpuOptions { sv_side: 6, ..Default::default() };
        let tiling = Tiling::new(g.grid, opts.sv_side);
        let plans = SvPlanSet::build(&a, &tiling, plan_config(&opts), 1);
        let model = GpuWorkModel::titan_x();
        let skeleton = model.skeleton(&opts);
        let costs = sv_costs(&model, &skeleton, &plans, &opts, g.num_channels);
        let min = costs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = costs.iter().cloned().fold(0.0f64, f64::max);
        assert!(min > 0.0);
        assert!(max > min, "clipped edge tiles should be cheaper than interior tiles");
    }
}
