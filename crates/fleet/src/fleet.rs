//! Per-device clocks advancing in batch steps.
//!
//! The fleet's timeline is bulk-synchronous: within a batch every
//! device runs its shard's kernels independently, then all devices
//! join the exchange phases before the next batch. A batch's wall
//! time is therefore the slowest device's kernel time plus the
//! transfers; faster devices accrue the difference as idle time, and
//! every device accrues the communication. The resulting ledger —
//! busy / idle / communication per device — is what the scaling study
//! reports and what flattens the speedup curve as devices grow.
//!
//! The ledger prices nothing itself: the driver books the spans it
//! priced (compute via [`Fleet::span`], transfers and exchanges
//! priced by the topology layer via [`Fleet::book_transfer`] and
//! [`Fleet::book_exchange`], recovery via [`Fleet::penalty`]).

use serde::Serialize;

/// One device's slice of the fleet ledger.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct DeviceReport {
    /// Device id.
    pub device: u64,
    /// Seconds spent running kernels.
    pub busy_seconds: f64,
    /// Seconds spent waiting for slower peers.
    pub idle_seconds: f64,
    /// Fraction of the fleet timeline spent busy (`busy / wall`).
    pub utilization: f64,
}

/// The fleet ledger after a run: the scaling study's raw material.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FleetReport {
    /// Number of devices.
    pub devices: usize,
    /// Total wall-clock seconds on the fleet timeline.
    pub wall_seconds: f64,
    /// Seconds of the timeline spent in interconnect exchanges.
    pub exchange_seconds: f64,
    /// Bytes moved across the interconnect, all links summed.
    pub exchange_bytes: u64,
    /// Number of sharded batches priced.
    pub batches: u64,
    /// Injected faults the timeline absorbed (device failures,
    /// straggler episodes, degraded-link episodes).
    pub faults: u64,
    /// Seconds of the timeline spent recovering from device failures
    /// (detection backoff plus the resharded retry spans).
    pub recovery_seconds: f64,
    /// Per-device compute seconds thrown away at failure barriers
    /// (work a failed device had finished that had to be re-run).
    pub lost_seconds: f64,
    /// Per-device busy/idle/utilization, indexed by device id.
    pub per_device: Vec<DeviceReport>,
}

/// N simulated devices sharing one bulk-synchronous timeline.
#[derive(Debug, Clone)]
pub struct Fleet {
    wall_seconds: f64,
    exchange_seconds: f64,
    exchange_bytes: u64,
    batches: u64,
    faults: u64,
    recovery_seconds: f64,
    lost_seconds: f64,
    busy: Vec<f64>,
}

impl Fleet {
    /// A ledger for `devices` devices with zeroed clocks.
    pub fn new(devices: usize) -> Self {
        assert!(devices >= 1, "a fleet needs at least one device");
        Fleet {
            wall_seconds: 0.0,
            exchange_seconds: 0.0,
            exchange_bytes: 0,
            batches: 0,
            faults: 0,
            recovery_seconds: 0.0,
            lost_seconds: 0.0,
            busy: vec![0.0; devices],
        }
    }

    /// Number of devices.
    pub fn devices(&self) -> usize {
        self.busy.len()
    }

    /// Seconds elapsed on the fleet timeline so far.
    pub fn wall_seconds(&self) -> f64 {
        self.wall_seconds
    }

    /// Book a pre-priced transfer (slab streaming load, seam halo)
    /// onto the timeline: wall and exchange ledgers advance by
    /// `seconds` and `bytes` joins the byte total, with no batch
    /// counted. The topology layer prices these on its own links and
    /// books them here so the fleet ledger stays the one source of
    /// truth for the timeline.
    pub fn book_transfer(&mut self, seconds: f64, bytes: u64) {
        assert!(
            seconds >= 0.0 && seconds.is_finite(),
            "booked transfer seconds must be finite and non-negative"
        );
        self.wall_seconds += seconds;
        self.exchange_seconds += seconds;
        self.exchange_bytes += bytes;
    }

    /// Book a batch's pre-priced exchange (the topology layer's
    /// all-gather) onto the timeline and count the batch. The batch's
    /// compute span must already have been booked via [`Fleet::span`].
    pub fn book_exchange(&mut self, seconds: f64, bytes: u64) {
        self.book_transfer(seconds, bytes);
        self.batches += 1;
    }

    /// Advance the timeline by one bulk-synchronous compute span
    /// without an exchange or a batch count: all devices run, the
    /// slowest sets the span, busy time accrues per device
    /// (`kernel_seconds[d]` is zero for a device with an empty shard).
    /// A failure batch books two: the doomed attempt and the resharded
    /// retry. Returns the span seconds.
    pub fn span(&mut self, kernel_seconds: &[f64]) -> f64 {
        assert_eq!(kernel_seconds.len(), self.devices(), "one kernel time per device");
        let slowest = kernel_seconds.iter().fold(0.0f64, |a, &b| a.max(b));
        for (b, &k) in self.busy.iter_mut().zip(kernel_seconds) {
            *b += k;
        }
        self.wall_seconds += slowest;
        slowest
    }

    /// Price a recovery penalty: `seconds` of wall time every device
    /// sits through (failure detection at the barrier, communicator
    /// re-initialization) with no compute and no exchange.
    pub fn penalty(&mut self, seconds: f64) {
        assert!(seconds >= 0.0, "penalties only add time");
        self.wall_seconds += seconds;
        self.recovery_seconds += seconds;
    }

    /// Record `seconds` of per-device compute thrown away at a failure
    /// barrier (finished work that must be re-run elsewhere).
    pub fn record_lost(&mut self, seconds: f64) {
        self.lost_seconds += seconds;
    }

    /// Count one absorbed fault (failure, straggler episode, or
    /// degraded-link episode) in the ledger.
    pub fn record_fault(&mut self) {
        self.faults += 1;
    }

    /// Count retry compute as recovery time in the ledger (the wall
    /// advance itself comes from the [`Fleet::span`] that priced it).
    pub fn record_recovery(&mut self, seconds: f64) {
        self.recovery_seconds += seconds;
    }

    /// Jump the wall clock forward to `seconds` — used when resuming
    /// from a checkpoint, so spans priced after the resume start where
    /// the interrupted run left off. The per-device busy ledger is not
    /// reconstructed (a resumed run's utilization report covers only
    /// the post-resume stretch). No-op if the clock is already past.
    pub fn fast_forward_to(&mut self, seconds: f64) {
        if seconds > self.wall_seconds {
            self.wall_seconds = seconds;
        }
    }

    /// Snapshot the ledger. Idle is everything on the timeline a
    /// device did not spend computing — waiting for slower peers and
    /// sitting through exchanges both count against utilization.
    pub fn report(&self) -> FleetReport {
        let per_device = self
            .busy
            .iter()
            .enumerate()
            .map(|(d, &busy)| DeviceReport {
                device: d as u64,
                busy_seconds: busy,
                idle_seconds: (self.wall_seconds - busy).max(0.0),
                utilization: if self.wall_seconds > 0.0 { busy / self.wall_seconds } else { 0.0 },
            })
            .collect();
        FleetReport {
            devices: self.devices(),
            wall_seconds: self.wall_seconds,
            exchange_seconds: self.exchange_seconds,
            exchange_bytes: self.exchange_bytes,
            batches: self.batches,
            faults: self.faults,
            recovery_seconds: self.recovery_seconds,
            lost_seconds: self.lost_seconds,
            per_device,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One priced batch: the compute span, then its exchange.
    fn batch(f: &mut Fleet, kernel_seconds: &[f64], exchange_seconds: f64, bytes: u64) -> f64 {
        let span = f.span(kernel_seconds);
        f.book_exchange(exchange_seconds, bytes);
        span + exchange_seconds
    }

    #[test]
    fn single_device_batch_is_pure_kernel_time() {
        let mut f = Fleet::new(1);
        assert_eq!(batch(&mut f, &[0.25], 0.0, 0), 0.25);
        assert_eq!(f.wall_seconds(), 0.25);
        let r = f.report();
        assert_eq!(r.per_device[0].utilization, 1.0);
        assert_eq!(r.per_device[0].idle_seconds, 0.0);
    }

    #[test]
    fn slowest_device_sets_the_batch_span() {
        let mut f = Fleet::new(2);
        assert_eq!(f.span(&[0.1, 0.3]), 0.3);
        f.book_exchange(0.05, 0);
        assert_eq!(f.wall_seconds(), 0.3 + 0.05);
        let r = f.report();
        assert!(r.per_device[0].idle_seconds > r.per_device[1].idle_seconds);
        assert!(r.per_device[1].utilization > r.per_device[0].utilization);
        assert!(r.per_device[1].utilization < 1.0, "exchange time counts against utilization");
    }

    #[test]
    fn ledger_accumulates_across_batches() {
        let mut f = Fleet::new(4);
        let w1 = batch(&mut f, &[0.1, 0.2, 0.15, 0.05], 0.01, 15_000);
        let w2 = batch(&mut f, &[0.2, 0.1, 0.05, 0.15], 0.02, 7_500);
        let r = f.report();
        assert_eq!(r.batches, 2);
        assert!((r.wall_seconds - (w1 + w2)).abs() < 1e-15);
        assert_eq!(r.exchange_bytes, 22_500);
        assert!((r.exchange_seconds - 0.03).abs() < 1e-15);
        // Both batches' busy time lands on the right device.
        assert!((r.per_device[0].busy_seconds - 0.3).abs() < 1e-15);
        assert!((r.per_device[3].busy_seconds - 0.2).abs() < 1e-15);
    }

    #[test]
    fn report_serializes() {
        let mut f = Fleet::new(2);
        batch(&mut f, &[0.1, 0.2], 0.01, 300);
        let text = serde_json::to_string(&f.report()).expect("serializes");
        assert!(text.contains("\"utilization\""));
        assert!(text.contains("\"exchange_bytes\""));
    }

    #[test]
    #[should_panic(expected = "one kernel time per device")]
    fn mismatched_kernel_vector_is_rejected() {
        Fleet::new(2).span(&[0.1]);
    }

    #[test]
    fn recovery_primitives_feed_the_ledger() {
        let mut f = Fleet::new(2);
        // Doomed attempt: compute happens, exchange never does.
        let attempt = f.span(&[0.2, 0.1]);
        assert_eq!(attempt, 0.2);
        f.record_lost(0.1);
        f.record_fault();
        // Detection + communicator re-init.
        f.penalty(0.5);
        // Resharded retry on the survivor, then the batch completes
        // with a one-device exchange that moves nothing.
        let retry = f.span(&[0.15, 0.0]);
        f.record_recovery(retry);
        f.book_exchange(0.0, 0);
        let r = f.report();
        assert_eq!(r.faults, 1);
        assert_eq!(r.batches, 1);
        assert!((r.recovery_seconds - (0.5 + 0.15)).abs() < 1e-15);
        assert_eq!(r.lost_seconds, 0.1);
        assert!((r.wall_seconds - (0.2 + 0.5 + 0.15)).abs() < 1e-15);
        // Busy + idle still tiles the timeline per device.
        for d in &r.per_device {
            assert!((d.busy_seconds + d.idle_seconds - r.wall_seconds).abs() < 1e-12);
        }
    }

    #[test]
    fn transfers_book_time_and_bytes_but_no_batch() {
        let mut f = Fleet::new(2);
        batch(&mut f, &[0.1, 0.2], 0.01, 1 << 20);
        f.book_transfer(0.5, 100);
        let r = f.report();
        assert_eq!(r.batches, 1);
        assert_eq!(r.exchange_bytes, (1 << 20) + 100);
        assert!((r.exchange_seconds - 0.51).abs() < 1e-15);
        assert!((r.wall_seconds - 0.71).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_booked_transfer_is_a_bug() {
        Fleet::new(2).book_transfer(-0.1, 0);
    }

    #[test]
    fn fast_forward_only_moves_the_clock_forward() {
        let mut f = Fleet::new(2);
        batch(&mut f, &[0.1, 0.1], 0.01, 0);
        let wall = f.wall_seconds();
        f.fast_forward_to(wall - 0.05);
        assert_eq!(f.wall_seconds(), wall, "never rewinds");
        f.fast_forward_to(wall + 1.0);
        assert_eq!(f.wall_seconds(), wall + 1.0);
    }
}
