//! The arithmetic behind every reported number: the ten-samples-beyond
//! rule for tail percentiles, due-time latency and SLO-miss accounting, and
//! the split of one scheduling epoch's host time into phases.

/// A percentile is reported only when at least this many samples lie
/// strictly beyond its rank; otherwise the tail is too thin to mean much.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// Percentile `p` (in `0..=100`) of `values`, as `served` reports it
/// ([`hwsim::stats::percentile`]: linear interpolation between the closest
/// ranks), or `None` unless [`MIN_SAMPLES_BEYOND`] samples rank above
/// every sample it reads (p99 needs at least 1001 samples).
pub fn tail_percentile(values: &[f64], p: f64) -> Option<f64> {
    let n = values.len();
    if n == 0 || !(0.0..=100.0).contains(&p) {
        return None;
    }
    // The highest zero-based rank the interpolation reads.
    let upper = (p / 100.0 * (n - 1) as f64).ceil() as usize;
    (n - 1 - upper >= MIN_SAMPLES_BEYOND).then(|| hwsim::stats::percentile(values, p))
}

/// Latency of one job in milliseconds, measured from when it was *due*
/// (the arrival the load generator scheduled), not from when the load generator
/// got round to calling `submit`. Nanosecond inputs, virtual clock.
pub fn due_latency_ms(due_ns: u64, completed_ns: u64) -> f64 {
    completed_ns.saturating_sub(due_ns) as f64 / 1e6
}

/// Per-job outcome counts of one serving pass.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JobTally {
    /// Submissions the load generator made.
    pub attempted: u64,
    /// Submissions refused by admission control.
    pub rejected: u64,
    /// Admitted jobs that ended failed.
    pub failed: u64,
    /// Due-time latency of every completed job, milliseconds.
    pub latencies_ms: Vec<f64>,
}

impl JobTally {
    /// Jobs that completed.
    pub fn completed(&self) -> u64 {
        self.latencies_ms.len() as u64
    }

    /// True when every attempt is accounted for exactly once.
    pub fn balanced(&self) -> bool {
        self.attempted == self.completed() + self.rejected + self.failed
    }

    /// Share of attempted jobs that missed `limit_ms`: rejected and failed
    /// jobs always count as misses, completed ones when slower than the
    /// limit.
    pub fn slo_miss_frac(&self, limit_ms: f64) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        let slow = self.latencies_ms.iter().filter(|&&l| l > limit_ms).count() as u64;
        (self.rejected + self.failed + slow) as f64 / self.attempted as f64
    }
}

/// Host-clock instants (nanoseconds, one thread's clock) at which an
/// observer saw the boundary events of one scheduling epoch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EpochStamps {
    /// `EpochBegin`.
    pub begin: u64,
    /// `MappingDecision`, with the mapper's own reported wall time.
    pub decision: Option<(u64, u64)>,
    /// `MakespanAttribution` (emitted once the flush has issued).
    pub attribution: Option<u64>,
    /// `EpochEnd`.
    pub end: u64,
}

/// One epoch's host time split into the scheduler-pass phases.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EpochSplit {
    /// Classification and costing (profile lookups, prediction,
    /// profiling): begin to decision, minus the mapper.
    pub cost: u64,
    /// The mapper's search (`mapper_wall`).
    pub mapper: u64,
    /// Rebinding and issuing the epoch's commands: decision to
    /// attribution.
    pub flush: u64,
    /// Attribution, predictor refinement and lane accounting: attribution
    /// to end.
    pub postflush: u64,
}

impl EpochSplit {
    /// Sum of the phases; equals `end - begin` of the stamps it came from.
    pub fn total(&self) -> u64 {
        self.cost + self.mapper + self.flush + self.postflush
    }
}

/// Cut an epoch at its boundary stamps. Without a decision (no mapper
/// ran) everything before the attribution counts as flush; without an
/// attribution, post-flush work folds into the flush. The mapper's share
/// is capped at the interval it ran in, so the phases always add up to
/// the epoch exactly.
pub fn split_epoch(s: &EpochStamps) -> EpochSplit {
    let end = s.end.max(s.begin);
    let (decided, mapper) = match s.decision {
        Some((at, wall)) => {
            let at = at.clamp(s.begin, end);
            (at, wall.min(at - s.begin))
        }
        None => (s.begin, 0),
    };
    let attributed = s.attribution.map_or(end, |a| a.clamp(decided, end));
    EpochSplit {
        cost: decided - s.begin - mapper,
        mapper,
        flush: attributed - decided,
        postflush: end - attributed,
    }
}

/// FNV-1a, 64 bit: the fingerprint of a run's virtual timeline.
#[derive(Debug, Clone, Copy)]
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Fingerprint {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }
}

impl Fingerprint {
    /// Fold one value in.
    pub fn add(&mut self, value: u64) {
        for byte in value.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// The digest so far.
    pub fn value(&self) -> u64 {
        self.0
    }
}
