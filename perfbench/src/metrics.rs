//! Metric names and units (the single list `BENCHMARK.json` mirrors), the
//! result of one measured pass, and the accounting shared by workloads.

use crate::host::{reference_s, ThreadCpu, REFERENCE_S};
use crate::stats::Fingerprint;
use crate::tap::TapTotals;
use hwsim::report::lane_utilization_of;
use hwsim::stats::percentile;
use hwsim::{CommandKind, TraceRecord};
use std::collections::{BTreeMap, HashMap};
use std::path::Path;

/// End-to-end metrics, printed with `--trace 0`: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("slo_miss_frac", "ratio"),
    ("throughput_jobs_per_s", "jobs/s"),
    ("host_cpu_us_per_job", "us"),
    ("makespan_geomean_ms", "ms"),
    ("autofit_overhead_pct", "%"),
    ("host_wall_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed with `--trace 1`: `(name, unit)`. A layer a
/// workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("served.admit_us", "us"),
    ("served.round_self_us", "us"),
    ("served.jobs_per_round", "count"),
    ("served.rejected", "count"),
    ("served.failed", "count"),
    ("served.retried", "count"),
    ("loadgen.lateness_p99_ms", "ms"),
    ("sched.epochs", "count"),
    ("sched.cost_us", "us"),
    ("sched.mapper_us", "us"),
    ("sched.flush_us", "us"),
    ("sched.postflush_us", "us"),
    ("sched.mapper_nodes", "count"),
    ("sched.mapper_budget_trips", "count"),
    ("sched.predict_err_p50", "ratio"),
    ("sched.cache_hit_ratio", "ratio"),
    ("sched.profiled_epochs", "count"),
    ("sched.profiling_virtual_ms", "ms"),
    ("sched.migrations", "count"),
    ("sched.migration_bytes", "bytes"),
    ("sched.commands_reordered", "count"),
    ("sched.kernels_split", "count"),
    ("sched.chunks_stolen", "count"),
    ("hwsim.commands_per_job", "count"),
    ("hwsim.host_ns_per_command", "ns"),
    ("hwsim.busy_frac.cpu", "ratio"),
    ("hwsim.busy_frac.gpu0", "ratio"),
    ("hwsim.busy_frac.gpu1", "ratio"),
    ("hwsim.lane_overlap", "ratio"),
    ("dataplane.tasks", "count"),
    ("dataplane.joins", "count"),
    ("dataplane.peak_busy", "count"),
    ("dataplane.worker_cpu_us_per_job", "us"),
    ("telemetry.events_per_job", "count"),
    ("telemetry.sink_us_per_event", "us"),
    ("host.main_cpu_us_per_job", "us"),
    ("host.other_cpu_us_per_job", "us"),
    ("trace.overhead_us_per_job", "us"),
    ("trace.unattributed_us_per_job", "us"),
    ("trace.unattributed_frac", "ratio"),
];

/// Named metric values.
pub type Values = BTreeMap<&'static str, f64>;

/// Host cost of one pass's measured phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostCost {
    /// Process CPU time, all threads, ns.
    pub cpu_ns: u64,
    /// Per-thread-class split of the same interval.
    pub threads: ThreadCpu,
    /// Wall time, ns.
    pub wall_ns: u64,
}

impl HostCost {
    /// Add the cost of another measured interval.
    pub fn add(&mut self, other: &HostCost) {
        self.cpu_ns += other.cpu_ns;
        self.threads.main_ns += other.threads.main_ns;
        self.threads.data_plane_ns += other.threads.data_plane_ns;
        self.wall_ns += other.wall_ns;
    }

    /// CPU time outside the main and data-plane threads (short-lived
    /// helpers such as the scheduler's parallel costing workers).
    pub fn other_ns(&self) -> u64 {
        self.cpu_ns.saturating_sub(self.threads.main_ns + self.threads.data_plane_ns)
    }
}

/// Everything one pass of a workload produced.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Host wall time of the pass's set-up, seconds, at the reference
    /// speed ([`at_reference_speed`]).
    pub setup_s: f64,
    /// Host cost of the measured phase, as measured.
    pub host: HostCost,
    /// Factor that brings the measured phase's host times to the reference
    /// speed ([`Meter`]).
    pub rescale: f64,
    /// Units of work completed in the measured phase (the per-job divisor).
    pub jobs: u64,
    /// Deterministic virtual-clock metrics.
    pub virtual_metrics: Values,
    /// Digest of the virtual timeline.
    pub fingerprint: u64,
    /// Operations attempted and failed (rejections, failed jobs, failed
    /// verifications).
    pub attempted: u64,
    /// See [`Pass::attempted`].
    pub failed: u64,
    /// Correctness violations found.
    pub violations: Vec<String>,
    /// Per-layer values (traced passes only).
    pub layers: Option<Values>,
    /// Human-readable sample counts, for the report.
    pub note: String,
}

/// A host time `t` taken right after a [`reference_s`] reading of
/// `reference`, rescaled to the speed at which the reference takes
/// [`REFERENCE_S`].
pub fn at_reference_speed(t: f64, reference: f64) -> f64 {
    t * REFERENCE_S / reference
}

/// Median over `passes` of a host time of the measured phase, each pass's
/// value rescaled to the reference speed.
pub fn host_median(passes: &[Pass], time: impl Fn(&Pass) -> f64) -> f64 {
    let rescaled: Vec<f64> = passes.iter().map(|p| time(p) * p.rescale).collect();
    percentile(&rescaled, 50.0)
}

/// `ns / jobs` in µs (0 when there were no jobs).
pub fn per_job_us(ns: u64, jobs: u64) -> f64 {
    if jobs == 0 {
        0.0
    } else {
        ns as f64 / 1e3 / jobs as f64
    }
}

/// Fold trace records' identities and virtual stamps into a fingerprint.
/// Queue ids are process-wide object ids, so each is replaced by the rank
/// of its first appearance: two same-seed runs in one process must match.
pub fn fingerprint_records(fp: &mut Fingerprint, records: &[TraceRecord]) {
    let mut ranks: HashMap<usize, u64> = HashMap::new();
    for r in records {
        let next = ranks.len() as u64;
        fp.add(*ranks.entry(r.queue).or_insert(next));
        fp.add(r.device.index() as u64);
        fp.add(r.stamp.queued.as_nanos());
        fp.add(r.stamp.start.as_nanos());
        fp.add(r.stamp.end.as_nanos());
        fp.add(match &r.kind {
            CommandKind::Kernel { .. } => 1,
            CommandKind::Transfer { bytes, .. } => 2 + (bytes << 2),
            CommandKind::Marker => 3,
        });
    }
}

/// Device-side (`hwsim`) totals, folded in one trace slice at a time so
/// no copy of a trace outlives the engine that holds it.
#[derive(Debug, Clone, Copy, Default)]
pub struct DeviceTotals {
    commands: u64,
    /// Busy seconds per device (the CPU, then the two GPUs: the paper
    /// node's order), compute and copy lanes merged.
    busy_s: [f64; 3],
    /// Seconds both lanes of a device were busy.
    overlap_s: f64,
    /// Busy seconds of each device's shorter lane.
    shorter_s: f64,
}

impl DeviceTotals {
    /// Fold in the records of one engine trace (or a tail of one).
    pub fn add(&mut self, records: &[TraceRecord]) {
        self.commands +=
            records.iter().filter(|r| !matches!(r.kind, CommandKind::Marker)).count() as u64;
        for lane in lane_utilization_of(records).values() {
            let Some(busy) = self.busy_s.get_mut(lane.device.index()) else { continue };
            *busy +=
                (lane.compute_busy + lane.copy_busy).as_secs_f64() - lane.overlap.as_secs_f64();
            self.overlap_s += lane.overlap.as_secs_f64();
            self.shorter_s += lane.compute_busy.min(lane.copy_busy).as_secs_f64();
        }
    }

    /// Per-layer values over a virtual span of `span_ns`; `flush_ns` is
    /// the host CPU the flush phases took.
    pub fn layers(&self, out: &mut Values, span_ns: u64, jobs: u64, flush_ns: u64) {
        out.insert("hwsim.commands_per_job", self.commands as f64 / jobs.max(1) as f64);
        out.insert("hwsim.host_ns_per_command", flush_ns as f64 / self.commands.max(1) as f64);
        let span_s = span_ns.max(1) as f64 / 1e9;
        let keys = ["hwsim.busy_frac.cpu", "hwsim.busy_frac.gpu0", "hwsim.busy_frac.gpu1"];
        for (key, busy) in keys.into_iter().zip(self.busy_s) {
            out.insert(key, busy / span_s);
        }
        let overlap = if self.shorter_s > 0.0 { self.overlap_s / self.shorter_s } else { 0.0 };
        out.insert("hwsim.lane_overlap", overlap);
    }
}

/// Scheduler-layer values from the tap and the `SchedStats` delta;
/// returns the CPU ns the scheduler passes took in total.
pub fn sched_layers(
    out: &mut Values,
    tap: &TapTotals,
    stats: &multicl::SchedStats,
    jobs: u64,
) -> u64 {
    let epochs = tap.epochs.len().max(1) as f64;
    let phase = |f: fn(&crate::stats::EpochSplit) -> u64| {
        tap.epochs.iter().map(f).sum::<u64>() as f64 / 1e3 / epochs
    };
    out.insert("sched.epochs", tap.epochs.len() as f64);
    out.insert("sched.cost_us", phase(|e| e.cost));
    out.insert("sched.mapper_us", phase(|e| e.mapper));
    out.insert("sched.flush_us", phase(|e| e.flush));
    out.insert("sched.postflush_us", phase(|e| e.postflush));
    out.insert("sched.mapper_nodes", tap.mapper_nodes as f64 / epochs);
    out.insert("sched.mapper_budget_trips", tap.budget_trips as f64);
    out.insert("sched.predict_err_p50", percentile(&tap.predict_err, 50.0));
    let lookups = (tap.cache_hits + tap.cache_misses).max(1) as f64;
    out.insert("sched.cache_hit_ratio", tap.cache_hits as f64 / lookups);
    out.insert("sched.profiled_epochs", stats.profiled_epochs as f64);
    out.insert("sched.profiling_virtual_ms", tap.profiling_ns as f64 / 1e6);
    out.insert("sched.migrations", tap.migrations as f64);
    out.insert("sched.migration_bytes", tap.migration_bytes as f64);
    out.insert("sched.commands_reordered", stats.commands_reordered as f64);
    out.insert("sched.kernels_split", stats.kernels_split as f64);
    out.insert("sched.chunks_stolen", stats.chunks_stolen as f64);
    out.insert("telemetry.events_per_job", tap.events as f64 / jobs.max(1) as f64);
    out.insert("telemetry.sink_us_per_event", tap.sink_ns as f64 / 1e3 / tap.events.max(1) as f64);
    tap.pass_ns()
}

/// Data-plane and host-thread values. `dp` holds the measured phase's
/// executed tasks and joins and the peak busy workers; `attributed_main_ns`
/// is the part of the main thread's CPU covered by spans.
pub fn host_layers(
    out: &mut Values,
    host: &HostCost,
    dp: &clrt::DataPlaneStats,
    jobs: u64,
    attributed_main_ns: u64,
) {
    out.insert("dataplane.tasks", dp.executed as f64);
    out.insert("dataplane.joins", dp.joins as f64);
    out.insert("dataplane.peak_busy", dp.peak_busy_workers as f64);
    out.insert("dataplane.worker_cpu_us_per_job", per_job_us(host.threads.data_plane_ns, jobs));
    out.insert("host.main_cpu_us_per_job", per_job_us(host.threads.main_ns, jobs));
    out.insert("host.other_cpu_us_per_job", per_job_us(host.other_ns(), jobs));
    let unattributed = host.threads.main_ns.saturating_sub(attributed_main_ns);
    out.insert("trace.unattributed_us_per_job", per_job_us(unattributed, jobs));
    out.insert("trace.unattributed_frac", unattributed as f64 / host.cpu_ns.max(1) as f64);
}

/// Set-ups timed per pass; the pass reports their median.
const SETUP_TRIALS: usize = 10;

/// Take a reference reading, then run `setup` [`SETUP_TRIALS`] times, each
/// in a fresh subdirectory of `scratch`, and return the last result with
/// the median wall time in seconds at the reference speed. The trials
/// together take a few milliseconds, well within one of the host's speed
/// steps, so one reading serves them all. Earlier results are dropped
/// before the next trial starts.
pub fn timed_setup<T>(scratch: &Path, mut setup: impl FnMut(&Path) -> T) -> (T, f64) {
    let reference = reference_s();
    let mut times = Vec::with_capacity(SETUP_TRIALS);
    let mut result = None;
    for trial in 0..SETUP_TRIALS {
        drop(result.take());
        let dir = scratch.join(format!("setup{trial}"));
        let began = std::time::Instant::now();
        result = Some(setup(&dir));
        times.push(began.elapsed().as_secs_f64());
    }
    let setup_s = at_reference_speed(percentile(&times, 50.0), reference);
    (result.expect("at least one set-up trial"), setup_s)
}

/// Stop clock for a measured phase: process CPU, per-thread CPU, wall.
pub struct Stopwatch {
    cpu: u64,
    threads: ThreadCpu,
    wall: std::time::Instant,
}

impl Stopwatch {
    /// Start measuring.
    pub fn start() -> Stopwatch {
        Stopwatch {
            threads: ThreadCpu::sample(),
            cpu: crate::host::process_cpu_ns(),
            wall: std::time::Instant::now(),
        }
    }

    /// Stop and return the cost since [`Stopwatch::start`].
    pub fn stop(self) -> HostCost {
        let wall_ns = self.wall.elapsed().as_nanos() as u64;
        let cpu_ns = crate::host::process_cpu_ns().saturating_sub(self.cpu);
        let now = ThreadCpu::sample();
        HostCost {
            cpu_ns,
            threads: ThreadCpu {
                main_ns: now.main_ns.saturating_sub(self.threads.main_ns),
                data_plane_ns: now.data_plane_ns.saturating_sub(self.threads.data_plane_ns),
            },
            wall_ns,
        }
    }
}

/// Combine two scheduler counter sets field by field (`f(a, b)`).
pub fn combine_stats(
    a: &multicl::SchedStats,
    b: &multicl::SchedStats,
    f: impl Fn(u64, u64) -> u64,
) -> multicl::SchedStats {
    multicl::SchedStats {
        sched_invocations: f(a.sched_invocations, b.sched_invocations),
        profiled_epochs: f(a.profiled_epochs, b.profiled_epochs),
        cache_hits: f(a.cache_hits, b.cache_hits),
        kernels_predicted: f(a.kernels_predicted, b.kernels_predicted),
        predictor_fallbacks: f(a.predictor_fallbacks, b.predictor_fallbacks),
        kernels_issued: f(a.kernels_issued, b.kernels_issued),
        commands_reordered: f(a.commands_reordered, b.commands_reordered),
        devices_lost: f(a.devices_lost, b.devices_lost),
        queues_remapped: f(a.queues_remapped, b.queues_remapped),
        kernels_split: f(a.kernels_split, b.kernels_split),
        chunks_stolen: f(a.chunks_stolen, b.chunks_stolen),
    }
}

/// Measures a phase in chunks, each started right after a reference
/// reading, so that each chunk is rescaled by the host's speed at its own
/// time. The readings run between chunks and are not part of the cost.
pub struct Meter {
    measured: HostCost,
    rescaled_cpu_ns: f64,
    chunk: Option<(f64, Stopwatch)>,
}

impl Meter {
    /// Take a reference reading and start the first chunk.
    pub fn start() -> Meter {
        let mut meter = Meter { measured: HostCost::default(), rescaled_cpu_ns: 0.0, chunk: None };
        meter.next_chunk();
        meter
    }

    /// End the current chunk, take a reference reading, start the next.
    pub fn next_chunk(&mut self) {
        self.end_chunk();
        let reference = reference_s();
        self.chunk = Some((reference, Stopwatch::start()));
    }

    fn end_chunk(&mut self) {
        if let Some((reference, watch)) = self.chunk.take() {
            let cost = watch.stop();
            self.measured.add(&cost);
            self.rescaled_cpu_ns += at_reference_speed(cost.cpu_ns as f64, reference);
        }
    }

    /// End the current chunk and return the cost as measured and the
    /// factor that rescales it to the reference speed: the chunks'
    /// rescaled CPU over their measured CPU.
    pub fn stop(&mut self) -> (HostCost, f64) {
        self.end_chunk();
        let rescale = self.rescaled_cpu_ns / self.measured.cpu_ns.max(1) as f64;
        (self.measured, rescale)
    }
}
