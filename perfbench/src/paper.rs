//! The `npb_paper` workload: the paper's Figure 4 set under AUTO_FIT with
//! Table II options on four queues, each followed by the scheduler-free
//! replay of the mapping AUTO_FIT chose (the paper's ideal).

use crate::host::ThreadCpu;
use crate::metrics::{self, DeviceTotals, Meter, Pass, Values};
use crate::stats::{tail_percentile, Fingerprint, JobTally};
use crate::tap::LayerTap;
use clrt::Platform;
use hwsim::stats::percentile;
use hwsim::xrand::XorShift;
use hwsim::{DeviceType, NodeConfig, TraceRecord};
use multicl::profile::{DeviceProfile, ProfileCache};
use multicl::{ContextSchedPolicy, SchedOptions, SchedStats, PROFILING_TAG};
use multicl_bench::experiments::common::PAPER_SET;
use npb::{run_benchmark, QueuePlan};
use std::path::Path;
use std::sync::Arc;

/// Queues per benchmark, as in Figure 4.
const QUEUES: usize = 4;

/// Largest relative change of a device class's speed a seed draws.
const NODE_JITTER: f64 = 0.02;

/// Latency limit for `slo_miss_frac` over kernel commands, ms.
const SLO_LIMIT_MS: f64 = 2.0;

/// The paper node with each device class's compute and memory speed
/// scaled by one seeded factor in `1 ± NODE_JITTER`. The six inputs are
/// fixed by the paper, so the seed picks the machine instead: every seed
/// is a slightly different node on which AUTO_FIT must find its mapping
/// again. Both GPUs share a factor, so they stay twins.
pub fn jittered_node(seed: u64) -> NodeConfig {
    let mut rng = XorShift::new(seed);
    let cpu = 1.0 + rng.range_f64(-NODE_JITTER, NODE_JITTER);
    let gpu = 1.0 + rng.range_f64(-NODE_JITTER, NODE_JITTER);
    let mut node = NodeConfig::paper_node();
    for d in &mut node.devices {
        let f = if d.device_type == DeviceType::Cpu { cpu } else { gpu };
        d.peak_gflops *= f;
        d.peak_gflops_dp *= f;
        d.mem_bandwidth_gbs *= f;
    }
    node
}

/// Kernel commands of the application (profiling launches excluded):
/// the units of work whose latency this workload reports.
fn app_kernels(records: &[TraceRecord]) -> impl Iterator<Item = &TraceRecord> {
    records.iter().filter(|r| {
        r.is_kernel() && !r.has_tag(PROFILING_TAG) && !r.tag_starts_with("device-profiling")
    })
}

/// One pass: measure the node's device profile into a fresh cache (set-up),
/// then run the six benchmarks and their ideal replays.
pub fn pass(seed: u64, scratch: &Path, traced: bool) -> Pass {
    let node = jittered_node(seed);
    let (cache, setup_s) = metrics::timed_setup(scratch, |dir| {
        let cache = ProfileCache::at(dir);
        cache
            .store(&DeviceProfile::measure(&Platform::new(node.clone())))
            .expect("profile cache is writable");
        cache
    });

    let tap = traced.then(|| Arc::new(LayerTap::default()));
    let options = |observe: bool| SchedOptions {
        profile_cache: cache.clone(),
        observers: match (&tap, observe) {
            (Some(tap), true) => vec![tap.clone() as Arc<dyn multicl::SchedObserver>],
            _ => Vec::new(),
        },
        ..SchedOptions::default()
    };
    let mut fp = Fingerprint::default();
    let mut violations = Vec::new();
    let mut tally = JobTally::default();
    let mut devices = DeviceTotals::default();
    let (mut solve_ms, mut ratios) = (Vec::new(), Vec::new());
    let mut stats = SchedStats::default();
    let mut dp = clrt::DataPlaneStats::default();
    let (mut span_ns, mut data_plane_ns) = (0, 0);
    // One chunk per benchmark: a pass runs for seconds, through more than
    // one of the host's speed steps.
    let mut meter = Meter::start();
    for (i, (name, class)) in PAPER_SET.into_iter().enumerate() {
        if i > 0 {
            meter.next_chunk();
        }
        let platform = Platform::new(node.clone());
        let auto = run_benchmark(
            &platform,
            ContextSchedPolicy::AutoFit,
            options(true),
            name,
            class,
            QUEUES,
            &QueuePlan::Auto,
        )
        .unwrap_or_else(|e| panic!("{name}.{class} under AUTO_FIT: {e}"));
        let dps = platform.data_plane_stats();
        dp.executed += dps.executed;
        dp.joins += dps.joins;
        dp.peak_busy_workers = dp.peak_busy_workers.max(dps.peak_busy_workers);
        // Fold the trace in and drop it before the replay: the program
        // holds one trace at a time, so the benchmark does too.
        let trace = platform.take_trace();
        metrics::fingerprint_records(&mut fp, &trace.records);
        for r in app_kernels(&trace.records) {
            tally.latencies_ms.push(r.stamp.end.saturating_since(r.stamp.queued).as_millis_f64());
        }
        if traced {
            devices.add(&trace.records);
        }
        drop(trace);
        // Each platform's data-plane workers start fresh and exit with it,
        // so their CPU is read while they live, one platform at a time.
        data_plane_ns += ThreadCpu::sample().data_plane_ns;
        drop(platform);
        let replay = Platform::new(node.clone());
        let ideal = run_benchmark(
            &replay,
            ContextSchedPolicy::AutoFit,
            options(false),
            name,
            class,
            QUEUES,
            &QueuePlan::Manual(auto.final_devices.clone()),
        )
        .unwrap_or_else(|e| panic!("{name}.{class} ideal replay: {e}"));
        data_plane_ns += ThreadCpu::sample().data_plane_ns;
        drop(replay);
        for (run, ok) in [("AUTO_FIT", auto.verified), ("ideal replay", ideal.verified)] {
            if !ok {
                violations.push(format!("{name}.{class} {run} failed verification"));
            }
        }
        fp.add(auto.time.as_nanos());
        fp.add(ideal.time.as_nanos());
        for d in &auto.final_devices {
            fp.add(d.index() as u64);
        }
        solve_ms.push(auto.time.as_millis_f64());
        ratios.push(auto.time.as_secs_f64() / ideal.time.as_secs_f64());
        span_ns += auto.time.as_nanos();
        stats = metrics::combine_stats(&stats, &auto.stats, |a, b| a + b);
    }
    let (mut host, rescale) = meter.stop();
    host.threads.data_plane_ns = data_plane_ns;

    tally.attempted = tally.completed();
    let jobs = tally.completed();
    let p99 = tail_percentile(&tally.latencies_ms, 99.0);
    if p99.is_none() {
        violations.push(format!("{jobs} kernel commands are too few for a p99"));
    }
    let mut virtual_metrics = Values::new();
    virtual_metrics.insert("latency_p50_ms", percentile(&tally.latencies_ms, 50.0));
    virtual_metrics.insert("latency_p99_ms", p99.unwrap_or(0.0));
    virtual_metrics.insert("slo_miss_frac", tally.slo_miss_frac(SLO_LIMIT_MS));
    virtual_metrics.insert("throughput_jobs_per_s", jobs as f64 / (span_ns.max(1) as f64 / 1e9));
    virtual_metrics.insert("makespan_geomean_ms", hwsim::stats::geomean(&solve_ms));
    virtual_metrics.insert("autofit_overhead_pct", (hwsim::stats::geomean(&ratios) - 1.0) * 100.0);

    let layers = tap.map(|tap| {
        let totals = tap.take();
        let mut out = Values::new();
        let pass_ns = metrics::sched_layers(&mut out, &totals, &stats, jobs);
        devices.layers(&mut out, span_ns, jobs, totals.flush_ns());
        for key in [
            "served.admit_us",
            "served.round_self_us",
            "served.jobs_per_round",
            "served.rejected",
            "served.failed",
            "served.retried",
            "loadgen.lateness_p99_ms",
        ] {
            out.insert(key, 0.0);
        }
        metrics::host_layers(&mut out, &host, &dp, jobs, pass_ns);
        out
    });

    let runs = 2 * PAPER_SET.len() as u64;
    Pass {
        setup_s,
        rescale,
        host,
        jobs,
        virtual_metrics,
        fingerprint: fp.value(),
        attempted: runs,
        failed: violations.len() as u64,
        violations,
        layers,
        note: format!(
            "{runs} runs (6 AUTO_FIT + 6 ideal replays), {jobs} kernel commands as latency samples"
        ),
    }
}
