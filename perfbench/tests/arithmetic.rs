//! The benchmark's own arithmetic: percentiles and the tail rule, due-time
//! latency and SLO-miss accounting, and the epoch span split.

use perfbench::host::REFERENCE_S;
use perfbench::metrics::{
    at_reference_speed, host_median, per_job_us, HostCost, Pass, END_TO_END, PER_LAYER,
};
use perfbench::stats::{
    due_latency_ms, split_epoch, tail_percentile, EpochSplit, EpochStamps, JobTally,
};

fn ascending(n: usize) -> Vec<f64> {
    (1..=n).map(|i| i as f64).collect()
}

#[test]
fn tail_percentile_needs_ten_samples_beyond() {
    // p99 of n samples interpolates between zero-based ranks floor and
    // ceil of 0.99 (n - 1); n - 1 - ceil of them rank above both, so 1001
    // samples leave 10 beyond and 1000 leave 9.
    assert_eq!(tail_percentile(&ascending(1001), 99.0), Some(991.0));
    assert_eq!(tail_percentile(&ascending(1000), 99.0), None);
    assert_eq!(tail_percentile(&ascending(21), 50.0), Some(11.0));
    assert_eq!(tail_percentile(&ascending(20), 50.0), None);
    assert_eq!(tail_percentile(&[], 50.0), None);
    assert_eq!(tail_percentile(&ascending(100), 101.0), None);
}

#[test]
fn tail_percentile_matches_the_service_percentile() {
    // The same definition `served` reports its own p50/p99 with: linear
    // interpolation, on unsorted input.
    let v: Vec<f64> = (0..2000).map(|i| ((i * 7919) % 2000) as f64).collect();
    for p in [50.0, 90.0, 99.0] {
        assert_eq!(tail_percentile(&v, p), Some(hwsim::stats::percentile(&v, p)));
    }
    assert_eq!(tail_percentile(&v, 99.0), Some(1979.01));
}

#[test]
fn latency_counts_from_the_due_time() {
    // Due at 1.0 ms, submitted late at 1.3 ms, completed at 1.8 ms: the
    // job waited 0.8 ms from its user's point of view, not 0.5 ms.
    assert_eq!(due_latency_ms(1_000_000, 1_800_000), 0.8);
    assert_eq!(due_latency_ms(2_000_000, 1_000_000), 0.0);
}

#[test]
fn rejected_and_failed_jobs_miss_the_slo() {
    let tally = JobTally {
        attempted: 10,
        rejected: 1,
        failed: 2,
        latencies_ms: vec![0.1, 0.2, 0.3, 0.9, 1.0, 1.5, 2.0],
    };
    assert!(tally.balanced());
    assert_eq!(tally.completed(), 7);
    // Two completions exceed 1 ms (1.0 itself meets the limit), plus the
    // rejected and the failed jobs.
    assert_eq!(tally.slo_miss_frac(1.0), 0.5);
    assert_eq!(tally.slo_miss_frac(10.0), 0.3);
    let lost = JobTally { attempted: 11, ..tally };
    assert!(!lost.balanced());
    assert_eq!(JobTally::default().slo_miss_frac(1.0), 0.0);
}

#[test]
fn epoch_split_subtracts_the_mapper_from_costing() {
    let stamps = EpochStamps {
        begin: 1_000,
        decision: Some((1_900, 400)),
        attribution: Some(3_000),
        end: 3_500,
    };
    let split = split_epoch(&stamps);
    assert_eq!(split, EpochSplit { cost: 500, mapper: 400, flush: 1_100, postflush: 500 });
    assert_eq!(split.total(), stamps.end - stamps.begin);
}

#[test]
fn epoch_split_handles_missing_and_inconsistent_stamps() {
    // No attribution: everything after the decision is flush.
    let s = EpochStamps { begin: 0, decision: Some((10, 4)), attribution: None, end: 30 };
    assert_eq!(split_epoch(&s), EpochSplit { cost: 6, mapper: 4, flush: 20, postflush: 0 });
    // No decision (no mapper ran): the flush runs from the begin.
    let s = EpochStamps { begin: 0, decision: None, attribution: Some(25), end: 30 };
    assert_eq!(split_epoch(&s), EpochSplit { cost: 0, mapper: 0, flush: 25, postflush: 5 });
    // A mapper wall time larger than the interval it ran in (different
    // clocks) is capped so the phases still add up to the epoch.
    let s = EpochStamps { begin: 0, decision: Some((10, 50)), attribution: Some(20), end: 30 };
    let split = split_epoch(&s);
    assert_eq!(split, EpochSplit { cost: 0, mapper: 10, flush: 10, postflush: 10 });
    assert_eq!(split.total(), 30);
}

#[test]
fn host_times_are_rescaled_to_the_reference_speed() {
    let pass = |cpu_ns, jobs, slowdown: f64| Pass {
        host: HostCost { cpu_ns, ..HostCost::default() },
        jobs,
        rescale: 1.0 / slowdown,
        ..Pass::default()
    };
    // 20 µs/job on an uncontended host, then 30 and 40 µs/job while the
    // reference ran 1.5 and 2 times slower: all three read 20.
    let cpu = |p: &Pass| per_job_us(p.host.cpu_ns, p.jobs);
    let passes = [pass(20_000_000, 1_000, 1.0), pass(90_000_000, 3_000, 1.5), pass(80_000, 2, 2.0)];
    assert!((host_median(&passes, cpu) - 20.0).abs() < 1e-9);
    // The median of the rescaled values, not the rescaled median.
    let passes = [pass(10_000, 1, 1.0), pass(40_000, 1, 2.0), pass(90_000, 1, 1.0)];
    assert!((host_median(&passes, cpu) - 20.0).abs() < 1e-9);
    assert_eq!(per_job_us(5, 0), 0.0);
    // A time taken while the reference ran 1.5 times its nominal length.
    assert!((at_reference_speed(3.0, 1.5 * REFERENCE_S) - 2.0).abs() < 1e-12);
}

#[test]
fn benchmark_manifest_lists_every_metric() {
    let manifest =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json sits at the repository root");
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(manifest.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
}
