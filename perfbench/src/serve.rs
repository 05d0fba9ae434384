//! The serving workloads: `served` under open-loop and closed-loop load,
//! with benchmark-owned job templates and a load generator that times
//! every job from when it was due.

use crate::metrics::{self, per_job_us, DeviceTotals, Meter, Pass, Values};
use crate::stats::{due_latency_ms, tail_percentile, Fingerprint, JobTally};
use crate::tap::LayerTap;
use clrt::{Platform, RuntimeConfig};
use hwsim::stats::percentile;
use hwsim::xrand::XorShift;
use hwsim::{SimDuration, SimTime};
use served::service::warmed_options;
use served::{JobResult, JobSpec, ServePolicy, Served, ServiceConfig, TenantConfig};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::path::Path;
use std::sync::Arc;

/// How jobs arrive.
#[derive(Debug, Clone, Copy)]
pub enum Arrivals {
    /// Poisson arrivals at a fixed virtual rate, whatever the service does.
    Open {
        /// Aggregate offered rate, jobs per virtual second.
        rate_hz: f64,
    },
    /// Each tenant keeps `in_flight` jobs outstanding and resubmits `think`
    /// after each reply.
    Closed {
        /// Jobs outstanding per tenant.
        in_flight: usize,
        /// Virtual delay between a reply and the next submission.
        think: SimDuration,
    },
}

/// One serving workload.
#[derive(Debug, Clone, Copy)]
pub struct ServeShape {
    /// Tenants submitting.
    pub tenants: usize,
    /// Dispatch workers (scheduler queues) of the service.
    pub workers: usize,
    /// Arrival process.
    pub arrivals: Arrivals,
    /// Jobs submitted per pass.
    pub jobs: usize,
    /// Share of jobs flagged `out_of_order`.
    pub ooo_share: f64,
    /// Latency limit for `slo_miss_frac`, ms.
    pub slo_limit_ms: f64,
    /// Submissions per host-measurement chunk ([`Meter`]), about 0.1 s
    /// of host time.
    pub chunk_jobs: u64,
}

/// Open loop at about 60% of the template mix's saturation throughput
/// (≈16.5k jobs/s, where admission starts to refuse jobs): narrow
/// epochs, so per-epoch fixed costs dominate the host time.
pub const SERVE_OPEN: ServeShape = ServeShape {
    tenants: 4,
    workers: 4,
    arrivals: Arrivals::Open { rate_hz: 9900.0 },
    jobs: 40_000,
    ooo_share: 0.3,
    slo_limit_ms: 0.25,
    chunk_jobs: 4_000,
};

/// Closed loop, 8 tenants × 4 in flight onto 32 workers: wide epochs, so
/// the mapper and parallel costing dominate while per-job costs amortize.
pub const SERVE_WIDE: ServeShape = ServeShape {
    tenants: 8,
    workers: 32,
    arrivals: Arrivals::Closed { in_flight: 4, think: SimDuration::from_micros(20) },
    jobs: 12_000,
    ooo_share: 0.0,
    slo_limit_ms: 1.25,
    chunk_jobs: 1_000,
};

/// Admission bound per tenant: far above what either load queues, so no
/// job is refused.
const QUEUE_CAPACITY: usize = 256;

/// The job templates. Each job uploads its buffers and launches kernels
/// that take no buffer arguments. The cost plane still prices every
/// kernel from its spec, but `served`'s stand-in kernel body returns at
/// once for an argument-free kernel: no host prep loop and no
/// device-latency sleep. Every such sleep would idle a core and wake it
/// again, and on a shared virtual machine that costs a varying amount of
/// CPU, so the runtime's own host cost would drown in it. Every kernel
/// moves memory at ~2 flops per item, and device affinity differs: an
/// uncoalesced, divergent gather runs best on the CPU, a coalesced stream
/// on a GPU, and a two-stage job chains one of each.
pub fn templates() -> Vec<JobSpec> {
    let parse = |text: &str| JobSpec::parse_str(text).expect("benchmark template parses");
    vec![
        parse(
            r#"{
              "name": "pb_gather",
              "buffers": [{"name": "a", "elements": 2048}],
              "kernels": [{"name": "pb_gather", "flops_per_item": 2.0,
                           "bytes_per_item": 64.0, "coalescing": 0.05,
                           "branch_divergence": 0.9, "vector_friendliness": 0.2}],
              "steps": [
                {"id": "in", "op": "write", "buffer": "a"},
                {"op": "launch", "kernel": "pb_gather", "global": 32768,
                 "local": 64, "args": [], "after": ["in"]}
              ]
            }"#,
        ),
        parse(
            r#"{
              "name": "pb_stream",
              "buffers": [{"name": "x", "elements": 2048}],
              "kernels": [{"name": "pb_stream", "flops_per_item": 2.0,
                           "bytes_per_item": 64.0, "coalescing": 1.0,
                           "vector_friendliness": 0.9}],
              "steps": [
                {"id": "in", "op": "write", "buffer": "x"},
                {"op": "launch", "kernel": "pb_stream", "global": 32768,
                 "local": 128, "args": [], "after": ["in"]}
              ]
            }"#,
        ),
        parse(
            r#"{
              "name": "pb_chain",
              "buffers": [{"name": "u", "elements": 2048}, {"name": "v", "elements": 2048}],
              "kernels": [
                {"name": "pb_chain_gather", "flops_per_item": 2.0,
                 "bytes_per_item": 64.0, "coalescing": 0.05,
                 "branch_divergence": 0.7, "vector_friendliness": 0.2},
                {"name": "pb_chain_stream", "flops_per_item": 2.0,
                 "bytes_per_item": 64.0, "coalescing": 1.0, "vector_friendliness": 0.9}
              ],
              "steps": [
                {"id": "in_u", "op": "write", "buffer": "u"},
                {"id": "in_v", "op": "write", "buffer": "v"},
                {"id": "g", "op": "launch", "kernel": "pb_chain_gather", "global": 16384,
                 "local": 64, "args": [], "after": ["in_u", "in_v"]},
                {"op": "launch", "kernel": "pb_chain_stream", "global": 16384,
                 "local": 128, "args": [], "after": ["g"]}
              ]
            }"#,
        ),
    ]
}

/// The submitted variants: every template in order, then (when the shape
/// uses them) every template flagged `out_of_order`.
fn variants(shape: &ServeShape) -> Vec<JobSpec> {
    let base = templates();
    let mut all = base.clone();
    if shape.ooo_share > 0.0 {
        all.extend(base.into_iter().map(|t| JobSpec { out_of_order: true, ..t }));
    }
    all
}

/// Seeded variant choice: a template uniformly, out-of-order with
/// probability `ooo_share`.
fn pick_variant(rng: &mut XorShift, shape: &ServeShape, templates: usize) -> usize {
    let t = rng.index(templates);
    if rng.f64() < shape.ooo_share {
        t + templates
    } else {
        t
    }
}

/// The open-loop schedule: `(offset from start, tenant, variant)`.
fn open_schedule(shape: &ServeShape, rate_hz: f64, seed: u64) -> Vec<(SimDuration, usize, usize)> {
    let mut rng = XorShift::new(seed);
    let templates = templates().len();
    let mut at = 0.0;
    (0..shape.jobs)
        .map(|_| {
            at += rng.exp_f64(rate_hz);
            let tenant = rng.index(shape.tenants);
            (SimDuration::from_secs_f64(at), tenant, pick_variant(&mut rng, shape, templates))
        })
        .collect()
}

/// Drives one service, recording due times by job id and, when traced,
/// the CPU its `submit` and `dispatch_round` calls take. It measures its
/// own host cost, in chunks of `chunk_jobs` submissions.
struct LoadGen<'a> {
    served: &'a Served,
    specs: &'a [JobSpec],
    traced: bool,
    meter: Meter,
    chunk_jobs: u64,
    due: HashMap<u64, (SimTime, usize)>,
    attempted: u64,
    rejected: u64,
    lateness_ms: Vec<f64>,
    round_makespans_ms: Vec<f64>,
    admit_ns: u64,
    round_ns: u64,
}

impl<'a> LoadGen<'a> {
    fn new(served: &'a Served, specs: &'a [JobSpec], traced: bool, chunk_jobs: u64) -> LoadGen<'a> {
        LoadGen {
            served,
            specs,
            traced,
            meter: Meter::start(),
            chunk_jobs,
            due: HashMap::new(),
            attempted: 0,
            rejected: 0,
            lateness_ms: Vec::new(),
            round_makespans_ms: Vec::new(),
            admit_ns: 0,
            round_ns: 0,
        }
    }

    fn clock(&self) -> u64 {
        if self.traced {
            crate::host::thread_cpu_ns()
        } else {
            0
        }
    }

    /// Submit `variant` for `tenant`; returns false if refused.
    fn submit(&mut self, tenant: usize, variant: usize, due: SimTime) -> bool {
        if self.attempted > 0 && self.attempted.is_multiple_of(self.chunk_jobs) {
            self.meter.next_chunk();
        }
        self.attempted += 1;
        self.lateness_ms.push(due_latency_ms(due.as_nanos(), self.served.now().as_nanos()));
        let spec = self.specs[variant].clone();
        let began = self.clock();
        let result = self.served.submit(tenant, spec);
        self.admit_ns += self.clock() - began;
        match result {
            Ok(id) => {
                self.due.insert(id, (due, variant));
                true
            }
            Err(_) => {
                self.rejected += 1;
                false
            }
        }
    }

    /// One dispatch round; a round that finished jobs ran one epoch, whose
    /// virtual makespan is the clock's advance across it.
    fn round(&mut self) -> usize {
        let before = self.served.now();
        let began = self.clock();
        let finished = self.served.dispatch_round();
        self.round_ns += self.clock() - began;
        if finished > 0 {
            self.round_makespans_ms
                .push(self.served.now().saturating_since(before).as_millis_f64());
        }
        finished
    }

    /// Dispatch while anything is queued; jump the clock over backoff
    /// windows (there are none without faults, but the loop must end).
    fn round_or_advance(&mut self, next_arrival: Option<SimTime>) {
        if self.round() == 0 {
            let ready = self.served.next_ready_at();
            let target = match (ready, next_arrival) {
                (Some(r), Some(a)) => Some(r.min(a)),
                (r, a) => r.or(a),
            };
            if let Some(t) = target {
                self.served.advance_to(t);
            }
        }
    }

    fn open(&mut self, schedule: &[(SimDuration, usize, usize)]) {
        let base = self.served.now();
        let mut next = 0;
        while next < schedule.len() {
            while next < schedule.len() && base + schedule[next].0 <= self.served.now() {
                let (at, tenant, variant) = schedule[next];
                self.submit(tenant, variant, base + at);
                next += 1;
            }
            let next_arrival = schedule.get(next).map(|s| base + s.0);
            if self.served.backlog() > 0 {
                self.round_or_advance(next_arrival);
            } else if let Some(t) = next_arrival {
                self.served.advance_to(t);
            }
        }
        self.drain();
    }

    fn closed(&mut self, shape: &ServeShape, in_flight: usize, think: SimDuration, seed: u64) {
        let mut rng = XorShift::new(seed);
        let templates = templates().len();
        let base = self.served.now();
        // (due, sequence, tenant); the sequence makes the order total.
        let mut pending: BinaryHeap<Reverse<(SimTime, u64, usize)>> = BinaryHeap::new();
        let mut seq = 0u64;
        for tenant in 0..shape.tenants {
            for _ in 0..in_flight {
                pending.push(Reverse((base, seq, tenant)));
                seq += 1;
            }
        }
        let replies = |served: &Served, t: usize| {
            let m = served.metrics().tenant(t);
            m.completed.get() + m.failed.get()
        };
        let mut seen: Vec<u64> = (0..shape.tenants).map(|t| replies(self.served, t)).collect();
        let mut submitted = 0;
        loop {
            while submitted < shape.jobs {
                let Some(&Reverse((due, _, tenant))) = pending.peek() else { break };
                if due > self.served.now() {
                    break;
                }
                pending.pop();
                submitted += 1;
                let variant = pick_variant(&mut rng, shape, templates);
                if !self.submit(tenant, variant, due) {
                    pending.push(Reverse((self.served.now() + think, seq, tenant)));
                    seq += 1;
                }
            }
            if self.served.backlog() > 0 {
                self.round_or_advance(None);
                // A client sees its reply when the round returns.
                let now = self.served.now();
                for (t, seen) in seen.iter_mut().enumerate() {
                    let done = replies(self.served, t);
                    for _ in *seen..done {
                        pending.push(Reverse((now + think, seq, t)));
                        seq += 1;
                    }
                    *seen = done;
                }
                continue;
            }
            if submitted >= shape.jobs {
                break;
            }
            match pending.peek() {
                Some(&Reverse((due, _, _))) => self.served.advance_to(due),
                None => break,
            }
        }
        self.drain();
    }

    fn drain(&mut self) {
        while self.served.backlog() > 0 {
            self.round_or_advance(None);
        }
    }
}

/// Run `spec` alone on the idle service and return its latency, ns: the
/// job's uncontended time under AUTO_FIT, the "ideal" its served latency
/// is compared against.
fn isolated_latency_ns(served: &Served, spec: &JobSpec) -> u64 {
    let id = served.submit(0, spec.clone()).expect("idle service admits a probe job");
    while served.backlog() > 0 {
        served.dispatch_round();
    }
    let outcome = served.outcomes().into_iter().find(|o| o.id == id).expect("probe finished");
    outcome.latency.as_nanos().max(1)
}

/// One pass: set up a fresh service, probe each variant alone, serve
/// `shape.jobs` jobs, account. The data plane runs synchronously on the
/// driver thread (one worker): handing each command to a pool thread and
/// joining it idles and wakes cores, which, like the stand-in's sleep,
/// costs a varying amount of CPU on a shared virtual machine. `npb_paper`
/// keeps the default pool.
pub fn pass(shape: &ServeShape, seed: u64, scratch: &Path, traced: bool) -> Pass {
    let specs = variants(shape);
    let tap = traced.then(|| Arc::new(LayerTap::default()));
    let ((platform, served), setup_s) = metrics::timed_setup(scratch, |dir| {
        let runtime = RuntimeConfig { data_plane_workers: 1, ..RuntimeConfig::default() };
        let platform = Platform::paper_node_with(runtime);
        let mut options = warmed_options(&platform, dir);
        if let Some(tap) = &tap {
            options.observers.push(tap.clone());
        }
        let tenants = (0..shape.tenants)
            .map(|i| TenantConfig::new(format!("t{i}"), 1, QUEUE_CAPACITY))
            .collect();
        let config = ServiceConfig {
            options,
            ..ServiceConfig::new(ServePolicy::AutoFit, shape.workers, tenants)
        };
        let served = Served::new(&platform, config).expect("service builds on the paper node");
        served.warm_programs(&templates()).expect("templates build");
        (platform, served)
    });
    let isolated: Vec<u64> = specs.iter().map(|s| isolated_latency_ns(&served, s)).collect();

    if let Some(tap) = &tap {
        tap.take();
    }
    let trace_mark = platform.with_engine(|e| e.trace().total_pushed());
    let stats_before = served.context().stats();
    let dp_before = served.data_plane_stats();
    let retried_before = retried(&served);
    let base = served.now();
    let mut load = LoadGen::new(&served, &specs, traced, shape.chunk_jobs);
    match shape.arrivals {
        Arrivals::Open { rate_hz } => load.open(&open_schedule(shape, rate_hz, seed)),
        Arrivals::Closed { in_flight, think } => load.closed(shape, in_flight, think, seed),
    }
    let (host, rescale) = load.meter.stop();
    let span_ns = served.now().saturating_since(base).as_nanos();

    let mut fp = Fingerprint::default();
    let mut tally =
        JobTally { attempted: load.attempted, rejected: load.rejected, ..JobTally::default() };
    let mut ratios = Vec::new();
    for o in served.outcomes() {
        let Some(&(due, variant)) = load.due.get(&o.id) else { continue };
        fp.add(o.id);
        fp.add(o.tenant as u64);
        fp.add(o.completed_at.as_nanos());
        match o.result {
            JobResult::Completed => {
                let latency_ms = due_latency_ms(due.as_nanos(), o.completed_at.as_nanos());
                tally.latencies_ms.push(latency_ms);
                ratios.push(latency_ms * 1e6 / isolated[variant] as f64);
            }
            JobResult::Failed(_) => {
                tally.failed += 1;
                fp.add(u64::MAX);
            }
        }
    }
    for m in &load.round_makespans_ms {
        fp.add(m.to_bits());
    }
    let mut devices = DeviceTotals::default();
    platform.with_engine(|e| {
        let records = e.trace().records_since(trace_mark);
        metrics::fingerprint_records(&mut fp, records);
        if traced {
            devices.add(records);
        }
    });

    let mut violations = Vec::new();
    if !tally.balanced() {
        violations.push(format!(
            "submitted {} != completed {} + rejected {} + failed {}",
            tally.attempted,
            tally.completed(),
            tally.rejected,
            tally.failed
        ));
    }
    let completed = tally.completed();
    let p99 = tail_percentile(&tally.latencies_ms, 99.0);
    if p99.is_none() {
        violations.push(format!("{completed} latency samples are too few for a p99"));
    }
    let mut virtual_metrics = Values::new();
    virtual_metrics.insert("latency_p50_ms", percentile(&tally.latencies_ms, 50.0));
    virtual_metrics.insert("latency_p99_ms", p99.unwrap_or(0.0));
    virtual_metrics.insert("slo_miss_frac", tally.slo_miss_frac(shape.slo_limit_ms));
    virtual_metrics
        .insert("throughput_jobs_per_s", completed as f64 / (span_ns.max(1) as f64 / 1e9));
    virtual_metrics.insert("makespan_geomean_ms", hwsim::stats::geomean(&load.round_makespans_ms));
    virtual_metrics.insert("autofit_overhead_pct", (hwsim::stats::geomean(&ratios) - 1.0) * 100.0);

    let layers = tap.map(|tap| {
        let totals = tap.take();
        let mut out = Values::new();
        let stats_after = served.context().stats();
        let stats = metrics::combine_stats(&stats_before, &stats_after, |a, b| b - a);
        let pass_ns = metrics::sched_layers(&mut out, &totals, &stats, completed);
        devices.layers(&mut out, span_ns, completed, totals.flush_ns());
        let rounds = load.round_makespans_ms.len() as u64;
        out.insert("served.admit_us", per_job_us(load.admit_ns, load.attempted));
        out.insert(
            "served.round_self_us",
            per_job_us(load.round_ns.saturating_sub(pass_ns), rounds),
        );
        out.insert("served.jobs_per_round", completed as f64 / rounds.max(1) as f64);
        out.insert("served.rejected", tally.rejected as f64);
        out.insert("served.failed", tally.failed as f64);
        out.insert("served.retried", retried(&served).saturating_sub(retried_before) as f64);
        out.insert("loadgen.lateness_p99_ms", percentile(&load.lateness_ms, 99.0));
        let dp_after = served.data_plane_stats();
        let dp = clrt::DataPlaneStats {
            executed: dp_after.executed - dp_before.executed,
            joins: dp_after.joins - dp_before.joins,
            ..dp_after
        };
        metrics::host_layers(&mut out, &host, &dp, completed, load.admit_ns + load.round_ns);
        out
    });

    Pass {
        setup_s,
        host,
        rescale,
        jobs: completed,
        virtual_metrics,
        fingerprint: fp.value(),
        attempted: tally.attempted,
        failed: tally.rejected + tally.failed,
        violations,
        layers,
        note: format!(
            "{} jobs submitted, {} completed ({} latency samples), {} rounds",
            tally.attempted,
            completed,
            completed,
            load.round_makespans_ms.len()
        ),
    }
}

fn retried(served: &Served) -> u64 {
    (0..served.tenant_count()).map(|t| served.metrics().tenant(t).retried.get()).sum()
}
