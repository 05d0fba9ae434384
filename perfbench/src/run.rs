//! Repeat a workload's pass for the requested time, check that every pass
//! reproduced the same virtual timeline, and aggregate the metrics.

use crate::metrics::{host_median, per_job_us, Pass, Values, END_TO_END, PER_LAYER};
use hwsim::stats::percentile;
use std::path::Path;
use std::time::Instant;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Open-loop serving, narrow epochs.
    ServeOpen,
    /// Closed-loop serving, wide epochs.
    ServeWide,
    /// The paper's Figure 4 NPB set.
    NpbPaper,
}

impl Workload {
    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "serve_open" => Some(Workload::ServeOpen),
            "serve_wide" => Some(Workload::ServeWide),
            "npb_paper" => Some(Workload::NpbPaper),
            _ => None,
        }
    }

    fn pass(self, seed: u64, scratch: &Path, traced: bool) -> Pass {
        match self {
            Workload::ServeOpen => {
                crate::serve::pass(&crate::serve::SERVE_OPEN, seed, scratch, traced)
            }
            Workload::ServeWide => {
                crate::serve::pass(&crate::serve::SERVE_WIDE, seed, scratch, traced)
            }
            Workload::NpbPaper => crate::paper::pass(seed, scratch, traced),
        }
    }
}

/// Fewest untraced passes a run makes (medians and the same-seed check).
const MIN_PASSES: usize = 3;

/// The outcome of one benchmark run.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Whether every check passed.
    pub correct: bool,
    /// Operations attempted over all passes.
    pub attempted: u64,
    /// Operations failed over all passes.
    pub failed: u64,
    /// The printed metrics.
    pub metrics: Values,
    /// Human-readable report lines.
    pub report: Vec<String>,
}

/// Run `workload` for about `seconds`: untraced passes only, or (with
/// `traced`) untraced and traced passes alternately. Each pass uses a
/// fresh subdirectory of `scratch` for its profile cache.
pub fn run(workload: Workload, seed: u64, seconds: u64, traced: bool, scratch: &Path) -> Outcome {
    let started = Instant::now();
    let (mut plain, mut with_tap): (Vec<Pass>, Vec<Pass>) = (Vec::new(), Vec::new());
    loop {
        let enough = plain.len() >= MIN_PASSES && (!traced || with_tap.len() >= MIN_PASSES - 1);
        // Stop once the minimum is met and another pass of the average
        // length so far would run past the budget.
        let elapsed = started.elapsed().as_secs_f64();
        let passes = (plain.len() + with_tap.len()).max(1) as f64;
        if enough && elapsed + elapsed / passes > seconds as f64 {
            break;
        }
        let trace_this = traced && with_tap.len() < plain.len();
        let dir = scratch.join(format!("pass{}", plain.len() + with_tap.len()));
        let pass = workload.pass(seed, &dir, trace_this);
        let _ = std::fs::remove_dir_all(&dir);
        if trace_this {
            with_tap.push(pass);
        } else {
            plain.push(pass);
        }
    }

    let mut out = Outcome { correct: true, ..Outcome::default() };
    let all: Vec<&Pass> = plain.iter().chain(&with_tap).collect();
    let first = all[0];
    for (i, p) in all.iter().enumerate() {
        out.attempted += p.attempted;
        out.failed += p.failed;
        for v in &p.violations {
            out.report.push(format!("VIOLATION (pass {i}): {v}"));
        }
        if p.fingerprint != first.fingerprint || p.virtual_metrics != first.virtual_metrics {
            out.report.push(format!(
                "VIOLATION: pass {i} ({}) diverged from pass 0 on the virtual clock",
                if p.layers.is_some() { "traced" } else { "untraced" }
            ));
        }
    }
    let cpu_us_per_job = |p: &Pass| per_job_us(p.host.cpu_ns, p.jobs);
    let untraced_cpu = host_median(&plain, cpu_us_per_job);
    if traced {
        for (name, _) in PER_LAYER {
            let values: Vec<f64> =
                with_tap.iter().filter_map(|p| p.layers.as_ref()?.get(name).copied()).collect();
            out.metrics.insert(name, percentile(&values, 50.0));
        }
        let traced_cpu = host_median(&with_tap, cpu_us_per_job);
        out.metrics.insert("trace.overhead_us_per_job", traced_cpu - untraced_cpu);
    } else {
        let mut m = first.virtual_metrics.clone();
        m.insert("setup_s", percentile(&plain.iter().map(|p| p.setup_s).collect::<Vec<_>>(), 50.0));
        m.insert("host_cpu_us_per_job", untraced_cpu);
        m.insert("host_wall_s", host_median(&plain, |p| p.host.wall_ns as f64 / 1e9));
        m.insert("peak_rss_mb", crate::host::peak_rss_mb());
        for (name, _) in END_TO_END {
            out.metrics.insert(name, m.get(name).copied().unwrap_or(f64::NAN));
        }
    }
    for (name, value) in &out.metrics {
        if !value.is_finite() {
            out.report.push(format!("VIOLATION: metric {name} is not a number"));
        }
    }
    out.correct = !out.report.iter().any(|l| l.starts_with("VIOLATION"));

    let p = &plain[0];
    out.report.push(format!(
        "{} untraced + {} traced passes in {:.1} s; per pass: {}",
        plain.len(),
        with_tap.len(),
        started.elapsed().as_secs_f64(),
        p.note
    ));
    let threads = |p: &Pass| {
        let j = p.jobs.max(1) as f64 * 1e3;
        format!(
            "main {:.2} + data plane {:.2} + other {:.2} = {:.2} us/job",
            p.host.threads.main_ns as f64 / j,
            p.host.threads.data_plane_ns as f64 / j,
            p.host.other_ns() as f64 / j,
            p.host.cpu_ns as f64 / j
        )
    };
    out.report.push(format!("host CPU by thread (untraced pass 0): {}", threads(p)));
    let quartiles = |values: Vec<f64>| {
        let q: Vec<String> =
            [25.0, 50.0, 75.0].iter().map(|&q| format!("{:.4}", percentile(&values, q))).collect();
        q.join(" / ")
    };
    out.report.push(format!(
        "untraced passes, quartiles: host CPU {} us/job as measured, rescale factor {}",
        quartiles(plain.iter().map(cpu_us_per_job).collect()),
        quartiles(plain.iter().map(|p| p.rescale).collect())
    ));
    out.report.push(format!(
        "fail_frac {} ({} of {} attempted)",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    ));
    out
}
