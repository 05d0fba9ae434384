//! Command line: `perfbench --workload <serve_open|serve_wide|npb_paper>
//! --seed <n> --seconds <n> --trace <0|1>`. Prints a report on stderr and,
//! as the last line of stdout, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. Exits 1 when a check failed.

use perfbench::metrics::{END_TO_END, PER_LAYER};
use perfbench::run::{run, Workload};
use std::process::ExitCode;

fn usage(problem: &str) -> ExitCode {
    eprintln!("perfbench: {problem}");
    eprintln!(
        "usage: perfbench --workload <serve_open|serve_wide|npb_paper> --seed <n> \
         --seconds <n> --trace <0|1>"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for pair in args.chunks(2) {
        let [flag, value] = pair else { return usage("every flag needs a value") };
        match flag.as_str() {
            "--workload" => workload = Workload::parse(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<u64>().ok().filter(|&s| s <= 600),
            "--trace" => trace = value.parse::<u8>().ok().filter(|&t| t <= 1),
            other => return usage(&format!("unknown flag {other}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("missing or invalid argument");
    };
    let traced = trace == 1;

    // Scratch space (profile caches) lives under the working directory.
    let root = std::path::Path::new(".perfbench_scratch");
    let scratch = root.join(std::process::id().to_string());
    let outcome = run(workload, seed, seconds, traced, &scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    // Fails while another run still uses the directory, which is fine.
    let _ = std::fs::remove_dir(root);

    let table = if traced { &PER_LAYER[..] } else { &END_TO_END[..] };
    for line in &outcome.report {
        eprintln!("{line}");
    }
    let mut metrics = Vec::new();
    for (name, unit) in table {
        let value = outcome.metrics.get(name).copied().unwrap_or(f64::NAN);
        eprintln!("{name:>34} {value:>16.6} {unit}");
        let value = if value.is_finite() { value } else { 0.0 };
        metrics.push(format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
