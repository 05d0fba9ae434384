//! Host-clock probes: process and thread CPU time, per-thread CPU from
//! `/proc/self/task/*/schedstat`, peak resident memory, and the reference
//! workload host times are rescaled by.

use std::collections::{BTreeMap, HashMap};
use std::os::raw::{c_int, c_long};

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
}

const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
const CLOCK_THREAD_CPUTIME_ID: c_int = 3;

fn cpu_clock_ns(clock: c_int) -> u64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec` (two C longs on
    // Linux) for the duration of the call, and both clock ids are valid
    // on every Linux kernel, so the call only writes into `ts`.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time of the whole process, all threads (exited ones included), ns.
pub fn process_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time of the calling thread, ns.
pub fn thread_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// Name prefix of the runtime's data-plane worker threads.
const DATA_PLANE_THREAD: &str = "clrt-dp-";

/// CPU time per thread class from the kernel's per-thread schedstat.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ThreadCpu {
    /// The process's initial thread, which drives every workload.
    pub main_ns: u64,
    /// Live data-plane worker threads, summed.
    pub data_plane_ns: u64,
}

impl ThreadCpu {
    /// Read the live threads' counters now.
    pub fn sample() -> ThreadCpu {
        let main_tid = std::process::id().to_string();
        let mut sample = ThreadCpu::default();
        let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
            return sample;
        };
        for task in tasks.flatten() {
            let dir = task.path();
            let ns = std::fs::read_to_string(dir.join("schedstat"))
                .ok()
                .and_then(|s| s.split_whitespace().next()?.parse::<u64>().ok())
                .unwrap_or(0);
            if task.file_name().to_string_lossy() == main_tid {
                sample.main_ns = ns;
            } else if std::fs::read_to_string(dir.join("comm"))
                .is_ok_and(|c| c.starts_with(DATA_PLANE_THREAD))
            {
                sample.data_plane_ns += ns;
            }
        }
        sample
    }
}

/// Peak resident set size of the process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Thread CPU time of [`reference_s`]'s workload on an uncontended core
/// of the host the README's figures come from (Intel Xeon, 2.1 GHz), s.
pub const REFERENCE_S: f64 = 0.01;

/// Run a fixed host workload shaped like the runtime's own host work
/// (small allocations, hash and ordered maps, string formatting, a sort)
/// and return the thread CPU seconds it took.
///
/// On a shared virtual machine the same code runs up to twice as fast at
/// one moment as at the next, with what the other tenants of the physical
/// host do to its caches and memory. Pure arithmetic hardly slows down;
/// allocation- and map-heavy code does, about as much as this workload.
/// So a host time taken right after this workload and multiplied by
/// `REFERENCE_S / reference_s()` reads what it would on the uncontended
/// host.
pub fn reference_s() -> f64 {
    let began = thread_cpu_ns();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut checksum = 0u64;
    for _ in 0..10 {
        let mut buckets: HashMap<u64, Vec<u64>> = HashMap::new();
        let mut names: BTreeMap<u64, String> = BTreeMap::new();
        for i in 0..4000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            buckets.entry(x % 1024).or_default().push(i);
            names.insert(x % 8192, format!("k{i}"));
            if i % 3 == 0 {
                names.remove(&(x % 4096));
            }
        }
        let mut sums: Vec<u64> = buckets.values().map(|v| v.iter().sum()).collect();
        sums.sort_unstable();
        checksum = checksum.wrapping_add(sums[sums.len() / 2] + names.len() as u64);
    }
    std::hint::black_box(checksum);
    (thread_cpu_ns() - began) as f64 / 1e9
}
