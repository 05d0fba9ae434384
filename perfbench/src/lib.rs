//! `perfbench`: the repository's benchmark. One command runs a named
//! workload in-process against the public APIs of `served`, `multicl` and
//! `npb`, checks the results, and prints end-to-end metrics (untraced
//! passes) or per-layer metrics (traced passes) on two clocks: the
//! simulator's virtual clock, deterministic for a seed, and the host's
//! real CPU and wall time.

pub mod host;
pub mod metrics;
mod paper;
pub mod run;
mod serve;
pub mod stats;
mod tap;
