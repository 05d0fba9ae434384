//! The traced run's observer: stamps each scheduling epoch's boundary
//! events on the driving thread's CPU clock, tallies the per-layer counts
//! the event stream carries, and forwards every event to a ring-buffer
//! sink under a timer, so the telemetry layer's own cost is measured too.

use crate::host::thread_cpu_ns;
use crate::stats::{split_epoch, EpochSplit, EpochStamps};
use multicl::telemetry::sink::RingBufferSink;
use multicl::{SchedEvent, SchedObserver};
use std::sync::Mutex;
use std::time::Instant;

/// Events the sink retains; older ones are dropped (and counted).
const SINK_CAPACITY: usize = 4096;

/// What the tap accumulated over one traced pass.
#[derive(Debug, Clone, Default)]
pub struct TapTotals {
    /// Closed epochs, split into phases (CPU ns of the driving thread).
    pub epochs: Vec<EpochSplit>,
    /// Every event delivered.
    pub events: u64,
    /// Wall time spent inside the sink, ns.
    pub sink_ns: u64,
    /// Branch-and-bound nodes the mapper explored, summed.
    pub mapper_nodes: u64,
    /// Decisions where the adaptive mapper's node budget tripped.
    pub budget_trips: u64,
    /// Cost-driven queue migrations and the bytes they moved.
    pub migrations: u64,
    /// Bytes referenced by migrated queues and not yet resident.
    pub migration_bytes: u64,
    /// |predicted − executed| / executed epoch makespan, per attribution.
    pub predict_err: Vec<f64>,
    /// Virtual time the passes spent profiling, ns.
    pub profiling_ns: u64,
    /// Queue cost lookups served from the profile caches.
    pub cache_hits: u64,
    /// Queue cost lookups that needed dynamic profiling.
    pub cache_misses: u64,
}

#[derive(Default)]
struct TapState {
    open: Option<EpochStamps>,
    totals: TapTotals,
}

/// A [`SchedObserver`] recording per-layer spans and counts.
pub struct LayerTap {
    state: Mutex<TapState>,
    sink: RingBufferSink,
}

impl Default for LayerTap {
    fn default() -> LayerTap {
        LayerTap { state: Mutex::default(), sink: RingBufferSink::new(SINK_CAPACITY) }
    }
}

impl TapTotals {
    /// CPU ns of the driving thread spent inside closed scheduler passes.
    pub fn pass_ns(&self) -> u64 {
        self.epochs.iter().map(EpochSplit::total).sum()
    }

    /// CPU ns of the driving thread spent in flush phases.
    pub fn flush_ns(&self) -> u64 {
        self.epochs.iter().map(|e| e.flush).sum()
    }
}

impl LayerTap {
    /// Take the totals so far, leaving the tap empty.
    pub fn take(&self) -> TapTotals {
        std::mem::take(&mut self.state.lock().expect("tap lock poisoned").totals)
    }
}

impl SchedObserver for LayerTap {
    fn on_event(&self, event: &SchedEvent) {
        // Only epoch boundaries need the (comparatively slow) CPU clock.
        let now = match event {
            SchedEvent::EpochBegin { .. }
            | SchedEvent::MappingDecision { .. }
            | SchedEvent::MakespanAttribution { .. }
            | SchedEvent::EpochEnd { .. } => thread_cpu_ns(),
            _ => 0,
        };
        {
            let mut st = self.state.lock().expect("tap lock poisoned");
            let st = &mut *st;
            match event {
                SchedEvent::EpochBegin { .. } => {
                    st.open = Some(EpochStamps { begin: now, ..EpochStamps::default() });
                }
                SchedEvent::MappingDecision {
                    nodes_explored, budget_tripped, mapper_wall, ..
                } => {
                    if let Some(open) = st.open.as_mut() {
                        open.decision = Some((now, mapper_wall.as_nanos()));
                    }
                    st.totals.mapper_nodes += nodes_explored;
                    st.totals.budget_trips += u64::from(*budget_tripped);
                }
                SchedEvent::MakespanAttribution { predicted, actual, .. } => {
                    if let Some(open) = st.open.as_mut() {
                        open.attribution = Some(now);
                    }
                    if !actual.is_zero() {
                        let (p, a) = (predicted.as_nanos() as f64, actual.as_nanos() as f64);
                        st.totals.predict_err.push((p - a).abs() / a);
                    }
                }
                SchedEvent::QueueMigrated { bytes, .. } => {
                    st.totals.migrations += 1;
                    st.totals.migration_bytes += bytes;
                }
                SchedEvent::CacheHit { .. } => st.totals.cache_hits += 1,
                SchedEvent::CacheMiss { .. } => st.totals.cache_misses += 1,
                SchedEvent::EpochEnd { profiling, .. } => {
                    st.totals.profiling_ns += profiling.as_nanos();
                    if let Some(mut open) = st.open.take() {
                        open.end = now;
                        st.totals.epochs.push(split_epoch(&open));
                    }
                }
                _ => {}
            }
            st.totals.events += 1;
        }
        let began = Instant::now();
        self.sink.on_event(event);
        let spent = began.elapsed().as_nanos() as u64;
        self.state.lock().expect("tap lock poisoned").totals.sink_ns += spent;
    }
}
