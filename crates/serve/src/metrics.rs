//! Daemon telemetry: lock-free counters and gauges plus bounded latency
//! rings.
//!
//! Each ring keeps the most recent [`RING_CAPACITY`] solve latencies behind
//! a `Mutex`; percentiles are computed over that window on demand, so
//! `/stats` costs one sort of ≤4096 samples and a solve costs two short
//! lock-and-store sections (the overall ring and its path's ring).
//!
//! Latencies are recorded twice: once into the overall ring and once into a
//! per-path ring keyed by [`LatencyPath`]. A cache hit answers in tens of
//! microseconds while a cold 422-sized solve takes milliseconds; folding
//! both into one histogram made the p50 meaningless whenever the hit rate
//! moved, so `/stats` now reports each service path separately.

use std::sync::atomic::{AtomicU64, AtomicUsize};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// Latency samples retained for percentile estimation (per ring).
pub const RING_CAPACITY: usize = 4096;

/// Which service path answered a solve, for per-path latency accounting.
///
/// `Spectral` is split out from hit/miss because the Green's-function path
/// has a distinct cost profile: a one-time response build, then
/// O(n log n) evaluations far cheaper than an iterative cold solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LatencyPath {
    /// Solve ran the pipeline against a cached circuit.
    Hit,
    /// Solve assembled its circuit (cold).
    Miss,
    /// Solve joined another request's in-flight result.
    Coalesced,
    /// Solve was answered by the spectral backend (any cache disposition).
    Spectral,
}

impl LatencyPath {
    /// The wire/label token.
    pub fn token(self) -> &'static str {
        match self {
            Self::Hit => "hit",
            Self::Miss => "miss",
            Self::Coalesced => "coalesced",
            Self::Spectral => "spectral",
        }
    }

    /// Every path, in the order `/stats` reports them.
    pub const ALL: [LatencyPath; 4] = [Self::Hit, Self::Miss, Self::Coalesced, Self::Spectral];

    fn index(self) -> usize {
        match self {
            Self::Hit => 0,
            Self::Miss => 1,
            Self::Coalesced => 2,
            Self::Spectral => 3,
        }
    }
}

/// Most recent latency samples, overwritten oldest-first.
struct Ring {
    samples_ns: Vec<u64>,
    next: usize,
    filled: usize,
}

impl Ring {
    fn new() -> Self {
        Self { samples_ns: vec![0; RING_CAPACITY], next: 0, filled: 0 }
    }

    fn record(&mut self, ns: u64) {
        let at = self.next;
        self.samples_ns[at] = ns;
        self.next = (at + 1) % RING_CAPACITY;
        self.filled = (self.filled + 1).min(RING_CAPACITY);
    }

    fn summary(&self) -> LatencySummary {
        if self.filled == 0 {
            return LatencySummary { count: 0, p50_ns: 0, p99_ns: 0, max_ns: 0 };
        }
        let mut window: Vec<u64> = self.samples_ns[..self.filled].to_vec();
        window.sort_unstable();
        let pick = |p: f64| {
            let idx = ((window.len() as f64 - 1.0) * p).round() as usize;
            window[idx.min(window.len() - 1)]
        };
        LatencySummary {
            count: window.len(),
            p50_ns: pick(0.50),
            p99_ns: pick(0.99),
            max_ns: *window.last().expect("non-empty window"),
        }
    }
}

/// Counters and latency telemetry shared by every connection and worker.
pub struct Metrics {
    started: Instant,
    /// Frames decoded into a request (any kind).
    pub requests: AtomicU64,
    /// Solves answered `200` after running (or joining) a solve.
    pub solved: AtomicU64,
    /// Solves answered by joining another request's in-flight solve.
    pub coalesced: AtomicU64,
    /// Solves answered `200` by the spectral backend.
    pub solved_spectral: AtomicU64,
    /// Requests shed because the solve queue was full.
    pub shed_queue_full: AtomicU64,
    /// Requests shed because their deadline elapsed while queued.
    pub shed_deadline: AtomicU64,
    /// Frames rejected before reaching the engine (framing, JSON, fields).
    pub protocol_errors: AtomicU64,
    /// Solves that named an unknown shipped scenario.
    pub not_found: AtomicU64,
    /// Solves that reached the engine and failed (parse, stack, solver).
    pub failed: AtomicU64,
    /// Workers currently inside a solve.
    pub busy_workers: AtomicUsize,
    /// Admitted solves no worker has taken yet.
    pub queue_depth: AtomicUsize,
    /// Open client connections.
    pub connections: AtomicUsize,
    ring: Mutex<Ring>,
    by_path: [Mutex<Ring>; 4],
}

/// Point-in-time percentile summary of a latency ring.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Samples in the window.
    pub count: usize,
    /// Median, nanoseconds.
    pub p50_ns: u64,
    /// 99th percentile, nanoseconds.
    pub p99_ns: u64,
    /// Worst sample in the window, nanoseconds.
    pub max_ns: u64,
}

impl Default for Metrics {
    fn default() -> Self {
        Self::new()
    }
}

impl Metrics {
    /// Fresh telemetry with empty rings.
    pub fn new() -> Self {
        Self {
            started: Instant::now(),
            requests: AtomicU64::new(0),
            solved: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            solved_spectral: AtomicU64::new(0),
            shed_queue_full: AtomicU64::new(0),
            shed_deadline: AtomicU64::new(0),
            protocol_errors: AtomicU64::new(0),
            not_found: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            busy_workers: AtomicUsize::new(0),
            queue_depth: AtomicUsize::new(0),
            connections: AtomicUsize::new(0),
            ring: Mutex::new(Ring::new()),
            by_path: [
                Mutex::new(Ring::new()),
                Mutex::new(Ring::new()),
                Mutex::new(Ring::new()),
                Mutex::new(Ring::new()),
            ],
        }
    }

    /// Milliseconds since the metrics (and so the daemon) started.
    pub fn uptime_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }

    /// Records one end-to-end solve latency into the overall ring only.
    pub fn record_latency_ns(&self, ns: u64) {
        self.ring.lock().unwrap_or_else(PoisonError::into_inner).record(ns);
    }

    /// Records one end-to-end solve latency into both the overall ring and
    /// the ring for `path`.
    pub fn record_path_latency_ns(&self, path: LatencyPath, ns: u64) {
        self.record_latency_ns(ns);
        self.by_path[path.index()].lock().unwrap_or_else(PoisonError::into_inner).record(ns);
    }

    /// Percentiles over the current overall window (zeros when empty).
    pub fn latency(&self) -> LatencySummary {
        self.ring.lock().unwrap_or_else(PoisonError::into_inner).summary()
    }

    /// Percentiles over the current window for one service path.
    pub fn path_latency(&self, path: LatencyPath) -> LatencySummary {
        self.by_path[path.index()].lock().unwrap_or_else(PoisonError::into_inner).summary()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_ring_reports_zeros() {
        let m = Metrics::new();
        assert_eq!(m.latency(), LatencySummary { count: 0, p50_ns: 0, p99_ns: 0, max_ns: 0 });
        for path in LatencyPath::ALL {
            assert_eq!(m.path_latency(path).count, 0);
        }
    }

    #[test]
    fn percentiles_track_the_window() {
        let m = Metrics::new();
        for ns in 1..=100u64 {
            m.record_latency_ns(ns * 1_000);
        }
        let l = m.latency();
        assert_eq!(l.count, 100);
        // Index round((n-1)*p) = 50 → the 51st sample.
        assert_eq!(l.p50_ns, 51_000);
        assert_eq!(l.p99_ns, 99_000);
        assert_eq!(l.max_ns, 100_000);
    }

    #[test]
    fn ring_is_bounded_and_overwrites_oldest() {
        let m = Metrics::new();
        for _ in 0..RING_CAPACITY {
            m.record_latency_ns(1);
        }
        // A full window of fresh samples displaces every old one.
        for _ in 0..RING_CAPACITY {
            m.record_latency_ns(7);
        }
        let l = m.latency();
        assert_eq!(l.count, RING_CAPACITY);
        assert_eq!((l.p50_ns, l.p99_ns, l.max_ns), (7, 7, 7));
    }

    #[test]
    fn path_rings_separate_hit_and_cold_latencies() {
        let m = Metrics::new();
        // A fast hit path and a slow miss path no longer pollute each other.
        for _ in 0..10 {
            m.record_path_latency_ns(LatencyPath::Hit, 50_000);
        }
        m.record_path_latency_ns(LatencyPath::Miss, 5_000_000);
        assert_eq!(m.path_latency(LatencyPath::Hit).p50_ns, 50_000);
        assert_eq!(m.path_latency(LatencyPath::Miss).p50_ns, 5_000_000);
        assert_eq!(m.path_latency(LatencyPath::Coalesced).count, 0);
        assert_eq!(m.path_latency(LatencyPath::Spectral).count, 0);
        // The overall ring still sees every sample.
        assert_eq!(m.latency().count, 11);
        assert_eq!(m.latency().max_ns, 5_000_000);
    }
}
