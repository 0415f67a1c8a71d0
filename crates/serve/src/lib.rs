//! `hotiron-serve`: a std-only TCP daemon that answers scenario solves.
//!
//! A request names a shipped scenario (or carries an inline `.scn` payload)
//! plus a fidelity tier and optional power overrides; the response is the
//! solve report — per-block temperatures, solver telemetry, and how the
//! request was satisfied (cache hit, fresh build, or coalesced onto another
//! request's in-flight solve). The daemon layers, bottom to top:
//!
//! 1. a bounded LRU of assembled circuits
//!    ([`hotiron_thermal::CircuitCache`]) with hit/miss/eviction counters;
//! 2. request coalescing ([`engine`]): concurrent identical requests share
//!    one solve, keyed by the lowered stack's content hash plus the
//!    effective scenario;
//! 3. overload shedding ([`server`]): a bounded solve queue sheds at
//!    admission, per-request deadlines shed at dispatch, and a `shutdown`
//!    request drains gracefully — every shed is an explicit `503` response,
//!    never a dropped connection;
//! 4. `/stats` ([`metrics`]): request counters, a p50/p99 latency ring,
//!    cache counters, shed counts and pool occupancy.
//!
//! The wire format ([`protocol`]) is 4-byte big-endian length-prefixed JSON
//! ([`json`] is a dependency-free parser/writer); [`Client`] speaks it from
//! the other end.

pub mod client;
pub mod engine;
pub mod json;
pub mod metrics;
pub mod protocol;
pub mod server;

pub use client::{Client, ClientError};
pub use engine::{Disposition, Engine, EngineError};
pub use protocol::{Request, SolveRequest};
pub use server::{spawn, ServerConfig, ServerHandle};
