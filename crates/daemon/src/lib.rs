//! `locusd` — tuning as a long-running service.
//!
//! The paper frames Locus as infrastructure for reusing optimization
//! effort: spaces are searched once and winning recipes are shipped and
//! shared (Sec. II). This crate takes the systematic next step — a
//! daemon that serves many concurrent tuning and suggestion requests
//! over a newline-delimited JSON protocol, multiplexed onto one shared
//! worker pool and one process-wide sharded tuning store, so every
//! client's evaluations warm every other client's sessions.
//!
//! The moving parts:
//!
//! * [`protocol`] — the wire format: one flat-JSON request line in, one
//!   response line out; `f64` payloads travel as exact bit patterns;
//!   malformed, truncated, or oversized lines yield structured errors,
//!   never a dropped connection or a daemon panic;
//! * [`sched`] — per-connection FIFO queues dispatched round-robin, so
//!   a flooding client cannot starve its siblings;
//! * [`server`] — the daemon itself: scoped worker pool, per-request
//!   `catch_unwind` supervision (a panicking request is reported to its
//!   own client and nothing else), per-request budget/deadline
//!   enforcement, and request-id-tagged tracing that `locus-report
//!   --request` can replay;
//! * [`client`] — the blocking client library behind the
//!   `locus-client` binary and the benchmark/test harnesses.
//!
//! Determinism is load-bearing: a daemon `tune` request runs the exact
//! library driver (`LocusSystem::run` against the shared sharded store)
//! with seeded search modules, so its results are bit-identical to a
//! direct in-process call — the property `tests/daemon_service.rs` pins.

#![warn(missing_docs)]

pub mod client;
pub mod protocol;
pub mod sched;
pub mod server;

pub use client::Client;
pub use protocol::{codes, Op, ProtoError, Request, Response, WireValue, MAX_LINE};
pub use sched::FairScheduler;
pub use server::{Daemon, DaemonConfig};
