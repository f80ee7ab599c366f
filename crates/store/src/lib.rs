//! Persistent tuning-results store.
//!
//! Locus's value is empirical search, and empirical results are worth
//! keeping: the paper ships winning *direct* programs alongside the
//! source precisely so tuning effort is reused "for machines with
//! similar environments" (Sec. II). This crate is the systematic
//! version of that idea — an append-only database of every evaluation a
//! tuning session performs, keyed by
//! `(region content hash, machine digest, space digest)`, so that:
//!
//! * a repeat session over unchanged code **re-measures nothing** — the
//!   core crate rehydrates its two-level memo cache from the store and
//!   answers every previously seen proposal from disk;
//! * adaptive search modules **warm-start** from the store's best prior
//!   points ([`TuningStore::top_k`] feeds
//!   `SearchModule::seed_observations`);
//! * `suggest_program` retrieves the winning **recipe** of the
//!   structurally nearest previously tuned region
//!   ([`TuningStore::nearest_session`]) instead of falling back to
//!   static heuristics alone;
//! * editing one region **invalidates exactly that region's records**
//!   ([`TuningStore::invalidate_stale`]), leaving siblings live — the
//!   cross-session counterpart of the Sec. II coherence check.
//!
//! The on-disk format is versioned, line-oriented JSON (see
//! [`record`]): a `#locus-store v1` header, then one record per line,
//! append-only. No external dependencies: the codec is the workspace's
//! flat-JSON line codec ([`locus_trace::json`]), and decoding skips
//! unknown record kinds so the format can evolve.
//!
//! Three service-grade mechanisms sit on top of the log:
//!
//! * **advisory single-writer locking** ([`lock`]) — [`TuningStore::open`]
//!   takes a PID-stamped lock file, so a daemon and a stray CLI session
//!   cannot interleave appends; [`TuningStore::open_read_only`] reads
//!   concurrently without the lock;
//! * **log compaction** ([`TuningStore::compact`]) — rewrites the log
//!   dropping superseded and invalidated records, atomically via a temp
//!   file and a rename;
//! * **sharding with lock striping** ([`sharded::ShardedStore`]) — one
//!   logical store split over per-region-hash shard files behind
//!   poison-recovering stripe locks, the shared store of the `locusd`
//!   tuning service.

#![warn(missing_docs)]

pub mod lock;
pub mod record;
pub mod sharded;
pub mod store;

pub use lock::StoreLock;
pub use record::{EvalRecord, PruneRecord, Record, RegionShape, SessionRecord, HEADER};
pub use sharded::{ShardedStore, DEFAULT_SHARDS};
pub use store::{CompactStats, StoreKey, TuningStore};
