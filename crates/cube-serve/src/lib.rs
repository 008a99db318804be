//! # cube-serve — a concurrent analysis server over a sharded
//! # experiment repository
//!
//! `cube serve` turns the batch engine into a long-running analysis
//! service: experiments are ingested once into a content-addressed,
//! hash-sharded on-disk repository ([`Repository`]), then any number
//! of clients evaluate algebra expressions against them over a small
//! HTTP/1.1 JSON API — without re-parsing operands per query.
//!
//! ```text
//! PUT  /experiments              ingest .cube XML or .cubec binary
//! GET  /experiments/{id}/stats   shape and provenance summary
//! GET  /experiments/{id}/lint    lint report for the stored object
//! POST /eval                     evaluate e.g. diff(mean(a,b),mean(c,d))
//! GET  /stats                    server counters and cache stats
//! GET  /healthz                  liveness probe
//! ```
//!
//! The stack is deliberately dependency-free: framing is hand-rolled
//! over [`std::net::TcpListener`] ([`http`]), JSON needs are covered
//! by a string escaper and a flat-field scanner ([`json`]), and
//! concurrency comes from long-lived `std::thread` workers behind a
//! bounded admission queue ([`server`]) with evaluation fanning out on
//! the workspace `rayon` pool.
//!
//! Three caches make repeat analysis cheap, and the engine's
//! byte-determinism (docs/KERNELS.md §5) makes them *sound*: derived
//! results keyed by canonical expression over content ids, plan
//! tables ([`cube_algebra::PlanTables`]) keyed by the operand-id
//! list, and open [`cube_store::ColumnarExperiment`] handles keyed by
//! id. A cache hit returns exactly the bytes a fresh evaluation at
//! any thread count would produce — `/eval` responses are
//! byte-identical to the files `cube stats` / `cube diff` write,
//! verified end-to-end by the CI serve gate.
//!
//! Protocol details and operational notes live in `docs/SERVE.md`.

#![deny(missing_docs)]

pub mod api;
pub mod cache;
pub mod error;
pub mod faults;
pub mod http;
pub mod json;
pub mod repo;
pub mod server;

pub use cache::LruCache;
pub use error::ServeError;
pub use faults::{FaultCounters, FaultPlan};
pub use repo::{
    content_id, repo_relative_origin, valid_id, walk_objects, EntryKind, IngestOutcome, Repository,
    REPO_MARKER,
};
pub use server::{install_signal_handlers, signaled, start, RunningServer, ServeConfig, Shared};
