//! # cube-e2e — an end-to-end benchmark of `cube serve`
//!
//! Three seeded workloads drive the release `cube` binary the way its
//! users do: `/eval` misses, hits and upload-then-evaluate loops against
//! `cube serve`. The untraced run reports end-to-end metrics; the traced
//! run replays the same request streams in process, timing every call
//! into the layers, and reports per-layer metrics. `README.md` describes
//! the workloads, the metrics and how to read a trace.

#[cfg(not(target_os = "linux"))]
compile_error!("cube-e2e reads Linux /proc files");

pub mod client;
pub mod compare;
pub mod gen;
pub mod json;
pub mod layers;
pub mod report;
pub mod run;
pub mod serve;
pub mod stats;
pub mod sys;
pub mod trace;
