//! # pibench
//!
//! The repository's benchmark: two `π_ba` service workloads driven
//! through the public [`pba_core::protocol::Service`] API, timed end to
//! end, and — in a separate traced run — split by protocol phase, SRDS
//! call, and crypto/network counter. See `pibench/README.md` for the
//! workloads, the metrics and which layer each metric should move.

pub mod gate;
pub mod timed;
pub mod trace;
pub mod workload;
