//! # perfbench
//!
//! The repository's benchmark: three workloads (`train_flux`,
//! `train_classifier`, `serve_joint`) driven from a seed, an untraced run
//! that reports the end-to-end metrics, and a traced run that times every
//! layer from outside by wrapping calls into the program's public
//! functions. See `perfbench/README.md` for the metric table.

pub mod compare;
pub mod host;
pub mod loadgen;
pub mod mirror;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workloads;
