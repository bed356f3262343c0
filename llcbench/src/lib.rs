//! End-to-end and per-layer benchmark of `nvm-llc`: the cold batch
//! matrix in process, and the `nvm-llcd` daemon under open-loop load.
//! See `README.md` for the workloads and metrics.

#![warn(missing_docs)]

pub mod awake;
pub mod client;
pub mod daemon;
pub mod matrix;
pub mod metricsz;
pub mod mix;
pub mod report;
pub mod serve;
pub mod stats;
