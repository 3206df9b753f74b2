#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! Evaluation harness for the CT-Bus reproduction.
//!
//! One experiment per table/figure of the paper's §7 (README.md, "Running
//! the paper experiments", lists every id). The `exp` binary dispatches by
//! experiment id:
//!
//! ```sh
//! cargo run --release -p ct_bench --bin exp -- table6          # one experiment
//! cargo run --release -p ct_bench --bin exp -- all             # everything
//! cargo run --release -p ct_bench --bin exp -- all --fast      # reduced scales
//! ```
//!
//! Every experiment prints its table/series to stdout *and* writes a
//! markdown/JSON artifact under `target/experiments/`.

pub mod baseline;
pub mod experiments;
pub mod harness;

pub use harness::{ExperimentCtx, OutputSink};
