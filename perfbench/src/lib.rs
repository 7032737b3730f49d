//! The repository benchmark: three private DLRM training jobs, each a
//! closed loop driven through the public crate APIs, reporting
//! end-to-end metrics (`--trace 0`) or a per-layer breakdown from a
//! traced run (`--trace 1`), and checking every run with a
//! correctness gate.
//!
//! Run from the repository root:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload mlperf-lazydp --seed 1 --seconds 10 --trace 0
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gate;
pub mod host;
pub mod job;
pub mod json;
pub mod metrics;
pub mod run;
pub mod spans;
pub mod workload;
