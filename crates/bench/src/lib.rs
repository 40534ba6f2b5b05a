//! Experiment harnesses.
//!
//! `src/bin/exp_paper.rs` prints every table and figure of the paper and
//! checks its count-based claims; the other `exp_*` binaries measure the
//! engine's own extensions (persistence, concurrency, serving). This
//! library holds what a test shares with a harness: the storage-level
//! position-as-is, monotonic and hierarchical baselines of Table II and
//! Figure 18.

pub mod posmark;
