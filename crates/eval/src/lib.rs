//! # kdash-eval
//!
//! Shared evaluation plumbing for the experiment harness: the precision
//! metric of §6.2, timing helpers, and aligned text tables that print the
//! same rows/series the paper's figures plot.

#![forbid(unsafe_code)]

pub mod metrics;
pub mod table;
pub mod timing;

pub use metrics::{precision_at_k, recall_at_k};
pub use table::Table;
pub use timing::{measure, time_once, Measurement};
