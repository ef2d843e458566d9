//! Measurement utilities for the L2BM reproduction.
//!
//! Everything the paper reports is computed here:
//!
//! * [`FctRecord`] / [`FctSet`] — flow completion times and *slowdown*
//!   (actual FCT ÷ ideal FCT on an empty network); the paper's Figs. 7, 9,
//!   10(a) and 11(a) are percentiles and CDFs of these.
//! * [`Cdf`] — empirical distribution over `f64` samples (Figs. 8, 9, 10).
//! * [`ErrorBarStats`] — mean / median / quartiles / extremes
//!   (Fig. 10(b)).
//! * [`OccupancySeries`] — periodically-sampled switch buffer occupancy
//!   (the paper samples every 1 ms; Figs. 7(c), 8, 10(c)).
//! * [`PfcCounters`] / [`DropCounters`] — pause-frame and drop totals
//!   (Fig. 7(d), Table II, Fig. 11(c)).
//! * [`SeedStats`] — multi-seed replication summary (mean and 95% CI
//!   on the mean) for the sweep engine's `--seeds N` mode.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod counters;
mod fct;
mod stats;

pub use counters::{DropCounters, IrnCounters, OccupancySeries, PfcCounters};
pub use fct::{FctRecord, FctSet};
pub use stats::{percentile, Cdf, ErrorBarStats, SeedStats};
