//! Deterministic discrete-event simulation engine for data-center network
//! models.
//!
//! This crate is the foundation of the L2BM reproduction: a nanosecond-
//! resolution clock ([`SimTime`]), typed quantities ([`Bytes`], [`BitRate`]),
//! an [`EventQueue`] (a calendar of one-nanosecond buckets over an
//! event slab) with deterministic FIFO tie-breaking, a
//! hierarchical timing wheel for cancellable timers and far events (armed with
//! [`EventQueue::schedule_timer_at`], cancelled in O(1) via
//! [`TimerHandle`]), a [`Simulation`] driver trait, and seeded
//! random-number helpers ([`SimRng`]) with the distributions the
//! workload generators need.
//!
//! # Example
//!
//! ```
//! use dcn_sim::{EventQueue, SimDuration, SimTime, Simulation, run_until};
//!
//! struct Counter {
//!     fired: u32,
//! }
//!
//! enum Tick {
//!     Once,
//! }
//!
//! impl Simulation for Counter {
//!     type Event = Tick;
//!     fn handle(&mut self, now: SimTime, _ev: Tick, q: &mut EventQueue<Tick>) {
//!         self.fired += 1;
//!         if self.fired < 3 {
//!             q.schedule_after(now, SimDuration::from_micros(10), Tick::Once);
//!         }
//!     }
//! }
//!
//! let mut sim = Counter { fired: 0 };
//! let mut q = EventQueue::new();
//! q.schedule_at(SimTime::ZERO, Tick::Once);
//! run_until(&mut sim, &mut q, SimTime::from_millis(1));
//! assert_eq!(sim.fired, 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod barrier;
mod event;
mod fault;
mod par;
mod rng;
mod slab;
mod stamp;
mod time;
mod trace;
mod units;
mod wheel;

pub use barrier::SpinBarrier;
pub use event::{run_until, run_while, EventQueue, QueueStats, Simulation};
pub use fault::{FaultEvent, FaultSchedule, ScheduledFault};
pub use par::{default_jobs, par_map};
pub use rng::{EmpiricalCdf, SimRng};
pub use stamp::{ambiguous_comparisons, ShardStats, Stamp, StampKey, STAMP_DEPTH};
pub use time::{SimDuration, SimTime};
pub use trace::{
    FlightRecorder, TraceConfig, TraceDropCause, TraceEvent, TraceHandle, TraceRecord, TraceTotals,
};
pub use units::{BitRate, Bytes};
pub use wheel::TimerHandle;
