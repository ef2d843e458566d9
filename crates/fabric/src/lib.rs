//! The integrated packet-level DCN simulator.
//!
//! This crate wires everything together into one deterministic
//! discrete-event loop: hosts with PFC-reactive NICs running DCTCP
//! (lossy class) or DCQCN (lossless class), shared-memory switches with a
//! pluggable buffer-management policy (DT / DT2 / ABM / L2BM), links with
//! serialization + propagation, ECMP routing, and the measurement hooks
//! the paper's evaluation needs (FCT records, 1 ms occupancy sampling,
//! PFC frame counters, drop counters).
//!
//! # Example — a 5-into-1 lossless incast through one switch
//!
//! ```
//! use dcn_fabric::{FabricConfig, FabricSim, PolicyChoice};
//! use dcn_net::{NodeId, Priority, TrafficClass, Topology};
//! use dcn_sim::{BitRate, Bytes, SimDuration, SimTime};
//! use dcn_workload::FlowSpec;
//!
//! let topo = Topology::single_switch(6, BitRate::from_gbps(25), SimDuration::from_micros(1));
//! let cfg = FabricConfig {
//!     policy: PolicyChoice::L2bm(Default::default()),
//!     ..FabricConfig::default()
//! };
//! let mut sim = FabricSim::new(topo, cfg);
//! for (i, src) in (0..5).enumerate() {
//!     sim.add_flow(FlowSpec {
//!         id: dcn_net::FlowId::new(i as u64),
//!         src: NodeId::new(src),
//!         dst: NodeId::new(5),
//!         size: Bytes::new(200_000),
//!         start: SimTime::ZERO,
//!         class: TrafficClass::Lossless,
//!         priority: Priority::new(3),
//!     });
//! }
//! assert!(sim.run_until_done(SimTime::from_millis(100)));
//! let results = sim.results();
//! assert_eq!(results.fct.len(), 5);
//! assert_eq!(results.drops.lossless_packets, 0, "lossless stayed lossless");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod flows;
mod host;
mod results;
mod shard;
mod switches;
mod wires;
mod world;

pub use config::{FabricConfig, PolicyChoice, RdmaTransport};
pub use flows::FlowTable;
pub use results::RunResults;
pub use shard::ShardedFabricSim;
pub use world::{Event, FabricSim, World};

/// Compile-time proof that per-cell fabric construction is `Send`-clean.
///
/// A [`World`] itself is deliberately **not** `Send` (its flight
/// recorder is an `Rc<RefCell<…>>` shared with every switch), so the
/// parallel sweep engine never moves a live simulation between threads.
/// Instead each worker thread receives only the plain-data inputs below
/// and builds its own `World`, and ships back only the plain-data
/// [`RunResults`]. These assertions pin that contract: if a non-`Send`
/// handle ever leaks into a config or result type, the crate stops
/// compiling rather than the sweep engine breaking at a distance.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<FabricConfig>();
    assert_send::<PolicyChoice>();
    assert_send::<dcn_net::Topology>();
    assert_send::<dcn_workload::FlowSpec>();
    assert_send::<RunResults>();
};

#[cfg(test)]
mod send_clean_tests {
    use super::*;
    use dcn_net::{FlowId, NodeId, Priority, Topology, TrafficClass};
    use dcn_sim::{BitRate, Bytes, SimDuration, SimTime};
    use dcn_workload::FlowSpec;

    /// A whole simulation cell — construction, run, results — executes
    /// on a spawned thread from `Send` inputs alone.
    #[test]
    fn world_builds_and_runs_on_a_worker_thread() {
        let topo = Topology::single_switch(3, BitRate::from_gbps(25), SimDuration::from_micros(1));
        let cfg = FabricConfig::default();
        let results = std::thread::spawn(move || {
            let mut sim = FabricSim::new(topo, cfg);
            sim.add_flow(FlowSpec {
                id: FlowId::new(1),
                src: NodeId::new(0),
                dst: NodeId::new(2),
                size: Bytes::new(50_000),
                start: SimTime::ZERO,
                class: TrafficClass::Lossy,
                priority: Priority::new(1),
            });
            assert!(sim.run_until_done(SimTime::from_millis(50)));
            sim.results()
        })
        .join()
        .expect("worker cell completes");
        assert_eq!(results.fct.len(), 1);
    }
}
