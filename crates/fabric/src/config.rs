//! Fabric-level configuration: which buffer-management policy runs on
//! the switches, plus transport tunables.

use dcn_net::{NodeId, Priority, Topology, MAX_FRAME};
use dcn_sim::{Bytes, FaultEvent, FaultSchedule, SimDuration, TraceConfig};
use dcn_switch::{AbmPolicy, BufferPolicy, DtPolicy, SwitchConfig};
use dcn_transport::{DcqcnConfig, DctcpConfig, IrnConfig};
use l2bm::{L2bmConfig, L2bmPolicy};

/// Which PFC-threshold policy every switch runs — the four columns of
/// the paper's comparison plus the two extended-arena policies
/// (Occamy, BShare).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PolicyChoice {
    /// Classic DT with the given α (the paper's DT is 0.125, DT2 0.5).
    Dt(f64),
    /// ABM adapted to the ingress pool, α = 0.5.
    Abm,
    /// L2BM, the paper's contribution.
    L2bm(L2bmConfig),
    /// Occamy: DT with α = 0.5 plus preemptive eviction of the deepest
    /// unprotected lossy backlog. The lossless RDMA priority (3) is
    /// protected from eviction.
    Occamy,
    /// BShare: queueing-delay-target-driven sharing, a second consumer
    /// of the L2BM sojourn machinery.
    BShare,
}

impl PolicyChoice {
    /// The paper's "DT" baseline (α = 0.125, RoCEv2 default).
    pub fn dt() -> Self {
        PolicyChoice::Dt(0.125)
    }

    /// The paper's "DT2" baseline (α = 0.5).
    pub fn dt2() -> Self {
        PolicyChoice::Dt(0.5)
    }

    /// The paper's ABM comparison point (α = 0.5).
    pub fn abm() -> Self {
        PolicyChoice::Abm
    }

    /// L2BM with paper defaults.
    pub fn l2bm() -> Self {
        PolicyChoice::L2bm(L2bmConfig::default())
    }

    /// Occamy with DT2-equivalent α = 0.5 and the fabric's lossless
    /// RDMA priority (3) protected from eviction.
    pub fn occamy() -> Self {
        PolicyChoice::Occamy
    }

    /// BShare with its 50 µs delay target.
    pub fn bshare() -> Self {
        PolicyChoice::BShare
    }

    /// Builds a fresh policy instance for one switch.
    pub fn build(&self) -> Box<dyn BufferPolicy> {
        match *self {
            PolicyChoice::Dt(alpha) => Box::new(DtPolicy::new(alpha)),
            PolicyChoice::Abm => Box::new(AbmPolicy::new(0.5)),
            PolicyChoice::L2bm(cfg) => Box::new(L2bmPolicy::new(cfg)),
            PolicyChoice::Occamy => Box::new(DtPolicy::new(0.5).preempting(&[Priority::new(3)])),
            PolicyChoice::BShare => Box::new(L2bmPolicy::bshare()),
        }
    }

    /// Display label matching the paper's figures (DT / DT2 / ABM / L2BM)
    /// plus the arena extensions (Occamy / BShare).
    pub fn label(&self) -> String {
        match *self {
            PolicyChoice::Dt(alpha) if (alpha - 0.125).abs() < 1e-9 => "DT".into(),
            PolicyChoice::Dt(alpha) if (alpha - 0.5).abs() < 1e-9 => "DT2".into(),
            PolicyChoice::Dt(alpha) => format!("DT(a={alpha})"),
            PolicyChoice::Abm => "ABM".into(),
            PolicyChoice::L2bm(_) => "L2BM".into(),
            PolicyChoice::Occamy => "Occamy".into(),
            PolicyChoice::BShare => "BShare".into(),
        }
    }
}

/// Which transport the fabric's RDMA flows run — the two universes of
/// the lossless-vs-lossy resilience comparison.
///
/// A flow spec declares *what* it is (`TrafficClass::Lossless` = RDMA);
/// this selector decides *how* that RDMA is carried. With
/// [`RdmaTransport::Irn`], lossless-class specs get IRN endpoints and
/// their packets ride the droppable `LossyRdma` class: no PFC, switch-
/// and receiver-generated NACKs, go-back-N retransmission and a backed-
/// off RTO. FCT/slowdown reports still group these flows as RDMA.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RdmaTransport {
    /// Lossless RDMA: DCQCN rate control over PFC-protected queues
    /// (the paper's universe). The default — a config that never
    /// selects [`RdmaTransport::Irn`] is byte-identical to a build
    /// without IRN support.
    #[default]
    Dcqcn,
    /// Lossy RDMA: IRN-style NACK/retransmission without PFC.
    Irn,
}

impl RdmaTransport {
    /// Display label for experiment tables.
    pub fn label(self) -> &'static str {
        match self {
            RdmaTransport::Dcqcn => "DCQCN",
            RdmaTransport::Irn => "IRN",
        }
    }
}

/// Full configuration of a [`crate::FabricSim`].
#[derive(Debug, Clone)]
pub struct FabricConfig {
    /// Per-switch MMU/PFC/ECN configuration.
    pub switch: SwitchConfig,
    /// Buffer-management policy for every switch.
    pub policy: PolicyChoice,
    /// DCTCP tunables (lossy flows).
    pub dctcp: DctcpConfig,
    /// DCQCN tunables (lossless flows).
    pub dcqcn: DcqcnConfig,
    /// Which transport carries RDMA (lossless-class) flow specs.
    pub rdma_transport: RdmaTransport,
    /// IRN tunables (used when [`FabricConfig::rdma_transport`] is
    /// [`RdmaTransport::Irn`]).
    pub irn: IrnConfig,
    /// Opt-in RDMA-flow liveness watchdog: if an unfinished RDMA flow
    /// (either transport) makes no receiver progress over a whole
    /// interval, a `FlowStalled` trace event is recorded and the run's
    /// `flow_stalls` defect counter bumped — once per stall episode.
    /// `None` (the default) arms no timers and adds no events, keeping
    /// legacy digests byte-identical. Serial engine only:
    /// [`crate::ShardedFabricSim::new`] refuses it.
    pub flow_watchdog: Option<SimDuration>,
    /// Buffer-occupancy sampling period (paper: 1 ms). `None` disables
    /// sampling.
    pub sample_interval: Option<SimDuration>,
    /// Seed for the switches' probabilistic ECN marking.
    pub seed: u64,
    /// Flight-recorder configuration. Disabled by default; when enabled
    /// one shared recorder collects lifecycle events from every switch
    /// and transport in the fabric.
    pub trace: TraceConfig,
    /// Injected faults (link failures, corruption windows, stuck PFC
    /// pauses). Empty by default: a zero-fault schedule adds no events
    /// and draws no random numbers, so healthy runs are byte-identical
    /// to a build without fault support.
    pub faults: FaultSchedule,
}

impl Default for FabricConfig {
    fn default() -> Self {
        FabricConfig {
            switch: SwitchConfig::default(),
            policy: PolicyChoice::dt(),
            dctcp: DctcpConfig::default(),
            dcqcn: DcqcnConfig::default(),
            rdma_transport: RdmaTransport::default(),
            irn: IrnConfig::default(),
            flow_watchdog: None,
            sample_interval: Some(SimDuration::from_millis(1)),
            seed: 1,
            trace: TraceConfig::default(),
            faults: FaultSchedule::none(),
        }
    }
}

impl FabricConfig {
    /// Rejects, at construction rather than mid-run, a configuration
    /// whose frames would not fit a [`dcn_net::Packet`]'s two-byte size
    /// fields, whose flows would be cut into empty segments, whose
    /// sampler or flow watchdog would re-arm at the same instant forever,
    /// or whose fault schedule names a link, node, port or priority
    /// `topo` lacks or a bit-error rate outside `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics naming the offending field: `dctcp.mss + header`,
    /// `dcqcn.mtu + header`, `irn.mtu + header` or `switch.mtu` above
    /// [`dcn_net::MAX_FRAME`], a zero `dctcp.mss`, `dcqcn.mtu`, `irn.mtu`,
    /// `sample_interval` or `flow_watchdog`, or
    /// `faults[i].link|node|port|prio|ber`.
    pub(crate) fn assert_valid(&self, topo: &Topology) {
        let frames = [
            (
                "dctcp.mss + dctcp.header",
                Bytes::new(self.dctcp.mss) + self.dctcp.header,
            ),
            (
                "dcqcn.mtu + dcqcn.header",
                Bytes::new(self.dcqcn.mtu) + self.dcqcn.header,
            ),
            (
                "irn.mtu + irn.header",
                Bytes::new(self.irn.mtu) + self.irn.header,
            ),
            ("switch.mtu", self.switch.mtu),
        ];
        for (field, frame) in frames {
            assert!(
                frame <= MAX_FRAME,
                "{field} = {frame} exceeds the largest frame a packet can describe ({MAX_FRAME})"
            );
        }
        let segments = [
            ("dctcp.mss", self.dctcp.mss),
            ("dcqcn.mtu", self.dcqcn.mtu),
            ("irn.mtu", self.irn.mtu),
        ];
        for (field, segment) in segments {
            assert!(
                segment > 0,
                "{field} must be non-zero: a flow is cut into segments of this size"
            );
        }
        let periods = [
            ("sample_interval", self.sample_interval),
            ("flow_watchdog", self.flow_watchdog),
        ];
        for (field, period) in periods {
            assert!(
                period != Some(SimDuration::ZERO),
                "{field} must be non-zero: a zero period never advances the clock"
            );
        }
        let (links, nodes) = (topo.links().len(), topo.node_count());
        for (i, sf) in self.faults.events().iter().enumerate() {
            match sf.fault {
                FaultEvent::LinkDown { link }
                | FaultEvent::LinkUp { link }
                | FaultEvent::CorruptionStart { link, .. }
                | FaultEvent::CorruptionEnd { link } => assert!(
                    (link as usize) < links,
                    "faults[{i}].link = {link} is not a link of the topology ({links} links)"
                ),
                FaultEvent::PauseStuck { node, port, prio }
                | FaultEvent::PauseRelease { node, port, prio } => {
                    assert!(
                        (node as usize) < nodes,
                        "faults[{i}].node = {node} is not a node of the topology ({nodes} nodes)"
                    );
                    let ports = topo.node(NodeId::new(node)).port_count();
                    assert!(
                        (port as usize) < ports,
                        "faults[{i}].port = {port} is not a port of node {node} ({ports} ports)"
                    );
                    assert!(
                        (prio as usize) < Priority::COUNT,
                        "faults[{i}].prio = {prio} is not a priority (0..{})",
                        Priority::COUNT
                    );
                }
            }
            if let FaultEvent::CorruptionStart { ber, .. } = sf.fault {
                assert!(
                    (0.0..=1.0).contains(&ber),
                    "faults[{i}].ber = {ber} is not a probability in [0, 1]"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper() {
        assert_eq!(PolicyChoice::dt().label(), "DT");
        assert_eq!(PolicyChoice::dt2().label(), "DT2");
        assert_eq!(PolicyChoice::abm().label(), "ABM");
        assert_eq!(PolicyChoice::l2bm().label(), "L2BM");
        assert_eq!(PolicyChoice::occamy().label(), "Occamy");
        assert_eq!(PolicyChoice::bshare().label(), "BShare");
        assert_eq!(PolicyChoice::Dt(0.25).label(), "DT(a=0.25)");
    }

    #[test]
    fn rdma_transport_defaults_to_dcqcn() {
        let cfg = FabricConfig::default();
        assert_eq!(cfg.rdma_transport, RdmaTransport::Dcqcn);
        assert!(cfg.flow_watchdog.is_none());
        assert_eq!(RdmaTransport::Dcqcn.label(), "DCQCN");
        assert_eq!(RdmaTransport::Irn.label(), "IRN");
    }

    #[test]
    fn only_occamy_evicts_and_never_the_rdma_priority() {
        // The fabric maps lossless RDMA to priority 3. Victim selection
        // is covered in depth by the switch crate; here we pin the
        // wiring: a deep RDMA backlog is never a victim, a lossy one is.
        use dcn_net::PortId;
        use dcn_sim::BitRate;
        use dcn_switch::{MmuState, Pool, QueueIndex};
        let q = |port, prio| QueueIndex::new(PortId::new(port), Priority::new(prio));
        let mut m = MmuState::new(&SwitchConfig::default(), vec![BitRate::from_gbps(25); 4]);
        m.charge_bulk(q(0, 3), q(1, 3), Bytes::from_kb(50), Pool::Shared);
        let occamy = PolicyChoice::occamy().build();
        assert_eq!(occamy.plan_eviction(&m, q(2, 1)), None);
        m.charge_bulk(q(0, 1), q(1, 1), Bytes::from_kb(5), Pool::Shared);
        assert_eq!(occamy.plan_eviction(&m, q(2, 1)), Some(q(1, 1)));
        for other in [
            PolicyChoice::dt2(),
            PolicyChoice::abm(),
            PolicyChoice::bshare(),
        ] {
            assert_eq!(other.build().plan_eviction(&m, q(2, 1)), None);
        }
    }
}
