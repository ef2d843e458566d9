//! Every sender's emissions, pinned: scripted feedback goes in, and the
//! exact `(seq, payload)` of each segment a step releases comes out.
//! DCQCN's rows also pin the pacing gap that follows each segment.
//! Only the drain helpers (`dctcp`, `irn`, `dcqcn`) touch the sender
//! API; the tables are the behaviour a change of that API must keep.

use dcn_net::{FlowId, NodeId, Priority};
use dcn_sim::{BitRate, Bytes, SimDuration, SimTime};
use dcn_transport::{
    DcqcnConfig, DcqcnSender, DctcpConfig, DctcpSender, IrnConfig, IrnSender, Poll, RpTimerKind,
    Segment,
};

/// One scripted input.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Flow start for a window sender; a pacing tick for DCQCN.
    Send,
    /// A cumulative ACK and its ECN echo.
    Ack(u64, bool),
    /// A NACK of the hole at `.0`, carrying cumulative ack `.1`.
    Nack(u64, u64),
    /// The retransmission timer fires.
    Timeout,
    /// A congestion notification.
    Cnp,
    /// A reaction-point timer fires.
    Timer(RpTimerKind),
}

/// What one step released: `(seq, payload)` per segment, plus the
/// pacing gap in ns after it (DCQCN only; zero for window senders).
type Emitted = Vec<(u64, u64, u64)>;

/// A named script for a flow of `.1` bytes: each step and what it
/// releases.
type Case = (&'static str, u64, Vec<(Step, Emitted)>);

/// `n` full 1 000-byte data segments from `seq` on.
fn run(seq: u64, n: u64) -> Emitted {
    (0..n).map(|i| (seq + i * 1_000, 1_000, 0)).collect()
}

/// `a` followed by `b`.
fn cat(mut a: Emitted, b: Emitted) -> Emitted {
    a.extend(b);
    a
}

/// Every packet `poll` has ready, until it answers `At` or `Idle`.
fn drain(mut poll: impl FnMut() -> Poll) -> Emitted {
    std::iter::from_fn(|| match poll() {
        Poll::Ready(Segment { seq, payload }) => Some((seq, payload.as_u64(), 0)),
        _ => None,
    })
    .collect()
}

fn ids() -> (FlowId, NodeId, NodeId, Priority) {
    (
        FlowId::new(7),
        NodeId::new(0),
        NodeId::new(1),
        Priority::new(3),
    )
}

/// Drives a DCTCP sender through one step.
fn dctcp(s: &mut DctcpSender, now: SimTime, step: Step) -> Emitted {
    match step {
        Step::Send => {}
        Step::Ack(cum, ece) => drop(s.process_ack(now, cum, ece)),
        Step::Timeout => drop(s.on_timeout(now)),
        other => panic!("DCTCP takes no {other:?}"),
    }
    drain(|| s.poll(now))
}

/// Drives an IRN sender through one step.
fn irn(s: &mut IrnSender, now: SimTime, step: Step) -> Emitted {
    match step {
        Step::Send => {}
        Step::Ack(cum, _) => drop(s.on_ack(now, cum)),
        Step::Nack(hole, cum) => drop(s.on_nack(now, hole, cum)),
        Step::Timeout => drop(s.on_timeout(now)),
        other => panic!("IRN takes no {other:?}"),
    }
    drain(|| s.poll(now))
}

/// Drives a DCQCN sender through one step: a pacing tick releases one
/// packet and the gap to the next tick.
fn dcqcn(s: &mut DcqcnSender, now: SimTime, step: Step) -> Emitted {
    match step {
        Step::Send => match (s.poll(now), s.poll(now)) {
            (Poll::Ready(Segment { seq, payload }), Poll::At(slot)) => {
                let gap = slot.saturating_since(now).as_nanos();
                vec![(seq, payload.as_u64(), gap)]
            }
            (Poll::Idle, Poll::Idle) => Vec::new(),
            other => panic!("a pacing tick answered {other:?}"),
        },
        Step::Cnp => {
            s.on_cnp(now);
            Vec::new()
        }
        Step::Timer(kind) => {
            s.on_timer(kind);
            Vec::new()
        }
        other => panic!("DCQCN takes no {other:?}"),
    }
}

/// Plays `script` one microsecond apart, checking each step's output.
fn play<S>(
    case: &str,
    sender: &mut S,
    drive: fn(&mut S, SimTime, Step) -> Emitted,
    script: Vec<(Step, Emitted)>,
) {
    for (i, (step, want)) in script.into_iter().enumerate() {
        let now = SimTime::ZERO + SimDuration::from_micros(i as u64);
        assert_eq!(
            drive(sender, now, step),
            want,
            "{case}: step {i} ({step:?})"
        );
    }
}

#[test]
fn dctcp_emissions() {
    use Step::*;
    let none = Emitted::new;
    let cases: Vec<Case> = vec![
        (
            "initial window",
            30_000,
            vec![(Send, run(0, 10)), (Send, none())],
        ),
        (
            // Slow start: each ACK of one segment releases two.
            "slow start",
            30_000,
            vec![(Send, run(0, 10)), (Ack(1_000, false), run(10_000, 2))],
        ),
        (
            // Holes at 0 and 5 000: the third duplicate ACK resends the
            // first, the partial ACK the second, the full ACK leaves
            // recovery and releases new data.
            "NewReno partial ACK",
            30_000,
            vec![
                (Send, run(0, 10)),
                (Ack(0, false), none()),
                (Ack(0, false), none()),
                (Ack(0, false), run(0, 1)),
                (Ack(5_000, false), run(5_000, 1)),
                (Ack(10_000, false), run(10_000, 6)),
            ],
        ),
        (
            "third duplicate ACK at cwnd >= 2 mss",
            30_000,
            vec![
                (Send, run(0, 10)),
                (Ack(0, false), none()),
                (Ack(0, false), none()),
                (Ack(0, false), run(0, 1)),
                (Ack(0, false), none()),
            ],
        ),
        (
            // After an RTO cwnd is one segment; the third duplicate ACK
            // raises it to two, yet only the hole leaves until progress.
            "third duplicate ACK at cwnd < 2 mss",
            30_000,
            vec![
                (Send, run(0, 10)),
                (Timeout, run(0, 1)),
                (Ack(0, false), none()),
                (Ack(0, false), none()),
                (Ack(0, false), run(0, 1)),
                (Ack(0, false), none()),
                (Ack(1_000, false), run(1_000, 2)),
            ],
        ),
        (
            // Go-back-N from snd_una after progress, then the window
            // grows from one segment again.
            "RTO go-back-N",
            30_000,
            vec![
                (Send, run(0, 10)),
                (Ack(3_000, false), run(10_000, 6)),
                (Timeout, run(3_000, 1)),
                (Timeout, run(3_000, 1)),
                (Ack(4_000, false), run(4_000, 2)),
            ],
        ),
        (
            // Pins a known defect: an ACK past `snd_nxt` after an RTO
            // leaves `snd_nxt` behind `snd_una` (IRN clamps it, DCTCP
            // does not), so the window resends 1 000–4 999, which the
            // receiver already holds, before 5 000. Fixing it changes
            // what leaves after every such RTO and moves digests, so the
            // fix belongs in the re-golden window; when it lands, this
            // row changes on purpose, to `run(5_000, 6)`.
            "ACK past snd_nxt after an RTO",
            30_000,
            vec![
                (Send, run(0, 10)),
                (Timeout, run(0, 1)),
                (Ack(5_000, false), run(1_000, 10)),
            ],
        ),
        (
            // α starts at 1, so the first marked ACK halves the window
            // and the next one (no second cut) still releases nothing.
            "ECN cut",
            30_000,
            vec![
                (Send, run(0, 10)),
                (Ack(1_000, true), none()),
                (Ack(2_000, true), none()),
            ],
        ),
        (
            "completion",
            2_500,
            vec![
                (Send, cat(run(0, 2), vec![(2_000, 500, 0)])),
                (Ack(1_000, false), none()),
                (Ack(2_500, false), none()),
                (Timeout, none()),
                (Ack(2_500, false), none()),
            ],
        ),
    ];
    for (case, size, script) in cases {
        let (id, src, dst, prio) = ids();
        let cfg = DctcpConfig::default();
        let mut s = DctcpSender::new(cfg, id, src, dst, prio, Bytes::new(size));
        play(case, &mut s, dctcp, script);
    }
}

#[test]
fn irn_emissions() {
    use Step::*;
    let none = Emitted::new;
    let cases: Vec<Case> = vec![
        (
            "window and slide",
            20_000,
            vec![(Send, run(0, 5)), (Ack(2_000, false), run(5_000, 2))],
        ),
        (
            // Go-back-N to the hole; a deeper hole rewinds again, a
            // shallower one only once it is reached.
            "NACK rewind",
            20_000,
            vec![
                (Send, run(0, 5)),
                (Nack(2_000, 1_000), run(2_000, 4)),
                (Nack(1_000, 1_000), run(1_000, 5)),
                (Nack(3_000, 1_000), run(3_000, 3)),
            ],
        ),
        (
            "duplicate NACK ignored",
            20_000,
            vec![
                (Send, run(0, 5)),
                (Nack(2_000, 0), run(2_000, 3)),
                (Nack(2_000, 0), none()),
                (Nack(2_000, 1_000), run(5_000, 1)),
                (Nack(500, 0), none()),
            ],
        ),
        (
            "RTO",
            20_000,
            vec![
                (Send, run(0, 5)),
                (Ack(1_000, false), run(5_000, 1)),
                (Timeout, run(1_000, 5)),
                (Timeout, run(1_000, 5)),
                (Ack(6_000, false), run(6_000, 5)),
            ],
        ),
        (
            "completion",
            2_500,
            vec![
                (Send, cat(run(0, 2), vec![(2_000, 500, 0)])),
                (Ack(2_500, false), none()),
                (Timeout, none()),
                (Nack(0, 0), none()),
            ],
        ),
    ];
    for (case, size, script) in cases {
        let cfg = IrnConfig {
            window: Bytes::new(5_000),
            ..IrnConfig::default()
        };
        let mut s = IrnSender::new(cfg, Bytes::new(size));
        play(case, &mut s, irn, script);
    }
}

#[test]
fn dcqcn_emissions() {
    use Step::*;
    let none = Emitted::new;
    // 1 048 wire bytes take 336 ns at 25 Gbit/s and 671 ns at half that.
    let paced = |seq: u64, gap: u64| vec![(seq, 1_000, gap)];
    let cases: Vec<Case> = vec![
        (
            "first packet and the last",
            2_500,
            vec![
                (Send, paced(0, 336)),
                (Send, paced(1_000, 336)),
                (Send, vec![(2_000, 500, 176)]),
                (Send, none()),
            ],
        ),
        (
            // The cut halves the rate. After it, every 3 000 bytes on
            // the wire is a byte-counter stage and each rate-timer fire
            // a timer stage; either recovers half the distance to the
            // target rate. The α timer leaves the rate alone.
            "CNP then byte-counter increase",
            20_000,
            vec![
                (Send, paced(0, 336)),
                (Cnp, none()),
                (Send, paced(1_000, 671)),
                (Send, paced(2_000, 671)),
                (Send, paced(3_000, 448)),
                (Timer(RpTimerKind::Alpha), none()),
                (Send, paced(4_000, 448)),
                (Send, paced(5_000, 448)),
                (Send, paced(6_000, 384)),
                (Timer(RpTimerKind::Rate), none()),
                (Send, paced(7_000, 358)),
            ],
        ),
    ];
    for (case, size, script) in cases {
        let (id, src, dst, prio) = ids();
        let cfg = DcqcnConfig {
            byte_counter: Bytes::new(3_000),
            ..DcqcnConfig::default()
        };
        let rate = BitRate::from_gbps(25);
        let mut s = DcqcnSender::new(cfg, id, src, dst, prio, Bytes::new(size), rate);
        play(case, &mut s, dcqcn, script);
    }
}
