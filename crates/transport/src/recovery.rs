//! The loss-recovery pieces DCTCP and IRN share: the receiver's
//! reassembly buffer and the sender's RTO backoff.

use dcn_sim::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// Receiver-side reassembly of a `size`-byte stream: the cumulative
/// in-order point plus the out-of-order byte ranges beyond it.
#[derive(Debug, Clone)]
pub(crate) struct Reassembly {
    size: u64,
    rcv_nxt: u64,
    /// Out-of-order segments: start → end (exclusive).
    ooo: BTreeMap<u64, u64>,
    finished_at: Option<SimTime>,
}

impl Reassembly {
    pub(crate) fn new(size: u64) -> Self {
        Reassembly {
            size,
            rcv_nxt: 0,
            ooo: BTreeMap::new(),
            finished_at: None,
        }
    }

    /// Bytes received in order so far (the cumulative ACK point).
    pub(crate) fn rcv_nxt(&self) -> u64 {
        self.rcv_nxt
    }

    /// The out-of-order blocks held beyond [`Reassembly::rcv_nxt`].
    pub(crate) fn ooo(&self) -> &BTreeMap<u64, u64> {
        &self.ooo
    }

    /// When the last payload byte arrived, if the stream is complete.
    pub(crate) fn finished_at(&self) -> Option<SimTime> {
        self.finished_at
    }

    /// Files the bytes `[seq, end)` that arrived at `now`, merging every
    /// now-contiguous block into the cumulative point.
    pub(crate) fn insert(&mut self, now: SimTime, seq: u64, end: u64) {
        if end > self.rcv_nxt {
            if seq <= self.rcv_nxt {
                self.rcv_nxt = end;
            } else {
                let e = self.ooo.entry(seq).or_insert(end);
                if *e < end {
                    *e = end;
                }
            }
            while let Some((&s, &e)) = self.ooo.first_key_value() {
                if s <= self.rcv_nxt {
                    self.ooo.remove(&s);
                    if e > self.rcv_nxt {
                        self.rcv_nxt = e;
                    }
                } else {
                    break;
                }
            }
        }
        if self.rcv_nxt >= self.size && self.finished_at.is_none() {
            self.finished_at = Some(now);
        }
    }
}

/// Consecutive timeouts since the last forward progress (Karn): the
/// RTO doubles once per timeout and resets on the next new ACK.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct RtoBackoff(u32);

impl RtoBackoff {
    pub(crate) fn count(self) -> u32 {
        self.0
    }

    pub(crate) fn timed_out(&mut self) {
        self.0 = self.0.saturating_add(1);
    }

    pub(crate) fn reset(&mut self) {
        self.0 = 0;
    }

    /// The RTO to arm next: `base` doubled once per consecutive
    /// timeout, capped at `max`.
    pub(crate) fn rto(self, base: SimDuration, max: SimDuration) -> SimDuration {
        base.saturating_mul(1u64 << self.0.min(32)).min(max)
    }
}
