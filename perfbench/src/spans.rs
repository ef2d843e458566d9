//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Kept in memory and written as JSON Lines when the child exits.
//! Nothing inside the crates records spans yet (ROADMAP item 2's
//! `LayerClock` will); these are the from-outside ledger it will be
//! checked against.

use std::fmt::Write as _;
use std::time::Instant;

/// One closed (or still open) span. `parent` indexes the recorder's
/// span list; spans of one simulated cell share a `run_id`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub run_id: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span recorder with a stack of open spans.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    run_id: u32,
}

impl Spans {
    pub fn new(run_id: u32) -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            run_id,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        let start_ns = self.now_ns();
        self.open.push(self.spans.len());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.iter().rev().nth(1).copied(),
            run_id: self.run_id,
        });
    }

    /// Closes the innermost open span and returns its duration in
    /// seconds.
    ///
    /// # Panics
    ///
    /// Panics if no span is open: enter/exit pairs are written next to
    /// each other in this crate, so that is a bug here.
    pub fn exit(&mut self) -> f64 {
        let ix = self.open.pop().expect("exit without a matching enter");
        self.spans[ix].end_ns = self.now_ns();
        self.spans[ix].duration_ns() as f64 / 1e9
    }

    /// Runs `f` inside a span and returns its result with the span's
    /// duration in seconds.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        self.enter(name);
        let value = f();
        (value, self.exit())
    }

    /// Appends another recorder's spans (a cell that ran on a worker
    /// thread), keeping their parent links and run ids. Their clocks
    /// share no origin with this one, so only durations are comparable.
    pub fn absorb(&mut self, other: Spans) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    #[cfg(test)]
    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part its direct
    /// children cover.
    pub fn self_times(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(parent) = s.parent {
                covered[parent] += s.duration_ns();
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(s, children)| s.duration_ns().saturating_sub(children))
            .collect()
    }

    /// One JSON object per span, with its self time.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 112);
        let self_times = self.self_times();
        for (ix, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{ix},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\
                 \"parent\":{parent},\"run_id\":{},\"self_ns\":{}}}",
                s.name, s.start_ns, s.end_ns, s.run_id, self_times[ix]
            )
            .expect("write to string");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A recorder with hand-set clocks: run 10..100 with children
    /// 20..50 (itself holding 25..35) and 60..70.
    fn nested() -> Spans {
        let mut s = Spans::new(7);
        s.enter("run");
        s.enter("slice");
        s.enter("tally");
        s.exit();
        s.exit();
        s.enter("slice");
        s.exit();
        s.exit();
        for (ix, (start, end)) in [(10, 100), (20, 50), (25, 35), (60, 70)]
            .into_iter()
            .enumerate()
        {
            s.spans[ix].start_ns = start;
            s.spans[ix].end_ns = end;
        }
        s
    }

    #[test]
    fn parents_follow_the_open_stack() {
        let s = nested();
        let parents: Vec<_> = s.all().iter().map(|x| x.parent).collect();
        assert_eq!(parents, [None, Some(0), Some(1), Some(0)]);
        assert!(s.all().iter().all(|x| x.run_id == 7));
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let s = nested();
        // run: 90 - (30 + 10); the grandchild is the first slice's.
        assert_eq!(s.self_times(), [50, 20, 10, 10]);
        // Self times add back up to the root's duration.
        let total: u64 = s.self_times().iter().sum();
        assert_eq!(total, s.all()[0].duration_ns());
    }

    #[test]
    fn absorb_rebases_parent_links() {
        let mut a = nested();
        a.absorb(nested());
        assert_eq!(a.all()[5].parent, Some(4));
        assert_eq!(a.all()[4].parent, None);
        assert_eq!(a.self_times()[4], 50);
        assert_eq!(a.to_jsonl().lines().count(), 8);
    }
}
