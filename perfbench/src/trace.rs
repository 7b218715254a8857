//! In-memory span recorder for traced runs.
//!
//! A span is one timed interval: a call the benchmark makes into the
//! library's public API, an application step around it, or one device
//! operation the library issues. Each span records its name, start, end,
//! parent and transaction id. Parents come from a per-thread stack of
//! open spans, so a device operation issued from inside `commit` becomes
//! a child of that `commit` span. Spans stay in per-thread buffers until
//! [`flush_thread`] hands them to a global sink; nothing is written to
//! disk until the run ends.
//!
//! With tracing off, [`span`] and [`enter`] read no clock and record
//! nothing.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::probe::{Op, Role};

/// What a span measures.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Name {
    /// One client's loop over its share of a round.
    ClientRound,
    TxnBegin,
    TxnRead,
    TxnWrite,
    TxnSetRange,
    TxnCommit,
    RvmFlush,
    RvmInitialize,
    RvmMap,
    /// One device operation, by role.
    Dev(Role, Op),
}

impl Name {
    /// The public calls the benchmark times, in report order.
    pub const CALLS: [Name; 8] = [
        Name::TxnBegin,
        Name::TxnRead,
        Name::TxnWrite,
        Name::TxnSetRange,
        Name::TxnCommit,
        Name::RvmFlush,
        Name::RvmInitialize,
        Name::RvmMap,
    ];

    /// Metric-name prefix of the span.
    pub fn as_str(self) -> &'static str {
        match self {
            Name::ClientRound => "client",
            Name::TxnBegin => "txn.begin",
            Name::TxnRead => "txn.read",
            Name::TxnWrite => "txn.write",
            Name::TxnSetRange => "txn.set_range",
            Name::TxnCommit => "txn.commit",
            Name::RvmFlush => "rvm.flush",
            Name::RvmInitialize => "rvm.initialize",
            Name::RvmMap => "rvm.map",
            Name::Dev(role, op) => DEV_NAMES[role as usize][op as usize],
        }
    }
}

const DEV_NAMES: [[&str; 3]; 4] = [
    ["dev.log.read", "dev.log.write", "dev.log.sync"],
    ["dev.status.read", "dev.status.write", "dev.status.sync"],
    ["dev.seg.read", "dev.seg.write", "dev.seg.sync"],
    ["dev.sums.read", "dev.sums.write", "dev.sums.sync"],
];

/// One recorded interval. Times are nanoseconds since the first span of
/// the process; `parent` indexes the same thread's block.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: Name,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub txn: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The spans one thread recorded, in the order they were opened.
#[derive(Debug, Default)]
pub struct Block {
    pub thread: u32,
    pub spans: Vec<Span>,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static SINK: Mutex<Vec<Block>> = Mutex::new(Vec::new());
static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

struct Local {
    block: Block,
    stack: Vec<u32>,
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local {
        block: Block {
            thread: NEXT_THREAD.fetch_add(1, Ordering::Relaxed),
            spans: Vec::new(),
        },
        stack: Vec::new(),
    });
}

/// Turns recording on or off. Only flipped while no client thread runs,
/// so a relaxed flag suffices: thread spawn and join order the accesses.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// An open span; closes when dropped.
pub struct Guard {
    idx: Option<u32>,
}

impl Guard {
    /// Tags the span with a transaction id learned after it opened (the
    /// id `begin_transaction` returns).
    pub fn set_txn(&self, txn: u64) {
        if let Some(idx) = self.idx {
            LOCAL.with(|l| l.borrow_mut().block.spans[idx as usize].txn = txn);
        }
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some(idx) = self.idx {
            let end = now_ns();
            LOCAL.with(|l| {
                let mut l = l.borrow_mut();
                l.block.spans[idx as usize].end_ns = end;
                l.stack.pop();
            });
        }
    }
}

/// Opens a span under the thread's innermost open span. A span with no
/// transaction id inherits its parent's.
pub fn enter(name: Name, txn: u64) -> Guard {
    if !enabled() {
        return Guard { idx: None };
    }
    let start = now_ns();
    let idx = LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let parent = l.stack.last().copied();
        let txn = match (txn, parent) {
            (0, Some(p)) => l.block.spans[p as usize].txn,
            _ => txn,
        };
        let idx = l.block.spans.len() as u32;
        l.block.spans.push(Span {
            name,
            start_ns: start,
            end_ns: start,
            parent,
            txn,
        });
        l.stack.push(idx);
        idx
    });
    Guard { idx: Some(idx) }
}

/// Runs `f` inside a span.
pub fn span<R>(name: Name, txn: u64, f: impl FnOnce() -> R) -> R {
    let _g = enter(name, txn);
    f()
}

/// Hands this thread's spans to the global sink. Client threads call it
/// before they exit; the main thread before [`take`].
pub fn flush_thread() {
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        debug_assert!(l.stack.is_empty(), "flush with open spans");
        if l.block.spans.is_empty() {
            return;
        }
        let block = Block {
            thread: l.block.thread,
            spans: std::mem::take(&mut l.block.spans),
        };
        SINK.lock().expect("span sink poisoned").push(block);
    });
}

/// Drains every flushed block.
pub fn take() -> Vec<Block> {
    std::mem::take(&mut *SINK.lock().expect("span sink poisoned"))
}

/// Self time of every span in `spans`: its duration minus the part of
/// its interval covered by its direct children. Children may overlap one
/// another or stick out of the parent; each covered nanosecond counts
/// once, and only inside the parent.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p as usize].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| s.duration_ns() - covered(s.start_ns, s.end_ns, kids))
        .collect()
}

/// Length of the union of `intervals` clipped to `[lo, hi)`.
fn covered(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: Name, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            txn: 0,
        }
    }

    #[test]
    fn self_time_subtracts_overlapping_children_once() {
        let dev = Name::Dev(Role::Log, Op::Write);
        let spans = [
            sp(Name::TxnCommit, 0, 100, None),
            sp(dev, 10, 40, Some(0)),
            sp(dev, 30, 60, Some(0)),
            // Sticks out past the parent's end: only 90..100 counts.
            sp(dev, 90, 120, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![40, 30, 30, 30]);
    }

    #[test]
    fn self_time_counts_only_direct_children() {
        let spans = [
            sp(Name::ClientRound, 0, 1000, None),
            sp(Name::TxnCommit, 100, 500, Some(0)),
            sp(Name::Dev(Role::Log, Op::Sync), 200, 450, Some(1)),
            sp(Name::TxnWrite, 600, 700, Some(0)),
            sp(Name::Dev(Role::Seg, Op::Write), 610, 620, Some(3)),
            sp(Name::Dev(Role::Sums, Op::Write), 615, 640, Some(3)),
        ];
        // The round loses both calls (400 + 100), not the grandchildren.
        assert_eq!(self_times(&spans), vec![500, 150, 250, 70, 10, 25]);
    }

    #[test]
    fn spans_nest_under_the_open_call_and_inherit_its_txn() {
        set_enabled(true);
        {
            let outer = enter(Name::TxnCommit, 0);
            outer.set_txn(7);
            span(Name::Dev(Role::Log, Op::Sync), 0, || ());
        }
        span(Name::TxnBegin, 3, || ());
        set_enabled(false);
        span(Name::TxnWrite, 9, || ());
        let spans = LOCAL.with(|l| std::mem::take(&mut l.borrow_mut().block.spans));
        assert_eq!(spans.len(), 3, "nothing is recorded while disabled");
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].txn, 7);
        assert_eq!(spans[2].parent, None);
        assert_eq!(spans[2].txn, 3);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }
}
