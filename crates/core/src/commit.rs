//! The flush-commit path: one leader/follower commit queue and one leader
//! round, parameterized by the log pipeline depth
//! ([`Tuning::log_pipeline_depth`]).
//!
//! The paper's throughput ceiling is the log force — 17.4 ms per force
//! caps a serialized commit path at 57.4 txn/s (§7.1.2) — and one force
//! per flush commit means N committer threads go no faster than one.
//! Committers therefore serialize their records *outside* the core lock,
//! park them in a queue, and the first committer to find no leader becomes
//! one. The leader claims a bounded batch from the queue front and, under
//! one `core` hold, flushes the spool, takes a WAL checkpoint, stages every
//! member's record in queue order, and issues the batch's writes and a
//! **single** force. Each member gets its own
//! [`AppendInfo`](crate::log::wal::AppendInfo) through its slot.
//!
//! ## Depth
//!
//! * **Depth 1** (the default): the writes and the force are synchronous
//!   (`write_at` / `sync`), so the leader settles the batch — page
//!   bookkeeping, stats, outcomes — in the same `core` hold. With
//!   `group_commit_max_txns = 1` this is the paper's serialized commit.
//! * **Depth 2**: the writes and the force are *submitted*
//!   (`submit_write` / `submit_sync`) and the batch joins the in-flight
//!   FIFO: the next leader fills while its force runs, and a later *reap*
//!   waits the tokens, settles the batch and acknowledges the members. A
//!   leader starts its fill only once fewer than two batches are in
//!   flight or being reaped; time spent waiting for that is
//!   `pipeline_stall_ns`.
//!
//! Reaps are serialized and FIFO: the front batch is popped under the
//! pipeline lock together with setting `reap_floor`, and nobody else pops
//! until that reap settles. The reaper is the successor leader (after
//! submitting its own batch), a leader that found the queue empty (the
//! pipeline tail), or a leader waiting for depth. Since every leader round
//! reaps down to its own depth, changing the depth at runtime cannot
//! strand a batch.
//!
//! ## Failure and poison rules
//!
//! A `LogFull` on one member fails only that member. A device error on the
//! spool drain, a write, or the force fails the *whole* batch: the WAL
//! cursors roll back to the batch checkpoint iff nothing appended past the
//! batch (its end tail still matches and no core-lock release bumped
//! `Core::wait_generation`), and the instance is poisoned — records may
//! sit unacknowledged in the device's write-behind cache. A batch settled
//! after a failed one fails with `Poisoned` even if its own force
//! succeeded: its records sit beyond an unforced hole a recovery scan
//! cannot cross.
//!
//! ## Interleaving with concurrent epoch truncation
//!
//! Epoch truncation releases `core` while applying its frozen span, so a
//! leader can fill *during* a truncation. If the log cannot fit the next
//! member, the leader rolls its staged appends back (nothing of the batch
//! reached the device yet) and runs the make-room step
//! ([`RvmShared::make_room`]) that every append shares: wait out the
//! epoch, settle in-flight batches, or truncate synchronously. The fill
//! then restarts from scratch with a fresh checkpoint.
//!
//! ## The floor
//!
//! Truncation must never treat in-flight records as stable: the oldest
//! unreaped batch's checkpoint is the **pipeline floor**
//! ([`LogPipeline::floor`]), and every truncation path caps its work below
//! it ([`RvmShared::stable_end`]). Everything under the floor is written
//! *and forced*.
//!
//! Lock order: the queue lock (`state`) is never held together with
//! `core`; the leader claims its batch, releases `state`, then takes
//! `core`. Slot `work` locks nest inside `core`. The pipeline lock (`pipe`)
//! is taken with `core` held (pushing a submitted batch, reading the
//! floor) and is never held while acquiring `core` or `work`: the reaper
//! drops it before waiting tokens and takes `core` only afterwards.

use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use parking_lot::{Condvar, Mutex};
use rvm_storage::{Device, IoToken};

use crate::error::{Result, RvmError};
use crate::log::record::{self, RecordRange};
use crate::log::wal::{AppendInfo, StagingBuf, WalCheckpoint};
use crate::options::Tuning;
use crate::region::RegionInner;
use crate::rvm::{elapsed_ns, Core, RvmShared};
use crate::stats::batch_size_bucket;

/// Record bytes one batch may carry: a batch closes before the member
/// that would exceed it.
const MAX_BATCH_BYTES: u64 = 8 << 20;

/// The payload a committer parks in the queue and the leader fills in.
pub(crate) struct SlotWork {
    /// The serialized new-value ranges, read by the leader's append.
    ranges: Vec<RecordRange>,
    /// Pages to mark dirty and enqueue for truncation on success.
    region_pages: Vec<(Arc<RegionInner>, Vec<usize>)>,
    /// Set when the member's batch settles; the committer takes it.
    outcome: Option<Result<AppendInfo>>,
}

/// One committer's pending flush commit.
pub(crate) struct CommitSlot {
    tid: u64,
    /// Unpadded record bytes this slot appends (for the batch byte cap).
    record_bytes: u64,
    work: Mutex<SlotWork>,
}

/// Queue state guarded by the queue lock.
#[derive(Default)]
struct QueueState {
    /// Waiting committers, oldest first; durable-log order follows queue
    /// order because batches are claimed from the front by one leader at
    /// a time.
    queue: VecDeque<Arc<CommitSlot>>,
    /// Whether some committer currently holds leadership.
    leader_active: bool,
}

/// The commit queue, its leadership flag, and the follower wakeup.
pub(crate) struct CommitQueue {
    state: Mutex<QueueState>,
    /// Signalled after a leader releases leadership and after every reap;
    /// woken followers re-check their slot or take over.
    wakeup: Condvar,
}

impl CommitQueue {
    pub(crate) fn new() -> Self {
        Self {
            state: Mutex::new(QueueState::default()),
            wakeup: Condvar::new(),
        }
    }
}

/// A batch whose records are staged: members, their outcomes as of the
/// fill, and the rollback point.
struct Batch {
    /// The members, queue order.
    slots: Vec<Arc<CommitSlot>>,
    /// Per-member outcome: `Ok` pending durability, or the member's own
    /// `LogFull`.
    outcomes: Vec<Result<AppendInfo>>,
    /// WAL cursors before the batch's appends — the rollback point and,
    /// while the batch is the oldest in flight, the pipeline floor.
    ckpt: WalCheckpoint,
    /// `Core::wait_generation` at the checkpoint.
    ckpt_gen: u64,
    /// WAL tail right after the batch's appends; a failure rolls back
    /// only if the tail still matches.
    end_tail: u64,
}

/// A batch whose writes and force were submitted but not yet waited.
struct InFlightBatch {
    batch: Batch,
    /// Submitted writes, submission order.
    write_tokens: Vec<IoToken>,
    /// The submitted force covering them (`None` only under the
    /// `skip_group_force` mutation).
    force_token: Option<IoToken>,
    /// The log device, captured so the reap can wait without `core`.
    dev: Arc<dyn Device>,
}

/// State behind the pipeline lock.
struct PipeState {
    /// Submitted batches awaiting their reap, oldest first.
    in_flight: VecDeque<InFlightBatch>,
    /// Checkpoint of the batch being reaped (popped but not settled).
    /// Doubles as the "a reap is in progress" flag that keeps reaps FIFO,
    /// and keeps the floor visible while the front batch is out of the
    /// queue.
    reap_floor: Option<WalCheckpoint>,
}

impl PipeState {
    /// Batches in flight or being reaped.
    fn outstanding(&self) -> usize {
        self.in_flight.len() + usize::from(self.reap_floor.is_some())
    }
}

/// The in-flight FIFO and its condvar (signalled whenever a reap
/// settles).
pub(crate) struct LogPipeline {
    pipe: Mutex<PipeState>,
    pipe_cv: Condvar,
}

impl LogPipeline {
    pub(crate) fn new() -> Self {
        LogPipeline {
            pipe: Mutex::new(PipeState {
                in_flight: VecDeque::new(),
                reap_floor: None,
            }),
            pipe_cv: Condvar::new(),
        }
    }

    /// The pipeline floor: the oldest unreaped batch's pre-append
    /// checkpoint. Everything below it is fully written and forced;
    /// nothing at or above it may be treated as stable by truncation.
    /// `None` when no batch is in flight or mid-reap.
    pub(crate) fn floor(&self) -> Option<WalCheckpoint> {
        let ps = self.pipe.lock();
        // A mid-reap batch is older than anything still queued (FIFO).
        ps.reap_floor
            .or_else(|| ps.in_flight.front().map(|b| b.batch.ckpt))
    }

    /// Whether nothing is in flight and no reap is in progress.
    pub(crate) fn is_idle(&self) -> bool {
        self.pipe.lock().outstanding() == 0
    }
}

impl InFlightBatch {
    /// Waits every token, returning the batch and the first failure.
    fn wait(self) -> (Batch, Result<()>) {
        let mut io = Ok(());
        for token in self.write_tokens.into_iter().chain(self.force_token) {
            let r = self.dev.wait(token);
            if io.is_ok() {
                io = r;
            }
        }
        (self.batch, io.map_err(RvmError::from))
    }
}

impl RvmShared {
    /// Committer side of a non-empty flush commit: parks the serialized
    /// transaction in the commit queue, then either waits for a leader to
    /// commit it or becomes the leader itself.
    ///
    /// Leadership is a baton, not a thread: the first committer to find no
    /// active leader takes it, runs one bounded batch via
    /// [`RvmShared::leader_round`], releases it, and re-checks its own
    /// slot. A committer whose slot was left out of a bounded batch (or
    /// whose batch is still in flight) takes the baton next, so every
    /// enqueued transaction settles and durable-log order equals queue
    /// order.
    pub(crate) fn commit_flush(
        &self,
        tid: u64,
        ranges: Vec<RecordRange>,
        region_pages: Vec<(Arc<RegionInner>, Vec<usize>)>,
        tuning: &Tuning,
    ) -> Result<()> {
        let record_bytes = record::HEADER_SIZE
            + ranges
                .iter()
                .map(|r| record::RANGE_ENTRY_SIZE + r.data.len() as u64)
                .sum::<u64>()
            + record::TRAILER_SIZE;
        let slot = Arc::new(CommitSlot {
            tid,
            record_bytes,
            work: Mutex::new(SlotWork {
                ranges,
                region_pages,
                outcome: None,
            }),
        });
        self.group.state.lock().queue.push_back(slot.clone());
        loop {
            let mut qs = self.group.state.lock();
            if let Some(outcome) = slot.work.lock().outcome.take() {
                return outcome.map(|_| ());
            }
            if qs.leader_active {
                // A leader is running (possibly carrying this slot in its
                // batch); wait for it to publish and hand off.
                self.group.wakeup.wait(&mut qs);
                continue;
            }
            qs.leader_active = true;
            drop(qs);
            self.leader_round(tuning);
            self.group.state.lock().leader_active = false;
            self.group.wakeup.notify_all();
        }
    }

    /// Leader side: one bounded batch, staged and issued under one `core`
    /// hold, and settled in that same hold at depth 1. See the module
    /// docs for the protocol.
    ///
    /// Staging and issuing happen under one hold, in queue order: a
    /// successor batch must never reach the device while an earlier
    /// batch's bytes are still an unwritten hole below it, or a crash
    /// after the successor's force could strand forced records beyond a
    /// gap the recovery scan cannot cross.
    fn leader_round(&self, tuning: &Tuning) {
        if tuning.group_commit_wait_us > 0 {
            // Accumulation window: let concurrent committers join the
            // batch. Wall-clock only; nothing is charged to a simulated
            // clock, and no lock is held.
            std::thread::sleep(std::time::Duration::from_micros(
                tuning.group_commit_wait_us,
            ));
        }
        let max_txns = tuning.group_commit_max_txns.max(1);
        let depth = tuning.log_pipeline_depth.clamp(1, 2);
        let slots: Vec<Arc<CommitSlot>> = {
            let mut qs = self.group.state.lock();
            let mut batch = Vec::new();
            let mut bytes = 0u64;
            while batch.len() < max_txns {
                let Some(front) = qs.queue.front() else { break };
                if !batch.is_empty() && bytes + front.record_bytes > MAX_BATCH_BYTES {
                    break;
                }
                bytes += front.record_bytes;
                batch.extend(qs.queue.pop_front());
            }
            batch
        };
        if slots.is_empty() {
            // Nothing queued: this round is the pipeline tail. Stand in
            // as the reaper so in-flight committers (including, possibly,
            // this thread's own batch) get their outcomes.
            self.reap_front();
            return;
        }
        self.await_depth(depth);

        let stats = &self.stats;
        let mut staging = StagingBuf::new();
        let mut core = self.core.lock();
        let mut outcomes: Vec<Result<AppendInfo>> = Vec::with_capacity(slots.len());
        // Members truncation provably cannot make room for; on the next
        // fill attempt they take their own `LogFull` instead of
        // re-truncating (guarantees the retry loop terminates).
        let mut wont_fit: Vec<bool> = vec![false; slots.len()];
        let filled: Result<(WalCheckpoint, u64)> = 'attempt: loop {
            // Any path that released the core lock restarts the fill from
            // scratch: the staged appends were rolled back first, and the
            // checkpoint below is re-taken.
            staging.clear();
            outcomes.clear();
            if self.poisoned.load(Ordering::Acquire) {
                // Poisoned between enqueue and leadership (e.g. by the
                // previous batch): fail fast without touching the log.
                break Err(RvmError::Poisoned);
            }
            if let Err(e) = self.flush_spool_locked(&mut core) {
                break Err(e);
            }
            let ckpt = core.wal.checkpoint();
            let ckpt_gen = core.wait_generation;
            for (slot, wont_fit) in slots.iter().zip(wont_fit.iter_mut()) {
                let work = slot.work.lock();
                let padded =
                    record::txn_record_size(work.ranges.iter().map(|r| r.data.len() as u64));
                if padded <= core.wal.capacity()
                    && !*wont_fit
                    && core.wal.space_needed(padded) > core.wal.free_space()
                {
                    // Out of space mid-fill. Rolling back the staged
                    // cursor advances is always safe here — the core lock
                    // has been held since the checkpoint, so nothing
                    // interleaved — and nothing of this batch reached the
                    // device yet.
                    drop(work);
                    core.wal.rollback_to(ckpt);
                    match self.make_room(&mut core) {
                        Ok(made) => {
                            *wont_fit = !made;
                            continue 'attempt;
                        }
                        Err(e) => break 'attempt Err(e),
                    }
                }
                outcomes.push(if *wont_fit {
                    Err(RvmError::LogFull {
                        needed: core.wal.space_needed(padded),
                        capacity: core.wal.free_space(),
                    })
                } else {
                    // Too big for the whole log, or it fits: the staged
                    // append decides (its only error is `LogFull`).
                    core.wal
                        .append_txn_staged(slot.tid, &work.ranges, &mut staging)
                });
            }
            break Ok((ckpt, ckpt_gen));
        };

        let (ckpt, ckpt_gen) = match filled {
            Ok(ckpt) => ckpt,
            Err(e) => {
                let result = self.guard_io(Err(e));
                drop(core);
                self.publish(&slots, outcomes, result);
                return;
            }
        };
        if staging.is_empty() {
            // Every member individually failed (`LogFull`): no bytes to
            // write, nothing to force.
            drop(core);
            self.publish(&slots, outcomes, Ok(()));
            return;
        }
        let batch = Batch {
            slots,
            outcomes,
            ckpt,
            ckpt_gen,
            end_tail: core.wal.tail(),
        };
        // `skip_group_force` is a crashmc mutation hook: it acknowledges
        // the batch without the durability barrier, the classic
        // lost-commit bug the model checker must be able to see.
        let force = !tuning.mutation.skip_group_force;
        if depth == 1 {
            let io = core.wal.write_staged(&mut staging).and_then(|()| {
                if force {
                    core.wal.force()
                } else {
                    Ok(())
                }
            });
            let result =
                self.settle_locked(&mut core, &batch, io, tuning.mutation.skip_group_rollback);
            drop(core);
            self.publish(&batch.slots, batch.outcomes, result);
            return;
        }
        stats.add(&stats.pipeline_submits, 1);
        let write_tokens = core.wal.submit_staged(&mut staging);
        let force_token = force.then(|| core.wal.submit_force());
        let dev = Arc::clone(core.wal.device());
        let outstanding = {
            let mut ps = self.pipeline.pipe.lock();
            ps.in_flight.push_back(InFlightBatch {
                batch,
                write_tokens,
                force_token,
                dev,
            });
            ps.outstanding() as u64
        };
        stats
            .forces_in_flight_hw
            .fetch_max(outstanding, Ordering::Relaxed);
        drop(core);
        // Reap down to the depth: the predecessor's force ran while this
        // batch filled, and this batch stays in flight so the next
        // leader's fill overlaps it.
        while self.pipeline.pipe.lock().in_flight.len() >= depth {
            self.reap_front();
        }
    }

    /// Blocks until fewer than `depth` batches are in flight or being
    /// reaped, reaping the oldest itself when no reap is in progress. The
    /// time spent is the pipeline *stall* (`pipeline_stall_ns`): the fill
    /// could not start until a force completed.
    fn await_depth(&self, depth: usize) {
        let mut stalled: Option<Instant> = None;
        let mut ps = self.pipeline.pipe.lock();
        while ps.outstanding() >= depth {
            stalled.get_or_insert_with(Instant::now);
            if ps.reap_floor.is_none() {
                if let Some(batch) = ps.in_flight.pop_front() {
                    ps.reap_floor = Some(batch.batch.ckpt);
                    drop(ps);
                    self.reap_batch(batch);
                    ps = self.pipeline.pipe.lock();
                    continue;
                }
            }
            // Another thread owns the reap; wait for it to settle.
            self.pipeline.pipe_cv.wait(&mut ps);
        }
        drop(ps);
        if let Some(t) = stalled {
            self.stats.add(&self.stats.pipeline_stall_ns, elapsed_ns(t));
        }
    }

    /// Reaps the oldest in-flight batch, waiting out a concurrent reaper
    /// first so reaps stay FIFO. No-op when the pipeline is idle.
    fn reap_front(&self) {
        let mut ps = self.pipeline.pipe.lock();
        loop {
            if ps.reap_floor.is_none() {
                let Some(batch) = ps.in_flight.pop_front() else {
                    return; // idle
                };
                ps.reap_floor = Some(batch.batch.ckpt);
                drop(ps);
                self.reap_batch(batch);
                return;
            }
            // Another thread owns the reap; FIFO order means waiting it
            // out is as good as reaping the front ourselves.
            self.pipeline.pipe_cv.wait(&mut ps);
        }
    }

    /// Reaps every in-flight batch. Used by paths that need the log
    /// settled: mapping a segment the pipeline may reference, explicit
    /// truncation, and the make-room step (truncation can only reclaim
    /// below the pipeline floor). Must be called with **no** locks held.
    pub(crate) fn pipeline_drain(&self) {
        while !self.pipeline.is_idle() {
            self.reap_front();
        }
    }

    /// Completion side of an in-flight batch popped by the caller (which
    /// set the reap floor): waits its tokens with no locks held, settles
    /// it under `core`, publishes every member's outcome, and releases
    /// the reap floor.
    fn reap_batch(&self, in_flight: InFlightBatch) {
        let (batch, io) = in_flight.wait();
        let skip_rollback = self.tuning.read().mutation.skip_group_rollback;
        let mut core = self.core.lock();
        let result = self.settle_locked(&mut core, &batch, io, skip_rollback);
        drop(core);
        self.publish(&batch.slots, batch.outcomes, result);
        self.pipeline.pipe.lock().reap_floor = None;
        self.pipeline.pipe_cv.notify_all();
        // Purely an accelerant: parked committers re-check their slots
        // sooner. Missed wakeups are impossible — a committer that finds
        // `leader_active` false claims leadership itself, and leadership
        // release notifies under the queue lock.
        self.group.wakeup.notify_all();
    }

    /// Settles a batch whose I/O finished with `io`, under the core lock.
    ///
    /// Success charges the force and does each member's page bookkeeping.
    /// Failure — of the I/O, or of an older batch that poisoned the
    /// instance meanwhile — rolls the WAL cursors back iff nothing was
    /// appended past the batch, and poisons on a device error before
    /// `core` is released, so no other log writer runs over an unforced
    /// hole. (`skip_rollback` is the `skip_group_rollback` crashmc
    /// mutation hook: it reintroduces the cursors-past-unforced-records
    /// bug the rollback exists to prevent.)
    fn settle_locked(
        &self,
        core: &mut Core,
        batch: &Batch,
        io: Result<()>,
        skip_rollback: bool,
    ) -> Result<()> {
        let result = match io {
            // This batch's own I/O succeeded, but an older batch failed
            // after it was submitted.
            Ok(()) if self.poisoned.load(Ordering::Acquire) => Err(RvmError::Poisoned),
            other => other,
        };
        if result.is_err() {
            if core.wait_generation == batch.ckpt_gen
                && core.wal.tail() == batch.end_tail
                && !skip_rollback
            {
                core.wal.rollback_to(batch.ckpt);
            }
            return self.guard_io(result);
        }
        let stats = &self.stats;
        let successes = batch.outcomes.iter().filter(|o| o.is_ok()).count() as u64;
        stats.add(&stats.log_forces, 1);
        stats.add(&stats.group_commit_batches, 1);
        stats.add(&stats.group_commit_txns, successes);
        if let Some(bucket) = stats
            .group_commit_batch_sizes
            .get(batch_size_bucket(successes))
        {
            stats.add(bucket, 1);
        }
        for (slot, outcome) in batch.slots.iter().zip(&batch.outcomes) {
            if let Ok(info) = outcome {
                let work = slot.work.lock();
                stats.add(&stats.bytes_logged, info.record_bytes);
                for (region, pages) in &work.region_pages {
                    region.note_pages_logged(pages);
                    for &p in pages {
                        core.page_queue.enqueue(region, p, info.offset, info.seq);
                    }
                }
                for r in &work.ranges {
                    core.segs_in_log.insert(r.seg.as_u32());
                }
            }
        }
        Ok(())
    }

    /// Publishes each member's outcome into its slot. On a batch failure
    /// one member receives the original error (for a batch of one, exactly
    /// the serialized commit's behaviour), members that individually ran
    /// out of log space keep their own `LogFull`, and the rest observe the
    /// state the failure left behind: `Poisoned` after a device error, or a
    /// reconstructed `LogFull` when the spool drain ran out of log space
    /// (which leaves the instance healthy).
    fn publish(
        &self,
        slots: &[Arc<CommitSlot>],
        outcomes: Vec<Result<AppendInfo>>,
        result: Result<()>,
    ) {
        let Err(e) = result else {
            for (slot, outcome) in slots.iter().zip(outcomes) {
                slot.work.lock().outcome = Some(outcome);
            }
            return;
        };
        let log_full = match &e {
            RvmError::LogFull { needed, capacity } => Some((*needed, *capacity)),
            _ => None,
        };
        let mut original = Some(e);
        let mut outcomes = outcomes.into_iter();
        for slot in slots {
            let result = match outcomes.next() {
                Some(Err(member_err)) => Err(member_err),
                _ => Err(original.take().unwrap_or(match log_full {
                    Some((needed, capacity)) => RvmError::LogFull { needed, capacity },
                    None => RvmError::Poisoned,
                })),
            };
            slot.work.lock().outcome = Some(result);
        }
    }
}
