//! Epoch truncation (§5.1.2, Figure 6): "the recovery procedure applied to
//! the oldest portion of the log", as one three-phase run.
//!
//! 1. **Snapshot** (under `core`): find the stable end of the log, take
//!    over the span's segment set, and drain its page-queue prefix.
//! 2. **Apply**: scan the span, build the newest-wins recovery trees,
//!    resolve their segments (under `core`), and write them with
//!    [`apply_tree_verified`].
//! 3. **Complete** (under `core`): advance the head, settle the drained
//!    page descriptors and write the status block — or, on failure,
//!    abandon the epoch.
//!
//! The run has two kinds of caller. Threshold triggers and
//! [`Rvm::truncate`](crate::Rvm::truncate) release `core` around the scan
//! and the apply, so commits keep appending past the span "while forward
//! processing continues"; those runs persist the boundary before touching
//! a segment and publish themselves (`epoch_active`, `truncating`,
//! `epochs_truncated`). The space-critical callers — the make-room step
//! below, incremental truncation's revert and `map` — run the same phases
//! with `core` held throughout and write no boundary.
//!
//! Releasing `core` is safe because records are appended *and forced*
//! under a single core-lock hold, so whenever the lock is free every byte
//! below the stable end is a fully written, forced record; and the frozen
//! span cannot be overwritten, because free-space accounting counts it as
//! live until the head advances.

use std::collections::HashSet;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use crate::error::{Result, RvmError};
use crate::log::wal::scan_forward;
use crate::recovery::build_latest_trees;
use crate::rvm::{elapsed_ns, Core, CoreGuard, RvmShared};
use crate::scrub::{apply_tree_verified, ApplyContext};
use crate::segment::SegmentId;
use crate::truncation::PageDesc;

/// The epoch being truncated: the frozen span `[wal.head(), end)`. Set
/// for the duration of a run; other threads see it only while a
/// lock-releasing run has `core` released.
pub(crate) struct EpochInFlight {
    /// Exclusive logical end of the frozen span.
    pub(crate) end: u64,
    /// `next_seq` the log had at `end` when the epoch was snapshotted
    /// (becomes `seq_at_head` when the head advances to `end`).
    pub(crate) next_seq: u64,
    /// Segments referenced by frozen-span records (restored on failure).
    pub(crate) segs: HashSet<u32>,
}

impl RvmShared {
    /// The stable end of the log as `(end, next_seq, full)`. In-flight
    /// pipelined batches are written (or still being written) but not
    /// forced, so truncation may only treat the prefix below the pipeline
    /// floor as stable; `full` is whether that prefix is the whole log.
    pub(crate) fn stable_end(&self, core: &Core) -> (u64, u64, bool) {
        match self.pipeline.floor() {
            Some(f) if f.tail() < core.wal.tail() => (f.tail(), f.next_seq(), false),
            _ => (core.wal.tail(), core.wal.next_seq(), true),
        }
    }

    /// Runs one epoch truncation of the live log up to its stable end
    /// (see the module docs). With `release`, `core` is released around
    /// the scan and the apply and the boundary is persisted first;
    /// without, `core` stays held throughout the run. Returns whether the
    /// head moved.
    ///
    /// An epoch already in flight owns the head, so the run first waits
    /// it out; that wait **releases `core`** and bumps
    /// `Core::wait_generation`. A caller that may have released `core`
    /// since it last saw no epoch (a spool flush can, to make room) thus
    /// never starts a second run over the first.
    pub(crate) fn epoch_run(&self, core: &mut CoreGuard<'_>, release: bool) -> Result<bool> {
        while core.epoch.is_some() {
            self.epoch_done.wait(core);
            core.wait_generation += 1;
        }
        if self.poisoned.load(Ordering::Acquire) {
            return Err(RvmError::Poisoned);
        }

        // 1. Snapshot.
        let start = core.wal.head();
        let start_seq = core.wal.seq_at_head();
        let (end, next_seq, full) = self.stable_end(core);
        if core.wal.used() == 0 || end <= start {
            return Ok(false);
        }
        let segs = if full {
            std::mem::take(&mut core.segs_in_log)
        } else {
            // Records above the floor still reference segments; keep the
            // set (an overbroad set is merely conservative).
            core.segs_in_log.clone()
        };
        // Commits landing while `core` is released re-enqueue their pages
        // with offsets past `end`.
        let drained = core.page_queue.drain_below(end);
        core.epoch = Some(EpochInFlight {
            end,
            next_seq,
            segs,
        });
        if release {
            self.epoch_active.store(true, Ordering::Release);
            // Persist the boundary *before* touching any segment: a crash
            // from here on recovers by scanning from the unmoved head,
            // re-applying the span idempotently.
            if let Err(e) = self.write_status_locked(core) {
                self.abandon_epoch(core, drained);
                self.epoch_active.store(false, Ordering::Release);
                return self.guard_io(Err(e));
            }
            self.truncating.store(true, Ordering::Release);
        }

        // 2. Apply.
        let dev = Arc::clone(core.wal.device());
        let area_len = core.wal.capacity();
        let mut apply = || -> Result<()> {
            let scan = self.off_lock(core, release, || {
                scan_forward(dev.as_ref(), area_len, start, start_seq, Some(end))
            })?;
            if scan.tail != end {
                // Everything in the span was forced before the snapshot;
                // a short scan means the log was corrupted underneath us.
                return Err(RvmError::BadLog(format!(
                    "epoch scan ended at {} before the snapshotted boundary {end}",
                    scan.tail
                )));
            }
            let mut trees: Vec<_> = build_latest_trees(&scan.records).into_iter().collect();
            trees.sort_unstable_by_key(|(seg, _)| *seg);
            let mut targets = Vec::with_capacity(trees.len());
            for (seg, tree) in &trees {
                let needed = tree
                    .iter()
                    .map(|(s, p)| s + p.len() as u64)
                    .max()
                    .unwrap_or(0);
                let seg_dev = self.segment_device(core, SegmentId::new(*seg), needed)?;
                let catalog = self.segment_catalog(core, SegmentId::new(*seg), &seg_dev)?;
                targets.push((seg_dev, catalog));
            }
            self.off_lock(core, release, || {
                for ((_, tree), (seg_dev, catalog)) in trees.iter().zip(&targets) {
                    // Writes, syncs, and persists the catalog — all before
                    // the head advances (the scrub module's crash ordering).
                    let outcome = apply_tree_verified(
                        seg_dev.as_ref(),
                        catalog.as_deref(),
                        tree,
                        ApplyContext::Truncation,
                    )?;
                    let media = &self.stats.media;
                    media
                        .corruptions_detected
                        .fetch_add(outcome.corruptions_detected, Ordering::Relaxed);
                    media
                        .corruptions_repaired
                        .fetch_add(outcome.corruptions_repaired, Ordering::Relaxed);
                }
                Ok::<(), RvmError>(())
            })?;
            let stats = &self.stats;
            stats.add(&stats.truncation_bytes_scanned, end - start);
            for (_, tree) in &trees {
                stats.add(&stats.truncation_ranges_applied, tree.len() as u64);
                stats.add(&stats.truncation_bytes_applied, tree.total_len());
            }
            Ok(())
        };
        let applied = apply();
        if release {
            self.truncating.store(false, Ordering::Release);
            self.epoch_active.store(false, Ordering::Release);
        }

        // 3. Complete.
        let result = match applied {
            Ok(()) => {
                core.epoch = None;
                core.wal.advance_head(end, next_seq);
                // A drained page not re-dirtied while `core` was released
                // is clean now: its latest committed bytes were all in the
                // span. One re-enqueued by a commit that landed meanwhile
                // keeps its new descriptor and its dirty bit; one with
                // spooled (unflushed) data stays dirty too.
                for desc in &drained {
                    if core.page_queue.contains(desc.region_id, desc.page) {
                        continue;
                    }
                    if let Some(region) = desc.region.upgrade() {
                        let mut pv = region.page_vector.lock();
                        let entry = pv.entry_mut(desc.page);
                        if entry.unflushed == 0 {
                            entry.dirty = false;
                        }
                    }
                }
                self.write_status_locked(core)
            }
            Err(e) => {
                self.abandon_epoch(core, drained);
                Err(e)
            }
        };
        if release {
            self.epoch_done.notify_all();
        }
        self.guard_io(result)?;
        self.stats.add(&self.stats.epoch_truncations, 1);
        if release {
            self.stats.add(&self.stats.epochs_truncated, 1);
        }
        Ok(true)
    }

    /// Runs `f` with `core` released when `release` is set, else under
    /// the held lock.
    fn off_lock<U>(&self, core: &mut CoreGuard<'_>, release: bool, f: impl FnOnce() -> U) -> U {
        if release {
            self.core.unlocked(core, f)
        } else {
            f()
        }
    }

    /// Reverts an epoch snapshot after a failure: the span is still live
    /// and unapplied, so its segment set and drained page descriptors go
    /// back where they were.
    fn abandon_epoch(&self, core: &mut Core, drained: Vec<PageDesc>) {
        if let Some(epoch) = core.epoch.take() {
            core.segs_in_log.extend(epoch.segs);
        }
        core.page_queue.requeue_front(drained);
    }

    /// The make-room step of an append that does not fit, with `core`
    /// held (§5.1.2's "space critical" truncation): waits out an
    /// in-flight epoch, else settles in-flight pipelined batches, else
    /// runs the epoch with `core` held throughout. Returns `Ok(false)`
    /// once nothing more can be reclaimed; after `Ok(true)` the caller
    /// re-checks the space. Waiting out the epoch and settling the
    /// batches **release `core`** and bump `Core::wait_generation`, so
    /// callers must re-validate any state derived from the lock. The time spent is `truncation_stall_ns`.
    pub(crate) fn make_room(&self, core: &mut CoreGuard<'_>) -> Result<bool> {
        let stall = Instant::now();
        let made = if core.epoch.is_some() {
            // The in-flight epoch owns the head and frees the frozen span
            // when it completes.
            self.epoch_done.wait(core);
            core.wait_generation += 1;
            Ok(true)
        } else if !self.pipeline.is_idle() {
            // Truncation can only reclaim below the pipeline floor, and
            // reaping needs `core`.
            self.core.unlocked(core, || self.pipeline_drain());
            core.wait_generation += 1;
            Ok(true)
        } else {
            self.epoch_run(core, false)
        };
        self.stats
            .add(&self.stats.truncation_stall_ns, elapsed_ns(stall));
        match made {
            Ok(_) if self.poisoned.load(Ordering::Acquire) => Err(RvmError::Poisoned),
            other => other,
        }
    }
}
