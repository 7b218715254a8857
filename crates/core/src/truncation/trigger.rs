//! When truncation runs: explicit [`Rvm::truncate`](crate::Rvm::truncate),
//! the log-utilization threshold (inline after a commit, or on the
//! background truncation thread), and the thread itself.

use std::sync::atomic::Ordering;
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;

use crate::error::Result;
use crate::options::{TruncationMode, Tuning};
use crate::rvm::RvmShared;

impl RvmShared {
    /// The lock-releasing epoch run, for an explicit truncate
    /// (`threshold` `None`) or a threshold trigger (`Some(t)`). Returns
    /// whether the head moved.
    ///
    /// An explicit truncate settles in-flight pipelined batches first —
    /// the epoch can only freeze the span below the pipeline floor, and
    /// it promises to reclaim everything committed so far — and waits out
    /// an in-flight epoch, then truncates what remains. A trigger skips
    /// when an epoch is in flight (it *is* the truncation that was asked
    /// for) or when utilization already dropped to `t` or below (another
    /// thread truncated first).
    pub(crate) fn epoch_truncate(&self, threshold: Option<f64>) -> Result<bool> {
        if threshold.is_none() {
            self.pipeline_drain();
        }
        let mut core = self.core.lock();
        if let Some(t) = threshold {
            if core.epoch.is_some() || core.wal.utilization() <= t {
                return Ok(false);
            }
        }
        self.epoch_run(&mut core, true)
    }

    /// Runs the configured truncation mechanism once, in response to a
    /// threshold trigger (inline committer or the background thread).
    /// Takes the core lock itself; the caller must not hold it.
    pub(crate) fn run_triggered_truncation(&self, tuning: &Tuning) {
        // Threshold-triggered truncation swallows errors at its call
        // sites, so the poison transition must happen here or a failed
        // truncation would go entirely unnoticed.
        let result = (|| -> Result<()> {
            match tuning.truncation_mode {
                TruncationMode::Epoch => {
                    self.epoch_truncate(Some(tuning.truncation_threshold))?;
                }
                TruncationMode::Incremental => {
                    let mut core = self.core.lock();
                    // Re-check under the lock; another committer may have
                    // truncated already. With an epoch in flight the head
                    // is owned by its completion — nothing to do inline.
                    if core.epoch.is_some() || core.wal.utilization() <= tuning.truncation_threshold
                    {
                        return Ok(());
                    }
                    let reclaimed = self
                        .incremental_truncate_locked(&mut core, tuning.incremental_reclaim_bytes)?;
                    // Blocked with space critical: revert to epoch
                    // truncation. The revert point must sit at or above
                    // the trigger threshold — with a threshold above
                    // 0.95, a bare `min(0.95)` would put the "critical"
                    // mark *below* the trigger and every blocked trigger
                    // would look critical immediately.
                    let critical = (tuning.truncation_threshold + 0.3)
                        .min(0.95)
                        .max(tuning.truncation_threshold);
                    if reclaimed == 0 && core.wal.utilization() > critical && core.epoch.is_none() {
                        self.epoch_run(&mut core, false)?;
                    }
                }
            }
            Ok(())
        })();
        let _ = self.guard_io(result);
    }

    /// Commit-side threshold trigger: wakes the background thread, or
    /// truncates inline when there is none.
    pub(crate) fn request_truncation(&self, tuning: &Tuning) {
        if tuning.background_truncation {
            let mut flag = self.bg_wakeup.lock();
            *flag = true;
            self.bg_condvar.notify_all();
        } else {
            self.run_triggered_truncation(tuning);
        }
    }
}

fn background_truncation_loop(shared: Weak<RvmShared>) {
    loop {
        let Some(strong) = shared.upgrade() else {
            return;
        };
        {
            let mut flag = strong.bg_wakeup.lock();
            if !*flag {
                strong
                    .bg_condvar
                    .wait_for(&mut flag, std::time::Duration::from_millis(50));
            }
            *flag = false;
        }
        if strong.terminated.load(Ordering::Acquire) || strong.bg_stop.load(Ordering::Acquire) {
            return;
        }
        let tuning = *strong.tuning.read();
        strong.run_triggered_truncation(&tuning);
        drop(strong);
    }
}

/// Spawns the background truncation thread. The thread holds only a weak
/// reference so a dropped [`Rvm`](crate::Rvm) lets it exit on its next
/// wakeup.
pub(crate) fn spawn_bg_thread(shared: &Arc<RvmShared>) -> JoinHandle<()> {
    let weak = Arc::downgrade(shared);
    std::thread::Builder::new()
        .name("rvm-truncation".to_owned())
        .spawn(move || background_truncation_loop(weak))
        .expect("failed to spawn the rvm truncation thread")
}
