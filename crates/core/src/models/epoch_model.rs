//! Interleaving model of the `epoch_done` condvar + `wait_generation`
//! handshake between concurrent epoch truncation and the make-room step
//! of `append_with_space`.
//!
//! Threads: one truncator running the three-phase epoch protocol, and
//! two committers appending into a log with no free space. A committer
//! that finds an epoch in flight waits on `epoch_done` (releasing the
//! core lock and bumping `wait_generation` on wake); one that finds no
//! epoch runs the space-critical epoch itself with the lock held, exactly
//! as the make-room step (`RvmShared::make_room`) does.
//!
//! Checked properties:
//!
//! * **No lost wakeup** — every schedule terminates; the explorer reports
//!   any state where a committer is parked and nothing can wake it.
//!   `notify_all` (not `notify_one`) matters here: both committers can be
//!   parked when the truncator completes.
//! * **Generation discipline** — a committer that waited must bump
//!   `wait_generation` *before* it re-derives any state from the core
//!   lock (the group-commit rollback guard depends on this).
//! * The model's own power is demonstrated by two mutations the explorer
//!   must catch: a non-atomic wait (release-then-park ⇒ deadlock) and a
//!   skipped generation bump (⇒ invariant violation).

use super::explore::Model;

const DONE: u8 = 99;

/// See the [module docs](self).
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct EpochModel {
    /// Model mutation: `false` splits the condvar wait into
    /// release-then-park, losing wakeups that land in between.
    pub atomic_wait: bool,
    /// Model mutation: `true` skips the `wait_generation` bump on wake,
    /// the omission that would silently re-enable unsafe group rollbacks.
    pub skip_gen_bump: bool,

    lock: Option<u8>,
    epoch: bool,
    /// Whether the log has room to append (starts false: log full).
    space: bool,
    wait_gen: u8,
    /// Bitmask of committers parked on `epoch_done`.
    waiters: u8,

    trunc_pc: u8,
    com_pc: [u8; 2],
    /// Per committer: it waited at least once.
    waited: [bool; 2],
    /// Per committer: it bumped `wait_gen` after its latest wake.
    bumped: [bool; 2],
    /// Per committer: it appended while `waited && !bumped` — the
    /// generation-discipline violation.
    bad_append: [bool; 2],
}

impl EpochModel {
    pub fn new(atomic_wait: bool, skip_gen_bump: bool) -> Self {
        EpochModel {
            atomic_wait,
            skip_gen_bump,
            lock: None,
            epoch: false,
            space: false,
            wait_gen: 0,
            waiters: 0,
            trunc_pc: 0,
            com_pc: [0; 2],
            waited: [false; 2],
            bumped: [false; 2],
            bad_append: [false; 2],
        }
    }

    fn step_truncator(&mut self) {
        match self.trunc_pc {
            0 => {
                self.lock = Some(0);
                self.trunc_pc = 1;
            }
            1 => {
                // Phase 1: snapshot the boundary under the lock. If a
                // space-critical committer already truncated, there is
                // nothing left to do.
                if self.space {
                    self.lock = None;
                    self.trunc_pc = DONE;
                } else {
                    self.epoch = true;
                    self.trunc_pc = 2;
                }
            }
            2 => {
                self.lock = None;
                self.trunc_pc = 3;
            }
            3 => {
                // Phase 2: apply the frozen span off-lock.
                self.trunc_pc = 4;
            }
            4 => {
                self.lock = Some(0);
                self.trunc_pc = 5;
            }
            5 => {
                // Phase 3: advance the head, free the span, wake every
                // waiter.
                self.space = true;
                self.epoch = false;
                for j in 0..2usize {
                    if self.waiters & (1 << j) != 0 {
                        self.com_pc[j] = 4;
                    }
                }
                self.waiters = 0;
                self.trunc_pc = 6;
            }
            6 => {
                self.lock = None;
                self.trunc_pc = DONE;
            }
            _ => unreachable!("truncator stepped while blocked"),
        }
    }

    fn step_committer(&mut self, i: usize) {
        let t = (i + 1) as u8;
        match self.com_pc[i] {
            0 => {
                self.lock = Some(t);
                self.com_pc[i] = 1;
            }
            1 => {
                // append_with_space, one iteration of its loop.
                if self.space {
                    if self.waited[i] && !self.bumped[i] {
                        self.bad_append[i] = true;
                    }
                    self.lock = None;
                    self.com_pc[i] = DONE;
                } else if self.epoch {
                    self.waited[i] = true;
                    self.bumped[i] = false;
                    if self.atomic_wait {
                        self.waiters |= 1 << i;
                        self.lock = None;
                        self.com_pc[i] = 2;
                    } else {
                        self.lock = None;
                        self.com_pc[i] = 3;
                    }
                } else {
                    // Synchronous space-critical epoch truncation.
                    self.space = true;
                    // Loop: the next step re-checks and appends.
                }
            }
            3 => {
                // Buggy non-atomic wait: park after releasing the lock; a
                // notify that fired in between is lost.
                self.waiters |= 1 << i;
                self.com_pc[i] = 2;
            }
            4 => {
                // Woken: reacquire the lock, bump the generation.
                self.lock = Some(t);
                if !self.skip_gen_bump {
                    self.wait_gen = self.wait_gen.wrapping_add(1);
                    self.bumped[i] = true;
                }
                self.com_pc[i] = 1;
            }
            _ => unreachable!("committer stepped while parked"),
        }
    }
}

impl Model for EpochModel {
    fn threads(&self) -> usize {
        3
    }

    fn runnable(&self, t: usize) -> bool {
        if t == 0 {
            return match self.trunc_pc {
                DONE => false,
                0 | 4 => self.lock.is_none(),
                3 => true,
                _ => self.lock == Some(0),
            };
        }
        let i = t - 1;
        match self.com_pc[i] {
            DONE | 2 => false,
            0 | 4 => self.lock.is_none(),
            3 => true,
            _ => self.lock == Some((i + 1) as u8),
        }
    }

    fn finished(&self, t: usize) -> bool {
        if t == 0 {
            self.trunc_pc == DONE
        } else {
            self.com_pc[t - 1] == DONE
        }
    }

    fn step(&mut self, t: usize) {
        if t == 0 {
            self.step_truncator();
        } else {
            self.step_committer(t - 1);
        }
    }

    fn check(&self) -> Result<(), String> {
        for i in 0..2 {
            if self.bad_append[i] {
                return Err(format!(
                    "committer {i} re-derived core state after a wait without bumping wait_generation"
                ));
            }
        }
        let all_done = self.trunc_pc == DONE && self.com_pc.iter().all(|&pc| pc == DONE);
        if all_done {
            if self.epoch {
                return Err("epoch still in flight past termination".into());
            }
            if self.waiters != 0 {
                return Err("waiter bitmask leaked past termination".into());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::explore::explore;

    #[test]
    fn epoch_handshake_has_no_lost_wakeup() {
        let report = explore(EpochModel::new(true, false), 2_000_000);
        assert!(report.complete, "state space fully covered");
        assert!(
            report.violation.is_none(),
            "every schedule terminates with the generation discipline intact: {:?}",
            report.violation
        );
        assert!(report.states > 50, "nontrivial state space");
    }

    #[test]
    fn non_atomic_wait_deadlocks_and_is_caught() {
        let report = explore(EpochModel::new(false, false), 2_000_000);
        let (msg, schedule) = report
            .violation
            .expect("release-then-park must lose a wakeup in some schedule");
        assert!(msg.contains("deadlock"), "unexpected violation: {msg}");
        assert!(!schedule.is_empty());
    }

    #[test]
    fn skipped_generation_bump_is_caught() {
        let report = explore(EpochModel::new(true, true), 2_000_000);
        let (msg, _) = report
            .violation
            .expect("a skipped wait_generation bump must be flagged");
        assert!(
            msg.contains("wait_generation"),
            "unexpected violation: {msg}"
        );
    }
}
