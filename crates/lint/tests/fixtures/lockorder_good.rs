// Known-good fixture for the lock-order pass: the same shapes as the
// bad fixture, written the way the canonical order demands. Zero
// findings expected.

/// Copy-out discipline: release `check` before taking `core`.
fn check_released_before_core(shared: &Shared) -> u64 {
    let copied = {
        let state = shared.check.lock();
        state.snapshots.len() as u64
    };
    let core = shared.core.lock();
    copied + core.seq
}

/// Rank-increasing nesting is fine: core -> regions -> mem_lock.
fn descending_the_order(shared: &Shared, region: &Region) {
    let _core = shared.core.lock();
    let _regions = shared.regions.read();
    let _mem = region.mem_lock.write();
}

/// A plain `if` condition's temporary guard drops at the `{`, so the
/// `core` acquisition inside the block is NOT nested under `check`.
fn plain_if_drops_guard(shared: &Shared) {
    if shared.check.lock().snapshots.is_empty() {
        let _core = shared.core.lock();
    }
}

/// An explicit `drop` ends the guard early.
fn explicit_drop(shared: &Shared) {
    let state = shared.check.lock();
    let n = state.snapshots.len();
    drop(state);
    let _core = shared.core.lock();
    consume(n);
}

/// Code inside `spawn(...)` runs on another thread: not "held across".
fn spawn_is_not_holding(shared: &Shared) {
    let _pv = shared.check.lock();
    std::thread::spawn(move || {
        let _core = shared.core.lock();
    });
}

/// `unlocked` runs its closure with the lock released, so re-taking it
/// there — directly or through a call — is not reentrant.
fn unlocked_releases_its_lock(shared: &Shared) {
    let mut core = shared.core.lock();
    shared.core.unlocked(&mut core, || takes_core(shared));
    consume(core.seq);
}

/// A helper that releases its caller's guard around a call that takes
/// the same lock may be called with that lock held.
fn releases_callers_guard(shared: &Shared, core: &mut CoreGuard) {
    shared.core.unlocked(core, || takes_core(shared));
}

fn holds_core_across_releasing_helper(shared: &Shared) {
    let mut core = shared.core.lock();
    releases_callers_guard(shared, &mut core);
}

fn takes_core(shared: &Shared) -> u64 {
    let core = shared.core.lock();
    core.seq
}
