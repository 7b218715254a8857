// Known-bad fixture for the lock-order pass. Each function is one
// conviction the fixture test pins down.

/// The historical `query` shape: `check` held across a `core`
/// acquisition (rank 25 -> rank 10, against the order).
fn check_then_core(shared: &Shared) -> u64 {
    let state = shared.check.lock();
    let core = shared.core.lock();
    state.snapshots.len() as u64 + core.seq
}

/// Re-acquisition: parking_lot mutexes are not reentrant.
fn core_reentrant(shared: &Shared) {
    let a = shared.core.lock();
    let b = shared.core.lock();
    drop(a);
    drop(b);
}

/// Inversion through a call: holding `page_vector` while calling a
/// helper whose transitive closure takes `mem_lock`.
fn vector_then_helper(region: &Region) {
    let pv = region.page_vector.lock();
    helper_touches_memory(region);
    drop(pv);
}

fn helper_touches_memory(region: &Region) {
    let _guard = region.mem_lock.write();
}

/// `if let` scrutinee temporary: the guard lives to the end of the
/// construct's block (Rust <= 2021 rules), so the `core` acquisition
/// inside the block happens with `check` still held.
fn if_let_extends_guard(shared: &Shared) {
    if let Some(snap) = shared.check.lock().snapshots.first() {
        let _core = shared.core.lock();
        consume(snap);
    }
}

/// Acquiring a lock nobody declared in lockorder.toml.
fn undeclared_lock(shared: &Shared) {
    let _g = shared.secret_side_table.lock();
}

/// `unlocked` releases only its own lock: `page_vector` stays held
/// while the closure takes `mem_lock` through the helper.
fn unlocked_keeps_other_locks(shared: &Shared, region: &Region) {
    let mut core = shared.core.lock();
    let _pv = region.page_vector.lock();
    shared.core.unlocked(&mut core, || helper_touches_memory(region));
}

/// Releasing `check` does not release `core`: re-taking `core` in the
/// closure is still reentrant.
fn unlocked_other_lock_is_reentrant(shared: &Shared) {
    let _core = shared.core.lock();
    let mut check = shared.check.lock();
    shared.check.unlocked(&mut check, || takes_core(shared));
}

fn takes_core(shared: &Shared) -> u64 {
    let core = shared.core.lock();
    core.seq
}
