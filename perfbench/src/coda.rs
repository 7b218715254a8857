//! The `coda_client` workload: the Table 2 client shape.
//!
//! One client commits no-restore, no-flush transactions and flushes
//! every 64. Bursts of transactions rewrite one directory object, each a
//! little longer than the last, so a later commit subsumes the earlier
//! ones still in the spool (the inter-transaction optimization), and
//! defensive duplicate `set_range`s give the intra-transaction
//! optimization work. Objects spread over a region four times the log,
//! and incremental truncation keeps writing its pages back.

use std::ops::Range;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use coda_wl::MachineProfile;
use rvm::{CommitMode, TruncationMode, Tuning, TxnMode};

use crate::harness::{self, ClientResult, Env, Instance, Outcome, Rng, Spec};
use crate::trace::{self, Name};

/// The `coda-wl` client profile whose object size, defensive
/// re-declaration intensity, burst length and flush period are used.
const PROFILE: &str = "purcell";
const REGION_LEN: u64 = 32 << 20;
const LOG_LEN: u64 = 8 << 20;
/// Transactions per round, a whole number of flush periods.
const ROUND: u64 = 16 * 1024;
/// Unmeasured rounds first: about 5.5 MiB of log at ~170 bytes per
/// transaction, past the default threshold of half the log.
const WARMUP_ROUNDS: u64 = 2;
/// Longest burst, as in `coda-wl`.
const MAX_BURST: u64 = 64;
const SETUP_REPS: usize = 5;
const REOPENS: usize = 7;

fn profile() -> MachineProfile {
    coda_wl::profiles()
        .into_iter()
        .find(|p| p.name == PROFILE)
        .expect("coda-wl has the profile")
}

fn spec() -> Spec {
    Spec {
        log_len: LOG_LEN,
        segment: "coda.seg",
        region_len: REGION_LEN,
        tuning: Tuning {
            truncation_mode: TruncationMode::Incremental,
            ..Tuning::default()
        },
    }
}

/// One generated transaction: a write at `base` of the bytes
/// `Inputs::bytes[data]`, plus the defensive re-declarations
/// `Inputs::ranges[extras]`.
struct Input {
    base: u64,
    data: Range<usize>,
    extras: Range<usize>,
}

struct Inputs {
    txns: Vec<Input>,
    /// Every transaction's new bytes, back to back.
    bytes: Vec<u8>,
    /// `(offset, len)` of every defensive `set_range`.
    ranges: Vec<(u64, u64)>,
}

/// Inputs of `round`, from the run seed alone; the burst logic follows
/// `coda_wl::run_machine`'s client branch.
fn inputs(p: &MachineProfile, seed: u64, round: u64) -> Inputs {
    let slot = 2 * p.obj_size;
    let objects = REGION_LEN / slot;
    let mut rng = Rng::new(seed, round);
    let mut out = Inputs {
        txns: Vec::with_capacity(ROUND as usize),
        bytes: Vec::new(),
        ranges: Vec::new(),
    };
    let (mut left, mut obj, mut step) = (0u64, 0u64, 0u64);
    for _ in 0..ROUND {
        if left == 0 {
            obj = rng.below(objects);
            step = 0;
            left = 1;
            let end = 1.0 / p.burst_mean.max(1.0);
            while left < MAX_BURST && rng.unit() > end {
                left += 1;
            }
        }
        left -= 1;
        step += 1;
        let base = obj * slot;
        let len = (p.obj_size + step * 8).min(slot);
        let first = out.ranges.len();
        let mut extra = (p.obj_size as f64 * p.dup_intensity) as u64;
        while extra > 0 {
            let l = extra.min(p.obj_size / 2).max(16).min(len);
            out.ranges.push((base + rng.below(len - l + 1), l));
            extra = extra.saturating_sub(l);
        }
        let at = out.bytes.len();
        out.bytes.resize(at + len as usize, 0);
        for chunk in out.bytes[at..].chunks_mut(8) {
            chunk.copy_from_slice(&rng.next_u64().to_le_bytes()[..chunk.len()]);
        }
        out.txns.push(Input {
            base,
            data: at..out.bytes.len(),
            extras: first..out.ranges.len(),
        });
    }
    out
}

/// What the client carries across rounds.
struct State {
    /// Every byte written, at its offset: the expected region image.
    model: Vec<u8>,
    /// Transactions committed so far.
    n: u64,
}

/// The client's closed loop over one round.
fn client(inst: &Instance, p: &MachineProfile, ins: &Inputs, st: &mut State) -> ClientResult {
    let mut r = ClientResult {
        lat_ns: Vec::with_capacity(ins.txns.len()),
        ..ClientResult::default()
    };
    for t in &ins.txns {
        r.attempted += 1;
        let data = &ins.bytes[t.data.clone()];
        let t0 = Instant::now();
        let res = (|| {
            let g = trace::enter(Name::TxnBegin, 0);
            let mut txn = inst.rvm.begin_transaction(TxnMode::NoRestore)?;
            let tid = txn.tid();
            g.set_txn(tid);
            drop(g);
            trace::span(Name::TxnWrite, tid, || {
                inst.region.write(&mut txn, t.base, data)
            })?;
            for &(off, len) in &ins.ranges[t.extras.clone()] {
                trace::span(Name::TxnSetRange, tid, || {
                    txn.set_range(&inst.region, off, len)
                })?;
            }
            trace::span(Name::TxnCommit, tid, || txn.commit(CommitMode::NoFlush))
        })();
        if let Err(e) = res {
            r.error = Some(format!("transaction: {e}"));
            return r;
        }
        r.lat_ns.push(t0.elapsed().as_nanos() as u64);
        st.model[t.base as usize..][..data.len()].copy_from_slice(data);
        r.user_bytes += data.len() as u64;
        st.n += 1;
        if st.n.is_multiple_of(p.flush_every) {
            if let Err(e) = trace::span(Name::RvmFlush, 0, || inst.rvm.flush()) {
                r.error = Some(format!("flush: {e}"));
                return r;
            }
        }
    }
    r
}

/// The oracle: every byte of the reopened region equals the last write
/// to it, all of which were flushed before the clean shutdown.
fn verify(inst: &Instance, model: &[u8]) -> Result<(), String> {
    let img = inst
        .region
        .read_vec(0, REGION_LEN)
        .map_err(|e| format!("oracle read: {e}"))?;
    match img.iter().zip(model).position(|(a, b)| a != b) {
        None => Ok(()),
        Some(at) => Err(format!(
            "oracle: region byte {at} differs from the last flushed write"
        )),
    }
}

/// `coda_client`: rounds of [`ROUND`] transactions until `seconds`.
pub fn client_workload(env: &Env) -> Outcome {
    let p = profile();
    let mut out = Outcome {
        clients: 1,
        txns_per_round: ROUND,
        ..Outcome::default()
    };
    let spec = spec();
    let Some(inst) = harness::timed_setups(env, &spec, SETUP_REPS, &mut out) else {
        return out;
    };
    let state = Mutex::new(State {
        model: vec![0u8; REGION_LEN as usize],
        n: 0,
    });
    let run = |ins: &Inputs| {
        client(
            &inst,
            &p,
            ins,
            &mut state.lock().expect("client state poisoned"),
        )
    };
    // Warm-up: the log passes the truncation threshold, so every
    // measured round runs incremental truncation.
    for round in 0..WARMUP_ROUNDS {
        let ins = inputs(&p, env.seed, round);
        harness::unmeasured_round(&mut out, 1, |_| run(&ins));
    }
    let start = Instant::now();
    let mut round = WARMUP_ROUNDS;
    while out.failed == 0 && start.elapsed() < Duration::from_secs_f64(env.seconds) {
        let ins = inputs(&p, env.seed, round);
        harness::measured_round(env, &inst, &mut out, 1, |_| run(&ins));
        round += 1;
    }
    out.check(
        trace::span(Name::RvmFlush, 0, || inst.rvm.flush()).map_err(|e| format!("flush: {e}")),
    );
    out.check(inst.terminate());
    let model = state.into_inner().expect("client state poisoned").model;
    harness::timed_reopens(env, &spec, REOPENS, &mut out, |i| verify(i, &model));
    out.sanity(out.counts.inter_ratio() > 0.0, "inter.saved_ratio > 0");
    out.sanity(out.counts.intra_ratio() > 0.0, "intra.saved_ratio > 0");
    out.sanity(
        out.counts.incremental_steps > 0,
        "trunc.incremental_steps > 0",
    );
    out
}
