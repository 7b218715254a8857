//! The TPC-A workloads: `tpca_flush` (the paper's Table 1 and Figure 9
//! load) and `restart` (the same transactions, then a crash and a timed
//! recovery).
//!
//! Each transaction reads and rewrites a random account, a teller and
//! the branch balance, and appends an audit record. RVM leaves
//! serializability to the application (§3.1): two uncommitted
//! transactions that declared the same bytes may log their copies in the
//! opposite order to their writes. So each client owns the accounts and
//! tellers of its parity and its half of the branch record, and the
//! branch balance is the sum of the halves. The clients then share no
//! byte and need no lock across `commit`, and their flush commits can
//! share a log force.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use rvm::{CommitMode, Tuning, TxnMode};
use tpca::{
    AccessPattern, TpcaLayout, TpcaWorkload, ACCOUNT_SIZE, AUDIT_SIZE, BRANCH_SIZE, NUM_TELLERS,
};

use crate::harness::{self, ClientResult, Env, Instance, Outcome, Rng, Spec};
use crate::probe::{Op, Role};
use crate::trace::{self, Name};

/// 32 Ki accounts: an 8 MiB region (the first row of Table 1).
const ACCOUNTS: u64 = 32 * 1024;
/// Larger than the region, as in the paper's runs.
const LOG_LEN: u64 = 32 << 20;
/// Partitions of the bank: at most this many clients.
const PARTS: usize = 2;
/// `tpca_flush` runs a client per partition, so flush commits can share
/// a force.
const FLUSH_CLIENTS: usize = 2;
/// `restart` only needs the log the transactions leave; one client keeps
/// its commit-phase latencies free of the two clients' leader/follower
/// hand-offs, whose mix swings the median from round to round.
const RESTART_CLIENTS: usize = 1;
/// Transactions per client per round. A TPC-A record pads to 1 KiB of
/// log, so a round of both clients fills half the record area — the
/// default truncation threshold — and every measured round runs one
/// epoch truncation.
const FLUSH_ROUND: u64 = 8 * 1024;
/// Unmeasured rounds before the measured ones: two fill the whole log.
const WARMUP_ROUNDS: u64 = 2;
/// Transactions per restart cycle: three eighths of the log, so no
/// truncation runs before the crash.
const RESTART_ROUND: u64 = 12 * 1024;
/// Set-ups timed per run; the last one is used.
const SETUP_REPS: usize = 5;
/// Clean reopens timed after a `tpca_flush` run.
const REOPENS: usize = 7;
/// Unmeasured restart cycles before the measured ones.
const WARMUP_CYCLES: u64 = 4;
/// Measured restart cycles run even when `--seconds` is shorter.
const MIN_CYCLES: u64 = 3;

fn layout() -> TpcaLayout {
    TpcaLayout::new(ACCOUNTS)
}

fn spec() -> Spec {
    Spec {
        log_len: LOG_LEN,
        segment: "tpca.seg",
        region_len: layout().total_len(),
        tuning: Tuning::default(),
    }
}

/// One generated transaction, inside its client's partition.
#[derive(Clone, Copy)]
struct Input {
    account: u64,
    teller: u64,
    delta: i64,
}

/// Inputs of `round` for each of `clients`, from the run seed alone.
fn inputs(seed: u64, round: u64, clients: usize, per_client: u64) -> Vec<Vec<Input>> {
    (0..clients as u64)
        .map(|c| {
            let stream = round * PARTS as u64 + c;
            let mut accounts = TpcaWorkload::new(layout(), AccessPattern::Random, seed ^ stream);
            let mut rng = Rng::new(seed, stream);
            (0..per_client)
                .map(|_| {
                    let t = accounts.next_txn();
                    Input {
                        account: t.account - t.account % PARTS as u64 + c,
                        teller: t.teller - t.teller % PARTS as u64 + c,
                        delta: rng.below(199_999) as i64 - 99_999,
                    }
                })
                .collect()
        })
        .collect()
}

const REC: usize = ACCOUNT_SIZE as usize;
const AUDIT: usize = AUDIT_SIZE as usize;
/// Each client's part of the branch record.
const SHARE: usize = BRANCH_SIZE as usize / PARTS;
/// Bytes each transaction passes to `Region::write`.
const USER_BYTES: u64 = 2 * ACCOUNT_SIZE + SHARE as u64 + AUDIT_SIZE;

fn share_offset(client: usize) -> u64 {
    layout().branch_offset() + (client * SHARE) as u64
}

/// What the bank's records must hold after the acknowledged commits.
struct Model {
    accounts: Vec<i64>,
    tellers: [i64; NUM_TELLERS as usize],
    shares: [i64; PARTS],
    acked: u64,
}

/// The application state the clients share across rounds and restarts.
struct Bank {
    model: Mutex<Model>,
    /// Sequence number of the latest audit record handed out.
    audit_seq: AtomicU64,
}

impl Bank {
    fn new() -> Self {
        Bank {
            model: Mutex::new(Model {
                accounts: vec![0; ACCOUNTS as usize],
                tellers: [0; NUM_TELLERS as usize],
                shares: [0; PARTS],
                acked: 0,
            }),
            audit_seq: AtomicU64::new(0),
        }
    }
}

fn word(buf: &[u8], at: usize) -> i64 {
    i64::from_le_bytes(buf[at..at + 8].try_into().expect("8-byte field"))
}

fn set_word(buf: &mut [u8], at: usize, v: i64) {
    buf[at..at + 8].copy_from_slice(&v.to_le_bytes());
}

/// Runs one TPC-A transaction for `client` with a flush commit.
fn transaction(inst: &Instance, bank: &Bank, client: usize, t: Input) -> rvm::Result<()> {
    let (l, region) = (layout(), &inst.region);
    let g = trace::enter(Name::TxnBegin, 0);
    let mut txn = inst.rvm.begin_transaction(TxnMode::Restore)?;
    let tid = txn.tid();
    g.set_txn(tid);
    drop(g);
    // Relaxed: the number only has to be unique.
    let seq = bank.audit_seq.fetch_add(1, Ordering::Relaxed) + 1;
    let records = [
        (l.account_offset(t.account), REC),
        (l.teller_offset(t.teller), REC),
        (share_offset(client), SHARE),
    ];
    for (off, len) in records {
        let mut buf = [0u8; REC];
        let rec = &mut buf[..len];
        trace::span(Name::TxnRead, tid, || region.read(off, rec))?;
        let balance = word(rec, 0) + t.delta;
        set_word(rec, 0, balance);
        set_word(rec, 8, seq as i64);
        trace::span(Name::TxnWrite, tid, || region.write(&mut txn, off, rec))?;
    }
    let mut audit = [0u8; AUDIT];
    for (i, v) in [seq as i64, t.account as i64, t.teller as i64, t.delta]
        .into_iter()
        .enumerate()
    {
        set_word(&mut audit, 8 * i, v);
    }
    let slot = l.audit_slot_offset(seq - 1);
    trace::span(Name::TxnWrite, tid, || region.write(&mut txn, slot, &audit))?;
    trace::span(Name::TxnCommit, tid, || txn.commit(CommitMode::Flush))
}

/// One client's closed loop over its inputs.
fn client(inst: &Instance, bank: &Bank, c: usize, inputs: &[Input]) -> ClientResult {
    let mut r = ClientResult {
        lat_ns: Vec::with_capacity(inputs.len()),
        ..ClientResult::default()
    };
    for &t in inputs {
        r.attempted += 1;
        let t0 = Instant::now();
        if let Err(e) = transaction(inst, bank, c, t) {
            r.error = Some(format!("transaction: {e}"));
            break;
        }
        r.lat_ns.push(t0.elapsed().as_nanos() as u64);
        r.user_bytes += USER_BYTES;
        let mut m = bank.model.lock().expect("bank model poisoned");
        m.accounts[t.account as usize] += t.delta;
        m.tellers[t.teller as usize] += t.delta;
        m.shares[c] += t.delta;
        m.acked += 1;
    }
    r
}

/// The oracle: the branch balance equals the sum of the tellers and of
/// the accounts, every balance equals the acknowledged commits' effect,
/// and the audit trail holds one record per acknowledged commit.
fn verify(inst: &Instance, bank: &Bank) -> Result<(), String> {
    let l = layout();
    let m = bank.model.lock().expect("bank model poisoned");
    let img = inst
        .region
        .read_vec(0, l.total_len())
        .map_err(|e| format!("oracle read: {e}"))?;
    let bal = |off: u64| word(&img, off as usize);
    let accounts: Vec<i64> = (0..ACCOUNTS).map(|a| bal(l.account_offset(a))).collect();
    let tellers: Vec<i64> = (0..NUM_TELLERS).map(|t| bal(l.teller_offset(t))).collect();
    let shares: Vec<i64> = (0..PARTS).map(|c| bal(share_offset(c))).collect();
    let branch: i64 = shares.iter().sum();
    let (sum_a, sum_t) = (accounts.iter().sum::<i64>(), tellers.iter().sum::<i64>());
    if branch != sum_t || branch != sum_a {
        return Err(format!(
            "oracle: branch {branch}, tellers {sum_t}, accounts {sum_a}"
        ));
    }
    if accounts != m.accounts || tellers != m.tellers || shares != m.shares {
        return Err("oracle: balances differ from the acknowledged commits".into());
    }
    let slots = l.num_audit_slots;
    let audits = (0..slots)
        .map(|s| bal(l.audit_slot_offset(s)) as u64)
        .max()
        .unwrap_or(0);
    if audits != m.acked {
        return Err(format!(
            "oracle: audit trail holds {audits} records, {} commits acknowledged",
            m.acked
        ));
    }
    for seq in m.acked.saturating_sub(slots) + 1..=m.acked {
        if bal(l.audit_slot_offset(seq - 1)) as u64 != seq {
            return Err(format!("oracle: audit record {seq} missing"));
        }
    }
    Ok(())
}

/// Runs a round of `inputs` against `inst`, measured or not.
fn round(
    env: &Env,
    inst: &Instance,
    bank: &Bank,
    inputs: &[Vec<Input>],
    out: &mut Outcome,
    measured: bool,
) {
    let run = |c: usize| client(inst, bank, c, &inputs[c]);
    if measured {
        harness::measured_round(env, inst, out, inputs.len(), run);
    } else {
        harness::unmeasured_round(out, inputs.len(), run);
    }
}

/// `tpca_flush`: two clients, restore-mode flush commits, random
/// accounts, epoch truncation; closed loop in rounds until `seconds`.
pub fn flush(env: &Env) -> Outcome {
    let mut out = Outcome {
        clients: FLUSH_CLIENTS,
        txns_per_round: FLUSH_ROUND,
        ..Outcome::default()
    };
    let spec = spec();
    let Some(inst) = harness::timed_setups(env, &spec, SETUP_REPS, &mut out) else {
        return out;
    };
    let bank = Bank::new();
    // Warm-up: the log wraps once and the first epoch runs before the
    // measured rounds.
    for n in 0..WARMUP_ROUNDS {
        round(
            env,
            &inst,
            &bank,
            &inputs(env.seed, n, FLUSH_CLIENTS, FLUSH_ROUND),
            &mut out,
            false,
        );
    }
    let start = Instant::now();
    let mut n = WARMUP_ROUNDS;
    while out.failed == 0 && start.elapsed() < Duration::from_secs_f64(env.seconds) {
        let ins = inputs(env.seed, n, FLUSH_CLIENTS, FLUSH_ROUND);
        round(env, &inst, &bank, &ins, &mut out, true);
        n += 1;
    }
    out.check(inst.terminate());
    harness::timed_reopens(env, &spec, REOPENS, &mut out, |i| verify(i, &bank));
    let syncs = out.dev.calls(Role::Log, Op::Sync);
    let batches = out.counts.group_batches;
    out.sanity(
        syncs >= batches && batches > 0,
        "log syncs >= group batches > 0",
    );
    out.sanity(out.counts.epochs > 0, "trunc.epochs > 0");
    out
}

/// `restart`: per cycle, a fixed count of `tpca_flush` transactions, a
/// crash, then a timed recovery and the oracle. The recovered instance
/// carries the bank into the next cycle.
pub fn restart(env: &Env) -> Outcome {
    let mut out = Outcome {
        clients: RESTART_CLIENTS,
        txns_per_round: RESTART_ROUND,
        ..Outcome::default()
    };
    let spec = spec();
    let Some(mut inst) = harness::timed_setups(env, &spec, SETUP_REPS, &mut out) else {
        return out;
    };
    let bank = Bank::new();
    let mut start = None;
    let mut cycle = 0;
    while out.failed == 0 {
        let measured = cycle >= WARMUP_CYCLES;
        if measured {
            let start = *start.get_or_insert_with(Instant::now);
            if cycle >= WARMUP_CYCLES + MIN_CYCLES
                && start.elapsed() >= Duration::from_secs_f64(env.seconds)
            {
                break;
            }
        }
        round(
            env,
            &inst,
            &bank,
            &inputs(env.seed, cycle, RESTART_CLIENTS, RESTART_ROUND),
            &mut out,
            measured,
        );
        inst.crash();
        inst = match Instance::open(env, &spec) {
            Ok((i, s)) => recovered(&mut out, i, s, measured),
            Err(e) => {
                out.fail(format!("recovery: {e}"));
                return out;
            }
        };
        out.check(verify(&inst, &bank));
        cycle += 1;
    }
    out.check(inst.terminate());
    out
}

/// Records what the recovery that produced `inst` took and did.
fn recovered(out: &mut Outcome, inst: Instance, secs: f64, measured: bool) -> Instance {
    let report = inst.rvm.recovery_report();
    out.sanity(report.records_replayed > 0, "recovery.records > 0");
    if measured {
        if out.recovery_s.is_empty() {
            out.recovery_records = report.records_replayed as u64;
            out.recovery_bytes_applied = report.bytes_applied;
        }
        out.recovery_s.push(secs);
    }
    inst
}
