//! What the workloads share: opening an instance on probed files, closed
//! client loops, per-round measurement windows and the run outcome.

use std::sync::Arc;
use std::time::Instant;

use rvm::{Options, Region, RegionDescriptor, Rvm, StatsSnapshot, Tuning};
use rvm_storage::FileDevice;

use crate::disk::Disk;
use crate::probe::{Counters, DevCounts, Probe};
use crate::trace::{self, Name};
use crate::{summary, sys};

/// Where a run keeps its files and how it is seeded.
pub struct Env {
    pub disk: Arc<Disk>,
    pub seed: u64,
    /// Seconds of measured rounds (or restart cycles).
    pub seconds: f64,
    pub counters: Arc<Counters>,
}

/// The files and tuning of one workload's instance.
pub struct Spec {
    pub log_len: u64,
    pub segment: &'static str,
    pub region_len: u64,
    pub tuning: Tuning,
}

/// A live instance on probed files.
pub struct Instance {
    pub rvm: Rvm,
    pub region: Region,
    pub probe: Probe,
}

const LOG_FILE: &str = "rvm.log";

impl Instance {
    /// Creates fresh files and maps the region; returns the set-up time.
    pub fn create(env: &Env, spec: &Spec) -> Result<(Instance, f64), String> {
        env.disk.clear();
        let t0 = Instant::now();
        let log = FileDevice::create(Self::log_path(env)?, spec.log_len)
            .map_err(|e| format!("log file: {e}"))?;
        let inst = Self::start(env, spec, log)?;
        Ok((inst, t0.elapsed().as_secs_f64()))
    }

    /// Reopens existing files, running recovery; returns the time until
    /// the region is mapped and readable.
    pub fn open(env: &Env, spec: &Spec) -> Result<(Instance, f64), String> {
        let t0 = Instant::now();
        let log = FileDevice::open(Self::log_path(env)?).map_err(|e| format!("log file: {e}"))?;
        let inst = Self::start(env, spec, log)?;
        Ok((inst, t0.elapsed().as_secs_f64()))
    }

    fn log_path(env: &Env) -> Result<String, String> {
        env.disk
            .path(LOG_FILE)
            .map_err(|e| format!("log file: {e}"))
    }

    fn start(env: &Env, spec: &Spec, log: FileDevice) -> Result<Instance, String> {
        let probe = Probe::new(env.counters.clone());
        let options = Options::new(probe.log(Arc::new(log)))
            .resolver(probe.resolver(env.disk.clone()))
            .tuning(spec.tuning)
            .create_if_empty();
        let rvm = trace::span(Name::RvmInitialize, 0, || Rvm::initialize(options))
            .map_err(|e| format!("initialize: {e}"))?;
        let desc = RegionDescriptor::new(spec.segment, 0, spec.region_len);
        let region =
            trace::span(Name::RvmMap, 0, || rvm.map(&desc)).map_err(|e| format!("map: {e}"))?;
        trace::flush_thread();
        Ok(Instance { rvm, region, probe })
    }

    /// Clean shutdown: flushes the spool and writes the status block.
    pub fn terminate(self) -> Result<(), String> {
        drop(self.region);
        self.rvm
            .terminate()
            .map_err(|f| format!("terminate: {}", f.error))
    }

    /// Stops as a crash would: the fence keeps every later write (final
    /// status block, spool flush) off the files, then the instance drops.
    pub fn crash(self) {
        self.probe.crash();
    }
}

/// Sets up `reps` fresh instances, timing each, and keeps the last.
pub fn timed_setups(env: &Env, spec: &Spec, reps: usize, out: &mut Outcome) -> Option<Instance> {
    let mut kept: Option<Instance> = None;
    for _ in 0..reps {
        if let Some(previous) = kept.take() {
            out.check(previous.terminate());
        }
        match Instance::create(env, spec) {
            Ok((inst, s)) => {
                out.setup_s.push(s);
                kept = Some(inst);
            }
            Err(e) => {
                out.fail(format!("set-up: {e}"));
                return None;
            }
        }
    }
    kept
}

/// After a clean shutdown, reopens the files `reps` times, timing each;
/// the first reopen runs the workload's oracle.
pub fn timed_reopens(
    env: &Env,
    spec: &Spec,
    reps: usize,
    out: &mut Outcome,
    oracle: impl Fn(&Instance) -> Result<(), String>,
) {
    for rep in 0..reps {
        match Instance::open(env, spec) {
            Ok((inst, s)) => {
                out.recovery_s.push(s);
                if rep == 0 {
                    out.check(oracle(&inst));
                }
                out.check(inst.terminate());
            }
            Err(e) => out.fail(format!("reopen: {e}")),
        }
    }
}

/// The library counters a window accumulates, summed across instances.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counts {
    pub txns: u64,
    pub bytes_logged: u64,
    pub bytes_saved_intra: u64,
    pub bytes_saved_inter: u64,
    pub log_forces: u64,
    pub group_batches: u64,
    pub group_txns: u64,
    pub epochs: u64,
    pub incremental_steps: u64,
    pub pages_written: u64,
    pub trunc_bytes_applied: u64,
    pub trunc_stall_ns: u64,
    pub core_locks: u64,
}

impl Counts {
    fn add(&mut self, d: &StatsSnapshot, core_locks: u64) {
        self.txns += d.txns_committed;
        self.bytes_logged += d.bytes_logged;
        self.bytes_saved_intra += d.bytes_saved_intra;
        self.bytes_saved_inter += d.bytes_saved_inter;
        self.log_forces += d.log_forces;
        self.group_batches += d.group_commit_batches;
        self.group_txns += d.group_commit_txns;
        self.epochs += d.epoch_truncations;
        self.incremental_steps += d.incremental_steps;
        self.pages_written += d.pages_written_incremental;
        self.trunc_bytes_applied += d.truncation_bytes_applied;
        self.trunc_stall_ns += d.truncation_stall_ns;
        self.core_locks += core_locks;
    }

    /// Table 2's intra-transaction savings fraction.
    pub fn intra_ratio(&self) -> f64 {
        ratio(self.bytes_saved_intra, self.original_bytes())
    }

    /// Table 2's inter-transaction savings fraction.
    pub fn inter_ratio(&self) -> f64 {
        ratio(self.bytes_saved_inter, self.original_bytes())
    }

    fn original_bytes(&self) -> u64 {
        self.bytes_logged + self.bytes_saved_intra + self.bytes_saved_inter
    }
}

pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Everything a workload run measured and checked.
#[derive(Default)]
pub struct Outcome {
    pub clients: usize,
    /// Transactions each client commits per round (restart: per cycle).
    pub txns_per_round: u64,
    pub setup_s: Vec<f64>,
    pub recovery_s: Vec<f64>,
    /// Every measured round, in order.
    pub rounds: Vec<Round>,
    /// Latency of every measured transaction, begin to commit return.
    pub lat: summary::Hist,
    /// Transactions committed inside measured rounds.
    pub committed: u64,
    /// Bytes passed to `Region::write` inside measured rounds.
    pub user_bytes: u64,
    /// Device traffic inside measured rounds.
    pub dev: DevCounts,
    /// Library counters inside measured rounds.
    pub counts: Counts,
    /// Report of the first recovery after the measured rounds.
    pub recovery_records: u64,
    pub recovery_bytes_applied: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Oracle and sanity failures, in words.
    pub problems: Vec<String>,
}

impl Outcome {
    /// Records a failed operation or check.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        self.problems.push(what);
    }

    /// Runs one oracle check, counting it as an attempted operation.
    pub fn check(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.fail(e);
        }
    }

    /// Fails the run when a counter the workload must exercise reads
    /// zero (or an ordering between two counters does not hold).
    pub fn sanity(&mut self, ok: bool, what: &str) {
        if !ok {
            self.problems.push(format!("sanity: {what}"));
        }
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }
}

/// The statistics of one measured round. End-to-end timings are medians
/// over a run's rounds, so a few seconds of a noisy device in one round
/// do not decide the run.
#[derive(Clone, Copy, Debug)]
pub struct Round {
    /// Committed transactions per wall-clock second.
    pub tps: f64,
    pub p50_us: f64,
    pub p99_us: f64,
    /// Process CPU microseconds per committed transaction.
    pub cpu_us_per_txn: f64,
}

/// What one client did in one round.
#[derive(Default)]
pub struct ClientResult {
    pub lat_ns: Vec<u64>,
    pub attempted: u64,
    pub user_bytes: u64,
    pub error: Option<String>,
}

/// Runs `clients` closed-loop clients to completion as one measured
/// round, adding its throughput, latencies, CPU, device traffic and
/// library counters to `out`.
pub fn measured_round<F>(env: &Env, inst: &Instance, out: &mut Outcome, clients: usize, client: F)
where
    F: Fn(usize) -> ClientResult + Sync,
{
    let stats0 = inst.rvm.stats();
    let locks0 = inst.rvm.core_lock_acquisitions();
    let dev0 = env.counters.snapshot();
    let cpu0 = sys::cpu_seconds();
    let t0 = Instant::now();
    let results = run_clients(clients, client);
    let wall = t0.elapsed().as_secs_f64();
    out.dev = out.dev.plus(&env.counters.snapshot().since(&dev0));
    let locks = inst.rvm.core_lock_acquisitions() - locks0;
    out.counts
        .add(&inst.rvm.stats().delta_since(&stats0), locks);
    let cpu = sys::cpu_seconds() - cpu0;
    let mut lat = Vec::new();
    for r in results {
        out.attempted += r.attempted;
        out.user_bytes += r.user_bytes;
        lat.extend(r.lat_ns);
        if let Some(e) = r.error {
            out.fail(e);
        }
    }
    let committed = lat.len() as u64;
    out.committed += committed;
    lat.sort_unstable();
    if summary::supported(lat.len(), 99.0) {
        out.rounds.push(Round {
            tps: committed as f64 / wall,
            p50_us: summary::percentile(&lat, 50.0) as f64 * 1e-3,
            p99_us: summary::percentile(&lat, 99.0) as f64 * 1e-3,
            cpu_us_per_txn: cpu * 1e6 / committed as f64,
        });
    } else {
        out.sanity(
            false,
            "every measured round has >= 10 samples beyond its p99",
        );
    }
    lat.iter().for_each(|&v| out.lat.record(v));
}

/// Runs an unmeasured round (warm-up), keeping only its failures.
pub fn unmeasured_round<F>(out: &mut Outcome, clients: usize, client: F)
where
    F: Fn(usize) -> ClientResult + Sync,
{
    for r in run_clients(clients, client) {
        out.attempted += r.attempted;
        if let Some(e) = r.error {
            out.fail(e);
        }
    }
}

fn run_clients<F>(clients: usize, client: F) -> Vec<ClientResult>
where
    F: Fn(usize) -> ClientResult + Sync,
{
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let client = &client;
                s.spawn(move || {
                    let r = trace::span(Name::ClientRound, 0, || client(c));
                    trace::flush_thread();
                    r
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

/// Deterministic generator for workload inputs (SplitMix64).
pub struct Rng(u64);

impl Rng {
    /// A stream for `(seed, stream)`; distinct streams do not overlap in
    /// practice.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n > 0).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}
