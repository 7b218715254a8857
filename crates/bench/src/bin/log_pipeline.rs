//! Pipelined log writer: flush-commit throughput at pipeline depth 2
//! (asynchronous submission) versus depth 1 (plain group commit), over
//! the virtual disk clock.
//!
//! Each cell boots a fresh RVM over a `circa_1990` simulated log disk
//! and splits a fixed transaction budget across N committer threads on
//! disjoint pages. Both modes share one force per batch; the difference
//! is *when* the force runs. At depth 1 a leader fills, forces, and waits
//! before the next batch may fill. At depth 2 it submits batch A's force
//! and the next leader fills batch B while it spins, so record
//! serialization rides for free inside the force window and queued forces earn the controller's
//! tagged-command discount. The per-cell disk stats expose the
//! mechanism: `overlapped_syncs` counts forces submitted while the
//! mechanism was still busy (always zero for the serial loop), and the
//! interval trace proves at least one force's service span intersected a
//! record transfer on the virtual timeline.
//!
//! Usage: `log_pipeline [--quick] [--check] [--txns N]`
//!
//! Writes `BENCH_log_pipeline.json` (machine-readable, at the repo
//! root) and `results/log_pipeline.txt` (the table). `--check` exits
//! non-zero unless, at 16 threads, the pipelined writer beats grouped
//! (same batch cap) by at least 1.2x and exceeds 748 txn/s — the CI
//! perf-smoke gate.

use std::sync::{Arc, Barrier};

use rvm::segment::DeviceResolver;
use rvm::{CommitMode, Options, Rvm, Tuning, TxnMode, PAGE_SIZE};
use rvm_storage::{MemDevice, NullDevice};
use simclock::Clock;
use simdisk::{DiskOp, DiskParams, SimDisk};

/// Both modes use the same modest batch cap so the comparison isolates
/// pipelining: with the cap below the committer count, consecutive
/// batches exist to overlap at all.
const BATCH_CAP: usize = 8;

/// One measured cell of the sweep.
struct Cell {
    mode: &'static str,
    threads: u64,
    txns: u64,
    io_ms: f64,
    txn_per_s: f64,
    log_forces: u64,
    flush_commits: u64,
    mean_batch: f64,
    pipeline_submits: u64,
    forces_in_flight_hw: u64,
    pipeline_stall_ms: f64,
    overlapped_syncs: u64,
    forces_overlapping_writes: u64,
}

/// Runs `total` flush commits split across `threads` threads, returning
/// the cell. `pipelined` sets `Tuning::log_pipeline_depth` to 2 instead
/// of 1; group commit itself is on in both modes.
fn run_cell(threads: u64, total: u64, pipelined: bool) -> Cell {
    let clock = Clock::new();
    let log = Arc::new(SimDisk::new(
        Arc::new(MemDevice::with_len(256 << 20)),
        clock.clone(),
        DiskParams::circa_1990(),
    ));
    let data = Arc::new(SimDisk::new(
        Arc::new(NullDevice::new(0)),
        clock.clone(),
        DiskParams::circa_1990(),
    ));
    let data_for_resolver: Arc<dyn rvm_storage::Device> = data;
    let resolver: DeviceResolver = Arc::new(move |_name, min_len| {
        if data_for_resolver.len()? < min_len {
            data_for_resolver.set_len(min_len)?;
        }
        Ok(data_for_resolver.clone())
    });
    let tuning = Tuning {
        log_pipeline_depth: if pipelined { 2 } else { 1 },
        group_commit_max_txns: BATCH_CAP,
        // A short accumulation window (wall-clock; the virtual disk is
        // not charged) so concurrent committers reliably share a batch.
        group_commit_wait_us: 300,
        // The resolver aliases every name onto one data disk; checksum
        // sidecars are off so catalog writes cannot land on it.
        segment_checksums: false,
        ..Tuning::default()
    };
    let rvm = Arc::new(
        Rvm::initialize(
            Options::new(log.clone())
                .resolver(resolver)
                .tuning(tuning)
                .create_if_empty(),
        )
        .expect("initialize RVM over simulated devices"),
    );
    let region = rvm
        .map(&rvm::RegionDescriptor::new("bench", 0, threads * PAGE_SIZE))
        .expect("map the benchmark region");

    let before_io = clock.io_time();
    let before_stats = rvm.stats();
    let before_disk = log.stats();
    log.set_interval_trace(true);

    let per_thread = total / threads;
    let barrier = Arc::new(Barrier::new(threads as usize));
    let workers: Vec<_> = (0..threads)
        .map(|t| {
            let rvm = Arc::clone(&rvm);
            let region = region.clone();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                let mut payload = [0u8; 256];
                for i in 0..per_thread {
                    payload[..8].copy_from_slice(&(t * per_thread + i).to_le_bytes());
                    let mut txn = rvm.begin_transaction(TxnMode::Restore).expect("begin");
                    region
                        .write(&mut txn, t * PAGE_SIZE + (i % 8) * 256, &payload)
                        .expect("write");
                    txn.commit(CommitMode::Flush).expect("commit");
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("committer thread");
    }

    // Mechanical overlap evidence from the virtual timeline: forces
    // whose `[start, end)` span intersects a record transfer.
    let intervals = log.take_intervals();
    log.set_interval_trace(false);
    let forces_overlapping_writes = intervals
        .iter()
        .filter(|s| s.op == DiskOp::Sync)
        .filter(|s| {
            intervals
                .iter()
                .any(|w| w.op == DiskOp::Write && s.overlaps(w))
        })
        .count() as u64;

    let txns = per_thread * threads;
    let io_ms = (clock.io_time() - before_io).as_millis_f64();
    let stats = rvm.stats().delta_since(&before_stats);
    let disk = log.stats().delta_since(&before_disk);
    Cell {
        mode: if pipelined { "pipelined" } else { "grouped" },
        threads,
        txns,
        io_ms,
        txn_per_s: txns as f64 / (io_ms / 1000.0),
        log_forces: stats.log_forces,
        flush_commits: stats.flush_commits,
        mean_batch: stats.mean_group_batch(),
        pipeline_submits: stats.pipeline_submits,
        forces_in_flight_hw: stats.forces_in_flight_hw,
        pipeline_stall_ms: stats.pipeline_stall_ns as f64 / 1e6,
        overlapped_syncs: disk.overlapped_syncs,
        forces_overlapping_writes,
    }
}

fn json_cell(c: &Cell) -> String {
    format!(
        concat!(
            "    {{\"mode\": \"{}\", \"threads\": {}, \"txns\": {}, ",
            "\"io_ms\": {:.3}, \"txn_per_s\": {:.2}, \"log_forces\": {}, ",
            "\"flush_commits\": {}, \"mean_batch\": {:.2}, ",
            "\"pipeline_submits\": {}, \"forces_in_flight_hw\": {}, ",
            "\"pipeline_stall_ms\": {:.3}, \"overlapped_syncs\": {}, ",
            "\"forces_overlapping_writes\": {}}}"
        ),
        c.mode,
        c.threads,
        c.txns,
        c.io_ms,
        c.txn_per_s,
        c.log_forces,
        c.flush_commits,
        c.mean_batch,
        c.pipeline_submits,
        c.forces_in_flight_hw,
        c.pipeline_stall_ms,
        c.overlapped_syncs,
        c.forces_overlapping_writes,
    )
}

fn main() {
    let mut total: u64 = 2048;
    let mut threads: Vec<u64> = vec![1, 2, 4, 8, 16];
    let mut check = false;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => {
                total = 512;
                threads = vec![4, 16];
            }
            "--check" => check = true,
            "--txns" => {
                i += 1;
                total = args[i].parse().expect("--txns N");
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    let header = format!(
        "{:<10} {:>7} {:>9} {:>11} {:>8} {:>10} {:>8} {:>8} {:>9} {:>9}",
        "mode",
        "threads",
        "txn/s",
        "io_ms",
        "forces",
        "mean_batch",
        "submits",
        "hw",
        "ovl_sync",
        "ovl_f/w"
    );
    println!("{header}");
    let mut table = String::new();
    table.push_str(&format!(
        "pipelined vs grouped log writer, {total} flush commits per cell, \
         batch cap {BATCH_CAP}, circa-1990 disk\n\n{header}\n"
    ));
    let mut cells: Vec<Cell> = Vec::new();
    for &pipelined in &[false, true] {
        for &t in &threads {
            let c = run_cell(t, total, pipelined);
            let line = format!(
                "{:<10} {:>7} {:>9.1} {:>11.1} {:>8} {:>10.2} {:>8} {:>8} {:>9} {:>9}",
                c.mode,
                c.threads,
                c.txn_per_s,
                c.io_ms,
                c.log_forces,
                c.mean_batch,
                c.pipeline_submits,
                c.forces_in_flight_hw,
                c.overlapped_syncs,
                c.forces_overlapping_writes
            );
            println!("{line}");
            table.push_str(&line);
            table.push('\n');
            cells.push(c);
        }
    }

    let gate_threads = *threads.last().expect("non-empty sweep");
    let find = |mode: &str| {
        cells
            .iter()
            .find(|c| c.mode == mode && c.threads == gate_threads)
    };
    let piped = find("pipelined").expect("pipelined gate cell");
    let grouped = find("grouped").expect("grouped gate cell");
    let speedup = if grouped.txn_per_s > 0.0 {
        piped.txn_per_s / grouped.txn_per_s
    } else {
        0.0
    };
    let summary = format!(
        "\npipelined vs grouped at {gate_threads} threads: {speedup:.2}x \
         ({:.1} vs {:.1} txn/s)\n",
        piped.txn_per_s, grouped.txn_per_s
    );
    println!("{summary}");
    table.push_str(&summary);

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"log_pipeline\",\n");
    json.push_str(&format!("  \"total_txns\": {total},\n"));
    json.push_str(&format!("  \"batch_cap\": {BATCH_CAP},\n"));
    json.push_str("  \"disk\": \"circa_1990\",\n");
    json.push_str(&format!(
        "  \"speedup_at_{gate_threads}_threads\": {speedup:.3},\n"
    ));
    json.push_str(&format!(
        "  \"pipelined_txn_per_s_at_{gate_threads}_threads\": {:.2},\n",
        piped.txn_per_s
    ));
    json.push_str("  \"cells\": [\n");
    let body: Vec<String> = cells.iter().map(json_cell).collect();
    json.push_str(&body.join(",\n"));
    json.push_str("\n  ]\n}\n");
    std::fs::write("BENCH_log_pipeline.json", &json).expect("write JSON");
    std::fs::create_dir_all("results").expect("mkdir results");
    std::fs::write("results/log_pipeline.txt", &table).expect("write table");

    // The overlap claims are structural, not thresholds: check them on
    // every run so a regression cannot hide behind a still-passing
    // throughput number.
    assert!(
        piped.overlapped_syncs > 0,
        "pipelined cell never queued a force behind a busy mechanism"
    );
    assert!(
        piped.forces_overlapping_writes > 0,
        "no pipelined force overlapped record serialization"
    );
    assert_eq!(
        grouped.overlapped_syncs, 0,
        "the serial force loop cannot queue forces"
    );

    if check && (speedup < 1.2 || piped.txn_per_s <= 748.0) {
        eprintln!(
            "FAIL: pipelined@{gate_threads} is {:.1} txn/s at {speedup:.2}x grouped \
             (need > 748 txn/s and >= 1.2x)",
            piped.txn_per_s
        );
        std::process::exit(1);
    }
}
