//! Wall-clock benchmark of RVM on real files.
//!
//! `rvm-perfbench --workload <tpca_flush|coda_client|restart> --seed <n>
//! --seconds <s> --trace <0|1>` runs one workload through the library's
//! public API and prints, as its last line, one JSON object with the
//! run's correctness, operation counts and metrics: the end-to-end
//! metrics with `--trace 0`, the per-layer ledger with `--trace 1`. The
//! line before it carries the run's metadata. The exit code is 0 only
//! when every oracle and sanity check passed. See `README.md` beside
//! this crate for why each workload exists and which layer metric should
//! move which end-to-end metric.

mod bank;
mod coda;
mod disk;
mod harness;
mod probe;
mod summary;
mod sys;
mod trace;

use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::sync::Arc;

use disk::Disk;
use harness::{ratio, Env, Outcome};
use probe::{Counters, DevCounts, Op, Role};
use trace::{Block, Name};

const WORKLOADS: [&str; 3] = ["tpca_flush", "coda_client", "restart"];

/// Where traced runs write their spans, relative to the working
/// directory.
const TRACE_DIR: &str = ".bench_data";

/// Longest traced phase: a fast workload records over a million spans a
/// second, each about 40 bytes in memory and 75 in the span file.
const MAX_TRACED_SECONDS: f64 = 2.0;

/// Share of client busy time that the traced calls may leave unaccounted
/// (the client's own bookkeeping between calls) before a traced run
/// fails its reconciliation.
const RECONCILE_TOLERANCE: f64 = 0.15;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut flags = HashMap::new();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag}"))?
            .to_string();
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(key, value);
    }
    let mut take = |k: &str| flags.remove(k).ok_or_else(|| format!("missing --{k}"));
    let workload = take("workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seed = take("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = take("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match take("trace")?.as_str() {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, not {t}")),
    };
    if let Some(k) = flags.keys().next() {
        return Err(format!("unknown flag --{k}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn run_workload(workload: &str, env: &Env) -> Outcome {
    match workload {
        "tpca_flush" => bank::flush(env),
        "coda_client" => coda::client_workload(env),
        "restart" => bank::restart(env),
        _ => unreachable!("workload names are checked when parsed"),
    }
}

/// Runs the workload on fresh memory files.
fn run_once(args: &Args, seconds: f64) -> (Outcome, DevCounts) {
    let counters = Arc::new(Counters::default());
    let env = Env {
        disk: Arc::new(Disk::default()),
        seed: args.seed,
        seconds,
        counters: counters.clone(),
    };
    (run_workload(&args.workload, &env), counters.snapshot())
}

struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
}

fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
    }
}

fn secs(ns: u64) -> f64 {
    ns as f64 * 1e-9
}

/// Median over the measured rounds of one round statistic.
fn round_median(out: &Outcome, f: impl Fn(&harness::Round) -> f64) -> f64 {
    let v: Vec<f64> = out.rounds.iter().map(f).collect();
    if v.is_empty() {
        0.0
    } else {
        summary::median(&v)
    }
}

/// The end-to-end metrics of an untraced run.
fn end_to_end(out: &mut Outcome) -> Vec<Metric> {
    out.sanity(!out.rounds.is_empty(), "measured rounds > 0");
    let med = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            summary::median(v)
        }
    };
    vec![
        metric("txn_per_s", "1/s", round_median(out, |r| r.tps)),
        metric("txn_p50_us", "us", round_median(out, |r| r.p50_us)),
        metric("txn_p99_us", "us", round_median(out, |r| r.p99_us)),
        metric(
            "cpu_us_per_txn",
            "us",
            round_median(out, |r| r.cpu_us_per_txn),
        ),
        metric(
            "write_amp",
            "ratio",
            ratio(out.dev.written(), out.user_bytes),
        ),
        metric("recovery_s", "s", med(&out.recovery_s)),
        metric("setup_s", "s", med(&out.setup_s)),
        metric("peak_rss_mb", "MB", sys::peak_rss_mb()),
    ]
}

/// Span totals of one name.
#[derive(Default, Clone, Copy)]
struct Totals {
    calls: u64,
    busy_ns: u64,
    self_ns: u64,
}

/// The per-layer ledger of a traced run. `dev` counts the traced phase's
/// device traffic; `blocks` are its spans; `untraced_tps` is the
/// throughput of the untraced phase that preceded it.
fn ledger(out: &mut Outcome, blocks: &[Block], dev: &DevCounts, untraced_tps: f64) -> Vec<Metric> {
    let mut totals: HashMap<Name, Totals> = HashMap::new();
    let mut foreground_ns = 0;
    for block in blocks {
        let self_ns = trace::self_times(&block.spans);
        for (span, own) in block.spans.iter().zip(self_ns) {
            let t = totals.entry(span.name).or_default();
            t.calls += 1;
            t.busy_ns += span.duration_ns();
            t.self_ns += own;
            let under_commit_path = span.parent.is_some_and(|p| {
                matches!(
                    block.spans[p as usize].name,
                    Name::TxnCommit | Name::RvmFlush
                )
            });
            if let Name::Dev(Role::Seg | Role::Sums, _) = span.name {
                if under_commit_path {
                    foreground_ns += span.duration_ns();
                }
            }
        }
    }
    let get = |n: Name| totals.get(&n).copied().unwrap_or_default();
    let mut m = Vec::new();
    for call in Name::CALLS {
        let t = get(call);
        let name = call.as_str();
        m.push(metric(format!("{name}.calls"), "count", t.calls as f64));
        m.push(metric(format!("{name}.busy_s"), "s", secs(t.busy_ns)));
        m.push(metric(format!("{name}.self_s"), "s", secs(t.self_ns)));
    }
    for role in Role::ALL {
        for op in Op::ALL {
            let name = Name::Dev(role, op).as_str();
            m.push(metric(
                format!("{name}.calls"),
                "count",
                dev.calls(role, op) as f64,
            ));
            if op != Op::Sync {
                m.push(metric(
                    format!("{name}.bytes"),
                    "B",
                    dev.bytes(role, op) as f64,
                ));
            }
            m.push(metric(
                format!("{name}.s"),
                "s",
                secs(get(Name::Dev(role, op)).busy_ns),
            ));
        }
    }
    let c = out.counts;
    m.extend([
        metric("log.bytes_per_txn", "B", ratio(c.bytes_logged, c.txns)),
        metric("core.locks_per_txn", "count", ratio(c.core_locks, c.txns)),
        metric("log.forces_per_txn", "count", ratio(c.log_forces, c.txns)),
        metric(
            "group.mean_batch",
            "count",
            ratio(c.group_txns, c.group_batches),
        ),
        metric("inter.saved_ratio", "ratio", c.inter_ratio()),
        metric("intra.saved_ratio", "ratio", c.intra_ratio()),
        metric("trunc.epochs", "count", c.epochs as f64),
        metric(
            "trunc.incremental_steps",
            "count",
            c.incremental_steps as f64,
        ),
        metric("trunc.pages_written", "count", c.pages_written as f64),
        metric("trunc.bytes_applied", "B", c.trunc_bytes_applied as f64),
        metric("trunc.stall_s", "s", secs(c.trunc_stall_ns)),
        metric("trunc.foreground_s", "s", secs(foreground_ns)),
        metric("recovery.records", "count", out.recovery_records as f64),
        metric(
            "recovery.bytes_applied",
            "B",
            out.recovery_bytes_applied as f64,
        ),
    ]);
    let round = get(Name::ClientRound);
    let unaccounted = ratio(round.self_ns, round.busy_ns);
    if unaccounted > RECONCILE_TOLERANCE {
        out.sanity(
            false,
            &format!("trace: {unaccounted:.3} of client busy time outside traced calls (tolerance {RECONCILE_TOLERANCE})"),
        );
    }
    let traced_tps = round_median(out, |r| r.tps);
    m.extend([
        metric("client.busy_s", "s", secs(round.busy_ns)),
        metric("trace.unaccounted_ratio", "ratio", unaccounted),
        metric(
            "tracing_overhead",
            "ratio",
            if traced_tps > 0.0 {
                untraced_tps / traced_tps - 1.0
            } else {
                0.0
            },
        ),
    ]);
    m
}

/// Writes every span as CSV: one line per span, parents by index within
/// the same thread.
fn write_spans(path: &Path, blocks: &[Block]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "thread,index,parent,name,start_ns,end_ns,txn")?;
    for b in blocks {
        for (i, s) in b.spans.iter().enumerate() {
            let parent = s.parent.map_or(String::new(), |p| p.to_string());
            writeln!(
                w,
                "{},{i},{parent},{},{},{},{}",
                b.thread,
                s.name.as_str(),
                s.start_ns,
                s.end_ns,
                s.txn
            )?;
        }
    }
    w.flush()
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit Rust's shortest round-trip form has.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn json_obj(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Run facts printed on the line before the result. Latency fields here
/// pool every measured transaction; the metrics are medians over rounds.
fn metadata(args: &Args, out: &Outcome, fs: &str) -> String {
    let lat = &out.lat;
    let pct_fields = |p: f64| {
        let value = if lat.len() == 0 {
            0.0
        } else {
            lat.percentile(p) as f64 * 1e-3
        };
        json_obj(&[
            ("us", json_num(value)),
            ("samples", lat.len().to_string()),
            (
                "samples_beyond",
                summary::beyond(lat.len().max(1), p).to_string(),
            ),
        ])
    };
    let per_round = |f: fn(&harness::Round) -> f64| {
        let v: Vec<String> = out.rounds.iter().map(|r| format!("{:.1}", f(r))).collect();
        format!("[{}]", v.join(", "))
    };
    let problems: Vec<String> = out.problems.iter().map(|p| json_str(p)).collect();
    let meta = json_obj(&[
        ("workload", json_str(&args.workload)),
        ("seed", args.seed.to_string()),
        ("seconds", json_num(args.seconds)),
        ("trace", (args.trace as u8).to_string()),
        ("host", json_str(&sys::hostname())),
        (
            "hw_threads",
            std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .to_string(),
        ),
        ("data_files", json_str("memfd")),
        ("data_fs", json_str(fs)),
        (
            "build_profile",
            json_str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("clients", out.clients.to_string()),
        ("txns_per_client_per_round", out.txns_per_round.to_string()),
        ("rounds", out.rounds.len().to_string()),
        ("round_txn_per_s", per_round(|r| r.tps)),
        ("round_p50_us", per_round(|r| r.p50_us)),
        ("round_p99_us", per_round(|r| r.p99_us)),
        ("round_cpu_us", per_round(|r| r.cpu_us_per_txn)),
        ("txns_committed", out.committed.to_string()),
        ("pooled_p50", pct_fields(50.0)),
        ("pooled_p99", pct_fields(99.0)),
        (
            "txn_tail",
            match lat.tail() {
                Some((p, v)) => {
                    json_obj(&[("pct", json_num(p)), ("us", json_num(v as f64 * 1e-3))])
                }
                None => "null".into(),
            },
        ),
        ("setup_samples", out.setup_s.len().to_string()),
        ("recovery_samples", out.recovery_s.len().to_string()),
        (
            "error_rate",
            json_num(ratio(out.failed, out.attempted.max(1))),
        ),
        ("problems", format!("[{}]", problems.join(", "))),
    ]);
    json_obj(&[("meta", meta)])
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rvm-perfbench: {e}");
            eprintln!(
                "usage: rvm-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    sys::fix_mmap_threshold();
    let fs = Disk::default()
        .path("fs-probe")
        .map_or_else(|_| "unknown".into(), |p| sys::fs_kind(Path::new(&p)));
    let (mut out, metrics) = if args.trace {
        // The untraced rest of the time gives the overhead baseline.
        let traced = (args.seconds / 2.0).min(MAX_TRACED_SECONDS);
        let (base, _) = run_once(&args, args.seconds - traced);
        let untraced_tps = round_median(&base, |r| r.tps);
        trace::set_enabled(true);
        let (mut out, dev) = run_once(&args, traced);
        trace::set_enabled(false);
        trace::flush_thread();
        let blocks = trace::take();
        let spans = Path::new(TRACE_DIR).join(format!("trace-{}.csv", args.workload));
        if let Err(e) =
            std::fs::create_dir_all(TRACE_DIR).and_then(|()| write_spans(&spans, &blocks))
        {
            out.fail(format!("writing {}: {e}", spans.display()));
        }
        out.attempted += base.attempted;
        out.failed += base.failed;
        out.problems.extend(base.problems);
        let m = ledger(&mut out, &blocks, &dev, untraced_tps);
        (out, m)
    } else {
        let (mut out, _) = run_once(&args, args.seconds);
        let m = end_to_end(&mut out);
        (out, m)
    };
    out.attempted = out.attempted.max(1);
    for p in &out.problems {
        eprintln!("rvm-perfbench: FAILED {p}");
    }
    for m in &metrics {
        eprintln!("{:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let fields: Vec<(&str, String)> = metrics
        .iter()
        .map(|m| {
            (
                m.name.as_str(),
                json_obj(&[("value", json_num(m.value)), ("unit", json_str(m.unit))]),
            )
        })
        .collect();
    let result = json_obj(&[
        ("correct", out.correct().to_string()),
        ("attempted", out.attempted.to_string()),
        ("failed", out.failed.to_string()),
        ("metrics", json_obj(&fields)),
    ]);
    println!("{}", metadata(&args, &out, &fs));
    println!("{result}");
    std::process::exit(if out.correct() { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn arguments_parse_and_reject() {
        let a = args("--workload restart --seed 7 --seconds 2.5 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("restart", 7, 2.5, true)
        );
        assert!(args("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload restart --seed 1 --seconds 1 --trace 2").is_err());
        assert!(args("--workload restart --seed 1 --seconds 1").is_err());
        assert!(args("--workload restart --seed 1 --seconds 1 --trace 0 --x 1").is_err());
    }

    #[test]
    fn json_escapes_and_numbers() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
        assert_eq!(json_num(1.25), "1.25");
        assert_eq!(json_num(f64::NAN), "null");
    }

    /// BENCHMARK.json at the repository root must name exactly the
    /// metrics this program emits, with the same units.
    #[test]
    fn benchmark_json_lists_the_emitted_metrics() {
        let spec =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json beside the benchmark directory");
        let mut out = Outcome::default();
        let mut emitted: Vec<Metric> = end_to_end(&mut out);
        emitted.extend(ledger(&mut out, &[], &DevCounts::default(), 0.0));
        for m in &emitted {
            let entry = format!("{{\"name\": \"{}\", \"unit\": \"{}\"", m.name, m.unit);
            assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            spec.matches("\"name\": ").count(),
            emitted.len() + WORKLOADS.len()
        );
        for w in WORKLOADS {
            assert!(
                spec.contains(&format!("{{\"name\": \"{w}\", \"why\"")),
                "workload {w}"
            );
        }
    }
}
