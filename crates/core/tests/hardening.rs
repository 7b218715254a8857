//! Hardening tests: wire-format stability, tuning-knob behaviour,
//! segment-table limits, and adversarial log images.

use std::sync::Arc;

use rvm::segment::MemResolver;
use rvm::{CommitMode, Options, RegionDescriptor, Rvm, RvmError, Tuning, TxnMode, PAGE_SIZE};
use rvm_storage::{Device, MemDevice};

fn world() -> (Arc<MemDevice>, MemResolver) {
    (Arc::new(MemDevice::with_len(2 << 20)), MemResolver::new())
}

fn boot(log: &Arc<MemDevice>, segs: &MemResolver) -> Rvm {
    Rvm::initialize(
        Options::new(log.clone())
            .resolver(segs.clone().into_resolver())
            .create_if_empty(),
    )
    .unwrap()
}

fn boot_tuned(log: &Arc<MemDevice>, segs: &MemResolver, tuning: Tuning) -> Rvm {
    Rvm::initialize(
        Options::new(log.clone())
            .resolver(segs.clone().into_resolver())
            .tuning(tuning)
            .create_if_empty(),
    )
    .unwrap()
}

/// The on-disk format must not drift: a fixed transaction must encode to
/// fixed bytes at fixed offsets. If this test fails, bump the format
/// version in the status block instead of silently breaking old logs.
#[test]
fn wire_format_golden_values() {
    use rvm::log::record::{encode_txn, RecordRange, HEADER_SIZE, LOG_BLOCK, TRAILER_SIZE};
    use rvm::segment::SegmentId;

    assert_eq!(HEADER_SIZE, 40);
    assert_eq!(TRAILER_SIZE, 24);
    assert_eq!(LOG_BLOCK, 512);

    let buf = encode_txn(
        7,
        42,
        &[RecordRange {
            seg: SegmentId::new(3),
            offset: 0x1122_3344,
            data: vec![0xAA, 0xBB],
        }],
    );
    assert_eq!(buf.len(), 512, "one small range fits one block");
    // Header magic "RVM1" little-endian.
    assert_eq!(&buf[0..4], &0x5256_4D31u32.to_le_bytes());
    assert_eq!(buf[4], 1, "kind = txn");
    assert_eq!(&buf[8..16], &7u64.to_le_bytes(), "seq");
    assert_eq!(&buf[16..24], &42u64.to_le_bytes(), "tid");
    assert_eq!(&buf[24..28], &1u32.to_le_bytes(), "num_ranges");
    // Range entry at 40: seg id, offset, len.
    assert_eq!(&buf[40..44], &3u32.to_le_bytes());
    assert_eq!(&buf[48..56], &0x1122_3344u64.to_le_bytes());
    assert_eq!(&buf[56..64], &2u64.to_le_bytes());
    // Data follows the table.
    assert_eq!(&buf[64..66], &[0xAA, 0xBB]);
    // Trailer magic "RVMT" + padded length at the block end.
    assert_eq!(&buf[488..492], &0x5256_4D54u32.to_le_bytes());
    assert_eq!(&buf[504..512], &512u64.to_le_bytes());
}

#[test]
fn status_area_layout_is_stable() {
    use rvm::log::status::{LOG_AREA_START, STATUS_A_OFFSET, STATUS_BLOCK_SIZE, STATUS_B_OFFSET};
    assert_eq!(STATUS_BLOCK_SIZE, 8192);
    assert_eq!(STATUS_A_OFFSET, 0);
    assert_eq!(STATUS_B_OFFSET, 8192);
    assert_eq!(LOG_AREA_START, 16384);
}

#[test]
fn spool_max_bytes_triggers_automatic_flush() {
    let (log, segs) = world();
    let rvm = boot_tuned(
        &log,
        &segs,
        Tuning {
            spool_max_bytes: 2_000,
            ..Tuning::default()
        },
    );
    let region = rvm
        .map(&RegionDescriptor::new("seg", 0, PAGE_SIZE))
        .unwrap();
    // Each no-flush commit spools ~600+ record bytes; the fourth must
    // push past 2000 and auto-flush.
    for i in 0..4u64 {
        let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
        region.write(&mut txn, i * 600, &[1; 512]).unwrap();
        txn.commit(CommitMode::NoFlush).unwrap();
    }
    let q = rvm.query();
    assert!(q.stats.spool_flushes >= 1, "{:?}", q.stats);
    assert!(q.spool_bytes < 2_000);
}

#[test]
fn set_options_changes_behaviour_at_runtime() {
    let (log, segs) = world();
    let rvm = boot(&log, &segs);
    let region = rvm
        .map(&RegionDescriptor::new("seg", 0, PAGE_SIZE))
        .unwrap();

    // Intra optimization on: duplicates coalesce.
    let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
    txn.set_range(&region, 0, 100).unwrap();
    txn.set_range(&region, 0, 100).unwrap();
    txn.commit(CommitMode::Flush).unwrap();
    let saved_before = rvm.stats().bytes_saved_intra;
    assert_eq!(saved_before, 100);

    // Turn it off: duplicates are logged verbatim.
    let mut tuning = rvm.options();
    tuning.intra_optimization = false;
    rvm.set_options(tuning);
    let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
    txn.set_range(&region, 0, 100).unwrap();
    txn.set_range(&region, 0, 100).unwrap();
    txn.commit(CommitMode::Flush).unwrap();
    assert_eq!(
        rvm.stats().bytes_saved_intra,
        saved_before,
        "no new savings"
    );
}

#[test]
fn many_segments_fill_and_overflow_the_table() {
    let (log, segs) = world();
    let rvm = boot(&log, &segs);
    // Names of ~40 bytes each consume ~56 bytes of table; the 8 KiB
    // status block holds ~140 such entries.
    let mut mapped = 0u32;
    let err = loop {
        let name = format!("segment-{mapped:04}-{}", "x".repeat(24));
        match rvm.map(&RegionDescriptor::new(&name, 0, PAGE_SIZE)) {
            Ok(_) => mapped += 1,
            Err(e) => break e,
        }
        assert!(mapped < 500, "table never filled");
    };
    assert!(matches!(err, RvmError::SegmentTableFull));
    assert!(mapped > 100, "plenty of segments fit first: {mapped}");

    // The instance keeps working on existing segments.
    let region = rvm
        .map(&RegionDescriptor::new(
            "segment-0000-xxxxxxxxxxxxxxxxxxxxxxxx",
            PAGE_SIZE,
            PAGE_SIZE,
        ))
        .unwrap();
    let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
    region.write(&mut txn, 0, &[1; 8]).unwrap();
    txn.commit(CommitMode::Flush).unwrap();
}

#[test]
fn garbage_log_device_is_rejected_without_create_flag() {
    let log = Arc::new(MemDevice::with_len(1 << 20));
    log.write_at(0, &[0xAB; 1024]).unwrap();
    let err = Rvm::initialize(Options::new(log)).expect_err("must fail");
    assert!(matches!(err, RvmError::BadLog(_)));
}

#[test]
fn truncated_log_device_is_rejected() {
    // Status claims a bigger area than the device holds (device shrank).
    let (log, segs) = world();
    {
        let rvm = boot(&log, &segs);
        rvm.terminate().unwrap();
    }
    log.set_len(64 * 1024).unwrap();
    let err = Rvm::initialize(
        Options::new(log)
            .resolver(segs.into_resolver())
            .create_if_empty(),
    )
    .expect_err("shrunken device must be rejected");
    assert!(matches!(err, RvmError::BadLog(_)), "{err}");
}

#[test]
fn adversarial_random_bytes_in_record_area_never_replay() {
    // Fill the record area with pseudo-random garbage: recovery must
    // find an empty log (seq/CRC checks), not crash or apply junk.
    let (log, segs) = world();
    {
        let rvm = boot(&log, &segs);
        rvm.terminate().unwrap();
    }
    let mut junk = vec![0u8; 256 * 1024];
    let mut x = 0x9E3779B97F4A7C15u64;
    for b in junk.iter_mut() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *b = x as u8;
    }
    log.write_at(16384, &junk).unwrap();
    let rvm = boot(&log, &segs);
    assert_eq!(rvm.recovery_report().records_replayed, 0);
}

#[test]
fn query_region_page_accounting() {
    let (log, segs) = world();
    let rvm = boot(&log, &segs);
    let region = rvm
        .map(&RegionDescriptor::new("seg", 0, 4 * PAGE_SIZE))
        .unwrap();
    assert_eq!(region.num_pages(), 4);
    assert!(region.dirty_pages().is_empty());

    let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
    region.write(&mut txn, PAGE_SIZE + 10, &[1; 8]).unwrap();
    assert!(region.dirty_pages().is_empty(), "uncommitted isn't dirty");
    txn.commit(CommitMode::Flush).unwrap();
    assert_eq!(region.dirty_pages(), vec![1]);

    rvm.truncate().unwrap();
    assert!(region.dirty_pages().is_empty(), "truncation cleaned it");
}

/// The space-critical epoch run settles dirty bits like the
/// lock-releasing one: a page whose records it applied is clean, and the
/// page of the commit that made room is dirty.
#[test]
fn space_critical_truncation_cleans_the_pages_it_applied() {
    let log = Arc::new(MemDevice::with_len(16384 + 8192));
    let segs = MemResolver::new();
    let rvm = boot_tuned(
        &log,
        &segs,
        Tuning {
            truncation_threshold: 1.0,
            ..Tuning::default()
        },
    );
    let region = rvm
        .map(&RegionDescriptor::new("seg", 0, 2 * PAGE_SIZE))
        .unwrap();
    let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
    region.write(&mut txn, 0, &[1; 5000]).unwrap();
    txn.commit(CommitMode::Flush).unwrap();
    assert_eq!(region.dirty_pages(), vec![0, 1]);

    let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
    region
        .write(&mut txn, PAGE_SIZE + 1000, &[2; 3000])
        .unwrap();
    txn.commit(CommitMode::Flush).unwrap();
    let stats = rvm.stats();
    assert_eq!(stats.epoch_truncations, 1, "the second commit made room");
    assert_eq!(stats.epochs_truncated, 0);
    assert_eq!(region.dirty_pages(), vec![1]);
}

#[test]
fn zero_length_reads_are_fine_but_writes_are_rejected() {
    let (log, segs) = world();
    let rvm = boot(&log, &segs);
    let region = rvm
        .map(&RegionDescriptor::new("seg", 0, PAGE_SIZE))
        .unwrap();
    let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
    // A zero-length declaration declares nothing and almost always means
    // a length computation went wrong: rejected eagerly, by name.
    assert!(matches!(
        region.write(&mut txn, 100, &[]),
        Err(RvmError::EmptyRange { offset: 100 })
    ));
    assert!(matches!(
        txn.set_range(&region, 100, 0),
        Err(RvmError::EmptyRange { offset: 100 })
    ));
    // The rejection is non-destructive: the transaction still works.
    region.write(&mut txn, 100, &[7; 4]).unwrap();
    txn.commit(CommitMode::Flush).unwrap();
    assert_eq!(region.read_vec(100, 0).unwrap(), Vec::<u8>::new());
    // Edge of the region is readable at zero length.
    assert_eq!(region.read_vec(PAGE_SIZE, 0).unwrap(), Vec::<u8>::new());
}

#[test]
fn transactions_spanning_the_whole_region_commit() {
    let (log, segs) = world();
    let rvm = Rvm::initialize(
        Options::new(Arc::new(MemDevice::with_len(8 << 20)))
            .resolver(segs.clone().into_resolver())
            .create_if_empty(),
    )
    .unwrap();
    let region = rvm
        .map(&RegionDescriptor::new("big", 0, 256 * PAGE_SIZE))
        .unwrap();
    let blob: Vec<u8> = (0..region.len()).map(|i| (i % 253) as u8).collect();
    let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
    region.write(&mut txn, 0, &blob).unwrap();
    txn.commit(CommitMode::Flush).unwrap();
    rvm.truncate().unwrap();
    let seg = segs.get("big").unwrap();
    let mut buf = vec![0u8; 16];
    seg.read_at(255 * PAGE_SIZE, &mut buf).unwrap();
    assert_eq!(buf, blob[255 * PAGE_SIZE as usize..][..16].to_vec());
    drop(log);
}

#[test]
fn interleaved_transactions_commit_independently() {
    let (log, segs) = world();
    let rvm = boot(&log, &segs);
    let region = rvm
        .map(&RegionDescriptor::new("seg", 0, PAGE_SIZE))
        .unwrap();

    let mut t1 = rvm.begin_transaction(TxnMode::Restore).unwrap();
    let mut t2 = rvm.begin_transaction(TxnMode::Restore).unwrap();
    region.write(&mut t1, 0, &[1; 16]).unwrap();
    region.write(&mut t2, 256, &[2; 16]).unwrap();
    assert_eq!(region.uncommitted_transactions(), 2);
    t1.commit(CommitMode::Flush).unwrap();
    assert_eq!(region.uncommitted_transactions(), 1);
    t2.abort().unwrap();
    assert_eq!(region.uncommitted_transactions(), 0);
    assert_eq!(region.read_vec(0, 4).unwrap(), vec![1; 4]);
    assert_eq!(region.read_vec(256, 4).unwrap(), vec![0; 4]);
}

#[test]
fn rvm_log_on_a_mirrored_device_survives_replica_failure() {
    // Figure 2's media-failure layer in action: the write-ahead log lives
    // on a two-way mirror; one replica dies mid-run; committed data stays
    // recoverable from the survivor.
    use rvm_storage::MirrorDevice;

    let replica_a = Arc::new(MemDevice::with_len(1 << 20));
    let replica_b = Arc::new(MemDevice::with_len(1 << 20));
    let mirror = Arc::new(
        MirrorDevice::new(vec![
            replica_a.clone() as Arc<dyn Device>,
            replica_b.clone() as Arc<dyn Device>,
        ])
        .unwrap(),
    );
    let segs = MemResolver::new();

    {
        let rvm = Rvm::initialize(
            Options::new(mirror.clone())
                .resolver(segs.clone().into_resolver())
                .create_if_empty(),
        )
        .unwrap();
        let region = rvm
            .map(&RegionDescriptor::new("seg", 0, PAGE_SIZE))
            .unwrap();
        let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
        region.write(&mut txn, 0, b"before failure").unwrap();
        txn.commit(CommitMode::Flush).unwrap();

        // Media failure on replica A; RVM keeps running on B.
        mirror.fail_replica(0);
        let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
        region.write(&mut txn, 64, b"after failure").unwrap();
        txn.commit(CommitMode::Flush).unwrap();
        std::mem::forget(rvm); // crash on top of the media failure
    }

    // Reboot from the surviving replica alone.
    let rvm = Rvm::initialize(
        Options::new(replica_b as Arc<dyn Device>)
            .resolver(segs.into_resolver())
            .create_if_empty(),
    )
    .unwrap();
    assert_eq!(rvm.recovery_report().records_replayed, 2);
    let region = rvm
        .map(&RegionDescriptor::new("seg", 0, PAGE_SIZE))
        .unwrap();
    assert_eq!(region.read_vec(0, 14).unwrap(), b"before failure");
    assert_eq!(region.read_vec(64, 13).unwrap(), b"after failure");
}
