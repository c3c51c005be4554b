//! Property test: checkpointing is invisible to the simulation.
//!
//! For *any* cycle split `(a, b)`, scheduler mode and fault intensity,
//! `run(a); snapshot; run(b)` on a platform rebuilt from (or restored to)
//! the snapshot produces a byte-identical `PlatformReport` to the
//! uninterrupted `run(a); run(b)` — including splits that land mid
//! fault-campaign, so the campaign cursor and open retry deadlines must
//! survive the round trip. A trace sink on the snapshotted platform must
//! not perturb anything either.

use nanowall::prelude::*;
use nanowall::{FaultCampaign, FaultRates, MemoryBlockConfig, RetryPolicy, RingBufferSink};
use proptest::prelude::*;

/// The finite no-I/O rig of the fault-conservation suite: 4 dual-thread
/// PEs round-tripping against one SRAM controller, so arbitrary splits
/// land in a busy, retry-carrying window.
fn build_rig(mode: SchedulerMode) -> FppaPlatform {
    let mut cfg = FppaConfig::new("prop-snapshot", TopologyKind::Mesh);
    for _ in 0..4 {
        cfg.add_pe(PeConfig::new(PeClass::GpRisc, 2));
    }
    cfg.add_memory(MemoryBlockConfig::new(MemoryTechnology::Sram, 2.0));
    let mut platform = FppaPlatform::new(cfg).expect("config valid");
    platform.set_scheduler_mode(mode);
    let sram = platform.memory_node(0);
    let prog = nw_pe::Program::straight_line([
        nw_pe::Op::Compute(10),
        nw_pe::Op::call(sram, 16, 48),
        nw_pe::Op::Compute(5),
        nw_pe::Op::call(sram, 8, 8),
    ]);
    for pe in 0..4 {
        while platform.pe(pe).idle_threads() > 0 {
            platform.pe_mut(pe).spawn(prog.clone()).unwrap();
        }
    }
    platform
}

/// Installs the standard faulted-run pair (campaign + retry policy) used
/// by every case below, identical across reference and snapshot paths.
fn arm_faults(platform: &mut FppaPlatform, seed: u64, level_tenths: u32, horizon: u64) {
    if level_tenths == 0 {
        return;
    }
    let mut rates = FaultRates::scaled(f64::from(level_tenths) / 10.0);
    rates.pe_crashes += 1;
    rates.pe_downtime = (200, 3_000);
    let shape = platform.fault_shape();
    platform.install_fault_campaign(FaultCampaign::generate(seed, horizon, &rates, &shape));
    platform.set_retry_policy(RetryPolicy {
        timeout: 600,
        max_attempts: 3,
    });
}

/// The platform's packet ledger: NoC packets injected, delivered and
/// dropped, whether the NoC is quiescent, and calls awaiting a retry.
fn packet_ledger(p: &FppaPlatform) -> (u64, u64, u64, bool, usize) {
    let noc = p.noc();
    let c = noc.counts();
    (
        c.injected,
        c.delivered,
        noc.dropped_packets(),
        noc.is_quiescent(),
        p.pending_retries(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The headline contract, for arbitrary splits: a platform rebuilt
    /// from a mid-run snapshot — and the original platform restored back
    /// to it after running ahead — both finish byte-identical to the
    /// uninterrupted run, under both schedulers, with campaigns active or
    /// absent, traced or untraced.
    #[test]
    fn snapshot_round_trip_is_bit_identical(
        seed in 0u64..10_000,
        level_tenths in 0u32..30,
        a in 1u64..4_000,
        b in 1u64..4_000,
        junk in 0u64..2_000,
        dense in any::<bool>(),
        traced in any::<bool>(),
    ) {
        let mode = if dense { SchedulerMode::Dense } else { SchedulerMode::ActiveSet };
        let horizon = 8_000;

        // Uninterrupted reference: the same windows, no snapshot anywhere.
        let mut reference = build_rig(mode);
        arm_faults(&mut reference, seed, level_tenths, horizon);
        let _ = reference.run(a);
        let want = reference.run(b);

        // Snapshot path: identical rig, snapshot at the split.
        let mut original = build_rig(mode);
        arm_faults(&mut original, seed, level_tenths, horizon);
        if traced {
            original.set_trace_sink(Box::new(RingBufferSink::new(512)));
        }
        let _ = original.run(a);
        let snap = original.snapshot();

        // (1) A fresh platform rebuilt from the snapshot.
        let mut fresh = FppaPlatform::from_snapshot(&snap);
        let got_fresh = fresh.run(b);
        prop_assert_eq!(&got_fresh, &want, "from_snapshot diverged (split {}+{})", a, b);

        // (2) The original, run ahead then restored in place.
        let _ = original.run(junk);
        original.restore(&snap);
        let got_restored = original.run(b);
        prop_assert_eq!(&got_restored, &want, "restore diverged (junk {})", junk);

        // Campaign cursor and retry bookkeeping survived the round trip.
        prop_assert_eq!(
            fresh.fault_campaign().map(FaultCampaign::remaining),
            reference.fault_campaign().map(FaultCampaign::remaining)
        );
        prop_assert_eq!(packet_ledger(&fresh), packet_ledger(&reference));
        prop_assert_eq!(packet_ledger(&original), packet_ledger(&reference));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The same contract on a line-rate I/O scenario rig (paced ingress,
    /// DSOC dispatch, latency telemetry): splits must also preserve the
    /// f64 pacing credit and the histogram state exactly.
    #[test]
    fn snapshot_round_trip_holds_on_an_io_scenario(
        a in 1u64..3_000,
        b in 1u64..3_000,
        dense in any::<bool>(),
    ) {
        let mode = if dense { SchedulerMode::Dense } else { SchedulerMode::ActiveSet };
        let registry = nanowall::ScenarioRegistry::standard();

        let mut reference = registry.build("ipv4", true).expect("registered").platform;
        reference.set_scheduler_mode(mode);
        let _ = reference.run(a);
        let want = reference.run(b);

        let mut original = registry.build("ipv4", true).expect("registered").platform;
        original.set_scheduler_mode(mode);
        let _ = original.run(a);
        let snap = original.snapshot();
        let mut fresh = FppaPlatform::from_snapshot(&snap);
        let got = fresh.run(b);
        prop_assert_eq!(&got, &want, "io rig split {}+{} diverged", a, b);
        prop_assert_eq!(packet_ledger(&fresh), packet_ledger(&reference));
    }
}
