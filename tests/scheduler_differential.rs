//! Scheduler differential suite: the active-set event-driven scheduler must
//! be **bit-identical** to the dense reference scheduler on every registered
//! scenario — same `PlatformReport` down to the last f64 bit, same NoC
//! histogram buckets, same energy.
//!
//! The dense path ticks every component every cycle; the active-set path
//! skips dormant PEs (settling their accounting in bulk), quiescent service
//! nodes and NoC scans, and fast-forwards fully idle spans. Any divergence
//! between the two is a scheduler bug, so this suite runs every scenario
//! under both modes, including mid-run windows and manual stepping.

use nanowall::{ScenarioRegistry, SchedulerMode};

/// Runs `name` under one scheduler for `cycles` and returns the report.
fn run_mode(name: &str, mode: SchedulerMode, cycles: u64) -> nanowall::PlatformReport {
    let reg = ScenarioRegistry::standard();
    let mut rig = reg.build(name, true).expect("registered scenario");
    rig.platform.set_scheduler_mode(mode);
    rig.run(cycles)
}

#[test]
fn every_scenario_is_bit_identical_across_schedulers() {
    for name in ScenarioRegistry::standard().names() {
        let dense = run_mode(name, SchedulerMode::Dense, 20_000);
        let active = run_mode(name, SchedulerMode::ActiveSet, 20_000);
        assert_eq!(
            dense, active,
            "{name}: active-set scheduler diverged from the dense reference"
        );
        // Sanity: the comparison is not vacuous.
        assert!(dense.tasks_completed > 0, "{name} must do work");
    }
}

#[test]
fn windowed_runs_stay_identical() {
    // Reports taken at intermediate windows must agree too — the lazy
    // accounting settles exactly at every report boundary.
    for name in ["ipv4", "crypto"] {
        let reg = ScenarioRegistry::standard();
        let mut dense = reg.build(name, true).expect("registered");
        dense.platform.set_scheduler_mode(SchedulerMode::Dense);
        let mut active = reg.build(name, true).expect("registered");
        active.platform.set_scheduler_mode(SchedulerMode::ActiveSet);
        for window in [3_000u64, 5_000, 9_000] {
            let d = dense.run(window);
            let a = active.run(window);
            assert_eq!(d, a, "{name}: diverged in a {window}-cycle window");
        }
    }
}

#[test]
fn manual_stepping_matches_run() {
    // step() under the active-set scheduler must trace the same states as
    // the dense step; report() settles lazy accounting in both cases.
    let reg = ScenarioRegistry::standard();
    let mut dense = reg.build("modem", true).expect("registered");
    dense.platform.set_scheduler_mode(SchedulerMode::Dense);
    let mut active = reg.build("modem", true).expect("registered");
    active.platform.set_scheduler_mode(SchedulerMode::ActiveSet);
    for _ in 0..12_000 {
        dense.platform.step();
        active.platform.step();
    }
    let d = dense.platform.report(nw_types::Cycles(12_000));
    let a = active.platform.report(nw_types::Cycles(12_000));
    assert_eq!(d, a, "stepped modem rig diverged");
}

#[test]
fn large_idle_span_is_identical_and_fast_forwarded() {
    // A rig driven far below capacity spends most cycles idle — exactly the
    // case the fast-forward targets. 200k cycles of a low-rate modem rig.
    let mut dense = nanowall::scenarios::modem_rig(
        &nw_apps::ModemParams::default(),
        6,
        4,
        50,
        40.0, // 40 Mb/s: a burst only every few thousand cycles
    );
    dense.platform.set_scheduler_mode(SchedulerMode::Dense);
    let mut active =
        nanowall::scenarios::modem_rig(&nw_apps::ModemParams::default(), 6, 4, 50, 40.0);
    active.platform.set_scheduler_mode(SchedulerMode::ActiveSet);
    let d = dense.run(200_000);
    let a = active.run(200_000);
    assert_eq!(d, a, "large-idle modem run diverged");
    assert!(d.io[0].generated > 0, "the line must generate bursts");
}

#[test]
fn packet_ledger_balances_at_quiescence() {
    // Conservation half of the determinism contract: every packet the NoC
    // accepts — requests, service replies — is delivered or dropped. Build
    // a platform with no I/O channels so a finite batch of tasks drives it
    // fully quiescent, then check the packet ledger balances exactly,
    // under both schedulers.
    use nanowall::prelude::*;
    use nanowall::MemoryBlockConfig;

    let run_mode = |mode: SchedulerMode| {
        let mut cfg = FppaConfig::new("packet-conservation", TopologyKind::Mesh);
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
        // A finite batch on an I/O-less platform quiesces well inside this
        // window. (The dense scheduler keeps every PE conservatively marked
        // active, so the event horizon can't certify quiescence there — a
        // fixed ample window covers both modes identically.)
        const WINDOW: u64 = 20_000;
        for _ in 0..WINDOW {
            platform.step();
        }
        if mode == SchedulerMode::ActiveSet {
            assert!(
                platform.next_event_cycle().is_none(),
                "active-set rig still holds work after the batch window"
            );
        }
        let noc = platform.noc();
        let counts = noc.counts();
        assert!(counts.injected > 0, "{mode:?}: the batch sent nothing");
        assert_eq!(
            counts.injected,
            counts.delivered + noc.dropped_packets(),
            "{mode:?}: packets unaccounted for at quiescence"
        );
        assert!(noc.is_quiescent(), "{mode:?}: NoC not quiescent");
        assert_eq!(platform.pending_retries(), 0);
        let report = platform.report(Cycles(WINDOW));
        assert_eq!(report.tasks_completed, 8, "{mode:?}: one task per thread");
        report
    };

    let dense = run_mode(SchedulerMode::Dense);
    let active = run_mode(SchedulerMode::ActiveSet);
    assert_eq!(dense, active, "conservation rig diverged across schedulers");
}

#[test]
fn tracing_does_not_perturb_results() {
    // The observability contract: installing a trace sink changes what is
    // *recorded*, never what is *simulated*. Every registered scenario must
    // produce a bit-identical report with tracing on vs off, under both
    // schedulers — and the traced run must actually capture events, so the
    // comparison is not vacuous.
    use nanowall::RingBufferSink;
    for name in ScenarioRegistry::standard().names() {
        for mode in [SchedulerMode::Dense, SchedulerMode::ActiveSet] {
            let reg = ScenarioRegistry::standard();
            let mut plain = reg.build(name, true).expect("registered scenario");
            plain.platform.set_scheduler_mode(mode);
            let mut traced = reg.build(name, true).expect("registered scenario");
            traced.platform.set_scheduler_mode(mode);
            traced
                .platform
                .set_trace_sink(Box::new(RingBufferSink::new(1 << 14)));
            let p = plain.run(10_000);
            let t = traced.run(10_000);
            assert_eq!(p, t, "{name} under {mode:?}: tracing perturbed the run");
            let mut sink = traced.platform.take_trace_sink().expect("sink installed");
            let events = sink
                .as_any_mut()
                .downcast_mut::<RingBufferSink>()
                .expect("ring sink")
                .drain();
            assert!(
                !events.is_empty(),
                "{name} under {mode:?}: traced run captured nothing"
            );
        }
    }
}

#[test]
fn warmed_forks_anchor_to_the_original_seed_and_diverge_on_new_ones() {
    // The replica contract behind `expt t13`: one warmed-up platform fans
    // out into N measurement replicas via `fork(seed)`. Forking with the
    // *campaign's own* seed must be bit-identical to the run that was never
    // snapshotted (the reseed is a no-op at the drain boundary), while
    // distinct seeds redraw the undrained fault future and must diverge —
    // and forking must never mutate the parent.
    use nanowall::{FaultCampaign, FaultRates, RetryPolicy};

    const CAMPAIGN_SEED: u64 = 42;
    const WARM: u64 = 6_000;
    const MEASURE: u64 = 20_000;

    let arm = |platform: &mut nanowall::FppaPlatform| {
        let mut rates = FaultRates::scaled(3.0);
        rates.pe_crashes += 2;
        rates.pe_downtime = (200, 2_000);
        let shape = platform.fault_shape();
        platform.install_fault_campaign(FaultCampaign::generate(
            CAMPAIGN_SEED,
            WARM + MEASURE,
            &rates,
            &shape,
        ));
        platform.set_retry_policy(RetryPolicy::default());
    };

    for mode in [SchedulerMode::Dense, SchedulerMode::ActiveSet] {
        let reg = ScenarioRegistry::standard();

        // Never-snapshotted reference: warm, then measure.
        let mut reference = reg.build("ipv4", true).expect("registered");
        reference.platform.set_scheduler_mode(mode);
        arm(&mut reference.platform);
        let _ = reference.run(WARM);
        let want = reference.run(MEASURE);

        // Warmed parent that fans out.
        let mut parent = reg.build("ipv4", true).expect("registered");
        parent.platform.set_scheduler_mode(mode);
        arm(&mut parent.platform);
        let _ = parent.run(WARM);

        // Original-seed fork reproduces the uninterrupted run exactly.
        let mut anchor = parent.platform.fork(CAMPAIGN_SEED);
        let got = anchor.run(MEASURE);
        assert_eq!(
            got, want,
            "{mode:?}: original-seed fork diverged from the never-snapshotted run"
        );

        // Distinct seeds redraw the fault future: replicas diverge from the
        // anchor and from each other, and the same seed is reproducible.
        let mut replica_a = parent.platform.fork(1001);
        let mut replica_a2 = parent.platform.fork(1001);
        let mut replica_b = parent.platform.fork(2002);
        let rep_a = replica_a.run(MEASURE);
        let rep_a2 = replica_a2.run(MEASURE);
        let rep_b = replica_b.run(MEASURE);
        assert_eq!(rep_a, rep_a2, "{mode:?}: same-seed replicas must agree");
        assert_ne!(rep_a, want, "{mode:?}: reseeded replica failed to diverge");
        assert_ne!(
            rep_a, rep_b,
            "{mode:?}: distinct seeds produced one timeline"
        );

        // No state sharing through the handler-plan cache:
        // running the forks left the parent untouched, so its own
        // continuation still matches the reference.
        let parent_tail = parent.run(MEASURE);
        assert_eq!(
            parent_tail, want,
            "{mode:?}: running forks perturbed the parent platform"
        );
    }
}

#[test]
fn next_event_cycle_never_overshoots() {
    // On an idle platform the platform-wide next event equals the earliest
    // component event; stepping to it must observe a state change while
    // every skipped cycle was provably a no-op (verified by the identical
    // reports above — here we check the bound itself on a quiet rig).
    let reg = ScenarioRegistry::standard();
    let mut rig = reg.build("crypto", true).expect("registered");
    rig.platform.set_scheduler_mode(SchedulerMode::ActiveSet);
    rig.run(2_000);
    if let Some(t) = rig.platform.next_event_cycle() {
        assert!(
            t >= rig.platform.now(),
            "next event {t} is in the past (now {})",
            rig.platform.now()
        );
    }
}
