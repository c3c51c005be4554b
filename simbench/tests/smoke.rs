//! A tiny-window run of every workload through the same calls the
//! benchmark makes: checks pass, repeated and profiled runs reproduce the
//! first run's reports, and every per-layer metric is produced.

use simbench::layers::{layer_metrics, LAYER_METRICS};
use simbench::spans::Spans;
use simbench::workload::{prefix_checks, timed_run, Parents, Plan, Workload};

fn tiny(w: Workload) -> Plan {
    // The modem's bursts arrive about every 19k cycles.
    let modem = w == Workload::ModemSparse;
    Plan {
        warm: if modem { 200_000 } else { 2_000 },
        window: if modem { 20_000 } else { 500 },
        windows: 2,
        parents: if w.seeded() { 2 } else { 1 },
        forks: if w.seeded() { 2 } else { 0 },
        prefix: 1_000,
    }
}

#[test]
fn every_workload_runs_on_tiny_windows() {
    for w in Workload::ALL {
        let plan = tiny(w);
        for check in prefix_checks(w, &plan, 7) {
            assert!(check.passed, "{}: {}", w.name(), check.name);
        }
        let mut spans = Spans::new(true);
        let mut parents = Parents::default();
        let untraced = timed_run(w, &plan, 7, &mut parents, false, &mut spans);
        let traced = timed_run(w, &plan, 7, &mut parents, true, &mut spans);
        assert_eq!(untraced.reports, traced.reports, "{}", w.name());
        assert_eq!(untraced.window_secs.len(), plan.windows_per_run());
        assert_eq!(untraced.work.cycles, plan.cycles_per_run());
        assert_eq!(untraced.setup_secs.len(), plan.parents);
        assert!(untraced.worst_p99 > 0, "{}", w.name());
        assert!(!spans.is_empty());

        let metrics = layer_metrics(&[untraced], &[traced]);
        assert_eq!(metrics.len(), LAYER_METRICS.len());
        for m in &metrics {
            if let Some(v) = m.value {
                assert!(v.is_finite() && v >= 0.0, "{} {}: {v}", w.name(), m.name);
            }
        }
        let value = |name: &str| metrics.iter().find(|m| m.name == name).unwrap().value;
        assert!(
            value("nw-noc.flit_hops_per_cycle").unwrap() > 0.0,
            "{}",
            w.name()
        );
        assert!(
            value("core.sched.stepped_cycle_ratio").unwrap() > 0.0,
            "{}",
            w.name()
        );
        assert_eq!(
            value("core.snapshot.fork_ms").is_some(),
            w.seeded(),
            "{}",
            w.name()
        );
    }
}

#[test]
fn seeded_runs_repeat_and_other_seeds_differ() {
    let w = Workload::Ipv4FaultsForked;
    let plan = tiny(w);
    let mut spans = Spans::new(false);
    let mut parents = Parents::default();
    let a = timed_run(w, &plan, 11, &mut parents, false, &mut spans);
    let b = timed_run(w, &plan, 11, &mut parents, false, &mut spans);
    let fresh = timed_run(w, &plan, 11, &mut Parents::default(), false, &mut spans);
    let c = timed_run(w, &plan, 12, &mut Parents::default(), false, &mut spans);
    assert_eq!(a.reports, b.reports);
    assert_eq!(a.reports, fresh.reports);
    assert_eq!(a.setup_secs.len(), plan.parents);
    assert!(
        b.setup_secs.is_empty(),
        "later runs fork the first run's parents"
    );
    assert_ne!(a.reports, c.reports);
}
