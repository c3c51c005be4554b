//! Per-layer metrics of a profiled run: each host phase's seconds divided
//! by the work counts the platform reports, plus the fault, snapshot and
//! profiler-overhead figures.
//!
//! Layer → host phase (`HostProfiler`): `nw-noc` → `noc_tick`, `nw-pe` →
//! `pe_step`, `core.runtime` → `dispatch`, `services` → `services`,
//! `nw-hwip.io` → `io_pacing` (which also carries fault application and
//! retry deadlines), `core.route` → `route_arrivals`, `core.outbox` →
//! `outbox`, `core.sched` → `fast_forward`. `settle` (report collection)
//! is attributed but belongs to no layer.

use crate::stats::{median, per_unit, shares};
use crate::workload::{merge_profile, RunOutcome, Work};
use nanowall::{HostPhase, ProfileReport};

/// One per-layer metric with the numbers it was divided from.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerMetric {
    /// Metric name (`layer.metric`).
    pub name: &'static str,
    /// Unit of `value`.
    pub unit: &'static str,
    /// The value; `None` when its base is zero (the layer did no such work).
    pub value: Option<f64>,
    /// Numerator and base, in words.
    pub basis: String,
}

/// Every per-layer metric name with its unit, in output order.
pub const LAYER_METRICS: [(&str, &str); 36] = [
    ("nw-noc.share", "ratio"),
    ("nw-noc.ns_per_flit_hop", "ns"),
    ("nw-noc.flit_hops_per_cycle", "1/cycle"),
    ("nw-noc.refused_ratio", "ratio"),
    ("nw-noc.packets_dropped", "count"),
    ("nw-pe.share", "ratio"),
    ("nw-pe.ns_per_pe_cycle", "ns"),
    ("nw-pe.utilization", "ratio"),
    ("nw-pe.tasks_per_kcycle", "1/kcycle"),
    ("core.runtime.share", "ratio"),
    ("core.runtime.ns_per_dispatch", "ns"),
    ("core.runtime.dispatches_per_kcycle", "1/kcycle"),
    ("core.runtime.queued_invocations", "count"),
    ("services.share", "ratio"),
    ("services.ns_per_item", "ns"),
    ("services.items_per_kcycle", "1/kcycle"),
    ("nw-hwip.io.share", "ratio"),
    ("nw-hwip.io.ns_per_stepped_cycle", "ns"),
    ("nw-hwip.io.drop_ratio", "ratio"),
    ("core.route.share", "ratio"),
    ("core.route.ns_per_delivered_packet", "ns"),
    ("core.outbox.share", "ratio"),
    ("core.outbox.ns_per_injected_packet", "ns"),
    ("core.sched.stepped_cycle_ratio", "ratio"),
    ("core.sched.ff_share", "ratio"),
    ("core.sched.ns_per_ff_hop", "ns"),
    ("core.sched.cycles_per_ff_hop", "cycles"),
    ("nw-fault.generate_ms", "ms"),
    ("nw-fault.faults_injected", "count"),
    ("core.resilience.retries_per_kcycle", "1/kcycle"),
    ("core.resilience.give_up_ratio", "ratio"),
    ("core.resilience.duplicate_replies", "count"),
    ("core.snapshot.snapshot_ms", "ms"),
    ("core.snapshot.fork_ms", "ms"),
    ("nw-obs.profiler_overhead_ratio", "ratio"),
    ("nw-obs.attributed_ratio", "ratio"),
];

/// Stepped cycles (laps of the PE phase) and fast-forward hops of a
/// profile.
fn stepped_and_hops(profile: &ProfileReport) -> (u64, u64) {
    let laps = |phase| {
        profile
            .phases
            .iter()
            .find(|s| s.phase == phase)
            .map_or(0, |s| s.laps)
    };
    (laps(HostPhase::PeStep), laps(HostPhase::FastForward))
}

/// Each phase's share of the attributed time, in `HostPhase::ALL` order.
pub fn phase_shares(profile: &ProfileReport) -> Vec<(HostPhase, Option<f64>)> {
    let secs: Vec<f64> = HostPhase::ALL.iter().map(|&p| profile.secs(p)).collect();
    HostPhase::ALL.into_iter().zip(shares(&secs)).collect()
}

/// Per-layer metrics from profiled runs `traced` and unprofiled runs
/// `untraced` of the same plan. Counts are per timed run.
pub fn layer_metrics(untraced: &[RunOutcome], traced: &[RunOutcome]) -> Vec<LayerMetric> {
    let prof = traced
        .iter()
        .map(|r| r.profile.clone().expect("a profiled run has a profile"))
        .fold(None, |acc, p| Some(merge_profile(acc, p)))
        .expect("at least one profiled run");
    let mut work = Work::default();
    for r in traced {
        work.add(&r.work);
    }
    let runs = traced.len() as f64;
    let last = traced.last().expect("at least one profiled run");
    let (stepped, hops) = stepped_and_hops(&prof);
    let (stepped, hops) = (stepped as f64, hops as f64);
    let cycles = work.cycles as f64;
    let attributed = prof.total_secs;
    let secs = |p: HostPhase| prof.secs(p);
    let traced_secs: f64 = traced.iter().map(RunOutcome::timed_secs).sum();
    let untraced_secs: f64 = untraced.iter().map(RunOutcome::timed_secs).sum();
    let overhead = traced_secs / untraced_secs;
    let all: Vec<&RunOutcome> = untraced.iter().chain(traced).collect();
    let ms_each = |pick: fn(&RunOutcome) -> &Vec<f64>| -> (Option<f64>, usize) {
        let v: Vec<f64> = all.iter().flat_map(|r| pick(r).iter().copied()).collect();
        (median(&v).map(|s| s * 1e3), v.len())
    };

    let share = |p: HostPhase| {
        (
            per_unit(secs(p), attributed),
            // Shares are of profiled time, so the profiler's own cost is
            // shown beside each one.
            format!(
                "{:.4} s {} / {attributed:.4} s attributed (profiled/unprofiled time {overhead:.3})",
                secs(p),
                p.name()
            ),
        )
    };
    let ns_per = |p: HostPhase, base: f64, what: &str| {
        (
            per_unit(secs(p) * 1e9, base),
            format!("{:.4} s {} / {base} {what}", secs(p), p.name()),
        )
    };
    let ratio = |num: f64, num_what: &str, base: f64, base_what: &str| {
        (
            per_unit(num, base),
            format!("{num} {num_what} / {base} {base_what}"),
        )
    };
    let per_kcycle = |num: f64, what: &str| {
        (
            per_unit(num * 1e3, cycles),
            format!("{num} {what} / {cycles} cycles"),
        )
    };
    let count =
        |total: f64, what: &str| (Some(total / runs), format!("{total} {what} / {runs} runs"));
    let (gen, gen_n) = ms_each(|r| &r.generate_secs);
    let (snap, snap_n) = ms_each(|r| &r.snapshot_secs);
    let (fork, fork_n) = ms_each(|r| &r.fork_secs);
    let w = &work;
    let values: Vec<(Option<f64>, String)> = vec![
        share(HostPhase::NocTick),
        ns_per(HostPhase::NocTick, w.flit_hops as f64, "flit-hops"),
        ratio(w.flit_hops as f64, "flit-hops", cycles, "cycles"),
        ratio(
            w.refused as f64,
            "refused",
            (w.injected + w.refused) as f64,
            "injection attempts",
        ),
        count(w.packets_dropped as f64, "packets dropped"),
        share(HostPhase::PeStep),
        ns_per(
            HostPhase::PeStep,
            stepped * last.pes as f64,
            "PE-cycles (stepped cycles x PEs)",
        ),
        (
            Some(last.utilization),
            "mean core utilization of the final reports".to_owned(),
        ),
        per_kcycle(w.tasks as f64, "tasks"),
        share(HostPhase::Dispatch),
        ns_per(HostPhase::Dispatch, w.dispatches as f64, "dispatches"),
        per_kcycle(w.dispatches as f64, "dispatches"),
        (
            Some(last.queued_invocations as f64),
            "queued at the end of the last run".to_owned(),
        ),
        share(HostPhase::Services),
        ns_per(HostPhase::Services, w.service_items as f64, "service items"),
        per_kcycle(w.service_items as f64, "service items"),
        share(HostPhase::IoPacing),
        ns_per(HostPhase::IoPacing, stepped, "stepped cycles"),
        ratio(
            w.io_dropped as f64,
            "dropped",
            w.io_generated as f64,
            "generated",
        ),
        share(HostPhase::RouteArrivals),
        ns_per(
            HostPhase::RouteArrivals,
            w.delivered as f64,
            "delivered packets",
        ),
        share(HostPhase::Outbox),
        ns_per(HostPhase::Outbox, w.injected as f64, "injected packets"),
        ratio(stepped, "stepped cycles", cycles, "cycles"),
        share(HostPhase::FastForward),
        ns_per(HostPhase::FastForward, hops, "fast-forward hops"),
        ratio(cycles - stepped, "skipped cycles", hops, "hops"),
        (gen, format!("median of {gen_n} generate calls")),
        count(w.faults_injected as f64, "faults applied"),
        per_kcycle(w.retries as f64, "retries"),
        ratio(w.give_ups as f64, "give-ups", w.retries as f64, "retries"),
        count(w.duplicate_replies as f64, "duplicate replies"),
        (snap, format!("median of {snap_n} snapshot calls")),
        (fork, format!("median of {fork_n} from_snapshot+fork calls")),
        ratio(traced_secs, "s profiled", untraced_secs, "s unprofiled"),
        // The profiler reads the wall clock, so it is compared with the
        // wall-clock time of the same windows.
        ratio(
            attributed,
            "s attributed",
            traced.iter().map(|r| r.wall_secs).sum(),
            "s profiled windows (wall clock)",
        ),
    ];
    assert_eq!(values.len(), LAYER_METRICS.len(), "one value per metric");
    LAYER_METRICS
        .iter()
        .zip(values)
        .map(|(&(name, unit), (value, basis))| LayerMetric {
            name,
            unit,
            value,
            basis,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nanowall::PhaseSlice;

    fn profile(secs: &[f64]) -> ProfileReport {
        let phases: Vec<PhaseSlice> = HostPhase::ALL
            .iter()
            .zip(secs)
            .map(|(&phase, &secs)| PhaseSlice {
                phase,
                secs,
                laps: 1,
            })
            .collect();
        ProfileReport {
            total_secs: secs.iter().sum(),
            phases,
        }
    }

    #[test]
    fn phase_shares_add_up_to_the_attributed_time() {
        let secs = [0.05, 0.35, 0.05, 0.03, 0.08, 0.39, 0.03, 0.01, 0.01];
        let p = profile(&secs);
        let shares = phase_shares(&p);
        assert_eq!(shares.len(), HostPhase::ALL.len());
        let sum: f64 = shares.iter().map(|(_, s)| s.unwrap()).sum();
        assert!((sum - 1.0).abs() < 1e-12);
        for ((phase, share), &s) in shares.iter().zip(&secs) {
            assert!(
                (share.unwrap() * p.total_secs - s).abs() < 1e-12,
                "{phase:?}"
            );
        }
    }

    #[test]
    fn an_empty_profile_has_no_shares() {
        let p = profile(&[0.0; 9]);
        assert!(phase_shares(&p).iter().all(|(_, s)| s.is_none()));
    }
}
