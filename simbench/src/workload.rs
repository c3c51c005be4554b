//! The four benchmark workloads and one timed run of each.
//!
//! Rigs are built only through public `nanowall` calls, each platform's
//! scheduler is set with `set_scheduler_mode`, and everything runs on the
//! calling thread. Every timed run covers a fixed number of simulated
//! cycles, so its modelled results repeat exactly; only host time varies.

use crate::spans::{SpanId, Spans};
use crate::thread_cpu_secs;
use nanowall::prelude::*;
use nanowall::scenarios::{ipv4_rig, mix_demo_params, mix_pe_pool, mix_rig, modem_rig};
use nanowall::{
    FaultCampaign, FaultRates, HostProfiler, PlatformSnapshot, ProfileReport, RetryPolicy,
    ScenarioRegistry,
};
use nw_sim::LatencyHistogram;
use std::time::Instant;

/// Fault intensity of `ipv4-faults-forked` (`FaultRates::scaled`). Level 8
/// collapses the platform to idle, which would measure the idle path.
pub const FAULT_LEVEL: f64 = 4.0;

/// Campaign horizon of `ipv4-faults-forked`, in cycles. The permanent link
/// kills and PE crashes of a campaign are spread over the whole horizon,
/// so a 10k-cycle replica meets on average 0.02 of each on top of the
/// per-100k transient rates. Shorter horizons concentrate them, and then
/// whole seeds collapse to idle or stall in retries, which makes the
/// figures depend on the seed rather than on the simulator.
pub const FAULT_HORIZON: u64 = 2_000_000;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The IPv4 fast path at 9.5 Gb/s on 16 chains: the busy per-cycle path.
    Ipv4Linerate,
    /// Video + IPv4 sharing one fabric: dispatch, I/O pacing and services.
    MixInterference,
    /// The modem at 40 Mb/s over 50-cycle links: the fast-forward path.
    ModemSparse,
    /// The registry `ipv4` rig under a level-4 fault campaign, warmed,
    /// snapshotted and forked into replicas.
    Ipv4FaultsForked,
}

/// How much one timed run of a workload simulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Plan {
    /// Untimed warm-up cycles before the first timed window.
    pub warm: u64,
    /// Simulated cycles per timed window.
    pub window: u64,
    /// Timed windows per replica (per run for a workload without forks).
    pub windows: usize,
    /// Independently seeded warmed parents (forked workload only).
    pub parents: usize,
    /// Replicas forked from each parent; 0 times the warmed rig itself.
    pub forks: usize,
    /// Cycles of the dense-vs-active-set differential prefix.
    pub prefix: u64,
}

impl Plan {
    /// Timed windows in one run.
    pub fn windows_per_run(&self) -> usize {
        self.windows * self.parents * self.forks.max(1)
    }

    /// Timed cycles in one run.
    pub fn cycles_per_run(&self) -> u64 {
        self.window * self.windows_per_run() as u64
    }
}

impl Workload {
    /// Every workload, in the order the benchmark lists them.
    pub const ALL: [Workload; 4] = [
        Workload::Ipv4Linerate,
        Workload::MixInterference,
        Workload::ModemSparse,
        Workload::Ipv4FaultsForked,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Ipv4Linerate => "ipv4-linerate",
            Workload::MixInterference => "mix-interference",
            Workload::ModemSparse => "modem-sparse",
            Workload::Ipv4FaultsForked => "ipv4-faults-forked",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the seed changes the workload's inputs. The clean rigs pace
    /// their I/O deterministically and nothing draws from the platform
    /// RNG, so the seed has nothing to feed.
    pub fn seeded(self) -> bool {
        self == Workload::Ipv4FaultsForked
    }

    /// The full-size plan: each run is at least 100 windows (ten beyond
    /// p90) and takes a fraction of a host second to about a second after
    /// the set-up, so a run of the benchmark repeats it dozens of times and
    /// every window's fastest repeat is an unloaded one.
    pub fn plan(self) -> Plan {
        let clean = |warm, window, prefix| Plan {
            warm,
            window,
            windows: 100,
            parents: 1,
            forks: 0,
            prefix,
        };
        match self {
            Workload::Ipv4Linerate => clean(20_000, 2_000, 20_000),
            Workload::MixInterference => clean(100_000, 8_000, 100_000),
            Workload::ModemSparse => clean(2_000_000, 200_000, 400_000),
            Workload::Ipv4FaultsForked => Plan {
                warm: 20_000,
                window: 10_000,
                windows: 1,
                parents: 256,
                forks: 1,
                prefix: 20_000,
            },
        }
    }

    /// Builds the workload's rig (no campaign installed), active-set
    /// scheduled.
    fn build(self) -> FppaPlatform {
        let mut platform = match self {
            Workload::Ipv4Linerate => ipv4_rig(16, 8, TopologyKind::Mesh, 4, 9.5).platform,
            Workload::MixInterference => {
                let params = mix_demo_params(true);
                mix_rig(&params, mix_pe_pool(&params), 4, 4, 6.0, 3.0).platform
            }
            Workload::ModemSparse => {
                modem_rig(&nw_apps::ModemParams::default(), 6, 4, 50, 40.0).platform
            }
            Workload::Ipv4FaultsForked => {
                ScenarioRegistry::standard()
                    .build("ipv4", false)
                    .expect("the standard registry has an ipv4 rig")
                    .platform
            }
        };
        platform.set_scheduler_mode(SchedulerMode::ActiveSet);
        platform
    }
}

/// A 64-bit mix of the benchmark seed with a stream index (splitmix64
/// finaliser), so every parent and replica draws from its own seed.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Campaign seed of parent `j`.
pub fn campaign_seed(seed: u64, parent: usize) -> u64 {
    derive_seed(seed, parent as u64)
}

/// Fork seed of replica `k` of parent `j`.
pub fn fork_seed(seed: u64, parent: usize, fork: usize) -> u64 {
    derive_seed(seed, ((parent as u64 + 1) << 32) | fork as u64)
}

/// Simulator work counted over the timed windows, summed over replicas.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Work {
    /// Simulated cycles.
    pub cycles: u64,
    /// Flits times hops moved by the NoC.
    pub flit_hops: u64,
    /// Packets accepted into NI queues.
    pub injected: u64,
    /// Injection attempts refused because the NI was full.
    pub refused: u64,
    /// Packets delivered to their destination.
    pub delivered: u64,
    /// Tasks run to completion on the PEs.
    pub tasks: u64,
    /// Invocations dispatched by the runtime.
    pub dispatches: u64,
    /// Items served by memory, eFPGA and hardwired-IP nodes.
    pub service_items: u64,
    /// Packets the I/O wires generated.
    pub io_generated: u64,
    /// Packets dropped at the I/O receive FIFOs.
    pub io_dropped: u64,
    /// Packets discarded by the NoC under faults.
    pub packets_dropped: u64,
    /// Campaign events applied.
    pub faults_injected: u64,
    /// Calls re-issued by the retry layer.
    pub retries: u64,
    /// Calls abandoned after their attempt budget.
    pub give_ups: u64,
    /// Stale duplicate replies dropped.
    pub duplicate_replies: u64,
    /// Egress bits transmitted on the I/O channels.
    pub egress_bits: f64,
}

impl Work {
    /// The cumulative counters of `report`, taken on `platform` (which
    /// must be the platform that produced it).
    fn at(platform: &FppaPlatform, report: &PlatformReport) -> Work {
        let now = platform.now();
        Work {
            cycles: now.0,
            flit_hops: report.noc.flit_hops,
            injected: report.noc.injected,
            refused: report.noc.refused,
            delivered: report.noc.delivered,
            tasks: report.tasks_completed,
            dispatches: report.object_invocations.iter().sum(),
            service_items: report.mem_accesses + report.hwip_served + report.fabric_served,
            io_generated: report.io.iter().map(|io| io.generated).sum(),
            io_dropped: report.io.iter().map(|io| io.dropped).sum(),
            packets_dropped: report.resilience.packets_dropped,
            faults_injected: report.resilience.faults_injected,
            retries: report.resilience.retries,
            give_ups: report.resilience.retry_give_ups,
            duplicate_replies: report.resilience.duplicate_replies_dropped,
            egress_bits: (0..report.io.len())
                .map(|i| {
                    let io = platform.io(i);
                    io.tx_rate(now).0 * now.to_seconds(io.config().clock_hz)
                })
                .sum(),
        }
    }

    /// `self - start`, field by field.
    fn since(&self, start: &Work) -> Work {
        Work {
            cycles: self.cycles - start.cycles,
            flit_hops: self.flit_hops - start.flit_hops,
            injected: self.injected - start.injected,
            refused: self.refused - start.refused,
            delivered: self.delivered - start.delivered,
            tasks: self.tasks - start.tasks,
            dispatches: self.dispatches - start.dispatches,
            service_items: self.service_items - start.service_items,
            io_generated: self.io_generated - start.io_generated,
            io_dropped: self.io_dropped - start.io_dropped,
            packets_dropped: self.packets_dropped - start.packets_dropped,
            faults_injected: self.faults_injected - start.faults_injected,
            retries: self.retries - start.retries,
            give_ups: self.give_ups - start.give_ups,
            duplicate_replies: self.duplicate_replies - start.duplicate_replies,
            egress_bits: self.egress_bits - start.egress_bits,
        }
    }

    /// Field-by-field sum.
    pub fn add(&mut self, o: &Work) {
        self.cycles += o.cycles;
        self.flit_hops += o.flit_hops;
        self.injected += o.injected;
        self.refused += o.refused;
        self.delivered += o.delivered;
        self.tasks += o.tasks;
        self.dispatches += o.dispatches;
        self.service_items += o.service_items;
        self.io_generated += o.io_generated;
        self.io_dropped += o.io_dropped;
        self.packets_dropped += o.packets_dropped;
        self.faults_injected += o.faults_injected;
        self.retries += o.retries;
        self.give_ups += o.give_ups;
        self.duplicate_replies += o.duplicate_replies;
        self.egress_bits += o.egress_bits;
    }
}

/// What one timed run measured. Host seconds are the thread's CPU time
/// ([`thread_cpu_secs`]) unless a field says otherwise.
#[derive(Debug, Clone, Default)]
pub struct RunOutcome {
    /// Host seconds from nothing to the first timed cycle, one per parent
    /// set up in this run.
    pub setup_secs: Vec<f64>,
    /// Host seconds of each timed window.
    pub window_secs: Vec<f64>,
    /// Wall-clock seconds over all timed windows (the other host times are
    /// the thread's CPU time).
    pub wall_secs: f64,
    /// Final report of each replica (of the rig itself without forks).
    pub reports: Vec<PlatformReport>,
    /// Work over the timed windows, summed over replicas.
    pub work: Work,
    /// Worst object's p99 round-trip latency over the replicas' merged
    /// histograms, in cycles.
    pub worst_p99: u64,
    /// Clock of the simulated platform.
    pub clock_hz: f64,
    /// PEs per platform.
    pub pes: usize,
    /// Mean core utilization over the replicas' final reports.
    pub utilization: f64,
    /// Invocations still queued at the end, summed over replicas.
    pub queued_invocations: usize,
    /// Host phase breakdown of the timed windows, summed over replicas
    /// (only when the run was profiled).
    pub profile: Option<ProfileReport>,
    /// Host seconds per `FaultCampaign::generate` call.
    pub generate_secs: Vec<f64>,
    /// Host seconds per `snapshot` call.
    pub snapshot_secs: Vec<f64>,
    /// Host seconds per replica creation (`from_snapshot` + `fork`).
    pub fork_secs: Vec<f64>,
}

impl RunOutcome {
    /// Host seconds over all timed windows.
    pub fn timed_secs(&self) -> f64 {
        self.window_secs.iter().sum()
    }
}

/// Generates a parent's campaign and installs it with the default retry
/// policy.
fn install_campaign(
    platform: &mut FppaPlatform,
    seed: u64,
    spans: &mut Spans,
    parent: Option<SpanId>,
) -> f64 {
    let shape = platform.fault_shape();
    let (campaign, secs) = spans.time("campaign.generate", parent, || {
        FaultCampaign::generate(
            seed,
            FAULT_HORIZON,
            &FaultRates::scaled(FAULT_LEVEL),
            &shape,
        )
    });
    platform.install_fault_campaign(campaign);
    platform.set_retry_policy(RetryPolicy::default());
    secs
}

/// Adds `b`'s phase seconds and laps into `a`.
pub(crate) fn merge_profile(a: Option<ProfileReport>, b: ProfileReport) -> ProfileReport {
    match a {
        None => b,
        Some(mut a) => {
            for (x, y) in a.phases.iter_mut().zip(&b.phases) {
                x.secs += y.secs;
                x.laps += y.laps;
            }
            a.total_secs += b.total_secs;
            a
        }
    }
}

/// Folds replicas into one [`RunOutcome`].
#[derive(Default)]
struct Accum {
    out: RunOutcome,
    latency: Vec<LatencyHistogram>,
    utilization_sum: f64,
}

impl Accum {
    /// Times the windows of one replica (or of the clean rig itself),
    /// whose warmed state had the counters `start`, and folds it in.
    fn replica(
        &mut self,
        platform: &mut FppaPlatform,
        start: &Work,
        plan: &Plan,
        profile: bool,
        spans: &mut Spans,
        parent: Option<SpanId>,
    ) {
        if profile {
            platform.set_host_profiler(HostProfiler::new());
        }
        let mut last = None;
        let wall = Instant::now();
        for _ in 0..plan.windows {
            let (report, secs) = spans.time("window", parent, || platform.run(plan.window));
            self.out.window_secs.push(secs);
            last = Some(report);
        }
        self.out.wall_secs += wall.elapsed().as_secs_f64();
        let report = last.expect("a plan has at least one window");
        if let Some(profiler) = platform.take_host_profiler() {
            self.out.profile = Some(merge_profile(self.out.profile.take(), profiler.report()));
        }
        self.out.work.add(&Work::at(platform, &report).since(start));
        for o in 0..report.latency.len() {
            let h = platform
                .object_latency(ObjectId(o))
                .expect("the report lists installed objects only");
            match self.latency.get_mut(o) {
                Some(acc) => acc.merge(h),
                None => self.latency.push(h.clone()),
            }
        }
        self.out.clock_hz = report.clock_hz;
        self.out.pes = report.pe_utilization.len();
        self.utilization_sum += report.mean_pe_utilization();
        self.out.queued_invocations += report.queued_invocations;
        self.out.reports.push(report);
    }

    fn finish(mut self) -> RunOutcome {
        self.out.worst_p99 = self
            .latency
            .iter()
            .filter(|h| h.count() > 0)
            .map(|h| h.p99().0)
            .max()
            .unwrap_or(0);
        self.out.utilization = self.utilization_sum / self.out.reports.len() as f64;
        self.out
    }
}

/// The forked workload's warmed parents: each one's snapshot and its
/// counters when the snapshot was taken. Empty until the first timed run
/// of the workload sets them up; later runs with the same plan and seed
/// fork the same snapshots, so a run repeats only the timed replicas and
/// the run can be repeated many times.
#[derive(Default)]
pub struct Parents(Vec<(PlatformSnapshot, Work)>);

/// One timed run: set-up (untimed for throughput, timed as `setup_secs`),
/// then the plan's windows. On the forked workload the set-up is that of
/// every parent and happens in the first run only (see [`Parents`]). With
/// `profile` each timed replica carries a `HostProfiler`; its results must
/// not change.
pub fn timed_run(
    workload: Workload,
    plan: &Plan,
    seed: u64,
    parents: &mut Parents,
    profile: bool,
    spans: &mut Spans,
) -> RunOutcome {
    let run = spans.open(if profile { "run.profiled" } else { "run" }, None);
    let mut acc = Accum::default();
    if plan.forks == 0 {
        let setup = spans.open("setup", run);
        let t0 = thread_cpu_secs();
        let (mut platform, _) = spans.time("build", setup, || workload.build());
        let (warm, _) = spans.time("warm-up", setup, || platform.run(plan.warm));
        acc.out.setup_secs.push(thread_cpu_secs() - t0);
        spans.close(setup);
        let start = Work::at(&platform, &warm);
        acc.replica(&mut platform, &start, plan, profile, spans, run);
    } else {
        for j in parents.0.len()..plan.parents {
            let setup = spans.open("setup", run);
            let t0 = thread_cpu_secs();
            let (mut platform, _) = spans.time("build", setup, || workload.build());
            let generate = install_campaign(&mut platform, campaign_seed(seed, j), spans, setup);
            let (warm, _) = spans.time("warm-up", setup, || platform.run(plan.warm));
            let (snap, snapshot) = spans.time("snapshot", setup, || platform.snapshot());
            acc.out.setup_secs.push(thread_cpu_secs() - t0);
            spans.close(setup);
            acc.out.generate_secs.push(generate);
            acc.out.snapshot_secs.push(snapshot);
            parents.0.push((snap, Work::at(&platform, &warm)));
        }
        for (j, (snap, start)) in parents.0.iter().enumerate() {
            let parent = spans.open("parent", run);
            for k in 0..plan.forks {
                let replica_span = spans.open("replica", parent);
                let (mut replica, fork) = spans.time("fork", replica_span, || {
                    FppaPlatform::from_snapshot(snap).fork(fork_seed(seed, j, k))
                });
                acc.out.fork_secs.push(fork);
                acc.replica(&mut replica, start, plan, profile, spans, replica_span);
                spans.close(replica_span);
            }
            spans.close(parent);
        }
    }
    spans.close(run);
    acc.finish()
}

/// One correctness check of a run of the benchmark.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub passed: bool,
}

/// The workload's rig under `mode`, for the differential checks (parent
/// 0's campaign installed on the forked workload).
fn checked_rig(workload: Workload, seed: u64, mode: SchedulerMode) -> FppaPlatform {
    let mut platform = workload.build();
    if workload.seeded() {
        install_campaign(
            &mut platform,
            campaign_seed(seed, 0),
            &mut Spans::new(false),
            None,
        );
    }
    platform.set_scheduler_mode(mode);
    platform
}

/// The checks made before the timed runs: on an untimed prefix the
/// active-set report equals the dense one, and on the forked workload a
/// fork with the campaign's own seed equals the never-snapshotted run.
pub fn prefix_checks(workload: Workload, plan: &Plan, seed: u64) -> Vec<Check> {
    let run = |mode| checked_rig(workload, seed, mode).run(plan.prefix);
    let mut checks = vec![Check {
        name: format!("active-set == dense over a {}-cycle prefix", plan.prefix),
        passed: run(SchedulerMode::ActiveSet) == run(SchedulerMode::Dense),
    }];
    if workload.seeded() {
        let replica = plan.window * plan.windows as u64;
        let mut reference = checked_rig(workload, seed, SchedulerMode::ActiveSet);
        reference.run(plan.warm);
        let expected = reference.run(replica);
        let mut parent = checked_rig(workload, seed, SchedulerMode::ActiveSet);
        parent.run(plan.warm);
        let snap = parent.snapshot();
        let got = FppaPlatform::from_snapshot(&snap)
            .fork(campaign_seed(seed, 0))
            .run(replica);
        checks.push(Check {
            name: "fork with the campaign seed == never-snapshotted run".to_owned(),
            passed: got == expected,
        });
    }
    checks
}

/// The forked workload's regime check: faults make calls time out, and
/// retries recover most of them (each give-up costs three retries first).
pub fn retrying_regime(outcome: &RunOutcome) -> Check {
    let w = &outcome.work;
    Check {
        name: format!(
            "retrying regime: {} retries > 0, {} give-ups < retries",
            w.retries, w.give_ups
        ),
        passed: w.retries > 0 && w.give_ups < w.retries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::min_samples_for;

    #[test]
    fn every_run_has_ten_windows_beyond_p90() {
        for w in Workload::ALL {
            assert!(
                w.plan().windows_per_run() >= min_samples_for(0.9, 10),
                "{}",
                w.name()
            );
        }
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn derived_seeds_are_distinct_per_stream_and_seed() {
        let mut seen = std::collections::BTreeSet::new();
        for seed in [1, 2] {
            for j in 0..8 {
                assert!(seen.insert(campaign_seed(seed, j)));
                for k in 0..4 {
                    assert!(seen.insert(fork_seed(seed, j, k)));
                }
            }
        }
    }

    #[test]
    fn replicas_stay_within_the_campaign_horizon() {
        let p = Workload::Ipv4FaultsForked.plan();
        assert!(p.warm + p.window * p.windows as u64 <= FAULT_HORIZON);
    }
}
