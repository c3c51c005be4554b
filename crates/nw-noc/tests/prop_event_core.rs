//! Property tests for the event-driven transmit core.
//!
//! The engine's busy path is driven by an event wheel (router wakes keyed
//! on port `busy_until`, credit frees, queue pushes) instead of a per-cycle
//! scan of every router. These properties pin the contract that makes that
//! safe: under random traffic bursts on ring, mesh and crossbar topologies,
//! the event-driven path produces **bit-identical** `NocStats`, eject order
//! and delivery cycles versus the dense per-cycle reference scan
//! ([`Noc::tick_reference`]) — and stays bit-identical when ticks are
//! skipped entirely on the cycles `next_event_cycle` proves are dead.

use nw_noc::{Noc, NocConfig, Topology, TopologyKind};
use nw_sim::Clocked;
use nw_types::{Cycles, NodeId, Payload};
use proptest::prelude::*;

fn kind_strategy() -> impl Strategy<Value = TopologyKind> {
    prop_oneof![
        Just(TopologyKind::Ring),
        Just(TopologyKind::Mesh),
        Just(TopologyKind::Crossbar),
        // The shared-bus arbiter exercises the round-robin grant path.
        Just(TopologyKind::SharedBus),
    ]
}

/// A randomized traffic burst: at `cycle`, offer a packet `src -> dst` of
/// `len` payload bytes. Both engines see the identical offer sequence.
type Burst = (u8, usize, usize, usize);

fn bursts_strategy() -> impl Strategy<Value = Vec<Burst>> {
    prop::collection::vec((0u8..200, 0usize..20, 0usize..20, 0usize..64), 1..80)
}

/// One delivered packet, as observed at the eject interface.
#[derive(Debug, PartialEq, Eq)]
struct Delivery {
    cycle: u64,
    endpoint: usize,
    tag: u64,
    len: u32,
}

fn drain_ejects(noc: &mut Noc, n: usize, now: Cycles, out: &mut Vec<Delivery>) {
    for e in 0..n {
        while let Some(p) = noc.eject(NodeId(e)) {
            out.push(Delivery {
                cycle: now.0,
                endpoint: e,
                tag: p.tag,
                len: p.payload.len(),
            });
        }
    }
}

fn inject_due(noc: &mut Noc, bursts: &[Burst], n: usize, now: Cycles) {
    for &(cycle, s, d, len) in bursts {
        if cycle as u64 == now.0 {
            let _ = noc.try_inject(
                NodeId(s % n),
                NodeId(d % n),
                Payload::new(len as u32, &[cycle; Payload::HEAD_LEN]),
                (cycle as u64) << 8 | (s as u64),
                now,
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Ticked every cycle, the event-driven transmit pass and the dense
    /// full-scan reference trace exactly the same simulation: same
    /// deliveries at the same cycles in the same order, same statistics
    /// down to the latency histogram buckets.
    #[test]
    fn event_path_matches_reference_scan(
        kind in kind_strategy(),
        n in 4usize..17,
        bursts in bursts_strategy(),
    ) {
        let mk = || {
            let topo = Topology::build(kind, n, 2).expect("valid topology");
            Noc::new(topo, NocConfig::default())
        };
        let mut ev = mk();
        let mut rf = mk();
        let mut ev_seen = Vec::new();
        let mut rf_seen = Vec::new();
        let mut now = Cycles(0);
        while now.0 < 6_000 {
            inject_due(&mut ev, &bursts, n, now);
            inject_due(&mut rf, &bursts, n, now);
            ev.tick(now);
            rf.tick_reference(now);
            drain_ejects(&mut ev, n, now, &mut ev_seen);
            drain_ejects(&mut rf, n, now, &mut rf_seen);
            if now.0 > 256 && ev.is_quiescent() && rf.is_quiescent() {
                break;
            }
            now += Cycles(1);
        }
        prop_assert!(ev.is_quiescent(), "event path must drain");
        prop_assert!(rf.is_quiescent(), "reference path must drain");
        prop_assert_eq!(ev_seen, rf_seen, "eject order and delivery cycles");
        prop_assert_eq!(ev.stats(), rf.stats(), "statistics incl. histogram");
    }

    /// Skipping every cycle the engine proves dead — ticking only when
    /// `next_event_cycle` answers `<= now` — changes nothing: deliveries
    /// land on the same cycles with the same statistics as the per-cycle
    /// reference. This is the contract the platform's fast-forward relies
    /// on; an overshooting `next_event_cycle` would delay a delivery here.
    #[test]
    fn fast_forward_skips_only_dead_cycles(
        kind in kind_strategy(),
        n in 4usize..17,
        bursts in bursts_strategy(),
    ) {
        let mk = || {
            let topo = Topology::build(kind, n, 3).expect("valid topology");
            Noc::new(topo, NocConfig::default())
        };
        let mut ff = mk();
        let mut rf = mk();
        let mut ff_seen = Vec::new();
        let mut rf_seen = Vec::new();
        let mut ticked = 0u64;
        let mut now = Cycles(0);
        while now.0 < 6_000 {
            inject_due(&mut ff, &bursts, n, now);
            inject_due(&mut rf, &bursts, n, now);
            if ff.next_event_cycle(now).is_some_and(|c| c <= now) {
                ff.tick(now);
                ticked += 1;
            }
            rf.tick_reference(now);
            drain_ejects(&mut ff, n, now, &mut ff_seen);
            drain_ejects(&mut rf, n, now, &mut rf_seen);
            if now.0 > 256 && ff.is_quiescent() && rf.is_quiescent() {
                break;
            }
            now += Cycles(1);
        }
        prop_assert!(ff.is_quiescent(), "fast-forward path must drain");
        prop_assert_eq!(ff_seen, rf_seen, "skipped cycles must be dead");
        prop_assert_eq!(ff.stats(), rf.stats());
        // The skip must actually skip: multi-cycle serialization and wire
        // latency guarantee dead cycles under this traffic.
        prop_assert!(ticked < now.0 + 1, "some cycles should be skipped");
    }
}
