//! Property tests for the PE's event-driven accounting.
//!
//! Thread occupancy is settled at `Idle` transitions and dormant or quiet
//! spans are applied in bulk, so a tick does no per-thread work. These
//! properties pin that against two independent references under random
//! spawn / complete / crash / restart scripts:
//!
//! * a skip-and-settle twin — ticked only while live, fast-forwarded
//!   through `quiet_span`/`advance_quiet`, settled lazily while dormant —
//!   reports bit-equal `PeStats` to a PE ticked every cycle;
//! * `thread_occupancy` equals a naive per-cycle recount kept here, from
//!   nothing but `thread_is_idle` before every tick.

use nw_pe::{Op, Pe, PeClass, PeConfig, PeStats, Program, SchedPolicy};
use nw_sim::Clocked;
use nw_types::{Cycles, NodeId, ThreadId};
use proptest::prelude::*;

/// One script step: `(action, thread, program seed, cycles to run after)`.
type Step = (u8, usize, u32, u64);

fn script_strategy() -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec((0u8..12, 0usize..8, 0u32..100_000, 0u64..40), 1..60)
}

/// Decodes a seed into a short program (possibly empty) mixing compute
/// bursts, scratchpad stalls, sends and calls.
fn program(mut seed: u32) -> Program {
    let len = seed % 5;
    seed /= 5;
    let mut ops = Vec::new();
    for _ in 0..len {
        let arg = u64::from(seed / 4 % 20) + 1;
        ops.push(match seed % 4 {
            0 => Op::Compute(arg),
            1 => Op::LocalMem {
                write: arg % 2 == 0,
                bytes: arg * 8,
            },
            2 => Op::send(NodeId(1), arg),
            _ => Op::call(NodeId(2), arg, 8),
        });
        seed = seed.rotate_left(7) ^ 0x9e37;
    }
    Program::straight_line(ops)
}

/// Applies one script action to a PE accounted up to `now`, then drains
/// its requests (the platform's job; a quiet span needs none pending).
fn act(pe: &mut Pe, action: u8, thread: usize, seed: u32, now: Cycles) {
    let tid = ThreadId(thread % pe.n_threads());
    match action {
        0..=4 => {
            let _ = pe.spawn(program(seed));
        }
        5..=8 if pe.is_awaiting(tid) => pe.complete(tid),
        9 => {
            pe.crash(now);
        }
        10 => pe.restart(now),
        _ => {}
    }
    pe.take_requests();
}

fn stat_bits(s: &PeStats) -> (u64, u64, u64, u64, Vec<u64>) {
    (
        s.tasks_completed,
        s.swaps,
        s.core_utilization.to_bits(),
        s.energy.0.to_bits(),
        s.thread_occupancy.iter().map(|f| f.to_bits()).collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn skip_and_settle_twin_matches_dense_and_naive_recount(
        n_threads in 1usize..6,
        swap_penalty in 0u64..3,
        round_robin in any::<bool>(),
        script in script_strategy(),
    ) {
        let policy = if round_robin {
            SchedPolicy::RoundRobin
        } else {
            SchedPolicy::SwitchOnStall
        };
        let cfg = PeConfig::new(PeClass::GpRisc, n_threads)
            .with_swap_penalty(swap_penalty)
            .with_policy(policy);
        let mut dense = Pe::new(cfg.clone());
        let mut lazy = Pe::new(cfg);
        let mut occupied = vec![0u64; n_threads];
        let mut now = 0u64;
        for &(action, thread, seed, run) in &script {
            act(&mut dense, action, thread, seed, Cycles(now));
            lazy.settle_accounting(Cycles(now));
            act(&mut lazy, action, thread, seed, Cycles(now));
            prop_assert_eq!(dense.idle_threads(), lazy.idle_threads());
            prop_assert_eq!(dense.is_live(), lazy.is_live());

            let end = now + run;
            for c in now..end {
                for (t, n) in occupied.iter_mut().enumerate() {
                    if !dense.thread_is_idle(ThreadId(t)) {
                        *n += 1;
                    }
                }
                dense.tick(Cycles(c));
                dense.take_requests();
            }
            // The twin: skip dormant cycles (settled lazily), hop quiet
            // spans in bulk, tick the rest.
            let mut c = now;
            while c < end {
                lazy.settle_accounting(Cycles(c));
                if !lazy.is_live() {
                    c += 1;
                    continue;
                }
                match lazy.quiet_span(Cycles(c)) {
                    Some(k) => {
                        let hop = k.min(end - c);
                        lazy.advance_quiet(hop);
                        c += hop;
                    }
                    None => {
                        lazy.tick(Cycles(c));
                        lazy.take_requests();
                        c += 1;
                    }
                }
            }
            now = end;
        }
        dense.settle_accounting(Cycles(now));
        lazy.settle_accounting(Cycles(now));
        let (d, l) = (dense.stats(), lazy.stats());
        prop_assert_eq!(stat_bits(&d), stat_bits(&l));
        for (t, &n) in occupied.iter().enumerate() {
            let naive = if now == 0 { 0.0 } else { n as f64 / now as f64 };
            prop_assert_eq!(d.thread_occupancy[t].to_bits(), naive.to_bits(), "thread {}", t);
        }
    }
}
