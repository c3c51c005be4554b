//! The hardware-multithreaded processing element.

use crate::class::PeClass;
use crate::program::{Op, Program};
use nw_mem::{MemorySpec, MemoryTechnology};
use nw_sim::{Clocked, Utilization};
use nw_types::{Cycles, NodeId, Payload, Picojoules, ThreadId};
use std::collections::VecDeque;
use std::fmt;

/// Hardware thread scheduling policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedPolicy {
    /// Run the current thread until it stalls, then swap to the next ready
    /// context, paying the swap penalty (the paper's §6.2 machine with a
    /// one-cycle swap).
    #[default]
    SwitchOnStall,
    /// Barrel processor: rotate among ready contexts every cycle with no
    /// swap penalty (F6 ablation).
    RoundRobin,
}

/// Configuration of one processing element.
#[derive(Debug, Clone)]
pub struct PeConfig {
    /// Processor class (Figure 1 continuum point).
    pub class: PeClass,
    /// Number of hardware thread contexts (register banks).
    pub n_threads: usize,
    /// Context-switch penalty in cycles (the paper's HW-MT machines swap in
    /// one cycle; 0 models an ideal machine).
    pub swap_penalty: u64,
    /// Scheduling policy.
    pub policy: SchedPolicy,
    /// Local scratchpad technology (services `Op::LocalMem`).
    pub scratchpad: MemorySpec,
}

impl PeConfig {
    /// A PE of `class` with `n_threads` contexts, one-cycle swap,
    /// switch-on-stall scheduling and an SRAM scratchpad.
    ///
    /// # Panics
    ///
    /// Panics if `n_threads == 0`.
    pub fn new(class: PeClass, n_threads: usize) -> Self {
        assert!(n_threads > 0, "a PE needs at least one thread context");
        PeConfig {
            class,
            n_threads,
            swap_penalty: 1,
            policy: SchedPolicy::SwitchOnStall,
            scratchpad: MemorySpec::of(MemoryTechnology::Sram),
        }
    }

    /// Sets the swap penalty.
    pub fn with_swap_penalty(mut self, cycles: u64) -> Self {
        self.swap_penalty = cycles;
        self
    }

    /// Sets the scheduling policy.
    pub fn with_policy(mut self, policy: SchedPolicy) -> Self {
        self.policy = policy;
        self
    }
}

/// A request the PE raises to its owner for servicing over the platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeRequest {
    /// Asynchronous message: complete the thread once the NI accepts it.
    Send {
        /// Destination endpoint.
        dst: NodeId,
        /// Wire payload.
        payload: Payload,
        /// Opaque NoC tag passed through from the op.
        tag: u64,
    },
    /// Synchronous round trip: complete the thread when the response
    /// arrives.
    Call {
        /// Destination endpoint.
        dst: NodeId,
        /// Request payload.
        payload: Payload,
        /// Expected response size.
        reply_bytes: u64,
    },
}

/// Error from [`Pe::spawn`] when no context is free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpawnError;

impl fmt::Display for SpawnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "no idle hardware thread context")
    }
}

impl std::error::Error for SpawnError {}

#[derive(Debug, Clone)]
enum ThreadState {
    /// No task assigned.
    Idle,
    /// Has a task and can execute.
    Ready,
    /// Mid compute burst.
    Computing { remaining: u64 },
    /// Stalled on the local scratchpad until the given cycle.
    ScratchpadStall { until: u64 },
    /// Stalled on a platform-serviced request (NoC send/call).
    AwaitingCompletion,
}

#[derive(Debug, Clone)]
struct Thread {
    state: ThreadState,
    program: Option<Program>,
    pc: usize,
    /// Occupied cycles of spans already closed by a return to `Idle`.
    occ_busy: u64,
    /// `accounted_to` when the thread last left `Idle`: while it holds a
    /// task, `[occ_since, accounted_to)` is its open occupied span.
    occ_since: u64,
}

impl Thread {
    /// Occupied cycles up to `accounted_to`, the open span included.
    fn occupied(&self, accounted_to: u64) -> u64 {
        match self.state {
            ThreadState::Idle => self.occ_busy,
            _ => self.occ_busy + (accounted_to - self.occ_since),
        }
    }
}

/// Aggregate statistics of one PE.
#[derive(Debug, Clone)]
pub struct PeStats {
    /// Fraction of cycles the core issued (any context).
    pub core_utilization: f64,
    /// Per-thread fraction of cycles holding a task.
    pub thread_occupancy: Vec<f64>,
    /// Tasks run to completion.
    pub tasks_completed: u64,
    /// Total dynamic energy.
    pub energy: Picojoules,
    /// Context switches performed.
    pub swaps: u64,
}

/// A hardware-multithreaded processing element.
///
/// See the [crate-level documentation](crate) for the execution model and
/// an end-to-end example.
#[derive(Debug, Clone)]
pub struct Pe {
    cfg: PeConfig,
    threads: Vec<Thread>,
    current: usize,
    swap_remaining: u64,
    swaps: u64,
    requests: VecDeque<(ThreadId, PeRequest)>,
    core: Utilization,
    tasks_completed: u64,
    /// Scratchpad access energy. Core issue energy is not accumulated
    /// per cycle: it is exactly `energy_per_cycle × busy issue slots`, so
    /// [`Pe::stats`] derives it from the core utilization counter — one
    /// multiply instead of a float addition per cycle, and bulk compute
    /// fast-forwards ([`Pe::advance_quiet`]) stay bit-identical to
    /// per-cycle ticking.
    mem_energy: Picojoules,
    /// Cycle up to which (exclusive) busy/idle accounting has been applied.
    /// An active-set scheduler may skip ticking a dormant PE (every thread
    /// `Idle` or `AwaitingCompletion`); the skipped cycles are settled in
    /// bulk — with identical counter arithmetic — on the next tick or via
    /// [`Pe::settle_accounting`]. Thread occupancy needs no per-cycle work:
    /// it is settled against this cycle at each `Idle` transition.
    accounted_to: u64,
    /// Threads in `Idle`, kept at every state transition.
    n_idle: usize,
    /// Threads `Ready`, `Computing` or in a `ScratchpadStall` — the ones a
    /// tick can advance — kept at every state transition.
    n_live: usize,
    /// Threads retired since the last [`Pe::take_retired`], recorded only
    /// when enabled via [`Pe::set_retire_log`] (tracing). `None` keeps the
    /// retire path allocation-free when no one is watching.
    retire_log: Option<Vec<ThreadId>>,
    /// Crashed by fault injection: every context is dead and refuses new
    /// tasks until [`Pe::restart`]. A crashed PE ticks as a pure
    /// accounting no-op (all threads idle), so schedulers need no special
    /// case.
    crashed: bool,
}

impl Pe {
    /// Builds a PE from its configuration.
    pub fn new(cfg: PeConfig) -> Self {
        let threads = (0..cfg.n_threads)
            .map(|_| Thread {
                state: ThreadState::Idle,
                program: None,
                pc: 0,
                occ_busy: 0,
                occ_since: 0,
            })
            .collect();
        Pe {
            n_idle: cfg.n_threads,
            n_live: 0,
            cfg,
            threads,
            current: 0,
            swap_remaining: 0,
            swaps: 0,
            requests: VecDeque::new(),
            core: Utilization::new(),
            tasks_completed: 0,
            mem_energy: Picojoules::ZERO,
            accounted_to: 0,
            retire_log: None,
            crashed: false,
        }
    }

    /// Enables (or disables) recording of retired thread ids for tracing.
    /// Observation only: logging changes no scheduling or accounting.
    pub fn set_retire_log(&mut self, on: bool) {
        self.retire_log = if on { Some(Vec::new()) } else { None };
    }

    /// Takes the threads retired since the last call (empty when the log
    /// is disabled or nothing retired).
    pub fn take_retired(&mut self) -> Vec<ThreadId> {
        self.retire_log
            .as_mut()
            .map(std::mem::take)
            .unwrap_or_default()
    }

    /// The configuration this PE was built with.
    pub fn config(&self) -> &PeConfig {
        &self.cfg
    }

    /// Number of hardware thread contexts.
    pub fn n_threads(&self) -> usize {
        self.cfg.n_threads
    }

    /// Whether thread `tid` currently has no task.
    pub fn thread_is_idle(&self, tid: ThreadId) -> bool {
        matches!(self.threads[tid.0].state, ThreadState::Idle)
    }

    /// Number of idle contexts ready to accept a task (0 while crashed).
    pub fn idle_threads(&self) -> usize {
        if self.crashed {
            return 0;
        }
        self.n_idle
    }

    /// Assigns a task to the lowest-numbered idle context.
    ///
    /// # Errors
    ///
    /// Returns [`SpawnError`] when every context is occupied — the caller
    /// (the DSOC dispatcher) should queue the invocation and retry.
    pub fn spawn(&mut self, program: Program) -> Result<ThreadId, SpawnError> {
        if self.crashed || self.n_idle == 0 {
            return Err(SpawnError);
        }
        let slot = self
            .threads
            .iter()
            .position(|t| matches!(t.state, ThreadState::Idle))
            .ok_or(SpawnError)?;
        if program.is_empty() {
            // Degenerate empty task: completes immediately.
            self.tasks_completed += 1;
            return Ok(ThreadId(slot));
        }
        let t = &mut self.threads[slot];
        t.state = ThreadState::Ready;
        t.occ_since = self.accounted_to;
        t.program = Some(program);
        t.pc = 0;
        self.n_idle -= 1;
        self.n_live += 1;
        Ok(ThreadId(slot))
    }

    /// Unblocks a thread stalled on a platform request (NI accepted the
    /// send, or the call's response arrived).
    ///
    /// # Panics
    ///
    /// Panics if the thread was not awaiting completion — that indicates a
    /// platform-glue protocol bug worth failing loudly on.
    pub fn complete(&mut self, tid: ThreadId) {
        let t = &mut self.threads[tid.0];
        assert!(
            matches!(t.state, ThreadState::AwaitingCompletion),
            "complete() on {tid} which is not awaiting completion"
        );
        t.state = ThreadState::Ready;
        self.n_live += 1;
    }

    /// Whether thread `tid` is stalled awaiting a platform completion.
    /// The resilience layer's guard before [`Pe::complete`]: a reply for a
    /// thread that crashed (or already gave up) must be discarded, not
    /// delivered.
    pub fn is_awaiting(&self, tid: ThreadId) -> bool {
        matches!(self.threads[tid.0].state, ThreadState::AwaitingCompletion)
    }

    /// Whether this PE is crashed (fault injection).
    pub fn is_crashed(&self) -> bool {
        self.crashed
    }

    /// Crash this PE at `now`: every context dies mid-task, pending
    /// platform requests are discarded, and the PE refuses new work until
    /// [`Pe::restart`].
    ///
    /// Killed tasks count as neither completed nor retired.
    pub fn crash(&mut self, now: Cycles) {
        self.settle_accounting(now);
        self.crashed = true;
        self.swap_remaining = 0;
        self.current = 0;
        self.requests.clear();
        let accounted_to = self.accounted_to;
        for t in &mut self.threads {
            t.occ_busy = t.occupied(accounted_to);
            t.state = ThreadState::Idle;
            t.pc = 0;
            t.program = None;
        }
        self.n_idle = self.threads.len();
        self.n_live = 0;
    }

    /// Restart a crashed PE at `now` with cold, idle contexts. No-op when
    /// not crashed.
    pub fn restart(&mut self, now: Cycles) {
        if self.crashed {
            self.settle_accounting(now);
            self.crashed = false;
        }
    }

    /// Drains the requests raised since the last call.
    pub fn take_requests(&mut self) -> Vec<(ThreadId, PeRequest)> {
        self.requests.drain(..).collect()
    }

    /// Whether undrained platform requests are pending.
    pub fn has_requests(&self) -> bool {
        !self.requests.is_empty()
    }

    /// Whether ticking this PE can do anything besides busy/idle accounting:
    /// a context switch is in flight, or some thread is `Ready`, mid compute
    /// burst, or sleeping on a self-timed scratchpad stall.
    ///
    /// A PE that is **not** live (every thread `Idle` or awaiting a platform
    /// completion) ticks as a pure accounting no-op, so an active-set
    /// scheduler may skip it and settle the skipped cycles in bulk with
    /// [`Pe::settle_accounting`] — the counters come out bit-identical.
    pub fn is_live(&self) -> bool {
        self.swap_remaining > 0 || self.n_live > 0
    }

    /// Applies busy/idle accounting for all unaccounted cycles before `now`,
    /// assuming the PE was dormant (not [`Pe::is_live`]) for that span: each
    /// skipped cycle counts an idle issue slot, and occupancy for every
    /// non-idle thread (their open spans simply extend), exactly as the
    /// per-cycle tick would have.
    ///
    /// Callers must settle **before** mutating thread state at `now` (e.g.
    /// before `spawn`), so the gap is accounted with the state that actually
    /// held during it. Settling is idempotent.
    pub fn settle_accounting(&mut self, now: Cycles) {
        if now.0 <= self.accounted_to {
            return;
        }
        self.core.idle_n(now.0 - self.accounted_to);
        self.accounted_to = now.0;
    }

    /// Tasks run to completion so far.
    pub fn tasks_completed(&self) -> u64 {
        self.tasks_completed
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> PeStats {
        let issue_energy = self.cfg.class.energy_per_cycle().0 * self.core.busy_cycles() as f64;
        PeStats {
            core_utilization: self.core.fraction(),
            thread_occupancy: self
                .threads
                .iter()
                .map(|t| match self.accounted_to {
                    0 => 0.0,
                    total => t.occupied(total) as f64 / total as f64,
                })
                .collect(),
            tasks_completed: self.tasks_completed,
            energy: Picojoules(self.mem_energy.0 + issue_energy),
            swaps: self.swaps,
        }
    }

    /// The number of upcoming cycles over which this PE's evolution is
    /// provably bulk-computable, or `None` when the next tick may do
    /// arbitrary work and must run normally. Two skippable shapes:
    ///
    /// * **Compute burst** (switch-on-stall): the issuing context is mid
    ///   [`Op::Compute`] with that many decrements left before anything
    ///   state-changing — retirement, a new op, a swap — can happen.
    ///   Nothing preempts a runnable current context, so other threads
    ///   maturing from scratchpad stalls or completions arriving do not
    ///   alter the span's accounting.
    /// * **Whole-PE stall**: every context is idle, awaiting a platform
    ///   completion, or sleeping on a scratchpad stall — no issue slot
    ///   fires until the earliest stall matures, which bounds the span.
    ///
    /// Used with [`Pe::advance_quiet`] by the platform's active-set
    /// scheduler to fast-forward busy (not merely idle) spans.
    pub fn quiet_span(&self, now: Cycles) -> Option<u64> {
        if self.swap_remaining > 0 || !self.requests.is_empty() || self.n_live == 0 {
            // Fully dormant PEs take the caller's lazy settle path instead.
            return None;
        }
        if self.cfg.policy == SchedPolicy::SwitchOnStall {
            if let ThreadState::Computing { remaining } = self.threads[self.current].state {
                return (remaining >= 2).then_some(remaining - 1);
            }
        }
        // Whole-PE stall: no context may be runnable now or become runnable
        // inside the span (a matured stall swaps in on the next tick).
        let mut earliest = u64::MAX;
        for t in &self.threads {
            match t.state {
                ThreadState::Idle | ThreadState::AwaitingCompletion => {}
                ThreadState::ScratchpadStall { until } if until > now.0 => {
                    earliest = earliest.min(until);
                }
                _ => return None,
            }
        }
        (earliest < u64::MAX).then(|| earliest - now.0)
    }

    /// Bulk-applies `k` cycles of the span promised by [`Pe::quiet_span`]
    /// — counter arithmetic identical to `k` per-cycle ticks. A compute
    /// burst decrements with the core issuing busy; a whole-PE stall
    /// accrues idle issue slots (the same arithmetic as
    /// [`Pe::settle_accounting`]). No thread changes state, so occupancy
    /// spans just extend with `accounted_to`.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `k` exceeds the promised span.
    pub fn advance_quiet(&mut self, k: u64) {
        if k == 0 {
            return;
        }
        self.accounted_to += k;
        if self.cfg.policy == SchedPolicy::SwitchOnStall {
            let cur = &mut self.threads[self.current].state;
            if let ThreadState::Computing { remaining } = cur {
                debug_assert!(*remaining > k, "advance_quiet beyond the compute burst");
                *remaining -= k;
                self.core.busy_n(k);
                return;
            }
        }
        // Whole-PE stall: no issue slot fires during the span.
        self.core.idle_n(k);
    }

    fn thread_is_runnable(&self, i: usize, now: Cycles) -> bool {
        match self.threads[i].state {
            ThreadState::Ready | ThreadState::Computing { .. } => true,
            ThreadState::ScratchpadStall { until } => until <= now.0,
            _ => false,
        }
    }

    /// Picks the next runnable context after `from` in round-robin order;
    /// the scan ends at `from` itself.
    fn next_runnable(&self, from: usize, now: Cycles) -> Option<usize> {
        if self.n_live == 0 {
            return None;
        }
        let n = self.threads.len();
        let mut i = from;
        for _ in 0..n {
            i += 1;
            if i == n {
                i = 0;
            }
            if self.thread_is_runnable(i, now) {
                return Some(i);
            }
        }
        None
    }

    /// Executes one issue slot of thread `i`. Returns true if work was done.
    fn run_thread(&mut self, i: usize, now: Cycles) -> bool {
        // Resolve a matured scratchpad stall into Ready.
        if let ThreadState::ScratchpadStall { until } = self.threads[i].state {
            if until <= now.0 {
                self.threads[i].state = ThreadState::Ready;
            } else {
                return false;
            }
        }
        match self.threads[i].state.clone() {
            ThreadState::Computing { remaining } => {
                if remaining <= 1 {
                    self.threads[i].state = ThreadState::Ready;
                    self.advance_pc(i);
                } else {
                    self.threads[i].state = ThreadState::Computing {
                        remaining: remaining - 1,
                    };
                }
                true
            }
            ThreadState::Ready => self.issue(i, now),
            _ => false,
        }
    }

    /// Issues the op at the thread's pc. Returns true if a cycle of work was
    /// consumed.
    fn issue(&mut self, i: usize, now: Cycles) -> bool {
        let (op, domain) = {
            let t = &self.threads[i];
            let prog = t.program.as_ref().expect("ready thread has a program");
            match prog.op(t.pc) {
                Some(&op) => (op, prog.domain()),
                None => {
                    // Program exhausted: retire the task.
                    self.retire(i);
                    return true;
                }
            }
        };
        match op {
            Op::Compute(n) => {
                let speedup = self.cfg.class.speedup(domain);
                let eff = ((n as f64 / speedup).ceil() as u64).max(1);
                if eff == 1 {
                    self.threads[i].state = ThreadState::Ready;
                    self.advance_pc(i);
                } else {
                    self.threads[i].state = ThreadState::Computing { remaining: eff - 1 };
                }
            }
            Op::LocalMem { write, bytes } => {
                let service = self.cfg.scratchpad.service_time(write, bytes);
                self.mem_energy += self.cfg.scratchpad.access_energy(write, bytes);
                self.threads[i].state = ThreadState::ScratchpadStall {
                    until: now.0 + service.0,
                };
                self.advance_pc(i);
            }
            Op::Send { dst, payload, tag } => {
                self.requests
                    .push_back((ThreadId(i), PeRequest::Send { dst, payload, tag }));
                self.threads[i].state = ThreadState::AwaitingCompletion;
                self.n_live -= 1;
                self.advance_pc(i);
            }
            Op::Call {
                dst,
                payload,
                reply_bytes,
            } => {
                self.requests.push_back((
                    ThreadId(i),
                    PeRequest::Call {
                        dst,
                        payload,
                        reply_bytes,
                    },
                ));
                self.threads[i].state = ThreadState::AwaitingCompletion;
                self.n_live -= 1;
                self.advance_pc(i);
            }
        }
        true
    }

    fn advance_pc(&mut self, i: usize) {
        self.threads[i].pc += 1;
        let done = {
            let t = &self.threads[i];
            t.program.as_ref().is_none_or(|p| t.pc >= p.len())
                && matches!(t.state, ThreadState::Ready)
        };
        if done {
            self.retire(i);
        }
    }

    fn retire(&mut self, i: usize) {
        let t = &mut self.threads[i];
        t.occ_busy = t.occupied(self.accounted_to);
        t.state = ThreadState::Idle;
        t.program = None;
        t.pc = 0;
        self.n_idle += 1;
        self.n_live -= 1;
        self.tasks_completed += 1;
        if let Some(log) = self.retire_log.as_mut() {
            log.push(ThreadId(i));
        }
    }

    /// One issue slot at `now`; the accounting for skipped cycles and for
    /// thread occupancy happens outside it.
    fn step(&mut self, now: Cycles) {
        // Mid context switch: the core is stalled.
        if self.swap_remaining > 0 {
            self.swap_remaining -= 1;
            self.core.idle();
            return;
        }

        // Choose which context issues this cycle.
        let issuing = match self.cfg.policy {
            SchedPolicy::SwitchOnStall => {
                if self.thread_is_runnable(self.current, now) {
                    Some(self.current)
                } else if let Some(next) = self.next_runnable(self.current, now) {
                    self.swaps += 1;
                    self.current = next;
                    if self.cfg.swap_penalty > 0 {
                        // The swap consumes this cycle (and possibly more).
                        self.swap_remaining = self.cfg.swap_penalty - 1;
                        self.core.idle();
                        return;
                    }
                    Some(next)
                } else {
                    None
                }
            }
            SchedPolicy::RoundRobin => {
                // Rotate every cycle among runnable contexts; the scan ends
                // at `current`, so a lone runnable context keeps issuing.
                let next = self.next_runnable(self.current, now);
                if let Some(n) = next {
                    self.current = n;
                }
                next
            }
        };

        // Issue energy is derived from the busy counter in `stats()`.
        if issuing.is_some_and(|i| self.run_thread(i, now)) {
            self.core.busy();
        } else {
            self.core.idle();
        }
    }

    /// Recounts `(idle, live)` threads from their states — the ground
    /// truth the transition-kept `n_idle`/`n_live` must match.
    #[cfg(any(test, debug_assertions))]
    fn recount(&self) -> (usize, usize) {
        let idle = self
            .threads
            .iter()
            .filter(|t| matches!(t.state, ThreadState::Idle))
            .count();
        let waiting = self
            .threads
            .iter()
            .filter(|t| matches!(t.state, ThreadState::AwaitingCompletion))
            .count();
        (idle, self.threads.len() - idle - waiting)
    }

    /// Debug-build audit of the transition-kept bookkeeping against the
    /// thread states: the O(1) `is_live`/`idle_threads` answers and the
    /// occupancy spans are only sound while these hold.
    #[cfg(debug_assertions)]
    fn debug_audit(&self, now: Cycles) {
        debug_assert_eq!(
            (self.n_idle, self.n_live),
            self.recount(),
            "PE (idle, live) counters diverged from thread states at {now:?}"
        );
        for (i, t) in self.threads.iter().enumerate() {
            debug_assert!(
                matches!(t.state, ThreadState::Idle) || t.occ_since <= self.accounted_to,
                "thread {i} occupancy span opens after accounted_to at {now:?}"
            );
        }
    }
}

impl Clocked for Pe {
    fn tick(&mut self, now: Cycles) {
        // Settle any cycles skipped by an active-set scheduler, then mark
        // this cycle accounted: occupancy spans now cover it, and the issue
        // slot below accounts the core inline.
        self.settle_accounting(now);
        self.accounted_to = now.0 + 1;
        self.step(now);
        #[cfg(debug_assertions)]
        self.debug_audit(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::KernelDomain;

    fn run(pe: &mut Pe, cycles: u64) {
        for c in 0..cycles {
            pe.tick(Cycles(c));
        }
    }

    #[test]
    fn compute_task_takes_expected_cycles() {
        let mut pe = Pe::new(PeConfig::new(PeClass::GpRisc, 1));
        pe.spawn(Program::straight_line([Op::Compute(10)])).unwrap();
        run(&mut pe, 10);
        // 10 compute cycles; retirement happens on the next issue slot.
        assert!(pe.tasks_completed() <= 1);
        run(&mut pe, 2);
        assert_eq!(pe.tasks_completed(), 1);
        assert!(pe.idle_threads() == 1);
    }

    #[test]
    fn asip_speedup_shortens_matched_kernels() {
        let domain = KernelDomain::PacketHeader;
        let time_to_finish = |class: PeClass| {
            let mut pe = Pe::new(PeConfig::new(class, 1));
            pe.spawn(Program::new([Op::Compute(80)], domain)).unwrap();
            let mut c = 0u64;
            while pe.tasks_completed() == 0 {
                pe.tick(Cycles(c));
                c += 1;
                assert!(c < 1000);
            }
            c
        };
        let risc = time_to_finish(PeClass::GpRisc);
        let asip = time_to_finish(PeClass::Asip { domain });
        assert!(asip * 4 < risc, "asip {asip} vs risc {risc}");
    }

    #[test]
    fn call_blocks_until_completed() {
        let mut pe = Pe::new(PeConfig::new(PeClass::GpRisc, 1));
        let tid = pe
            .spawn(Program::straight_line([
                Op::call(NodeId(5), 8, 8),
                Op::Compute(1),
            ]))
            .unwrap();
        run(&mut pe, 5);
        let reqs = pe.take_requests();
        assert_eq!(reqs.len(), 1);
        assert!(matches!(reqs[0].1, PeRequest::Call { dst: NodeId(5), .. }));
        // Blocked: no progress however long we wait.
        run(&mut pe, 50);
        assert_eq!(pe.tasks_completed(), 0);
        pe.complete(tid);
        run(&mut pe, 55);
        assert_eq!(pe.tasks_completed(), 1);
    }

    #[test]
    fn multithreading_hides_call_latency() {
        // One thread stalls on a call; the second thread keeps the core busy.
        let mut pe = Pe::new(PeConfig::new(PeClass::GpRisc, 2).with_swap_penalty(1));
        pe.spawn(Program::straight_line([Op::call(NodeId(1), 8, 8)]))
            .unwrap();
        pe.spawn(Program::straight_line([Op::Compute(100)]))
            .unwrap();
        run(&mut pe, 50);
        let s = pe.stats();
        assert!(
            s.core_utilization > 0.9,
            "core should stay busy: {}",
            s.core_utilization
        );
        assert!(s.swaps >= 1);
    }

    #[test]
    fn single_thread_starves_on_call() {
        let mut pe = Pe::new(PeConfig::new(PeClass::GpRisc, 1));
        pe.spawn(Program::straight_line([Op::call(NodeId(1), 8, 8)]))
            .unwrap();
        run(&mut pe, 100);
        let s = pe.stats();
        assert!(
            s.core_utilization < 0.1,
            "blocked single-thread core must idle: {}",
            s.core_utilization
        );
    }

    #[test]
    fn spawn_fails_when_full_and_recovers() {
        let mut pe = Pe::new(PeConfig::new(PeClass::GpRisc, 2));
        pe.spawn(Program::straight_line([Op::Compute(5)])).unwrap();
        pe.spawn(Program::straight_line([Op::Compute(5)])).unwrap();
        assert_eq!(
            pe.spawn(Program::straight_line([Op::Compute(5)])),
            Err(SpawnError)
        );
        run(&mut pe, 30);
        assert!(pe.idle_threads() > 0);
        assert!(pe.spawn(Program::straight_line([Op::Compute(5)])).is_ok());
    }

    #[test]
    fn scratchpad_stall_is_self_timed() {
        let mut pe = Pe::new(PeConfig::new(PeClass::GpRisc, 1));
        pe.spawn(Program::straight_line([
            Op::LocalMem {
                write: false,
                bytes: 64,
            },
            Op::Compute(1),
        ]))
        .unwrap();
        // SRAM 64B read = 10 cycles stall + issue cycles; finishes unaided.
        run(&mut pe, 20);
        assert_eq!(pe.tasks_completed(), 1);
        assert!(pe.stats().energy.0 > 0.0);
    }

    #[test]
    fn send_blocks_until_ni_accept() {
        let mut pe = Pe::new(PeConfig::new(PeClass::GpRisc, 1));
        let tid = pe
            .spawn(Program::straight_line([Op::send(NodeId(2), 40)]))
            .unwrap();
        run(&mut pe, 3);
        let reqs = pe.take_requests();
        assert!(matches!(
            reqs[0].1,
            PeRequest::Send { payload, .. } if payload == Payload::zeroed(40)
        ));
        pe.complete(tid);
        run(&mut pe, 6);
        assert_eq!(pe.tasks_completed(), 1);
    }

    #[test]
    fn round_robin_policy_interleaves_without_swap_cost() {
        let mut pe =
            Pe::new(PeConfig::new(PeClass::GpRisc, 4).with_policy(SchedPolicy::RoundRobin));
        for _ in 0..4 {
            pe.spawn(Program::straight_line([Op::Compute(25)])).unwrap();
        }
        run(&mut pe, 60);
        assert_eq!(pe.tasks_completed(), 0, "the four bursts interleave");
        for c in 60..110 {
            pe.tick(Cycles(c));
        }
        let s = pe.stats();
        assert_eq!(s.tasks_completed, 4);
        assert_eq!(s.swaps, 0);
        assert!(s.core_utilization > 0.9);
    }

    #[test]
    fn empty_program_completes_immediately() {
        let mut pe = Pe::new(PeConfig::new(PeClass::GpRisc, 1));
        pe.spawn(Program::straight_line([])).unwrap();
        assert_eq!(pe.tasks_completed(), 1);
        assert_eq!(pe.idle_threads(), 1);
    }

    #[test]
    #[should_panic(expected = "not awaiting completion")]
    fn completing_a_non_waiting_thread_panics() {
        let mut pe = Pe::new(PeConfig::new(PeClass::GpRisc, 1));
        pe.complete(ThreadId(0));
    }

    #[test]
    fn skipped_dormant_cycles_settle_identically() {
        // Two identical PEs, one ticked every cycle through a dormant span,
        // one skipped and bulk-settled: every statistic must come out equal.
        let mk = || Pe::new(PeConfig::new(PeClass::GpRisc, 2));
        let mut dense = mk();
        let mut lazy = mk();
        let task = Program::straight_line([Op::Compute(3), Op::call(NodeId(1), 8, 8)]);
        let td = dense.spawn(task.clone()).unwrap();
        let tl = lazy.spawn(task).unwrap();
        for c in 0..6 {
            dense.tick(Cycles(c));
            lazy.tick(Cycles(c));
        }
        assert_eq!(dense.take_requests().len(), 1);
        assert_eq!(lazy.take_requests().len(), 1);
        assert!(!lazy.is_live(), "blocked on the call: dormant");
        // Dormant span: dense ticks 100 cycles, lazy skips them entirely.
        for c in 6..106 {
            dense.tick(Cycles(c));
        }
        lazy.settle_accounting(Cycles(106));
        dense.complete(td);
        lazy.complete(tl);
        for c in 106..112 {
            dense.tick(Cycles(c));
            lazy.tick(Cycles(c));
        }
        let (a, b) = (dense.stats(), lazy.stats());
        assert_eq!(a.tasks_completed, b.tasks_completed);
        assert_eq!(a.swaps, b.swaps);
        assert_eq!(a.core_utilization.to_bits(), b.core_utilization.to_bits());
        assert_eq!(a.thread_occupancy.len(), b.thread_occupancy.len());
        for (x, y) in a.thread_occupancy.iter().zip(&b.thread_occupancy) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        assert_eq!(a.energy.0.to_bits(), b.energy.0.to_bits());
    }

    #[test]
    fn crash_discards_requests_and_kills_threads() {
        let mut pe = Pe::new(PeConfig::new(PeClass::GpRisc, 2));
        // Thread 0 will be awaiting a call; thread 1 holds an unexecuted
        // send.
        let t0 = pe
            .spawn(Program::straight_line([Op::call(NodeId(1), 8, 8)]))
            .unwrap();
        pe.spawn(Program::straight_line([
            Op::Compute(50),
            Op::send(NodeId(2), 4),
        ]))
        .unwrap();
        run(&mut pe, 3);
        // Leave thread 0's request undrained: the crash discards it.
        assert!(pe.has_requests());
        assert!(pe.is_awaiting(t0));
        pe.crash(Cycles(3));
        assert!(pe.is_crashed());
        assert!(!pe.is_live());
        assert_eq!(pe.idle_threads(), 0);
        assert!(!pe.is_awaiting(t0));
        assert!(!pe.has_requests());
        assert_eq!(
            pe.spawn(Program::straight_line([Op::Compute(1)])),
            Err(SpawnError)
        );
        assert_eq!(pe.tasks_completed(), 0, "killed tasks never complete");
        // Ticking a crashed PE is a pure accounting no-op.
        run(&mut pe, 10);
        assert_eq!(pe.tasks_completed(), 0);
        // Restart brings cold contexts back.
        pe.restart(Cycles(13));
        assert!(!pe.is_crashed());
        assert_eq!(pe.idle_threads(), 2);
        pe.spawn(Program::straight_line([Op::Compute(2)])).unwrap();
        for c in 13..20 {
            pe.tick(Cycles(c));
        }
        assert_eq!(pe.tasks_completed(), 1);
    }

    #[test]
    fn crash_is_deterministic_and_restart_idempotent() {
        let mk = || {
            let mut pe = Pe::new(PeConfig::new(PeClass::GpRisc, 2));
            pe.spawn(Program::straight_line([Op::Compute(20)])).unwrap();
            for c in 0..5 {
                pe.tick(Cycles(c));
            }
            pe.crash(Cycles(5));
            pe.restart(Cycles(9));
            pe.restart(Cycles(9)); // idempotent
            pe.spawn(Program::straight_line([Op::Compute(3)])).unwrap();
            for c in 9..20 {
                pe.tick(Cycles(c));
            }
            let s = pe.stats();
            (s.tasks_completed, s.core_utilization.to_bits(), s.swaps)
        };
        assert_eq!(mk(), mk());
    }

    /// The transition-kept counters against a recount from thread states.
    fn assert_counters_exact(pe: &Pe) {
        assert_eq!((pe.n_idle, pe.n_live), pe.recount());
    }

    #[test]
    fn thread_counters_stay_exact_across_transitions() {
        let mut pe = Pe::new(PeConfig::new(PeClass::GpRisc, 3));
        assert_counters_exact(&pe);
        pe.spawn(Program::straight_line([])).unwrap();
        assert_counters_exact(&pe);
        assert_eq!(pe.idle_threads(), 3, "an empty task never holds a context");
        let caller = pe
            .spawn(Program::straight_line([Op::call(NodeId(1), 8, 8)]))
            .unwrap();
        pe.spawn(Program::straight_line([Op::Compute(40)])).unwrap();
        assert_counters_exact(&pe);
        run(&mut pe, 4);
        assert!(pe.is_awaiting(caller));
        assert_counters_exact(&pe);
        pe.complete(caller);
        assert_counters_exact(&pe);
        assert!(pe.is_live());
        pe.crash(Cycles(4));
        assert_counters_exact(&pe);
        assert!(!pe.is_live());
        pe.restart(Cycles(6));
        assert_counters_exact(&pe);
        assert_eq!(pe.idle_threads(), 3);
        let t = pe
            .spawn(Program::straight_line([Op::send(NodeId(2), 8)]))
            .unwrap();
        for c in 6..9 {
            pe.tick(Cycles(c));
        }
        assert!(pe.is_awaiting(t));
        assert!(!pe.is_live(), "the only task awaits its send");
        pe.complete(t);
        for c in 9..12 {
            pe.tick(Cycles(c));
        }
        assert_counters_exact(&pe);
        assert_eq!(pe.idle_threads(), 3);
        assert_eq!(pe.tasks_completed(), 2);
    }

    #[test]
    fn occupancy_tracks_assigned_tasks() {
        let mut pe = Pe::new(PeConfig::new(PeClass::GpRisc, 2));
        pe.spawn(Program::straight_line([Op::Compute(50)])).unwrap();
        run(&mut pe, 50);
        let s = pe.stats();
        assert!(s.thread_occupancy[0] > 0.9);
        assert!(s.thread_occupancy[1] < 0.1);
    }
}
