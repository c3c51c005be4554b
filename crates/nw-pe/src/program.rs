//! Micro-op programs: the PE's ISA abstraction.
//!
//! The reproduction does not interpret a concrete instruction set — the
//! paper's claims depend only on *timing* behaviour (how long a handler
//! computes, when it stalls on the NoC or memory). A [`Program`] is a
//! straight-line sequence of timed micro-ops, typically synthesized by the
//! DSOC runtime from an object's method descriptor and dispatched onto an
//! idle hardware thread per invocation.

use crate::class::KernelDomain;
use nw_types::{Cycles, NodeId, Payload};

/// One micro-op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Busy-compute for this many GP-RISC-baseline cycles (scaled by the
    /// executing PE's class speedup for the program's domain).
    Compute(u64),
    /// Access the PE-local scratchpad memory; the thread stalls for the
    /// scratchpad's service time but nothing crosses the NoC.
    LocalMem {
        /// Write if true, read otherwise.
        write: bool,
        /// Access size.
        bytes: u64,
    },
    /// Fire-and-forget message to another node (packet forward, async
    /// reply). The thread stalls only until the NI accepts the packet.
    Send {
        /// Destination endpoint.
        dst: NodeId,
        /// Payload on the wire (a marshalled message, or zeros).
        payload: Payload,
        /// Opaque NoC tag (the DSOC runtime uses it to flag replies).
        tag: u64,
    },
    /// Synchronous request/response to another node (remote memory read,
    /// DSOC method call). The thread blocks until the response returns —
    /// this is the latency that hardware multithreading hides.
    Call {
        /// Destination endpoint.
        dst: NodeId,
        /// Request payload on the wire (a marshalled message, or zeros).
        payload: Payload,
        /// Expected response size.
        reply_bytes: u64,
    },
}

impl Op {
    /// Shorthand for a send of `bytes` zero bytes.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` exceeds the u32 payload length.
    pub fn send(dst: NodeId, bytes: u64) -> Op {
        Op::Send {
            dst,
            payload: zeroed(bytes),
            tag: 0,
        }
    }

    /// Shorthand for a call with a request of `bytes` zero bytes.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` exceeds the u32 payload length.
    pub fn call(dst: NodeId, bytes: u64, reply_bytes: u64) -> Op {
        Op::Call {
            dst,
            payload: zeroed(bytes),
            reply_bytes,
        }
    }
}

fn zeroed(bytes: u64) -> Payload {
    Payload::zeroed(u32::try_from(bytes).expect("payload size fits the u32 wire length"))
}

/// A straight-line micro-op program with a kernel domain annotation.
///
/// # Examples
///
/// ```
/// use nw_pe::{Program, Op, KernelDomain};
/// use nw_types::NodeId;
///
/// let p = Program::new(
///     [Op::Compute(50), Op::call(NodeId(3), 16, 64), Op::Compute(30)],
///     KernelDomain::PacketHeader,
/// );
/// assert_eq!(p.len(), 3);
/// assert_eq!(p.baseline_compute_cycles(), nw_types::Cycles(80));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    ops: Vec<Op>,
    domain: KernelDomain,
}

impl Program {
    /// Creates a program from ops and a domain annotation.
    pub fn new(ops: impl IntoIterator<Item = Op>, domain: KernelDomain) -> Self {
        Program {
            ops: ops.into_iter().collect(),
            domain,
        }
    }

    /// Creates a generic-domain program.
    pub fn straight_line(ops: impl IntoIterator<Item = Op>) -> Self {
        Self::new(ops, KernelDomain::Generic)
    }

    /// The ops in execution order.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Op at `pc`, if within the program.
    pub fn op(&self, pc: usize) -> Option<&Op> {
        self.ops.get(pc)
    }

    /// Number of ops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the program has no ops.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The kernel domain (decides specialization speedups).
    pub fn domain(&self) -> KernelDomain {
        self.domain
    }

    /// Total `Compute` cycles at GP-RISC baseline speed.
    pub fn baseline_compute_cycles(&self) -> Cycles {
        Cycles(
            self.ops
                .iter()
                .map(|op| match op {
                    Op::Compute(n) => *n,
                    _ => 0,
                })
                .sum(),
        )
    }

    /// Number of synchronous calls (round trips) in the program.
    pub fn call_count(&self) -> usize {
        self.ops
            .iter()
            .filter(|o| matches!(o, Op::Call { .. }))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        let p = Program::new(
            [
                Op::Compute(10),
                Op::send(NodeId(1), 8),
                Op::call(NodeId(2), 8, 8),
            ],
            KernelDomain::Signal,
        );
        assert_eq!(p.len(), 3);
        assert!(!p.is_empty());
        assert_eq!(p.domain(), KernelDomain::Signal);
        assert_eq!(p.call_count(), 1);
        assert_eq!(p.baseline_compute_cycles(), Cycles(10));
        assert!(matches!(p.op(0), Some(Op::Compute(10))));
        assert!(p.op(3).is_none());
    }

    #[test]
    fn empty_program() {
        let p = Program::straight_line([]);
        assert!(p.is_empty());
        assert_eq!(p.baseline_compute_cycles(), Cycles::ZERO);
    }

    #[test]
    fn op_shorthands_carry_zeroed_payloads() {
        assert_eq!(
            Op::send(NodeId(1), 8),
            Op::Send {
                dst: NodeId(1),
                payload: Payload::zeroed(8),
                tag: 0,
            }
        );
        assert_eq!(
            Op::call(NodeId(1), 8, 16),
            Op::Call {
                dst: NodeId(1),
                payload: Payload::zeroed(8),
                reply_bytes: 16,
            }
        );
    }
}
