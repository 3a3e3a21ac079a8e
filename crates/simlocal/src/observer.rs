//! Execution observers: per-vertex event streams.
//!
//! Every aggregate a run has is already in its outcome: the round
//! metrics, the wire accounting and the per-phase `RoundSum` and
//! termination counts ([`EngineStats`](crate::EngineStats)) are counted
//! by the round step itself, observed or not. An [`Observer`] is only for
//! what an aggregate cannot hold — the per-vertex event stream, as
//! [`TraceLog`](crate::trace::TraceLog) records it.
//!
//! The engine is monomorphized over the observer type. The default,
//! [`NoObserver`], has `ENABLED = false` and empty inline hooks, so an
//! unobserved run records no hook events and takes no per-round clock
//! reads. Attaching an enabled observer turns on per-round wall-clock
//! timing and the full hook sequence:
//!
//! 1. [`Observer::on_round_start`] — before any vertex steps;
//! 2. [`Observer::on_phase`] — once per `(active vertex, round)`, carrying
//!    the [`PhaseId`] of the subroutine that consumed the round (computed
//!    via [`Protocol::phase_of`](crate::Protocol::phase_of) from the state
//!    the vertex entered the round with);
//! 3. [`Observer::on_step`] — once per `(active vertex, round)`, in
//!    deterministic vertex order, replayed after every active vertex has
//!    stepped (identical in sequential and parallel modes); `on_phase`
//!    for the same vertex fires immediately before it;
//! 4. [`Observer::on_terminate`] — once per vertex, in its final round;
//! 5. [`Observer::on_round_end`] — with the round's [`RoundRecord`].
//!
//! The trace observer built on these hooks lives in [`crate::trace`].

use crate::protocol::PhaseId;
use graphcore::VertexId;
use std::time::Duration;

/// Everything the engine measured about one completed round.
#[derive(Clone, Debug)]
pub struct RoundRecord {
    /// Round number (1-based).
    pub round: u32,
    /// Vertices that stepped this round (the paper's `n_i`).
    pub active: usize,
    /// Messages published this round — every stepped vertex publishes
    /// once, including the final broadcast of vertices that terminate.
    pub publications: usize,
    /// Wire bits published this round: the sum of `WireSize::wire_bits`
    /// over every message published this round (heap payloads counted).
    pub msg_bits: u64,
    /// Largest single message published this round, in bits.
    pub max_msg_bits: u64,
    /// Wall-clock time of the round (step + publish phases).
    pub wall: Duration,
}

/// Per-round instrumentation hooks. All hooks default to no-ops; see the
/// module docs for the exact firing sequence.
pub trait Observer {
    /// When `false`, the engine skips per-round clock reads and records
    /// no per-vertex hook events. [`NoObserver`] is the only
    /// implementation that should disable this.
    const ENABLED: bool = true;

    /// A round is about to execute with `active` live vertices.
    fn on_round_start(&mut self, round: u32, active: usize) {
        let _ = (round, active);
    }

    /// Vertex `v` is about to be counted as stepped in `round`; `phase` is
    /// the [`PhaseId`] of the subroutine the round belonged to (from
    /// [`Protocol::phase_of`](crate::Protocol::phase_of) on the state the
    /// vertex entered the round with). Fires exactly once per active
    /// vertex per round, immediately before [`Observer::on_step`] for the
    /// same vertex, and only on observed runs.
    fn on_phase(&mut self, v: VertexId, round: u32, phase: PhaseId) {
        let _ = (v, round, phase);
    }

    /// Vertex `v` stepped in `round` (fires exactly once per active
    /// vertex per round, in deterministic vertex order).
    fn on_step(&mut self, v: VertexId, round: u32) {
        let _ = (v, round);
    }

    /// Vertex `v` terminated in `round` (fires exactly once per vertex).
    fn on_terminate(&mut self, v: VertexId, round: u32) {
        let _ = (v, round);
    }

    /// A round finished; `record` carries its telemetry.
    fn on_round_end(&mut self, record: &RoundRecord) {
        let _ = record;
    }
}

/// The zero-cost default observer: all hooks compile to nothing.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoObserver;

impl Observer for NoObserver {
    const ENABLED: bool = false;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_observer_is_disabled() {
        // Read through a generic fn so the flag is checked the way the
        // engine sees it (and clippy accepts the non-literal assert).
        fn enabled<Ob: Observer>() -> bool {
            Ob::ENABLED
        }
        assert!(!enabled::<NoObserver>());
        assert!(enabled::<crate::trace::TraceLog>());
    }
}
