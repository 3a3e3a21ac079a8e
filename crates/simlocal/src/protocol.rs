//! The per-vertex protocol abstraction and the neighbor view.

use crate::wire::WireSize;
use graphcore::{Graph, IdAssignment, VertexId};
use rand_chacha::ChaCha8Rng;

/// Index into [`Protocol::phase_names`] identifying which subroutine of a
/// composed protocol a vertex's round belongs to.
pub type PhaseId = u8;

/// What a vertex does after a step.
#[derive(Clone, Debug)]
pub enum Transition<S, O> {
    /// Stay active with the new state (its message is published to
    /// neighbors next round).
    Continue(S),
    /// Publish the final message, record the output, and terminate.
    ///
    /// The round in which this transition happens is the vertex's running
    /// time (the decide-and-broadcast round of the paper's §2 convention).
    Terminate(S, O),
}

/// A distributed algorithm: one instance shared by all vertices, holding
/// the global parameters every processor is assumed to know (`n`, the
/// arboricity `a`, `Δ`, `ε`, …) but **no per-vertex mutable data** — all
/// per-vertex data lives in `State`.
///
/// The state/wire split: `State` is a vertex's *private* memory, mutated
/// in place by the engine and never shown to anyone else; `Msg` is what
/// the vertex broadcasts each round, produced from the new state by
/// [`Protocol::publish`]. Neighbors only ever see `Msg` (through
/// [`NeighborView`]), so counters, RNG scratch, and partial work stay off
/// the wire — and the engine's communication accounting
/// ([`WireSize::wire_bits`]) measures what an implementation would
/// actually send.
pub trait Protocol: Sync {
    /// Per-vertex private state (never visible to neighbors).
    type State: Clone + Send + Sync;
    /// The message broadcast to neighbors each round.
    type Msg: Clone + Send + Sync + WireSize;
    /// Per-vertex final output.
    type Output: Clone + Send + Sync;

    /// State of vertex `v` before round 1. Its published message (via
    /// [`Protocol::publish`]) is what neighbors see in round 1.
    fn init(&self, g: &Graph, ids: &IdAssignment, v: VertexId) -> Self::State;

    /// The message a vertex holding `state` broadcasts. Called once per
    /// step on the *new* state (and once on the initial state); protocols
    /// whose whole state is neighbor-visible simply clone it.
    fn publish(&self, state: &Self::State) -> Self::Msg;

    /// One synchronous round for an active vertex.
    fn step(
        &self,
        ctx: StepCtx<'_, Self::State, Self::Msg>,
    ) -> Transition<Self::State, Self::Output>;

    /// Upper bound on rounds before the engine declares the protocol stuck.
    /// Generous default; override for protocols with known round bounds.
    fn max_rounds(&self, g: &Graph) -> u32 {
        let n = g.n().max(2) as u32;
        // 64 (log2 n)^2 + 1024: comfortably above every bound in the paper
        // for simulable sizes, small enough to fail fast on livelock bugs.
        64 * n.ilog2() * n.ilog2() + 1024
    }

    /// Locality declaration for the incremental re-solve engine
    /// ([`crate::warm`]): `Some(r)` asserts that a vertex's whole
    /// trajectory (states, messages, termination round, output) is a
    /// function of the edges incident to its `min(own rounds, r) + 1`
    /// ball — the `+ 1` covers [`Protocol::init`] reading the vertex's
    /// own incident edges. Any protocol whose `init` and `step` respect
    /// LOCAL locality (no global topology reads beyond `n`/`Δ`-style
    /// constants fixed across edits) can declare `Some(u32::MAX)`;
    /// protocols whose init scans global structure that churn can move
    /// (e.g. a freshly computed `Δ` or arboricity) must keep the
    /// default. `None` makes warm starts fall back to a full re-solve,
    /// which is always sound.
    fn dependence_radius(&self, g: &Graph) -> Option<u32> {
        let _ = g;
        None
    }

    /// Names of the protocol's phases (subroutines of a composition), in
    /// [`PhaseId`] order. Single-stage protocols keep the default.
    fn phase_names(&self) -> &'static [&'static str] {
        &["main"]
    }

    /// The phase that a round performed *from* `state` belongs to — i.e.
    /// the subroutine that consumes the round a vertex enters holding
    /// `state`. Must index into [`Protocol::phase_names`]; an id past its
    /// end panics the run, naming this contract. Called once per step on
    /// every run, observed or not, so it must stay cheap: the engines
    /// tally it into `EngineStats::phase_steps`.
    fn phase_of(&self, state: &Self::State) -> PhaseId {
        let _ = state;
        0
    }
}

/// Everything a vertex can see when it steps: its own identity and private
/// state, the global round number, and its neighbors' previous-round
/// messages. The message type defaults to the state type, so protocols
/// that publish their whole state write `StepCtx<'_, State>` unchanged.
pub struct StepCtx<'a, S, M = S> {
    /// The topology (a processor may freely inspect its own incident edges;
    /// global queries are available to protocols but correct LOCAL
    /// protocols only use local ones — tests enforce outputs, not access).
    pub graph: &'a Graph,
    /// ID assignment (read your own ID or a neighbor's — IDs travel with
    /// first-round messages in the LOCAL model).
    pub ids: &'a IdAssignment,
    /// This vertex.
    pub v: VertexId,
    /// Current round number, starting at 1.
    pub round: u32,
    /// This vertex's private state coming into the round.
    pub state: &'a S,
    /// Neighbor messages as published at the end of the previous round.
    pub view: NeighborView<'a, M>,
    /// Run seed for deriving this step's RNG.
    pub(crate) run_seed: u64,
}

impl<'a, S, M> StepCtx<'a, S, M> {
    /// This vertex's unique ID.
    #[inline]
    pub fn my_id(&self) -> u64 {
        self.ids.id(self.v)
    }

    /// Degree of this vertex.
    #[inline]
    pub fn degree(&self) -> usize {
        self.graph.degree(self.v)
    }

    /// Fresh deterministic RNG for this `(vertex, round)`.
    pub fn rng(&self) -> ChaCha8Rng {
        crate::rng::vertex_round_rng(self.run_seed, self.v, self.round)
    }
}

/// Read-only access to the previous-round published messages of the whole
/// graph, scoped to a vertex's neighborhood by the convenience methods.
///
/// Activity is served straight from the engine's bit words (bit `u & 63`
/// of `active_words[u >> 6]` is set iff `u` is still active) — the same
/// snapshot the round iterates, so no per-vertex `Vec<bool>` shadow is
/// maintained.
pub struct NeighborView<'a, M> {
    pub(crate) graph: &'a Graph,
    pub(crate) v: VertexId,
    pub(crate) msgs: &'a [M],
    pub(crate) active_words: &'a [u64],
}

impl<'a, M> NeighborView<'a, M> {
    /// Bit test against the active-set snapshot.
    #[inline]
    fn is_active_bit(&self, u: VertexId) -> bool {
        let uu = u as usize;
        (self.active_words[uu >> 6] >> (uu & 63)) & 1 != 0
    }

    /// Debug-only locality guard: in the LOCAL model a vertex may only
    /// read itself and its direct neighbors, but `msgs` spans the whole
    /// graph, so nothing stops a protocol from peeking further. Panics in
    /// debug builds if `u` is neither `self.v` nor one of its neighbors;
    /// compiled out in release builds so the hot loop is unaffected.
    #[inline]
    fn assert_local(&self, u: VertexId) {
        debug_assert!(
            u == self.v || self.graph.neighbors(self.v).contains(&u),
            "LOCAL-model violation: vertex {} read non-neighbor {}",
            self.v,
            u
        );
    }

    /// Previous-round message of an arbitrary vertex (normally a neighbor).
    #[inline]
    pub fn msg_of(&self, u: VertexId) -> &'a M {
        self.assert_local(u);
        &self.msgs[u as usize]
    }

    /// Whether `u` had terminated before this round began.
    #[inline]
    pub fn is_terminated(&self, u: VertexId) -> bool {
        self.assert_local(u);
        !self.is_active_bit(u)
    }

    /// Iterator over `(neighbor, message)` pairs.
    pub fn neighbors(&self) -> impl Iterator<Item = (VertexId, &'a M)> + '_ {
        self.graph
            .neighbors(self.v)
            .iter()
            .map(move |&u| (u, &self.msgs[u as usize]))
    }

    /// Iterator over neighbors that are still active.
    pub fn active_neighbors(&self) -> impl Iterator<Item = (VertexId, &'a M)> + '_ {
        self.graph
            .neighbors(self.v)
            .iter()
            .filter(move |&&u| self.is_active_bit(u))
            .map(move |&u| (u, &self.msgs[u as usize]))
    }

    /// Iterator over neighbors that have terminated (final messages).
    pub fn terminated_neighbors(&self) -> impl Iterator<Item = (VertexId, &'a M)> + '_ {
        self.graph
            .neighbors(self.v)
            .iter()
            .filter(move |&&u| !self.is_active_bit(u))
            .map(move |&u| (u, &self.msgs[u as usize]))
    }

    /// Count of still-active neighbors.
    pub fn active_degree(&self) -> usize {
        self.graph
            .neighbors(self.v)
            .iter()
            .filter(|&&u| self.is_active_bit(u))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphcore::gen;

    /// Bit words with the given vertices active.
    fn words_with_active(n: usize, active: &[VertexId]) -> Vec<u64> {
        let mut words = vec![0u64; n.div_ceil(64)];
        for &v in active {
            words[v as usize >> 6] |= 1u64 << (v as usize & 63);
        }
        words
    }

    #[test]
    fn neighbor_view_filters() {
        let g = gen::path(3);
        let msgs = vec![10u32, 20, 30];
        // Vertex 0 terminated; 1 and 2 active.
        let active_words = words_with_active(3, &[1, 2]);
        let view = NeighborView {
            graph: &g,
            v: 1,
            msgs: &msgs,
            active_words: &active_words,
        };
        let all: Vec<_> = view.neighbors().map(|(u, &s)| (u, s)).collect();
        assert_eq!(all, vec![(0, 10), (2, 30)]);
        let act: Vec<_> = view.active_neighbors().map(|(u, _)| u).collect();
        assert_eq!(act, vec![2]);
        let term: Vec<_> = view.terminated_neighbors().map(|(u, _)| u).collect();
        assert_eq!(term, vec![0]);
        assert_eq!(view.active_degree(), 1);
        assert!(view.is_terminated(0));
        assert_eq!(*view.msg_of(2), 30);
        // Self-reads are always legal.
        assert_eq!(*view.msg_of(1), 20);
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "locality guard is debug-only")]
    #[should_panic(expected = "LOCAL-model violation")]
    fn non_neighbor_read_panics_in_debug() {
        let g = gen::path(4);
        let msgs = vec![0u32; 4];
        let active_words = words_with_active(4, &[0, 1, 2, 3]);
        let view = NeighborView {
            graph: &g,
            v: 0,
            msgs: &msgs,
            active_words: &active_words,
        };
        // Vertex 3 is two hops from vertex 0 on a path — reading it
        // breaks the LOCAL model and must trip the debug guard.
        let _ = view.msg_of(3);
    }
}
