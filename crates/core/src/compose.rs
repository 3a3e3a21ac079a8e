//! §6.2 — generic composition of Procedure Partition with an auxiliary
//! per-H-set algorithm 𝒜 (Corollary 6.4).
//!
//! Algorithm 𝒞: in each iteration, a new H-set forms and *immediately*
//! runs 𝒜 on its induced subgraph (different sets run 𝒜 in overlapping
//! windows — legal because 𝒜 only reads same-set neighbors). If 𝒜's
//! worst case is `T_𝒜` rounds, the vertex-averaged complexity of the
//! composition is `O(T_𝒜)`: a vertex of `H_i` terminates by round
//! `i + 1 + T_𝒜`, and `Σ_i n_i · (i + T_𝒜) = O(n · T_𝒜)` by the
//! exponential decay of Lemma 6.1.
//!
//! This module is the library form of the pattern hand-specialized by the
//! §7/§8 protocols; use it to drop *any* in-set computation onto the
//! partition decay.

use crate::itlog;
use crate::partition::{degree_cap, partition_step};
use graphcore::{Graph, IdAssignment, VertexId};
use simlocal::{Protocol, StepCtx, Transition, WireSize};

/// One step's outcome for an in-set algorithm.
pub enum SubStep<S, O> {
    /// Keep running with a new sub-state.
    Continue(S),
    /// Finished: the composed vertex terminates with this output.
    Done(O),
}

/// An algorithm that runs inside a single H-set.
///
/// The engine guarantees: all members of `H_h` start at the same global
/// round (`local_round = 0` simultaneously), and `peers` in
/// `peers` yields exactly the same-set neighbors with their current
/// sub-states (or `None` while a peer is still in its entry round).
pub trait HSetAlgo: Sync {
    /// Per-vertex sub-state, published to same-set neighbors (it travels
    /// inside [`ComposeMsg::Running`], so it must size itself).
    type Sub: Clone + Send + Sync + WireSize;
    /// Per-vertex output.
    type Output: Clone + Send + Sync;

    /// Sub-state when entering the set (before the first step).
    fn enter(&self, g: &Graph, ids: &IdAssignment, v: VertexId, h: u32) -> Self::Sub;

    /// One synchronized in-set round.
    fn step(
        &self,
        ctx: &StepCtx<'_, ComposeState<Self::Sub>, ComposeMsg<Self::Sub>>,
        h: u32,
        local_round: u32,
        sub: &Self::Sub,
        peers: &[(VertexId, Self::Sub)],
    ) -> SubStep<Self::Sub, Self::Output>;

    /// A worst-case round bound for the engine's safety cap.
    fn round_bound(&self, g: &Graph) -> u32;
}

/// Composed per-vertex state.
#[derive(Clone, Debug)]
/// Field conventions: `h` is the 1-based H-set index, `c` a current
/// Linial/KW color value, `local` a final in-set color, `rec` a
/// recolored palette entry.
#[allow(missing_docs)] // field meanings are shared across the state machines (see the note above)
pub enum ComposeState<S> {
    /// Still in Procedure Partition.
    Active,
    /// Joined H-set `h` this round; enters 𝒜 next round.
    Joined { h: u32 },
    /// Running 𝒜 with the given sub-state.
    Running { h: u32, local: u32, sub: S },
}

/// Wire message of the composition: partition status plus the in-set
/// sub-state. The `local` round counter of
/// [`ComposeState::Running`] is private bookkeeping — peers synchronize
/// through the global iteration windows, so it never travels.
#[derive(Clone, Debug)]
#[allow(missing_docs)] // mirrors the `ComposeState` conventions above
pub enum ComposeMsg<S> {
    /// Still in Procedure Partition.
    Active,
    /// Joined H-set `h` this round.
    Joined { h: u32 },
    /// Running 𝒜 with the given sub-state.
    Running { h: u32, sub: S },
}

impl<S: WireSize> WireSize for ComposeMsg<S> {
    fn wire_bits(&self) -> u64 {
        // 2-bit tag for three variants, then the payload.
        match self {
            ComposeMsg::Active => 2,
            ComposeMsg::Joined { h } => 2 + h.wire_bits(),
            ComposeMsg::Running { h, sub } => 2 + h.wire_bits() + sub.wire_bits(),
        }
    }
}

/// Algorithm 𝒞 of §6.2: Partition ∘ 𝒜.
#[derive(Clone, Debug)]
pub struct Compose<A> {
    /// Known arboricity.
    pub arboricity: usize,
    /// ε ∈ (0, 2].
    pub epsilon: f64,
    /// The in-set algorithm.
    pub algo: A,
}

impl<A: HSetAlgo> Compose<A> {
    /// Standard composition (ε = 2).
    pub fn new(arboricity: usize, algo: A) -> Self {
        Compose {
            arboricity,
            epsilon: 2.0,
            algo,
        }
    }

    /// Degree threshold `A` — also the max in-set degree 𝒜 sees.
    pub fn cap(&self) -> usize {
        degree_cap(self.arboricity, self.epsilon)
    }
}

impl<A: HSetAlgo> Protocol for Compose<A> {
    type State = ComposeState<A::Sub>;
    type Msg = ComposeMsg<A::Sub>;
    type Output = A::Output;

    fn init(&self, _: &Graph, _: &IdAssignment, _: VertexId) -> Self::State {
        ComposeState::Active
    }

    fn publish(&self, state: &Self::State) -> Self::Msg {
        match state {
            ComposeState::Active => ComposeMsg::Active,
            ComposeState::Joined { h } => ComposeMsg::Joined { h: *h },
            ComposeState::Running { h, sub, .. } => ComposeMsg::Running {
                h: *h,
                sub: sub.clone(),
            },
        }
    }

    fn step(
        &self,
        ctx: StepCtx<'_, Self::State, Self::Msg>,
    ) -> Transition<Self::State, Self::Output> {
        match ctx.state.clone() {
            ComposeState::Active => {
                let active = ctx
                    .view
                    .neighbors()
                    .filter(|(_, s)| matches!(s, ComposeMsg::Active))
                    .count();
                if partition_step(active, self.cap()) {
                    Transition::Continue(ComposeState::Joined { h: ctx.round })
                } else {
                    Transition::Continue(ComposeState::Active)
                }
            }
            ComposeState::Joined { h } => {
                let sub = self.algo.enter(ctx.graph, ctx.ids, ctx.v, h);
                self.run_sub(&ctx, h, 0, sub)
            }
            ComposeState::Running { h, local, sub } => self.run_sub(&ctx, h, local, sub),
        }
    }

    fn max_rounds(&self, g: &Graph) -> u32 {
        itlog::partition_round_bound(g.n() as u64, self.epsilon) + self.algo.round_bound(g) + 8
    }

    fn phase_names(&self) -> &'static [&'static str] {
        &["partition", "inset"]
    }

    fn phase_of(&self, state: &Self::State) -> simlocal::PhaseId {
        match state {
            ComposeState::Active => 0,
            // A `Joined` vertex spends its round entering 𝒜.
            ComposeState::Joined { .. } | ComposeState::Running { .. } => 1,
        }
    }
}

impl<A: HSetAlgo> Compose<A> {
    fn run_sub(
        &self,
        ctx: &StepCtx<'_, ComposeState<A::Sub>, ComposeMsg<A::Sub>>,
        h: u32,
        local: u32,
        sub: A::Sub,
    ) -> Transition<ComposeState<A::Sub>, A::Output> {
        let peers: Vec<(VertexId, A::Sub)> = ctx
            .view
            .neighbors()
            .filter_map(|(u, s)| match s {
                ComposeMsg::Running { h: j, sub } if *j == h => Some((u, sub.clone())),
                // Peer entered this round: expose its entry sub-state.
                ComposeMsg::Joined { h: j } if *j == h => {
                    Some((u, self.algo.enter(ctx.graph, ctx.ids, u, h)))
                }
                _ => None,
            })
            .collect();
        match self.algo.step(ctx, h, local, &sub, &peers) {
            SubStep::Continue(next) => Transition::Continue(ComposeState::Running {
                h,
                local: local + 1,
                sub: next,
            }),
            SubStep::Done(out) => {
                Transition::Terminate(ComposeState::Running { h, local, sub }, out)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inset::DeltaPlusOneSchedule;
    use graphcore::{gen, verify, IdAssignment};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// 𝒜 = "idle for T rounds, then output the H-index" — makes
    /// Corollary 6.4's arithmetic directly observable.
    struct Delay {
        t: u32,
    }
    impl HSetAlgo for Delay {
        type Sub = ();
        type Output = u32;
        fn enter(&self, _: &Graph, _: &IdAssignment, _: VertexId, _: u32) {}
        fn step(
            &self,
            _: &StepCtx<'_, ComposeState<()>, ComposeMsg<()>>,
            h: u32,
            local: u32,
            _: &(),
            _: &[(VertexId, ())],
        ) -> SubStep<(), u32> {
            if local + 1 >= self.t {
                SubStep::Done(h)
            } else {
                SubStep::Continue(())
            }
        }
        fn round_bound(&self, _: &Graph) -> u32 {
            self.t + 1
        }
    }

    /// 𝒜 = the in-set `(A+1)`-coloring, phrased as an [`HSetAlgo`].
    struct InSetColoring {
        sched: DeltaPlusOneSchedule,
    }
    impl HSetAlgo for InSetColoring {
        type Sub = u64;
        type Output = u64;
        fn enter(&self, _: &Graph, ids: &IdAssignment, v: VertexId, _: u32) -> u64 {
            ids.id(v)
        }
        fn step(
            &self,
            _: &StepCtx<'_, ComposeState<u64>, ComposeMsg<u64>>,
            _: u32,
            local: u32,
            sub: &u64,
            peers: &[(VertexId, u64)],
        ) -> SubStep<u64, u64> {
            if local >= self.sched.rounds() {
                return SubStep::Done(self.sched.finish(*sub));
            }
            let others: Vec<u64> = peers.iter().map(|&(_, c)| c).collect();
            let next = self.sched.step(local, *sub, &others);
            if local + 1 == self.sched.rounds() {
                SubStep::Done(self.sched.finish(next))
            } else {
                SubStep::Continue(next)
            }
        }
        fn round_bound(&self, _: &Graph) -> u32 {
            self.sched.rounds() + 2
        }
    }

    #[test]
    fn corollary_6_4_vertex_average_is_o_of_t() {
        // VA of Partition∘Delay(T) ≈ T + O(1), independent of n.
        let mut rng = ChaCha8Rng::seed_from_u64(200);
        for n in [1024usize, 8192] {
            let gg = gen::forest_union(n, 2, &mut rng);
            let ids = IdAssignment::identity(n);
            for t in [1u32, 5, 20] {
                let p = Compose::new(2, Delay { t });
                let out = simlocal::Runner::new(&p, &gg.graph, &ids).run().unwrap();
                let va = out.metrics.vertex_averaged();
                // Corollary 6.4 with ε = 2: VA ≤ 2·(T + 1) + 1 comfortably.
                assert!(
                    va <= 2.0 * (t as f64 + 1.0) + 1.0,
                    "n={n}, T={t}: VA={va} not O(T)"
                );
                // Output is the H-index.
                for v in gg.graph.vertices() {
                    let term = out.metrics.termination_round[v as usize];
                    assert_eq!(term, out.outputs[v as usize] + t);
                }
            }
        }
    }

    #[test]
    fn phase_breakdown_partitions_round_sum() {
        use simlocal::Protocol as _;
        let mut rng = ChaCha8Rng::seed_from_u64(202);
        let gg = gen::forest_union(512, 2, &mut rng);
        let ids = IdAssignment::identity(512);
        let p = Compose::new(2, Delay { t: 4 });
        let out = simlocal::Runner::new(&p, &gg.graph, &ids).run().unwrap();
        let (steps, terms) = (&out.stats.phase_steps, &out.stats.phase_terminations);
        assert_eq!(steps.len(), p.phase_names().len());
        assert_eq!(steps.iter().sum::<u64>(), out.metrics.round_sum());
        assert_eq!(steps.iter().sum::<u64>(), out.stats.steps);
        // Every vertex spends Delay's T rounds in the in-set phase plus
        // one Joined entry round.
        assert_eq!(steps[1], 512 * 4);
        assert!(steps[0] > 0, "partition phase consumed rounds");
        // All terminations happen inside 𝒜.
        assert_eq!(terms[1], 512);
        assert_eq!(terms[0], 0);
        let va_sum: f64 = steps.iter().map(|&s| s as f64 / 512.0).sum();
        assert!((va_sum - out.metrics.vertex_averaged()).abs() < 1e-9);
    }

    #[test]
    fn composed_in_set_coloring_is_proper_within_sets() {
        let mut rng = ChaCha8Rng::seed_from_u64(201);
        let gg = gen::forest_union(600, 3, &mut rng);
        let ids = IdAssignment::identity(600);
        let cap = degree_cap(3, 2.0) as u64;
        let p = Compose::new(
            3,
            InSetColoring {
                sched: DeltaPlusOneSchedule::new(600, cap),
            },
        );
        let out = simlocal::Runner::new(&p, &gg.graph, &ids).run().unwrap();
        // Colors are proper within each H-set (pair them with the H-index
        // = termination round minus the in-set duration — simpler: check
        // every edge whose endpoints terminated in the same round).
        for (_, (u, v)) in gg.graph.edges() {
            let tu = out.metrics.termination_round[u as usize];
            let tv = out.metrics.termination_round[v as usize];
            if tu == tv {
                assert_ne!(
                    out.outputs[u as usize], out.outputs[v as usize],
                    "same-set edge ({u},{v}) monochromatic"
                );
            }
        }
        // Palette is A+1.
        assert!(out.outputs.iter().all(|&c| c <= cap));
        // And the global pair ⟨color, set⟩ is a proper coloring.
        let paired: Vec<u64> = gg
            .graph
            .vertices()
            .map(|v| {
                out.outputs[v as usize] * 10_000 + out.metrics.termination_round[v as usize] as u64
            })
            .collect();
        verify::assert_ok(verify::proper_vertex_coloring(
            &gg.graph,
            &paired,
            usize::MAX,
        ));
    }
}
