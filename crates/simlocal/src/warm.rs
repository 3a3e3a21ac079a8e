//! Incremental re-solve: warm-starting a run from a prior outcome after
//! a batch of edge edits.
//!
//! # The freeze rule
//!
//! In the LOCAL model, a vertex's trajectory through round `t` is a
//! function of the edges incident to its radius-`t` ball (plus one hop,
//! because `init` may read the vertex's own incident edges — its degree).
//! Editing edge `{a, b}` only changes the incident-edge sets of `a` and
//! `b`, so a vertex `u` whose cold run terminated in round `T_u` is
//! untouched by the edit whenever every edit endpoint is farther than
//! `T_u` from `u`. Such a vertex is **frozen**: its entire message
//! trajectory, termination round, and output are byte-identical between
//! the old cold run and a fresh cold run on the edited graph.
//!
//! The distance to the edit endpoints is the same in the pre-edit and
//! post-edit graph: every edited edge joins two endpoints, both sources
//! of the BFS at distance 0, and an edge between two sources never lies
//! on a shortest path from the source set. One BFS on the edited graph
//! therefore decides the freeze rule, and it stops at depth
//! `min(max_u T_u, radius)` because no vertex's ball is larger. (On a
//! graph whose diameter is below that depth it still reaches every
//! vertex of the component: only the vertices with `dist ≤ T_u` step.)
//!
//! The warm engine re-steps only the vertices within the dependence
//! ball of an edit. A stepping vertex reads only its neighbors' slots,
//! so of the frozen vertices only the *halo* — frozen neighbors of
//! stepping vertices — has its per-round messages and activity schedule
//! served, from a [`Replay`] log recorded by the prior run. By induction
//! over rounds the stepping vertices see exactly what a cold run on the
//! edited graph would show them, so warm outputs are **byte-identical**
//! to a cold full re-solve — the property the proptests in this module
//! pin.
//!
//! An update therefore costs the depth-capped BFS plus
//! `O(ball + halo · rounds + edit)` plus a few `O(n)` slab passes of
//! copy cost: the dense message slab, the BFS distances, the outputs,
//! and the merged replay log, where each run of consecutive frozen
//! vertices is one slice copy.
//!
//! Protocols opt in by overriding
//! [`Protocol::dependence_radius`](crate::Protocol::dependence_radius):
//! `Some(r)` declares that a vertex's trajectory depends on at most its
//! `min(own rounds, r) + 1`-ball (any protocol whose `init`/`step` obey
//! LOCAL locality can declare `Some(u32::MAX)`); `None` (the default)
//! makes [`run_warm`] fall back to a full cold re-solve, which is always
//! correct.
//!
//! The warm outcome's metrics are the **update cost**: frozen vertices
//! report termination round 0 and the activity series counts stepping
//! vertices only, so `RoundMetrics::vertex_averaged` is the
//! vertex-averaged update cost of the batch.

use crate::engine::{execute, EngineError, EngineStats, RoundView, RunConfig, SimOutcome};
use crate::metrics::RoundMetrics;
use crate::obs::{Metric, Registry};
use crate::observer::NoObserver;
use crate::protocol::Protocol;
use graphcore::{Graph, IdAssignment, VertexId};
use std::ops::Range;
use std::time::Instant;

/// The message log of a completed run: everything a later warm start
/// needs to replay the run's visible behavior without re-stepping it.
///
/// Entry `t` of `v`'s history is the message `v` had published entering
/// round `t + 1` (entry 0 is its initial publish). A vertex stops
/// publishing when it terminates, so its history holds `term[v] + 1`
/// messages and the last is its terminal broadcast. The histories are
/// stored back to back in one flat log, `v`'s at
/// `log[offsets[v]..offsets[v + 1]]`, so carrying a run of frozen
/// vertices into the next log is a single slice copy.
#[derive(Clone, Debug)]
pub struct Replay<M> {
    log: Vec<M>,
    offsets: Vec<usize>,
    term: Vec<u32>,
}

impl<M: Clone> Replay<M> {
    /// Number of vertices the log covers.
    pub fn n(&self) -> usize {
        self.term.len()
    }

    /// Cold-equivalent termination round of each vertex — for a warm
    /// run's replay this is the round a fresh cold run would report,
    /// not the (zeroed-for-frozen) update-cost metric.
    pub fn term(&self) -> &[u32] {
        &self.term
    }

    /// Every message `v` published, in round order.
    fn history(&self, v: usize) -> &[M] {
        &self.log[self.offsets[v]..self.offsets[v + 1]]
    }

    /// The replay of a run that logged every vertex.
    fn from_round_log(log: &RoundLog<M>, term: Vec<u32>) -> Replay<M> {
        let mut rows = log.rows();
        let mut flat = Vec::with_capacity(log.msgs.len());
        let mut offsets = Vec::with_capacity(term.len() + 1);
        for &t in &term {
            offsets.push(flat.len());
            rows.append_next(t, &mut flat);
        }
        offsets.push(flat.len());
        Replay {
            log: flat,
            offsets,
            term,
        }
    }

    /// The replay of a warm run: the `stepping` vertices (ascending)
    /// take their recomputed histories from `fresh`, every other vertex
    /// keeps its history from `self`, copied a run of consecutive frozen
    /// vertices at a time.
    fn merged(&self, stepping: &[VertexId], fresh: &RoundLog<M>, term: Vec<u32>) -> Replay<M> {
        let n = term.len();
        let replaced: usize = stepping
            .iter()
            .map(|&s| self.history(s as usize).len())
            .sum();
        let mut flat = Vec::with_capacity(self.log.len() - replaced + fresh.msgs.len());
        let mut offsets = Vec::with_capacity(n + 1);
        let mut rows = fresh.rows();
        let mut next = 0;
        for &s in stepping {
            let s = s as usize;
            self.copy_histories(next..s, &mut flat, &mut offsets);
            offsets.push(flat.len());
            rows.append_next(term[s], &mut flat);
            next = s + 1;
        }
        self.copy_histories(next..n, &mut flat, &mut offsets);
        offsets.push(flat.len());
        Replay {
            log: flat,
            offsets,
            term,
        }
    }

    /// Appends the histories of the vertex range `vs` to `flat`, with
    /// their start offsets to `offsets`.
    fn copy_histories(&self, vs: Range<usize>, flat: &mut Vec<M>, offsets: &mut Vec<usize>) {
        let (lo, hi) = (self.offsets[vs.start], self.offsets[vs.end]);
        let base = flat.len();
        offsets.extend(self.offsets[vs].iter().map(|&o| o - lo + base));
        flat.extend_from_slice(&self.log[lo..hi]);
    }
}

/// Messages in publication order, round-major: segment `t` holds the
/// messages published in round `t` (the initial publishes for `t = 0`)
/// by the logged vertices that stepped in it, in ascending vertex order.
/// In round `t ≥ 1` those are exactly the logged vertices with
/// termination round `≥ t`, which is what lets [`Rows`] read the log
/// back one vertex at a time.
pub(crate) struct RoundLog<M> {
    msgs: Vec<M>,
    starts: Vec<usize>,
}

impl<M: Clone> RoundLog<M> {
    fn new() -> RoundLog<M> {
        RoundLog {
            msgs: Vec::new(),
            starts: Vec::new(),
        }
    }

    /// Opens the segment of the next round.
    pub(crate) fn open_round(&mut self) {
        self.starts.push(self.msgs.len());
    }

    /// Appends the next message of the open round's segment.
    pub(crate) fn push(&mut self, m: M) {
        self.msgs.push(m);
    }

    /// A reader positioned at the first logged vertex.
    fn rows(&self) -> Rows<'_, M> {
        Rows {
            log: self,
            next: self.starts.clone(),
        }
    }
}

/// Vertex-major reader of a [`RoundLog`]: `next[t]` is where the next
/// vertex's round-`t` message sits.
struct Rows<'a, M> {
    log: &'a RoundLog<M>,
    next: Vec<usize>,
}

impl<M: Clone> Rows<'_, M> {
    /// Appends the history of the next logged vertex — callers walk the
    /// logged vertices in ascending order — which terminated in round
    /// `term`.
    fn append_next(&mut self, term: u32, out: &mut Vec<M>) {
        for c in &mut self.next[..=term as usize] {
            out.push(self.log.msgs[*c].clone());
            *c += 1;
        }
    }
}

/// Everything a warm start needs from the previous solve: the replay
/// log and outputs it produced, the graph it ran on, and the vertices
/// incident to the edits that turned that graph into the current one
/// (see [`graphcore::churn::EditBatch::endpoints`]).
pub struct WarmStart<'a, M, O> {
    /// Replay log of the prior run (cold or itself warm).
    pub replay: &'a Replay<M>,
    /// Per-vertex outputs of the prior run.
    pub outputs: &'a [O],
    /// The pre-edit graph the prior run executed on.
    pub old_graph: &'a Graph,
    /// Vertices incident to an inserted or deleted edge.
    pub touched: &'a [VertexId],
}

/// What the warm engine decided and did, beyond the outcome itself.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WarmStats {
    /// Vertices re-stepped (inside the dependence ball of an edit).
    pub reactivated: usize,
    /// Whether the run fell back to a full cold re-solve because the
    /// protocol declared no dependence radius.
    pub full_resolve: bool,
}

/// A completed warm run: the update-cost outcome (frozen vertices have
/// termination round 0), the chained replay log for the next batch, and
/// the reactivation accounting.
pub struct WarmOutcome<M, O> {
    /// Update-cost outcome; `outputs` are byte-identical to a cold
    /// re-solve on the edited graph.
    pub outcome: SimOutcome<O>,
    /// Replay log equivalent to the one a cold re-solve would record —
    /// feed it to the next batch's [`WarmStart`].
    pub replay: Replay<M>,
    /// Reactivation accounting.
    pub stats: WarmStats,
}

/// `(cold outcome, replay log)` pair produced by a recorded run.
pub type Recorded<P> = (
    SimOutcome<<P as Protocol>::Output>,
    Replay<<P as Protocol>::Msg>,
);

/// Multi-source BFS distances from `sources` out to distance `depth`
/// (`u32::MAX` beyond `depth` or unreachable).
fn bounded_bfs(g: &Graph, sources: &[VertexId], depth: u32) -> Vec<u32> {
    let mut dist = vec![u32::MAX; g.n()];
    let mut queue = Vec::with_capacity(sources.len());
    for &s in sources {
        let su = s as usize;
        assert!(su < g.n(), "edit endpoint {s} out of range");
        if dist[su] != 0 {
            dist[su] = 0;
            queue.push(s);
        }
    }
    let mut head = 0;
    while let Some(&u) = queue.get(head) {
        head += 1;
        let du = dist[u as usize];
        if du >= depth {
            break; // the queue is ordered by distance: the rest sit at `depth`
        }
        for &w in g.neighbors(u) {
            if dist[w as usize] == u32::MAX {
                dist[w as usize] = du + 1;
                queue.push(w);
            }
        }
    }
    dist
}

/// Cold run that also records the [`Replay`] log: the sync kernel with
/// a log sink attached, so it runs exactly like
/// [`Runner::run`](crate::Runner::run) — sequential or parallel, with or
/// without `obs` — and its outcome is byte-identical to a plain run.
pub(crate) fn run_recorded<P: Protocol>(
    protocol: &P,
    g: &Graph,
    ids: &IdAssignment,
    cfg: RunConfig,
    obs: Option<&Registry>,
) -> Result<Recorded<P>, EngineError> {
    let mut log = RoundLog::new();
    let outcome = execute(protocol, g, ids, cfg, &mut NoObserver, obs, Some(&mut log))?;
    let replay = Replay::from_round_log(&log, outcome.metrics.termination_round.clone());
    Ok((outcome, replay))
}

/// Incremental re-solve of `g` (the post-edit graph) warm-started from
/// `prior`. See the module docs for the freeze rule; outputs and the
/// returned replay are byte-identical to a cold re-solve, while the
/// outcome's metrics measure the update cost only.
pub(crate) fn run_warm<P: Protocol>(
    protocol: &P,
    g: &Graph,
    ids: &IdAssignment,
    cfg: RunConfig,
    obs: Option<&Registry>,
    prior: WarmStart<'_, P::Msg, P::Output>,
) -> Result<WarmOutcome<P::Msg, P::Output>, EngineError> {
    assert_eq!(ids.len(), g.n(), "ID assignment must cover all vertices");
    let n = g.n();
    assert_eq!(prior.old_graph.n(), n, "churn keeps the vertex set fixed");
    assert_eq!(prior.replay.n(), n, "replay log must cover all vertices");
    assert_eq!(
        prior.outputs.len(),
        n,
        "prior outputs must cover all vertices"
    );
    debug_assert!(
        prior.old_graph.vertices().all(|v| {
            prior.old_graph.neighbors(v) == g.neighbors(v) || prior.touched.contains(&v)
        }),
        "every vertex whose adjacency the edits changed must be touched"
    );
    let ob = obs.map(|r| r.handle(0));

    let Some(radius) = protocol.dependence_radius(g) else {
        // No locality declaration: the only sound move is a full cold
        // re-solve (which also refreshes the replay log).
        let (outcome, replay) = run_recorded(protocol, g, ids, cfg, obs)?;
        if let Some(o) = ob {
            o.add(Metric::EngineWarmRuns, 1);
            o.add(Metric::EngineWarmFullResolves, 1);
            o.add(Metric::EngineReactivated, n as u64);
        }
        return Ok(WarmOutcome {
            outcome,
            replay,
            stats: WarmStats {
                reactivated: n,
                full_resolve: true,
            },
        });
    };

    // Freeze rule: re-step exactly the vertices with an edit endpoint
    // inside their dependence ball. One BFS on the edited graph serves
    // both topologies (see the module docs), and it need not look past
    // the largest ball any vertex has.
    let term_prior = prior.replay.term();
    let depth = radius.min(term_prior.iter().copied().max().unwrap_or(0));
    let dist = bounded_bfs(g, prior.touched, depth);
    let steps = |v: VertexId| dist[v as usize] <= term_prior[v as usize].min(radius);
    let stepping: Vec<VertexId> = (0..n as VertexId).filter(|&v| steps(v)).collect();
    let reactivated = stepping.len();
    if let Some(o) = ob {
        o.add(Metric::EngineWarmRuns, 1);
        o.add(Metric::EngineReactivated, reactivated as u64);
    }
    // Stepping vertices read only their neighbors' slots, so of the
    // frozen vertices only this halo needs its replayed schedule served:
    // `(vertex, recorded termination round, start of its history)`.
    let mut in_halo = vec![false; n];
    let mut halo: Vec<(usize, u32, usize)> = Vec::new();
    for &v in &stepping {
        for &u in g.neighbors(v) {
            let uu = u as usize;
            if !steps(u) && !in_halo[uu] {
                in_halo[uu] = true;
                halo.push((uu, term_prior[uu], prior.replay.offsets[uu]));
            }
        }
    }

    let max_rounds = cfg.max_rounds.unwrap_or_else(|| protocol.max_rounds(g));
    let run_t0 = Instant::now();

    // Slabs. The message slab is dense because NeighborView indexes it
    // by vertex; frozen slots start at their initial publish. Stepping
    // vertices re-init on the edited graph.
    let mut msgs: Vec<P::Msg> = (0..n).map(|v| prior.replay.history(v)[0].clone()).collect();
    let mut log = RoundLog::new();
    log.open_round();
    let mut live: Vec<(VertexId, P::State)> = stepping
        .iter()
        .map(|&v| {
            let s = protocol.init(g, ids, v);
            let m = protocol.publish(&s);
            log.push(m.clone());
            msgs[v as usize] = m;
            (v, s)
        })
        .collect();
    let mut outputs: Vec<P::Output> = prior.outputs.to_vec();
    let mut termination_round = vec![0u32; n];
    let mut term_cold = term_prior.to_vec();

    // `live` drives iteration (stepping vertices only); `visible` is the
    // snapshot NeighborView serves and follows the *cold* schedule —
    // halo vertices stay visible-active until their recorded
    // termination round.
    let wlen = n.div_ceil(64).max(1);
    let mut visible = vec![u64::MAX; wlen];
    if !n.is_multiple_of(64) {
        visible[wlen - 1] = (1u64 << (n % 64)) - 1;
    }
    if n == 0 {
        visible[0] = 0;
    }

    let mut steps_buf = Vec::with_capacity(reactivated);
    let mut active_per_round: Vec<usize> = Vec::new();
    let mut stats = EngineStats::default();

    let mut round: u32 = 0;
    while !live.is_empty() {
        round += 1;
        if round > max_rounds {
            return Err(EngineError::RoundLimitExceeded {
                max_rounds,
                still_active: live.len(),
            });
        }
        let stepped = live.len();
        active_per_round.push(stepped);
        let view = RoundView {
            protocol,
            graph: g,
            ids,
            seed: cfg.seed,
            round,
            msgs: &msgs,
            active_words: &visible,
        };
        steps_buf.extend(live.iter().map(|(v, state)| view.step(*v, state)));
        log.open_round();
        let mut kept = 0;
        for (i, step) in steps_buf.drain(..).enumerate() {
            let v = live[i].0;
            let vu = v as usize;
            stats.msg_bits += step.bits;
            stats.max_msg_bits = stats.max_msg_bits.max(step.bits);
            log.push(step.msg.clone());
            msgs[vu] = step.msg;
            match step.output {
                Some(o) => {
                    outputs[vu] = o;
                    termination_round[vu] = round;
                    term_cold[vu] = round;
                    visible[vu >> 6] &= !(1u64 << (vu & 63));
                }
                None => {
                    live[kept] = (v, step.state);
                    kept += 1;
                }
            }
        }
        live.truncate(kept);
        // Advance the halo's recorded schedule: refresh the message slots
        // of those that stepped in this cold round, hide those that
        // terminated in it.
        halo.retain(|&(u, term, start)| {
            if term >= round {
                // The message the cold run would show entering round + 1.
                msgs[u] = prior.replay.log[start + round as usize].clone();
            }
            if term == round {
                visible[u >> 6] &= !(1u64 << (u & 63));
            }
            term > round
        });
        stats.steps += stepped as u64;
        stats.publications += stepped as u64;
    }

    stats.rounds = round;
    stats.wall = run_t0.elapsed();
    // Stepping vertices contribute their recomputed trajectory, frozen
    // vertices carry the prior run's forward unchanged. The outcome's
    // termination rounds stay 0 for frozen (update cost); the replay's
    // `term` is the cold-equivalent round for every vertex.
    let replay = prior.replay.merged(&stepping, &log, term_cold);
    Ok(WarmOutcome {
        outcome: SimOutcome {
            outputs,
            metrics: RoundMetrics {
                termination_round,
                active_per_round,
            },
            stats,
        },
        replay,
        stats: WarmStats {
            reactivated,
            full_resolve: false,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{StepCtx, Transition};
    use crate::Runner;
    use graphcore::churn::{apply, churn_sequence, ChurnPlan};
    use graphcore::gen;
    use rand::Rng;

    /// Deterministic local protocol with degree-dependent init: floods
    /// the max ID seen for `horizon` rounds, then outputs it together
    /// with the vertex's degree-at-init.
    struct MaxIdFlood {
        horizon: u32,
    }

    impl Protocol for MaxIdFlood {
        type State = (u64, u64, u32); // (max id seen, init degree, rounds done)
        type Msg = u64;
        type Output = (u64, u64);

        fn init(&self, g: &Graph, ids: &IdAssignment, v: VertexId) -> Self::State {
            (ids.id(v), g.degree(v) as u64, 0)
        }

        fn publish(&self, s: &Self::State) -> u64 {
            s.0
        }

        fn step(
            &self,
            ctx: StepCtx<'_, Self::State, u64>,
        ) -> Transition<Self::State, Self::Output> {
            let (mut best, deg, done) = *ctx.state;
            for (_, &m) in ctx.view.neighbors() {
                best = best.max(m);
            }
            if done + 1 >= self.horizon {
                Transition::Terminate((best, deg, done + 1), (best, deg))
            } else {
                Transition::Continue((best, deg, done + 1))
            }
        }

        fn dependence_radius(&self, _: &Graph) -> Option<u32> {
            Some(u32::MAX)
        }
    }

    /// Randomized decay-style protocol: each round a vertex flips a
    /// seeded coin biased by its count of still-active neighbors and the
    /// coins it saw last round; termination rounds vary per vertex, so
    /// warm runs get a rich frozen/stepping mix.
    struct CoinDecay;

    impl Protocol for CoinDecay {
        type State = (u64, u32); // (last coin, credits)
        type Msg = u64;
        type Output = (u64, u32); // (final coin, termination credits)

        fn init(&self, g: &Graph, _: &IdAssignment, v: VertexId) -> Self::State {
            (g.degree(v) as u64, 0)
        }

        fn publish(&self, s: &Self::State) -> u64 {
            s.0
        }

        fn step(
            &self,
            ctx: StepCtx<'_, Self::State, u64>,
        ) -> Transition<Self::State, Self::Output> {
            let mut rng = ctx.rng();
            let mut acc = ctx.state.0;
            let mut live = 0u32;
            for (u, &m) in ctx.view.neighbors() {
                acc = acc.wrapping_mul(31).wrapping_add(m);
                if !ctx.view.is_terminated(u) {
                    live += 1;
                }
            }
            let coin = acc ^ rng.gen::<u64>();
            let credits = ctx.state.1 + 1;
            // Die out faster as the active neighborhood thins.
            if coin % (live as u64 + 2) == 0 || credits > 12 {
                Transition::Terminate((coin, credits), (coin, credits))
            } else {
                Transition::Continue((coin, credits))
            }
        }

        fn dependence_radius(&self, _: &Graph) -> Option<u32> {
            Some(u32::MAX)
        }
    }

    /// CoinDecay without the locality declaration — forces the fallback.
    struct OpaqueDecay;

    impl Protocol for OpaqueDecay {
        type State = (u64, u32);
        type Msg = u64;
        type Output = (u64, u32);

        fn init(&self, g: &Graph, ids: &IdAssignment, v: VertexId) -> Self::State {
            CoinDecay.init(g, ids, v)
        }

        fn publish(&self, s: &Self::State) -> u64 {
            s.0
        }

        fn step(
            &self,
            ctx: StepCtx<'_, Self::State, u64>,
        ) -> Transition<Self::State, Self::Output> {
            CoinDecay.step(ctx)
        }
    }

    fn ids(n: usize) -> IdAssignment {
        IdAssignment::identity(n)
    }

    /// Seeded G(n, p) sample.
    fn rg(n: usize, p: f64, seed: u64) -> Graph {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        gen::gnp(n, p, &mut rng).graph
    }

    /// Cold run + warm chain over every churn batch, asserting the warm
    /// outputs/replay match a cold re-solve on each edited graph.
    fn assert_warm_matches_cold<P>(protocol: &P, base: &Graph, plan: &ChurnPlan, seed: u64)
    where
        P: Protocol,
        P::Output: PartialEq + std::fmt::Debug,
        P::Msg: PartialEq + std::fmt::Debug,
    {
        let idv = ids(base.n());
        let cfg = RunConfig::seeded(seed);
        let (cold0, mut replay) = run_recorded(protocol, base, &idv, cfg, None).unwrap();
        let mut outputs = cold0.outputs;
        let mut g = base.clone();
        for (bi, batch) in churn_sequence(base, plan).iter().enumerate() {
            let old = g.clone();
            g = apply(&g, batch);
            let warm = run_warm(
                protocol,
                &g,
                &idv,
                cfg,
                None,
                WarmStart {
                    replay: &replay,
                    outputs: &outputs,
                    old_graph: &old,
                    touched: &batch.endpoints(),
                },
            )
            .unwrap();
            let cold = Runner::new(protocol, &g, &idv).config(cfg).run().unwrap();
            assert_eq!(warm.outcome.outputs, cold.outputs, "batch {bi}: outputs");
            assert_eq!(
                warm.replay.term, cold.metrics.termination_round,
                "batch {bi}: cold-equivalent termination rounds"
            );
            assert!(!warm.stats.full_resolve);
            assert!(warm.stats.reactivated <= base.n());
            // The replay must chain: every vertex's history is what a
            // recorded cold run on the edited graph would have logged.
            let (_, cold_replay) = run_recorded(protocol, &g, &idv, cfg, None).unwrap();
            assert_eq!(
                warm.replay.term, cold_replay.term,
                "batch {bi}: replay term"
            );
            for v in 0..g.n() {
                assert_eq!(
                    warm.replay.history(v),
                    cold_replay.history(v),
                    "batch {bi}: replay log of vertex {v}"
                );
            }
            // Update-cost metrics stay internally consistent.
            warm.outcome.metrics.check_identities().unwrap();
            outputs = warm.outcome.outputs;
            replay = warm.replay;
        }
    }

    #[test]
    fn recorded_run_matches_plain_run() {
        let g = rg(120, 0.05, 9);
        let idv = ids(g.n());
        let cfg = RunConfig::seeded(3);
        let (rec, replay) = run_recorded(&CoinDecay, &g, &idv, cfg, None).unwrap();
        let plain = Runner::new(&CoinDecay, &g, &idv).config(cfg).run().unwrap();
        assert_eq!(rec.outputs, plain.outputs);
        assert_eq!(
            rec.metrics.termination_round,
            plain.metrics.termination_round
        );
        assert_eq!(rec.stats.steps, plain.stats.steps);
        assert_eq!(replay.term(), plain.metrics.termination_round.as_slice());
        for v in 0..g.n() {
            assert_eq!(replay.history(v).len() as u32, replay.term[v] + 1);
        }
    }

    #[test]
    fn parallel_recorded_run_matches_sequential() {
        // Forced fan-out on every round: the retire sweep still logs in
        // ascending vertex order, so every history is unchanged.
        let g = rg(300, 0.02, 4);
        let idv = ids(g.n());
        let cfg = RunConfig::seeded(5);
        let par_cfg = cfg
            .parallel()
            .with_tuning(crate::EngineTuning::default().par_threshold(1).workers(4));
        let (seq, seq_replay) = run_recorded(&CoinDecay, &g, &idv, cfg, None).unwrap();
        let (par, par_replay) = run_recorded(&CoinDecay, &g, &idv, par_cfg, None).unwrap();
        assert!(par.stats.parallel_rounds > 0, "threshold 1 must fan out");
        assert_eq!(seq.outputs, par.outputs);
        assert_eq!(seq.metrics, par.metrics);
        assert_eq!(seq_replay.term, par_replay.term);
        for v in 0..g.n() {
            assert_eq!(
                seq_replay.history(v),
                par_replay.history(v),
                "history of vertex {v}"
            );
        }
    }

    #[test]
    fn warm_chain_matches_cold_flood() {
        let plan = ChurnPlan {
            seed: 11,
            batches: 3,
            inserts_per_batch: 2,
            deletes_per_batch: 2,
        };
        assert_warm_matches_cold(&MaxIdFlood { horizon: 4 }, &gen::grid(9, 9), &plan, 5);
    }

    #[test]
    fn warm_chain_matches_cold_coin_decay() {
        let plan = ChurnPlan {
            seed: 4,
            batches: 3,
            inserts_per_batch: 3,
            deletes_per_batch: 2,
        };
        assert_warm_matches_cold(&CoinDecay, &rg(90, 0.04, 2), &plan, 8);
    }

    #[test]
    fn single_edit_on_a_long_path_freezes_the_far_side() {
        // Editing one end of a 400-path reactivates only the dependence
        // ball of the endpoints — the far side stays frozen.
        let g = gen::path(400);
        let idv = ids(400);
        let cfg = RunConfig::seeded(1);
        let p = MaxIdFlood { horizon: 3 };
        let (cold, replay) = run_recorded(&p, &g, &idv, cfg, None).unwrap();
        let batch = graphcore::churn::EditBatch {
            inserts: vec![(0, 2)],
            deletes: vec![],
        };
        let g2 = apply(&g, &batch);
        let warm = run_warm(
            &p,
            &g2,
            &idv,
            cfg,
            None,
            WarmStart {
                replay: &replay,
                outputs: &cold.outputs,
                old_graph: &g,
                touched: &batch.endpoints(),
            },
        )
        .unwrap();
        let cold2 = Runner::new(&p, &g2, &idv).config(cfg).run().unwrap();
        assert_eq!(warm.outcome.outputs, cold2.outputs);
        // Ball radius is term + 1 = 4 around vertices {0, 2}: a handful
        // of vertices, not the whole path.
        assert!(
            warm.stats.reactivated <= 8,
            "reactivated {} of 400",
            warm.stats.reactivated
        );
        // Frozen vertices report zero update cost.
        let zeros = warm
            .outcome
            .metrics
            .termination_round
            .iter()
            .filter(|&&t| t == 0)
            .count();
        assert_eq!(zeros, 400 - warm.stats.reactivated);
        warm.outcome.metrics.check_identities().unwrap();
    }

    #[test]
    fn no_radius_falls_back_to_full_resolve() {
        let g = rg(60, 0.06, 7);
        let idv = ids(60);
        let cfg = RunConfig::seeded(2);
        let (cold, replay) = run_recorded(&OpaqueDecay, &g, &idv, cfg, None).unwrap();
        let batch = graphcore::churn::EditBatch {
            inserts: vec![],
            deletes: vec![g.edges().next().unwrap().1],
        };
        let g2 = apply(&g, &batch);
        let warm = run_warm(
            &OpaqueDecay,
            &g2,
            &idv,
            cfg,
            None,
            WarmStart {
                replay: &replay,
                outputs: &cold.outputs,
                old_graph: &g,
                touched: &batch.endpoints(),
            },
        )
        .unwrap();
        assert!(warm.stats.full_resolve);
        assert_eq!(warm.stats.reactivated, 60);
        let cold2 = Runner::new(&OpaqueDecay, &g2, &idv)
            .config(cfg)
            .run()
            .unwrap();
        assert_eq!(warm.outcome.outputs, cold2.outputs);
    }

    #[test]
    fn empty_touched_set_reactivates_nothing() {
        let g = gen::cycle(50);
        let idv = ids(50);
        let cfg = RunConfig::seeded(6);
        let p = MaxIdFlood { horizon: 2 };
        let (cold, replay) = run_recorded(&p, &g, &idv, cfg, None).unwrap();
        let warm = run_warm(
            &p,
            &g,
            &idv,
            cfg,
            None,
            WarmStart {
                replay: &replay,
                outputs: &cold.outputs,
                old_graph: &g,
                touched: &[],
            },
        )
        .unwrap();
        assert_eq!(warm.stats.reactivated, 0);
        assert_eq!(warm.outcome.outputs, cold.outputs);
        assert_eq!(warm.outcome.stats.rounds, 0);
        assert_eq!(warm.replay.term, replay.term);
    }

    mod warm_props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(12))]

            // The lemma behind the single BFS: when every edit endpoint is
            // a source, distances agree on the pre- and post-edit graph,
            // and a depth-capped BFS agrees with the full one up to its
            // cap.
            #[test]
            fn bfs_from_edit_endpoints_ignores_the_edit(
                n in 2usize..80,
                p_millis in 10u64..120,
                gseed in 0u64..1000,
                cseed in 0u64..1000,
                inserts in 0usize..5,
                deletes in 0usize..5,
                extra in proptest::collection::vec(0u32..80, 0..4),
                depth in 0u32..6,
            ) {
                let old = rg(n, p_millis as f64 / 1000.0, gseed);
                let plan = ChurnPlan {
                    seed: cseed,
                    batches: 1,
                    inserts_per_batch: inserts,
                    deletes_per_batch: deletes,
                };
                let batch = &churn_sequence(&old, &plan)[0];
                let new = apply(&old, batch);
                let mut sources = batch.endpoints();
                sources.extend(extra.iter().map(|&v| v % n as u32));
                let d_old = bounded_bfs(&old, &sources, u32::MAX);
                let d_new = bounded_bfs(&new, &sources, u32::MAX);
                prop_assert_eq!(&d_old, &d_new);
                let capped = bounded_bfs(&new, &sources, depth);
                for v in 0..n {
                    let expect = if d_new[v] <= depth { d_new[v] } else { u32::MAX };
                    prop_assert_eq!(capped[v], expect);
                }
            }

            // The headline pin: across random graphs, churn seeds, and
            // batch shapes, the incremental re-solve chain is
            // byte-identical to cold re-solves — for a deterministic
            // and a randomized protocol.
            #[test]
            fn incremental_equals_cold(
                n in 20usize..80,
                p_millis in 20u64..90,
                gseed in 0u64..1000,
                cseed in 0u64..1000,
                run_seed in 0u64..1000,
                batches in 1usize..4,
                inserts in 0usize..5,
                deletes in 0usize..5,
            ) {
                let g = rg(n, p_millis as f64 / 1000.0, gseed);
                let plan = ChurnPlan {
                    seed: cseed,
                    batches,
                    inserts_per_batch: inserts,
                    deletes_per_batch: deletes,
                };
                assert_warm_matches_cold(&CoinDecay, &g, &plan, run_seed);
                assert_warm_matches_cold(
                    &MaxIdFlood { horizon: 3 },
                    &g,
                    &plan,
                    run_seed,
                );
            }
        }
    }
}
