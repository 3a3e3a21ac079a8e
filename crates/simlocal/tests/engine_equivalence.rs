//! The sparse engine is an optimization, not a semantics change: across
//! graph families, seeds, and execution modes it must produce outcomes
//! identical to the retained naive engine (`simlocal::reference`), and
//! its observer hooks must fire exactly per contract.

use graphcore::{gen, Graph, IdAssignment, VertexId};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use simlocal::{
    run_reference, EngineTuning, Observer, Protocol, RoundRecord, Runner, StepCtx, TraceEvent,
    TraceLog, Transition,
};

/// Tuning that forces genuine thread fan-out on every round, regardless
/// of the host's core count.
fn fan_out() -> EngineTuning {
    EngineTuning::default().par_threshold(1).workers(4)
}

/// Randomized geometric decay: each vertex terminates with probability
/// 1/2 per round, outputting its termination round — the canonical
/// fast-decay workload (active set halves every round in expectation).
struct CoinFlip;
impl Protocol for CoinFlip {
    type State = ();
    type Msg = ();
    type Output = u32;
    fn init(&self, _: &Graph, _: &IdAssignment, _: VertexId) {}
    fn publish(&self, _: &()) {}
    fn step(&self, ctx: StepCtx<'_, ()>) -> Transition<(), u32> {
        if ctx.rng().gen_bool(0.5) {
            Transition::Terminate((), ctx.round)
        } else {
            Transition::Continue(())
        }
    }
}

/// Deterministic neighbor-reading protocol: flood the maximum ID for a
/// few rounds, then everyone outputs the best seen. Exercises the
/// published-state buffer (every step reads neighbors).
struct FloodMax;
impl Protocol for FloodMax {
    type State = u64;
    type Msg = u64;
    type Output = u64;
    fn init(&self, _: &Graph, ids: &IdAssignment, v: VertexId) -> u64 {
        ids.id(v)
    }
    fn publish(&self, s: &u64) -> u64 {
        *s
    }
    fn step(&self, ctx: StepCtx<'_, u64>) -> Transition<u64, u64> {
        let best = ctx
            .view
            .neighbors()
            .map(|(_, &s)| s)
            .chain([*ctx.state])
            .max()
            .unwrap();
        if ctx.round >= 4 {
            Transition::Terminate(best, best)
        } else {
            Transition::Continue(best)
        }
    }
}

/// Mixed-lifetime protocol that reads *terminated* neighbors: a vertex
/// retires once its index-parity round arrives and a terminated neighbor
/// (if any) has been observed — staggers terminations across rounds and
/// checks the final-broadcast semantics.
struct Stagger;
impl Protocol for Stagger {
    type State = u32;
    type Msg = u32;
    type Output = u32;
    fn init(&self, _: &Graph, _: &IdAssignment, _: VertexId) -> u32 {
        0
    }
    fn publish(&self, s: &u32) -> u32 {
        *s
    }
    fn step(&self, ctx: StepCtx<'_, u32>) -> Transition<u32, u32> {
        let dead = ctx.view.terminated_neighbors().count() as u32;
        if ctx.round > ctx.v % 7 {
            Transition::Terminate(dead, ctx.round + dead)
        } else {
            Transition::Continue(dead)
        }
    }
    // Phase attribution for the observer-sequence tests: rounds entered
    // before any neighbor died vs. after.
    fn phase_names(&self) -> &'static [&'static str] {
        &["quiet", "draining"]
    }
    fn phase_of(&self, state: &u32) -> simlocal::PhaseId {
        (*state > 0) as simlocal::PhaseId
    }
}

/// A protocol whose wire is narrower than its state: the private state
/// carries a visit counter and heap scratch that never travel; the
/// published message is a trimmed enum with a variable-width (heap)
/// payload in one variant. Exercises the split slabs, the exact
/// `WireSize` accounting, and neighbor reads of a non-state message.
struct SplitWire;

#[derive(Clone)]
struct SplitState {
    level: u32,
    visits: u32,       // private: number of times this vertex stepped
    scratch: Vec<u64>, // private: grows every round, must never be charged
}

#[derive(Clone, Debug)]
enum SplitMsg {
    Probe { level: u32 },
    Done { level: u32, path: Vec<u32> },
}

impl simlocal::WireSize for SplitMsg {
    fn wire_bits(&self) -> u64 {
        match self {
            SplitMsg::Probe { level } => 1 + level.wire_bits(),
            SplitMsg::Done { level, path } => 1 + level.wire_bits() + path.wire_bits(),
        }
    }
}

impl Protocol for SplitWire {
    type State = SplitState;
    type Msg = SplitMsg;
    type Output = u32;
    fn init(&self, _: &Graph, _: &IdAssignment, _: VertexId) -> SplitState {
        SplitState {
            level: 0,
            visits: 0,
            scratch: Vec::new(),
        }
    }
    fn publish(&self, s: &SplitState) -> SplitMsg {
        if s.visits > s.level {
            SplitMsg::Done {
                level: s.level,
                path: vec![s.level; (s.level % 3) as usize],
            }
        } else {
            SplitMsg::Probe { level: s.level }
        }
    }
    fn step(&self, ctx: StepCtx<'_, SplitState, SplitMsg>) -> Transition<SplitState, u32> {
        let max_nb_level = ctx
            .view
            .neighbors()
            .map(|(_, m)| match m {
                SplitMsg::Probe { level } => *level,
                SplitMsg::Done { level, .. } => *level + 1,
            })
            .max()
            .unwrap_or(0);
        let mut s = ctx.state.clone();
        s.level = s.level.max(max_nb_level);
        s.visits += 1;
        s.scratch.push(ctx.round as u64); // private heap growth
        if ctx.round > ctx.v % 5 {
            let out = s.level;
            s.visits = s.level + 1; // publish a Done message on the way out
            Transition::Terminate(s, out)
        } else {
            Transition::Continue(s)
        }
    }
}

/// Every message is a heap `Vec`: the retire sweep moves it into the
/// visible slab by swap, never by clone, and the wire accounting must
/// still match the reference.
struct HeapMsg;
impl Protocol for HeapMsg {
    type State = u64;
    type Msg = Vec<u64>;
    type Output = u64;
    fn init(&self, _: &Graph, ids: &IdAssignment, v: VertexId) -> u64 {
        ids.id(v)
    }
    fn publish(&self, s: &u64) -> Vec<u64> {
        vec![*s; 2]
    }
    fn step(&self, ctx: StepCtx<'_, u64, Vec<u64>>) -> Transition<u64, u64> {
        let sum: u64 = ctx.view.neighbors().map(|(_, m)| m[0]).sum();
        if ctx.round > ctx.v % 4 {
            Transition::Terminate(sum, sum)
        } else {
            Transition::Continue(sum + 1)
        }
    }
}

/// A graph from one of four families, chosen by `pick`.
fn family_graph(pick: u8, n: usize, a: usize, seed: u64) -> Graph {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    match pick % 4 {
        0 => gen::forest_union(n, a, &mut rng).graph,
        1 => gen::gnp(n, 3.0 / n as f64, &mut rng).graph,
        2 => gen::cycle(n.max(3)),
        _ => gen::grid(3, n.div_ceil(3).max(2)),
    }
}

/// Every way of running the one kernel — plain or observed, sequential
/// or under forced fan-out — must match the dense reference engine:
/// outputs, metrics, work, wire accounting and the per-phase tallies.
fn assert_outcomes_identical<P>(p: &P, g: &Graph, seed: u64)
where
    P: Protocol,
    P::Output: PartialEq + std::fmt::Debug,
{
    let ids = IdAssignment::identity(g.n());
    let dense = run_reference(p, g, &ids, seed).unwrap();
    let seq = || Runner::new(p, g, &ids).seed(seed);
    let par = || seq().parallel().tuning(fan_out());
    let plain = seq().run().unwrap();
    let fanned = par().run().unwrap();
    let mut hooks = Counting::default();
    let observed = seq().run_with(&mut hooks).unwrap();
    let observed_fanned = par().run_with(&mut Counting::default()).unwrap();
    if g.n() > 0 {
        assert!(fanned.stats.parallel_rounds > 0, "threshold 1 must fan out");
        assert!(observed_fanned.stats.parallel_rounds > 0);
    }
    for (label, run) in [
        ("plain", &plain),
        ("fan-out", &fanned),
        ("observed", &observed),
        ("observed fan-out", &observed_fanned),
    ] {
        assert_eq!(run.outputs, dense.outputs, "{label} outputs");
        assert_eq!(run.metrics, dense.metrics, "{label} metrics");
        assert_eq!(run.stats.rounds, dense.stats.rounds, "{label} rounds");
        assert_eq!(run.stats.steps, dense.metrics.round_sum(), "{label} steps");
        // The publications identity: exactly one publication per step.
        assert_eq!(run.stats.publications, run.stats.steps, "{label} pubs");
        assert_eq!(run.stats.msg_bits, dense.stats.msg_bits, "{label} bits");
        assert_eq!(
            run.stats.max_msg_bits, dense.stats.max_msg_bits,
            "{label} max bits"
        );
        assert_eq!(
            run.stats.phase_steps, dense.stats.phase_steps,
            "{label} phase steps"
        );
        assert_eq!(
            run.stats.phase_terminations, dense.stats.phase_terminations,
            "{label} phase terminations"
        );
    }
    // The per-phase tallies are the per-phase RoundSum and termination
    // counts: they total RoundSum and n, and the hooks agree with them.
    assert_eq!(
        dense.stats.phase_steps.iter().sum::<u64>(),
        dense.metrics.round_sum()
    );
    assert_eq!(
        dense.stats.phase_terminations.iter().sum::<u64>(),
        g.n() as u64
    );
    let mut hook_phases = vec![0u64; dense.stats.phase_steps.len()];
    for &(_, _, p) in &hooks.phases {
        hook_phases[p as usize] += 1;
    }
    assert_eq!(hook_phases, dense.stats.phase_steps, "hook phases");
    // The dense engine publishes the same messages but touches n per round.
    assert_eq!(dense.stats.publications, plain.stats.publications);
    assert_eq!(dense.stats.rounds as u64 * g.n() as u64, dense.stats.steps);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn coinflip_identical_across_engines(
        pick in any::<u8>(),
        n in 4usize..120,
        a in 1usize..4,
        gseed in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let g = family_graph(pick, n, a, gseed);
        assert_outcomes_identical(&CoinFlip, &g, seed);
    }

    #[test]
    fn floodmax_identical_across_engines(
        pick in any::<u8>(),
        n in 4usize..120,
        gseed in any::<u64>(),
    ) {
        let g = family_graph(pick, n, 2, gseed);
        assert_outcomes_identical(&FloodMax, &g, 0);
    }

    #[test]
    fn stagger_identical_across_engines(
        pick in any::<u8>(),
        n in 4usize..120,
        gseed in any::<u64>(),
    ) {
        let g = family_graph(pick, n, 2, gseed);
        assert_outcomes_identical(&Stagger, &g, 0);
    }

    #[test]
    fn splitwire_identical_across_engines(
        pick in any::<u8>(),
        n in 4usize..120,
        gseed in any::<u64>(),
    ) {
        // The Msg ≠ State protocol: trimmed heap-payload messages must
        // not change outcomes or accounting across engines.
        let g = family_graph(pick, n, 2, gseed);
        assert_outcomes_identical(&SplitWire, &g, 0);
    }

    #[test]
    fn heapmsg_identical_across_engines(
        pick in any::<u8>(),
        n in 4usize..120,
        gseed in any::<u64>(),
    ) {
        let g = family_graph(pick, n, 2, gseed);
        assert_outcomes_identical(&HeapMsg, &g, 0);
    }

    #[test]
    fn per_round_wire_totals_identical_seq_and_par(
        pick in any::<u8>(),
        n in 4usize..100,
        gseed in any::<u64>(),
    ) {
        // Per-round WireSize totals (not just run totals) are identical
        // between sequential and parallel execution.
        let g = family_graph(pick, n, 2, gseed);
        let ids = IdAssignment::identity(g.n());
        let mut seq = Counting::default();
        Runner::new(&SplitWire, &g, &ids).run_with(&mut seq).unwrap();
        let mut par = Counting::default();
        Runner::new(&SplitWire, &g, &ids)
            .parallel()
            .tuning(fan_out())
            .run_with(&mut par)
            .unwrap();
        let bits = |c: &Counting| -> Vec<(u64, u64)> {
            c.round_ends.iter().map(|r| (r.msg_bits, r.max_msg_bits)).collect()
        };
        prop_assert_eq!(bits(&seq), bits(&par));
    }

    #[test]
    fn traced_equals_untraced_with_split_wire(
        pick in any::<u8>(),
        n in 4usize..80,
        gseed in any::<u64>(),
    ) {
        // Tracing must not perturb the split engine: outputs, metrics,
        // and wire accounting identical with and without observers.
        let g = family_graph(pick, n, 2, gseed);
        let ids = IdAssignment::identity(g.n());
        let plain = Runner::new(&SplitWire, &g, &ids).run().unwrap();
        let mut obs = TraceLog::new();
        let traced = Runner::new(&SplitWire, &g, &ids).run_with(&mut obs).unwrap();
        prop_assert_eq!(&plain.outputs, &traced.outputs);
        prop_assert_eq!(&plain.metrics, &traced.metrics);
        prop_assert_eq!(plain.stats.msg_bits, traced.stats.msg_bits);
        prop_assert_eq!(plain.stats.max_msg_bits, traced.stats.max_msg_bits);
        prop_assert_eq!(trace_bits(&obs), (plain.stats.msg_bits, plain.stats.max_msg_bits));
    }

    #[test]
    fn hook_sequence_identical_sequential_and_parallel(
        pick in any::<u8>(),
        n in 4usize..150,
        gseed in any::<u64>(),
        seed in any::<u64>(),
    ) {
        // Under forced fan-out, chunks step on worker threads and the
        // hooks replay from per-worker event buffers, but the observer
        // must see the sequential hook stream event for event — same
        // events, same interleaving, same phase attributions.
        let g = family_graph(pick, n, 2, gseed);
        let ids = IdAssignment::identity(g.n());
        let seq = hook_stream(&Stagger, &g, &ids, seed, false);
        prop_assert_eq!(&seq, &hook_stream(&Stagger, &g, &ids, seed, true));
        prop_assert_eq!(
            hook_stream(&CoinFlip, &g, &ids, seed, false),
            hook_stream(&CoinFlip, &g, &ids, seed, true)
        );
        // Phase attribution accompanies every step, in lockstep.
        for (i, hook) in seq.iter().enumerate() {
            if let Hook::Phase(v, r, _) = *hook {
                prop_assert_eq!(&seq[i + 1], &Hook::Step(v, r));
            }
        }
    }

    #[test]
    fn hook_totals_match_engine_accounting(
        pick in any::<u8>(),
        n in 4usize..100,
        gseed in any::<u64>(),
        seed in any::<u64>(),
    ) {
        // Σ on_step == Σ publications == RoundSum, and on_terminate fires
        // exactly once per vertex.
        let g = family_graph(pick, n, 2, gseed);
        let ids = IdAssignment::identity(g.n());
        let mut obs = Counting::default();
        let out = Runner::new(&CoinFlip, &g, &ids).seed(seed).run_with(&mut obs).unwrap();
        prop_assert_eq!(obs.steps.len() as u64, out.metrics.round_sum());
        prop_assert_eq!(out.stats.publications, out.metrics.round_sum());
        let pubs: u64 = obs.round_ends.iter().map(|r| r.publications as u64).sum();
        prop_assert_eq!(pubs, out.metrics.round_sum());
        prop_assert_eq!(obs.terminates.len(), g.n());
        let mut vs: Vec<VertexId> = obs.terminates.iter().map(|&(v, _)| v).collect();
        vs.sort_unstable();
        vs.dedup();
        prop_assert_eq!(vs.len(), g.n(), "on_terminate must fire once per vertex");
    }

    #[test]
    fn tracing_observer_preserves_engine_equivalence(
        pick in any::<u8>(),
        n in 4usize..80,
        gseed in any::<u64>(),
    ) {
        // Attaching the full tracing stack must not perturb outcomes:
        // a traced sparse run still matches the dense reference engine
        // byte-for-byte, and the trace totals match the engine's.
        let g = family_graph(pick, n, 2, gseed);
        let ids = IdAssignment::identity(g.n());
        let mut obs = TraceLog::with_phases(Stagger.phase_names());
        let traced = Runner::new(&Stagger, &g, &ids).run_with(&mut obs).unwrap();
        let dense = run_reference(&Stagger, &g, &ids, 0).unwrap();
        prop_assert_eq!(&traced.outputs, &dense.outputs);
        prop_assert_eq!(&traced.metrics, &dense.metrics);
        prop_assert_eq!(obs.step_events(), traced.metrics.round_sum());
        prop_assert_eq!(obs.terminate_events() as usize, g.n());
        prop_assert_eq!(obs.rounds(), traced.stats.rounds);
    }

    #[test]
    fn round_series_match_metrics(n in 4usize..100, seed in any::<u64>()) {
        let g = gen::cycle(n.max(3));
        let ids = IdAssignment::identity(g.n());
        let mut t = Counting::default();
        let out = Runner::new(&CoinFlip, &g, &ids).seed(seed).run_with(&mut t).unwrap();
        let active: Vec<usize> = t.round_ends.iter().map(|r| r.active).collect();
        prop_assert_eq!(&active, &out.metrics.active_per_round);
        let pubs: Vec<usize> = t.round_ends.iter().map(|r| r.publications).collect();
        prop_assert_eq!(&pubs, &out.metrics.active_per_round);
        prop_assert_eq!(pubs.iter().sum::<usize>() as u64, out.metrics.round_sum());
        prop_assert_eq!(t.terminates.len(), g.n());
    }
}

/// Run totals `(wire bits, widest message)` of a trace's round records.
fn trace_bits(log: &TraceLog) -> (u64, u64) {
    log.events.iter().fold((0, 0), |(sum, max), e| match *e {
        TraceEvent::RoundEnd {
            msg_bits,
            max_msg_bits,
            ..
        } => (sum + msg_bits, max.max(max_msg_bits)),
        _ => (sum, max),
    })
}

/// Observer that counts every hook invocation.
#[derive(Default, Clone, Debug)]
struct Counting {
    round_starts: Vec<(u32, usize)>,
    round_ends: Vec<RoundRecord>,
    phases: Vec<(VertexId, u32, simlocal::PhaseId)>,
    steps: Vec<(VertexId, u32)>,
    terminates: Vec<(VertexId, u32)>,
}

impl Observer for Counting {
    fn on_round_start(&mut self, round: u32, active: usize) {
        self.round_starts.push((round, active));
    }
    fn on_phase(&mut self, v: VertexId, round: u32, phase: simlocal::PhaseId) {
        self.phases.push((v, round, phase));
    }
    fn on_step(&mut self, v: VertexId, round: u32) {
        self.steps.push((v, round));
    }
    fn on_terminate(&mut self, v: VertexId, round: u32) {
        self.terminates.push((v, round));
    }
    fn on_round_end(&mut self, record: &RoundRecord) {
        self.round_ends.push(record.clone());
    }
}

/// One observer hook invocation, wall time left out.
#[derive(Clone, Debug, PartialEq)]
enum Hook {
    RoundStart(u32, usize),
    Phase(VertexId, u32, simlocal::PhaseId),
    Step(VertexId, u32),
    Terminate(VertexId, u32),
    RoundEnd(u32, usize, usize, u64, u64),
}

/// Observer that logs every hook into one interleaved stream.
#[derive(Default)]
struct HookStream(Vec<Hook>);

impl Observer for HookStream {
    fn on_round_start(&mut self, round: u32, active: usize) {
        self.0.push(Hook::RoundStart(round, active));
    }
    fn on_phase(&mut self, v: VertexId, round: u32, phase: simlocal::PhaseId) {
        self.0.push(Hook::Phase(v, round, phase));
    }
    fn on_step(&mut self, v: VertexId, round: u32) {
        self.0.push(Hook::Step(v, round));
    }
    fn on_terminate(&mut self, v: VertexId, round: u32) {
        self.0.push(Hook::Terminate(v, round));
    }
    fn on_round_end(&mut self, r: &RoundRecord) {
        self.0.push(Hook::RoundEnd(
            r.round,
            r.active,
            r.publications,
            r.msg_bits,
            r.max_msg_bits,
        ));
    }
}

/// The hook stream of one run, sequential or under forced fan-out.
fn hook_stream<P: Protocol>(
    p: &P,
    g: &Graph,
    ids: &IdAssignment,
    seed: u64,
    parallel: bool,
) -> Vec<Hook> {
    let mut obs = HookStream::default();
    let mut r = Runner::new(p, g, ids).seed(seed);
    if parallel {
        r = r.parallel().tuning(fan_out());
    }
    r.run_with(&mut obs).unwrap();
    obs.0
}

#[test]
fn observer_hooks_fire_exactly_per_contract() {
    let g = gen::grid(4, 5);
    let ids = IdAssignment::identity(g.n());
    let mut obs = Counting::default();
    let out = Runner::new(&Stagger, &g, &ids).run_with(&mut obs).unwrap();
    let rounds = out.stats.rounds as usize;

    // Round hooks: once per round, in order, with the active-set size.
    assert_eq!(obs.round_starts.len(), rounds);
    assert_eq!(obs.round_ends.len(), rounds);
    for (i, &(round, active)) in obs.round_starts.iter().enumerate() {
        assert_eq!(round as usize, i + 1);
        assert_eq!(active, out.metrics.active_per_round[i]);
        assert_eq!(obs.round_ends[i].round as usize, i + 1);
        assert_eq!(obs.round_ends[i].active, active);
        assert_eq!(obs.round_ends[i].publications, active);
    }

    // on_step: exactly once per (active vertex, round) — i.e. for every
    // vertex, rounds 1..=termination_round, and nothing else.
    let mut expected_steps = Vec::new();
    for v in g.vertices() {
        for r in 1..=out.metrics.termination_round[v as usize] {
            expected_steps.push((v, r));
        }
    }
    let mut got = obs.steps.clone();
    got.sort_unstable();
    expected_steps.sort_unstable();
    assert_eq!(got, expected_steps);
    assert_eq!(obs.steps.len() as u64, out.metrics.round_sum());

    // on_terminate: exactly once per vertex, at its termination round.
    assert_eq!(obs.terminates.len(), g.n());
    for &(v, r) in &obs.terminates {
        assert_eq!(out.metrics.termination_round[v as usize], r);
    }
    let mut vs: Vec<VertexId> = obs.terminates.iter().map(|&(v, _)| v).collect();
    vs.sort_unstable();
    vs.dedup();
    assert_eq!(vs.len(), g.n());
}

#[test]
fn observed_and_unobserved_runs_are_identical() {
    let g = gen::grid(5, 6);
    let ids = IdAssignment::identity(g.n());
    let plain = Runner::new(&CoinFlip, &g, &ids).seed(11).run().unwrap();
    let observed = Runner::new(&CoinFlip, &g, &ids)
        .seed(11)
        .run_with(&mut Counting::default())
        .unwrap();
    assert_eq!(plain.outputs, observed.outputs);
    assert_eq!(plain.metrics, observed.metrics);
    assert_eq!(plain.stats.steps, observed.stats.steps);
    assert_eq!(plain.stats.phase_steps, observed.stats.phase_steps);
    assert_eq!(
        plain.stats.phase_terminations,
        observed.stats.phase_terminations
    );
}
