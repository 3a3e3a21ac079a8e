//! The synchronous round engine: a data-oriented core doing *sparse
//! rounds* — per-round work proportional to the number of **active**
//! vertices, so the wall-clock cost of a whole simulation tracks
//! `RoundSum(V) = Σ_v r(v)` (the paper's Equation 1) instead of
//! `n × worst-case`.
//!
//! ## Data layout
//!
//! All per-vertex data lives in struct-of-arrays slabs, allocated once at
//! run start and never resized:
//!
//! * a **private state slab** (`Vec<P::State>`), mutated in place and
//!   never read by anyone but its own vertex;
//! * a **published message slab** (`Vec<P::Msg>`) — the only thing
//!   [`NeighborView`] serves — and its write twin `msgs_next`, which a
//!   round's steps publish into, each write charged its
//!   [`WireSize::wire_bits`](crate::wire::WireSize::wire_bits);
//! * output and termination-round slabs, written once per vertex;
//! * the [`ActiveSet`] bitset, whose live-word index makes per-round
//!   iteration `O(active)` rather than `O(n)` (see [`crate::active`]).
//!
//! Adjacency is read straight from the CSR graph
//! ([`Graph::neighbors`] returns a slice into the shared arrays) — the
//! engine builds no per-vertex neighbor structures of its own.
//!
//! ## Round structure
//!
//! There is one round kernel. Each round has a read phase and a retire
//! phase. The read phase steps every active vertex against the
//! *previous* round's message snapshot and the bitset as it stood when
//! the round began, writing the new state, output, termination round and
//! message in place: states are private, outputs are per-vertex slots,
//! and messages go to `msgs_next`, which no step reads. Nothing a step
//! can observe is mutated, so the read phase runs the active set's live
//! words as one chunk when sequential and as balanced chunks on scoped
//! threads when it fans out, with the same per-vertex code either way.
//! The retire phase then swaps each stepped vertex's new message into
//! the visible slab (a move, never a clone), clears the bits of vertices
//! that terminated, and compacts the live-word list — all in one
//! `O(active)` sweep in ascending vertex order.
//!
//! Observation does not choose the path, and aggregates need no
//! observer. Every chunk tallies each step's phase (the
//! [`Protocol::phase_of`] of its pre-step state) into its own per-phase
//! step and termination counts, summed into
//! [`EngineStats::phase_steps`] / [`EngineStats::phase_terminations`] at
//! the end of the run. On an observed run each chunk also records
//! `(vertex, phase)` in an event buffer, and after the read phase the
//! [`Observer`] hooks are replayed from those buffers in vertex order —
//! the same sequence, sequential or parallel. A recorded run
//! ([`Runner::run_recorded`]) is the same kernel with a message-log sink
//! fed by the retire sweep.
//!
//! The per-vertex step itself — read the phase, build the [`StepCtx`],
//! step, publish, charge the wire bits — is [`RoundView::step`], which
//! the warm engine ([`crate::warm`]) and the actor shards
//! ([`crate::asyncengine`]) call too; each tallies the phase it returns
//! the same way.
//!
//! ## Allocation discipline
//!
//! Every slab, the per-chunk phase tallies and the sequential event
//! buffer are sized at run start;
//! because the active set only shrinks, steady-state sequential rounds
//! allocate **nothing**, observed or not (the `zero_alloc` integration
//! test pins this). Parallel rounds reuse their per-worker event buffers
//! too, but thread fan-out itself allocates (stacks), so the zero-alloc
//! contract is a sequential-path guarantee.
//!
//! Engine tuning — par threshold and worker count — lives in
//! [`EngineTuning`]; the default resolves each knob from the graph shape
//! at run start.
//!
//! Sequential and parallel modes produce byte-identical outcomes: every
//! step reads only the previous round's snapshot, and retirements apply
//! in deterministic vertex order. Property tests check every mode,
//! observed and not, against the retained dense engine in
//! [`crate::reference`].

use crate::active::ActiveSet;
use crate::metrics::RoundMetrics;
use crate::obs::{Metric, Registry, ShardObs};
use crate::observer::{NoObserver, Observer, RoundRecord};
use crate::protocol::{NeighborView, PhaseId, Protocol, StepCtx, Transition};
use crate::warm::RoundLog;
use crate::wire::WireSize;
use graphcore::{Graph, IdAssignment, VertexId};
use std::time::{Duration, Instant};

/// Default active-set size above which a parallel-mode round fans out to
/// worker threads — the [`EngineTuning`] auto-pick's ceiling. Below it,
/// thread spawn/join overhead dominates the step work of typical
/// protocols.
pub const DEFAULT_PAR_THRESHOLD: usize = 4096;

/// Engine tuning in one place: everything about *how* the engine runs a
/// protocol that does not change *what* it computes. The default is
/// all-auto — every knob resolved from the graph shape at run start:
///
/// ```
/// use simlocal::EngineTuning;
/// let tuning = EngineTuning::default()   // auto everything, or:
///     .par_threshold(512)                // fan out above 512 active
///     .workers(4);                       // on exactly 4 workers
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineTuning {
    par_threshold: Option<usize>,
    workers: Option<usize>,
}

impl EngineTuning {
    /// Sets the active-set size at which parallel mode engages threads.
    /// Auto picks [`DEFAULT_PAR_THRESHOLD`], lowered for dense graphs
    /// (heavier steps amortize fan-out sooner).
    pub fn par_threshold(mut self, threshold: usize) -> Self {
        self.par_threshold = Some(threshold);
        self
    }

    /// Sets the worker-thread count for parallel rounds (min 1). Auto
    /// uses the machine's available parallelism. Forcing a count above
    /// the core count is legal — useful for exercising the parallel
    /// path deterministically on small machines.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers.max(1));
        self
    }

    /// Resolves every auto knob against the graph.
    pub(crate) fn resolve(&self, g: &Graph) -> ResolvedTuning {
        let par_threshold = self.par_threshold.unwrap_or_else(|| {
            // Dense graphs do more work per step (neighbor walks), so
            // fan-out pays for itself at smaller active sets.
            let scale = 1.0 + g.avg_degree() / 4.0;
            ((DEFAULT_PAR_THRESHOLD as f64 / scale) as usize).clamp(256, DEFAULT_PAR_THRESHOLD)
        });
        let workers = self.workers.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|w| w.get())
                .unwrap_or(1)
        });
        ResolvedTuning {
            par_threshold,
            workers,
        }
    }
}

/// [`EngineTuning`] with every auto knob decided.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ResolvedTuning {
    pub(crate) par_threshold: usize,
    pub(crate) workers: usize,
}

/// Engine configuration. Buildable:
///
/// ```
/// use simlocal::{EngineTuning, RunConfig};
/// let cfg = RunConfig::seeded(7)
///     .parallel()
///     .with_max_rounds(100)
///     .with_tuning(EngineTuning::default().par_threshold(512));
/// assert_eq!(cfg.seed, 7);
/// assert!(cfg.parallel);
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct RunConfig {
    /// Seed for randomized protocols (ignored by deterministic ones).
    pub seed: u64,
    /// Allow rounds to fan out across threads (subject to the cutover).
    pub parallel: bool,
    /// Override the protocol's round cap (`None` = ask the protocol).
    pub max_rounds: Option<u32>,
    /// Engine tuning (par threshold, workers).
    pub tuning: EngineTuning,
}

impl RunConfig {
    /// Config with the given seed, otherwise default.
    pub fn seeded(seed: u64) -> RunConfig {
        RunConfig {
            seed,
            ..RunConfig::default()
        }
    }

    /// Enables parallel round execution.
    pub fn parallel(mut self) -> RunConfig {
        self.parallel = true;
        self
    }

    /// Forces sequential round execution.
    pub fn sequential(mut self) -> RunConfig {
        self.parallel = false;
        self
    }

    /// Overrides the protocol's round cap.
    pub fn with_max_rounds(mut self, cap: u32) -> RunConfig {
        self.max_rounds = Some(cap);
        self
    }

    /// Replaces the engine tuning.
    pub fn with_tuning(mut self, tuning: EngineTuning) -> RunConfig {
        self.tuning = tuning;
        self
    }
}

/// What the engine itself measured about a completed run (independent of
/// any observer).
#[derive(Clone, Debug, Default)]
pub struct EngineStats {
    /// Wall-clock time of the whole run.
    pub wall: Duration,
    /// Rounds executed.
    pub rounds: u32,
    /// Total `step` invocations — equals `RoundSum(V)`; in the sparse
    /// engine this is also the total number of vertex touches.
    pub steps: u64,
    /// Total messages published (one per step, final broadcasts included).
    pub publications: u64,
    /// Total message bits published: the sum of
    /// [`WireSize::wire_bits`](crate::wire::WireSize::wire_bits) over
    /// every published message (initial-state broadcasts excluded, final
    /// broadcasts included).
    pub msg_bits: u64,
    /// Largest single published message, in bits — the number the CONGEST
    /// audit compares against `c·log₂ n`.
    pub max_msg_bits: u64,
    /// Rounds that actually fanned out to worker threads.
    pub parallel_rounds: u32,
    /// Per-phase `RoundSum`: `phase_steps[p]` counts the steps whose
    /// round belonged to phase `p` ([`Protocol::phase_of`] of the state
    /// the vertex entered the round with). Indexed by [`PhaseId`], one
    /// slot per [`Protocol::phase_names`] entry; the slots total the
    /// run's `RoundSum`.
    pub phase_steps: Vec<u64>,
    /// `phase_terminations[p]` = vertices whose terminating round
    /// belonged to phase `p`; the slots total the vertices that
    /// terminated in the run.
    pub phase_terminations: Vec<u64>,
}

/// Per-phase step and termination counts, indexed by [`PhaseId`]: what
/// each chunk, shard and warm run tallies from [`VertexStep::phase`]
/// before the totals land in [`EngineStats`].
pub(crate) struct PhaseTally {
    steps: Vec<u64>,
    terminations: Vec<u64>,
}

impl PhaseTally {
    /// A zeroed tally with one slot per phase `protocol` names.
    pub(crate) fn new<P: Protocol>(protocol: &P) -> PhaseTally {
        let phases = protocol.phase_names().len().max(1);
        PhaseTally {
            steps: vec![0; phases],
            terminations: vec![0; phases],
        }
    }

    /// Counts one step in phase `p`, and a termination if it ended there.
    ///
    /// # Panics
    /// If `p` has no slot: [`Protocol::phase_of`] must return an index
    /// into [`Protocol::phase_names`] (or 0 when that is empty).
    #[inline]
    pub(crate) fn count(&mut self, p: PhaseId, terminated: bool) {
        assert!(
            (p as usize) < self.steps.len(),
            "Protocol::phase_of returned phase {p}, but phase_names declares {} slot(s)",
            self.steps.len()
        );
        self.steps[p as usize] += 1;
        self.terminations[p as usize] += terminated as u64;
    }

    /// Adds these counts to `stats`' per-phase slots.
    pub(crate) fn add_to(&self, stats: &mut EngineStats) {
        for (dst, src) in [
            (&mut stats.phase_steps, &self.steps),
            (&mut stats.phase_terminations, &self.terminations),
        ] {
            if dst.len() < src.len() {
                dst.resize(src.len(), 0);
            }
            dst.iter_mut().zip(src).for_each(|(d, s)| *d += s);
        }
    }
}

/// A completed simulation: every vertex's output, the round metrics, and
/// the engine's own run statistics.
#[derive(Clone, Debug)]
pub struct SimOutcome<O> {
    /// Final output of each vertex.
    pub outputs: Vec<O>,
    /// Termination rounds and activity series.
    pub metrics: RoundMetrics,
    /// Wall time and work accounting for the run.
    pub stats: EngineStats,
}

/// Engine failure modes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EngineError {
    /// Some vertices were still active after the round cap — the protocol
    /// livelocked or the cap is too tight. Carries the cap and the number
    /// of vertices still active.
    RoundLimitExceeded {
        /// The cap that was hit.
        max_rounds: u32,
        /// Vertices that had not terminated.
        still_active: usize,
    },
    /// An actor-backend run stopped making round progress — a shard
    /// crashed, a link broke, or the stall watchdog's timeout elapsed
    /// without a full round completing. Instead of hanging on the
    /// barrier, the run aborts with a per-shard diagnostic snapshot.
    Stalled {
        /// The earliest round any shard was draining when it stalled.
        round: u32,
        /// Human-readable snapshot: the guilty shard and every shard's
        /// last completed round, barrier state, and link status.
        diagnostic: String,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::RoundLimitExceeded {
                max_rounds,
                still_active,
            } => write!(
                f,
                "{still_active} vertices still active after {max_rounds} rounds"
            ),
            EngineError::Stalled { round, diagnostic } => {
                write!(f, "actor run stalled at round {round}: {diagnostic}")
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// The execution entry point: borrows a protocol, a graph, and an ID
/// assignment, then runs after optional configuration.
///
/// ```
/// use simlocal::{Protocol, Runner, StepCtx, Transition};
/// use graphcore::{gen, Graph, IdAssignment, VertexId};
///
/// struct EmitId;
/// impl Protocol for EmitId {
///     type State = ();
///     type Msg = ();
///     type Output = u64;
///     fn init(&self, _: &Graph, _: &IdAssignment, _: VertexId) {}
///     fn publish(&self, _: &()) {}
///     fn step(&self, ctx: StepCtx<'_, ()>) -> Transition<(), u64> {
///         Transition::Terminate((), ctx.my_id())
///     }
/// }
///
/// let g = gen::cycle(5);
/// let ids = IdAssignment::identity(5);
/// let out = Runner::new(&EmitId, &g, &ids).run().unwrap();
/// assert_eq!(out.outputs, vec![0, 1, 2, 3, 4]);
/// ```
pub struct Runner<'a, P: Protocol> {
    protocol: &'a P,
    graph: &'a Graph,
    ids: &'a IdAssignment,
    cfg: RunConfig,
    obs: Option<&'a crate::obs::Registry>,
}

impl<'a, P: Protocol> Runner<'a, P> {
    /// New runner with the default [`RunConfig`].
    pub fn new(protocol: &'a P, graph: &'a Graph, ids: &'a IdAssignment) -> Self {
        Runner {
            protocol,
            graph,
            ids,
            cfg: RunConfig::default(),
            obs: None,
        }
    }

    /// Replaces the whole configuration.
    pub fn config(mut self, cfg: RunConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Sets the run seed (randomized protocols).
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Enables parallel round execution (subject to the cutover).
    pub fn parallel(mut self) -> Self {
        self.cfg.parallel = true;
        self
    }

    /// Forces sequential round execution (the default).
    pub fn sequential(mut self) -> Self {
        self.cfg.parallel = false;
        self
    }

    /// Overrides the protocol's round cap.
    pub fn max_rounds(mut self, cap: u32) -> Self {
        self.cfg.max_rounds = Some(cap);
        self
    }

    /// Replaces the engine tuning (par threshold, workers) in one call.
    pub fn tuning(mut self, tuning: EngineTuning) -> Self {
        self.cfg.tuning = tuning;
        self
    }

    /// Attaches a metrics registry (see [`crate::obs`]). Engine-level
    /// series land in the registry's global slots; all recording is
    /// per-round, so the per-vertex hot loop is untouched by it.
    pub fn obs(mut self, registry: &'a crate::obs::Registry) -> Self {
        self.obs = Some(registry);
        self
    }

    /// Runs unobserved — the zero-overhead path.
    pub fn run(self) -> Result<SimOutcome<P::Output>, EngineError> {
        self.run_with(&mut NoObserver)
    }

    /// Cold run that also records the message log a later warm start
    /// replays (see [`crate::warm`]). The same kernel as
    /// [`Runner::run`] — sequential or parallel, with the attached
    /// registry — so its outcome is byte-identical to a plain run.
    pub fn run_recorded(self) -> Result<crate::warm::Recorded<P>, EngineError> {
        crate::warm::run_recorded(self.protocol, self.graph, self.ids, self.cfg, self.obs)
    }

    /// Incremental re-solve after a batch of edge edits, warm-started
    /// from a prior run's replay log. Outputs are byte-identical to a
    /// cold re-solve on the edited graph; the outcome's metrics measure
    /// the update cost (see [`crate::warm`] for the freeze rule).
    pub fn run_warm(
        self,
        prior: crate::warm::WarmStart<'_, P::Msg, P::Output>,
    ) -> Result<crate::warm::WarmOutcome<P::Msg, P::Output>, EngineError> {
        crate::warm::run_warm(
            self.protocol,
            self.graph,
            self.ids,
            self.cfg,
            self.obs,
            prior,
        )
    }

    /// Runs with `observer` attached (per-round telemetry enabled).
    pub fn run_with<Ob: Observer>(
        self,
        observer: &mut Ob,
    ) -> Result<SimOutcome<P::Output>, EngineError> {
        execute(
            self.protocol,
            self.graph,
            self.ids,
            self.cfg,
            observer,
            self.obs,
            None,
        )
    }
}

/// Everything the steps of one round read: the protocol and topology,
/// the previous round's message snapshot, and the activity bitset as the
/// round began. [`RoundView::step`] is the one per-vertex step of the
/// sync kernel, the warm engine and the actor shards.
pub(crate) struct RoundView<'a, P: Protocol> {
    pub(crate) protocol: &'a P,
    pub(crate) graph: &'a Graph,
    pub(crate) ids: &'a IdAssignment,
    pub(crate) seed: u64,
    pub(crate) round: u32,
    pub(crate) msgs: &'a [P::Msg],
    pub(crate) active_words: &'a [u64],
}

/// What one vertex's step produced: the phase its round belonged to, its
/// new state, its output if it terminated, and the message it publishes
/// with that message's wire size.
pub(crate) struct VertexStep<P: Protocol> {
    pub(crate) phase: PhaseId,
    pub(crate) state: P::State,
    pub(crate) output: Option<P::Output>,
    pub(crate) msg: P::Msg,
    pub(crate) bits: u64,
}

impl<P: Protocol> RoundView<'_, P> {
    /// Steps `v` from `state` and publishes the new state. The phase is
    /// read from `state`, before the step.
    #[inline]
    pub(crate) fn step(&self, v: VertexId, state: &P::State) -> VertexStep<P> {
        let phase = self.protocol.phase_of(state);
        let ctx = StepCtx {
            graph: self.graph,
            ids: self.ids,
            v,
            round: self.round,
            state,
            view: NeighborView {
                graph: self.graph,
                v,
                msgs: self.msgs,
                active_words: self.active_words,
            },
            run_seed: self.seed,
        };
        let (state, output) = match self.protocol.step(ctx) {
            Transition::Continue(s) => (s, None),
            Transition::Terminate(s, o) => (s, Some(o)),
        };
        let msg = self.protocol.publish(&state);
        let bits = msg.wire_bits();
        VertexStep {
            phase,
            state,
            output,
            msg,
            bits,
        }
    }
}

/// A raw pointer into a slab, shared by the read phase's chunks. Every
/// write goes to the slot of a vertex owned by exactly one chunk (the
/// live-word chunks partition the active set), so the aliasing rules
/// hold even though the type erases the borrow.
struct SlabPtr<T>(*mut T);

unsafe impl<T: Send> Sync for SlabPtr<T> {}

impl<T> SlabPtr<T> {
    fn new(slab: &mut [T]) -> SlabPtr<T> {
        SlabPtr(slab.as_mut_ptr())
    }

    /// # Safety
    /// `i` must be in bounds and not concurrently written.
    #[inline]
    unsafe fn get<'s>(&self, i: usize) -> &'s T {
        unsafe { &*self.0.add(i) }
    }

    /// # Safety
    /// `i` must be in bounds and this thread must be the only one
    /// accessing slot `i`.
    #[inline]
    unsafe fn set(&self, i: usize, value: T) {
        unsafe { *self.0.add(i) = value }
    }
}

/// The slabs the read phase writes in place.
struct Slabs<P: Protocol> {
    states: SlabPtr<P::State>,
    msgs_next: SlabPtr<P::Msg>,
    outputs: SlabPtr<Option<P::Output>>,
    term: SlabPtr<u32>,
}

/// What one chunk of the read phase keeps across rounds: its per-phase
/// tally, and its hook event buffer (filled on observed runs only).
struct ChunkScratch {
    tally: PhaseTally,
    events: Vec<(VertexId, PhaseId)>,
}

/// Steps every active vertex of the live words `chunk` in place, tallying
/// each step's phase, and on observed runs records `(vertex, phase)` in
/// the event buffer. Returns the chunk's wire-bit sum and widest message.
///
/// # Safety
/// Every slab must have a slot per vertex, and no other thread may touch
/// the slots of `chunk`'s vertices while this runs.
unsafe fn step_chunk<P: Protocol, Ob: Observer>(
    view: &RoundView<'_, P>,
    chunk: &[u32],
    slabs: &Slabs<P>,
    scratch: &mut ChunkScratch,
) -> (u64, u64) {
    let (mut bits_sum, mut bits_max) = (0u64, 0u64);
    for &wi in chunk {
        let mut word = view.active_words[wi as usize];
        while word != 0 {
            let v = (wi << 6) | word.trailing_zeros();
            word &= word - 1;
            let vu = v as usize;
            // SAFETY: `v` is in bounds and belongs to this chunk only;
            // the borrowed state is dead before its slot is overwritten.
            unsafe {
                let s = view.step(v, slabs.states.get(vu));
                scratch.tally.count(s.phase, s.output.is_some());
                if Ob::ENABLED {
                    scratch.events.push((v, s.phase));
                }
                bits_sum += s.bits;
                bits_max = bits_max.max(s.bits);
                slabs.msgs_next.set(vu, s.msg);
                slabs.states.set(vu, s.state);
                if let Some(o) = s.output {
                    slabs.outputs.set(vu, Some(o));
                    slabs.term.set(vu, view.round);
                }
            }
        }
    }
    (bits_sum, bits_max)
}

/// Splits the live-word list into at most `workers` contiguous chunks of
/// roughly equal *work*, writing chunk boundaries (indices into `live`)
/// into `cuts`. Work per word is its population count plus the CSR
/// degree sum of its 64 vertex slots (read straight off the offsets
/// array), so degree-skewed graphs still balance. Deterministic, and
/// allocation-free once `cuts` has capacity `workers + 1`.
fn fill_balanced_cuts(
    g: &Graph,
    live: &[u32],
    words: &[u64],
    workers: usize,
    cuts: &mut Vec<usize>,
) {
    let n = g.n();
    let offsets = g.neighbor_offsets();
    let weight = |wi: u32| -> u64 {
        let lo = (wi as usize) << 6;
        let hi = (lo + 64).min(n);
        (offsets[hi] - offsets[lo]) as u64 + words[wi as usize].count_ones() as u64
    };
    let total: u64 = live.iter().map(|&wi| weight(wi)).sum();
    let target = total.div_ceil(workers as u64).max(1);
    cuts.clear();
    cuts.push(0);
    let mut acc = 0u64;
    for (i, &wi) in live.iter().enumerate() {
        acc += weight(wi);
        if acc >= target && cuts.len() < workers && i + 1 < live.len() {
            cuts.push(i + 1);
            acc = 0;
        }
    }
    cuts.push(live.len());
}

/// Adds the elapsed time since `t0` to phase counter `m` — a no-op when
/// either the obs handle or the phase mark is absent.
#[inline]
fn obs_lap(ob: Option<ShardObs<'_>>, m: Metric, t0: Option<Instant>) {
    if let (Some(o), Some(t0)) = (ob, t0) {
        o.add(m, t0.elapsed().as_nanos() as u64);
    }
}

/// The round kernel, monomorphized over the observer. With `log`
/// attached, the retire sweep also appends each round's new messages to
/// it, in the ascending vertex order [`crate::warm::Replay`] reads back.
pub(crate) fn execute<P: Protocol, Ob: Observer>(
    protocol: &P,
    g: &Graph,
    ids: &IdAssignment,
    cfg: RunConfig,
    observer: &mut Ob,
    obs: Option<&Registry>,
    mut log: Option<&mut RoundLog<P::Msg>>,
) -> Result<SimOutcome<P::Output>, EngineError> {
    assert_eq!(ids.len(), g.n(), "ID assignment must cover all vertices");
    let n = g.n();
    let max_rounds = cfg.max_rounds.unwrap_or_else(|| protocol.max_rounds(g));
    let tun = cfg.tuning.resolve(g);
    let workers = if cfg.parallel { tun.workers } else { 1 };
    // Metrics handle — engine series are global (shard-agnostic), so the
    // slot-0 handle serves. Every `ob` touch below runs a handful of
    // times per round, never per vertex.
    let ob = obs.map(|r| r.handle(0));
    let obs_on = ob.is_some();

    let run_t0 = Instant::now();
    let mut states: Vec<P::State> = g.vertices().map(|v| protocol.init(g, ids, v)).collect();
    let mut msgs: Vec<P::Msg> = states.iter().map(|s| protocol.publish(s)).collect();
    let mut msgs_next: Vec<P::Msg> = msgs.clone();
    if let Some(log) = log.as_deref_mut() {
        log.open_round();
        for m in &msgs {
            log.push(m.clone());
        }
    }
    let mut outputs: Vec<Option<P::Output>> = vec![None; n];
    let mut termination_round = vec![0u32; n];
    let mut active = ActiveSet::full(n);
    // Per-chunk scratch, kept across rounds. The first chunk's event
    // buffer serves sequential rounds and, on observed runs, is sized for
    // the whole active set up front — the active set only shrinks, so it
    // never grows.
    let mut scratch: Vec<ChunkScratch> = (0..workers)
        .map(|_| ChunkScratch {
            tally: PhaseTally::new(protocol),
            events: Vec::new(),
        })
        .collect();
    if Ob::ENABLED {
        scratch[0].events.reserve_exact(n);
    }
    let mut cuts: Vec<usize> = Vec::with_capacity(workers + 1);
    let mut active_per_round: Vec<usize> = Vec::with_capacity((max_rounds as usize).min(4096) + 1);
    let mut stats = EngineStats::default();

    let mut round: u32 = 0;
    while !active.is_empty() {
        round += 1;
        if round > max_rounds {
            return Err(EngineError::RoundLimitExceeded {
                max_rounds,
                still_active: active.count(),
            });
        }
        let stepped = active.count();
        observer.on_round_start(round, stepped);
        let round_t0 = Ob::ENABLED.then(Instant::now);
        active_per_round.push(stepped);
        let obs_round_t0 = obs_on.then(Instant::now);
        let events_cap =
            |sc: &[ChunkScratch]| sc.iter().map(|c| c.events.capacity()).sum::<usize>();
        let events_cap_before = events_cap(&scratch);

        // Read phase: one chunk of live words, or balanced cuts of them
        // on scoped threads.
        let fan_out = workers > 1 && stepped >= tun.par_threshold;
        let live = active.live_words();
        if fan_out {
            stats.parallel_rounds += 1;
            let scan_t0 = obs_on.then(Instant::now);
            fill_balanced_cuts(g, live, active.words(), workers, &mut cuts);
            obs_lap(ob, Metric::EngineScanNs, scan_t0);
        } else {
            cuts.clear();
            cuts.extend([0, live.len()]);
        }
        let step_t0 = obs_on.then(Instant::now);
        let view = RoundView {
            protocol,
            graph: g,
            ids,
            seed: cfg.seed,
            round,
            msgs: &msgs,
            active_words: active.words(),
        };
        let slabs = Slabs::<P> {
            states: SlabPtr::new(&mut states),
            msgs_next: SlabPtr::new(&mut msgs_next),
            outputs: SlabPtr::new(&mut outputs),
            term: SlabPtr::new(&mut termination_round),
        };
        // SAFETY: the slabs have n slots, and the chunks partition the
        // active set, so no two chunks touch the same slot.
        let step = |chunk: &[u32], sc: &mut ChunkScratch| unsafe {
            step_chunk::<P, Ob>(&view, chunk, &slabs, sc)
        };
        let chunks = cuts
            .windows(2)
            .map(|w| &live[w[0]..w[1]])
            .zip(scratch.iter_mut());
        let fold = |(sum, max): (u64, u64), (s, m): (u64, u64)| (sum + s, max.max(m));
        let (round_bits, round_max_bits) = if fan_out {
            std::thread::scope(|scope| {
                let handles: Vec<_> = chunks
                    .map(|(chunk, sc)| scope.spawn(move || step(chunk, sc)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("step panicked"))
                    .fold((0, 0), fold)
            })
        } else {
            chunks.map(|(chunk, sc)| step(chunk, sc)).fold((0, 0), fold)
        };
        obs_lap(ob, Metric::EngineStepNs, step_t0);

        // Hook replay, in vertex order: chunks are ascending.
        if Ob::ENABLED {
            let publish_t0 = obs_on.then(Instant::now);
            for sc in &mut scratch {
                for (v, phase) in sc.events.drain(..) {
                    observer.on_phase(v, round, phase);
                    observer.on_step(v, round);
                    if termination_round[v as usize] == round {
                        observer.on_terminate(v, round);
                    }
                }
            }
            obs_lap(ob, Metric::EnginePublishNs, publish_t0);
        }

        // Retire sweep: expose the new messages, log them, and drop the
        // vertices that terminated this round from the active set.
        let retire_t0 = obs_on.then(Instant::now);
        let mut sink = log.as_deref_mut();
        if let Some(log) = sink.as_deref_mut() {
            log.open_round();
        }
        active.retire(|v| {
            let vu = v as usize;
            std::mem::swap(&mut msgs[vu], &mut msgs_next[vu]);
            if let Some(log) = sink.as_deref_mut() {
                log.push(msgs[vu].clone());
            }
            termination_round[vu] == round
        });
        obs_lap(ob, Metric::EngineRetireNs, retire_t0);

        stats.steps += stepped as u64;
        stats.publications += stepped as u64;
        stats.msg_bits += round_bits;
        stats.max_msg_bits = stats.max_msg_bits.max(round_max_bits);
        if let Some(o) = ob {
            o.add(Metric::EngineRounds, 1);
            o.add(
                if Ob::ENABLED {
                    Metric::EngineClassicRounds
                } else {
                    Metric::EngineFastRounds
                },
                1,
            );
            if fan_out {
                o.add(Metric::EngineParallelRounds, 1);
            }
            o.add(Metric::EngineSteps, stepped as u64);
            o.add(Metric::EnginePublications, stepped as u64);
            o.add(Metric::EngineMsgBits, round_bits);
            o.set(Metric::EngineActiveLast, active.count() as u64);
            if events_cap(&scratch) != events_cap_before {
                o.add(Metric::EngineScratchReallocs, 1);
            }
            o.observe(
                Metric::EngineRoundWallNs,
                obs_round_t0
                    .expect("timed when obs attached")
                    .elapsed()
                    .as_nanos() as u64,
            );
        }
        if let Some(t0) = round_t0 {
            observer.on_round_end(&RoundRecord {
                round,
                active: stepped,
                publications: stepped,
                msg_bits: round_bits,
                max_msg_bits: round_max_bits,
                wall: t0.elapsed(),
            });
        }
    }

    stats.rounds = round;
    stats.wall = run_t0.elapsed();
    for sc in &scratch {
        sc.tally.add_to(&mut stats);
    }
    let outputs = outputs
        .into_iter()
        .map(|o| o.expect("terminated vertex must have an output"))
        .collect();
    Ok(SimOutcome {
        outputs,
        metrics: RoundMetrics {
            termination_round,
            active_per_round,
        },
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{Protocol, StepCtx, Transition};
    use crate::trace::{TraceEvent, TraceLog};
    use graphcore::{gen, Graph, IdAssignment, VertexId};
    use rand::Rng;

    /// Terminates in round 1 outputting its own ID: the trivial protocol.
    struct Instant;
    impl Protocol for Instant {
        type State = ();
        type Msg = ();
        type Output = u64;
        fn init(&self, _: &Graph, _: &IdAssignment, _: VertexId) {}
        fn publish(&self, _: &()) {}
        fn step(&self, ctx: StepCtx<'_, ()>) -> Transition<(), u64> {
            Transition::Terminate((), ctx.my_id())
        }
    }

    /// Vertex v waits v rounds then outputs the round it terminated in.
    struct Staircase;
    impl Protocol for Staircase {
        type State = ();
        type Msg = ();
        type Output = u32;
        fn init(&self, _: &Graph, _: &IdAssignment, _: VertexId) {}
        fn publish(&self, _: &()) {}
        fn step(&self, ctx: StepCtx<'_, ()>) -> Transition<(), u32> {
            if ctx.round > ctx.v {
                Transition::Terminate((), ctx.round)
            } else {
                Transition::Continue(())
            }
        }
    }

    /// Flood-max: publish the largest ID seen; terminate after `rounds`.
    struct FloodMax {
        rounds: u32,
    }
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
            if ctx.round >= self.rounds {
                Transition::Terminate(best, best)
            } else {
                Transition::Continue(best)
            }
        }
    }

    /// Never terminates — must hit the round cap.
    struct Livelock;
    impl Protocol for Livelock {
        type State = ();
        type Msg = ();
        type Output = ();
        fn init(&self, _: &Graph, _: &IdAssignment, _: VertexId) {}
        fn publish(&self, _: &()) {}
        fn step(&self, _: StepCtx<'_, ()>) -> Transition<(), ()> {
            Transition::Continue(())
        }
        fn max_rounds(&self, _: &Graph) -> u32 {
            10
        }
    }

    /// Coin-flip terminator: exercises the RNG plumbing.
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

    fn ids(n: usize) -> IdAssignment {
        IdAssignment::identity(n)
    }

    /// Tuning that forces genuine thread fan-out on every round, even on
    /// a single-core machine.
    fn fan_out_tuning() -> EngineTuning {
        EngineTuning::default().par_threshold(1).workers(4)
    }

    #[test]
    fn instant_protocol_metrics() {
        let g = gen::cycle(5);
        let out = Runner::new(&Instant, &g, &ids(5)).run().unwrap();
        assert_eq!(out.metrics.worst_case(), 1);
        assert_eq!(out.metrics.vertex_averaged(), 1.0);
        assert_eq!(out.outputs, vec![0, 1, 2, 3, 4]);
        out.metrics.check_identities().unwrap();
    }

    #[test]
    fn staircase_round_counts() {
        let g = gen::path(4);
        let out = Runner::new(&Staircase, &g, &ids(4)).run().unwrap();
        assert_eq!(out.metrics.termination_round, vec![1, 2, 3, 4]);
        assert_eq!(out.metrics.active_per_round, vec![4, 3, 2, 1]);
        assert_eq!(out.metrics.round_sum(), 10);
        out.metrics.check_identities().unwrap();
    }

    #[test]
    fn engine_work_equals_round_sum() {
        let g = gen::path(6);
        let out = Runner::new(&Staircase, &g, &ids(6)).run().unwrap();
        assert_eq!(out.stats.steps, out.metrics.round_sum());
        assert_eq!(out.stats.publications, out.metrics.round_sum());
        assert_eq!(out.stats.rounds, out.metrics.worst_case());
        assert_eq!(out.stats.msg_bits, 0, "() messages cost zero wire bits");
        assert_eq!(out.stats.max_msg_bits, 0);
        assert_eq!(out.stats.parallel_rounds, 0);
    }

    #[test]
    fn flood_max_converges_on_path() {
        let g = gen::path(3);
        let out = Runner::new(&FloodMax { rounds: 3 }, &g, &ids(3))
            .run()
            .unwrap();
        assert_eq!(out.outputs, vec![2, 2, 2]);
        // Three rounds × three vertices × 64-bit messages.
        assert_eq!(out.stats.msg_bits, 9 * 64);
        assert_eq!(out.stats.max_msg_bits, 64);
    }

    #[test]
    fn terminated_neighbor_message_stays_readable() {
        // Vertex 0 terminates in round 1; vertex 1 reads 0's final message
        // in round 2 without 0 being stepped again.
        struct ReadsDead;
        impl Protocol for ReadsDead {
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
                if ctx.v == 0 {
                    return Transition::Terminate(77, 77);
                }
                if ctx.view.is_terminated(0) {
                    Transition::Terminate(0, *ctx.view.msg_of(0))
                } else {
                    Transition::Continue(0)
                }
            }
        }
        let g = gen::path(2);
        let out = Runner::new(&ReadsDead, &g, &ids(2)).run().unwrap();
        assert_eq!(out.outputs[1], 77);
        assert_eq!(out.metrics.termination_round, vec![1, 2]);
    }

    #[test]
    fn private_state_is_not_what_neighbors_see() {
        // The state/wire split: state carries a private counter that never
        // reaches the wire; the message only carries the public value.
        // Neighbors must see the projection, and the engine must charge
        // only the message's bits.
        #[derive(Clone)]
        struct S {
            public: u32,
            _scratch: [u64; 8], // 64 bytes of private scratch
        }
        struct Split;
        impl Protocol for Split {
            type State = S;
            type Msg = u32;
            type Output = u32;
            fn init(&self, _: &Graph, ids: &IdAssignment, v: VertexId) -> S {
                S {
                    public: ids.id(v) as u32,
                    _scratch: [0; 8],
                }
            }
            fn publish(&self, s: &S) -> u32 {
                s.public
            }
            fn step(&self, ctx: StepCtx<'_, S, u32>) -> Transition<S, u32> {
                let sum: u32 = ctx.view.neighbors().map(|(_, &m)| m).sum();
                if ctx.round == 2 {
                    Transition::Terminate(ctx.state.clone(), sum)
                } else {
                    Transition::Continue(S {
                        public: sum,
                        _scratch: [99; 8],
                    })
                }
            }
        }
        let g = gen::path(3);
        let out = Runner::new(&Split, &g, &ids(3)).run().unwrap();
        // Round 1 messages: ids 0,1,2 → round-1 sums 1,2,1 published.
        // Round 2 reads those sums: outputs 2, 0+… = [2, 2, 2]? Compute:
        // v0 reads v1's msg 2 → 2; v1 reads 1+1=2; v2 reads v1's 2 → 2.
        assert_eq!(out.outputs, vec![2, 2, 2]);
        // Six steps, each publishing a 32-bit message — the 64-byte
        // scratch never hits the wire.
        assert_eq!(out.stats.msg_bits, 6 * 32);
        assert_eq!(out.stats.max_msg_bits, 32);
    }

    #[test]
    fn livelock_reports_error() {
        let g = gen::cycle(4);
        let err = Runner::new(&Livelock, &g, &ids(4)).run().unwrap_err();
        assert_eq!(
            err,
            EngineError::RoundLimitExceeded {
                max_rounds: 10,
                still_active: 4
            }
        );
        assert!(err.to_string().contains("still active"));
    }

    /// Names one phase but reports a second one.
    struct StrayPhase;
    impl Protocol for StrayPhase {
        type State = ();
        type Msg = ();
        type Output = ();
        fn init(&self, _: &Graph, _: &IdAssignment, _: VertexId) {}
        fn publish(&self, _: &()) {}
        fn step(&self, _: StepCtx<'_, ()>) -> Transition<(), ()> {
            Transition::Terminate((), ())
        }
        fn phase_of(&self, _: &()) -> PhaseId {
            1
        }
    }

    #[test]
    #[should_panic(expected = "phase_of returned phase 1, but phase_names declares 1 slot(s)")]
    fn out_of_range_phase_names_the_contract() {
        let g = gen::cycle(4);
        let _ = Runner::new(&StrayPhase, &g, &ids(4)).run();
    }

    #[test]
    #[should_panic(expected = "phase_of returned phase 1, but phase_names declares 1 slot(s)")]
    fn out_of_range_phase_names_the_contract_on_the_reference_engine() {
        let g = gen::cycle(4);
        let _ = crate::reference::run_reference(&StrayPhase, &g, &ids(4), 1);
    }

    #[test]
    fn max_rounds_override_wins() {
        let g = gen::cycle(4);
        let err = Runner::new(&Livelock, &g, &ids(4))
            .max_rounds(3)
            .run()
            .unwrap_err();
        assert_eq!(
            err,
            EngineError::RoundLimitExceeded {
                max_rounds: 3,
                still_active: 4
            }
        );
    }

    #[test]
    fn parallel_equals_sequential_deterministic() {
        let g = gen::grid(6, 7);
        let n = g.n();
        let seq = Runner::new(&Staircase, &g, &ids(n)).run().unwrap();
        // Forced workers + threshold 1: genuine fan-out on every round,
        // even on one core.
        let par = Runner::new(&Staircase, &g, &ids(n))
            .parallel()
            .tuning(fan_out_tuning())
            .run()
            .unwrap();
        assert_eq!(seq.outputs, par.outputs);
        assert_eq!(seq.metrics, par.metrics);
        assert_eq!(seq.stats.steps, par.stats.steps);
        assert!(par.stats.parallel_rounds > 0, "cutover at 1 must fan out");
    }

    #[test]
    fn parallel_equals_sequential_randomized() {
        let g = gen::cycle(64);
        let seq = Runner::new(&CoinFlip, &g, &ids(64))
            .seed(1234)
            .run()
            .unwrap();
        let par = Runner::new(&CoinFlip, &g, &ids(64))
            .seed(1234)
            .parallel()
            .tuning(fan_out_tuning())
            .run()
            .unwrap();
        assert_eq!(seq.outputs, par.outputs);
        assert_eq!(seq.metrics, par.metrics);
        assert!(par.stats.parallel_rounds > 0);
    }

    #[test]
    fn adaptive_cutover_keeps_small_rounds_sequential() {
        let g = gen::cycle(16);
        let out = Runner::new(&Staircase, &g, &ids(16))
            .parallel()
            .tuning(EngineTuning::default().par_threshold(1000).workers(4))
            .run()
            .unwrap();
        assert_eq!(
            out.stats.parallel_rounds, 0,
            "active set never reaches threshold"
        );
    }

    #[test]
    fn different_seeds_differ() {
        let g = gen::cycle(64);
        let a = Runner::new(&CoinFlip, &g, &ids(64)).seed(1).run().unwrap();
        let b = Runner::new(&CoinFlip, &g, &ids(64)).seed(2).run().unwrap();
        assert_ne!(a.metrics.termination_round, b.metrics.termination_round);
    }

    #[test]
    fn empty_graph_runs() {
        let g = graphcore::GraphBuilder::new(0).build();
        let out = Runner::new(&Instant, &g, &ids(0)).run().unwrap();
        assert_eq!(out.metrics.n(), 0);
        assert_eq!(out.metrics.worst_case(), 0);
        assert_eq!(out.stats.rounds, 0);
        assert_eq!(out.stats.steps, 0);
    }

    #[test]
    fn trace_matches_engine_accounting() {
        let g = gen::path(5);
        let mut t = TraceLog::new();
        let out = Runner::new(&FloodMax { rounds: 2 }, &g, &ids(5))
            .run_with(&mut t)
            .unwrap();
        let (mut active, mut bits, mut peak) = (Vec::new(), 0, 0);
        let mut seen = [0u32; 5];
        for e in &t.events {
            match *e {
                TraceEvent::RoundEnd {
                    active: a,
                    publications,
                    msg_bits,
                    max_msg_bits,
                    ..
                } => {
                    assert_eq!(publications, a);
                    active.push(a);
                    bits += msg_bits;
                    peak = peak.max(max_msg_bits);
                }
                // Every vertex terminates exactly once, at its recorded
                // round.
                TraceEvent::Terminate { v, round } => {
                    seen[v as usize] += 1;
                    assert_eq!(out.metrics.termination_round[v as usize], round);
                }
                _ => {}
            }
        }
        assert_eq!(active, out.metrics.active_per_round);
        assert_eq!(t.step_events(), out.stats.publications);
        assert_eq!(bits, out.stats.msg_bits);
        assert_eq!(peak, out.stats.max_msg_bits);
        assert_eq!(t.rounds(), out.stats.rounds);
        assert!(seen.iter().all(|&c| c == 1));
        // One phase: it holds the whole RoundSum and every termination.
        assert_eq!(out.stats.phase_steps, vec![out.metrics.round_sum()]);
        assert_eq!(out.stats.phase_terminations, vec![5]);
    }

    #[test]
    fn config_builder_reaches_engine() {
        let g = gen::cycle(8);
        let cfg = RunConfig::seeded(9)
            .sequential()
            .with_tuning(EngineTuning::default().par_threshold(123));
        let out = Runner::new(&CoinFlip, &g, &ids(8))
            .config(cfg)
            .run()
            .unwrap();
        let again = Runner::new(&CoinFlip, &g, &ids(8)).seed(9).run().unwrap();
        assert_eq!(out.outputs, again.outputs);
    }

    #[test]
    fn auto_tuning_resolves_from_graph_shape() {
        let sparse = gen::cycle(1000);
        let rt = EngineTuning::default().resolve(&sparse);
        assert!(rt.par_threshold <= DEFAULT_PAR_THRESHOLD);
        assert!(rt.par_threshold >= 256);
        assert!(rt.workers >= 1);
        // Denser graph → lower threshold (heavier steps amortize sooner).
        let dense = gen::clique(64);
        let rd = EngineTuning::default().resolve(&dense);
        assert!(rd.par_threshold <= rt.par_threshold);
        // Explicit settings win over auto.
        let forced = EngineTuning::default()
            .par_threshold(7)
            .workers(3)
            .resolve(&sparse);
        assert_eq!(forced.par_threshold, 7);
        assert_eq!(forced.workers, 3);
    }
}
