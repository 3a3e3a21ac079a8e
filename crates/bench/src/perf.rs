//! The engine perf trajectory: measured vertex-round throughput, its JSON
//! schema, and the one-sided regression gate behind `bench-diff --perf`.
//!
//! Correctness metrics have been regression-gated since PR 2
//! (`bench-diff --check` over [`crate::results::SuiteResult`]); raw engine
//! speed was informational-only. This module starts the perf paper-trail:
//! a small fixed suite of engine workloads is measured in *vertex-rounds
//! per second* (`EngineStats::steps / wall` — the unit of ROADMAP item 2's
//! ≥10⁸ target on n = 2²⁰), the best-of-reps numbers are written to a
//! schema-versioned JSON summary, and the committed baseline
//! (`results/BENCH_engine.json`) becomes a one-sided gate: ci.sh re-runs
//! the suite and fails when any entry's throughput drops more than the
//! tolerance (default 25%) below the baseline. Speedups never fail the
//! gate — they are the cue to refresh the baseline so the trajectory
//! ratchets forward (see EXPERIMENTS.md for the refresh procedure).
//!
//! Wall-clock is machine-dependent, which is exactly why the correctness
//! gate ignores it; the perf gate is the opposite trade, so the baseline
//! records the hardware it was measured on (`host` note) and must be
//! refreshed when the reference machine changes.

use crate::results::{fnum, quote, Json};
use graphcore::{gen, Graph, IdAssignment, VertexId};
use simlocal::{ActorRunner, EngineStats, Observer, Protocol, Runner, StepCtx, Transition};
use std::fmt::Write as _;
use std::path::Path;

/// Version of the JSON schema written by [`PerfSummary::to_json`]. Bump on
/// any incompatible change; `bench-diff --perf` refuses mismatched
/// versions. Version 2 added the optional obs-snapshot ratios
/// (`fast_hit_rate`, `barrier_wait_frac`) to entries.
pub const PERF_SCHEMA_VERSION: u64 = 2;

/// Vertex count of the standard perf workloads (ROADMAP item 2's n = 2²⁰).
pub const PERF_N: usize = 1 << 20;

/// Timed repetitions per entry; the best (fastest) rep is recorded, which
/// is the standard trick for throughput gates — the minimum is the run
/// least perturbed by the machine.
pub const PERF_REPS: usize = 5;

/// One measured workload: identity, size, the engine work it performed,
/// and the best observed throughput.
#[derive(Clone, Debug, PartialEq)]
pub struct PerfEntry {
    /// Stable entry id (`decay_seq_n20`, ...).
    pub id: String,
    /// Vertex count of the workload.
    pub n: usize,
    /// Rounds the engine ran (identical across reps — checked).
    pub rounds: u32,
    /// Total vertex-rounds (`EngineStats::steps` = `RoundSum`).
    pub vertex_rounds: u64,
    /// Fastest rep's wall time, in nanoseconds.
    pub best_wall_ns: u64,
    /// `vertex_rounds / best_wall` in rounds/second — the gated number.
    pub vr_per_sec: f64,
    /// Fraction of rounds the sync engine ran without per-vertex hooks
    /// (`simlocal_engine_fast_rounds_total / simlocal_engine_rounds_total`),
    /// measured by one extra obs-enabled run after the timed reps. Context
    /// only — never gated. `None` for entries where it does not apply.
    pub fast_hit_rate: Option<f64>,
    /// Fraction of actor-shard time spent blocked on the round barrier
    /// (`Σ barrier_wait_ns / (Σ barrier_wait_ns + Σ compute_ns)` over
    /// shards), from the same extra obs-enabled run. Context only.
    pub barrier_wait_frac: Option<f64>,
}

/// A whole perf run: schema version, free-form context notes (hardware,
/// pre-change reference numbers), and one entry per workload.
#[derive(Clone, Debug, PartialEq)]
pub struct PerfSummary {
    /// Schema version (see [`PERF_SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// Context notes: never compared, always carried (the committed
    /// baseline uses them to record the measurement hardware and the
    /// pre-rewrite engine's numbers).
    pub notes: Vec<String>,
    /// Measured entries, in suite order.
    pub entries: Vec<PerfEntry>,
}

impl PerfSummary {
    /// Bundles measured entries under the current schema.
    pub fn new(notes: Vec<String>, entries: Vec<PerfEntry>) -> PerfSummary {
        PerfSummary {
            schema_version: PERF_SCHEMA_VERSION,
            notes,
            entries,
        }
    }

    /// Serializes to pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema_version\": {},", self.schema_version);
        let notes: Vec<String> = self.notes.iter().map(|s| quote(s)).collect();
        let _ = writeln!(out, "  \"notes\": [{}],", notes.join(", "));
        out.push_str("  \"entries\": [\n");
        for (i, e) in self.entries.iter().enumerate() {
            let comma = if i + 1 < self.entries.len() { "," } else { "" };
            let mut extras = String::new();
            if let Some(r) = e.fast_hit_rate {
                let _ = write!(extras, ", \"fast_hit_rate\": {}", fnum(r));
            }
            if let Some(r) = e.barrier_wait_frac {
                let _ = write!(extras, ", \"barrier_wait_frac\": {}", fnum(r));
            }
            let _ = writeln!(
                out,
                "    {{\"id\": {}, \"n\": {}, \"rounds\": {}, \"vertex_rounds\": {}, \
                 \"best_wall_ns\": {}, \"vr_per_sec\": {}{}}}{}",
                quote(&e.id),
                e.n,
                e.rounds,
                e.vertex_rounds,
                e.best_wall_ns,
                fnum(e.vr_per_sec),
                extras,
                comma
            );
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parses a document produced by [`PerfSummary::to_json`].
    pub fn from_json(text: &str) -> Result<PerfSummary, String> {
        let v = Json::parse(text)?;
        let schema_version = v.get_u64("schema_version")?;
        if schema_version != PERF_SCHEMA_VERSION {
            return Err(format!(
                "perf schema version {schema_version} unsupported (expected {PERF_SCHEMA_VERSION})"
            ));
        }
        let notes = v
            .get("notes")?
            .as_array()?
            .iter()
            .map(|s| Ok(s.as_str()?.to_string()))
            .collect::<Result<Vec<_>, String>>()?;
        let entries = v
            .get("entries")?
            .as_array()?
            .iter()
            .map(|e| {
                // Snapshot ratios are optional: absent on entries they do
                // not apply to, and on documents written before they ran.
                let opt_f64 = |key: &str| e.get(key).ok().map(|v| v.as_f64()).transpose();
                Ok(PerfEntry {
                    id: e.get("id")?.as_str()?.to_string(),
                    n: e.get_u64("n")? as usize,
                    rounds: e.get_u64("rounds")? as u32,
                    vertex_rounds: e.get_u64("vertex_rounds")?,
                    best_wall_ns: e.get_u64("best_wall_ns")?,
                    vr_per_sec: e.get("vr_per_sec")?.as_f64()?,
                    fast_hit_rate: opt_f64("fast_hit_rate")?,
                    barrier_wait_frac: opt_f64("barrier_wait_frac")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(PerfSummary {
            schema_version,
            notes,
            entries,
        })
    }

    /// Writes the JSON document to `path` (creating parent directories).
    pub fn write(&self, path: &Path) -> Result<(), String> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        }
        std::fs::write(path, self.to_json()).map_err(|e| format!("write {}: {e}", path.display()))
    }

    /// Reads and parses a summary from `path`.
    pub fn read(path: &Path) -> Result<PerfSummary, String> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        Self::from_json(&text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// The one-sided perf gate: failures when a fresh entry's throughput drops
/// more than `tol` (relative) below the baseline's, when an entry is
/// missing or unexpected, or when the *work* changed (same id must mean
/// the same workload — a `vertex_rounds` or `n` mismatch means the suite
/// changed and the baseline must be refreshed, not tolerated).
/// Improvements never fail; [`perf_notes`] reports them.
pub fn diff_perf(baseline: &PerfSummary, fresh: &PerfSummary, tol: f64) -> Vec<String> {
    let mut failures = Vec::new();
    for b in &baseline.entries {
        let Some(f) = fresh.entries.iter().find(|f| f.id == b.id) else {
            failures.push(format!("entry `{}` missing from the fresh run", b.id));
            continue;
        };
        if f.n != b.n || f.vertex_rounds != b.vertex_rounds || f.rounds != b.rounds {
            failures.push(format!(
                "entry `{}` measures different work (baseline n={} rounds={} vr={}, \
                 fresh n={} rounds={} vr={}) — refresh the baseline",
                b.id, b.n, b.rounds, b.vertex_rounds, f.n, f.rounds, f.vertex_rounds
            ));
            continue;
        }
        let floor = b.vr_per_sec * (1.0 - tol);
        if f.vr_per_sec < floor {
            failures.push(format!(
                "entry `{}` throughput regressed: {} vs baseline {} vertex-rounds/sec \
                 (floor {} at tol {tol})",
                b.id,
                fmt_throughput(f.vr_per_sec),
                fmt_throughput(b.vr_per_sec),
                fmt_throughput(floor)
            ));
        }
    }
    for f in &fresh.entries {
        if !baseline.entries.iter().any(|b| b.id == f.id) {
            failures.push(format!(
                "entry `{}` not in the baseline — refresh it to start gating the new entry",
                f.id
            ));
        }
    }
    failures
}

/// Informational notes for a perf comparison: entries that got faster by
/// more than `tol` (the cue to refresh the committed baseline so the gate
/// ratchets forward).
pub fn perf_notes(baseline: &PerfSummary, fresh: &PerfSummary, tol: f64) -> Vec<String> {
    let mut notes = Vec::new();
    for b in &baseline.entries {
        if let Some(f) = fresh.entries.iter().find(|f| f.id == b.id) {
            if f.vr_per_sec > b.vr_per_sec * (1.0 + tol) {
                notes.push(format!(
                    "entry `{}` improved: {} vs baseline {} vertex-rounds/sec — \
                     consider refreshing the baseline",
                    b.id,
                    fmt_throughput(f.vr_per_sec),
                    fmt_throughput(b.vr_per_sec)
                ));
            }
        }
    }
    notes
}

/// Human-readable throughput (`123.4M`-style).
pub fn fmt_throughput(vr_per_sec: f64) -> String {
    if vr_per_sec >= 1e9 {
        format!("{:.2}G", vr_per_sec / 1e9)
    } else if vr_per_sec >= 1e6 {
        format!("{:.1}M", vr_per_sec / 1e6)
    } else if vr_per_sec >= 1e3 {
        format!("{:.1}k", vr_per_sec / 1e3)
    } else {
        format!("{vr_per_sec:.0}")
    }
}

/// Times `reps` runs of `run` and records the fastest, using the engine's
/// own wall measurement (`EngineStats::wall`, which includes slab init but
/// not graph generation). Panics if reps disagree on the work performed —
/// a nondeterministic workload cannot be a perf baseline.
pub fn measure(id: &str, n: usize, reps: usize, mut run: impl FnMut() -> EngineStats) -> PerfEntry {
    assert!(reps >= 1, "at least one rep");
    let first = run();
    let mut best = first.wall;
    for _ in 1..reps {
        let stats = run();
        assert_eq!(
            (stats.steps, stats.rounds),
            (first.steps, first.rounds),
            "perf workload `{id}` must be deterministic across reps"
        );
        best = best.min(stats.wall);
    }
    let best_wall_ns = best.as_nanos() as u64;
    PerfEntry {
        id: id.to_string(),
        n,
        rounds: first.rounds,
        vertex_rounds: first.steps,
        best_wall_ns,
        vr_per_sec: first.steps as f64 / (best_wall_ns.max(1) as f64 / 1e9),
        fast_hit_rate: None,
        barrier_wait_frac: None,
    }
}

/// Neighbor-free geometric decay: vertex `v` terminates in round
/// `1 + trailing_zeros(v + 1)`, so half the active set leaves every round
/// and `RoundSum ≈ 2n` over `log₂ n + 1` rounds. `Msg = ()` and the step
/// body is a couple of integer ops, so the measurement isolates the
/// engine's own per-step overhead — the number ROADMAP item 2 targets.
pub struct PureDecay;

impl Protocol for PureDecay {
    type State = u64;
    type Msg = ();
    type Output = u64;
    fn init(&self, _: &Graph, ids: &IdAssignment, v: VertexId) -> u64 {
        ids.id(v)
    }
    fn publish(&self, _: &u64) {}
    fn step(&self, ctx: StepCtx<'_, u64, ()>) -> Transition<u64, u64> {
        let life = 1 + (ctx.v as u64 + 1).trailing_zeros();
        if ctx.round >= life {
            Transition::Terminate(*ctx.state, *ctx.state)
        } else {
            Transition::Continue(ctx.state + 1)
        }
    }
}

/// Neighbor-reading variant: same termination schedule, but every step
/// floods the maximum published value over the graph, so the measurement
/// includes the CSR neighbor walk and the message-slab reads.
pub struct FloodDecay;

impl Protocol for FloodDecay {
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
            .map(|(_, &m)| m)
            .chain([*ctx.state])
            .max()
            .unwrap();
        let life = 1 + (ctx.v as u64 + 1).trailing_zeros();
        if ctx.round >= life {
            Transition::Terminate(best, best)
        } else {
            Transition::Continue(best)
        }
    }
}

/// An observer whose hooks fire on every step, termination and round,
/// counting them: the cost of running with per-vertex hooks attached,
/// without the cost of storing what they report.
#[derive(Default)]
struct HookCounter {
    steps: u64,
    terminations: u64,
    rounds: u32,
}

impl Observer for HookCounter {
    fn on_step(&mut self, _: VertexId, _: u32) {
        self.steps += 1;
    }

    fn on_terminate(&mut self, _: VertexId, _: u32) {
        self.terminations += 1;
    }

    fn on_round_end(&mut self, _: &simlocal::RoundRecord) {
        self.rounds += 1;
    }
}

/// The standard perf suite on `n` vertices: the cycle graph (deterministic,
/// O(n) to build, degree 2) under the decay protocols, sequential mode.
/// The machine gating the committed baseline has a single core, so the
/// parallel path is exercised by the correctness tests, not the perf
/// gate.
pub fn run_suite(n: usize, reps: usize) -> Vec<PerfEntry> {
    let g = gen::cycle(n);
    let ids = IdAssignment::identity(n);
    let mut entries = vec![
        measure("decay_seq_n20", n, reps, || {
            Runner::new(&PureDecay, &g, &ids).run().unwrap().stats
        }),
        // The same protocol with per-vertex hooks attached: the observed
        // path traced runs take (hooks replayed from the kernel's event
        // buffer every round).
        measure("decay_observed_seq_n20", n, reps, || {
            let mut hooks = HookCounter::default();
            let stats = Runner::new(&PureDecay, &g, &ids)
                .run_with(&mut hooks)
                .unwrap()
                .stats;
            assert_eq!(hooks.steps, stats.steps, "a hook per step");
            assert_eq!(hooks.terminations, n as u64, "a hook per vertex");
            assert_eq!(hooks.rounds, stats.rounds, "a hook per round");
            stats
        }),
        measure("flood_seq_n20", n, reps, || {
            Runner::new(&FloodDecay, &g, &ids).run().unwrap().stats
        }),
        // The actor backend on the same decay workload, at a fixed shard
        // count so the measured work layout is machine-independent. Its
        // steps/rounds equal the sync entries' (byte-identical backends),
        // so the determinism cross-check in `measure` holds here too.
        measure("decay_actor_n20", n, reps, || {
            ActorRunner::new(&PureDecay, &g, &ids)
                .shards(4)
                .run()
                .unwrap()
                .stats
        }),
    ];

    // One extra, *untimed* obs-enabled run per instrumented entry. The
    // timed reps above stay metrics-free so the gated wall numbers carry
    // zero instrumentation overhead; the ratios ride along in the summary
    // as context (diff_perf never compares them).
    {
        use simlocal::obs::{Metric, Registry};
        let reg = Registry::new(1);
        Runner::new(&PureDecay, &g, &ids)
            .obs(&reg)
            .run()
            .expect("decay workload runs");
        let rounds = reg.total(Metric::EngineRounds);
        if let Some(e) = entries.iter_mut().find(|e| e.id == "decay_seq_n20") {
            e.fast_hit_rate =
                (rounds > 0).then(|| reg.total(Metric::EngineFastRounds) as f64 / rounds as f64);
        }

        let reg = Registry::new(4);
        ActorRunner::new(&PureDecay, &g, &ids)
            .shards(4)
            .obs(&reg)
            .run()
            .expect("decay workload runs on the actor backend");
        let wait = reg.total(Metric::ActorBarrierWaitNs);
        let busy = wait + reg.total(Metric::ActorComputeNs);
        if let Some(e) = entries.iter_mut().find(|e| e.id == "decay_actor_n20") {
            e.barrier_wait_frac = (busy > 0).then(|| wait as f64 / busy as f64);
        }
    }

    // Harness trial throughput: the engine entries above gate the
    // per-step cost, this one gates the whole pipeline around the engine
    // (plan → cache → schedule → sink, including seeded graph
    // generation, ID assignment, and verification).
    entries.push(harness_table2_quick(reps));
    // File-source ingestion throughput (Matrix Market parse + normalize).
    entries.push(ingest_parse_n20(n, reps));
    entries
}

/// Measures [`graphcore::io`] ingestion throughput: parsing a Matrix
/// Market document of `n` edges held in memory and normalizing it
/// (dedupe, self-loop drop, component count, arboricity estimate). For
/// this entry `vr_per_sec` is **edges per second** through parse +
/// normalize; `rounds` is 1, `n` the normalized vertex count, and
/// `vertex_rounds` the raw edge count, so the work-drift check still
/// pins the measured document. The document is built outside the timed
/// region — the gate covers ingestion, not formatting.
fn ingest_parse_n20(n: usize, reps: usize) -> PerfEntry {
    use graphcore::io::{normalize, parse_raw, FileFormat, NormalizeOptions};
    assert!(reps >= 1, "at least one rep");
    let text = graphcore::io::to_matrix_market(&gen::cycle(n));
    let mut best_wall_ns = u64::MAX;
    let mut work: Option<(usize, u64)> = None;
    for _ in 0..reps {
        let t0 = std::time::Instant::now();
        let raw = parse_raw(&text, FileFormat::MatrixMarket).expect("generated document parses");
        let (graph, report) = normalize(&raw, NormalizeOptions::default());
        let wall = t0.elapsed().as_nanos() as u64;
        match &work {
            None => work = Some((graph.n(), report.m_raw as u64)),
            Some(w) => assert_eq!(
                *w,
                (graph.n(), report.m_raw as u64),
                "ingest_parse_n20 must be deterministic across reps"
            ),
        }
        best_wall_ns = best_wall_ns.min(wall);
    }
    let (vertices, m_raw) = work.expect("at least one rep ran");
    PerfEntry {
        id: "ingest_parse_n20".into(),
        n: vertices,
        rounds: 1,
        vertex_rounds: m_raw,
        best_wall_ns,
        vr_per_sec: m_raw as f64 / (best_wall_ns.max(1) as f64 / 1e9),
        fast_hit_rate: None,
        barrier_wait_frac: None,
    }
}

/// Measures the full table2 quick plan (identity IDs, seed 0, sync
/// backend, one worker) executed silently through the trial pipeline.
/// For this entry `vr_per_sec` is **trials per second** — the sustained
/// trial throughput of the harness itself; `rounds` carries the trial
/// count, `n` the total vertices across trials, and `vertex_rounds` the
/// summed `RoundSum`, so the perf gate's work-drift check still pins the
/// measured workload to the suite declarations.
fn harness_table2_quick(reps: usize) -> PerfEntry {
    use crate::pipeline::{plan_rows, run_plan, CollectSink, WorkloadCache};
    use crate::spec::SpecKind;
    assert!(reps >= 1, "at least one rep");
    let cli = crate::Cli::parse_from(["--quick".to_string()]).expect("static flags parse");
    let specs = crate::suites::table2();
    let mut best_wall_ns = u64::MAX;
    let mut work: Option<(u64, u64, u64)> = None;
    for _ in 0..reps {
        let cache = WorkloadCache::new();
        let mut next_id = 0u64;
        let (mut trials, mut total_n, mut pubs) = (0u64, 0u64, 0u64);
        let t0 = std::time::Instant::now();
        for spec in &specs {
            if let SpecKind::Rows {
                workloads, runs, ..
            } = &spec.kind
            {
                let plan = plan_rows(&cli, workloads, runs, &mut next_id);
                let mut sink = CollectSink::default();
                run_plan(&plan, 1, &cache, None, &mut sink);
                trials += sink.rows.len() as u64;
                total_n += sink.rows.iter().map(|r| r.n as u64).sum::<u64>();
                pubs += sink.rows.iter().map(|r| r.pubs).sum::<u64>();
            }
        }
        let wall = t0.elapsed().as_nanos() as u64;
        match &work {
            None => work = Some((trials, total_n, pubs)),
            Some(w) => assert_eq!(
                *w,
                (trials, total_n, pubs),
                "harness_table2_quick must be deterministic across reps"
            ),
        }
        best_wall_ns = best_wall_ns.min(wall);
    }
    let (trials, total_n, pubs) = work.expect("at least one rep ran");
    PerfEntry {
        id: "harness_table2_quick".into(),
        n: total_n as usize,
        rounds: trials as u32,
        vertex_rounds: pubs,
        best_wall_ns,
        vr_per_sec: trials as f64 / (best_wall_ns.max(1) as f64 / 1e9),
        fast_hit_rate: None,
        barrier_wait_frac: None,
    }
}

/// Ids measured by [`run_suite`], for `--list` output.
pub fn suite_ids() -> Vec<&'static str> {
    vec![
        "decay_seq_n20",
        "decay_observed_seq_n20",
        "flood_seq_n20",
        "decay_actor_n20",
        "harness_table2_quick",
        "ingest_parse_n20",
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> PerfSummary {
        PerfSummary::new(
            vec!["host: test".into()],
            vec![
                PerfEntry {
                    id: "a".into(),
                    n: 1024,
                    rounds: 11,
                    vertex_rounds: 2048,
                    best_wall_ns: 1000,
                    vr_per_sec: 2.048e9,
                    fast_hit_rate: Some(0.9375),
                    barrier_wait_frac: None,
                },
                PerfEntry {
                    id: "b".into(),
                    n: 1024,
                    rounds: 11,
                    vertex_rounds: 2048,
                    best_wall_ns: 2000,
                    vr_per_sec: 1.024e9,
                    fast_hit_rate: None,
                    barrier_wait_frac: Some(0.25),
                },
            ],
        )
    }

    #[test]
    fn perf_json_round_trips() {
        let s = sample();
        let parsed = PerfSummary::from_json(&s.to_json()).unwrap();
        assert_eq!(parsed.schema_version, s.schema_version);
        assert_eq!(parsed.notes, s.notes);
        assert_eq!(parsed.entries.len(), s.entries.len());
        for (a, b) in parsed.entries.iter().zip(&s.entries) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.vertex_rounds, b.vertex_rounds);
            assert!((a.vr_per_sec - b.vr_per_sec).abs() / b.vr_per_sec < 1e-6);
            assert_eq!(a.fast_hit_rate, b.fast_hit_rate);
            assert_eq!(a.barrier_wait_frac, b.barrier_wait_frac);
        }
    }

    #[test]
    fn perf_gate_ignores_snapshot_ratios() {
        // The obs ratios are context, not gated work: a fresh run whose
        // ratios differ (or are absent) passes against the baseline.
        let base = sample();
        let mut fresh = sample();
        fresh.entries[0].fast_hit_rate = Some(0.5);
        fresh.entries[1].barrier_wait_frac = None;
        assert!(diff_perf(&base, &fresh, 0.25).is_empty());
    }

    #[test]
    fn perf_gate_is_one_sided() {
        let base = sample();
        let mut fresh = sample();
        // 10% slower at tol 0.25: passes.
        fresh.entries[0].vr_per_sec = base.entries[0].vr_per_sec * 0.9;
        assert!(diff_perf(&base, &fresh, 0.25).is_empty());
        // 30% slower: fails.
        fresh.entries[0].vr_per_sec = base.entries[0].vr_per_sec * 0.7;
        let failures = diff_perf(&base, &fresh, 0.25);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("regressed"));
        // 2x faster: passes, but noted.
        fresh.entries[0].vr_per_sec = base.entries[0].vr_per_sec * 2.0;
        assert!(diff_perf(&base, &fresh, 0.25).is_empty());
        assert_eq!(perf_notes(&base, &fresh, 0.25).len(), 1);
    }

    #[test]
    fn perf_gate_rejects_workload_drift() {
        let base = sample();
        let mut fresh = sample();
        fresh.entries[1].vertex_rounds += 1;
        let failures = diff_perf(&base, &fresh, 0.25);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("different work"));
        // Missing and extra entries both fail.
        let mut fresh = sample();
        fresh.entries[0].id = "c".into();
        let failures = diff_perf(&base, &fresh, 0.25);
        assert_eq!(failures.len(), 2);
    }

    #[test]
    fn measure_records_best_rep() {
        let g = gen::cycle(64);
        let ids = IdAssignment::identity(64);
        let e = measure("t", 64, 3, || {
            Runner::new(&PureDecay, &g, &ids).run().unwrap().stats
        });
        assert_eq!(e.n, 64);
        assert_eq!(e.rounds, 7, "64 vertices decay in log2(64)+1 rounds");
        assert!(e.vertex_rounds > 64, "RoundSum ≈ 2n");
        assert!(e.vr_per_sec > 0.0);
    }
}
