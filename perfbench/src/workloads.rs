//! The four workloads. Each drives the program only through public APIs:
//! `benchharness` (`pipeline`, `registry`, `suites`, `bounds`),
//! `graphcore` (`gen` via `WorkloadKey::generate`, `io`, `churn`,
//! `verify`), `simlocal` (`Runner`, `warm`, `ActorRunner`, `obs`) and
//! `algos` (protocol constructors for the direct-engine checks).

use crate::trace::Tracer;
use crate::{mix, Args, Fingerprint, Layer, OpRec, Step, Workload};
use algos::{matching::MatchingExtension, mis};
use benchharness::bounds::{self, Bound};
use benchharness::pipeline::{self, CollectSink, JobPlan, WorkloadCache, WorkloadKey};
use benchharness::registry::{self, AlgoSpec, Backend, ExecOptions, ObserveMode, Params};
use benchharness::spec::SpecKind;
use benchharness::{suites, summarize, Cli, Row, Trial};
use graphcore::churn::{self, ChurnPlan, EditBatch};
use graphcore::gen::GenGraph;
use graphcore::{verify, Graph, IdAssignment};
use simlocal::obs::{Metric, Registry};
use simlocal::{ActorRunner, EngineStats, Protocol, Replay, RunConfig, Runner, WarmStart};
use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::time::Instant;

/// Builds the workload `args` names.
pub fn build(args: &Args) -> Box<dyn Workload> {
    match args.workload.as_str() {
        "table2_quick" => Box::new(Table2Quick::new(args)),
        "registry_n16" => Box::new(RegistryN16::new(args)),
        "churn_ingest" => Box::new(ChurnIngest::new(args)),
        "actor2" => Box::new(Actor2::new(args)),
        other => unreachable!("workload `{other}` passed argument parsing"),
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn secs_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// The work a verified row did. `RoundSum` is the row's headline sum
/// (commit-based for the edge problems), `va · n` rounded.
fn row_fingerprint(row: &Row) -> Fingerprint {
    Fingerprint {
        ops: 1,
        round_sum: (row.va * row.n as f64).round() as u64,
        publications: row.pubs,
        msg_bits: row.msg_bits,
    }
}

fn stats_fingerprint(stats: &EngineStats, round_sum: u64) -> Fingerprint {
    Fingerprint {
        ops: 1,
        round_sum,
        publications: stats.publications,
        msg_bits: stats.msg_bits,
    }
}

/// Approximate resident bytes of a CSR graph: offsets plus, per edge,
/// both adjacency slots, both edge-id slots and the edge list entry
/// (the same formula the workload cache reports).
fn csr_bytes(g: &Graph) -> u64 {
    4 * (g.n() as u64 + 1) + 24 * g.m() as u64
}

/// Engine and harness counters summed over a traced phase, read from
/// the `simlocal::obs` registries attached to the runs.
#[derive(Default)]
struct ObsSums {
    trials: u64,
    rounds: u64,
    fast_rounds: u64,
    classic_rounds: u64,
    steps: u64,
    msg_bits: u64,
    step_ns: u64,
    publish_ns: u64,
    retire_ns: u64,
    queue_ns: u64,
    run_ns: u64,
    verify_ns: u64,
    actor_steps: u64,
    actor_msg_bits: u64,
    actor_compute_ns: u64,
    actor_wait_ns: u64,
    entries_out: u64,
}

impl ObsSums {
    fn add(&mut self, r: &Registry) {
        self.trials += r.total(Metric::HarnessTrials);
        self.rounds += r.total(Metric::EngineRounds);
        self.fast_rounds += r.total(Metric::EngineFastRounds);
        self.classic_rounds += r.total(Metric::EngineClassicRounds);
        self.steps += r.total(Metric::EngineSteps);
        self.msg_bits += r.total(Metric::EngineMsgBits);
        self.step_ns += r.total(Metric::EngineStepNs);
        self.publish_ns += r.total(Metric::EnginePublishNs);
        self.retire_ns += r.total(Metric::EngineRetireNs);
        self.queue_ns += r.total(Metric::HarnessQueueNs);
        self.run_ns += r.total(Metric::HarnessRunNs);
        self.verify_ns += r.total(Metric::HarnessVerifyNs);
        self.actor_steps += r.total(Metric::ActorSteps);
        self.actor_msg_bits += r.total(Metric::ActorMsgBits);
        self.actor_compute_ns += r.total(Metric::ActorComputeNs);
        self.actor_wait_ns += r.total(Metric::ActorBarrierWaitNs);
        self.entries_out += r.total(Metric::TransportEntriesOut);
    }

    /// The sync engine's split as shares of `engine_ms`, the engine wall
    /// of the same trials, plus the harness verify lap per trial. Laps a
    /// run never timed are left out: the publish lap only exists on
    /// classic rounds.
    fn engine_layers(&self, engine_ms: f64, out: &mut Vec<Layer>) {
        if self.trials > 0 {
            out.push((
                "verify.ms".into(),
                ms(self.verify_ns) / self.trials as f64,
                "ms/op",
            ));
        }
        if self.steps > 0 {
            out.push((
                "engine.bits_per_vr".into(),
                self.msg_bits as f64 / self.steps as f64,
                "bit/vr",
            ));
        } else if self.actor_steps > 0 {
            out.push((
                "engine.bits_per_vr".into(),
                self.actor_msg_bits as f64 / self.actor_steps as f64,
                "bit/vr",
            ));
        }
        if self.rounds == 0 || engine_ms <= 0.0 {
            return;
        }
        let share = |ns: u64| ms(ns) / engine_ms;
        out.push((
            "engine.fast_round_frac".into(),
            self.fast_rounds as f64 / self.rounds as f64,
            "ratio",
        ));
        out.push(("engine.step_frac".into(), share(self.step_ns), "ratio"));
        if self.classic_rounds > 0 {
            out.push((
                "engine.publish_frac".into(),
                share(self.publish_ns),
                "ratio",
            ));
        }
        out.push(("engine.retire_frac".into(), share(self.retire_ns), "ratio"));
    }

    /// Share of the harness's per-trial time (queue, run, verify) spent
    /// outside the engine run.
    fn outside_engine_frac(&self, out: &mut Vec<Layer>) {
        let all = self.queue_ns + self.run_ns + self.verify_ns;
        if all > 0 {
            out.push((
                "registry.outside_engine_frac".into(),
                (self.queue_ns + self.verify_ns) as f64 / all as f64,
                "ratio",
            ));
        }
    }
}

/// Per-protocol engine wall and vertex-rounds over a traced phase.
#[derive(Default)]
struct AlgoSums(BTreeMap<String, (f64, u64, u64)>);

impl AlgoSums {
    fn add(&mut self, algo: &str, engine_ms: f64, vertex_rounds: u64) {
        let e = self.0.entry(algo.to_string()).or_default();
        e.0 += engine_ms;
        e.1 += vertex_rounds;
        e.2 += 1;
    }

    /// Engine wall of every recorded operation, milliseconds.
    fn engine_ms(&self) -> f64 {
        self.0.values().map(|e| e.0).sum()
    }

    /// Per protocol, its share of the engine wall and its vertex-rounds
    /// per operation; over all of them, the engine wall per vertex-round.
    fn layers(&self, out: &mut Vec<Layer>) {
        let total_ms = self.engine_ms();
        let vr: u64 = self.0.values().map(|e| e.1).sum();
        if vr > 0 {
            out.push((
                "engine.ns_per_vr".into(),
                total_ms * 1e6 / vr as f64,
                "ns/vr",
            ));
        }
        for (algo, &(wall_ms, vr, ops)) in &self.0 {
            if total_ms > 0.0 {
                out.push((
                    format!("algos.{algo}.engine_frac"),
                    wall_ms / total_ms,
                    "ratio",
                ));
            }
            out.push((format!("algos.{algo}.vr"), vr as f64 / ops as f64, "vr/op"));
        }
    }
}

/// Total duration of span `name` per set-up as a layer metric, if it
/// was recorded.
fn per_setup(tr: &Tracer, name: &str, metric: &str, out: &mut Vec<Layer>) {
    if let Some(v) = tr.total_ms(name) {
        out.push((metric.into(), v / crate::SETUP_REPS as f64, "ms"));
    }
}

/// Share of a set-up (`setup_ms`, its mean duration) spent in spans
/// called `name`, if any was recorded.
fn setup_share(tr: &Tracer, name: &str, setup_ms: f64, metric: &str, out: &mut Vec<Layer>) {
    if let (Some(v), true) = (tr.total_ms(name), setup_ms > 0.0) {
        out.push((
            metric.into(),
            v / crate::SETUP_REPS as f64 / setup_ms,
            "ratio",
        ));
    }
}

/// Share of the spans called `whole` spent in the spans called `part`.
fn span_share(tr: &Tracer, part: &str, whole: &str, metric: &str, out: &mut Vec<Layer>) {
    if let (Some(p), Some(w)) = (tr.total_ms(part), tr.total_ms(whole)) {
        if w > 0.0 {
            out.push((metric.into(), p / w, "ratio"));
        }
    }
}

// ---------------------------------------------------------------------
// table2_quick

/// The table2 `--quick` plan (T2.1–T2.3h, identity and random IDs),
/// with engine seeds from the benchmark seed, run through `run_plan` on
/// two workers over a warmed workload cache. One step is one plan pass; an
/// operation is one trial.
struct Table2Quick {
    seed: u64,
    tiny: bool,
    workers: usize,
    plan: JobPlan,
    bounds: Vec<Bound>,
    cache: WorkloadCache,
    first_pass: Option<Fingerprint>,
    obs: ObsSums,
    algos: AlgoSums,
    busy_ms: f64,
    pass_ms: f64,
    passes: u64,
    hits: u64,
    /// Per set-up: CSR bytes of the generated graphs, and the bytes and
    /// edges of the ingested files.
    csr_bytes: u64,
    io_bytes: u64,
    io_edges: u64,
}

impl Table2Quick {
    fn new(args: &Args) -> Table2Quick {
        Table2Quick {
            seed: args.seed,
            tiny: args.tiny,
            workers: 2,
            plan: JobPlan { jobs: Vec::new() },
            bounds: Vec::new(),
            cache: WorkloadCache::new(),
            first_pass: None,
            obs: ObsSums::default(),
            algos: AlgoSums::default(),
            busy_ms: 0.0,
            pass_ms: 0.0,
            passes: 0,
            hits: 0,
            csr_bytes: 0,
            io_bytes: 0,
            io_edges: 0,
        }
    }

    /// The quick plan with every engine seed (which also draws the
    /// random ID permutations) derived from the benchmark seed, and the
    /// bounds `spec::execute` would enforce on it. The workload graphs
    /// keep the suite's own seeds: they are part of the plan users run,
    /// and the spec bounds are stated for them.
    fn plan(&self) -> (JobPlan, Vec<Bound>) {
        let mut argv = vec!["--quick", "--ids", "identity,random"];
        if self.tiny {
            argv.extend(["T2.1", "T2.2", "T2.3"]);
        }
        let cli = Cli::parse_from(argv.into_iter().map(String::from)).expect("fixed argv parses");
        let mut next_id = 0;
        let mut jobs = Vec::new();
        let mut bounds = vec![Bound::AllValid, Bound::PaletteWithinCap];
        for spec in suites::table2() {
            let SpecKind::Rows {
                workloads,
                runs,
                bounds: spec_bounds,
                ..
            } = &spec.kind
            else {
                continue;
            };
            let plan = pipeline::plan_rows(&cli, workloads, runs, &mut next_id);
            if plan.jobs.is_empty() {
                continue;
            }
            bounds.extend(spec_bounds.iter().cloned());
            for run in runs.iter().filter(|r| cli.wants(r.exp)) {
                if let Some(c) = registry::get(run.algo).congest {
                    bounds.push(Bound::CongestWidth {
                        exp: run.exp,
                        algo: run.algo,
                        c,
                    });
                }
            }
            jobs.extend(plan.jobs);
        }
        for job in &mut jobs {
            job.trial.seed = mix(self.seed, 1000 + job.trial.seed);
        }
        (JobPlan { jobs }, bounds)
    }
}

impl Workload for Table2Quick {
    fn ops_in_step(&self) -> u64 {
        self.plan.jobs.len() as u64
    }

    fn fingerprint_ops(&self) -> u64 {
        self.plan.jobs.len() as u64
    }

    fn cycle(&self) -> u64 {
        1
    }

    fn setup(&mut self, tr: &mut Tracer) -> f64 {
        let t0 = Instant::now();
        let s = tr.begin("pipeline.plan", Tracer::root(), 0);
        let (plan, bounds) = self.plan();
        tr.end(s);
        let cache = WorkloadCache::new();
        let mut seen = HashSet::new();
        let mut ingested = Vec::new();
        let mut csr = 0;
        for job in &plan.jobs {
            if seen.insert(job.workload) {
                let file = match job.workload {
                    WorkloadKey::File { path, .. } => Some(path),
                    _ => None,
                };
                let s = tr.begin(file.map_or("gen", |_| "io"), Tracer::root(), 0);
                let gg = cache.get(job.workload, None);
                tr.end(s);
                match file {
                    Some(path) => ingested.push((path, gg.graph.m() as u64)),
                    None => csr += csr_bytes(&gg.graph),
                }
            }
        }
        let elapsed = secs_since(t0);
        if self.plan.jobs.is_empty() {
            // Sizes, outside the set-up time.
            self.csr_bytes = csr;
            self.io_edges = ingested.iter().map(|f| f.1).sum();
            self.io_bytes = ingested
                .iter()
                .map(|f| std::fs::metadata(f.0).map_or(0, |m| m.len()))
                .sum();
            self.plan = plan;
            self.bounds = bounds;
            self.cache = cache;
        }
        elapsed
    }

    fn step(&mut self, k: u64, tr: &mut Tracer) -> Step {
        let reg = tr.on().then(|| Registry::new(1));
        let hits0 = self.cache.hits();
        let mut sink = CollectSink::default();
        let s = tr.begin("pipeline.run_plan", Tracer::root(), k);
        let t0 = Instant::now();
        pipeline::run_plan(
            &self.plan,
            self.workers,
            &self.cache,
            reg.as_ref(),
            &mut sink,
        );
        let wall_s = secs_since(t0);
        tr.end(s);
        let rows = sink.rows;
        let summaries = summarize(&rows);
        let violations = bounds::check(&self.bounds, &summaries);
        for v in &violations {
            eprintln!("table2_quick pass {k}: bound violated: {v}");
        }
        let mut pass_fp = Fingerprint::default();
        rows.iter().for_each(|r| pass_fp.add(&row_fingerprint(r)));
        let repeats = *self.first_pass.get_or_insert(pass_fp) == pass_fp;
        if !repeats {
            eprintln!("table2_quick pass {k}: work differs from the first pass");
        }
        if let Some(reg) = &reg {
            self.obs.add(reg);
            self.passes += 1;
            self.pass_ms += wall_s * 1e3;
            self.hits += self.cache.hits() - hits0;
            for r in &rows {
                self.busy_ms += r.wall_ms;
                self.algos.add(&r.algo, r.wall_ms, r.pubs);
            }
        }
        let ops = rows
            .iter()
            .map(|r| OpRec {
                // A trial's rows reach the user when the plan's table is
                // printed, after the pass.
                lat_ms: wall_s * 1e3,
                ok: r.valid && violations.is_empty() && repeats,
                fp: row_fingerprint(r),
            })
            .collect();
        Step { wall_s, ops }
    }

    fn sizes(&self) -> String {
        let keys: BTreeSet<String> = self
            .plan
            .jobs
            .iter()
            .map(|j| format!("{:?}", j.workload))
            .collect();
        format!(
            "table2 --quick plan, {} trials over {} workload graphs, ids identity+random, {} workers",
            self.plan.jobs.len(),
            keys.len(),
            self.workers
        )
    }

    fn layers(&self, tr: &Tracer, setup_ms: f64) -> Vec<Layer> {
        let mut out = Vec::new();
        setup_share(
            tr,
            "pipeline.plan",
            setup_ms,
            "pipeline.plan_frac",
            &mut out,
        );
        if self.passes > 0 {
            out.push((
                "pipeline.cache_hits".into(),
                self.hits as f64 / self.passes as f64,
                "count/pass",
            ));
            out.push((
                "pipeline.cache_misses".into(),
                self.cache.misses() as f64,
                "count",
            ));
            out.push((
                "pipeline.busy_frac".into(),
                self.busy_ms / (self.workers as f64 * self.pass_ms),
                "ratio",
            ));
        }
        per_setup(tr, "gen", "gen.ms", &mut out);
        out.push(("gen.csr_mb".into(), self.csr_bytes as f64 / 1e6, "MB"));
        setup_share(tr, "io", setup_ms, "io.setup_frac", &mut out);
        out.push(("io.mb".into(), self.io_bytes as f64 / 1e6, "MB"));
        out.push(("io.edges".into(), self.io_edges as f64, "count"));
        self.obs.outside_engine_frac(&mut out);
        self.obs.engine_layers(self.busy_ms, &mut out);
        self.algos.layers(&mut out);
        out
    }
}

// ---------------------------------------------------------------------
// registry_n16

/// Sequential Standard-observed registry trials of the small-message
/// protocols on `forest_union(a = 2)`: four at n = 2^16 and
/// `rand_delta_plus_one` at n = 2^12. One step is one trial, round-robin
/// over the protocols; the engine seed changes every round.
struct RegistryN16 {
    seed: u64,
    big_n: usize,
    small_n: usize,
    big: Option<GenGraph>,
    small: Option<GenGraph>,
    runs: Vec<(&'static AlgoSpec, Params, bool)>,
    /// Attached to the Standard trials of the traced half only.
    obs: Registry,
    algos: AlgoSums,
    exec_ms: f64,
    engine_ms: f64,
    bare_ms: f64,
}

impl RegistryN16 {
    fn new(args: &Args) -> RegistryN16 {
        let (big_n, small_n) = if args.tiny {
            (1 << 10, 1 << 8)
        } else {
            (1 << 16, 1 << 12)
        };
        let r = |name| registry::get(name);
        RegistryN16 {
            seed: args.seed,
            big_n,
            small_n,
            big: None,
            small: None,
            runs: vec![
                (r("mis_luby"), Params::default(), true),
                (r("a2logn"), Params::default(), true),
                (r("forest_parallelized"), Params::default(), true),
                (r("ka2"), Params::k(2), true),
                (r("rand_delta_plus_one"), Params::default(), false),
            ],
            obs: Registry::new(1),
            algos: AlgoSums::default(),
            exec_ms: 0.0,
            engine_ms: 0.0,
            bare_ms: 0.0,
        }
    }

    fn key(&self, n: usize, salt: u64) -> WorkloadKey {
        WorkloadKey::Forest {
            n,
            a: 2,
            seed: mix(self.seed, salt),
        }
    }
}

impl Workload for RegistryN16 {
    fn ops_in_step(&self) -> u64 {
        1
    }

    fn fingerprint_ops(&self) -> u64 {
        2 * self.runs.len() as u64
    }

    fn cycle(&self) -> u64 {
        self.runs.len() as u64
    }

    fn setup(&mut self, tr: &mut Tracer) -> f64 {
        let t0 = Instant::now();
        let s = tr.begin("gen", Tracer::root(), 0);
        let big = self.key(self.big_n, 1).generate();
        let small = self.key(self.small_n, 2).generate();
        tr.end(s);
        let elapsed = secs_since(t0);
        if self.big.is_none() {
            self.big = Some(big);
            self.small = Some(small);
        }
        elapsed
    }

    fn step(&mut self, k: u64, tr: &mut Tracer) -> Step {
        let (spec, params, on_big) = self.runs[(k % self.runs.len() as u64) as usize];
        let gg = if on_big { &self.big } else { &self.small };
        let gg = gg.as_ref().expect("set up before stepping");
        let trial = Trial::identity(mix(self.seed, 100 + k / self.runs.len() as u64));
        let mut opts = ExecOptions::new("registry_n16", gg, &trial).params(params);
        if tr.on() {
            opts = opts.metrics(&self.obs);
        }
        let s = tr.begin("registry.exec", Tracer::root(), k);
        let t0 = Instant::now();
        let out = spec.exec(&opts);
        let wall_s = secs_since(t0);
        tr.end(s);
        let stats = out.stats.clone();
        let row = out.into_row();
        let ok = row.valid
            && row.colors <= row.cap
            && row.pubs == stats.publications
            && row.msg_bits == stats.msg_bits;
        if tr.on() {
            // The same trial without observers or verification: the
            // difference is what Standard observation costs.
            let mut bare = opts.observe(ObserveMode::Bare);
            bare.metrics = None;
            let s = tr.begin("registry.exec_bare", Tracer::root(), k);
            let t0 = Instant::now();
            spec.exec(&bare);
            self.bare_ms += secs_since(t0) * 1e3;
            tr.end(s);
            self.exec_ms += wall_s * 1e3;
            self.engine_ms += stats.wall.as_secs_f64() * 1e3;
            self.algos
                .add(spec.name, stats.wall.as_secs_f64() * 1e3, stats.steps);
        }
        Step {
            wall_s,
            ops: vec![OpRec {
                lat_ms: wall_s * 1e3,
                ok,
                fp: row_fingerprint(&row),
            }],
        }
    }

    fn sizes(&self) -> String {
        let m = |g: &Option<GenGraph>| g.as_ref().map_or(0, |g| g.graph.m());
        format!(
            "forest_union a=2: n={} (m={}) for mis_luby, a2logn, forest_parallelized, ka2 k=2; \
             n={} (m={}) for rand_delta_plus_one; sequential, Standard observe",
            self.big_n,
            m(&self.big),
            self.small_n,
            m(&self.small)
        )
    }

    fn layers(&self, tr: &Tracer, _setup_ms: f64) -> Vec<Layer> {
        let mut out = Vec::new();
        per_setup(tr, "gen", "gen.ms", &mut out);
        let csr: u64 = [&self.big, &self.small]
            .iter()
            .filter_map(|g| g.as_ref())
            .map(|g| csr_bytes(&g.graph))
            .sum();
        out.push(("gen.csr_mb".into(), csr as f64 / 1e6, "MB"));
        if self.exec_ms > 0.0 {
            out.push((
                "registry.outside_engine_frac".into(),
                1.0 - self.engine_ms / self.exec_ms,
                "ratio",
            ));
            out.push((
                "registry.observe_frac".into(),
                (self.exec_ms - self.bare_ms) / self.exec_ms,
                "ratio",
            ));
        }
        let mut sums = ObsSums::default();
        sums.add(&self.obs);
        sums.engine_layers(self.engine_ms, &mut out);
        self.algos.layers(&mut out);
        out
    }
}

// ---------------------------------------------------------------------
// churn_ingest

/// One ingested graph's warm-start chain.
struct Chain {
    cur: Graph,
    replay: Replay<<mis::LubyMis as Protocol>::Msg>,
    outputs: Vec<bool>,
    batches: Vec<EditBatch>,
    next: usize,
    engine_seed: u64,
}

/// Scenarios D.1/D.2 at scale: three seeded n = 2^16 forests written as
/// edge list, DIMACS and Matrix Market, ingested, cold-solved once with
/// `mis_luby` while recording, then edited one batch (1 insert + 1
/// delete) at a time. An operation is one update: `churn::apply`, the
/// warm re-solve and verification, round-robin over the three graphs.
/// Every update is compared with a cold re-solve of the same graph,
/// outside the measured time.
struct ChurnIngest {
    seed: u64,
    n: usize,
    batches: usize,
    files: Vec<std::path::PathBuf>,
    file_bytes: u64,
    edges: u64,
    chains: Vec<Chain>,
    /// Generating the three input graphs, milliseconds, and their CSR
    /// bytes.
    gen_ms: f64,
    csr_bytes: u64,
    reactivated: u64,
    vertices: u64,
    update_ms: f64,
    cold_ms: f64,
    /// Warm re-solves of the traced half: engine wall and work.
    algos: AlgoSums,
    warm_msg_bits: u64,
    warm_steps: u64,
}

impl ChurnIngest {
    fn new(args: &Args) -> ChurnIngest {
        let (n, batches) = if args.tiny {
            (1 << 10, 64)
        } else {
            (1 << 16, 2000)
        };
        let dir = std::path::PathBuf::from(format!(
            "{}/churn-seed{}-{}",
            crate::WORK_DIR,
            args.seed,
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).expect("create the churn input directory");
        // The inputs: three forests, one per on-disk format. Writing
        // them is input generation, not set-up.
        type Writer = fn(&Graph) -> String;
        let writers: [(&str, Writer); 3] = [
            ("forest.el", graphcore::io::to_edge_list),
            ("forest.col", graphcore::io::to_dimacs),
            ("forest.mtx", graphcore::io::to_matrix_market),
        ];
        let mut files = Vec::new();
        let (mut file_bytes, mut gen_ms, mut csr) = (0, 0.0, 0);
        for (i, (name, write)) in writers.iter().enumerate() {
            let t0 = Instant::now();
            let gg = WorkloadKey::Forest {
                n,
                a: 2,
                seed: mix(args.seed, 10 + i as u64),
            }
            .generate();
            gen_ms += secs_since(t0) * 1e3;
            csr += csr_bytes(&gg.graph);
            let text = write(&gg.graph);
            file_bytes += text.len() as u64;
            let path = dir.join(name);
            std::fs::write(&path, text).expect("write a churn input file");
            files.push(path);
        }
        ChurnIngest {
            seed: args.seed,
            n,
            batches,
            files,
            file_bytes,
            edges: 0,
            chains: Vec::new(),
            gen_ms,
            csr_bytes: csr,
            reactivated: 0,
            vertices: 0,
            update_ms: 0.0,
            cold_ms: 0.0,
            algos: AlgoSums::default(),
            warm_msg_bits: 0,
            warm_steps: 0,
        }
    }
}

impl Drop for ChurnIngest {
    fn drop(&mut self) {
        if let Some(dir) = self.files.first().and_then(|f| f.parent()) {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

impl Workload for ChurnIngest {
    fn ops_in_step(&self) -> u64 {
        1
    }

    fn fingerprint_ops(&self) -> u64 {
        // At least ten samples beyond p90 on every run.
        if self.n < 1 << 12 {
            12
        } else {
            120
        }
    }

    fn cycle(&self) -> u64 {
        self.files.len() as u64
    }

    fn setup(&mut self, tr: &mut Tracer) -> f64 {
        let mut elapsed = 0.0;
        let mut chains = Vec::new();
        let mut edges = 0;
        let mut cold_ok = true;
        for (i, path) in self.files.iter().enumerate() {
            let t0 = Instant::now();
            let s = tr.begin("io", Tracer::root(), 0);
            let opts = graphcore::io::NormalizeOptions {
                largest_component: false,
            };
            let (g, report) = graphcore::io::ingest_path(path, opts).expect("ingest a churn input");
            tr.end(s);
            edges += report.m as u64;
            let s = tr.begin("churn.plan", Tracer::root(), 0);
            let plan = ChurnPlan {
                seed: mix(self.seed, 20 + i as u64),
                batches: self.batches,
                inserts_per_batch: 1,
                deletes_per_batch: 1,
            };
            let batches = churn::churn_sequence(&g, &plan);
            tr.end(s);
            let engine_seed = mix(self.seed, 30 + i as u64);
            let ids = IdAssignment::identity(g.n());
            let s = tr.begin("warm.record", Tracer::root(), 0);
            let (out, replay) = Runner::new(&mis::LubyMis, &g, &ids)
                .config(RunConfig::seeded(engine_seed))
                .run_recorded()
                .expect("cold recorded solve terminates");
            tr.end(s);
            elapsed += secs_since(t0);
            cold_ok &= g.n() == self.n && verify::maximal_independent_set(&g, &out.outputs).is_ok();
            chains.push(Chain {
                cur: g,
                replay,
                outputs: out.outputs,
                batches,
                next: 0,
                engine_seed,
            });
        }
        assert!(
            cold_ok,
            "a recorded cold solve is not a maximal independent set"
        );
        if self.chains.is_empty() {
            self.chains = chains;
            self.edges = edges;
        }
        elapsed
    }

    fn step(&mut self, k: u64, tr: &mut Tracer) -> Step {
        let chains = self.chains.len() as u64;
        let chain = &mut self.chains[(k % chains) as usize];
        let batch = chain
            .batches
            .get(chain.next)
            .expect("churn plan sized for the run")
            .clone();
        let ids = IdAssignment::identity(chain.cur.n());
        let cfg = RunConfig::seeded(chain.engine_seed);
        let op = tr.begin("update", Tracer::root(), k);
        let t0 = Instant::now();
        let s = tr.begin("churn.apply", op, k);
        let edited = churn::apply(&chain.cur, &batch);
        tr.end(s);
        let touched = batch.endpoints();
        let s = tr.begin("warm.run_warm", op, k);
        let warm = Runner::new(&mis::LubyMis, &edited, &ids)
            .config(cfg)
            .run_warm(WarmStart {
                replay: &chain.replay,
                outputs: &chain.outputs,
                old_graph: &chain.cur,
                touched: &touched,
            })
            .expect("warm re-solve terminates");
        tr.end(s);
        let s = tr.begin("verify", op, k);
        let valid = verify::maximal_independent_set(&edited, &warm.outcome.outputs).is_ok();
        tr.end(s);
        let wall_s = secs_since(t0);
        tr.end(op);
        // The oracle: a cold re-solve of the same edited graph.
        let s = tr.begin("warm.cold", Tracer::root(), k);
        let t1 = Instant::now();
        let cold = Runner::new(&mis::LubyMis, &edited, &ids)
            .config(cfg)
            .run()
            .expect("cold re-solve terminates");
        let cold_s = secs_since(t1);
        tr.end(s);
        let ok = valid && cold.outputs == warm.outcome.outputs;
        if tr.on() {
            self.reactivated += warm.stats.reactivated as u64;
            self.vertices += edited.n() as u64;
            self.update_ms += wall_s * 1e3;
            self.cold_ms += cold_s * 1e3;
            let stats = &warm.outcome.stats;
            self.algos
                .add("mis_luby", stats.wall.as_secs_f64() * 1e3, stats.steps);
            self.warm_msg_bits += stats.msg_bits;
            self.warm_steps += stats.steps;
        }
        let fp = stats_fingerprint(&warm.outcome.stats, warm.outcome.metrics.round_sum());
        chain.cur = edited;
        chain.replay = warm.replay;
        chain.outputs = warm.outcome.outputs;
        chain.next += 1;
        Step {
            wall_s,
            ops: vec![OpRec {
                lat_ms: wall_s * 1e3,
                ok,
                fp,
            }],
        }
    }

    fn sizes(&self) -> String {
        format!(
            "3 forest_union a=2 graphs, n={} each, {} edges ingested in total from {} bytes \
             (edge list, DIMACS, Matrix Market); churn 1 insert + 1 delete per batch, {} batches \
             planned per graph; mis_luby warm re-solves",
            self.n, self.edges, self.file_bytes, self.batches
        )
    }

    fn layers(&self, tr: &Tracer, setup_ms: f64) -> Vec<Layer> {
        let mut out = vec![
            ("gen.ms".into(), self.gen_ms, "ms"),
            ("gen.csr_mb".into(), self.csr_bytes as f64 / 1e6, "MB"),
            ("io.mb".into(), self.file_bytes as f64 / 1e6, "MB"),
            ("io.edges".into(), self.edges as f64, "count"),
        ];
        setup_share(tr, "io", setup_ms, "io.setup_frac", &mut out);
        setup_share(tr, "warm.record", setup_ms, "warm.record_frac", &mut out);
        span_share(tr, "churn.apply", "update", "churn.apply_frac", &mut out);
        span_share(
            tr,
            "warm.run_warm",
            "update",
            "warm.update_engine_frac",
            &mut out,
        );
        if let Some(v) = tr.mean_ms("verify") {
            out.push(("verify.ms".into(), v, "ms/op"));
        }
        if self.vertices > 0 {
            out.push((
                "warm.reactivated_frac".into(),
                self.reactivated as f64 / self.vertices as f64,
                "ratio",
            ));
            out.push((
                "warm.update_vs_cold".into(),
                self.update_ms / self.cold_ms,
                "ratio",
            ));
        }
        if self.warm_steps > 0 {
            out.push((
                "engine.bits_per_vr".into(),
                self.warm_msg_bits as f64 / self.warm_steps as f64,
                "bit/vr",
            ));
        }
        self.algos.layers(&mut out);
        out
    }
}

// ---------------------------------------------------------------------
// actor2

/// Registry trials on `Backend::Actor { shards: 2 }` over channels:
/// `mis_extension` and `matching_extension` at n = 2^14 and `mis_luby`
/// at n = 2^16. One step is one trial, round-robin. Every trial's row
/// and engine work counts must equal the sync engine's; once per run the
/// actor outputs are compared with the sync outputs directly.
struct Actor2 {
    seed: u64,
    small_n: usize,
    big_n: usize,
    small: Option<GenGraph>,
    big: Option<GenGraph>,
    runs: [(&'static str, bool); 3],
    reference: Vec<Option<(Row, EngineStats)>>,
    ops_per_run: [u64; 3],
    obs: ObsSums,
    algos: AlgoSums,
    exec_ms: f64,
    engine_ms: f64,
}

const SHARDS: usize = 2;

impl Actor2 {
    fn new(args: &Args) -> Actor2 {
        let (small_n, big_n) = if args.tiny {
            (1 << 8, 1 << 10)
        } else {
            (1 << 14, 1 << 16)
        };
        Actor2 {
            seed: args.seed,
            small_n,
            big_n,
            small: None,
            big: None,
            runs: [
                ("mis_extension", false),
                ("matching_extension", false),
                ("mis_luby", true),
            ],
            reference: vec![None, None, None],
            ops_per_run: [0; 3],
            obs: ObsSums::default(),
            algos: AlgoSums::default(),
            exec_ms: 0.0,
            engine_ms: 0.0,
        }
    }

    fn graph(&self, on_big: bool) -> &GenGraph {
        let g = if on_big { &self.big } else { &self.small };
        g.as_ref().expect("set up before stepping")
    }

    fn trial(&self, j: usize) -> Trial {
        Trial::identity(mix(self.seed, 40 + j as u64))
    }

    /// Direct engine runs of protocol `j` on both backends: equal outputs.
    fn outputs_match(&self, j: usize) -> bool {
        let (name, on_big) = self.runs[j];
        let gg = self.graph(on_big);
        let ids = self.trial(j).ids(gg.graph.n());
        let cfg = RunConfig::seeded(self.trial(j).seed);
        fn both<P: Protocol>(p: &P, g: &Graph, ids: &IdAssignment, cfg: RunConfig) -> bool
        where
            P::Output: PartialEq,
        {
            let sync = Runner::new(p, g, ids).config(cfg).run().expect("sync run");
            let actor = ActorRunner::new(p, g, ids)
                .shards(SHARDS)
                .config(cfg)
                .run()
                .expect("actor run");
            sync.outputs == actor.outputs && sync.stats.steps == actor.stats.steps
        }
        match name {
            "mis_extension" => both(&mis::MisExtension::new(gg.arboricity), &gg.graph, &ids, cfg),
            "matching_extension" => {
                both(&MatchingExtension::new(gg.arboricity), &gg.graph, &ids, cfg)
            }
            _ => both(&mis::LubyMis, &gg.graph, &ids, cfg),
        }
    }
}

/// Whether two executions of one trial agree on everything but time.
fn same_work(a: &(Row, EngineStats), b: &(Row, EngineStats)) -> bool {
    let ((ra, sa), (rb, sb)) = (a, b);
    let phases = |r: &Row| {
        r.phases
            .iter()
            .map(|p| (p.name.clone(), p.round_sum))
            .collect::<Vec<_>>()
    };
    (
        ra.va.to_bits(),
        ra.wc,
        ra.median,
        ra.p95,
        ra.p99,
        ra.colors,
        ra.valid,
    ) == (
        rb.va.to_bits(),
        rb.wc,
        rb.median,
        rb.p95,
        rb.p99,
        rb.colors,
        rb.valid,
    ) && (ra.pubs, ra.msg_bits, ra.max_msg_bits) == (rb.pubs, rb.msg_bits, rb.max_msg_bits)
        && ra.active_series == rb.active_series
        && phases(ra) == phases(rb)
        && (
            sa.rounds,
            sa.steps,
            sa.publications,
            sa.msg_bits,
            sa.max_msg_bits,
        ) == (
            sb.rounds,
            sb.steps,
            sb.publications,
            sb.msg_bits,
            sb.max_msg_bits,
        )
}

impl Workload for Actor2 {
    fn ops_in_step(&self) -> u64 {
        1
    }

    fn fingerprint_ops(&self) -> u64 {
        2 * self.runs.len() as u64
    }

    fn cycle(&self) -> u64 {
        self.runs.len() as u64
    }

    fn setup(&mut self, tr: &mut Tracer) -> f64 {
        let t0 = Instant::now();
        let s = tr.begin("gen", Tracer::root(), 0);
        let key = |n, salt| WorkloadKey::Forest {
            n,
            a: 2,
            seed: mix(self.seed, salt),
        };
        let small = key(self.small_n, 3).generate();
        let big = key(self.big_n, 4).generate();
        tr.end(s);
        let elapsed = secs_since(t0);
        if self.small.is_none() {
            self.small = Some(small);
            self.big = Some(big);
        }
        elapsed
    }

    fn step(&mut self, k: u64, tr: &mut Tracer) -> Step {
        let j = (k % self.runs.len() as u64) as usize;
        let (name, on_big) = self.runs[j];
        let spec = registry::get(name);
        let trial = self.trial(j);
        let reg = tr.on().then(|| Registry::new(SHARDS));
        let gg = if on_big { &self.big } else { &self.small };
        let gg = gg.as_ref().expect("set up before stepping");
        let mut opts =
            ExecOptions::new("actor2", gg, &trial).backend(Backend::Actor { shards: SHARDS });
        if let Some(reg) = &reg {
            opts = opts.metrics(reg);
        }
        let s = tr.begin("actor.exec", Tracer::root(), k);
        let t0 = Instant::now();
        let out = spec.exec(&opts);
        let wall_s = secs_since(t0);
        tr.end(s);
        let got = (out.row.expect("Standard exec carries a row"), out.stats);
        if self.reference[j].is_none() {
            let sync = spec.exec(&ExecOptions::new("actor2", gg, &trial));
            self.reference[j] = Some((sync.row.expect("Standard exec carries a row"), sync.stats));
        }
        let reference = self.reference[j].as_ref().expect("reference computed");
        let ok = got.0.valid && same_work(&got, reference);
        self.ops_per_run[j] += 1;
        if let Some(reg) = &reg {
            self.obs.add(reg);
            self.exec_ms += wall_s * 1e3;
            self.engine_ms += got.1.wall.as_secs_f64() * 1e3;
            self.algos
                .add(name, got.1.wall.as_secs_f64() * 1e3, got.1.steps);
        }
        Step {
            wall_s,
            ops: vec![OpRec {
                lat_ms: wall_s * 1e3,
                ok,
                fp: row_fingerprint(&got.0),
            }],
        }
    }

    fn finish(&mut self) -> u64 {
        (0..self.runs.len())
            .filter(|&j| self.ops_per_run[j] > 0 && !self.outputs_match(j))
            .map(|j| {
                eprintln!(
                    "actor2: {} outputs differ from the sync engine",
                    self.runs[j].0
                );
                self.ops_per_run[j]
            })
            .sum()
    }

    fn sizes(&self) -> String {
        format!(
            "forest_union a=2: n={} for mis_extension and matching_extension, n={} for mis_luby; \
             Backend::Actor {{ shards: {SHARDS} }} over channels",
            self.small_n, self.big_n
        )
    }

    fn layers(&self, tr: &Tracer, _setup_ms: f64) -> Vec<Layer> {
        let mut out = Vec::new();
        per_setup(tr, "gen", "gen.ms", &mut out);
        let csr: u64 = [&self.small, &self.big]
            .iter()
            .filter_map(|g| g.as_ref())
            .map(|g| csr_bytes(&g.graph))
            .sum();
        out.push(("gen.csr_mb".into(), csr as f64 / 1e6, "MB"));
        if self.exec_ms > 0.0 {
            out.push((
                "registry.outside_engine_frac".into(),
                1.0 - self.engine_ms / self.exec_ms,
                "ratio",
            ));
        }
        let o = &self.obs;
        o.engine_layers(self.engine_ms, &mut out);
        if o.actor_compute_ns + o.actor_wait_ns > 0 {
            out.push((
                "actor.barrier_wait_frac".into(),
                o.actor_wait_ns as f64 / (o.actor_compute_ns + o.actor_wait_ns) as f64,
                "ratio",
            ));
        }
        if o.actor_steps > 0 {
            // The channel transport moves values, so its byte counters
            // stay 0; the bytes are computed as the entries sent to peers
            // times the mean wire size of a published message.
            let wire_bytes = o.actor_msg_bits as f64 / o.actor_steps as f64 / 8.0;
            out.push((
                "actor.transport_bytes_per_vr".into(),
                o.entries_out as f64 * wire_bytes / o.actor_steps as f64,
                "B/vr",
            ));
        }
        self.algos.layers(&mut out);
        out
    }
}
