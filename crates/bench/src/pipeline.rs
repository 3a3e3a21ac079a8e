//! The layered trial pipeline: **plan → cache → schedule → sink**.
//!
//! `spec::execute` used to fuse four jobs into one loop: expanding the
//! declaration tables, generating workload graphs (once per *spec*, even
//! when every run shared them), executing trials strictly sequentially,
//! and aggregating rows. This module pulls those apart into composable
//! layers with explicit data types at each seam:
//!
//! * **Planner** — [`plan_rows`] expands `workloads × runs × trials ×
//!   params` under a [`Cli`] selection into a flat [`JobPlan`] of
//!   [`TrialJob`]s with stable, dense job ids. Planning touches no
//!   graphs: a job carries a [`WorkloadKey`], not a generated workload.
//! * **Workload cache** — [`WorkloadCache`] generates each keyed graph
//!   once and shares it via `Arc` across every trial (and every spec of
//!   an invocation) that asks for it, with hit/miss/byte counters
//!   mirrored into [`simlocal::obs`].
//! * **Scheduler** — [`run_plan`] executes a plan either sequentially
//!   (`workers == 1`, the oracle path) or on a pool of worker threads
//!   pulling jobs from a shared queue, and instruments queue depth,
//!   jobs in flight, and a per-trial wall histogram.
//! * **Sink** — [`RowSink`] receives completed [`Row`]s incrementally:
//!   [`CollectSink`] feeds today's in-memory `SuiteResult` aggregation,
//!   [`JsonlRowSink`] streams rows as JSON lines (the seam a future
//!   HTTP service attaches to).
//!
//! **Determinism.** Job ids are assigned at plan time, before any
//! execution. A job's row depends only on its own `(workload key,
//! trial, params, backend)` — graph generation is seeded, the engine is
//! seeded, and nothing reads cross-job state — so every interleaving
//! produces the same per-job rows. The scheduler buffers out-of-order
//! completions and releases rows to the sink strictly in job-id order
//! (the completed prefix), so the sink observes a byte-identical stream
//! for *every* worker count. `tests/pipeline_determinism.rs` pins this
//! property; ci.sh additionally diffs a `--jobs 4` table2 run against
//! the committed sequential baseline at `--tol 0`.

use crate::registry::{self, AlgoSpec, Backend, Params};
use crate::spec::{RunSpec, WorkloadSpec};
use crate::trials::Trial;
use crate::{forest_workload, hub_workload, Cli, Row};
use graphcore::gen::GenGraph;
use simlocal::obs::{Metric, Registry as ObsRegistry};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The identity of one generatable workload graph — the cache key. Two
/// jobs with equal keys receive the *same* `Arc`'d graph; generation is
/// seeded, so a key fully determines the graph's bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum WorkloadKey {
    /// `forest_workload(n, a, seed)` (also the resolved form of
    /// [`WorkloadSpec::ForestAt`]).
    Forest {
        /// Vertices.
        n: usize,
        /// Arboricity.
        a: usize,
        /// Workload seed.
        seed: u64,
    },
    /// `hub_workload(n, a, hub_degree, seed)` with the hub degree
    /// already resolved by [`crate::spec::hub_degree_for`] (the policy
    /// depends on the problem, so the key must carry the outcome).
    Hub {
        /// Vertices.
        n: usize,
        /// Arboricity (≥ 2).
        a: usize,
        /// Resolved hub degree.
        hub_degree: usize,
        /// Workload seed.
        seed: u64,
    },
    /// An ingested edge-list / DIMACS / Matrix Market file
    /// ([`graphcore::io::ingest_path`]), normalized (self-loops dropped,
    /// parallel edges deduplicated, optionally restricted to the largest
    /// component). The key carries the FNV-1a content hash resolved at
    /// plan time, so a file edited between planning and generation is a
    /// hard error rather than a silently different workload.
    File {
        /// Repo-relative path to the graph file.
        path: &'static str,
        /// [`graphcore::io::content_hash`] of the file bytes at plan time.
        hash: u64,
        /// Vertices after normalization (resolved at plan time).
        n: usize,
        /// Restrict to the largest connected component.
        largest_component: bool,
    },
}

/// The workspace root, where the repo-relative paths of workload files
/// start: two levels above this crate's manifest directory.
fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench sits two levels below the workspace root")
}

/// Where workload file `path` is read from: `path` itself when it exists
/// (relative paths against the working directory), else a relative
/// `path` under the workspace root, so suites run from any directory.
/// A file found in neither place is a named error.
pub(crate) fn resolve_workload_path(path: &str) -> Result<PathBuf, String> {
    let given = Path::new(path);
    if given.exists() {
        return Ok(given.to_path_buf());
    }
    let rooted = workspace_root().join(given);
    if given.is_relative() && rooted.exists() {
        return Ok(rooted);
    }
    Err(format!(
        "workload file {path} not found in the working directory or under the \
         workspace root {}",
        workspace_root().display()
    ))
}

/// Reads the bytes of workload file `path` (see [`resolve_workload_path`]).
pub(crate) fn read_workload_file(path: &str) -> Vec<u8> {
    let resolved = resolve_workload_path(path).unwrap_or_else(|e| panic!("{e}"));
    std::fs::read(&resolved)
        .unwrap_or_else(|e| panic!("read workload file {}: {e}", resolved.display()))
}

/// Ingests `path` and wraps it as a [`GenGraph`] whose arboricity is the
/// normalization report's degeneracy upper bound ([`graphcore::arboricity::
/// ArboricityEstimate::safe_a`]) — the safe `a` to hand algorithms that
/// require one when the true arboricity is unknown.
pub fn file_workload(path: &str, largest_component: bool) -> GenGraph {
    let opts = graphcore::io::NormalizeOptions { largest_component };
    let resolved = resolve_workload_path(path).unwrap_or_else(|e| panic!("{e}"));
    let (graph, report) = graphcore::io::ingest_path(&resolved, opts)
        .unwrap_or_else(|e| panic!("ingest workload file: {e}"));
    GenGraph {
        graph,
        arboricity: report.arboricity.safe_a(),
        family: "ingested",
    }
}

impl WorkloadKey {
    /// Vertex count of the keyed graph (the generators honor `n`
    /// exactly, so run filters like `max_n` and parameter sweeps can be
    /// planned without generating anything).
    pub fn n(&self) -> usize {
        match self {
            WorkloadKey::Forest { n, .. }
            | WorkloadKey::Hub { n, .. }
            | WorkloadKey::File { n, .. } => *n,
        }
    }

    /// Generates the keyed graph. Deterministic: equal keys produce
    /// byte-identical graphs (file keys re-check the content hash, so a
    /// file mutated since plan time panics instead of drifting).
    pub fn generate(&self) -> GenGraph {
        match *self {
            WorkloadKey::Forest { n, a, seed } => forest_workload(n, a, seed),
            WorkloadKey::Hub {
                n,
                a,
                hub_degree,
                seed,
            } => hub_workload(n, a, hub_degree, seed),
            WorkloadKey::File {
                path,
                hash,
                n,
                largest_component,
            } => {
                let bytes = read_workload_file(path);
                assert_eq!(
                    graphcore::io::content_hash(&bytes),
                    hash,
                    "workload file {path} changed since plan time"
                );
                let gg = file_workload(path, largest_component);
                assert_eq!(gg.graph.n(), n, "workload file {path} n drifted");
                gg
            }
        }
    }
}

/// One planned trial execution: everything needed to produce one [`Row`],
/// with a stable id fixing its position in the output stream.
#[derive(Clone, Copy)]
pub struct TrialJob {
    /// Dense, plan-order id — the emission order the sink observes.
    pub id: u64,
    /// Experiment tag recorded in [`Row::exp`].
    pub exp: &'static str,
    /// The resolved algorithm.
    pub algo: &'static AlgoSpec,
    /// Which graph to run on (resolved through the [`WorkloadCache`]).
    pub workload: WorkloadKey,
    /// Engine seed + ID-assignment mode.
    pub trial: Trial,
    /// Algorithm parameters.
    pub params: Params,
    /// Execution backend (byte-identical outcomes across backends).
    pub backend: Backend,
}

/// A flat, declarative plan: the jobs of one `Rows` spec in execution
/// order (`jobs[i].id` ascends, though ids continue across the specs of
/// an invocation so a whole suite shares one id space).
pub struct JobPlan {
    /// The planned jobs, in id order.
    pub jobs: Vec<TrialJob>,
}

/// The planner: expands one `Rows` spec's `workloads × runs` tables under
/// the `cli` selection into a [`JobPlan`], continuing the id sequence in
/// `next_id`. The enumeration order is exactly the order the pre-pipeline
/// sequential loop produced rows in: selected runs outer, then workload
/// keys (filtered by `max_n`), then sweep trials, then parameter sets.
pub fn plan_rows(
    cli: &Cli,
    workloads: &[WorkloadSpec],
    runs: &[RunSpec],
    next_id: &mut u64,
) -> JobPlan {
    let selected: Vec<&RunSpec> = runs.iter().filter(|r| cli.wants(r.exp)).collect();
    if selected.is_empty() {
        return JobPlan { jobs: Vec::new() };
    }
    // All runs of a spec share the workload keys; the hub-degree policy
    // follows the problem of the spec's first run (specs never mix hub
    // workloads across problems).
    let problem = registry::get(runs[0].algo).problem;
    let keys: Vec<WorkloadKey> = workloads
        .iter()
        .flat_map(|w| w.keys(cli.quick, problem))
        .collect();
    let mut jobs = Vec::new();
    for run in selected {
        let algo = registry::get(run.algo);
        let min = if cli.quick {
            run.min_seeds_quick
        } else {
            run.min_seeds_full
        };
        let sweep = cli.sweep_with_min_seeds(min);
        for key in keys.iter().filter(|k| k.n() <= run.max_n) {
            for t in sweep.trials() {
                for params in run.params.expand(key.n()) {
                    jobs.push(TrialJob {
                        id: *next_id,
                        exp: run.exp,
                        algo,
                        workload: *key,
                        trial: *t,
                        params,
                        backend: cli.backend,
                    });
                    *next_id += 1;
                }
            }
        }
    }
    JobPlan { jobs }
}

/// The workload cache: each [`WorkloadKey`] is generated at most once and
/// shared via `Arc`. Thread-safe; a miss generates under the lock so
/// concurrent workers asking for the same key never generate twice.
pub struct WorkloadCache {
    map: Mutex<HashMap<WorkloadKey, Arc<GenGraph>>>,
    share: bool,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Default for WorkloadCache {
    fn default() -> WorkloadCache {
        WorkloadCache::new()
    }
}

impl WorkloadCache {
    /// An empty, sharing cache.
    pub fn new() -> WorkloadCache {
        WorkloadCache {
            map: Mutex::new(HashMap::new()),
            share: true,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// A pass-through cache that regenerates on every lookup — the
    /// oracle for the cache-on ≡ cache-off determinism test.
    pub fn disabled() -> WorkloadCache {
        WorkloadCache {
            share: false,
            ..WorkloadCache::new()
        }
    }

    /// The keyed graph, generated on first request. Hit/miss counts (and
    /// the approximate resident bytes of fresh graphs) are mirrored into
    /// `metrics` when attached.
    pub fn get(&self, key: WorkloadKey, metrics: Option<&ObsRegistry>) -> Arc<GenGraph> {
        if !self.share {
            self.misses.fetch_add(1, Relaxed);
            if let Some(m) = metrics {
                m.add(Metric::HarnessCacheMisses, 0, 1);
            }
            return Arc::new(key.generate());
        }
        let mut map = self.map.lock().expect("workload cache poisoned");
        if let Some(gg) = map.get(&key) {
            self.hits.fetch_add(1, Relaxed);
            if let Some(m) = metrics {
                m.add(Metric::HarnessCacheHits, 0, 1);
            }
            return Arc::clone(gg);
        }
        self.misses.fetch_add(1, Relaxed);
        let gg = Arc::new(key.generate());
        if let Some(m) = metrics {
            m.add(Metric::HarnessCacheMisses, 0, 1);
            m.add(Metric::HarnessCacheBytes, 0, approx_graph_bytes(&gg));
        }
        map.insert(key, Arc::clone(&gg));
        gg
    }

    /// Lookups served from the cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Relaxed)
    }

    /// Lookups that generated a graph.
    pub fn misses(&self) -> u64 {
        self.misses.load(Relaxed)
    }
}

/// Approximate resident bytes of a generated graph's CSR arrays
/// (offsets + adjacency + edge ids + edge list).
fn approx_graph_bytes(gg: &GenGraph) -> u64 {
    let (n, m) = (gg.graph.n() as u64, gg.graph.m() as u64);
    4 * (n + 1) + 24 * m
}

/// A consumer of completed rows, fed strictly in job-id order. The seam
/// between the scheduler and whatever aggregates or ships the results.
pub trait RowSink {
    /// Receives the row job `job` produced. Called in ascending `job.id`
    /// order regardless of execution interleaving.
    fn accept(&mut self, job: &TrialJob, row: Row);
}

/// The in-memory sink behind today's `SuiteResult` path: collects rows
/// in emission (= plan) order.
#[derive(Default)]
pub struct CollectSink {
    /// The collected rows, in job-id order.
    pub rows: Vec<Row>,
}

impl RowSink for CollectSink {
    fn accept(&mut self, _job: &TrialJob, row: Row) {
        self.rows.push(row);
    }
}

/// A streaming sink: one compact JSON object per completed row, written
/// as it becomes emittable. Wall time is deliberately omitted — it is
/// the only machine-dependent row field, so the stream is byte-identical
/// across runs, worker counts, and backends.
pub struct JsonlRowSink<W: std::io::Write> {
    w: W,
}

impl<W: std::io::Write> JsonlRowSink<W> {
    /// Streams rows into `w`.
    pub fn new(w: W) -> JsonlRowSink<W> {
        JsonlRowSink { w }
    }

    /// Recovers the writer (for buffer-backed streams in tests).
    pub fn into_inner(self) -> W {
        self.w
    }
}

impl<W: std::io::Write> RowSink for JsonlRowSink<W> {
    fn accept(&mut self, job: &TrialJob, row: Row) {
        use crate::results::{fnum, quote};
        let cap = if row.cap == usize::MAX {
            "null".to_string()
        } else {
            row.cap.to_string()
        };
        writeln!(
            self.w,
            "{{\"job\": {}, \"exp\": {}, \"algo\": {}, \"family\": {}, \"n\": {}, \"a\": {}, \
             \"va\": {}, \"wc\": {}, \"median\": {}, \"p95\": {}, \"p99\": {}, \"colors\": {}, \
             \"valid\": {}, \"pubs\": {}, \"msg_bits\": {}, \"avg_msg_bits\": {}, \
             \"max_msg_bits\": {}, \"cap\": {}, \"seed\": {}, \"ids\": {}}}",
            job.id,
            quote(&row.exp),
            quote(&row.algo),
            quote(&row.family),
            row.n,
            row.a,
            fnum(row.va),
            row.wc,
            row.median,
            row.p95,
            row.p99,
            row.colors,
            row.valid,
            row.pubs,
            row.msg_bits,
            fnum(row.avg_msg_bits),
            row.max_msg_bits,
            cap,
            row.seed,
            quote(row.ids),
        )
        .expect("write row JSONL");
    }
}

/// Executes one job against its (cached) graph, observing the per-trial
/// wall histogram when metrics are attached.
fn run_job(job: &TrialJob, gg: &GenGraph, metrics: Option<&ObsRegistry>) -> Row {
    let mut opts = registry::ExecOptions::new(job.exp, gg, &job.trial)
        .params(job.params)
        .backend(job.backend);
    if let Some(m) = metrics {
        opts = opts.metrics(m);
    }
    let t0 = Instant::now();
    let row = job.algo.exec(&opts).into_row();
    if let Some(m) = metrics {
        m.observe(
            Metric::HarnessTrialWallNs,
            0,
            t0.elapsed().as_nanos() as u64,
        );
    }
    row
}

/// Out-of-order completions parked until their id-ordered turn.
struct Emit<'s> {
    sink: &'s mut (dyn RowSink + Send),
    slots: Vec<Option<Row>>,
    next: usize,
}

impl Emit<'_> {
    /// Parks job `i`'s row and releases the completed prefix to the sink.
    fn complete(&mut self, jobs: &[TrialJob], i: usize, row: Row) {
        self.slots[i] = Some(row);
        while let Some(slot) = self.slots.get_mut(self.next) {
            match slot.take() {
                Some(row) => {
                    self.sink.accept(&jobs[self.next], row);
                    self.next += 1;
                }
                None => break,
            }
        }
    }
}

/// The scheduler: executes `plan` and feeds every completed row to
/// `sink` in job-id order.
///
/// `workers == 1` is the sequential oracle — a plain in-order loop, the
/// exact behavior of the pre-pipeline engine. `workers > 1` spawns that
/// many scoped threads pulling job indices from a shared atomic queue;
/// completions are buffered so the sink still observes the id-ordered
/// stream (see the module docs for the determinism argument). Workload
/// graphs come from `cache`; queue depth, jobs in flight, cache traffic,
/// and per-trial wall times are recorded into `metrics` when attached.
pub fn run_plan(
    plan: &JobPlan,
    workers: usize,
    cache: &WorkloadCache,
    metrics: Option<&ObsRegistry>,
    sink: &mut (dyn RowSink + Send),
) {
    let jobs = &plan.jobs;
    if workers <= 1 {
        for (i, job) in jobs.iter().enumerate() {
            if let Some(m) = metrics {
                m.set(Metric::HarnessQueueDepth, 0, (jobs.len() - i - 1) as u64);
                m.set(Metric::HarnessJobsInFlight, 0, 1);
            }
            let gg = cache.get(job.workload, metrics);
            let row = run_job(job, &gg, metrics);
            sink.accept(job, row);
        }
        if let Some(m) = metrics {
            m.set(Metric::HarnessJobsInFlight, 0, 0);
        }
        return;
    }
    let next_job = AtomicUsize::new(0);
    let in_flight = AtomicUsize::new(0);
    let emit = Mutex::new(Emit {
        sink,
        slots: vec![None; jobs.len()],
        next: 0,
    });
    std::thread::scope(|scope| {
        for _ in 0..workers.min(jobs.len().max(1)) {
            scope.spawn(|| loop {
                let i = next_job.fetch_add(1, Relaxed);
                if i >= jobs.len() {
                    break;
                }
                if let Some(m) = metrics {
                    m.set(Metric::HarnessQueueDepth, 0, (jobs.len() - i - 1) as u64);
                    m.set(
                        Metric::HarnessJobsInFlight,
                        0,
                        (in_flight.fetch_add(1, Relaxed) + 1) as u64,
                    );
                }
                let job = &jobs[i];
                let gg = cache.get(job.workload, metrics);
                let row = run_job(job, &gg, metrics);
                if let Some(m) = metrics {
                    m.set(
                        Metric::HarnessJobsInFlight,
                        0,
                        (in_flight.fetch_sub(1, Relaxed) - 1) as u64,
                    );
                }
                emit.lock()
                    .expect("emit state poisoned")
                    .complete(jobs, i, row);
            });
        }
    });
    let done = emit.into_inner().expect("emit state poisoned");
    assert_eq!(
        done.next,
        jobs.len(),
        "scheduler must emit every planned job"
    );
    if let Some(m) = metrics {
        m.set(Metric::HarnessQueueDepth, 0, 0);
        m.set(Metric::HarnessJobsInFlight, 0, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Cli {
        Cli::parse_from(args.iter().map(|s| s.to_string())).unwrap()
    }

    #[test]
    fn workload_paths_resolve_under_the_workspace_root() {
        let found = resolve_workload_path("testdata/road_excerpt.txt").unwrap();
        assert!(found.ends_with("testdata/road_excerpt.txt"));
        assert!(found.exists());
        let err = resolve_workload_path("testdata/no_such_graph.txt").unwrap_err();
        assert!(
            err.contains("workload file testdata/no_such_graph.txt not found"),
            "{err}"
        );
    }

    fn small_tables() -> (Vec<WorkloadSpec>, Vec<RunSpec>) {
        let workloads = vec![WorkloadSpec::ForestAt {
            n_quick: 128,
            n_full: 128,
            a: 2,
            seed: 5,
        }];
        let runs = vec![
            RunSpec::new("P.1", "a2logn").k(2),
            RunSpec::new("P.2", "mis_extension"),
        ];
        (workloads, runs)
    }

    #[test]
    fn plan_ids_are_dense_and_ordered() {
        let (w, r) = small_tables();
        let c = cli(&["--quick", "--seeds", "2"]);
        let mut next_id = 7;
        let plan = plan_rows(&c, &w, &r, &mut next_id);
        // 2 runs × 1 workload × 2 trials × 1 param set.
        assert_eq!(plan.jobs.len(), 4);
        let ids: Vec<u64> = plan.jobs.iter().map(|j| j.id).collect();
        assert_eq!(ids, vec![7, 8, 9, 10]);
        assert_eq!(next_id, 11, "the id sequence continues across specs");
        assert_eq!(plan.jobs[0].exp, "P.1");
        assert_eq!(plan.jobs[2].exp, "P.2");
    }

    #[test]
    fn plan_honors_filters_and_max_n() {
        let (w, mut r) = small_tables();
        r[1] = r[1].clone().max_n(64); // 128-vertex workload filtered out
        let mut id = 0;
        let plan = plan_rows(&cli(&["--quick"]), &w, &r, &mut id);
        assert!(plan.jobs.iter().all(|j| j.exp == "P.1"));
        let mut id = 0;
        let plan = plan_rows(&cli(&["--quick", "P.2"]), &w, &small_tables().1, &mut id);
        assert!(plan.jobs.iter().all(|j| j.exp == "P.2"));
        let mut id = 0;
        let none = plan_rows(&cli(&["--quick", "Z.9"]), &w, &small_tables().1, &mut id);
        assert!(none.jobs.is_empty());
    }

    #[test]
    fn cache_shares_and_counts() {
        let cache = WorkloadCache::new();
        let key = WorkloadKey::Forest {
            n: 64,
            a: 2,
            seed: 1,
        };
        let a = cache.get(key, None);
        let b = cache.get(key, None);
        assert!(Arc::ptr_eq(&a, &b), "equal keys share one graph");
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        let off = WorkloadCache::disabled();
        let a = off.get(key, None);
        let b = off.get(key, None);
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!((off.hits(), off.misses()), (0, 2));
        // Disabled or not, the graphs are byte-identical.
        assert_eq!(a.graph.n(), b.graph.n());
        assert_eq!(a.graph.m(), b.graph.m());
    }

    #[test]
    fn parallel_matches_sequential_rows() {
        let (w, r) = small_tables();
        let c = cli(&["--quick", "--seeds", "2", "--ids", "identity,random"]);
        let run = |workers: usize, cache: &WorkloadCache| {
            let mut id = 0;
            let plan = plan_rows(&c, &w, &r, &mut id);
            let mut sink = CollectSink::default();
            run_plan(&plan, workers, cache, None, &mut sink);
            let mut jsonl = JsonlRowSink::new(Vec::new());
            let mut id = 0;
            let plan = plan_rows(&c, &w, &r, &mut id);
            run_plan(&plan, workers, cache, None, &mut jsonl);
            (sink.rows, jsonl.into_inner())
        };
        let cache = WorkloadCache::new();
        let (seq, seq_jsonl) = run(1, &cache);
        let (par, par_jsonl) = run(3, &cache);
        assert_eq!(seq.len(), par.len());
        for (a, b) in seq.iter().zip(&par) {
            // Everything except the machine-dependent wall must agree.
            assert_eq!(
                (&a.exp, &a.algo, a.n, a.seed, a.ids, a.va.to_bits(), a.pubs),
                (&b.exp, &b.algo, b.n, b.seed, b.ids, b.va.to_bits(), b.pubs)
            );
        }
        assert_eq!(seq_jsonl, par_jsonl, "JSONL streams must be byte-identical");
        assert!(cache.hits() > 0, "a multi-trial plan must hit the cache");
    }
}
