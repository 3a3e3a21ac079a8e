//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <table2_quick|registry_n16|churn_ingest|actor2> \
//!     --seed <n> --seconds <s> --trace <0|1> [--tiny]
//! ```
//!
//! Run from the repository root. Each invocation runs one workload in its
//! own process: it builds the workload's inputs from `--seed`, sets up,
//! then issues operations in a closed loop until `--seconds` of operation
//! time have been measured, checking every output and repeating the
//! set-up at even intervals (reporting the median). The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the
//! run alternates untraced and traced cycles, recording spans around every
//! call into a layer, and reports the per-layer split instead. `--tiny`
//! shrinks every size for the benchmark's own tests. `perfbench/README.md`
//! maps each layer metric to the end-to-end metric and workload it should
//! move.

mod calib;
mod trace;
mod workloads;

use calib::Calibration;
use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use trace::Tracer;

/// Names of the workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["table2_quick", "registry_n16", "churn_ingest", "actor2"];

/// Where result records and span dumps go (ignored by git).
const WORK_DIR: &str = "perfbench/work";

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub tiny: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut tiny = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value("--workload")?),
            "--seed" => {
                let v = value("--seed")?;
                seed =
                    Some(v.parse::<u64>().map_err(|_| {
                        format!("--seed requires a non-negative integer, got `{v}`")
                    })?);
            }
            "--seconds" => {
                let v = value("--seconds")?;
                seconds = Some(
                    v.parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0)
                        .ok_or_else(|| {
                            format!("--seconds requires a positive number, got `{v}`")
                        })?,
                );
            }
            "--trace" => {
                trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace requires 0 or 1, got `{other}`")),
                }
            }
            "--tiny" => tiny = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (expected one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        tiny,
    })
}

/// SplitMix64 finalizer: derives independent sub-seeds from the
/// benchmark seed, so the program only ever sees derived inputs.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The work an operation did, summed over a run's fixed prefix of
/// operations. Equal seeds must give equal fingerprints.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Fingerprint {
    pub ops: u64,
    pub round_sum: u64,
    pub publications: u64,
    pub msg_bits: u64,
}

impl Fingerprint {
    pub fn add(&mut self, o: &Fingerprint) {
        self.ops += o.ops;
        self.round_sum += o.round_sum;
        self.publications += o.publications;
        self.msg_bits += o.msg_bits;
    }
}

/// One completed operation.
#[derive(Clone, Debug)]
pub struct OpRec {
    /// Latency of the operation, milliseconds.
    pub lat_ms: f64,
    /// Whether every check on its output passed.
    pub ok: bool,
    /// The work it did.
    pub fp: Fingerprint,
}

/// One call of [`Workload::step`]: its measured wall time and the
/// operations it completed (a plan pass completes many).
pub struct Step {
    pub wall_s: f64,
    pub ops: Vec<OpRec>,
}

/// A per-layer metric: name, value, unit.
pub type Layer = (String, f64, &'static str);

/// Every per-layer metric, `(name, unit)`, in the order `BENCHMARK.json`
/// declares them. A traced run of any workload reports all of them.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("gen.ms", "ms"),
    ("gen.csr_mb", "MB"),
    ("io.setup_frac", "ratio"),
    ("io.mb", "MB"),
    ("io.edges", "count"),
    ("churn.apply_frac", "ratio"),
    ("pipeline.plan_frac", "ratio"),
    ("pipeline.cache_hits", "count/pass"),
    ("pipeline.cache_misses", "count"),
    ("pipeline.busy_frac", "ratio"),
    ("registry.outside_engine_frac", "ratio"),
    ("registry.observe_frac", "ratio"),
    ("verify.ms", "ms/op"),
    ("engine.ns_per_vr", "ns/vr"),
    ("engine.bits_per_vr", "bit/vr"),
    ("engine.fast_round_frac", "ratio"),
    ("engine.step_frac", "ratio"),
    ("engine.publish_frac", "ratio"),
    ("engine.retire_frac", "ratio"),
    ("warm.record_frac", "ratio"),
    ("warm.update_engine_frac", "ratio"),
    ("warm.reactivated_frac", "ratio"),
    ("warm.update_vs_cold", "ratio"),
    ("actor.barrier_wait_frac", "ratio"),
    ("actor.transport_bytes_per_vr", "B/vr"),
    ("algos.a2logn.engine_frac", "ratio"),
    ("algos.a2logn.vr", "vr/op"),
    ("algos.edge_col_extension.engine_frac", "ratio"),
    ("algos.edge_col_extension.vr", "vr/op"),
    ("algos.forest_parallelized.engine_frac", "ratio"),
    ("algos.forest_parallelized.vr", "vr/op"),
    ("algos.ka2.engine_frac", "ratio"),
    ("algos.ka2.vr", "vr/op"),
    ("algos.matching_extension.engine_frac", "ratio"),
    ("algos.matching_extension.vr", "vr/op"),
    ("algos.mis_extension.engine_frac", "ratio"),
    ("algos.mis_extension.vr", "vr/op"),
    ("algos.mis_luby.engine_frac", "ratio"),
    ("algos.mis_luby.vr", "vr/op"),
    ("algos.rand_delta_plus_one.engine_frac", "ratio"),
    ("algos.rand_delta_plus_one.vr", "vr/op"),
    ("trace.overhead_frac", "ratio"),
];

/// Per-layer times: every workload crosses these layers and must
/// measure them.
const TIME_UNITS: [&str; 3] = ["ms", "ms/op", "ns/vr"];

/// Puts a traced run's measured metrics in [`PER_LAYER`] order. A count
/// or share the workload does not measure reads 0: its layer (or that
/// part of it) is not on the workload's path. A time it does not measure
/// reads NaN, which makes the run incorrect, and so does a metric that
/// is not declared.
fn complete_layers(measured: Vec<Layer>) -> Vec<Layer> {
    let mut out: Vec<Layer> = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let absent = if TIME_UNITS.contains(&unit) {
                f64::NAN
            } else {
                0.0
            };
            (name.to_string(), absent, unit)
        })
        .collect();
    for (name, v, unit) in measured {
        match out.iter_mut().find(|m| m.0 == name && m.2 == unit) {
            Some(m) => m.1 = v,
            None => {
                eprintln!("perfbench: undeclared per-layer metric {name} ({unit})");
                out[0].1 = f64::NAN;
            }
        }
    }
    out
}

/// One benchmark workload. `step(k)` runs the `k`-th step of a
/// deterministic sequence; set-up and the extra checks are separate so
/// that neither is counted as operation time.
pub trait Workload {
    /// Operations one step completes (for counting a panicking step).
    fn ops_in_step(&self) -> u64;
    /// Operations whose work makes up the fingerprint.
    fn fingerprint_ops(&self) -> u64;
    /// Steps in one round over the workload's operation kinds.
    fn cycle(&self) -> u64;
    /// Runs the set-up once and returns its duration in seconds
    /// (program work only; checks run outside the returned time). The
    /// first call's state is kept: later calls redo and time the same
    /// work, then drop what they built, so they never change the
    /// operations that follow.
    fn setup(&mut self, tr: &mut Tracer) -> f64;
    /// Runs step `k`.
    fn step(&mut self, k: u64, tr: &mut Tracer) -> Step;
    /// Checks that need the whole run; returns the operations that fail
    /// them.
    fn finish(&mut self) -> u64 {
        0
    }
    /// Workload sizes, for the result record.
    fn sizes(&self) -> String;
    /// The per-layer metrics gathered while `tr` was on; `setup_ms` is
    /// the mean set-up time.
    fn layers(&self, tr: &Tracer, setup_ms: f64) -> Vec<Layer>;
}

/// What a measured phase produced.
#[derive(Default)]
struct Phase {
    attempted: u64,
    failed: u64,
    op_s: f64,
    /// Operation latencies at reference host speed, and as measured.
    lat_ms: Vec<f64>,
    raw_lat_ms: Vec<f64>,
    /// Verified operations per second of each cycle, at reference host
    /// speed and as measured.
    cycle_rates: Vec<f64>,
    raw_rates: Vec<f64>,
    /// Host-speed kernel times, milliseconds.
    calib_ms: Vec<f64>,
    fingerprint: Fingerprint,
}

/// Runs step `k` on `tr` and books its operations into `ph`; the first
/// `fp_ops` operations of the phase make up its fingerprint. Returns
/// false when the step panicked: its operations count as failed, and the
/// workload's state can no longer be trusted.
fn book_step(w: &mut dyn Workload, tr: &mut Tracer, k: u64, ph: &mut Phase, fp_ops: u64) -> bool {
    let expect = w.ops_in_step();
    match catch_unwind(AssertUnwindSafe(|| w.step(k, tr))) {
        Ok(step) => {
            ph.op_s += step.wall_s;
            let missing = expect.saturating_sub(step.ops.len() as u64);
            for op in step.ops {
                if ph.attempted < fp_ops {
                    ph.fingerprint.add(&op.fp);
                }
                ph.attempted += 1;
                if op.ok {
                    ph.raw_lat_ms.push(op.lat_ms);
                } else {
                    ph.failed += 1;
                }
            }
            ph.attempted += missing;
            ph.failed += missing;
            true
        }
        Err(_) => {
            ph.attempted += expect;
            ph.failed += expect;
            false
        }
    }
}

/// Runs the cycle of steps starting at `k`, booking it into `ph` with
/// its verified-operation rate, and returns the next step, or `None`
/// once a step panicked. The cycle is bracketed by the host-speed
/// kernel, whose scale applies to its times.
fn book_cycle(
    w: &mut dyn Workload,
    tr: &mut Tracer,
    calib: &Calibration,
    k: u64,
    ph: &mut Phase,
    fp_ops: u64,
) -> Option<u64> {
    let (ok0, s0, lat0) = (ph.attempted - ph.failed, ph.op_s, ph.raw_lat_ms.len());
    let end = k + w.cycle();
    let (sound, scale, calib_ms) = calib::around(calib, || {
        (k..end).all(|step| book_step(w, tr, step, ph, fp_ops))
    });
    ph.calib_ms.push(calib_ms);
    let (ok, s) = (ph.attempted - ph.failed - ok0, ph.op_s - s0);
    let rate = if s > 0.0 { ok as f64 / s } else { 0.0 };
    ph.raw_rates.push(rate);
    ph.cycle_rates.push(rate / scale);
    let scaled: Vec<f64> = ph.raw_lat_ms[lat0..].iter().map(|l| l * scale).collect();
    ph.lat_ms.extend(scaled);
    sound.then_some(end)
}

/// Issues whole cycles until at least `seconds` of operation time and at
/// least `min_ops` operations (the fingerprint prefix) have been measured,
/// or a step or set-up panicked, making the set-ups that fall due in
/// between.
fn measure(
    w: &mut dyn Workload,
    tr: &mut Tracer,
    calib: &Calibration,
    setups: &mut Setups,
    seconds: f64,
    min_ops: u64,
) -> Phase {
    let mut ph = Phase::default();
    let mut k = Some(0);
    while let Some(step) = k.filter(|_| ph.op_s < seconds || ph.attempted < min_ops) {
        if !setups.run_due(w, tr, calib, ph.op_s / seconds) {
            break;
        }
        k = book_cycle(w, tr, calib, step, &mut ph, min_ops);
    }
    setups.complete(w, tr, calib);
    ph
}

/// The traced run: whole cycles alternate between untraced and traced,
/// so both halves see the same operation mix at the same point of the
/// run, until each half has measured `seconds / 2` or a step or set-up
/// panicked. Set-ups are traced. Returns `(untraced, traced)`.
fn measure_alternating(
    w: &mut dyn Workload,
    off: &mut Tracer,
    tr: &mut Tracer,
    calib: &Calibration,
    setups: &mut Setups,
    seconds: f64,
    min_ops: u64,
) -> (Phase, Phase) {
    let (mut plain, mut traced) = (Phase::default(), Phase::default());
    let mut k = Some(0);
    let more = |p: &Phase, t: &Phase| {
        p.op_s < seconds / 2.0 || t.op_s < seconds / 2.0 || p.attempted < min_ops
    };
    while let Some(step) = k.filter(|_| more(&plain, &traced)) {
        if !setups.run_due(w, tr, calib, (plain.op_s + traced.op_s) / seconds) {
            break;
        }
        k = book_cycle(w, off, calib, step, &mut plain, min_ops)
            .and_then(|next| book_cycle(w, tr, calib, next, &mut traced, 0));
    }
    setups.complete(w, tr, calib);
    (plain, traced)
}

/// Linear-interpolation quantile of sorted `xs` (`q` in `[0, 1]`).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// Peak resident set of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Set-up repetitions per run; the median is reported.
const SETUP_REPS: usize = 9;

/// A run's set-up samples. The first set-up comes before the measured
/// phase and the others are spread evenly through it, between cycles:
/// the host's speed drifts over seconds, and set-ups made back to back
/// would all sample one moment of it.
#[derive(Default)]
struct Setups {
    /// At reference host speed, and as measured, seconds.
    scaled: Vec<f64>,
    raw: Vec<f64>,
    failed: bool,
}

impl Setups {
    /// Runs one set-up between host-speed kernel walks.
    fn run(&mut self, w: &mut dyn Workload, tr: &mut Tracer, calib: &Calibration) {
        let (setup, scale, _) =
            calib::around(calib, || catch_unwind(AssertUnwindSafe(|| w.setup(tr))));
        match setup {
            Ok(s) => {
                self.scaled.push(s * scale);
                self.raw.push(s);
            }
            Err(_) => self.failed = true,
        }
    }

    /// Runs the next set-up if it is due once `done` (a fraction) of
    /// the measured phase is over. Returns false once a set-up panicked.
    fn run_due(
        &mut self,
        w: &mut dyn Workload,
        tr: &mut Tracer,
        calib: &Calibration,
        done: f64,
    ) -> bool {
        let made = self.raw.len();
        if !self.failed && made < SETUP_REPS && done >= made as f64 / SETUP_REPS as f64 {
            self.run(w, tr, calib);
        }
        !self.failed
    }

    /// Runs the set-ups a short phase left out.
    fn complete(&mut self, w: &mut dyn Workload, tr: &mut Tracer, calib: &Calibration) {
        while !self.failed && self.raw.len() < SETUP_REPS {
            self.run(w, tr, calib);
        }
    }
}

/// Everything one run reports.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)`, in emission order; end-to-end times are
    /// at reference host speed ([`calib`]).
    pub metrics: Vec<Layer>,
    /// The end-to-end metrics as measured, before host-speed scaling.
    pub raw: Vec<Layer>,
    pub fingerprint: Fingerprint,
    pub samples: usize,
    /// Median host-speed kernel time over the measured cycles, ms (NaN
    /// when the first set-up failed).
    pub calib_ms: f64,
    pub sizes: String,
    pub setup_samples: Vec<f64>,
    pub spans: Option<Tracer>,
}

/// Runs one workload as `args` asks and gathers its report.
pub fn run(args: &Args) -> Report {
    let mut w = workloads::build(args);
    let mut off = Tracer::new(false);
    let mut tr = Tracer::new(args.trace);
    let calib = &Calibration::new();
    let mut setups = Setups::default();
    setups.run(w.as_mut(), &mut tr, calib);
    let setup_failed = setups.failed;
    let fp_ops = w.fingerprint_ops();
    let mut metrics: Vec<Layer> = Vec::new();
    let mut raw: Vec<Layer> = Vec::new();
    let (phase, fingerprint, samples, calib_ms);
    if setup_failed {
        phase = Phase {
            attempted: 1,
            failed: 1,
            ..Phase::default()
        };
        fingerprint = Fingerprint::default();
        samples = 0;
        calib_ms = f64::NAN;
    } else if !args.trace {
        let ph = measure(
            w.as_mut(),
            &mut tr,
            calib,
            &mut setups,
            args.seconds,
            fp_ops,
        );
        let rss = peak_rss_mb().unwrap_or(f64::NAN);
        let end_to_end = |rates: &[f64], lat: &[f64], setup: &[f64]| -> Vec<Layer> {
            let mut lat = lat.to_vec();
            lat.sort_by(f64::total_cmp);
            vec![
                ("ops_per_s".into(), median(rates), "1/s"),
                ("update_ms_p50".into(), quantile(&lat, 0.5), "ms"),
                ("update_ms_p90".into(), quantile(&lat, 0.9), "ms"),
                ("setup_s".into(), median(setup), "s"),
                ("peak_rss_mb".into(), rss, "MiB"),
            ]
        };
        metrics = end_to_end(&ph.cycle_rates, &ph.lat_ms, &setups.scaled);
        raw = end_to_end(&ph.raw_rates, &ph.raw_lat_ms, &setups.raw);
        fingerprint = ph.fingerprint;
        samples = ph.lat_ms.len();
        calib_ms = median(&ph.calib_ms);
        phase = ph;
    } else {
        // The ratio of the untraced and traced halves' cycle rates is
        // the tracing overhead.
        let (plain, traced) = measure_alternating(
            w.as_mut(),
            &mut off,
            &mut tr,
            calib,
            &mut setups,
            args.seconds,
            fp_ops,
        );
        let setup_ms = setups.raw.iter().sum::<f64>() * 1e3 / setups.raw.len() as f64;
        let mut layers = w.layers(&tr, setup_ms);
        layers.push((
            "trace.overhead_frac".into(),
            median(&plain.cycle_rates) / median(&traced.cycle_rates) - 1.0,
            "ratio",
        ));
        metrics = complete_layers(layers);
        fingerprint = plain.fingerprint;
        samples = plain.lat_ms.len();
        calib_ms = median(&plain.calib_ms);
        phase = Phase {
            attempted: plain.attempted + traced.attempted,
            failed: plain.failed + traced.failed,
            ..Phase::default()
        };
    }
    let late_failures = if setup_failed {
        0
    } else {
        // A set-up that panicked during the phase counts as one failed
        // operation.
        u64::from(setups.failed)
            + catch_unwind(AssertUnwindSafe(|| w.finish())).unwrap_or(phase.attempted)
    };
    let failed = (phase.failed + late_failures).min(phase.attempted);
    let all_finite = metrics.iter().all(|(_, v, _)| v.is_finite());
    Report {
        correct: failed == 0 && phase.attempted > 0 && all_finite,
        attempted: phase.attempted.max(1),
        failed,
        metrics,
        raw,
        fingerprint,
        samples,
        calib_ms,
        sizes: w.sizes(),
        setup_samples: setups.scaled,
        spans: args.trace.then_some(tr),
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

fn metrics_json(metrics: &[Layer]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*v),
                json_str(unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The result line: the last line of standard output.
pub fn result_line(r: &Report) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        r.correct,
        r.attempted,
        r.failed,
        metrics_json(&r.metrics)
    )
}

/// Output of `cmd args…`, first line, or `unknown`.
fn command_line(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8(o.stdout)
                .ok()
                .and_then(|s| s.lines().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Git rev, CPU model, core count and compiler: where a result came from.
fn provenance() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    format!(
        "\"git_rev\": {}, \"host\": {{\"cpu\": {}, \"nproc\": {}, \"rustc\": {}}}",
        json_str(&command_line("git", &["rev-parse", "HEAD"])),
        json_str(&cpu),
        nproc,
        json_str(&command_line("rustc", &["-V"])),
    )
}

/// Per span name of a traced run: count, total and self time.
fn spans_json(tr: &Tracer) -> String {
    let body: Vec<String> = tr
        .summary()
        .iter()
        .map(|(name, (count, total_ns, self_ns))| {
            format!(
                "{}: {{\"count\": {count}, \"total_ms\": {}, \"self_ms\": {}}}",
                json_str(name),
                json_num(*total_ns as f64 / 1e6),
                json_num(*self_ns as f64 / 1e6)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The full result record: provenance, inputs, fingerprint, samples, and
/// for a traced run the per-span totals.
fn record_line(args: &Args, r: &Report) -> String {
    let fp = &r.fingerprint;
    let spans = r.spans.as_ref().map_or("null".to_string(), spans_json);
    let setups: Vec<String> = r.setup_samples.iter().map(|s| json_num(*s)).collect();
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"tiny\": {}, {}, \
         \"sizes\": {}, \"fingerprint\": {{\"ops\": {}, \"round_sum\": {}, \"publications\": {}, \
         \"msg_bits\": {}}}, \"latency_samples\": {}, \"calib_ms\": {}, \
         \"setup_samples_s\": [{}], \
         \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}, \"raw\": {}, \
         \"spans\": {}}}",
        json_str(&args.workload),
        args.seed,
        json_num(args.seconds),
        args.trace,
        args.tiny,
        provenance(),
        json_str(&r.sizes),
        fp.ops,
        fp.round_sum,
        fp.publications,
        fp.msg_bits,
        r.samples,
        json_num(r.calib_ms),
        setups.join(", "),
        r.correct,
        r.attempted,
        r.failed,
        metrics_json(&r.metrics),
        metrics_json(&r.raw),
        spans,
    )
}

/// Appends the record to the results log and dumps the spans of a traced
/// run. A failure to write is reported but does not change the result.
fn persist(args: &Args, record: &str, spans: Option<&Tracer>) {
    let write = || -> std::io::Result<()> {
        std::fs::create_dir_all(WORK_DIR)?;
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(format!("{WORK_DIR}/results.jsonl"))?;
        writeln!(f, "{record}")?;
        if let Some(tr) = spans {
            let path = format!("{WORK_DIR}/spans-{}-seed{}.jsonl", args.workload, args.seed);
            let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
            tr.write_jsonl(&mut out)?;
            out.flush()?;
        }
        Ok(())
    };
    if let Err(e) = write() {
        eprintln!("perfbench: could not write under {WORK_DIR}: {e}");
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed N --seconds S --trace 0|1 [--tiny]",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let t0 = Instant::now();
    let report = run(&args);
    let record = record_line(&args, &report);
    persist(&args, &record, report.spans.as_ref());
    for (name, v, unit) in &report.metrics {
        println!("{name:<40} {v:>16.6} {unit}");
    }
    println!(
        "# {} seed {}: {} attempted, {} failed, {:.1} s wall",
        args.workload,
        args.seed,
        report.attempted,
        report.failed,
        t0.elapsed().as_secs_f64()
    );
    println!("{record}");
    println!("{}", result_line(&report));
    if !report.correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_parse_and_reject() {
        let ok = |s: &str| parse_args(&s.split(' ').map(String::from).collect::<Vec<_>>());
        let a = ok("--workload actor2 --seed 3 --seconds 1.5 --trace 1").unwrap();
        assert_eq!((a.seed, a.seconds, a.trace, a.tiny), (3, 1.5, true, false));
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload actor2 --seed -1 --seconds 1 --trace 0",
            "--workload actor2 --seed 1 --seconds 0 --trace 0",
            "--workload actor2 --seed 1 --seconds 1 --trace 2",
            "--workload actor2 --seconds 1",
            "--workload actor2 --seed 1 --seconds 1 --bogus",
        ] {
            assert!(ok(bad).is_err(), "{bad} must be rejected");
        }
    }

    #[test]
    fn quantiles_interpolate() {
        let xs: Vec<f64> = (0..=10).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.5), 5.0);
        assert_eq!(quantile(&xs, 0.9), 9.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.5), 1.5);
    }

    /// `(name, unit)` of every metric `BENCHMARK.json` declares under `key`.
    fn declared(key: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        let section = text
            .split(&format!("\"{key}\""))
            .nth(1)
            .expect("section present");
        let section = &section[..section.find(']').expect("section closes")];
        let field = |entry: &str, f: &str| {
            let rest = entry
                .split(&format!("\"{f}\""))
                .nth(1)
                .expect("field present");
            rest.split('"').nth(1).expect("quoted value").to_string()
        };
        section
            .split('{')
            .skip(1)
            .map(|entry| (field(entry, "name"), field(entry, "unit")))
            .collect()
    }

    /// Every workload at tiny size, untraced and traced: no failures,
    /// every declared metric emitted in its unit, every per-layer time
    /// measured, and the fingerprint repeats for one seed.
    #[test]
    fn tiny_runs_emit_every_metric_without_failures() {
        std::env::set_current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/..")).unwrap();
        let end_to_end = declared("end_to_end");
        let per_layer = declared("per_layer");
        assert!(end_to_end.contains(&("setup_s".to_string(), "s".to_string())));
        let in_code: Vec<(String, String)> = PER_LAYER
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(in_code, per_layer, "PER_LAYER matches BENCHMARK.json");
        let mut moved = std::collections::BTreeSet::new();
        for workload in WORKLOADS {
            let args = |trace| Args {
                workload: workload.to_string(),
                seed: 7,
                seconds: 0.05,
                trace,
                tiny: true,
            };
            let plain = run(&args(false));
            assert!(plain.correct, "{workload}: {}", result_line(&plain));
            assert_eq!(plain.failed, 0);
            let emitted: Vec<(String, String)> = plain
                .metrics
                .iter()
                .map(|(name, _, unit)| (name.clone(), unit.to_string()))
                .collect();
            assert_eq!(emitted, end_to_end, "{workload} end-to-end metrics");
            let again = run(&args(false));
            assert_eq!(
                plain.fingerprint, again.fingerprint,
                "{workload} fingerprint"
            );
            assert!(plain.fingerprint.ops > 0 && plain.fingerprint.round_sum > 0);

            let traced = run(&args(true));
            assert!(traced.correct, "{workload}: {}", result_line(&traced));
            let emitted: Vec<(String, String)> = traced
                .metrics
                .iter()
                .map(|(name, _, unit)| (name.clone(), unit.to_string()))
                .collect();
            assert_eq!(emitted, per_layer, "{workload} per-layer metrics");
            for (name, v, unit) in &traced.metrics {
                assert!(v.is_finite(), "{workload}: {name} = {v}");
                if TIME_UNITS.contains(unit) {
                    assert!(*v > 0.0, "{workload}: time {name} = {v}");
                }
                if *v != 0.0 {
                    moved.insert(name.clone());
                }
            }
            assert!(traced
                .spans
                .as_ref()
                .is_some_and(|t| !t.summary().is_empty()));
        }
        // Standard observation never takes the engine's fast path today,
        // so its share reads 0 everywhere until a change makes it.
        for (name, _) in per_layer.iter().filter(|m| m.0 != "engine.fast_round_frac") {
            assert!(moved.contains(name), "{name} reads 0 on every workload");
        }
    }
}
