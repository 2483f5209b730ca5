//! # cnb-benchmark — one benchmark for the whole request path
//!
//! Five workloads drive the C&B system through its public functions only,
//! time every call on the benchmark's own clock, and check every answer
//! against an oracle. `README.md` next to this crate has the layer ↔ metric
//! ↔ workload table and the list of public items the benchmark depends on;
//! `BENCHMARK.json` at the repo root names the metrics and their bounds.
//!
//! Load model, all workloads: one process per run, one generator thread, a
//! closed loop with one client (the system is an in-process library, so a
//! caller waits for its reply), library parallelism pinned to one thread.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Reading the wall clock is this crate's job (see the root clippy.toml).
#![allow(clippy::disallowed_methods)]

pub mod compare;
pub mod exec;
pub mod json;
pub mod optimize;
pub mod serve;
pub mod stats;
pub mod trace;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use cnb_core::prelude::{OptimizerConfig, Strategy};
use cnb_engine::prng::SplitMix64;
use cnb_engine::Database;
use cnb_ir::prelude::Schema;

use crate::json::Json;
use crate::serve::{Serve, ServeKind};
use crate::trace::Tracer;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 5] = [
    "serve_point",
    "serve_star",
    "serve_churn",
    "optimize_cold",
    "exec_analytic",
];

/// `(name, unit)` of every end-to-end metric, as in `BENCHMARK.json`.
/// Failures travel beside them as the `attempted` and `failed` counts.
pub const END_TO_END: [(&str, &str); 6] = [
    ("point_geomean_ms", "ms"),
    ("throughput_ops_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Set-up runs at least this many times before the window, and again after
/// it, at benchmark size; `setup_s` is the fastest. Once each at smoke size.
pub const SETUP_REPS: usize = 5;

/// Set-up keeps being repeated until it has taken this many seconds in all
/// (before the window, and again after it): a set-up of a few milliseconds
/// needs more than five repetitions to show its floor.
pub const SETUP_SECS: f64 = 0.5;

/// How much work a run does.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Size {
    /// A few operations per workload, fixed counts: what `cargo test` and a
    /// traced run's fill-in passes use.
    Smoke,
    /// The timed window lasts this many seconds.
    Timed(f64),
}

impl Size {
    /// `full` at benchmark size, `smoke` at smoke size.
    pub fn pick<T>(self, full: T, smoke: T) -> T {
        match self {
            Size::Smoke => smoke,
            Size::Timed(_) => full,
        }
    }

    /// The budget of a window that takes `share` of the run's seconds, or
    /// `smoke_ops` operations at smoke size.
    pub fn window(self, share: f64, smoke_ops: usize) -> Budget {
        match self {
            Size::Smoke => Budget::Ops(smoke_ops),
            Size::Timed(seconds) => Budget::Seconds(seconds * share),
        }
    }
}

/// When a window ends.
#[derive(Clone, Copy, Debug)]
pub enum Budget {
    /// After this many operations.
    Ops(usize),
    /// At the first operation boundary after this many seconds.
    Seconds(f64),
}

/// One operation's outcome.
pub struct Op {
    /// Index into [`Workload::points`].
    pub point: usize,
    /// Operations of one class do the same work: the same request against
    /// the same state, the same optimization, the same plan. The window
    /// repeats every class many times; see [`Samples::floors`].
    pub class: usize,
    /// Time around the public call(s), benchmark clock.
    pub nanos: u64,
    /// The call returned `Ok` and its answer matched the oracle.
    pub ok: bool,
}

/// What the measuring loop needs from a workload.
pub trait Workload {
    /// The workload's points: the operation classes whose medians
    /// `point_geomean_ms` combines.
    fn points(&self) -> Vec<&'static str>;

    /// Operations per round of the sequence (a sweep over the points, a
    /// cycle of requests). Windows hold whole rounds, so every class of
    /// operation is asked for the same number of times in each.
    fn period(&self) -> usize;

    /// Runs operation `i` of the seeded sequence, recording spans when a
    /// tracer is given.
    fn op(&mut self, i: usize, tracer: Option<&mut Tracer>) -> Op;

    /// The oracle pass, untimed: checks every operation of one round of the
    /// sequence against the reference executor (or the pinned counts) and
    /// remembers the answers the timed pass must reproduce. Returns counts
    /// and digests that repeat exactly for a seed, and broken invariants.
    fn verify(&mut self) -> (Vec<(String, u64)>, Vec<String>);

    /// Operations per window at smoke size.
    fn smoke_ops(&self) -> usize;

    /// True when the points differ by orders of magnitude, so that a
    /// percentile over the pooled operations would only name one point, and
    /// name it noisily (the slowest point's upper tail). Latency percentiles
    /// are then taken over the points' median times: p50 is the median
    /// point, p95 the slowest one.
    fn latency_over_points(&self) -> bool {
        false
    }
}

/// One timed operation of a window.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// Index into [`Workload::points`].
    pub point: usize,
    /// See [`Op::class`].
    pub class: usize,
    /// Time around the public call(s).
    pub nanos: u64,
    /// Spans were recorded around it.
    pub traced: bool,
}

/// The samples of one window.
pub struct Samples {
    /// Every operation, in the order run.
    pub ops: Vec<Sample>,
    /// Number of points of the workload.
    pub points: usize,
    /// Operations that failed.
    pub failed: u64,
    /// Time the operations took: the wall time of the window, answer
    /// checks included, or the sum of the operations' floors.
    pub wall: Duration,
    /// Index of the operation after the last one run.
    pub next: usize,
}

impl Samples {
    /// Operations run.
    pub fn attempted(&self) -> u64 {
        self.ops.len() as u64
    }

    /// Per-operation nanoseconds, by point.
    pub fn by_point(&self) -> Vec<Vec<u64>> {
        let mut by_point = vec![Vec::new(); self.points];
        for op in &self.ops {
            by_point[op.point].push(op.nanos);
        }
        by_point
    }

    /// The operations run with (`true`) or without (`false`) spans.
    pub fn only(&self, traced: bool) -> Samples {
        Samples {
            ops: self
                .ops
                .iter()
                .filter(|op| op.traced == traced)
                .copied()
                .collect(),
            ..*self
        }
    }

    /// Median nanoseconds of each point that has samples.
    pub fn point_medians_ns(&self) -> Vec<u64> {
        self.by_point()
            .iter()
            .filter(|p| !p.is_empty())
            .map(|p| stats::median_ns(p))
            .collect()
    }

    /// Geometric mean over the points of each point's median, milliseconds.
    pub fn point_geomean_ms(&self) -> f64 {
        let medians_ms: Vec<f64> = self
            .point_medians_ns()
            .iter()
            .map(|ns| *ns as f64 / 1e6)
            .collect();
        stats::geomean(&medians_ms)
    }

    /// The window with every operation's time replaced by its class's
    /// floor: the fastest of the class's repetitions.
    ///
    /// The hosts this runs on are shared. The same request, timed again and
    /// again for a minute, took between 1 and 2 times its fastest, in
    /// stretches of seconds to minutes (`README.md` has the measurements);
    /// medians of 20-second runs of the same code then differ by 10–40 %.
    /// The neighbours only ever add time, so what a class of identical
    /// operations costs the program itself is the least any repetition
    /// took. Everything that varies between the operations of a window —
    /// which request, hit or miss, which plan — stays in the numbers, as
    /// the spread over classes; what one operation suffered from the host
    /// does not.
    pub fn floors(&self) -> Samples {
        let mut floor: BTreeMap<usize, u64> = BTreeMap::new();
        for op in &self.ops {
            let least = floor.entry(op.class).or_insert(u64::MAX);
            *least = (*least).min(op.nanos);
        }
        let ops: Vec<Sample> = self
            .ops
            .iter()
            .map(|op| Sample {
                nanos: floor[&op.class],
                ..*op
            })
            .collect();
        Samples {
            wall: Duration::from_nanos(ops.iter().map(|op| op.nanos).sum()),
            ops,
            ..*self
        }
    }
}

/// Runs operations `start..` until the budget is spent and the round in
/// progress is complete. With a tracer, every other round records spans:
/// traced and untraced operations are then the same requests under the same
/// host noise, so the cost of tracing is the ratio of two medians taken
/// side by side.
pub fn measure(
    w: &mut dyn Workload,
    start: usize,
    budget: Budget,
    mut tracer: Option<&mut Tracer>,
) -> Samples {
    let period = w.period();
    let mut ops = Vec::new();
    let mut failed = 0;
    let mut i = start;
    let begin = Instant::now();
    loop {
        let spent = match budget {
            Budget::Ops(n) => i - start >= n,
            Budget::Seconds(s) => begin.elapsed().as_secs_f64() >= s,
        };
        // A traced window needs a round of each kind.
        let rounds = if tracer.is_some() { 2 } else { 1 };
        if spent && i.is_multiple_of(period) && i - start >= rounds * period {
            break;
        }
        let traced = tracer.is_some() && (i / period) % 2 == 1;
        let op = w.op(i, tracer.as_deref_mut().filter(|_| traced));
        ops.push(Sample {
            point: op.point,
            class: op.class,
            nanos: op.nanos,
            traced,
        });
        failed += u64::from(!op.ok);
        i += 1;
    }
    Samples {
        wall: begin.elapsed(),
        ops,
        points: w.points().len(),
        failed,
        next: i,
    }
}

/// Times `build` [`SETUP_REPS`] times and on until [`SETUP_SECS`] are spent
/// (once at smoke size); returns the last state built and the seconds each
/// took.
fn timed_builds<W>(size: Size, build: &dyn Fn() -> W) -> (W, Vec<f64>) {
    let mut secs = Vec::with_capacity(SETUP_REPS);
    let mut state = None;
    let (least, budget) = size.pick((SETUP_REPS, SETUP_SECS), (1, 0.0));
    while secs.len() < least || secs.iter().sum::<f64>() < budget {
        // The previous state goes first: two live copies would double the
        // peak resident size the run reports.
        drop(state.take());
        let t = Instant::now();
        state = Some(build());
        secs.push(t.elapsed().as_secs_f64());
    }
    (state.expect("at least one build"), secs)
}

/// An independent sub-seed of the run's `--seed` for one purpose.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    SplitMix64::seed_from_u64(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15)).next_u64()
}

/// A seeded permutation of `0..n` (Fisher–Yates).
pub fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.gen_range(0..i + 1));
    }
    order
}

/// The optimizer configuration every workload uses: the given strategy,
/// default limits, one backchase thread.
pub fn one_thread(strategy: Strategy) -> OptimizerConfig {
    let mut cfg = OptimizerConfig::with_strategy(strategy);
    cfg.backchase.threads = 1;
    cfg
}

/// True when two-thread metrics can mean something on this host.
pub fn two_cpus() -> bool {
    host_cpus() >= 2
}

/// `std::thread::available_parallelism`, 1 when unknown.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// One metric of a report. `None` prints as `null`: a two-thread metric on
/// a one-CPU host.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name as in `BENCHMARK.json`.
    pub name: String,
    /// The measured number.
    pub value: Option<f64>,
    /// Unit as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// What one run of one workload found.
#[derive(Debug)]
pub struct Report {
    /// Workload name.
    pub workload: &'static str,
    /// The `--seed`.
    pub seed: u64,
    /// True for a traced run (per-layer metrics), false for end-to-end.
    pub traced: bool,
    /// Operations in the measured window(s).
    pub attempted: u64,
    /// Of those, the ones that returned `Err` or failed the oracle.
    pub failed: u64,
    /// Broken invariants of the workload itself (empty when all held).
    pub violations: Vec<String>,
    /// The metrics for the result line.
    pub metrics: Vec<Metric>,
    /// Counts and digests that repeat exactly for one seed.
    pub counts: Vec<(String, u64)>,
    /// `(point, median ms, samples)` of the measured window.
    pub points: Vec<(&'static str, f64, usize)>,
    /// The timing metrics over the operations' times as clocked, host noise
    /// and all, and the median set-up (end-to-end runs; for the record,
    /// never compared).
    pub as_timed: Vec<(&'static str, f64)>,
}

impl Report {
    /// No operation failed and every invariant held.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.violations.is_empty()
    }

    /// Failed operations as a share of those attempted.
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", self.metrics_json()),
        ])
        .render()
    }

    fn metrics_json(&self) -> Json {
        Json::obj(self.metrics.iter().map(|m| {
            let value = m.value.map_or(Json::Null, Json::Num);
            let entry = Json::obj([("value", value), ("unit", Json::Str(m.unit.to_string()))]);
            (m.name.clone(), entry)
        }))
    }

    /// The result file: the result line's content plus where and how it
    /// was measured, the exact counts and the per-point medians.
    pub fn result_file(&self, seconds: Option<f64>, commit: &str) -> Json {
        Json::obj([
            ("workload", Json::Str(self.workload.to_string())),
            ("seed", Json::Num(self.seed as f64)),
            ("traced", Json::Bool(self.traced)),
            ("seconds", seconds.map_or(Json::Null, Json::Num)),
            ("commit", Json::Str(commit.to_string())),
            ("host_cpus", Json::Num(host_cpus() as f64)),
            ("debug_assertions", Json::Bool(cfg!(debug_assertions))),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("failed_share", Json::Num(self.failed_share())),
            (
                "violations",
                Json::Arr(self.violations.iter().cloned().map(Json::Str).collect()),
            ),
            ("metrics", self.metrics_json()),
            (
                "counts",
                Json::obj(
                    self.counts
                        .iter()
                        // Digests use all 64 bits; a JSON number holds 53.
                        .map(|(k, v)| (k.clone(), Json::Str(v.to_string()))),
                ),
            ),
            (
                "as_timed",
                Json::obj(self.as_timed.iter().map(|(k, v)| (*k, Json::Num(*v)))),
            ),
            (
                "points",
                Json::obj(self.points.iter().map(|(name, ms, n)| {
                    let entry = Json::obj([
                        ("median_ms", Json::Num(*ms)),
                        ("samples", Json::Num(*n as f64)),
                    ]);
                    (*name, entry)
                })),
            ),
        ])
    }

    /// The table printed above the result line: every metric by name, with
    /// its unit.
    pub fn table(&self) -> String {
        let kind = if self.traced {
            "per-layer"
        } else {
            "end-to-end"
        };
        let mut out = format!("== {} seed {} ({kind})\n", self.workload, self.seed);
        for m in &self.metrics {
            let value = m.value.map_or("null".to_string(), |v| format!("{v:.6}"));
            out.push_str(&format!("{:<48} {:>18} {}\n", m.name, value, m.unit));
        }
        for (name, v) in &self.as_timed {
            out.push_str(&format!("  as timed {name:<37} {v:>18.6}\n"));
        }
        for (name, ms, n) in &self.points {
            out.push_str(&format!(
                "  point {name:<40} {ms:>14.6} ms  ({n} samples)\n"
            ));
        }
        for (name, v) in &self.counts {
            out.push_str(&format!("  count {name:<40} {v:>20}\n"));
        }
        out.push_str(&format!(
            "failed_share {:.6} ({} failed of {} attempted)\n",
            self.failed_share(),
            self.failed,
            self.attempted
        ));
        for v in &self.violations {
            out.push_str(&format!("VIOLATION: {v}\n"));
        }
        out
    }
}

/// A workload built and verified, ready for windows.
pub struct Prepared<W> {
    /// The workload.
    pub workload: W,
    /// Seconds each set-up took.
    pub setup_secs: Vec<f64>,
    /// Counts and digests of the oracle pass; they repeat exactly.
    pub counts: Vec<(String, u64)>,
    /// Invariants the oracle pass found broken.
    pub violations: Vec<String>,
}

/// Builds a workload [`SETUP_REPS`] times or more and runs its oracle pass.
pub fn prepare<W: Workload>(size: Size, build: &dyn Fn() -> W) -> Prepared<W> {
    let (mut workload, setup_secs) = timed_builds(size, build);
    let (counts, violations) = workload.verify();
    Prepared {
        workload,
        setup_secs,
        counts,
        violations,
    }
}

/// The count called `name` among an oracle pass's counts.
pub fn count(counts: &[(String, u64)], name: &str) -> u64 {
    counts
        .iter()
        .find(|(k, _)| k == name)
        .unwrap_or_else(|| panic!("the oracle pass counts no {name}"))
        .1
}

fn workload_name(name: &str) -> &'static str {
    WORKLOADS
        .into_iter()
        .find(|w| *w == name)
        .unwrap_or_else(|| panic!("unknown workload {name}"))
}

fn point_rows(points: &[&'static str], s: &Samples) -> Vec<(&'static str, f64, usize)> {
    points
        .iter()
        .zip(&s.by_point())
        .filter(|(_, samples)| !samples.is_empty())
        .map(|(name, samples)| (*name, stats::median_ns(samples) as f64 / 1e6, samples.len()))
        .collect()
}

/// The end-to-end run: set-ups, oracle pass, warm-up (5 % of the window),
/// one untraced window, set-ups again. Every time reported is a floor
/// ([`Samples::floors`]).
pub fn run_untraced(name: &str, seed: u64, size: Size) -> Report {
    use ServeKind::{Churn, Point, Star};
    match name {
        "serve_point" => untraced(name, seed, size, &|| Serve::build(Point, seed, size)),
        "serve_star" => untraced(name, seed, size, &|| Serve::build(Star, seed, size)),
        "serve_churn" => untraced(name, seed, size, &|| Serve::build(Churn, seed, size)),
        "optimize_cold" => untraced(name, seed, size, &|| optimize::Cold::build(seed)),
        "exec_analytic" => untraced(name, seed, size, &|| exec::Analytic::build(seed)),
        other => panic!("unknown workload {other}"),
    }
}

fn untraced<W: Workload>(name: &str, seed: u64, size: Size, build: &dyn Fn() -> W) -> Report {
    let mut p = prepare(size, build);
    let smoke_ops = p.workload.smoke_ops();
    let warm = measure(&mut p.workload, 0, size.window(0.05, 0), None);
    let runs_before = cnb_core::prelude::chase_and_backchase_runs();
    let s = measure(
        &mut p.workload,
        warm.next,
        size.window(1.0, smoke_ops),
        None,
    );
    let runs = cnb_core::prelude::chase_and_backchase_runs() - runs_before;
    // The two warm serving workloads exist to show the request path with
    // the optimizer out of it.
    if matches!(name, "serve_point" | "serve_star") && runs != 0 {
        p.violations.push(format!(
            "chase_and_backchase ran {runs} time(s) on a warm cache"
        ));
    }
    let rss_mb = peak_rss_mb().unwrap_or(f64::NAN);
    let over_points = p.workload.latency_over_points();
    let timing = |s: &Samples| {
        let medians_ns = s.point_medians_ns();
        let mut latencies_ns: Vec<u64> = if over_points {
            medians_ns.clone()
        } else {
            s.ops.iter().map(|op| op.nanos).collect()
        };
        latencies_ns.sort_unstable();
        [
            s.point_geomean_ms(),
            s.attempted() as f64 / s.wall.as_secs_f64(),
            stats::percentile(&latencies_ns, 50.0) as f64 / 1e6,
            stats::percentile(&latencies_ns, 95.0) as f64 / 1e6,
        ]
    };
    let floors = s.floors();
    let points = point_rows(&p.workload.points(), &floors);
    // The second half of the set-ups runs a window later than the first, so
    // a burst of host noise cannot sit on all of them. The workload goes
    // first, for the same reason as in `timed_builds`.
    drop(p.workload);
    let mut setup_secs = p.setup_secs;
    setup_secs.extend(timed_builds(size, build).1);
    // Every set-up does the same work, so its time is a floor too.
    let setup_s = setup_secs.iter().copied().fold(f64::INFINITY, f64::min);
    let values = timing(&floors).into_iter().chain([setup_s, rss_mb]);
    Report {
        workload: workload_name(name),
        seed,
        traced: false,
        attempted: s.attempted(),
        failed: s.failed,
        violations: p.violations,
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|((metric, unit), value)| Metric {
                name: metric.to_string(),
                value: Some(value),
                unit,
            })
            .collect(),
        as_timed: END_TO_END
            .iter()
            .zip(timing(&s))
            .map(|((metric, _), value)| (*metric, value))
            .chain([("setup_s", stats::median(&setup_secs))])
            .collect(),
        counts: p.counts,
        points,
    }
}

/// `(name, unit)` of every per-layer metric, as in `BENCHMARK.json`.
pub const PER_LAYER: [(&str, &str); 44] = [
    ("core.serving.parameterize_us", "us"),
    ("core.serving.fingerprint_us", "us"),
    ("core.serving.lookup_us", "us"),
    ("core.serving.bind_us", "us"),
    ("core.serving.hit_rate", "ratio"),
    ("core.serving.evictions", "count"),
    ("engine.serving.plan_warm_us", "us"),
    ("engine.serving.plan_cold_ms", "ms"),
    ("engine.serving.frontend_share", "ratio"),
    ("engine.serving.batch_speedup_2t", "x"),
    ("engine.pressure.gate_overhead_us", "us"),
    ("engine.eval.execute_us", "us"),
    ("engine.eval.tuples_per_row", "ratio"),
    ("engine.eval.tuples_per_s", "1/s"),
    ("engine.eval.batched_over_legacy_x", "x"),
    ("engine.wcoj.execute_ms.ec5u", "ms"),
    ("engine.wcoj.execute_ms.ec5s", "ms"),
    ("engine.wcoj.over_wedge_x.ec5u", "x"),
    ("engine.wcoj.over_wedge_x.ec5s", "x"),
    ("engine.database.generate_s", "s"),
    ("engine.database.materialize_s", "s"),
    ("core.optimizer.ms.ec1_4_2.fb", "ms"),
    ("core.optimizer.ms.ec1_4_2.oqf", "ms"),
    ("core.optimizer.ms.ec2_1_4_2.fb", "ms"),
    ("core.optimizer.ms.ec2_2_3_1.ocs", "ms"),
    ("core.optimizer.ms.ec3_3.fb", "ms"),
    ("core.optimizer.ms.ec4_4_3_2.fb", "ms"),
    ("core.optimizer.ms.ec5_tri_wedge_idx.fb", "ms"),
    ("core.optimizer.ms.ec1_4_2.oqf.measured", "ms"),
    ("core.optimizer.ms.ec5_tri_wedge_idx.fb.measured", "ms"),
    ("core.optimizer.time_per_plan_ms", "ms"),
    ("core.optimizer.measured_over_plain_x", "x"),
    ("core.optimizer.first_plan_payoff_x", "x"),
    ("core.chase.share", "ratio"),
    ("core.backchase.share", "ratio"),
    ("core.backchase.explored", "count"),
    ("core.backchase.plans", "count"),
    ("core.backchase.pruned", "count"),
    ("core.backchase.us_per_explored", "us"),
    ("core.equivalence.check_us", "us"),
    ("core.congruence.churn_ns", "ns"),
    ("core.cost.price_us", "us"),
    ("core.parallel.backchase_speedup_2t", "x"),
    ("trace_overhead_pct", "pct"),
];

/// Per-layer metrics of one traced pass, by name. `None` is a two-thread
/// metric on a one-CPU host.
pub type Layers = BTreeMap<String, Option<f64>>;

/// What the traced pass of one workload found.
pub struct Traced {
    /// The per-layer metrics this workload's layers produce.
    pub layers: Layers,
    /// Operations in the window, traced or not.
    pub attempted: u64,
    /// Of those, the ones that failed.
    pub failed: u64,
    /// Broken invariants.
    pub violations: Vec<String>,
    /// The oracle pass's exact counts.
    pub counts: Vec<(String, u64)>,
    /// Per-point medians of the traced window.
    pub points: Vec<(&'static str, f64, usize)>,
    /// The spans.
    pub tracer: Tracer,
}

/// The window of a traced pass.
pub struct TracedWindow {
    samples: Samples,
    /// The spans of the traced rounds.
    pub tracer: Tracer,
}

/// Warm-up, then one window of half the run's seconds in which every other
/// round is traced.
pub fn traced_window(w: &mut dyn Workload, size: Size) -> TracedWindow {
    let smoke_ops = w.smoke_ops();
    let warm = measure(w, 0, size.window(0.025, 0), None);
    let mut tracer = Tracer::new();
    let samples = measure(
        w,
        warm.next,
        size.window(0.5, 2 * smoke_ops),
        Some(&mut tracer),
    );
    tracer.close_all();
    TracedWindow { samples, tracer }
}

impl TracedWindow {
    /// Adds `trace_overhead_pct` — how much slower `point_geomean_ms` is
    /// over the traced rounds than over the untraced ones — and packs up.
    pub fn finish<W: Workload>(self, p: Prepared<W>, mut layers: Layers) -> Traced {
        let geomean_ms = |traced| self.samples.only(traced).point_geomean_ms();
        layers.insert(
            "trace_overhead_pct".into(),
            Some((geomean_ms(true) / geomean_ms(false) - 1.0) * 100.0),
        );
        Traced {
            layers,
            attempted: self.samples.attempted(),
            failed: self.samples.failed,
            violations: p.violations,
            counts: p.counts,
            points: point_rows(&p.workload.points(), &self.samples.only(true)),
            tracer: self.tracer,
        }
    }
}

/// Seconds `generate` takes (it materializes too, as the public generators
/// do), and seconds `Database::materialize_physical` takes on its own over
/// a copy of the logical collections.
pub fn database_costs(schema: &Schema, generate: impl Fn() -> Database) -> (f64, f64) {
    let t = Instant::now();
    let db = generate();
    let generate_s = t.elapsed().as_secs_f64();
    let mut logical = Database::new();
    for (name, _) in db.cardinalities() {
        if !schema.is_logical(name) {
            continue;
        }
        logical.load_table(name, db.table(name).to_vec());
        for (key, entry) in db.dict(name).into_iter().flat_map(|d| d.iter()) {
            logical.set_entry(name, key.clone(), entry.clone());
        }
    }
    let t = Instant::now();
    logical
        .materialize_physical(schema)
        .expect("materializing a generated database cannot fail");
    (generate_s, t.elapsed().as_secs_f64())
}

fn trace_one(name: &str, seed: u64, size: Size) -> Traced {
    match name {
        "serve_point" => serve::trace(ServeKind::Point, seed, size),
        "serve_star" => serve::trace(ServeKind::Star, seed, size),
        "serve_churn" => serve::trace(ServeKind::Churn, seed, size),
        "optimize_cold" => optimize::trace(seed, size),
        "exec_analytic" => exec::trace(seed, size),
        other => panic!("unknown workload {other}"),
    }
}

/// The traced run. The workload's own traced pass gives the metrics of the
/// layers it calls, under its traffic. A result line must carry every
/// per-layer metric, so the layers it does not call are measured too: by a
/// smoke-size traced pass of the first of `optimize_cold`, `exec_analytic`
/// and `serve_point` that calls them. Returns the spans of the workload's
/// own pass beside the report.
pub fn run_traced(name: &str, seed: u64, size: Size) -> (Report, Tracer) {
    let own = trace_one(name, seed, size);
    let mut layers = own.layers;
    for filler in ["optimize_cold", "exec_analytic", "serve_point"] {
        if filler != name && PER_LAYER.iter().any(|(m, _)| !layers.contains_key(*m)) {
            for (metric, value) in trace_one(filler, seed, Size::Smoke).layers {
                layers.entry(metric).or_insert(value);
            }
        }
    }
    let metrics = PER_LAYER
        .iter()
        .map(|(metric, unit)| Metric {
            name: metric.to_string(),
            value: layers
                .remove(*metric)
                .unwrap_or_else(|| panic!("no workload measured {metric}")),
            unit,
        })
        .collect();
    assert!(layers.is_empty(), "unlisted per-layer metrics: {layers:?}");
    let report = Report {
        workload: workload_name(name),
        seed,
        traced: true,
        attempted: own.attempted,
        failed: own.failed,
        violations: own.violations,
        metrics,
        counts: own.counts,
        points: own.points,
        as_timed: Vec::new(),
    };
    (report, own.tracer)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floors_take_the_fastest_repetition_of_each_class_and_keep_the_mix() {
        let op = |class, nanos| Sample {
            point: 0,
            class,
            nanos,
            traced: false,
        };
        let window = Samples {
            ops: vec![op(0, 30), op(1, 500), op(0, 10), op(1, 400), op(0, 20)],
            points: 1,
            failed: 0,
            wall: Duration::from_nanos(2000),
            next: 5,
        };
        let floors = window.floors();
        let nanos: Vec<u64> = floors.ops.iter().map(|op| op.nanos).collect();
        assert_eq!(nanos, [10, 400, 10, 400, 10]);
        assert_eq!(floors.wall, Duration::from_nanos(830));
        assert_eq!(floors.attempted(), window.attempted());
    }
}
