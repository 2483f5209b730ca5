//! `optimize_cold`: the paper's own experiment. Nine cold optimizations per
//! sweep, in a seeded order; the engine and the serving frontend do nothing.

use std::time::Instant;

use cnb_core::cost::CostModel;
use cnb_core::prelude::{
    ChaseConfig, Congruence, EquivChecker, OptimizeResult, Optimizer, OptimizerConfig, Strategy,
    TermId,
};
use cnb_ir::prelude::{PathExpr, Query, Var};
use cnb_workloads::{Ec1, Ec2, Ec3, Ec4, Ec5};

use crate::stats::{geomean, median, median_ns, Fnv};
use crate::trace::Tracer;
use crate::{
    derive_seed, one_thread, permutation, prepare, traced_window, two_cpus, Layers, Op, Size,
    Traced, Workload,
};

/// One configuration optimized cold.
struct Point {
    name: &'static str,
    optimizer: Optimizer,
    query: Query,
    config: OptimizerConfig,
    /// `Optimizer::optimize_measured` under the default cost model, not
    /// `Optimizer::optimize`.
    measured: bool,
    /// `(plans, explored)` at the commit that added the benchmark; a
    /// search that finds something else is counted as failed.
    pinned: (usize, usize),
}

impl Point {
    fn run(&self) -> OptimizeResult {
        if self.measured {
            self.optimizer
                .optimize_measured(&self.query, &self.config, &CostModel::default())
        } else {
            self.optimizer.optimize(&self.query, &self.config)
        }
    }

    fn holds(&self, r: &OptimizeResult) -> bool {
        !r.timed_out && (r.plans.len(), r.explored) == self.pinned
    }
}

/// Totals of the public result fields over the operations run.
#[derive(Default)]
struct Totals {
    chase_ns: u128,
    backchase_ns: u128,
    total_ns: u128,
    explored: u64,
}

/// The workload, built.
pub struct Cold {
    points: Vec<Point>,
    seed: u64,
    totals: Totals,
}

fn points() -> Vec<Point> {
    let point = |name, optimizer: Optimizer, query, strategy, measured, pinned| Point {
        name,
        optimizer,
        query,
        config: one_thread(strategy),
        measured,
        pinned,
    };
    let ec1 = Ec1::new(4, 2);
    let ec2_views = Ec2::new(1, 4, 2);
    let ec2_stars = Ec2::new(2, 3, 1);
    let ec3 = Ec3::new(3, 0);
    let ec4 = Ec4::new(4, 3, 2);
    let ec5 = Ec5::new(3, true, true);
    let (fb, oqf, ocs) = (Strategy::Full, Strategy::Oqf, Strategy::Ocs);
    vec![
        point(
            "ec1_4_2.fb",
            Optimizer::new(ec1.schema()),
            ec1.query(),
            fb,
            false,
            (36, 2579),
        ),
        point(
            "ec1_4_2.oqf",
            Optimizer::new(ec1.schema()),
            ec1.query(),
            oqf,
            false,
            (36, 36),
        ),
        point(
            "ec2_1_4_2.fb",
            Optimizer::new(ec2_views.schema()),
            ec2_views.query(),
            fb,
            false,
            (4, 63),
        ),
        point(
            "ec2_2_3_1.ocs",
            Optimizer::new(ec2_stars.schema()),
            ec2_stars.query(),
            ocs,
            false,
            (4, 122),
        ),
        point(
            "ec3_3.fb",
            Optimizer::new(ec3.schema()),
            ec3.query(),
            fb,
            false,
            (4, 143),
        ),
        point(
            "ec4_4_3_2.fb",
            Optimizer::new(ec4.schema()),
            ec4.query(),
            fb,
            false,
            (24, 1565),
        ),
        point(
            "ec5_tri_wedge_idx.fb",
            Optimizer::new(ec5.schema()),
            ec5.cycle_query(),
            fb,
            false,
            (18, 3183),
        ),
        point(
            "ec1_4_2.oqf.measured",
            Optimizer::new(ec1.schema()),
            ec1.query(),
            oqf,
            true,
            (1, 96),
        ),
        point(
            "ec5_tri_wedge_idx.fb.measured",
            Optimizer::new(ec5.schema()),
            ec5.cycle_query(),
            fb,
            true,
            (3, 3189),
        ),
    ]
}

impl Cold {
    /// Builds the nine points and runs each once. That first run is set-up: it
    /// lets first-call costs (symbol interning, allocator growth) land before
    /// the timed window, and it keeps `setup_s` on the scale of a sweep and not
    /// of nine `Optimizer::new` calls.
    pub fn build(seed: u64) -> Cold {
        let cold = Cold {
            points: points(),
            seed,
            totals: Totals::default(),
        };
        for p in &cold.points {
            std::hint::black_box(p.run().explored);
        }
        cold
    }

    fn by_name(&self, name: &str) -> &Point {
        self.points
            .iter()
            .find(|p| p.name == name)
            .expect("a listed point")
    }
}

impl Workload for Cold {
    fn points(&self) -> Vec<&'static str> {
        self.points.iter().map(|p| p.name).collect()
    }

    fn period(&self) -> usize {
        self.points.len()
    }

    /// One run of every point, untimed: the pins and the exact counts.
    fn verify(&mut self) -> (Vec<(String, u64)>, Vec<String>) {
        let (mut plans, mut explored, mut pruned) = (0u64, 0u64, 0u64);
        let mut digest = Fnv::default();
        let mut violations = Vec::new();
        for k in permutation(self.points.len(), self.seed) {
            let p = &self.points[k];
            let r = p.run();
            if !p.holds(&r) {
                violations.push(format!(
                    "{}: {} plans / {} explored / timed_out {} — pinned {:?}",
                    p.name,
                    r.plans.len(),
                    r.explored,
                    r.timed_out,
                    p.pinned
                ));
            }
            plans += r.plans.len() as u64;
            explored += r.explored as u64;
            pruned += r.pruned as u64;
            digest.bytes(p.name.as_bytes());
            for plan in &r.plans {
                digest.bytes(plan.query.canonical_key().as_bytes());
            }
        }
        let counts = vec![
            ("sweep_ops".to_string(), self.points.len() as u64),
            ("sweep_plans".to_string(), plans),
            ("sweep_explored".to_string(), explored),
            ("sweep_pruned".to_string(), pruned),
            ("sweep_digest".to_string(), digest.0),
        ];
        (counts, violations)
    }

    fn latency_over_points(&self) -> bool {
        true
    }

    fn smoke_ops(&self) -> usize {
        self.points.len()
    }

    fn op(&mut self, i: usize, tracer: Option<&mut Tracer>) -> Op {
        let n = self.points.len();
        let sweep = (i / n) as u64;
        // A fresh order every sweep, so no point always runs on the
        // allocator state its predecessor left.
        let k = permutation(n, derive_seed(self.seed, sweep))[i % n];
        let p = &self.points[k];
        let (result, nanos) = match tracer {
            None => {
                let t = Instant::now();
                let r = p.run();
                (r, t.elapsed().as_nanos() as u64)
            }
            Some(t) => {
                // One sweep span parents the nine optimizations of a sweep.
                if i.is_multiple_of(n) {
                    t.open("sweep", "", sweep);
                }
                let timed = t.span("core.optimizer.optimize", p.name, sweep, |_| p.run());
                if i % n == n - 1 {
                    t.close();
                }
                timed
            }
        };
        self.totals.chase_ns += result.chase_time.as_nanos();
        self.totals.backchase_ns += result.backchase_time.as_nanos();
        self.totals.total_ns += result.total_time.as_nanos();
        self.totals.explored += result.explored as u64;
        Op {
            point: k,
            class: k,
            nanos,
            ok: p.holds(&result),
        }
    }
}

fn median_of<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// The savepoint-churn cycle of `cnb_bench::ChurnRig`, on the public
/// `Congruence` calls: a warm closure of 64 lookup paths, cycled through
/// save → intern two composite terms → two merges → rollback.
fn congruence_churn_ns(cycles: u32, reps: usize) -> f64 {
    const BASE: u32 = 64;
    let mut cong = Congruence::new();
    let anchors: Vec<TermId> = (0..BASE)
        .map(|i| cong.intern_path(&PathExpr::from(Var(i)).lookup_in("M").dot("A")))
        .collect();
    for pair in anchors.chunks(2) {
        cong.merge(pair[0], pair[1]);
    }
    let secs = median_of(reps, || {
        for k in 0..cycles {
            let k = k % 8;
            let sp = cong.save();
            let v = Var(BASE + k);
            let t1 = cong.intern_path(&PathExpr::from(v).dot("A"));
            let t2 = cong.intern_path(&PathExpr::from(v).lookup_in("M").dot("B"));
            cong.merge(t1, t2);
            cong.merge(t1, anchors[k as usize]);
            cong.rollback(sp);
        }
        cong.len()
    });
    secs / f64::from(cycles) * 1e9
}

/// The traced pass of `optimize_cold` and its per-layer metrics.
pub fn trace(seed: u64, size: Size) -> Traced {
    let mut p = prepare(size, &|| Cold::build(seed));
    let windows = traced_window(&mut p.workload, size);
    let w = &p.workload;
    let spans = windows.tracer.spans();
    let point_ms = |name: &str| {
        let d: Vec<u64> = spans
            .iter()
            .filter(|s| s.name == "core.optimizer.optimize" && s.point == name)
            .map(|s| s.end_ns - s.start_ns)
            .collect();
        median_ns(&d) as f64 / 1e6
    };

    let mut layers = Layers::new();
    let (mut plain_ms, mut plain_plans) = (0.0, 0usize);
    for pt in &w.points {
        let ms = point_ms(pt.name);
        layers.insert(format!("core.optimizer.ms.{}", pt.name), Some(ms));
        if !pt.measured {
            plain_ms += ms;
            plain_plans += pt.pinned.0;
        }
    }
    layers.insert(
        "core.optimizer.time_per_plan_ms".into(),
        Some(plain_ms / plain_plans as f64),
    );
    let tax = |plain: &str, measured: &str| point_ms(measured) / point_ms(plain);
    layers.insert(
        "core.optimizer.measured_over_plain_x".into(),
        Some(geomean(&[
            tax("ec1_4_2.oqf", "ec1_4_2.oqf.measured"),
            tax("ec5_tri_wedge_idx.fb", "ec5_tri_wedge_idx.fb.measured"),
        ])),
    );
    let totals = &w.totals;
    layers.insert(
        "core.chase.share".into(),
        Some(totals.chase_ns as f64 / totals.total_ns as f64),
    );
    layers.insert(
        "core.backchase.share".into(),
        Some(totals.backchase_ns as f64 / totals.total_ns as f64),
    );
    layers.insert(
        "core.backchase.us_per_explored".into(),
        Some(totals.backchase_ns as f64 / 1e3 / totals.explored as f64),
    );
    let count = |name: &str| crate::count(&p.counts, name);
    layers.insert(
        "core.backchase.explored".into(),
        Some(count("sweep_explored") as f64),
    );
    layers.insert(
        "core.backchase.plans".into(),
        Some(count("sweep_plans") as f64),
    );
    layers.insert(
        "core.backchase.pruned".into(),
        Some(count("sweep_pruned") as f64),
    );

    // Single-call probes of the layers under the optimizer, on the plans
    // the largest full-backchase point emits.
    let ec1 = w.by_name("ec1_4_2.fb");
    let emitted = ec1.run().plans;
    let reps = size.pick(5, 1);
    let checker = EquivChecker::new(
        &ec1.query,
        ec1.optimizer.constraints(),
        ChaseConfig::default(),
    );
    let check_s = median_of(reps, || {
        emitted
            .iter()
            .filter(|plan| checker.equivalent(&plan.query).0)
            .count()
    });
    layers.insert(
        "core.equivalence.check_us".into(),
        Some(check_s / emitted.len() as f64 * 1e6),
    );
    let model = CostModel::default();
    let price_rounds = size.pick(200, 10);
    let price_s = median_of(reps, || {
        (0..price_rounds)
            .map(|_| {
                emitted
                    .iter()
                    .map(|plan| model.cost(&plan.query))
                    .sum::<f64>()
            })
            .sum::<f64>()
    });
    layers.insert(
        "core.cost.price_us".into(),
        Some(price_s / (price_rounds * emitted.len()) as f64 * 1e6),
    );
    layers.insert(
        "core.congruence.churn_ns".into(),
        Some(congruence_churn_ns(size.pick(10_000, 500), reps)),
    );
    let speedup = |name: &str| {
        let pt = w.by_name(name);
        let secs = |threads: usize| {
            let mut cfg = pt.config.clone();
            cfg.backchase.threads = threads;
            median_of(size.pick(3, 1), || {
                pt.optimizer.optimize(&pt.query, &cfg).explored
            })
        };
        secs(1) / secs(2)
    };
    layers.insert(
        "core.parallel.backchase_speedup_2t".into(),
        two_cpus().then(|| geomean(&[speedup("ec1_4_2.fb"), speedup("ec5_tri_wedge_idx.fb")])),
    );
    windows.finish(p, layers)
}
