//! `verify`: the report's product path. One pass runs every fixed
//! experiment, the DPOR class sweeps of the exhaustive experiments and
//! the matched-model zoo, each verdict checked against `answers/`. The
//! brute-force oracle and the worker-count re-runs are not product
//! latency and stay out. Every pass gets a fresh verdict memo, and the
//! `.jungle/` directory is never read or written.

use crate::answers;
use crate::spans::Tracer;
use crate::util::{median, quantile, ratio, Metric, Rng, Samples, Tally};
use crate::Workload;
use jungle_core::par::ParallelConfig;
use jungle_mc::theorems::{all_fixed_experiments, matched_zoo, Expectation, Experiment};
use jungle_mc::verify::{
    class_sweep_dpor, machine_for, scheduler_for_seed, trace_satisfies, SharedVerdictMemo,
    SweepSeeds,
};
use std::collections::HashMap;
use std::time::Instant;

/// The report's sweep settings.
const THEOREM_SEEDS: u64 = 2_000;
const ZOO_SEEDS: u64 = 30;
const MAX_STEPS: usize = 8_000;
/// Schedules per experiment the traced probe re-executes.
const PROBE_SCHEDULES: u64 = 8;

pub struct Verify {
    experiments: Vec<Experiment>,
    /// Experiment indices in this seed's order.
    order: Vec<usize>,
    violates: HashMap<&'static str, bool>,
    classes: HashMap<&'static str, usize>,
    zoo: HashMap<(&'static str, &'static str), bool>,
    probe_base: u64,
    pass_s: Vec<f64>,
    requests: Samples,
    layer: Layer,
}

/// Per-layer totals over the traced passes and their probes.
#[derive(Default)]
struct Layer {
    passes: u64,
    dpor_executed: u64,
    dpor_completed: u64,
    dpor_blocked: u64,
    dpor_classes: u64,
    dpor_ns: u64,
    theorems_ns: u64,
    zoo_ns: u64,
    schedules: u64,
    histories_checked: u64,
    dedup_hits: u64,
    memo_hits: u64,
    memo_lookups: u64,
    run_ns: Vec<u64>,
    steps: u64,
    check_ns: Vec<u64>,
}

impl Verify {
    pub fn new(seed: u64) -> Self {
        let experiments = all_fixed_experiments();
        let mut order: Vec<usize> = (0..experiments.len()).collect();
        let mut rng = Rng::new(seed);
        rng.shuffle(&mut order);
        Verify {
            experiments,
            order,
            violates: answers::experiment_violates(),
            classes: answers::dpor_classes(),
            zoo: answers::zoo(),
            probe_base: rng.next_u64() % 1_000_000,
            pass_s: Vec::new(),
            requests: Samples::new(),
            layer: Layer::default(),
        }
    }
}

/// Time `f` in ms into `requests`.
fn timed<R>(requests: &mut Vec<f64>, f: impl FnOnce() -> R) -> R {
    let t0 = Instant::now();
    let out = f();
    requests.push(t0.elapsed().as_secs_f64() * 1e3);
    out
}

impl Workload for Verify {
    fn pass(&mut self, tally: &mut Tally, tr: &mut Tracer) {
        let t0 = Instant::now();
        let memo = SharedVerdictMemo::new();
        let cfg = ParallelConfig::default();
        let traced = tr.on();
        let mut requests = Vec::new();
        // Untraced passes count into a scratch copy that is dropped.
        let mut scratch = Layer::default();
        let layer = if traced {
            &mut self.layer
        } else {
            &mut scratch
        };
        layer.passes += 1;

        let t = Instant::now();
        tr.span("mc.theorems", |tr| {
            for &i in &self.order {
                let e = &self.experiments[i];
                let r = tr.span("mc.experiment", |_| {
                    timed(&mut requests, || {
                        e.run_shared(SweepSeeds::new(0, THEOREM_SEEDS), MAX_STEPS, &cfg, &memo)
                    })
                });
                // A passing ViolationExists experiment found a violation; a
                // passing AllTracesSatisfy one found none.
                let violated = r.passed == (e.expect == Expectation::ViolationExists);
                let known = self.violates.get(e.id.as_str()).copied();
                tally.check(known == Some(violated), || {
                    format!("{}: violation found = {violated}, paper: {known:?}", e.id)
                });
                layer.schedules += r.stats.schedules;
                layer.histories_checked += r.stats.histories_checked;
                layer.dedup_hits += r.stats.dedup_hits;
            }
        });
        layer.theorems_ns += t.elapsed().as_nanos() as u64;

        let t = Instant::now();
        tr.span("mc.dpor", |tr| {
            for e in self.experiments.iter().filter(|e| e.exhaustive) {
                let s = tr.span("mc.class_sweep", |_| {
                    timed(&mut requests, || {
                        class_sweep_dpor(&e.program, e.algo, &e.entry, MAX_STEPS)
                    })
                });
                let known = self.classes.get(e.id.as_str()).copied();
                tally.check(known == Some(s.keys.len()) && s.truncated == 0, || {
                    format!(
                        "{}: DPOR visited {} classes ({} truncated), oracle: {known:?}",
                        e.id,
                        s.keys.len(),
                        s.truncated
                    )
                });
                layer.dpor_executed += s.executed;
                layer.dpor_completed += s.completed;
                layer.dpor_blocked += s.blocked;
                layer.dpor_classes += s.keys.len() as u64;
            }
        });
        layer.dpor_ns += t.elapsed().as_nanos() as u64;

        let t = Instant::now();
        let zoo = tr.span("mc.zoo", |_| {
            timed(&mut requests, || {
                matched_zoo(SweepSeeds::new(0, ZOO_SEEDS), MAX_STEPS, &cfg, &memo)
            })
        });
        layer.zoo_ns += t.elapsed().as_nanos() as u64;
        tally.check(zoo.len() == self.zoo.len(), || {
            format!(
                "zoo has {} cells, known table {}",
                zoo.len(),
                self.zoo.len()
            )
        });
        for z in &zoo {
            let known = self.zoo.get(&(z.algo, z.model)).copied();
            tally.check(known == Some(z.ok), || {
                format!(
                    "zoo {}/{}: opaque = {}, known: {known:?}",
                    z.algo, z.model, z.ok
                )
            });
            layer.schedules += z.stats.schedules;
            layer.histories_checked += z.stats.histories_checked;
            layer.dedup_hits += z.stats.dedup_hits;
        }
        tally.check(
            memo.cross_run_hits() == 0 && memo.preloaded_entries() == 0,
            || {
                format!(
                    "memo answered {} lookups from a previous run",
                    memo.cross_run_hits()
                )
            },
        );

        layer.memo_hits += memo.hits();
        layer.memo_lookups += memo.lookups();
        if !traced {
            self.pass_s.push(t0.elapsed().as_secs_f64());
            for r in requests {
                self.requests.push(r);
            }
        }
    }

    /// Re-execute sampled schedules of every fixed experiment through
    /// the simulator and the checker separately, so that memsim time
    /// and checker time show apart.
    fn probe(&mut self, tally: &mut Tally, tr: &mut Tracer) {
        for e in &self.experiments {
            for seed in self.probe_base..self.probe_base + PROBE_SCHEDULES {
                let t = Instant::now();
                let run = tr.span("memsim.run", |_| {
                    machine_for(&e.program, e.algo, e.entry.exec)
                        .run(scheduler_for_seed(seed).as_mut(), MAX_STEPS)
                });
                self.layer.run_ns.push(t.elapsed().as_nanos() as u64);
                self.layer.steps += run.steps as u64;
                if !run.completed {
                    continue;
                }
                let t = Instant::now();
                let ok = tr.span("core.trace_satisfies", |_| {
                    trace_satisfies(&run.trace, e.model(), e.kind)
                });
                self.layer.check_ns.push(t.elapsed().as_nanos() as u64);
                // Only a trace of a program the paper proves correct
                // has a known verdict.
                if self.violates.get(e.id.as_str()) == Some(&false) {
                    tally.check(ok, || format!("{}: schedule {seed} violates", e.id));
                }
            }
        }
    }

    fn clear(&mut self) {
        self.pass_s.clear();
        self.requests.clear();
        self.layer = Layer::default();
    }

    fn requests(&self) -> &Samples {
        &self.requests
    }

    fn per_layer(&self) -> Vec<Metric> {
        let l = &self.layer;
        let per_pass = |v: u64| v as f64 / l.passes.max(1) as f64;
        let runs = l.run_ns.len() as u64;
        vec![
            Metric::new("verify_s", median(&self.pass_s), "s"),
            Metric::new("mc.dpor.executed", per_pass(l.dpor_executed), "count"),
            Metric::new("mc.dpor.completed", per_pass(l.dpor_completed), "count"),
            Metric::new("mc.dpor.blocked", per_pass(l.dpor_blocked), "count"),
            Metric::new("mc.dpor.classes", per_pass(l.dpor_classes), "count"),
            Metric::new(
                "mc.dpor.useful_ratio",
                ratio(l.dpor_completed, l.dpor_executed),
                "ratio",
            ),
            Metric::new(
                "mc.dpor.run_us",
                l.dpor_ns as f64 / 1e3 / l.dpor_executed.max(1) as f64,
                "us",
            ),
            Metric::new("mc.theorems_ms", per_pass(l.theorems_ns) / 1e6, "ms"),
            Metric::new("mc.zoo_ms", per_pass(l.zoo_ns) / 1e6, "ms"),
            Metric::new("mc.schedules", per_pass(l.schedules), "count"),
            Metric::new(
                "mc.histories_checked",
                per_pass(l.histories_checked),
                "count",
            ),
            Metric::new("mc.dedup_ratio", ratio(l.dedup_hits, l.schedules), "ratio"),
            Metric::new(
                "mc.memo_hit_ratio",
                ratio(l.memo_hits, l.memo_lookups),
                "ratio",
            ),
            Metric::new(
                "mc.check_us",
                l.check_ns.iter().sum::<u64>() as f64 / 1e3 / l.check_ns.len().max(1) as f64,
                "us",
            ),
            Metric::new(
                "memsim.run_us_p50",
                quantile(&mut l.run_ns.clone(), 0.5) as f64 / 1e3,
                "us",
            ),
            Metric::new(
                "memsim.run_us_p99",
                quantile(&mut l.run_ns.clone(), 0.99) as f64 / 1e3,
                "us",
            ),
            Metric::new("memsim.steps_per_run", ratio(l.steps, runs), "count"),
        ]
    }
}
