//! `check`: the checker's exponential search in isolation. In one pass
//! each of two concurrent clients runs the litmus corpus under every
//! registry entry and both kinds (544 checks), then the three stress
//! families under SC:
//!
//! * `chain`: long, with a unique serialization order, so only the
//!   history length costs;
//! * `wide`: `p` concurrent transactions with `p!` orders and a witness;
//! * `wide_unsat`: the same shape with no witness, so the search must
//!   exhaust every order.
//!
//! A refutation shortcut should move `wide_unsat` only; a history
//! length optimisation should move `chain` only.

use crate::answers;
use crate::spans::Tracer;
use crate::util::{median, Metric, Rng, Samples, Tally};
use crate::Workload;
use jungle_core::history::History;
use jungle_core::model::{MemoryModel, Sc};
use jungle_core::opacity::check_opacity;
use jungle_core::registry::registry;
use jungle_core::sgla::check_sgla;
use jungle_litmus::figures::all_litmus;
use jungle_litmus::stress::{chain_history, wide_history, wide_unsat_history};
use jungle_obs::trace::{self, EventKind, FlightRecorder};
use std::sync::Arc;
use std::time::Instant;

/// Stress family sizes. Each family's checks stay within the traced
/// run's event ring (see [`RING`]), so its search counts are exact.
const CHAIN_K: usize = 128;
const WIDE_P: usize = 8;
const WIDE_UNSAT_P: usize = 6;
/// Concurrent clients, one per core.
const CLIENTS: usize = 2;
/// Flight-recorder slots per shard in the traced probe: the largest
/// opacity group above (`chain`, about 47k events) fits.
const RING: usize = 1 << 16;

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Opacity,
    Sgla,
}

struct Case {
    history: usize,
    model: &'static dyn MemoryModel,
    expect: bool,
    label: String,
}

/// The checks of one family under one kind.
struct Group {
    span: &'static str,
    metric: &'static str,
    kind: Kind,
    cases: Vec<Case>,
}

#[derive(Default, Clone, Copy)]
struct Counts {
    nodes: u64,
    backtracks: u64,
    prune_hits: u64,
}

pub struct Check {
    histories: Vec<History>,
    groups: Vec<Group>,
    pass_s: Vec<f64>,
    requests: Samples,
    /// Per group: traced-pass time in ns, and the probe's search counts.
    group_ns: Vec<u64>,
    counts: Vec<Counts>,
    traced_passes: u64,
    probed: bool,
}

impl Check {
    pub fn new(seed: u64) -> Self {
        let known = answers::litmus();
        let mut histories = Vec::new();
        let mut litmus = [Vec::new(), Vec::new()];
        for l in all_litmus() {
            for o in l.outcomes {
                let label = format!("{}/{}", l.name, o.label);
                for e in registry() {
                    for (i, kind) in ["opacity", "sgla"].into_iter().enumerate() {
                        let expect = *known
                            .get(&(label.as_str(), e.key, kind))
                            .unwrap_or_else(|| panic!("no known verdict for {label}/{}", e.key));
                        litmus[i].push(Case {
                            history: histories.len(),
                            model: e.model,
                            expect,
                            label: format!("{label}/{}/{kind}", e.key),
                        });
                    }
                }
                histories.push(o.history);
            }
        }
        let mut rng = Rng::new(seed);
        for cases in &mut litmus {
            rng.shuffle(cases);
        }
        let [lo, ls] = litmus;
        let mut groups = vec![
            Group {
                span: "core.litmus.opacity",
                metric: "check.litmus.opacity",
                kind: Kind::Opacity,
                cases: lo,
            },
            Group {
                span: "core.litmus.sgla",
                metric: "check.litmus.sgla",
                kind: Kind::Sgla,
                cases: ls,
            },
        ];
        // Stress verdicts are known by construction: chain and wide are
        // opaque (hence SGLA), wide_unsat satisfies neither.
        let stress = [
            ("chain", chain_history(CHAIN_K), true),
            ("wide", wide_history(WIDE_P, 0), true),
            ("wide_unsat", wide_unsat_history(WIDE_UNSAT_P), false),
        ];
        for (family, h, expect) in stress {
            for kind in [Kind::Opacity, Kind::Sgla] {
                let (span, metric) = match (family, kind) {
                    ("chain", Kind::Opacity) => ("core.chain.opacity", "check.chain.opacity"),
                    ("chain", Kind::Sgla) => ("core.chain.sgla", "check.chain.sgla"),
                    ("wide", Kind::Opacity) => ("core.wide.opacity", "check.wide.opacity"),
                    ("wide", Kind::Sgla) => ("core.wide.sgla", "check.wide.sgla"),
                    (_, Kind::Opacity) => ("core.wide_unsat.opacity", "check.wide_unsat.opacity"),
                    (_, Kind::Sgla) => ("core.wide_unsat.sgla", "check.wide_unsat.sgla"),
                };
                groups.push(Group {
                    span,
                    metric,
                    kind,
                    cases: vec![Case {
                        history: histories.len(),
                        model: &Sc,
                        expect,
                        label: metric.to_string(),
                    }],
                });
            }
            histories.push(h);
        }
        let n = groups.len();
        Check {
            histories,
            groups,
            pass_s: Vec::new(),
            requests: Samples::new(),
            group_ns: vec![0; n],
            counts: vec![Counts::default(); n],
            traced_passes: 0,
            probed: false,
        }
    }
}

fn verdict(kind: Kind, h: &History, model: &dyn MemoryModel) -> bool {
    match kind {
        Kind::Opacity => check_opacity(h, model).is_opaque(),
        Kind::Sgla => check_sgla(h, model).is_sgla(),
    }
}

/// What one client saw during one pass.
struct ClientOut {
    secs: f64,
    requests_ms: Vec<f64>,
    group_ns: Vec<u64>,
    checked: u64,
    wrong: Vec<String>,
}

impl Check {
    /// Run every check once, in order.
    fn client(&self, tr: &mut Tracer) -> ClientOut {
        let t0 = Instant::now();
        let mut out = ClientOut {
            secs: 0.0,
            requests_ms: Vec::new(),
            group_ns: Vec::new(),
            checked: 0,
            wrong: Vec::new(),
        };
        for g in &self.groups {
            let tg = Instant::now();
            tr.span(g.span, |_| {
                for c in &g.cases {
                    let t = Instant::now();
                    let v = verdict(g.kind, &self.histories[c.history], c.model);
                    out.requests_ms.push(t.elapsed().as_secs_f64() * 1e3);
                    out.checked += 1;
                    if v != c.expect {
                        out.wrong
                            .push(format!("{}: checker says {v}, known {}", c.label, c.expect));
                    }
                }
            });
            out.group_ns.push(tg.elapsed().as_nanos() as u64);
        }
        out.secs = t0.elapsed().as_secs_f64();
        out
    }
}

impl Workload for Check {
    /// Two clients run the whole corpus at once. On a 2-vCPU VM (Xeon,
    /// 2.1 GHz) one thread alone swung by up to 40% between runs as the
    /// other vCPU's load came and went; with both busy it held within 4%.
    fn pass(&mut self, tally: &mut Tally, tr: &mut Tracer) {
        let traced = tr.on();
        let me: &Check = self;
        let outs: Vec<(ClientOut, Tracer)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|_| {
                    let mut ctr = tr.for_thread();
                    s.spawn(move || (me.client(&mut ctr), ctr))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("check client panicked"))
                .collect()
        });
        for (o, ctr) in outs {
            tr.adopt(ctr);
            tally.check_many(o.checked, o.wrong.len() as u64, || o.wrong.join("; "));
            if traced {
                self.traced_passes += 1;
                for (sum, ns) in self.group_ns.iter_mut().zip(o.group_ns) {
                    *sum += ns;
                }
            } else {
                self.pass_s.push(o.secs);
                for ms in o.requests_ms {
                    self.requests.push(ms);
                }
            }
        }
    }

    /// Count the opacity searches' nodes, backtracks and prunes once,
    /// from the flight-recorder events the plain checker emits. The SGLA
    /// checker emits none, so its counts are not reported.
    fn probe(&mut self, _tally: &mut Tally, tr: &mut Tracer) {
        if self.probed {
            return;
        }
        self.probed = true;
        let rec = Arc::new(FlightRecorder::with_capacity(RING));
        for (gi, g) in self.groups.iter().enumerate() {
            if g.kind != Kind::Opacity {
                continue;
            }
            let before = rec.recorded();
            trace::install(rec.clone());
            tr.span("core.probe", |_| {
                for c in &g.cases {
                    verdict(g.kind, &self.histories[c.history], c.model);
                }
            });
            trace::uninstall();
            let n = (rec.recorded() - before) as usize;
            if n > RING {
                eprintln!(
                    "perfbench: {}: {n} events overflow the ring; counts are partial",
                    g.metric
                );
            }
            let events = rec.events();
            let mut counts = Counts::default();
            for ev in &events[events.len().saturating_sub(n)..] {
                match ev.kind {
                    EventKind::NodeEnter => counts.nodes += 1,
                    EventKind::NodeLeave => counts.backtracks += 1,
                    EventKind::Prune => counts.prune_hits += 1,
                    _ => {}
                }
            }
            self.counts[gi] = counts;
        }
    }

    fn clear(&mut self) {
        self.pass_s.clear();
        self.requests.clear();
    }

    fn requests(&self) -> &Samples {
        &self.requests
    }

    fn per_layer(&self) -> Vec<Metric> {
        let mut m = vec![Metric::new("check_s", median(&self.pass_s), "s")];
        for (gi, g) in self.groups.iter().enumerate() {
            let c = self.counts[gi];
            let ms = self.group_ns[gi] as f64 / 1e6 / self.traced_passes.max(1) as f64;
            m.push(Metric::new(format!("{}.ms", g.metric), ms, "ms"));
            if g.kind != Kind::Opacity {
                continue;
            }
            m.push(Metric::new(
                format!("{}.nodes", g.metric),
                c.nodes as f64,
                "count",
            ));
            m.push(Metric::new(
                format!("{}.backtracks", g.metric),
                c.backtracks as f64,
                "count",
            ));
            m.push(Metric::new(
                format!("{}.prune_hits", g.metric),
                c.prune_hits as f64,
                "count",
            ));
        }
        m
    }
}
