//! `monitor`: the live-checking path. The main thread publishes a
//! seeded tap-event stream (see `stream`) into a blocking `StmTap`; a
//! second thread drains it and calls `Monitor::ingest`. Each pass uses
//! a fresh tap, monitor and verdict memo.
//!
//! Known answer: the windows the monitor flags must be exactly the
//! windows that hold an injected violation. Window latency is the time
//! of each `ingest` call that seals a window, from seal to verdict.

use crate::spans::Tracer;
use crate::stream::{generate, Stream, StreamCfg};
use crate::util::{median, quantile, ratio, Metric, Samples, Tally};
use crate::Workload;
use jungle_mc::verify::SharedVerdictMemo;
use jungle_monitor::{Monitor, MonitorConfig};
use jungle_obs::{Backpressure, HistSnapshot, MonitorStats};
use jungle_stm::StmTap;
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

/// Completed attempts per window. Escalation cost grows exponentially
/// with the window even with 2 processes: on seed 1, on a 2-vCPU VM
/// (Xeon, 2.1 GHz), a window took 0.8 ms at the median and 9 ms at p99
/// with 16 attempts, 40 ms and 0.54 s with 24, and 0.1 s and 1.7 s
/// (p90) with 32. The monitor's default of 64 is far out of reach, so
/// the workload uses 16.
const WINDOW: usize = 16;
const STREAM: StreamCfg = StreamCfg {
    procs: 2,
    vars: 4,
    attempts: 16_000,
    window: WINDOW,
    inject_every: 8,
    read_only_pct: 30,
};
/// The report's tap capacity; the publisher outruns the monitor, so it blocks.
const RING_CAP: usize = 1 << 14;
/// Traced passes keep one publish latency in this many.
const PUBLISH_SAMPLE: usize = 4;

#[derive(Default)]
struct Consumed {
    stats: MonitorStats,
    flagged: BTreeSet<u64>,
    window_ns: Vec<u64>,
    ingest_ns: u64,
    max_depth: u64,
    memo_cross_hits: u64,
}

fn consume(tap: &StmTap, tr: &mut Tracer) -> Consumed {
    let memo = Arc::new(SharedVerdictMemo::new());
    let mut mon = Monitor::new(MonitorConfig::new().window(WINDOW)).with_memo(memo.clone());
    let mut out = Consumed::default();
    let mut buf = Vec::with_capacity(1024);
    tr.span("monitor.consume", |_| loop {
        out.max_depth = out.max_depth.max(tap.queue_depth() as u64);
        if tap.drain_into(&mut buf, 1024) == 0 {
            if tap.is_closed() && tap.queue_depth() == 0 {
                break;
            }
            std::thread::yield_now();
            continue;
        }
        for ev in buf.drain(..) {
            let (sealed, flagged) = (mon.stats().windows_sealed, mon.stats().violations);
            let t = Instant::now();
            mon.ingest(ev);
            let ns = t.elapsed().as_nanos() as u64;
            out.ingest_ns += ns;
            let s = mon.stats();
            if s.windows_sealed != sealed {
                out.window_ns.push(ns);
            }
            if s.violations != flagged {
                out.flagged.insert(s.windows_sealed - 1);
            }
        }
    });
    let flagged = mon.stats().violations;
    out.stats = mon.finish();
    if out.stats.violations != flagged {
        out.flagged.insert(out.stats.windows_sealed - 1);
    }
    out.stats.events_dropped = tap.dropped();
    out.memo_cross_hits = memo.cross_run_hits();
    out
}

#[derive(Default)]
struct Layer {
    passes: u64,
    publish_ns: Vec<u64>,
    publishes: u64,
    blocked: u64,
    max_depth: u64,
    ingest_ns: u64,
    events: u64,
    triage: HistSnapshot,
    escalate: HistSnapshot,
    escalate_ns: u64,
    windows: u64,
    cleared: u64,
    escalated: u64,
    memo_hits: u64,
}

pub struct MonitorWorkload {
    stream: Stream,
    mev_s: Vec<f64>,
    windows: Samples,
    layer: Layer,
}

impl MonitorWorkload {
    pub fn new(seed: u64) -> Self {
        MonitorWorkload {
            stream: generate(seed, &STREAM),
            mev_s: Vec::new(),
            windows: Samples::new(),
            layer: Layer::default(),
        }
    }
}

impl Workload for MonitorWorkload {
    fn pass(&mut self, tally: &mut Tally, tr: &mut Tracer) {
        let traced = tr.on();
        let tap = StmTap::new(RING_CAP, Backpressure::Block);
        let events = &self.stream.events;
        let mut consumer_tr = tr.for_thread();
        let (mut publish_ns, mut blocked) = (Vec::new(), 0u64);
        let t0 = Instant::now();
        let (got, consumer_tr) = std::thread::scope(|s| {
            let consumer = s.spawn(|| {
                let got = consume(&tap, &mut consumer_tr);
                (got, consumer_tr)
            });
            tr.span("tap.publish", |_| {
                for (i, ev) in events.iter().enumerate() {
                    if !traced {
                        tap.publish(ev.pid, ev.op);
                        continue;
                    }
                    blocked += u64::from(tap.queue_depth() >= RING_CAP);
                    let t = Instant::now();
                    tap.publish(ev.pid, ev.op);
                    if i % PUBLISH_SAMPLE == 0 {
                        publish_ns.push(t.elapsed().as_nanos() as u64);
                    }
                }
            });
            tap.close();
            consumer.join().expect("monitor consumer panicked")
        });
        let secs = t0.elapsed().as_secs_f64();
        tr.adopt(consumer_tr);

        let st = &got.stats;
        tally.check(
            st.events_dropped == 0 && st.ops_ingested == events.len() as u64,
            || {
                format!(
                    "monitor ingested {} of {} events, {} dropped",
                    st.ops_ingested,
                    events.len(),
                    st.events_dropped
                )
            },
        );
        tally.check(got.memo_cross_hits == 0, || {
            "memo answered from a previous run".into()
        });
        let known: BTreeSet<u64> = self.stream.injected_windows.iter().copied().collect();
        let wrong = got.flagged.symmetric_difference(&known).count() as u64;
        tally.check_many(st.windows_sealed, wrong, || {
            let missed: Vec<_> = known.difference(&got.flagged).collect();
            let extra: Vec<_> = got.flagged.difference(&known).collect();
            format!(
                "monitor flagged {} windows, {} injected: missed {missed:?}, flagged opaque-by-construction {extra:?}",
                got.flagged.len(),
                known.len()
            )
        });

        if !traced {
            self.mev_s.push(events.len() as f64 / secs / 1e6);
            for &ns in &got.window_ns {
                self.windows.push(ns as f64 / 1e6);
            }
            return;
        }
        let l = &mut self.layer;
        l.passes += 1;
        l.publish_ns.extend(publish_ns);
        l.publishes += events.len() as u64;
        l.blocked += blocked;
        l.max_depth = l.max_depth.max(got.max_depth);
        l.ingest_ns += got.ingest_ns;
        l.events += st.ops_ingested;
        l.triage.absorb(&st.triage_window_ns);
        l.escalate.absorb(&st.escalate_window_ns);
        l.escalate_ns += st.escalate_ns;
        l.windows += st.windows_sealed;
        l.cleared += st.triage_cleared;
        l.escalated += st.escalated;
        l.memo_hits += st.memo_hits;
    }

    fn clear(&mut self) {
        self.mev_s.clear();
        self.windows.clear();
        self.layer = Layer::default();
    }

    fn requests(&self) -> &Samples {
        &self.windows
    }

    fn per_layer(&self) -> Vec<Metric> {
        let l = &self.layer;
        let mut publish = l.publish_ns.clone();
        vec![
            Metric::new("monitor_mev_s", median(&self.mev_s), "Mevent/s"),
            Metric::new("window_p50_ms", self.windows.quantile(0.5), "ms"),
            Metric::new("window_p99_ms", self.windows.quantile(0.99), "ms"),
            Metric::new(
                "tap.publish_ns_p50",
                quantile(&mut publish, 0.5) as f64,
                "ns",
            ),
            Metric::new(
                "tap.publish_ns_p99",
                quantile(&mut publish, 0.99) as f64,
                "ns",
            ),
            Metric::new("tap.blocked_share", ratio(l.blocked, l.publishes), "ratio"),
            Metric::new("tap.max_depth", l.max_depth as f64, "count"),
            Metric::new("monitor.ingest_ns", ratio(l.ingest_ns, l.events), "ns"),
            Metric::new("monitor.triage_us_p50", l.triage.p50() as f64 / 1e3, "us"),
            Metric::new("monitor.triage_us_p99", l.triage.p99() as f64 / 1e3, "us"),
            Metric::new(
                "monitor.escalate_us_p50",
                l.escalate.p50() as f64 / 1e3,
                "us",
            ),
            Metric::new(
                "monitor.escalate_us_p99",
                l.escalate.p99() as f64 / 1e3,
                "us",
            ),
            Metric::new(
                "monitor.escalate_share",
                ratio(l.escalate_ns, l.ingest_ns),
                "ratio",
            ),
            Metric::new(
                "monitor.cleared_ratio",
                ratio(l.cleared, l.windows),
                "ratio",
            ),
            Metric::new("monitor.escalated", ratio(l.escalated, l.passes), "count"),
            Metric::new(
                "monitor.memo_hit_ratio",
                ratio(l.memo_hits, l.escalated),
                "ratio",
            ),
        ]
    }
}
