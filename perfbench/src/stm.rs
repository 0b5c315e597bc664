//! `stm`: contended STM traffic, the paper's section 6.1 setting. Two
//! threads run a closed loop over seeded op streams that mix
//! transactional read-modify-writes with non-transactional reads and
//! writes on eight shared variables. One pass gives each STM in turn a
//! fresh instance and the same fixed number of operations. Recorder,
//! tap and metrics stay off, so the operations take their bare paths.
//!
//! Invariant: variables `0..COUNTERS` are written only by transactions,
//! each of which adds 1 to one of them, so after a slice they must sum
//! to the number of committed transactions.

use crate::spans::Tracer;
use crate::util::{median, quantile, ratio, Metric, Rng, Samples, Tally};
use crate::Workload;
use jungle_core::ids::ProcId;
use jungle_stm::{
    atomically, Ctx, GlobalLockStm, StrongStm, Tl2Stm, TmAlgo, VersionedStm, WriteTxnStm,
};
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

const THREADS: usize = 2;
const VARS: usize = 8;
/// Variables `0..COUNTERS` are transaction-only counters; the rest also
/// take non-transactional writes.
const COUNTERS: usize = 4;
const STREAM_LEN: usize = 4096;
/// Operations per thread per STM per pass.
const OPS_PER_SLICE: usize = 50_000;
/// Untraced passes time each run of this many consecutive operations of
/// one thread as one request. The median latency of single sampled
/// transactions read 0.14 us in one run and 0.5-0.7 us in others with
/// the same seed and binary; a batch averages over the mix.
const REQUEST_BATCH: usize = 64;
/// Traced passes keep one transaction latency in this many.
const TXN_SAMPLE: usize = 4;

pub const ALGOS: [&str; 6] = [
    "global-lock",
    "write-txn",
    "versioned",
    "strong",
    "strong-optimized",
    "tl2",
];

fn make_stm(i: usize) -> Box<dyn TmAlgo + Send + Sync> {
    match i {
        0 => Box::new(GlobalLockStm::new(VARS)),
        1 => Box::new(WriteTxnStm::new(VARS)),
        2 => Box::new(VersionedStm::new(VARS)),
        3 => Box::new(StrongStm::new(VARS)),
        4 => Box::new(StrongStm::new_optimized(VARS)),
        _ => Box::new(Tl2Stm::new(VARS)),
    }
}

#[derive(Clone, Copy, Debug)]
enum Op {
    /// Read `also`, then increment `counter`.
    Txn {
        counter: usize,
        also: usize,
    },
    NtRead(usize),
    NtWrite(usize, u64),
}

/// Half transactions, 30% non-transactional reads of any variable, 20%
/// non-transactional writes of the non-counter variables.
fn op_stream(rng: &mut Rng) -> Vec<Op> {
    (0..STREAM_LEN)
        .map(|_| match rng.below(10) {
            0..=4 => Op::Txn {
                counter: rng.below(COUNTERS),
                also: rng.below(VARS),
            },
            5..=7 => Op::NtRead(rng.below(VARS)),
            _ => Op::NtWrite(
                COUNTERS + rng.below(VARS - COUNTERS),
                rng.next_u64() % 1_000,
            ),
        })
        .collect()
}

#[derive(Default)]
struct WorkerOut {
    start: Option<Instant>,
    end: Option<Instant>,
    commits: u64,
    aborts: u64,
    requests_ns: Vec<u64>,
    txn_ns: Vec<u64>,
    nt_read: (u64, u64),
    nt_write: (u64, u64),
}

/// A barrier that spins, so that the workers stay on their cores
/// between slices instead of sleeping and being placed anew. Round `r`
/// (from 0) opens once every party has arrived `r + 1` times.
struct SpinBarrier {
    parties: usize,
    arrived: AtomicUsize,
}

impl SpinBarrier {
    fn new(parties: usize) -> Self {
        SpinBarrier {
            parties,
            arrived: AtomicUsize::new(0),
        }
    }

    fn wait(&self, round: usize) {
        self.arrived.fetch_add(1, Ordering::AcqRel);
        let mut spins = 0u32;
        while self.arrived.load(Ordering::Acquire) < self.parties * (round + 1) {
            spins += 1;
            if spins < 10_000 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }
}

fn worker(tm: &dyn TmAlgo, pid: usize, ops: &[Op], traced: bool) -> WorkerOut {
    let mut cx = Ctx::new(ProcId(pid as u32), None);
    let mut out = WorkerOut::default();
    let mut txns = 0usize;
    out.start = Some(Instant::now());
    let mut batch = out.start.expect("just set");
    for i in 0..OPS_PER_SLICE {
        let op = ops[i % ops.len()];
        let is_txn = matches!(op, Op::Txn { .. });
        txns += usize::from(is_txn);
        let t = traced.then(Instant::now);
        match op {
            Op::Txn { counter, also } => atomically(tm, &mut cx, |tx| {
                let c = tx.read(counter)?;
                black_box(tx.read(also)?);
                tx.write(counter, c + 1)
            }),
            Op::NtRead(v) => {
                black_box(tm.nt_read(&mut cx, v));
            }
            Op::NtWrite(v, val) => tm.nt_write(&mut cx, v, val),
        }
        let Some(t) = t else {
            if (i + 1).is_multiple_of(REQUEST_BATCH) {
                let now = Instant::now();
                out.requests_ns.push((now - batch).as_nanos() as u64);
                batch = now;
            }
            continue;
        };
        let ns = t.elapsed().as_nanos() as u64;
        match op {
            Op::Txn { .. } => {
                if txns.is_multiple_of(TXN_SAMPLE) {
                    out.txn_ns.push(ns);
                }
            }
            Op::NtRead(_) => out.nt_read = (out.nt_read.0 + ns, out.nt_read.1 + 1),
            Op::NtWrite(..) => out.nt_write = (out.nt_write.0 + ns, out.nt_write.1 + 1),
        }
    }
    out.end = Some(Instant::now());
    out.commits = cx.commits;
    out.aborts = cx.aborts;
    out
}

#[derive(Default)]
struct AlgoStats {
    mops: Vec<f64>,
    commits: u64,
    aborts: u64,
    txn_ns: Vec<u64>,
    nt_read: (u64, u64),
    nt_write: (u64, u64),
}

pub struct Stm {
    streams: Vec<Vec<Op>>,
    stats: Vec<AlgoStats>,
    requests: Samples,
}

impl Stm {
    pub fn new(seed: u64) -> Self {
        let mut rng = Rng::new(seed);
        Stm {
            streams: (0..THREADS).map(|_| op_stream(&mut rng)).collect(),
            stats: ALGOS.iter().map(|_| AlgoStats::default()).collect(),
            requests: Samples::new(),
        }
    }
}

impl Workload for Stm {
    fn pass(&mut self, tally: &mut Tally, tr: &mut Tracer) {
        let traced = tr.on();
        let tms: Vec<_> = (0..ALGOS.len()).map(make_stm).collect();
        let start_line = SpinBarrier::new(THREADS);
        // The same two threads run every STM's slice in turn.
        let by_thread: Vec<Vec<WorkerOut>> = tr.span("stm.slices", |_| {
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..THREADS)
                    .map(|pid| {
                        let (ops, tms, start_line) = (&self.streams[pid], &tms, &start_line);
                        s.spawn(move || {
                            let mut outs = Vec::with_capacity(tms.len());
                            for (i, tm) in tms.iter().enumerate() {
                                start_line.wait(i);
                                outs.push(worker(tm.as_ref(), pid, ops, traced));
                            }
                            outs
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("stm worker panicked"))
                    .collect()
            })
        });
        let mut by_thread: Vec<_> = by_thread.into_iter().map(Vec::into_iter).collect();
        for (i, (name, tm)) in ALGOS.iter().zip(&tms).enumerate() {
            let outs: Vec<WorkerOut> = by_thread
                .iter_mut()
                .map(|slices| slices.next().expect("one slice per STM"))
                .collect();
            let commits: u64 = outs.iter().map(|o| o.commits).sum();
            let mut cx = Ctx::new(ProcId(0), None);
            let total: u64 = (0..COUNTERS).map(|v| tm.nt_read(&mut cx, v)).sum();
            tally.check(total == commits, || {
                format!("{name}: counters sum to {total} after {commits} committed increments")
            });
            let st = &mut self.stats[i];
            if traced {
                for o in outs {
                    st.txn_ns.extend(o.txn_ns);
                    st.nt_read = (st.nt_read.0 + o.nt_read.0, st.nt_read.1 + o.nt_read.1);
                    st.nt_write = (st.nt_write.0 + o.nt_write.0, st.nt_write.1 + o.nt_write.1);
                }
                continue;
            }
            let start = outs
                .iter()
                .filter_map(|o| o.start)
                .min()
                .expect("workers ran");
            let end = outs
                .iter()
                .filter_map(|o| o.end)
                .max()
                .expect("workers ran");
            let secs = (end - start).as_secs_f64();
            st.mops.push((THREADS * OPS_PER_SLICE) as f64 / secs / 1e6);
            st.commits += commits;
            st.aborts += outs.iter().map(|o| o.aborts).sum::<u64>();
            for o in outs {
                for &ns in &o.requests_ns {
                    self.requests.push(ns as f64 / 1e6);
                }
            }
        }
    }

    fn clear(&mut self) {
        self.stats
            .iter_mut()
            .for_each(|s| *s = AlgoStats::default());
        self.requests.clear();
    }

    fn requests(&self) -> &Samples {
        &self.requests
    }

    fn per_layer(&self) -> Vec<Metric> {
        let mut m = Vec::new();
        for (name, st) in ALGOS.iter().zip(&self.stats) {
            let mean = |(sum, n): (u64, u64)| sum as f64 / n.max(1) as f64;
            let mut txn = st.txn_ns.clone();
            m.push(Metric::new(
                format!("stm_mops.{name}"),
                median(&st.mops),
                "Mop/s",
            ));
            m.push(Metric::new(
                format!("stm.{name}.txn_ns_p50"),
                quantile(&mut txn, 0.5) as f64,
                "ns",
            ));
            m.push(Metric::new(
                format!("stm.{name}.txn_ns_p99"),
                quantile(&mut txn, 0.99) as f64,
                "ns",
            ));
            m.push(Metric::new(
                format!("stm.{name}.nt_read_ns"),
                mean(st.nt_read),
                "ns",
            ));
            m.push(Metric::new(
                format!("stm.{name}.nt_write_ns"),
                mean(st.nt_write),
                "ns",
            ));
            m.push(Metric::new(
                format!("stm.{name}.abort_ratio"),
                ratio(st.aborts, st.aborts + st.commits),
                "ratio",
            ));
        }
        m
    }
}
