//! Seeded tap-event streams for the `monitor` workload.
//!
//! A few simulated processes run transactions over a small set of
//! variables, interleaved step by step by a seeded scheduler. Each
//! transaction validates TL2-style: it snapshots the global version
//! clock at begin, aborts on reading a variable committed after that
//! snapshot, and a writer re-validates its reads at commit. So every
//! attempt, aborted ones included, reads one consistent snapshot and
//! the stream is opaque by construction. Read-only transactions commit
//! without validation at their snapshot; when a writer that began
//! earlier commits between their reads, neither triage order can place
//! them, so their window escalates.
//!
//! At known points the stream also carries an injected non-repeatable
//! read on a reserved variable: process 0 reads it, process 1 overwrites
//! it and commits, and process 0 reads it again and commits. No
//! serialization order explains the two reads, so the window holding
//! the reader is not opaque. Written values are unique, so no read can
//! be explained by an accidental equal write.

use crate::util::Rng;
use jungle_core::ids::ProcId;
use jungle_stm::{TapEvent, TapOp};

#[derive(Clone, Copy, Debug)]
pub struct StreamCfg {
    pub procs: usize,
    /// Ordinary variables `0..vars`; variable `vars` is reserved for
    /// injections.
    pub vars: usize,
    /// Completed transaction attempts (commits and aborts).
    pub attempts: usize,
    /// Completed attempts per monitor window.
    pub window: usize,
    /// Windows between injections; 0 injects nothing.
    pub inject_every: usize,
    /// Share of read-only transactions, in percent.
    pub read_only_pct: u64,
}

#[derive(Debug)]
pub struct Stream {
    pub events: Vec<TapEvent>,
    /// Index, in seal order, of each window that holds an injection.
    /// Windows close at every `window`-th completed attempt, and a
    /// transaction is checked in the window during which it completes.
    pub injected_windows: Vec<u64>,
}

#[derive(Clone, Copy)]
enum Step {
    Read(usize),
    Write(usize),
    Commit,
}

struct Txn {
    rv: u64,
    steps: Vec<Step>,
    pc: usize,
    reads: Vec<usize>,
    writes: Vec<(usize, u64)>,
}

struct Sim {
    rng: Rng,
    events: Vec<TapEvent>,
    val: Vec<u64>,
    ver: Vec<u64>,
    clock: u64,
    ticket: u64,
    fresh: u64,
    completed: usize,
}

impl Sim {
    fn emit(&mut self, p: usize, op: TapOp) {
        self.events.push(TapEvent {
            pid: ProcId(p as u32),
            op,
        });
        if matches!(op, TapOp::Commit { .. } | TapOp::Abort) {
            self.completed += 1;
        }
    }

    fn fresh(&mut self) -> u64 {
        self.fresh += 1;
        self.fresh
    }

    fn commit(&mut self, p: usize) {
        let ticket = self.ticket;
        self.ticket += 1;
        self.emit(p, TapOp::Commit { ticket });
    }

    fn begin(&mut self, p: usize, cfg: &StreamCfg) -> Txn {
        let mut steps = Vec::new();
        let a = self.rng.below(cfg.vars);
        if self.rng.chance(cfg.read_only_pct) {
            let b = (a + 1 + self.rng.below(cfg.vars - 1)) % cfg.vars;
            steps.extend([Step::Read(a), Step::Read(b)]);
            if self.rng.chance(50) {
                steps.push(Step::Read(self.rng.below(cfg.vars)));
            }
        } else {
            steps.extend([Step::Read(a), Step::Write(a)]);
            if self.rng.chance(50) {
                let b = self.rng.below(cfg.vars);
                steps.extend([Step::Read(b), Step::Write(b)]);
            }
        }
        steps.push(Step::Commit);
        self.emit(p, TapOp::Begin);
        Txn {
            rv: self.clock,
            steps,
            pc: 0,
            reads: Vec::new(),
            writes: Vec::new(),
        }
    }

    /// Run `t`'s next step; `false` once the attempt has finished.
    fn step(&mut self, p: usize, t: &mut Txn) -> bool {
        let step = t.steps[t.pc];
        t.pc += 1;
        match step {
            Step::Read(v) => {
                if let Some(&(_, val)) = t.writes.iter().rev().find(|(w, _)| *w == v) {
                    self.emit(p, TapOp::Read { var: v as u64, val });
                } else if self.ver[v] > t.rv {
                    self.emit(p, TapOp::Abort);
                    return false;
                } else {
                    t.reads.push(v);
                    let val = self.val[v];
                    self.emit(p, TapOp::Read { var: v as u64, val });
                }
            }
            Step::Write(v) => {
                let val = self.fresh();
                t.writes.push((v, val));
                self.emit(p, TapOp::Write { var: v as u64, val });
            }
            Step::Commit => {
                if t.writes.is_empty() {
                    self.commit(p);
                } else if t.reads.iter().any(|&r| self.ver[r] > t.rv) {
                    self.emit(p, TapOp::Abort);
                } else {
                    self.clock += 1;
                    for &(v, val) in &t.writes {
                        self.val[v] = val;
                        self.ver[v] = self.clock;
                    }
                    self.commit(p);
                }
                return false;
            }
        }
        true
    }

    /// The injected non-repeatable read on variable `x`.
    fn inject(&mut self, x: usize) {
        let old = self.val[x];
        let new = self.fresh();
        self.emit(0, TapOp::Begin);
        self.emit(
            0,
            TapOp::Read {
                var: x as u64,
                val: old,
            },
        );
        self.emit(1, TapOp::Begin);
        self.emit(
            1,
            TapOp::Write {
                var: x as u64,
                val: new,
            },
        );
        self.clock += 1;
        self.val[x] = new;
        self.ver[x] = self.clock;
        self.commit(1);
        self.emit(
            0,
            TapOp::Read {
                var: x as u64,
                val: new,
            },
        );
        self.commit(0);
    }
}

pub fn generate(seed: u64, cfg: &StreamCfg) -> Stream {
    assert!(cfg.procs >= 2 && cfg.vars >= 2 && cfg.window >= 1);
    let mut sim = Sim {
        rng: Rng::new(seed),
        events: Vec::new(),
        val: vec![0; cfg.vars + 1],
        ver: vec![0; cfg.vars + 1],
        clock: 0,
        ticket: 0,
        fresh: 0,
        completed: 0,
    };
    let mut open: Vec<Option<Txn>> = (0..cfg.procs).map(|_| None).collect();
    let mut injected_windows = Vec::new();
    let spacing = cfg.window * cfg.inject_every;
    let mut last_injection = 0;
    while sim.completed < cfg.attempts {
        let draining = spacing > 0 && sim.completed - last_injection >= spacing;
        if draining && open.iter().all(Option::is_none) {
            sim.inject(cfg.vars);
            // The reader's commit is the latest completed attempt.
            injected_windows.push(((sim.completed - 1) / cfg.window) as u64);
            last_injection = sim.completed;
            continue;
        }
        let p = sim.rng.below(cfg.procs);
        if let Some(mut t) = open[p].take() {
            if sim.step(p, &mut t) {
                open[p] = Some(t);
            }
        } else if !draining {
            // While draining for an injection, idle processes stay idle.
            open[p] = Some(sim.begin(p, cfg));
        }
    }
    // Finish the attempts still open so the stream ends quiescent.
    for (p, slot) in open.iter_mut().enumerate() {
        if let Some(mut t) = slot.take() {
            while sim.step(p, &mut t) {}
        }
    }
    Stream {
        events: sim.events,
        injected_windows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jungle_core::model::Sc;
    use jungle_core::opacity::check_opacity;
    use jungle_monitor::{build_history, WindowBuilder};

    fn cfg(attempts: usize, inject_every: usize) -> StreamCfg {
        StreamCfg {
            procs: 2,
            vars: 4,
            attempts,
            window: 16,
            inject_every,
            read_only_pct: 30,
        }
    }

    #[test]
    fn small_stream_is_opaque_as_a_whole() {
        for seed in 0..5 {
            let s = generate(seed, &cfg(24, 0));
            let (h, repaired) = build_history(&s.events, &[]);
            assert_eq!(repaired, 0);
            assert!(check_opacity(&h, &Sc).is_opaque(), "seed {seed}");
        }
    }

    #[test]
    fn every_injected_window_is_not_opaque() {
        for seed in 0..3 {
            let s = generate(seed, &cfg(400, 4));
            assert!(s.injected_windows.len() >= 5, "seed {seed}");
            let mut builder = WindowBuilder::new(16);
            let mut windows = Vec::new();
            for ev in &s.events {
                if builder.push(*ev) {
                    windows.extend(builder.seal());
                }
            }
            windows.extend(builder.flush());
            for &w in &s.injected_windows {
                let win = &windows[w as usize];
                let h = win.reseeded().unwrap_or_else(|| win.history.clone());
                assert!(
                    !check_opacity(&win.history, &Sc).is_opaque(),
                    "seed {seed} window {w}"
                );
                assert!(
                    !check_opacity(&h, &Sc).is_opaque(),
                    "seed {seed} window {w} reseeded"
                );
            }
        }
    }

    #[test]
    fn same_seed_same_bytes() {
        let bytes = |seed| format!("{:?}", generate(seed, &cfg(300, 4)));
        assert_eq!(bytes(11), bytes(11));
        assert_ne!(bytes(11), bytes(12));
    }
}
