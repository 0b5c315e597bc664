//! The shared TM interpreter: a reactive state machine executing one
//! thread program under an [`AlgoSpec`](super::AlgoSpec).

use super::{AlgoSpec, CommitUpdate, NtWriteImpl};
use crate::layout::{addr_of, lock_owner, packed, GLOBAL_LOCK, LOCK_FREE};
use crate::program::{Stmt, ThreadProg, TxOp};
use jungle_core::ids::{ProcId, Val, Var};
use jungle_core::op::{Command, Op};
use jungle_memsim::process::{PInstr, Process, Resume, Step};

fn rd_op(var: Var, val: Val) -> Op {
    Op::Cmd(Command::Read { var, val })
}

fn wr_op(var: Var, val: Val) -> Op {
    Op::Cmd(Command::Write { var, val })
}

/// Interpreter phases. Phases that issued an instruction are resumed
/// with its result in `last`.
#[derive(Clone, Copy, Debug)]
enum Ph {
    NextStmt,
    // Transaction start (lock acquisition).
    TxnStartInv,
    TxnAcqCas,
    TxnAcqCheck,
    TxnAcqRetry,
    // Guarded transactions: transactional read of the guard.
    GuardInv(Var, Val),
    GuardCheck(Var, Val),
    GuardLoaded(Var, Val),
    // Transactional operations.
    TxnOpNext,
    TxnReadCheck(Var),
    TxnReadLoaded(Var),
    TxnWriteEnsure(Var, Val),
    TxnWriteLoaded(Var, Val),
    TxnWriteRecord(Var, Val),
    // Transaction end.
    TxnEndInv,
    CommitUpdate(usize),
    CommitIssued(usize),
    EndRelease,
    TxnEndResp,
    // Non-transactional read.
    NtReadInv(Var),
    NtReadLoad(Var),
    NtReadResp(Var),
    // Non-transactional write.
    NtWriteInv(Var, Val),
    NtWriteBody(Var, Val),
    NtWAcqCheck(Var, Val),
    NtWAcqRetry(Var, Val),
    NtWStore(Var, Val),
    NtWRelease(Var, Val),
    NtWriteResp(Var, Val),
    Finished,
}

/// One thread of a program, compiled against an algorithm spec.
pub struct TmProcess {
    spec: AlgoSpec,
    pid: ProcId,
    stmts: Vec<Stmt>,
    stmt_idx: usize,
    op_idx: usize,
    phase: Ph,
    /// Words observed at first access per variable (full packed words
    /// for the versioned TM).
    readset: Vec<(Var, Val)>,
    /// Pending transactional writes (program values).
    writeset: Vec<(Var, Val)>,
    /// Process-local version counter (versioned TM).
    version: u32,
    /// Set when a guarded transaction's guard did not match: the body
    /// is skipped and the transaction commits empty.
    skip_body: bool,
}

impl TmProcess {
    /// Compile `prog` for process `pid` under `spec`.
    pub fn new(spec: AlgoSpec, pid: ProcId, prog: ThreadProg) -> Self {
        TmProcess {
            spec,
            pid,
            stmts: prog.0,
            stmt_idx: 0,
            op_idx: 0,
            phase: Ph::NextStmt,
            readset: Vec::new(),
            writeset: Vec::new(),
            version: 0,
            skip_body: false,
        }
    }

    fn decode(&self, word: Val) -> Val {
        if self.spec.packed {
            packed::value(word)
        } else {
            word
        }
    }

    fn encode_fresh(&mut self, val: Val) -> Val {
        if self.spec.packed {
            self.version += 1;
            packed::pack(val, self.pid, self.version)
        } else {
            val
        }
    }

    fn readset_get(&self, v: Var) -> Option<Val> {
        self.readset.iter().find(|(x, _)| *x == v).map(|(_, w)| *w)
    }

    fn writeset_get(&self, v: Var) -> Option<Val> {
        self.writeset.iter().find(|(x, _)| *x == v).map(|(_, w)| *w)
    }

    fn cur_txn(&self) -> (&[TxOp], bool) {
        match &self.stmts[self.stmt_idx] {
            Stmt::Txn { ops, abort } => (ops, *abort),
            Stmt::TxnGuard { ops, .. } => (ops, false),
            _ => unreachable!("cur_txn outside a transaction statement"),
        }
    }

    /// The guard of the current statement, if it is a guarded
    /// transaction.
    fn cur_guard(&self) -> Option<(Var, Val)> {
        match &self.stmts[self.stmt_idx] {
            Stmt::TxnGuard { guard, expect, .. } => Some((*guard, *expect)),
            _ => None,
        }
    }
}

impl Process for TmProcess {
    fn next(&mut self, last: Resume) -> Step {
        let mut last = last;
        loop {
            match self.phase {
                Ph::Finished => return Step::Done,
                Ph::NextStmt => {
                    self.op_idx = 0;
                    self.readset.clear();
                    self.writeset.clear();
                    self.skip_body = false;
                    if self.stmt_idx >= self.stmts.len() {
                        self.phase = Ph::Finished;
                        continue;
                    }
                    self.phase = match self.stmts[self.stmt_idx] {
                        Stmt::Txn { .. } | Stmt::TxnGuard { .. } => Ph::TxnStartInv,
                        Stmt::NtRead(v) => Ph::NtReadInv(v),
                        Stmt::NtWrite(v, val) => Ph::NtWriteInv(v, val),
                    };
                }

                // ---- transaction start -------------------------------
                Ph::TxnStartInv => {
                    self.phase = Ph::TxnAcqCas;
                    return Step::Inv(Op::Start);
                }
                Ph::TxnAcqCas => {
                    self.phase = Ph::TxnAcqCheck;
                    return Step::Instr(PInstr::Cas(GLOBAL_LOCK, LOCK_FREE, lock_owner(self.pid)));
                }
                Ph::TxnAcqCheck => {
                    if last == Some(1) {
                        self.phase = match self.cur_guard() {
                            Some((g, e)) => Ph::GuardInv(g, e),
                            None => Ph::TxnOpNext,
                        };
                        return Step::Resp(Op::Start);
                    }
                    self.phase = Ph::TxnAcqRetry;
                    return Step::Instr(PInstr::Load(GLOBAL_LOCK));
                }
                Ph::TxnAcqRetry => {
                    if last == Some(LOCK_FREE) {
                        self.phase = Ph::TxnAcqCas;
                    } else {
                        self.phase = Ph::TxnAcqRetry;
                        return Step::Instr(PInstr::Load(GLOBAL_LOCK));
                    }
                }

                // ---- guarded transactions ----------------------------
                Ph::GuardInv(g, e) => {
                    self.phase = Ph::GuardCheck(g, e);
                    return Step::Inv(rd_op(g, 0));
                }
                Ph::GuardCheck(g, e) => {
                    if let Some(val) = self
                        .writeset_get(g)
                        .or_else(|| self.readset_get(g).map(|w| self.decode(w)))
                    {
                        self.skip_body = val != e;
                        self.phase = Ph::TxnOpNext;
                        return Step::Resp(rd_op(g, val));
                    }
                    self.phase = Ph::GuardLoaded(g, e);
                    return Step::Instr(PInstr::Load(addr_of(g)));
                }
                Ph::GuardLoaded(g, e) => {
                    let word = last.expect("load result");
                    self.readset.push((g, word));
                    let val = self.decode(word);
                    self.skip_body = val != e;
                    self.phase = Ph::TxnOpNext;
                    return Step::Resp(rd_op(g, val));
                }

                // ---- transactional operations ------------------------
                Ph::TxnOpNext => {
                    let (ops, _) = self.cur_txn();
                    if self.skip_body || self.op_idx >= ops.len() {
                        self.phase = Ph::TxnEndInv;
                        continue;
                    }
                    match ops[self.op_idx] {
                        TxOp::Read(v) => {
                            self.phase = Ph::TxnReadCheck(v);
                            return Step::Inv(rd_op(v, 0));
                        }
                        TxOp::Write(v, val) => {
                            self.phase = Ph::TxnWriteEnsure(v, val);
                            return Step::Inv(wr_op(v, val));
                        }
                    }
                }
                Ph::TxnReadCheck(v) => {
                    // Read-own-writes, then readset, then memory.
                    if let Some(val) = self.writeset_get(v) {
                        self.op_idx += 1;
                        self.phase = Ph::TxnOpNext;
                        return Step::Resp(rd_op(v, val));
                    }
                    if let Some(word) = self.readset_get(v) {
                        let val = self.decode(word);
                        self.op_idx += 1;
                        self.phase = Ph::TxnOpNext;
                        return Step::Resp(rd_op(v, val));
                    }
                    self.phase = Ph::TxnReadLoaded(v);
                    return Step::Instr(PInstr::Load(addr_of(v)));
                }
                Ph::TxnReadLoaded(v) => {
                    let word = last.expect("load result");
                    self.readset.push((v, word));
                    let val = self.decode(word);
                    self.op_idx += 1;
                    self.phase = Ph::TxnOpNext;
                    return Step::Resp(rd_op(v, val));
                }
                Ph::TxnWriteEnsure(v, val) => {
                    // Figure 6: a transactional write first issues a
                    // transactional read (to latch the expected word for
                    // the commit-time CAS).
                    if self.readset_get(v).is_some() || self.writeset_get(v).is_some() {
                        self.phase = Ph::TxnWriteRecord(v, val);
                        continue;
                    }
                    self.phase = Ph::TxnWriteLoaded(v, val);
                    return Step::Instr(PInstr::Load(addr_of(v)));
                }
                Ph::TxnWriteLoaded(v, val) => {
                    let word = last.expect("load result");
                    self.readset.push((v, word));
                    self.phase = Ph::TxnWriteRecord(v, val);
                }
                Ph::TxnWriteRecord(v, val) => {
                    match self.writeset.iter_mut().find(|(x, _)| *x == v) {
                        Some(entry) => entry.1 = val,
                        None => self.writeset.push((v, val)),
                    }
                    self.op_idx += 1;
                    self.phase = Ph::TxnOpNext;
                    return Step::Resp(wr_op(v, val));
                }

                // ---- transaction end ---------------------------------
                Ph::TxnEndInv => {
                    let (_, abort) = self.cur_txn();
                    if abort {
                        self.phase = Ph::EndRelease;
                        return Step::Inv(Op::Abort);
                    }
                    self.phase = Ph::CommitUpdate(0);
                    return Step::Inv(Op::Commit);
                }
                Ph::CommitUpdate(wix) => {
                    if wix >= self.writeset.len() || self.spec.commit == CommitUpdate::Skip {
                        self.phase = Ph::EndRelease;
                        continue;
                    }
                    let (v, val) = self.writeset[wix];
                    let new_word = self.encode_fresh(val);
                    self.phase = Ph::CommitIssued(wix);
                    match self.spec.commit {
                        CommitUpdate::Cas => {
                            let expected = self
                                .readset_get(v)
                                .expect("write implies an earlier transactional read");
                            return Step::Instr(PInstr::Cas(addr_of(v), expected, new_word));
                        }
                        CommitUpdate::Store => {
                            return Step::Instr(PInstr::Store(addr_of(v), new_word));
                        }
                        CommitUpdate::Skip => unreachable!(),
                    }
                }
                Ph::CommitIssued(wix) => {
                    // Figure 6 ignores the CAS result: a failure means a
                    // non-transactional write intervened and is ordered
                    // after the transaction.
                    self.phase = Ph::CommitUpdate(wix + 1);
                }
                Ph::EndRelease => {
                    self.phase = Ph::TxnEndResp;
                    return Step::Instr(PInstr::Store(GLOBAL_LOCK, LOCK_FREE));
                }
                Ph::TxnEndResp => {
                    let (_, abort) = self.cur_txn();
                    let op = if abort { Op::Abort } else { Op::Commit };
                    self.stmt_idx += 1;
                    self.phase = Ph::NextStmt;
                    return Step::Resp(op);
                }

                // ---- non-transactional read --------------------------
                Ph::NtReadInv(v) => {
                    self.phase = Ph::NtReadLoad(v);
                    return Step::Inv(rd_op(v, 0));
                }
                Ph::NtReadLoad(v) => {
                    self.phase = Ph::NtReadResp(v);
                    return Step::Instr(PInstr::Load(addr_of(v)));
                }
                Ph::NtReadResp(v) => {
                    let val = self.decode(last.expect("load result"));
                    self.stmt_idx += 1;
                    self.phase = Ph::NextStmt;
                    return Step::Resp(rd_op(v, val));
                }

                // ---- non-transactional write -------------------------
                Ph::NtWriteInv(v, val) => {
                    self.phase = Ph::NtWriteBody(v, val);
                    return Step::Inv(wr_op(v, val));
                }
                Ph::NtWriteBody(v, val) => match self.spec.nt_write {
                    NtWriteImpl::Plain | NtWriteImpl::VersionedPack => {
                        let word = self.encode_fresh(val);
                        self.phase = Ph::NtWriteResp(v, val);
                        return Step::Instr(PInstr::Store(addr_of(v), word));
                    }
                    NtWriteImpl::Locked => {
                        self.phase = Ph::NtWAcqCheck(v, val);
                        return Step::Instr(PInstr::Cas(
                            GLOBAL_LOCK,
                            LOCK_FREE,
                            lock_owner(self.pid),
                        ));
                    }
                },
                Ph::NtWAcqCheck(v, val) => {
                    if last == Some(1) {
                        self.phase = Ph::NtWStore(v, val);
                        continue;
                    }
                    self.phase = Ph::NtWAcqRetry(v, val);
                    return Step::Instr(PInstr::Load(GLOBAL_LOCK));
                }
                Ph::NtWAcqRetry(v, val) => {
                    if last == Some(LOCK_FREE) {
                        self.phase = Ph::NtWriteBody(v, val);
                    } else {
                        self.phase = Ph::NtWAcqRetry(v, val);
                        return Step::Instr(PInstr::Load(GLOBAL_LOCK));
                    }
                }
                Ph::NtWStore(v, val) => {
                    self.phase = Ph::NtWRelease(v, val);
                    return Step::Instr(PInstr::Store(addr_of(v), val));
                }
                Ph::NtWRelease(v, val) => {
                    self.phase = Ph::NtWriteResp(v, val);
                    return Step::Instr(PInstr::Store(GLOBAL_LOCK, LOCK_FREE));
                }
                Ph::NtWriteResp(v, val) => {
                    self.stmt_idx += 1;
                    self.phase = Ph::NextStmt;
                    return Step::Resp(wr_op(v, val));
                }
            }
            // Results are consumed by the first phase that observes
            // them; subsequent fall-through phases see None.
            last = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algos::{GlobalLockTm, TmAlgo, VersionedTm, WriteTxnTm};
    use jungle_core::ids::{X, Y};
    use jungle_isa::instr::Instr;
    use jungle_memsim::{DirectedScheduler, HwModel, Machine};

    fn run_single(algo: &dyn TmAlgo, prog: ThreadProg) -> jungle_isa::Trace {
        let m = Machine::new(HwModel::Sc, vec![algo.make_process(ProcId(0), prog)]);
        let mut s = DirectedScheduler::default();
        let r = m.run(&mut s, 10_000);
        assert!(r.completed, "single-threaded run must complete");
        r.trace
    }

    #[test]
    fn global_lock_txn_roundtrip() {
        let prog = ThreadProg(vec![
            Stmt::txn(vec![TxOp::Write(X, 7), TxOp::Read(X)]),
            Stmt::NtRead(X),
        ]);
        let trace = run_single(&GlobalLockTm, prog);
        // The transactional read must return the pending write (7), and
        // the final non-transactional read must see the committed 7.
        let reads: Vec<Val> = trace
            .ops()
            .iter()
            .filter_map(|o| o.op.command().and_then(|c| c.read_val()))
            .collect();
        assert_eq!(reads, vec![7, 7]);
        // The commit published with a CAS.
        assert!(trace.instrs().iter().any(|i| matches!(
            i.instr,
            Instr::Cas {
                addr: 0,
                ok: true,
                ..
            }
        )));
    }

    #[test]
    fn aborted_txn_discards_writes() {
        let prog = ThreadProg(vec![
            Stmt::aborting_txn(vec![TxOp::Write(X, 9)]),
            Stmt::NtRead(X),
        ]);
        let trace = run_single(&GlobalLockTm, prog);
        let reads: Vec<Val> = trace
            .ops()
            .iter()
            .filter_map(|o| o.op.command().and_then(|c| c.read_val()))
            .collect();
        assert_eq!(reads, vec![0], "aborted write must not be visible");
    }

    #[test]
    fn versioned_nt_write_is_single_store() {
        let prog = ThreadProg(vec![Stmt::NtWrite(X, 5), Stmt::NtRead(X)]);
        let trace = run_single(&VersionedTm, prog);
        // Exactly one store, and the read decodes the packed value.
        let stores: Vec<&Instr> = trace
            .instrs()
            .iter()
            .filter_map(|i| match &i.instr {
                s @ Instr::Store { .. } => Some(s),
                _ => None,
            })
            .collect();
        assert_eq!(stores.len(), 1);
        if let Instr::Store { val, .. } = stores[0] {
            assert_eq!(packed::value(*val), 5);
            assert_eq!(packed::pid(*val), ProcId(0));
        }
        let reads: Vec<Val> = trace
            .ops()
            .iter()
            .filter_map(|o| o.op.command().and_then(|c| c.read_val()))
            .collect();
        assert_eq!(reads, vec![5]);
    }

    #[test]
    fn versioned_txn_publishes_packed_words() {
        let prog = ThreadProg(vec![Stmt::txn(vec![TxOp::Write(X, 3)]), Stmt::NtRead(X)]);
        let trace = run_single(&VersionedTm, prog);
        let reads: Vec<Val> = trace
            .ops()
            .iter()
            .filter_map(|o| o.op.command().and_then(|c| c.read_val()))
            .collect();
        assert_eq!(reads, vec![3]);
    }

    #[test]
    fn write_txn_nt_write_takes_lock() {
        let prog = ThreadProg(vec![Stmt::NtWrite(Y, 4)]);
        let trace = run_single(&WriteTxnTm, prog);
        assert!(trace.instrs().iter().any(|i| matches!(
            i.instr,
            Instr::Cas {
                addr: GLOBAL_LOCK,
                ok: true,
                ..
            }
        )));
        // Lock released afterwards.
        assert!(trace.instrs().iter().any(|i| matches!(
            i.instr,
            Instr::Store {
                addr: GLOBAL_LOCK,
                val: LOCK_FREE
            }
        )));
    }

    #[test]
    fn two_sequential_txns_same_thread() {
        let prog = ThreadProg(vec![
            Stmt::txn(vec![TxOp::Write(X, 1)]),
            Stmt::txn(vec![TxOp::Read(X), TxOp::Write(Y, 2)]),
            Stmt::NtRead(Y),
        ]);
        let trace = run_single(&GlobalLockTm, prog);
        let reads: Vec<Val> = trace
            .ops()
            .iter()
            .filter_map(|o| o.op.command().and_then(|c| c.read_val()))
            .collect();
        assert_eq!(reads, vec![1, 2]);
    }

    #[test]
    fn contended_lock_eventually_acquired() {
        // Two transactions on two CPUs; a fair-ish random scheduler must
        // complete both.
        use jungle_memsim::RandomScheduler;
        let prog1 = ThreadProg(vec![Stmt::txn(vec![TxOp::Write(X, 1)])]);
        let prog2 = ThreadProg(vec![Stmt::txn(vec![TxOp::Write(X, 2)])]);
        let m = Machine::new(
            HwModel::Sc,
            vec![
                GlobalLockTm.make_process(ProcId(0), prog1),
                GlobalLockTm.make_process(ProcId(1), prog2),
            ],
        );
        let mut s = RandomScheduler::new(3);
        let r = m.run(&mut s, 100_000);
        assert!(r.completed);
        assert_eq!(
            r.trace
                .ops()
                .iter()
                .filter(|o| matches!(o.op, Op::Commit))
                .count(),
            2
        );
    }
}
