//! Golden determinism: one FNV-1a fingerprint over everything the
//! simulator produces for the fixed experiments — the seeded sweep
//! schedules and the DPOR class sweeps. A change to the simulator's
//! data structures must leave every schedule, trace, footprint and
//! final memory bit-for-bit identical; any drift moves the fingerprint.
//!
//! The constant was frozen on the simulator before its allocation-free
//! rewrite. Update it only for a change that is *meant* to alter
//! schedules, and say so in the change log.

use jungle_core::fingerprint::{fold_op, Fnv1a};
use jungle_isa::instr::Instr;
use jungle_mc::theorems::all_fixed_experiments;
use jungle_mc::verify::{class_sweep_dpor, machine_for, scheduler_for_seed};
use jungle_memsim::RunResult;

const SEEDS: u64 = 500;
const MAX_STEPS: usize = 8_000;
const GOLDEN: u64 = 0xc398_74a6_5b6e_b129;

fn fold_instr(f: &mut Fnv1a, instr: &Instr) {
    match instr {
        Instr::Load { addr, val } => {
            f.word(1);
            f.word(u64::from(*addr));
            f.word(*val);
        }
        Instr::Store { addr, val } => {
            f.word(2);
            f.word(u64::from(*addr));
            f.word(*val);
        }
        Instr::Cas {
            addr,
            expect,
            new,
            ok,
        } => {
            f.word(3);
            f.word(u64::from(*addr));
            f.word(*expect);
            f.word(*new);
            f.word(u64::from(*ok));
        }
        Instr::Inv(op) => {
            f.word(4);
            fold_op(f, op);
        }
        Instr::Resp(op) => {
            f.word(5);
            fold_op(f, op);
        }
    }
}

fn fold_addrs(f: &mut Fnv1a, addrs: &[u32]) {
    f.word(addrs.len() as u64);
    for &a in addrs {
        f.word(u64::from(a));
    }
}

fn fold_run(f: &mut Fnv1a, r: &RunResult) {
    f.word(r.trace.instrs().len() as u64);
    for ii in r.trace.instrs() {
        f.word(u64::from(ii.proc.0));
        f.word(u64::from(ii.op.0));
        fold_instr(f, &ii.instr);
    }
    f.word(r.footprints.len() as u64);
    for fp in &r.footprints {
        f.word(fp.cpu as u64);
        fold_addrs(f, &fp.reads);
        fold_addrs(f, &fp.writes);
        f.word(u64::from(fp.fence) | u64::from(fp.inv) << 1 | u64::from(fp.resp) << 2);
    }
    f.word(r.final_mem.len() as u64);
    for &(addr, val) in &r.final_mem {
        f.word(u64::from(addr));
        f.word(val);
    }
    f.word(r.steps as u64);
    f.word(u64::from(r.completed));
    f.word(u64::from(r.aborted));
}

#[test]
fn simulator_output_matches_golden_fingerprint() {
    let mut f = Fnv1a::new();
    for e in all_fixed_experiments() {
        for seed in 0..SEEDS {
            let mut sched = scheduler_for_seed(seed);
            let r = machine_for(&e.program, e.algo, e.entry.exec).run(sched.as_mut(), MAX_STEPS);
            fold_run(&mut f, &r);
        }
        if e.exhaustive {
            let sweep = class_sweep_dpor(&e.program, e.algo, &e.entry, MAX_STEPS);
            f.word(sweep.executed);
            f.word(sweep.blocked);
            let mut keys: Vec<u64> = sweep.keys.into_iter().collect();
            keys.sort_unstable();
            f.word(keys.len() as u64);
            for k in keys {
                f.word(k);
            }
        }
    }
    assert_eq!(
        f.finish(),
        GOLDEN,
        "simulator output drifted: some schedule, trace, footprint or \
         final memory differs from the frozen reference"
    );
}
