//! # jungle-memsim — a relaxed-memory multiprocessor simulator
//!
//! The paper's results concern TM implementations running on shared
//! memory multiprocessors. We do not have SPARC/Alpha hardware to run
//! the constructions on, so this crate provides the substitute: a small,
//! deterministic multiprocessor simulator that executes the instruction
//! alphabet of `jungle-isa` (`load`/`store`/`cas` plus operation
//! markers) under a pluggable **hardware** memory model.
//!
//! The hardware model is an execution discipline
//! ([`ExecSemantics`](jungle_core::registry::ExecSemantics), aliased as
//! [`HwModel`]) drawn from the model registry in `jungle_core`, which
//! pairs it with the matching checker-side `MemoryModel`. The full
//! registry zoo is executable:
//!
//! * **SC** — linearizable memory, the paper's baseline assumption
//!   ("we assume that the underlying hardware guarantees a strong
//!   memory model equivalent to linearizability");
//! * **TSO** / **TSO+fwd** — per-CPU FIFO store buffers, without /
//!   with store-to-load forwarding; CAS drains the buffer (x86-style
//!   `lock` semantics);
//! * **PSO** — per-address store queues (write→write reordering in
//!   addition to write→read);
//! * **RMO**, **Alpha**, **Relaxed** — per-address store queues plus a
//!   bounded *load reorder window*: a load may observe one of the last
//!   few overwritten values of an address (a load performed early),
//!   bounded by per-CPU coherence floors; RMO keeps dependent loads
//!   ([`PInstr::LoadDep`]) ordered, Alpha and Relaxed do not.
//!
//! The historical enum variants survive as compatibility constants
//! (`HwModel::Sc`, `HwModel::Tso` = TSO+fwd, `HwModel::Pso` = PSO+fwd —
//! the pre-registry machine always forwarded).
//!
//! Programs are *reactive* ([`Process`]): the simulator feeds each
//! completed instruction's result back to the process, which decides its
//! next step — this is what lets the TM algorithms of `jungle-mc` spin
//! on CAS failures and branch on loaded values.
//!
//! Nondeterminism (which CPU steps; which buffered store drains) is
//! resolved by a [`Scheduler`]: scripted ([`DirectedScheduler`]) for the
//! paper's Figure 5 constructions, seeded-random ([`RandomScheduler`])
//! for fuzzing, and exhaustive enumeration ([`explore`]) for the
//! model-checking sweeps.
//!
//! Every run records a [`Trace`](jungle_isa::Trace) whose corresponding
//! histories are checked by `jungle-core`.
//!
//! ## Cost model
//!
//! The model checker spends most of its time here: one `report` pass
//! makes tens of thousands of [`Machine::run`] calls of about 30
//! scheduler decisions each, and the DPOR explorer re-runs whole
//! prefixes for every probe. So the rule is that **a decision does not
//! allocate**. The choice list is one vector refilled in place; a
//! [`Footprint`] keeps its read and write sets inline ([`AddrSet`]);
//! global memory, coherence floors and store buffers are short vectors
//! searched linearly or by binary search, never hashed; a load with one
//! admissible version builds no version list; and
//! [`BurstyScheduler`] counts its preferred actions instead of
//! collecting them. What remains per run is a fixed handful of
//! allocations: the machine and its processes, the trace, footprint and
//! choice vectors, the memory cells and the final snapshot.
//! `crates/mc/tests/alloc_budget.rs` holds every fixed experiment of
//! `jungle-mc` to at most one allocation per decision, counted from
//! building the machine to the returned [`RunResult`], and
//! `crates/mc/tests/sim_determinism.rs` pins every schedule, trace,
//! footprint and final memory those runs produce to a golden
//! fingerprint. A whole run is one `memsim.run` phase of the
//! `jungle_obs::profile` profiler.

#![warn(missing_docs)]

pub mod cpu;
pub mod machine;
pub mod process;
pub mod sched;

pub use cpu::{GlobalMem, HwModel, PendingStore, ReorderEngine, MAX_VERSIONS};
pub use jungle_core::registry::{ExecSemantics, StoreDiscipline};
pub use machine::{explore, ExploreOutcome, Machine, RunResult};
pub use process::{PInstr, Process, Step};
pub use sched::{
    Action, AddrSet, BurstyScheduler, ChoicePoint, DirectedScheduler, Divergence, ExhaustiveCursor,
    Footprint, RandomScheduler, RecordingScheduler, ReplayScheduler, Scheduler,
};
