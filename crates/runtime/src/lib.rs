//! The MiniFort execution substrate.
//!
//! The paper measures wall-clock speedups of four program versions on a
//! 4-processor machine (Figure 1). This crate supplies the machine: an
//! interpreter (expressions compiled to closures once, statements
//! walked as a tree) whose parallel loops execute on real OS
//! threads over shared memory, with fork/join overhead genuinely
//! incurred per parallel region — the mechanism behind the paper's
//! observation that Polaris's inner-loop parallelization *loses* time.
//!
//! * [`rprog`] — lowers a resolved program to a slot-addressed runtime
//!   form (no name lookups on the hot path), compiling each expression.
//! * [`memory`] — one shared cell arena: COMMON blocks plus per-thread
//!   activation stacks; Fortran storage association is preserved because
//!   offsets come straight from the resolver.
//! * [`interp`] — the interpreter and the expression compiler: serial
//!   execution under a call-depth cap, `!$OMP`-driven
//!   (manual) or `auto_par`-driven (compiler) parallel loops with
//!   private/lastprivate/reduction handling, and an optional dynamic
//!   race checker that validates the static analysis.
//! * [`mpi`] — message-passing simulation: ranks as threads with private
//!   memories, `MP*` builtins over tag-selective queues and collectives,
//!   with timeout-based deadlock detection and world poisoning.
//! * [`checkpoint`] — targeted or full snapshots of shared state for
//!   speculative rollback.
//! * [`fault`] — deterministic fault injection ([`FaultPlan`]): drop or
//!   delay messages, kill ranks, panic workers, force mis-speculation.
//!
//! Interpretation multiplies per-operation cost uniformly across all
//! program versions, so *relative* speedups — the figure's shape — are
//! preserved.

pub mod checkpoint;
pub mod fault;
pub mod interp;
pub mod intrinsics;
pub mod memory;
pub mod mpi;
pub mod rprog;

pub use fault::{FaultPlan, MsgPat};
pub use interp::{
    run, ExecConfig, ExecMode, RtError, RunResult, FORK_REGION_COST, FORK_THREAD_COST,
    MAX_CALL_DEPTH, OPS_PER_SECOND, SPEC_MONITOR_COST,
};
pub use mpi::run_mpi;
pub use rprog::RProgram;

/// Deck values accepted by `READ(*,*)` (defined by the front end, which
/// owns the statement; `apar_workloads::DeckValue` is the same type).
pub use apar_minifort::DeckVal;
