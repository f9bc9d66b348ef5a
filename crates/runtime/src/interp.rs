//! The interpreter: serial and thread-parallel execution of lowered
//! MiniFort programs.
//!
//! Parallel `DO` regions fork real scoped threads (fork/join cost is
//! *part of the measurement*, as in the paper's Figure 1), give each
//! worker a private activation overlay for the directive's
//! private/reduction variables, execute contiguous chunks (or
//! round-robin iterations under a `SCHEDULE(CYCLIC)` directive),
//! combine reduction partials in worker order, and apply lastprivate
//! copy-back from the worker that ran the final iteration. An optional race
//! checker records shared-cell accesses per worker and fails the run on
//! any cross-chunk write conflict — the dynamic validation of the
//! static dependence analysis.

use std::collections::HashSet;
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use apar_minifort::ast::{BinOp, RedOp, Schedule};
use apar_minifort::{ResolvedProgram, Ty};

use crate::checkpoint::{Checkpoint, CheckpointKind};
use crate::fault::FaultPlan;
use crate::intrinsics::Intr;
use crate::memory::{Arena, BumpStack, Cell};
use crate::mpi::MpiEnv;
use crate::rprog::*;
use crate::DeckVal;

/// Locks a mutex, recovering the data if a contained worker panic
/// poisoned it: panic containment means a poisoned lock is an expected
/// state, not a secondary failure.
pub(crate) fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// Renders a panic payload for error reporting.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "<non-string panic payload>".to_string())
}

/// Which annotations drive parallel execution.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ExecMode {
    /// Ignore all annotations.
    Serial,
    /// Honor hand-written `!$OMP` directives.
    Manual,
    /// Honor compiler-produced `auto_par` directives.
    Auto,
}

/// Execution configuration.
#[derive(Clone, Debug)]
pub struct ExecConfig {
    pub mode: ExecMode,
    /// Worker count for parallel regions (the paper's machine: 4).
    pub threads: usize,
    /// Record and verify shared accesses of parallel regions.
    pub check_races: bool,
    /// Bound on one thread's activation stack, in words: recursion or
    /// a local past it fails the run with [`RtError::StackOverflow`].
    /// Not a cost — stack pages are mapped when touched — so one
    /// default serves every program in the repository.
    pub seg_words: usize,
    /// Hard cap on emitted output lines.
    pub max_output: usize,
    /// Hard cap on virtual ops per executor (main thread or any one
    /// worker); exceeding it fails the run with [`RtError::OpLimit`].
    /// Effectively unlimited by default — harnesses executing untrusted
    /// programs (which may not terminate) should set a budget.
    pub max_virt: u64,
    /// How long a blocked MPI operation may wait before the runtime
    /// declares a deadlock and reports the blocked ranks.
    pub mpi_timeout_ms: u64,
    /// Deterministic fault injection (tests and chaos harnesses).
    pub fault: FaultPlan,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            mode: ExecMode::Serial,
            threads: 4,
            check_races: false,
            seg_words: 1 << 22,
            max_output: 10_000,
            max_virt: u64::MAX,
            mpi_timeout_ms: 2_000,
            fault: FaultPlan::none(),
        }
    }
}

/// Runtime failure.
#[derive(Clone, Debug, PartialEq)]
pub enum RtError {
    Lower(String),
    StackOverflow,
    Trap(String),
    Race(String),
    DeckExhausted,
    OutputLimit,
    /// The run exceeded `ExecConfig::max_virt` virtual ops. A fuel cap
    /// for fuzzing and other harnesses that execute untrusted programs
    /// (mutated sources can contain infinite `DO WHILE` loops).
    OpLimit,
    /// A parallel worker panicked; the panic was contained at the fork
    /// scope and converted to this error with its provenance.
    WorkerPanic {
        worker: usize,
        unit: String,
        message: String,
    },
    /// An MPI rank's thread panicked; contained at the world scope.
    RankPanic { rank: usize, message: String },
    /// Blocked MPI operations exceeded the configured timeout; the
    /// diagnostic names every blocked rank with what it waits on.
    Deadlock(String),
    /// The fault plan killed this rank mid-run.
    RankKilled { rank: usize },
    /// This rank aborted because another rank failed first; `cause`
    /// carries the originating diagnostic.
    Aborted { rank: usize, cause: String },
}

impl fmt::Display for RtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RtError::Lower(m) => write!(f, "lowering error: {}", m),
            RtError::StackOverflow => write!(f, "activation stack overflow"),
            RtError::Trap(m) => write!(f, "runtime trap: {}", m),
            RtError::Race(m) => write!(f, "data race detected: {}", m),
            RtError::DeckExhausted => write!(f, "READ past end of input deck"),
            RtError::OutputLimit => write!(f, "output line limit exceeded"),
            RtError::OpLimit => write!(f, "virtual op budget exceeded"),
            RtError::WorkerPanic {
                worker,
                unit,
                message,
            } => write!(
                f,
                "worker {} panicked in parallel region of {}: {}",
                worker, unit, message
            ),
            RtError::RankPanic { rank, message } => {
                write!(f, "MPI rank {} panicked: {}", rank, message)
            }
            RtError::Deadlock(m) => write!(f, "MPI deadlock: {}", m),
            RtError::RankKilled { rank } => {
                write!(f, "MPI rank {} killed by fault injection", rank)
            }
            RtError::Aborted { rank, cause } => {
                write!(f, "MPI rank {} aborted: {}", rank, cause)
            }
        }
    }
}

impl std::error::Error for RtError {}

/// Result of one execution.
#[derive(Clone, Debug)]
pub struct RunResult {
    pub output: Vec<String>,
    pub wall: Duration,
    /// Parallel regions entered.
    pub regions: u64,
    /// Threads forked across all regions.
    pub forks: u64,
    /// The program executed STOP.
    pub stopped: bool,
    /// Virtual machine time in abstract operation units: the modeled
    /// elapsed time on the paper's multiprocessor. Serial sections
    /// accumulate per-operation costs; a parallel region adds the
    /// *maximum* worker cost plus fork/join overhead; MPI messages add
    /// latency along the critical path.
    pub virt: u64,
    /// Speculative regions that committed (runtime test passed).
    pub speculations: u64,
    /// Speculative regions that conflicted and re-ran serially.
    pub rollbacks: u64,
}

/// Modeled cost (virtual ops) of forking one parallel region.
pub const FORK_REGION_COST: u64 = 1_500;
/// Additional modeled cost per forked thread.
pub const FORK_THREAD_COST: u64 = 800;
/// Modeled per-iteration cost of the speculative runtime test's access
/// monitoring (the LRPD shadow-array maintenance).
pub const SPEC_MONITOR_COST: u64 = 2;
/// Conversion used by the figure harnesses: virtual ops per modeled
/// second (calibrated to this interpreter's own serial throughput, so
/// virtual seconds are comparable to wall seconds of the serial run).
/// Deliberately not recalibrated when the interpreter gets faster:
/// virtual time changes only on purpose.
pub const OPS_PER_SECOND: f64 = 25_000_000.0;
/// Deepest chain of MiniFort activations (the main program counts) one
/// run may hold; one call more fails it with [`RtError::StackOverflow`].
/// Each call nests the interpreter 1–1.6 KB deeper on the host stack in
/// an optimised build and 13–20 KB in an unoptimised one, so this bound,
/// not the host, decides where a runaway recursion stops: 64 levels fit
/// a 2 MiB thread in either. Fortran 77 has no recursion; the suites'
/// deepest chain is 5.
pub const MAX_CALL_DEPTH: usize = 64;

impl RunResult {
    /// Virtual time in modeled seconds.
    pub fn virt_seconds(&self) -> f64 {
        self.virt as f64 / OPS_PER_SECOND
    }
}

/// Runs a resolved program.
pub fn run(
    rp: &ResolvedProgram,
    deck: &[DeckVal],
    cfg: &ExecConfig,
) -> Result<RunResult, RtError> {
    let prog = RProgram::lower(rp)?;
    run_lowered(&prog, deck, cfg, None)
}

/// Runs an already-lowered program. `mpi` attaches a rank environment.
pub(crate) fn run_lowered(
    prog: &RProgram,
    deck: &[DeckVal],
    cfg: &ExecConfig,
    mpi: Option<MpiEnv<'_>>,
) -> Result<RunResult, RtError> {
    // One stack per thread that can run: workers fork only outside
    // serial mode.
    let segments = match cfg.mode {
        ExecMode::Serial => 1,
        ExecMode::Manual | ExecMode::Auto => cfg.threads + 1,
    };
    let arena = Arena::new(prog.commons_total, segments, cfg.seg_words);
    for (base, values) in &prog.common_data {
        for (k, v) in values.iter().enumerate() {
            arena.write(base + k, *v);
        }
    }
    let shared = Shared {
        prog,
        arena: &arena,
        out: Mutex::new(Vec::new()),
        deck: Mutex::new(deck.iter().copied().collect()),
        cfg: cfg.clone(),
        regions: AtomicU64::new(0),
        forks: AtomicU64::new(0),
        speculations: AtomicU64::new(0),
        rollbacks: AtomicU64::new(0),
    };
    let t0 = Instant::now();
    let mut ex = Exec {
        sh: &shared,
        arena: &arena,
        stack: BumpStack::new(arena.segment_base(0), cfg.seg_words),
        depth: 0,
        in_parallel: false,
        race: None,
        mpi,
        virt: 0,
    };
    let flow = ex.call_unit(prog.main, &[])?;
    let wall = t0.elapsed();
    let virt = ex.virt;
    drop(ex);
    Ok(RunResult {
        output: shared
            .out
            .into_inner()
            .unwrap_or_else(|p| p.into_inner()),
        wall,
        regions: shared.regions.load(Ordering::Relaxed),
        forks: shared.forks.load(Ordering::Relaxed),
        stopped: flow == Flow::Stop,
        virt,
        speculations: shared.speculations.load(Ordering::Relaxed),
        rollbacks: shared.rollbacks.load(Ordering::Relaxed),
    })
}

struct Shared<'p> {
    prog: &'p RProgram,
    arena: &'p Arena,
    out: Mutex<Vec<String>>,
    deck: Mutex<VecDeque<DeckVal>>,
    cfg: ExecConfig,
    regions: AtomicU64,
    forks: AtomicU64,
    speculations: AtomicU64,
    rollbacks: AtomicU64,
}

/// Per-activation resolved addressing.
#[derive(Clone)]
pub(crate) struct Frame<'p> {
    unit: &'p RUnit,
    scalars: Vec<usize>,
    arrays: Vec<ArrDesc>,
    mark: usize,
}

#[derive(Clone, Copy, Default)]
struct ArrDesc {
    base: usize,
    rank: u8,
    lo: [i64; ArrDesc::MAX_RANK],
    stride: [i64; ArrDesc::MAX_RANK],
    /// Total words, or -1 when unknown (assumed-size).
    total: i64,
}

impl ArrDesc {
    /// Fixed capacity of the per-dimension tables.
    const MAX_RANK: usize = 4;
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Flow {
    Normal,
    Return,
    Stop,
}

/// Access log for the race checker.
#[derive(Default)]
struct RaceLog {
    reads: HashSet<usize>,
    writes: HashSet<usize>,
}

struct WorkerOut {
    partials: Vec<Cell>,
    /// `(slot address in parent frame, value)` pairs from the last chunk.
    last_privates: Vec<(usize, Cell)>,
    race: Option<RaceLog>,
    /// Worker's virtual cost.
    virt: u64,
}

pub(crate) struct Exec<'p, 's> {
    sh: &'s Shared<'p>,
    /// `sh.arena`, one load closer for the hot path.
    arena: &'p Arena,
    stack: BumpStack,
    /// Active MiniFort calls on this thread's chain.
    depth: usize,
    in_parallel: bool,
    race: Option<RaceLog>,
    pub(crate) mpi: Option<MpiEnv<'s>>,
    /// Virtual clock (operation units).
    pub(crate) virt: u64,
}

impl<'p, 's> Exec<'p, 's> {
    #[inline]
    fn rd(&mut self, addr: usize) -> Result<Cell, RtError> {
        let Some(v) = self.arena.get(addr) else {
            return Err(bad_address(addr));
        };
        if self.race.is_some() {
            self.log_read(addr);
        }
        Ok(v)
    }

    #[inline]
    fn wr(&mut self, addr: usize, v: Cell) -> Result<(), RtError> {
        if !self.arena.set(addr, v) {
            return Err(bad_address(addr));
        }
        if self.race.is_some() {
            self.log_write(addr);
        }
        Ok(())
    }

    #[cold]
    #[inline(never)]
    fn log_read(&mut self, addr: usize) {
        if let Some(r) = &mut self.race {
            r.reads.insert(addr);
        }
    }

    #[cold]
    #[inline(never)]
    fn log_write(&mut self, addr: usize) {
        if let Some(r) = &mut self.race {
            r.writes.insert(addr);
        }
    }

    fn trap(&self, msg: impl Into<String>) -> RtError {
        RtError::Trap(msg.into())
    }

    // ---------------- activation ----------------

    fn call_unit(&mut self, uid: UnitId, actuals: &[usize]) -> Result<Flow, RtError> {
        let unit = &self.sh.prog.units[uid];
        if actuals.len() < unit.nformals {
            return Err(self.trap(format!(
                "{}: expected {} arguments, got {}",
                unit.name,
                unit.nformals,
                actuals.len()
            )));
        }
        let (frame, flow) = self.invoke(unit, actuals)?;
        self.stack.release_to(frame.mark);
        Ok(match flow {
            Flow::Stop => Flow::Stop,
            _ => Flow::Normal,
        })
    }

    /// Calls a FUNCTION and returns its value.
    fn call_function(&mut self, uid: UnitId, actuals: &[usize]) -> Result<Cell, RtError> {
        let unit = &self.sh.prog.units[uid];
        let Some(fn_slot) = unit.fn_slot else {
            return Err(self.trap(format!("{} is not a function", unit.name)));
        };
        let (frame, flow) = self.invoke(unit, actuals)?;
        if flow == Flow::Stop {
            return Err(self.trap("STOP inside function"));
        }
        let Some(&ret_addr) = frame.scalars.get(fn_slot as usize) else {
            return Err(self.trap(format!(
                "{}: function result slot out of range",
                unit.name
            )));
        };
        let v = self.rd(ret_addr)?;
        self.stack.release_to(frame.mark);
        Ok(v)
    }

    /// Activates `unit` one call deeper and runs its body, or fails
    /// past [`MAX_CALL_DEPTH`]. The caller releases the frame.
    fn invoke(&mut self, unit: &'p RUnit, actuals: &[usize]) -> Result<(Frame<'p>, Flow), RtError> {
        if self.depth >= MAX_CALL_DEPTH {
            return Err(RtError::StackOverflow);
        }
        let frame = self.activate(unit, actuals)?;
        self.depth += 1;
        let flow = self.exec_block(&frame, &unit.body);
        self.depth -= 1;
        Ok((frame, flow?))
    }

    fn activate(&mut self, unit: &'p RUnit, actuals: &[usize]) -> Result<Frame<'p>, RtError> {
        self.virt += 16 + unit.scalars.len() as u64 + 2 * unit.arrays.len() as u64;
        let mark = self.stack.top;
        // Local areas. Small areas (scalars and tiny arrays) are reset
        // to Uninit; large arrays are left undefined on entry, exactly
        // as Fortran 77 specifies for local storage — activations must
        // write before reading, and the serial-vs-parallel comparison
        // tests expose any violation.
        let mut area_bases = Vec::with_capacity(unit.area_sizes.len());
        for &sz in &unit.area_sizes {
            let base = self.stack.alloc(sz)?;
            if sz <= 32 {
                for i in 0..sz {
                    self.sh.arena.write(base + i, Cell::Uninit);
                }
            }
            area_bases.push(base);
        }
        // Scalars.
        let mut scalars = Vec::with_capacity(unit.scalars.len());
        for s in &unit.scalars {
            scalars.push(match s.loc {
                SLoc::Abs(a) => a,
                SLoc::Local { area, offset } => {
                    let Some(&base) = area_bases.get(area as usize) else {
                        return Err(self.trap(format!(
                            "{}: scalar storage area {} out of range",
                            unit.name, area
                        )));
                    };
                    base + offset as usize
                }
                SLoc::Formal { pos } => match actuals.get(pos as usize) {
                    Some(a) => *a,
                    None => {
                        return Err(self.trap(format!(
                            "{}: formal #{} has no bound actual",
                            unit.name, pos
                        )));
                    }
                },
            });
        }
        let mut frame = Frame {
            unit,
            scalars,
            arrays: vec![ArrDesc::default(); unit.arrays.len()],
            mark,
        };
        // Arrays: bases then dims (dims may read scalars).
        for (i, a) in unit.arrays.iter().enumerate() {
            let base = match a.base {
                ABase::Abs(x) => x,
                ABase::Local { area, offset } => {
                    let Some(&ab) = area_bases.get(area as usize) else {
                        return Err(self.trap(format!(
                            "{}: array storage area {} out of range",
                            unit.name, area
                        )));
                    };
                    ab + offset as usize
                }
                ABase::Formal { pos } => match actuals.get(pos as usize) {
                    Some(x) => *x,
                    None => {
                        return Err(self.trap(format!(
                            "{}: array formal #{} has no bound actual",
                            unit.name, pos
                        )));
                    }
                },
            };
            // `ArrDesc` carries fixed-capacity dim tables; a descriptor
            // beyond that capacity must trap, not index out of bounds.
            if a.dims.len() > ArrDesc::MAX_RANK {
                return Err(self.trap(format!(
                    "{}: array rank {} exceeds the supported maximum of {}",
                    unit.name,
                    a.dims.len(),
                    ArrDesc::MAX_RANK
                )));
            }
            let mut desc = ArrDesc {
                base,
                rank: a.dims.len() as u8,
                ..Default::default()
            };
            let mut stride: i64 = 1;
            let mut total: i64 = 1;
            for (k, (lo, extent)) in a.dims.iter().enumerate() {
                desc.lo[k] = self.eval(&frame, lo)?.as_int();
                desc.stride[k] = stride;
                match extent {
                    Some(e) => {
                        let ext = self.eval(&frame, e)?.as_int().max(0);
                        stride = stride.checked_mul(ext).ok_or_else(|| {
                            self.trap(format!("{}: array extent overflows", unit.name))
                        })?;
                        // Until an assumed-size dimension, the word
                        // count is the same running product.
                        if total >= 0 {
                            total = stride;
                        }
                    }
                    None => total = -1,
                }
            }
            desc.total = total;
            frame.arrays[i] = desc;
        }
        // DATA initializations (per activation for locals).
        for d in &unit.data {
            if let Some(aid) = d.array {
                let Some(desc) = frame.arrays.get(aid as usize) else {
                    return Err(self.trap(format!(
                        "{}: DATA names array slot {} out of range",
                        unit.name, aid
                    )));
                };
                let base = desc.base + d.start_elem as usize;
                for (k, v) in d.values.iter().enumerate() {
                    self.sh.arena.write(base + k, *v);
                }
            } else if let Some(sid) = d.scalar {
                let Some(&addr) = frame.scalars.get(sid as usize) else {
                    return Err(self.trap(format!(
                        "{}: DATA names scalar slot {} out of range",
                        unit.name, sid
                    )));
                };
                if let Some(v) = d.values.first() {
                    self.sh.arena.write(addr, *v);
                }
            }
        }
        Ok(frame)
    }

    // ---------------- execution ----------------

    fn exec_block(&mut self, f: &Frame<'p>, stmts: &[RStmt]) -> Result<Flow, RtError> {
        for s in stmts {
            match self.exec_stmt(f, s)? {
                Flow::Normal => {}
                other => return Ok(other),
            }
        }
        Ok(Flow::Normal)
    }

    fn exec_stmt(&mut self, f: &Frame<'p>, s: &RStmt) -> Result<Flow, RtError> {
        self.virt += 1;
        if self.virt > self.sh.cfg.max_virt {
            return Err(RtError::OpLimit);
        }
        match s {
            RStmt::Assign(lv, e) => {
                let v = self.eval(f, e)?;
                self.store(f, lv, v)?;
                Ok(Flow::Normal)
            }
            RStmt::If(arms, else_blk) => {
                for (c, body) in arms {
                    if self.eval(f, c)?.as_int() != 0 {
                        return self.exec_block(f, body);
                    }
                }
                if let Some(b) = else_blk {
                    return self.exec_block(f, b);
                }
                Ok(Flow::Normal)
            }
            RStmt::DoWhile { cond, body } => {
                let mut guard = 0u64;
                while self.eval(f, cond)?.as_int() != 0 {
                    match self.exec_block(f, body)? {
                        Flow::Normal => {}
                        other => return Ok(other),
                    }
                    guard += 1;
                    if guard > 1_000_000_000 {
                        return Err(self.trap("runaway DO WHILE"));
                    }
                }
                Ok(Flow::Normal)
            }
            RStmt::Do {
                var,
                lo,
                hi,
                step,
                body,
                manual,
                auto,
                inner_vars,
            } => {
                let lo_v = self.eval(f, lo)?.as_int();
                let hi_v = self.eval(f, hi)?.as_int();
                let step_v = match step {
                    None => 1,
                    Some(e) => self.eval(f, e)?.as_int(),
                };
                if step_v == 0 {
                    return Err(self.trap("zero DO step"));
                }
                // In i128 the count cannot overflow; one that does not
                // fit the loop variable's type is a trap, the same in
                // every build profile.
                let span = hi_v as i128 - lo_v as i128 + step_v as i128;
                let Ok(trip) = i64::try_from((span / step_v as i128).max(0)) else {
                    return Err(self.trap("DO trip count overflows"));
                };
                let directive = match self.sh.cfg.mode {
                    ExecMode::Serial => None,
                    ExecMode::Manual => manual.as_ref(),
                    ExecMode::Auto => auto.as_ref(),
                };
                if let Some(dir) = directive {
                    if !self.in_parallel && self.sh.cfg.threads > 1 && trip >= 2 {
                        if dir.speculative {
                            return self.exec_speculative(
                                f, *var, lo_v, step_v, trip, body, dir, inner_vars,
                            );
                        }
                        return self.exec_parallel(
                            f, *var, lo_v, step_v, trip, body, dir, inner_vars, false,
                        );
                    }
                }
                self.run_trips(f, *var, lo_v, step_v, trip, body)
            }
            RStmt::Call(target, actuals) => match target {
                CallTarget::Unit(uid) => {
                    let (bound, temps_mark) = self.bind_actuals(f, actuals)?;
                    let flow = self.call_unit(*uid, &bound)?;
                    self.stack.release_to(temps_mark);
                    Ok(flow)
                }
                CallTarget::Mpi(op) => {
                    let (bound, temps_mark) = self.bind_actuals(f, actuals)?;
                    crate::mpi::exec_builtin(self, *op, &bound)?;
                    self.stack.release_to(temps_mark);
                    Ok(Flow::Normal)
                }
            },
            RStmt::Read(items) => {
                for it in items {
                    let v = {
                        let mut deck = lock_unpoisoned(&self.sh.deck);
                        deck.pop_front().ok_or(RtError::DeckExhausted)?
                    };
                    let cell = match v {
                        DeckVal::Int(i) => Cell::Int(i),
                        DeckVal::Real(r) => Cell::Real(r),
                    };
                    self.store(f, it, cell)?;
                }
                Ok(Flow::Normal)
            }
            RStmt::Write(items) => {
                let mut line = String::new();
                for (i, it) in items.iter().enumerate() {
                    if i > 0 {
                        line.push(' ');
                    }
                    match it {
                        WItem::Str(s) => line.push_str(s),
                        WItem::E(e) => {
                            let v = self.eval(f, e)?;
                            match v {
                                Cell::Int(x) => line.push_str(&x.to_string()),
                                other => {
                                    line.push_str(&format!("{:.6}", other.as_real()))
                                }
                            }
                        }
                    }
                }
                let mut out = lock_unpoisoned(&self.sh.out);
                if out.len() >= self.sh.cfg.max_output {
                    return Err(RtError::OutputLimit);
                }
                out.push(line);
                Ok(Flow::Normal)
            }
            RStmt::Return => Ok(Flow::Return),
            RStmt::Stop => Ok(Flow::Stop),
        }
    }

    /// The serial trip loop: runs trips `0..trip` of a `DO` on this
    /// thread, then leaves the loop variable at its Fortran exit value.
    fn run_trips(
        &mut self,
        f: &Frame<'p>,
        var: ScalarId,
        lo: i64,
        step: i64,
        trip: i64,
        body: &[RStmt],
    ) -> Result<Flow, RtError> {
        let var_addr = f.scalars[var as usize];
        for t in 0..trip {
            self.wr(var_addr, Cell::Int(do_value(lo, t, step)))?;
            match self.exec_block(f, body)? {
                Flow::Normal => {}
                other => return Ok(other),
            }
        }
        self.wr(var_addr, Cell::Int(do_value(lo, trip, step)))?;
        Ok(Flow::Normal)
    }

    /// Prepares arguments; by-value temporaries live on this thread's
    /// stack until released by the caller.
    fn bind_actuals(
        &mut self,
        f: &Frame<'p>,
        actuals: &[RActual],
    ) -> Result<(Vec<usize>, usize), RtError> {
        let temps_mark = self.stack.top;
        let mut bound = Vec::with_capacity(actuals.len());
        for a in actuals {
            bound.push(match a {
                RActual::Val(e) => {
                    let v = self.eval(f, e)?;
                    let addr = self.stack.alloc(1)?;
                    self.sh.arena.write(addr, v);
                    addr
                }
                RActual::ScalarRef(id) => f.scalars[*id as usize],
                RActual::ArrayRef(id) => f.arrays[*id as usize].base,
                RActual::Section(id, subs) => self.elem_addr(f, *id, subs)?,
            });
        }
        Ok((bound, temps_mark))
    }

    /// The address of element `subs` of array `aid`, `None` when the
    /// arithmetic overflows. Subscripts are evaluated in order, each
    /// checked against the rank after it is evaluated.
    fn elem_at<T: Fetch>(
        &mut self,
        f: &Frame<'p>,
        aid: ArrId,
        subs: &[T],
    ) -> Result<Option<i64>, RtError> {
        let desc = &f.arrays[aid as usize];
        let mut off: i64 = 0;
        for (k, sub) in subs.iter().enumerate() {
            let sv = sub.fetch(self, f)?.as_int();
            if k >= desc.rank as usize {
                return Err(too_many_subscripts());
            }
            match sv
                .checked_sub(desc.lo[k])
                .and_then(|d| d.checked_mul(desc.stride[k]))
                .and_then(|term| off.checked_add(term))
            {
                Some(o) => off = o,
                None => return Ok(None),
            }
        }
        Ok((desc.base as i64).checked_add(off))
    }

    fn elem_addr<T: Fetch>(
        &mut self,
        f: &Frame<'p>,
        aid: ArrId,
        subs: &[T],
    ) -> Result<usize, RtError> {
        match self.elem_at(f, aid, subs)? {
            Some(addr) if addr >= 0 && (addr as usize) < self.arena.total_len() => {
                Ok(addr as usize)
            }
            at => Err(bad_subscript(at)),
        }
    }

    /// Reads the element at `at` (from [`Exec::elem_at`]): the arena's
    /// bounds check is the subscript check.
    #[inline]
    fn rd_elem(&mut self, at: Option<i64>) -> Result<Cell, RtError> {
        let Some(addr) = at.and_then(|a| usize::try_from(a).ok()) else {
            return Err(bad_subscript(at));
        };
        let Some(v) = self.arena.get(addr) else {
            return Err(bad_subscript(at));
        };
        if self.race.is_some() {
            self.log_read(addr);
        }
        Ok(v)
    }

    fn store(&mut self, f: &Frame<'p>, lv: &RLval, v: Cell) -> Result<(), RtError> {
        match lv {
            RLval::S(id) => {
                let cv = self.slot_ty_store(v, f.unit.scalars[*id as usize].ty);
                self.wr(f.scalars[*id as usize], cv)
            }
            RLval::A(id, subs) => {
                let addr = self.elem_addr(f, *id, subs)?;
                let cv = self.slot_ty_store(v, f.unit.arrays[*id as usize].ty);
                self.wr(addr, cv)
            }
        }
    }

    fn slot_ty_store(&self, v: Cell, ty: Ty) -> Cell {
        match ty {
            Ty::Integer | Ty::Logical => Cell::Int(v.as_int()),
            _ => match v {
                Cell::Int(x) => Cell::Real(x as f64),
                other => other,
            },
        }
    }

    // ---------------- parallel regions ----------------

    #[allow(clippy::too_many_arguments)]
    fn exec_parallel(
        &mut self,
        f: &Frame<'p>,
        var: ScalarId,
        lo: i64,
        step: i64,
        trip: i64,
        body: &[RStmt],
        dir: &RDirective,
        inner_vars: &[ScalarId],
        force_check: bool,
    ) -> Result<Flow, RtError> {
        let nthreads = (self.sh.cfg.threads).min(trip.max(1) as usize);
        self.sh.regions.fetch_add(1, Ordering::Relaxed);
        self.sh.forks.fetch_add(nthreads as u64, Ordering::Relaxed);

        // Private scalar slots: loop variable, nested DO variables, and
        // directive-listed scalars.
        let mut priv_scalars: Vec<ScalarId> = vec![var];
        priv_scalars.extend_from_slice(inner_vars);
        priv_scalars.extend_from_slice(&dir.private_scalars);
        priv_scalars.sort_unstable();
        priv_scalars.dedup();
        // Reduction vars must not also be private.
        priv_scalars.retain(|s| !dir.reductions.iter().any(|(_, r)| r == s));

        let check = self.sh.cfg.check_races || force_check;
        let sh = self.sh;
        let depth = self.depth;
        let results: Vec<Result<WorkerOut, RtError>> = std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for w in 0..nthreads {
                // Iteration plan: contiguous chunk (STATIC) or
                // round-robin stride (CYCLIC, for imbalanced bodies).
                let (t_start, t_end, t_step) = match dir.schedule {
                    Schedule::Static => {
                        // `trip * w` can pass i64 for a huge trip count;
                        // the quotient is at most `trip`.
                        let cut = |k: usize| (trip as i128 * k as i128 / nthreads as i128) as i64;
                        (cut(w), cut(w + 1), 1)
                    }
                    Schedule::Cyclic => (w as i64, trip, nthreads as i64),
                };
                let priv_scalars = &priv_scalars;
                let frame = f;
                let mpi = self.mpi.clone();
                handles.push(scope.spawn(move || -> Result<WorkerOut, RtError> {
                    // Injected fault: this worker dies before doing any
                    // work; the join below must contain the panic.
                    if sh.cfg.fault.panic_worker == Some(w) {
                        panic!("injected fault: worker {} panic", w);
                    }
                    let mut ex = Exec {
                            sh,
                            arena: sh.arena,
                            stack: BumpStack::new(
                                sh.arena.segment_base(w + 1),
                                sh.cfg.seg_words,
                            ),
                            depth,
                            in_parallel: true,
                            race: check.then(RaceLog::default),
                            mpi,
                            virt: 0,
                        };
                        let mut wf = frame.clone();
                        // Private scalar overlays.
                        for &sid in priv_scalars.iter() {
                            let a = ex.stack.alloc(1)?;
                            sh.arena.write(a, Cell::Uninit);
                            wf.scalars[sid as usize] = a;
                        }
                        // Private array overlays.
                        for &aid in &dir.private_arrays {
                            let total = wf.arrays[aid as usize].total;
                            if total < 0 {
                                return Err(RtError::Trap(
                                    "cannot privatize assumed-size array".into(),
                                ));
                            }
                            let a = ex.stack.alloc(total as usize)?;
                            for i in 0..total as usize {
                                sh.arena.write(a + i, Cell::Uninit);
                            }
                            wf.arrays[aid as usize].base = a;
                        }
                        // Reduction accumulators.
                        let mut red_addrs = Vec::new();
                        for &(op, sid) in &dir.reductions {
                            let a = ex.stack.alloc(1)?;
                            sh.arena.write(a, red_identity(op));
                            wf.scalars[sid as usize] = a;
                            red_addrs.push(a);
                        }
                        let var_addr = wf.scalars[var as usize];
                        let mut last_t = None;
                        let mut t = t_start;
                        while t < t_end {
                            sh.arena.write(var_addr, Cell::Int(do_value(lo, t, step)));
                            match ex.exec_block(&wf, body)? {
                                Flow::Normal => {}
                                _ => {
                                    return Err(RtError::Trap(
                                        "control flow escaping a parallel loop".into(),
                                    ))
                                }
                            }
                            last_t = Some(t);
                            t += t_step;
                        }
                        // Reduction partials.
                        let partials =
                            red_addrs.iter().map(|&a| sh.arena.read(a)).collect();
                        // Lastprivate values from the worker that ran
                        // the sequentially-final iteration (under
                        // either schedule).
                        let mut last_privates = Vec::new();
                        if last_t == Some(trip - 1) {
                            for &sid in priv_scalars.iter() {
                                if sid == var {
                                    continue;
                                }
                                last_privates.push((
                                    frame.scalars[sid as usize],
                                    sh.arena.read(wf.scalars[sid as usize]),
                                ));
                            }
                        }
                        Ok(WorkerOut {
                            partials,
                            last_privates,
                            race: ex.race.take(),
                            virt: ex.virt,
                        })
                    }));
                }
            // Panic containment: a worker panic becomes a structured
            // error with its provenance instead of tearing the process
            // down. Joining the handle consumes the panic payload, so
            // the scope does not re-raise it.
            handles
                .into_iter()
                .enumerate()
                .map(|(w, h)| match h.join() {
                    Ok(r) => r,
                    Err(payload) => Err(RtError::WorkerPanic {
                        worker: w,
                        unit: f.unit.name.clone(),
                        message: panic_message(payload.as_ref()),
                    }),
                })
                .collect()
        });

        let mut outs = Vec::with_capacity(results.len());
        for r in results {
            outs.push(r?);
        }
        // Virtual clock: the region costs the slowest worker plus the
        // fork/join overhead — the quantity the paper's Polaris version
        // pays per (tiny) inner loop.
        let worst = outs.iter().map(|o| o.virt).max().unwrap_or(0);
        self.virt += worst + FORK_REGION_COST + FORK_THREAD_COST * nthreads as u64;
        // Injected fault: report a conflict even on a clean schedule so
        // the speculative rollback path can be exercised on demand.
        // `force_check` is only set by speculative regions.
        if force_check && self.sh.cfg.fault.force_speculation_conflict {
            return Err(RtError::Race("injected speculation conflict".into()));
        }
        // Race verification across chunks.
        if check {
            for i in 0..outs.len() {
                for j in i + 1..outs.len() {
                    if let (Some(a), Some(b)) = (&outs[i].race, &outs[j].race) {
                        if let Some(addr) = conflict(a, b) {
                            return Err(RtError::Race(format!(
                                "chunks {} and {} conflict at address {}",
                                i, j, addr
                            )));
                        }
                    }
                }
            }
            // Propagate shared accesses to an enclosing checker (none:
            // outermost-only parallelism).
        }
        // Combine reductions deterministically (worker order).
        for (k, &(op, sid)) in dir.reductions.iter().enumerate() {
            let addr = f.scalars[sid as usize];
            let mut acc = self.rd(addr)?;
            for o in &outs {
                let Some(&part) = o.partials.get(k) else {
                    return Err(self.trap(format!(
                        "reduction partial #{} missing from a worker's output",
                        k
                    )));
                };
                acc = red_combine(op, acc, part);
            }
            self.wr(addr, acc)?;
        }
        // Lastprivate copy-back.
        for o in &outs {
            for &(addr, v) in &o.last_privates {
                self.wr(addr, v)?;
            }
        }
        // Loop variable's sequential exit value.
        self.wr(f.scalars[var as usize], Cell::Int(do_value(lo, trip, step)))?;
        Ok(Flow::Normal)
    }

    /// Builds the cheapest safe checkpoint for a speculative region.
    ///
    /// When the compiler supplied a write summary and the body is
    /// call-free (so the summary is exact for the lowered body) with no
    /// assumed-size write targets, only the named cells are saved.
    /// Otherwise everything shared is: all commons plus this thread's
    /// live stack. Worker segments are scratch either way.
    fn spec_checkpoint(&self, f: &Frame<'p>, body: &[RStmt], dir: &RDirective) -> Checkpoint {
        let arena = self.sh.arena;
        if dir.writes_known && !body_has_calls(body) {
            let mut ranges = Vec::new();
            let mut exact = true;
            for &aid in &dir.write_arrays {
                let d = f.arrays[aid as usize];
                if d.total < 0 {
                    exact = false; // assumed-size: extent unknown
                    break;
                }
                ranges.push((d.base, d.total as usize));
            }
            if exact {
                for &sid in &dir.write_scalars {
                    ranges.push((f.scalars[sid as usize], 1));
                }
                return Checkpoint::capture(arena, CheckpointKind::Targeted, &ranges);
            }
        }
        Checkpoint::capture_full(arena, self.stack.top)
    }

    /// Speculative parallel execution with a runtime dependence test
    /// (LRPD-style): checkpoint the shared state the region may write,
    /// attempt the parallel schedule with conflict logging forced on,
    /// and on a detected cross-chunk conflict restore the checkpoint
    /// and re-execute serially. The virtual clock keeps the cost of the
    /// failed attempt plus both checkpoint copies — misspeculation is
    /// not free.
    #[allow(clippy::too_many_arguments)]
    fn exec_speculative(
        &mut self,
        f: &Frame<'p>,
        var: ScalarId,
        lo: i64,
        step: i64,
        trip: i64,
        body: &[RStmt],
        dir: &RDirective,
        inner_vars: &[ScalarId],
    ) -> Result<Flow, RtError> {
        let arena = self.sh.arena;
        let cp = self.spec_checkpoint(f, body, dir);
        let out_mark = lock_unpoisoned(&self.sh.out).len();
        self.virt += cp.words() as u64 / 8; // checkpoint cost

        let attempt = self.exec_parallel(f, var, lo, step, trip, body, dir, inner_vars, true);
        // Which failures roll back? A detected conflict always does. A
        // trap, worker panic, or overflow inside the attempt may be an
        // artifact of the unsound parallel schedule, so it rolls back
        // too — but only under a full checkpoint: a faulting attempt
        // can have written outside the compiler's write summary, and a
        // targeted restore could not undo that.
        let roll_back = match &attempt {
            Err(RtError::Race(_)) => true,
            Err(
                RtError::Trap(_) | RtError::WorkerPanic { .. } | RtError::StackOverflow,
            ) => cp.kind() == CheckpointKind::Full,
            _ => false,
        };
        match attempt {
            Ok(flow) => {
                self.sh.speculations.fetch_add(1, Ordering::Relaxed);
                self.virt += trip as u64 * SPEC_MONITOR_COST;
                Ok(flow)
            }
            Err(e) if !roll_back => Err(e),
            Err(_) => {
                self.sh.rollbacks.fetch_add(1, Ordering::Relaxed);
                cp.restore(arena);
                lock_unpoisoned(&self.sh.out).truncate(out_mark);
                self.virt += cp.words() as u64 / 8; // restore cost
                self.run_trips(f, var, lo, step, trip, body)
            }
        }
    }

    // ---------------- expressions ----------------

    /// Charges an expression's entry cost and runs its code.
    #[inline]
    fn eval(&mut self, f: &Frame<'p>, e: &RExpr) -> Result<Cell, RtError> {
        self.virt += e.cost;
        (e.code)(self, f)
    }

    /// Raw cell read for the MPI builtins.
    pub(crate) fn peek(&mut self, addr: usize) -> Result<Cell, RtError> {
        self.rd(addr)
    }

    /// Raw cell write for the MPI builtins.
    pub(crate) fn poke(&mut self, addr: usize, v: Cell) -> Result<(), RtError> {
        self.wr(addr, v)
    }

    /// Words of memory, for the MPI builtins' buffer checks.
    pub(crate) fn arena_len(&self) -> usize {
        self.arena.total_len()
    }
}

#[cold]
fn bad_address(addr: usize) -> RtError {
    RtError::Trap(format!("address {} out of range", addr))
}

#[cold]
fn bad_subscript(at: Option<i64>) -> RtError {
    RtError::Trap(match at {
        Some(addr) => format!("subscript out of range (addr {})", addr),
        None => "subscript out of range (address overflows)".into(),
    })
}

#[cold]
fn too_many_subscripts() -> RtError {
    RtError::Trap("too many subscripts".into())
}

// ---------------- expression compiler ----------------

/// Compiled expression code: evaluates against one activation.
pub(crate) type Code =
    Arc<dyn for<'p, 's> Fn(&mut Exec<'p, 's>, &Frame<'p>) -> Result<Cell, RtError> + Send + Sync>;

fn code<F>(f: F) -> Code
where
    F: for<'p, 's> Fn(&mut Exec<'p, 's>, &Frame<'p>) -> Result<Cell, RtError>
        + Send
        + Sync
        + 'static,
{
    Arc::new(f)
}

/// Where a compiled closure gets an operand's value from.
trait Fetch: Send + Sync + 'static {
    fn fetch<'p>(&self, ex: &mut Exec<'p, '_>, f: &Frame<'p>) -> Result<Cell, RtError>;
}

/// A constant, fetched in place.
struct Lit(Cell);

/// A scalar slot, fetched in place.
struct Slot(ScalarId);

impl Fetch for Lit {
    #[inline(always)]
    fn fetch<'p>(&self, _: &mut Exec<'p, '_>, _: &Frame<'p>) -> Result<Cell, RtError> {
        Ok(self.0)
    }
}

impl Fetch for Slot {
    #[inline(always)]
    fn fetch<'p>(&self, ex: &mut Exec<'p, '_>, f: &Frame<'p>) -> Result<Cell, RtError> {
        ex.rd(f.scalars[self.0 as usize])
    }
}

/// A call-free subtree: its parent charged its cost.
impl Fetch for Code {
    #[inline(always)]
    fn fetch<'p>(&self, ex: &mut Exec<'p, '_>, f: &Frame<'p>) -> Result<Cell, RtError> {
        self(ex, f)
    }
}

/// A subtree that charges its own cost: an operand of a node whose
/// tree calls a FUNCTION.
impl Fetch for RExpr {
    #[inline(always)]
    fn fetch<'p>(&self, ex: &mut Exec<'p, '_>, f: &Frame<'p>) -> Result<Cell, RtError> {
        ex.eval(f, self)
    }
}

/// A compiled operand before its fetch is chosen.
enum Operand {
    Lit(Cell),
    Slot(ScalarId),
    Expr(RExpr),
}

impl Operand {
    /// What fetching it costs.
    fn cost(&self) -> u64 {
        match self {
            Operand::Expr(e) => e.cost,
            Operand::Lit(_) | Operand::Slot(_) => 1,
        }
    }

    fn has_call(&self) -> bool {
        matches!(self, Operand::Expr(e) if e.has_call)
    }

    /// As an expression that charges its own cost.
    fn charged(self) -> RExpr {
        let code = match self {
            Operand::Lit(c) => code(move |_, _| Ok(c)),
            Operand::Slot(id) => code(move |ex, f| Slot(id).fetch(ex, f)),
            Operand::Expr(e) => return e,
        };
        RExpr {
            cost: 1,
            has_call: false,
            code,
        }
    }
}

/// A call-free operand: its parent charged its cost.
impl Fetch for Operand {
    #[inline]
    fn fetch<'p>(&self, ex: &mut Exec<'p, '_>, f: &Frame<'p>) -> Result<Cell, RtError> {
        match self {
            Operand::Lit(c) => Ok(*c),
            Operand::Slot(id) => Slot(*id).fetch(ex, f),
            Operand::Expr(e) => (e.code)(ex, f),
        }
    }
}

/// Binds `$x` to a call-free operand's concrete fetch, so the closure
/// `$body` builds is specialised to it.
macro_rules! typed {
    ($o:expr, |$x:ident| $body:expr) => {
        match $o {
            Operand::Lit(c) => {
                let $x = Lit(c);
                $body
            }
            Operand::Slot(id) => {
                let $x = Slot(id);
                $body
            }
            Operand::Expr(e) => {
                let $x = e.code;
                $body
            }
        }
    };
}

/// Compiles a lowered expression tree: each node becomes a closure
/// specialised to its operator and to its operands' kinds, and the
/// virtual cost of a call-free tree is charged once, on entry (see
/// [`RExpr`]). This is the only place that looks at tree nodes.
pub(crate) fn compile(node: Node) -> RExpr {
    fn operand(n: Node) -> Operand {
        match n {
            Node::Lit(c) => Operand::Lit(c),
            Node::LoadS(id) => Operand::Slot(id),
            n => Operand::Expr(compile(n)),
        }
    }
    // Charged on entry: everything when no operand calls a FUNCTION,
    // the node's own cost otherwise.
    let entry = |own: u64, ops: &[Operand]| -> (u64, bool) {
        if ops.iter().any(Operand::has_call) {
            (own, true)
        } else {
            (own + ops.iter().map(Operand::cost).sum::<u64>(), false)
        }
    };
    let each_charged =
        |ops: Vec<Operand>| -> Vec<RExpr> { ops.into_iter().map(Operand::charged).collect() };
    let (cost, has_call, code) = match node {
        Node::Lit(c) => return Operand::Lit(c).charged(),
        Node::LoadS(id) => return Operand::Slot(id).charged(),
        Node::LoadA(aid, subs) => {
            let mut subs: Vec<Operand> = subs.into_iter().map(operand).collect();
            let (cost, has_call) = entry(1, &subs);
            let code = if has_call {
                load(aid, each_charged(subs))
            } else if subs.len() == 1 {
                typed!(subs.remove(0), |s| load1(aid, s))
            } else {
                load(aid, subs)
            };
            (cost, has_call, code)
        }
        Node::Bin(op, l, r) => {
            let ops = [operand(*l), operand(*r)];
            let (cost, has_call) = entry(1, &ops);
            let [l, r] = ops;
            let code = if has_call {
                binary(op, l.charged(), r.charged())
            } else {
                typed!(l, |a| typed!(r, |b| binary(op, a, b)))
            };
            (cost, has_call, code)
        }
        Node::Neg(i) => {
            let i = operand(*i);
            let (cost, has_call) = entry(1, std::slice::from_ref(&i));
            let code = if has_call { neg(i.charged()) } else { neg(i) };
            (cost, has_call, code)
        }
        Node::Not(i) => {
            let i = operand(*i);
            let (cost, has_call) = entry(1, std::slice::from_ref(&i));
            let code = if has_call { not(i.charged()) } else { not(i) };
            (cost, has_call, code)
        }
        Node::Intr(intr, args) => {
            let args: Vec<Operand> = args.into_iter().map(operand).collect();
            let (cost, has_call) = entry(4, &args);
            // Lowering does not validate intrinsic arity, and `apply`
            // indexes its argument list: a short call traps instead.
            let code = if args.len() < intr.min_args() {
                let msg = format!(
                    "{:?}: expected at least {} argument(s), got {}",
                    intr,
                    intr.min_args(),
                    args.len()
                );
                code(move |_, _| Err(RtError::Trap(msg.clone())))
            } else if has_call {
                intrinsic(intr, each_charged(args))
            } else {
                intrinsic(intr, args)
            };
            (cost, has_call, code)
        }
        Node::CallF(uid, actuals) => (1, true, call(uid, actuals)),
    };
    RExpr {
        cost,
        has_call,
        code,
    }
}

/// `l op r`, the operator folded in.
fn binary<L: Fetch, R: Fetch>(op: BinOp, l: L, r: R) -> Code {
    macro_rules! fold {
        ($($v:ident)*) => {
            match op {
                $(BinOp::$v => code(move |ex, f| {
                    let a = l.fetch(ex, f)?;
                    let b = r.fetch(ex, f)?;
                    Ok(bin_op(BinOp::$v, a, b))
                }),)*
            }
        };
    }
    fold!(Add Sub Mul Div Pow Eq Ne Lt Le Gt Ge And Or)
}

fn neg<T: Fetch>(x: T) -> Code {
    code(move |ex, f| {
        Ok(match x.fetch(ex, f)? {
            Cell::Int(v) => Cell::Int(-v),
            other => Cell::Real(-other.as_real()),
        })
    })
}

fn not<T: Fetch>(x: T) -> Code {
    code(move |ex, f| Ok(Cell::Int((x.fetch(ex, f)?.as_int() == 0) as i64)))
}

/// A one-subscript array load: the arena's bounds check is the only one.
fn load1<T: Fetch>(aid: ArrId, sub: T) -> Code {
    code(move |ex, f| {
        let sv = sub.fetch(ex, f)?.as_int();
        let d = &f.arrays[aid as usize];
        if d.rank == 0 {
            return Err(too_many_subscripts());
        }
        let at = sv
            .checked_sub(d.lo[0])
            .and_then(|o| o.checked_mul(d.stride[0]))
            .and_then(|o| (d.base as i64).checked_add(o));
        ex.rd_elem(at)
    })
}

fn load<T: Fetch>(aid: ArrId, subs: Vec<T>) -> Code {
    code(move |ex, f| {
        let at = ex.elem_at(f, aid, &subs)?;
        ex.rd_elem(at)
    })
}

/// Intrinsic arguments are evaluated into a fixed buffer; only a call
/// with more arguments than it holds (a long MIN or MAX) takes a `Vec`.
fn intrinsic<T: Fetch>(intr: Intr, args: Vec<T>) -> Code {
    const ARGS: usize = 4;
    if args.len() <= ARGS {
        code(move |ex, f| {
            let mut vals = [Cell::Uninit; ARGS];
            for (v, a) in vals.iter_mut().zip(&args) {
                *v = a.fetch(ex, f)?;
            }
            Ok(intr.apply(&vals[..args.len()]))
        })
    } else {
        code(move |ex, f| {
            let mut vals = Vec::with_capacity(args.len());
            for a in &args {
                vals.push(a.fetch(ex, f)?);
            }
            Ok(intr.apply(&vals))
        })
    }
}

fn call(uid: UnitId, actuals: Vec<RActual>) -> Code {
    code(move |ex, f| {
        let (bound, mark) = ex.bind_actuals(f, &actuals)?;
        let v = ex.call_function(uid, &bound)?;
        ex.stack.release_to(mark);
        Ok(v)
    })
}

/// Does a lowered body contain any CALL statement or function call?
/// Called code can write cells the loop's own write summary does not
/// name, so its presence forces the full-checkpoint fallback.
fn body_has_calls(body: &[RStmt]) -> bool {
    fn expr(e: &RExpr) -> bool {
        e.has_call
    }
    fn lval(lv: &RLval) -> bool {
        match lv {
            RLval::S(_) => false,
            RLval::A(_, subs) => subs.iter().any(expr),
        }
    }
    fn stmt(s: &RStmt) -> bool {
        match s {
            RStmt::Call(..) => true,
            RStmt::Assign(lv, e) => lval(lv) || expr(e),
            RStmt::If(arms, else_blk) => {
                arms.iter().any(|(c, b)| expr(c) || b.iter().any(stmt))
                    || else_blk.as_ref().is_some_and(|b| b.iter().any(stmt))
            }
            RStmt::Do {
                lo, hi, step, body, ..
            } => {
                expr(lo)
                    || expr(hi)
                    || step.as_ref().is_some_and(expr)
                    || body.iter().any(stmt)
            }
            RStmt::DoWhile { cond, body } => expr(cond) || body.iter().any(stmt),
            RStmt::Read(items) => items.iter().any(lval),
            RStmt::Write(items) => items.iter().any(|it| match it {
                WItem::Str(_) => false,
                WItem::E(e) => expr(e),
            }),
            RStmt::Return | RStmt::Stop => false,
        }
    }
    body.iter().any(stmt)
}

/// The loop variable's value at trip `t` (`t = trip` is the exit
/// value): program-level integer arithmetic, so wrapping like `bin_op`.
fn do_value(lo: i64, t: i64, step: i64) -> i64 {
    lo.wrapping_add(t.wrapping_mul(step))
}

fn conflict(a: &RaceLog, b: &RaceLog) -> Option<usize> {
    for w in &a.writes {
        if b.writes.contains(w) || b.reads.contains(w) {
            return Some(*w);
        }
    }
    for w in &b.writes {
        if a.reads.contains(w) {
            return Some(*w);
        }
    }
    None
}

fn red_identity(op: RedOp) -> Cell {
    match op {
        RedOp::Add => Cell::Real(0.0),
        RedOp::Mul => Cell::Real(1.0),
        RedOp::Min => Cell::Real(f64::INFINITY),
        RedOp::Max => Cell::Real(f64::NEG_INFINITY),
    }
}

fn red_combine(op: RedOp, a: Cell, b: Cell) -> Cell {
    // Reductions accumulate in the slot's own type where possible; the
    // identity is Real, so integer reductions coerce on final store.
    match op {
        RedOp::Add => match (a, b) {
            (Cell::Int(x), Cell::Int(y)) => Cell::Int(x.wrapping_add(y)),
            (x, y) => Cell::Real(x.as_real() + y.as_real()),
        },
        RedOp::Mul => match (a, b) {
            (Cell::Int(x), Cell::Int(y)) => Cell::Int(x.wrapping_mul(y)),
            (x, y) => Cell::Real(x.as_real() * y.as_real()),
        },
        RedOp::Min => Cell::Real(a.as_real().min(b.as_real())),
        RedOp::Max => Cell::Real(a.as_real().max(b.as_real())),
    }
}

#[inline(always)]
fn bin_op(op: BinOp, a: Cell, b: Cell) -> Cell {
    use BinOp::*;
    match op {
        Add | Sub | Mul | Div | Pow => match (a, b) {
            (Cell::Int(x), Cell::Int(y)) => Cell::Int(match op {
                Add => x.wrapping_add(y),
                Sub => x.wrapping_sub(y),
                Mul => x.wrapping_mul(y),
                Div => {
                    if y == 0 {
                        0
                    } else {
                        x.wrapping_div(y)
                    }
                }
                Pow => {
                    if y >= 0 {
                        x.wrapping_pow(y.min(63) as u32)
                    } else {
                        0
                    }
                }
                _ => unreachable!(),
            }),
            (x, y) => {
                let (xf, yf) = (x.as_real(), y.as_real());
                Cell::Real(match op {
                    Add => xf + yf,
                    Sub => xf - yf,
                    Mul => xf * yf,
                    Div => xf / yf,
                    Pow => {
                        if let Cell::Int(p) = b {
                            xf.powi(p as i32)
                        } else {
                            xf.powf(yf)
                        }
                    }
                    _ => unreachable!(),
                })
            }
        },
        Eq | Ne | Lt | Le | Gt | Ge => {
            let c = match (a, b) {
                (Cell::Int(x), Cell::Int(y)) => x.cmp(&y),
                (x, y) => x
                    .as_real()
                    .partial_cmp(&y.as_real())
                    .unwrap_or(std::cmp::Ordering::Equal),
            };
            let t = match op {
                Eq => c.is_eq(),
                Ne => c.is_ne(),
                Lt => c.is_lt(),
                Le => c.is_le(),
                Gt => c.is_gt(),
                Ge => c.is_ge(),
                _ => unreachable!(),
            };
            Cell::Int(t as i64)
        }
        And => Cell::Int(((a.as_int() != 0) && (b.as_int() != 0)) as i64),
        Or => Cell::Int(((a.as_int() != 0) || (b.as_int() != 0)) as i64),
    }
}
