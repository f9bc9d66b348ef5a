//! Message-passing simulation: ranks as OS threads.
//!
//! Each rank runs the whole program against its own private memory (its
//! own COMMON storage), connected by per-pair message queues and
//! generation-counted collectives — the execution model of the paper's
//! hand-written MPI versions. `MP*` builtins:
//!
//! | builtin | semantics |
//! |---|---|
//! | `MPMYID(R)` | rank id (0-based) |
//! | `MPNPROC(N)` | rank count |
//! | `MPSEND(A, IOFF, N, DEST, TAG)` | send `A(IOFF..IOFF+N-1)` |
//! | `MPRECV(A, IOFF, N, SRC, TAG)` | receive into `A(IOFF..)` |
//! | `MPREDS(X)` | allreduce-sum of scalar `X` |
//! | `MPALLG(A, IOFF, N)` | allgather: every rank's slice to all |
//! | `MPBAR` | barrier |
//!
//! # Robustness
//!
//! `MPRECV` is tag-selective (a mismatched tag waits, as in MPI, rather
//! than trapping) and every blocking operation is timeout-aware: the
//! world keeps a block board recording what each rank waits on (peer
//! and tag for receives, generation for collectives), and the first
//! rank to exceed [`ExecConfig::mpi_timeout_ms`] composes a deadlock
//! diagnostic naming every blocked rank, poisons the world so the
//! remaining ranks abort instead of hanging, and returns
//! [`RtError::Deadlock`]. Rank panics are contained to
//! [`RtError::RankPanic`], and a [`FaultPlan`](crate::FaultPlan) can
//! drop or delay messages and kill ranks to exercise these paths.

use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use crate::fault::FaultPlan;
use crate::interp::{
    panic_message, run_lowered, Exec, ExecConfig, ExecMode, RtError, RunResult,
};
use crate::memory::Cell;
use crate::rprog::{MpOp, RProgram};
use crate::DeckVal;

/// A point-to-point message.
#[derive(Clone, Debug)]
struct Msg {
    tag: i64,
    payload: Vec<Cell>,
    /// Sender's virtual clock at the send, plus any injected delay.
    sent_at: u64,
}

/// Modeled message latency (virtual ops).
const MSG_LATENCY: u64 = 2_000;
/// Modeled per-word transfer cost.
const MSG_WORD_COST: u64 = 2;
/// Modeled collective cost (plus per-rank term).
const COLL_BASE_COST: u64 = 4_000;
const COLL_RANK_COST: u64 = 500;
/// Wait slice between deadline checks while blocked.
const WAIT_SLICE: Duration = Duration::from_millis(25);

/// What a blocked rank is waiting on (the block board entry).
#[derive(Clone, Copy, Debug)]
enum Wait {
    Recv { src: usize, tag: i64 },
    Collective { gen: u64, op: &'static str },
}

/// Shared world state: one lock guards the message queues, the
/// collective, and the block board, so a deadlock diagnosis sees a
/// consistent snapshot of every rank.
pub struct MpiWorld {
    ranks: usize,
    timeout: Duration,
    plan: FaultPlan,
    m: Mutex<WorldInner>,
    cv: Condvar,
}

struct WorldInner {
    /// `queues[src * ranks + dst]`.
    queues: Vec<VecDeque<Msg>>,
    /// Current wait of each rank, if blocked.
    blocked: Vec<Option<Wait>>,
    /// Ranks that returned from their program (successfully or not).
    done: Vec<bool>,
    /// Ranks killed by fault injection.
    dead: Vec<bool>,
    /// First failure's diagnostic; poisons the world so every
    /// still-blocked rank aborts instead of waiting out its timeout.
    poison: Option<String>,
    /// `MP*` operations started per rank (drives `FaultPlan::kill_rank`).
    ops: Vec<u64>,
    // Collective state (deposit-then-wait, generation-counted).
    arriving: usize,
    arrived: Vec<bool>,
    gen: u64,
    sum_acc: f64,
    clock_acc: u64,
    parts_acc: Vec<(usize, Vec<Cell>)>,
    published_sum: f64,
    published_parts: Vec<(usize, Vec<Cell>)>,
    published_clock: u64,
}

/// A rank's handle on the world.
#[derive(Clone)]
pub struct MpiEnv<'w> {
    pub rank: usize,
    world: &'w MpiWorld,
}

fn lock(m: &Mutex<WorldInner>) -> MutexGuard<'_, WorldInner> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

impl MpiWorld {
    fn new(ranks: usize, timeout: Duration, plan: FaultPlan) -> MpiWorld {
        MpiWorld {
            ranks,
            timeout,
            plan,
            m: Mutex::new(WorldInner {
                queues: (0..ranks * ranks).map(|_| VecDeque::new()).collect(),
                blocked: vec![None; ranks],
                done: vec![false; ranks],
                dead: vec![false; ranks],
                poison: None,
                ops: vec![0; ranks],
                arriving: 0,
                arrived: vec![false; ranks],
                gen: 0,
                sum_acc: 0.0,
                clock_acc: 0,
                parts_acc: Vec::new(),
                published_sum: 0.0,
                published_parts: Vec::new(),
                published_clock: 0,
            }),
            cv: Condvar::new(),
        }
    }

    /// Records that `rank` begins an `MP*` operation; kills it here if
    /// the fault plan says so.
    fn note_op(&self, rank: usize) -> Result<(), RtError> {
        let mut g = lock(&self.m);
        let idx = g.ops[rank];
        g.ops[rank] += 1;
        if self.plan.kills(rank, idx) && !g.dead[rank] {
            g.dead[rank] = true;
            self.cv.notify_all();
            return Err(RtError::RankKilled { rank });
        }
        Ok(())
    }

    /// Marks a rank as finished so peers blocked on it fail fast.
    fn finish(&self, rank: usize) {
        let mut g = lock(&self.m);
        g.done[rank] = true;
        self.cv.notify_all();
    }

    /// Composes the deadlock diagnostic from the block board: every
    /// rank's state plus undelivered tags addressed to the caller.
    fn diagnose(&self, g: &WorldInner, me: usize) -> String {
        let mut parts = Vec::with_capacity(self.ranks);
        for r in 0..self.ranks {
            let state = if g.dead[r] {
                "killed".to_string()
            } else if g.done[r] {
                "finished".to_string()
            } else {
                match g.blocked[r] {
                    Some(Wait::Recv { src, tag }) => {
                        let pending: Vec<String> = g.queues[src * self.ranks + r]
                            .iter()
                            .map(|m| m.tag.to_string())
                            .collect();
                        let pending = if pending.is_empty() {
                            String::new()
                        } else {
                            format!(" (undelivered tags from {}: [{}])", src, pending.join(", "))
                        };
                        format!("blocked on MPRECV(src={}, tag={}){}", src, tag, pending)
                    }
                    Some(Wait::Collective { gen, op }) => {
                        format!("blocked in {} (collective generation {})", op, gen)
                    }
                    None => "running".to_string(),
                }
            };
            parts.push(format!("rank {} {}", r, state));
        }
        format!(
            "detected by rank {} after {} ms: {}",
            me,
            self.timeout.as_millis(),
            parts.join("; ")
        )
    }

    /// Poisons the world with a diagnostic and wakes every rank.
    fn poison(&self, g: &mut WorldInner, diag: &str) {
        if g.poison.is_none() {
            g.poison = Some(diag.to_string());
        }
        self.cv.notify_all();
    }

    /// Enqueues a message unless the fault plan drops it.
    fn send(&self, src: usize, dst: usize, tag: i64, payload: Vec<Cell>, clock: u64) {
        if self.plan.drops(src, dst, tag) {
            return; // lost on the wire; the sender never knows
        }
        let sent_at = clock + self.plan.delay(src, dst, tag);
        let mut g = lock(&self.m);
        g.queues[src * self.ranks + dst].push_back(Msg {
            tag,
            payload,
            sent_at,
        });
        self.cv.notify_all();
    }

    /// Tag-selective blocking receive with deadlock detection.
    fn recv(&self, me: usize, src: usize, tag: i64) -> Result<Msg, RtError> {
        let deadline = Instant::now() + self.timeout;
        let mut g = lock(&self.m);
        loop {
            if let Some(cause) = &g.poison {
                let cause = cause.clone();
                g.blocked[me] = None;
                return Err(RtError::Aborted { rank: me, cause });
            }
            let qi = src * self.ranks + me;
            if let Some(pos) = g.queues[qi].iter().position(|m| m.tag == tag) {
                g.blocked[me] = None;
                return Ok(g.queues[qi].remove(pos).expect("indexed message"));
            }
            if g.dead[src] || g.done[src] {
                // The peer can never send: report immediately instead
                // of waiting out the timeout.
                let why = if g.dead[src] { "was killed" } else { "finished" };
                let pending: Vec<String> =
                    g.queues[qi].iter().map(|m| m.tag.to_string()).collect();
                let pending = if pending.is_empty() {
                    "no undelivered messages".to_string()
                } else {
                    format!("undelivered tags [{}]", pending.join(", "))
                };
                let diag = format!(
                    "rank {} waits on MPRECV(src={}, tag={}) but rank {} {} ({})",
                    me, src, tag, src, why, pending
                );
                self.poison(&mut g, &diag);
                g.blocked[me] = None;
                return Err(RtError::Deadlock(diag));
            }
            g.blocked[me] = Some(Wait::Recv { src, tag });
            let now = Instant::now();
            if now >= deadline {
                let diag = self.diagnose(&g, me);
                self.poison(&mut g, &diag);
                g.blocked[me] = None;
                return Err(RtError::Deadlock(diag));
            }
            let slice = WAIT_SLICE.min(deadline - now);
            g = self
                .cv
                .wait_timeout(g, slice)
                .unwrap_or_else(|p| p.into_inner())
                .0;
        }
    }

    /// Deposit-then-wait collective; returns `(sum, parts, clock)`
    /// published by the completing rank. Every rank leaves with its
    /// virtual clock advanced to the collective's completion time, or
    /// with a deadlock/abort error if the collective can never finish.
    #[allow(clippy::type_complexity)]
    fn sync(
        &self,
        me: usize,
        op: &'static str,
        add: f64,
        part: Option<(usize, Vec<Cell>)>,
        clock: u64,
    ) -> Result<(f64, Vec<(usize, Vec<Cell>)>, u64), RtError> {
        let deadline = Instant::now() + self.timeout;
        let mut g = lock(&self.m);
        if let Some(cause) = &g.poison {
            return Err(RtError::Aborted {
                rank: me,
                cause: cause.clone(),
            });
        }
        let my_gen = g.gen;
        g.sum_acc += add;
        g.clock_acc = g.clock_acc.max(clock);
        if let Some(p) = part {
            g.parts_acc.push(p);
        }
        g.arriving += 1;
        g.arrived[me] = true;
        if g.arriving == self.ranks {
            g.published_sum = g.sum_acc;
            g.published_parts = std::mem::take(&mut g.parts_acc);
            g.published_clock =
                g.clock_acc + COLL_BASE_COST + COLL_RANK_COST * self.ranks as u64;
            g.sum_acc = 0.0;
            g.clock_acc = 0;
            g.arriving = 0;
            g.arrived.iter_mut().for_each(|a| *a = false);
            g.gen += 1;
            self.cv.notify_all();
        } else {
            while g.gen == my_gen {
                if let Some(cause) = &g.poison {
                    let cause = cause.clone();
                    g.blocked[me] = None;
                    return Err(RtError::Aborted { rank: me, cause });
                }
                // A finished or killed rank can never arrive, so the
                // collective can never complete.
                if let Some(r) =
                    (0..self.ranks).find(|&r| !g.arrived[r] && (g.done[r] || g.dead[r]))
                {
                    let why = if g.dead[r] { "was killed" } else { "finished" };
                    let diag = format!(
                        "rank {} waits in {} (collective generation {}) but rank {} {} \
                         without arriving",
                        me, op, my_gen, r, why
                    );
                    self.poison(&mut g, &diag);
                    g.blocked[me] = None;
                    return Err(RtError::Deadlock(diag));
                }
                g.blocked[me] = Some(Wait::Collective { gen: my_gen, op });
                let now = Instant::now();
                if now >= deadline {
                    let diag = self.diagnose(&g, me);
                    self.poison(&mut g, &diag);
                    g.blocked[me] = None;
                    return Err(RtError::Deadlock(diag));
                }
                let slice = WAIT_SLICE.min(deadline - now);
                g = self
                    .cv
                    .wait_timeout(g, slice)
                    .unwrap_or_else(|p| p.into_inner())
                    .0;
            }
            g.blocked[me] = None;
        }
        Ok((g.published_sum, g.published_parts.clone(), g.published_clock))
    }
}

/// The word offset `IOFF - 1` of a buffer argument, clamped at zero.
fn buffer_offset(op: &str, ioff: i64) -> Result<usize, RtError> {
    ioff.checked_sub(1)
        .and_then(|o| usize::try_from(o.max(0)).ok())
        .ok_or_else(|| RtError::Trap(format!("{}: buffer offset {} overflows", op, ioff)))
}

/// The arena cells `[base + off, base + off + count)` a buffer argument
/// covers, or a trap when that range overflows or a non-empty one
/// leaves the arena.
/// Checked before anything is allocated or moved, so a hostile COUNT
/// costs nothing and fails the same way in every build profile.
fn buffer(
    ex: &Exec<'_, '_>,
    op: &str,
    base: usize,
    off: usize,
    count: usize,
) -> Result<Range<usize>, RtError> {
    base.checked_add(off)
        .and_then(|start| Some(start..start.checked_add(count)?))
        .filter(|r| r.is_empty() || r.end <= ex.arena_len())
        .ok_or_else(|| {
            RtError::Trap(format!(
                "{}: {} elements at offset {} lie outside memory",
                op, count, off
            ))
        })
}

/// Executes one `MP*` builtin from inside the interpreter.
pub(crate) fn exec_builtin(
    ex: &mut Exec<'_, '_>,
    op: MpOp,
    args: &[usize],
) -> Result<(), RtError> {
    let Some(env) = ex.mpi.clone() else {
        return Err(RtError::Trap(
            "MP* builtin outside an MPI execution".into(),
        ));
    };
    let w = env.world;
    w.note_op(env.rank)?;
    let addr = |i: usize| -> Result<usize, RtError> {
        args.get(i)
            .copied()
            .ok_or_else(|| RtError::Trap("missing MP* argument".into()))
    };
    // A negative COUNT moves nothing.
    let count = |ex: &mut Exec<'_, '_>, i: usize| -> Result<usize, RtError> {
        Ok(usize::try_from(ex.peek(addr(i)?)?.as_int()).unwrap_or(0))
    };
    match op {
        MpOp::MyId => ex.poke(addr(0)?, Cell::Int(env.rank as i64))?,
        MpOp::NProc => ex.poke(addr(0)?, Cell::Int(w.ranks as i64))?,
        MpOp::Send => {
            // (ARR, IOFF, COUNT, DEST, TAG): ARR bound = base address.
            let base = addr(0)?;
            let ioff = ex.peek(addr(1)?)?.as_int();
            let count = count(ex, 2)?;
            let dest = ex.peek(addr(3)?)?.as_int() as usize;
            let tag = ex.peek(addr(4)?)?.as_int();
            if dest >= w.ranks {
                return Err(RtError::Trap(format!("MPSEND to rank {}", dest)));
            }
            let cells = buffer(ex, "MPSEND", base, buffer_offset("MPSEND", ioff)?, count)?;
            let buf = cells.map(|a| ex.peek(a)).collect::<Result<Vec<_>, _>>()?;
            let words = buf.len() as u64;
            w.send(env.rank, dest, tag, buf, ex.virt);
            ex.virt += MSG_WORD_COST * words;
        }
        MpOp::Recv => {
            let base = addr(0)?;
            let ioff = ex.peek(addr(1)?)?.as_int();
            let count = count(ex, 2)?;
            let src = ex.peek(addr(3)?)?.as_int() as usize;
            let tag = ex.peek(addr(4)?)?.as_int();
            if src >= w.ranks {
                return Err(RtError::Trap(format!("MPRECV from rank {}", src)));
            }
            let cells = buffer(ex, "MPRECV", base, buffer_offset("MPRECV", ioff)?, count)?;
            let msg = w.recv(env.rank, src, tag)?;
            ex.virt = ex
                .virt
                .max(msg.sent_at + MSG_LATENCY + MSG_WORD_COST * msg.payload.len() as u64);
            for (a, v) in cells.zip(msg.payload) {
                ex.poke(a, v)?;
            }
        }
        MpOp::RedSum => {
            let a = addr(0)?;
            let v = ex.peek(a)?.as_real();
            let (sum, _, clock) = w.sync(env.rank, "MPREDS", v, None, ex.virt)?;
            ex.virt = ex.virt.max(clock);
            ex.poke(a, Cell::Real(sum))?;
        }
        MpOp::AllGather => {
            let base = addr(0)?;
            let ioff = ex.peek(addr(1)?)?.as_int();
            let count = count(ex, 2)?;
            let start = buffer_offset("MPALLG", ioff)?;
            let cells = buffer(ex, "MPALLG", base, start, count)?;
            let slice = cells.map(|a| ex.peek(a)).collect::<Result<Vec<_>, _>>()?;
            let (_, parts, clock) =
                w.sync(env.rank, "MPALLG", 0.0, Some((start, slice)), ex.virt)?;
            ex.virt = ex.virt.max(clock);
            let mut moved = 0u64;
            for (off, part) in parts {
                moved += part.len() as u64;
                for (a, v) in buffer(ex, "MPALLG", base, off, part.len())?.zip(part) {
                    ex.poke(a, v)?;
                }
            }
            ex.virt += MSG_WORD_COST * moved;
        }
        MpOp::Barrier => {
            let (_, _, clock) = w.sync(env.rank, "MPBAR", 0.0, None, ex.virt)?;
            ex.virt = ex.virt.max(clock);
        }
    }
    Ok(())
}

/// Ranks the severity of a per-rank result so the world reports the
/// root cause, not a follow-on abort.
fn severity(res: &Result<RunResult, RtError>) -> u8 {
    match res {
        Err(RtError::RankPanic { .. }) => 0,
        Err(RtError::RankKilled { .. }) => 1,
        Err(RtError::Deadlock(_)) => 3,
        Err(RtError::Aborted { .. }) => 4,
        Err(_) => 2,
        Ok(_) => 5,
    }
}

/// Runs the program on `ranks` simulated processes, each a serial
/// interpreter over its own memory; returns rank 0's output with the
/// overall wall time. `cfg` supplies the stack bound, the output and op
/// caps, the deadlock timeout and the fault plan; its `mode` and
/// `threads` do not apply to ranks.
pub fn run_mpi(
    rp: &apar_minifort::ResolvedProgram,
    deck: &[DeckVal],
    ranks: usize,
    cfg: &ExecConfig,
) -> Result<RunResult, RtError> {
    assert!(ranks >= 1);
    let prog = RProgram::lower(rp)?;
    let world = MpiWorld::new(
        ranks,
        Duration::from_millis(cfg.mpi_timeout_ms),
        cfg.fault.clone(),
    );
    let t0 = Instant::now();
    let results: Vec<Result<RunResult, RtError>> = std::thread::scope(|s| {
        let mut handles = Vec::new();
        for r in 0..ranks {
            let world = &world;
            let prog = &prog;
            let rank_cfg = ExecConfig {
                mode: ExecMode::Serial,
                threads: 1,
                ..cfg.clone()
            };
            handles.push(s.spawn(move || {
                // Panic containment: a rank panic becomes a structured
                // error, and the rank is marked finished either way so
                // peers blocked on it fail fast instead of hanging.
                let res = catch_unwind(AssertUnwindSafe(|| {
                    run_lowered(prog, deck, &rank_cfg, Some(MpiEnv { rank: r, world }))
                }))
                .unwrap_or_else(|payload| {
                    Err(RtError::RankPanic {
                        rank: r,
                        message: panic_message(payload.as_ref()),
                    })
                });
                world.finish(r);
                res
            }));
        }
        handles
            .into_iter()
            .enumerate()
            .map(|(r, h)| {
                h.join().unwrap_or_else(|payload| {
                    Err(RtError::RankPanic {
                        rank: r,
                        message: panic_message(payload.as_ref()),
                    })
                })
            })
            .collect()
    });
    let wall: Duration = t0.elapsed();
    // Report the most causal failure: a panic or injected kill over the
    // deadlock it provoked, and a deadlock over the aborts it fanned out.
    if let Some(err) = results
        .iter()
        .filter(|r| r.is_err())
        .min_by_key(|r| severity(r))
    {
        return Err(err.clone().unwrap_err());
    }
    let mut rank0 = None;
    let mut max_virt = 0u64;
    for (r, res) in results.into_iter().enumerate() {
        let out = res?;
        max_virt = max_virt.max(out.virt);
        if r == 0 {
            rank0 = Some(out);
        }
    }
    let mut out = rank0.expect("rank 0 result");
    out.wall = wall;
    out.forks = ranks as u64;
    // Modeled elapsed time: the slowest rank, plus per-rank startup.
    out.virt = max_virt + 5_000 * ranks as u64;
    Ok(out)
}
