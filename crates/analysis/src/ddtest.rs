//! The data-dependence test: GCD test plus the Range Test over symbolic
//! subscripts — the pass Figure 3 shows dominating compile time.
//!
//! For a loop `DO I = lo, hi, s`, a cross-iteration dependence between
//! two references exists when their subscript vectors can be equal for
//! `I ≠ I'`. Independence is proved per dimension: rename the loop
//! variable (and all inner-loop variables) of the second reference to
//! primed copies ranging over the same space, restrict to `I' > I` and
//! `I' < I` in turn, and ask the prover for separation or a GCD
//! divisibility contradiction.
//!
//! Every failure records *why* — the hindrance taxonomy of the paper's
//! §3. Capability gates reproduce the baseline compiler: non-affine
//! subscripts fail without `extended_symbolic`, distinct aliased names
//! fail without `interprocedural_noalias`, subscripted subscripts fail
//! without `indirection_analysis`, shape-changing call boundaries fail
//! without `reshaped_access`, and an exhausted op budget yields
//! `Complexity`.
//!
//! # Ops are modeled; wall time is ours
//!
//! Symbolic ops are the *modeled* cost of that 2008 algorithm — they
//! define the `complexity` class and every Figure 2/3/5 number — so
//! they stay a pure function of the loop's content. The implementation
//! is free to be faster than the model: everything that belongs to one
//! access (feature gates, declared rank, tractability, primed
//! subscripts, which dimensions mention the loop variable or a
//! rangeless symbol) is derived once per loop instead of once per
//! pair, arrays get dense ids so a cross-array visit is an integer
//! compare, and a proof the loop already ran is not run again — its
//! recorded op cost is *replayed* onto the counter ([`ProofMemo`]).

use std::cell::RefCell;
use std::collections::HashMap;

use apar_minifort::ast::Expr as Ast;
use apar_minifort::{ResolvedProgram, StmtId};
use apar_symbolic::{AssumeEnv, Atom, Expr, OpCounter, Prover, Range, VarId};

use crate::access::{AccessKind, ArrayAccess, LoopAccesses};
use crate::alias::AliasInfo;
use crate::ranges::ScalarState;
use crate::summary::Summaries;
use crate::symx::{ExprFeatures, SymMap};
use crate::Capabilities;

/// Why a dependence was assumed (the paper's hindrance taxonomy).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Hindrance {
    /// Distinct names that may share storage.
    Aliasing,
    /// Subscript comparison involved variables with no known range.
    Rangeless,
    /// Subscripted subscripts (`A(IA(I))`).
    Indirection,
    /// Subscripts beyond the implemented symbolic analysis.
    SymbolAnalysis,
    /// Declared/used shape mismatch across a call or storage overlay.
    AccessRepresentation,
    /// The symbolic-op budget was exhausted.
    Complexity,
    /// A call that could not be summarized or inlined.
    CallOpaque,
    /// Genuine (or at least unrefuted affine) dependence.
    Real,
}

/// Kind of a dependence, by the access kinds of its endpoints.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DependenceKind {
    Flow,
    Anti,
    Output,
}

/// One assumed or unrefuted dependence.
#[derive(Clone, Debug)]
pub struct Dependence {
    pub array: String,
    pub src: StmtId,
    pub dst: StmtId,
    pub kind: DependenceKind,
    pub why: Hindrance,
}

/// Result of dependence-testing one loop.
#[derive(Clone, Debug, Default)]
pub struct DdOutcome {
    /// No cross-iteration array dependences (scalars are judged by the
    /// privatization/reduction passes).
    pub independent: bool,
    pub dependences: Vec<Dependence>,
    pub pairs_tested: usize,
    pub budget_exceeded: bool,
}

/// A window access contributed by an un-inlined call: the callee touches
/// `[base, base + width)` of `array` each iteration, where `width` is
/// the loop-variable stride of `base` — the framework-template knowledge
/// behind the `reshaped_access` capability. An unknown base means
/// "whole array".
#[derive(Clone, Debug)]
pub struct CallWindow {
    pub array: String,
    pub base: Expr,
    pub kind: AccessKind,
    pub stmt: StmtId,
    /// Failure tag carried when the window could not be modeled.
    pub failed: Option<Hindrance>,
}

/// The loop under test plus its analysis context.
pub struct DdInput<'a> {
    pub rp: &'a ResolvedProgram,
    pub unit: &'a str,
    pub loop_var: &'a str,
    pub lo: &'a Ast,
    pub hi: &'a Ast,
    pub step: Option<&'a Ast>,
    pub state: &'a ScalarState,
    pub la: &'a LoopAccesses,
}

/// Runs the dependence test for one loop.
pub fn test_loop(
    input: &DdInput<'_>,
    sym: &mut SymMap,
    caps: Capabilities,
    alias: &AliasInfo,
    summaries: &Summaries,
    ops: &OpCounter,
) -> DdOutcome {
    run_loop(
        input,
        sym,
        caps,
        alias,
        summaries,
        ops,
        ProofMemo::default(),
    )
}

/// The reference the transparency tests compare against: every proof
/// runs, nothing is replayed. Not a runtime option — test builds only.
#[cfg(test)]
fn test_loop_unmemoized(
    input: &DdInput<'_>,
    sym: &mut SymMap,
    caps: Capabilities,
    alias: &AliasInfo,
    summaries: &Summaries,
    ops: &OpCounter,
) -> DdOutcome {
    let memo = ProofMemo {
        off: true,
        ..ProofMemo::default()
    };
    run_loop(input, sym, caps, alias, summaries, ops, memo)
}

fn run_loop(
    input: &DdInput<'_>,
    sym: &mut SymMap,
    caps: Capabilities,
    alias: &AliasInfo,
    summaries: &Summaries,
    ops: &OpCounter,
    memo: ProofMemo,
) -> DdOutcome {
    let mut out = DdOutcome::default();
    let rp = input.rp;
    let unit = input.unit;
    let la = input.la;

    // Build the environment: outer state + this loop's variable + inner
    // loop variables.
    let mut env = input.state.env.clone();
    let iv = sym.var(rp, unit, input.loop_var);
    let mut feats = ExprFeatures::default();
    let lo_e = input
        .state
        .substitute(&sym.expr(rp, unit, input.lo, &mut feats));
    let hi_e = input
        .state
        .substitute(&sym.expr(rp, unit, input.hi, &mut feats));
    let step_c = match input.step {
        None => Some(1i64),
        Some(e) => input
            .state
            .substitute(&sym.expr(rp, unit, e, &mut feats))
            .as_int(),
    };
    let Some(step_c) = step_c else {
        out.dependences.push(Dependence {
            array: String::new(),
            src: StmtId(0),
            dst: StmtId(0),
            kind: DependenceKind::Flow,
            why: Hindrance::SymbolAnalysis,
        });
        return out;
    };
    if step_c == 0 {
        return out; // malformed; leave serial
    }
    let (lo_n, hi_n) = if step_c > 0 {
        (lo_e, hi_e)
    } else {
        (hi_e, lo_e)
    };
    env.set(iv, Range::between(lo_n.clone(), hi_n.clone()));
    // Inner loop variables range over their own bounds.
    let mut inner_vars: Vec<VarId> = Vec::new();
    for (_, v, lo, hi) in &la.inner_loops {
        let vid = sym.var(rp, unit, v);
        inner_vars.push(vid);
        let mut f2 = ExprFeatures::default();
        let l = input.state.substitute(&sym.expr(rp, unit, lo, &mut f2));
        let h = input.state.substitute(&sym.expr(rp, unit, hi, &mut f2));
        if !l.has_unknown() && !h.has_unknown() {
            env.set(vid, Range::between(l, h));
        }
    }

    // Primed copies of the loop variable and inner variables.
    let mut primed: HashMap<VarId, VarId> = HashMap::new();
    for &v in std::iter::once(&iv).chain(inner_vars.iter()) {
        let pname = format!("{}'", sym.interner.name(v).to_owned());
        let pv = sym.interner.intern(&pname);
        primed.insert(v, pv);
        let r = env.range_of(v);
        env.set(pv, r);
    }
    let ivp = primed[&iv];

    // Materialize window accesses from remaining calls.
    let mut windows: Vec<CallWindow> = Vec::new();
    for call in &la.calls {
        match call_windows(rp, unit, sym, &call.state_at, summaries, caps, call) {
            Some(ws) => windows.extend(ws),
            None => {
                out.dependences.push(Dependence {
                    array: call.callee.clone(),
                    src: call.stmt,
                    dst: call.stmt,
                    kind: DependenceKind::Flow,
                    why: Hindrance::CallOpaque,
                });
            }
        }
    }

    // The two directional environments, `I' >= I + step` and
    // `I' <= I - step`, built once and shared by every pair.
    let step = Expr::int(step_c.abs());
    let mut env_above = env.clone();
    env_above.set(ivp, Range::between(Expr::var(iv).add(step.clone()), hi_n));
    let mut env_below = env.clone();
    env_below.set(ivp, Range::between(lo_n, Expr::var(iv).sub(step)));

    let tester = PairTester {
        rp,
        unit,
        caps,
        env: &env,
        env_above: &env_above,
        env_below: &env_below,
        ops,
        iv,
        ivp,
        primed: &primed,
        memo: RefCell::new(memo),
    };
    let accs = &la.accesses;
    let mut arrays = ArrayTable::new(rp, unit, alias);
    let facts: Vec<AccessFacts> = accs
        .iter()
        .map(|a| tester.access_facts(a, &mut arrays))
        .collect();
    for (i, (a, fa)) in accs.iter().zip(&facts).enumerate() {
        for (b, fb) in accs.iter().zip(&facts).skip(i) {
            if a.kind == AccessKind::Read && b.kind == AccessKind::Read {
                continue;
            }
            if caps.guarded_regions && a.mutually_exclusive(b) {
                continue;
            }
            out.pairs_tested += 1;
            if fa.array != fb.array {
                if arrays.may_alias(fa.array, fb.array) {
                    let why = if caps.reshaped_access {
                        match tester.test_linearized_pair(sym, a, b) {
                            Ok(true) => continue,
                            Ok(false) => Hindrance::Real,
                            Err(h) => h,
                        }
                    } else {
                        Hindrance::Aliasing
                    };
                    push_dep(&mut out, a, b, why);
                }
                continue;
            }
            match tester.test_pair(a, fa, b, fb) {
                Ok(true) => {}
                Ok(false) => push_dep(&mut out, a, b, Hindrance::Real),
                Err(h) => push_dep(&mut out, a, b, h),
            }
        }
    }
    // Element-vs-window and window-vs-window pairs.
    let window_ids: Vec<usize> = windows.iter().map(|w| arrays.id(&w.array)).collect();
    for (i, w) in windows.iter().enumerate() {
        if let Some(h) = w.failed {
            push_dep_raw(&mut out, &w.array, w.stmt, w.stmt, h);
            continue;
        }
        for (a, fa) in accs.iter().zip(&facts) {
            if w.kind == AccessKind::Read && a.kind == AccessKind::Read {
                continue;
            }
            if !arrays.may_alias(window_ids[i], fa.array) {
                continue;
            }
            out.pairs_tested += 1;
            match tester.test_window_vs_elem(sym, w, a) {
                Ok(true) => {}
                Ok(false) => push_dep_raw(&mut out, &w.array, w.stmt, a.stmt, Hindrance::Real),
                Err(h) => push_dep_raw(&mut out, &w.array, w.stmt, a.stmt, h),
            }
        }
        for j in (i + 1..windows.len()).chain(std::iter::once(i)) {
            let w2 = &windows[j];
            if w.kind == AccessKind::Read && w2.kind == AccessKind::Read {
                continue;
            }
            if w2.failed.is_some() {
                continue;
            }
            if !arrays.may_alias(window_ids[i], window_ids[j]) {
                continue;
            }
            out.pairs_tested += 1;
            match tester.test_window_pair(w, w2) {
                Ok(true) => {}
                Ok(false) => push_dep_raw(&mut out, &w.array, w.stmt, w2.stmt, Hindrance::Real),
                Err(h) => push_dep_raw(&mut out, &w.array, w.stmt, w2.stmt, h),
            }
        }
    }

    out.budget_exceeded = ops.exceeded();
    if out.budget_exceeded {
        out.dependences.push(Dependence {
            array: String::new(),
            src: StmtId(0),
            dst: StmtId(0),
            kind: DependenceKind::Flow,
            why: Hindrance::Complexity,
        });
    }
    out.independent = out.dependences.is_empty();
    out
}

fn push_dep(out: &mut DdOutcome, a: &ArrayAccess, b: &ArrayAccess, why: Hindrance) {
    let kind = match (a.kind, b.kind) {
        (AccessKind::Write, AccessKind::Write) => DependenceKind::Output,
        (AccessKind::Write, AccessKind::Read) => DependenceKind::Flow,
        (AccessKind::Read, AccessKind::Write) => DependenceKind::Anti,
        _ => DependenceKind::Flow,
    };
    out.dependences.push(Dependence {
        array: a.array.clone(),
        src: a.stmt,
        dst: b.stmt,
        kind,
        why,
    });
}

fn push_dep_raw(out: &mut DdOutcome, array: &str, src: StmtId, dst: StmtId, why: Hindrance) {
    out.dependences.push(Dependence {
        array: array.to_string(),
        src,
        dst,
        kind: DependenceKind::Flow,
        why,
    });
}

/// Derives per-array windows from a call using the callee summary.
/// `None` means the callee is opaque.
fn call_windows(
    rp: &ResolvedProgram,
    unit: &str,
    sym: &mut SymMap,
    state: &ScalarState,
    summaries: &Summaries,
    caps: Capabilities,
    call: &crate::access::LoopCall,
) -> Option<Vec<CallWindow>> {
    let eff = summaries.of(&call.callee);
    if eff.opaque {
        return None;
    }
    let mut ws = Vec::new();
    for (pos, arg) in call.args.iter().enumerate() {
        let reads = eff.read_array_formals.contains(&pos);
        let writes = eff.written_array_formals.contains(&pos);
        if !reads && !writes {
            continue;
        }
        let kind = if writes {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        match arg {
            Ast::Name(n) => {
                // Whole-array access every iteration.
                ws.push(CallWindow {
                    array: n.clone(),
                    base: Expr::unknown(),
                    kind,
                    stmt: call.stmt,
                    failed: Some(Hindrance::AccessRepresentation),
                });
            }
            Ast::Index { name, subs } => {
                if !caps.reshaped_access {
                    ws.push(CallWindow {
                        array: name.clone(),
                        base: Expr::unknown(),
                        kind,
                        stmt: call.stmt,
                        failed: Some(Hindrance::AccessRepresentation),
                    });
                    continue;
                }
                let mut f = ExprFeatures::default();
                match linearize(rp, unit, sym, name, subs, state, &mut f) {
                    Some(base) if !f.indirection => ws.push(CallWindow {
                        array: name.clone(),
                        base,
                        kind,
                        stmt: call.stmt,
                        failed: None,
                    }),
                    _ => ws.push(CallWindow {
                        array: name.clone(),
                        base: Expr::unknown(),
                        kind,
                        stmt: call.stmt,
                        failed: Some(if f.indirection {
                            Hindrance::Indirection
                        } else {
                            Hindrance::AccessRepresentation
                        }),
                    }),
                }
            }
            _ => {}
        }
    }
    // COMMON arrays touched by the callee are whole-array effects.
    for (roots, kind) in [
        (&eff.written_common_arrays, AccessKind::Write),
        (&eff.read_common_arrays, AccessKind::Read),
    ] {
        for root in roots.iter() {
            if let Some(name) = common_member_name(rp, unit, root) {
                ws.push(CallWindow {
                    array: name,
                    base: Expr::unknown(),
                    kind,
                    stmt: call.stmt,
                    failed: Some(Hindrance::AccessRepresentation),
                });
            }
        }
    }
    Some(ws)
}

fn common_member_name(rp: &ResolvedProgram, unit: &str, root: &str) -> Option<String> {
    use apar_minifort::symtab::{Storage, SymbolKind};
    let table = rp.tables.get(unit)?;
    for s in table.iter() {
        if let (SymbolKind::Array(_), Storage::Common { block, offset }) = (&s.kind, &s.storage) {
            if format!("/{}/+{}", block, offset) == root {
                return Some(s.name.clone());
            }
        }
    }
    None
}

/// Column-major linearized element offset of `name(subs)` (0-based).
pub fn linearize(
    rp: &ResolvedProgram,
    unit: &str,
    sym: &mut SymMap,
    name: &str,
    subs: &[Ast],
    state: &ScalarState,
    feats: &mut ExprFeatures,
) -> Option<Expr> {
    let table = rp.tables.get(unit)?;
    let s = table.get(name)?;
    let shape = s.shape()?;
    let mut offset = Expr::int(0);
    let mut stride = Expr::int(1);
    for (k, sub) in subs.iter().enumerate() {
        let d = shape.dims.get(k)?;
        let mut f_lo = ExprFeatures::default();
        let lo = state.substitute(&sym.expr(rp, unit, &d.lo, &mut f_lo));
        let se = state.substitute(&sym.expr(rp, unit, sub, feats));
        offset = offset.add(se.sub(lo.clone()).mul(stride.clone()));
        match &d.hi {
            Some(h) => {
                let hi = state.substitute(&sym.expr(rp, unit, h, &mut f_lo));
                stride = stride.mul(hi.sub(lo).add(Expr::int(1)));
            }
            None => {
                if k + 1 < subs.len() {
                    return None; // assumed-size before last subscript
                }
            }
        }
    }
    Some(offset)
}

/// Dense ids for the array names a loop touches, the declared rank of
/// each, and a may-alias table over id pairs — so the pair loops
/// compare integers and ask [`AliasInfo::may_alias`] once per pair of
/// *arrays*, not once per pair of accesses.
struct ArrayTable<'a> {
    rp: &'a ResolvedProgram,
    unit: &'a str,
    alias: &'a AliasInfo,
    names: Vec<&'a str>,
    ids: HashMap<&'a str, usize>,
    /// Declared rank per id; `None` when the unit declares no shape.
    ranks: Vec<Option<usize>>,
    /// Answers so far, keyed `(smaller id, larger id)`.
    aliased: HashMap<(usize, usize), bool>,
}

impl<'a> ArrayTable<'a> {
    fn new(rp: &'a ResolvedProgram, unit: &'a str, alias: &'a AliasInfo) -> Self {
        ArrayTable {
            rp,
            unit,
            alias,
            names: Vec::new(),
            ids: HashMap::new(),
            ranks: Vec::new(),
            aliased: HashMap::new(),
        }
    }

    fn id(&mut self, name: &'a str) -> usize {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        let id = self.names.len();
        self.names.push(name);
        self.ids.insert(name, id);
        self.ranks.push(
            self.rp
                .tables
                .get(self.unit)
                .and_then(|t| t.get(name))
                .and_then(|s| s.shape())
                .map(|sh| sh.rank()),
        );
        id
    }

    fn may_alias(&mut self, a: usize, b: usize) -> bool {
        if a == b {
            return true;
        }
        let key = (a.min(b), a.max(b));
        let (rp, unit, alias, names) = (self.rp, self.unit, self.alias, &self.names);
        *self
            .aliased
            .entry(key)
            .or_insert_with(|| alias.may_alias(rp, unit, names[key.0], names[key.1]))
    }
}

/// What [`PairTester::test_pair`] needs to know about one access,
/// derived once per loop rather than once per pair it takes part in.
struct AccessFacts {
    /// The array's id in the loop's [`ArrayTable`].
    array: usize,
    /// The failure this access forces on every pair it joins
    /// (subscripted subscripts without the capability, opaque calls).
    gate: Option<Hindrance>,
    /// Subscript count differs from the declared rank and
    /// `reshaped_access` is off.
    rank_mismatch: bool,
    /// Some subscript is beyond the 2008 baseline engine and
    /// `extended_symbolic` is off.
    intractable: bool,
    dims: Vec<DimFacts>,
}

/// One subscript of one access, in both roles it can play in a pair.
struct DimFacts {
    /// The subscript with the loop and inner-loop variables primed —
    /// its form as the *second* reference of a pair.
    primed: Expr,
    /// The plain subscript mentions `I`.
    mentions_iv: bool,
    /// The primed subscript mentions `I'`.
    primed_mentions_ivp: bool,
    /// Some variable other than `I` / `I'` has no range, in the plain
    /// and in the primed form.
    rangeless: bool,
    primed_rangeless: bool,
}

/// Proofs this loop has already run, keyed by the question — the
/// subscript difference `d1 - d2` and whether it was asked under the
/// base environment or under both directional ones — with the answer
/// and the ops it cost. Within one loop the environments are fixed and
/// the prover is deterministic, so a repeated question has the same
/// answer and the same cost; [`PairTester::separates`] replays that
/// cost instead of re-deriving it. Only untripped proofs are recorded
/// and a record is only used when [`OpCounter::replay`] accepts it, so
/// the counter — and with it every classification — cannot tell.
#[derive(Default)]
struct ProofMemo {
    /// Index 0: base environment; index 1: both directions.
    proved: [HashMap<Expr, (bool, u64)>; 2],
    /// Reference mode for the transparency tests: remember nothing.
    #[cfg(test)]
    off: bool,
}

impl ProofMemo {
    fn get(&self, diff: &Expr, directional: bool) -> Option<(bool, u64)> {
        self.proved[directional as usize].get(diff).copied()
    }

    fn record(&mut self, diff: Expr, directional: bool, proved: bool, cost: u64) {
        #[cfg(test)]
        if self.off {
            return;
        }
        self.proved[directional as usize].insert(diff, (proved, cost));
    }
}

struct PairTester<'a> {
    rp: &'a ResolvedProgram,
    unit: &'a str,
    caps: Capabilities,
    env: &'a AssumeEnv,
    /// `env` plus `I' >= I + step`, and `env` plus `I' <= I - step`.
    env_above: &'a AssumeEnv,
    env_below: &'a AssumeEnv,
    ops: &'a OpCounter,
    iv: VarId,
    ivp: VarId,
    primed: &'a HashMap<VarId, VarId>,
    memo: RefCell<ProofMemo>,
}

impl PairTester<'_> {
    fn access_facts<'n>(&self, acc: &'n ArrayAccess, arrays: &mut ArrayTable<'n>) -> AccessFacts {
        let array = arrays.id(&acc.array);
        let gate = if acc.features.indirection && !self.caps.indirection_analysis {
            Some(Hindrance::Indirection)
        } else if acc.features.opaque_call {
            Some(Hindrance::SymbolAnalysis)
        } else {
            None
        };
        let declared_rank = arrays.ranks[array].unwrap_or(acc.subs.len());
        let dims = acc
            .subs
            .iter()
            .map(|sub| {
                let primed = prime(sub, self.primed);
                DimFacts {
                    mentions_iv: sub.mentions(self.iv),
                    primed_mentions_ivp: primed.mentions(self.ivp),
                    rangeless: self.mentions_rangeless(sub),
                    primed_rangeless: self.mentions_rangeless(&primed),
                    primed,
                }
            })
            .collect();
        AccessFacts {
            array,
            gate,
            rank_mismatch: acc.subs.len() != declared_rank && !self.caps.reshaped_access,
            intractable: !self.caps.extended_symbolic && !acc.subs.iter().all(baseline_tractable),
            dims,
        }
    }

    /// Tests one same-name pair. `Ok(true)` = independent across
    /// iterations; `Ok(false)` = unrefuted dependence; `Err(h)` = failed
    /// with hindrance `h`.
    fn test_pair(
        &self,
        a: &ArrayAccess,
        fa: &AccessFacts,
        b: &ArrayAccess,
        fb: &AccessFacts,
    ) -> Result<bool, Hindrance> {
        if let Some(h) = fa.gate.or(fb.gate) {
            return Err(h);
        }
        if a.features.indirection || b.features.indirection {
            // Capability on: identical gather expressions are treated as
            // injective (permutation index arrays); anything else keeps
            // the dependence.
            return if a.ast_subs == b.ast_subs {
                Ok(true)
            } else {
                Err(Hindrance::Indirection)
            };
        }
        if a.subs.len() != b.subs.len() || fa.rank_mismatch {
            return Err(Hindrance::AccessRepresentation);
        }
        if fa.intractable || fb.intractable {
            return Err(Hindrance::SymbolAnalysis);
        }
        // Per-dimension separation.
        let mut saw_rangeless = false;
        for (d1, (da, db)) in a.subs.iter().zip(fa.dims.iter().zip(&fb.dims)) {
            let directional = da.mentions_iv || db.primed_mentions_ivp;
            match self.separates(d1, &db.primed, directional) {
                Ok(true) => return Ok(true),
                Ok(false) => {}
                Err(()) => {
                    if self.ops.exceeded() {
                        return Err(Hindrance::Complexity);
                    }
                    if da.rangeless || db.primed_rangeless {
                        saw_rangeless = true;
                    }
                }
            }
        }
        if saw_rangeless {
            return Err(Hindrance::Rangeless);
        }
        Ok(false)
    }

    /// Distinct aliased names under reshaped-access: compare linearized
    /// storage offsets.
    fn test_linearized_pair(
        &self,
        sym: &mut SymMap,
        a: &ArrayAccess,
        b: &ArrayAccess,
    ) -> Result<bool, Hindrance> {
        use crate::alias::{location, Root};
        let (Some(la), Some(lb)) = (
            location(self.rp, self.unit, &a.array),
            location(self.rp, self.unit, &b.array),
        ) else {
            return Err(Hindrance::Aliasing);
        };
        if la.root != lb.root || matches!(la.root, Root::Formal { .. }) {
            return Err(Hindrance::Aliasing);
        }
        let state = ScalarState::default();
        let mut f = ExprFeatures::default();
        let oa = linearize(
            self.rp,
            self.unit,
            sym,
            &a.array,
            &a.ast_subs,
            &state,
            &mut f,
        )
        .ok_or(Hindrance::AccessRepresentation)?
        .add(Expr::int(la.offset));
        let ob = linearize(
            self.rp,
            self.unit,
            sym,
            &b.array,
            &b.ast_subs,
            &state,
            &mut f,
        )
        .ok_or(Hindrance::AccessRepresentation)?
        .add(Expr::int(lb.offset));
        if f.indirection {
            return Err(Hindrance::Indirection);
        }
        let obp = prime(&ob, self.primed);
        let directional = oa.mentions(self.iv) || obp.mentions(self.ivp);
        match self.separates(&oa, &obp, directional) {
            Ok(sep) => Ok(sep),
            Err(()) => {
                if self.ops.exceeded() {
                    Err(Hindrance::Complexity)
                } else if self.mentions_rangeless(&oa) || self.mentions_rangeless(&obp) {
                    Err(Hindrance::Rangeless)
                } else {
                    // Affine but unrefuted: a real overlap.
                    Ok(false)
                }
            }
        }
    }

    fn test_window_vs_elem(
        &self,
        sym: &mut SymMap,
        w: &CallWindow,
        a: &ArrayAccess,
    ) -> Result<bool, Hindrance> {
        let width = self
            .window_width(&w.base)
            .ok_or(Hindrance::AccessRepresentation)?;
        let state = ScalarState::default();
        let mut f = ExprFeatures::default();
        let elem = linearize(
            self.rp,
            self.unit,
            sym,
            &a.array,
            &a.ast_subs,
            &state,
            &mut f,
        )
        .ok_or(Hindrance::AccessRepresentation)?;
        let elem_p = prime(&elem, self.primed);
        let hi_edge = w.base.add(width);
        let sep =
            self.both_directions(|p| p.prove_lt(&elem_p, &w.base) || p.prove_ge(&elem_p, &hi_edge));
        if sep {
            Ok(true)
        } else if self.ops.exceeded() {
            Err(Hindrance::Complexity)
        } else {
            Err(Hindrance::AccessRepresentation)
        }
    }

    fn test_window_pair(&self, w1: &CallWindow, w2: &CallWindow) -> Result<bool, Hindrance> {
        let width1 = self
            .window_width(&w1.base)
            .ok_or(Hindrance::AccessRepresentation)?;
        let width2 = self
            .window_width(&w2.base)
            .ok_or(Hindrance::AccessRepresentation)?;
        let b2 = prime(&w2.base, self.primed);
        let w2_hi = b2.add(prime(&width2, self.primed));
        let w1_hi = w1.base.add(width1);
        let sep = self.both_directions(|p| p.prove_le(&w1_hi, &b2) || p.prove_le(&w2_hi, &w1.base));
        if sep {
            Ok(true)
        } else if self.ops.exceeded() {
            Err(Hindrance::Complexity)
        } else {
            Ok(false)
        }
    }

    /// The modeled window width: the loop-variable stride of the base.
    /// A loop-invariant base means the callee touches the same location
    /// every iteration — at least one element wide, so the overlap is
    /// detected rather than silently missed.
    fn window_width(&self, base: &Expr) -> Option<Expr> {
        if base.has_unknown() {
            return None;
        }
        let d = base
            .subst(self.iv, &Expr::var(self.iv).add(Expr::int(1)))
            .sub(base.clone());
        if d.has_unknown() {
            return None;
        }
        if d.as_int() == Some(0) {
            return Some(Expr::int(1));
        }
        if matches!(d.as_int(), Some(k) if k < 0) {
            return None; // decreasing bases are not modeled
        }
        Some(d)
    }

    /// Does `d1(I) != d2(I')` hold whenever `I' != I`? `Err(())` means
    /// the question could not be settled. `directional` says whether
    /// either side varies with its loop variable; when neither does the
    /// element is loop-invariant and one proof under the base
    /// environment decides.
    fn separates(&self, d1: &Expr, d2: &Expr, directional: bool) -> Result<bool, ()> {
        let diff = d1.sub(d2.clone());
        if let Some(k) = diff.as_int() {
            // Subscripts differ by a constant: zero means the same
            // element in corresponding iterations — but if neither side
            // mentions the loop variable the element is LOOP-INVARIANT
            // and collides across iterations.
            return Ok(k != 0);
        }
        let g = diff.lin().coef_gcd();
        if g > 1 && diff.lin().constant_part() % g != 0 {
            return Ok(true);
        }
        // A question this loop already settled: replay its cost. When
        // the counter refuses (tripped, or the cost no longer fits the
        // budget) the proof runs for real and trips exactly where it
        // always did.
        let known = self.memo.borrow().get(&diff, directional);
        let proved = match known {
            Some((proved, cost)) if self.ops.replay(cost) => proved,
            _ => {
                let before = self.ops.spent();
                let proved = if directional {
                    self.both_directions(|p| p.prove_nonzero(&diff))
                } else {
                    Prover::new(self.env, self.ops).prove_nonzero(&diff)
                };
                if !self.ops.exceeded() {
                    let cost = self.ops.spent() - before;
                    self.memo
                        .borrow_mut()
                        .record(diff, directional, proved, cost);
                }
                proved
            }
        };
        if proved {
            Ok(true)
        } else {
            Err(())
        }
    }

    /// Runs a proof under `I' >= I + step` and then `I' <= I - step`;
    /// both must hold.
    fn both_directions(&self, f: impl Fn(&Prover<'_>) -> bool) -> bool {
        [self.env_above, self.env_below]
            .into_iter()
            .all(|env| f(&Prover::new(env, self.ops)))
    }

    fn mentions_rangeless(&self, e: &Expr) -> bool {
        e.any_atom(&mut |a| {
            matches!(a, Atom::Var(v)
                if *v != self.iv && *v != self.ivp && self.env.is_rangeless(*v))
        })
    }
}

fn prime(e: &Expr, primed: &HashMap<VarId, VarId>) -> Expr {
    e.subst_map(&mut |v| primed.get(&v).map(|pv| Expr::var(*pv)))
}

/// What the 2008 baseline's symbolic engine handles: affine expressions
/// whose nonconstant terms are single variables (no products of
/// variables, no division/modulo/min/max atoms).
fn baseline_tractable(e: &Expr) -> bool {
    e.lin().terms().iter().all(|(_, m)| {
        m.degree() == 1
            && m.factors()
                .iter()
                .all(|(a, _)| matches!(a, apar_symbolic::Atom::Var(_)))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::{self, LoopAccesses};
    use crate::callgraph::CallGraph;
    use crate::ranges;
    use apar_minifort::ast::StmtKind;
    use apar_minifort::frontend;

    /// Runs the front half of the pipeline on the first `!$TARGET` loop
    /// found anywhere in the program.
    fn run(src: &str, caps: Capabilities) -> DdOutcome {
        run_budget(src, caps, None).0
    }

    fn run_budget(src: &str, caps: Capabilities, budget: Option<u64>) -> (DdOutcome, bool) {
        let mut target = Prepared::all(src, caps, Prelude::None, |t, _| t.is_some())
            .into_iter()
            .next()
            .expect("no target loop found");
        let (out, ops) = target.test(budget, true);
        (out, ops.exceeded())
    }

    const BASE: &str = "PROGRAM P\nREAL A(100), B(100)\nN = 100\n";

    #[test]
    fn simple_parallel_loop() {
        let out = run(
            &format!("{BASE}!$TARGET T\nDO I = 1, N\nA(I) = B(I) * 2.0\nENDDO\nEND\n"),
            Capabilities::polaris2008(),
        );
        assert!(out.independent, "{:?}", out.dependences);
    }

    #[test]
    fn true_dependence_detected() {
        let out = run(
            &format!("{BASE}!$TARGET T\nDO I = 2, N\nA(I) = A(I - 1) + 1.0\nENDDO\nEND\n"),
            Capabilities::polaris2008(),
        );
        assert!(!out.independent);
        assert!(out
            .dependences
            .iter()
            .any(|d| d.why == Hindrance::Real && d.array == "A"));
        // ... and stays dependent even with every capability on.
        let full = run(
            &format!("{BASE}!$TARGET T\nDO I = 2, N\nA(I) = A(I - 1) + 1.0\nENDDO\nEND\n"),
            Capabilities::full(),
        );
        assert!(!full.independent);
    }

    #[test]
    fn shifted_disjoint_halves() {
        let out = run(
            "PROGRAM P\nREAL A(100)\n!$TARGET T\nDO I = 1, 50\nA(I) = A(I + 50) * 0.5\nENDDO\nEND\n",
            Capabilities::polaris2008(),
        );
        assert!(out.independent, "{:?}", out.dependences);
    }

    #[test]
    fn gcd_separates_strided_accesses() {
        let out = run(
            &format!("{BASE}!$TARGET T\nDO I = 1, 49\nA(2 * I) = A(2 * I + 1) + 1.0\nENDDO\nEND\n"),
            Capabilities::polaris2008(),
        );
        assert!(out.independent, "{:?}", out.dependences);
    }

    #[test]
    fn rangeless_deck_variable_blocks_baseline() {
        // The deck is validated (M >= N); only a compiler that exploits
        // deck relations can use that.
        let src = "PROGRAM P\nREAL A(2000000)\nREAD(*,*) N, M\nIF (M .LT. N) STOP\nIF (N .GT. 1000) STOP\n!$TARGET T\nDO I = 1, N\nA(I) = A(I + M) + 1.0\nENDDO\nEND\n";
        let base = run(src, Capabilities::polaris2008());
        assert!(!base.independent);
        assert!(
            base.dependences
                .iter()
                .any(|d| d.why == Hindrance::Rangeless),
            "{:?}",
            base.dependences
        );
        let full = run(src, Capabilities::full());
        assert!(full.independent, "{:?}", full.dependences);
    }

    #[test]
    fn indirection_blocks_baseline() {
        let src = "PROGRAM P\nREAL A(100)\nINTEGER IA(100)\n!$TARGET T\nDO I = 1, 100\nA(IA(I)) = A(IA(I)) + 1.0\nENDDO\nEND\n";
        let base = run(src, Capabilities::polaris2008());
        assert!(base
            .dependences
            .iter()
            .any(|d| d.why == Hindrance::Indirection));
        let full = run(src, Capabilities::full());
        assert!(full.independent, "{:?}", full.dependences);
    }

    #[test]
    fn differing_gathers_stay_dependent() {
        let src = "PROGRAM P\nREAL A(100)\nINTEGER IA(100), JA(100)\n!$TARGET T\nDO I = 1, 100\nA(IA(I)) = A(JA(I)) + 1.0\nENDDO\nEND\n";
        let full = run(src, Capabilities::full());
        assert!(!full.independent);
    }

    #[test]
    fn nonlinear_subscript_needs_extended_symbolic() {
        let src = "PROGRAM P\nREAL A(2000000)\nREAD(*,*) LD\nIF (LD .GT. 1000) STOP\n!$TARGET T\nDO J = 1, 100\nDO I = 1, LD\nA((J - 1) * LD + I) = 1.0\nENDDO\nENDDO\nEND\n";
        let base = run(src, Capabilities::polaris2008());
        assert!(
            base.dependences
                .iter()
                .any(|d| d.why == Hindrance::SymbolAnalysis),
            "{:?}",
            base.dependences
        );
        let full = run(src, Capabilities::full());
        assert!(full.independent, "{:?}", full.dependences);
    }

    #[test]
    fn aliased_formals_block_baseline() {
        let src = "PROGRAM P\nREAL X(100), Y(100)\nCALL S(X, Y)\nEND\nSUBROUTINE S(A, B)\nREAL A(100), B(100)\n!$TARGET T\nDO I = 1, 100\nA(I) = B(I) + 1.0\nENDDO\nEND\n";
        let base = run(src, Capabilities::polaris2008());
        assert!(base
            .dependences
            .iter()
            .any(|d| d.why == Hindrance::Aliasing));
        let full = run(src, Capabilities::full());
        assert!(full.independent, "{:?}", full.dependences);
    }

    #[test]
    fn budget_exhaustion_is_complexity() {
        let (out, exceeded) = run_budget(
            &format!("{BASE}!$TARGET T\nDO I = 1, N\nA(I) = B(I) * 2.0\nENDDO\nEND\n"),
            Capabilities::polaris2008(),
            Some(2),
        );
        assert!(exceeded);
        assert!(out
            .dependences
            .iter()
            .any(|d| d.why == Hindrance::Complexity));
    }

    #[test]
    fn output_dependence_on_loop_invariant_write() {
        let out = run(
            &format!("{BASE}!$TARGET T\nDO I = 1, N\nA(1) = B(I)\nENDDO\nEND\n"),
            Capabilities::polaris2008(),
        );
        assert!(!out.independent);
        assert!(out
            .dependences
            .iter()
            .any(|d| d.kind == DependenceKind::Output && d.why == Hindrance::Real));
    }

    #[test]
    fn guarded_branches_need_guarded_regions() {
        let src = "PROGRAM P\nREAL A(100)\nREAD(*,*) KIND\n!$TARGET T\nDO I = 1, 99\nIF (KIND .EQ. 1) THEN\nA(I) = 1.0\nELSE\nA(I + 1) = 2.0\nENDIF\nENDDO\nEND\n";
        let base = run(src, Capabilities::polaris2008());
        assert!(!base.independent);
        let full = run(src, Capabilities::full());
        assert!(full.independent, "{:?}", full.dependences);
    }

    #[test]
    fn multidim_independent_on_one_dim() {
        let out = run(
            "PROGRAM P\nREAL A(10, 10)\n!$TARGET T\nDO I = 1, 10\nDO J = 1, 10\nA(J, I) = A(J, I) + 1.0\nENDDO\nENDDO\nEND\n",
            Capabilities::polaris2008(),
        );
        assert!(out.independent, "{:?}", out.dependences);
    }

    #[test]
    fn equivalenced_names_need_linearization() {
        // B(I) and A(I) overlap with a 4-word shift; cross-iteration
        // collisions are real, so even linearization keeps the
        // dependence — but the baseline reports Aliasing while
        // reshaped-access reports a real dependence.
        let src = "PROGRAM P\nREAL A(100), B(100)\nEQUIVALENCE (A(5), B(1))\n!$TARGET T\nDO I = 1, 50\nA(I) = B(I) + 1.0\nENDDO\nEND\n";
        let base = run(src, Capabilities::polaris2008());
        assert!(base
            .dependences
            .iter()
            .any(|d| d.why == Hindrance::Aliasing));
        let full = run(src, Capabilities::full());
        assert!(!full.independent);
        assert!(full.dependences.iter().any(|d| d.why == Hindrance::Real));
    }

    #[test]
    fn equivalenced_names_disjoint_regions_recovered() {
        // A and B overlap storage, but the touched regions stay disjoint:
        // A(I) for I in [1,10] is words 0..9, B(I) words 20+0..9.
        let src = "PROGRAM P\nREAL A(100), B(100), PAD(200)\nEQUIVALENCE (PAD(1), A(1)), (PAD(21), B(1))\n!$TARGET T\nDO I = 1, 10\nPAD(I) = PAD(I + 20) + 1.0\nENDDO\nEND\n";
        let out = run(src, Capabilities::polaris2008());
        assert!(out.independent, "{:?}", out.dependences);
    }

    #[test]
    fn un_inlined_call_with_section_windows() {
        // STAK-style: the callee writes a LD-wide window per iteration.
        let src = "PROGRAM P\nREAL RA(10000)\nPARAMETER (LD = 100)\n!$TARGET T\nDO I = 1, 100\nCALL ROW(RA((I - 1) * LD + 1), LD)\nENDDO\nEND\nSUBROUTINE ROW(R, N)\nREAL R(N)\nDO K = 1, N\nR(K) = 1.0\nENDDO\nEND\n";
        let base = run(src, Capabilities::polaris2008());
        assert!(
            base.dependences
                .iter()
                .any(|d| d.why == Hindrance::AccessRepresentation),
            "{:?}",
            base.dependences
        );
        let full = run(src, Capabilities::full());
        assert!(full.independent, "{:?}", full.dependences);
    }

    #[test]
    fn whole_array_call_argument_blocks() {
        let src = "PROGRAM P\nREAL RA(100)\n!$TARGET T\nDO I = 1, 100\nCALL TOUCH(RA)\nENDDO\nEND\nSUBROUTINE TOUCH(R)\nREAL R(*)\nR(1) = R(1) + 1.0\nEND\n";
        let full = run(src, Capabilities::full());
        assert!(!full.independent);
    }

    // ---- Proof-replay transparency -------------------------------------

    /// What runs ahead of the dependence test when a loop is readied.
    #[derive(Clone, Copy, PartialEq)]
    enum Prelude {
        /// Facts and ranges on the program as written.
        None,
        /// What the driver runs: induction substitution, then the
        /// loop's calls inlined, then facts and ranges on that program.
        Driver,
    }

    /// One loop readied for repeated dependence tests: everything up
    /// to `test_loop`'s inputs.
    struct Prepared {
        rp: ResolvedProgram,
        unit: String,
        var: String,
        lo: Ast,
        hi: Ast,
        step: Option<Ast>,
        state: ScalarState,
        la: LoopAccesses,
        sym: SymMap,
        alias: AliasInfo,
        summaries: Summaries,
        caps: Capabilities,
    }

    /// What the two implementations must agree on.
    #[derive(PartialEq, Debug)]
    struct Observed {
        spent: u64,
        exceeded: bool,
        pairs_tested: usize,
        deps: Vec<(String, StmtId, StmtId, DependenceKind, Hindrance)>,
    }

    impl Prepared {
        /// Every loop of `src` for which `want(target, unit)` holds.
        fn all(
            src: &str,
            caps: Capabilities,
            prelude: Prelude,
            want: impl Fn(Option<&str>, &str) -> bool,
        ) -> Vec<Prepared> {
            use crate::{induction, inline, loops::LoopForest};
            let mut rp = frontend(src).expect("frontend");
            if prelude == Prelude::Driver {
                let mut prog = rp.program.clone();
                let mut next_id = prog.stmt_count;
                for u in prog.units_mut() {
                    induction::run_on_unit(u, &rp.tables[&u.name], &mut next_id);
                }
                prog.stmt_count = next_id;
                rp = apar_minifort::resolve(prog).expect("resolve");
            }
            let cg = CallGraph::build(&rp);
            let unlimited = OpCounter::unlimited();
            let mut out = Vec::new();
            for info in &LoopForest::build(&rp).loops {
                if !want(info.target.as_deref(), &info.id.unit) {
                    continue;
                }
                let unit = info.id.unit.clone();
                let arp = if info.calls.is_empty() || prelude == Prelude::None {
                    rp.clone()
                } else {
                    let mut scratch = rp.program.clone();
                    inline::inline_calls_in_loop(
                        &mut scratch,
                        &rp,
                        &cg,
                        caps,
                        &unit,
                        info.id.stmt,
                        3,
                        4_000,
                        &unlimited,
                    );
                    apar_minifort::resolve(scratch).expect("resolve inlined")
                };
                let acg = CallGraph::build(&arp);
                let mut sym = SymMap::new();
                let summaries = Summaries::build(&arp, &acg, &mut sym, caps, &unlimited);
                let alias = AliasInfo::build(&arp, &acg, caps, &unlimited);
                let ur = ranges::analyze_unit(
                    &arp,
                    &unit,
                    &mut sym,
                    caps,
                    &summaries,
                    &ranges::ScalarState::default(),
                    &unlimited,
                );
                let mut found = None;
                arp.unit(&unit).expect("unit").body.walk_stmts(&mut |s| {
                    if let (
                        true,
                        StmtKind::Do {
                            var,
                            lo,
                            hi,
                            step,
                            body,
                            ..
                        },
                    ) = (s.id == info.id.stmt, &s.kind)
                    {
                        found = Some((
                            var.clone(),
                            lo.clone(),
                            hi.clone(),
                            step.clone(),
                            body.clone(),
                        ));
                    }
                });
                let Some((var, lo, hi, step, body)) = found else {
                    continue; // inlined away
                };
                let state = ur.at_loop.get(&info.id.stmt).cloned().unwrap_or_default();
                let la = access::collect(&arp, &unit, &body, &mut sym, &state);
                out.push(Prepared {
                    rp: arp,
                    unit,
                    var,
                    lo,
                    hi,
                    step,
                    state,
                    la,
                    sym,
                    alias,
                    summaries,
                    caps,
                });
            }
            out
        }

        fn test(&mut self, budget: Option<u64>, memoized: bool) -> (DdOutcome, OpCounter) {
            let ops = budget.map_or_else(OpCounter::unlimited, OpCounter::with_budget);
            let input = DdInput {
                rp: &self.rp,
                unit: &self.unit,
                loop_var: &self.var,
                lo: &self.lo,
                hi: &self.hi,
                step: self.step.as_ref(),
                state: &self.state,
                la: &self.la,
            };
            let test = if memoized {
                test_loop
            } else {
                test_loop_unmemoized
            };
            let out = test(
                &input,
                &mut self.sym,
                self.caps,
                &self.alias,
                &self.summaries,
                &ops,
            );
            (out, ops)
        }

        fn run(&mut self, budget: Option<u64>, memoized: bool) -> Observed {
            let (out, ops) = self.test(budget, memoized);
            assert_eq!(out.budget_exceeded, ops.exceeded());
            Observed {
                spent: ops.spent(),
                exceeded: ops.exceeded(),
                pairs_tested: out.pairs_tested,
                deps: out
                    .dependences
                    .into_iter()
                    .map(|d| (d.array, d.src, d.dst, d.kind, d.why))
                    .collect(),
            }
        }

        /// Memo on and memo off must be indistinguishable at every
        /// budget in `sweep` of 0 to one past what the loop needs
        /// unbudgeted. Returns that unbudgeted cost.
        fn assert_transparent(&mut self, what: &str, sweep: Sweep) -> u64 {
            let reference = self.run(None, false);
            assert_eq!(self.run(None, true), reference, "{what}: unbudgeted");
            for budget in sweep.budgets(reference.spent + 1) {
                let off = self.run(Some(budget), false);
                let on = self.run(Some(budget), true);
                assert_eq!(on, off, "{what}: budget {budget}");
            }
            reference.spent
        }
    }

    /// Which budgets of `0..=top` a transparency test visits: all of
    /// them up to `dense_to`, every `stride`-th beyond, and always the
    /// last 32 — the edge where the whole loop just fits.
    #[derive(Clone, Copy)]
    struct Sweep {
        dense_to: u64,
        stride: usize,
    }

    impl Sweep {
        const EVERY_BUDGET: Sweep = Sweep {
            dense_to: u64::MAX,
            stride: 1,
        };

        /// `optimized` in a `--release` test run (CI has one), the
        /// thinner `unoptimized` sweep otherwise: an unoptimized run of
        /// one of the industrial loops takes milliseconds and the
        /// exhaustive sweeps add up to minutes.
        fn by_build(optimized: Sweep, unoptimized: Sweep) -> Sweep {
            if cfg!(debug_assertions) {
                unoptimized
            } else {
                optimized
            }
        }

        fn budgets(self, top: u64) -> Vec<u64> {
            let dense = top.min(self.dense_to);
            let mut all: Vec<u64> = (0..=dense).collect();
            all.extend((dense..=top).step_by(self.stride));
            all.extend(top.saturating_sub(32)..=top);
            all.sort_unstable();
            all.dedup();
            all
        }
    }

    #[test]
    fn replay_is_transparent_on_a_stencil_with_repeated_pairs() {
        // Nine reads around one write, twice: the same handful of
        // subscript differences recur across dozens of pairs.
        let mut src = String::from(
            "PROGRAM P\nREAL U(66, 66), V(66, 66)\nREAD(*,*) N\nIF (N .GT. 64) STOP\n!$TARGET T\nDO J = 2, N\nDO I = 2, N\n",
        );
        for arr in ["U", "V"] {
            src.push_str(&format!("{arr}(I, J) = 0.25 * ("));
            let taps: Vec<String> = [
                (-1, 0),
                (1, 0),
                (0, -1),
                (0, 1),
                (-1, -1),
                (1, 1),
                (-1, 1),
                (1, -1),
            ]
            .iter()
            .map(|(di, dj)| format!("{arr}(I + ({di}), J + ({dj}))"))
            .collect();
            src.push_str(&taps.join(" + "));
            src.push_str(")\n");
        }
        src.push_str("ENDDO\nENDDO\nEND\n");
        for caps in [Capabilities::polaris2008(), Capabilities::full()] {
            let mut loops = Prepared::all(&src, caps, Prelude::Driver, |t, _| t == Some("T"));
            assert_eq!(loops.len(), 1);
            let spent = loops[0].assert_transparent("stencil", Sweep::EVERY_BUDGET);
            assert!(
                spent > 100,
                "stencil too cheap to exercise the edge: {spent}"
            );
            // The memo must actually have something to replay here.
            let repeats = loops[0].la.accesses.len();
            assert!(repeats >= 18, "{repeats} accesses");
        }
    }

    #[test]
    fn replay_is_transparent_on_the_complexity_targets() {
        // The three loops whose `Complexity` class *is* the budget
        // trip: any drift in what the counter sees reclassifies them.
        use apar_workloads as wl;
        let suites = [
            (
                wl::seismic::full_suite(wl::DataSize::Small, wl::Variant::Serial),
                "DGEN_XCOR",
            ),
            (wl::gamess::suite(wl::DataSize::Small), "TWOEI_SHELLS"),
            (wl::sander::suite(wl::DataSize::Small), "DIHE_XTRM"),
        ];
        // Every budget through the calibrated 8 000 and a margin — where
        // these loops actually trip — and a sample of the long tail up
        // to the 15-46 k ops they need unbudgeted.
        let sweep = Sweep::by_build(
            Sweep {
                dense_to: 8_200,
                stride: 61,
            },
            Sweep {
                dense_to: 64,
                stride: 211,
            },
        );
        for (w, target) in suites {
            let polaris = Capabilities::polaris2008();
            let mut loops = Prepared::all(&w.source, polaris, Prelude::Driver, |t, _| {
                t == Some(target)
            });
            assert_eq!(loops.len(), 1, "{target}");
            let spent = loops[0].assert_transparent(target, sweep);
            assert!(
                spent > 8_000,
                "{target} no longer exceeds the 2008 budget: {spent}"
            );
        }
    }

    #[test]
    fn replay_is_transparent_on_generated_programs() {
        use apar_minicheck::fortgen::{gen_program, GenConfig};
        let sweep = Sweep::by_build(
            Sweep::EVERY_BUDGET,
            Sweep {
                dense_to: 64,
                stride: 31,
            },
        );
        let mut rng = apar_minicheck::Rng::new(0x0dd7_e570);
        let mut programs = 0;
        let mut swept = 0u64;
        while programs < 50 {
            let src = gen_program(&mut rng, &GenConfig::default());
            let mut loops = Prepared::all(
                &src,
                Capabilities::polaris2008(),
                Prelude::Driver,
                |_, _| true,
            );
            if loops.is_empty() {
                continue;
            }
            programs += 1;
            for (k, l) in loops.iter_mut().enumerate() {
                swept += l.assert_transparent(&format!("program {programs} loop {k}"), sweep);
            }
        }
        assert!(swept > 0, "generated loops never reached the prover");
    }

    #[test]
    fn opaque_callee_blocks() {
        let src = "PROGRAM P\nREAL RA(100)\n!$TARGET T\nDO I = 1, 100\nCALL CIO(RA, I)\nENDDO\nEND\n!LANG C\nSUBROUTINE CIO(R, K)\nREAL R(*)\nR(K) = 1.0\nEND\n";
        let base = run(src, Capabilities::polaris2008());
        assert!(base
            .dependences
            .iter()
            .any(|d| d.why == Hindrance::CallOpaque));
    }
}
