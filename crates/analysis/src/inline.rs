//! Inline expansion.
//!
//! Polaris relies on inlining to analyze loops whose bodies call
//! subroutines: the callee's accesses become directly visible to the
//! dependence test. Inlining renames callee locals, maps formals to
//! actuals (whole arrays by name, scalar expressions through compiler
//! temporaries), and merges declarations — COMMON declarations are
//! copied with renamed member names, which preserves storage layout
//! because COMMON association is positional.
//!
//! Refusals mirror the real tool's limits and feed the hindrance
//! classification: foreign callees (multilingual, §2.4), array-section
//! actuals (reshaped storage, §2.3), recursion, and mid-body RETURNs.

use std::collections::{HashMap, HashSet};

use apar_minifort::ast::{
    Block, Decl, DeclName, Expr as Ast, Stmt, StmtId, StmtKind, Unit, UnitKind,
};
use apar_minifort::resolve::is_intrinsic;
use apar_minifort::symtab::{Storage, SymbolKind};
use apar_minifort::{Lang, Program, ResolvedProgram};

use crate::callgraph::CallGraph;
use crate::Capabilities;
use apar_symbolic::OpCounter;

/// Why a call could not be inlined.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum InlineFail {
    NoSuchCall,
    UnknownCallee,
    Foreign,
    Recursive,
    SectionActual,
    MidBodyReturn,
    ArgumentMismatch,
    /// The callee declares the array with a different shape than the
    /// caller — inlining would change the subscript linearization
    /// (the paper's §2.3 reshaped shared structures).
    ShapeMismatch,
    /// The callee contains unnormalized loops (DO WHILE / GOTO), which
    /// the restructurer's inliner does not expand.
    Unstructured,
}

/// Result of inlining: number of statements spliced in.
#[derive(Clone, Debug)]
pub struct InlineOk {
    pub spliced_stmts: usize,
}

/// Inlines the CALL at `call_stmt` inside `caller`, mutating `prog` — a
/// clone of `rp.program`, of which only the caller unit is copied
/// ([`Program::unit_mut`]). The caller must re-resolve the program
/// afterwards ([`ResolvedProgram::reresolve`]).
pub fn inline_call(
    prog: &mut Program,
    rp: &ResolvedProgram,
    cg: &CallGraph,
    caps: Capabilities,
    caller: &str,
    call_stmt: StmtId,
) -> Result<InlineOk, InlineFail> {
    // Locate the call.
    let (callee_name, args) = {
        let unit = prog.unit(caller).ok_or(InlineFail::NoSuchCall)?;
        let mut found = None;
        unit.body.walk_stmts(&mut |s| {
            if s.id == call_stmt {
                if let StmtKind::Call { name, args } = &s.kind {
                    found = Some((name.clone(), args.clone()));
                }
            }
        });
        found.ok_or(InlineFail::NoSuchCall)?
    };
    let callee = rp.unit(&callee_name).ok_or(InlineFail::UnknownCallee)?;
    if callee.lang == Lang::C && !caps.multilingual {
        return Err(InlineFail::Foreign);
    }
    if cg.is_recursive(&callee_name) {
        return Err(InlineFail::Recursive);
    }
    if args.len() != callee.formals.len() {
        return Err(InlineFail::ArgumentMismatch);
    }
    if has_mid_body_return(&callee.body) {
        return Err(InlineFail::MidBodyReturn);
    }
    if has_unstructured(&callee.body) {
        return Err(InlineFail::Unstructured);
    }

    // Build the renaming for callee names: formals map to actuals,
    // everything else gets a fresh caller-unique name. A resolved
    // program normally has a table per unit, but a recovering frontend
    // may have dropped one — refuse rather than panic on the index.
    let callee_table = rp
        .tables
        .get(&callee_name)
        .ok_or(InlineFail::UnknownCallee)?;
    let caller_table = rp.tables.get(caller).ok_or(InlineFail::NoSuchCall)?;
    let mut rename: HashMap<String, Ast> = HashMap::new();
    let mut pre_stmts: Vec<(String, Ast)> = Vec::new(); // temp assignments
    for (formal, actual) in callee.formals.iter().zip(args.iter()) {
        match actual {
            Ast::Name(n) => {
                // Reshaped arrays must not be inlined: the callee's
                // subscript linearization differs from the caller's.
                if let (Some(fs), Some(as_)) = (
                    callee_table.get(formal).and_then(|s| s.shape()),
                    caller_table.get(n).and_then(|s| s.shape()),
                ) {
                    if fs.rank() != as_.rank() {
                        return Err(InlineFail::ShapeMismatch);
                    }
                    if fs.rank() >= 2 {
                        for k in 0..fs.rank() - 1 {
                            let fd = fs.dims[k].hi.as_ref().map(|e| rename_expr(e, &rename));
                            let ad = as_.dims[k].hi.clone();
                            let fc = fd.as_ref().and_then(apar_minifort::symtab::as_const_int);
                            let ac = ad.as_ref().and_then(apar_minifort::symtab::as_const_int);
                            let same = match (fc, ac) {
                                (Some(a), Some(b)) => a == b,
                                _ => fd == ad,
                            };
                            if !same {
                                return Err(InlineFail::ShapeMismatch);
                            }
                        }
                    }
                }
                rename.insert(formal.clone(), Ast::Name(n.clone()));
            }
            Ast::Index { .. } => return Err(InlineFail::SectionActual),
            value => {
                // Scalar expression actual: bind through a temporary.
                let tmp = fresh_name(caller_table, &format!("{}ZT", initial(formal)));
                pre_stmts.push((tmp.clone(), value.clone()));
                rename.insert(formal.clone(), Ast::Name(tmp));
            }
        }
    }
    let mut fresh_decls: Vec<(String, String)> = Vec::new(); // old -> new
    for sym in callee_table.iter() {
        if rename.contains_key(&sym.name) {
            continue;
        }
        match (&sym.kind, &sym.storage) {
            (SymbolKind::Scalar | SymbolKind::Array(_), Storage::Local { .. })
            | (SymbolKind::Scalar | SymbolKind::Array(_), Storage::Common { .. })
            | (SymbolKind::Param(_), _) => {
                let fresh = fresh_name(
                    caller_table,
                    &format!("{}Z{}", initial(&sym.name), sym.name.len()),
                );
                fresh_decls.push((sym.name.clone(), fresh.clone()));
                rename.insert(sym.name.clone(), Ast::Name(fresh));
            }
            _ => {}
        }
    }
    // Make fresh names mutually distinct.
    dedup_fresh(&mut fresh_decls, &mut rename);

    // Clone + rewrite the callee body.
    let next_id = &mut prog.stmt_count;
    let mut body = callee.body.clone();
    let mut spliced = 0usize;
    renumber_and_rename(&mut body, &rename, next_id, &mut spliced);
    // Drop a trailing RETURN.
    if matches!(body.stmts.last().map(|s| &s.kind), Some(StmtKind::Return)) {
        body.stmts.pop();
    }

    // Rewrite callee decls under the renaming, dropping declarations of
    // formals (their actuals are already declared in the caller).
    let formals: HashSet<&str> = callee.formals.iter().map(|f| f.as_str()).collect();
    let mut new_decls: Vec<Decl> = Vec::new();
    for d in &callee.decls {
        if let Some(nd) = rename_decl(d, &rename, &formals) {
            new_decls.push(nd);
        }
    }
    // Temp assignments ahead of the body.
    let mut splice: Vec<Stmt> = Vec::new();
    for (tmp, value) in pre_stmts {
        splice.push(Stmt {
            id: StmtId(*next_id),
            line: 0,
            label: None,
            kind: StmtKind::Assign {
                lhs: Ast::Name(tmp),
                rhs: value,
            },
        });
        *next_id += 1;
    }
    splice.extend(body.stmts);
    let spliced_count = splice.len();

    // Replace the CALL statement with the spliced body.
    let unit = prog.unit_mut(caller).ok_or(InlineFail::NoSuchCall)?;
    unit.decls.extend(new_decls);
    if !replace_stmt_with(&mut unit.body, call_stmt, &mut Some(splice)) {
        return Err(InlineFail::NoSuchCall);
    }
    Ok(InlineOk {
        spliced_stmts: spliced_count,
    })
}

/// Inlines every inlinable call inside a loop body, repeatedly, up to
/// `max_depth` levels and `max_stmts` spliced statements. Returns the
/// failures encountered (calls left in place). Work is billed to `ops`
/// (four per spliced statement, one per call site considered); a
/// tripped budget ends expansion after the current round — the pipeline
/// watchdog classifies the loop `Complexity` from the latched counter.
///
/// A callee that ends up *fully inlined away* — every one of its call
/// sites expanded and no remaining CALL or function reference anywhere
/// in the program naming it — is removed from the program entirely, so
/// the analyzed copy does not carry dead statements (and a later
/// re-resolution can legitimately see the program shrink). `prog` is a
/// clone of `rp.program` and `cg` the call graph of `rp`: every unit
/// but `unit` is untouched, so `cg` still lists exactly their
/// references and only `unit` is walked again.
#[allow(clippy::too_many_arguments)]
pub fn inline_calls_in_loop(
    prog: &mut Program,
    rp: &ResolvedProgram,
    cg: &CallGraph,
    caps: Capabilities,
    unit: &str,
    loop_stmt: StmtId,
    max_depth: usize,
    max_stmts: usize,
    ops: &OpCounter,
) -> (usize, Vec<(String, InlineFail)>) {
    let (inlined, failures, inlined_names) = expand_calls_in_loop(
        prog, rp, cg, caps, unit, loop_stmt, max_depth, max_stmts, ops,
    );
    remove_inlined_away(prog, cg, unit, &inlined_names);
    (inlined, failures)
}

/// The expansion half of [`inline_calls_in_loop`]; also returns the
/// names of the callees it expanded at least once.
#[allow(clippy::too_many_arguments)]
fn expand_calls_in_loop(
    prog: &mut Program,
    rp: &ResolvedProgram,
    cg: &CallGraph,
    caps: Capabilities,
    unit: &str,
    loop_stmt: StmtId,
    max_depth: usize,
    max_stmts: usize,
    ops: &OpCounter,
) -> (usize, Vec<(String, InlineFail)>, HashSet<String>) {
    let mut failures = Vec::new();
    let mut inlined = 0usize;
    let mut spliced_total = 0usize;
    let mut inlined_names: HashSet<String> = Default::default();
    for _ in 0..max_depth {
        if ops.exceeded() {
            break;
        }
        // Collect calls inside the loop body.
        let mut calls: Vec<(StmtId, String)> = Vec::new();
        if let Some(u) = prog.unit(unit) {
            u.body.walk_stmts(&mut |s| {
                if s.id == loop_stmt {
                    if let StmtKind::Do { body, .. } = &s.kind {
                        body.walk_stmts(&mut |t| {
                            if let StmtKind::Call { name, .. } = &t.kind {
                                calls.push((t.id, name.clone()));
                            }
                        });
                    }
                }
            });
        }
        if calls.is_empty() || spliced_total > max_stmts {
            break;
        }
        let mut progressed = false;
        for (sid, name) in calls {
            let _ = ops.charge(1);
            match inline_call(prog, rp, cg, caps, unit, sid) {
                Ok(ok) => {
                    inlined += 1;
                    spliced_total += ok.spliced_stmts;
                    let _ = ops.charge(ok.spliced_stmts as u64 * 4);
                    inlined_names.insert(name);
                    progressed = true;
                }
                Err(f) => failures.push((name, f)),
            }
        }
        if !progressed {
            break;
        }
        failures.clear(); // only the final round's failures matter
    }
    (inlined, failures, inlined_names)
}

/// Removes the callees among `inlined_names` that nothing in the
/// program references any more. Only units the expansion touched are
/// candidates: units dead on arrival are kept, since their declarations
/// still contribute to COMMON extents. `unit` is the one unit the
/// expansion rewrote, so its references are collected from its new
/// text; every other unit's are the edges `cg` — the call graph of the
/// program before expansion — already holds.
fn remove_inlined_away(
    prog: &mut Program,
    cg: &CallGraph,
    unit: &str,
    inlined_names: &HashSet<String>,
) {
    if inlined_names.is_empty() {
        return;
    }
    let mut refs: HashSet<String> = Default::default();
    if let Some(u) = prog.unit(unit) {
        collect_refs(u, &mut refs);
    }
    prog.units.retain(|u| {
        u.kind == UnitKind::Main
            || !inlined_names.contains(&u.name)
            || refs.contains(&u.name)
            || cg.calls_to(&u.name).any(|site| site.caller != unit)
            // The call graph records no edge to a name that shadows an
            // intrinsic, so it cannot vouch for such a unit: keep it.
            || is_intrinsic(&u.name)
    });
}

/// Names of units referenced by any CALL statement or function
/// reference anywhere in the program: the walk of every unit that
/// [`remove_inlined_away`] replaced, kept as its oracle.
#[cfg(test)]
fn referenced_units(prog: &Program) -> HashSet<String> {
    let mut refs: HashSet<String> = Default::default();
    for u in &prog.units {
        collect_refs(u, &mut refs);
    }
    refs
}

/// Adds every name a CALL statement or function reference in `u` uses.
fn collect_refs(u: &Unit, refs: &mut HashSet<String>) {
    u.body.walk_stmts(&mut |s| {
        let mut exprs: Vec<&Ast> = Vec::new();
        match &s.kind {
            StmtKind::Assign { lhs, rhs } => {
                exprs.push(lhs);
                exprs.push(rhs);
            }
            StmtKind::If { arms, .. } => exprs.extend(arms.iter().map(|(c, _)| c)),
            StmtKind::Do { lo, hi, step, .. } => {
                exprs.push(lo);
                exprs.push(hi);
                if let Some(st) = step {
                    exprs.push(st);
                }
            }
            StmtKind::DoWhile { cond, .. } => exprs.push(cond),
            StmtKind::Call { name, args } => {
                refs.insert(name.clone());
                exprs.extend(args.iter());
            }
            StmtKind::Read { items } | StmtKind::Write { items } => {
                exprs.extend(items.iter());
            }
            _ => {}
        }
        for e in exprs {
            e.walk(&mut |x| {
                if let Ast::CallF { name, .. } = x {
                    refs.insert(name.clone());
                }
            });
        }
    });
}

fn has_mid_body_return(b: &Block) -> bool {
    let mut found = false;
    for (i, s) in b.stmts.iter().enumerate() {
        let last = i + 1 == b.stmts.len();
        match &s.kind {
            StmtKind::Return if !last => found = true,
            StmtKind::If { arms, else_blk } => {
                for (_, bb) in arms {
                    if contains_return(bb) {
                        found = true;
                    }
                }
                if let Some(bb) = else_blk {
                    if contains_return(bb) {
                        found = true;
                    }
                }
            }
            StmtKind::Do { body, .. } | StmtKind::DoWhile { body, .. } if contains_return(body) => {
                found = true;
            }
            _ => {}
        }
    }
    found
}

fn has_unstructured(b: &Block) -> bool {
    let mut found = false;
    b.walk_stmts(&mut |s| {
        if matches!(s.kind, StmtKind::DoWhile { .. } | StmtKind::Goto(_)) {
            found = true;
        }
    });
    found
}

fn contains_return(b: &Block) -> bool {
    let mut f = false;
    b.walk_stmts(&mut |s| {
        if matches!(s.kind, StmtKind::Return) {
            f = true;
        }
    });
    f
}

/// First character of a name as a slice, without panicking on empty or
/// non-ASCII-boundary names (a mutated source can smuggle either past
/// the recovering frontend).
fn initial(name: &str) -> &str {
    name.char_indices().nth(1).map_or(name, |(i, _)| &name[..i])
}

fn fresh_name(table: &apar_minifort::SymbolTable, base: &str) -> String {
    let mut i = 1;
    loop {
        let cand = format!("{}{}", base, i);
        if table.get(&cand).is_none() {
            return cand;
        }
        i += 1;
    }
}

fn dedup_fresh(fresh: &mut [(String, String)], rename: &mut HashMap<String, Ast>) {
    let mut seen: HashMap<String, usize> = HashMap::new();
    for (old, new) in fresh.iter_mut() {
        let n = seen.entry(new.clone()).or_insert(0);
        *n += 1;
        if *n > 1 {
            let unique = format!("{}X{}", new, n);
            rename.insert(old.clone(), Ast::Name(unique.clone()));
            *new = unique;
        }
    }
}

fn renumber_and_rename(
    b: &mut Block,
    rename: &HashMap<String, Ast>,
    next_id: &mut u32,
    count: &mut usize,
) {
    for s in &mut b.stmts {
        s.id = StmtId(*next_id);
        *next_id += 1;
        *count += 1;
        rename_stmt(s, rename);
        match &mut s.kind {
            StmtKind::If { arms, else_blk } => {
                for (_, bb) in arms {
                    renumber_and_rename(bb, rename, next_id, count);
                }
                if let Some(bb) = else_blk {
                    renumber_and_rename(bb, rename, next_id, count);
                }
            }
            StmtKind::Do { body, .. } | StmtKind::DoWhile { body, .. } => {
                renumber_and_rename(body, rename, next_id, count);
            }
            _ => {}
        }
    }
}

fn rename_expr(e: &Ast, rename: &HashMap<String, Ast>) -> Ast {
    e.map(&mut |x| match &x {
        Ast::Name(n) => rename.get(n).cloned().unwrap_or(x),
        Ast::Index { name, subs } => match rename.get(name) {
            Some(Ast::Name(new)) => Ast::Index {
                name: new.clone(),
                subs: subs.clone(),
            },
            _ => x,
        },
        Ast::CallF { name, args } => match rename.get(name) {
            Some(Ast::Name(new)) => Ast::CallF {
                name: new.clone(),
                args: args.clone(),
            },
            _ => x,
        },
        _ => x,
    })
}

fn rename_stmt(s: &mut Stmt, rename: &HashMap<String, Ast>) {
    match &mut s.kind {
        StmtKind::Assign { lhs, rhs } => {
            *lhs = rename_expr(lhs, rename);
            *rhs = rename_expr(rhs, rename);
        }
        StmtKind::If { arms, .. } => {
            for (c, _) in arms {
                *c = rename_expr(c, rename);
            }
        }
        StmtKind::Do {
            var, lo, hi, step, ..
        } => {
            if let Some(Ast::Name(new)) = rename.get(var.as_str()) {
                *var = new.clone();
            }
            *lo = rename_expr(lo, rename);
            *hi = rename_expr(hi, rename);
            if let Some(st) = step {
                *st = rename_expr(st, rename);
            }
        }
        StmtKind::DoWhile { cond, .. } => *cond = rename_expr(cond, rename),
        StmtKind::Call { args, .. } => {
            for a in args {
                *a = rename_expr(a, rename);
            }
        }
        StmtKind::Read { items } | StmtKind::Write { items } => {
            for i in items {
                *i = rename_expr(i, rename);
            }
        }
        _ => {}
    }
}

fn rename_decl(d: &Decl, rename: &HashMap<String, Ast>, formals: &HashSet<&str>) -> Option<Decl> {
    let rn = |n: &str| -> String {
        match rename.get(n) {
            Some(Ast::Name(new)) => new.clone(),
            _ => n.to_string(),
        }
    };
    let rn_declname = |dn: &DeclName| DeclName {
        name: rn(&dn.name),
        dims: dn
            .dims
            .iter()
            .map(|ds| apar_minifort::ast::DimSpec {
                lo: ds.lo.as_ref().map(|e| rename_expr(e, rename)),
                hi: ds.hi.as_ref().map(|e| rename_expr(e, rename)),
            })
            .collect(),
    };
    let keep = |dn: &&DeclName| !formals.contains(dn.name.as_str());
    match d {
        Decl::Type { ty, names } => {
            let names: Vec<DeclName> = names.iter().filter(keep).map(rn_declname).collect();
            (!names.is_empty()).then_some(Decl::Type { ty: *ty, names })
        }
        Decl::Dimension { names } => {
            let names: Vec<DeclName> = names.iter().filter(keep).map(rn_declname).collect();
            (!names.is_empty()).then_some(Decl::Dimension { names })
        }
        Decl::Common { block, names } => Some(Decl::Common {
            block: block.clone(),
            names: names.iter().map(rn_declname).collect(),
        }),
        Decl::Parameter { defs } => Some(Decl::Parameter {
            defs: defs
                .iter()
                .map(|(n, e)| (rn(n), rename_expr(e, rename)))
                .collect(),
        }),
        Decl::Equivalence { groups } => Some(Decl::Equivalence {
            groups: groups
                .iter()
                .map(|g| {
                    g.iter()
                        .map(|r| apar_minifort::ast::EquivRef {
                            name: rn(&r.name),
                            subs: r.subs.iter().map(|e| rename_expr(e, rename)).collect(),
                        })
                        .collect()
                })
                .collect(),
        }),
        Decl::Data { items } => Some(Decl::Data {
            items: items
                .iter()
                .map(|it| apar_minifort::ast::DataItem {
                    name: rn(&it.name),
                    subs: it.subs.iter().map(|e| rename_expr(e, rename)).collect(),
                    values: it.values.clone(),
                })
                .collect(),
        }),
        Decl::External { names } => Some(Decl::External {
            names: names.iter().map(|n| rn(n)).collect(),
        }),
    }
}

/// Replaces the statement `target` with `replacement`, which is taken
/// at the hit — the blocks searched on the way never see it.
fn replace_stmt_with(b: &mut Block, target: StmtId, replacement: &mut Option<Vec<Stmt>>) -> bool {
    if let Some(pos) = b.stmts.iter().position(|s| s.id == target) {
        b.stmts
            .splice(pos..=pos, replacement.take().unwrap_or_default());
        return true;
    }
    for s in &mut b.stmts {
        let hit = match &mut s.kind {
            StmtKind::If { arms, else_blk } => {
                arms.iter_mut()
                    .any(|(_, bb)| replace_stmt_with(bb, target, replacement))
                    || else_blk
                        .as_mut()
                        .is_some_and(|bb| replace_stmt_with(bb, target, replacement))
            }
            StmtKind::Do { body, .. } | StmtKind::DoWhile { body, .. } => {
                replace_stmt_with(body, target, replacement)
            }
            _ => false,
        };
        if hit {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use apar_minifort::pretty::print_program;
    use apar_minifort::{frontend, parse_program, resolve};

    fn inline_first_call(src: &str, caps: Capabilities) -> Result<String, InlineFail> {
        let rp = frontend(src).expect("frontend");
        let cg = CallGraph::build(&rp);
        let mut prog = rp.program.clone();
        let caller = rp.main_unit().expect("main").name.clone();
        let mut call = None;
        rp.unit(&caller).unwrap().body.walk_stmts(&mut |s| {
            if call.is_none() && matches!(s.kind, StmtKind::Call { .. }) {
                call = Some(s.id);
            }
        });
        inline_call(&mut prog, &rp, &cg, caps, &caller, call.expect("call"))?;
        let printed = print_program(&prog);
        let p2 = parse_program(&printed).expect("reparse");
        resolve(p2).expect("re-resolve");
        Ok(printed)
    }

    #[test]
    fn whole_array_and_scalar_actuals() {
        let out = inline_first_call(
            "PROGRAM P\nREAL X(10)\nCALL SCALE(X, 10, 2.5)\nEND\nSUBROUTINE SCALE(A, N, F)\nREAL A(N)\nDO I = 1, N\nA(I) = A(I) * F\nENDDO\nRETURN\nEND\n",
            Capabilities::polaris2008(),
        )
        .expect("inline");
        // The loop now operates on X directly.
        assert!(out.contains("X(IZ1") || out.contains("X(I"), "{}", out);
        assert!(!out.contains("CALL SCALE"), "{}", out);
        // Scalar expression actuals become temporaries.
        assert!(out.contains("= 2.5"), "{}", out);
    }

    #[test]
    fn locals_are_renamed() {
        let out = inline_first_call(
            "PROGRAM P\nT = 1.0\nCALL F\nEND\nSUBROUTINE F\nT = 2.0\nEND\n",
            Capabilities::polaris2008(),
        )
        .expect("inline");
        // The callee's T must not collide with the caller's T.
        assert!(out.contains("TZ1"), "{}", out);
    }

    #[test]
    fn commons_keep_layout() {
        let out = inline_first_call(
            "PROGRAM P\nCOMMON /C/ A(10), Q\nCALL F\nEND\nSUBROUTINE F\nCOMMON /C/ B(10), R\nR = B(1)\nEND\n",
            Capabilities::polaris2008(),
        )
        .expect("inline");
        // The renamed member list still declares the same positional
        // layout: a 10-element array then a scalar.
        assert!(out.contains("COMMON /C/ BZ1"), "{}", out);
        let p2 = parse_program(&out).unwrap();
        let rp2 = resolve(p2).unwrap();
        let t = rp2.table("P");
        // Renamed R (RZ1 or similar) sits at offset 10 of /C/.
        let renamed_r = t
            .iter()
            .find(|s| s.name.starts_with("RZ"))
            .expect("renamed R");
        assert_eq!(
            renamed_r.storage,
            apar_minifort::Storage::Common {
                block: "C".into(),
                offset: 10
            }
        );
    }

    #[test]
    fn section_actual_refused() {
        let err = inline_first_call(
            "PROGRAM P\nREAL X(100)\nCALL F(X(11))\nEND\nSUBROUTINE F(A)\nREAL A(*)\nA(1) = 0.0\nEND\n",
            Capabilities::polaris2008(),
        )
        .unwrap_err();
        assert_eq!(err, InlineFail::SectionActual);
    }

    #[test]
    fn foreign_refused_without_multilingual() {
        let src = "PROGRAM P\nCALL CF\nEND\n!LANG C\nSUBROUTINE CF\nEND\n";
        assert_eq!(
            inline_first_call(src, Capabilities::polaris2008()).unwrap_err(),
            InlineFail::Foreign
        );
        assert!(inline_first_call(src, Capabilities::full()).is_ok());
    }

    #[test]
    fn recursive_refused() {
        let err = inline_first_call(
            "PROGRAM P\nCALL F\nEND\nSUBROUTINE F\nCALL F\nEND\n",
            Capabilities::polaris2008(),
        )
        .unwrap_err();
        assert_eq!(err, InlineFail::Recursive);
    }

    #[test]
    fn mid_body_return_refused() {
        let err = inline_first_call(
            "PROGRAM P\nCALL F(X)\nEND\nSUBROUTINE F(A)\nIF (A .GT. 0.0) THEN\nRETURN\nENDIF\nA = 1.0\nEND\n",
            Capabilities::polaris2008(),
        )
        .unwrap_err();
        assert_eq!(err, InlineFail::MidBodyReturn);
    }

    #[test]
    fn inline_whole_loop_nest() {
        let rp = frontend(
            "PROGRAM P\nREAL X(10)\nDO I = 1, 5\nCALL STEP(X, I)\nENDDO\nEND\nSUBROUTINE STEP(A, K)\nREAL A(*)\nA(K) = A(K) + 1.0\nEND\n",
        )
        .expect("frontend");
        let cg = CallGraph::build(&rp);
        let mut prog = rp.program.clone();
        let mut loop_id = None;
        rp.main_unit().unwrap().body.walk_stmts(&mut |s| {
            if matches!(s.kind, StmtKind::Do { .. }) {
                loop_id.get_or_insert(s.id);
            }
        });
        let (inlined, failures) = inline_calls_in_loop(
            &mut prog,
            &rp,
            &cg,
            Capabilities::polaris2008(),
            "P",
            loop_id.unwrap(),
            3,
            10_000,
            &OpCounter::unlimited(),
        );
        assert_eq!(inlined, 1);
        assert!(failures.is_empty());
        let printed = print_program(&prog);
        assert!(!printed.contains("CALL STEP"), "{}", printed);
        assert!(printed.contains("X(I)"), "{}", printed);
        // STEP's only call site was expanded: the callee is fully
        // inlined away and removed from the scratch program.
        assert!(
            prog.unit("STEP").is_none(),
            "fully inlined callee must be removed"
        );
    }

    #[test]
    fn callee_still_called_elsewhere_is_retained() {
        let rp = frontend(
            "PROGRAM P\nREAL X(10)\nDO I = 1, 5\nCALL STEP(X, I)\nENDDO\nCALL STEP(X, 1)\nEND\nSUBROUTINE STEP(A, K)\nREAL A(*)\nA(K) = A(K) + 1.0\nEND\n",
        )
        .expect("frontend");
        let cg = CallGraph::build(&rp);
        let mut prog = rp.program.clone();
        let mut loop_id = None;
        rp.main_unit().unwrap().body.walk_stmts(&mut |s| {
            if matches!(s.kind, StmtKind::Do { .. }) {
                loop_id.get_or_insert(s.id);
            }
        });
        let (inlined, failures) = inline_calls_in_loop(
            &mut prog,
            &rp,
            &cg,
            Capabilities::polaris2008(),
            "P",
            loop_id.unwrap(),
            3,
            10_000,
            &OpCounter::unlimited(),
        );
        assert_eq!(inlined, 1);
        assert!(failures.is_empty());
        // The call after the loop still references STEP, so the unit
        // must survive the dead-callee sweep.
        assert!(prog.unit("STEP").is_some(), "referenced callee retained");
    }

    /// Expands the calls of every call-bearing loop of `src` (or only
    /// of loops in `only_unit`) and checks that the call-graph removal
    /// rule leaves exactly the units the whole-program walk would.
    /// Returns, per loop, the unit names that remain.
    fn removal_matches_oracle(src: &str, depth: usize) -> Vec<Vec<String>> {
        let rp = frontend(src).expect("frontend");
        let cg = CallGraph::build(&rp);
        let mut remaining = Vec::new();
        for info in &crate::loops::LoopForest::build(&rp).loops {
            if info.calls.is_empty() {
                continue;
            }
            let mut prog = rp.program.clone();
            let (_, _, inlined_names) = expand_calls_in_loop(
                &mut prog,
                &rp,
                &cg,
                Capabilities::full(),
                &info.id.unit,
                info.id.stmt,
                depth,
                10_000,
                &OpCounter::unlimited(),
            );
            let mut oracle = prog.clone();
            let refs = referenced_units(&oracle);
            oracle.units.retain(|u| {
                u.kind == UnitKind::Main
                    || !inlined_names.contains(&u.name)
                    || refs.contains(&u.name)
            });
            remove_inlined_away(&mut prog, &cg, &info.id.unit, &inlined_names);
            let names =
                |p: &Program| -> Vec<String> { p.units.iter().map(|u| u.name.clone()).collect() };
            assert_eq!(
                names(&prog),
                names(&oracle),
                "loop {:?} in {}",
                info.id.stmt,
                info.id.unit
            );
            remaining.push(names(&prog));
        }
        remaining
    }

    #[test]
    fn call_graph_removal_rule_matches_the_whole_program_walk_on_suites_and_generated_programs() {
        use apar_minicheck::fortgen::{gen_program, GenConfig};
        let mut sources: Vec<String> = apar_workloads::all_suites()
            .into_iter()
            .map(|w| w.source)
            .collect();
        let mut rng = apar_minicheck::Rng::new(0x1a11_ed00);
        while sources.len() < 8 + 50 {
            let src = gen_program(&mut rng, &GenConfig::default());
            if frontend(&src).is_ok() {
                sources.push(src);
            }
        }
        let (mut loops, mut removals) = (0, 0);
        for src in &sources {
            let units = frontend(src).expect("frontend").program.units.len();
            for names in removal_matches_oracle(src, 3) {
                loops += 1;
                removals += units - names.len();
            }
        }
        eprintln!("{loops} call-bearing loops, {removals} units inlined away");
        assert!(loops >= 50, "only {loops} call-bearing loops");
        assert!(removals > 0, "no loop ever inlined a callee away");
    }

    #[test]
    fn call_graph_removal_rule_on_a_chain_and_a_function_reference() {
        // P's loop calls B, B calls C: at depth 2 both are expanded into
        // the loop. B has no caller left and goes; C stays, because B's
        // own text — B is still there when references are collected —
        // names it.
        let chain = "PROGRAM P\nREAL X(10)\nDO I = 1, 5\nCALL B(X, I)\nENDDO\nEND\n\
                     SUBROUTINE B(A, K)\nREAL A(*)\nCALL C(A, K)\nEND\n\
                     SUBROUTINE C(A, K)\nREAL A(*)\nA(K) = A(K) + 1.0\nEND\n";
        assert_eq!(removal_matches_oracle(chain, 3), vec![vec!["P", "C"]]);

        // G is expanded into P's loop, but Q still names it in a
        // function reference, which only the call graph knows about.
        let callf = "PROGRAM P\nREAL X(10)\nDO I = 1, 5\nCALL G(X, I)\nENDDO\nEND\n\
                     FUNCTION G(A, K)\nREAL A(*)\nA(K) = A(K) + 1.0\nG = 0.0\nEND\n\
                     SUBROUTINE Q(Y)\nREAL Y(*)\nZ = G(Y, 1)\nEND\n";
        assert_eq!(removal_matches_oracle(callf, 3), vec![vec!["P", "G", "Q"]]);

        // A unit whose name shadows an intrinsic has no call-graph
        // edges; the rule keeps it rather than guess.
        let shadow = "PROGRAM P\nREAL X(10)\nDO I = 1, 5\nCALL MAX0(X, I)\nENDDO\nCALL Q(X)\nEND\n\
                      SUBROUTINE MAX0(A, K)\nREAL A(*)\nA(K) = 1.0\nEND\n\
                      SUBROUTINE Q(Y)\nREAL Y(*)\nCALL MAX0(Y, 1)\nEND\n";
        assert_eq!(
            removal_matches_oracle(shadow, 3),
            vec![vec!["P", "MAX0", "Q"]]
        );
    }

    #[test]
    fn uncalled_bystander_unit_is_not_touched() {
        let rp = frontend(
            "PROGRAM P\nREAL X(10)\nDO I = 1, 5\nCALL STEP(X, I)\nENDDO\nEND\nSUBROUTINE STEP(A, K)\nREAL A(*)\nA(K) = A(K) + 1.0\nEND\nSUBROUTINE IDLE\nEND\n",
        )
        .expect("frontend");
        let cg = CallGraph::build(&rp);
        let mut prog = rp.program.clone();
        let mut loop_id = None;
        rp.main_unit().unwrap().body.walk_stmts(&mut |s| {
            if matches!(s.kind, StmtKind::Do { .. }) {
                loop_id.get_or_insert(s.id);
            }
        });
        inline_calls_in_loop(
            &mut prog,
            &rp,
            &cg,
            Capabilities::polaris2008(),
            "P",
            loop_id.unwrap(),
            3,
            10_000,
            &OpCounter::unlimited(),
        );
        // Only units this expansion inlined are candidates for removal:
        // dead-on-arrival units stay (their COMMON declarations may
        // still pin block extents).
        assert!(prog.unit("IDLE").is_some(), "bystander unit untouched");
        assert!(prog.unit("STEP").is_none());
    }
}
