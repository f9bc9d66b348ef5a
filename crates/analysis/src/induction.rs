//! Induction-variable substitution.
//!
//! `K = K + c` with a loop-invariant `c` makes every iteration depend on
//! the previous one; substituting the closed form `K0 + trip*c` removes
//! the recurrence. This pass performs the substitution *on the AST*
//! (Polaris is a source-to-source restructurer), inserting a `KSV = K`
//! save statement before the loop, so that a subsequently parallelized
//! loop executes correctly.

use apar_minifort::ast::{BinOp, Block, Expr as Ast, Stmt, StmtId, StmtKind, Unit};
use apar_minifort::symtab::SymbolTable;

/// Report of the substitutions performed in one unit.
#[derive(Clone, Debug, Default)]
pub struct InductionReport {
    /// `(loop stmt, induction variable)` pairs rewritten.
    pub substituted: Vec<(StmtId, String)>,
}

/// Rewrites every recognized induction variable in the unit. `next_id`
/// is the program's statement-id counter (fresh statements need ids).
pub fn run_on_unit(
    unit: &mut Unit,
    table: &SymbolTable,
    next_id: &mut u32,
) -> InductionReport {
    let mut report = InductionReport::default();
    let mut counter = 0usize;
    rewrite_block(&mut unit.body, table, next_id, &mut counter, &mut report);
    report
}

fn rewrite_block(
    b: &mut Block,
    table: &SymbolTable,
    next_id: &mut u32,
    counter: &mut usize,
    report: &mut InductionReport,
) {
    let mut i = 0;
    while i < b.stmts.len() {
        // Recurse first so inner loops are handled innermost-out.
        match &mut b.stmts[i].kind {
            StmtKind::Do { body, .. } | StmtKind::DoWhile { body, .. } => {
                rewrite_block(body, table, next_id, counter, report);
            }
            StmtKind::If { arms, else_blk } => {
                for (_, bb) in arms.iter_mut() {
                    rewrite_block(bb, table, next_id, counter, report);
                }
                if let Some(bb) = else_blk {
                    rewrite_block(bb, table, next_id, counter, report);
                }
            }
            _ => {}
        }
        if let Some(saves) = try_rewrite_loop(&mut b.stmts[i], table, next_id, counter, report) {
            // Insert the save statements before the loop.
            for (k, save) in saves.into_iter().enumerate() {
                b.stmts.insert(i + k, save);
                i += 1;
            }
        }
        i += 1;
    }
}

/// Attempts induction substitution on one DO statement; returns save
/// statements to insert before it.
fn try_rewrite_loop(
    s: &mut Stmt,
    table: &SymbolTable,
    next_id: &mut u32,
    counter: &mut usize,
    report: &mut InductionReport,
) -> Option<Vec<Stmt>> {
    let loop_id = s.id;
    let line = s.line;
    let StmtKind::Do {
        var, lo, step, body, ..
    } = &mut s.kind
    else {
        return None;
    };
    let step_val = match step {
        None => 1i64,
        Some(Ast::Int(k)) => *k,
        _ => return None,
    };
    if step_val == 0 {
        return None;
    }
    // Find candidates: top-level statements `K = K + c` / `K = K - c`.
    let mut candidates: Vec<(usize, String, Ast)> = Vec::new();
    for (pos, st) in body.stmts.iter().enumerate() {
        if let StmtKind::Assign {
            lhs: Ast::Name(k),
            rhs,
        } = &st.kind
        {
            if table.is_array(k) || k == var {
                continue;
            }
            if let Some(c) = match_increment(k, rhs) {
                candidates.push((pos, k.clone(), c));
            }
        }
    }
    let mut saves = Vec::new();
    for (pos, k, c) in candidates {
        // K must be assigned only at `pos`, and c loop-invariant: c may
        // reference only names not assigned in the body.
        if count_assignments(body, &k) != 1 {
            continue;
        }
        if !invariant_in(body, &c, var) {
            continue;
        }
        // Fresh save variable with the same implicit-type first letter.
        let save_name = loop {
            *counter += 1;
            let cand = format!("{}ZSV{}", &k[..1], counter);
            if table.get(&cand).is_none() {
                break cand;
            }
        };
        // trip = (I - lo) / step  (exact since I = lo + t*step).
        let trip = |extra: i64| -> Ast {
            let diff = Ast::Bin(
                BinOp::Sub,
                Box::new(Ast::Name(var.clone())),
                Box::new(lo.clone()),
            );
            let t = if step_val == 1 {
                diff
            } else {
                Ast::Bin(BinOp::Div, Box::new(diff), Box::new(Ast::Int(step_val)))
            };
            if extra == 0 {
                t
            } else {
                Ast::Bin(BinOp::Add, Box::new(t), Box::new(Ast::Int(extra)))
            }
        };
        let closed = |extra: i64| -> Ast {
            // save + trip(extra) * c
            Ast::Bin(
                BinOp::Add,
                Box::new(Ast::Name(save_name.clone())),
                Box::new(Ast::Bin(
                    BinOp::Mul,
                    Box::new(trip(extra)),
                    Box::new(c.clone()),
                )),
            )
        };
        // Rewrite uses: statements before `pos` (and the increment's own
        // rhs) see trip executions of the increment; statements after see
        // trip + 1.
        for (j, st) in body.stmts.iter_mut().enumerate() {
            let extra = if j < pos { 0 } else { 1 };
            if j == pos {
                st.kind = StmtKind::Assign {
                    lhs: Ast::Name(k.clone()),
                    rhs: closed(1),
                };
                continue;
            }
            replace_name_in_stmt(st, &k, &closed(extra));
        }
        saves.push(Stmt {
            id: StmtId(*next_id),
            line,
            label: None,
            kind: StmtKind::Assign {
                lhs: Ast::Name(save_name.clone()),
                rhs: Ast::Name(k.clone()),
            },
        });
        *next_id += 1;
        report.substituted.push((loop_id, k));
    }
    if saves.is_empty() {
        None
    } else {
        Some(saves)
    }
}

/// Matches `K + c`, `c + K`, `K - c`; returns `c` (negated for `-`).
fn match_increment(k: &str, rhs: &Ast) -> Option<Ast> {
    let is_k = |e: &Ast| matches!(e, Ast::Name(n) if n == k);
    let free_of_k = |e: &Ast| {
        let mut f = false;
        e.walk(&mut |x| {
            if is_k(x) {
                f = true;
            }
        });
        !f
    };
    match rhs {
        Ast::Bin(BinOp::Add, l, r) => {
            if is_k(l) && free_of_k(r) {
                Some((**r).clone())
            } else if is_k(r) && free_of_k(l) {
                Some((**l).clone())
            } else {
                None
            }
        }
        Ast::Bin(BinOp::Sub, l, r) if is_k(l) && free_of_k(r) => Some(Ast::Un(
            apar_minifort::ast::UnOp::Neg,
            Box::new((**r).clone()),
        )),
        _ => None,
    }
}

fn count_assignments(b: &Block, name: &str) -> usize {
    let mut n = 0;
    b.walk_stmts(&mut |s| match &s.kind {
        StmtKind::Assign {
            lhs: Ast::Name(l), ..
        } if l == name => n += 1,
        StmtKind::Do { var, .. } if var == name => n += 1,
        StmtKind::Read { items } => {
            for it in items {
                if matches!(it, Ast::Name(l) if l == name) {
                    n += 1;
                }
            }
        }
        StmtKind::Call { args, .. } => {
            // Conservative: a call may assign any actual name.
            for a in args {
                if matches!(a, Ast::Name(l) if l == name) {
                    n += 1;
                }
            }
        }
        _ => {}
    });
    n
}

/// True when `e` references only names never assigned in the body (and
/// not the loop variable — which IS allowed, making the increment
/// nonlinear; keep it conservative and reject).
fn invariant_in(b: &Block, e: &Ast, loop_var: &str) -> bool {
    let mut ok = true;
    e.walk(&mut |x| match x {
        Ast::Name(n)
            if (n == loop_var || count_assignments(b, n) > 0) => {
                ok = false;
            }
        Ast::Index { .. } | Ast::Sub { .. } | Ast::CallF { .. } => ok = false,
        _ => {}
    });
    ok
}

fn replace_name_in_stmt(s: &mut Stmt, name: &str, repl: &Ast) {
    let rw = |e: &Ast| -> Ast {
        e.map(&mut |x| match &x {
            Ast::Name(n) if n == name => repl.clone(),
            _ => x,
        })
    };
    match &mut s.kind {
        StmtKind::Assign { lhs, rhs } => {
            // Only the subscripts of an lvalue are uses.
            if let Ast::Index { subs, .. } = lhs {
                for sub in subs {
                    *sub = rw(sub);
                }
            }
            *rhs = rw(rhs);
        }
        StmtKind::If { arms, else_blk } => {
            for (c, b) in arms {
                *c = rw(c);
                for st in &mut b.stmts {
                    replace_name_in_stmt(st, name, repl);
                }
            }
            if let Some(b) = else_blk {
                for st in &mut b.stmts {
                    replace_name_in_stmt(st, name, repl);
                }
            }
        }
        StmtKind::Do {
            lo, hi, step, body, ..
        } => {
            *lo = rw(lo);
            *hi = rw(hi);
            if let Some(st) = step {
                *st = rw(st);
            }
            for st in &mut body.stmts {
                replace_name_in_stmt(st, name, repl);
            }
        }
        StmtKind::DoWhile { cond, body } => {
            *cond = rw(cond);
            for st in &mut body.stmts {
                replace_name_in_stmt(st, name, repl);
            }
        }
        StmtKind::Call { args, .. } => {
            for a in args {
                *a = rw(a);
            }
        }
        StmtKind::Read { items } | StmtKind::Write { items } => {
            for i in items {
                *i = rw(i);
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apar_minifort::pretty::print_program;
    use apar_minifort::{frontend, parse_program, resolve};

    fn transform(src: &str) -> (String, InductionReport) {
        let rp = frontend(src).expect("frontend");
        let mut prog = rp.program.clone();
        let mut next = prog.stmt_count;
        let mut report = InductionReport::default();
        for u in prog.units_mut() {
            let r = run_on_unit(u, &rp.tables[&u.name], &mut next);
            report.substituted.extend(r.substituted);
        }
        prog.stmt_count = next;
        let printed = print_program(&prog);
        // The transformed program must still parse and resolve.
        let p2 = parse_program(&printed).expect("reparse");
        resolve(p2).expect("re-resolve");
        (printed, report)
    }

    #[test]
    fn basic_increment_substituted() {
        let (out, rep) = transform(
            "PROGRAM P\nREAL A(100)\nK = 0\nDO I = 1, 10\nK = K + 3\nA(K) = 1.0\nENDDO\nEND\n",
        );
        assert_eq!(rep.substituted.len(), 1);
        assert!(out.contains("KZSV1 = K"), "{}", out);
        // The increment became a closed form; the use after it sees t+1.
        assert!(out.contains("K = KZSV1 + (I - 1 + 1) * 3"), "{}", out);
        assert!(out.contains("A(KZSV1 + (I - 1 + 1) * 3)"), "{}", out);
    }

    #[test]
    fn use_before_increment_sees_trip_count() {
        let (out, _) = transform(
            "PROGRAM P\nREAL A(100)\nK = 5\nDO I = 1, 10\nA(K) = 1.0\nK = K + 2\nENDDO\nEND\n",
        );
        assert!(out.contains("A(KZSV1 + (I - 1) * 2)"), "{}", out);
    }

    #[test]
    fn nonunit_step_divides() {
        let (out, _) = transform(
            "PROGRAM P\nREAL A(100)\nK = 0\nDO I = 1, 20, 2\nK = K + 1\nA(K) = 1.0\nENDDO\nEND\n",
        );
        assert!(out.contains("(I - 1) / 2"), "{}", out);
    }

    #[test]
    fn decrement_substituted() {
        let (out, rep) = transform(
            "PROGRAM P\nK = 100\nDO I = 1, 10\nK = K - 1\nENDDO\nEND\n",
        );
        assert_eq!(rep.substituted.len(), 1);
        assert!(out.contains("* (-1)") || out.contains("* -1"), "{}", out);
    }

    #[test]
    fn variant_increment_rejected() {
        let (_, rep) = transform(
            "PROGRAM P\nDO I = 1, 10\nM = M + 1\nK = K + M\nENDDO\nEND\n",
        );
        // M qualifies; K does not (its increment M varies).
        assert_eq!(rep.substituted.len(), 1);
        assert_eq!(rep.substituted[0].1, "M");
    }

    #[test]
    fn multiple_assignments_rejected() {
        let (_, rep) = transform(
            "PROGRAM P\nDO I = 1, 10\nK = K + 1\nK = K + 2\nENDDO\nEND\n",
        );
        assert!(rep.substituted.is_empty());
    }

    #[test]
    fn nested_loops_handled_innermost_first() {
        let (out, rep) = transform(
            "PROGRAM P\nREAL A(1000)\nK = 0\nDO I = 1, 10\nDO J = 1, 10\nK = K + 1\nA(K) = 1.0\nENDDO\nENDDO\nEND\n",
        );
        // The inner rewrite makes K's update in the inner loop a closed
        // form over J, which then blocks outer-loop recognition (K's rhs
        // references J, assigned by the inner DO) — matching Polaris,
        // which needed multiple passes for nested inductions.
        assert_eq!(rep.substituted.len(), 1);
        assert!(out.contains("KZSV1"), "{}", out);
    }

    #[test]
    fn semantics_preserved_sequentially() {
        // Evaluate both versions by hand for a tiny case.
        // K starts 5; loop I=1..3: A(K+trip*2 pattern).
        let (out, _) = transform(
            "PROGRAM P\nREAL A(100)\nK = 5\nDO I = 1, 3\nK = K + 2\nA(K) = 1.0\nENDDO\nEND\n",
        );
        // Writes land at K=7,9,11 in the original. Closed form:
        // KZSV1 + (I-1+1)*2 = 5 + 2I -> 7, 9, 11.
        assert!(out.contains("K = KZSV1 + (I - 1 + 1) * 2"), "{}", out);
    }
}
