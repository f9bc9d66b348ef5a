//! Source-to-source backend: renders a compiled program to MiniFort
//! annotated with compiler directives.
//!
//! The compiler (apar-core) marks parallelizable loops by filling the
//! `auto_par` slot on `DO` statements. This crate turns that marked
//! program into a text artifact:
//!
//! * each parallelized loop is printed under a
//!   `!$PAR DO [SCHEDULE(..)] [COLLAPSE(n)] [PRIVATE(..)]
//!   [REDUCTION(op:..)]` directive that the MiniFort parser reads back
//!   into the same `auto_par` slot;
//! * each hindered loop stays serial, with the hindrance recorded above
//!   it as a structured `!$PAR SERIAL <reason>` comment;
//! * loops the analysis proved parallel but the runtime cannot actually
//!   fork (escaping control flow, assumed-size private arrays,
//!   non-scalar reduction variables) are *rejected*: the directive is
//!   stripped, the loop is emitted serial with the reason, and the
//!   rejection is reported so the caller can ledger it instead of
//!   silently degrading.
//!
//! The emitted source is a fixpoint of the front end: parsing it back
//! reproduces the directives, so the runtime can execute the annotated
//! program and compare it bit-for-bit against the serial original.

use std::collections::HashMap;

use apar_minifort::pretty::print_program_annotated;
use apar_minifort::{Block, LoopDirective, ResolvedProgram, StmtId, StmtKind, SymbolTable};

/// One annotated loop the backend refused to emit as parallel.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Rejection {
    /// Program unit containing the loop.
    pub unit: String,
    /// The loop's DO statement.
    pub stmt: StmtId,
    /// Why the runtime could not execute the directive.
    pub reason: String,
}

/// Result of rendering a compiled program to annotated source.
#[derive(Clone, Debug)]
pub struct EmitOutcome {
    /// The directive-annotated MiniFort text.
    pub source: String,
    /// Number of loops emitted under a `!$PAR DO` directive.
    pub emitted: usize,
    /// Annotated loops whose directive was stripped as non-executable.
    pub rejected: Vec<Rejection>,
}

/// Renders `rp` to annotated source. `serial_reasons` maps the DO
/// statements the compiler left serial to a one-line explanation
/// (typically the hindrance-classification label); each prints as a
/// `!$PAR SERIAL <reason>` comment above the loop.
pub fn emit(rp: &ResolvedProgram, serial_reasons: &HashMap<StmtId, String>) -> EmitOutcome {
    let mut prog = rp.program.clone();
    let mut emitted = 0usize;
    let mut rejected: Vec<Rejection> = Vec::new();
    for u in prog.units_mut() {
        let table = &rp.tables[&u.name];
        strip_unrunnable(&mut u.body, table, &u.name, &mut emitted, &mut rejected);
    }
    let mut notes: HashMap<StmtId, String> = HashMap::new();
    for (id, reason) in serial_reasons {
        notes.insert(*id, sanitize(reason));
    }
    for r in &rejected {
        notes.insert(r.stmt, format!("not emittable: {}", sanitize(&r.reason)));
    }
    let source = print_program_annotated(&prog, &|id| notes.get(&id).cloned());
    EmitOutcome {
        source,
        emitted,
        rejected,
    }
}

/// Walks a block, vetting every `auto_par` annotation against the
/// runtime's execution restrictions; failing directives are removed
/// and recorded.
fn strip_unrunnable(
    b: &mut Block,
    table: &SymbolTable,
    unit: &str,
    emitted: &mut usize,
    rejected: &mut Vec<Rejection>,
) {
    for s in &mut b.stmts {
        match &mut s.kind {
            StmtKind::Do { body, auto_par, .. } => {
                if let Some(d) = auto_par {
                    match directive_blocker(d, body, table) {
                        None => *emitted += 1,
                        Some(reason) => {
                            *auto_par = None;
                            rejected.push(Rejection {
                                unit: unit.to_string(),
                                stmt: s.id,
                                reason,
                            });
                        }
                    }
                }
                strip_unrunnable(body, table, unit, emitted, rejected);
            }
            StmtKind::DoWhile { body, .. } => {
                strip_unrunnable(body, table, unit, emitted, rejected);
            }
            StmtKind::If { arms, else_blk } => {
                for (_, arm) in arms.iter_mut() {
                    strip_unrunnable(arm, table, unit, emitted, rejected);
                }
                if let Some(e) = else_blk {
                    strip_unrunnable(e, table, unit, emitted, rejected);
                }
            }
            _ => {}
        }
    }
}

/// Checks one parallel directive against the interpreter's fork
/// restrictions. Returns the first blocking reason, or `None` when the
/// annotated loop can execute in parallel.
pub fn directive_blocker(
    d: &LoopDirective,
    body: &Block,
    table: &SymbolTable,
) -> Option<String> {
    if let Some(what) = escaping_construct(body) {
        return Some(format!(
            "{} in the loop body escapes the parallel region",
            what
        ));
    }
    for v in &d.private {
        if let Some(shape) = table.get(v).and_then(|s| s.shape()) {
            if shape.assumed_size() {
                return Some(format!("private array {} has assumed size", v));
            }
        }
    }
    for (_, v) in &d.reductions {
        let is_scalar = table
            .get(v)
            .is_some_and(|s| matches!(s.kind, apar_minifort::SymbolKind::Scalar));
        if !is_scalar {
            return Some(format!("reduction variable {} is not a scalar", v));
        }
    }
    None
}

/// Finds a construct the parallel interpreter cannot contain inside a
/// forked region: non-structured control flow or I/O.
fn escaping_construct(b: &Block) -> Option<&'static str> {
    for s in &b.stmts {
        let found = match &s.kind {
            StmtKind::Return => Some("RETURN"),
            StmtKind::Stop => Some("STOP"),
            StmtKind::Goto(_) => Some("GOTO"),
            StmtKind::Read { .. } => Some("READ"),
            StmtKind::Write { .. } => Some("WRITE"),
            StmtKind::Do { body, .. } | StmtKind::DoWhile { body, .. } => {
                escaping_construct(body)
            }
            StmtKind::If { arms, else_blk } => arms
                .iter()
                .find_map(|(_, arm)| escaping_construct(arm))
                .or_else(|| else_blk.as_ref().and_then(escaping_construct)),
            _ => None,
        };
        if found.is_some() {
            return found;
        }
    }
    None
}

/// Collapses a reason to a single directive-comment-safe line.
fn sanitize(reason: &str) -> String {
    reason.split_whitespace().collect::<Vec<_>>().join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use apar_minifort::{frontend, parse_program, Schedule};

    fn annotate_first_do(rp: &mut ResolvedProgram, d: LoopDirective) -> StmtId {
        for u in rp.program.units_mut() {
            for s in &mut u.body.stmts {
                if let StmtKind::Do { auto_par, .. } = &mut s.kind {
                    *auto_par = Some(d);
                    return s.id;
                }
            }
        }
        panic!("no DO statement to annotate");
    }

    #[test]
    fn emits_par_do_for_annotated_loop() {
        let mut rp = frontend(
            "PROGRAM P\nREAL A(10)\nDO I = 1, 10\nA(I) = 1.0\nENDDO\nWRITE(*, *) A(1)\nEND\n",
        )
        .unwrap();
        annotate_first_do(&mut rp, LoopDirective::default());
        let out = emit(&rp, &HashMap::new());
        assert_eq!(out.emitted, 1);
        assert!(out.rejected.is_empty());
        assert!(out.source.contains("!$PAR DO"), "{}", out.source);
        // The artifact reparses with the directive intact.
        let p2 = parse_program(&out.source).unwrap();
        let mut seen = false;
        p2.units[0].body.walk_stmts(&mut |s| {
            if let StmtKind::Do { auto_par, .. } = &s.kind {
                seen = auto_par.is_some();
            }
        });
        assert!(seen);
    }

    #[test]
    fn serial_reason_becomes_structured_comment() {
        let rp = frontend("PROGRAM P\nDO I = 1, 10\nS = S + A(I - 1)\nENDDO\nEND\n").unwrap();
        let id = rp.program.units[0].body.stmts[0].id;
        let mut reasons = HashMap::new();
        reasons.insert(id, "real  dependence".to_string());
        let out = emit(&rp, &reasons);
        assert!(
            out.source.contains("!$PAR SERIAL real dependence"),
            "{}",
            out.source
        );
    }

    #[test]
    fn escaping_control_flow_is_rejected() {
        let mut rp = frontend(
            "SUBROUTINE S(A, N)\nREAL A(N)\nDO I = 1, N\nIF (A(I) .LT. 0.0) RETURN\nA(I) = 1.0\nENDDO\nEND\n",
        )
        .unwrap();
        annotate_first_do(&mut rp, LoopDirective::default());
        let out = emit(&rp, &HashMap::new());
        assert_eq!(out.emitted, 0);
        assert_eq!(out.rejected.len(), 1);
        assert!(out.rejected[0].reason.contains("RETURN"));
        assert!(
            out.source.contains("!$PAR SERIAL not emittable:"),
            "{}",
            out.source
        );
        assert!(!out.source.contains("!$PAR DO"));
    }

    #[test]
    fn assumed_size_private_array_is_rejected() {
        let mut rp = frontend(
            "SUBROUTINE S(A, T, N)\nREAL A(N), T(*)\nDO I = 1, N\nT(1) = 1.0\nA(I) = T(1)\nENDDO\nEND\n",
        )
        .unwrap();
        annotate_first_do(
            &mut rp,
            LoopDirective {
                private: vec!["T".to_string()],
                ..LoopDirective::default()
            },
        );
        let out = emit(&rp, &HashMap::new());
        assert_eq!(out.emitted, 0);
        assert!(out.rejected[0].reason.contains("assumed size"));
    }

    #[test]
    fn non_scalar_reduction_is_rejected() {
        let mut rp = frontend(
            "SUBROUTINE S(A, N)\nREAL A(N)\nDO I = 1, N\nA(1) = A(1) + 1.0\nENDDO\nEND\n",
        )
        .unwrap();
        annotate_first_do(
            &mut rp,
            LoopDirective {
                reductions: vec![(apar_minifort::ast::RedOp::Add, "A".to_string())],
                ..LoopDirective::default()
            },
        );
        let out = emit(&rp, &HashMap::new());
        assert_eq!(out.emitted, 0);
        assert!(out.rejected[0].reason.contains("not a scalar"));
    }

    #[test]
    fn clauses_survive_emission() {
        let mut rp = frontend(
            "PROGRAM P\nREAL A(10)\nDO I = 1, 10\nT = 2.0\nA(I) = T\nENDDO\nEND\n",
        )
        .unwrap();
        annotate_first_do(
            &mut rp,
            LoopDirective {
                private: vec!["T".to_string()],
                schedule: Schedule::Cyclic,
                collapse: 2,
                ..LoopDirective::default()
            },
        );
        let out = emit(&rp, &HashMap::new());
        assert!(
            out.source
                .contains("!$PAR DO SCHEDULE(CYCLIC) COLLAPSE(2) PRIVATE(T)"),
            "{}",
            out.source
        );
    }
}
