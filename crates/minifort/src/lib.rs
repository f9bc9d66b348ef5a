//! MiniFort: a Fortran-77-shaped language frontend.
//!
//! The paper studies automatic parallelization of industrial Fortran 77
//! application suites (SEISMIC, GAMESS, SANDER) against kernel benchmarks
//! (PERFECT, LINPACK). Reproducing it requires a source language rich
//! enough to express the challenge patterns of §2:
//!
//! * multifunctionality — runtime option variables steering `IF`/`CALL`
//!   dispatch,
//! * reusable frameworks — driver loops calling module subroutines that
//!   follow a template,
//! * shared data structures — `COMMON` storage, `EQUIVALENCE`, and
//!   by-reference array arguments reshaped across call boundaries,
//! * multilingual code — program units tagged `!LANG C` whose bodies the
//!   Fortran-level analysis cannot see through,
//! * deep subroutine/loop nesting.
//!
//! MiniFort keeps Fortran 77 semantics (column-free syntax, `.GT.`-style
//! operators, implicit typing, `COMMON`/`EQUIVALENCE` storage
//! association, by-reference argument passing, truncating integer
//! division) while dropping legacy surface details irrelevant to the
//! study (fixed columns, computed GOTO, FORMAT).
//!
//! # Pipeline
//!
//! [`parse_program`] turns source text into an [`ast::Program`];
//! [`resolve::resolve`] builds per-unit [`symtab::SymbolTable`]s,
//! disambiguates `NAME(args)` into array references vs. calls, types every
//! expression, and lays out `COMMON`/`EQUIVALENCE` storage. The
//! [`pretty`] module prints programs back to parseable source.
//!
//! # Directives
//!
//! * `!LANG C` — the next program unit is foreign code (§2.4).
//! * `!$OMP PARALLEL DO [PRIVATE(..)] [REDUCTION(op:..)]` — manual
//!   parallelization of the next `DO` (the paper's "OpenMP" version).
//! * `!$TARGET <name>` — marks the next `DO` as a hand-identified target
//!   loop; the classification experiments key off these names.
//! * `!$PAR DO [SCHEDULE(STATIC|CYCLIC)] [COLLAPSE(n)] [PRIVATE(..)]
//!   [REDUCTION(op:..)] [SPECULATIVE] [WRITES(..)]` — compiler-emitted
//!   parallelization (the `auto_par` annotation slot); produced by the
//!   codegen backend and read back by this parser.
//! * `!$PAR SERIAL <reason>` — structured comment recording why the
//!   compiler left the next `DO` serial; ignored by the parser.

pub mod ast;
pub mod diag;
pub mod lexer;
pub mod parser;
pub mod pretty;
pub mod resolve;
pub mod symtab;
pub mod token;
pub mod types;

pub use ast::{Block, Expr, LoopDirective, Program, Schedule, Stmt, StmtId, StmtKind, Unit, UnitKind};
pub use diag::{Diag, ParseError, ResolveError};
pub use parser::{parse_program, parse_program_recovering};
pub use resolve::{resolve, resolve_recovering, ResolvedProgram};
pub use symtab::{ArrayShape, Storage, SymbolKind, SymbolTable};
pub use types::{DeckVal, Lang, Ty};

/// Parses and resolves in one step; the common entry point.
pub fn frontend(src: &str) -> Result<ResolvedProgram, Diag> {
    let prog = parse_program(src).map_err(Diag::Parse)?;
    resolve(prog).map_err(Diag::Resolve)
}

/// Parses and resolves with recovery: garbled statements and units
/// become diagnostics instead of aborting the front end. Total — any
/// byte sequence yields a (possibly empty) resolved program, the
/// diagnostics explaining what was dropped, and the names of units the
/// resolver had to discard.
pub fn frontend_recovering(src: &str) -> (ResolvedProgram, Vec<Diag>, Vec<String>) {
    let (prog, parse_errs) = parse_program_recovering(src);
    let (rp, resolve_errs) = resolve_recovering(prog);
    let dropped: Vec<String> = resolve_errs.iter().map(|e| e.unit.clone()).collect();
    let diags: Vec<Diag> = parse_errs
        .into_iter()
        .map(Diag::Parse)
        .chain(resolve_errs.into_iter().map(Diag::Resolve))
        .collect();
    (rp, diags, dropped)
}
