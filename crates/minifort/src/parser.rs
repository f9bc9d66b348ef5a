//! Recursive-descent parser for MiniFort.
//!
//! Produces a raw [`Program`]; name resolution and typing happen in
//! [`crate::resolve`]. The parser handles the statement forms the
//! industrial workloads need: block and logical `IF`, modern
//! (`DO`/`ENDDO`) and old-style labeled `DO` loops, `DO WHILE`,
//! declarations (`COMMON`, `EQUIVALENCE`, `PARAMETER`, `DATA`,
//! `EXTERNAL`, type statements with dimensions), I/O with opaque control
//! lists, and the `!$OMP` / `!$TARGET` / `!LANG` directives.

use crate::ast::*;
use crate::diag::ParseError;
use crate::lexer::{lex, lex_recovering};
use crate::token::{Tok, Token};
use crate::types::{Lang, Ty};

/// Parses a full multi-unit program.
pub fn parse_program(src: &str) -> Result<Program, ParseError> {
    let toks = lex(src)?;
    let mut p = Parser {
        toks,
        pos: 0,
        next_id: 0,
        pending_omp: None,
        pending_auto: None,
        pending_target: None,
        recovering: false,
        diags: Vec::new(),
    };
    p.program()
}

/// Parses with recovery: a garbled statement is recorded as a
/// diagnostic and parsing resynchronizes at the next statement
/// boundary; a garbled unit header (or structure error the statement
/// sync cannot absorb) drops that unit and resynchronizes at the next
/// `PROGRAM`/`SUBROUTINE`/`FUNCTION`. Total: any input produces a
/// [`Program`] (possibly empty) plus the diagnostics explaining what
/// was lost.
pub fn parse_program_recovering(src: &str) -> (Program, Vec<ParseError>) {
    let (toks, diags) = lex_recovering(src);
    let mut p = Parser {
        toks,
        pos: 0,
        next_id: 0,
        pending_omp: None,
        pending_auto: None,
        pending_target: None,
        recovering: true,
        diags,
    };
    let prog = p
        .program()
        .expect("recovering parser never propagates errors");
    (prog, p.diags)
}

struct Parser {
    toks: Vec<Token>,
    pos: usize,
    next_id: u32,
    pending_omp: Option<LoopDirective>,
    pending_auto: Option<LoopDirective>,
    pending_target: Option<String>,
    /// When set, parse errors are recorded in `diags` and the parser
    /// resynchronizes instead of aborting.
    recovering: bool,
    diags: Vec<ParseError>,
}

const DECL_KWS: &[&str] = &[
    "INTEGER",
    "REAL",
    "COMPLEX",
    "LOGICAL",
    "CHARACTER",
    "DIMENSION",
    "COMMON",
    "EQUIVALENCE",
    "PARAMETER",
    "EXTERNAL",
    "DATA",
    "IMPLICIT",
];

impl Parser {
    fn peek(&self) -> &Tok {
        &self.toks[self.pos].kind
    }

    fn peek_at(&self, n: usize) -> &Tok {
        self.toks
            .get(self.pos + n)
            .map(|t| &t.kind)
            .unwrap_or(&Tok::Eof)
    }

    fn line(&self) -> u32 {
        self.toks[self.pos].line
    }

    fn bump(&mut self) -> Tok {
        let t = self.toks[self.pos].kind.clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError {
            line: self.line(),
            msg: msg.into(),
        }
    }

    fn expect(&mut self, tok: &Tok) -> Result<(), ParseError> {
        if self.peek() == tok {
            self.bump();
            Ok(())
        } else {
            Err(self.err(format!("expected {}, found {}", tok, self.peek())))
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), ParseError> {
        if self.peek().is_kw(kw) {
            self.bump();
            Ok(())
        } else {
            Err(self.err(format!("expected {}, found {}", kw, self.peek())))
        }
    }

    fn expect_ident(&mut self) -> Result<String, ParseError> {
        match self.bump() {
            Tok::Ident(s) => Ok(s),
            other => Err(self.err(format!("expected identifier, found {}", other))),
        }
    }

    fn eat(&mut self, tok: &Tok) -> bool {
        if self.peek() == tok {
            self.bump();
            true
        } else {
            false
        }
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek().is_kw(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_eos(&mut self) -> Result<(), ParseError> {
        match self.peek() {
            Tok::Eos => {
                self.bump();
                Ok(())
            }
            Tok::Eof => Ok(()),
            other => Err(self.err(format!("expected end of statement, found {}", other))),
        }
    }

    fn skip_eos(&mut self) {
        while matches!(self.peek(), Tok::Eos) {
            self.bump();
        }
    }

    fn fresh_id(&mut self) -> StmtId {
        let id = StmtId(self.next_id);
        self.next_id += 1;
        id
    }

    // ------------------------------------------------------------------
    // Recovery synchronization
    // ------------------------------------------------------------------

    /// Consumes tokens through the next statement boundary.
    fn sync_to_eos(&mut self) {
        while !matches!(self.peek(), Tok::Eos | Tok::Eof) {
            self.bump();
        }
        self.skip_eos();
    }

    /// Consumes tokens until a line opens with a unit header keyword
    /// (or the file ends). Used after a unit-level parse failure.
    fn sync_to_unit(&mut self) {
        loop {
            match self.peek() {
                Tok::Eof => break,
                Tok::Eos => {
                    self.skip_eos();
                    if self.at_unit_header() {
                        break;
                    }
                }
                _ => {
                    self.bump();
                }
            }
        }
    }

    fn at_unit_header(&self) -> bool {
        self.peek().is_kw("PROGRAM")
            || self.peek().is_kw("SUBROUTINE")
            || self.peek().is_kw("FUNCTION")
            || (self.peek_type_kw().is_some() && self.peek_at(1).is_kw("FUNCTION"))
    }

    // ------------------------------------------------------------------
    // Program structure
    // ------------------------------------------------------------------

    fn program(&mut self) -> Result<Program, ParseError> {
        let mut units = Vec::new();
        let mut next_lang = Lang::Fortran;
        loop {
            self.skip_eos();
            match self.peek() {
                Tok::Eof => break,
                Tok::Directive(d) => {
                    let d = d.clone();
                    self.bump();
                    if let Some(rest) = d.strip_prefix("LANG") {
                        next_lang = match rest.trim() {
                            "C" => Lang::C,
                            "FORTRAN" | "F77" | "" => Lang::Fortran,
                            other => {
                                let e = self.err(format!("unknown language '{}'", other));
                                if !self.recovering {
                                    return Err(e);
                                }
                                self.diags.push(e);
                                Lang::Fortran
                            }
                        };
                    }
                    // Loop directives at unit level are ignored.
                }
                _ => match self.unit(std::mem::take(&mut next_lang)) {
                    Ok(u) => {
                        units.push(std::sync::Arc::new(u));
                        next_lang = Lang::Fortran;
                    }
                    Err(e) => {
                        if !self.recovering {
                            return Err(e);
                        }
                        // The whole unit is unusable: record why and
                        // resynchronize at the next unit header.
                        self.diags.push(e);
                        self.sync_to_unit();
                        next_lang = Lang::Fortran;
                    }
                },
            }
        }
        Ok(Program {
            units,
            stmt_count: self.next_id,
        })
    }

    fn unit(&mut self, lang: Lang) -> Result<Unit, ParseError> {
        let line = self.line();
        let mut decls: Vec<Decl> = Vec::new();
        // Optional type prefix on FUNCTION: `REAL FUNCTION F(X)`.
        let mut fn_ty: Option<Ty> = None;
        if let Some(ty) = self.peek_type_kw() {
            if self.peek_at(1).is_kw("FUNCTION") {
                fn_ty = Some(ty);
                self.bump();
            }
        }
        let (kind, name, formals) = if self.eat_kw("PROGRAM") {
            let name = self.expect_ident()?;
            self.expect_eos()?;
            (UnitKind::Main, name, Vec::new())
        } else if self.eat_kw("SUBROUTINE") {
            let name = self.expect_ident()?;
            let formals = self.formal_list()?;
            self.expect_eos()?;
            (UnitKind::Subroutine, name, formals)
        } else if self.eat_kw("FUNCTION") {
            let name = self.expect_ident()?;
            let formals = self.formal_list()?;
            self.expect_eos()?;
            if let Some(ty) = fn_ty {
                decls.push(Decl::Type {
                    ty,
                    names: vec![DeclName {
                        name: name.clone(),
                        dims: vec![],
                    }],
                });
            }
            (UnitKind::Function, name, formals)
        } else {
            return Err(self.err(format!(
                "expected PROGRAM, SUBROUTINE, or FUNCTION, found {}",
                self.peek()
            )));
        };

        // Declaration section.
        loop {
            self.skip_eos();
            match self.peek() {
                Tok::Ident(s) if DECL_KWS.contains(&s.as_str()) && !self.is_assignment() => {
                    match self.declaration() {
                        Ok(Some(d)) => decls.push(d),
                        Ok(None) => {}
                        Err(e) => {
                            if !self.recovering {
                                return Err(e);
                            }
                            // Drop the one garbled declaration and
                            // resume at the next statement boundary.
                            self.diags.push(e);
                            self.sync_to_eos();
                        }
                    }
                }
                _ => break,
            }
        }

        // Body.
        let body = self.block(&mut |p: &mut Parser| p.peek().is_kw("END"))?;
        if self.recovering && matches!(self.peek(), Tok::Eof) {
            // Truncated source: accept the partial unit with what was
            // parsed rather than losing it entirely.
            self.diags.push(self.err("missing END (source truncated?)"));
        } else {
            self.expect_kw("END")?;
            // Optional `END SUBROUTINE NAME` style suffixes.
            while !matches!(self.peek(), Tok::Eos | Tok::Eof) {
                self.bump();
            }
            self.expect_eos()?;
        }

        Ok(Unit {
            name,
            kind,
            lang,
            formals,
            decls,
            body,
            line,
        })
    }

    fn peek_type_kw(&self) -> Option<Ty> {
        match self.peek() {
            Tok::Ident(s) => match s.as_str() {
                "INTEGER" => Some(Ty::Integer),
                "REAL" | "DOUBLEPRECISION" => Some(Ty::Real),
                "COMPLEX" => Some(Ty::Complex),
                "LOGICAL" => Some(Ty::Logical),
                "CHARACTER" => Some(Ty::Character),
                _ => None,
            },
            _ => None,
        }
    }

    /// Distinguishes `REAL = 1` (assignment to a variable named REAL —
    /// legal Fortran) from a declaration.
    fn is_assignment(&self) -> bool {
        matches!(self.peek_at(1), Tok::Assign)
    }

    fn formal_list(&mut self) -> Result<Vec<String>, ParseError> {
        let mut formals = Vec::new();
        if self.eat(&Tok::LParen) && !self.eat(&Tok::RParen) {
            loop {
                formals.push(self.expect_ident()?);
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
            self.expect(&Tok::RParen)?;
        }
        Ok(formals)
    }

    // ------------------------------------------------------------------
    // Declarations
    // ------------------------------------------------------------------

    fn declaration(&mut self) -> Result<Option<Decl>, ParseError> {
        if let Some(ty) = self.peek_type_kw() {
            self.bump();
            // CHARACTER*16 style length: ignored.
            if ty == Ty::Character && self.eat(&Tok::Star) {
                self.bump();
            }
            let names = self.decl_name_list()?;
            self.expect_eos()?;
            return Ok(Some(Decl::Type { ty, names }));
        }
        if self.eat_kw("IMPLICIT") {
            // `IMPLICIT NONE` accepted and ignored (MiniFort keeps
            // implicit typing for undeclared names regardless).
            while !matches!(self.peek(), Tok::Eos | Tok::Eof) {
                self.bump();
            }
            self.expect_eos()?;
            return Ok(None);
        }
        if self.eat_kw("DIMENSION") {
            let names = self.decl_name_list()?;
            self.expect_eos()?;
            return Ok(Some(Decl::Dimension { names }));
        }
        if self.eat_kw("COMMON") {
            self.expect(&Tok::Slash)?;
            let block = self.expect_ident()?;
            self.expect(&Tok::Slash)?;
            let names = self.decl_name_list()?;
            self.expect_eos()?;
            return Ok(Some(Decl::Common { block, names }));
        }
        if self.eat_kw("EQUIVALENCE") {
            let mut groups = Vec::new();
            loop {
                self.expect(&Tok::LParen)?;
                let mut group = Vec::new();
                loop {
                    let name = self.expect_ident()?;
                    let mut subs = Vec::new();
                    if self.eat(&Tok::LParen) {
                        loop {
                            subs.push(self.expr()?);
                            if !self.eat(&Tok::Comma) {
                                break;
                            }
                        }
                        self.expect(&Tok::RParen)?;
                    }
                    group.push(EquivRef { name, subs });
                    if !self.eat(&Tok::Comma) {
                        break;
                    }
                }
                self.expect(&Tok::RParen)?;
                groups.push(group);
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
            self.expect_eos()?;
            return Ok(Some(Decl::Equivalence { groups }));
        }
        if self.eat_kw("PARAMETER") {
            self.expect(&Tok::LParen)?;
            let mut defs = Vec::new();
            loop {
                let name = self.expect_ident()?;
                self.expect(&Tok::Assign)?;
                defs.push((name, self.expr()?));
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
            self.expect(&Tok::RParen)?;
            self.expect_eos()?;
            return Ok(Some(Decl::Parameter { defs }));
        }
        if self.eat_kw("EXTERNAL") {
            let mut names = Vec::new();
            loop {
                names.push(self.expect_ident()?);
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
            self.expect_eos()?;
            return Ok(Some(Decl::External { names }));
        }
        if self.eat_kw("DATA") {
            let mut items = Vec::new();
            loop {
                let name = self.expect_ident()?;
                let mut subs = Vec::new();
                if self.eat(&Tok::LParen) {
                    loop {
                        subs.push(self.expr()?);
                        if !self.eat(&Tok::Comma) {
                            break;
                        }
                    }
                    self.expect(&Tok::RParen)?;
                }
                self.expect(&Tok::Slash)?;
                let mut values = Vec::new();
                loop {
                    let (rep, lit) = self.data_value()?;
                    values.push((rep, lit));
                    if !self.eat(&Tok::Comma) {
                        break;
                    }
                }
                self.expect(&Tok::Slash)?;
                items.push(DataItem { name, subs, values });
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
            self.expect_eos()?;
            return Ok(Some(Decl::Data { items }));
        }
        Err(self.err("expected a declaration"))
    }

    fn decl_name_list(&mut self) -> Result<Vec<DeclName>, ParseError> {
        let mut names = Vec::new();
        loop {
            let name = self.expect_ident()?;
            let mut dims = Vec::new();
            if self.eat(&Tok::LParen) {
                loop {
                    dims.push(self.dim_spec()?);
                    if !self.eat(&Tok::Comma) {
                        break;
                    }
                }
                self.expect(&Tok::RParen)?;
            }
            names.push(DeclName { name, dims });
            if !self.eat(&Tok::Comma) {
                break;
            }
        }
        Ok(names)
    }

    fn dim_spec(&mut self) -> Result<DimSpec, ParseError> {
        if self.eat(&Tok::Star) {
            return Ok(DimSpec { lo: None, hi: None });
        }
        let first = self.expr()?;
        if self.eat(&Tok::Colon) {
            if self.eat(&Tok::Star) {
                Ok(DimSpec {
                    lo: Some(first),
                    hi: None,
                })
            } else {
                let hi = self.expr()?;
                Ok(DimSpec {
                    lo: Some(first),
                    hi: Some(hi),
                })
            }
        } else {
            Ok(DimSpec {
                lo: None,
                hi: Some(first),
            })
        }
    }

    fn data_value(&mut self) -> Result<(u32, Literal), ParseError> {
        // `100*0.0` means repeat; plain literal means once.
        let neg = self.eat(&Tok::Minus);
        match self.bump() {
            Tok::Int(v) => {
                if !neg && self.eat(&Tok::Star) {
                    let lit = self.data_literal()?;
                    Ok((
                        u32::try_from(v).map_err(|_| self.err("bad repeat count"))?,
                        lit,
                    ))
                } else {
                    Ok((1, Literal::Int(if neg { -v } else { v })))
                }
            }
            Tok::Real(v) => Ok((1, Literal::Real(if neg { -v } else { v }))),
            Tok::Logical(b) => Ok((1, Literal::Logical(b))),
            other => Err(self.err(format!("bad DATA value {}", other))),
        }
    }

    fn data_literal(&mut self) -> Result<Literal, ParseError> {
        let neg = self.eat(&Tok::Minus);
        match self.bump() {
            Tok::Int(v) => Ok(Literal::Int(if neg { -v } else { v })),
            Tok::Real(v) => Ok(Literal::Real(if neg { -v } else { v })),
            Tok::Logical(b) => Ok(Literal::Logical(b)),
            other => Err(self.err(format!("bad DATA literal {}", other))),
        }
    }

    // ------------------------------------------------------------------
    // Statements
    // ------------------------------------------------------------------

    /// Parses statements until `stop` matches (the terminator is not
    /// consumed).
    fn block(&mut self, stop: &mut impl FnMut(&mut Parser) -> bool) -> Result<Block, ParseError> {
        let mut stmts = Vec::new();
        loop {
            self.skip_eos();
            if matches!(self.peek(), Tok::Eof) || stop(self) {
                break;
            }
            if let Tok::Directive(d) = self.peek() {
                let d = d.clone();
                self.bump();
                match self.directive(&d) {
                    Ok(()) => {}
                    Err(e) => {
                        if !self.recovering {
                            return Err(e);
                        }
                        self.diags.push(e);
                    }
                }
                continue;
            }
            match self.statement() {
                Ok(s) => stmts.push(s),
                Err(e) => {
                    if !self.recovering {
                        return Err(e);
                    }
                    // Statement-level recovery: record the diagnosis,
                    // drop the statement, resume at the next boundary.
                    self.diags.push(e);
                    self.sync_to_eos();
                }
            }
        }
        Ok(Block { stmts })
    }

    fn directive(&mut self, d: &str) -> Result<(), ParseError> {
        if let Some(rest) = d.strip_prefix("$TARGET") {
            self.pending_target = Some(rest.trim().to_string());
            return Ok(());
        }
        if let Some(rest) = d.strip_prefix("$OMP") {
            let rest = rest.trim();
            if let Some(clauses) = rest.strip_prefix("PARALLEL DO") {
                self.pending_omp = Some(parse_omp_clauses(clauses).map_err(|m| self.err(m))?);
            }
            return Ok(());
        }
        if let Some(rest) = d.strip_prefix("$PAR") {
            let rest = rest.trim();
            if let Some(clauses) = rest.strip_prefix("DO") {
                self.pending_auto = Some(parse_par_clauses(clauses).map_err(|m| self.err(m))?);
            }
            // `!$PAR SERIAL <reason>` annotations are explanatory
            // comments from the codegen backend; no AST effect.
            return Ok(());
        }
        // Unknown directives (including !LANG mid-unit) are ignored.
        Ok(())
    }

    fn statement(&mut self) -> Result<Stmt, ParseError> {
        let line = self.line();
        let label = if let Tok::Label(l) = self.peek() {
            let l = *l;
            self.bump();
            Some(l)
        } else {
            None
        };
        let id = self.fresh_id();
        let kind = self.stmt_kind()?;
        Ok(Stmt {
            id,
            line,
            label,
            kind,
        })
    }

    fn stmt_kind(&mut self) -> Result<StmtKind, ParseError> {
        // Keyword statements (unless it's actually an assignment like
        // `IF = 3`, which the is_assignment check rules out).
        if !self.is_assignment() {
            if self.peek().is_kw("DO") && !matches!(self.peek_at(1), Tok::Assign) {
                return self.do_stmt();
            }
            if self.peek().is_kw("IF") && matches!(self.peek_at(1), Tok::LParen) {
                return self.if_stmt();
            }
            if self.eat_kw("CALL") {
                let name = self.expect_ident()?;
                let mut args = Vec::new();
                if self.eat(&Tok::LParen) && !self.eat(&Tok::RParen) {
                    loop {
                        args.push(self.expr()?);
                        if !self.eat(&Tok::Comma) {
                            break;
                        }
                    }
                    self.expect(&Tok::RParen)?;
                }
                self.expect_eos()?;
                return Ok(StmtKind::Call { name, args });
            }
            if self.eat_kw("RETURN") {
                self.expect_eos()?;
                return Ok(StmtKind::Return);
            }
            if self.eat_kw("STOP") {
                // Optional stop code.
                if !matches!(self.peek(), Tok::Eos | Tok::Eof) {
                    self.bump();
                }
                self.expect_eos()?;
                return Ok(StmtKind::Stop);
            }
            if self.eat_kw("CONTINUE") {
                self.expect_eos()?;
                return Ok(StmtKind::Continue);
            }
            if self.eat_kw("GOTO") {
                let l = self.goto_label()?;
                self.expect_eos()?;
                return Ok(StmtKind::Goto(l));
            }
            if self.peek().is_kw("GO") && self.peek_at(1).is_kw("TO") {
                self.bump();
                self.bump();
                let l = self.goto_label()?;
                self.expect_eos()?;
                return Ok(StmtKind::Goto(l));
            }
            if self.peek().is_kw("READ") && matches!(self.peek_at(1), Tok::LParen) {
                self.bump();
                self.skip_balanced_parens()?;
                let items = self.io_items()?;
                self.expect_eos()?;
                return Ok(StmtKind::Read { items });
            }
            if self.peek().is_kw("WRITE") && matches!(self.peek_at(1), Tok::LParen) {
                self.bump();
                self.skip_balanced_parens()?;
                let items = self.io_items()?;
                self.expect_eos()?;
                return Ok(StmtKind::Write { items });
            }
        }
        // Assignment: lvalue = expr.
        let lhs = self.primary()?;
        if !matches!(lhs, Expr::Name(_) | Expr::Sub { .. }) {
            return Err(self.err("left-hand side must be a variable or array element"));
        }
        self.expect(&Tok::Assign)?;
        let rhs = self.expr()?;
        self.expect_eos()?;
        Ok(StmtKind::Assign { lhs, rhs })
    }

    fn goto_label(&mut self) -> Result<u32, ParseError> {
        match self.bump() {
            Tok::Int(v) => u32::try_from(v).map_err(|_| self.err("bad label")),
            Tok::Label(l) => Ok(l),
            other => Err(self.err(format!("expected label, found {}", other))),
        }
    }

    fn skip_balanced_parens(&mut self) -> Result<(), ParseError> {
        self.expect(&Tok::LParen)?;
        let mut depth = 1usize;
        loop {
            match self.bump() {
                Tok::LParen => depth += 1,
                Tok::RParen => {
                    depth -= 1;
                    if depth == 0 {
                        return Ok(());
                    }
                }
                Tok::Eof | Tok::Eos => return Err(self.err("unbalanced I/O control list")),
                _ => {}
            }
        }
    }

    fn io_items(&mut self) -> Result<Vec<Expr>, ParseError> {
        let mut items = Vec::new();
        if matches!(self.peek(), Tok::Eos | Tok::Eof) {
            return Ok(items);
        }
        loop {
            items.push(self.expr()?);
            if !self.eat(&Tok::Comma) {
                break;
            }
        }
        Ok(items)
    }

    fn do_stmt(&mut self) -> Result<StmtKind, ParseError> {
        self.expect_kw("DO")?;
        // DO WHILE (cond)
        if self.peek().is_kw("WHILE") && matches!(self.peek_at(1), Tok::LParen) {
            self.bump();
            self.expect(&Tok::LParen)?;
            let cond = self.expr()?;
            self.expect(&Tok::RParen)?;
            self.expect_eos()?;
            let body = self.block(&mut |p: &mut Parser| p.peek().is_kw("ENDDO"))?;
            self.expect_kw("ENDDO")?;
            self.expect_eos()?;
            return Ok(StmtKind::DoWhile { cond, body });
        }
        // Old-style `DO 100 I = ...` terminator label.
        let end_label = if let Tok::Int(l) = self.peek() {
            let l = *l;
            self.bump();
            Some(u32::try_from(l).map_err(|_| self.err("bad DO label"))?)
        } else {
            None
        };
        let var = self.expect_ident()?;
        self.expect(&Tok::Assign)?;
        let lo = self.expr()?;
        self.expect(&Tok::Comma)?;
        let hi = self.expr()?;
        let step = if self.eat(&Tok::Comma) {
            Some(self.expr()?)
        } else {
            None
        };
        self.expect_eos()?;
        let omp = self.pending_omp.take();
        let auto_par = self.pending_auto.take();
        let target = self.pending_target.take();
        let body = match end_label {
            None => {
                let b = self.block(&mut |p: &mut Parser| p.peek().is_kw("ENDDO"))?;
                self.expect_kw("ENDDO")?;
                self.expect_eos()?;
                b
            }
            Some(term) => {
                // Body runs until (and includes) the statement labeled
                // `term`. Nested old-style DOs must use distinct labels.
                let mut b = self
                    .block(&mut |p: &mut Parser| matches!(p.peek(), Tok::Label(l) if *l == term))?;
                let terminator = self.statement()?;
                if !matches!(terminator.kind, StmtKind::Continue) {
                    b.stmts.push(terminator);
                } else {
                    b.stmts.push(terminator); // keep label for GOTOs
                }
                b
            }
        };
        Ok(StmtKind::Do {
            var,
            lo,
            hi,
            step,
            body,
            omp,
            auto_par,
            target,
        })
    }

    fn if_stmt(&mut self) -> Result<StmtKind, ParseError> {
        self.expect_kw("IF")?;
        self.expect(&Tok::LParen)?;
        let cond = self.expr()?;
        self.expect(&Tok::RParen)?;
        if !self.peek().is_kw("THEN") {
            // Logical IF: a single statement as the THEN body.
            let inner_id = self.fresh_id();
            let line = self.line();
            let kind = self.stmt_kind()?;
            let body = Block {
                stmts: vec![Stmt {
                    id: inner_id,
                    line,
                    label: None,
                    kind,
                }],
            };
            return Ok(StmtKind::If {
                arms: vec![(cond, body)],
                else_blk: None,
            });
        }
        self.expect_kw("THEN")?;
        self.expect_eos()?;
        let mut arms = Vec::new();
        let mut else_blk = None;
        let mut current_cond = cond;
        loop {
            let body = self.block(&mut |p: &mut Parser| {
                p.peek().is_kw("ELSE") || p.peek().is_kw("ELSEIF") || p.peek().is_kw("ENDIF")
            })?;
            arms.push((current_cond.clone(), body));
            if self.eat_kw("ELSEIF") || (self.peek().is_kw("ELSE") && self.peek_at(1).is_kw("IF")) {
                if self.peek().is_kw("ELSE") {
                    self.bump();
                    self.bump();
                }
                self.expect(&Tok::LParen)?;
                current_cond = self.expr()?;
                self.expect(&Tok::RParen)?;
                self.expect_kw("THEN")?;
                self.expect_eos()?;
                continue;
            }
            if self.eat_kw("ELSE") {
                self.expect_eos()?;
                let b = self.block(&mut |p: &mut Parser| p.peek().is_kw("ENDIF"))?;
                else_blk = Some(b);
            }
            self.expect_kw("ENDIF")?;
            self.expect_eos()?;
            break;
        }
        Ok(StmtKind::If { arms, else_blk })
    }

    // ------------------------------------------------------------------
    // Expressions
    // ------------------------------------------------------------------

    fn expr(&mut self) -> Result<Expr, ParseError> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr, ParseError> {
        let mut e = self.and_expr()?;
        while self.eat(&Tok::Or) {
            let r = self.and_expr()?;
            e = Expr::Bin(BinOp::Or, Box::new(e), Box::new(r));
        }
        Ok(e)
    }

    fn and_expr(&mut self) -> Result<Expr, ParseError> {
        let mut e = self.not_expr()?;
        while self.eat(&Tok::And) {
            let r = self.not_expr()?;
            e = Expr::Bin(BinOp::And, Box::new(e), Box::new(r));
        }
        Ok(e)
    }

    fn not_expr(&mut self) -> Result<Expr, ParseError> {
        if self.eat(&Tok::Not) {
            let e = self.not_expr()?;
            return Ok(Expr::Un(UnOp::Not, Box::new(e)));
        }
        self.rel_expr()
    }

    fn rel_expr(&mut self) -> Result<Expr, ParseError> {
        let e = self.add_expr()?;
        let op = match self.peek() {
            Tok::Eq => BinOp::Eq,
            Tok::Ne => BinOp::Ne,
            Tok::Lt => BinOp::Lt,
            Tok::Le => BinOp::Le,
            Tok::Gt => BinOp::Gt,
            Tok::Ge => BinOp::Ge,
            _ => return Ok(e),
        };
        self.bump();
        let r = self.add_expr()?;
        Ok(Expr::Bin(op, Box::new(e), Box::new(r)))
    }

    fn add_expr(&mut self) -> Result<Expr, ParseError> {
        let mut e = if self.eat(&Tok::Minus) {
            let t = self.mul_expr()?;
            Expr::Un(UnOp::Neg, Box::new(t))
        } else {
            let _ = self.eat(&Tok::Plus);
            self.mul_expr()?
        };
        loop {
            let op = match self.peek() {
                Tok::Plus => BinOp::Add,
                Tok::Minus => BinOp::Sub,
                _ => break,
            };
            self.bump();
            let r = self.mul_expr()?;
            e = Expr::Bin(op, Box::new(e), Box::new(r));
        }
        Ok(e)
    }

    fn mul_expr(&mut self) -> Result<Expr, ParseError> {
        let mut e = self.pow_expr()?;
        loop {
            let op = match self.peek() {
                Tok::Star => BinOp::Mul,
                Tok::Slash => BinOp::Div,
                _ => break,
            };
            self.bump();
            let r = self.pow_expr()?;
            e = Expr::Bin(op, Box::new(e), Box::new(r));
        }
        Ok(e)
    }

    fn pow_expr(&mut self) -> Result<Expr, ParseError> {
        let base = self.unary_expr()?;
        if self.eat(&Tok::Pow) {
            // Right-associative.
            let exp = self.pow_expr()?;
            return Ok(Expr::Bin(BinOp::Pow, Box::new(base), Box::new(exp)));
        }
        Ok(base)
    }

    fn unary_expr(&mut self) -> Result<Expr, ParseError> {
        if self.eat(&Tok::Minus) {
            let e = self.unary_expr()?;
            return Ok(Expr::Un(UnOp::Neg, Box::new(e)));
        }
        if self.eat(&Tok::Plus) {
            return self.unary_expr();
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<Expr, ParseError> {
        match self.bump() {
            Tok::Int(v) => Ok(Expr::Int(v)),
            Tok::Real(v) => Ok(Expr::Real(v)),
            Tok::Str(s) => Ok(Expr::Str(s)),
            Tok::Logical(b) => Ok(Expr::Logical(b)),
            Tok::LParen => {
                let e = self.expr()?;
                self.expect(&Tok::RParen)?;
                Ok(e)
            }
            Tok::Ident(name) => {
                if self.eat(&Tok::LParen) {
                    let mut args = Vec::new();
                    if !self.eat(&Tok::RParen) {
                        loop {
                            args.push(self.expr()?);
                            if !self.eat(&Tok::Comma) {
                                break;
                            }
                        }
                        self.expect(&Tok::RParen)?;
                    }
                    Ok(Expr::Sub { name, args })
                } else {
                    Ok(Expr::Name(name))
                }
            }
            other => Err(self.err(format!("unexpected token {} in expression", other))),
        }
    }
}

/// Splits a comma-separated name list.
fn name_list(inside: &str) -> Vec<String> {
    inside
        .split(',')
        .map(str::trim)
        .filter(|v| !v.is_empty())
        .map(str::to_string)
        .collect()
}

/// Parses `op:var, var` from inside a REDUCTION clause.
fn reduction_items(inside: &str) -> Result<Vec<(RedOp, String)>, String> {
    let (op_s, vars) = inside
        .split_once(':')
        .ok_or_else(|| format!("bad REDUCTION clause '{}'", inside))?;
    let op = match op_s.trim() {
        "+" => RedOp::Add,
        "*" => RedOp::Mul,
        "MIN" => RedOp::Min,
        "MAX" => RedOp::Max,
        other => return Err(format!("unknown reduction op '{}'", other)),
    };
    Ok(name_list(vars).into_iter().map(|v| (op, v)).collect())
}

/// Parses the clause list of `!$OMP PARALLEL DO ...` (manual
/// directives: PRIVATE and REDUCTION only).
fn parse_omp_clauses(s: &str) -> Result<LoopDirective, String> {
    let mut d = LoopDirective::default();
    let mut rest = s.trim();
    while !rest.is_empty() {
        if let Some(r) = rest.strip_prefix("PRIVATE") {
            let (inside, tail) = take_parens(r)?;
            d.private.extend(name_list(inside));
            rest = tail.trim_start();
        } else if let Some(r) = rest.strip_prefix("REDUCTION") {
            let (inside, tail) = take_parens(r)?;
            d.reductions.extend(reduction_items(inside)?);
            rest = tail.trim_start();
        } else {
            return Err(format!("unknown OMP clause at '{}'", rest));
        }
    }
    Ok(d)
}

/// Parses the clause list of a compiler-emitted `!$PAR DO ...`, which
/// carries the full clause set: SCHEDULE, COLLAPSE, PRIVATE,
/// REDUCTION, SPECULATIVE, and WRITES.
fn parse_par_clauses(s: &str) -> Result<LoopDirective, String> {
    let mut d = LoopDirective::default();
    let mut rest = s.trim();
    while !rest.is_empty() {
        if let Some(r) = rest.strip_prefix("SCHEDULE") {
            let (inside, tail) = take_parens(r)?;
            d.schedule = match inside.trim() {
                "STATIC" => Schedule::Static,
                "CYCLIC" => Schedule::Cyclic,
                other => return Err(format!("unknown schedule '{}'", other)),
            };
            rest = tail.trim_start();
        } else if let Some(r) = rest.strip_prefix("COLLAPSE") {
            let (inside, tail) = take_parens(r)?;
            d.collapse = inside
                .trim()
                .parse::<u8>()
                .map_err(|_| format!("bad COLLAPSE count '{}'", inside.trim()))?;
            if d.collapse == 0 {
                return Err("COLLAPSE count must be at least 1".to_string());
            }
            rest = tail.trim_start();
        } else if let Some(r) = rest.strip_prefix("PRIVATE") {
            let (inside, tail) = take_parens(r)?;
            d.private.extend(name_list(inside));
            rest = tail.trim_start();
        } else if let Some(r) = rest.strip_prefix("REDUCTION") {
            let (inside, tail) = take_parens(r)?;
            d.reductions.extend(reduction_items(inside)?);
            rest = tail.trim_start();
        } else if let Some(r) = rest.strip_prefix("SPECULATIVE") {
            d.speculative = true;
            rest = r.trim_start();
        } else if let Some(r) = rest.strip_prefix("WRITES") {
            let (inside, tail) = take_parens(r)?;
            d.writes = Some(name_list(inside));
            rest = tail.trim_start();
        } else {
            return Err(format!("unknown PAR clause at '{}'", rest));
        }
    }
    Ok(d)
}

fn take_parens(s: &str) -> Result<(&str, &str), String> {
    let s = s.trim_start();
    let inner = s
        .strip_prefix('(')
        .ok_or_else(|| format!("expected '(' at '{}'", s))?;
    let close = inner
        .find(')')
        .ok_or_else(|| format!("missing ')' in '{}'", s))?;
    Ok((&inner[..close], &inner[close + 1..]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> Program {
        parse_program(src).unwrap_or_else(|e| panic!("parse failed: {}", e))
    }

    #[test]
    fn minimal_program() {
        let p = parse("PROGRAM MAIN\nX = 1\nEND\n");
        assert_eq!(p.units.len(), 1);
        assert_eq!(p.units[0].name, "MAIN");
        assert_eq!(p.units[0].kind, UnitKind::Main);
        assert_eq!(p.units[0].body.stmts.len(), 1);
    }

    #[test]
    fn subroutine_with_formals_and_decls() {
        let p = parse(
            "SUBROUTINE FOO(A, N)\nINTEGER N\nREAL A(N)\nDO I = 1, N\nA(I) = 0.0\nENDDO\nRETURN\nEND\n",
        );
        let u = &p.units[0];
        assert_eq!(u.formals, vec!["A", "N"]);
        assert_eq!(u.decls.len(), 2);
        assert_eq!(u.body.stmts.len(), 2);
        match &u.body.stmts[0].kind {
            StmtKind::Do { var, body, .. } => {
                assert_eq!(var, "I");
                assert_eq!(body.stmts.len(), 1);
            }
            other => panic!("expected DO, got {:?}", other),
        }
    }

    #[test]
    fn old_style_do_with_label() {
        let p = parse("PROGRAM P\nDO 100 I = 1, 10\nS = S + 1.0\n100 CONTINUE\nEND\n");
        match &p.units[0].body.stmts[0].kind {
            StmtKind::Do { body, .. } => {
                assert_eq!(body.stmts.len(), 2);
                assert_eq!(body.stmts[1].label, Some(100));
                assert!(matches!(body.stmts[1].kind, StmtKind::Continue));
            }
            other => panic!("expected DO, got {:?}", other),
        }
    }

    #[test]
    fn block_if_elseif_else() {
        let p = parse(
            "PROGRAM P\nIF (N .GT. 0) THEN\nX = 1\nELSE IF (N .LT. 0) THEN\nX = 2\nELSE\nX = 3\nENDIF\nEND\n",
        );
        match &p.units[0].body.stmts[0].kind {
            StmtKind::If { arms, else_blk } => {
                assert_eq!(arms.len(), 2);
                assert!(else_blk.is_some());
            }
            other => panic!("expected IF, got {:?}", other),
        }
    }

    #[test]
    fn logical_if() {
        let p = parse("PROGRAM P\nIF (X .GT. 0.0) Y = 1.0\nEND\n");
        match &p.units[0].body.stmts[0].kind {
            StmtKind::If { arms, else_blk } => {
                assert_eq!(arms.len(), 1);
                assert_eq!(arms[0].1.stmts.len(), 1);
                assert!(else_blk.is_none());
            }
            other => panic!("expected IF, got {:?}", other),
        }
    }

    #[test]
    fn directives_attach_to_next_do() {
        let p = parse(
            "PROGRAM P\n!$TARGET STAK_1\n!$OMP PARALLEL DO PRIVATE(T) REDUCTION(+:S)\nDO I = 1, N\nS = S + T\nENDDO\nEND\n",
        );
        match &p.units[0].body.stmts[0].kind {
            StmtKind::Do { omp, target, .. } => {
                assert_eq!(target.as_deref(), Some("STAK_1"));
                let d = omp.as_ref().expect("omp directive");
                assert_eq!(d.private, vec!["T"]);
                assert_eq!(d.reductions, vec![(RedOp::Add, "S".to_string())]);
            }
            other => panic!("expected DO, got {:?}", other),
        }
    }

    #[test]
    fn par_directive_attaches_to_auto_slot() {
        let p = parse(
            "PROGRAM P\n!$PAR DO SCHEDULE(CYCLIC) COLLAPSE(2) PRIVATE(T) REDUCTION(MAX:S) SPECULATIVE WRITES(A, S)\nDO I = 1, N\nS = S + T\nENDDO\nEND\n",
        );
        match &p.units[0].body.stmts[0].kind {
            StmtKind::Do { omp, auto_par, .. } => {
                assert!(omp.is_none());
                let d = auto_par.as_ref().expect("auto_par directive");
                assert_eq!(d.schedule, Schedule::Cyclic);
                assert_eq!(d.collapse, 2);
                assert_eq!(d.private, vec!["T"]);
                assert_eq!(d.reductions, vec![(RedOp::Max, "S".to_string())]);
                assert!(d.speculative);
                assert_eq!(d.writes, Some(vec!["A".to_string(), "S".to_string()]));
            }
            other => panic!("expected DO, got {:?}", other),
        }
    }

    #[test]
    fn par_do_defaults_and_empty_writes() {
        let p = parse("PROGRAM P\n!$PAR DO WRITES()\nDO I = 1, N\nA(I) = 0.0\nENDDO\nEND\n");
        match &p.units[0].body.stmts[0].kind {
            StmtKind::Do { auto_par, .. } => {
                let d = auto_par.as_ref().expect("auto_par directive");
                assert_eq!(d.schedule, Schedule::Static);
                assert_eq!(d.collapse, 1);
                assert_eq!(d.writes, Some(vec![]));
            }
            other => panic!("expected DO, got {:?}", other),
        }
    }

    #[test]
    fn par_serial_comment_is_ignored() {
        let p = parse("PROGRAM P\n!$PAR SERIAL real dependence\nDO I = 1, N\nS = S + 1.0\nENDDO\nEND\n");
        match &p.units[0].body.stmts[0].kind {
            StmtKind::Do { omp, auto_par, .. } => {
                assert!(omp.is_none());
                assert!(auto_par.is_none());
            }
            other => panic!("expected DO, got {:?}", other),
        }
    }

    #[test]
    fn lang_directive_marks_unit() {
        let p = parse("!LANG C\nSUBROUTINE CPROC(A)\nEND\nSUBROUTINE F()\nEND\n");
        assert_eq!(p.units[0].lang, Lang::C);
        assert_eq!(p.units[1].lang, Lang::Fortran);
    }

    #[test]
    fn common_equivalence_parameter_data() {
        let p = parse(
            "PROGRAM P\nPARAMETER (N = 10, M = N*2)\nREAL A(N), B(M)\nCOMMON /BLK/ A, Q\nEQUIVALENCE (A(1), B(1))\nDATA Q /1.5/, A /10*0.0/\nEND\n",
        );
        assert_eq!(p.units[0].decls.len(), 5);
    }

    #[test]
    fn expression_precedence() {
        let p = parse("PROGRAM P\nX = A + B * C ** 2 ** K\nEND\n");
        // A + (B * (C ** (2 ** K)))
        match &p.units[0].body.stmts[0].kind {
            StmtKind::Assign { rhs, .. } => match rhs {
                Expr::Bin(BinOp::Add, _, r) => match r.as_ref() {
                    Expr::Bin(BinOp::Mul, _, rr) => {
                        assert!(matches!(rr.as_ref(), Expr::Bin(BinOp::Pow, _, _)));
                    }
                    other => panic!("expected MUL, got {:?}", other),
                },
                other => panic!("expected ADD, got {:?}", other),
            },
            other => panic!("expected assign, got {:?}", other),
        }
    }

    #[test]
    fn ambiguous_subscript_or_call() {
        let p = parse("PROGRAM P\nX = F(I) + A(I, J)\nCALL FOO(A, N)\nEND\n");
        match &p.units[0].body.stmts[0].kind {
            StmtKind::Assign { rhs, .. } => {
                let mut subs = 0;
                rhs.walk(&mut |e| {
                    if matches!(e, Expr::Sub { .. }) {
                        subs += 1;
                    }
                });
                assert_eq!(subs, 2);
            }
            other => panic!("expected assign, got {:?}", other),
        }
    }

    #[test]
    fn io_statements() {
        let p = parse("PROGRAM P\nREAD(5, *) N, A(1)\nWRITE(*, '(A)') 'HI', X\nEND\n");
        assert!(matches!(
            &p.units[0].body.stmts[0].kind,
            StmtKind::Read { items } if items.len() == 2
        ));
        assert!(matches!(
            &p.units[0].body.stmts[1].kind,
            StmtKind::Write { items } if items.len() == 2
        ));
    }

    #[test]
    fn do_while_and_goto() {
        let p = parse(
            "PROGRAM P\nDO WHILE (X .LT. 10.0)\nX = X + 1.0\nENDDO\n10 CONTINUE\nGOTO 10\nEND\n",
        );
        assert!(matches!(
            &p.units[0].body.stmts[0].kind,
            StmtKind::DoWhile { .. }
        ));
        assert!(matches!(&p.units[0].body.stmts[2].kind, StmtKind::Goto(10)));
    }

    #[test]
    fn function_with_type_prefix() {
        let p = parse("REAL FUNCTION NORM(X, N)\nNORM = 0.0\nEND\n");
        assert_eq!(p.units[0].kind, UnitKind::Function);
        assert_eq!(p.units[0].decls.len(), 1);
    }

    #[test]
    fn stmt_ids_are_unique_and_dense() {
        let p = parse("PROGRAM P\nX = 1\nY = 2\nDO I = 1, 3\nZ = 3\nENDDO\nEND\n");
        let mut ids = Vec::new();
        p.units[0].body.walk_stmts(&mut |s| ids.push(s.id.0));
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 2, 3]);
        assert_eq!(p.stmt_count, 4);
    }

    #[test]
    fn nested_loop_structure() {
        let p = parse("PROGRAM P\nDO I = 1, N\nDO J = 1, M\nA(I, J) = 0.0\nENDDO\nENDDO\nEND\n");
        match &p.units[0].body.stmts[0].kind {
            StmtKind::Do { body, .. } => match &body.stmts[0].kind {
                StmtKind::Do { body: inner, .. } => {
                    assert_eq!(inner.stmts.len(), 1);
                }
                other => panic!("expected inner DO, got {:?}", other),
            },
            other => panic!("expected DO, got {:?}", other),
        }
    }

    #[test]
    fn parse_errors_have_lines() {
        let e = parse_program("PROGRAM P\nX = \nEND\n").unwrap_err();
        assert!(e.line == 2 || e.line == 3, "line {}", e.line);
    }

    #[test]
    fn recovering_parser_matches_strict_on_clean_input() {
        let src = "PROGRAM P\nREAL A(10)\nDO I = 1, 10\nA(I) = 1.0\nENDDO\nCALL S(A)\nEND\nSUBROUTINE S(X)\nREAL X(*)\nX(1) = 0.0\nEND\n";
        let strict = parse_program(src).unwrap();
        let (rec, diags) = parse_program_recovering(src);
        assert!(diags.is_empty(), "{:?}", diags);
        assert_eq!(strict.units.len(), rec.units.len());
        assert_eq!(strict.stmt_count, rec.stmt_count);
        for (a, b) in strict.units.iter().zip(&rec.units) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.body.stmts.len(), b.body.stmts.len());
        }
    }

    #[test]
    fn recovering_parser_drops_bad_statement_only() {
        let (p, diags) = parse_program_recovering("PROGRAM P\nX = 1\nY = = 2\nZ = 3\nEND\n");
        assert_eq!(diags.len(), 1);
        assert_eq!(p.units.len(), 1);
        // X = 1 and Z = 3 survive; the garbled middle statement is gone.
        assert_eq!(p.units[0].body.stmts.len(), 2);
    }

    #[test]
    fn recovering_parser_drops_bad_unit_only() {
        let (p, diags) = parse_program_recovering(
            "PROGRAM P\nX = 1\nEND\nJUNK JUNK JUNK\nMORE NOISE\nSUBROUTINE OK(A)\nREAL A(*)\nA(1) = 1.0\nEND\n",
        );
        assert!(!diags.is_empty());
        let names: Vec<&str> = p.units.iter().map(|u| u.name.as_str()).collect();
        assert_eq!(names, vec!["P", "OK"]);
    }

    #[test]
    fn recovering_parser_keeps_truncated_unit_prefix() {
        let (p, diags) = parse_program_recovering("PROGRAM P\nX = 1\nDO I = 1, 10\nA(I) = ");
        assert!(!diags.is_empty());
        assert_eq!(p.units.len(), 1);
        // The incomplete DO is dropped; the leading assignment survives.
        assert!(p.units[0]
            .body
            .stmts
            .iter()
            .any(|s| matches!(s.kind, StmtKind::Assign { .. })));
    }

    #[test]
    fn recovering_parser_is_total_on_noise() {
        let (p, _diags) = parse_program_recovering("((((\n????\nENDDO ENDDO\n= = =\n");
        assert!(p.units.is_empty());
    }
}
