//! The MiniFort abstract syntax tree.
//!
//! The AST stays close to the source: declarations are kept as statements
//! (consumed by [`crate::resolve`]), `NAME(args)` parses as an ambiguous
//! [`Expr::Sub`] that resolution rewrites into [`Expr::Index`] (array
//! element) or [`Expr::CallF`] (function/intrinsic call) — the same
//! ambiguity a real Fortran front end faces.
//!
//! Every statement carries a program-unique [`StmtId`]; analyses key
//! their facts off these ids rather than pointers.

use crate::types::{Lang, Ty};
use std::fmt;
use std::sync::Arc;

/// Program-unique statement identifier, assigned in parse order.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StmtId(pub u32);

impl fmt::Debug for StmtId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// A whole multi-unit program (one "application suite").
///
/// Units are reference-counted, so cloning a program copies no unit:
/// the clone shares every unit until one is mutated through
/// [`Program::unit_mut`] / [`Program::units_mut`], which copy just that
/// unit first. A transform that edits one unit of a cloned program
/// leaves the rest pointer-identical to the original's — which is how
/// the re-resolver and the analysis cache recognize what it did not
/// touch.
#[derive(Clone, Debug, Default)]
pub struct Program {
    pub units: Vec<Arc<Unit>>,
    /// Total number of statement ids handed out (ids are `0..stmt_count`).
    pub stmt_count: u32,
}

impl Program {
    /// Finds a unit by (uppercase) name.
    pub fn unit(&self, name: &str) -> Option<&Unit> {
        self.units.iter().find(|u| u.name == name).map(|u| &**u)
    }

    /// Mutable unit lookup. A unit shared with another program is
    /// copied first; the other program keeps the original.
    pub fn unit_mut(&mut self, name: &str) -> Option<&mut Unit> {
        self.units
            .iter_mut()
            .find(|u| u.name == name)
            .map(Arc::make_mut)
    }

    /// Every unit, mutably, in program order — each one copied first if
    /// another program shares it.
    pub fn units_mut(&mut self) -> impl Iterator<Item = &mut Unit> {
        self.units.iter_mut().map(Arc::make_mut)
    }

    /// Number of executable statements (declarations excluded), the
    /// denominator of the paper's Figure 2 "time per statement".
    pub fn executable_statements(&self) -> usize {
        fn count(b: &Block) -> usize {
            b.stmts
                .iter()
                .map(|s| {
                    1 + match &s.kind {
                        StmtKind::If { arms, else_blk } => {
                            arms.iter().map(|(_, b)| count(b)).sum::<usize>()
                                + else_blk.as_ref().map_or(0, count)
                        }
                        StmtKind::Do { body, .. } | StmtKind::DoWhile { body, .. } => count(body),
                        _ => 0,
                    }
                })
                .sum()
        }
        self.units.iter().map(|u| count(&u.body)).sum()
    }
}

/// Kinds of program units.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum UnitKind {
    Main,
    Subroutine,
    Function,
}

/// One program unit: main program, subroutine, or function.
#[derive(Clone, Debug)]
pub struct Unit {
    pub name: String,
    pub kind: UnitKind,
    pub lang: Lang,
    pub formals: Vec<String>,
    pub decls: Vec<Decl>,
    pub body: Block,
    pub line: u32,
}

/// A declaration statement (kept raw until resolution).
#[derive(Clone, Debug)]
pub enum Decl {
    /// `INTEGER A, B(10)` — a type declaration, possibly with dimensions.
    Type { ty: Ty, names: Vec<DeclName> },
    /// `DIMENSION A(10, N)`.
    Dimension { names: Vec<DeclName> },
    /// `COMMON /BLK/ A, B(100)` (blank common uses block name `""`).
    Common { block: String, names: Vec<DeclName> },
    /// `EQUIVALENCE (A(1), B(5)), (X, Y)`.
    Equivalence { groups: Vec<Vec<EquivRef>> },
    /// `PARAMETER (N = 100, M = N*2)`.
    Parameter { defs: Vec<(String, Expr)> },
    /// `EXTERNAL FOO, BAR`.
    External { names: Vec<String> },
    /// `DATA X /1.0/, A /100*0.0/` — simple (non-implied-do) items.
    Data { items: Vec<DataItem> },
}

/// A declared name with optional dimension declarators.
#[derive(Clone, Debug)]
pub struct DeclName {
    pub name: String,
    pub dims: Vec<DimSpec>,
}

/// One dimension declarator: `hi`, `lo:hi`, or `*` (assumed size).
#[derive(Clone, Debug)]
pub struct DimSpec {
    /// Lower bound; defaults to 1 when absent in source.
    pub lo: Option<Expr>,
    /// Upper bound; `None` encodes `*`.
    pub hi: Option<Expr>,
}

/// A storage reference inside an EQUIVALENCE group.
#[derive(Clone, Debug)]
pub struct EquivRef {
    pub name: String,
    pub subs: Vec<Expr>,
}

/// One DATA item: a variable (optionally one constant subscript) and its
/// repeat-expanded initializers.
#[derive(Clone, Debug)]
pub struct DataItem {
    pub name: String,
    pub subs: Vec<Expr>,
    /// `(repeat, literal)` pairs.
    pub values: Vec<(u32, Literal)>,
}

/// Literal constants appearing in DATA.
#[derive(Clone, Debug, PartialEq)]
pub enum Literal {
    Int(i64),
    Real(f64),
    Logical(bool),
}

/// A statement sequence.
#[derive(Clone, Debug, Default)]
pub struct Block {
    pub stmts: Vec<Stmt>,
}

/// A statement with identity, source line, and optional numeric label.
#[derive(Clone, Debug)]
pub struct Stmt {
    pub id: StmtId,
    pub line: u32,
    pub label: Option<u32>,
    pub kind: StmtKind,
}

/// Reduction operators recognized in `REDUCTION` clauses and by the
/// compiler's reduction recognition pass.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RedOp {
    Add,
    Mul,
    Min,
    Max,
}

impl RedOp {
    /// Every operator.
    pub const ALL: [RedOp; 4] = [RedOp::Add, RedOp::Mul, RedOp::Min, RedOp::Max];
}

impl fmt::Display for RedOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RedOp::Add => "+",
            RedOp::Mul => "*",
            RedOp::Min => "MIN",
            RedOp::Max => "MAX",
        };
        write!(f, "{}", s)
    }
}

/// Iteration-distribution schedule for a parallel loop.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Schedule {
    /// One contiguous chunk of iterations per thread.
    #[default]
    Static,
    /// Round-robin: worker `w` of `n` runs iterations `w, w+n, ...` —
    /// balances loops whose per-iteration cost varies with the index.
    Cyclic,
}

impl Schedule {
    /// Every schedule.
    pub const ALL: [Schedule; 2] = [Schedule::Static, Schedule::Cyclic];
}

impl fmt::Display for Schedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Schedule::Static => write!(f, "STATIC"),
            Schedule::Cyclic => write!(f, "CYCLIC"),
        }
    }
}

/// A `PARALLEL DO` annotation: manual (`!$OMP`) or compiler-produced
/// (`!$PAR DO`).
#[derive(Clone, Debug, PartialEq)]
pub struct LoopDirective {
    /// Variables with a private copy per thread.
    pub private: Vec<String>,
    /// `(op, var)` reduction specifications.
    pub reductions: Vec<(RedOp, String)>,
    /// Iteration-distribution schedule (`SCHEDULE(...)` clause).
    pub schedule: Schedule,
    /// Number of perfectly nested loops proved parallel from this
    /// header inward (`COLLAPSE(n)` clause); 1 means just this loop.
    /// Advisory for the interpreter, which forks the outermost level.
    pub collapse: u8,
    /// Compiler-produced speculative directive: static analysis could
    /// not prove independence, so the runtime must validate the
    /// parallel execution (LRPD-style test) and roll back to serial on
    /// a detected conflict. Never set on manual `!$OMP` directives.
    pub speculative: bool,
    /// Compiler-produced write summary for speculative regions: names
    /// of the arrays and scalars the loop body may write. `Some` means
    /// the summary is exact, letting the runtime checkpoint only those
    /// cells for rollback; `None` (always the case for manual
    /// directives) forces a full checkpoint.
    pub writes: Option<Vec<String>>,
}

impl Default for LoopDirective {
    fn default() -> Self {
        LoopDirective {
            private: Vec::new(),
            reductions: Vec::new(),
            schedule: Schedule::Static,
            collapse: 1,
            speculative: false,
            writes: None,
        }
    }
}

/// Statement kinds.
#[derive(Clone, Debug)]
#[allow(clippy::large_enum_variant)]
pub enum StmtKind {
    /// `lhs = rhs`; after resolution `lhs` is `Name` or `Index`.
    Assign { lhs: Expr, rhs: Expr },
    /// Block IF with `ELSE IF` arms and optional ELSE.
    If {
        arms: Vec<(Expr, Block)>,
        else_blk: Option<Block>,
    },
    /// Counted DO loop.
    Do {
        var: String,
        lo: Expr,
        hi: Expr,
        step: Option<Expr>,
        body: Block,
        /// Manual `!$OMP PARALLEL DO` annotation, if any.
        omp: Option<LoopDirective>,
        /// Compiler-produced parallel annotation (filled by apar-core).
        auto_par: Option<LoopDirective>,
        /// `!$TARGET name` marker: a hand-identified target loop.
        target: Option<String>,
    },
    /// `DO WHILE (cond)`.
    DoWhile { cond: Expr, body: Block },
    /// `CALL NAME(args)`.
    Call { name: String, args: Vec<Expr> },
    Return,
    Stop,
    /// `CONTINUE` (no-op; labeled CONTINUEs terminate old-style DOs).
    Continue,
    Goto(u32),
    /// `READ(*,*) items` — opaque input; items are lvalues.
    Read { items: Vec<Expr> },
    /// `WRITE(*,*) items` — opaque output.
    Write { items: Vec<Expr> },
}

/// Binary operators.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Pow,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    And,
    Or,
}

impl BinOp {
    /// True for `.EQ.`-family operators (result LOGICAL).
    pub fn is_relational(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
        )
    }
}

/// Unary operators.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum UnOp {
    Neg,
    Not,
}

/// Expressions.
#[derive(Clone, Debug, PartialEq)]
pub enum Expr {
    Int(i64),
    Real(f64),
    Str(String),
    Logical(bool),
    /// A bare name (scalar variable, or whole-array actual argument).
    Name(String),
    /// Unresolved `NAME(args)`: array element or function call.
    Sub { name: String, args: Vec<Expr> },
    /// Resolved array element reference.
    Index { name: String, subs: Vec<Expr> },
    /// Resolved function or intrinsic call.
    CallF { name: String, args: Vec<Expr> },
    Bin(BinOp, Box<Expr>, Box<Expr>),
    Un(UnOp, Box<Expr>),
}

impl Expr {
    /// The base variable name of an lvalue (`Name` or `Index`).
    pub fn lvalue_name(&self) -> Option<&str> {
        match self {
            Expr::Name(n) | Expr::Index { name: n, .. } | Expr::Sub { name: n, .. } => Some(n),
            _ => None,
        }
    }

    /// Walks the expression tree, visiting every node.
    pub fn walk(&self, f: &mut impl FnMut(&Expr)) {
        f(self);
        match self {
            Expr::Sub { args, .. } | Expr::CallF { name: _, args } => {
                for a in args {
                    a.walk(f);
                }
            }
            Expr::Index { subs, .. } => {
                for s in subs {
                    s.walk(f);
                }
            }
            Expr::Bin(_, l, r) => {
                l.walk(f);
                r.walk(f);
            }
            Expr::Un(_, e) => e.walk(f),
            _ => {}
        }
    }

    /// Maps the expression bottom-up.
    pub fn map(&self, f: &mut impl FnMut(Expr) -> Expr) -> Expr {
        let mapped = match self {
            Expr::Sub { name, args } => Expr::Sub {
                name: name.clone(),
                args: args.iter().map(|a| a.map(f)).collect(),
            },
            Expr::CallF { name, args } => Expr::CallF {
                name: name.clone(),
                args: args.iter().map(|a| a.map(f)).collect(),
            },
            Expr::Index { name, subs } => Expr::Index {
                name: name.clone(),
                subs: subs.iter().map(|s| s.map(f)).collect(),
            },
            Expr::Bin(op, l, r) => Expr::Bin(*op, Box::new(l.map(f)), Box::new(r.map(f))),
            Expr::Un(op, e) => Expr::Un(*op, Box::new(e.map(f))),
            other => other.clone(),
        };
        f(mapped)
    }
}

impl Block {
    /// Visits every statement in the block, recursively (pre-order).
    pub fn walk_stmts<'a>(&'a self, f: &mut impl FnMut(&'a Stmt)) {
        for s in &self.stmts {
            f(s);
            match &s.kind {
                StmtKind::If { arms, else_blk } => {
                    for (_, b) in arms {
                        b.walk_stmts(f);
                    }
                    if let Some(b) = else_blk {
                        b.walk_stmts(f);
                    }
                }
                StmtKind::Do { body, .. } | StmtKind::DoWhile { body, .. } => {
                    body.walk_stmts(f);
                }
                _ => {}
            }
        }
    }

    /// Mutable pre-order walk.
    pub fn walk_stmts_mut(&mut self, f: &mut impl FnMut(&mut Stmt)) {
        for s in &mut self.stmts {
            f(s);
            match &mut s.kind {
                StmtKind::If { arms, else_blk } => {
                    for (_, b) in arms {
                        b.walk_stmts_mut(f);
                    }
                    if let Some(b) = else_blk {
                        b.walk_stmts_mut(f);
                    }
                }
                StmtKind::Do { body, .. } | StmtKind::DoWhile { body, .. } => {
                    body.walk_stmts_mut(f);
                }
                _ => {}
            }
        }
    }
}

impl Unit {
    /// All `!$TARGET` names in this unit, in source order.
    pub fn target_loops(&self) -> Vec<(String, StmtId)> {
        let mut out = Vec::new();
        self.body.walk_stmts(&mut |s| {
            if let StmtKind::Do {
                target: Some(t), ..
            } = &s.kind
            {
                out.push((t.clone(), s.id));
            }
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy_stmt(id: u32, kind: StmtKind) -> Stmt {
        Stmt {
            id: StmtId(id),
            line: 1,
            label: None,
            kind,
        }
    }

    #[test]
    fn executable_statement_count_recurses() {
        let inner = Block {
            stmts: vec![dummy_stmt(
                1,
                StmtKind::Assign {
                    lhs: Expr::Name("A".into()),
                    rhs: Expr::Int(1),
                },
            )],
        };
        let du = dummy_stmt(
            0,
            StmtKind::Do {
                var: "I".into(),
                lo: Expr::Int(1),
                hi: Expr::Int(10),
                step: None,
                body: inner,
                omp: None,
                auto_par: None,
                target: None,
            },
        );
        let prog = Program {
            units: vec![Arc::new(Unit {
                name: "MAIN".into(),
                kind: UnitKind::Main,
                lang: Lang::Fortran,
                formals: vec![],
                decls: vec![],
                body: Block { stmts: vec![du] },
                line: 1,
            })],
            stmt_count: 2,
        };
        assert_eq!(prog.executable_statements(), 2);
    }

    #[test]
    fn expr_walk_and_map() {
        let e = Expr::Bin(
            BinOp::Add,
            Box::new(Expr::Name("I".into())),
            Box::new(Expr::Int(1)),
        );
        let mut names = 0;
        e.walk(&mut |x| {
            if matches!(x, Expr::Name(_)) {
                names += 1;
            }
        });
        assert_eq!(names, 1);
        let doubled = e.map(&mut |x| match x {
            Expr::Int(k) => Expr::Int(k * 2),
            other => other,
        });
        assert_eq!(
            doubled,
            Expr::Bin(
                BinOp::Add,
                Box::new(Expr::Name("I".into())),
                Box::new(Expr::Int(2))
            )
        );
    }
}
