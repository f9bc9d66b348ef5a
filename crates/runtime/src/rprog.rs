//! Lowering from the resolved AST to a slot-addressed runtime program.
//!
//! All name lookups happen here, once: scalars become indices into an
//! activation's resolved-address table, array references become
//! descriptor indices, COMMON members get absolute arena addresses.
//! The interpreter's hot path never touches a string. Each expression
//! is compiled here, once, into closures ([`RExpr`]); statements stay a
//! tree the interpreter walks.

use std::collections::HashMap;
use std::fmt;

use apar_minifort::ast::{self, BinOp, Expr as Ast, RedOp, Stmt, StmtKind, UnitKind};
use apar_minifort::resolve::is_intrinsic;
use apar_minifort::symtab::{ConstVal, Storage, SymbolKind};
use apar_minifort::{ResolvedProgram, Ty};

use crate::interp::{compile, Code, RtError};
use crate::intrinsics::Intr;
use crate::memory::Cell;

pub type UnitId = usize;
pub type ScalarId = u16;
pub type ArrId = u16;

/// Where a scalar lives, resolved per activation.
#[derive(Clone, Copy, Debug)]
pub enum SLoc {
    /// Absolute arena address (COMMON member).
    Abs(usize),
    /// Offset within a local area.
    Local { area: u16, offset: u32 },
    /// Bound at call time.
    Formal { pos: u16 },
}

/// Where an array's storage starts.
#[derive(Clone, Copy, Debug)]
pub enum ABase {
    Abs(usize),
    Local { area: u16, offset: u32 },
    Formal { pos: u16 },
}

/// A lowered expression tree: built by lowering and consumed by
/// [`compile`], which turns it into an [`RExpr`]. Nothing keeps it.
pub(crate) enum Node {
    Lit(Cell),
    LoadS(ScalarId),
    LoadA(ArrId, Vec<Node>),
    Bin(BinOp, Box<Node>, Box<Node>),
    Neg(Box<Node>),
    Not(Box<Node>),
    Intr(Intr, Vec<Node>),
    CallF(UnitId, Vec<RActual>),
}

/// A compiled runtime expression.
///
/// Every tree node costs one virtual op, an intrinsic three more. A
/// tree without a FUNCTION call has a static cost, charged as a whole
/// on entry; a tree with one charges node by node, so a call starts at
/// the same clock reading as in a node-at-a-time walk.
#[derive(Clone)]
pub struct RExpr {
    /// Virtual ops charged on entry: the whole tree's when it has no
    /// call, this node's own otherwise.
    pub(crate) cost: u64,
    /// A FUNCTION call is somewhere in the tree.
    pub(crate) has_call: bool,
    pub(crate) code: Code,
}

impl fmt::Debug for RExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RExpr")
            .field("cost", &self.cost)
            .field("has_call", &self.has_call)
            .finish_non_exhaustive()
    }
}

/// Lvalues.
#[derive(Clone, Debug)]
pub enum RLval {
    S(ScalarId),
    A(ArrId, Vec<RExpr>),
}

/// Actual arguments.
#[derive(Clone, Debug)]
pub enum RActual {
    /// By-value expression (copy-in temp).
    Val(RExpr),
    /// Scalar by reference.
    ScalarRef(ScalarId),
    /// Whole array.
    ArrayRef(ArrId),
    /// Array section starting at an element.
    Section(ArrId, Vec<RExpr>),
}

/// Parallel-region directive, slot-resolved.
#[derive(Clone, Debug, Default)]
pub struct RDirective {
    pub private_scalars: Vec<ScalarId>,
    pub private_arrays: Vec<ArrId>,
    pub reductions: Vec<(RedOp, ScalarId)>,
    /// Iteration-to-worker mapping: contiguous chunks (`Static`) or
    /// round-robin (`Cyclic`, for imbalanced bodies).
    pub schedule: ast::Schedule,
    /// Run the region under the speculative runtime dependence test:
    /// checkpoint shared state, execute in parallel with conflict
    /// logging, and re-execute serially on a detected conflict.
    pub speculative: bool,
    /// True when `write_scalars`/`write_arrays` exactly cover the
    /// body's possible shared writes (compiler write summary), letting
    /// the speculative checkpoint save only those cells.
    pub writes_known: bool,
    /// Scalars the body may write (valid when `writes_known`).
    pub write_scalars: Vec<ScalarId>,
    /// Arrays the body may write (valid when `writes_known`).
    pub write_arrays: Vec<ArrId>,
}

/// Output list items.
#[derive(Clone, Debug)]
pub enum WItem {
    Str(String),
    E(RExpr),
}

/// External targets a CALL may hit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MpOp {
    MyId,
    NProc,
    Send,
    Recv,
    RedSum,
    AllGather,
    Barrier,
}

#[derive(Clone, Debug)]
pub enum CallTarget {
    Unit(UnitId),
    Mpi(MpOp),
}

/// Runtime statements.
#[derive(Clone, Debug)]
#[allow(clippy::large_enum_variant)]
pub enum RStmt {
    Assign(RLval, RExpr),
    If(Vec<(RExpr, Vec<RStmt>)>, Option<Vec<RStmt>>),
    Do {
        var: ScalarId,
        lo: RExpr,
        hi: RExpr,
        step: Option<RExpr>,
        body: Vec<RStmt>,
        /// Manual (`!$OMP`) directive, if any.
        manual: Option<RDirective>,
        /// Compiler (`auto_par`) directive, if any.
        auto: Option<RDirective>,
        /// DO variables of nested loops (auto-privatized in parallel runs).
        inner_vars: Vec<ScalarId>,
    },
    DoWhile {
        cond: RExpr,
        body: Vec<RStmt>,
    },
    Call(CallTarget, Vec<RActual>),
    Read(Vec<RLval>),
    Write(Vec<WItem>),
    Return,
    Stop,
}

/// One scalar of a unit.
#[derive(Clone, Copy, Debug)]
pub struct ScalarInfo {
    pub loc: SLoc,
    pub ty: Ty,
}

/// One array of a unit.
#[derive(Clone, Debug)]
pub struct ArrInfo {
    pub base: ABase,
    /// `(lo, extent)` per dimension; extent `None` = assumed size.
    pub dims: Vec<(RExpr, Option<RExpr>)>,
    pub ty: Ty,
}

/// Static initialization (DATA): linear element fills.
#[derive(Clone, Debug)]
pub struct RDataInit {
    pub array: Option<ArrId>,
    pub scalar: Option<ScalarId>,
    pub start_elem: i64,
    pub values: Vec<Cell>,
}

/// A lowered unit.
#[derive(Clone, Debug)]
pub struct RUnit {
    pub name: String,
    pub is_function: bool,
    /// Scalar slot holding a function's return value.
    pub fn_slot: Option<ScalarId>,
    pub nformals: usize,
    pub scalars: Vec<ScalarInfo>,
    pub arrays: Vec<ArrInfo>,
    /// Size of each local area in words.
    pub area_sizes: Vec<usize>,
    pub frame_words: usize,
    pub data: Vec<RDataInit>,
    pub body: Vec<RStmt>,
}

/// The lowered program.
#[derive(Clone, Debug)]
pub struct RProgram {
    pub units: Vec<RUnit>,
    pub main: UnitId,
    pub commons_total: usize,
    /// DATA fills into COMMON storage (absolute addressed), applied once.
    pub common_data: Vec<(usize, Vec<Cell>)>,
}

impl RProgram {
    /// Lowers a resolved program.
    pub fn lower(rp: &ResolvedProgram) -> Result<RProgram, RtError> {
        // Assign COMMON block bases.
        let mut common_bases: HashMap<String, usize> = HashMap::new();
        let mut next = 0usize;
        let mut blocks: Vec<(&String, &i64)> = rp.common_sizes.iter().collect();
        blocks.sort();
        for (name, size) in blocks {
            common_bases.insert(name.clone(), next);
            next += *size as usize;
        }
        let unit_ids: HashMap<&str, UnitId> = rp
            .program
            .units
            .iter()
            .enumerate()
            .map(|(i, u)| (u.name.as_str(), i))
            .collect();
        let mut units = Vec::new();
        let mut main = None;
        let mut common_data = Vec::new();
        for (i, unit) in rp.program.units.iter().enumerate() {
            if unit.kind == UnitKind::Main {
                main = Some(i);
            }
            let lowered = Lowerer::new(rp, unit, &common_bases, &unit_ids)?.run(&mut common_data)?;
            units.push(lowered);
        }
        Ok(RProgram {
            units,
            main: main.ok_or_else(|| RtError::Lower("no main program".into()))?,
            commons_total: next,
            common_data,
        })
    }
}

struct Lowerer<'a> {
    rp: &'a ResolvedProgram,
    unit: &'a ast::Unit,
    common_bases: &'a HashMap<String, usize>,
    unit_ids: &'a HashMap<&'a str, UnitId>,
    scalar_ids: HashMap<String, ScalarId>,
    arr_ids: HashMap<String, ArrId>,
    scalars: Vec<ScalarInfo>,
    arrays: Vec<ArrInfo>,
}

impl<'a> Lowerer<'a> {
    fn new(
        rp: &'a ResolvedProgram,
        unit: &'a ast::Unit,
        common_bases: &'a HashMap<String, usize>,
        unit_ids: &'a HashMap<&'a str, UnitId>,
    ) -> Result<Self, RtError> {
        Ok(Lowerer {
            rp,
            unit,
            common_bases,
            unit_ids,
            scalar_ids: HashMap::new(),
            arr_ids: HashMap::new(),
            scalars: Vec::new(),
            arrays: Vec::new(),
        })
    }

    fn err(&self, msg: impl Into<String>) -> RtError {
        RtError::Lower(format!("{}: {}", self.unit.name, msg.into()))
    }

    fn run(mut self, common_data: &mut Vec<(usize, Vec<Cell>)>) -> Result<RUnit, RtError> {
        let table = self.rp.table(&self.unit.name);
        // Enumerate data symbols deterministically.
        let mut names: Vec<&str> = table.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        for name in names {
            let sym = table
                .get(name)
                .ok_or_else(|| self.err(format!("symbol {} vanished from its table", name)))?;
            let loc = |storage: &Storage| -> Option<SLoc> {
                Some(match storage {
                    Storage::Common { block, offset } => SLoc::Abs(
                        self.common_bases.get(block).copied().unwrap_or(0) + *offset as usize,
                    ),
                    Storage::Local { area, offset } => SLoc::Local {
                        area: *area as u16,
                        offset: *offset as u32,
                    },
                    Storage::Formal { position } => SLoc::Formal {
                        pos: *position as u16,
                    },
                    Storage::None => return None,
                })
            };
            match &sym.kind {
                SymbolKind::Scalar => {
                    if let Some(l) = loc(&sym.storage) {
                        let id = self.scalars.len() as ScalarId;
                        self.scalars.push(ScalarInfo { loc: l, ty: sym.ty });
                        self.scalar_ids.insert(name.to_string(), id);
                    }
                }
                SymbolKind::Array(_) => {
                    if let Some(l) = loc(&sym.storage) {
                        let base = match l {
                            SLoc::Abs(a) => ABase::Abs(a),
                            SLoc::Local { area, offset } => ABase::Local { area, offset },
                            SLoc::Formal { pos } => ABase::Formal { pos },
                        };
                        let id = self.arrays.len() as ArrId;
                        self.arrays.push(ArrInfo {
                            base,
                            dims: Vec::new(), // filled below (needs scalar ids)
                            ty: sym.ty,
                        });
                        self.arr_ids.insert(name.to_string(), id);
                    }
                }
                _ => {}
            }
        }
        // Array dims (may reference scalars).
        let arr_names: Vec<(String, ArrId)> =
            self.arr_ids.iter().map(|(n, i)| (n.clone(), *i)).collect();
        for (name, id) in arr_names {
            let sym = table
                .get(&name)
                .ok_or_else(|| self.err(format!("array {} vanished from its table", name)))?;
            let shape = sym
                .shape()
                .ok_or_else(|| self.err(format!("{} has no array shape", name)))?;
            let mut dims = Vec::new();
            for d in &shape.dims {
                let lo = self.lower_expr(&d.lo)?;
                let hi = match &d.hi {
                    Some(h) => {
                        let hi = self.lower_node(h)?;
                        let lo2 = self.lower_node(&d.lo)?;
                        // extent = hi - lo + 1
                        Some(compile(Node::Bin(
                            BinOp::Add,
                            Box::new(Node::Bin(BinOp::Sub, Box::new(hi), Box::new(lo2))),
                            Box::new(Node::Lit(Cell::Int(1))),
                        )))
                    }
                    None => None,
                };
                dims.push((lo, hi));
            }
            self.arrays[id as usize].dims = dims;
        }

        // DATA initializations.
        let mut data = Vec::new();
        for init in &table.data {
            let mut values = Vec::new();
            for (rep, lit) in &init.values {
                let c = match lit {
                    ast::Literal::Int(v) => Cell::Int(*v),
                    ast::Literal::Real(v) => Cell::Real(*v),
                    ast::Literal::Logical(b) => Cell::Int(*b as i64),
                };
                for _ in 0..*rep {
                    values.push(c);
                }
            }
            let sym = table
                .get(&init.name)
                .ok_or_else(|| self.err(format!("DATA names unknown symbol {}", init.name)))?;
            match (&sym.storage, &sym.kind) {
                (Storage::Common { block, offset }, _) => {
                    let base = self.common_bases.get(block).copied().unwrap_or(0)
                        + *offset as usize
                        + init.start_elem as usize;
                    common_data.push((base, values));
                }
                (_, SymbolKind::Array(_)) => data.push(RDataInit {
                    array: self.arr_ids.get(&init.name).copied(),
                    scalar: None,
                    start_elem: init.start_elem,
                    values,
                }),
                _ => data.push(RDataInit {
                    array: None,
                    scalar: self.scalar_ids.get(&init.name).copied(),
                    start_elem: 0,
                    values,
                }),
            }
        }

        let body = self.lower_block(&self.unit.body)?;
        let fn_slot = if self.unit.kind == UnitKind::Function {
            self.scalar_ids.get(&self.unit.name).copied()
        } else {
            None
        };
        let area_sizes: Vec<usize> = table.area_sizes.iter().map(|&s| s as usize).collect();
        Ok(RUnit {
            name: self.unit.name.clone(),
            is_function: self.unit.kind == UnitKind::Function,
            fn_slot,
            nformals: self.unit.formals.len(),
            scalars: self.scalars,
            arrays: self.arrays,
            frame_words: area_sizes.iter().sum(),
            area_sizes,
            data,
            body,
        })
    }

    fn scalar(&self, name: &str) -> Result<ScalarId, RtError> {
        self.scalar_ids
            .get(name)
            .copied()
            .ok_or_else(|| self.err(format!("unknown scalar {}", name)))
    }

    fn lower_block(&self, b: &ast::Block) -> Result<Vec<RStmt>, RtError> {
        b.stmts.iter().filter_map(|s| self.lower_stmt(s).transpose()).collect()
    }

    fn lower_stmt(&self, s: &Stmt) -> Result<Option<RStmt>, RtError> {
        Ok(Some(match &s.kind {
            StmtKind::Assign { lhs, rhs } => {
                let lv = match lhs {
                    Ast::Name(n) => RLval::S(self.scalar(n)?),
                    Ast::Index { name, subs } => {
                        let id = *self
                            .arr_ids
                            .get(name)
                            .ok_or_else(|| self.err(format!("unknown array {}", name)))?;
                        RLval::A(
                            id,
                            subs.iter()
                                .map(|e| self.lower_expr(e))
                                .collect::<Result<_, _>>()?,
                        )
                    }
                    _ => return Err(self.err("bad lvalue")),
                };
                RStmt::Assign(lv, self.lower_expr(rhs)?)
            }
            StmtKind::If { arms, else_blk } => {
                let mut rarms = Vec::new();
                for (c, b) in arms {
                    rarms.push((self.lower_expr(c)?, self.lower_block(b)?));
                }
                let relse = match else_blk {
                    Some(b) => Some(self.lower_block(b)?),
                    None => None,
                };
                RStmt::If(rarms, relse)
            }
            StmtKind::Do {
                var,
                lo,
                hi,
                step,
                body,
                omp,
                auto_par,
                ..
            } => {
                let mut inner_vars = Vec::new();
                body.walk_stmts(&mut |st| {
                    if let StmtKind::Do { var: v, .. } = &st.kind {
                        if let Ok(id) = self.scalar(v) {
                            inner_vars.push(id);
                        }
                    }
                });
                inner_vars.sort_unstable();
                inner_vars.dedup();
                RStmt::Do {
                    var: self.scalar(var)?,
                    lo: self.lower_expr(lo)?,
                    hi: self.lower_expr(hi)?,
                    step: step.as_ref().map(|e| self.lower_expr(e)).transpose()?,
                    body: self.lower_block(body)?,
                    manual: omp.as_ref().map(|d| self.lower_directive(d)).transpose()?,
                    auto: auto_par
                        .as_ref()
                        .map(|d| self.lower_directive(d))
                        .transpose()?,
                    inner_vars,
                }
            }
            StmtKind::DoWhile { cond, body } => RStmt::DoWhile {
                cond: self.lower_expr(cond)?,
                body: self.lower_block(body)?,
            },
            StmtKind::Call { name, args } => {
                let target = match name.as_str() {
                    "MPMYID" => CallTarget::Mpi(MpOp::MyId),
                    "MPNPROC" => CallTarget::Mpi(MpOp::NProc),
                    "MPSEND" => CallTarget::Mpi(MpOp::Send),
                    "MPRECV" => CallTarget::Mpi(MpOp::Recv),
                    "MPREDS" => CallTarget::Mpi(MpOp::RedSum),
                    "MPALLG" => CallTarget::Mpi(MpOp::AllGather),
                    "MPBAR" => CallTarget::Mpi(MpOp::Barrier),
                    other => CallTarget::Unit(
                        *self
                            .unit_ids
                            .get(other)
                            .ok_or_else(|| self.err(format!("undefined routine {}", other)))?,
                    ),
                };
                RStmt::Call(
                    target,
                    args.iter()
                        .map(|a| self.lower_actual(a))
                        .collect::<Result<_, _>>()?,
                )
            }
            StmtKind::Read { items } => RStmt::Read(
                items
                    .iter()
                    .map(|it| match it {
                        Ast::Name(n) => Ok(RLval::S(self.scalar(n)?)),
                        Ast::Index { name, subs } => {
                            let id = *self
                                .arr_ids
                                .get(name)
                                .ok_or_else(|| self.err(format!("unknown array {}", name)))?;
                            Ok(RLval::A(
                                id,
                                subs.iter()
                                    .map(|e| self.lower_expr(e))
                                    .collect::<Result<_, _>>()?,
                            ))
                        }
                        _ => Err(self.err("bad READ item")),
                    })
                    .collect::<Result<_, _>>()?,
            ),
            StmtKind::Write { items } => RStmt::Write(
                items
                    .iter()
                    .map(|it| match it {
                        Ast::Str(s) => Ok(WItem::Str(s.clone())),
                        other => Ok(WItem::E(self.lower_expr(other)?)),
                    })
                    .collect::<Result<_, _>>()?,
            ),
            StmtKind::Return => RStmt::Return,
            StmtKind::Stop => RStmt::Stop,
            StmtKind::Continue => return Ok(None),
            StmtKind::Goto(_) => return Err(self.err("GOTO not supported by the runtime")),
        }))
    }

    fn lower_directive(&self, d: &ast::LoopDirective) -> Result<RDirective, RtError> {
        let mut out = RDirective::default();
        for p in &d.private {
            if let Some(&id) = self.scalar_ids.get(p) {
                out.private_scalars.push(id);
            } else if let Some(&id) = self.arr_ids.get(p) {
                out.private_arrays.push(id);
            }
            // Unknown names (analysis-side temporaries) are dropped.
        }
        for (op, v) in &d.reductions {
            out.reductions.push((*op, self.scalar(v)?));
        }
        out.schedule = d.schedule;
        out.speculative = d.speculative;
        if let Some(writes) = &d.writes {
            // The summary is only usable if every named symbol resolves
            // to a slot here; otherwise the rollback checkpoint must
            // assume any cell could be written.
            out.writes_known = true;
            for name in writes {
                if let Some(&id) = self.scalar_ids.get(name) {
                    out.write_scalars.push(id);
                } else if let Some(&id) = self.arr_ids.get(name) {
                    out.write_arrays.push(id);
                } else {
                    out.writes_known = false;
                    out.write_scalars.clear();
                    out.write_arrays.clear();
                    break;
                }
            }
        }
        Ok(out)
    }

    fn lower_actual(&self, a: &Ast) -> Result<RActual, RtError> {
        Ok(match a {
            Ast::Name(n) => {
                if let Some(&id) = self.arr_ids.get(n) {
                    RActual::ArrayRef(id)
                } else if let Some(v) = self.rp.table(&self.unit.name).param_val(n) {
                    // PARAMETER constants pass by value.
                    RActual::Val(compile(Node::Lit(const_cell(v))))
                } else {
                    RActual::ScalarRef(self.scalar(n)?)
                }
            }
            Ast::Index { name, subs } => {
                let id = *self
                    .arr_ids
                    .get(name)
                    .ok_or_else(|| self.err(format!("unknown array {}", name)))?;
                RActual::Section(
                    id,
                    subs.iter()
                        .map(|e| self.lower_expr(e))
                        .collect::<Result<_, _>>()?,
                )
            }
            other => RActual::Val(self.lower_expr(other)?),
        })
    }

    fn lower_expr(&self, e: &Ast) -> Result<RExpr, RtError> {
        Ok(compile(self.lower_node(e)?))
    }

    fn lower_node(&self, e: &Ast) -> Result<Node, RtError> {
        Ok(match e {
            Ast::Int(v) => Node::Lit(Cell::Int(*v)),
            Ast::Real(v) => Node::Lit(Cell::Real(*v)),
            Ast::Logical(b) => Node::Lit(Cell::Int(*b as i64)),
            Ast::Str(_) => return Err(self.err("string in expression")),
            Ast::Name(n) => match self.rp.table(&self.unit.name).param_val(n) {
                Some(v) => Node::Lit(const_cell(v)),
                None => Node::LoadS(self.scalar(n)?),
            },
            Ast::Index { name, subs } => {
                let id = *self
                    .arr_ids
                    .get(name)
                    .ok_or_else(|| self.err(format!("unknown array {}", name)))?;
                Node::LoadA(
                    id,
                    subs.iter()
                        .map(|s| self.lower_node(s))
                        .collect::<Result<_, _>>()?,
                )
            }
            Ast::CallF { name, args } => {
                if is_intrinsic(name) {
                    let intr = Intr::parse(name)
                        .ok_or_else(|| self.err(format!("unsupported intrinsic {}", name)))?;
                    Node::Intr(
                        intr,
                        args.iter()
                            .map(|a| self.lower_node(a))
                            .collect::<Result<_, _>>()?,
                    )
                } else {
                    let uid = *self
                        .unit_ids
                        .get(name.as_str())
                        .ok_or_else(|| self.err(format!("undefined function {}", name)))?;
                    Node::CallF(
                        uid,
                        args.iter()
                            .map(|a| self.lower_actual(a))
                            .collect::<Result<_, _>>()?,
                    )
                }
            }
            Ast::Sub { name, .. } => {
                return Err(self.err(format!("unresolved reference {}", name)))
            }
            Ast::Bin(op, l, r) => Node::Bin(
                *op,
                Box::new(self.lower_node(l)?),
                Box::new(self.lower_node(r)?),
            ),
            Ast::Un(ast::UnOp::Neg, i) => Node::Neg(Box::new(self.lower_node(i)?)),
            Ast::Un(ast::UnOp::Not, i) => Node::Not(Box::new(self.lower_node(i)?)),
        })
    }
}

/// A PARAMETER constant as a cell.
fn const_cell(v: ConstVal) -> Cell {
    match v {
        ConstVal::Int(k) => Cell::Int(k),
        ConstVal::Real(r) => Cell::Real(r),
        ConstVal::Logical(b) => Cell::Int(b as i64),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apar_minifort::frontend;

    fn lower(src: &str) -> RProgram {
        let rp = frontend(src).expect("frontend");
        RProgram::lower(&rp).expect("lower")
    }

    #[test]
    fn lowers_a_small_program() {
        let p = lower(
            "PROGRAM P\nREAL A(10)\nCOMMON /C/ Q, R(5)\nDO I = 1, 10\nA(I) = Q + REAL(I)\nENDDO\nCALL S(A, 10)\nEND\nSUBROUTINE S(X, N)\nREAL X(*)\nX(1) = X(N) * 2.0\nEND\n",
        );
        assert_eq!(p.units.len(), 2);
        assert_eq!(p.commons_total, 6);
        let main = &p.units[p.main];
        assert!(main.frame_words >= 11); // A(10) + I
        assert!(!main.body.is_empty());
    }

    #[test]
    fn common_addresses_are_absolute() {
        let p = lower(
            "PROGRAM P\nCOMMON /C/ Q, W\nQ = 1.0\nW = 2.0\nEND\nSUBROUTINE S\nCOMMON /C/ A, B\nA = B\nEND\n",
        );
        // Both units see the same absolute addresses for /C/ members.
        let find_abs = |u: &RUnit| -> Vec<usize> {
            u.scalars
                .iter()
                .filter_map(|s| match s.loc {
                    SLoc::Abs(a) => Some(a),
                    _ => None,
                })
                .collect()
        };
        let mut a0 = find_abs(&p.units[0]);
        let mut a1 = find_abs(&p.units[1]);
        a0.sort();
        a1.sort();
        assert_eq!(a0, a1);
        assert_eq!(a0.len(), 2);
    }

    #[test]
    fn data_initializers_lower() {
        let p = lower("PROGRAM P\nREAL A(4)\nDATA A /4*1.5/\nX = A(1)\nEND\n");
        let main = &p.units[p.main];
        assert_eq!(main.data.len(), 1);
        assert_eq!(main.data[0].values.len(), 4);
        assert_eq!(main.data[0].values[0], Cell::Real(1.5));
    }

    #[test]
    fn goto_is_rejected() {
        let rp = frontend("PROGRAM P\n10 CONTINUE\nGOTO 10\nEND\n").unwrap();
        assert!(matches!(RProgram::lower(&rp), Err(RtError::Lower(_))));
    }

    #[test]
    fn mpi_builtins_recognized() {
        let p = lower("PROGRAM P\nCALL MPMYID(ME)\nCALL MPBAR\nEND\n");
        let main = &p.units[p.main];
        assert!(main
            .body
            .iter()
            .any(|s| matches!(s, RStmt::Call(CallTarget::Mpi(MpOp::MyId), _))));
    }

    #[test]
    fn directives_resolve_slots() {
        let p = lower(
            "PROGRAM P\nREAL A(10)\n!$OMP PARALLEL DO PRIVATE(T) REDUCTION(+:S)\nDO I = 1, 10\nT = A(I)\nS = S + T\nENDDO\nEND\n",
        );
        let main = &p.units[p.main];
        let RStmt::Do { manual: Some(d), .. } = &main.body[0] else {
            panic!("expected DO");
        };
        assert_eq!(d.private_scalars.len(), 1);
        assert_eq!(d.reductions.len(), 1);
    }
}
