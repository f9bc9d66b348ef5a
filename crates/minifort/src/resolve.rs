//! Name resolution: symbol tables, storage layout, and disambiguation of
//! `NAME(args)` into array references vs. calls.
//!
//! Resolution is what turns the parsed surface syntax into a program the
//! analyses can reason about:
//!
//! 1. PARAMETER constants are evaluated (in order, so later ones may use
//!    earlier ones).
//! 2. Every name receives a type (declared or implicit) and a kind
//!    (scalar, array, parameter, routine).
//! 3. COMMON blocks are laid out word by word, and EQUIVALENCE groups are
//!    merged with a union-find over `(area, offset)` so overlapping
//!    storage is explicit — the substrate of the paper's aliasing
//!    hindrance (§2.3).
//! 4. Ambiguous `Expr::Sub` nodes are rewritten to [`Expr::Index`] or
//!    [`Expr::CallF`].
//!
//! Resolution is idempotent: a rewritten `CallF` is read exactly like
//! the `Sub` it came from, so `resolve(resolve(p).program)` has the
//! printed program, the tables and the COMMON extents of `resolve(p)`.
//! A unit therefore has one table whatever path it took, which is what
//! lets [`ResolvedProgram::reresolve`] resolve only the units a
//! transform rewrote.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use crate::ast::*;
use crate::diag::ResolveError;
use crate::symtab::{
    as_const_int, ArrayShape, ConstVal, DataInit, ResolvedDim, Storage, Symbol, SymbolKind,
    SymbolTable,
};
use crate::types::Ty;

/// Intrinsic function names recognized by the frontend and runtime.
pub const INTRINSICS: &[&str] = &[
    "ABS", "IABS", "SQRT", "SIN", "COS", "TAN", "ATAN", "ATAN2", "ASIN", "ACOS", "EXP", "LOG",
    "LOG10", "MOD", "AMOD", "MIN", "MAX", "MIN0", "MAX0", "AMIN1", "AMAX1", "INT", "IFIX", "NINT",
    "REAL", "FLOAT", "SNGL", "DBLE", "CMPLX", "CONJG", "AIMAG", "SIGN", "ISIGN",
];

/// True if `name` is a Fortran intrinsic MiniFort supports.
pub fn is_intrinsic(name: &str) -> bool {
    INTRINSICS.contains(&name)
}

/// A fully resolved program: AST (with `Sub` nodes rewritten) plus
/// per-unit symbol tables and program-wide COMMON block sizes.
///
/// Units and tables are reference-counted: a clone shares them, and
/// [`ResolvedProgram::reresolve`] hands an edited program the tables of
/// every unit the edit left alone.
#[derive(Clone, Debug, Default)]
pub struct ResolvedProgram {
    pub program: Program,
    pub tables: HashMap<String, Arc<SymbolTable>>,
    /// Maximum extent (words) of each COMMON block across all units.
    pub common_sizes: HashMap<String, i64>,
}

/// Tables and COMMON extents, accumulated unit by unit.
#[derive(Default)]
struct Resolution {
    tables: HashMap<String, Arc<SymbolTable>>,
    common_sizes: HashMap<String, i64>,
}

impl Resolution {
    /// Records `unit`'s table and widens the COMMON blocks it declares.
    fn add(&mut self, unit: &Unit, table: Arc<SymbolTable>) {
        for (blk, sz) in table.common_blocks() {
            let e = self.common_sizes.entry(blk).or_insert(0);
            *e = sz.max(*e);
        }
        self.tables.insert(unit.name.clone(), table);
    }

    fn finish(self, program: Program) -> ResolvedProgram {
        ResolvedProgram {
            program,
            tables: self.tables,
            common_sizes: self.common_sizes,
        }
    }
}

impl ResolvedProgram {
    /// Symbol table of a unit.
    pub fn table(&self, unit: &str) -> &SymbolTable {
        &self.tables[unit]
    }

    /// The unit AST by name.
    pub fn unit(&self, name: &str) -> Option<&Unit> {
        self.program.unit(name)
    }

    /// Names of all defined units.
    pub fn unit_names(&self) -> Vec<&str> {
        self.program.units.iter().map(|u| u.name.as_str()).collect()
    }

    /// The main program unit.
    pub fn main_unit(&self) -> Option<&Unit> {
        self.program
            .units
            .iter()
            .find(|u| u.kind == UnitKind::Main)
            .map(|u| &**u)
    }

    /// Resolves `edited`, a clone of this program in which a transform
    /// rewrote some units (through [`Program::unit_mut`], which gives
    /// the rewritten unit a new allocation) and removed others. Only
    /// the rewritten units are resolved; a unit still shared with
    /// `self` keeps its table, a removed unit drops out of `tables`,
    /// and `common_sizes` is recomputed over the units that remain.
    ///
    /// The result equals [`resolve`] of a deep copy of `edited`: units
    /// resolve independently of each other, and resolution is
    /// idempotent, so the table a shared unit already has is the one
    /// resolving it again would build.
    pub fn reresolve(&self, mut edited: Program) -> Result<ResolvedProgram, ResolveError> {
        let mut res = Resolution::default();
        for unit in &mut edited.units {
            let table = match self.table_if_shared(unit) {
                Some(table) => Arc::clone(table),
                None => Arc::new(resolve_unit(Arc::make_mut(unit))?),
            };
            res.add(unit, table);
        }
        Ok(res.finish(edited))
    }

    /// The table `tables` holds for `unit`, when `unit` is the very
    /// allocation that table was built from. (`tables` is keyed by
    /// name, so among same-named units it is the last one's.)
    fn table_if_shared(&self, unit: &Arc<Unit>) -> Option<&Arc<SymbolTable>> {
        let owner = self.program.units.iter().rfind(|u| u.name == unit.name)?;
        if Arc::ptr_eq(owner, unit) {
            self.tables.get(&unit.name)
        } else {
            None
        }
    }
}

/// Resolves a parsed program.
pub fn resolve(mut prog: Program) -> Result<ResolvedProgram, ResolveError> {
    let mut res = Resolution::default();
    for unit in prog.units_mut() {
        let table = resolve_unit(unit)?;
        res.add(unit, Arc::new(table));
    }
    Ok(res.finish(prog))
}

/// Resolves with recovery: a unit that fails to resolve is dropped from
/// the program and recorded as a [`ResolveError`], while every other
/// unit resolves normally. Calls into a dropped unit degrade to
/// unknown-routine calls, which the analyses already treat
/// conservatively (opaque side effects).
pub fn resolve_recovering(mut prog: Program) -> (ResolvedProgram, Vec<ResolveError>) {
    let mut res = Resolution::default();
    let mut errors = Vec::new();
    let mut kept = Vec::with_capacity(prog.units.len());

    for mut unit in std::mem::take(&mut prog.units) {
        match resolve_unit(Arc::make_mut(&mut unit)) {
            Ok(table) => {
                res.add(&unit, Arc::new(table));
                kept.push(unit);
            }
            Err(e) => errors.push(e),
        }
    }
    prog.units = kept;

    (res.finish(prog), errors)
}

fn err(unit: &str, msg: impl Into<String>) -> ResolveError {
    ResolveError {
        unit: unit.to_string(),
        msg: msg.into(),
    }
}

/// Builds one unit's symbol table and rewrites the unit's `NAME(args)`
/// nodes. Reads nothing outside the unit, so units resolve
/// independently and in any order.
fn resolve_unit(unit: &mut Unit) -> Result<SymbolTable, ResolveError> {
    let uname = unit.name.clone();
    let mut table = SymbolTable::new(&uname);

    // ---- 1. PARAMETER constants --------------------------------------
    let mut params: HashMap<String, ConstVal> = HashMap::new();
    for d in &unit.decls {
        if let Decl::Parameter { defs } = d {
            for (name, e) in defs {
                let v = eval_const(e, &params)
                    .ok_or_else(|| err(&uname, format!("PARAMETER {} is not constant", name)))?;
                params.insert(name.clone(), v);
            }
        }
    }

    // ---- 2. Declared types / dimensions ------------------------------
    let mut decl_ty: HashMap<String, Ty> = HashMap::new();
    let mut decl_dims: HashMap<String, Vec<DimSpec>> = HashMap::new();
    let mut externals: HashSet<String> = HashSet::new();
    for d in &unit.decls {
        match d {
            Decl::Type { ty, names } => {
                for n in names {
                    decl_ty.insert(n.name.clone(), *ty);
                    if !n.dims.is_empty() {
                        decl_dims.insert(n.name.clone(), n.dims.clone());
                    }
                }
            }
            Decl::Dimension { names } | Decl::Common { names, .. } => {
                for n in names {
                    if !n.dims.is_empty() {
                        decl_dims.insert(n.name.clone(), n.dims.clone());
                    }
                }
            }
            Decl::External { names } => {
                externals.extend(names.iter().cloned());
            }
            _ => {}
        }
    }

    let ty_of = |name: &str| -> Ty {
        decl_ty
            .get(name)
            .copied()
            .unwrap_or_else(|| Ty::implicit_for(name))
    };

    // Fold PARAMETER names and constant arithmetic inside dimension
    // declarators.
    let fold_dim = |spec: &DimSpec| -> ResolvedDim {
        let fold = |e: &Expr| fold_params(e, &params);
        ResolvedDim {
            lo: spec.lo.as_ref().map(&fold).unwrap_or(Expr::Int(1)),
            hi: spec.hi.as_ref().map(&fold),
        }
    };

    let formal_pos: HashMap<&str, usize> = unit
        .formals
        .iter()
        .enumerate()
        .map(|(i, n)| (n.as_str(), i))
        .collect();

    // ---- 3. Seed symbols for params, externals, declared names -------
    for (name, v) in &params {
        table.insert(Symbol {
            name: name.clone(),
            ty: match v {
                ConstVal::Int(_) => Ty::Integer,
                ConstVal::Real(_) => Ty::Real,
                ConstVal::Logical(_) => Ty::Logical,
            },
            kind: SymbolKind::Param(*v),
            storage: Storage::None,
        });
    }
    for name in &externals {
        table.insert(Symbol {
            name: name.clone(),
            ty: ty_of(name),
            kind: SymbolKind::Routine,
            storage: Storage::None,
        });
    }

    let declare_data_symbol = |table: &mut SymbolTable, name: &str| {
        if table.get(name).is_some() {
            return;
        }
        let kind = match decl_dims.get(name) {
            Some(dims) => SymbolKind::Array(ArrayShape {
                dims: dims.iter().map(fold_dim).collect(),
            }),
            None => SymbolKind::Scalar,
        };
        let storage = match formal_pos.get(name) {
            Some(&p) => Storage::Formal { position: p },
            None => Storage::Local { area: 0, offset: 0 }, // placeholder
        };
        table.insert(Symbol {
            name: name.to_string(),
            ty: ty_of(name),
            kind,
            storage,
        });
    };

    // Everything with an explicit declaration, including undimensioned
    // COMMON members.
    let common_names: Vec<String> = unit
        .decls
        .iter()
        .filter_map(|d| match d {
            Decl::Common { names, .. } => {
                Some(names.iter().map(|n| n.name.clone()).collect::<Vec<_>>())
            }
            _ => None,
        })
        .flatten()
        .collect();
    for name in decl_ty
        .keys()
        .chain(decl_dims.keys())
        .chain(common_names.iter())
    {
        if params.contains_key(name) || externals.contains(name) {
            continue;
        }
        declare_data_symbol(&mut table, name);
    }
    // Formals, even if undeclared.
    for f in &unit.formals {
        declare_data_symbol(&mut table, f);
    }
    // A function's name is its (scalar) return-value variable.
    if unit.kind == UnitKind::Function {
        declare_data_symbol(&mut table, &uname);
    }

    // ---- 4. Names discovered in the body ------------------------------
    // `applied` holds every name applied to arguments: `NAME(args)` as
    // the parser left it, or the `CallF` an earlier resolution already
    // made of it. Both count, so resolving a resolved unit again builds
    // the same table.
    let mut called: HashSet<String> = HashSet::new();
    let mut used_names: Vec<String> = Vec::new();
    let mut applied: HashSet<String> = HashSet::new();
    unit.body.walk_stmts(&mut |s| {
        if let StmtKind::Call { name, .. } = &s.kind {
            called.insert(name.clone());
        }
        if let StmtKind::Do { var, .. } = &s.kind {
            used_names.push(var.clone());
        }
        for_each_expr(s, &mut |e| match e {
            Expr::Name(n) => used_names.push(n.clone()),
            Expr::Sub { name, .. } | Expr::CallF { name, .. } => {
                applied.insert(name.clone());
            }
            _ => {}
        });
    });
    // A bare undeclared name is an implicit scalar.
    for name in &used_names {
        if table.get(name).is_none() && !called.contains(name) {
            declare_data_symbol(&mut table, name);
        }
    }
    // An applied name that is neither an array nor a PARAMETER is a
    // function or intrinsic call: a routine, whatever else declared it.
    for name in &applied {
        if !table.is_array(name) && !params.contains_key(name) {
            table.insert(Symbol {
                name: name.clone(),
                ty: ty_of(name),
                kind: SymbolKind::Routine,
                storage: Storage::None,
            });
        }
    }
    // ... unless it is this function's own name (recursive value refs are
    // not supported; function name stays the return variable).
    if unit.kind == UnitKind::Function {
        if let Some(s) = table.get_mut(&uname) {
            if matches!(s.kind, SymbolKind::Routine) {
                s.kind = SymbolKind::Scalar;
                s.storage = Storage::Local { area: 0, offset: 0 };
            }
        }
    }
    for name in &called {
        if table.get(name).is_none() {
            table.insert(Symbol {
                name: name.clone(),
                ty: ty_of(name),
                kind: SymbolKind::Routine,
                storage: Storage::None,
            });
        }
    }

    // ---- 5. COMMON layout ---------------------------------------------
    for d in &unit.decls {
        if let Decl::Common { block, names } = d {
            let mut offset: i64 = 0;
            for n in names {
                let sym = table
                    .get_mut(&n.name)
                    .ok_or_else(|| err(&uname, format!("COMMON member {} unknown", n.name)))?;
                if matches!(sym.storage, Storage::Formal { .. }) {
                    return Err(err(
                        &uname,
                        format!("dummy argument {} cannot be in COMMON", n.name),
                    ));
                }
                sym.storage = Storage::Common {
                    block: block.clone(),
                    offset,
                };
                let sz = sym.size_words().ok_or_else(|| {
                    err(
                        &uname,
                        format!("COMMON member {} must have constant size", n.name),
                    )
                })?;
                offset += sz;
            }
        }
    }

    // ---- 6. EQUIVALENCE union-find -------------------------------------
    let mut uf = UnionFind::default();
    for d in &unit.decls {
        if let Decl::Equivalence { groups } = d {
            for group in groups {
                let mut anchor: Option<(String, i64)> = None;
                for r in group {
                    let sym = table.get(&r.name).ok_or_else(|| {
                        err(&uname, format!("EQUIVALENCE member {} unknown", r.name))
                    })?;
                    if matches!(sym.storage, Storage::Formal { .. } | Storage::None) {
                        return Err(err(
                            &uname,
                            format!("{} cannot appear in EQUIVALENCE", r.name),
                        ));
                    }
                    let off = equiv_offset_words(sym, &r.subs, &params)
                        .ok_or_else(|| err(&uname, "EQUIVALENCE subscripts must be constant"))?;
                    match &anchor {
                        None => anchor = Some((r.name.clone(), off)),
                        Some((a_name, a_off)) => {
                            uf.union(a_name, *a_off, &r.name, off)
                                .map_err(|m| err(&uname, m))?;
                        }
                    }
                }
            }
        }
    }

    // Resolve union components: anchor to COMMON when one member lives
    // there, otherwise allocate a shared local area. Components are
    // processed in sorted order so area numbering is deterministic.
    let mut area_sizes: Vec<i64> = Vec::new();
    let components = uf.components();
    let mut roots: Vec<&String> = components.keys().collect();
    roots.sort();
    let mut equivalenced: HashSet<String> = HashSet::new();
    for members in roots.iter().map(|r| &components[*r]) {
        // members: (name, delta)
        let mut common_anchor: Option<(String, i64, i64)> = None; // block, common_off, delta
        for (name, delta) in members {
            equivalenced.insert(name.clone());
            if let Some(Storage::Common { block, offset }) =
                table.get(name).map(|s| s.storage.clone())
            {
                match &common_anchor {
                    None => common_anchor = Some((block, offset, *delta)),
                    Some((b, o, d)) => {
                        // Consistency: both anchors must agree.
                        if *b != block || offset - delta != o - d {
                            return Err(err(&uname, "EQUIVALENCE conflicts with COMMON layout"));
                        }
                    }
                }
            }
        }
        match common_anchor {
            Some((block, c_off, c_delta)) => {
                for (name, delta) in members {
                    let sym = table
                        .get_mut(name)
                        .ok_or_else(|| err(&uname, format!("EQUIVALENCE member {} lost", name)))?;
                    sym.storage = Storage::Common {
                        block: block.clone(),
                        offset: c_off - c_delta + delta,
                    };
                    if c_off - c_delta + delta < 0 {
                        return Err(err(
                            &uname,
                            format!("EQUIVALENCE extends {} before COMMON start", name),
                        ));
                    }
                }
            }
            None => {
                let min_delta = members.iter().map(|(_, d)| *d).min().unwrap_or(0);
                let area = area_sizes.len() as u32;
                let mut size = 0i64;
                for (name, delta) in members {
                    let sym = table
                        .get_mut(name)
                        .ok_or_else(|| err(&uname, format!("EQUIVALENCE member {} lost", name)))?;
                    let off = delta - min_delta;
                    sym.storage = Storage::Local { area, offset: off };
                    let sz = sym.size_words().ok_or_else(|| {
                        err(
                            &uname,
                            format!("{} in EQUIVALENCE must be constant-size", name),
                        )
                    })?;
                    size = size.max(off + sz);
                }
                area_sizes.push(size);
            }
        }
    }

    // ---- 7. Remaining locals get their own areas (sorted: area ids are
    // deterministic) --------------------------------------------------------
    let mut names: Vec<String> = table.iter().map(|s| s.name.clone()).collect();
    names.sort();
    for name in names {
        let sym = table
            .get(&name)
            .ok_or_else(|| err(&uname, format!("symbol {} lost during layout", name)))?;
        let is_local_data = matches!(sym.storage, Storage::Local { .. })
            && matches!(sym.kind, SymbolKind::Scalar | SymbolKind::Array(_))
            && !equivalenced.contains(&name);
        if is_local_data {
            let size = match sym.size_words() {
                Some(s) => s,
                None => {
                    return Err(err(
                        &uname,
                        format!("local array {} must have constant shape", name),
                    ))
                }
            };
            let area = area_sizes.len() as u32;
            area_sizes.push(size);
            table
                .get_mut(&name)
                .ok_or_else(|| err(&uname, format!("symbol {} lost during layout", name)))?
                .storage = Storage::Local { area, offset: 0 };
        }
    }
    table.area_sizes = area_sizes;

    // ---- 8. DATA initializations ----------------------------------------
    for d in &unit.decls {
        if let Decl::Data { items } = d {
            for item in items {
                let sym = table
                    .get(&item.name)
                    .ok_or_else(|| err(&uname, format!("DATA target {} unknown", item.name)))?;
                let start_elem = if item.subs.is_empty() {
                    0
                } else {
                    elem_index(sym, &item.subs, &params)
                        .ok_or_else(|| err(&uname, "DATA subscripts must be constant"))?
                };
                table.data.push(DataInit {
                    name: item.name.clone(),
                    start_elem,
                    values: item.values.clone(),
                });
            }
        }
    }

    // ---- 9. Rewrite Sub nodes -------------------------------------------
    let is_array: HashSet<String> = table
        .iter()
        .filter(|s| matches!(s.kind, SymbolKind::Array(_)))
        .map(|s| s.name.clone())
        .collect();
    unit.body.walk_stmts_mut(&mut |s| {
        rewrite_stmt(s, &is_array);
    });

    Ok(table)
}

/// Applies `f` to every expression in a statement (not recursing into
/// nested statements — the statement walk handles those).
fn for_each_expr(s: &Stmt, f: &mut impl FnMut(&Expr)) {
    let mut go = |e: &Expr| e.walk(f);
    match &s.kind {
        StmtKind::Assign { lhs, rhs } => {
            go(lhs);
            go(rhs);
        }
        StmtKind::If { arms, .. } => {
            for (c, _) in arms {
                go(c);
            }
        }
        StmtKind::Do { lo, hi, step, .. } => {
            go(lo);
            go(hi);
            if let Some(st) = step {
                go(st);
            }
        }
        StmtKind::DoWhile { cond, .. } => go(cond),
        StmtKind::Call { args, .. } => {
            for a in args {
                go(a);
            }
        }
        StmtKind::Read { items } | StmtKind::Write { items } => {
            for i in items {
                go(i);
            }
        }
        _ => {}
    }
}

fn rewrite_stmt(s: &mut Stmt, is_array: &HashSet<String>) {
    let rw = |e: &Expr| -> Expr {
        e.map(&mut |x| match x {
            Expr::Sub { name, args } => {
                if is_array.contains(&name) {
                    Expr::Index { name, subs: args }
                } else {
                    Expr::CallF { name, args }
                }
            }
            other => other,
        })
    };
    match &mut s.kind {
        StmtKind::Assign { lhs, rhs } => {
            *lhs = rw(lhs);
            *rhs = rw(rhs);
        }
        StmtKind::If { arms, .. } => {
            for (c, _) in arms {
                *c = rw(c);
            }
        }
        StmtKind::Do { lo, hi, step, .. } => {
            *lo = rw(lo);
            *hi = rw(hi);
            if let Some(st) = step {
                *st = rw(st);
            }
        }
        StmtKind::DoWhile { cond, .. } => *cond = rw(cond),
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

/// Evaluates a constant expression over PARAMETER bindings.
pub fn eval_const(e: &Expr, params: &HashMap<String, ConstVal>) -> Option<ConstVal> {
    use ConstVal::*;
    Some(match e {
        Expr::Int(v) => Int(*v),
        Expr::Real(v) => Real(*v),
        Expr::Logical(b) => Logical(*b),
        Expr::Name(n) => *params.get(n)?,
        Expr::Un(UnOp::Neg, i) => match eval_const(i, params)? {
            Int(v) => Int(-v),
            Real(v) => Real(-v),
            Logical(_) => return None,
        },
        Expr::Un(UnOp::Not, i) => match eval_const(i, params)? {
            Logical(b) => Logical(!b),
            _ => return None,
        },
        Expr::Bin(op, l, r) => {
            let (a, b) = (eval_const(l, params)?, eval_const(r, params)?);
            match (a, b) {
                (Int(x), Int(y)) => match op {
                    BinOp::Add => Int(x.checked_add(y)?),
                    BinOp::Sub => Int(x.checked_sub(y)?),
                    BinOp::Mul => Int(x.checked_mul(y)?),
                    BinOp::Div => {
                        if y == 0 {
                            return None;
                        }
                        Int(x / y)
                    }
                    BinOp::Pow => Int(x.checked_pow(u32::try_from(y).ok()?)?),
                    _ => return None,
                },
                (x, y) => {
                    let xf = to_f(x)?;
                    let yf = to_f(y)?;
                    match op {
                        BinOp::Add => Real(xf + yf),
                        BinOp::Sub => Real(xf - yf),
                        BinOp::Mul => Real(xf * yf),
                        BinOp::Div => Real(xf / yf),
                        BinOp::Pow => Real(xf.powf(yf)),
                        _ => return None,
                    }
                }
            }
        }
        _ => return None,
    })
}

fn to_f(v: ConstVal) -> Option<f64> {
    match v {
        ConstVal::Int(x) => Some(x as f64),
        ConstVal::Real(x) => Some(x),
        ConstVal::Logical(_) => None,
    }
}

/// Replaces PARAMETER names by literals and folds constant arithmetic.
pub fn fold_params(e: &Expr, params: &HashMap<String, ConstVal>) -> Expr {
    let folded = e.map(&mut |x| match &x {
        Expr::Name(n) => match params.get(n) {
            Some(ConstVal::Int(v)) => Expr::Int(*v),
            Some(ConstVal::Real(v)) => Expr::Real(*v),
            Some(ConstVal::Logical(b)) => Expr::Logical(*b),
            None => x,
        },
        _ => x,
    });
    match as_const_int(&folded) {
        Some(v) => Expr::Int(v),
        None => folded,
    }
}

/// Word offset of an EQUIVALENCE reference within its symbol.
fn equiv_offset_words(
    sym: &Symbol,
    subs: &[Expr],
    params: &HashMap<String, ConstVal>,
) -> Option<i64> {
    if subs.is_empty() {
        return Some(0);
    }
    Some(elem_index(sym, subs, params)? * sym.ty.words())
}

/// 0-based linear element index of a constant subscript list
/// (column-major). A single subscript on a multi-dimensional array is a
/// linear element index, as in Fortran storage sequence association.
fn elem_index(sym: &Symbol, subs: &[Expr], params: &HashMap<String, ConstVal>) -> Option<i64> {
    let shape = sym.shape()?;
    let consts: Vec<i64> = subs
        .iter()
        .map(|e| match eval_const(e, params)? {
            ConstVal::Int(v) => Some(v),
            _ => None,
        })
        .collect::<Option<_>>()?;
    if consts.len() == 1 && shape.rank() != 1 {
        let lo = as_const_int(&shape.dims[0].lo).unwrap_or(1);
        return Some(consts[0] - lo);
    }
    if consts.len() != shape.rank() {
        return None;
    }
    let mut idx = 0i64;
    let mut stride = 1i64;
    for (k, d) in shape.dims.iter().enumerate() {
        let lo = as_const_int(&d.lo)?;
        idx += (consts[k] - lo) * stride;
        stride *= d.const_extent()?;
    }
    Some(idx)
}

/// Union-find over names with word offsets relative to component roots.
#[derive(Default)]
struct UnionFind {
    parent: HashMap<String, (String, i64)>, // name -> (parent, delta to parent)
}

impl UnionFind {
    fn find(&mut self, name: &str) -> (String, i64) {
        let Some((p, d)) = self.parent.get(name).cloned() else {
            self.parent.insert(name.to_string(), (name.to_string(), 0));
            return (name.to_string(), 0);
        };
        if p == name {
            return (p, 0);
        }
        let (root, pd) = self.find(&p);
        let total = d + pd;
        self.parent.insert(name.to_string(), (root.clone(), total));
        (root, total)
    }

    /// Records that element `(a base + off_a)` and `(b base + off_b)`
    /// share storage.
    fn union(&mut self, a: &str, off_a: i64, b: &str, off_b: i64) -> Result<(), String> {
        let (ra, da) = self.find(a);
        let (rb, db) = self.find(b);
        if ra == rb {
            if da + off_a != db + off_b {
                return Err(format!("inconsistent EQUIVALENCE between {} and {}", a, b));
            }
            return Ok(());
        }
        // Attach rb under ra such that b's base sits at (da + off_a - off_b).
        self.parent.insert(rb, (ra, da + off_a - off_b - db));
        Ok(())
    }

    /// Root -> members (name, delta-from-root).
    fn components(&mut self) -> HashMap<String, Vec<(String, i64)>> {
        let names: Vec<String> = self.parent.keys().cloned().collect();
        let mut out: HashMap<String, Vec<(String, i64)>> = HashMap::new();
        for n in names {
            let (root, delta) = self.find(&n);
            out.entry(root).or_default().push((n, delta));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn front(src: &str) -> ResolvedProgram {
        let p = parse_program(src).expect("parse");
        resolve(p).expect("resolve")
    }

    #[test]
    fn parameters_evaluate_in_order() {
        let rp = front("PROGRAM P\nPARAMETER (N = 10, M = N*2 + 1)\nEND\n");
        let t = rp.table("P");
        assert_eq!(t.param_val("N"), Some(ConstVal::Int(10)));
        assert_eq!(t.param_val("M"), Some(ConstVal::Int(21)));
    }

    #[test]
    fn implicit_typing_applies() {
        let rp = front("PROGRAM P\nX = 1.0\nKOUNT = 2\nEND\n");
        let t = rp.table("P");
        assert_eq!(t.type_of("X"), Ty::Real);
        assert_eq!(t.type_of("KOUNT"), Ty::Integer);
    }

    #[test]
    fn array_vs_call_disambiguation() {
        let rp =
            front("PROGRAM P\nREAL A(10)\nEXTERNAL G\nX = A(3) + F(3) + G(4) + SQRT(2.0)\nEND\n");
        let u = rp.unit("P").unwrap();
        let mut indexes = 0;
        let mut calls = 0;
        u.body.walk_stmts(&mut |s| {
            if let StmtKind::Assign { rhs, .. } = &s.kind {
                rhs.walk(&mut |e| match e {
                    Expr::Index { .. } => indexes += 1,
                    Expr::CallF { .. } => calls += 1,
                    _ => {}
                });
            }
        });
        assert_eq!(indexes, 1);
        assert_eq!(calls, 3);
    }

    #[test]
    fn common_layout_offsets() {
        let rp = front("PROGRAM P\nREAL A(100), Q\nINTEGER K\nCOMMON /BLK/ A, Q, K\nEND\n");
        let t = rp.table("P");
        assert_eq!(
            t.get("A").unwrap().storage,
            Storage::Common {
                block: "BLK".into(),
                offset: 0
            }
        );
        assert_eq!(
            t.get("Q").unwrap().storage,
            Storage::Common {
                block: "BLK".into(),
                offset: 100
            }
        );
        assert_eq!(
            t.get("K").unwrap().storage,
            Storage::Common {
                block: "BLK".into(),
                offset: 101
            }
        );
        assert_eq!(rp.common_sizes["BLK"], 102);
    }

    #[test]
    fn common_size_is_max_across_units() {
        let rp = front(
            "PROGRAM P\nREAL A(10)\nCOMMON /B/ A\nEND\nSUBROUTINE S\nREAL Z(50)\nCOMMON /B/ Z\nEND\n",
        );
        assert_eq!(rp.common_sizes["B"], 50);
    }

    #[test]
    fn equivalence_local_overlap() {
        let rp = front("PROGRAM P\nREAL A(10), B(10)\nEQUIVALENCE (A(1), B(5))\nEND\n");
        let t = rp.table("P");
        let (
            Storage::Local {
                area: aa,
                offset: ao,
            },
            Storage::Local {
                area: ba,
                offset: bo,
            },
        ) = (&t.get("A").unwrap().storage, &t.get("B").unwrap().storage)
        else {
            panic!("expected local storage");
        };
        assert_eq!(aa, ba, "same area after equivalence");
        // A(1) == B(5): A base + 0 == B base + 4.
        assert_eq!(ao - bo, 4);
        // Shared area spans B(1)..A(10) = 14 words.
        assert_eq!(t.area_sizes[*aa as usize], 14);
    }

    #[test]
    fn equivalence_into_common() {
        let rp =
            front("PROGRAM P\nREAL A(10), B(6)\nCOMMON /C/ A\nEQUIVALENCE (A(3), B(1))\nEND\n");
        let t = rp.table("P");
        assert_eq!(
            t.get("B").unwrap().storage,
            Storage::Common {
                block: "C".into(),
                offset: 2
            }
        );
        // B extends the block? B(6) ends at offset 8 < 10, so size 10.
        assert_eq!(rp.common_sizes["C"], 10);
    }

    #[test]
    fn inconsistent_equivalence_is_an_error() {
        let p = parse_program(
            "PROGRAM P\nREAL A(10), B(10)\nEQUIVALENCE (A(1), B(1)), (A(2), B(5))\nEND\n",
        )
        .unwrap();
        assert!(resolve(p).is_err());
    }

    #[test]
    fn formals_get_positions() {
        let rp = front("SUBROUTINE S(X, N, A)\nREAL A(N)\nEND\n");
        let t = rp.table("S");
        assert_eq!(t.get("X").unwrap().storage, Storage::Formal { position: 0 });
        assert_eq!(t.get("N").unwrap().storage, Storage::Formal { position: 1 });
        assert_eq!(t.get("A").unwrap().storage, Storage::Formal { position: 2 });
        // Adjustable dimension stays symbolic.
        let shape = t.get("A").unwrap().shape().unwrap();
        assert_eq!(shape.dims[0].hi, Some(Expr::Name("N".into())));
    }

    #[test]
    fn assumed_size_formal() {
        let rp = front("SUBROUTINE S(A)\nREAL A(*)\nEND\n");
        let t = rp.table("S");
        assert!(t.get("A").unwrap().shape().unwrap().assumed_size());
    }

    #[test]
    fn function_name_is_return_variable() {
        let rp = front("REAL FUNCTION NORM(X)\nNORM = X * 2.0\nEND\n");
        let t = rp.table("NORM");
        assert!(matches!(t.get("NORM").unwrap().kind, SymbolKind::Scalar));
        assert_eq!(t.type_of("NORM"), Ty::Real);
    }

    #[test]
    fn data_resolution() {
        let rp = front("PROGRAM P\nREAL A(10)\nDATA A /10*1.5/, A(3) /2.5/\nEND\n");
        let t = rp.table("P");
        assert_eq!(t.data.len(), 2);
        assert_eq!(t.data[0].start_elem, 0);
        assert_eq!(t.data[1].start_elem, 2);
    }

    #[test]
    fn dims_fold_parameters() {
        let rp = front("PROGRAM P\nPARAMETER (N = 4)\nREAL A(N, N*2)\nEND\n");
        let t = rp.table("P");
        let shape = t.get("A").unwrap().shape().unwrap();
        assert_eq!(shape.const_elems(), Some(32));
    }

    #[test]
    fn local_adjustable_array_is_error() {
        let p = parse_program("PROGRAM P\nREAL A(N)\nN = 5\nEND\n").unwrap();
        assert!(resolve(p).is_err());
    }

    #[test]
    fn recovering_resolve_drops_failing_unit_only() {
        // S has an inconsistent EQUIVALENCE; P and OK are fine.
        let p = parse_program(
            "PROGRAM P\nREAL A(10)\nCALL S(A)\nEND\nSUBROUTINE S(X)\nREAL A(10), B(10)\nEQUIVALENCE (A(1), B(1)), (A(2), B(5))\nEND\nSUBROUTINE OK(Y)\nY = 1.0\nEND\n",
        )
        .unwrap();
        let (rp, errs) = resolve_recovering(p);
        assert_eq!(errs.len(), 1);
        assert_eq!(errs[0].unit, "S");
        let names = rp.unit_names();
        assert_eq!(names, vec!["P", "OK"]);
        // The call into the dropped unit still resolves (as an unknown
        // routine) in the surviving caller.
        assert!(rp.table("P").get("S").is_some());
    }

    #[test]
    fn recovering_resolve_matches_strict_on_clean_input() {
        let src = "PROGRAM P\nREAL A(10)\nCOMMON /B/ A\nEND\nSUBROUTINE S\nREAL Z(50)\nCOMMON /B/ Z\nEND\n";
        let strict = front(src);
        let (rec, errs) = resolve_recovering(parse_program(src).unwrap());
        assert!(errs.is_empty());
        assert_eq!(strict.unit_names(), rec.unit_names());
        assert_eq!(strict.common_sizes, rec.common_sizes);
    }

    fn deep_copy(p: &Program) -> Program {
        Program {
            units: p.units.iter().map(|u| Arc::new(Unit::clone(u))).collect(),
            stmt_count: p.stmt_count,
        }
    }

    fn assert_same(a: &ResolvedProgram, b: &ResolvedProgram) {
        assert_eq!(a.unit_names(), b.unit_names());
        for name in a.unit_names() {
            assert_eq!(
                format!("{:?}", a.tables[name]),
                format!("{:?}", b.tables[name]),
                "table of {name}"
            );
        }
        assert_eq!(a.common_sizes, b.common_sizes);
    }

    #[test]
    fn reresolve_resolves_only_what_was_copied() {
        let src = "PROGRAM P\nREAL A(10)\nCOMMON /B/ A\nX = F(1)\nY = 2.0\nEND\nSUBROUTINE S\nREAL Z(50)\nCOMMON /B/ Z\nEND\n";
        let base = front(src);
        // F is listed however often P is resolved.
        assert!(base.table("P").get("F").is_some());
        assert_same(&base, &resolve(base.program.clone()).expect("again"));

        let mut edit = base.program.clone();
        edit.unit_mut("P").expect("P").body.stmts.pop();
        let shared = base.reresolve(edit.clone()).expect("reresolve");
        assert_same(&shared, &resolve(deep_copy(&edit)).expect("resolve"));
        assert!(Arc::ptr_eq(&shared.tables["S"], &base.tables["S"]));
        assert!(!Arc::ptr_eq(&shared.tables["P"], &base.tables["P"]));
        assert!(shared.table("P").get("Y").is_none(), "P was resolved anew");

        // A removed unit takes its table and its COMMON extent with it.
        edit.units.retain(|u| u.name != "S");
        let shrunk = base.reresolve(edit).expect("reresolve");
        assert!(!shrunk.tables.contains_key("S"));
        assert_eq!(shrunk.common_sizes["B"], 10);
    }

    #[test]
    fn reresolve_is_exact_when_two_units_share_a_name() {
        // `tables` can hold only the second S's table, so the first S is
        // resolved again rather than handed the wrong one: /B/ keeps the
        // extent only the first S declares.
        let src = "PROGRAM P\nEND\nSUBROUTINE S\nREAL Z(50)\nCOMMON /B/ Z\nEND\nSUBROUTINE S\nREAL Z(5)\nCOMMON /B/ Z\nEND\n";
        let base = front(src);
        assert_eq!(base.common_sizes["B"], 50);
        let again = base.reresolve(base.program.clone()).expect("reresolve");
        assert_same(&again, &resolve(deep_copy(&base.program)).expect("resolve"));
        assert_eq!(again.common_sizes["B"], 50);
    }

    #[test]
    fn intrinsic_list() {
        assert!(is_intrinsic("SQRT"));
        assert!(is_intrinsic("CMPLX"));
        assert!(!is_intrinsic("M3FK"));
    }
}
