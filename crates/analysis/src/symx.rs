//! Bridge from MiniFort AST expressions to the symbolic algebra.
//!
//! Symbolic variable identities are *storage-based*: a COMMON member maps
//! to the same [`VarId`] in every unit (`/BLK/+offset`), while locals and
//! formals are unit-qualified (`UNIT::NAME`). This is what lets
//! interprocedural constant propagation and input-deck range facts flow
//! through COMMON blocks.
//!
//! Conversion also reports *features* of the expression that drive the
//! paper's hindrance classification: whether a subscript contains an
//! indirect array reference (`A(IA(I))`), an opaque function call, or a
//! non-affine construct.

use apar_minifort::ast::{BinOp, Expr as Ast, UnOp};
use apar_minifort::resolve::is_intrinsic;
use apar_minifort::symtab::{ConstVal, Storage, SymbolKind};
use apar_minifort::ResolvedProgram;
use apar_symbolic::{Expr, Interner, VarId};

/// Features observed while converting an expression.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExprFeatures {
    /// Contains an array element used as a value (subscripted subscript
    /// when seen inside a subscript).
    pub indirection: bool,
    /// Contains a call whose value the analysis cannot model.
    pub opaque_call: bool,
    /// Contains real-typed or otherwise non-integer constructs.
    pub noninteger: bool,
}

impl ExprFeatures {
    /// Merges features of a subexpression.
    pub fn or(&mut self, other: ExprFeatures) {
        self.indirection |= other.indirection;
        self.opaque_call |= other.opaque_call;
        self.noninteger |= other.noninteger;
    }
}

/// Owns the interner and the storage-based naming scheme.
///
/// A `SymMap` can be *forked* (cloned): each per-loop analysis worker
/// starts from the map recorded with the facts it consumes and interns
/// privately from there. A fork is never merged back — nothing after
/// the fan-out reads symbolic ids.
#[derive(Clone, Debug, Default)]
pub struct SymMap {
    pub interner: Interner,
}

impl SymMap {
    pub fn new() -> Self {
        Self::default()
    }

    /// The symbolic variable for `name` as seen from `unit`.
    pub fn var(&mut self, rp: &ResolvedProgram, unit: &str, name: &str) -> VarId {
        let key = match rp.tables.get(unit).and_then(|t| t.get(name)) {
            Some(sym) => match &sym.storage {
                Storage::Common { block, offset } => format!("/{}/+{}", block, offset),
                _ => format!("{}::{}", unit, name),
            },
            None => format!("{}::{}", unit, name),
        };
        self.interner.intern(&key)
    }

    /// Converts an integer-context expression. Unanalyzable constructs
    /// degrade to fresh unknowns (sound, never wrong).
    pub fn expr(
        &mut self,
        rp: &ResolvedProgram,
        unit: &str,
        e: &Ast,
        feats: &mut ExprFeatures,
    ) -> Expr {
        match e {
            Ast::Int(v) => Expr::int(*v),
            Ast::Real(_) | Ast::Str(_) | Ast::Logical(_) => {
                feats.noninteger = true;
                Expr::unknown()
            }
            Ast::Name(n) => {
                // PARAMETER constants fold to literals.
                if let Some(t) = rp.tables.get(unit) {
                    if let Some(ConstVal::Int(v)) = t.param_val(n) {
                        return Expr::int(v);
                    }
                    if let Some(sym) = t.get(n) {
                        if matches!(sym.kind, SymbolKind::Array(_)) {
                            // Whole-array reference in scalar context.
                            feats.noninteger = true;
                            return Expr::unknown();
                        }
                    }
                }
                Expr::var(self.var(rp, unit, n))
            }
            Ast::Index { .. } | Ast::Sub { .. } => {
                feats.indirection = true;
                Expr::unknown()
            }
            Ast::CallF { name, args } => self.intrinsic(rp, unit, name, args, feats),
            Ast::Bin(op, l, r) => {
                let a = self.expr(rp, unit, l, feats);
                let b = self.expr(rp, unit, r, feats);
                match op {
                    BinOp::Add => a.add(b),
                    BinOp::Sub => a.sub(b),
                    BinOp::Mul => a.mul(b),
                    BinOp::Div => a.div(b),
                    BinOp::Pow => match r.as_const_small_uint() {
                        Some(p) => {
                            let mut acc = Expr::int(1);
                            for _ in 0..p {
                                acc = acc.mul(a.clone());
                            }
                            acc
                        }
                        None => {
                            feats.noninteger = true;
                            Expr::unknown()
                        }
                    },
                    _ => {
                        feats.noninteger = true;
                        Expr::unknown()
                    }
                }
            }
            Ast::Un(UnOp::Neg, i) => self.expr(rp, unit, i, feats).neg(),
            Ast::Un(UnOp::Not, _) => {
                feats.noninteger = true;
                Expr::unknown()
            }
        }
    }

    fn intrinsic(
        &mut self,
        rp: &ResolvedProgram,
        unit: &str,
        name: &str,
        args: &[Ast],
        feats: &mut ExprFeatures,
    ) -> Expr {
        let conv =
            |s: &mut Self, f: &mut ExprFeatures, a: &Ast| -> Expr { s.expr(rp, unit, a, f) };
        match (name, args.len()) {
            ("MOD", 2) => {
                let a = conv(self, feats, &args[0]);
                let b = conv(self, feats, &args[1]);
                a.modulo(b)
            }
            ("MIN" | "MIN0", n) if n >= 2 => {
                let xs = args.iter().map(|a| conv(self, feats, a)).collect();
                Expr::min_of(xs)
            }
            ("MAX" | "MAX0", n) if n >= 2 => {
                let xs = args.iter().map(|a| conv(self, feats, a)).collect();
                Expr::max_of(xs)
            }
            ("ABS" | "IABS", 1) => {
                let a = conv(self, feats, &args[0]);
                Expr::max_of(vec![a.clone(), a.neg()])
            }
            _ => {
                if !is_intrinsic(name) {
                    feats.opaque_call = true;
                } else {
                    feats.noninteger = true;
                }
                Expr::unknown()
            }
        }
    }
}

/// Small helper on the AST for constant exponent detection.
trait AsConstSmallUint {
    fn as_const_small_uint(&self) -> Option<u32>;
}

impl AsConstSmallUint for Ast {
    fn as_const_small_uint(&self) -> Option<u32> {
        match self {
            Ast::Int(v) if (0..=4).contains(v) => Some(*v as u32),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apar_minifort::frontend;
    use apar_symbolic::Expr as S;

    fn setup(src: &str) -> ResolvedProgram {
        frontend(src).expect("frontend")
    }

    #[test]
    fn common_members_share_identity_across_units() {
        let rp = setup(
            "PROGRAM P\nCOMMON /C/ N\nEND\nSUBROUTINE S\nCOMMON /C/ M\nEND\n",
        );
        let mut m = SymMap::new();
        let a = m.var(&rp, "P", "N");
        let b = m.var(&rp, "S", "M");
        assert_eq!(a, b, "same storage, same symbolic variable");
        let c = m.var(&rp, "P", "X");
        assert_ne!(a, c);
    }

    #[test]
    fn locals_are_unit_qualified() {
        let rp = setup("PROGRAM P\nI = 1\nEND\nSUBROUTINE S\nI = 2\nEND\n");
        let mut m = SymMap::new();
        assert_ne!(m.var(&rp, "P", "I"), m.var(&rp, "S", "I"));
    }

    #[test]
    fn parameters_fold() {
        let rp = setup("PROGRAM P\nPARAMETER (N = 10)\nK = N + 1\nEND\n");
        let mut m = SymMap::new();
        let mut f = ExprFeatures::default();
        let e = m.expr(&rp, "P", &Ast::Name("N".into()), &mut f);
        assert_eq!(e, S::int(10));
    }

    #[test]
    fn affine_expression_converts_exactly() {
        let rp = setup("PROGRAM P\nK = 2\nEND\n");
        let mut m = SymMap::new();
        let mut f = ExprFeatures::default();
        // 3*I + J - 1
        let ast = Ast::Bin(
            BinOp::Sub,
            Box::new(Ast::Bin(
                BinOp::Add,
                Box::new(Ast::Bin(
                    BinOp::Mul,
                    Box::new(Ast::Int(3)),
                    Box::new(Ast::Name("I".into())),
                )),
                Box::new(Ast::Name("J".into())),
            )),
            Box::new(Ast::Int(1)),
        );
        let e = m.expr(&rp, "P", &ast, &mut f);
        let i = m.var(&rp, "P", "I");
        let j = m.var(&rp, "P", "J");
        assert_eq!(e, S::var(i).scale(3).add(S::var(j)).sub(S::int(1)));
        assert_eq!(f, ExprFeatures::default());
    }

    #[test]
    fn indirection_flag_on_array_in_subscript_position() {
        let rp = setup("PROGRAM P\nINTEGER IA(10)\nK = IA(3)\nEND\n");
        let mut m = SymMap::new();
        let mut f = ExprFeatures::default();
        let ast = Ast::Index {
            name: "IA".into(),
            subs: vec![Ast::Int(3)],
        };
        let e = m.expr(&rp, "P", &ast, &mut f);
        assert!(f.indirection);
        assert!(e.has_unknown());
    }

    #[test]
    fn opaque_call_flag() {
        let rp = setup("PROGRAM P\nK = 1\nEND\n");
        let mut m = SymMap::new();
        let mut f = ExprFeatures::default();
        let ast = Ast::CallF {
            name: "LOOKUP".into(),
            args: vec![Ast::Int(1)],
        };
        let _ = m.expr(&rp, "P", &ast, &mut f);
        assert!(f.opaque_call);
        assert!(!f.indirection);
    }

    #[test]
    fn min_max_mod_abs_map_to_algebra() {
        let rp = setup("PROGRAM P\nK = 1\nEND\n");
        let mut m = SymMap::new();
        let mut f = ExprFeatures::default();
        let i = Ast::Name("I".into());
        let mn = m.expr(
            &rp,
            "P",
            &Ast::CallF {
                name: "MIN".into(),
                args: vec![i.clone(), Ast::Int(5)],
            },
            &mut f,
        );
        let vi = m.var(&rp, "P", "I");
        assert_eq!(mn, S::min_of(vec![S::var(vi), S::int(5)]));
        let md = m.expr(
            &rp,
            "P",
            &Ast::CallF {
                name: "MOD".into(),
                args: vec![i.clone(), Ast::Int(4)],
            },
            &mut f,
        );
        assert_eq!(md, S::var(vi).modulo(S::int(4)));
        let ab = m.expr(
            &rp,
            "P",
            &Ast::CallF {
                name: "ABS".into(),
                args: vec![i],
            },
            &mut f,
        );
        assert_eq!(ab, S::max_of(vec![S::var(vi), S::var(vi).neg()]));
        assert!(!f.opaque_call);
    }

    #[test]
    fn small_const_pow_expands() {
        let rp = setup("PROGRAM P\nK = 1\nEND\n");
        let mut m = SymMap::new();
        let mut f = ExprFeatures::default();
        let ast = Ast::Bin(
            BinOp::Pow,
            Box::new(Ast::Name("I".into())),
            Box::new(Ast::Int(2)),
        );
        let e = m.expr(&rp, "P", &ast, &mut f);
        let vi = m.var(&rp, "P", "I");
        assert_eq!(e, S::var(vi).mul(S::var(vi)));
    }
}
