//! Storage-level alias analysis.
//!
//! Fortran aliasing has three sources, all present in the paper's codes:
//! `COMMON` blocks seen from multiple units, `EQUIVALENCE` overlays, and
//! by-reference argument passing (two actuals overlapping, or an actual
//! overlapping a `COMMON` the callee also sees). [`AliasInfo`] answers
//! may-alias queries between names of one unit.
//!
//! The baseline compiler (the paper's Polaris) must assume any two array
//! formals *may* alias — proving otherwise needs the call-site analysis
//! gated behind [`crate::Capabilities::interprocedural_noalias`]. Loops
//! lost to that assumption form the `aliasing` bar of Figure 5.

use std::collections::{HashMap, HashSet};

use apar_minifort::ast::{Expr, StmtKind};
use apar_minifort::symtab::{Storage, SymbolKind};
use apar_minifort::ResolvedProgram;

use crate::callgraph::CallGraph;
use crate::Capabilities;
use apar_symbolic::OpCounter;

/// Where a name's storage ultimately lives, caller-visible.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Root {
    /// A COMMON block (program-global identity).
    Common(String),
    /// A local area of a specific unit.
    Local { unit: String, area: u32 },
    /// A formal of a specific unit (identity depends on the call site).
    Formal { unit: String, position: usize },
}

/// A name's storage root plus its word offset within the root.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Location {
    pub root: Root,
    pub offset: i64,
    /// Size in words, when statically known.
    pub size: Option<i64>,
}

/// Resolves the storage location of `name` in `unit`.
pub fn location(rp: &ResolvedProgram, unit: &str, name: &str) -> Option<Location> {
    let sym = rp.tables.get(unit)?.get(name)?;
    if !matches!(sym.kind, SymbolKind::Scalar | SymbolKind::Array(_)) {
        return None;
    }
    let size = sym.size_words();
    Some(match &sym.storage {
        Storage::Common { block, offset } => Location {
            root: Root::Common(block.clone()),
            offset: *offset,
            size,
        },
        Storage::Local { area, offset } => Location {
            root: Root::Local {
                unit: unit.to_string(),
                area: *area,
            },
            offset: *offset,
            size,
        },
        Storage::Formal { position } => Location {
            root: Root::Formal {
                unit: unit.to_string(),
                position: *position,
            },
            offset: 0,
            size,
        },
        Storage::None => return None,
    })
}

/// Per-unit may-alias facts.
#[derive(Clone, Debug, Default)]
pub struct AliasInfo {
    /// Pairs of names (within one unit) proven or assumed to possibly
    /// overlap: unit → the pair's smaller name → its larger names.
    /// Nested so a query borrows its `&str`s instead of building an
    /// owned `(String, String)` key.
    pairs: HashMap<String, HashMap<String, HashSet<String>>>,
    /// Formals proven independent at every call site (only populated
    /// when the capability is on).
    noalias_formals: HashMap<String, HashSet<(usize, usize)>>,
    caps: Capabilities,
}

impl AliasInfo {
    /// Builds alias facts for the whole program, billing one op per
    /// name pair and per call-site proof attempt to `ops`. When the
    /// counter's budget trips, remaining pairs are conservatively
    /// assumed aliased (the static-overlap scan marks them overlapping
    /// and the no-alias fixpoint stops proving) — sound degradation,
    /// never a panic.
    pub fn build(
        rp: &ResolvedProgram,
        cg: &CallGraph,
        caps: Capabilities,
        ops: &OpCounter,
    ) -> AliasInfo {
        let mut info = AliasInfo {
            caps,
            ..Default::default()
        };
        // 1. Static overlap within each unit (EQUIVALENCE / COMMON).
        for unit in &rp.program.units {
            let table = &rp.tables[&unit.name];
            let names: Vec<&str> = table
                .iter()
                .filter(|s| matches!(s.kind, SymbolKind::Scalar | SymbolKind::Array(_)))
                .map(|s| s.name.as_str())
                .collect();
            let set = info.pairs.entry(unit.name.clone()).or_default();
            for (i, &a) in names.iter().enumerate() {
                for &b in &names[i + 1..] {
                    // Past the budget: assume the pair overlaps rather
                    // than spend more ops proving otherwise.
                    if ops.charge(1).is_err() || static_overlap(rp, &unit.name, a, b) {
                        let (lo, hi) = ordered(a, b);
                        set.entry(lo.to_string())
                            .or_default()
                            .insert(hi.to_string());
                    }
                }
            }
        }
        // 2. Call-site based no-alias proofs for formal pairs, iterated
        //    to a fixpoint so proofs chain through wrapper layers (the
        //    SEISPROC -> module -> utility pattern of framework codes).
        if caps.interprocedural_noalias {
            for _round in 0..4 {
                let mut changed = false;
                for unit in &rp.program.units {
                    let nformals = unit.formals.len();
                    if nformals < 2 {
                        continue;
                    }
                    for i in 0..nformals {
                        for j in i + 1..nformals {
                            if info
                                .noalias_formals
                                .get(&unit.name)
                                .is_some_and(|s| s.contains(&(i, j)))
                            {
                                continue;
                            }
                            if ops.charge(1).is_ok()
                                && all_sites_disjoint(
                                    rp,
                                    cg,
                                    &unit.name,
                                    i,
                                    j,
                                    &info.noalias_formals,
                                )
                            {
                                info.noalias_formals
                                    .entry(unit.name.clone())
                                    .or_default()
                                    .insert((i, j));
                                changed = true;
                            }
                        }
                    }
                }
                if !changed {
                    break;
                }
            }
        }
        info
    }

    /// May `a` and `b` (names in `unit`) refer to overlapping storage?
    pub fn may_alias(&self, rp: &ResolvedProgram, unit: &str, a: &str, b: &str) -> bool {
        if a == b {
            return true;
        }
        let (lo, hi) = ordered(a, b);
        let listed = self
            .pairs
            .get(unit)
            .and_then(|by_lo| by_lo.get(lo))
            .is_some_and(|his| his.contains(hi));
        if listed {
            return true;
        }
        let (Some(la), Some(lb)) = (location(rp, unit, a), location(rp, unit, b)) else {
            return true; // unknown storage: be conservative
        };
        match (&la.root, &lb.root) {
            // Two formals: aliased unless proven independent.
            (Root::Formal { position: i, .. }, Root::Formal { position: j, .. }) => {
                let (i, j) = if i <= j { (*i, *j) } else { (*j, *i) };
                !self
                    .noalias_formals
                    .get(unit)
                    .is_some_and(|s| s.contains(&(i, j)))
            }
            // Formal vs common/local: a caller may pass the common array
            // as the actual; only call-site inspection can rule it out.
            (Root::Formal { .. }, Root::Common(_)) | (Root::Common(_), Root::Formal { .. }) => {
                !self.caps.interprocedural_noalias
            }
            (Root::Formal { .. }, Root::Local { .. })
            | (Root::Local { .. }, Root::Formal { .. }) => false, // locals never escape
            _ => la.root == lb.root && ranges_overlap(&la, &lb),
        }
    }

    /// Hashes this unit's alias facts (asserted pairs and proven
    /// formal independence) into `h`, in sorted order so the digest is
    /// independent of hash-map iteration order.
    pub fn digest_unit<H: std::hash::Hasher>(&self, unit: &str, h: &mut H) {
        use std::hash::Hash;
        if let Some(by_lo) = self.pairs.get(unit) {
            let mut pairs: Vec<(&str, &str)> = by_lo
                .iter()
                .flat_map(|(lo, his)| his.iter().map(move |hi| (lo.as_str(), hi.as_str())))
                .collect();
            pairs.sort_unstable();
            for p in pairs {
                p.hash(h);
            }
        }
        0xa5u8.hash(h);
        if let Some(set) = self.noalias_formals.get(unit) {
            let mut pairs: Vec<_> = set.iter().collect();
            pairs.sort();
            for p in pairs {
                p.hash(h);
            }
        }
    }
}

fn ordered<'s>(a: &'s str, b: &'s str) -> (&'s str, &'s str) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

fn ranges_overlap(a: &Location, b: &Location) -> bool {
    match (a.size, b.size) {
        (Some(sa), Some(sb)) => a.offset < b.offset + sb && b.offset < a.offset + sa,
        _ => true,
    }
}

/// Overlap that is visible from declarations alone.
fn static_overlap(rp: &ResolvedProgram, unit: &str, a: &str, b: &str) -> bool {
    let (Some(la), Some(lb)) = (location(rp, unit, a), location(rp, unit, b)) else {
        return false;
    };
    la.root == lb.root && ranges_overlap(&la, &lb)
}

/// True when every call site of `unit` passes provably disjoint storage
/// for formal positions `i` and `j`.
fn all_sites_disjoint(
    rp: &ResolvedProgram,
    cg: &CallGraph,
    unit: &str,
    i: usize,
    j: usize,
    proven: &HashMap<String, HashSet<(usize, usize)>>,
) -> bool {
    let mut any_site = false;
    for site in cg.calls_to(unit) {
        any_site = true;
        let Some(caller) = rp.unit(&site.caller) else {
            return false;
        };
        let mut disjoint_here = false;
        let mut found = false;
        caller.body.walk_stmts(&mut |s| {
            if s.id != site.stmt {
                return;
            }
            if let StmtKind::Call { args, .. } = &s.kind {
                found = true;
                disjoint_here = actuals_disjoint(rp, &site.caller, args, i, j, proven);
            }
        });
        if !found || !disjoint_here {
            return false;
        }
    }
    any_site
}

fn actuals_disjoint(
    rp: &ResolvedProgram,
    caller: &str,
    args: &[Expr],
    i: usize,
    j: usize,
    proven: &HashMap<String, HashSet<(usize, usize)>>,
) -> bool {
    let (Some(ai), Some(aj)) = (args.get(i), args.get(j)) else {
        return false;
    };
    // Only whole-name actuals are analyzed; sections and expressions are
    // conservative.
    let (Expr::Name(na), Expr::Name(nb)) = (ai, aj) else {
        // A scalar expression actual (copy-in) cannot alias an array.
        return is_value_expr(ai) || is_value_expr(aj);
    };
    if na == nb {
        return false;
    }
    let (Some(la), Some(lb)) = (location(rp, caller, na), location(rp, caller, nb)) else {
        return false;
    };
    match (&la.root, &lb.root) {
        // Both actuals are formals of the caller: disjoint when the
        // caller's own formal pair is already proven disjoint (fixpoint
        // chaining through wrapper layers).
        (Root::Formal { position: pi, .. }, Root::Formal { position: pj, .. }) => {
            let key = if pi <= pj { (*pi, *pj) } else { (*pj, *pi) };
            proven.get(caller).is_some_and(|s| s.contains(&key))
        }
        (Root::Formal { .. }, _) | (_, Root::Formal { .. }) => false,
        _ => la.root != lb.root || !ranges_overlap(&la, &lb),
    }
}

fn is_value_expr(e: &Expr) -> bool {
    matches!(
        e,
        Expr::Int(_) | Expr::Real(_) | Expr::Logical(_) | Expr::Bin(..) | Expr::Un(..)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use apar_minifort::frontend;

    fn setup(src: &str, caps: Capabilities) -> (ResolvedProgram, AliasInfo) {
        let rp = frontend(src).expect("frontend");
        let cg = CallGraph::build(&rp);
        let info = AliasInfo::build(&rp, &cg, caps, &OpCounter::unlimited());
        (rp, info)
    }

    #[test]
    fn tripped_budget_assumes_aliasing() {
        // With a spent budget the builder must stay conservative: every
        // pair it could not afford to examine is assumed aliased.
        let src = "PROGRAM P\nREAL A(10), B(10), C(10)\nEND\n";
        let rp = frontend(src).expect("frontend");
        let cg = CallGraph::build(&rp);
        let ops = OpCounter::with_budget(0);
        let info = AliasInfo::build(&rp, &cg, Capabilities::polaris2008(), &ops);
        assert!(ops.exceeded());
        assert!(
            info.may_alias(&rp, "P", "A", "C"),
            "unexamined pair stays aliased"
        );
    }

    #[test]
    fn equivalence_aliases() {
        let (rp, info) = setup(
            "PROGRAM P\nREAL A(10), B(10), C(10)\nEQUIVALENCE (A(5), B(1))\nEND\n",
            Capabilities::polaris2008(),
        );
        assert!(info.may_alias(&rp, "P", "A", "B"));
        assert!(!info.may_alias(&rp, "P", "A", "C"));
    }

    #[test]
    fn non_overlapping_equivalence_members() {
        // B placed far past A's end: same area but disjoint words.
        let (rp, info) = setup(
            "PROGRAM P\nREAL A(10), B(10), PAD(30)\nEQUIVALENCE (PAD(1), A(1)), (PAD(21), B(1))\nEND\n",
            Capabilities::polaris2008(),
        );
        assert!(!info.may_alias(&rp, "P", "A", "B"));
        assert!(info.may_alias(&rp, "P", "A", "PAD"));
    }

    #[test]
    fn common_members_disjoint_by_layout() {
        let (rp, info) = setup(
            "PROGRAM P\nREAL A(10), B(10)\nCOMMON /C/ A, B\nEND\n",
            Capabilities::polaris2008(),
        );
        assert!(!info.may_alias(&rp, "P", "A", "B"));
    }

    #[test]
    fn formals_alias_in_baseline() {
        let src = "PROGRAM P\nREAL X(10), Y(10)\nCALL S(X, Y)\nEND\nSUBROUTINE S(A, B)\nREAL A(*), B(*)\nA(1) = B(1)\nEND\n";
        let (rp, base) = setup(src, Capabilities::polaris2008());
        assert!(
            base.may_alias(&rp, "S", "A", "B"),
            "baseline assumes aliasing"
        );
        let (rp2, full) = setup(src, Capabilities::full());
        assert!(
            !full.may_alias(&rp2, "S", "A", "B"),
            "call-site proof removes the alias"
        );
    }

    #[test]
    fn aliased_call_site_defeats_proof() {
        // One call site passes the same array twice.
        let src = "PROGRAM P\nREAL X(10), Y(10)\nCALL S(X, Y)\nCALL S(X, X)\nEND\nSUBROUTINE S(A, B)\nREAL A(*), B(*)\nA(1) = B(1)\nEND\n";
        let (rp, full) = setup(src, Capabilities::full());
        assert!(full.may_alias(&rp, "S", "A", "B"));
    }

    #[test]
    fn overlapping_sections_of_common_defeat_proof() {
        // Both actuals name arrays that share storage via EQUIVALENCE.
        let src = "PROGRAM P\nREAL X(10), Y(10)\nEQUIVALENCE (X(6), Y(1))\nCALL S(X, Y)\nEND\nSUBROUTINE S(A, B)\nREAL A(*), B(*)\nA(1) = B(1)\nEND\n";
        let (rp, full) = setup(src, Capabilities::full());
        assert!(full.may_alias(&rp, "S", "A", "B"));
    }

    #[test]
    fn formal_vs_common_needs_capability() {
        let src = "PROGRAM P\nREAL X(10)\nCALL S(X)\nEND\nSUBROUTINE S(A)\nREAL A(*), G(10)\nCOMMON /C/ G\nA(1) = G(1)\nEND\n";
        let (rp, base) = setup(src, Capabilities::polaris2008());
        assert!(base.may_alias(&rp, "S", "A", "G"));
        let (rp2, full) = setup(src, Capabilities::full());
        assert!(!full.may_alias(&rp2, "S", "A", "G"));
    }

    #[test]
    fn scalar_value_actuals_do_not_alias() {
        let src = "PROGRAM P\nREAL X(10)\nCALL S(X, N + 1)\nEND\nSUBROUTINE S(A, K)\nREAL A(*)\nA(1) = K\nEND\n";
        let (rp, full) = setup(src, Capabilities::full());
        assert!(!full.may_alias(&rp, "S", "A", "K"));
    }
}
