//! The per-call-loop detour shares what inlining did not touch: the
//! scratch program is a clone that shares its units with the base
//! program, `ResolvedProgram::reresolve` resolves only the units the
//! inliner copied, and `AnalysisCache::key` prints only those. Both
//! shortcuts must be invisible:
//!
//! * the unit-shared resolution of every inlined scratch program equals
//!   `resolve()` of a deep copy of it — printed program, every symbol
//!   table, the COMMON extents;
//! * two scratch programs get the same cache key exactly when their
//!   printed texts are equal, and the key does not depend on which
//!   units happened to be shared.
//!
//! Checked on every call-bearing loop of the eight suites and of fifty
//! generated programs, against the base program the driver really uses
//! (resolved, induction-substituted, substituted units resolved again).
//!
//! Both rest on one property of the resolver, checked first: resolving
//! a resolved program changes nothing, so a unit has one table however
//! often — and along whichever path — it was resolved.

use std::collections::HashMap;
use std::sync::Arc;

use apar_analysis::cache::{AnalysisCache, ProgramFacts};
use apar_analysis::callgraph::CallGraph;
use apar_analysis::loops::LoopForest;
use apar_analysis::summary::Summaries;
use apar_analysis::symx::SymMap;
use apar_analysis::{alias::AliasInfo, induction, inline};
use apar_core::CompilerProfile;
use apar_minicheck::fortgen::{gen_program, GenConfig};
use apar_minicheck::mutate::mutate;
use apar_minifort::pretty::print_program;
use apar_minifort::{frontend, frontend_recovering, resolve, Program, ResolvedProgram, Unit};
use apar_symbolic::OpCounter;

/// The driver's base program: front end, then the induction prelude on
/// a clone, of which `reresolve` resolves the units the pass rewrote.
fn driver_base(src: &str) -> Option<ResolvedProgram> {
    let rp = frontend(src).ok()?;
    let mut prog = rp.program.clone();
    for slot in &mut prog.units {
        let mut copy = Unit::clone(slot);
        let table = &rp.tables[&copy.name];
        let r = induction::run_on_unit(&mut copy, table, &mut prog.stmt_count);
        if !r.substituted.is_empty() {
            *slot = Arc::new(copy);
        }
    }
    rp.reresolve(prog).ok()
}

/// True when `unit` is one of `rp`'s own allocations, not merely equal.
fn shares_unit(rp: &ResolvedProgram, unit: &Arc<Unit>) -> bool {
    rp.program.units.iter().any(|u| Arc::ptr_eq(u, unit))
}

/// A copy that shares nothing with `prog`.
fn deep_copy(prog: &Program) -> Program {
    Program {
        units: prog
            .units
            .iter()
            .map(|u| Arc::new(Unit::clone(u)))
            .collect(),
        stmt_count: prog.stmt_count,
    }
}

fn assert_same_resolution(shared: &ResolvedProgram, full: &ResolvedProgram, what: &str) {
    assert_eq!(
        print_program(&shared.program),
        print_program(&full.program),
        "{what}: printed program"
    );
    assert_eq!(shared.program.stmt_count, full.program.stmt_count);
    let mut names: Vec<&String> = shared.tables.keys().collect();
    let mut full_names: Vec<&String> = full.tables.keys().collect();
    names.sort();
    full_names.sort();
    assert_eq!(names, full_names, "{what}: units with a table");
    for name in names {
        assert_eq!(
            format!("{:?}", shared.tables[name]),
            format!("{:?}", full.tables[name]),
            "{what}: symbol table of {name}"
        );
    }
    assert_eq!(
        shared.common_sizes, full.common_sizes,
        "{what}: COMMON extents"
    );
}

/// Runs the detour for every call-bearing loop of `src`; returns how
/// many loops it checked and how many of them changed no unit.
fn check_program(label: &str, src: &str) -> (usize, usize) {
    let Some(rp) = driver_base(src) else {
        return (0, 0);
    };
    let profile = CompilerProfile::polaris2008();
    let caps = profile.caps;
    let cg = CallGraph::build(&rp);
    let mut sym = SymMap::new();
    let ops = OpCounter::unlimited();
    let summaries = Summaries::build(&rp, &cg, &mut sym, caps, &ops);
    let alias = AliasInfo::build(&rp, &cg, caps, &ops);
    let mut cache = AnalysisCache::new(caps, sym.clone());
    cache.seed(
        &rp,
        ProgramFacts {
            cg: cg.clone(),
            summaries,
            alias,
            sym,
            build_ops: ops.spent(),
            budget_tripped: false,
        },
    );
    let unseeded = AnalysisCache::new(caps, SymMap::new());

    let mut text_of_key: HashMap<u64, String> = HashMap::new();
    let mut key_of_text: HashMap<String, u64> = HashMap::new();
    let (mut loops, mut unchanged) = (0, 0);
    for info in &LoopForest::build(&rp).loops {
        if info.calls.is_empty() {
            continue;
        }
        let what = format!("{label} {}:{:?}", info.id.unit, info.id.stmt);
        let mut scratch = rp.program.clone();
        inline::inline_calls_in_loop(
            &mut scratch,
            &rp,
            &cg,
            caps,
            &info.id.unit,
            info.id.stmt,
            profile.inline_depth,
            profile.inline_stmt_budget,
            &OpCounter::unlimited(),
        );
        loops += 1;
        unchanged += usize::from(scratch.units.iter().all(|u| shares_unit(&rp, u)));

        // Resolve: unit-shared against whole-program on a deep copy.
        match (rp.reresolve(scratch.clone()), resolve(deep_copy(&scratch))) {
            (Ok(shared), Ok(full)) => {
                assert_same_resolution(&shared, &full, &what);
                // Only the copied units got a table of their own.
                for u in &shared.program.units {
                    assert_eq!(
                        Arc::ptr_eq(&shared.tables[&u.name], &rp.tables[&u.name]),
                        shares_unit(&rp, u),
                        "{what}: table of {}",
                        u.name
                    );
                }
            }
            (Err(a), Err(b)) => assert_eq!(a.unit, b.unit, "{what}: failing unit"),
            (a, b) => panic!(
                "{what}: one resolution failed: {:?} / {:?}",
                a.err(),
                b.err()
            ),
        }

        // Key: equal exactly when the text is, shared units or not.
        let text = print_program(&scratch);
        let key = cache.key(&scratch);
        assert_eq!(
            key,
            unseeded.key(&deep_copy(&scratch)),
            "{what}: key from seeded hashes differs from key from printed units"
        );
        if let Some(prev) = text_of_key.get(&key) {
            assert_eq!(prev, &text, "{what}: one key, two texts");
        }
        if let Some(prev) = key_of_text.get(&text) {
            assert_eq!(*prev, key, "{what}: one text, two keys");
        }
        text_of_key.insert(key, text.clone());
        key_of_text.insert(text, key);
    }
    (loops, unchanged)
}

/// `resolve` of the already-resolved `rp` must reproduce it.
fn assert_fixpoint(rp: &ResolvedProgram, what: &str) {
    let again = resolve(rp.program.clone()).unwrap_or_else(|e| panic!("{what}: {e}"));
    assert_same_resolution(&again, rp, what);
}

#[test]
fn resolve_is_idempotent() {
    let suites = apar_workloads::all_suites();
    let mut units = 0;
    for w in &suites {
        let rp = frontend(&w.source).expect("suite resolves");
        units += rp.program.units.len();
        assert_fixpoint(&rp, &w.name);
    }
    assert!(units >= 77, "only {units} suite units");

    let mut rng = apar_minicheck::Rng::new(0x1de0_707e);
    for i in 0..200 {
        let src = gen_program(&mut rng, &GenConfig::default());
        let rp = frontend(&src).unwrap_or_else(|e| panic!("generated {i}: {e}\n{src}"));
        assert_fixpoint(&rp, &format!("generated {i}"));
    }
    // What the recovering front end keeps of a mutilated suite.
    let (mut survivors, mut dropped) = (0, 0);
    for i in 0..200 {
        let w = &suites[i % suites.len()];
        let (rp, _, gone) = frontend_recovering(&mutate(&mut rng, &w.source, 3));
        survivors += rp.program.units.len();
        dropped += gone.len();
        assert_fixpoint(&rp, &format!("mutant {i} of {}", w.name));
    }
    eprintln!("{units} suite units; mutants: {survivors} units kept, {dropped} dropped");
    assert!(survivors > 0, "no mutant unit survived: the recovering side is untested");
}

#[test]
fn unit_shared_resolve_and_key_equal_the_whole_program_ones() {
    let (mut loops, mut unchanged) = (0, 0);
    for w in apar_workloads::all_suites() {
        let (l, u) = check_program(&w.name, &w.source);
        loops += l;
        unchanged += u;
    }
    let mut rng = apar_minicheck::Rng::new(0x5ca7_c4ed);
    let mut programs = 0;
    while programs < 50 {
        let src = gen_program(&mut rng, &GenConfig::default());
        let (l, u) = check_program(&format!("generated {programs}"), &src);
        if l > 0 {
            programs += 1;
        }
        loops += l;
        unchanged += u;
    }
    eprintln!("{loops} detours checked, {unchanged} of them changed no unit");
    assert!(loops >= 100, "only {loops} call-bearing loops");
    assert!(
        unchanged > 0 && unchanged < loops,
        "{unchanged} of {loops} detours changed nothing: one side is untested"
    );
}

#[test]
fn a_unit_inlined_away_drops_out_of_tables_and_common_extents() {
    // STEP is the only unit declaring /ONLY/, and its only call site is
    // the loop: once expanded, the unit — with its table and its block
    // — is gone from the scratch program. The inlined COMMON member
    // moves the block into P's table instead.
    let src = "PROGRAM P\nREAL X(10)\nDO I = 1, 5\nCALL STEP(X, I)\nENDDO\nEND\n\
               SUBROUTINE STEP(A, K)\nREAL A(*)\nCOMMON /ONLY/ W(7)\nA(K) = A(K) + W(1)\nEND\n\
               SUBROUTINE IDLE\nCOMMON /KEPT/ V(3)\nEND\n";
    let rp = driver_base(src).expect("base");
    assert_eq!(rp.common_sizes["ONLY"], 7);
    let cg = CallGraph::build(&rp);
    let info = &LoopForest::build(&rp).loops[0];
    let mut scratch = rp.program.clone();
    inline::inline_calls_in_loop(
        &mut scratch,
        &rp,
        &cg,
        CompilerProfile::polaris2008().caps,
        &info.id.unit,
        info.id.stmt,
        3,
        4_000,
        &OpCounter::unlimited(),
    );
    let srp = rp.reresolve(scratch.clone()).expect("reresolve");
    assert_eq!(srp.unit_names(), vec!["P", "IDLE"]);
    assert!(!srp.tables.contains_key("STEP"));
    assert!(Arc::ptr_eq(&srp.tables["IDLE"], &rp.tables["IDLE"]));
    assert!(!Arc::ptr_eq(&srp.tables["P"], &rp.tables["P"]));
    assert_same_resolution(
        &srp,
        &resolve(deep_copy(&scratch)).expect("resolve"),
        "STEP",
    );
    // /ONLY/ survives only through the member inlined into P.
    assert_eq!(srp.common_sizes["ONLY"], 7);
    assert_eq!(srp.common_sizes["KEPT"], 3);

    // Without the inlined member nothing declares the block any more.
    let mut dropped = rp.program.clone();
    dropped.units.retain(|u| u.name != "STEP");
    let drp = rp.reresolve(dropped).expect("reresolve");
    assert!(!drp.tables.contains_key("STEP"));
    assert!(!drp.common_sizes.contains_key("ONLY"));
    assert_eq!(drp.common_sizes["KEPT"], 3);
}
