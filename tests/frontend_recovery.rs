//! Front-end recovery, end-to-end: truncated, garbled, and mutated
//! real-suite sources must compile to diagnostics — never a panic —
//! and damage localized to one unit must leave every other unit's
//! loop classifications untouched.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use apar_core::{Classification, CompileResult, Compiler, CompilerProfile};
use apar_minicheck::mutate::mutate;
use apar_minicheck::{Rng, BASE_SEED};
use apar_workloads as wl;

fn compile_recovering(name: &str, src: &str) -> CompileResult {
    Compiler::new(CompilerProfile::polaris2008()).compile_source_recovering(name, src)
}

/// Map of (unit, stmt) → classification for cross-run comparison.
fn by_loop(r: &CompileResult) -> HashMap<(String, String), Classification> {
    r.loops
        .iter()
        .map(|l| ((l.unit.clone(), format!("{:?}", l.stmt)), l.classification))
        .collect()
}

#[test]
fn truncated_seismic_compiles_with_diagnostics() {
    let w = wl::seismic::full_suite(wl::DataSize::Test, wl::Variant::Serial);
    // Cut the source mid-statement at several depths; every prefix must
    // compile to a report, with the tail's loss showing up as
    // diagnostics or dropped units rather than a panic.
    for frac in [30, 55, 80, 95] {
        let cut = w.source.len() * frac / 100;
        let cut = (0..=cut)
            .rev()
            .find(|&i| w.source.is_char_boundary(i))
            .unwrap();
        let src = &w.source[..cut];
        let r = compile_recovering(&w.name, src);
        assert!(
            !r.report.diags.is_empty() || r.report.units > 0,
            "truncation at {}% produced neither units nor diagnostics",
            frac
        );
    }
}

#[test]
fn garbled_gamess_unit_leaves_others_identical() {
    let w = wl::gamess::suite(wl::DataSize::Test);
    let clean = Compiler::new(CompilerProfile::polaris2008())
        .compile_source(&w.name, &w.source)
        .expect("clean compile");

    // Garble the interior of ONE subroutine: find its header line and
    // damage the line after it.
    let lines: Vec<&str> = w.source.lines().collect();
    let sub_line = lines
        .iter()
        .position(|l| l.trim_start().starts_with("SUBROUTINE"))
        .expect("gamess has subroutines");
    let victim_unit = lines[sub_line]
        .trim_start()
        .trim_start_matches("SUBROUTINE")
        .trim()
        .split('(')
        .next()
        .unwrap()
        .to_string();
    let mut damaged = lines.clone();
    let junk = "X = = 'oops";
    damaged.insert(sub_line + 1, junk);
    let src = damaged.join("\n") + "\n";

    let r = compile_recovering(&w.name, &src);
    assert!(
        !r.report.diags.is_empty(),
        "garbled statement must surface as a diagnostic"
    );

    // Loops in every unit other than the victim classify identically.
    let clean_map = by_loop(&clean);
    let mut compared = 0;
    for l in &r.loops {
        if l.unit == victim_unit {
            continue;
        }
        if let Some(c) = clean_map.get(&(l.unit.clone(), format!("{:?}", l.stmt))) {
            assert_eq!(
                *c, l.classification,
                "{}:{:?} changed classification after unrelated damage",
                l.unit, l.stmt
            );
            compared += 1;
        }
    }
    assert!(compared > 0, "no unaffected loops compared");
}

#[test]
fn mutated_suites_never_panic_and_stay_thread_invariant() {
    let suites = [
        wl::seismic::full_suite(wl::DataSize::Test, wl::Variant::Serial),
        wl::gamess::suite(wl::DataSize::Test),
        wl::sander::suite(wl::DataSize::Test),
    ];
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    for (si, w) in suites.iter().enumerate() {
        for round in 0..6u64 {
            let mut rng = Rng::new(BASE_SEED ^ (si as u64) << 32 ^ round);
            let src = mutate(&mut rng, &w.source, 3);
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                let serial = compile_recovering(&w.name, &src);
                let parallel = Compiler::new(CompilerProfile::polaris2008().with_threads(4))
                    .compile_source_recovering(&w.name, &src);
                (by_loop(&serial), by_loop(&parallel))
            }));
            let (s, p) = match outcome {
                Ok(maps) => maps,
                Err(_) => panic!(
                    "mutant of {} (round {}) escaped the recovering frontend:\n{}",
                    w.name, round, src
                ),
            };
            assert_eq!(
                s, p,
                "mutant of {} (round {}) diverged across thread counts",
                w.name, round
            );
        }
    }
    std::panic::set_hook(prev);
}

#[test]
fn recovering_mode_matches_strict_on_clean_suites() {
    for w in [
        wl::seismic::full_suite(wl::DataSize::Test, wl::Variant::Serial),
        wl::gamess::suite(wl::DataSize::Test),
        wl::sander::suite(wl::DataSize::Test),
    ] {
        let strict = Compiler::new(CompilerProfile::polaris2008())
            .compile_source(&w.name, &w.source)
            .expect("strict compile");
        let rec = compile_recovering(&w.name, &w.source);
        assert!(
            rec.report.diags.is_empty(),
            "{}: spurious diagnostics",
            w.name
        );
        assert!(rec.report.dropped_units.is_empty());
        assert_eq!(
            strict.report_signature(),
            rec.report_signature(),
            "{}: reports differ",
            w.name
        );
    }
}

/// The recovering door on damaged input, pinned to what the parent of
/// the one-resolution driver (which probe-resolved a clone, filtered
/// the raw program and resolved again) returned for the same bytes.
#[test]
fn garbled_input_reports_what_the_probing_driver_reported() {
    let bad_statement = "PROGRAM P\nREAL A(100)\nDO I = 1, 100\nA(I) = 1.0\nENDDO\nEND\n\
                         SUBROUTINE Q(Y)\nY = = 'oops\nEND\n";
    let bad_unit = "PROGRAM P\nREAL A(100)\nDO I = 1, 100\nCALL S(A, I)\nENDDO\nCALL OK(A)\nEND\n\
                    SUBROUTINE S(X, K)\nREAL X(*), U(10), V(10)\n\
                    EQUIVALENCE (U(1), V(1)), (U(2), V(5))\nX(K) = U(1)\nEND\n\
                    SUBROUTINE OK(Y)\nREAL Y(100)\nDO J = 2, 100\nY(J) = Y(J - 1) + F(J)\nENDDO\nEND\n";
    let noise = "@#%^\u{0}\n= = =\nEND END END\n";
    let check = |what: &str, src: &str, sig: &str, diags: &[&str], dropped: &[&str]| {
        let r = compile_recovering("garbled", src);
        let got: Vec<String> = r.report.diags.iter().map(|d| d.to_string()).collect();
        assert_eq!(r.report_signature(), sig, "{what}: signature");
        assert_eq!(got, diags, "{what}: diags");
        assert_eq!(r.report.dropped_units, dropped, "{what}: dropped units");
    };
    check("bad statement", bad_statement, SIG_BAD_STATEMENT, DIAGS_BAD_STATEMENT, &[]);
    check("bad unit", bad_unit, SIG_BAD_UNIT, DIAGS_BAD_UNIT, &["S"]);
    check("noise", noise, SIG_NOISE, DIAGS_NOISE, &[]);
}

const SIG_BAD_STATEMENT: &str = "DataDependence=33;Privatization=12;InductionSubstitution=2;\
    InlineExpansion=0;GsaTranslation=10;InterproceduralConstProp=4;Reduction=1;Others=3;\
    P:s0:Autoparallelized:true:false:1:45;\
    panicked=0;tripped=0;diags=1;dropped=0;tier=None;expired=false;";
const DIAGS_BAD_STATEMENT: &[&str] = &["parse error: line 8: unterminated character literal"];
const SIG_BAD_UNIT: &str = "DataDependence=56;Privatization=24;InductionSubstitution=6;\
    InlineExpansion=0;GsaTranslation=21;InterproceduralConstProp=12;Reduction=2;Others=8;\
    P:s0:AccessRepresentation:false:false:0:4;OK:s4:RealDependence:false:false:2:80;\
    panicked=0;tripped=0;diags=1;dropped=1;tier=None;expired=false;";
const DIAGS_BAD_UNIT: &[&str] =
    &["resolve error: unit S: inconsistent EQUIVALENCE between U and V"];
const SIG_NOISE: &str = "DataDependence=0;Privatization=0;InductionSubstitution=0;\
    InlineExpansion=0;GsaTranslation=0;InterproceduralConstProp=0;Reduction=0;Others=0;\
    panicked=0;tripped=0;diags=2;dropped=0;tier=None;expired=false;";
const DIAGS_NOISE: &[&str] = &[
    "parse error: line 1: unexpected character '@'",
    "parse error: line 2: expected PROGRAM, SUBROUTINE, or FUNCTION, found =",
];
