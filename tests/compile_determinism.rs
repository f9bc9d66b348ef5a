//! The parallel per-loop analysis stage must be invisible in the output:
//! compiling with one worker thread and with several has to produce
//! bit-identical reports — same per-pass op counts, same per-loop
//! classifications and annotations, same Figure 5 histograms, same skip
//! ledger. Only wall seconds may differ.

use apar_core::{CompileResult, Compiler, CompilerProfile};
use apar_workloads as wl;

fn compile(w: &wl::Workload, threads: usize) -> CompileResult {
    Compiler::new(CompilerProfile::polaris2008().with_threads(threads))
        .compile_source(&w.name, &w.source)
        .expect("compile")
}

fn assert_thread_invariant(w: &wl::Workload) {
    let serial = compile(w, 1);
    let parallel = compile(w, 4);

    assert!(
        serial.loops.len() > 1,
        "{}: needs several loops to exercise the fan-out",
        w.name
    );
    assert_eq!(
        serial.loops.len(),
        parallel.loops.len(),
        "{}: loop counts differ",
        w.name
    );
    for (s, p) in serial.loops.iter().zip(&parallel.loops) {
        assert_eq!(s.unit, p.unit, "{}: loop order changed", w.name);
        assert_eq!(s.stmt, p.stmt, "{}: loop order changed", w.name);
        assert_eq!(
            s.classification, p.classification,
            "{}: {}:{:?} classified differently",
            w.name, s.unit, s.stmt
        );
        assert_eq!(
            s.parallelized, p.parallelized,
            "{}: {}:{:?} annotation differs",
            w.name, s.unit, s.stmt
        );
        assert_eq!(
            s.ops_spent, p.ops_spent,
            "{}: {}:{:?} op count differs",
            w.name, s.unit, s.stmt
        );
    }
    assert_eq!(
        serial.target_histogram(),
        parallel.target_histogram(),
        "{}: Figure 5 histogram differs",
        w.name
    );
    assert_eq!(
        serial.report_signature(),
        parallel.report_signature(),
        "{}: full report signature differs",
        w.name
    );
    // Off the signature, but counted so that worker races do not show.
    assert_eq!(
        serial.report.detour, parallel.report.detour,
        "{}: inline-detour counters differ",
        w.name
    );
}

/// Checks every suite of `all_suites()` whose name `pick` accepts; the
/// three tests below split the eight between them.
fn assert_suites_thread_invariant(pick: impl Fn(&str) -> bool) {
    let picked: Vec<wl::Workload> = wl::all_suites()
        .into_iter()
        .filter(|w| pick(&w.name))
        .collect();
    assert!(!picked.is_empty(), "no suite matched");
    picked.iter().for_each(assert_thread_invariant);
}

#[test]
fn seismic_compiles_identically_at_any_thread_count() {
    assert_suites_thread_invariant(|name| name == "SEISMIC");
}

#[test]
fn perfect_code_compiles_identically_at_any_thread_count() {
    assert_suites_thread_invariant(|name| name.starts_with("PERFECT"));
}

#[test]
fn gamess_sander_linpack_compile_identically_at_any_thread_count() {
    assert_suites_thread_invariant(|name| name != "SEISMIC" && !name.starts_with("PERFECT"));
}

#[test]
fn signature_tells_capability_profiles_apart() {
    // Different capability sets analyze differently; a signature that
    // could not notice would make every identity check above vacuous.
    let w = wl::linpack::suite();
    let full = Compiler::new(CompilerProfile::full())
        .compile_source(&w.name, &w.source)
        .expect("compile");
    assert_ne!(compile(&w, 1).report_signature(), full.report_signature());
}
