//! The parallel per-loop analysis stage must be invisible in the output:
//! compiling with one worker thread and with several has to produce
//! bit-identical reports — same per-pass op counts, same per-loop
//! classifications and annotations, same Figure 5 histograms, same skip
//! ledger. Only wall seconds may differ.

use apar_bench::compile_bench::report_signature;
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
        report_signature(&serial),
        report_signature(&parallel),
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

#[test]
fn seismic_compiles_identically_at_any_thread_count() {
    let w = wl::seismic::full_suite(wl::DataSize::Small, wl::Variant::Serial);
    assert_thread_invariant(&w);
}

#[test]
fn perfect_code_compiles_identically_at_any_thread_count() {
    let w = wl::perfect::codes()
        .into_iter()
        .next()
        .expect("at least one PERFECT code");
    assert_thread_invariant(&w);
}
