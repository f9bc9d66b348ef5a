//! Figure 2's wall column must add up: the per-pass seconds of a
//! compile report sum to (nearly) the wall `Compiler::compile` took.
//! Work that charges no symbolic ops — the per-loop facts build, the
//! interner fork, the ranges re-run, key hashing, the merge — is billed
//! to "others" rather than to nobody.

use std::time::Instant;

use apar_core::{Compiler, CompilerProfile};
use apar_minifort::parse_program;
use apar_workloads as wl;

#[test]
fn seismic_pass_seconds_cover_the_compile_wall() {
    let w = wl::seismic::full_suite(wl::DataSize::Small, wl::Variant::Serial);
    let compiler = Compiler::new(CompilerProfile::polaris2008());
    // Wall clocks are noisy; the *share* is a property of what is
    // billed, so the best of a few runs is the honest reading.
    let best = (0..3)
        .map(|_| {
            let prog = parse_program(&w.source).expect("parse");
            let t = Instant::now();
            let result = compiler.compile(&w.name, prog).expect("compile");
            let wall = t.elapsed().as_secs_f64();
            result.report.total_seconds() / wall
        })
        .fold(0.0, f64::max);
    assert!(
        best >= 0.85,
        "per-pass seconds cover only {:.0}% of the compile wall",
        best * 100.0
    );
    assert!(best <= 1.0 + 1e-9, "billed more wall than elapsed: {best}");
}
