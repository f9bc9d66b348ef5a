//! End-to-end source-to-source benchmark: compile each application
//! suite, emit directive-annotated MiniFort through the codegen
//! backend, reparse the artifact with the recovering front end, and
//! execute both the original serial source and the annotated artifact
//! on the thread-parallel interpreter.
//!
//! Two properties are the benchmark's contract, checked per suite and
//! folded into `correct`:
//!
//! * the artifact round-trips (zero reparse diagnostics), and
//! * the parallel run is bit-identical to serial (same output lines,
//!   same STOP state).
//!
//! The speedup column is the serial-to-parallel ratio of *virtual*
//! seconds (deterministic modeled time on the 4-CPU machine, fork/join
//! overhead included), so suites dominated by tiny inner loops honestly
//! report values below 1.0 — the same effect the paper's Figure 1
//! discusses for Polaris-parallelized inner loops.

use apar_core::report::SkipReason;
use apar_core::{Compiler, CompilerProfile};
use apar_minifort::frontend;
use apar_runtime::{run, ExecConfig, ExecMode};
use apar_workloads::all_suites;

use crate::bar;

pub const THREADS: usize = 4;

/// One suite's end-to-end measurement.
#[derive(Clone, Debug)]
pub struct ExecBenchRow {
    pub suite: String,
    /// Loops the analysis stage reported on.
    pub loops: usize,
    /// Loops emitted under a `!$PAR DO` directive.
    pub emitted: usize,
    /// Parallelizable loops the backend refused to emit
    /// (`SkipReason::NotEmittable` ledger entries).
    pub not_emittable: usize,
    /// Diagnostics from reparsing the emitted artifact (0 = clean
    /// round-trip).
    pub reparse_diags: usize,
    /// Virtual seconds of the serial original.
    pub serial_virt_s: f64,
    /// Virtual seconds of the annotated artifact at [`THREADS`].
    pub auto_virt_s: f64,
    /// `serial_virt_s / auto_virt_s`.
    pub speedup: f64,
    /// Parallel regions the annotated run forked.
    pub regions: u64,
    /// Round-trip clean, both runs succeeded, and outputs bit-identical.
    pub correct: bool,
}

/// Whole-benchmark artifact (`BENCH_exec.json`).
#[derive(Clone, Debug)]
pub struct ExecBenchData {
    pub threads: usize,
    pub rows: Vec<ExecBenchRow>,
}

impl ExecBenchData {
    pub fn all_correct(&self) -> bool {
        self.rows.iter().all(|r| r.correct)
    }
}

/// Measures every suite whose name passes `filter` (empty = all).
pub fn measure(threads: usize, filter: &[String]) -> ExecBenchData {
    let rows = all_suites()
        .into_iter()
        .filter(|w| filter.is_empty() || filter.iter().any(|f| w.name.eq_ignore_ascii_case(f)))
        .map(|w| measure_suite(&w, threads))
        .collect();
    ExecBenchData { threads, rows }
}

/// Compiles, emits, reparses, and runs one suite both ways.
pub fn measure_suite(w: &apar_workloads::Workload, threads: usize) -> ExecBenchRow {
    let emit = Compiler::new(CompilerProfile::polaris2008())
        .compile_and_emit(&w.name, &w.source)
        .expect("compile_and_emit");
    let not_emittable = emit
        .result
        .report
        .skipped
        .iter()
        .filter(|s| matches!(s.reason, SkipReason::NotEmittable { .. }))
        .count();

    let serial_rp = frontend(&w.source).expect("serial frontend");
    let serial = run(&serial_rp, &w.deck, &ExecConfig::default());
    // The annotated artifact is executed from its *reparsed* form: the
    // emitted text, not the in-memory annotation, is what's measured.
    let auto = run(
        &emit.reparsed,
        &w.deck,
        &ExecConfig {
            mode: ExecMode::Auto,
            threads,
            ..Default::default()
        },
    );

    let (serial_virt_s, auto_virt_s, regions, correct) = match (&serial, &auto) {
        (Ok(s), Ok(a)) => (
            s.virt_seconds(),
            a.virt_seconds(),
            a.regions,
            emit.reparse_diags.is_empty() && s.output == a.output && s.stopped == a.stopped,
        ),
        (Ok(s), Err(_)) => (s.virt_seconds(), f64::NAN, 0, false),
        _ => (f64::NAN, f64::NAN, 0, false),
    };
    ExecBenchRow {
        suite: w.name.clone(),
        loops: emit.result.loops.len(),
        emitted: emit.emitted,
        not_emittable,
        reparse_diags: emit.reparse_diags.len(),
        serial_virt_s,
        auto_virt_s,
        speedup: serial_virt_s / auto_virt_s,
        regions,
        correct,
    }
}

/// ASCII rendering of the end-to-end table.
pub fn render(data: &ExecBenchData) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Source-to-source execution — emit, reparse, run ({} modeled CPUs; virtual seconds)\n",
        data.threads
    ));
    out.push_str(&format!(
        "{:>14} {:>6} {:>8} {:>6} {:>9} {:>9} {:>8}  {:>8}\n",
        "suite", "loops", "emitted", "noemit", "serial", "auto", "speedup", "verdict"
    ));
    let max = data
        .rows
        .iter()
        .map(|r| r.speedup)
        .filter(|s| s.is_finite())
        .fold(0.0, f64::max);
    for r in &data.rows {
        out.push_str(&format!(
            "{:>14} {:>6} {:>8} {:>6} {:>9.3} {:>9.3} {:>7.2}x  {:>8}  {}\n",
            r.suite,
            r.loops,
            r.emitted,
            r.not_emittable,
            r.serial_virt_s,
            r.auto_virt_s,
            r.speedup,
            if r.correct { "ok" } else { "MISMATCH" },
            bar(r.speedup, max, 24),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linpack_runs_end_to_end_correct() {
        let data = measure(4, &["LINPACK".to_string()]);
        assert_eq!(data.rows.len(), 1);
        let r = &data.rows[0];
        assert!(r.correct, "{:?}", r);
        assert!(r.emitted > 0);
        assert_eq!(r.reparse_diags, 0);
        assert!(r.regions > 0);
        assert!(r.speedup.is_finite());
    }

    #[test]
    fn filter_is_case_insensitive() {
        let data = measure(2, &["linpack".to_string()]);
        assert_eq!(data.rows.len(), 1);
        assert_eq!(data.rows[0].suite, "LINPACK");
    }
}
