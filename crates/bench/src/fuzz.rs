//! Structural compile fuzzer.
//!
//! Builds a fixed-seed corpus — randomly generated MiniFort programs
//! (clean and deliberately garbled), deadline-adversarial op bombs
//! (deep nests with huge trip counts that trip `loop_op_budget` late),
//! plus byte/token-level mutants of the real SEISMIC, GAMESS, and
//! SANDER sources — and asserts the crash-proofing contract on every
//! case:
//!
//! 1. **No panic.** `compile_source_recovering` is total: any byte
//!    sequence yields a report (possibly all diagnostics), never an
//!    abort. Contained per-loop panics (the sandbox) are *allowed*;
//!    they appear as `InternalError` skips, not process death.
//! 2. **Thread invariance.** The report signature at one worker thread
//!    equals the signature at N — including the containment counters.
//! 3. **Cancellation determinism.** A compile under a pre-expired
//!    [`CancelToken`] never panics, answers structurally
//!    (`deadline_expired` with every loop ledgered), and produces the
//!    same signature at 1 and N threads — cancellation checkpoints must
//!    not introduce schedule-dependent results.
//!
//! Failures are minimized by greedy line removal and reported with the
//! case seed, so every crasher is reproducible by construction.
//!
//! A second, deeper contract ([`run_exec`]) drives the same corpus all
//! the way through the source-to-source backend: compile, emit
//! annotated MiniFort, reparse the artifact, and execute it serially
//! and auto-parallel at 1 and 4 threads. Zero escaped panics anywhere
//! in that pipeline, the artifact must round-trip cleanly, and whenever
//! the serial run succeeds the parallel runs must reproduce its output
//! bit-for-bit.

use std::panic::{catch_unwind, AssertUnwindSafe};

use apar_core::pipeline::panic_message;
use apar_core::{CancelToken, CompileResult, Compiler, CompilerProfile};
use apar_minicheck::fortgen::{gen_op_bomb, gen_program, GenConfig};
use apar_minicheck::mutate::mutate;
use apar_minicheck::{Rng, BASE_SEED};
use apar_runtime::{run as rt_run, ExecConfig, ExecMode};
use apar_workloads as wl;

/// How one corpus case failed the contract.
#[derive(Clone, Debug)]
pub enum FailKind {
    /// The compile panicked (escaped the sandbox / front end).
    Panic(String),
    /// Serial and parallel reports diverged.
    Divergence,
}

/// A failing case, minimized.
#[derive(Clone, Debug)]
pub struct Crasher {
    pub case: usize,
    pub seed: u64,
    pub kind: FailKind,
    /// Line-minimized source still exhibiting the failure.
    pub minimized: String,
}

/// Corpus-wide result.
#[derive(Clone, Debug, Default)]
pub struct FuzzReport {
    pub cases: usize,
    /// Cases whose recovering compile produced at least one diagnostic.
    pub diag_cases: usize,
    /// Cases where the per-loop sandbox contained a panic.
    pub contained_panics: usize,
    pub crashers: Vec<Crasher>,
}

const GOLDEN: u64 = 0x9E3779B97F4A7C15;

fn case_seed(case: usize) -> u64 {
    BASE_SEED ^ (case as u64).wrapping_mul(GOLDEN)
}

/// Deterministically builds corpus case `case` of `total`.
///
/// Quarters: clean generated programs, garbled generated programs,
/// deadline-adversarial op bombs, and mutants of the real suite
/// sources.
pub fn corpus_case(case: usize, total: usize) -> String {
    let mut rng = Rng::new(case_seed(case));
    let quarter = total.div_ceil(4);
    if case < quarter {
        gen_program(&mut rng, &GenConfig::default())
    } else if case < 2 * quarter {
        let cfg = GenConfig {
            garble: 0.12,
            ..GenConfig::default()
        };
        gen_program(&mut rng, &cfg)
    } else if case < 3 * quarter {
        gen_op_bomb(&mut rng)
    } else {
        let suites = [
            wl::seismic::full_suite(wl::DataSize::Test, wl::Variant::Serial),
            wl::gamess::suite(wl::DataSize::Test),
            wl::sander::suite(wl::DataSize::Test),
        ];
        let src = &suites[case % suites.len()].source;
        let rounds = rng.usize_in(1, 4);
        mutate(&mut rng, src, rounds)
    }
}

/// Checks the no-panic + thread-invariance contract on one source.
/// `Ok` carries (diags nonempty, contained-panic count).
pub fn check_source(src: &str, threads: usize) -> Result<(bool, usize), FailKind> {
    let serial = Compiler::new(CompilerProfile::polaris2008());
    let parallel = Compiler::new(CompilerProfile::polaris2008().with_threads(threads));
    let compile = |c: &Compiler| -> Result<CompileResult, FailKind> {
        catch_unwind(AssertUnwindSafe(|| {
            c.compile_source_recovering("fuzz", src)
        }))
        .map_err(|p| FailKind::Panic(panic_message(p.as_ref())))
    };
    let sr = compile(&serial)?;
    let pr = compile(&parallel)?;
    if sr.report_signature() != pr.report_signature() {
        return Err(FailKind::Divergence);
    }
    // Cancellation determinism: a pre-expired token must degrade the
    // compile structurally and identically at any thread count — every
    // checkpoint is exercised without any wall-clock race.
    let cancelled_serial = Compiler::new(CompilerProfile::polaris2008())
        .with_cancel(CancelToken::expired());
    let cancelled_parallel = Compiler::new(CompilerProfile::polaris2008().with_threads(threads))
        .with_cancel(CancelToken::expired());
    let cs = compile(&cancelled_serial)?;
    let cp = compile(&cancelled_parallel)?;
    if cs.report_signature() != cp.report_signature() {
        return Err(FailKind::Divergence);
    }
    if cs.report.loops > 0 && !cs.report.deadline_expired {
        // A loop-bearing program must record the expiry; treat a
        // silent full compile under a cancelled token as divergence
        // from the cancellation contract.
        return Err(FailKind::Divergence);
    }
    Ok((!sr.report.diags.is_empty(), sr.report.panicked_loops()))
}

fn fails_same_way(src: &str, threads: usize, want: &FailKind) -> bool {
    matches!(
        (check_source(src, threads), want),
        (Err(FailKind::Panic(_)), FailKind::Panic(_))
            | (Err(FailKind::Divergence), FailKind::Divergence)
    )
}

/// Greedy line-removal minimization: repeatedly drops any line whose
/// removal preserves the failure, until a fixed point.
pub fn minimize(src: &str, threads: usize, kind: &FailKind) -> String {
    let mut lines: Vec<String> = src.lines().map(|l| l.to_string()).collect();
    let mut changed = true;
    while changed && lines.len() > 1 {
        changed = false;
        let mut i = 0;
        while i < lines.len() {
            let mut candidate = lines.clone();
            candidate.remove(i);
            let text = candidate.join("\n") + "\n";
            if fails_same_way(&text, threads, kind) {
                lines = candidate;
                changed = true;
            } else {
                i += 1;
            }
        }
    }
    lines.join("\n") + "\n"
}

/// Runs the corpus. Panics inside individual compiles are caught and
/// reported; the run itself always completes.
pub fn run(count: usize, threads: usize) -> FuzzReport {
    // The default panic hook prints a backtrace per caught panic;
    // silence it for the duration so garbled corpus entries don't
    // flood stderr. The per-loop sandbox keeps its behavior either way.
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let mut report = FuzzReport {
        cases: count,
        ..Default::default()
    };
    for case in 0..count {
        let src = corpus_case(case, count);
        match check_source(&src, threads) {
            Ok((had_diags, contained)) => {
                if had_diags {
                    report.diag_cases += 1;
                }
                report.contained_panics += contained;
            }
            Err(kind) => {
                let minimized = minimize(&src, threads, &kind);
                report.crashers.push(Crasher {
                    case,
                    seed: case_seed(case),
                    kind,
                    minimized,
                });
            }
        }
    }
    std::panic::set_hook(prev);
    report
}

// ---------------- emit → reparse → execute contract ----------------

/// How one corpus case failed the end-to-end contract.
#[derive(Clone, Debug)]
pub enum ExecFail {
    /// A panic escaped the compile/emit/execute pipeline.
    Panic(String),
    /// The emitted artifact did not reparse cleanly (diagnostic count).
    RoundTrip(usize),
    /// A parallel run of the artifact did not reproduce the serial
    /// output (the string names the diverging configuration).
    Divergence(String),
}

/// A case failing the end-to-end contract.
#[derive(Clone, Debug)]
pub struct ExecCrasher {
    pub case: usize,
    pub seed: u64,
    pub fail: ExecFail,
    pub source: String,
}

/// Corpus-wide result of the end-to-end contract.
#[derive(Clone, Debug, Default)]
pub struct ExecFuzzReport {
    pub cases: usize,
    /// Cases whose serial execution succeeded (and were therefore
    /// compared against both parallel runs).
    pub executed: usize,
    /// Cases whose serial execution hit a runtime error (random
    /// programs trap; those skip the equality check but still must not
    /// panic).
    pub serial_errors: usize,
    /// Total loops emitted under `!$PAR DO` across the corpus.
    pub emitted_loops: usize,
    pub crashers: Vec<ExecCrasher>,
}

fn exec_config(mode: ExecMode, threads: usize) -> ExecConfig {
    ExecConfig {
        mode,
        threads,
        max_output: 2_000,
        // Fuel cap: mutated sources can contain infinite DO WHILE
        // loops; a capped run counts as a serial error, not a hang.
        max_virt: 2_000_000,
        ..Default::default()
    }
}

/// Pushes one source through compile → emit → reparse → execute and
/// checks the whole-pipeline contract. `Ok` carries
/// (serial ran to completion, loops emitted parallel).
pub fn check_emit_exec(src: &str) -> Result<(bool, usize), ExecFail> {
    let panic_msg =
        |p: Box<dyn std::any::Any + Send>| ExecFail::Panic(panic_message(p.as_ref()));
    let compiler = Compiler::new(CompilerProfile::polaris2008());
    let emit = catch_unwind(AssertUnwindSafe(|| {
        let r = compiler.compile_source_recovering("fuzz", src);
        compiler.emit(r)
    }))
    .map_err(panic_msg)?;
    if !emit.reparse_diags.is_empty() {
        return Err(ExecFail::RoundTrip(emit.reparse_diags.len()));
    }
    let exec = |mode: ExecMode, threads: usize| {
        catch_unwind(AssertUnwindSafe(|| {
            rt_run(&emit.reparsed, &[], &exec_config(mode, threads))
        }))
        .map_err(panic_msg)
    };
    let serial = exec(ExecMode::Serial, 1)?;
    let par1 = exec(ExecMode::Auto, 1)?;
    let par4 = exec(ExecMode::Auto, 4)?;
    let Ok(s) = serial else {
        // Random programs may trap (bounds, uninit, exhausted deck);
        // the contract is only that nothing panicked above.
        return Ok((false, emit.emitted));
    };
    for (label, p) in [("auto@1", par1), ("auto@4", par4)] {
        match p {
            Ok(ref r) if r.output == s.output && r.stopped == s.stopped => {}
            // Fork/join overhead is part of the virtual clock, so a
            // run that just fits the serial budget can exceed it in
            // parallel. A budget trip is not a divergence.
            Err(apar_runtime::RtError::OpLimit) => {}
            other => {
                return Err(ExecFail::Divergence(format!(
                    "{}: serial ok but parallel {:?}",
                    label,
                    other.map(|r| r.output)
                )))
            }
        }
    }
    Ok((true, emit.emitted))
}

/// Runs the end-to-end contract over the corpus.
pub fn run_exec(count: usize) -> ExecFuzzReport {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let mut report = ExecFuzzReport {
        cases: count,
        ..Default::default()
    };
    for case in 0..count {
        let src = corpus_case(case, count);
        match check_emit_exec(&src) {
            Ok((ran, emitted)) => {
                if ran {
                    report.executed += 1;
                } else {
                    report.serial_errors += 1;
                }
                report.emitted_loops += emitted;
            }
            Err(fail) => report.crashers.push(ExecCrasher {
                case,
                seed: case_seed(case),
                fail,
                source: src,
            }),
        }
    }
    std::panic::set_hook(prev);
    report
}

/// ASCII rendering of an end-to-end fuzz run.
pub fn render_exec(r: &ExecFuzzReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "FUZZ emit+exec — {} cases, {} executed, {} serial errors, {} loops emitted, {} crashers\n",
        r.cases,
        r.executed,
        r.serial_errors,
        r.emitted_loops,
        r.crashers.len()
    ));
    for c in &r.crashers {
        out.push_str(&format!(
            "  case {} (seed {:#x}) {:?}:\n",
            c.case, c.seed, c.fail
        ));
        for l in c.source.lines().take(40) {
            out.push_str(&format!("    | {}\n", l));
        }
    }
    out
}

/// ASCII rendering of a fuzz run.
pub fn render(r: &FuzzReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "FUZZ compile — {} cases, {} with diagnostics, {} contained panics, {} crashers\n",
        r.cases,
        r.diag_cases,
        r.contained_panics,
        r.crashers.len()
    ));
    for c in &r.crashers {
        out.push_str(&format!(
            "  case {} (seed {:#x}) {:?}:\n",
            c.case, c.seed, c.kind
        ));
        for l in c.minimized.lines() {
            out.push_str(&format!("    | {}\n", l));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_deterministic() {
        for case in [0, 10, 180, 340, 499] {
            assert_eq!(corpus_case(case, 500), corpus_case(case, 500));
        }
    }

    #[test]
    fn corpus_covers_all_four_modes() {
        // A clean generated case, a garbled one, an op bomb, and a
        // suite mutant (quarters of 500: 0 / 125 / 250 / 375).
        assert!(corpus_case(0, 500).contains("PROGRAM FUZZ"));
        assert!(corpus_case(200, 500).contains("PROGRAM FUZZ"));
        let bomb = corpus_case(300, 500);
        assert!(bomb.contains("PROGRAM FUZZ") && bomb.contains("000000"));
        assert!(!corpus_case(400, 500).contains("PROGRAM FUZZ"));
    }

    #[test]
    fn smoke_corpus_has_no_crashers() {
        // The full 500-case run is the `fuzz_compile` binary's job (and
        // CI's); this keeps a fast sample in the unit suite, spanning
        // all four corpus modes.
        let r = run(36, 2);
        assert!(r.crashers.is_empty(), "crashers found:\n{}", render(&r));
        assert!(r.diag_cases > 0, "garbled cases should produce diagnostics");
    }

    #[test]
    fn op_bombs_trip_the_watchdog_not_the_process() {
        // The op-bomb family exists to push analysis into the
        // late-budget regime; at least one sampled bomb must actually
        // trip `loop_op_budget` (a `Complexity` classification), and
        // none may panic or diverge across thread counts — with or
        // without a cancelled token (checked inside `check_source`).
        let mut tripped = 0usize;
        for case in 260..268 {
            let src = corpus_case(case, 500);
            assert!(src.contains("PROGRAM FUZZ"), "case {case} not a bomb");
            check_source(&src, 4).expect("bomb case failed the contract");
            let r = Compiler::new(CompilerProfile::polaris2008())
                .compile_source_recovering("bomb", &src);
            tripped += r
                .loops
                .iter()
                .filter(|l| {
                    matches!(
                        l.classification,
                        apar_core::Classification::Complexity
                    )
                })
                .count();
        }
        assert!(tripped > 0, "no sampled op bomb tripped the op budget");
    }

    #[test]
    fn smoke_corpus_survives_emit_and_execute() {
        // Fast end-to-end sample spanning the corpus modes; the
        // full run is the `fuzz_compile` binary's second phase.
        let r = run_exec(24);
        assert!(r.crashers.is_empty(), "crashers found:\n{}", render_exec(&r));
        assert!(r.executed > 0, "no corpus case executed to completion");
        assert!(r.emitted_loops > 0, "no corpus loop was emitted parallel");
    }

    #[test]
    fn minimizer_shrinks_while_preserving_failure() {
        // A synthetic failure: treat any source containing the marker
        // line as "failing" by checking with a always-diverging stub is
        // overkill; instead verify the public property on a real panic
        // if one ever appears. Here we at least pin minimize() totality.
        let m = minimize("X = 1\nY = 2\n", 2, &FailKind::Divergence);
        assert!(!m.is_empty());
    }
}
