//! Compile fuzzer driver: no-panic + thread-invariant reports over a
//! fixed-seed corpus (generated MiniFort, garbled MiniFort, and
//! mutated suite sources), then the end-to-end backend contract —
//! emit annotated source, reparse it, execute serial vs auto-parallel
//! at 1 and 4 threads — over the same corpus, then the durable-store
//! loader contract — clean snapshots × truncate/bit/word mutators,
//! recovery must never panic and recovered-state compiles must be
//! bit-identical at 1 and 4 workers.
//!
//! Usage: `fuzz_compile [COUNT] [THREADS] [EXEC_COUNT] [STORE_COUNT]`
//! (defaults: 500, 4, COUNT/4, COUNT/8). Writes minimized crashers to
//! `target/fuzz/crasher_<case>.f` (compile phase) and full failing
//! sources to `target/fuzz/exec_crasher_<case>.f` (exec phase); exits
//! nonzero on any contract violation in any phase.

fn main() {
    let mut args = std::env::args().skip(1);
    let count: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(500);
    let threads: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(4);
    let exec_count: usize = args
        .next()
        .and_then(|a| a.parse().ok())
        .unwrap_or(count.div_ceil(4));

    let store_count: usize = args
        .next()
        .and_then(|a| a.parse().ok())
        .unwrap_or(count.div_ceil(8));

    let report = apar_bench::fuzz::run(count, threads);
    print!("{}", apar_bench::fuzz::render(&report));

    let exec_report = apar_bench::fuzz::run_exec(exec_count);
    print!("{}", apar_bench::fuzz::render_exec(&exec_report));

    let store_report = apar_bench::persist_bench::torture(store_count);
    print!("{}", apar_bench::persist_bench::render(&store_report));

    // Crasher artifacts are best-effort evidence: a full disk must not
    // turn a red fuzz run into a panic that hides the verdict.
    let save = |path: &std::path::Path, bytes: &[u8]| match std::fs::write(path, bytes) {
        Ok(()) => eprintln!("crasher written to {}", path.display()),
        Err(e) => eprintln!("fuzz_compile: cannot write {}: {}", path.display(), e),
    };
    let mut failed = false;
    let dir = std::path::Path::new("target/fuzz");
    if !report.crashers.is_empty() || !exec_report.crashers.is_empty() {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("fuzz_compile: cannot create {}: {}", dir.display(), e);
        }
    }
    if !report.crashers.is_empty() {
        failed = true;
        for c in &report.crashers {
            save(&dir.join(format!("crasher_{}.f", c.case)), c.minimized.as_bytes());
        }
    }
    if !exec_report.crashers.is_empty() {
        failed = true;
        for c in &exec_report.crashers {
            save(&dir.join(format!("exec_crasher_{}.f", c.case)), c.source.as_bytes());
        }
    }
    // The store phase has no source to minimize — its crashers are
    // cycle seeds, already printed by render above.
    if !store_report.ok() {
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!(
        "ok: {} compile cases + {} exec cases + {} store cycles, zero crashers",
        report.cases, exec_report.cases, store_report.cycles
    );
}
