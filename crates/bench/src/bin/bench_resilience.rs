//! Resilience chaos/soak harness driver.
//!
//! Usage: `bench_resilience [REQUESTS] [WORKERS]` (default: 500
//! requests, 4 workers). Drives the compile service through a seeded
//! adversarial mix — garbled suites, injected panics, deadline-tripping
//! op bombs, duplicate storms, held-capacity waves — plus a scripted
//! daemon session, and writes `BENCH_resilience.json`. Exits nonzero
//! unless every gate holds: zero escaped panics, zero identity
//! divergences, bounded queue depth, full-fidelity compiles under held
//! capacity, every refusal class exercised, quarantine convergence, and
//! daemon survival.

fn main() {
    let mut args = std::env::args().skip(1);
    let requests: usize = args
        .next()
        .and_then(|a| a.parse().ok())
        .unwrap_or(500);
    let workers: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(4);
    let data = apar_bench::resilience_bench::soak(requests, workers);
    print!("{}", apar_bench::resilience_bench::render(&data));
    let path = apar_bench::write_artifact("BENCH_resilience.json", &data);
    println!("(artifact: {})", path.display());
    if !data.ok() {
        eprintln!(
            "FAIL: escaped_panics={} identity_divergences={} peak_pending={}/{} \
             held_not_full={}/{} rejected={} expired={} quarantined={} \
             panic_compiles={}/{} daemon_ok={}",
            data.escaped_panics,
            data.identity_divergences,
            data.peak_pending,
            data.max_pending,
            data.held_not_full,
            data.held_compiles,
            data.rejected,
            data.deadline_expired,
            data.quarantined,
            data.panic_source_max_compiles,
            data.panic_compile_bound,
            data.daemon_ok
        );
        std::process::exit(1);
    }
}
