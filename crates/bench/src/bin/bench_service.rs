//! Service-layer benchmark: cold vs warm batch compilation.
//!
//! Usage: `bench_service [WORKERS] [--all]` (default: 4 workers over
//! the two-suite smoke set; `--all` measures every workload). Compiles
//! the set twice through one service — cold then warm — and writes
//! `BENCH_service.json`. Exits nonzero if the warm pass reports zero
//! result-cache hits, a second client sharing the loop-record store
//! splices nothing, or any report diverges across warm/cold, worker
//! counts, or a plain service-free compile.

fn main() {
    let mut workers = 4usize;
    let mut all = false;
    for a in std::env::args().skip(1) {
        match a.as_str() {
            "--all" => all = true,
            other => {
                if let Ok(n) = other.parse() {
                    workers = n;
                }
            }
        }
    }
    let reqs = if all {
        apar_bench::service_bench::all_requests()
    } else {
        apar_bench::service_bench::smoke_requests()
    };
    let data = apar_bench::service_bench::measure(&reqs, workers);
    print!("{}", apar_bench::service_bench::render(&data));
    let path = apar_bench::write_artifact("BENCH_service.json", &data);
    println!("(artifact: {})", path.display());
    if !data.ok() {
        eprintln!(
            "FAIL: warm_result_hits={} second_client_loop_hits={} all_identical={}",
            data.warm_result_hits, data.second_client_loop_hits, data.all_identical
        );
        std::process::exit(1);
    }
}
