//! Service-layer benchmark: cold vs warm batch compiles.
//!
//! One [`CompileService`] compiles a set of suites twice — a cold pass
//! (empty caches) and a warm pass (both cache tiers populated) — and
//! the artifact records, per suite, the cold and warm wall seconds and
//! their ratio, plus aggregate throughput, a second client's loop-record
//! splices, and the two verdicts the service's contract rests on:
//!
//! * **identity** — every warm report is bit-identical to its cold
//!   report, to a one-worker service run, and to a plain service-free
//!   `Compiler` compile;
//! * **warm ≤ 10% of cold** — recompiling an already-seen suite costs
//!   at most a tenth of first-sight compilation (it is a cache lookup).

use apar_core::{Compiler, CompilerProfile};
use apar_service::{CompileService, ServiceConfig, SuiteRequest};
use apar_workloads as wl;

use crate::json::{Json, ToJson};

/// One suite's cold-vs-warm measurement.
#[derive(Clone, Debug)]
pub struct ServiceBenchRow {
    pub suite: String,
    pub loops: usize,
    /// Wall seconds first-sight (cold caches).
    pub cold_s: f64,
    /// Wall seconds on recompile (warm caches).
    pub warm_s: f64,
    /// `warm_s / cold_s` — the headline is this staying ≤ 0.10.
    pub warm_over_cold: f64,
    /// Report bit-identical across warm/cold, worker counts, and a
    /// plain service-free compile.
    pub identical: bool,
}

/// The whole `BENCH_service.json` payload.
#[derive(Clone, Debug)]
pub struct ServiceBenchData {
    /// Worker pool width of the measured service.
    pub workers: usize,
    pub rows: Vec<ServiceBenchRow>,
    /// Batch wall seconds, cold and warm.
    pub cold_wall_s: f64,
    pub warm_wall_s: f64,
    /// Aggregate throughput, suites per second.
    pub cold_suites_per_s: f64,
    pub warm_suites_per_s: f64,
    /// Result-cache hits the warm pass reported (must be nonzero).
    pub warm_result_hits: usize,
    /// A *second client* — fresh service, empty result cache, sharing
    /// only the loop-record store — recompiling the same suites: its
    /// batch wall seconds and the per-loop record splices it scored.
    pub second_client_wall_s: f64,
    pub second_client_loop_hits: u64,
    /// `second_client_wall_s / cold_wall_s`.
    pub second_client_over_cold: f64,
    /// `warm_wall_s / cold_wall_s`.
    pub warm_over_cold: f64,
    /// The headline: warm batch within 10% of the cold batch.
    pub warm_within_10pct: bool,
    /// Every row identical.
    pub all_identical: bool,
}

impl ServiceBenchData {
    /// The CI contract: nonzero warm hits, a second client that
    /// splices the first one's loop records, and full identity. (The
    /// 10% headline is recorded in the artifact but not gated here —
    /// wall clock on a loaded runner is not a correctness signal.)
    pub fn ok(&self) -> bool {
        self.warm_result_hits > 0 && self.second_client_loop_hits > 0 && self.all_identical
    }
}

impl ToJson for ServiceBenchRow {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("suite", self.suite.to_json()),
            ("loops", self.loops.to_json()),
            ("cold_s", self.cold_s.to_json()),
            ("warm_s", self.warm_s.to_json()),
            ("warm_over_cold", self.warm_over_cold.to_json()),
            ("identical", self.identical.to_json()),
        ])
    }
}

impl ToJson for ServiceBenchData {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("workers", self.workers.to_json()),
            ("cold_wall_s", self.cold_wall_s.to_json()),
            ("warm_wall_s", self.warm_wall_s.to_json()),
            ("cold_suites_per_s", self.cold_suites_per_s.to_json()),
            ("warm_suites_per_s", self.warm_suites_per_s.to_json()),
            ("warm_result_hits", self.warm_result_hits.to_json()),
            ("second_client_wall_s", self.second_client_wall_s.to_json()),
            (
                "second_client_loop_hits",
                self.second_client_loop_hits.to_json(),
            ),
            (
                "second_client_over_cold",
                self.second_client_over_cold.to_json(),
            ),
            ("warm_over_cold", self.warm_over_cold.to_json()),
            ("warm_within_10pct", self.warm_within_10pct.to_json()),
            ("all_identical", self.all_identical.to_json()),
            ("rows", self.rows.to_json()),
        ])
    }
}

/// The smoke set: the two suites the CI job compiles twice.
pub fn smoke_requests() -> Vec<SuiteRequest> {
    let seismic = wl::seismic::full_suite(wl::DataSize::Small, wl::Variant::Serial);
    let perfect = &wl::perfect::codes()[0];
    vec![
        SuiteRequest::new(seismic.name.clone(), seismic.source),
        SuiteRequest::new(perfect.name.clone(), perfect.source.clone()),
    ]
}

/// Every workload in the repo.
pub fn all_requests() -> Vec<SuiteRequest> {
    wl::all_suites()
        .into_iter()
        .map(|w| SuiteRequest::new(w.name, w.source))
        .collect()
}

/// Cold pass, warm pass, and the three-way identity check.
pub fn measure(reqs: &[SuiteRequest], workers: usize) -> ServiceBenchData {
    // Reference A: plain service-free compiles, one at a time.
    let plain = Compiler::new(CompilerProfile::polaris2008());
    let reference: Vec<String> = reqs
        .iter()
        .map(|r| {
            plain
                .compile_source_recovering(&r.name, &r.source)
                .report_signature()
        })
        .collect();
    // Reference B: a one-worker service, cold.
    let single = CompileService::new(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    let single_cold = single.compile_many(reqs);

    // The measured service: cold then warm.
    let service = CompileService::new(ServiceConfig {
        workers,
        ..ServiceConfig::default()
    });
    let cold = service.compile_many(reqs);
    let warm = service.compile_many(reqs);

    // A second client: fresh result cache, shared loop-record store.
    // Its compiles run, but splice the first client's loop records.
    let second = CompileService::with_loop_store(
        ServiceConfig {
            workers,
            ..ServiceConfig::default()
        },
        std::sync::Arc::clone(service.loop_store()),
    );
    let second_batch = second.compile_many(reqs);

    let rows: Vec<ServiceBenchRow> = reqs
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let cold_o = &cold.outcomes[i];
            let warm_o = &warm.outcomes[i];
            let sig = cold_o.artifact.signature();
            let identical = sig == warm_o.artifact.signature()
                && sig == single_cold.outcomes[i].artifact.signature()
                && sig == second_batch.outcomes[i].artifact.signature()
                && sig == reference[i];
            let loops = cold_o.artifact.compile().map_or(0, |c| c.loops.len());
            // A lookup can round to zero microseconds; floor the ratio's
            // denominator so the column stays finite.
            let warm_over_cold = warm_o.wall_s / cold_o.wall_s.max(1e-9);
            ServiceBenchRow {
                suite: r.name.clone(),
                loops,
                cold_s: cold_o.wall_s,
                warm_s: warm_o.wall_s,
                warm_over_cold,
                identical,
            }
        })
        .collect();

    let warm_over_cold = warm.stats.wall_s / cold.stats.wall_s.max(1e-9);
    ServiceBenchData {
        workers,
        all_identical: rows.iter().all(|r| r.identical),
        warm_within_10pct: warm_over_cold <= 0.10,
        warm_over_cold,
        cold_wall_s: cold.stats.wall_s,
        warm_wall_s: warm.stats.wall_s,
        cold_suites_per_s: cold.stats.suites_per_s,
        warm_suites_per_s: warm.stats.suites_per_s,
        warm_result_hits: warm.stats.result_hits,
        second_client_wall_s: second_batch.stats.wall_s,
        second_client_loop_hits: second_batch.stats.facts.loop_hits,
        second_client_over_cold: second_batch.stats.wall_s / cold.stats.wall_s.max(1e-9),
        rows,
    }
}

/// ASCII table mirroring the artifact.
pub fn render(d: &ServiceBenchData) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "service bench: {} suites, {} workers\n",
        d.rows.len(),
        d.workers
    ));
    out.push_str(&format!(
        "{:<14} {:>6} {:>10} {:>10} {:>8} {:>6}\n",
        "suite", "loops", "cold_s", "warm_s", "w/c", "ident"
    ));
    for r in &d.rows {
        out.push_str(&format!(
            "{:<14} {:>6} {:>10.4} {:>10.6} {:>8.4} {:>6}\n",
            r.suite, r.loops, r.cold_s, r.warm_s, r.warm_over_cold, r.identical
        ));
    }
    out.push_str(&format!(
        "cold {:.3}s ({:.1}/s)  warm {:.4}s ({:.0}/s)  warm/cold {:.4} (≤0.10: {})\n",
        d.cold_wall_s,
        d.cold_suites_per_s,
        d.warm_wall_s,
        d.warm_suites_per_s,
        d.warm_over_cold,
        d.warm_within_10pct
    ));
    out.push_str(&format!(
        "result hits (warm) {}  identical {}\n",
        d.warm_result_hits, d.all_identical
    ));
    out.push_str(&format!(
        "second client (fresh result cache, shared loop records): {:.4}s, {} loop splices, {:.4}× cold\n",
        d.second_client_wall_s,
        d.second_client_loop_hits,
        d.second_client_over_cold
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_measure_is_identical_with_warm_hits() {
        let d = measure(&smoke_requests(), 2);
        assert!(d.all_identical, "{:?}", d);
        assert_eq!(d.warm_result_hits, 2, "{:?}", d);
        assert!(d.ok());
    }
}
