//! Cache transparency: the service layer — worker pools, the shared
//! loop-record store, the result cache, dedup, eviction — is pure
//! plumbing. Every report it returns must be bit-identical to a plain
//! one-at-a-time `Compiler` compile, at every worker count and cache
//! temperature.

use apar_core::{Compiler, CompilerProfile};
use apar_service::{CompileService, Served, ServiceConfig, SuiteRequest};
use apar_workloads::{perfect, seismic, DataSize, Variant};

fn batch() -> Vec<SuiteRequest> {
    let seismic = seismic::full_suite(DataSize::Small, Variant::Serial);
    let perfect = &perfect::codes()[0];
    vec![
        SuiteRequest::new(seismic.name.clone(), seismic.source.clone()),
        SuiteRequest::new(perfect.name.clone(), perfect.source.clone()),
        // The dedup satellite: the same suite twice in one batch.
        SuiteRequest::new(format!("{}-again", seismic.name), seismic.source),
    ]
}

/// Reference: serial, service-free compiles of the same requests.
fn plain_signatures(reqs: &[SuiteRequest]) -> Vec<String> {
    let compiler = Compiler::new(CompilerProfile::polaris2008());
    reqs.iter()
        .map(|r| {
            compiler
                .compile_source_recovering(&r.name, &r.source)
                .report_signature()
        })
        .collect()
}

#[test]
fn concurrent_batches_match_serial_compiles_at_any_worker_count() {
    let reqs = batch();
    let reference = plain_signatures(&reqs);
    for workers in [1, 2, 8] {
        let service = CompileService::new(ServiceConfig {
            workers,
            ..ServiceConfig::default()
        });
        let out = service.compile_many(&reqs);
        let got: Vec<String> = out
            .outcomes
            .iter()
            .map(|o| o.artifact.signature())
            .collect();
        assert_eq!(got, reference, "workers={}", workers);
        // The duplicate SEISMIC is deduped, not recompiled or miscounted.
        assert_eq!(out.stats.cold, 2, "workers={}", workers);
        assert_eq!(out.stats.deduped, 1, "workers={}", workers);
        assert_eq!(out.outcomes[2].served, Served::Deduped);
    }
}

#[test]
fn warm_batches_are_bit_identical_to_cold() {
    let reqs = batch();
    let service = CompileService::new(ServiceConfig {
        workers: 4,
        ..ServiceConfig::default()
    });
    let cold = service.compile_many(&reqs);
    let warm = service.compile_many(&reqs);
    assert_eq!(warm.stats.cold, 0, "everything served from cache");
    assert!(warm.stats.result_hits >= 2);
    for (c, w) in cold.outcomes.iter().zip(&warm.outcomes) {
        assert_eq!(
            c.artifact.signature(),
            w.artifact.signature(),
            "warm {} diverged",
            w.name
        );
    }
}

#[test]
fn eviction_under_tiny_capacity_never_changes_reports() {
    let reqs = batch();
    let reference = plain_signatures(&reqs);
    // Loop-record store and result cache both squeezed to one entry:
    // every insert evicts its predecessor, so nothing is ever adopted —
    // and nothing may change.
    let service = CompileService::new(ServiceConfig {
        workers: 2,
        loop_entries: 1,
        result_entries: 1,
        ..ServiceConfig::default()
    });
    for round in 0..2 {
        let out = service.compile_many(&reqs);
        let got: Vec<String> = out
            .outcomes
            .iter()
            .map(|o| o.artifact.signature())
            .collect();
        assert_eq!(got, reference, "round {}", round);
    }
    let stats = service.cumulative_stats();
    assert!(
        stats.facts.loop_evictions > 0 && stats.result_evictions > 0,
        "tiny capacity must actually evict in both tiers: {:?}",
        stats
    );
    assert_eq!(stats.facts.loop_entries, 1, "{:?}", stats);
}

#[test]
fn evicted_result_recompiles_by_splicing_loop_records() {
    // A 1-entry result cache and an interleaved suite force the
    // recompile of `a` past the result tier, onto the loop records.
    let seismic = seismic::full_suite(DataSize::Small, Variant::Serial);
    let service = CompileService::new(ServiceConfig {
        workers: 1,
        result_entries: 1,
        ..ServiceConfig::default()
    });
    let a = SuiteRequest::new("a", seismic.source.clone());
    let perfect = &perfect::codes()[0];
    let b = SuiteRequest::new("b", perfect.source.clone());
    service.compile_many(std::slice::from_ref(&a));
    service.compile_many(std::slice::from_ref(&b)); // evicts a's result
    let again = service.compile_many(std::slice::from_ref(&a));
    assert_eq!(again.stats.cold, 1, "result entry was evicted");
    assert!(
        again.stats.facts.loop_hits > 0,
        "unchanged recompile splices loop records: {:?}",
        again.stats
    );
}

#[test]
fn second_client_sharing_only_the_loop_store_splices_and_matches_plain() {
    // A fresh service — empty result cache — handed the first one's
    // loop-record store: every suite compiles cold, but out of the
    // first client's records.
    let reqs = batch();
    let first = CompileService::new(ServiceConfig::default());
    first.compile_many(&reqs);
    let second = CompileService::with_loop_store(
        ServiceConfig::default(),
        std::sync::Arc::clone(first.loop_store()),
    );
    let out = second.compile_many(&reqs);
    assert_eq!(out.stats.result_hits, 0, "{:?}", out.stats);
    assert!(out.stats.facts.loop_hits > 0, "{:?}", out.stats);
    assert_eq!(out.stats.facts.loop_refusals, 0, "{:?}", out.stats);
    let got: Vec<String> = out
        .outcomes
        .iter()
        .map(|o| o.artifact.signature())
        .collect();
    assert_eq!(got, plain_signatures(&reqs));
}
