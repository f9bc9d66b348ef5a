//! Resilience through the public API: deadlines, admission control,
//! quarantine, degraded tiers — and two independent service handles
//! sharing one squeezed loop-record store without ever diverging.

use std::sync::Arc;
use std::time::Duration;

use apar_analysis::LoopRecordStore;
use apar_core::{Compiler, CompilerProfile, PassId};
use apar_minicheck::fortgen::{gen_program, GenConfig};
use apar_minicheck::{Rng, BASE_SEED};
use apar_service::{CompileService, Served, ServiceConfig, SuiteRequest};
use apar_workloads::{perfect, seismic, DataSize, Variant};

fn workload_batch() -> Vec<SuiteRequest> {
    let seismic = seismic::full_suite(DataSize::Small, Variant::Serial);
    let perfect = &perfect::codes()[0];
    vec![
        SuiteRequest::new(seismic.name.clone(), seismic.source),
        SuiteRequest::new(perfect.name.clone(), perfect.source.clone()),
    ]
}

/// Plain service-free reference signatures.
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

/// Satellite: two `CompileService` handles share one loop-record store
/// that is squeezed hard enough to evict within every compile. Interleaved
/// batches from both handles must stay bit-identical to plain compiles
/// — cross-client adoption, refusal, and eviction are all allowed,
/// divergence is not — and the lifetime counters of the two handles
/// must reconcile with each other and the shared store.
#[test]
fn two_handles_one_squeezed_store_never_diverge() {
    let store = Arc::new(LoopRecordStore::bounded(16));
    let config = || ServiceConfig {
        workers: 2,
        result_entries: 1, // force the loop tier to carry the load
        ..ServiceConfig::default()
    };
    let a = CompileService::with_loop_store(config(), Arc::clone(&store));
    let b = CompileService::with_loop_store(config(), Arc::clone(&store));

    let mut reqs = workload_batch();
    let mut rng = Rng::new(BASE_SEED ^ 0x5EED);
    for i in 0..3 {
        reqs.push(SuiteRequest::new(
            format!("gen-{}", i),
            gen_program(&mut rng, &GenConfig::default()),
        ));
    }
    let reference = plain_signatures(&reqs);

    for round in 0..3 {
        for (who, service) in [("a", &a), ("b", &b)] {
            let out = service.compile_many(&reqs);
            let got: Vec<String> = out
                .outcomes
                .iter()
                .map(|o| o.artifact.signature())
                .collect();
            assert_eq!(got, reference, "client {} round {} diverged", who, round);
        }
    }

    // The squeeze was real: the store thrashed the whole time.
    let shared = store.stats();
    assert!(shared.loop_evictions > 0, "16-record store must evict: {:?}", shared);
    // Both handles observe the same shared store...
    assert_eq!(a.loop_store().stats(), b.loop_store().stats());
    // ...and each handle's own ledger is internally consistent: every
    // request it ever saw is classified exactly once.
    for (who, service) in [("a", &a), ("b", &b)] {
        let s = service.cumulative_stats();
        assert_eq!(
            s.cold + s.result_hits + s.deduped + s.failed + s.rejected
                + s.deadline_expired + s.quarantined + s.degraded,
            s.suites,
            "client {} counters do not reconcile: {:?}",
            who,
            s
        );
        assert_eq!(s.suites, 3 * reqs.len(), "client {}", who);
    }

    // With room to breathe, the same two handles adopt each other's
    // records: client B's cold compiles splice loops client A analyzed.
    let store = Arc::new(LoopRecordStore::bounded(2048));
    let roomy = || ServiceConfig {
        workers: 2,
        result_entries: 1,
        ..ServiceConfig::default()
    };
    let a = CompileService::with_loop_store(roomy(), Arc::clone(&store));
    let b = CompileService::with_loop_store(roomy(), Arc::clone(&store));
    a.compile_many(&reqs);
    let before = store.stats();
    let out = b.compile_many(&reqs);
    let after = store.stats();
    assert!(
        after.loop_hits > before.loop_hits,
        "client B adopted none of client A's analysis: {:?}",
        after
    );
    let got: Vec<String> = out
        .outcomes
        .iter()
        .map(|o| o.artifact.signature())
        .collect();
    assert_eq!(got, reference, "adoption changed a report");
}

/// A zero deadline expires structurally; dropping the deadline then
/// serves the very same request at full fidelity.
#[test]
fn expired_request_recovers_once_the_deadline_is_dropped() {
    let reqs = workload_batch();
    let reference = plain_signatures(&reqs);
    let service = CompileService::new(ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    });

    let doomed: Vec<SuiteRequest> = reqs
        .iter()
        .map(|r| r.clone().with_deadline(Duration::ZERO))
        .collect();
    let out = service.compile_many(&doomed);
    for o in &out.outcomes {
        assert_eq!(o.served, Served::DeadlineExpired, "{}", o.name);
        let r = o.artifact.compile().expect("partial report, not absence");
        assert!(r.report.deadline_expired);
    }
    assert_eq!(out.stats.deadline_expired, reqs.len());

    // Nothing half-done was retained: the deadline-free retry is a
    // cold, full-fidelity compile identical to the plain reference.
    let out = service.compile_many(&reqs);
    assert_eq!(out.stats.cold, reqs.len());
    let got: Vec<String> = out
        .outcomes
        .iter()
        .map(|o| o.artifact.signature())
        .collect();
    assert_eq!(got, reference);
}

/// Held capacity forces the whole resilience surface at once: shed
/// requests answer `Rejected`, admitted ones compile degraded, and the
/// overload latch clears only after the hold drains.
#[test]
fn held_capacity_sheds_degrades_and_recovers() {
    let service = CompileService::new(ServiceConfig {
        workers: 2,
        max_pending: 4,
        high_watermark: 3,
        low_watermark: 2,
        ..ServiceConfig::default()
    });
    let reqs = workload_batch();

    {
        let _hold = service.hold_capacity(3);
        assert!(service.overloaded());
        let out = service.compile_many(&reqs);
        // Capacity 1: one admitted (degraded by depth), one shed.
        assert_eq!(out.stats.rejected, 1, "{:?}", out.stats);
        assert_eq!(out.stats.degraded, 1, "{:?}", out.stats);
        let shed = out
            .outcomes
            .iter()
            .find(|o| o.served == Served::Rejected)
            .expect("one outcome was shed");
        assert!(shed.artifact.compile().is_none(), "nothing ran for {}", shed.name);
    }

    assert!(!service.overloaded(), "latch clears once the hold drains");
    let out = service.compile_many(&reqs);
    assert_eq!(out.stats.rejected, 0);
    assert_eq!(out.stats.degraded, 0);
    let reference = plain_signatures(&reqs);
    let got: Vec<String> = out
        .outcomes
        .iter()
        .map(|o| o.artifact.signature())
        .collect();
    assert_eq!(got, reference, "post-recovery compiles are full fidelity");
}

/// A crash-looping suite strikes out, is refused with a structured
/// `Quarantined` answer, and never poisons an innocent suite sharing
/// the same service.
#[test]
fn quarantine_is_per_suite_not_per_service() {
    let profile =
        CompilerProfile::polaris2008().with_fault(PassId::DataDependence, "FZPANIC", None);
    let service = CompileService::new(ServiceConfig {
        profile,
        workers: 1,
        quarantine_strikes: 2,
        quarantine_backoff_ms: 60_000, // no probation within this test
        ..ServiceConfig::default()
    });

    let mut rng = Rng::new(BASE_SEED ^ 0xFA11);
    let bad_src = gen_program(&mut rng, &GenConfig::default())
        .replace("PROGRAM FUZZ", "PROGRAM FZPANIC");
    let bad = SuiteRequest::new("bad", bad_src);
    let good = workload_batch().remove(1);

    for strike in 0..2 {
        let out = service.compile_many(std::slice::from_ref(&bad));
        assert_eq!(out.outcomes[0].served, Served::Cold, "strike {}", strike);
        let r = out.outcomes[0].artifact.compile().expect("contained");
        assert!(r.report.panicked_loops() > 0, "fault fired on strike {}", strike);
    }
    let out = service.compile_many(&[bad.clone(), good.clone()]);
    assert_eq!(out.outcomes[0].served, Served::Quarantined);
    assert!(
        out.outcomes[0].artifact.compile().is_none(),
        "quarantined suites are refused, not recompiled"
    );
    assert_eq!(
        out.outcomes[1].artifact.signature(),
        plain_signatures(std::slice::from_ref(&good))[0],
        "the innocent suite is untouched"
    );
    assert_eq!(service.quarantined_suites(), 1);
}
