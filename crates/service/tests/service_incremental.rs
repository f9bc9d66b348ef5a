//! Incremental recompilation: after an edit, loops whose per-loop
//! content key is unchanged are spliced from the shared store instead
//! of re-analyzed — and a spliced report must be bit-identical to a
//! cold one, at every thread count, or the splice layer is broken.
//!
//! The key's content closure is unit-granular (the unit's printed text
//! plus every unit reachable from it post-inline), so these programs
//! put each loop in its own subroutine: an edit then invalidates
//! exactly the loops whose closure saw it, and the rest must splice.

use std::sync::Arc;

use apar_analysis::{LoopRecordStore, LoopStoreStats};
use apar_core::{Compiler, CompilerProfile};

/// Three loops in three call-disjoint units, one of which funnels
/// through a callee — the inliner's invalidation path.
const BASE: &str = "\
PROGRAM MAIN
REAL A(100), B(100), C(100)
CALL PURE1(A)
CALL WORK(B)
CALL PURE2(C)
END
SUBROUTINE PURE1(X)
REAL X(100)
DO I = 1, 100
X(I) = X(I) + 1.0
ENDDO
END
SUBROUTINE WORK(X)
REAL X(100)
DO I = 1, 100
CALL SET(X, I)
ENDDO
END
SUBROUTINE SET(X, K)
REAL X(100)
X(K) = K * 4.0
END
SUBROUTINE PURE2(X)
REAL X(100)
DO I = 1, 100
X(I) = X(I) * 2.0
ENDDO
END
";

fn edit(base: &str, from: &str, to: &str) -> String {
    assert!(base.contains(from), "edit anchor {from:?} not in source");
    base.replacen(from, to, 1)
}

/// Compile `base` cold through a fresh store, then `after` warm through
/// the same store, at the given thread count. Asserts the warm report
/// is bit-identical to a plain store-free compile of `after`, and
/// returns the warm pass's loop-tier counter deltas.
fn recompile(
    base: &str,
    after: &str,
    threads: usize,
) -> LoopStoreStats {
    let profile = CompilerProfile::polaris2008().with_threads(threads);
    let store = Arc::new(LoopRecordStore::bounded(512));
    let cold = Compiler::new(profile.clone())
        .with_loop_store(Arc::clone(&store))
        .compile_source("suite", base)
        .expect("cold compile");
    let plain_cold = Compiler::new(profile.clone())
        .compile_source("suite", base)
        .expect("plain cold compile");
    assert_eq!(
        cold.report_signature(),
        plain_cold.report_signature(),
        "attaching a store changed a cold report (threads={threads})"
    );

    let before = store.stats();
    let warm = Compiler::new(profile.clone())
        .with_loop_store(Arc::clone(&store))
        .compile_source("suite", after)
        .expect("warm compile");
    let plain = Compiler::new(profile)
        .compile_source("suite", after)
        .expect("plain compile");
    assert_eq!(
        warm.report_signature(),
        plain.report_signature(),
        "spliced recompile diverged from a cold compile (threads={threads})"
    );
    store.stats().since(&before)
}

#[test]
fn one_line_edit_splices_every_untouched_unit() {
    for threads in [1, 4] {
        let after = edit(BASE, "X(I) + 1.0", "X(I) + 1.5");
        let d = recompile(BASE, &after, threads);
        // PURE1's loop re-analyzes; WORK's and PURE2's splice.
        assert_eq!(d.loop_hits, 2, "threads={threads}: {d:?}");
        assert_eq!(d.loop_misses, 1, "threads={threads}: {d:?}");
        assert_eq!(d.loop_refusals, 0, "threads={threads}: {d:?}");
    }
}

#[test]
fn callee_edit_invalidates_callers_through_the_inliner() {
    for threads in [1, 4] {
        // SET's body changes but WORK's own text does not: WORK's loop
        // key must still change, because SET is inlined into it.
        let after = edit(BASE, "K * 4.0", "K * 5.0");
        let d = recompile(BASE, &after, threads);
        assert_eq!(
            d.loop_misses, 1,
            "threads={threads}: the caller loop re-analyzed: {d:?}"
        );
        assert_eq!(d.loop_hits, 2, "threads={threads}: {d:?}");
        assert_eq!(d.loop_refusals, 0, "threads={threads}: {d:?}");
    }
}

#[test]
fn whitespace_only_edit_splices_every_loop() {
    for threads in [1, 4] {
        // Extra spaces vanish in the resolved program's printed text,
        // so every loop's content key is unchanged.
        let after = edit(BASE, "X(I) = X(I) + 1.0", "X(I)  =  X(I)   +  1.0");
        let d = recompile(BASE, &after, threads);
        assert_eq!(d.loop_hits, 3, "threads={threads}: {d:?}");
        assert_eq!(d.loop_misses, 0, "threads={threads}: {d:?}");
    }
}

#[test]
fn eviction_squeeze_misses_every_splice_yet_identity_holds() {
    // A store squeezed to 8 loop records.
    // Flushing it with an 8-loop suite evicts everything the first
    // suite stored: the recompile then misses every splice lookup and
    // must fall back to full re-analysis with an identical report.
    let mut flush = String::from("PROGRAM FLUSH\nREAL Z(50)\n");
    for _ in 0..8 {
        flush.push_str("DO I = 1, 50\nZ(I) = Z(I) + 1.0\nENDDO\n");
    }
    flush.push_str("END\n");

    let profile = CompilerProfile::polaris2008();
    let store = Arc::new(LoopRecordStore::bounded(8));
    let with_store = |src: &str| {
        Compiler::new(profile.clone())
            .with_loop_store(Arc::clone(&store))
            .compile_source("suite", src)
            .expect("compile")
    };
    with_store(BASE);
    with_store(&flush);

    let before = store.stats();
    let warm = with_store(BASE);
    let d = store.stats().since(&before);
    assert_eq!(d.loop_hits, 0, "every record was evicted: {d:?}");
    assert_eq!(d.loop_misses, 3, "{d:?}");
    assert!(before.loop_entries <= 8, "{before:?}");

    let plain = Compiler::new(profile)
        .compile_source("suite", BASE)
        .expect("plain compile");
    assert_eq!(
        warm.report_signature(),
        plain.report_signature(),
        "an all-miss recompile diverged"
    );
}

#[test]
fn one_line_value_edit_in_a_five_suite_batch_recompiles_one_suite_by_splicing() {
    use apar_service::{CompileService, ServiceConfig, SuiteRequest};
    use apar_workloads::{gamess, linpack, perfect, sander, seismic, DataSize, Variant};

    // The "tweak a parameter, rerun" loop: a value edit in SEISMIC's
    // main unit, which nothing calls, so loop keys outside it survive.
    let mut reqs: Vec<SuiteRequest> = [
        seismic::full_suite(DataSize::Small, Variant::Serial),
        gamess::suite(DataSize::Small),
        sander::suite(DataSize::Small),
        perfect::codes().swap_remove(0),
        linpack::suite(),
    ]
    .into_iter()
    .map(|w| SuiteRequest::new(w.name, w.source))
    .collect();
    let service = CompileService::new(ServiceConfig::default());
    service.compile_many(&reqs);
    reqs[0].source = edit(&reqs[0].source, "DT = 0.002", "DT = 0.502");

    let out = service.compile_many(&reqs);
    assert_eq!((out.stats.result_hits, out.stats.cold), (4, 1), "{:?}", out.stats);
    assert!(out.stats.facts.loop_hits > 0, "{:?}", out.stats);
    assert_eq!(out.stats.facts.loop_refusals, 0, "{:?}", out.stats);
    let plain = Compiler::new(CompilerProfile::polaris2008());
    for (r, o) in reqs.iter().zip(&out.outcomes) {
        let reference = plain.compile_source_recovering(&r.name, &r.source);
        assert_eq!(o.artifact.signature(), reference.report_signature(), "{}", r.name);
    }
}
