//! Chaos/soak harness for the compile service's resilience layer.
//!
//! Drives one [`CompileService`] (with an injected analysis fault
//! armed) through hundreds of seeded adversarial requests — clean
//! programs, garbled programs, deadline-carrying op bombs, a small
//! pool of crash-looping suites, and duplicate storms — in batches of
//! varying size, with every fifth batch issued while most of the
//! pending queue is held occupied. The artifact (`BENCH_resilience.json`)
//! records the structural classification of every response and the
//! harness's gates:
//!
//! * **zero escaped panics** — nothing gets past the service's
//!   containment, under any mix;
//! * **bounded queue** — the pending depth never exceeds the
//!   configured `max_pending`;
//! * **identity** — every full-fidelity response (`Cold` / `CacheHit` /
//!   `Deduped`) is bit-identical to a plain service-free `Compiler`
//!   compile of the same source;
//! * **total classification** — the adversarial mix actually produces
//!   every structured refusal class (`Rejected`, `DeadlineExpired`,
//!   `Quarantined`, `Degraded`), so none of the paths is dead;
//! * **quarantine convergence** — each crash-looping suite is compiled
//!   only a bounded number of times (strikes plus backoff probations),
//!   not once per request;
//! * **daemon survival** — a scripted daemon session under held
//!   capacity answers `REJECTED` and `"overloaded":true`, then serves
//!   normally once the hold drops.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

use apar_core::{Compiler, CompilerProfile, PassId};
use apar_minicheck::fortgen::{gen_op_bomb, gen_program, GenConfig};
use apar_minicheck::{Rng, BASE_SEED};
use apar_service::daemon::serve;
use apar_service::{CompileService, Served, ServiceConfig, SuiteRequest};

use crate::json::{Json, ToJson};

const GOLDEN: u64 = 0x9E3779B97F4A7C15;

/// How many crash-looping suites the soak cycles through. Small on
/// purpose: quarantine convergence is only visible when the same bad
/// suite comes back again and again.
const PANIC_POOL: usize = 4;

/// Distinct clean suites the duplicate storms draw from.
const DUP_POOL: usize = 3;

/// The `BENCH_resilience.json` payload.
#[derive(Clone, Debug)]
pub struct ResilienceData {
    pub requests: usize,
    pub batches: usize,
    pub workers: usize,
    pub max_pending: usize,
    // Structural classification of every response.
    pub cold: usize,
    pub cache_hits: usize,
    pub deduped: usize,
    pub deadline_expired: usize,
    pub rejected: usize,
    pub quarantined: usize,
    pub degraded: usize,
    /// Contained whole-compile panics ([`SuiteArtifact::Failed`]) — the
    /// per-loop sandbox should make this zero even under fault
    /// injection.
    pub failed: usize,
    /// Panics that escaped `compile_many` into the harness. Gate: zero.
    pub escaped_panics: usize,
    /// Full-fidelity responses compared against a plain compile.
    pub identity_checked: usize,
    /// Comparisons that diverged. Gate: zero.
    pub identity_divergences: usize,
    /// Deepest the pending queue ever was. Gate: ≤ `max_pending`.
    pub peak_pending: usize,
    /// Most times any one crash-looping suite was actually compiled.
    pub panic_source_max_compiles: usize,
    /// The convergence bound that count must stay under
    /// (strikes + backoff-probation allowance).
    pub panic_compile_bound: usize,
    /// Suites under active quarantine when the soak ended.
    pub quarantined_suites_final: usize,
    /// Scripted daemon phase verdict (REJECTED under hold, recovery
    /// after, deadline expiry over the wire, loop survives garbage).
    pub daemon_ok: bool,
    /// `REJECTED` answers the daemon phase produced.
    pub daemon_rejected: usize,
    pub wall_s: f64,
}

impl ResilienceData {
    /// The CI contract.
    pub fn ok(&self) -> bool {
        self.escaped_panics == 0
            && self.identity_divergences == 0
            && self.failed == 0
            && self.peak_pending <= self.max_pending
            && self.identity_checked > 0
            && self.rejected > 0
            && self.deadline_expired > 0
            && self.quarantined > 0
            && self.degraded > 0
            && self.panic_source_max_compiles <= self.panic_compile_bound
            && self.daemon_ok
    }
}

impl ToJson for ResilienceData {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("requests", self.requests.to_json()),
            ("batches", self.batches.to_json()),
            ("workers", self.workers.to_json()),
            ("max_pending", self.max_pending.to_json()),
            ("cold", self.cold.to_json()),
            ("cache_hits", self.cache_hits.to_json()),
            ("deduped", self.deduped.to_json()),
            ("deadline_expired", self.deadline_expired.to_json()),
            ("rejected", self.rejected.to_json()),
            ("quarantined", self.quarantined.to_json()),
            ("degraded", self.degraded.to_json()),
            ("failed", self.failed.to_json()),
            ("escaped_panics", self.escaped_panics.to_json()),
            ("identity_checked", self.identity_checked.to_json()),
            (
                "identity_divergences",
                self.identity_divergences.to_json(),
            ),
            ("peak_pending", self.peak_pending.to_json()),
            (
                "panic_source_max_compiles",
                self.panic_source_max_compiles.to_json(),
            ),
            ("panic_compile_bound", self.panic_compile_bound.to_json()),
            (
                "quarantined_suites_final",
                self.quarantined_suites_final.to_json(),
            ),
            ("daemon_ok", self.daemon_ok.to_json()),
            ("daemon_rejected", self.daemon_rejected.to_json()),
            ("wall_s", self.wall_s.to_json()),
            ("ok", self.ok().to_json()),
        ])
    }
}

fn case_seed(i: usize) -> u64 {
    BASE_SEED ^ (i as u64).wrapping_mul(GOLDEN)
}

/// One request of the adversarial mix. `kind` decides the family; the
/// request index seeds the generator so the stream is reproducible.
fn soak_request(i: usize, rng: &mut Rng) -> SuiteRequest {
    let mut gen_rng = Rng::new(case_seed(i));
    let roll = rng.usize_in(0, 99);
    if roll < 30 {
        // Fresh clean program: always a cold, full-fidelity compile.
        SuiteRequest::new(
            format!("clean-{}", i),
            gen_program(&mut gen_rng, &GenConfig::default()),
        )
    } else if roll < 45 {
        // Garbled program: recovery diagnostics, still full fidelity.
        let cfg = GenConfig {
            garble: 0.12,
            ..GenConfig::default()
        };
        SuiteRequest::new(format!("garbled-{}", i), gen_program(&mut gen_rng, &cfg))
    } else if roll < 60 {
        // Deadline-carrying op bomb. Half expire deterministically
        // (zero budget); half race a 2ms budget — both outcomes are
        // structurally valid, which is the point.
        let deadline = if rng.weighted(0.5) {
            Duration::ZERO
        } else {
            Duration::from_millis(2)
        };
        SuiteRequest::new(format!("bomb-{}", i), gen_op_bomb(&mut gen_rng))
            .with_deadline(deadline)
    } else if roll < 75 {
        // Crash-looping suite from the small pool: the injected fault
        // fires on every loop of unit FZPANIC, so this source strikes
        // out and must converge into quarantine.
        let p = rng.usize_in(0, PANIC_POOL - 1);
        let mut pool_rng = Rng::new(case_seed(1_000 + p));
        let src = gen_program(&mut pool_rng, &GenConfig::default())
            .replace("PROGRAM FUZZ", "PROGRAM FZPANIC");
        SuiteRequest::new(format!("panic-p{}", p), src)
    } else {
        // Duplicate storm: a source from the small clean pool, again.
        let d = rng.usize_in(0, DUP_POOL - 1);
        let mut pool_rng = Rng::new(case_seed(2_000 + d));
        SuiteRequest::new(
            format!("dup-d{}", d),
            gen_program(&mut pool_rng, &GenConfig::default()),
        )
    }
}

/// The scripted daemon phase: one session under held capacity (must
/// reject compiles but keep answering `HEALTH`/`STATS`), one after the
/// hold drops (must compile again, honor wire deadlines, and survive
/// garbage). Returns (ok, rejected count).
fn daemon_phase(service: &CompileService) -> (bool, usize) {
    let held_out = {
        let _hold = service.hold_capacity(service.config().max_pending - 2);
        let input: &[u8] =
            b"HEALTH\nSRC held 2\nPROGRAM MAIN\nEND\nFILE /nonexistent/apar-soak\nQUIT\n";
        let mut out = Vec::new();
        match serve(service, input, &mut out) {
            Ok(s) => (s, String::from_utf8_lossy(&out).into_owned()),
            Err(_) => return (false, 0),
        }
    };
    let (held_summary, held) = held_out;
    let input: &[u8] = b"HEALTH\nSRC again 5 \nPROGRAM MAIN\nINTEGER I\nDO I = 1, 9\nENDDO\nEND\nSRC dead 5 0\nPROGRAM MAIN\nINTEGER I\nDO I = 1, 77\nENDDO\nEND\n)(garbage\nSTATS\nQUIT\n";
    let mut out = Vec::new();
    let Ok(summary) = serve(service, input, &mut out) else {
        return (false, held_summary.rejected);
    };
    let after = String::from_utf8_lossy(&out);
    let ok = held.contains("\"overloaded\":true")
        && held.contains("REJECTED overload")
        && held_summary.rejected == 2
        && held_summary.quit
        && after.contains("\"overloaded\":false")
        && after.contains("\"served\":\"cold\"")
        && after.contains("\"served\":\"expired\"")
        && summary.errors == 1
        && summary.quit;
    (ok, held_summary.rejected)
}

/// Runs the soak: `requests` adversarial requests through one service
/// at `workers` workers, then the scripted daemon phase.
pub fn soak(requests: usize, workers: usize) -> ResilienceData {
    let t0 = std::time::Instant::now();
    // Contained panics (the injected fault) would otherwise print a
    // backtrace each; keep the soak's output readable.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));

    let profile =
        CompilerProfile::polaris2008().with_fault(PassId::DataDependence, "FZPANIC", None);
    let config = ServiceConfig {
        profile: profile.clone(),
        workers,
        result_entries: 64,
        max_pending: 8,
        high_watermark: 6,
        low_watermark: 3,
        quarantine_strikes: 3,
        quarantine_backoff_ms: 200,
        ..ServiceConfig::default()
    };
    let max_pending = config.max_pending;
    let quarantine_strikes = config.quarantine_strikes as usize;
    let service = CompileService::new(config);

    let mut data = ResilienceData {
        requests: 0,
        batches: 0,
        workers,
        max_pending,
        cold: 0,
        cache_hits: 0,
        deduped: 0,
        deadline_expired: 0,
        rejected: 0,
        quarantined: 0,
        degraded: 0,
        failed: 0,
        escaped_panics: 0,
        identity_checked: 0,
        identity_divergences: 0,
        peak_pending: 0,
        panic_source_max_compiles: 0,
        // Strikes, plus a probation compile for each backoff lapse a
        // multi-second soak can plausibly see.
        panic_compile_bound: quarantine_strikes + 8,
        quarantined_suites_final: 0,
        daemon_ok: false,
        daemon_rejected: 0,
        wall_s: 0.0,
    };

    // Lazily memoized plain-compiler reference signatures, keyed by
    // request source. The plain compile uses the same (faulted)
    // profile, no service: the identity oracle.
    let mut reference: HashMap<String, String> = HashMap::new();
    let plain = Compiler::new(profile);
    // Compiles actually run per crash-looping suite name.
    let mut panic_compiles: HashMap<String, usize> = HashMap::new();

    let mut mix_rng = Rng::new(BASE_SEED ^ GOLDEN);
    let mut next = 0usize;
    while next < requests {
        // Mostly small batches (full-tier compiles for the identity
        // oracle), occasionally a storm that overflows admission.
        let size = if mix_rng.weighted(0.7) {
            mix_rng.usize_in(1, 3)
        } else {
            mix_rng.usize_in(4, 12)
        };
        let size = size.min(requests - next);
        let mut batch: Vec<SuiteRequest> =
            (0..size).map(|k| soak_request(next + k, &mut mix_rng)).collect();
        next += size;
        data.batches += 1;

        // Every fifth batch runs with most of the queue held occupied:
        // deterministic shedding and parse-only degradation. Force a
        // fresh clean request in so the degraded path really compiles.
        let held = data.batches.is_multiple_of(5);
        let hold = if held {
            let mut fresh = Rng::new(case_seed(3_000 + data.batches));
            batch[0] = SuiteRequest::new(
                format!("held-{}", data.batches),
                gen_program(&mut fresh, &GenConfig::default()),
            );
            Some(service.hold_capacity(max_pending - 2))
        } else {
            None
        };

        let outcome = catch_unwind(AssertUnwindSafe(|| service.compile_many(&batch)));
        drop(hold);
        let result = match outcome {
            Ok(b) => b,
            Err(_) => {
                data.escaped_panics += 1;
                data.requests += size;
                continue;
            }
        };

        data.requests += size;
        for (req, o) in batch.iter().zip(&result.outcomes) {
            match o.served {
                Served::Cold => data.cold += 1,
                Served::CacheHit => data.cache_hits += 1,
                Served::Deduped => data.deduped += 1,
                Served::DeadlineExpired => data.deadline_expired += 1,
                Served::Rejected => data.rejected += 1,
                Served::Quarantined => data.quarantined += 1,
                Served::Degraded => data.degraded += 1,
            }
            if matches!(&*o.artifact, apar_service::SuiteArtifact::Failed(_)) {
                data.failed += 1;
            }
            if req.name.starts_with("panic-") && o.artifact.compile().is_some() {
                *panic_compiles.entry(req.name.clone()).or_insert(0) += 1;
            }
            if o.served.full_fidelity() {
                let sig = reference.entry(req.source.clone()).or_insert_with(|| {
                    plain
                        .compile_source_recovering(&req.name, &req.source)
                        .report_signature()
                });
                data.identity_checked += 1;
                if o.artifact.signature() != *sig {
                    data.identity_divergences += 1;
                }
            }
        }
    }

    data.peak_pending = service.peak_pending();
    data.panic_source_max_compiles = panic_compiles.values().copied().max().unwrap_or(0);
    data.quarantined_suites_final = service.quarantined_suites();

    let (daemon_ok, daemon_rejected) = daemon_phase(&service);
    data.daemon_ok = daemon_ok;
    data.daemon_rejected = daemon_rejected;

    std::panic::set_hook(prev_hook);
    data.wall_s = t0.elapsed().as_secs_f64();
    data
}

/// ASCII rendering of the soak.
pub fn render(d: &ResilienceData) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "resilience soak: {} requests in {} batches, {} workers, {:.2}s\n",
        d.requests, d.batches, d.workers, d.wall_s
    ));
    out.push_str(&format!(
        "classes: {} cold, {} hits, {} dedup, {} expired, {} rejected, {} quarantined, {} degraded, {} failed\n",
        d.cold,
        d.cache_hits,
        d.deduped,
        d.deadline_expired,
        d.rejected,
        d.quarantined,
        d.degraded,
        d.failed
    ));
    out.push_str(&format!(
        "escaped panics {}  identity {}/{} diverged  peak pending {}/{}\n",
        d.escaped_panics,
        d.identity_divergences,
        d.identity_checked,
        d.peak_pending,
        d.max_pending
    ));
    out.push_str(&format!(
        "quarantine: max compiles of one bad suite {} (bound {}), {} suites active at end\n",
        d.panic_source_max_compiles, d.panic_compile_bound, d.quarantined_suites_final
    ));
    out.push_str(&format!(
        "daemon phase: ok={} ({} rejected under hold)\n",
        d.daemon_ok, d.daemon_rejected
    ));
    out.push_str(&format!("OK: {}\n", d.ok()));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_soak_passes_every_gate() {
        // The full 500-request soak is the `bench_resilience` binary's
        // job (and CI's); this keeps a fast sample in the unit suite
        // that still covers every adversarial family and both daemon
        // phases.
        let d = soak(120, 2);
        assert!(d.ok(), "soak failed gates:\n{}", render(&d));
    }

    #[test]
    fn soak_request_stream_is_deterministic() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(1);
        for i in 0..40 {
            let ra = soak_request(i, &mut a);
            let rb = soak_request(i, &mut b);
            assert_eq!(ra.name, rb.name);
            assert_eq!(ra.source, rb.source);
            assert_eq!(ra.deadline, rb.deadline);
        }
    }
}
