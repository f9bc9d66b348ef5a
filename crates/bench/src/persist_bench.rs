//! Crash torture for the durable cache store ([`torture`]): seeded
//! write → kill-at-random-offset → recover → recompile cycles. Each
//! cycle clones a clean snapshot of the tier logs, damages one of them
//! (truncation at a random offset simulating `kill -9` mid-append, a
//! flipped bit, or a clobbered word), then recovers and recompiles at 1
//! or 4 workers. Every few cycles the damage is injected at *write*
//! time instead, through the store's seeded fault shim (short writes,
//! failed flushes and renames, ENOSPC), and a forced-low compaction
//! threshold keeps the rename path hot.
//!
//! The gates CI holds (the `fuzz_compile` binary's third phase): zero
//! escaped panics, zero report divergences, and a nonzero warm-hit
//! count — corruption must cost at most the damaged records, never
//! correctness and never the process. What a clean restart costs on the
//! wall clock is `perf/`'s `restart_recovery` and `durable_restart`.

use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use apar_core::pipeline::panic_message;
use apar_core::{Compiler, CompilerProfile};
use apar_minicheck::{Rng, BASE_SEED};
use apar_service::{
    CompileService, PersistentStore, Served, ServiceConfig, StoreFaults, StoreStats, SuiteRequest,
    Tier,
};

const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// Scratch directories must be unique per use even when tests in one
/// process run concurrently (the store's single-writer lock is
/// process-wide).
static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "apar_persist_bench_{}_{}_{}",
        std::process::id(),
        tag,
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// The torture corpus: three small distinct suites, each with a loop
/// that calls a subroutine so the records cover the inliner's path.
pub fn corpus() -> Vec<SuiteRequest> {
    let alpha = "\
PROGRAM PALPHA
REAL A(100)
DO I = 1, 100
CALL PFILL(A, I)
ENDDO
END
SUBROUTINE PFILL(X, K)
REAL X(100)
X(K) = K * 2.0
END
";
    let beta = "\
PROGRAM PBETA
REAL B(80), C(80)
DO I = 1, 80
CALL PADD(B, C, I)
ENDDO
DO I = 1, 80
C(I) = B(I) * 3.0
ENDDO
END
SUBROUTINE PADD(X, Y, K)
REAL X(80)
REAL Y(80)
X(K) = Y(K) + 1.0
END
";
    let gamma = "\
PROGRAM PGAMMA
REAL S
REAL D(60)
S = 0.0
DO I = 1, 60
CALL PSCALE(D, I)
ENDDO
DO I = 1, 60
S = S + D(I)
ENDDO
END
SUBROUTINE PSCALE(X, K)
REAL X(60)
X(K) = K * 1.5
END
";
    vec![
        SuiteRequest::new("palpha", alpha),
        SuiteRequest::new("pbeta", beta),
        SuiteRequest::new("pgamma", gamma),
    ]
}

/// Plain service-free reference signatures, one per corpus suite — the
/// bit-identity oracle every recovered-state compile is held to.
pub fn reference_signatures() -> Vec<String> {
    let plain = Compiler::new(CompilerProfile::polaris2008());
    corpus()
        .iter()
        .map(|r| {
            plain
                .compile_source_recovering(&r.name, &r.source)
                .report_signature()
        })
        .collect()
}

/// What a torture run observed.
#[derive(Clone, Debug, Default)]
pub struct PersistBenchData {
    /// Torture cycles run.
    pub cycles: usize,
    pub workers_checked: Vec<usize>,
    /// Panics that escaped recovery or a recovered-state compile. Gate:
    /// zero.
    pub escaped_panics: usize,
    /// Recovered-state reports that differed from a plain cold compile.
    /// Gate: zero.
    pub divergences: usize,
    /// Result-cache hits served from recovered state across all
    /// cycles. Gate: nonzero (recovery actually recovers).
    pub warm_hits: u64,
    /// Totals across every recovery in the run.
    pub recovered_loops: u64,
    pub recovered_results: u64,
    pub recovery_refusals: u64,
    pub append_errors: u64,
    pub compactions: u64,
    /// First few failing cycles, described (empty on a green run).
    pub crashers: Vec<String>,
}

impl PersistBenchData {
    /// The CI contract.
    pub fn ok(&self) -> bool {
        self.escaped_panics == 0 && self.divergences == 0 && self.warm_hits > 0
    }

    fn absorb_stats(&mut self, s: &StoreStats) {
        self.recovered_loops += s.recovered_loops;
        self.recovered_results += s.recovered_results;
        self.recovery_refusals += s.recovery_refusals;
        self.append_errors += s.append_errors;
        self.compactions += s.compactions;
    }

    fn note_crasher(&mut self, desc: String) {
        if self.crashers.len() < 10 {
            self.crashers.push(desc);
        }
    }
}

fn service(workers: usize) -> CompileService {
    CompileService::new(ServiceConfig {
        workers,
        ..ServiceConfig::default()
    })
}

/// Seeds a clean store at `dir` and returns the two tier logs' bytes
/// (the snapshot every torture cycle clones).
fn seed_snapshot(dir: &Path) -> [Vec<u8>; 2] {
    let svc = service(2).with_store(dir);
    let batch = svc.compile_many(&corpus());
    assert!(
        batch.outcomes.iter().all(|o| o.served == Served::Cold),
        "snapshot seed must be cold"
    );
    drop(svc);
    Tier::ALL.map(|t| fs::read(dir.join(t.file_name())).expect("seeded tier log"))
}

/// One seeded mutation: kill-at-random-offset truncation, a flipped
/// bit, or a clobbered 4-byte word. Total over any length.
fn mutate(rng: &mut Rng, bytes: &mut Vec<u8>) {
    if bytes.is_empty() {
        return;
    }
    match rng.usize_in(0, 2) {
        0 => {
            // The process died mid-append: everything past a random
            // offset never reached the disk.
            let keep = rng.usize_in(0, bytes.len() - 1);
            bytes.truncate(keep);
        }
        1 => {
            let at = rng.usize_in(0, bytes.len() - 1);
            bytes[at] ^= 1 << rng.usize_in(0, 7);
        }
        _ => {
            let at = rng.usize_in(0, bytes.len() - 1);
            for i in at..bytes.len().min(at + 4) {
                bytes[i] = (rng.next_u64() & 0xFF) as u8;
            }
        }
    }
}

/// What one recovered-state check observed.
struct CycleCheck {
    stats: StoreStats,
    hits: u64,
    diverged: bool,
}

/// Opens a service over `dir`, recompiles the corpus, and holds every
/// answer to the plain reference. Runs under `catch_unwind` upstairs.
fn check_recovery(dir: &Path, workers: usize, refs: &[String]) -> CycleCheck {
    let svc = service(workers).with_store(dir);
    let batch = svc.compile_many(&corpus());
    let hits = batch
        .outcomes
        .iter()
        .filter(|o| o.served == Served::CacheHit)
        .count() as u64;
    let diverged = batch
        .outcomes
        .iter()
        .zip(refs)
        .any(|(o, r)| &o.artifact.signature() != r);
    CycleCheck {
        stats: svc.store_stats(),
        hits,
        diverged,
    }
}

/// The crash-torture loop: `cycles` seeded kill/recover/recompile
/// rounds over clean-snapshot clones — the store-loader fuzzer the
/// `fuzz_compile` binary drives as its third phase.
pub fn torture(cycles: usize) -> PersistBenchData {
    let mut data = PersistBenchData {
        cycles,
        workers_checked: vec![1, 4],
        ..Default::default()
    };

    let snap_dir = scratch("snapshot");
    let clean = seed_snapshot(&snap_dir);
    let _ = fs::remove_dir_all(&snap_dir);
    let refs = reference_signatures();

    // Caught panics from hostile bytes print backtraces by default;
    // silence the hook for the duration (same policy as the compile
    // fuzzer).
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    for cycle in 0..cycles {
        let mut rng = Rng::new(BASE_SEED ^ (cycle as u64).wrapping_mul(GOLDEN));
        let workers = if cycle % 2 == 0 { 1 } else { 4 };
        let dir = scratch("cycle");

        let checked = if cycle % 8 == 7 {
            // Fault-injected *write* cycle: the damage happens inside
            // append/flush/rename, then a clean service recovers from
            // whatever actually landed.
            let faults = StoreFaults {
                seed: rng.next_u64(),
                write_fail_1_in: 4,
                short_write_1_in: 3,
                flush_fail_1_in: 5,
                rename_fail_1_in: 2,
                read_fail_1_in: 0,
            };
            catch_unwind(AssertUnwindSafe(|| {
                let store = PersistentStore::open_with_faults(&dir, faults)
                    .with_compact_bytes(256);
                let svc = service(workers).attach_store(store);
                let batch = svc.compile_many(&corpus());
                let diverged = batch
                    .outcomes
                    .iter()
                    .zip(&refs)
                    .any(|(o, r)| &o.artifact.signature() != r);
                let stats = svc.store_stats();
                drop(svc);
                let mut after = check_recovery(&dir, workers, &refs);
                after.diverged |= diverged;
                after.stats.append_errors += stats.append_errors;
                after.stats.compactions += stats.compactions;
                after
            }))
        } else {
            // Clone the clean snapshot, damage one tier, recover.
            fs::create_dir_all(&dir).expect("cycle dir");
            for (i, (tier, bytes)) in Tier::ALL.iter().zip(clean.iter()).enumerate() {
                let mut copy = bytes.clone();
                if cycle % Tier::ALL.len() == i {
                    mutate(&mut rng, &mut copy);
                }
                fs::write(dir.join(tier.file_name()), &copy).expect("write cycle log");
            }
            catch_unwind(AssertUnwindSafe(|| check_recovery(&dir, workers, &refs)))
        };

        match checked {
            Ok(check) => {
                data.warm_hits += check.hits;
                data.absorb_stats(&check.stats);
                if check.diverged {
                    data.divergences += 1;
                    data.note_crasher(format!("cycle {cycle}: report divergence"));
                }
            }
            Err(p) => {
                data.escaped_panics += 1;
                let msg = panic_message(p.as_ref());
                data.note_crasher(format!("cycle {cycle}: panic: {msg}"));
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }
    std::panic::set_hook(prev);
    data
}

/// ASCII rendering of a torture run.
pub fn render(d: &PersistBenchData) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "persistence bench: {} kill/recover cycles (workers {:?})\n",
        d.cycles, d.workers_checked
    ));
    out.push_str(&format!(
        "torture: {} warm hits, recovered l/r {}/{}, {} refusals, \
         {} append errors, {} compactions\n",
        d.warm_hits,
        d.recovered_loops,
        d.recovered_results,
        d.recovery_refusals,
        d.append_errors,
        d.compactions
    ));
    out.push_str(&format!(
        "gates: escaped_panics={} divergences={} warm_hits>0={} (ok: {})\n",
        d.escaped_panics,
        d.divergences,
        d.warm_hits > 0,
        d.ok()
    ));
    for c in &d.crashers {
        out.push_str(&format!("  ! {}\n", c));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_torture_recovers_without_panic_or_divergence() {
        let d = torture(16);
        assert_eq!(d.escaped_panics, 0, "{}", render(&d));
        assert_eq!(d.divergences, 0, "{}", render(&d));
        assert!(d.warm_hits > 0, "{}", render(&d));
        assert!(
            d.recovery_refusals > 0,
            "sixteen mutated cycles must refuse something: {}",
            render(&d)
        );
        assert!(d.ok(), "{}", render(&d));
    }

    #[test]
    fn mutators_are_deterministic() {
        let mut a = vec![0u8; 64];
        let mut b = vec![0u8; 64];
        mutate(&mut Rng::new(42), &mut a);
        mutate(&mut Rng::new(42), &mut b);
        assert_eq!(a, b);
    }
}
