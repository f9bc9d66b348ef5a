//! Durable-store persistence: write → kill → recover round-trips.
//!
//! The store's contract is *zero trust in file contents*: every test
//! here damages the logs some way — torn tail, flipped bit, stale
//! version header, unusable directory, contended lock, a real `kill -9`
//! of a serving daemon — and recovery must refuse exactly the damaged
//! records (structured counters, never a panic) while everything that
//! survives serves warm and bit-identical to a cold compile.

use std::fs;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};

use apar_service::{CompileService, PersistentStore, Served, ServiceConfig, SuiteRequest};

/// A fresh scratch directory per test (removed up front so a crashed
/// prior run can't leak state in).
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "apar_persist_it_{}_{}",
        std::process::id(),
        tag
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Three small distinct suites whose loops call subroutines, so the
/// persisted loop records cover the inliner's path too.
fn suites() -> Vec<SuiteRequest> {
    let alpha = "\
PROGRAM ALPHA
REAL A(100)
DO I = 1, 100
CALL FILLA(A, I)
ENDDO
END
SUBROUTINE FILLA(X, K)
REAL X(100)
X(K) = K * 2.0
END
";
    let beta = "\
PROGRAM BETA
REAL B(80), C(80)
DO I = 1, 80
CALL ADDB(B, C, I)
ENDDO
DO I = 1, 80
C(I) = B(I) * 3.0
ENDDO
END
SUBROUTINE ADDB(X, Y, K)
REAL X(80)
REAL Y(80)
X(K) = Y(K) + 1.0
END
";
    let gamma = "\
PROGRAM GAMMA
REAL S
REAL D(60)
S = 0.0
DO I = 1, 60
CALL SCALED(D, I)
ENDDO
DO I = 1, 60
S = S + D(I)
ENDDO
END
SUBROUTINE SCALED(X, K)
REAL X(60)
X(K) = K * 1.5
END
";
    vec![
        SuiteRequest::new("alpha", alpha),
        SuiteRequest::new("beta", beta),
        SuiteRequest::new("gamma", gamma),
    ]
}

fn service(workers: usize) -> CompileService {
    CompileService::new(ServiceConfig {
        workers,
        ..ServiceConfig::default()
    })
}

/// What seeding wrote: the cold report signatures plus the exact
/// loop-tier record count the store persisted.
struct Seeded {
    cold_sigs: Vec<String>,
    loop_records: u64,
}

/// Compiles the corpus through a store at `dir`, returns what was
/// persisted, and drops the service (releasing the lock).
fn seed_store(dir: &Path) -> Seeded {
    let svc = service(2).with_store(dir);
    let batch = svc.compile_many(&suites());
    assert!(
        batch.outcomes.iter().all(|o| o.served == Served::Cold),
        "seed batch must be cold"
    );
    let stats = svc.store_stats();
    assert!(stats.enabled && !stats.read_only, "{stats:?}");
    assert!(stats.appended_records > 0, "{stats:?}");
    assert_eq!(stats.append_errors, 0, "{stats:?}");
    let loop_records = svc.loop_store().loop_snapshot().len() as u64;
    assert!(loop_records > 0, "corpus must exercise the loop tier");
    Seeded {
        cold_sigs: batch
            .outcomes
            .iter()
            .map(|o| o.artifact.signature())
            .collect(),
        loop_records,
    }
}

/// Recovery is the same whether or not an older build left a
/// `facts.log` behind (the tier no longer exists): the file is never
/// opened, so it is neither loaded, nor counted, nor a refusal.
#[test]
fn restart_recovers_every_tier_and_serves_warm() {
    let stale_facts_logs: [Option<&[u8]>; 3] = [
        None,
        Some(b"APST0001\xA5REC\x02\x00\x00\x00\x00\x00\x00\x00{}"),
        Some(b"\x00\xFFnot a log at all"),
    ];
    let mut store_bytes = Vec::new();
    for (n, stale) in stale_facts_logs.into_iter().enumerate() {
        let dir = scratch(&format!("roundtrip{n}"));
        let seeded = seed_store(&dir);
        if let Some(bytes) = stale {
            fs::write(dir.join("facts.log"), bytes).expect("plant stale facts.log");
        }

        let svc = service(2).with_store(&dir);
        let s = svc.store_stats();
        assert_eq!(s.recovered_results, 3, "{s:?}");
        assert_eq!(s.recovered_loops, seeded.loop_records, "{s:?}");
        assert_eq!(s.recovery_refusals, 0, "undamaged logs refuse nothing: {s:?}");
        store_bytes.push(s.store_bytes);

        let warm = svc.compile_many(&suites());
        for (o, cold_sig) in warm.outcomes.iter().zip(&seeded.cold_sigs) {
            assert_eq!(o.served, Served::CacheHit, "{}: {:?}", o.name, o.served);
            assert_eq!(
                &o.artifact.signature(),
                cold_sig,
                "{}: recovered result diverged from the cold compile",
                o.name
            );
        }
        assert_eq!(warm.stats.result_hits, 3, "{:?}", warm.stats);
        drop(svc);
        let _ = fs::remove_dir_all(&dir);
    }
    assert!(
        store_bytes.iter().all(|b| *b == store_bytes[0]),
        "a stale facts.log is not store state: {store_bytes:?}"
    );
}

#[test]
fn torn_tail_refuses_exactly_the_last_record() {
    let dir = scratch("torn");
    let cold_sigs = seed_store(&dir).cold_sigs;

    // Simulate a crash mid-append: the last 7 bytes of the results log
    // never made it to disk.
    let log = dir.join("results.log");
    let len = fs::metadata(&log).expect("results.log exists").len();
    let f = fs::OpenOptions::new().write(true).open(&log).expect("open log");
    f.set_len(len - 7).expect("truncate");
    drop(f);

    let svc = service(2).with_store(&dir);
    let s = svc.store_stats();
    assert_eq!(s.refused_framing, 1, "exactly the torn record: {s:?}");
    assert_eq!(s.recovery_refusals, 1, "{s:?}");
    assert_eq!(s.recovered_results, 2, "the intact prefix survives: {s:?}");

    // The lost suite recompiles cold and still matches its old report.
    let again = svc.compile_many(&suites());
    assert_eq!(again.stats.result_hits, 2, "{:?}", again.stats);
    for (o, cold_sig) in again.outcomes.iter().zip(&cold_sigs) {
        assert_eq!(&o.artifact.signature(), cold_sig, "{}", o.name);
    }
    drop(svc);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn flipped_bit_refuses_one_checksum_and_resyncs_past_it() {
    let dir = scratch("bitflip");
    seed_store(&dir);

    // Flip one bit inside the first loop record's payload: its CRC must
    // refuse it, and framing must carry the scan to every later record.
    let log = dir.join("loops.log");
    let mut bytes = fs::read(&log).expect("loops.log");
    let magic = [0xA5u8, b'R', b'E', b'C'];
    let first = bytes[8..]
        .windows(4)
        .position(|w| w == magic)
        .map(|i| i + 8)
        .expect("at least one loop record");
    let total = bytes[8..].windows(4).filter(|w| *w == magic).count() as u64;
    bytes[first + 20] ^= 0x01; // 12 bytes of frame, then payload
    fs::write(&log, &bytes).expect("write damaged log");

    let svc = service(2).with_store(&dir);
    let s = svc.store_stats();
    assert_eq!(s.refused_crc, 1, "{s:?}");
    assert_eq!(s.recovery_refusals, 1, "{s:?}");
    assert_eq!(
        s.recovered_loops,
        total - 1,
        "every record after the flipped one survives: {s:?}"
    );
    drop(svc);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn stale_version_header_refuses_that_file_only() {
    let dir = scratch("version");
    seed_store(&dir);

    let log = dir.join("loops.log");
    let mut bytes = fs::read(&log).expect("loops.log");
    bytes[..8].copy_from_slice(b"APST0000");
    fs::write(&log, &bytes).expect("write stale header");

    let svc = service(2).with_store(&dir);
    let s = svc.store_stats();
    assert_eq!(s.refused_version, 1, "one event per refused file: {s:?}");
    assert_eq!(s.recovered_loops, 0, "{s:?}");
    // The other tier is untouched and recovers in full.
    assert_eq!(s.recovered_results, 3, "{s:?}");
    drop(svc);
    let _ = fs::remove_dir_all(&dir);
}

/// The results log compacts from the live result cache, exactly as the
/// loop log does from the loop store: an entry the LRU bound evicted
/// before the rewrite is gone from disk too, and a restart recovers
/// precisely what was resident.
#[test]
fn results_log_compaction_keeps_exactly_the_resident_entries() {
    let dir = scratch("compact_results");
    let config = ServiceConfig {
        workers: 1,
        result_entries: 2,
        ..ServiceConfig::default()
    };
    {
        // A 64-byte bound makes every batch's checkpoint a rewrite.
        let store = PersistentStore::open(&dir).with_compact_bytes(64);
        let svc = CompileService::new(config.clone()).attach_store(store);
        for req in suites() {
            assert_eq!(svc.compile_one(req).served, Served::Cold);
        }
        // gamma's insert evicted alpha, the least recently used.
        assert_eq!(svc.result_cache_len(), 2);
        let st = svc.store_stats();
        assert!(st.compactions >= 2, "{st:?}");
        assert_eq!(st.append_errors, 0, "{st:?}");
    }
    let svc = CompileService::new(config).with_store(&dir);
    let st = svc.store_stats();
    assert_eq!(st.recovered_results, 2, "{st:?}");
    assert_eq!(st.recovery_refusals, 0, "{st:?}");
    let served: Vec<Served> = svc
        .compile_many(&suites())
        .outcomes
        .iter()
        .map(|o| o.served)
        .collect();
    assert_eq!(
        served,
        [Served::Cold, Served::CacheHit, Served::CacheHit],
        "evicted alpha must not come back; beta and gamma must"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn unusable_directory_degrades_to_read_only_and_still_serves() {
    let dir = scratch("unusable");
    // A regular *file* where the store directory should be: creation
    // fails no matter the uid (chmod tricks don't bite under root).
    fs::write(&dir, b"not a directory").expect("plant blocking file");

    let svc = service(2).with_store(&dir);
    let reason = svc.store_read_only_reason().expect("degraded");
    assert!(
        reason.contains("cannot create store directory"),
        "structured reason: {reason}"
    );
    let batch = svc.compile_many(&suites());
    assert_eq!(batch.outcomes.len(), 3, "service still serves");
    let s = svc.store_stats();
    assert!(s.enabled && s.read_only, "{s:?}");
    assert_eq!(s.appended_records, 0, "read-only never writes: {s:?}");
    assert_eq!(s.append_errors, 0, "skip is not an error: {s:?}");
    drop(svc);
    let _ = fs::remove_file(&dir);
}

#[test]
fn two_services_sharing_a_dir_single_writer() {
    let dir = scratch("shared");
    let a = service(1).with_store(&dir);
    let b = service(1).with_store(&dir);
    let reason = b.store_read_only_reason().expect("b must be read-only");
    assert!(reason.contains("locked by live writer"), "{reason}");

    // Both serve; only a persists. Nothing interleaves in the logs.
    let batch_a = a.compile_many(&suites());
    let batch_b = b.compile_many(&suites());
    assert_eq!(batch_a.outcomes.len(), 3);
    assert_eq!(batch_b.outcomes.len(), 3);
    assert!(a.store_stats().appended_records > 0);
    assert_eq!(b.store_stats().appended_records, 0);
    drop(a);
    drop(b);

    // With both gone the lock is free and the logs are intact.
    let c = service(1).with_store(&dir);
    assert!(c.store_read_only_reason().is_none(), "lock released");
    let s = c.store_stats();
    assert_eq!(s.recovered_results, 3, "{s:?}");
    assert_eq!(s.recovery_refusals, 0, "no interleaved corruption: {s:?}");
    drop(c);
    let _ = fs::remove_dir_all(&dir);
}

/// A real `kill -9`: a daemon serving with a store dies without any
/// shutdown path — lock file left behind, logs ending wherever the OS
/// happened to flush. Recovery must salvage the served request and
/// steal the dead writer's lock.
#[test]
fn kill_nine_mid_serve_recovers_on_restart() {
    let dir = scratch("kill9");
    let src = &suites()[0].source;

    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_apar-serve"))
        .args(["--daemon", "--workers", "1", "--store"])
        .arg(&dir)
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn apar-serve daemon");
    {
        let stdin = child.stdin.as_mut().expect("stdin");
        write!(stdin, "SRC alpha {}\n{}", src.lines().count(), src).expect("send request");
        stdin.flush().expect("flush");
    }
    // One OK line means the request compiled and its records were
    // appended (persistence runs before the response is written).
    let mut line = String::new();
    BufReader::new(child.stdout.as_mut().expect("stdout"))
        .read_line(&mut line)
        .expect("read response");
    assert!(line.starts_with("OK "), "daemon answered: {line}");
    child.kill().expect("kill -9");
    let _ = child.wait();

    assert!(dir.join("lock").exists(), "the dead daemon left its lock");
    let svc = service(1).with_store(&dir);
    assert!(
        svc.store_read_only_reason().is_none(),
        "stale lock stolen: {:?}",
        svc.store_read_only_reason()
    );
    let s = svc.store_stats();
    assert_eq!(s.recovered_results, 1, "{s:?}");
    assert_eq!(s.recovery_refusals, 0, "{s:?}");
    let warm = svc.compile_one(suites().swap_remove(0));
    assert_eq!(warm.served, Served::CacheHit, "{:?}", warm.served);
    drop(svc);
    let _ = fs::remove_dir_all(&dir);
}

/// The batch CLI honors `--store`: a second invocation recovers the
/// first one's records, and a blocked store degrades with a structured
/// warning instead of failing the run.
#[test]
fn cli_store_flag_round_trips_and_degrades_gracefully() {
    let dir = scratch("cli");
    let suite_dir = scratch("cli_suites");
    fs::create_dir_all(&suite_dir).expect("suite dir");
    let suite_path = suite_dir.join("alpha.f");
    fs::write(&suite_path, &suites()[0].source).expect("write suite");

    let run = |store: &Path| {
        std::process::Command::new(env!("CARGO_BIN_EXE_apar-serve"))
            .args(["--workers", "1", "--store"])
            .arg(store)
            .arg(&suite_path)
            .output()
            .expect("run apar-serve")
    };
    let first = run(&dir);
    assert!(first.status.success(), "{first:?}");
    let second = run(&dir);
    assert!(second.status.success(), "{second:?}");
    let stderr = String::from_utf8_lossy(&second.stderr);
    let recovered_line = stderr
        .lines()
        .find(|l| l.contains("store recovered"))
        .unwrap_or_else(|| panic!("no recovery line in stderr: {stderr}"));
    assert!(
        recovered_line.contains("1 results"),
        "second run recovered the first run's result: {recovered_line}"
    );

    let blocked = scratch("cli_blocked");
    fs::write(&blocked, b"not a directory").expect("plant blocking file");
    let degraded = run(&blocked);
    assert!(degraded.status.success(), "degradation is not failure: {degraded:?}");
    let stderr = String::from_utf8_lossy(&degraded.stderr);
    assert!(
        stderr.contains("degraded to read-only"),
        "structured warning: {stderr}"
    );
    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_dir_all(&suite_dir);
    let _ = fs::remove_file(&blocked);
}
