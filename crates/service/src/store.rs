//! Crash-safe persistent store for the service's two cache tiers.
//!
//! Layout: one append-only record log per tier (`loops.log`,
//! `results.log`) in the store directory, each starting
//! with an 8-byte versioned file header and containing length-prefixed,
//! CRC-32-checksummed records whose payloads are compact-JSON documents
//! (the workspace's hand-rolled `jsonio` — no deps). Snapshots are
//! compacted by writing `<tier>.log.tmp` and atomically renaming it
//! over the log.
//!
//! Trust model: **nothing read from disk is believed.** The loader is
//! total over arbitrary bytes — a wrong-version header refuses the
//! whole file, a torn tail, flipped bit, or misframed record refuses
//! exactly the damaged region (resynchronizing on the record magic) —
//! and every surviving payload still only *proposes* state: loop
//! records must parse field-by-field (`SplicedLoop::from_json`) and
//! then pass the same structural `matches` re-verification as any live
//! record before a splice, and result records must reproduce their
//! recorded report signature from a live compile before the cache
//! believes them. Every refusal is counted, never panicked on. Only the
//! two tier logs are ever opened: any other file in the directory is
//! not loaded, not counted in `store_bytes`, and not a refusal.
//!
//! Writes go through an injectable fault shim ([`StoreFaults`]):
//! deterministic, seeded short writes, failed flushes/renames, ENOSPC
//! and read errors — the same fault-plan style as the runtime's
//! `FaultPlan`. A store that cannot write (unwritable directory, or a
//! second service holding the single-writer lock) degrades to
//! read-only: recovery still works, appends are skipped, and the
//! condition is a structured gauge, not an error.

use std::collections::HashSet;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use apar_core::jsonio::{crc32, parse, JVal, Json};

/// File header: 4 magic bytes + 4 version bytes. Bumping the version
/// makes every older file refuse wholesale (one `refused_version` per
/// file) instead of misparsing.
const FILE_MAGIC: &[u8; 8] = b"APST0001";
/// Per-record magic. The 0xA5 byte cannot occur as a UTF-8 lead byte
/// of the compact-JSON payloads this store writes, which keeps resync
/// scans from landing inside a healthy record's text.
const REC_MAGIC: &[u8; 4] = &[0xA5, b'R', b'E', b'C'];
/// Sanity bound on one record's payload; a length field above this is
/// corruption by definition, not a large record.
const MAX_RECORD: u64 = 1 << 24;

/// The two persisted cache tiers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tier {
    /// Per-loop incremental records (`SplicedLoop`).
    Loops,
    /// Suite results, persisted as `(name, source, signature)` echoes.
    Results,
}

impl Tier {
    pub const ALL: [Tier; 2] = [Tier::Loops, Tier::Results];

    /// The tier's log file name inside the store directory.
    pub fn file_name(&self) -> &'static str {
        match self {
            Tier::Loops => "loops.log",
            Tier::Results => "results.log",
        }
    }
}

/// Deterministic, seeded fault plan for store I/O, in the style of the
/// runtime's `FaultPlan`. Each `*_1_in: n` arms one failure mode to
/// fire on roughly every n-th draw of a seeded counter sequence (0
/// disables the mode). The sequence is a pure function of the seed and
/// the number of prior draws, so a failing run replays exactly.
#[derive(Clone, Copy, Debug, Default)]
pub struct StoreFaults {
    pub seed: u64,
    /// Whole-append failures (ENOSPC-style: no bytes land).
    pub write_fail_1_in: u64,
    /// Torn appends: only a seeded prefix of the buffer lands.
    pub short_write_1_in: u64,
    /// Failed flush after a write that landed.
    pub flush_fail_1_in: u64,
    /// Failed atomic rename during compaction.
    pub rename_fail_1_in: u64,
    /// Read errors during recovery (the tier loads as empty).
    pub read_fail_1_in: u64,
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Structured counters and gauges for the durable store. This is the
/// *single* definition the batch stats, the daemon `STATS` reply, and
/// the daemon `HEALTH` reply all render through ([`StoreStats::fields`]),
/// so the three reports cannot drift apart.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StoreStats {
    /// Gauge: a store directory is attached.
    pub enabled: bool,
    /// Gauge: the store degraded to read-only (unwritable directory or
    /// another writer holds the lock).
    pub read_only: bool,
    /// Always 0: retained for the frozen benchmark crate; drop with the
    /// next `benchmark` PR.
    pub recovered_facts: u64,
    /// Recovery adoptions per tier.
    pub recovered_loops: u64,
    pub recovered_results: u64,
    /// Total recovery refusals (sum of the `refused_*` breakdown).
    pub recovery_refusals: u64,
    /// Torn tails, bad record magic, implausible lengths, read errors.
    pub refused_framing: u64,
    /// Checksum mismatches.
    pub refused_crc: u64,
    /// CRC-valid payloads that failed to parse or validate field-wise.
    pub refused_parse: u64,
    /// Wrong-version (or missing) file headers — one per refused file.
    pub refused_version: u64,
    /// Records for a different profile identity than the recovering
    /// service.
    pub refused_identity: u64,
    /// Records that parsed but failed semantic re-verification (loop
    /// record field mismatch, result signature mismatch).
    pub refused_verify: u64,
    /// Records appended to the logs.
    pub appended_records: u64,
    /// Append/compaction batches that failed (fault shim or real I/O).
    pub append_errors: u64,
    /// Snapshot compactions completed.
    pub compactions: u64,
    /// Gauge: total on-disk bytes across the tier logs.
    pub store_bytes: u64,
}

impl StoreStats {
    /// Counter deltas since `earlier`; gauges stay absolute.
    pub fn since(&self, earlier: &StoreStats) -> StoreStats {
        StoreStats {
            recovered_loops: self.recovered_loops - earlier.recovered_loops,
            recovered_results: self.recovered_results - earlier.recovered_results,
            recovery_refusals: self.recovery_refusals - earlier.recovery_refusals,
            refused_framing: self.refused_framing - earlier.refused_framing,
            refused_crc: self.refused_crc - earlier.refused_crc,
            refused_parse: self.refused_parse - earlier.refused_parse,
            refused_version: self.refused_version - earlier.refused_version,
            refused_identity: self.refused_identity - earlier.refused_identity,
            refused_verify: self.refused_verify - earlier.refused_verify,
            appended_records: self.appended_records - earlier.appended_records,
            append_errors: self.append_errors - earlier.append_errors,
            compactions: self.compactions - earlier.compactions,
            // The gauges: `enabled`, `read_only`, `store_bytes`.
            ..*self
        }
    }

    /// The canonical JSON field list. Every report that mentions store
    /// state builds from this one function.
    pub fn fields(&self) -> Vec<(&'static str, Json)> {
        vec![
            ("store_enabled", Json::Bool(self.enabled)),
            ("store_read_only", Json::Bool(self.read_only)),
            ("recovered_loops", Json::Int(self.recovered_loops as i64)),
            ("recovered_results", Json::Int(self.recovered_results as i64)),
            ("recovery_refusals", Json::Int(self.recovery_refusals as i64)),
            ("refused_framing", Json::Int(self.refused_framing as i64)),
            ("refused_crc", Json::Int(self.refused_crc as i64)),
            ("refused_parse", Json::Int(self.refused_parse as i64)),
            ("refused_version", Json::Int(self.refused_version as i64)),
            ("refused_identity", Json::Int(self.refused_identity as i64)),
            ("refused_verify", Json::Int(self.refused_verify as i64)),
            ("appended_records", Json::Int(self.appended_records as i64)),
            ("append_errors", Json::Int(self.append_errors as i64)),
            ("compactions", Json::Int(self.compactions as i64)),
            ("store_bytes", Json::Int(self.store_bytes as i64)),
        ]
    }
}

/// Everything the loader salvaged from the tier logs: parsed payloads
/// in log order. Framing/CRC/parse refusals were already counted by
/// the store; semantic validation (identity, re-verification) is the
/// caller's job, reported back via `PersistentStore::count`.
#[derive(Debug, Default)]
pub struct LoadedTiers {
    pub loops: Vec<JVal>,
    pub results: Vec<JVal>,
}

/// The durable store: framing, files, the single-writer lock, fault
/// injection, and counters. Semantic record schemas live with the
/// service (`CompileService`), which is also what replays recovery.
pub struct PersistentStore {
    dir: PathBuf,
    /// `Some(reason)` once degraded: appends and compactions become
    /// no-ops, recovery still reads.
    read_only: Option<String>,
    lock_owned: bool,
    faults: Option<StoreFaults>,
    fault_ctr: AtomicU64,
    /// Compaction triggers when a tier log exceeds this many bytes.
    compact_bytes: u64,
    /// Keys already persisted per tier, so the post-batch append pass
    /// only writes news. Advisory (duplicates on disk are deduped by
    /// recovery anyway); reset by compaction to the snapshot's keys.
    seen: Mutex<[HashSet<u64>; 2]>,
    /// The counter fields of [`StoreStats`]; gauges and the refusal
    /// total are filled in by [`PersistentStore::stats`].
    counters: Mutex<StoreStats>,
}

impl PersistentStore {
    /// Opens (creating if needed) a store directory. Never fails: an
    /// uncreatable or unwritable directory, or one already locked by a
    /// live writer, yields a read-only store with a structured reason.
    pub fn open(dir: impl AsRef<Path>) -> Self {
        Self::open_inner(dir.as_ref(), None)
    }

    /// [`PersistentStore::open`] with a fault plan armed on every
    /// subsequent read and write.
    pub fn open_with_faults(dir: impl AsRef<Path>, faults: StoreFaults) -> Self {
        Self::open_inner(dir.as_ref(), Some(faults))
    }

    fn open_inner(dir: &Path, faults: Option<StoreFaults>) -> Self {
        let mut read_only = None;
        let mut lock_owned = false;
        if let Err(e) = fs::create_dir_all(dir) {
            read_only = Some(format!("cannot create store directory: {}", e));
        } else {
            match acquire_lock(dir) {
                Ok(true) => lock_owned = true,
                Ok(false) => unreachable!("acquire_lock returns Ok(true) or Err"),
                Err(reason) => read_only = Some(reason),
            }
        }
        PersistentStore {
            dir: dir.to_path_buf(),
            read_only,
            lock_owned,
            faults,
            fault_ctr: AtomicU64::new(0),
            compact_bytes: 1 << 20,
            seen: Mutex::new([HashSet::new(), HashSet::new()]),
            counters: Mutex::new(StoreStats::default()),
        }
    }

    /// Lowers the compaction threshold (tests exercise compaction
    /// without megabytes of records).
    pub fn with_compact_bytes(mut self, bytes: u64) -> Self {
        self.compact_bytes = bytes.max(64);
        self
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Why the store is read-only, if it is.
    pub fn read_only_reason(&self) -> Option<&str> {
        self.read_only.as_deref()
    }

    fn fault(&self, pick: impl Fn(&StoreFaults) -> u64) -> bool {
        let Some(f) = &self.faults else { return false };
        let one_in = pick(f);
        if one_in == 0 {
            return false;
        }
        let n = self.fault_ctr.fetch_add(1, Ordering::SeqCst);
        splitmix64(f.seed ^ n.wrapping_mul(0x9E37_79B9_7F4A_7C15)).is_multiple_of(one_in)
    }

    fn tier_path(&self, tier: Tier) -> PathBuf {
        self.dir.join(tier.file_name())
    }

    /// Marks `key` persisted for `tier`; returns true when it was new
    /// (i.e. the caller should append its record).
    pub fn mark_seen(&self, tier: Tier, key: u64) -> bool {
        self.seen.lock().unwrap_or_else(|p| p.into_inner())[tier as usize].insert(key)
    }

    /// Replaces `tier`'s persisted-key set (after a compaction rewrote
    /// the log from a snapshot).
    fn reset_seen(&self, tier: Tier, keys: impl IntoIterator<Item = u64>) {
        let mut seen = self.seen.lock().unwrap_or_else(|p| p.into_inner());
        seen[tier as usize] = keys.into_iter().collect();
    }

    /// Reads and frames-decodes every tier log. Total: any damage is
    /// counted and skipped, never raised.
    pub fn load(&self) -> LoadedTiers {
        let mut out = LoadedTiers::default();
        for tier in Tier::ALL {
            let path = self.tier_path(tier);
            let bytes = if self.fault(|f| f.read_fail_1_in) {
                self.count(|c| c.refused_framing += 1);
                continue; // injected read error: tier loads as empty
            } else {
                match fs::read(&path) {
                    Ok(b) => b,
                    Err(e) if e.kind() == std::io::ErrorKind::NotFound => continue,
                    Err(_) => {
                        self.count(|c| c.refused_framing += 1);
                        continue;
                    }
                }
            };
            let dest = match tier {
                Tier::Loops => &mut out.loops,
                Tier::Results => &mut out.results,
            };
            self.scan_records(&bytes, dest);
        }
        out
    }

    /// Decodes one log's bytes into `dest`, counting refusals.
    fn scan_records(&self, bytes: &[u8], dest: &mut Vec<JVal>) {
        if bytes.len() < FILE_MAGIC.len() || &bytes[..FILE_MAGIC.len()] != FILE_MAGIC {
            // Wrong or truncated header: the whole file is refused as
            // one structured event (stale version / foreign file).
            self.count(|c| c.refused_version += 1);
            return;
        }
        let mut pos = FILE_MAGIC.len();
        // Resynchronization: after any framing damage, scan forward for
        // the next record magic instead of giving up — one truncated or
        // bit-flipped record must not take the rest of the log with it.
        let resync = |from: usize| -> Option<usize> {
            bytes[from..]
                .windows(REC_MAGIC.len())
                .position(|w| w == *REC_MAGIC)
                .map(|i| from + i)
        };
        while pos < bytes.len() {
            if bytes[pos..].len() < REC_MAGIC.len() || &bytes[pos..pos + REC_MAGIC.len()] != REC_MAGIC
            {
                // Garbage where a record should start (torn compaction,
                // flipped magic, trailing junk).
                self.count(|c| c.refused_framing += 1);
                match resync(pos + 1) {
                    Some(next) => {
                        pos = next;
                        continue;
                    }
                    None => return,
                }
            }
            let header_end = pos + REC_MAGIC.len() + 8;
            if bytes.len() < header_end {
                self.count(|c| c.refused_framing += 1); // torn tail
                return;
            }
            let len = u32::from_le_bytes(
                bytes[pos + REC_MAGIC.len()..pos + REC_MAGIC.len() + 4]
                    .try_into()
                    .expect("4 bytes"),
            ) as u64;
            let crc = u32::from_le_bytes(
                bytes[pos + REC_MAGIC.len() + 4..header_end]
                    .try_into()
                    .expect("4 bytes"),
            );
            let end = header_end as u64 + len;
            if len > MAX_RECORD || end > bytes.len() as u64 {
                // Implausible or past-EOF length: either a corrupt
                // length field or a torn final record.
                self.count(|c| c.refused_framing += 1);
                match resync(pos + REC_MAGIC.len()) {
                    Some(next) => {
                        pos = next;
                        continue;
                    }
                    None => return,
                }
            }
            let payload = &bytes[header_end..end as usize];
            pos = end as usize;
            if crc32(payload) != crc {
                self.count(|c| c.refused_crc += 1);
                continue;
            }
            match std::str::from_utf8(payload).ok().and_then(parse) {
                Some(v) => dest.push(v),
                None => {
                    self.count(|c| c.refused_parse += 1);
                }
            }
        }
    }

    /// Frames and appends `payloads` to `tier`'s log (writing the file
    /// header first when the log is new). No-op when read-only. I/O
    /// failures — injected or real — count `append_errors`; a short
    /// write may leave a torn record, which recovery tolerates.
    fn append(&self, tier: Tier, payloads: &[Json]) {
        if payloads.is_empty() || self.read_only.is_some() {
            return;
        }
        let path = self.tier_path(tier);
        let need_header = fs::metadata(&path).map(|m| m.len() == 0).unwrap_or(true);
        let mut buf = Vec::new();
        if need_header {
            buf.extend_from_slice(FILE_MAGIC);
        }
        for p in payloads {
            frame_into(&mut buf, p);
        }
        if self.fault(|f| f.write_fail_1_in) {
            self.count(|c| c.append_errors += 1);
            return;
        }
        if self.fault(|f| f.short_write_1_in) {
            // Torn write: a seeded prefix lands, then "the power fails".
            let n = self.fault_ctr.fetch_add(1, Ordering::SeqCst);
            let cut = (splitmix64(n ^ 0xDEAD_BEEF) % buf.len() as u64) as usize;
            buf.truncate(cut);
            let _ = append_bytes(&path, &buf);
            self.count(|c| c.append_errors += 1);
            return;
        }
        match append_bytes(&path, &buf) {
            Ok(mut f) => {
                if self.fault(|f| f.flush_fail_1_in) || f.flush().is_err() {
                    self.count(|c| c.append_errors += 1);
                } else {
                    self.count(|c| c.appended_records += payloads.len() as u64);
                }
            }
            Err(_) => {
                self.count(|c| c.append_errors += 1);
            }
        }
    }

    /// True when `tier`'s log has outgrown the compaction threshold.
    fn wants_compaction(&self, tier: Tier) -> bool {
        self.read_only.is_none() && self.file_len(tier) > self.compact_bytes
    }

    /// Rewrites `tier`'s log as a fresh snapshot of `(key, payload)`
    /// records via write-temp + atomic rename. On any failure the
    /// original log is left untouched (and still loadable).
    fn compact(&self, tier: Tier, records: &[(u64, Json)]) {
        if self.read_only.is_some() {
            return;
        }
        let mut buf = Vec::from(FILE_MAGIC.as_slice());
        for (_, p) in records {
            frame_into(&mut buf, p);
        }
        if self.fault(|f| f.write_fail_1_in) {
            self.count(|c| c.append_errors += 1);
            return;
        }
        if self.fault(|f| f.short_write_1_in) {
            let n = self.fault_ctr.fetch_add(1, Ordering::SeqCst);
            buf.truncate((splitmix64(n ^ 0xFEED_FACE) % buf.len().max(1) as u64) as usize);
        }
        let path = self.tier_path(tier);
        let tmp = self.dir.join(format!("{}.tmp", tier.file_name()));
        if fs::write(&tmp, &buf).is_err() || self.fault(|f| f.rename_fail_1_in) {
            let _ = fs::remove_file(&tmp);
            self.count(|c| c.append_errors += 1);
            return;
        }
        match fs::rename(&tmp, &path) {
            Ok(()) => {
                self.count(|c| c.compactions += 1);
                self.reset_seen(tier, records.iter().map(|&(k, _)| k));
            }
            Err(_) => {
                let _ = fs::remove_file(&tmp);
                self.count(|c| c.append_errors += 1);
            }
        }
    }

    /// One tier's post-batch checkpoint, from the cache's live state:
    /// appends the resident records this log has not seen — only those
    /// are encoded, so the write follows what the batch learned, not
    /// what is resident — and, once the log outgrows its bound,
    /// rewrites it from all of them. `encode` returning `None` skips
    /// a record.
    pub(crate) fn sync<R>(
        &self,
        tier: Tier,
        live: &[(u64, R)],
        encode: impl Fn(u64, &R) -> Option<Json>,
    ) {
        let fresh: Vec<Json> = live
            .iter()
            .filter(|(k, _)| self.mark_seen(tier, *k))
            .filter_map(|(k, r)| encode(*k, r))
            .collect();
        self.append(tier, &fresh);
        if self.wants_compaction(tier) {
            let all: Vec<(u64, Json)> = live
                .iter()
                .filter_map(|(k, r)| Some((*k, encode(*k, r)?)))
                .collect();
            self.compact(tier, &all);
        }
    }

    fn file_len(&self, tier: Tier) -> u64 {
        fs::metadata(self.tier_path(tier)).map(|m| m.len()).unwrap_or(0)
    }

    /// Bumps a counter. Recovery's semantic verdicts — adopted, refused
    /// for identity, refused by re-verification — are the service's to
    /// report; framing, CRC and parse refusals are counted in here.
    pub(crate) fn count(&self, bump: impl FnOnce(&mut StoreStats)) {
        bump(&mut self.counters.lock().unwrap_or_else(|p| p.into_inner()));
    }

    pub fn stats(&self) -> StoreStats {
        let c = *self.counters.lock().unwrap_or_else(|p| p.into_inner());
        StoreStats {
            enabled: true,
            read_only: self.read_only.is_some(),
            recovery_refusals: c.refused_framing
                + c.refused_crc
                + c.refused_parse
                + c.refused_version
                + c.refused_identity
                + c.refused_verify,
            store_bytes: Tier::ALL.iter().map(|&t| self.file_len(t)).sum(),
            ..c
        }
    }
}

impl Drop for PersistentStore {
    fn drop(&mut self) {
        if self.lock_owned {
            let _ = fs::remove_file(self.dir.join("lock"));
            let canon = self
                .dir
                .canonicalize()
                .unwrap_or_else(|_| self.dir.clone());
            in_process_locks()
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .remove(&canon);
        }
    }
}

impl std::fmt::Debug for PersistentStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PersistentStore")
            .field("dir", &self.dir)
            .field("read_only", &self.read_only)
            .finish_non_exhaustive()
    }
}

/// Frames one payload: magic, payload length (u32 LE), CRC-32 of the
/// payload (u32 LE), compact-JSON payload bytes.
fn frame_into(buf: &mut Vec<u8>, payload: &Json) {
    let body = payload.render_compact().into_bytes();
    buf.extend_from_slice(REC_MAGIC);
    buf.extend_from_slice(&(body.len() as u32).to_le_bytes());
    buf.extend_from_slice(&crc32(&body).to_le_bytes());
    buf.extend_from_slice(&body);
}

fn append_bytes(path: &Path, buf: &[u8]) -> std::io::Result<fs::File> {
    let mut f = fs::OpenOptions::new().create(true).append(true).open(path)?;
    f.write_all(buf)?;
    Ok(f)
}

/// Store directories locked by *this* process: a lock file carrying
/// our own pid is only stale if no live [`PersistentStore`] in this
/// process holds it (otherwise two in-process services would both
/// write; a pid-recycled leftover from a dead process must still be
/// stolen).
fn in_process_locks() -> &'static Mutex<HashSet<PathBuf>> {
    static LOCKS: std::sync::OnceLock<Mutex<HashSet<PathBuf>>> = std::sync::OnceLock::new();
    LOCKS.get_or_init(|| Mutex::new(HashSet::new()))
}

/// Single-writer guard: a `lock` file holding the owner's pid. A
/// stale lock (no such process) is stolen; a live one demotes this
/// opener to read-only. Best-effort by design — the guard exists so
/// two cooperating services on one host don't interleave appends, not
/// as a security boundary.
fn acquire_lock(dir: &Path) -> Result<bool, String> {
    let canon = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
    let path = dir.join("lock");
    for _ in 0..2 {
        match fs::OpenOptions::new().write(true).create_new(true).open(&path) {
            Ok(mut f) => {
                let _ = f.write_all(std::process::id().to_string().as_bytes());
                in_process_locks()
                    .lock()
                    .unwrap_or_else(|p| p.into_inner())
                    .insert(canon);
                return Ok(true);
            }
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                let holder = fs::read_to_string(&path)
                    .ok()
                    .and_then(|s| s.trim().parse::<u32>().ok());
                let held_here = in_process_locks()
                    .lock()
                    .unwrap_or_else(|p| p.into_inner())
                    .contains(&canon);
                match holder {
                    Some(pid) if pid == std::process::id() && held_here => {
                        return Err(format!("locked by live writer pid {} (this process)", pid));
                    }
                    Some(pid) if pid != std::process::id() && pid_alive(pid) => {
                        return Err(format!("locked by live writer pid {}", pid));
                    }
                    _ => {
                        // Stale (dead pid, a recycled copy of our own
                        // pid, or unreadable): remove and retry once.
                        let _ = fs::remove_file(&path);
                    }
                }
            }
            Err(e) => return Err(format!("cannot create lock file: {}", e)),
        }
    }
    Err("lock contention: another writer re-acquired the stale lock".to_string())
}

#[cfg(target_os = "linux")]
fn pid_alive(pid: u32) -> bool {
    Path::new(&format!("/proc/{}", pid)).exists()
}

#[cfg(not(target_os = "linux"))]
fn pid_alive(_pid: u32) -> bool {
    // Without a portable liveness probe, assume live: the safe failure
    // mode is degrading a fresh opener to read-only, never two writers.
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "apar_store_test_{}_{}",
            std::process::id(),
            tag
        ));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn payload(i: i64) -> Json {
        Json::Obj(vec![("i", Json::Int(i)), ("tag", Json::Str("rec".into()))])
    }

    #[test]
    fn append_then_load_round_trips() {
        let dir = tmp_dir("roundtrip");
        let store = PersistentStore::open(&dir);
        assert!(store.read_only_reason().is_none());
        store.append(Tier::Loops, &[payload(1), payload(2)]);
        store.append(Tier::Loops, &[payload(3)]);
        let loaded = store.load();
        assert_eq!(loaded.loops.len(), 3);
        assert_eq!(loaded.loops[2].get("i").and_then(JVal::as_i64), Some(3));
        assert_eq!(store.stats().recovery_refusals, 0);
        assert_eq!(store.stats().appended_records, 3);
        drop(store);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_costs_exactly_one_refusal_and_keeps_the_rest() {
        let dir = tmp_dir("torn");
        let store = PersistentStore::open(&dir);
        store.append(Tier::Results, &[payload(1), payload(2)]);
        let path = dir.join("results.log");
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        let loaded = store.load();
        assert_eq!(loaded.results.len(), 1, "first record survives");
        let s = store.stats();
        assert_eq!(s.refused_framing, 1, "the torn tail, exactly once");
        assert_eq!(s.recovery_refusals, 1);
        drop(store);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bit_flip_is_caught_by_crc_and_skipped() {
        let dir = tmp_dir("flip");
        let store = PersistentStore::open(&dir);
        store.append(Tier::Loops, &[payload(1), payload(2), payload(3)]);
        let path = dir.join("loops.log");
        let mut bytes = fs::read(&path).unwrap();
        // Flip one payload byte of the middle record (past header +
        // first frame; a byte inside the second record's JSON body).
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        let loaded = store.load();
        let s = store.stats();
        assert_eq!(
            loaded.loops.len() as u64 + s.recovery_refusals,
            3,
            "every record is either loaded or counted"
        );
        assert!(s.recovery_refusals >= 1);
        drop(store);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn wrong_version_header_refuses_the_whole_file_once() {
        let dir = tmp_dir("version");
        let store = PersistentStore::open(&dir);
        store.append(Tier::Loops, &[payload(1)]);
        let path = dir.join("loops.log");
        let mut bytes = fs::read(&path).unwrap();
        bytes[7] = b'9'; // APST0001 -> APST0009
        fs::write(&path, &bytes).unwrap();
        let loaded = store.load();
        assert!(loaded.loops.is_empty());
        assert_eq!(store.stats().refused_version, 1);
        drop(store);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_rewrites_atomically_and_resets_seen() {
        let dir = tmp_dir("compact");
        let store = PersistentStore::open(&dir).with_compact_bytes(64);
        for i in 0..10 {
            assert!(store.mark_seen(Tier::Results, i));
            store.append(Tier::Results, &[payload(i as i64)]);
        }
        assert!(store.wants_compaction(Tier::Results));
        store.compact(Tier::Results, &[(7, payload(7))]);
        assert_eq!(store.stats().compactions, 1);
        let loaded = store.load();
        assert_eq!(loaded.results.len(), 1);
        assert!(!store.mark_seen(Tier::Results, 7), "kept key survives");
        assert!(store.mark_seen(Tier::Results, 3), "dropped key is forgotten");
        drop(store);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn second_opener_degrades_to_read_only_until_first_drops() {
        let dir = tmp_dir("lock");
        let a = PersistentStore::open(&dir);
        assert!(a.read_only_reason().is_none());
        a.append(Tier::Loops, &[payload(1)]);
        let b = PersistentStore::open(&dir);
        let reason = b.read_only_reason().expect("b must be read-only").to_string();
        assert!(reason.contains("locked by live writer"), "{}", reason);
        b.append(Tier::Loops, &[payload(2)]); // silently skipped
        assert_eq!(b.load().loops.len(), 1, "read-only opener still recovers");
        drop(b);
        drop(a);
        let c = PersistentStore::open(&dir);
        assert!(c.read_only_reason().is_none(), "lock released on drop");
        drop(c);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_faults_are_counted_never_raised() {
        let dir = tmp_dir("faults");
        let store = PersistentStore::open_with_faults(
            &dir,
            StoreFaults {
                seed: 7,
                write_fail_1_in: 3,
                short_write_1_in: 4,
                flush_fail_1_in: 5,
                ..StoreFaults::default()
            },
        );
        for i in 0..40 {
            store.append(Tier::Loops, &[payload(i)]);
        }
        let s = store.stats();
        assert!(s.append_errors > 0, "faults fired");
        assert!(s.appended_records > 0, "some appends survived");
        // Whatever the faults tore, recovery is still total.
        let loaded = store.load();
        assert!(loaded.loops.len() as u64 <= s.appended_records + 40);
        drop(store);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unwritable_store_path_degrades_to_read_only() {
        let dir = tmp_dir("unwritable");
        fs::create_dir_all(&dir).unwrap();
        // A *file* where the directory should be: create_dir_all fails
        // regardless of privileges (unlike permission bits under root).
        let path = dir.join("not_a_dir");
        fs::write(&path, b"occupied").unwrap();
        let store = PersistentStore::open(&path);
        let reason = store.read_only_reason().expect("degraded").to_string();
        assert!(reason.contains("cannot create store directory"), "{}", reason);
        store.append(Tier::Loops, &[payload(1)]); // no-op, no panic
        assert_eq!(store.stats().store_bytes, 0);
        drop(store);
        let _ = fs::remove_dir_all(&dir);
    }
}
