//! Compile-as-a-service: batch and daemon compilation over the autopar
//! pipeline.
//!
//! ComPar-style source-to-source auto-parallelizers are run as batch
//! services over many foreign codes; this crate is that layer for the
//! reproduction. A [`CompileService`] accepts batches of named MiniFort
//! suites ([`CompileService::compile_many`]), fans compiles out across a
//! bounded worker pool, and keeps two caches alive *across* compiles:
//!
//! * a shared [`LoopRecordStore`] of per-loop analysis records, keyed
//!   by everything a loop's analysis observes, so splicing a record can
//!   never change a report;
//! * a suite-level **result cache** keyed by raw source bytes plus the
//!   compile-relevant profile identity (everything except `threads`,
//!   which reports are invariant to), so recompiling an already-seen
//!   suite is a lookup, not a compile.
//!
//! Both caches are LRU-bounded; eviction costs rebuild time, never
//! correctness. Caching never changes what the service answers: two
//! batches differing only in cache temperature, worker width, or
//! arrival order produce bit-identical per-suite reports
//! ([`CompileResult::report_signature`] equality — pinned by this
//! crate's tests).
//!
//! Containment: every suite compiles through the recovering front end
//! inside a panic sandbox, so one garbled request degrades exactly one
//! response — the batch API always returns one [`SuiteOutcome`] per
//! request, and the daemon loop ([`daemon::serve`]) never dies on
//! hostile input.
//!
//! Resilience: every request can carry a wall-clock **deadline**
//! (cooperatively cancelled at pass checkpoints —
//! [`Served::DeadlineExpired`]). Load has one signal: the pending
//! queue is bounded by `max_pending`, a batch's overflow is shed
//! oldest first ([`Served::Rejected`]), and the daemon reports
//! overload exactly when that bound is reached. Whatever is admitted
//! runs the full pipeline. A suite whose builds crash
//! [`QUARANTINE_STRIKES`] times is **quarantined**: refused from a
//! bounded ledger until it ages out ([`Served::Quarantined`]). Only
//! complete responses enter the result cache, so cached answers stay
//! bit-identical to plain compiles.

pub mod daemon;
pub mod store;

use std::collections::hash_map::{DefaultHasher, Entry};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use apar_analysis::cache::DetourStats;
use apar_analysis::{LoopRecordStore, LoopStoreStats, SyncLru};
use apar_core::jsonio::Json;
use apar_core::pipeline::panic_message;
use apar_core::{
    fan_out, CancelToken, CompileResult, Compiler, CompilerProfile, EmitResult, SplicedLoop,
};

pub use store::{PersistentStore, StoreFaults, StoreStats, Tier};

/// One named compilation request.
#[derive(Clone, Debug)]
pub struct SuiteRequest {
    pub name: String,
    pub source: String,
    /// Wall-clock budget for this request. The compile checks it
    /// cooperatively at pass checkpoints; expiry yields a structured
    /// [`Served::DeadlineExpired`] outcome carrying whatever per-loop
    /// reports completed. `None` never expires.
    pub deadline: Option<Duration>,
}

impl SuiteRequest {
    pub fn new(name: impl Into<String>, source: impl Into<String>) -> Self {
        SuiteRequest {
            name: name.into(),
            source: source.into(),
            deadline: None,
        }
    }

    /// This request with a wall-clock deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// Everything that bounds a [`CompileService`].
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Compiler profile every suite is compiled under.
    pub profile: CompilerProfile,
    /// Worker pool width for one batch (1 = fully sequential; reports
    /// are bit-identical at every value).
    pub workers: usize,
    /// Also run the source-to-source backend and keep the emitted
    /// artifact ([`SuiteArtifact::Emitted`]).
    pub emit: bool,
    /// Loop-record store: maximum retained per-loop records.
    pub loop_entries: usize,
    /// Suite result cache: maximum retained entries.
    pub result_entries: usize,
    /// Bounded pending queue, and the service's only load signal: a
    /// batch whose compiles would push the pending depth past this is
    /// shed down to fit, earliest requests first — oldest work is most
    /// likely to have missed its usefulness window
    /// ([`Served::Rejected`]) — and the daemon answers `REJECTED
    /// overload` while the depth is at it.
    pub max_pending: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            profile: CompilerProfile::polaris2008(),
            workers: 4,
            emit: false,
            loop_entries: 2048,
            result_entries: 256,
            max_pending: 64,
        }
    }
}

/// How a suite in a batch was served.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Served {
    /// Compiled from scratch (possibly splicing stored loop records).
    Cold,
    /// Answered from the cross-batch result cache — no compile ran.
    CacheHit,
    /// Duplicate of an earlier suite in the *same* batch; compiled once,
    /// result shared. Counted separately from hits and misses.
    Deduped,
    /// The request's wall-clock deadline expired mid-compile; the
    /// artifact carries the partial report (completed loops plus a
    /// `DeadlineExpired` skip ledger). Not cached.
    DeadlineExpired,
    /// Shed by admission control: the pending queue was full. No
    /// compile ran.
    Rejected,
    /// The suite is quarantined after repeated failed builds; answered
    /// from the strike ledger without burning the pool.
    Quarantined,
}

impl Served {
    /// Every class once, in `Served as usize` order: what a per-class
    /// tally is sized and indexed by.
    pub const ALL: [Served; 6] = [
        Served::Cold,
        Served::CacheHit,
        Served::Deduped,
        Served::DeadlineExpired,
        Served::Rejected,
        Served::Quarantined,
    ];

    pub fn label(&self) -> &'static str {
        match self {
            Served::Cold => "cold",
            Served::CacheHit => "hit",
            Served::Deduped => "dedup",
            Served::DeadlineExpired => "expired",
            Served::Rejected => "rejected",
            Served::Quarantined => "quarantined",
        }
    }

    /// True for the classes whose reports are required to be
    /// bit-identical to a plain `Compiler` compile of the same source
    /// (the chaos harness's identity gate).
    pub fn full_fidelity(&self) -> bool {
        matches!(self, Served::Cold | Served::CacheHit | Served::Deduped)
    }
}

/// What the service produced for one suite.
#[derive(Debug)]
pub enum SuiteArtifact {
    /// Analysis + transformation only (`ServiceConfig::emit == false`).
    Compiled(Box<CompileResult>),
    /// Full pipeline through the source-to-source backend.
    Emitted(Box<EmitResult>),
    /// A panic escaped the recovering compiler — contained here so the
    /// batch (and the daemon) survive. Should never happen; the message
    /// is kept for the response.
    Failed(String),
    /// Shed by admission control before any compile ran.
    Rejected {
        /// Why (queue depth and bound, for the response).
        reason: String,
    },
    /// Answered from the suite quarantine ledger: this source has
    /// failed [`QUARANTINE_STRIKES`] times and is still in the ledger.
    Quarantined,
}

impl SuiteArtifact {
    /// The compile result, when one exists.
    pub fn compile(&self) -> Option<&CompileResult> {
        match self {
            SuiteArtifact::Compiled(r) => Some(r),
            SuiteArtifact::Emitted(e) => Some(&e.result),
            SuiteArtifact::Failed(_)
            | SuiteArtifact::Rejected { .. }
            | SuiteArtifact::Quarantined => None,
        }
    }

    /// The identity string of the underlying report (empty for
    /// failures) — what the cache-transparency tests compare.
    pub fn signature(&self) -> String {
        self.compile().map(|r| r.report_signature()).unwrap_or_default()
    }

    /// Frontend diagnostics the recovering compile accumulated.
    pub fn diag_count(&self) -> usize {
        self.compile().map_or(0, |r| r.report.diags.len())
    }
}

/// One per-request answer from [`CompileService::compile_many`].
#[derive(Debug)]
pub struct SuiteOutcome {
    pub name: String,
    pub served: Served,
    /// Wall seconds this suite cost the service (near zero for
    /// `CacheHit`/`Deduped`).
    pub wall_s: f64,
    /// The artifact — shared (`Arc`) between deduplicated requests.
    pub artifact: Arc<SuiteArtifact>,
}

/// Service counters for one batch (or, from
/// [`CompileService::cumulative_stats`], the service's lifetime).
#[derive(Clone, Debug)]
pub struct ServiceStats {
    /// Requests answered.
    pub suites: usize,
    /// Requests that ran a compile.
    pub cold: usize,
    /// Requests answered from the result cache.
    pub result_hits: usize,
    /// In-batch duplicates that shared an owner's compile.
    pub deduped: usize,
    /// Requests whose compile panicked (contained as
    /// [`SuiteArtifact::Failed`]).
    pub failed: usize,
    /// Requests shed by admission control.
    pub rejected: usize,
    /// Requests whose deadline expired mid-compile.
    pub deadline_expired: usize,
    /// Requests refused by the suite quarantine ledger.
    pub quarantined: usize,
    /// Always 0: the service has no degraded tier. Kept only because
    /// the frozen benchmark crate reads it; it is not on the wire.
    pub degraded: usize,
    /// Deepest the pending queue has ever been (must never exceed
    /// `max_pending` — the chaos harness's bound gate).
    pub pending_peak: usize,
    /// Suites currently under active quarantine.
    pub quarantined_suites: usize,
    /// Result-cache entries evicted by the LRU bound.
    pub result_evictions: u64,
    /// Loop-record store counters. The field keeps its old name for
    /// the frozen benchmark crate; rename with the next `benchmark` PR.
    pub facts: LoopStoreStats,
    /// The compiler's inline-detour counters
    /// ([`apar_core::CompileReport::detour`]), summed over the compiles
    /// that ran: cache hits and duplicates add nothing.
    pub detour: DetourStats,
    /// Durable-store counters (zeroed/disabled when no store is
    /// attached). Batch stats carry the delta for the batch; cumulative
    /// stats carry lifetime values including recovery.
    pub store: StoreStats,
    /// Wall seconds for the whole batch.
    pub wall_s: f64,
    /// Aggregate throughput (`suites / wall_s`).
    pub suites_per_s: f64,
    /// Per-suite wall seconds, in request order.
    pub per_suite_wall_s: Vec<(String, f64)>,
}

/// A completed batch: one outcome per request, in request order, plus
/// the batch-scoped stats.
#[derive(Debug)]
pub struct Batch {
    pub outcomes: Vec<SuiteOutcome>,
    pub stats: ServiceStats,
}

/// Failed builds (contained panics) of one suite before it is
/// quarantined. A compile is a deterministic function of the suite key
/// (source bytes and profile), so a suite that crashed this often
/// would crash again: it is refused until the ledger evicts it.
pub const QUARANTINE_STRIKES: u32 = 3;

/// The bounded suite quarantine ledger: strikes per suite key. It
/// covers every way a build can crash-loop — a contained panic in any
/// pass, the facts build included, strikes the suite that triggered
/// it.
struct StrikeLedger(SyncLru<u32>);

impl StrikeLedger {
    /// True once `key` has struck out.
    fn struck_out(&self, key: u64) -> bool {
        self.0
            .lock()
            .get(key)
            .is_some_and(|&mut n| n >= QUARANTINE_STRIKES)
    }

    /// Records a failed build against a suite.
    fn strike(&self, key: u64) {
        let mut records = self.0.lock();
        let strikes = records.get(key).map_or(0, |n| *n) + 1;
        records.insert(key, strikes);
    }

    /// A fully clean compile expunges the suite's strike record.
    fn clear(&self, key: u64) {
        self.0.lock().remove(key);
    }

    /// Suites currently quarantined.
    fn active(&self) -> usize {
        let records = self.0.lock();
        records
            .iter()
            .filter(|(_, &n)| n >= QUARANTINE_STRIKES)
            .count()
    }
}

/// RAII occupancy of pending-queue slots without running compiles —
/// how tests and the chaos harness simulate concurrent load
/// deterministically. Dropping the hold releases the slots.
pub struct AdmissionHold<'a> {
    service: &'a CompileService,
    n: usize,
}

impl Drop for AdmissionHold<'_> {
    fn drop(&mut self) {
        self.service.pending.fetch_sub(self.n, Ordering::SeqCst);
    }
}

/// One resident result-cache entry.
#[derive(Clone)]
struct CachedResult {
    artifact: Arc<SuiteArtifact>,
    /// The `(name, source)` the artifact was compiled from — what the
    /// results log's record of this entry is (re)written from. Kept
    /// only when a durable store is attached; a memory-only service
    /// retains no sources.
    origin: Option<Arc<(String, String)>>,
}

/// What `compile_many` decided for one request before any compile ran
/// — the one place that knows a request's fate.
enum Plan {
    /// Refused from the strike ledger.
    Quarantined(Arc<SuiteArtifact>),
    /// Same suite key as the earlier request at this index: shares
    /// whatever that owner got.
    Dup(usize),
    /// Answered from the result cache, with the lookup's wall seconds.
    Hit(Arc<SuiteArtifact>, f64),
    /// Shed by admission control.
    Shed(Arc<SuiteArtifact>),
    /// Compiled as this batch's n-th job.
    Job(usize),
}

/// Requests answered per [`Served`] class, contained panics and busy
/// wall. A batch fills one; the service folds each batch's into its
/// lifetime copy, so [`Batch::stats`] and
/// [`CompileService::cumulative_stats`] cannot count differently.
#[derive(Clone, Copy, Default)]
struct Tally {
    /// Indexed by `Served as usize`.
    served: [usize; Served::ALL.len()],
    /// Requests whose artifact is [`SuiteArtifact::Failed`] (counted
    /// beside their class, not instead of it).
    failed: usize,
    /// Inline-detour counters of the compiles that ran.
    detour: DetourStats,
    wall_s: f64,
}

impl Tally {
    fn fold(&mut self, batch: &Tally) {
        for (mine, theirs) in self.served.iter_mut().zip(batch.served) {
            *mine += theirs;
        }
        self.failed += batch.failed;
        self.detour.add(&batch.detour);
        self.wall_s += batch.wall_s;
    }
}

/// The service: a worker pool plus the two cross-compile caches.
///
/// Thread-safe (`&self` methods); wrap in an `Arc` to share between a
/// daemon loop and library callers.
pub struct CompileService {
    config: ServiceConfig,
    /// The compile-relevant profile identity, hashed once at
    /// construction: the profile with `threads` normalised away
    /// (reports are thread-invariant, so worker width must not fragment
    /// the cache) plus the emission mode. Persisted with result
    /// records: a restarted service with a different profile or
    /// emission mode refuses the record (`refused_identity`) instead of
    /// replaying a compile that could not match.
    profile_id: u64,
    loops: Arc<LoopRecordStore<SplicedLoop>>,
    results: SyncLru<CachedResult>,
    /// Durable two-tier store; `None` = memory-only service.
    store: Option<PersistentStore>,
    /// Suites struck out by repeated failed builds.
    strikes: StrikeLedger,
    /// Compiles admitted (or capacity held) but not yet finished.
    pending: AtomicUsize,
    peak_pending: AtomicUsize,
    created: Instant,
    /// Every batch's tally, folded (the daemon's STATS answer).
    lifetime: Mutex<Tally>,
}

impl CompileService {
    pub fn new(config: ServiceConfig) -> Self {
        let loops = Arc::new(LoopRecordStore::bounded(config.loop_entries));
        Self::with_loop_store(config, loops)
    }

    /// A service sharing a caller-owned loop-record store — how several
    /// service instances (tenants, or a fresh client with an empty
    /// result cache) pool their analysis work. The config's
    /// `loop_entries` is ignored; the store keeps the bound it was
    /// built with.
    pub fn with_loop_store(
        config: ServiceConfig,
        loops: Arc<LoopRecordStore<SplicedLoop>>,
    ) -> Self {
        let mut norm = config.profile.clone();
        norm.threads = 1;
        let mut h = DefaultHasher::new();
        format!("{:?}", norm).hash(&mut h);
        config.emit.hash(&mut h);
        CompileService {
            profile_id: h.finish(),
            loops,
            results: SyncLru::new(config.result_entries),
            store: None,
            // The ledger is bounded like everything else in the service.
            strikes: StrikeLedger(SyncLru::new((config.result_entries * 4).max(64))),
            config,
            pending: AtomicUsize::new(0),
            peak_pending: AtomicUsize::new(0),
            created: Instant::now(),
            lifetime: Mutex::new(Tally::default()),
        }
    }

    /// Current pending-queue depth (admitted compiles plus held slots).
    pub fn pending(&self) -> usize {
        self.pending.load(Ordering::SeqCst)
    }

    /// Deepest the pending queue has ever been. Never exceeds
    /// `max_pending` plus any outstanding [`CompileService::hold_capacity`].
    pub fn peak_pending(&self) -> usize {
        self.peak_pending.load(Ordering::SeqCst)
    }

    /// True while the pending queue is full: exactly when admission
    /// would shed the next compile.
    pub fn overloaded(&self) -> bool {
        self.pending() >= self.config.max_pending
    }

    /// Occupy `n` pending slots until the returned hold drops — lets
    /// tests and the chaos harness put the service under deterministic
    /// admission pressure without racing real compiles.
    pub fn hold_capacity(&self, n: usize) -> AdmissionHold<'_> {
        let depth = self.pending.fetch_add(n, Ordering::SeqCst) + n;
        self.peak_pending.fetch_max(depth, Ordering::SeqCst);
        AdmissionHold { service: self, n }
    }

    /// Suites currently quarantined.
    pub fn quarantined_suites(&self) -> usize {
        self.strikes.active()
    }

    /// Entries resident in the suite result cache.
    pub fn result_cache_len(&self) -> usize {
        self.results.lock().len()
    }

    /// Seconds since the service was created (the daemon's `HEALTH`
    /// uptime).
    pub fn uptime_s(&self) -> f64 {
        self.created.elapsed().as_secs_f64()
    }

    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// The shared loop-record store (for inspection in tests and
    /// benchmarks, and for handing to a second service).
    pub fn loop_store(&self) -> &Arc<LoopRecordStore<SplicedLoop>> {
        &self.loops
    }

    /// Attaches a durable store at `dir` and recovers whatever state
    /// survives on disk. Never fails: an unwritable directory or a
    /// live second writer degrades to read-only (recovery still runs;
    /// appends are skipped) with the reason in
    /// [`CompileService::store_read_only_reason`].
    pub fn with_store(self, dir: impl AsRef<Path>) -> Self {
        self.attach_store(PersistentStore::open(dir))
    }

    /// Attaches an already-opened store (tests tune compaction bounds
    /// on it first; the crash-torture harness arms
    /// [`PersistentStore::open_with_faults`]) and runs recovery.
    pub fn attach_store(mut self, store: PersistentStore) -> Self {
        self.store = Some(store);
        self.recover_from_store();
        self
    }

    /// Durable-store counters; all-default (with `enabled: false`) for
    /// a memory-only service.
    pub fn store_stats(&self) -> StoreStats {
        self.store.as_ref().map(PersistentStore::stats).unwrap_or_default()
    }

    /// Why the attached store is read-only, if it is.
    pub fn store_read_only_reason(&self) -> Option<String> {
        self.store.as_ref()?.read_only_reason().map(str::to_string)
    }

    /// Recovery: adopt whatever the durable store salvages, trusting
    /// nothing. Loop records are parsed field-by-field and re-admitted
    /// under their stored keys (a stale key simply never matches a
    /// lookup, and every splice still re-verifies structure); result
    /// records are recompiled through the service — warm thanks to the
    /// just-recovered loop records — and adopted only when the live
    /// signature reproduces the stored echo. Totally sandboxed: a
    /// record can be refused, never panic.
    fn recover_from_store(&self) {
        let Some(store) = &self.store else { return };
        let loaded = store.load();

        // Tier order matters: loops first (they make the result-tier
        // replays cheap), then results.
        for rec in &loaded.loops {
            let parsed = rec
                .u64_field("k")
                .zip(rec.get("rec").and_then(SplicedLoop::from_json));
            let Some((key, s)) = parsed else {
                store.count(|c| c.refused_verify += 1);
                continue;
            };
            self.loops.loop_put(key, Arc::new(s));
            store.mark_seen(Tier::Loops, key);
            store.count(|c| c.recovered_loops += 1);
        }

        for rec in &loaded.results {
            let parsed = (|| {
                Some((
                    rec.str_field("name")?.to_string(),
                    rec.str_field("src")?.to_string(),
                    rec.str_field("sig")?.to_string(),
                    rec.u64_field("profile")?,
                ))
            })();
            let Some((name, src, sig, pid)) = parsed else {
                store.count(|c| c.refused_verify += 1);
                continue;
            };
            if pid != self.profile_id || sig.is_empty() {
                store.count(|c| c.refused_identity += 1);
                continue;
            }
            // Mark before compiling so the post-batch persist pass of
            // the replay compile doesn't re-append the same record.
            let key = self.suite_key(&src);
            store.mark_seen(Tier::Results, key);
            let outcome = self.compile_one(SuiteRequest::new(name, src));
            if outcome.artifact.signature() == sig {
                store.count(|c| c.recovered_results += 1);
            } else {
                // The stored echo does not reproduce: the record is
                // corrupt (or from different code). The live compile
                // stands on its own — only the record is refused.
                store.count(|c| c.refused_verify += 1);
            }
        }
    }

    /// Post-batch persistence: checkpoint both tiers from their live
    /// caches ([`PersistentStore::sync`]). Snapshots are taken under
    /// the cache locks; encoding and I/O run outside them. A read-only
    /// store skips all of it.
    fn persist_after_batch(&self) {
        let Some(store) = self.store.as_ref().filter(|s| s.read_only_reason().is_none()) else {
            return;
        };
        store.sync(Tier::Loops, &self.loops.loop_snapshot(), |key, rec| {
            Some(loop_payload(key, rec))
        });
        let results: Vec<(u64, CachedResult)> =
            self.results.lock().iter().map(|(k, e)| (k, e.clone())).collect();
        store.sync(Tier::Results, &results, |key, e| {
            let (name, src) = &**e.origin.as_ref()?;
            let sig = e.artifact.signature();
            Some(result_payload(key, self.profile_id, name, src, &sig))
        });
    }

    /// Cache key for one suite: the profile identity (which covers
    /// the emission mode, so a `compile_and_emit` artifact can never be
    /// served to a plain `compile` request or vice versa — the two
    /// carry different skip ledgers and artifacts) plus the raw source
    /// bytes. Raw source (not the resolved-program fingerprint) is
    /// deliberate: two garbled sources can *resolve* identically yet
    /// carry different recovery diagnostics, which are part of the
    /// answer.
    fn suite_key(&self, source: &str) -> u64 {
        let mut h = DefaultHasher::new();
        self.profile_id.hash(&mut h);
        source.hash(&mut h);
        h.finish()
    }

    /// Compile one suite outside a batch (a one-element
    /// [`CompileService::compile_many`]).
    pub fn compile_one(&self, req: SuiteRequest) -> SuiteOutcome {
        self.compile_many(&[req])
            .outcomes
            .pop()
            .expect("one outcome per request")
    }

    /// True when the artifact may enter the result cache: a compile
    /// that ran the full pipeline with no expiry and no contained
    /// panic. Anything else would replay a partial (or poisoned) answer
    /// forever.
    fn cacheable(art: &SuiteArtifact) -> bool {
        art.compile()
            .is_some_and(|r| !r.report.deadline_expired && r.report.panicked_loops() == 0)
    }

    /// The class a finished job is served under. A contained panic
    /// ([`SuiteArtifact::Failed`]) stays in the base class and `failed`
    /// counts it beside.
    fn classify(art: &SuiteArtifact) -> Served {
        match art.compile() {
            Some(r) if r.report.deadline_expired => Served::DeadlineExpired,
            _ => Served::Cold,
        }
    }

    /// How the first request with `key` is answered without a compile:
    /// refused from the strike ledger, or a result-cache hit. `None`
    /// means it needs a job.
    fn plan_owner(&self, key: u64) -> Option<Plan> {
        if self.strikes.struck_out(key) {
            return Some(Plan::Quarantined(Arc::new(SuiteArtifact::Quarantined)));
        }
        let tl = Instant::now();
        let hit = self.results.lock().get(key).map(|e| Arc::clone(&e.artifact))?;
        Some(Plan::Hit(hit, tl.elapsed().as_secs_f64()))
    }

    /// Claims up to `want` pending slots in one atomic step and returns
    /// `(claimed, depth before)`. Check-then-add would let two callers
    /// sharing the service both see the same free capacity and
    /// together overshoot `max_pending`.
    fn admit(&self, want: usize) -> (usize, usize) {
        let claim = |depth: usize| want.min(self.config.max_pending.saturating_sub(depth));
        let before = self
            .pending
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |d| Some(d + claim(d)))
            .expect("the update closure always returns Some");
        let claimed = claim(before);
        self.peak_pending.fetch_max(before + claimed, Ordering::SeqCst);
        (claimed, before)
    }

    /// Compile a batch: plan every request (refuse quarantined suites
    /// from the ledger, dedupe identical suites, answer repeats from
    /// the result cache, shed what the bounded pending queue cannot
    /// admit), fan the remaining jobs out across the worker pool (under
    /// each request's deadline), and return one outcome per request in
    /// request order plus the batch-scoped stats.
    pub fn compile_many(&self, batch: &[SuiteRequest]) -> Batch {
        let t0 = Instant::now();
        let loops_before = self.loops.stats();
        let store_before = self.store_stats();
        let keys: Vec<u64> = batch.iter().map(|r| self.suite_key(&r.source)).collect();

        // Plan. The first request with a given key owns its fate —
        // quarantine refusal, cache hit, or a compile job — and later
        // identical requests ride along as duplicates of that owner.
        let mut owner_of: HashMap<u64, usize> = HashMap::new();
        let mut jobs: Vec<usize> = Vec::new();
        let mut plans: Vec<Plan> = Vec::with_capacity(batch.len());
        for (i, &key) in keys.iter().enumerate() {
            let plan = match owner_of.entry(key) {
                Entry::Occupied(owner) => Plan::Dup(*owner.get()),
                Entry::Vacant(slot) => {
                    slot.insert(i);
                    self.plan_owner(key).unwrap_or_else(|| {
                        jobs.push(i);
                        Plan::Job(jobs.len() - 1)
                    })
                }
            };
            plans.push(plan);
        }

        // Admission control: the pending queue is bounded. Jobs that
        // would overflow it are shed, oldest first — an explicit
        // structured rejection instead of unbounded queueing.
        let (admitted, depth_before) = self.admit(jobs.len());
        let shed = jobs.len() - admitted;
        if shed > 0 {
            let rejected = Arc::new(SuiteArtifact::Rejected {
                reason: format!(
                    "overload: {} pending, capacity {}",
                    depth_before, self.config.max_pending
                ),
            });
            for &i in &jobs[..shed] {
                plans[i] = Plan::Shed(Arc::clone(&rejected));
            }
            jobs.drain(..shed);
            for (j, &i) in jobs.iter().enumerate() {
                plans[i] = Plan::Job(j);
            }
        }

        // Deadlines are armed at admission, not at job start: time
        // spent waiting for a worker burns the request's budget, as it
        // would in a real service.
        let tokens: Vec<Option<CancelToken>> = jobs
            .iter()
            .map(|&i| batch[i].deadline.map(CancelToken::deadline_in))
            .collect();
        // Each finished job releases its pending slot immediately.
        let ran: Vec<(Arc<SuiteArtifact>, f64)> = fan_out(jobs.len(), self.config.workers, |j| {
            let done = self.run_job(&batch[jobs[j]], tokens[j].clone());
            self.pending.fetch_sub(1, Ordering::SeqCst);
            done
        });

        // Retain only full-fidelity results — a partial or poisoned
        // entry would replay itself forever — and keep the
        // quarantine ledger current: contained panics strike the suite,
        // clean compiles expunge it.
        for (&i, (art, _)) in jobs.iter().zip(&ran) {
            let req = &batch[i];
            if Self::cacheable(art) {
                let entry = CachedResult {
                    artifact: Arc::clone(art),
                    origin: self
                        .store
                        .is_some()
                        .then(|| Arc::new((req.name.clone(), req.source.clone()))),
                };
                self.results.lock().insert(keys[i], entry);
                self.strikes.clear(keys[i]);
            } else if art.compile().is_none_or(|r| r.report.panicked_loops() > 0) {
                self.strikes.strike(keys[i]);
            }
        }

        // Assemble outcomes in request order, one match over the plan;
        // a duplicate reads its owner's plan (owners are never `Dup`).
        let mut tally = Tally::default();
        let mut outcomes: Vec<SuiteOutcome> = Vec::with_capacity(batch.len());
        for (req, plan) in batch.iter().zip(&plans) {
            let (plan, dup) = match plan {
                Plan::Dup(owner) => (&plans[*owner], true),
                own => (own, false),
            };
            let (served, artifact, wall_s) = match plan {
                Plan::Quarantined(art) => (Served::Quarantined, art, 0.0),
                Plan::Shed(art) => (Served::Rejected, art, 0.0),
                // Only full-fidelity artifacts enter the cache, so a
                // hit is always a plain `CacheHit`.
                Plan::Hit(art, wall) => (Served::CacheHit, art, *wall),
                Plan::Job(j) => (Self::classify(&ran[*j].0), &ran[*j].0, ran[*j].1),
                Plan::Dup(_) => unreachable!("a duplicate's owner is the first of its key"),
            };
            // A duplicate shares the owner's artifact at no cost of its
            // own, and the owner's class unless that was a full answer.
            let (served, wall_s) = match dup {
                true if served.full_fidelity() => (Served::Deduped, 0.0),
                true => (served, 0.0),
                false => (served, wall_s),
            };
            tally.served[served as usize] += 1;
            tally.failed += usize::from(matches!(**artifact, SuiteArtifact::Failed(_)));
            if let (Plan::Job(_), false) = (plan, dup) {
                if let Some(r) = artifact.compile() {
                    tally.detour.add(&r.report.detour);
                }
            }
            outcomes.push(SuiteOutcome {
                name: req.name.clone(),
                served,
                wall_s,
                artifact: Arc::clone(artifact),
            });
        }

        // Checkpoint the new state before answering: a crash after this
        // point loses nothing the batch learned.
        self.persist_after_batch();

        tally.wall_s = t0.elapsed().as_secs_f64();
        self.lifetime
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .fold(&tally);
        let mut stats = self.stats_from(
            &tally,
            self.loops.stats().since(&loops_before),
            self.store_stats().since(&store_before),
        );
        stats.per_suite_wall_s = outcomes.iter().map(|o| (o.name.clone(), o.wall_s)).collect();
        Batch { outcomes, stats }
    }

    /// Lifetime counters since the service was created (the daemon's
    /// `STATS` answer). Gauges and loop-store counters are absolute.
    pub fn cumulative_stats(&self) -> ServiceStats {
        let lifetime = *self.lifetime.lock().unwrap_or_else(|p| p.into_inner());
        self.stats_from(&lifetime, self.loops.stats(), self.store_stats())
    }

    /// The one place a [`ServiceStats`] is built: a tally's counts plus
    /// the service's current gauges.
    fn stats_from(&self, tally: &Tally, loops: LoopStoreStats, store: StoreStats) -> ServiceStats {
        let suites = tally.served.iter().sum();
        let of = |class: Served| tally.served[class as usize];
        ServiceStats {
            suites,
            cold: of(Served::Cold),
            result_hits: of(Served::CacheHit),
            deduped: of(Served::Deduped),
            failed: tally.failed,
            rejected: of(Served::Rejected),
            deadline_expired: of(Served::DeadlineExpired),
            quarantined: of(Served::Quarantined),
            degraded: 0,
            pending_peak: self.peak_pending(),
            quarantined_suites: self.quarantined_suites(),
            result_evictions: self.results.lock().evictions(),
            facts: loops,
            detour: tally.detour,
            store,
            wall_s: tally.wall_s,
            suites_per_s: if tally.wall_s > 0.0 {
                suites as f64 / tally.wall_s
            } else {
                0.0
            },
            per_suite_wall_s: Vec::new(),
        }
    }

    /// One compile, sandboxed: the recovering front end makes the
    /// compile total over arbitrary bytes, and `catch_unwind` contains
    /// anything that still escapes so the pool (and the daemon) live on.
    fn run_job(&self, req: &SuiteRequest, token: Option<CancelToken>) -> (Arc<SuiteArtifact>, f64) {
        let t = Instant::now();
        let mut compiler =
            Compiler::new(self.config.profile.clone()).with_loop_store(Arc::clone(&self.loops));
        if let Some(tok) = token {
            compiler = compiler.with_cancel(tok);
        }
        let emit = self.config.emit;
        let art = catch_unwind(AssertUnwindSafe(|| {
            #[cfg(test)]
            assert!(!req.name.starts_with("!panic"), "injected whole-compile panic");
            let r = compiler.compile_source_recovering(&req.name, &req.source);
            if emit {
                SuiteArtifact::Emitted(Box::new(compiler.emit(r)))
            } else {
                SuiteArtifact::Compiled(Box::new(r))
            }
        }))
        .unwrap_or_else(|p| SuiteArtifact::Failed(panic_message(p.as_ref())));
        (Arc::new(art), t.elapsed().as_secs_f64())
    }
}

/// Loop-tier record payload. `u64`s are encoded as decimal strings
/// (f64 JSON numbers cannot carry 64 bits).
fn loop_payload(key: u64, rec: &SplicedLoop) -> Json {
    Json::Obj(vec![
        ("k", Json::Str(key.to_string())),
        ("rec", rec.to_json()),
    ])
}

/// Result-tier record payload: the suite's name and raw source plus
/// the report-signature echo a recovering service must reproduce from
/// a live compile before the record is believed.
fn result_payload(key: u64, profile_id: u64, name: &str, source: &str, sig: &str) -> Json {
    Json::Obj(vec![
        ("k", Json::Str(key.to_string())),
        ("profile", Json::Str(profile_id.to_string())),
        ("name", Json::Str(name.to_string())),
        ("src", Json::Str(source.to_string())),
        ("sig", Json::Str(sig.to_string())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use apar_core::jsonio::ToJson;

    const SRC: &str = "\
PROGRAM MAIN
REAL A(100)
INTEGER I
DO I = 1, 100
A(I) = A(I) + 1.0
ENDDO
END
";

    const SRC2: &str = "\
PROGRAM MAIN
REAL B(50)
INTEGER J
DO J = 1, 50
B(J) = 2.0 * B(J)
ENDDO
END
";

    fn svc() -> CompileService {
        CompileService::new(ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        })
    }

    #[test]
    fn second_batch_is_served_from_the_result_cache() {
        let s = svc();
        let batch = [SuiteRequest::new("a", SRC)];
        let first = s.compile_many(&batch);
        assert_eq!(first.stats.cold, 1);
        assert_eq!(first.stats.result_hits, 0);
        let second = s.compile_many(&batch);
        assert_eq!(second.stats.cold, 0);
        assert_eq!(second.stats.result_hits, 1);
        assert_eq!(
            first.outcomes[0].artifact.signature(),
            second.outcomes[0].artifact.signature()
        );
    }

    #[test]
    fn in_batch_duplicates_are_deduped_not_misses() {
        let s = svc();
        let batch = [
            SuiteRequest::new("a", SRC),
            SuiteRequest::new("b", SRC2),
            SuiteRequest::new("a-again", SRC),
        ];
        let out = s.compile_many(&batch);
        assert_eq!(out.stats.cold, 2, "two distinct sources compile");
        assert_eq!(out.stats.deduped, 1, "the repeat rides along");
        assert_eq!(out.stats.result_hits, 0);
        assert_eq!(out.outcomes[0].served, Served::Cold);
        assert_eq!(out.outcomes[2].served, Served::Deduped);
        assert!(Arc::ptr_eq(
            &out.outcomes[0].artifact,
            &out.outcomes[2].artifact
        ));
    }

    #[test]
    fn duplicate_of_a_cached_suite_is_hit_plus_dedup() {
        let s = svc();
        s.compile_many(&[SuiteRequest::new("warm", SRC)]);
        let out = s.compile_many(&[
            SuiteRequest::new("x", SRC),
            SuiteRequest::new("y", SRC),
        ]);
        assert_eq!(out.outcomes[0].served, Served::CacheHit);
        assert_eq!(out.outcomes[1].served, Served::Deduped);
        assert_eq!(out.stats.cold, 0);
    }

    #[test]
    fn emission_mode_fragments_the_result_cache() {
        // A `compile_and_emit` artifact must never be served to a
        // plain `compile` request (or vice versa): the emission flag
        // is part of the suite key, so two services differing only in
        // `emit` can never agree on a key...
        let plain = svc();
        let emitting = CompileService::new(ServiceConfig {
            workers: 2,
            emit: true,
            ..ServiceConfig::default()
        });
        assert_ne!(
            plain.suite_key(SRC),
            emitting.suite_key(SRC),
            "emission mode must be part of the suite key"
        );
        // ...and within one service the artifact kind always matches
        // the config, warm or cold.
        let cold = emitting.compile_many(&[SuiteRequest::new("a", SRC)]);
        let warm = emitting.compile_many(&[SuiteRequest::new("a", SRC)]);
        assert_eq!(warm.stats.result_hits, 1);
        for out in [&cold, &warm] {
            assert!(
                matches!(*out.outcomes[0].artifact, SuiteArtifact::Emitted(_)),
                "emitting service must serve emitted artifacts"
            );
        }
    }

    #[test]
    fn result_cache_is_lru_bounded_and_counts_evictions() {
        let s = CompileService::new(ServiceConfig {
            workers: 1,
            result_entries: 1,
            ..ServiceConfig::default()
        });
        s.compile_many(&[SuiteRequest::new("a", SRC)]);
        s.compile_many(&[SuiteRequest::new("b", SRC2)]); // evicts a
        let again = s.compile_many(&[SuiteRequest::new("a", SRC)]);
        assert_eq!(again.stats.cold, 1, "a was evicted, recompiles");
        assert!(s.cumulative_stats().result_evictions >= 1);
    }

    #[test]
    fn profile_identity_keys_the_result_cache_but_threads_do_not() {
        let s = svc();
        s.compile_many(&[SuiteRequest::new("a", SRC)]);
        // Same source under a different worker width would still hit —
        // the key ignores threads by construction.
        let k1 = s.suite_key(SRC);
        let full = CompileService::new(ServiceConfig {
            profile: CompilerProfile::full(),
            ..ServiceConfig::default()
        });
        assert_ne!(k1, full.suite_key(SRC), "different profiles, different keys");
        let mut threaded_cfg = ServiceConfig::default();
        threaded_cfg.profile = threaded_cfg.profile.with_threads(8);
        let threaded = CompileService::new(threaded_cfg);
        assert_eq!(k1, threaded.suite_key(SRC), "threads excluded from key");
    }

    #[test]
    fn cumulative_stats_accumulate_across_batches() {
        let s = svc();
        s.compile_many(&[SuiteRequest::new("a", SRC)]);
        s.compile_many(&[SuiteRequest::new("a", SRC)]);
        let c = s.cumulative_stats();
        assert_eq!(c.suites, 2);
        assert_eq!(c.cold, 1);
        assert_eq!(c.result_hits, 1);
    }

    #[test]
    fn zero_deadline_expires_structurally_and_is_never_cached() {
        let s = svc();
        let out = s.compile_many(&[
            SuiteRequest::new("a", SRC).with_deadline(Duration::ZERO),
            SuiteRequest::new("a-dup", SRC).with_deadline(Duration::ZERO),
        ]);
        assert_eq!(out.outcomes[0].served, Served::DeadlineExpired);
        // The duplicate inherits the owner's class — it shares the
        // same partial artifact, not a full-fidelity one.
        assert_eq!(out.outcomes[1].served, Served::DeadlineExpired);
        assert_eq!(out.stats.deadline_expired, 2);
        let r = out.outcomes[0].artifact.compile().expect("partial report");
        assert!(r.report.deadline_expired);
        assert_eq!(
            r.loops.len() + r.report.skipped.len(),
            r.report.loops,
            "accounting survives expiry"
        );
        // Partial answers never enter the result cache: the next
        // undeadlined request compiles cold and is full fidelity.
        let again = s.compile_one(SuiteRequest::new("a", SRC));
        assert_eq!(again.served, Served::Cold);
        assert!(!again
            .artifact
            .compile()
            .expect("full report")
            .report
            .deadline_expired);
    }

    #[test]
    fn overflow_sheds_oldest_first_by_default() {
        let s = CompileService::new(ServiceConfig {
            workers: 1,
            max_pending: 2,
            ..ServiceConfig::default()
        });
        let batch = [
            SuiteRequest::new("old1", SRC),
            SuiteRequest::new("old2", "PROGRAM B\nINTEGER I\nDO I = 1, 9\nENDDO\nEND\n"),
            SuiteRequest::new("new1", "PROGRAM C\nINTEGER I\nDO I = 1, 9\nENDDO\nEND\n"),
            SuiteRequest::new("new2", SRC2),
        ];
        let out = s.compile_many(&batch);
        assert_eq!(out.outcomes[0].served, Served::Rejected);
        assert_eq!(out.outcomes[1].served, Served::Rejected);
        assert!(out.outcomes[2].served != Served::Rejected);
        assert!(out.outcomes[3].served != Served::Rejected);
        assert_eq!(out.stats.rejected, 2);
        assert!(matches!(
            &*out.outcomes[0].artifact,
            SuiteArtifact::Rejected { reason } if reason.contains("capacity 2")
        ));
        assert!(out.stats.pending_peak <= 2, "bound holds");
    }

    #[test]
    fn held_capacity_below_the_bound_compiles_at_full_fidelity() {
        let s = CompileService::new(ServiceConfig {
            workers: 1,
            max_pending: 16,
            ..ServiceConfig::default()
        });
        let plain = Compiler::new(CompilerProfile::polaris2008())
            .compile_source_recovering("a", SRC)
            .report_signature();
        // One slot left: the whole pipeline runs, however deep the
        // queue, and the answer is the plain compiler's.
        {
            let _hold = s.hold_capacity(15);
            assert!(!s.overloaded());
            let out = s.compile_one(SuiteRequest::new("a", SRC));
            assert_eq!(out.served, Served::Cold);
            assert_eq!(out.artifact.signature(), plain);
        }
        // No slot left: shed, nothing compiled.
        {
            let _hold = s.hold_capacity(16);
            let out = s.compile_one(SuiteRequest::new("b", SRC2));
            assert_eq!(out.served, Served::Rejected);
            assert!(out.artifact.compile().is_none());
        }
        // The compile under pressure was a full answer, so it was cached.
        let out = s.compile_many(&[SuiteRequest::new("a", SRC), SuiteRequest::new("b", SRC2)]);
        assert_eq!(out.outcomes[0].served, Served::CacheHit);
        assert_eq!(out.outcomes[1].served, Served::Cold);
    }

    #[test]
    fn overloaded_is_exactly_a_full_pending_queue() {
        let s = CompileService::new(ServiceConfig {
            max_pending: 4,
            ..ServiceConfig::default()
        });
        assert!(!s.overloaded());
        let h1 = s.hold_capacity(3);
        assert!(!s.overloaded(), "depth 3 < 4: a compile would be admitted");
        let h2 = s.hold_capacity(1);
        assert!(s.overloaded(), "depth 4: admission would shed");
        let out = s.compile_one(SuiteRequest::new("a", SRC));
        assert_eq!(
            out.served,
            Served::Rejected,
            "overloaded() and admit() agree"
        );
        drop(h2);
        assert!(!s.overloaded(), "one free slot clears it: no hysteresis");
        drop(h1);
        assert!(!s.overloaded());
        assert_eq!(s.peak_pending(), 4);
    }

    /// `Served::ALL` is what the tally is sized and indexed by: every
    /// class once, at its own index, under a label of its own. The match
    /// has no `_` arm, so a new class stops compiling here, next to the
    /// reminder to list it.
    #[test]
    fn served_all_lists_every_class_once() {
        let mut labels = std::collections::HashSet::new();
        for (i, class) in Served::ALL.into_iter().enumerate() {
            match class {
                Served::Cold
                | Served::CacheHit
                | Served::Deduped
                | Served::DeadlineExpired
                | Served::Rejected
                | Served::Quarantined => {}
            }
            assert_eq!(class as usize, i, "{class:?} out of place");
            assert!(labels.insert(class.label()), "{class:?} shares a label");
        }
    }

    /// A loop whose body calls a subroutine: the inliner specializes
    /// the program, so the loop reaches the facts stage with a build.
    const SRC_CALL: &str = "\
PROGRAM MAIN
REAL A(100)
INTEGER I
DO I = 1, 100
CALL SET(A, I)
ENDDO
END
SUBROUTINE SET(X, K)
REAL X(100)
X(K) = K * 2.0
END
";

    #[test]
    fn detour_counters_follow_the_compiles_that_ran() {
        use apar_core::jsonio::ToJson;
        let s = CompileService::new(ServiceConfig::default());
        // One compile for the pair: the duplicate adds no detour.
        let first = s
            .compile_many(&[
                SuiteRequest::new("a", SRC_CALL),
                SuiteRequest::new("a-dup", SRC_CALL),
            ])
            .stats;
        let one_inlined_loop = DetourStats {
            lookups: 1,
            builds: 1,
            changed_units: 1,
            ..DetourStats::default()
        };
        assert_eq!(first.detour, one_inlined_loop);
        assert!(first
            .to_json()
            .render_compact()
            .contains("\"detour_lookups\":1,\"detour_unchanged\":0,\"detour_memo_hits\":0,\"detour_builds\":1,\"detour_changed_units\":1"));
        // A result hit compiles nothing.
        let again = s.compile_many(&[SuiteRequest::new("a", SRC_CALL)]).stats;
        assert_eq!(again.result_hits, 1);
        assert_eq!(again.detour, DetourStats::default());
        assert_eq!(s.cumulative_stats().detour, one_inlined_loop);
    }

    #[test]
    fn crash_looping_suite_stays_quarantined_after_its_strikes() {
        use apar_core::PassId;
        // A crash in the dependence test, and one at the facts stage of
        // a call-bearing loop: the suite ledger is the only guard
        // against either crash loop.
        for (pass, src) in [(PassId::DataDependence, SRC), (PassId::Others, SRC_CALL)] {
            let s = CompileService::new(ServiceConfig {
                workers: 1,
                profile: CompilerProfile::polaris2008().with_fault(pass, "MAIN", None),
                ..ServiceConfig::default()
            });
            // Every strike is a contained-panic compile…
            for _ in 0..QUARANTINE_STRIKES {
                let out = s.compile_one(SuiteRequest::new("bad", src));
                let r = out.artifact.compile().expect("contained panic");
                assert!(
                    r.report.panicked_loops() > 0,
                    "{pass:?} fault fires and is contained"
                );
            }
            // …and after the last one the suite is refused from the
            // ledger, costlessly and for good: the same key would crash
            // the same way, so there is no probation compile.
            for _ in 0..3 {
                let refused = s.compile_one(SuiteRequest::new("bad", src));
                assert_eq!(refused.served, Served::Quarantined, "{pass:?}");
                assert!(matches!(&*refused.artifact, SuiteArtifact::Quarantined));
            }
            assert_eq!(s.quarantined_suites(), 1);
            assert_eq!(s.cumulative_stats().cold, QUARANTINE_STRIKES as usize);
            // A healthy suite is unaffected throughout (different unit name
            // dodges the injected fault).
            let healthy = s.compile_one(SuiteRequest::new("good", src.replace("MAIN", "OTHER")));
            assert_eq!(healthy.served, Served::Cold);
        }
    }

    #[test]
    fn clean_compile_expunges_suite_strikes() {
        let s = CompileService::new(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        // One strike by hand, then a clean compile of the same suite.
        let key = s.suite_key(SRC);
        s.strikes.strike(key);
        let out = s.compile_one(SuiteRequest::new("a", SRC));
        assert_eq!(out.served, Served::Cold);
        assert!(
            s.strikes.0.lock().is_empty(),
            "success expunged the strike record"
        );
    }

    #[test]
    fn stats_json_carries_the_resilience_counters() {
        let s = svc();
        let out = s.compile_many(&[SuiteRequest::new("a", SRC).with_deadline(Duration::ZERO)]);
        let json = out.stats.to_json().render_compact();
        for field in [
            "\"rejected\":0",
            "\"deadline_expired\":1",
            "\"quarantined\":0",
            "\"pending_peak\":1",
            "\"quarantined_suites\":0",
            "\"loop_evictions\":0",
        ] {
            assert!(json.contains(field), "{field} missing from {json}");
        }
        assert!(
            !json.contains("degraded"),
            "no degraded tier, no key: {json}"
        );
    }

    /// A distinct healthy one-loop program per tag.
    fn src_for(tag: &str) -> String {
        SRC.replace("MAIN", tag)
    }

    /// A service where unit `MAIN` crash-loops, with room for
    /// `max_pending` compiles at a time.
    fn plan_service(max_pending: usize) -> CompileService {
        use apar_core::PassId;
        CompileService::new(ServiceConfig {
            workers: 2,
            profile: CompilerProfile::polaris2008().with_fault(
                PassId::DataDependence,
                "MAIN",
                None,
            ),
            max_pending,
            ..ServiceConfig::default()
        })
    }

    #[test]
    fn one_batch_exercises_every_plan_arm() {
        let s = plan_service(2);
        // Warm-up: strike MAIN out, and put WARM in the result cache.
        s.compile_many(&[SuiteRequest::new("warm", src_for("WARM"))]);
        for _ in 0..QUARANTINE_STRIKES {
            s.compile_many(&[SuiteRequest::new("bad", SRC)]);
        }
        assert_eq!(s.quarantined_suites(), 1);

        // Three jobs against two slots: the oldest job is shed.
        let batch = [
            ("q", SRC.to_string(), Served::Quarantined),
            ("shed", src_for("SHED"), Served::Rejected),
            ("hit", src_for("WARM"), Served::CacheHit),
            ("q-dup", SRC.to_string(), Served::Quarantined),
            ("cold", src_for("COLD"), Served::Cold),
            ("!panic", src_for("BOOM"), Served::Cold),
            ("shed-dup", src_for("SHED"), Served::Rejected),
            ("hit-dup", src_for("WARM"), Served::Deduped),
            ("boom-dup", src_for("BOOM"), Served::Deduped),
            ("cold-dup", src_for("COLD"), Served::Deduped),
        ];
        let reqs: Vec<SuiteRequest> = batch
            .iter()
            .map(|(name, src, _)| SuiteRequest::new(*name, src.clone()))
            .collect();
        let out = s.compile_many(&reqs);
        for ((name, _, want), got) in batch.iter().zip(&out.outcomes) {
            assert_eq!(got.served, *want, "{name}");
            assert_eq!(got.name, *name);
        }
        // Duplicates share the owner's artifact, whatever it was.
        for (owner, dup) in [(0, 3), (1, 6), (2, 7), (5, 8), (4, 9)] {
            assert!(
                Arc::ptr_eq(&out.outcomes[owner].artifact, &out.outcomes[dup].artifact),
                "{} shares {}",
                batch[dup].0,
                batch[owner].0
            );
        }
        assert!(matches!(
            &*out.outcomes[5].artifact,
            SuiteArtifact::Failed(m) if m.contains("injected")
        ));
        let st = &out.stats;
        assert_eq!(
            (st.suites, st.cold, st.result_hits, st.deduped),
            (10, 2, 1, 3),
            "{st:?}"
        );
        assert_eq!(
            (st.rejected, st.quarantined, st.failed),
            (2, 2, 2),
            "{st:?}"
        );
        assert_eq!(st.deadline_expired, 0);
        assert!(st.pending_peak <= 2);
        assert_eq!(s.pending(), 0, "every admitted slot was released");
    }

    #[test]
    fn batch_tallies_sum_to_the_lifetime_tally() {
        let s = plan_service(16);
        let classes = |st: &ServiceStats| {
            [
                st.suites,
                st.cold,
                st.result_hits,
                st.deduped,
                st.failed,
                st.rejected,
                st.deadline_expired,
                st.quarantined,
            ]
        };
        let batches = [
            vec![
                SuiteRequest::new("bad", SRC),
                SuiteRequest::new("a", src_for("A")),
                SuiteRequest::new("a-dup", src_for("A")),
            ],
            vec![
                SuiteRequest::new("bad", SRC),
                SuiteRequest::new("a", src_for("A")),
                SuiteRequest::new("late", src_for("B")).with_deadline(Duration::ZERO),
                SuiteRequest::new("!panic", src_for("C")),
            ],
            vec![SuiteRequest::new("bad", SRC)],
            vec![
                SuiteRequest::new("bad", SRC),
                SuiteRequest::new("d", src_for("D")),
                SuiteRequest::new("e", src_for("E")),
                SuiteRequest::new("f", src_for("F")),
            ],
        ];
        let mut sum = [0usize; 8];
        for (n, batch) in batches.iter().enumerate() {
            // The last batch runs under held capacity (one job shed, two
            // admitted), after `bad`'s third strike.
            let _hold = (n == 3).then(|| s.hold_capacity(14));
            let st = s.compile_many(batch).stats;
            assert_eq!(st.suites, batch.len());
            for (total, class) in sum.iter_mut().zip(classes(&st)) {
                *total += class;
            }
        }
        assert_eq!(sum, classes(&s.cumulative_stats()));
        // No class is vacuous: each showed up at least once.
        assert!(sum.iter().all(|&n| n > 0), "{sum:?}");
    }

    #[test]
    fn concurrent_batches_never_overshoot_max_pending() {
        let s = CompileService::new(ServiceConfig {
            workers: 2,
            max_pending: 4,
            ..ServiceConfig::default()
        });
        // No start barrier: at the parent commit the natural spawn
        // stagger overshot in 21 of 200 runs, a barrier in only 3.
        let answered: usize = fan_out(8, 8, |t| {
            let batch: Vec<SuiteRequest> = (0..3)
                .map(|i| SuiteRequest::new("x", src_for(&format!("T{t}N{i}"))))
                .collect();
            let out = s.compile_many(&batch);
            for o in &out.outcomes {
                assert!(matches!(o.served, Served::Cold | Served::Rejected), "{:?}", o.served);
            }
            out.outcomes.len()
        })
        .into_iter()
        .sum();
        assert_eq!(answered, 24, "every request got exactly one outcome");
        assert!(s.peak_pending() <= 4, "peak {} overshot the bound", s.peak_pending());
        assert_eq!(s.pending(), 0);
        let c = s.cumulative_stats();
        assert_eq!(c.cold + c.rejected, 24);
    }
}
