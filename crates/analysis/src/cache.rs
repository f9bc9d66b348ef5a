//! Content-keyed memoization of interprocedural analyses.
//!
//! Every loop that contains calls takes a detour: the driver clones the
//! resolved program, inlines into that one loop, re-resolves, and then
//! needs a [`CallGraph`], [`Summaries`] and [`AliasInfo`] for the
//! result. Loops that inline the *same* call sets produce identical
//! programs, and a loop whose calls all refuse to inline produces the
//! base program again. An [`AnalysisCache`] keys those three
//! structures by program content, so N loops over identical inlined
//! programs share one build and an unchanged program lands on the
//! facts the driver seeded.
//!
//! ## What the detour shares, and how a program is keyed
//!
//! A [`Program`] holds `Arc<Unit>`s. The clone the inliner works on
//! shares every unit with the base program; inlining copies exactly
//! one — the loop's own unit, through `Program::unit_mut` — and may
//! remove callees it expanded away. A *changed unit* is therefore one
//! that is no longer pointer-identical to a unit of the base program,
//! and everything the detour does afterwards is per changed unit:
//! `ResolvedProgram::reresolve` builds a table for it and hands back
//! the base tables for the rest, and the cache key below prints it and
//! reads the rest from a list made once.
//!
//! The key of a program is the hash of the sequence of its units'
//! printed-text hashes. [`AnalysisCache::seed`] prints and hashes
//! every base unit once and remembers each next to its `Arc`; a lookup
//! finds a shared unit's hash by `Arc::ptr_eq` and prints only the
//! changed ones. Two programs get one key exactly when their printed
//! texts are equal — the printed program is the concatenation of its
//! printed units, each closed by `END` and a blank line, so equal
//! concatenations split into equal sequences — which is the
//! equivalence the cache has always used: equal text analyzes equally.
//! A detour that inlined nothing shares every unit, so it hashes
//! nothing and its key is the seeded one.
//!
//! ## Symbolic-id discipline
//!
//! [`Summaries`] stores [`apar_symbolic::VarId`]s, which are only
//! meaningful relative to the interner that produced them. Every cache
//! build therefore starts from a clone of one fixed *base* [`SymMap`]
//! (the driver's interner state at the fan-out point), and each entry
//! records the interner state *after* its builds. A consumer adopting a
//! cached entry must also adopt that recorded `sym` — it is a
//! deterministic extension of the base, so adopting it yields the same
//! ids no matter which worker populated the entry first. This is what
//! keeps per-pass op counts bit-identical across thread counts. What a
//! consumer interns on top stays private to it: forks are never merged
//! back, because nothing after the fan-out reads symbolic ids.
//!
//! The cache is internally synchronized: workers share one
//! `&AnalysisCache`. Builds run outside the lock; when two workers race
//! on the same miss, the first inserted entry wins and both observe it
//! (the duplicate build is discarded — results are identical by
//! construction, so either is safe to keep). The counters are defined
//! so that such a race does not show: a lookup counts as a build only
//! when its own build is the one used.
//!
//! ## Cross-compile reuse
//!
//! An `AnalysisCache` lives for one compile. What outlives a compile is
//! the [`LoopRecordStore`]: per-loop analysis outcomes under content
//! keys ([`crate::incr::loop_keys`]) that a later compile splices
//! instead of re-analyzing. Whole-program facts are deliberately not
//! shared across compiles — their key is the printed post-inline
//! program, which any one-line edit changes, and byte-identical text is
//! already a loop-key match.

use std::collections::hash_map::{DefaultHasher, Entry};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use apar_minifort::ast::Unit;
use apar_minifort::pretty::print_unit;
use apar_minifort::{Program, ResolvedProgram};

use crate::alias::AliasInfo;
use crate::callgraph::CallGraph;
use crate::lru::SyncLru;
use crate::summary::Summaries;
use crate::symx::SymMap;
use crate::Capabilities;

/// The memoized interprocedural facts for one resolved program.
#[derive(Clone, Debug)]
pub struct ProgramFacts {
    pub cg: CallGraph,
    pub summaries: Summaries,
    pub alias: AliasInfo,
    /// Interner state after the builds: a deterministic extension of
    /// the cache's base [`SymMap`]. Consumers of `summaries` must
    /// resolve its [`apar_symbolic::VarId`]s against this map (or a
    /// further extension of it).
    pub sym: SymMap,
    /// Symbolic ops the builds cost, recorded for reporting. The build
    /// is billed where it runs (against the cache's own build budget);
    /// consuming loops never re-charge it, so per-loop op accounting is
    /// a pure function of the loop's content — independent of cache
    /// state and thread count.
    pub build_ops: u64,
    /// The build's own op budget tripped before it finished: summaries
    /// and alias facts degraded to their conservative forms. Sound to
    /// use, but the driver reports dependent loops as `Complexity`.
    pub budget_tripped: bool,
}

/// Counters of a [`LoopRecordStore`], as one consistent snapshot.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LoopStoreStats {
    /// Always 0: retained for the frozen benchmark crate; drop with the
    /// next `benchmark` PR.
    pub hits: u64,
    /// Always 0: retained for the frozen benchmark crate; drop with the
    /// next `benchmark` PR.
    pub misses: u64,
    /// Always 0: retained for the frozen benchmark crate; drop with the
    /// next `benchmark` PR.
    pub evictions: u64,
    /// Per-loop records spliced into a compile after verification.
    pub loop_hits: u64,
    /// Per-loop lookups that found no record (the loop's content key
    /// was never published, changed, or was evicted).
    pub loop_misses: u64,
    /// Per-loop records found but discarded: the stored record failed
    /// structural verification against the current loop, so the splice
    /// was refused and the loop re-analyzed. A structured refusal, not
    /// a miss.
    pub loop_refusals: u64,
    /// Per-loop records evicted by the entry bound.
    pub loop_evictions: u64,
    /// Per-loop records currently resident.
    pub loop_entries: u64,
}

impl LoopStoreStats {
    /// Counter deltas `self - earlier` (for per-batch reporting);
    /// `loop_entries` stays absolute — it is a gauge.
    pub fn since(&self, earlier: &LoopStoreStats) -> LoopStoreStats {
        LoopStoreStats {
            loop_hits: self.loop_hits - earlier.loop_hits,
            loop_misses: self.loop_misses - earlier.loop_misses,
            loop_refusals: self.loop_refusals - earlier.loop_refusals,
            loop_evictions: self.loop_evictions - earlier.loop_evictions,
            loop_entries: self.loop_entries,
            ..LoopStoreStats::default()
        }
    }
}

/// The cross-compile store of per-loop analysis records, keyed by loop
/// content keys and LRU-bounded by entries. Many compilations (of the
/// same or different suites) attach one store; a loop whose content key
/// is resident splices the stored outcome instead of re-analyzing. Keys
/// cover everything a loop's analysis observes, so a splice can never
/// change a report, only skip work.
///
/// The record type `R` is the driver's (this crate sits below it); the
/// store only provides keyed retention, the LRU bound and counters.
#[derive(Debug)]
pub struct LoopRecordStore<R> {
    recs: SyncLru<Arc<R>>,
    loop_hits: AtomicU64,
    loop_misses: AtomicU64,
    loop_refusals: AtomicU64,
}

impl<R> LoopRecordStore<R> {
    /// A store bounded to `cap` resident loop records.
    pub fn bounded(cap: usize) -> Self {
        LoopRecordStore {
            recs: SyncLru::new(cap),
            loop_hits: AtomicU64::new(0),
            loop_misses: AtomicU64::new(0),
            loop_refusals: AtomicU64::new(0),
        }
    }

    /// Looks up a per-loop record by content key, refreshing its LRU
    /// position. `None` is counted as a [`LoopStoreStats::loop_misses`];
    /// the caller must verify a returned record against the live loop
    /// and then report the verdict via [`LoopRecordStore::note_loop_hit`]
    /// (spliced) or [`LoopRecordStore::note_loop_refusal`] (discarded) —
    /// a raw retrieval is not yet a hit.
    pub fn loop_get(&self, key: u64) -> Option<Arc<R>> {
        let rec = self.recs.lock().get(key).map(|r| Arc::clone(r));
        if rec.is_none() {
            self.loop_misses.fetch_add(1, Ordering::Relaxed);
        }
        rec
    }

    /// Records a verified splice: a retrieved per-loop record passed
    /// structural verification and was spliced into a compile.
    pub fn note_loop_hit(&self) {
        self.loop_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a discarded splice: a retrieved per-loop record failed
    /// verification against the live loop, so the splice was refused
    /// and the loop re-analyzed. Structurally distinct from a miss.
    pub fn note_loop_refusal(&self) {
        self.loop_refusals.fetch_add(1, Ordering::Relaxed);
    }

    /// Retains a freshly analyzed loop's record under its content key,
    /// evicting least-recently-used records past the bound.
    pub fn loop_put(&self, key: u64, rec: Arc<R>) {
        self.recs.lock().insert(key, rec);
    }

    /// Snapshot of the resident `(content key, record)` pairs, for the
    /// durable store's append pass.
    pub fn loop_snapshot(&self) -> Vec<(u64, Arc<R>)> {
        let recs = self.recs.lock();
        recs.iter().map(|(k, r)| (k, Arc::clone(r))).collect()
    }

    /// Snapshot of the store's counters.
    pub fn stats(&self) -> LoopStoreStats {
        let recs = self.recs.lock();
        LoopStoreStats {
            loop_hits: self.loop_hits.load(Ordering::Relaxed),
            loop_misses: self.loop_misses.load(Ordering::Relaxed),
            loop_refusals: self.loop_refusals.load(Ordering::Relaxed),
            loop_evictions: recs.evictions(),
            loop_entries: recs.len() as u64,
            ..LoopStoreStats::default()
        }
    }
}

/// What one compile's per-call-loop detours (clone → inline →
/// re-resolve → facts lookup) came to. Every field is a function of the
/// loops analyzed, not of how workers interleaved; loops spliced from a
/// [`LoopRecordStore`] take no detour, so the numbers do depend on
/// cache state and stay out of report signatures.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DetourStats {
    /// Detours that reached the facts lookup.
    pub lookups: u64,
    /// Lookups of the base program itself: nothing was inlined.
    pub unchanged: u64,
    /// Lookups answered by an earlier lookup's build.
    pub memo_hits: u64,
    /// Lookups answered by their own build: one per distinct program
    /// retained, plus every rejected build. A build that loses an
    /// insertion race to another worker is a memo hit, not a build.
    pub builds: u64,
    /// Units the looked-up programs did not share with the base
    /// program: each was re-resolved, and printed for the key.
    pub changed_units: u64,
}

impl DetourStats {
    /// Adds another compile's counters to these.
    pub fn add(&mut self, other: &DetourStats) {
        self.lookups += other.lookups;
        self.unchanged += other.unchanged;
        self.memo_hits += other.memo_hits;
        self.builds += other.builds;
        self.changed_units += other.changed_units;
    }
}

/// Memoizes `CallGraph::build` + `Summaries::build` + `AliasInfo::build`
/// per program key. One cache serves one compilation (one capability
/// set, one base interner, one seeded base program).
#[derive(Debug)]
pub struct AnalysisCache {
    caps: Capabilities,
    base_sym: SymMap,
    /// The seeded program's units, each with the hash of its printed
    /// text. Holding the `Arc`s is what makes the pointer test sound
    /// (a live allocation is never reused), and it pins the units: drop
    /// the cache before mutating the base program, or `unit_mut` copies.
    base_units: Vec<(Arc<Unit>, u64)>,
    /// Key of the seeded program.
    base_key: Option<u64>,
    map: Mutex<HashMap<u64, Arc<ProgramFacts>>>,
    lookups: AtomicU64,
    /// Lookups whose key was the seeded program's.
    unchanged: AtomicU64,
    /// Lookups whose own build entered the map.
    inserted: AtomicU64,
    /// Units of looked-up programs not shared with the seeded one.
    changed_units: AtomicU64,
    /// Op budget for one build (`u64::MAX` = unlimited). A build that
    /// trips it returns degraded facts which are NOT retained in the
    /// map — the poisoned-entry guard.
    build_budget: u64,
    /// Builds rejected from the map: budget-tripped or panicked.
    rejected: AtomicU64,
    #[cfg(test)]
    panic_on_build: std::sync::atomic::AtomicBool,
}

/// Hash of one unit's printed text; `text` is scratch space.
fn unit_hash(u: &Unit, text: &mut String) -> u64 {
    text.clear();
    print_unit(u, text);
    let mut h = DefaultHasher::new();
    text.hash(&mut h);
    h.finish()
}

impl AnalysisCache {
    /// Creates a cache for one compilation. `base_sym` is the interner
    /// state every build forks from; it must already contain every id
    /// the compilation's earlier passes handed out.
    pub fn new(caps: Capabilities, base_sym: SymMap) -> Self {
        AnalysisCache {
            caps,
            base_sym,
            base_units: Vec::new(),
            base_key: None,
            map: Mutex::new(HashMap::new()),
            lookups: AtomicU64::new(0),
            unchanged: AtomicU64::new(0),
            inserted: AtomicU64::new(0),
            changed_units: AtomicU64::new(0),
            build_budget: u64::MAX,
            rejected: AtomicU64::new(0),
            #[cfg(test)]
            panic_on_build: std::sync::atomic::AtomicBool::new(false),
        }
    }

    /// Caps the ops one build may spend. Pathological programs (a fuzzer
    /// favorite: one unit with thousands of names) trip it and degrade
    /// instead of stalling the compile.
    pub fn with_build_budget(mut self, budget: u64) -> Self {
        self.build_budget = budget;
        self
    }

    /// Content key of a program: the hash of its units' printed-text
    /// hashes, in order. A unit shared with the seeded program reads
    /// its hash from the seed; any other unit is printed here. Two
    /// programs with the same printed form get the same key and
    /// analyze identically, so they share facts.
    pub fn key(&self, prog: &Program) -> u64 {
        self.key_and_changed(prog).0
    }

    /// The key, and how many units had to be printed for it.
    fn key_and_changed(&self, prog: &Program) -> (u64, u64) {
        let mut h = DefaultHasher::new();
        let mut changed = 0;
        let mut text = String::new();
        for u in &prog.units {
            let unit_hash = match self.base_units.iter().find(|(b, _)| Arc::ptr_eq(b, u)) {
                Some((_, seeded)) => *seeded,
                None => {
                    changed += 1;
                    unit_hash(u, &mut text)
                }
            };
            unit_hash.hash(&mut h);
        }
        (h.finish(), changed)
    }

    /// Returns the facts for `rp`, building (and caching) on a miss.
    ///
    /// Poisoned-entry guard: a build that panics or trips the build
    /// budget is never retained in the map. The panic is re-raised (the
    /// driver's per-loop sandbox contains it); a budget-tripped build
    /// is returned uncached so its degraded facts can serve exactly the
    /// loop that asked, while later lookups get a fresh chance.
    pub fn facts(&self, rp: &ResolvedProgram) -> Arc<ProgramFacts> {
        let (key, changed) = self.key_and_changed(&rp.program);
        self.lookups.fetch_add(1, Ordering::Relaxed);
        self.changed_units.fetch_add(changed, Ordering::Relaxed);
        if let Some(f) = self.lock().get(&key) {
            if self.base_key == Some(key) {
                self.unchanged.fetch_add(1, Ordering::Relaxed);
            }
            return Arc::clone(f);
        }
        let built = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.build(rp)))
        {
            Ok(f) => f,
            Err(payload) => {
                // Nothing was inserted; record the rejection and let the
                // per-loop sandbox upstairs turn the panic into a
                // structured `InternalError` skip.
                self.rejected.fetch_add(1, Ordering::Relaxed);
                std::panic::resume_unwind(payload);
            }
        };
        if built.budget_tripped {
            self.rejected.fetch_add(1, Ordering::Relaxed);
            return Arc::new(built);
        }
        match self.lock().entry(key) {
            // Another worker built the same program first: this lookup
            // is a memo hit whose own build is discarded.
            Entry::Occupied(e) => Arc::clone(e.get()),
            Entry::Vacant(v) => {
                self.inserted.fetch_add(1, Ordering::Relaxed);
                Arc::clone(v.insert(Arc::new(built)))
            }
        }
    }

    /// Seeds the cache with the base program and the facts computed for
    /// it elsewhere (the driver's prelude facts): every unit is printed
    /// and hashed once, here, so later lookups of programs derived from
    /// `rp` print only what they changed. The stored `facts.sym` must
    /// extend this cache's base interner.
    pub fn seed(&mut self, rp: &ResolvedProgram, facts: ProgramFacts) -> Arc<ProgramFacts> {
        debug_assert!(
            self.base_sym.interner.is_prefix_of(&facts.sym.interner),
            "seeded facts must carry an extension of the base interner"
        );
        let mut text = String::new();
        self.base_units = rp
            .program
            .units
            .iter()
            .map(|u| (Arc::clone(u), unit_hash(u, &mut text)))
            .collect();
        let key = self.key(&rp.program);
        self.base_key = Some(key);
        Arc::clone(self.lock().entry(key).or_insert_with(|| Arc::new(facts)))
    }

    fn build(&self, rp: &ResolvedProgram) -> ProgramFacts {
        #[cfg(test)]
        if self.panic_on_build.load(Ordering::Relaxed) {
            panic!("injected cache-build panic");
        }
        let ops = if self.build_budget == u64::MAX {
            apar_symbolic::OpCounter::unlimited()
        } else {
            apar_symbolic::OpCounter::with_budget(self.build_budget)
        };
        let mut sym = self.base_sym.clone();
        let cg = CallGraph::build(rp);
        let summaries = Summaries::build(rp, &cg, &mut sym, self.caps, &ops);
        let alias = AliasInfo::build(rp, &cg, self.caps, &ops);
        ProgramFacts {
            cg,
            summaries,
            alias,
            sym,
            build_ops: ops.spent(),
            budget_tripped: ops.exceeded(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<u64, Arc<ProgramFacts>>> {
        self.map.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// The lookups so far, by how each was answered. Read it once the
    /// workers are done: the fields are loaded one by one.
    pub fn stats(&self) -> DetourStats {
        let lookups = self.lookups.load(Ordering::Relaxed);
        let unchanged = self.unchanged.load(Ordering::Relaxed);
        let builds = self.inserted.load(Ordering::Relaxed) + self.rejected();
        DetourStats {
            lookups,
            unchanged,
            memo_hits: lookups - unchanged - builds,
            builds,
            changed_units: self.changed_units.load(Ordering::Relaxed),
        }
    }

    /// Builds rejected from the map (budget-tripped or panicked).
    pub fn rejected(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }

    /// Distinct programs cached.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// True when nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.lock().len() == 0
    }
}

/// The capability set as a bit vector, for the loop content keys.
pub fn caps_bits(c: &Capabilities) -> u64 {
    [
        c.multilingual,
        c.interprocedural_noalias,
        c.input_deck_ranges,
        c.indirection_analysis,
        c.extended_symbolic,
        c.reshaped_access,
        c.guarded_regions,
    ]
    .iter()
    .fold(0u64, |acc, &b| (acc << 1) | b as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use apar_minifort::frontend;

    fn rp(src: &str) -> ResolvedProgram {
        frontend(src).expect("frontend")
    }

    #[test]
    fn identical_programs_share_one_build() {
        let a = rp("PROGRAM P\nREAL A(10)\nDO I = 1, 10\nA(I) = 1.0\nENDDO\nEND\n");
        let b = rp("PROGRAM P\nREAL A(10)\nDO I = 1, 10\nA(I) = 1.0\nENDDO\nEND\n");
        let cache = AnalysisCache::new(Capabilities::polaris2008(), SymMap::new());
        let fa = cache.facts(&a);
        let fb = cache.facts(&b);
        assert!(Arc::ptr_eq(&fa, &fb), "same text must share one entry");
        let st = cache.stats();
        assert_eq!((st.lookups, st.builds, st.memo_hits), (2, 1, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn different_programs_get_distinct_entries() {
        let a = rp("PROGRAM P\nX = 1.0\nEND\n");
        let b = rp("PROGRAM P\nX = 2.0\nEND\n");
        let cache = AnalysisCache::new(Capabilities::polaris2008(), SymMap::new());
        assert_ne!(cache.key(&a.program), cache.key(&b.program));
        let fa = cache.facts(&a);
        let fb = cache.facts(&b);
        assert!(!Arc::ptr_eq(&fa, &fb));
        assert_eq!(cache.stats().builds, 2);
    }

    #[test]
    fn cached_sym_extends_the_base() {
        let mut base = SymMap::new();
        base.interner.intern("PRELUDE::X");
        let base_clone = base.clone();
        let p =
            rp("PROGRAM P\nCOMMON /C/ N\nCALL S\nEND\nSUBROUTINE S\nCOMMON /C/ M\nM = 1\nEND\n");
        let cache = AnalysisCache::new(Capabilities::polaris2008(), base);
        let f = cache.facts(&p);
        assert!(base_clone.interner.is_prefix_of(&f.sym.interner));
    }

    #[test]
    fn budget_tripped_build_is_not_retained() {
        let p = rp(
            "PROGRAM P\nCOMMON /C/ K\nK = 1\nCALL S\nEND\nSUBROUTINE S\nCOMMON /C/ M\nM = 2\nEND\n",
        );
        let cache =
            AnalysisCache::new(Capabilities::polaris2008(), SymMap::new()).with_build_budget(1);
        let f1 = cache.facts(&p);
        assert!(f1.budget_tripped, "tiny budget must trip");
        assert_eq!(cache.len(), 0, "tripped build must not be cached");
        assert_eq!(cache.rejected(), 1);
        // A later lookup does not see the poisoned entry: it rebuilds.
        let f2 = cache.facts(&p);
        assert!(!Arc::ptr_eq(&f1, &f2));
        assert_eq!((cache.stats().builds, cache.stats().memo_hits), (2, 0));
    }

    #[test]
    fn panicked_build_is_not_retained_and_rethrows() {
        let p = rp("PROGRAM P\nX = 1.0\nEND\n");
        let cache = AnalysisCache::new(Capabilities::polaris2008(), SymMap::new());
        cache.panic_on_build.store(true, Ordering::Relaxed);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| cache.facts(&p)));
        assert!(r.is_err(), "panic must propagate to the sandbox");
        assert_eq!(cache.len(), 0, "panicked build must not be cached");
        assert_eq!(cache.rejected(), 1);
        // The cache recovers: with the fault cleared, the same program
        // builds and caches normally.
        cache.panic_on_build.store(false, Ordering::Relaxed);
        let f = cache.facts(&p);
        assert!(!f.budget_tripped);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn build_ops_are_deterministic_across_hit_and_miss() {
        let p = rp(
            "PROGRAM P\nCOMMON /C/ K\nK = 1\nCALL S\nEND\nSUBROUTINE S\nCOMMON /C/ M\nM = 2\nEND\n",
        );
        let cache = AnalysisCache::new(Capabilities::polaris2008(), SymMap::new());
        let a = cache.facts(&p); // miss: builds
        let b = cache.facts(&p); // hit: same entry
        assert!(a.build_ops > 0);
        assert_eq!(a.build_ops, b.build_ops);
    }

    #[test]
    fn concurrent_misses_converge_to_one_entry() {
        let p = rp("PROGRAM P\nREAL A(10)\nDO I = 1, 10\nA(I) = 1.0\nENDDO\nEND\n");
        let cache = AnalysisCache::new(Capabilities::polaris2008(), SymMap::new());
        let facts: Vec<Arc<ProgramFacts>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4).map(|_| s.spawn(|| cache.facts(&p))).collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("join"))
                .collect()
        });
        // All threads observe the same entry object after the race.
        let canonical = cache.facts(&p);
        assert!(facts.iter().all(|f| Arc::ptr_eq(f, &canonical)));
        assert_eq!(cache.len(), 1);
        // However the four raced, exactly one lookup's build was used.
        let st = cache.stats();
        assert_eq!((st.lookups, st.builds, st.memo_hits), (5, 1, 4));
    }

    #[test]
    fn shared_units_key_by_pointer_and_changed_units_by_text() {
        let base = rp(
            "PROGRAM P\nREAL A(10)\nCALL S(A)\nEND\nSUBROUTINE S(X)\nREAL X(*)\nX(1) = 0.0\nEND\n",
        );
        let mut cache = AnalysisCache::new(Capabilities::polaris2008(), SymMap::new());
        let seeded = cache.build(&base);
        let seeded = cache.seed(&base, seeded);
        let base_key = cache.key(&base.program);

        // A clone shares every unit: same key, and the lookup is counted
        // as a detour that changed nothing.
        let mut edit = base.program.clone();
        assert_eq!(cache.key(&edit), base_key);
        let same = cache.facts(&base.reresolve(edit.clone()).expect("reresolve"));
        assert!(Arc::ptr_eq(&same, &seeded));
        assert_eq!(
            cache.stats(),
            DetourStats {
                lookups: 1,
                unchanged: 1,
                ..DetourStats::default()
            }
        );

        // A copied but textually equal unit is still the same program.
        edit.unit_mut("S").expect("S");
        assert!(!Arc::ptr_eq(&base.program.units[1], &edit.units[1]));
        assert_eq!(cache.key(&edit), base_key);

        // A changed unit changes the key; the untouched one is not reprinted
        // (its hash comes from the seed), so the key equals a from-scratch
        // key of the same text.
        edit.unit_mut("S").expect("S").body.stmts.pop();
        let fresh = AnalysisCache::new(Capabilities::polaris2008(), SymMap::new());
        assert_ne!(cache.key(&edit), base_key);
        assert_eq!(cache.key(&edit), fresh.key(&edit));
    }

    #[test]
    fn loop_store_counts_misses_evictions_and_verdicts() {
        let store = LoopRecordStore::bounded(2);
        assert!(store.loop_get(1).is_none());
        for k in 1..=3 {
            store.loop_put(k, Arc::new(k));
        }
        assert!(store.loop_get(1).is_none(), "1 was evicted by 3");
        assert_eq!(store.loop_get(3).as_deref(), Some(&3u64));
        store.note_loop_hit();
        store.note_loop_refusal();
        let s = store.stats();
        assert_eq!(
            (
                s.loop_misses,
                s.loop_hits,
                s.loop_refusals,
                s.loop_evictions,
                s.loop_entries
            ),
            (2, 1, 1, 1, 2)
        );
        assert_eq!(store.loop_snapshot().len(), 2);
    }

    #[test]
    fn loop_stats_since_subtracts_counters_keeps_gauges() {
        let a = LoopStoreStats {
            loop_hits: 4,
            loop_misses: 6,
            loop_refusals: 1,
            loop_evictions: 2,
            loop_entries: 5,
            ..LoopStoreStats::default()
        };
        let b = LoopStoreStats {
            loop_hits: 9,
            loop_misses: 8,
            loop_refusals: 3,
            loop_evictions: 5,
            loop_entries: 4,
            ..LoopStoreStats::default()
        };
        let d = b.since(&a);
        assert_eq!(d.loop_hits, 5);
        assert_eq!(d.loop_misses, 2);
        assert_eq!(d.loop_refusals, 2);
        assert_eq!(d.loop_evictions, 3);
        assert_eq!(d.loop_entries, 4, "loop-record count is a gauge");
    }
}
