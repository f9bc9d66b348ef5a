//! The compiler driver: runs every pass of Figure 2 with wall-clock and
//! symbolic-op accounting, decides per-loop parallelization, and
//! annotates the program for the parallel runtime.

use std::cell::Cell;
use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::cancel::CancelToken;
use crate::classify::{classify, Classification};
use crate::profile::CompilerProfile;
use crate::report::{CompileReport, DegradeTier, PassId, SkipReason, SkippedLoop};
use crate::splice::{AnalyzedLoop, SplicedLoop};
use apar_analysis::access::{self, AccessKind};
use apar_analysis::alias::AliasInfo;
use apar_analysis::cache::{AnalysisCache, LoopRecordStore, ProgramFacts};
use apar_analysis::callgraph::CallGraph;
use apar_analysis::constprop::{self, ConstProp};
use apar_analysis::ddtest::{self, DdInput};
use apar_analysis::gsa;
use apar_analysis::incr;
use apar_analysis::induction;
use apar_analysis::inline;
use apar_analysis::loops::{find_loop, imbalanced_body, LoopForest, LoopInfo};
use apar_analysis::privatize;
use apar_analysis::ranges::ScalarState;
use apar_analysis::reduction;
use apar_analysis::summary::Summaries;
use apar_analysis::symx::SymMap;
use apar_minifort::ast::{LoopDirective, Schedule, StmtKind};
use apar_minifort::{
    frontend_recovering, parse_program, parse_program_recovering, resolve, resolve_recovering,
    Diag, Program, ResolvedProgram, StmtId, Unit,
};
use apar_symbolic::OpCounter;

/// The compiler.
#[derive(Clone, Debug, Default)]
pub struct Compiler {
    pub profile: CompilerProfile,
    /// Cross-compile loop-record store (the service layer's shared
    /// cache). `None` — the default — analyzes every loop. Attaching a
    /// store never changes any report: records are keyed by everything
    /// a loop's analysis observes, so a compile only ever splices an
    /// outcome it would have recomputed bit-for-bit.
    pub loop_store: Option<Arc<LoopRecordStore<SplicedLoop>>>,
    /// Cooperative cancellation for this compile: checked at pass
    /// checkpoints (the watchdog's own trip sites). Expiry degrades the
    /// compile to a structured partial result — completed loops keep
    /// their reports, the rest land in the skip ledger as
    /// `DeadlineExpired`. `None` (the default) never cancels.
    pub cancel: Option<CancelToken>,
    /// How much of the pipeline to run (the service's overload tiers).
    /// `Full` — the default — is the normal compiler.
    pub degrade: DegradeTier,
}

/// Facts recorded about one analyzed loop.
#[derive(Clone, Debug)]
pub struct LoopReport {
    pub unit: String,
    pub stmt: StmtId,
    pub var: String,
    pub depth: usize,
    pub target: Option<String>,
    pub classification: Classification,
    /// True when this loop received a parallel annotation (outermost
    /// parallelizable loops only).
    pub parallelized: bool,
    /// True when the annotation is speculative: the runtime must
    /// validate the parallel execution and fall back to serial on a
    /// conflict (`CompilerProfile::with_runtime_test`).
    pub speculative: bool,
    pub pairs_tested: usize,
    pub ops_spent: u64,
    /// True when the op-budget watchdog (or the dependence test's own
    /// budget) abandoned this loop as `Complexity`.
    pub budget_tripped: bool,
}

/// Everything the compiler produces.
#[derive(Debug)]
pub struct CompileResult {
    /// The transformed, annotated, re-resolved program.
    pub rp: ResolvedProgram,
    pub report: CompileReport,
    pub loops: Vec<LoopReport>,
}

impl CompileResult {
    /// A compile of nothing: no units, no loops, nothing charged.
    fn empty(report: CompileReport) -> Self {
        CompileResult {
            rp: ResolvedProgram::default(),
            report,
            loops: Vec::new(),
        }
    }

    /// Reports for `!$TARGET` loops only.
    pub fn target_loops(&self) -> impl Iterator<Item = &LoopReport> {
        self.loops.iter().filter(|l| l.target.is_some())
    }

    /// Loops the op-budget watchdog abandoned as `Complexity`.
    pub fn budget_tripped_loops(&self) -> usize {
        self.loops.iter().filter(|l| l.budget_tripped).count()
    }

    /// Histogram of target-loop classifications (Figure 5 bars).
    pub fn target_histogram(&self) -> Vec<(Classification, usize)> {
        let mut counts: Vec<(Classification, usize)> = Vec::new();
        for l in self.target_loops() {
            match counts.iter_mut().find(|(c, _)| *c == l.classification) {
                Some((_, n)) => *n += 1,
                None => counts.push((l.classification, 1)),
            }
        }
        counts
    }

    /// Everything in a compile result that must not depend on the
    /// thread count, worker pool, or any cache state: per-pass ops, the
    /// per-loop records, the Figure 5 histogram, the skip ledger, and
    /// the containment counters. Wall seconds are deliberately
    /// excluded. Two results with equal signatures are bit-identical in
    /// every published dimension — the identity verdict of the compile
    /// benchmark, the fuzzer, and the service tests.
    pub fn report_signature(&self) -> String {
        let mut s = String::new();
        for p in PassId::ALL {
            let ops = self.report.per_pass.get(&p).map_or(0, |c| c.ops);
            s.push_str(&format!("{:?}={};", p, ops));
        }
        for l in &self.loops {
            s.push_str(&format!(
                "{}:{:?}:{:?}:{}:{}:{}:{};",
                l.unit,
                l.stmt,
                l.classification,
                l.parallelized,
                l.speculative,
                l.pairs_tested,
                l.ops_spent
            ));
        }
        for (c, n) in self.target_histogram() {
            s.push_str(&format!("{:?}x{};", c, n));
        }
        for sk in &self.report.skipped {
            s.push_str(&format!("skip:{}:{:?}:{:?};", sk.unit, sk.stmt, sk.reason));
        }
        // Containment counters: a panic or budget trip that fires in one
        // configuration but not another is a determinism bug the
        // identity verdict must catch.
        s.push_str(&format!(
            "panicked={};tripped={};diags={};dropped={};",
            self.report.panicked_loops(),
            self.budget_tripped_loops(),
            self.report.diags.len(),
            self.report.dropped_units.len()
        ));
        // Resilience markers: a degraded or expired compile must never
        // pass for a full one in an identity comparison.
        s.push_str(&format!(
            "tier={:?};expired={};",
            self.report.degrade, self.report.deadline_expired
        ));
        s
    }
}

impl Compiler {
    pub fn new(profile: CompilerProfile) -> Self {
        Compiler {
            profile,
            ..Compiler::default()
        }
    }

    /// This compiler with a cross-compile loop-record store attached:
    /// per-loop outcomes analyzed here become spliceable by later
    /// compiles sharing the store (and vice versa). Reports are
    /// bit-identical with or without it.
    pub fn with_loop_store(mut self, store: Arc<LoopRecordStore<SplicedLoop>>) -> Self {
        self.loop_store = Some(store);
        self
    }

    /// This compiler with a cancellation token: the compile checks it
    /// cooperatively at pass checkpoints and degrades to a structured
    /// `DeadlineExpired` partial result once it trips.
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// This compiler pinned to a degraded tier (see [`DegradeTier`]).
    pub fn with_degrade(mut self, tier: DegradeTier) -> Self {
        self.degrade = tier;
        self
    }

    fn expired(&self) -> bool {
        self.cancel.as_ref().is_some_and(|c| c.is_cancelled())
    }

    /// Compiles source text.
    pub fn compile_source(&self, app: &str, src: &str) -> Result<CompileResult, Diag> {
        let prog = parse_program(src).map_err(Diag::Parse)?;
        self.compile(app, prog)
    }

    /// Compiles source text with front-end recovery: garbled statements
    /// and unresolvable units degrade to diagnostics on the report
    /// instead of aborting the compile. Total — any byte sequence yields
    /// a `CompileResult` (possibly over an empty program).
    pub fn compile_source_recovering(&self, app: &str, src: &str) -> CompileResult {
        let (prog, parse_errs) = parse_program_recovering(src);
        let t = Instant::now();
        let (rp, resolve_errs) = resolve_recovering(prog);
        let frontend_wall = t.elapsed();
        let mut dropped: Vec<String> = resolve_errs.iter().map(|e| e.unit.clone()).collect();
        let mut diags: Vec<Diag> = parse_errs
            .into_iter()
            .map(Diag::Parse)
            .chain(resolve_errs.into_iter().map(Diag::Resolve))
            .collect();

        let mut result = self.drive(app, rp, frontend_wall).unwrap_or_else(|d| {
            // A unit the front end accepted stopped resolving after a
            // rewrite: degrade to a compile of nothing rather than
            // abort.
            diags.push(d);
            dropped.push("<all>".to_string());
            CompileResult::empty(self.new_report(app))
        });
        result.report.diags = diags;
        result.report.dropped_units = dropped;
        result
    }

    /// Compiles a parsed program.
    pub fn compile(&self, app: &str, prog: Program) -> Result<CompileResult, Diag> {
        let t = Instant::now();
        let rp = resolve(prog).map_err(Diag::Resolve)?;
        self.drive(app, rp, t.elapsed())
    }

    fn new_report(&self, app: &str) -> CompileReport {
        CompileReport {
            app: app.to_string(),
            profile: self.profile.name.clone(),
            degrade: (self.degrade != DegradeTier::Full).then_some(self.degrade),
            ..Default::default()
        }
    }

    /// The driver body behind every entry point: `rp` is the program
    /// as the front end — strict or recovering — resolved it, in
    /// `frontend_wall`.
    fn drive(
        &self,
        app: &str,
        mut rp: ResolvedProgram,
        frontend_wall: Duration,
    ) -> Result<CompileResult, Diag> {
        let caps = self.profile.caps;
        let mut report = self.new_report(app);

        // ---- Frontend ("others") ----------------------------------------
        report.statements = rp.program.executable_statements();
        report.units = rp.program.units.len();
        report.charge(PassId::Others, frontend_wall, rp.program.stmt_count as u64);

        // Parse-only tier stops here by design; an expired deadline
        // stops at the first post-frontend checkpoint. Either way the
        // result is structured: every discovered loop is ledgered.
        if self.degrade == DegradeTier::ParseOnly {
            return Ok(skip_all(
                rp,
                report,
                SkipReason::Degraded {
                    tier: DegradeTier::ParseOnly,
                },
            ));
        }
        if self.expired() {
            return Ok(skip_all(rp, report, SkipReason::DeadlineExpired));
        }

        // ---- Induction variable substitution ------------------------------
        // Every unit is copied once: the parser grew the originals by
        // pushing, the copies are capacity-tight, and they are what the
        // `CompileResult` — and a result cache — retains. A copy the
        // pass left alone is the same tree, so `rp` adopts it in the
        // original's place and `reresolve` hands it the table it
        // already has; only substituted units are resolved again.
        let t = Instant::now();
        let mut edited = Program {
            units: Vec::with_capacity(rp.program.units.len()),
            stmt_count: rp.program.stmt_count,
        };
        let mut substituted = 0u64;
        for slot in &mut rp.program.units {
            let mut copy = Unit::clone(slot);
            let n = if copy.lang == apar_minifort::Lang::C && !caps.multilingual {
                0
            } else {
                let table = &rp.tables[&copy.name];
                let r = induction::run_on_unit(&mut copy, table, &mut edited.stmt_count);
                r.substituted.len()
            };
            let copy = Arc::new(copy);
            if n == 0 {
                *slot = Arc::clone(&copy);
            }
            substituted += n as u64;
            edited.units.push(copy);
        }
        rp = rp.reresolve(edited).map_err(Diag::Resolve)?;
        report.charge(
            PassId::InductionSubstitution,
            t.elapsed(),
            rp.program.stmt_count as u64 + substituted * 32,
        );
        if self.expired() {
            return Ok(skip_all(rp, report, SkipReason::DeadlineExpired));
        }

        // ---- GSA translation ----------------------------------------------
        let t = Instant::now();
        let mut gsa_ops = 0u64;
        for u in &rp.program.units {
            if u.lang == apar_minifort::Lang::C && !caps.multilingual {
                continue;
            }
            let stats = gsa::translate_unit(&rp, u);
            gsa_ops += (stats.gated_defs() as u64) * 8
                + stats.cfg_nodes as u64
                + (stats.option_branches as u64) * 16;
        }
        report.charge(PassId::GsaTranslation, t.elapsed(), gsa_ops);
        if self.expired() {
            return Ok(skip_all(rp, report, SkipReason::DeadlineExpired));
        }

        // ---- Structural substrate ("others") -------------------------------
        let t = Instant::now();
        let cg = CallGraph::build(&rp);
        let forest = LoopForest::build(&rp);
        let mut sym = SymMap::new();
        // The prelude counter never trips (whole-program passes run
        // once); its total is recorded on the seeded facts for
        // reporting only — per-loop watchdogs never re-bill it, so a
        // loop's op accounting stays a pure function of its own
        // content.
        let prelude_ops = OpCounter::unlimited();
        let summaries = Summaries::build(&rp, &cg, &mut sym, caps, &prelude_ops);
        let alias = AliasInfo::build(&rp, &cg, caps, &prelude_ops);
        report.loops = forest.loops.len();
        report.target_loops = forest.targets().count();
        report.charge(PassId::Others, t.elapsed(), forest.loops.len() as u64);
        if self.expired() {
            return Ok(skip_all(rp, report, SkipReason::DeadlineExpired));
        }

        // ---- Interprocedural constant propagation ---------------------------
        let t = Instant::now();
        let cp = constprop::propagate(&rp, &cg, &mut sym, caps, &summaries);
        let cp_ops = rp.program.stmt_count as u64 * 2
            + (cp.formal_constants as u64 + cp.common_facts as u64) * 16;
        report.charge(PassId::InterproceduralConstProp, t.elapsed(), cp_ops);
        if self.expired() {
            return Ok(skip_all(rp, report, SkipReason::DeadlineExpired));
        }

        // From here to the fan-out the driver computes keys, seeds the
        // analysis cache and resolves splices: no symbolic work (0 ops),
        // but real wall, billed to "others" so Figure 2's seconds column
        // adds up to the compile's wall.
        let t_glue = Instant::now();

        // ---- Incremental recompilation keys ---------------------------------
        //
        // With a shared store attached, each loop gets a content key
        // covering everything its analysis can observe (its unit's
        // text, the post-inline closure with summaries and caller
        // edges, alias facts, propagated scalar state, and the
        // analysis knobs — see `apar_analysis::incr`). A prior
        // compile's outcome stored under the same key spliced in below
        // is bit-identical to re-analysis by construction. Disabled
        // under fault injection (a splice would skip the injected
        // panic). The parse-only tier returned above, so every compile
        // that gets here is a full analysis.
        let store = self.loop_store.as_deref();
        let store = store.filter(|_| self.profile.fault.is_none());
        let splice: Option<(&LoopRecordStore<SplicedLoop>, Vec<u64>)> = store.map(|store| {
            let knobs = incr::Knobs {
                loop_op_budget: self.profile.loop_op_budget,
                inline_depth: self.profile.inline_depth,
                inline_stmt_budget: self.profile.inline_stmt_budget,
                runtime_test: self.profile.runtime_test,
            };
            let keys = incr::loop_keys(
                &rp, &forest, &cg, &summaries, &alias, &cp, &sym, &caps, &knobs,
            );
            (store, keys)
        });

        // ---- Per-loop analysis (fan-out) ------------------------------------
        //
        // Each loop's analysis is a pure function of the pristine
        // resolved program plus the prelude facts, so the loops fan out
        // over `profile.threads` scoped workers sharing one
        // content-keyed [`AnalysisCache`]. Workers never observe the
        // annotations other loops produce; ordering-sensitive work
        // (outermost-parallel ancestry, annotation, charge accounting)
        // happens in the sequential merge below, in loop order, which
        // keeps reports bit-identical regardless of thread count.
        let mut cache = AnalysisCache::new(caps, sym.clone())
            .with_build_budget(self.profile.loop_op_budget.saturating_mul(32));
        let base = cache.seed(
            &rp,
            ProgramFacts {
                cg,
                summaries,
                alias,
                sym: sym.clone(),
                build_ops: prelude_ops.spent(),
                budget_tripped: false,
            },
        );
        // ---- Incremental splice (before the fan-out) ------------------------
        // A retrieved record must re-verify structurally against the
        // live loop; a mismatch (hash collision or stale structure) is
        // a counted refusal and the loop re-analyzes cold. Splices are
        // resolved on this thread, in loop order, so hit/refusal
        // accounting is deterministic.
        let n = forest.loops.len();
        let mut slots: Vec<Option<LoopOutcome>> = (0..n).map(|_| None).collect();
        if let Some((store, keys)) = &splice {
            for (i, info) in forest.loops.iter().enumerate() {
                let Some(rec) = store.loop_get(keys[i]) else {
                    continue;
                };
                if rec.matches(info) {
                    store.note_loop_hit();
                    slots[i] = Some(LoopOutcome::spliced(&rec));
                } else {
                    store.note_loop_refusal();
                }
            }
        }

        report.charge(PassId::Others, t_glue.elapsed(), 0);

        let outcomes: Vec<LoopOutcome> = {
            let ctx = LoopCtx {
                profile: &self.profile,
                rp: &rp,
                base: &base,
                cp: &cp,
                cache: &cache,
                cancel: self.cancel.as_ref(),
            };
            let work: Vec<usize> = (0..n).filter(|&i| slots[i].is_none()).collect();
            let analyzed = crate::fan_out(work.len(), self.profile.threads, |w| {
                analyze_loop(&ctx, &forest.loops[work[w]])
            });
            for (i, o) in work.into_iter().zip(analyzed) {
                slots[i] = Some(o);
            }
            slots
                .into_iter()
                .map(|o| o.expect("every loop was spliced or analyzed"))
                .collect()
        };
        report.detour = cache.stats();
        // The cache pins the base units for its pointer test; release
        // them so annotating `rp` below edits each unit in place.
        drop(cache);
        debug_assert!(
            rp.program.units.iter().all(|u| Arc::strong_count(u) == 1),
            "a scratch program or cache outlived the fan-out: the merge would copy units"
        );

        // ---- Deterministic merge (loop order) -------------------------------
        let t_merge = Instant::now();
        // Loops the analysis proved parallel, for COLLAPSE computation:
        // a perfect-nest chain counts only members of this set.
        let auto_ok: HashSet<StmtId> = forest
            .loops
            .iter()
            .zip(&outcomes)
            .filter(|(_, o)| {
                matches!(&o.result, Ok(a) if a.classification == Classification::Autoparallelized)
            })
            .map(|(info, _)| info.id.stmt)
            .collect();
        let mut loops_out: Vec<LoopReport> = Vec::new();
        let mut parallel_loops: HashSet<StmtId> = HashSet::new();
        for (i, (info, outcome)) in forest.loops.iter().zip(outcomes).enumerate() {
            // Publish fresh, cacheable outcomes under their content key
            // for later compiles to splice. Nothing content-coupled to
            // the rest of the program (facts-build budget trips) or
            // non-analyses (panics, deadline expiries) is ever stored,
            // and a spliced outcome is never `cacheable` again.
            if let (Some((store, keys)), Ok(a)) = (&splice, &outcome.result) {
                if outcome.cacheable {
                    let rec = SplicedLoop::capture(info, a, &outcome.charges);
                    store.loop_put(keys[i], Arc::new(rec));
                }
            }
            for (pass, wall, ops) in outcome.charges {
                report.charge(pass, wall, ops);
            }
            report.charge(PassId::Others, outcome.unbilled, 0);
            let analyzed = match outcome.result {
                Ok(a) => a,
                Err(reason) => {
                    let internal = matches!(reason, SkipReason::InternalError { .. });
                    if matches!(reason, SkipReason::DeadlineExpired) {
                        report.deadline_expired = true;
                    }
                    report.skipped.push(SkippedLoop {
                        unit: info.id.unit.clone(),
                        stmt: info.id.stmt,
                        target: info.target.clone(),
                        reason,
                    });
                    if !internal {
                        continue;
                    }
                    // A contained panic produces BOTH ledger entries:
                    // the skip record carrying the diagnosis, and a
                    // serial `Complexity` loop report so the Figure 5
                    // accounting still covers the loop.
                    AnalyzedLoop {
                        var: info.var.clone(),
                        classification: Classification::Complexity,
                        candidate: None,
                        pairs_tested: 0,
                        ops_spent: 0,
                        budget_tripped: false,
                    }
                }
            };

            // Annotate the outermost parallel loops on the ORIGINAL AST.
            let mut annotated = false;
            let mut speculative = false;
            if let Some(mut directive) = analyzed.candidate {
                if !has_parallel_ancestor(&forest, info, &parallel_loops) {
                    if let Some(u) = rp.unit(&info.id.unit) {
                        directive.collapse = collapse_depth(u, info.id.stmt, &auto_ok);
                    }
                    speculative = directive.speculative;
                    annotated = annotate_loop(&mut rp, &info.id.unit, info.id.stmt, directive);
                    if annotated {
                        parallel_loops.insert(info.id.stmt);
                    } else {
                        speculative = false;
                    }
                }
            }

            loops_out.push(LoopReport {
                unit: info.id.unit.clone(),
                stmt: info.id.stmt,
                var: analyzed.var,
                depth: info.depth,
                target: info.target.clone(),
                classification: analyzed.classification,
                parallelized: annotated && !speculative,
                speculative,
                pairs_tested: analyzed.pairs_tested,
                ops_spent: analyzed.ops_spent,
                budget_tripped: analyzed.budget_tripped,
            });
        }

        report.charge(PassId::Others, t_merge.elapsed(), 0);

        Ok(CompileResult {
            rp,
            report,
            loops: loops_out,
        })
    }

    /// Compiles source text and renders the result through the codegen
    /// backend: the annotated program becomes directive-annotated
    /// MiniFort text, hindered loops carry their reason as a
    /// `!$PAR SERIAL` comment, and parallelizable-but-not-emittable
    /// loops are demoted to serial and ledgered as
    /// [`SkipReason::NotEmittable`]. The emitted source is reparsed by
    /// the recovering front end so callers can execute it.
    pub fn compile_and_emit(&self, app: &str, src: &str) -> Result<EmitResult, Diag> {
        let result = self.compile_source(app, src)?;
        Ok(self.emit(result))
    }

    /// The emission half of [`Compiler::compile_and_emit`], usable on
    /// any [`CompileResult`] (e.g. one from a recovering compile).
    pub fn emit(&self, mut result: CompileResult) -> EmitResult {
        // Serial-reason comments: every loop the classifier hindered.
        // Parallelizable loops that went unannotated because an
        // ancestor absorbed them are not "serial" — they run inside the
        // ancestor's parallel region — so they get no comment.
        let mut reasons: HashMap<StmtId, String> = HashMap::new();
        for l in &result.loops {
            if l.classification != Classification::Autoparallelized && !l.parallelized {
                reasons.insert(l.stmt, l.classification.label().to_string());
            }
        }
        for s in &result.report.skipped {
            reasons.insert(s.stmt, s.reason.label().to_string());
        }
        let out = apar_codegen::emit(&result.rp, &reasons);

        // Fold rejections into the report: the loop is serial after
        // all, and the skip ledger says why instead of the program
        // silently degrading.
        for rej in &out.rejected {
            strip_annotation(&mut result.rp, &rej.unit, rej.stmt);
            let target = result
                .loops
                .iter()
                .find(|l| l.stmt == rej.stmt && l.unit == rej.unit)
                .and_then(|l| l.target.clone());
            result.report.skipped.push(SkippedLoop {
                unit: rej.unit.clone(),
                stmt: rej.stmt,
                target,
                reason: SkipReason::NotEmittable {
                    detail: rej.reason.clone(),
                },
            });
            if let Some(l) = result
                .loops
                .iter_mut()
                .find(|l| l.stmt == rej.stmt && l.unit == rej.unit)
            {
                l.parallelized = false;
                l.speculative = false;
            }
        }

        let (reparsed, reparse_diags, _) = frontend_recovering(&out.source);
        EmitResult {
            result,
            source: out.source,
            emitted: out.emitted,
            reparsed,
            reparse_diags,
        }
    }
}

/// Everything [`Compiler::compile_and_emit`] produces.
#[derive(Debug)]
pub struct EmitResult {
    /// The compile result, with codegen rejections folded into the
    /// skip ledger and the corresponding loop reports demoted.
    pub result: CompileResult,
    /// The directive-annotated MiniFort artifact.
    pub source: String,
    /// Loops emitted under a `!$PAR DO` directive.
    pub emitted: usize,
    /// `source`, reparsed and re-resolved by the recovering front end —
    /// ready for the runtime. The emit contract is `reparse_diags`
    /// empty: the artifact round-trips cleanly.
    pub reparsed: ResolvedProgram,
    /// Diagnostics from reparsing (empty when the round-trip holds).
    pub reparse_diags: Vec<Diag>,
}

/// Terminal degraded compile: the front end ran, nothing else will.
/// Every loop the forest discovers lands in the skip ledger with
/// `reason` (skip-entry only, no loop reports, so
/// `loops.len() + skipped.len()` still covers every discovered loop)
/// and the report keeps whatever the completed passes charged.
fn skip_all(rp: ResolvedProgram, mut report: CompileReport, reason: SkipReason) -> CompileResult {
    let forest = LoopForest::build(&rp);
    report.loops = forest.loops.len();
    report.target_loops = forest.targets().count();
    if matches!(reason, SkipReason::DeadlineExpired) {
        report.deadline_expired = true;
    }
    for info in &forest.loops {
        report.skipped.push(SkippedLoop {
            unit: info.id.unit.clone(),
            stmt: info.id.stmt,
            target: info.target.clone(),
            reason: reason.clone(),
        });
    }
    CompileResult {
        rp,
        report,
        loops: Vec::new(),
    }
}

/// Read-only context shared by the per-loop analysis workers.
struct LoopCtx<'a> {
    profile: &'a CompilerProfile,
    /// The pristine resolved program — never carries `auto_par`
    /// annotations while workers run.
    rp: &'a ResolvedProgram,
    /// Prelude facts for the base program (cache entry zero).
    base: &'a Arc<ProgramFacts>,
    cp: &'a ConstProp,
    cache: &'a AnalysisCache,
    /// The compile's cancellation token, checked at the watchdog's own
    /// trip sites.
    cancel: Option<&'a CancelToken>,
}

impl LoopCtx<'_> {
    fn expired(&self) -> bool {
        self.cancel.is_some_and(|c| c.is_cancelled())
    }
}

/// One loop's complete analysis output. Produced independently per
/// loop; the driver merges outcomes in loop order.
struct LoopOutcome {
    /// Per-pass charges, in the order a sequential run records them.
    charges: Vec<(PassId, Duration, u64)>,
    /// Wall this loop's analysis took beyond what `charges` bills to a
    /// pass: the facts lookup or build, the interner fork, the ranges
    /// re-run, locating the body. It carries no ops, so it is kept out
    /// of `charges` (and out of stored [`SplicedLoop`]s) and billed to
    /// "others" at the merge.
    unbilled: Duration,
    /// Safe to store under the loop's content key for later compiles
    /// to splice: the outcome is a pure function of what the key
    /// covers. False for anything coupled to whole-program state (a
    /// facts-build budget trip fires at a program-order-dependent
    /// point) and for non-analyses (panics, deadline expiries,
    /// degraded-tier skips).
    cacheable: bool,
    result: Result<AnalyzedLoop, SkipReason>,
}

impl LoopOutcome {
    /// The loop was not analyzed and nothing is billed. A deadline
    /// trip or a panic mid-analysis ends here too: the partial charges
    /// are dropped, so a cancelled or panicked loop contributes nothing
    /// to the merge — the only outcome reproducible at every thread
    /// count.
    fn skip(reason: SkipReason) -> Self {
        Self::partial(Vec::new(), reason)
    }

    /// Analysis stopped at `reason`; the passes that completed stay
    /// billed.
    fn partial(charges: Vec<(PassId, Duration, u64)>, reason: SkipReason) -> Self {
        LoopOutcome {
            charges,
            unbilled: Duration::ZERO,
            cacheable: false,
            result: Err(reason),
        }
    }

    /// A stored record, replayed: already stored, so never published
    /// again.
    fn spliced(rec: &SplicedLoop) -> Self {
        let (charges, analyzed) = rec.replay();
        LoopOutcome {
            charges,
            unbilled: Duration::ZERO,
            cacheable: false,
            result: Ok(analyzed),
        }
    }
}

/// Analyzes one loop against the pristine resolved program. Pure with
/// respect to the fan-out: the only shared state is the read-only
/// context and the internally synchronized analysis cache, so the
/// outcome does not depend on which worker runs it or when.
///
/// The analysis body runs inside a panic sandbox: a panic in any pass
/// degrades only this loop to a structured [`SkipReason::InternalError`]
/// (the merge also books it as `Complexity` for target accounting),
/// leaving every other loop's outcome untouched at any thread count.
fn analyze_loop(ctx: &LoopCtx<'_>, info: &LoopInfo) -> LoopOutcome {
    let caps = ctx.profile.caps;
    let rp = ctx.rp;
    let unit_name = info.id.unit.as_str();
    if ctx.expired() {
        return LoopOutcome::skip(SkipReason::DeadlineExpired);
    }
    let Some(unit) = rp.unit(unit_name) else {
        return LoopOutcome::skip(SkipReason::UnitMissing);
    };
    if unit.lang == apar_minifort::Lang::C && !caps.multilingual {
        return LoopOutcome::skip(SkipReason::ForeignLanguage);
    }

    let pass = Cell::new(PassId::Others);
    let t = Instant::now();
    let caught = catch_unwind(AssertUnwindSafe(|| analyze_loop_inner(ctx, info, &pass)));
    let wall = t.elapsed();
    match caught {
        Ok(mut outcome) => {
            let billed: Duration = outcome.charges.iter().map(|&(_, w, _)| w).sum();
            outcome.unbilled = wall.saturating_sub(billed);
            outcome
        }
        Err(payload) => LoopOutcome {
            unbilled: wall,
            ..LoopOutcome::skip(SkipReason::InternalError {
                pass: pass.get(),
                message: panic_message(payload.as_ref()),
            })
        },
    }
}

/// Best-effort text from a caught panic payload.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Marks entry into pass `p` for sandbox diagnostics and fires any
/// injected fault targeting this loop at this pass.
fn enter_pass(ctx: &LoopCtx<'_>, info: &LoopInfo, p: PassId, pass: &Cell<PassId>) {
    pass.set(p);
    if let Some(f) = &ctx.profile.fault {
        if f.pass == p && f.unit == info.id.unit && f.stmt.is_none_or(|s| s == info.id.stmt) {
            panic!("injected fault: {:?} in {}", p, info.id.unit);
        }
    }
}

/// A watchdog trip: the loop is abandoned as `Complexity`, exactly as
/// the dependence test's own budget trip classifies it. `cacheable` is
/// true only when the trip point is a pure function of the loop's own
/// content (inline/ranges/ddtest charges) — a facts-build trip is not
/// (it fires at a whole-program-order-dependent point).
fn complexity_outcome(
    info: &LoopInfo,
    charges: Vec<(PassId, Duration, u64)>,
    ops_spent: u64,
    cacheable: bool,
) -> LoopOutcome {
    LoopOutcome {
        charges,
        unbilled: Duration::ZERO,
        cacheable,
        result: Ok(AnalyzedLoop {
            var: info.var.clone(),
            classification: Classification::Complexity,
            candidate: None,
            pairs_tested: 0,
            ops_spent,
            budget_tripped: true,
        }),
    }
}

fn analyze_loop_inner(ctx: &LoopCtx<'_>, info: &LoopInfo, pass: &Cell<PassId>) -> LoopOutcome {
    let caps = ctx.profile.caps;
    let rp = ctx.rp;
    let unit_name = info.id.unit.as_str();
    let mut charges: Vec<(PassId, Duration, u64)> = Vec::new();
    // One watchdog for the whole per-loop pipeline: every pass charges
    // it, so a pathological loop trips to `Complexity` deterministically
    // no matter which pass the work lands in.
    let loop_ops = OpCounter::with_budget(ctx.profile.loop_op_budget);

    // Choose the program to analyze: inline calls if any.
    enter_pass(ctx, info, PassId::InlineExpansion, pass);
    let has_calls = !info.calls.is_empty();
    let (arp, inline_time, spliced) = if has_calls {
        let t = Instant::now();
        // The scratch program shares every unit with `rp`; inlining
        // copies this loop's unit and re-resolution is per changed unit.
        let mut scratch = rp.program.clone();
        let (_n, _fails) = inline::inline_calls_in_loop(
            &mut scratch,
            rp,
            &ctx.base.cg,
            caps,
            unit_name,
            info.id.stmt,
            ctx.profile.inline_depth,
            ctx.profile.inline_stmt_budget,
            &loop_ops,
        );
        match rp.reresolve(scratch) {
            Ok(srp) => {
                // Inlining can shrink the program as well as grow it (a
                // callee whose every call site was expanded is removed
                // from the scratch copy), so the splice metric
                // saturates instead of underflowing.
                let spliced = srp.program.stmt_count.saturating_sub(rp.program.stmt_count);
                (Some(srp), t.elapsed(), spliced as u64)
            }
            Err(_) => (None, t.elapsed(), 0),
        }
    } else {
        (None, Duration::ZERO, 0)
    };
    if has_calls {
        charges.push((PassId::InlineExpansion, inline_time, spliced * 4));
        if ctx.expired() {
            return LoopOutcome::skip(SkipReason::DeadlineExpired);
        }
        if loop_ops.exceeded() {
            return complexity_outcome(info, charges, loop_ops.spent(), true);
        }
    }
    let arp_ref: &ResolvedProgram = arp.as_ref().unwrap_or(rp);

    // Interprocedural facts for the analyzed program: one cache lookup
    // replaces the per-loop CallGraph / Summaries / AliasInfo rebuilds
    // the sequential driver used to issue. The worker's interner adopts
    // the facts' recorded state so the `summaries` VarIds resolve.
    enter_pass(ctx, info, PassId::Others, pass);
    let facts: Arc<ProgramFacts> = match &arp {
        Some(srp) => ctx.cache.facts(srp),
        None => Arc::clone(ctx.base),
    };
    let mut sym = facts.sym.clone();
    // The facts build (summaries + alias) is billed where it runs —
    // against the cache's own 32x build budget — and never re-billed to
    // consuming watchdogs: a loop's op accounting is a pure function of
    // its own content, identical whether the facts came from a fresh
    // build or a cache hit. A build that
    // tripped its own budget still poisons every consuming loop, but
    // that outcome is content-coupled to the whole program, so it is
    // never stored under the loop's content key.
    if ctx.expired() {
        return LoopOutcome::skip(SkipReason::DeadlineExpired);
    }
    if facts.budget_tripped {
        return complexity_outcome(info, charges, loop_ops.spent(), false);
    }

    // Ranges for the analyzed program (recomputed for the unit when
    // inlining changed it).
    let state: ScalarState = if arp.is_some() {
        let seed = ctx.cp.seeds.get(unit_name).cloned().unwrap_or_default();
        let ur = apar_analysis::ranges::analyze_unit(
            arp_ref,
            unit_name,
            &mut sym,
            caps,
            &facts.summaries,
            &seed,
            &loop_ops,
        );
        ur.at_loop.get(&info.id.stmt).cloned().unwrap_or_default()
    } else {
        ctx.cp
            .ranges
            .get(unit_name)
            .and_then(|ur| ur.at_loop.get(&info.id.stmt))
            .cloned()
            .unwrap_or_default()
    };
    if ctx.expired() {
        return LoopOutcome::skip(SkipReason::DeadlineExpired);
    }
    if loop_ops.exceeded() {
        return complexity_outcome(info, charges, loop_ops.spent(), true);
    }

    // Locate the loop body in the analyzed program.
    let Some(aunit) = arp_ref.unit(unit_name) else {
        return LoopOutcome::partial(charges, SkipReason::InlinedAway);
    };
    let Some(StmtKind::Do {
        var,
        lo,
        hi,
        step,
        body,
        ..
    }) = find_loop(aunit, info.id.stmt).map(|s| &s.kind)
    else {
        return LoopOutcome::partial(charges, SkipReason::HeaderMissing);
    };

    // Dependence test.
    enter_pass(ctx, info, PassId::DataDependence, pass);
    let t = Instant::now();
    let pre_dd = loop_ops.spent();
    let la = access::collect(arp_ref, unit_name, body, &mut sym, &state);
    let input = DdInput {
        rp: arp_ref,
        unit: unit_name,
        loop_var: var,
        lo,
        hi,
        step: step.as_ref(),
        state: &state,
        la: &la,
    };
    let dd = ddtest::test_loop(
        &input,
        &mut sym,
        caps,
        &facts.alias,
        &facts.summaries,
        &loop_ops,
    );
    // Per-pass report buckets are spent() deltas: the watchdog's
    // pre-charges (inline, facts share, ranges) belong to the loop's
    // own ops_spent, not to the published Figure 2 pass costs.
    let dd_ops = loop_ops.spent() - pre_dd;
    charges.push((PassId::DataDependence, t.elapsed(), dd_ops));

    // Privatization.
    enter_pass(ctx, info, PassId::Privatization, pass);
    let t = Instant::now();
    let pre_priv = loop_ops.spent();
    let priv_res = privatize::analyze(
        arp_ref,
        aunit,
        info.id.stmt,
        body,
        var,
        &la,
        &state,
        &mut sym,
        caps,
        &loop_ops,
    );
    charges.push((
        PassId::Privatization,
        t.elapsed(),
        loop_ops.spent() - pre_priv,
    ));

    // Reduction recognition.
    enter_pass(ctx, info, PassId::Reduction, pass);
    let t = Instant::now();
    let Some(table) = arp_ref.tables.get(unit_name) else {
        // A resolved program always carries a table per unit; a missing
        // one is a front-end invariant violation, contained to this
        // loop as a structured skip rather than an index panic.
        return LoopOutcome::partial(
            charges,
            SkipReason::InternalError {
                pass: PassId::Reduction,
                message: format!("symbol table missing for unit {unit_name}"),
            },
        );
    };
    let reds = reduction::find_reductions(body, &|n| table.is_array(n));
    charges.push((PassId::Reduction, t.elapsed(), la.accesses.len() as u64));

    // Decision.
    let red_names: HashSet<&str> = reds.iter().map(|r| r.var.as_str()).collect();
    let leftover = priv_res
        .failed_scalars
        .iter()
        .filter(|s| !red_names.contains(s.as_str()))
        .count();
    let private_arrays: HashSet<&str> =
        priv_res.private_arrays.iter().map(|s| s.as_str()).collect();
    let classification = classify(&dd, la.has_io || la.has_escape, leftover, &|d| {
        private_arrays.contains(d.array.as_str())
    });
    let parallel = classification == Classification::Autoparallelized;

    // Speculative candidates: hindrances a runtime dependence test can
    // discharge (the array conflict is data-dependent), with no I/O or
    // escaping effects to roll back and no unprivatizable scalars
    // (those would conflict on every run).
    let spec_candidate = ctx.profile.runtime_test
        && matches!(
            classification,
            Classification::Indirection
                | Classification::Rangeless
                | Classification::SymbolAnalysis
        )
        && !la.has_io
        && !la.has_escape
        && leftover == 0;
    // A unit present in the analyzed program but absent from the
    // original one cannot be annotated anyway; treat a missing original
    // table as "no candidate" instead of an index panic.
    let candidate = if (parallel || spec_candidate) && rp.tables.contains_key(unit_name) {
        let orig_table = &rp.tables[unit_name];
        // Write summary for speculative regions: the cells a rollback
        // must restore. Only exact summaries are emitted — a body with
        // calls may write through its callees, and an analysis access
        // list can reference transform-introduced temporaries absent
        // from the original program; either case leaves `writes` unset
        // so the runtime falls back to a full checkpoint.
        let writes = if !parallel && la.calls.is_empty() {
            let mut w: Vec<String> = la
                .accesses
                .iter()
                .filter(|a| a.kind == AccessKind::Write)
                .map(|a| a.array.clone())
                .chain(la.scalar_writes.iter().map(|(n, _, _)| n.clone()))
                .collect();
            w.sort_unstable();
            w.dedup();
            if w.iter().all(|n| orig_table.get(n).is_some()) {
                Some(w)
            } else {
                None
            }
        } else {
            None
        };
        Some(LoopDirective {
            private: priv_res
                .private_scalars
                .iter()
                .chain(priv_res.private_arrays.iter())
                .filter(|n| orig_table.get(n).is_some())
                .cloned()
                .collect(),
            reductions: reds.iter().map(|r| (r.op, r.var.clone())).collect(),
            // Conditional work makes per-iteration cost index-dependent;
            // a cyclic schedule then balances the workers better than
            // contiguous chunks.
            schedule: if imbalanced_body(body) {
                Schedule::Cyclic
            } else {
                Schedule::Static
            },
            // The merge pass fills in the proved-parallel nest depth.
            collapse: 1,
            speculative: !parallel,
            writes,
        })
    } else {
        None
    };

    LoopOutcome {
        charges,
        unbilled: Duration::ZERO,
        cacheable: true,
        result: Ok(AnalyzedLoop {
            var: var.clone(),
            classification,
            candidate,
            pairs_tested: dd.pairs_tested,
            ops_spent: loop_ops.spent(),
            budget_tripped: dd.budget_exceeded,
        }),
    }
}

/// `COLLAPSE(n)` value for the loop `id`: the length of the perfect
/// nest rooted there, counting only loops the analysis itself proved
/// parallel (`auto_ok`). Always at least 1 — the annotated loop.
fn collapse_depth(u: &apar_minifort::Unit, id: StmtId, auto_ok: &HashSet<StmtId>) -> u8 {
    let Some(stmt) = find_loop(u, id) else {
        return 1;
    };
    let mut depth: u8 = 1;
    let mut body = match &stmt.kind {
        StmtKind::Do { body, .. } => body,
        _ => return 1,
    };
    while body.stmts.len() == 1 {
        match &body.stmts[0].kind {
            StmtKind::Do { body: inner, .. } if auto_ok.contains(&body.stmts[0].id) => {
                depth = depth.saturating_add(1);
                body = inner;
            }
            _ => break,
        }
    }
    depth
}

fn has_parallel_ancestor(forest: &LoopForest, info: &LoopInfo, parallel: &HashSet<StmtId>) -> bool {
    let mut cur = info.parent;
    while let Some(p) = cur {
        if parallel.contains(&p) {
            return true;
        }
        cur = forest
            .loops
            .iter()
            .find(|l| l.id.stmt == p && l.id.unit == info.id.unit)
            .and_then(|l| l.parent);
    }
    false
}

/// Writes the `auto_par` annotation onto a DO statement.
fn annotate_loop(
    rp: &mut ResolvedProgram,
    unit: &str,
    id: StmtId,
    directive: LoopDirective,
) -> bool {
    let Some(u) = rp.program.unit_mut(unit) else {
        return false;
    };
    let mut done = false;
    u.body.walk_stmts_mut(&mut |s| {
        if s.id == id && !done {
            if let StmtKind::Do { auto_par, .. } = &mut s.kind {
                *auto_par = Some(directive.clone());
                done = true;
            }
        }
    });
    done
}

/// Removes the `auto_par` annotation from a DO statement (codegen
/// rejected its directive, so the compiled program must agree with the
/// emitted serial source).
fn strip_annotation(rp: &mut ResolvedProgram, unit: &str, id: StmtId) {
    if let Some(u) = rp.program.unit_mut(unit) {
        u.body.walk_stmts_mut(&mut |s| {
            if s.id == id {
                if let StmtKind::Do { auto_par, .. } = &mut s.kind {
                    *auto_par = None;
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compile(src: &str, profile: CompilerProfile) -> CompileResult {
        Compiler::new(profile)
            .compile_source("test", src)
            .expect("compile")
    }

    #[test]
    fn simple_loop_is_parallelized_and_annotated() {
        let r = compile(
            "PROGRAM P\nREAL A(100), B(100)\nDO I = 1, 100\nA(I) = B(I) + 1.0\nENDDO\nEND\n",
            CompilerProfile::polaris2008(),
        );
        assert_eq!(r.loops.len(), 1);
        assert_eq!(r.loops[0].classification, Classification::Autoparallelized);
        assert!(r.loops[0].parallelized);
        // The annotation landed in the AST.
        let mut annotated = 0;
        r.rp.main_unit().unwrap().body.walk_stmts(&mut |s| {
            if let StmtKind::Do {
                auto_par: Some(_), ..
            } = &s.kind
            {
                annotated += 1;
            }
        });
        assert_eq!(annotated, 1);
    }

    #[test]
    fn nested_parallel_gets_outer_annotation_only() {
        let r = compile(
            "PROGRAM P\nREAL A(100, 100)\nDO I = 1, 100\nDO J = 1, 100\nA(J, I) = 1.0\nENDDO\nENDDO\nEND\n",
            CompilerProfile::polaris2008(),
        );
        assert_eq!(r.loops.len(), 2);
        assert!(r
            .loops
            .iter()
            .all(|l| l.classification == Classification::Autoparallelized));
        let outer = r.loops.iter().find(|l| l.depth == 0).unwrap();
        let inner = r.loops.iter().find(|l| l.depth == 1).unwrap();
        assert!(outer.parallelized);
        assert!(!inner.parallelized, "inner loop must not be annotated");
    }

    #[test]
    fn reduction_loop_parallelized_with_clause() {
        let r = compile(
            "PROGRAM P\nREAL A(100)\nS = 0.0\nDO I = 1, 100\nS = S + A(I)\nENDDO\nWRITE(*,*) S\nEND\n",
            CompilerProfile::polaris2008(),
        );
        assert_eq!(r.loops[0].classification, Classification::Autoparallelized);
        let mut dir = None;
        r.rp.main_unit().unwrap().body.walk_stmts(&mut |s| {
            if let StmtKind::Do {
                auto_par: Some(d), ..
            } = &s.kind
            {
                dir = Some(d.clone());
            }
        });
        let d = dir.expect("annotated");
        assert_eq!(d.reductions.len(), 1);
        assert_eq!(d.reductions[0].1, "S");
    }

    #[test]
    fn private_scalar_listed_in_directive() {
        let r = compile(
            "PROGRAM P\nREAL A(100)\nDO I = 1, 100\nT = A(I) * 2.0\nA(I) = T\nENDDO\nEND\n",
            CompilerProfile::polaris2008(),
        );
        assert!(r.loops[0].parallelized);
        let mut dir = None;
        r.rp.main_unit().unwrap().body.walk_stmts(&mut |s| {
            if let StmtKind::Do {
                auto_par: Some(d), ..
            } = &s.kind
            {
                dir = Some(d.clone());
            }
        });
        assert!(dir.expect("directive").private.contains(&"T".to_string()));
    }

    #[test]
    fn induction_variable_loop_parallelizes() {
        let r = compile(
            "PROGRAM P\nREAL A(200)\nK = 0\nDO I = 1, 100\nK = K + 2\nA(K) = 1.0\nENDDO\nEND\n",
            CompilerProfile::polaris2008(),
        );
        assert_eq!(
            r.loops[0].classification,
            Classification::Autoparallelized,
            "induction substitution should enable parallelization"
        );
    }

    #[test]
    fn prelude_resolves_only_the_units_it_substituted_into() {
        // Only MID has an induction variable. LAST applies SQRT, the
        // kind of name a second resolution used to drop from its table.
        let src = "PROGRAM P\nREAL A(200)\nCALL MID(A)\nCALL LAST(A)\nEND\n\
                   SUBROUTINE MID(X)\nREAL X(200)\nK = 0\nDO I = 1, 100\nK = K + 2\nX(K) = 1.0\nENDDO\nEND\n\
                   SUBROUTINE LAST(X)\nREAL X(200)\nDO I = 1, 100\nX(I) = SQRT(X(I))\nENDDO\nEND\n";
        let first = resolve(parse_program(src).expect("parse")).expect("resolve");
        let tables = first.tables.clone();
        let r = Compiler::new(CompilerProfile::polaris2008())
            .drive("test", first, Duration::ZERO)
            .expect("compile");
        for unit in ["P", "LAST"] {
            assert!(
                Arc::ptr_eq(&r.rp.tables[unit], &tables[unit]),
                "{unit} was resolved again"
            );
        }
        assert!(!Arc::ptr_eq(&r.rp.tables["MID"], &tables["MID"]));
        assert!(tables["MID"].get("KZSV1").is_none());
        assert!(r.rp.table("MID").get("KZSV1").is_some());
    }

    #[test]
    fn call_inlined_then_parallelized() {
        let r = compile(
            "PROGRAM P\nREAL A(100)\nDO I = 1, 100\nCALL SET(A, I)\nENDDO\nEND\nSUBROUTINE SET(X, K)\nREAL X(*)\nX(K) = K * 2.0\nEND\n",
            CompilerProfile::polaris2008(),
        );
        let main_loop = r.loops.iter().find(|l| l.unit == "P").unwrap();
        assert_eq!(main_loop.classification, Classification::Autoparallelized);
        assert!(main_loop.parallelized);
    }

    #[test]
    fn io_loop_is_control() {
        let r = compile(
            "PROGRAM P\nDO I = 1, 10\nWRITE(*,*) I\nENDDO\nEND\n",
            CompilerProfile::polaris2008(),
        );
        assert_eq!(r.loops[0].classification, Classification::Control);
        assert!(!r.loops[0].parallelized);
    }

    #[test]
    fn target_histogram_counts() {
        let r = compile(
            "PROGRAM P\nREAL A(100)\nINTEGER IA(100)\n!$TARGET GOOD\nDO I = 1, 100\nA(I) = 1.0\nENDDO\n!$TARGET GATHER\nDO I = 1, 100\nA(IA(I)) = A(IA(I)) + 1.0\nENDDO\nEND\n",
            CompilerProfile::polaris2008(),
        );
        let h = r.target_histogram();
        assert!(h.contains(&(Classification::Autoparallelized, 1)));
        assert!(h.contains(&(Classification::Indirection, 1)));
    }

    #[test]
    fn pass_costs_recorded() {
        let r = compile(
            "PROGRAM P\nREAL A(100)\nDO I = 1, 100\nA(I) = 1.0\nENDDO\nEND\n",
            CompilerProfile::polaris2008(),
        );
        assert!(r.report.total_ops() > 0);
        assert!(r.report.per_pass.contains_key(&PassId::DataDependence));
        assert!(r.report.statements > 0);
    }

    #[test]
    fn fully_inlined_callee_does_not_break_the_splice_metric() {
        // SET's only call site is inside the loop: the analyzed copy
        // drops the unit entirely after expansion. The splice metric
        // must saturate (debug builds would panic on underflow) and the
        // loop must still parallelize from the inlined body.
        let r = compile(
            "PROGRAM P\nREAL A(100)\nDO I = 1, 100\nCALL SET(A, I)\nENDDO\nEND\nSUBROUTINE SET(X, K)\nREAL X(*)\nX(K) = K * 2.0\nEND\n",
            CompilerProfile::polaris2008(),
        );
        let main_loop = r.loops.iter().find(|l| l.unit == "P").unwrap();
        assert_eq!(main_loop.classification, Classification::Autoparallelized);
        assert!(main_loop.parallelized);
        assert!(r.report.per_pass.contains_key(&PassId::InlineExpansion));
        // The original program keeps SET (only the scratch copy drops
        // it), so SET's own loops — none here — would still resolve.
        assert!(r.rp.unit("SET").is_some());
    }

    #[test]
    fn foreign_loop_is_recorded_as_skipped_not_lost() {
        let r = compile(
            "PROGRAM P\nREAL A(10)\nDO I = 1, 10\nA(I) = 1.0\nENDDO\nCALL CW\nEND\n!LANG C\nSUBROUTINE CW\nREAL B(10)\nDO J = 1, 10\nB(J) = 0.0\nENDDO\nEND\n",
            CompilerProfile::polaris2008(),
        );
        // The C unit's loop does not silently vanish: it lands in the
        // skip ledger with its reason, and the analyzed-loop list plus
        // the ledger together cover every loop the forest discovered.
        assert_eq!(r.loops.len() + r.report.skipped.len(), r.report.loops);
        let skip = r
            .report
            .skipped
            .iter()
            .find(|s| s.unit == "CW")
            .expect("C loop recorded");
        assert_eq!(skip.reason, SkipReason::ForeignLanguage);
        assert_eq!(
            r.report.skip_histogram(),
            vec![(SkipReason::ForeignLanguage, 1)]
        );
    }

    #[test]
    fn threads_do_not_change_reports() {
        let src = "PROGRAM P\nREAL A(100), B(100)\nS = 0.0\nDO I = 1, 100\nA(I) = B(I) + 1.0\nENDDO\nDO I = 1, 100\nS = S + A(I)\nENDDO\nDO I = 2, 100\nA(I) = A(I - 1)\nENDDO\nDO I = 1, 100\nCALL SET(B, I)\nENDDO\nWRITE(*,*) S\nEND\nSUBROUTINE SET(X, K)\nREAL X(*)\nX(K) = K * 2.0\nEND\n";
        let seq = compile(src, CompilerProfile::polaris2008());
        let par = compile(src, CompilerProfile::polaris2008().with_threads(4));
        assert_eq!(seq.loops.len(), par.loops.len());
        for (a, b) in seq.loops.iter().zip(&par.loops) {
            assert_eq!(a.unit, b.unit);
            assert_eq!(a.stmt, b.stmt);
            assert_eq!(a.classification, b.classification);
            assert_eq!(a.parallelized, b.parallelized);
            assert_eq!(a.ops_spent, b.ops_spent);
            assert_eq!(a.pairs_tested, b.pairs_tested);
        }
        for p in PassId::ALL {
            let sa = seq.report.per_pass.get(&p).map_or(0, |c| c.ops);
            let sb = par.report.per_pass.get(&p).map_or(0, |c| c.ops);
            assert_eq!(sa, sb, "{:?} ops differ across thread counts", p);
        }
    }

    #[test]
    fn detour_counters_are_exact_and_thread_invariant() {
        // Three call-bearing loops. The J and I loops of the nest inline
        // the same call and end up with the same program: one build, one
        // memo hit, P copied twice. The last loop passes an array
        // section, which the inliner refuses: nothing is copied and the
        // lookup lands on the seeded facts.
        let src = "PROGRAM P\nREAL A(100), B(100)\nDO J = 1, 10\nDO I = 1, 100\nCALL SET(A, I)\nENDDO\nENDDO\nDO I = 1, 100\nCALL SET(B(5), I)\nENDDO\nEND\nSUBROUTINE SET(X, K)\nREAL X(*)\nX(K) = K * 2.0\nEND\n";
        let want = apar_analysis::cache::DetourStats {
            lookups: 3,
            unchanged: 1,
            memo_hits: 1,
            builds: 1,
            changed_units: 2,
        };
        let seq = compile(src, CompilerProfile::polaris2008());
        assert_eq!(seq.report.detour, want);
        // Whichever of the two nest loops a worker reaches first, and
        // even when both build at once, one of them counts as the build.
        for _ in 0..20 {
            let par = compile(src, CompilerProfile::polaris2008().with_threads(4));
            assert_eq!(par.report.detour, want);
            assert_eq!(par.report_signature(), seq.report_signature());
        }
    }

    #[test]
    fn injected_panic_degrades_exactly_the_faulted_loop() {
        let src = "PROGRAM P\nREAL A(100), B(100)\nS = 0.0\nDO I = 1, 100\nA(I) = B(I) + 1.0\nENDDO\nDO I = 1, 100\nS = S + A(I)\nENDDO\nDO I = 2, 100\nA(I) = A(I - 1)\nENDDO\nDO I = 1, 100\nCALL SET(B, I)\nENDDO\nWRITE(*,*) S\nEND\nSUBROUTINE SET(X, K)\nREAL X(*)\nX(K) = K * 2.0\nEND\n";
        let clean = compile(src, CompilerProfile::polaris2008());
        let victim = clean.loops[1].stmt;
        for p in [
            PassId::InlineExpansion,
            PassId::Others,
            PassId::DataDependence,
            PassId::Privatization,
            PassId::Reduction,
        ] {
            let profile = CompilerProfile::polaris2008().with_fault(p, "P", Some(victim));
            let seq = compile(src, profile.clone());
            let par = compile(src, profile.with_threads(4));
            for r in [&seq, &par] {
                assert_eq!(r.report.panicked_loops(), 1, "{:?}", p);
                let skip = r
                    .report
                    .skipped
                    .iter()
                    .find(|s| s.stmt == victim)
                    .expect("panicked loop lands in the skip ledger");
                assert!(
                    matches!(&skip.reason, SkipReason::InternalError { pass, .. } if *pass == p),
                    "{:?}: {:?}",
                    p,
                    skip.reason
                );
                // The victim stays accounted for: serial, Complexity.
                let v = r.loops.iter().find(|l| l.stmt == victim).unwrap();
                assert_eq!(v.classification, Classification::Complexity);
                assert!(!v.parallelized && !v.speculative);
                // Every other loop is bit-identical to the clean compile.
                assert_eq!(r.loops.len(), clean.loops.len());
                for (a, b) in r.loops.iter().zip(&clean.loops) {
                    if a.stmt == victim {
                        continue;
                    }
                    assert_eq!(a.classification, b.classification, "{:?}", p);
                    assert_eq!(a.parallelized, b.parallelized, "{:?}", p);
                    assert_eq!(a.ops_spent, b.ops_spent, "{:?}", p);
                    assert_eq!(a.pairs_tested, b.pairs_tested, "{:?}", p);
                }
            }
            // Both thread counts agree completely, victim included.
            for (a, b) in seq.loops.iter().zip(&par.loops) {
                assert_eq!(a.stmt, b.stmt);
                assert_eq!(a.classification, b.classification);
                assert_eq!(a.ops_spent, b.ops_spent);
            }
        }
    }

    #[test]
    fn watchdog_trips_prelude_passes_to_complexity() {
        // A budget this small trips during inlining — before the
        // dependence test ever runs — and must classify the loop
        // Complexity rather than panic or misreport it.
        let mut profile = CompilerProfile::polaris2008();
        profile.loop_op_budget = 1;
        let r = compile(
            "PROGRAM P\nREAL A(100)\nDO I = 1, 100\nCALL SET(A, I)\nENDDO\nEND\nSUBROUTINE SET(X, K)\nREAL X(*)\nX(K) = K * 2.0\nEND\n",
            profile,
        );
        let main_loop = r.loops.iter().find(|l| l.unit == "P").unwrap();
        assert_eq!(main_loop.classification, Classification::Complexity);
        assert!(!main_loop.parallelized);
        assert!(main_loop.budget_tripped);
        assert!(r.budget_tripped_loops() >= 1);
        assert_eq!(r.report.panicked_loops(), 0);
    }

    #[test]
    fn recovering_compile_degrades_garbled_unit_to_diags() {
        // Unit Q has a garbled statement; unit P is clean and must still
        // get its loop parallelized.
        let src = "PROGRAM P\nREAL A(100)\nDO I = 1, 100\nA(I) = 1.0\nENDDO\nEND\nSUBROUTINE Q(Y)\nY = = 'oops\nEND\n";
        let r =
            Compiler::new(CompilerProfile::polaris2008()).compile_source_recovering("test", src);
        assert!(!r.report.diags.is_empty());
        let p = r.loops.iter().find(|l| l.unit == "P").unwrap();
        assert_eq!(p.classification, Classification::Autoparallelized);
    }

    #[test]
    fn recovering_compile_matches_strict_on_clean_input() {
        let src = "PROGRAM P\nREAL A(100), B(100)\nDO I = 1, 100\nA(I) = B(I) + 1.0\nENDDO\nEND\n";
        let strict = compile(src, CompilerProfile::polaris2008());
        let rec =
            Compiler::new(CompilerProfile::polaris2008()).compile_source_recovering("test", src);
        assert!(rec.report.diags.is_empty());
        assert!(rec.report.dropped_units.is_empty());
        assert_eq!(strict.loops.len(), rec.loops.len());
        for (a, b) in strict.loops.iter().zip(rec.loops.iter()) {
            assert_eq!(a.classification, b.classification);
            assert_eq!(a.ops_spent, b.ops_spent);
        }
    }

    #[test]
    fn recovering_compile_is_total_on_noise() {
        let r = Compiler::new(CompilerProfile::polaris2008())
            .compile_source_recovering("test", "@#%^\u{0}\n= = =\nEND END END\n");
        assert!(!r.report.diags.is_empty());
        assert!(r.loops.is_empty());
    }

    #[test]
    fn expired_token_degrades_to_structured_skips() {
        let src = "PROGRAM P\nREAL A(100)\nDO I = 1, 100\nA(I) = 1.0\nENDDO\nDO I = 1, 100\nCALL SET(A, I)\nENDDO\nEND\nSUBROUTINE SET(X, K)\nREAL X(*)\nX(K) = K * 2.0\nEND\n";
        let r = Compiler::new(CompilerProfile::polaris2008())
            .with_cancel(crate::cancel::CancelToken::expired())
            .compile_source("test", src)
            .expect("compile");
        assert!(r.report.deadline_expired);
        assert!(r.loops.is_empty());
        // Every discovered loop is accounted for in the skip ledger.
        assert_eq!(r.report.skipped.len(), r.report.loops);
        assert!(r
            .report
            .skipped
            .iter()
            .all(|s| s.reason == SkipReason::DeadlineExpired));
        // A pre-cancelled token expires at the first checkpoint no
        // matter the thread count: the degraded result is deterministic.
        let r4 = Compiler::new(CompilerProfile::polaris2008().with_threads(4))
            .with_cancel(crate::cancel::CancelToken::expired())
            .compile_source("test", src)
            .expect("compile");
        assert_eq!(r.report_signature(), r4.report_signature());
        // And it can never pass for a full compile.
        let full = compile(src, CompilerProfile::polaris2008());
        assert_ne!(r.report_signature(), full.report_signature());
    }

    #[test]
    fn parse_only_tier_ledgers_every_loop() {
        let src = "PROGRAM P\nREAL A(100)\nDO I = 1, 100\nA(I) = 1.0\nENDDO\nEND\n";
        let r = Compiler::new(CompilerProfile::polaris2008())
            .with_degrade(DegradeTier::ParseOnly)
            .compile_source("test", src)
            .expect("compile");
        assert_eq!(r.report.degrade, Some(DegradeTier::ParseOnly));
        assert!(!r.report.deadline_expired);
        assert!(r.loops.is_empty());
        assert_eq!(r.report.skipped.len(), r.report.loops);
        assert_eq!(r.report.loops, 1);
        assert!(matches!(
            r.report.skipped[0].reason,
            SkipReason::Degraded {
                tier: DegradeTier::ParseOnly
            }
        ));
        assert!(r.report.statements > 0, "the front end still ran");
    }

    #[test]
    fn true_dependence_stays_serial() {
        let r = compile(
            "PROGRAM P\nREAL A(100)\nDO I = 2, 100\nA(I) = A(I - 1)\nENDDO\nEND\n",
            CompilerProfile::polaris2008(),
        );
        assert_eq!(r.loops[0].classification, Classification::RealDependence);
        assert!(!r.loops[0].parallelized);
    }

    #[test]
    fn compile_and_emit_roundtrips_annotated_source() {
        let e = Compiler::new(CompilerProfile::polaris2008())
            .compile_and_emit(
                "test",
                "PROGRAM P\nREAL A(100), B(100)\nDO I = 1, 100\nA(I) = B(I) + 1.0\nENDDO\nWRITE(*, *) A(1)\nEND\n",
            )
            .expect("compile");
        assert_eq!(e.emitted, 1);
        assert!(e.reparse_diags.is_empty(), "{:?}", e.reparse_diags);
        assert!(e.source.contains("!$PAR DO"), "{}", e.source);
        let mut reparsed_par = 0;
        for u in &e.reparsed.program.units {
            u.body.walk_stmts(&mut |s| {
                if let StmtKind::Do { auto_par: Some(_), .. } = &s.kind {
                    reparsed_par += 1;
                }
            });
        }
        assert_eq!(reparsed_par, 1);
    }

    #[test]
    fn emit_writes_serial_reason_for_hindered_loop() {
        let e = Compiler::new(CompilerProfile::polaris2008())
            .compile_and_emit(
                "test",
                "PROGRAM P\nREAL A(100)\nDO I = 2, 100\nA(I) = A(I - 1)\nENDDO\nEND\n",
            )
            .expect("compile");
        assert_eq!(e.emitted, 0);
        assert!(
            e.source.contains("!$PAR SERIAL real dependence"),
            "{}",
            e.source
        );
        // The structured comment is directive-shaped noise to the
        // parser: the loop reparses serial.
        assert!(e.reparse_diags.is_empty(), "{:?}", e.reparse_diags);
    }

    #[test]
    fn emit_ledgers_unrunnable_directive_as_not_emittable() {
        let compiler = Compiler::new(CompilerProfile::polaris2008());
        let mut r = compiler
            .compile_source(
                "test",
                "SUBROUTINE S(T, N)\nREAL T(*)\nDO I = 1, N\nT(1) = 2.0\nS2 = T(1) + 1.0\nENDDO\nEND\n",
            )
            .expect("compile");
        // Force a directive the runtime cannot execute (privatized
        // assumed-size array) onto the loop, as a hypothetical stronger
        // analysis might, and check emission demotes + ledgers it.
        let id = r.loops[0].stmt;
        annotate_loop(
            &mut r.rp,
            "S",
            id,
            LoopDirective {
                private: vec!["T".to_string()],
                ..LoopDirective::default()
            },
        );
        r.loops[0].parallelized = true;
        let e = compiler.emit(r);
        assert_eq!(e.emitted, 0);
        assert!(!e.result.loops[0].parallelized);
        assert!(e
            .result
            .report
            .skipped
            .iter()
            .any(|s| matches!(&s.reason, SkipReason::NotEmittable { detail }
                if detail.contains("assumed size"))));
        assert!(
            e.source.contains("!$PAR SERIAL not emittable:"),
            "{}",
            e.source
        );
        // The demotion also stripped the annotation from the compiled
        // program, so result and artifact agree.
        let mut still_annotated = false;
        e.result.rp.program.units[0].body.walk_stmts(&mut |s| {
            if let StmtKind::Do { auto_par: Some(_), .. } = &s.kind {
                still_annotated = true;
            }
        });
        assert!(!still_annotated);
        assert!(e.reparse_diags.is_empty());
    }

    const CALL_SRC: &str = "PROGRAM P\nREAL A(100)\nDO I = 1, 100\nCALL SET(A, I)\nENDDO\nEND\nSUBROUTINE SET(X, K)\nREAL X(*)\nX(K) = K * 2.0\nEND\n";

    #[test]
    fn loop_ops_are_content_local_across_unrelated_units() {
        // Regression for the cache-state-dependent billing bug: a
        // loop's ops_spent must be a function of its own content
        // closure, never of how expensive the *rest* of the program was
        // to summarize. Appending a never-called unit (whose summary
        // build inflates the whole-program facts cost) must leave the
        // first unit's loop report untouched. The old code charged
        // `facts.build_ops / 32` to every consumer and would differ.
        let padded = format!(
            "{CALL_SRC}SUBROUTINE ZZZ(Y)\nREAL Y(200)\nDO J = 1, 200\nDO K = 1, 200\nY(J) = Y(J) + K * 1.0\nENDDO\nENDDO\nEND\n"
        );
        let lean = compile(CALL_SRC, CompilerProfile::polaris2008());
        let fat = compile(&padded, CompilerProfile::polaris2008());
        let a = lean.loops.iter().find(|l| l.unit == "P").unwrap();
        let b = fat.loops.iter().find(|l| l.unit == "P").unwrap();
        assert_eq!(a.ops_spent, b.ops_spent, "billing leaked across units");
        assert_eq!(a.classification, b.classification);
        assert_eq!(a.budget_tripped, b.budget_tripped);
    }

    #[test]
    fn warm_equals_cold_on_budget_marginal_suite() {
        // Pin warm == cold == plain at a budget barely above the
        // loops' own content cost: any charge that depends on cache
        // state — e.g. re-billing the facts build to a consumer that
        // found it cached — would trip the watchdog on one side only
        // and flip a classification.
        let probe = compile(CALL_SRC, CompilerProfile::polaris2008());
        let max_ops = probe.loops.iter().map(|l| l.ops_spent).max().unwrap();
        let mut profile = CompilerProfile::polaris2008();
        profile.loop_op_budget = max_ops + 4;

        let plain = compile(CALL_SRC, profile.clone());
        assert_eq!(
            plain.budget_tripped_loops(),
            0,
            "the margin covers each loop's own content cost"
        );

        let store = Arc::new(LoopRecordStore::bounded(512));
        let cold = Compiler::new(profile.clone())
            .with_loop_store(Arc::clone(&store))
            .compile_source("test", CALL_SRC)
            .expect("compile");
        let warm = Compiler::new(profile)
            .with_loop_store(Arc::clone(&store))
            .compile_source("test", CALL_SRC)
            .expect("compile");
        assert_eq!(plain.report_signature(), cold.report_signature());
        assert_eq!(cold.report_signature(), warm.report_signature());
        assert!(
            store.stats().loop_hits > 0,
            "the warm compile spliced stored loop records: {:?}",
            store.stats()
        );
    }

    #[test]
    fn fortgen_programs_compile_totally_even_when_mutilated() {
        // Satellite: every panic/unwrap removed from the pipeline must
        // stay removed. Generated programs — intact, truncated at
        // arbitrary line boundaries, and fully garbled — all go through
        // the recovering entry point and come back as structured
        // results (reports plus diags), never a panic.
        use apar_minicheck::fortgen::{gen_program, GenConfig};
        use apar_minicheck::{Rng, BASE_SEED};
        let compiler = Compiler::new(CompilerProfile::polaris2008());
        let mut rng = Rng::new(BASE_SEED ^ 0x10C8);
        for i in 0..8 {
            let src = gen_program(&mut rng, &GenConfig::default());
            let r = compiler.compile_source_recovering(&format!("gen-{i}"), &src);
            assert_eq!(r.report.panicked_loops(), 0, "gen-{i} panicked");
            let _ = r.report_signature(); // every outcome is renderable
            // Truncate mid-program: units lose their END, loops their
            // ENDDO. Recovery must still produce a structured result.
            let lines: Vec<&str> = src.lines().collect();
            let cut = rng.usize_in(1, lines.len() - 1);
            let truncated = lines[..cut].join("\n");
            let t = compiler.compile_source_recovering(&format!("gen-{i}-cut"), &truncated);
            assert_eq!(t.report.panicked_loops(), 0, "gen-{i}-cut panicked");
            let _ = t.report_signature();
        }
        // Fully garbled input exercises the empty-program fallback:
        // nothing parses, the result is all diags and zero loops.
        let g = compiler.compile_source_recovering("garbled", "== 'oops\n)( &&\n");
        assert!(!g.report.diags.is_empty());
        assert!(g.loops.is_empty());
        assert!(g.rp.program.units.is_empty());
    }
}
