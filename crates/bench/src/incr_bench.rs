//! Incremental-recompilation benchmark: a one-line edit in a five-suite
//! batch.
//!
//! One [`CompileService`] compiles the five-suite batch cold, then the
//! same batch with a single one-line value edit in the first suite. The
//! four untouched suites answer from the result cache; the edited
//! suite misses it, recompiles, and splices every loop whose per-loop
//! content key is unchanged from the shared store. The artifact records
//! the headline — edited-batch wall within 10% of cold wall — plus the
//! loop-tier counters and the two verdicts CI gates on:
//!
//! * **identity** — every report in the edited batch is bit-identical
//!   to a plain service-free compile of the same (edited) source;
//! * **splices happened** — the warm pass scored at least one loop hit
//!   and zero splice refusals.
//!
//! Wall clock is recorded, not gated: a loaded CI runner is not a
//! correctness signal.

use apar_core::{Compiler, CompilerProfile};
use apar_service::{CompileService, ServiceConfig, SuiteRequest};
use apar_workloads as wl;

use crate::json::{Json, ToJson};

/// One suite's cold-vs-incremental measurement.
#[derive(Clone, Debug)]
pub struct IncrBenchRow {
    pub suite: String,
    pub loops: usize,
    /// True for the suite that received the one-line edit.
    pub edited: bool,
    /// Wall seconds first-sight (cold caches).
    pub cold_s: f64,
    /// Wall seconds in the post-edit batch.
    pub incr_s: f64,
    /// Report bit-identical to a plain compile of the same source.
    pub identical: bool,
}

/// The whole `BENCH_incr.json` payload.
#[derive(Clone, Debug)]
pub struct IncrBenchData {
    pub workers: usize,
    pub rows: Vec<IncrBenchRow>,
    /// Name of the edited suite and the edit applied to it.
    pub edited_suite: String,
    pub edit: String,
    /// Batch wall seconds, cold and post-edit.
    pub cold_wall_s: f64,
    pub incr_wall_s: f64,
    /// `incr_wall_s / cold_wall_s` — the headline is this staying < 0.10.
    pub incr_over_cold: f64,
    pub incr_within_10pct: bool,
    /// Result-cache hits in the post-edit batch (the four untouched
    /// suites).
    pub incr_result_hits: usize,
    /// Loop-tier counters scored by the post-edit batch: records
    /// spliced, lookups that re-analyzed, and splices discarded because
    /// structural verification failed (must be zero).
    pub loop_hits: u64,
    pub loop_misses: u64,
    pub loop_refusals: u64,
    /// Every row identical to its plain reference.
    pub all_identical: bool,
}

impl IncrBenchData {
    /// The CI contract: the edited batch spliced at least one loop
    /// record, discarded none, and every report is bit-identical to a
    /// plain compile. (The 10% headline is recorded, not gated.)
    pub fn ok(&self) -> bool {
        self.all_identical && self.loop_hits > 0 && self.loop_refusals == 0
    }
}

impl ToJson for IncrBenchRow {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("suite", self.suite.to_json()),
            ("loops", self.loops.to_json()),
            ("edited", self.edited.to_json()),
            ("cold_s", self.cold_s.to_json()),
            ("incr_s", self.incr_s.to_json()),
            ("identical", self.identical.to_json()),
        ])
    }
}

impl ToJson for IncrBenchData {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("workers", self.workers.to_json()),
            ("edited_suite", self.edited_suite.to_json()),
            ("edit", self.edit.to_json()),
            ("cold_wall_s", self.cold_wall_s.to_json()),
            ("incr_wall_s", self.incr_wall_s.to_json()),
            ("incr_over_cold", self.incr_over_cold.to_json()),
            ("incr_within_10pct", self.incr_within_10pct.to_json()),
            ("incr_result_hits", self.incr_result_hits.to_json()),
            ("loop_hits", self.loop_hits.to_json()),
            ("loop_misses", self.loop_misses.to_json()),
            ("loop_refusals", self.loop_refusals.to_json()),
            ("all_identical", self.all_identical.to_json()),
            ("rows", self.rows.to_json()),
        ])
    }
}

/// The five-suite batch the headline is measured on.
pub fn five_suites() -> Vec<SuiteRequest> {
    let seismic = wl::seismic::full_suite(wl::DataSize::Small, wl::Variant::Serial);
    let gamess = wl::gamess::suite(wl::DataSize::Small);
    let sander = wl::sander::suite(wl::DataSize::Small);
    let perfect = &wl::perfect::codes()[0];
    let linpack = wl::linpack::suite();
    vec![
        SuiteRequest::new(seismic.name.clone(), seismic.source),
        SuiteRequest::new(gamess.name.clone(), gamess.source),
        SuiteRequest::new(sander.name.clone(), sander.source),
        SuiteRequest::new(perfect.name.clone(), perfect.source.clone()),
        SuiteRequest::new(linpack.name.clone(), linpack.source),
    ]
}

/// Applies a one-line *value-only* edit. Value edits keep the
/// program's name set — and so the interner — stable, which is what
/// lets untouched units keep their loop keys.
///
/// Prefers a scalar float assignment in the main `PROGRAM` unit: the
/// driver is never called, so per-loop keys outside it survive and the
/// recompile is the realistic "tweak a parameter, rerun" dev loop. An
/// edit inside a shared utility instead invalidates — correctly — the
/// loops of every unit that inlines it, which the callee-edit tests
/// cover; the headline measures the common case.
pub fn one_line_edit(src: &str) -> Option<(String, String)> {
    let mut in_main = false;
    for line in src.lines() {
        let t = line.trim();
        if t.starts_with("PROGRAM") {
            in_main = true;
            continue;
        }
        if in_main && t == "END" {
            break;
        }
        if !in_main {
            continue;
        }
        if let Some((lhs, rhs)) = t.split_once(" = ") {
            if !lhs.contains('(') && rhs.contains('.') {
                if let Ok(v) = rhs.parse::<f64>() {
                    let edited_line = line.replacen(rhs, &format!("{}", v + 0.5), 1);
                    let edited = src.replacen(line, &edited_line, 1);
                    return Some((edited, format!("{t} -> {}", edited_line.trim())));
                }
            }
        }
    }
    // Fallback: the first value-only assignment anywhere.
    for line in src.lines() {
        if line.contains("1.0") && line.contains('=') && !line.trim_start().starts_with("DO ") {
            let edited_line = line.replacen("1.0", "1.5", 1);
            let edited = src.replacen(line, &edited_line, 1);
            return Some((edited, format!("{} -> {}", line.trim(), edited_line.trim())));
        }
    }
    None
}

/// Cold batch, one-line edit, post-edit batch, identity check.
///
/// Runs three independent trials (fresh service each) and reports the
/// median-ratio trial's walls and counters; the correctness gates —
/// identity, refusals — are aggregated across *all* trials, so a
/// violation in any trial fails [`IncrBenchData::ok`]. Wall clock on a
/// shared runner spikes; a report must never.
pub fn measure(workers: usize) -> IncrBenchData {
    let mut trials: Vec<IncrBenchData> = (0..3).map(|_| measure_once(workers)).collect();
    let every_identical = trials.iter().all(|t| t.all_identical);
    let min_hits = trials.iter().map(|t| t.loop_hits).min().unwrap_or(0);
    let max_refusals = trials.iter().map(|t| t.loop_refusals).max().unwrap_or(0);
    trials.sort_by(|a, b| a.incr_over_cold.total_cmp(&b.incr_over_cold));
    let mut median = trials.swap_remove(trials.len() / 2);
    median.all_identical = every_identical;
    if min_hits == 0 {
        median.loop_hits = 0; // any spliceless trial fails the gate
    }
    median.loop_refusals = median.loop_refusals.max(max_refusals);
    median
}

/// One trial: a fresh service, one cold batch, one post-edit batch.
pub fn measure_once(workers: usize) -> IncrBenchData {
    let reqs = five_suites();
    let (edited_src, edit) =
        one_line_edit(&reqs[0].source).expect("first suite has an editable line");
    let mut edited_reqs = reqs.clone();
    edited_reqs[0] = SuiteRequest::new(reqs[0].name.clone(), edited_src);

    // Plain service-free reference compiles of the *edited* batch.
    let plain = Compiler::new(CompilerProfile::polaris2008());
    let reference: Vec<String> = edited_reqs
        .iter()
        .map(|r| {
            plain
                .compile_source_recovering(&r.name, &r.source)
                .report_signature()
        })
        .collect();

    let service = CompileService::new(ServiceConfig {
        workers,
        ..ServiceConfig::default()
    });
    let cold = service.compile_many(&reqs);
    let before = service.loop_store().stats();
    let incr = service.compile_many(&edited_reqs);
    let delta = service.loop_store().stats().since(&before);

    let rows: Vec<IncrBenchRow> = edited_reqs
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let cold_o = &cold.outcomes[i];
            let incr_o = &incr.outcomes[i];
            let loops = incr_o.artifact.compile().map_or(0, |c| c.loops.len());
            IncrBenchRow {
                suite: r.name.clone(),
                loops,
                edited: i == 0,
                cold_s: cold_o.wall_s,
                incr_s: incr_o.wall_s,
                identical: incr_o.artifact.signature() == reference[i],
            }
        })
        .collect();

    let incr_over_cold = incr.stats.wall_s / cold.stats.wall_s.max(1e-9);
    IncrBenchData {
        workers,
        all_identical: rows.iter().all(|r| r.identical),
        edited_suite: reqs[0].name.clone(),
        edit,
        cold_wall_s: cold.stats.wall_s,
        incr_wall_s: incr.stats.wall_s,
        incr_over_cold,
        incr_within_10pct: incr_over_cold < 0.10,
        incr_result_hits: incr.stats.result_hits,
        loop_hits: delta.loop_hits,
        loop_misses: delta.loop_misses,
        loop_refusals: delta.loop_refusals,
        rows,
    }
}

/// ASCII table mirroring the artifact.
pub fn render(d: &IncrBenchData) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "incremental bench: one-line edit in {} ({} workers)\n",
        d.edited_suite, d.workers
    ));
    out.push_str(&format!("edit: {}\n", d.edit));
    out.push_str(&format!(
        "{:<14} {:>6} {:>7} {:>10} {:>10} {:>6}\n",
        "suite", "loops", "edited", "cold_s", "incr_s", "ident"
    ));
    for r in &d.rows {
        out.push_str(&format!(
            "{:<14} {:>6} {:>7} {:>10.4} {:>10.6} {:>6}\n",
            r.suite, r.loops, r.edited, r.cold_s, r.incr_s, r.identical
        ));
    }
    out.push_str(&format!(
        "cold {:.3}s  post-edit {:.4}s  ratio {:.4} (<0.10: {})\n",
        d.cold_wall_s, d.incr_wall_s, d.incr_over_cold, d.incr_within_10pct
    ));
    out.push_str(&format!(
        "result hits {}  loop splices h/m/r {}/{}/{}  identical {}\n",
        d.incr_result_hits, d.loop_hits, d.loop_misses, d.loop_refusals, d.all_identical
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_measure_splices_and_stays_identical() {
        let d = measure(2);
        assert!(d.all_identical, "{:?}", d);
        assert_eq!(d.incr_result_hits, 4, "four untouched suites: {:?}", d);
        assert!(d.loop_hits > 0, "the edited suite spliced: {:?}", d);
        assert_eq!(d.loop_refusals, 0, "{:?}", d);
        assert!(d.ok());
    }
}
