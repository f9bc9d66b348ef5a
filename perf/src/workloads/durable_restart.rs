//! `durable_restart`: edits with the store attached, in rounds that
//! each start on an empty directory and end in a restart. The only
//! workload whose per-request cost depends on how much came before.

use apar_service::{CompileService, PersistentStore, Served, SuiteRequest};
use apar_workloads::Workload;

use super::{
    add_service_counters, add_store_counters, end_to_end, finish_trace, service_config,
    timed_setup, Outcome, RunOpts, TempDir, SHADOW_EVERY,
};
use crate::check::{outcome_problems, reference, Gate, Reference};
use crate::inputs::{apply_edit, edit_schedule, suites, Edit, EDITED_SUITE};
use crate::metrics::{Metrics, Samples};
use crate::shadow::Layers;
use crate::trace::{Tracer, ROOT};

pub const NAME: &str = "durable_restart";
/// Durable edits per second of `--seconds` (~55 ms each here with the
/// untimed reference compile and the restarts).
pub const EDITS_PER_S: u64 = 18;
/// Edits per round when the run is long enough for whole rounds. Around
/// the fiftieth edit the loop log passes the store's 1 MiB compaction
/// bound, after which every batch rewrites it and a leaf edit costs
/// 15 ms instead of 7. Sixty per round shows both regimes and keeps the
/// median of all edits among the leaf edits before that step, 8 % of
/// the ranks away from it: at 70 the median sat on the step and moved
/// 7 % between seeds, at 100 it sat in the drifting part past it and
/// moved 3.5 %. What the step costs shows in `op_per_s`, `op_tail_ms`
/// and `store.edit_slowdown_last_over_first`.
pub const ROUND_EDITS: usize = 60;
/// The slowdown metric compares this many edits at each end of a round:
/// two blocks of the schedule, so both windows hold the same mix.
pub const SLOWDOWN_WINDOW: usize = 20;

pub struct Base {
    pub suites: Vec<Workload>,
    pub references: Vec<Reference>,
    pub library: Vec<SuiteRequest>,
    pub edited: usize,
}

pub fn base() -> Base {
    let suites = suites();
    let references = suites
        .iter()
        .map(|w| reference(&w.name, &w.source, false, &w.targets))
        .collect();
    let library = suites
        .iter()
        .map(|w| SuiteRequest::new(w.name.clone(), w.source.clone()))
        .collect();
    let edited = suites
        .iter()
        .position(|w| w.name == EDITED_SUITE)
        .expect("the edited suite exists");
    Base {
        suites,
        references,
        library,
        edited,
    }
}

impl Base {
    /// Compiles the eight suites and checks how each was served;
    /// returns the problems and the number of result-cache hits.
    pub fn compile_all(&self, service: &CompileService, served: Served) -> (Vec<String>, usize) {
        let batch = service.compile_many(&self.library);
        let mut problems = Vec::new();
        for (o, r) in batch.outcomes.iter().zip(&self.references) {
            for p in outcome_problems(o, served, r) {
                problems.push(format!("{}: {}", o.name, p));
            }
        }
        (problems, batch.stats.result_hits)
    }

    /// A service just opened on a store directory must answer the eight
    /// suites from its result cache and have recovered `results` result
    /// records, refusing none. Returns the problems and the hits.
    pub fn check_restart(&self, service: &CompileService, results: usize) -> (Vec<String>, usize) {
        let (mut problems, hits) = self.compile_all(service, Served::CacheHit);
        let recovered = service.store_stats();
        if recovered.recovery_refusals > 0 || recovered.recovered_results != results as u64 {
            problems.push(format!("recovery lost or refused records: {recovered:?}"));
        }
        (problems, hits)
    }

    pub fn edited_request(&self, edit: &Edit) -> SuiteRequest {
        let w = &self.suites[self.edited];
        let source = apply_edit(&w.source, edit.site, &edit.literal).expect("site is in the suite");
        SuiteRequest::new(w.name.clone(), source)
    }

    pub fn edited_reference(&self, req: &SuiteRequest) -> Reference {
        reference(
            &req.name,
            &req.source,
            false,
            &self.suites[self.edited].targets,
        )
    }
}

struct Setup {
    base: Base,
    schedule: Vec<Edit>,
}

fn setup(opts: &RunOpts) -> Setup {
    let mut base = base();
    if opts.corrupt_reference {
        base.references[0].signature.push('!');
    }
    Setup {
        base,
        schedule: edit_schedule(opts.seed, (EDITS_PER_S * opts.seconds) as usize),
    }
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

pub fn run(opts: &RunOpts) -> Outcome {
    let mut tr = Tracer::new(opts.trace);
    let mut gate = Gate::new(NAME);
    let mut m = Metrics::default();
    let mut layers = Layers::default();
    let (s, setup_s) = timed_setup(|| setup(opts));
    let config = service_config(false);

    let rounds = (s.schedule.len() / ROUND_EDITS).max(1);
    let per_round = s.schedule.len() / rounds;
    let mut ops = Samples::default();
    let (mut recover, mut load, mut slowdown) =
        (Samples::default(), Samples::default(), Samples::default());
    let (mut first_round, mut twin) = (Samples::default(), Samples::default());
    let mut restart_hits = 0usize;
    for (r, edits) in s.schedule.chunks(per_round).take(rounds).enumerate() {
        let dir = TempDir::new(opts, &format!("durable-{r}"));
        let service = CompileService::new(config.clone()).with_store(dir.path());
        gate.op(
            r,
            "cold suites",
            s.base.compile_all(&service, Served::Cold).0,
        );

        let mut latencies = Samples::default();
        for (k, edit) in edits.iter().enumerate() {
            let i = r * per_round + k;
            let id = i as u64;
            let root = tr.open("op", ROOT, id);
            let req = s.base.edited_request(edit);
            let (batch, ms) = tr.time("service.compile_many.durable", root, id, || {
                service.compile_many(std::slice::from_ref(&req))
            });
            ops.push(ms);
            latencies.push(ms);
            let (edited_ref, _) = tr.time("reference.compile", root, id, || {
                s.base.edited_reference(&req)
            });
            gate.op(
                i,
                &format!("{} edit {}.{}", req.name, edit.site.unit, edit.site.var),
                outcome_problems(&batch.outcomes[0], Served::Cold, &edited_ref),
            );
            if opts.trace && i.is_multiple_of(SHADOW_EVERY) {
                layers.begin_op();
                let shadow = tr.open("shadow", root, id);
                layers.shadow(&mut tr, shadow, id, &req.name, &req.source, false);
                tr.close(shadow);
            }
            tr.close(root);
        }
        let (all, window) = (
            latencies.values(),
            SLOWDOWN_WINDOW.min(latencies.len() / 2).max(1),
        );
        slowdown.push(mean(&all[all.len() - window..]) / mean(&all[..window]));

        add_store_counters(&mut m, &service.store_stats());
        add_service_counters(&mut m, &service.cumulative_stats());
        drop(service);

        // Restart: the raw load on its own, then a service on the same
        // directory, which must answer the eight suites from its cache.
        let id = (r * per_round) as u64;
        let (_, ms) = tr.time("store.load", ROOT, id, || {
            PersistentStore::open(dir.path()).load()
        });
        load.push(ms);
        let (service, ms) = tr.time("service.with_store", ROOT, id, || {
            CompileService::new(config.clone()).with_store(dir.path())
        });
        recover.push(ms);
        let (problems, hits) = s.base.check_restart(&service, 8 + edits.len());
        restart_hits += hits;
        gate.op(r, "restart", problems);
        add_store_counters(&mut m, &service.store_stats());
        add_service_counters(&mut m, &service.cumulative_stats());

        // The first round's edits again on a service with no store:
        // the difference is what appending costs a batch.
        if opts.trace && r == 0 {
            first_round = latencies.clone();
            let memory = CompileService::new(config.clone());
            memory.compile_many(&s.base.library);
            for edit in edits {
                let req = s.base.edited_request(edit);
                let (_, ms) = tr.time("service.compile_many.memory", ROOT, id, || {
                    memory.compile_many(std::slice::from_ref(&req))
                });
                twin.push(ms);
            }
        }
    }

    let tail_percentile = end_to_end(&mut m, setup_s, &ops, opts.trace);
    if opts.trace {
        m.set("store.append_ms_per_batch", first_round.p50() - twin.p50());
        m.set("store.edit_slowdown_last_over_first", slowdown.p50());
        m.set("store.load_ms", load.p50());
        m.set("store.recover_ms", recover.p50());
        m.set("store.recover_verify_ms", recover.p50() - load.p50());
        m.set(
            "store.restart_hit_share",
            restart_hits as f64 / (8 * rounds) as f64,
        );
    }
    finish_trace(NAME, opts, &tr, &layers, &mut m);
    Outcome {
        gate,
        metrics: m,
        ops: ops.len(),
        tail_percentile,
        constants: vec![
            ("EDITS_PER_S", EDITS_PER_S),
            ("ROUND_EDITS", ROUND_EDITS as u64),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::quick_opts;
    use super::*;

    #[test]
    fn quick_run_persists_restarts_and_cleans_up() {
        let opts = quick_opts(NAME, true);
        let out = run(&opts);
        assert!(out.gate.correct(), "{:?}", out.gate);
        assert_eq!(out.ops, EDITS_PER_S as usize);
        let v = |k: &str| out.metrics.get(k).unwrap_or(0.0);
        assert!(v("store.appended_records") > 0.0);
        assert_eq!(v("store.restart_hit_share"), 1.0);
        assert_eq!(v("store.recovered_results"), (8 + EDITS_PER_S) as f64);
        assert_eq!(v("store.recovery_refusals") + v("store.append_errors"), 0.0);
        let leftovers = std::fs::read_dir(opts.out_dir.join("tmp")).map_or(0, |d| d.count());
        assert_eq!(leftovers, 0, "store directories are removed");

        let mut bad = quick_opts(NAME, false);
        bad.corrupt_reference = true;
        assert!(!run(&bad).gate.correct());
    }
}
