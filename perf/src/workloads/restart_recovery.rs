//! `restart_recovery`: opening a service on a store directory that an
//! earlier service filled. Set-up writes the directory once; every
//! operation recovers from a fresh copy of it.

use apar_service::{CompileService, PersistentStore, Served};

use super::durable_restart::{base, Base};
use super::{
    add_service_counters, add_store_counters, end_to_end, finish_trace, service_config,
    timed_setup, Outcome, RunOpts, TempDir,
};
use crate::check::Gate;
use crate::inputs::edit_schedule;
use crate::metrics::{Metrics, Samples};
use crate::shadow::Layers;
use crate::trace::{Tracer, ROOT};

pub const NAME: &str = "restart_recovery";
/// Recoveries per second of `--seconds` (~250 ms each here with the
/// copy and the checks).
pub const RECOVERIES_PER_S: u64 = 4;
/// Edits the template directory holds beside the eight suites: two
/// whole blocks of the schedule, so every seed writes the same mix.
pub const TEMPLATE_EDITS: usize = 20;

struct Setup {
    base: Base,
    template: TempDir,
    write_problems: Vec<String>,
}

fn setup(opts: &RunOpts) -> Setup {
    let mut base = base();
    let template = TempDir::new(opts, "template");
    let service = CompileService::new(service_config(false)).with_store(template.path());
    let mut write_problems = base.compile_all(&service, Served::Cold).0;
    for edit in edit_schedule(opts.seed, TEMPLATE_EDITS) {
        let batch = service.compile_many(&[base.edited_request(&edit)]);
        if batch.outcomes[0].served != Served::Cold {
            write_problems.push(format!(
                "template edit served {:?}",
                batch.outcomes[0].served
            ));
        }
    }
    if opts.corrupt_reference {
        base.references[0].signature.push('!');
    }
    Setup {
        base,
        template,
        write_problems,
    }
}

pub fn run(opts: &RunOpts) -> Outcome {
    let mut tr = Tracer::new(opts.trace);
    let mut gate = Gate::new(NAME);
    let mut m = Metrics::default();
    let (s, setup_s) = timed_setup(|| setup(opts));
    gate.op(0, "template", s.write_problems.clone());
    let config = service_config(false);

    let recoveries = (RECOVERIES_PER_S * opts.seconds) as usize;
    let mut ops = Samples::default();
    let mut load = Samples::default();
    let mut restart_hits = 0usize;
    for i in 0..recoveries {
        let id = i as u64;
        let dir = TempDir::new(opts, "recover");
        dir.copy_from(s.template.path());
        if opts.trace {
            let (_, ms) = tr.time("store.load", ROOT, id, || {
                PersistentStore::open(dir.path()).load()
            });
            load.push(ms);
        }
        let root = tr.open("op", ROOT, id);
        let (service, ms) = tr.time("service.with_store", root, id, || {
            CompileService::new(config.clone()).with_store(dir.path())
        });
        ops.push(ms);
        tr.close(root);

        let (problems, hits) = s
            .base
            .check_restart(&service, s.base.library.len() + TEMPLATE_EDITS);
        restart_hits += hits;
        gate.op(i, "recovery", problems);
        if opts.trace {
            add_service_counters(&mut m, &service.cumulative_stats());
            add_store_counters(&mut m, &service.store_stats());
        }
    }

    let tail_percentile = end_to_end(&mut m, setup_s, &ops, opts.trace);
    if opts.trace {
        m.set("store.load_ms", load.p50());
        m.set("store.recover_ms", ops.p50());
        m.set("store.recover_verify_ms", ops.p50() - load.p50());
        m.set(
            "store.restart_hit_share",
            restart_hits as f64 / (8 * recoveries) as f64,
        );
    }
    finish_trace(NAME, opts, &tr, &Layers::default(), &mut m);
    Outcome {
        gate,
        metrics: m,
        ops: ops.len(),
        tail_percentile,
        constants: vec![
            ("RECOVERIES_PER_S", RECOVERIES_PER_S),
            ("TEMPLATE_EDITS", TEMPLATE_EDITS as u64),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::quick_opts;
    use super::*;

    #[test]
    fn quick_run_recovers_everything_the_template_holds() {
        let out = run(&quick_opts(NAME, true));
        assert!(out.gate.correct(), "{:?}", out.gate);
        let v = |k: &str| out.metrics.get(k).unwrap_or(0.0);
        assert_eq!(v("store.restart_hit_share"), 1.0);
        assert_eq!(
            v("store.recovered_results"),
            ((8 + TEMPLATE_EDITS) as u64 * RECOVERIES_PER_S) as f64
        );
        assert!(v("store.load_ms") > 0.0 && v("store.load_ms") < v("store.recover_ms"));

        let mut bad = quick_opts(NAME, false);
        bad.corrupt_reference = true;
        assert!(!run(&bad).gate.correct());
    }
}
