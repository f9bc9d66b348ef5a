//! `cold_batch`: twenty never-seen programs on a fresh service — the
//! eight suites and twelve generated programs that change every batch.

use apar_core::Compiler;
use apar_minicheck::Rng;
use apar_service::{CompileService, Served, SuiteRequest};

use super::{
    add_service_counters, end_to_end, finish_trace, service_config, timed_setup, Outcome, RunOpts,
    SHADOW_EVERY,
};
use crate::check::{outcome_problems, profile, reference, Gate, Reference};
use crate::inputs::{gen_programs, shuffle, suites};
use crate::metrics::{Metrics, Samples};
use crate::shadow::Layers;
use crate::trace::{Tracer, ROOT};

pub const NAME: &str = "cold_batch";
/// Batches per second of `--seconds` (a batch takes ~100 ms here).
pub const BATCHES_PER_S: u64 = 10;
/// Generated programs beside the eight suites: 20 requests stay under
/// the service's low watermark (24), above which it would degrade them.
pub const GENERATED: usize = 12;

/// The eight suites with their references; the generated programs are
/// drawn anew for every batch.
struct Setup {
    suites: Vec<(SuiteRequest, Reference)>,
}

fn setup(opts: &RunOpts) -> Setup {
    let mut suites: Vec<(SuiteRequest, Reference)> = suites()
        .into_iter()
        .map(|w| {
            let r = reference(&w.name, &w.source, true, &w.targets);
            (SuiteRequest::new(w.name, w.source), r)
        })
        .collect();
    if opts.corrupt_reference {
        suites[0].1.signature.push('!');
    }
    Setup { suites }
}

pub fn run(opts: &RunOpts) -> Outcome {
    let mut tr = Tracer::new(opts.trace);
    let mut gate = Gate::new(NAME);
    let mut m = Metrics::default();
    let mut layers = Layers::default();
    let (s, setup_s) = timed_setup(|| setup(opts));
    let config = service_config(true);
    let mut rng = Rng::new(opts.seed);

    let batches = (BATCHES_PER_S * opts.seconds) as usize;
    let mut ops = Samples::default();
    let mut overhead = Samples::default();
    for i in 0..batches {
        let id = i as u64;
        let shadowed = opts.trace && i.is_multiple_of(SHADOW_EVERY);
        // Twelve programs no batch has held before beside the suites,
        // so that a run's median is over a hundred draws of the input
        // and not over one; `None` marks a generated program.
        let mut batch: Vec<(SuiteRequest, Option<&Reference>)> = s
            .suites
            .iter()
            .map(|(req, r)| (req.clone(), Some(r)))
            .chain(
                gen_programs(&mut rng, GENERATED)
                    .into_iter()
                    .map(|(name, src)| (SuiteRequest::new(name, src), None)),
            )
            .collect();
        shuffle(&mut batch, &mut rng);
        let requests: Vec<SuiteRequest> = batch.iter().map(|(req, _)| req.clone()).collect();

        let root = tr.open("op", ROOT, id);
        let service = CompileService::new(config.clone());
        let (answer, ms) = tr.time("service.compile_many", root, id, || {
            service.compile_many(&requests)
        });
        ops.push(ms);

        let mut problems = Vec::new();
        let stats = &answer.stats;
        if stats.degraded + stats.rejected + stats.deduped + stats.failed > 0 {
            problems.push(format!("batch was not served whole: {stats:?}"));
        }
        // Untimed: references of the generated programs, and on a
        // shadowed batch the suites compiled service-free as well, so
        // the sum is the batch without the service around it.
        let mut free_ms = 0.0;
        for ((req, known), o) in batch.iter().zip(&answer.outcomes) {
            let compiled = (known.is_none() || shadowed).then(|| {
                let (r, ms) = tr.time("reference.compile_emit", root, id, || {
                    reference(&req.name, &req.source, true, &[])
                });
                free_ms += ms;
                r
            });
            let r = known
                .or(compiled.as_ref())
                .expect("a suite's reference is known, a generated program's was just made");
            for p in outcome_problems(o, Served::Cold, r) {
                problems.push(format!("{}: {}", o.name, p));
            }
        }
        gate.op(i, "batch", problems);
        add_service_counters(&mut m, stats);

        if shadowed {
            overhead.push(ms - free_ms);
            layers.begin_op();
            let shadow = tr.open("shadow", root, id);
            for req in &requests {
                layers.shadow(&mut tr, shadow, id, &req.name, &req.source, true);
            }
            tr.close(shadow);
        }
        tr.close(root);
    }

    let tail_percentile = end_to_end(&mut m, setup_s, &ops, opts.trace);
    if opts.trace {
        m.set("service.cold_overhead_ms", overhead.p50());
        m.set("core.fanout_2t_over_1t", fanout(&s));
    }
    finish_trace(NAME, opts, &tr, &layers, &mut m);
    Outcome {
        gate,
        metrics: m,
        ops: ops.len(),
        tail_percentile,
        constants: vec![
            ("BATCHES_PER_S", BATCHES_PER_S),
            ("GENERATED", GENERATED as u64),
        ],
    }
}

/// SEISMIC compile wall at two analysis threads over one (best of 5).
fn fanout(s: &Setup) -> f64 {
    let (seismic, _) = s
        .suites
        .iter()
        .find(|(r, _)| r.name == "SEISMIC")
        .expect("SEISMIC is in every batch");
    let best = |threads: usize| {
        let c = Compiler::new(profile().with_threads(threads));
        (0..5)
            .map(|_| {
                let t = std::time::Instant::now();
                std::hint::black_box(c.compile_source_recovering(&seismic.name, &seismic.source));
                t.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min)
    };
    best(2) / best(1)
}

#[cfg(test)]
mod tests {
    use super::super::tests::quick_opts;
    use super::*;

    #[test]
    fn quick_run_is_correct_and_a_damaged_reference_fails_it() {
        let out = run(&quick_opts(NAME, true));
        assert!(out.gate.correct(), "{:?}", out.gate);
        assert_eq!(out.ops, BATCHES_PER_S as usize);
        let ops = |k: &str| out.metrics.get(k).unwrap_or(0.0);
        assert!(ops("core.pass.ddtest.ops") > ops("core.pass.privatize.ops"));
        assert_eq!(ops("service.cold"), (20 * BATCHES_PER_S) as f64);
        assert_eq!(ops("service.degraded") + ops("service.rejected"), 0.0);

        let mut bad = quick_opts(NAME, false);
        bad.corrupt_reference = true;
        let out = run(&bad);
        assert!(!out.gate.correct());
        assert_eq!(out.gate.failed, out.gate.attempted);
        assert_ne!(crate::exit_code(&out.gate), 0);
    }
}
