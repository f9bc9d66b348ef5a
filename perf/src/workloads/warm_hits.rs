//! `warm_hits`: the eight suites resent unchanged through the daemon.
//! Nothing compiles, so every compiler layer reports 0 here.

use apar_service::{Served, SuiteRequest};

use super::edit_stream::{warm_service, Warm, Wire};
use super::{
    add_service_counters, end_to_end, finish_trace, timed_setup, Outcome, RunOpts, SHADOW_EVERY,
};
use crate::check::{outcome_problems, reply_problems, Gate};
use crate::metrics::{Metrics, Samples};
use crate::shadow::Layers;
use crate::trace::{Tracer, ROOT};

pub const NAME: &str = "warm_hits";
/// Rounds of eight hit requests per second of `--seconds`. A round is
/// one operation: the suites differ tenfold in size, so single requests
/// would have as many latency modes as there are suites.
pub const ROUNDS_PER_S: u64 = 5_000;
/// `STATS` and `HEALTH` are asked every this many rounds.
pub const ADMIN_EVERY: usize = 1_000;

pub fn run(opts: &RunOpts) -> Outcome {
    let mut tr = Tracer::new(opts.trace);
    let mut gate = Gate::new(NAME);
    let mut m = Metrics::default();
    let (mut warm, setup_s) = timed_setup(warm_service);
    if opts.corrupt_reference {
        warm.references[0].parallelized += 1;
    }
    let Warm {
        suites,
        references,
        requests,
        service,
        warm_problems,
    } = &warm;
    gate.op(0, "warm-up", warm_problems.clone());
    let library: Vec<SuiteRequest> = suites
        .iter()
        .map(|w| SuiteRequest::new(w.name.clone(), w.source.clone()))
        .collect();

    let rounds = (ROUNDS_PER_S * opts.seconds) as usize;
    let mut ops = Samples::default();
    let mut direct = Samples::default();
    let mut wire = Wire::new(service);
    let mut replies: Vec<String> = Vec::with_capacity(suites.len());
    for i in 0..rounds {
        let id = i as u64;
        let root = tr.open("op", ROOT, id);
        replies.clear();
        let mut round_ms = 0.0;
        for request in requests {
            round_ms += wire.hit(&mut tr, root, id, request);
            replies.push(wire.reply());
        }
        ops.push(round_ms);
        for (j, text) in replies.iter().enumerate() {
            gate.op(
                i,
                &suites[j].name,
                reply_problems(text, Served::CacheHit, &references[j]),
            );
        }

        if i.is_multiple_of(ADMIN_EVERY) {
            wire.admin(&mut tr, &mut gate, root, id);
        }
        // The same hits without the wire: what framing costs on top.
        if opts.trace && i.is_multiple_of(SHADOW_EVERY) {
            for (req, r) in library.iter().zip(references) {
                let req = req.clone();
                let (o, ms) = tr.time("service.compile_one.hit", root, id, || {
                    service.compile_one(req)
                });
                direct.push(ms);
                gate.op(i, &o.name, outcome_problems(&o, Served::CacheHit, r));
            }
        }
        tr.close(root);
    }

    let tail_percentile = end_to_end(&mut m, setup_s, &ops, opts.trace);
    if opts.trace {
        add_service_counters(&mut m, &service.cumulative_stats());
        wire.report(&mut m);
        m.set("daemon.frame_us", (wire.hits.p50() - direct.p50()) * 1e3);
    }
    finish_trace(NAME, opts, &tr, &Layers::default(), &mut m);
    Outcome {
        gate,
        metrics: m,
        ops: ops.len(),
        tail_percentile,
        constants: vec![
            ("ROUNDS_PER_S", ROUNDS_PER_S),
            ("ADMIN_EVERY", ADMIN_EVERY as u64),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::quick_opts;
    use super::*;

    #[test]
    fn quick_run_only_hits_and_a_damaged_reference_fails_it() {
        let out = run(&quick_opts(NAME, true));
        assert!(out.gate.correct(), "{:?}", out.gate);
        let v = |k: &str| out.metrics.get(k).unwrap_or(0.0);
        assert_eq!(v("service.cold"), 8.0, "only the warm-up compiles");
        assert!(v("service.result_hits") >= (8 * ROUNDS_PER_S) as f64);
        assert_eq!(v("core.compile_ms") + v("store.appended_records"), 0.0);
        assert!(v("daemon.hit_p50_us") > 0.0);

        let mut bad = quick_opts(NAME, false);
        bad.corrupt_reference = true;
        assert!(!run(&bad).gate.correct());
    }
}
