//! `edit_stream`: one long-lived service behind the daemon protocol,
//! seven unchanged suites and one edited SEISMIC per iteration.

use apar_service::{daemon, CompileService, Served, SuiteRequest};
use apar_workloads::Workload;

use super::{
    add_service_counters, end_to_end, finish_trace, service_config, timed_setup, Outcome, RunOpts,
    SHADOW_EVERY,
};
use crate::check::{outcome_problems, reference, reply_problems, Gate, Reference};
use crate::inputs::{
    apply_edit, edit_schedule, src_request, suites, Edit, EditClass, EDITED_SUITE,
};
use crate::metrics::{Metrics, Samples};
use crate::shadow::Layers;
use crate::trace::{Tracer, ROOT};

pub const NAME: &str = "edit_stream";
/// Edit iterations per second of `--seconds` (~50 ms each here, most of
/// it the untimed reference compile of the edited source).
pub const EDITS_PER_S: u64 = 20;
/// `STATS` and `HEALTH` are asked every this many iterations.
pub const ADMIN_EVERY: usize = 50;

/// One request/reply over in-memory buffers: one `serve` call.
pub fn send(service: &CompileService, request: &[u8], reply: &mut Vec<u8>) {
    reply.clear();
    daemon::serve(service, request, &mut *reply).expect("in-memory transport cannot fail");
}

pub fn reply_text(reply: &[u8]) -> String {
    String::from_utf8_lossy(reply).into_owned()
}

/// The one client of a daemon: sends requests under spans and keeps
/// the latencies the `daemon.*` metrics are made of.
pub struct Wire<'a> {
    service: &'a CompileService,
    reply: Vec<u8>,
    pub hits: Samples,
    hit_bytes: usize,
    stats_ms: Samples,
    health_ms: Samples,
}

impl<'a> Wire<'a> {
    pub fn new(service: &'a CompileService) -> Self {
        Wire {
            service,
            reply: Vec::new(),
            hits: Samples::default(),
            hit_bytes: 0,
            stats_ms: Samples::default(),
            health_ms: Samples::default(),
        }
    }

    /// One timed request; the reply stays readable until the next one.
    pub fn send(
        &mut self,
        tr: &mut Tracer,
        span: &'static str,
        root: u32,
        id: u64,
        request: &[u8],
    ) -> f64 {
        let (service, reply) = (self.service, &mut self.reply);
        tr.time(span, root, id, || send(service, request, reply)).1
    }

    /// A request expected to be answered from the result cache.
    pub fn hit(&mut self, tr: &mut Tracer, root: u32, id: u64, request: &[u8]) -> f64 {
        let ms = self.send(tr, "daemon.serve.hit", root, id, request);
        self.hits.push(ms);
        self.hit_bytes += request.len();
        ms
    }

    pub fn reply(&self) -> String {
        reply_text(&self.reply)
    }

    /// `STATS` and `HEALTH`, which must answer `OK {..}`.
    pub fn admin(&mut self, tr: &mut Tracer, gate: &mut Gate, root: u32, id: u64) {
        for command in [&b"STATS\n"[..], &b"HEALTH\n"[..]] {
            let ms = self.send(tr, "daemon.serve.admin", root, id, command);
            let problems = if self.reply.starts_with(b"OK {") {
                vec![]
            } else {
                vec![format!("bad reply {:.60}", self.reply())]
            };
            gate.op(id as usize, "admin", problems);
            if command.starts_with(b"STATS") {
                self.stats_ms.push(ms);
            } else {
                self.health_ms.push(ms);
            }
        }
    }

    pub fn report(&self, m: &mut Metrics) {
        m.set("daemon.hit_p50_us", self.hits.p50() * 1e3);
        m.set("daemon.hit_p99_us", self.hits.p(99.0) * 1e3);
        m.set("daemon.stats_us", self.stats_ms.p50() * 1e3);
        m.set("daemon.health_us", self.health_ms.p50() * 1e3);
        m.set(
            "daemon.req_mb_per_s",
            self.hit_bytes as f64 / 1e6 / (self.hits.sum() / 1e3),
        );
    }
}

/// A service that has compiled the eight suites through the daemon,
/// with what is needed to check and resend them.
pub struct Warm {
    pub suites: Vec<Workload>,
    pub references: Vec<Reference>,
    pub requests: Vec<Vec<u8>>,
    pub service: CompileService,
    pub warm_problems: Vec<String>,
}

pub fn warm_service() -> Warm {
    let suites = suites();
    let references: Vec<Reference> = suites
        .iter()
        .map(|w| reference(&w.name, &w.source, false, &w.targets))
        .collect();
    let requests: Vec<Vec<u8>> = suites
        .iter()
        .map(|w| src_request(&w.name, &w.source))
        .collect();
    let service = CompileService::new(service_config(false));
    let mut reply = Vec::new();
    let mut warm_problems = Vec::new();
    for (req, r) in requests.iter().zip(&references) {
        send(&service, req, &mut reply);
        warm_problems.extend(reply_problems(&reply_text(&reply), Served::Cold, r));
    }
    Warm {
        suites,
        references,
        requests,
        service,
        warm_problems,
    }
}

struct Setup {
    warm: Warm,
    edited: usize,
    schedule: Vec<Edit>,
}

fn setup(opts: &RunOpts) -> Setup {
    let mut warm = warm_service();
    let edited = warm
        .suites
        .iter()
        .position(|w| w.name == EDITED_SUITE)
        .expect("the edited suite exists");
    if opts.corrupt_reference {
        warm.references[edited + 1].loops += 1;
    }
    Setup {
        warm,
        edited,
        schedule: edit_schedule(opts.seed, (EDITS_PER_S * opts.seconds) as usize),
    }
}

pub fn run(opts: &RunOpts) -> Outcome {
    let mut tr = Tracer::new(opts.trace);
    let mut gate = Gate::new(NAME);
    let mut m = Metrics::default();
    let mut layers = Layers::default();
    let (s, setup_s) = timed_setup(|| setup(opts));
    let Warm {
        suites,
        references,
        requests,
        service,
        warm_problems,
    } = &s.warm;
    gate.op(0, "warm-up", warm_problems.clone());
    let base = &suites[s.edited];

    let mut ops = Samples::default();
    let (mut leaf, mut shared, mut cold) =
        (Samples::default(), Samples::default(), Samples::default());
    let mut wire = Wire::new(service);
    let mut replies: Vec<String> = Vec::with_capacity(suites.len());
    for (i, edit) in s.schedule.iter().enumerate() {
        let id = i as u64;
        let root = tr.open("op", ROOT, id);
        let source =
            apply_edit(&base.source, edit.site, &edit.literal).expect("site is in the suite");
        let edited_request = src_request(&base.name, &source);

        replies.clear();
        for (j, request) in requests.iter().enumerate() {
            if j == s.edited {
                let ms = wire.send(&mut tr, "daemon.serve.edit", root, id, &edited_request);
                ops.push(ms);
                match edit.site.class {
                    EditClass::Leaf => leaf.push(ms),
                    EditClass::Shared => shared.push(ms),
                }
            } else {
                wire.hit(&mut tr, root, id, request);
            }
            replies.push(wire.reply());
        }

        // Untimed: the service-free answer to the edited source, then
        // the checks of all eight replies against their references.
        let (edited_ref, ms) = tr.time("reference.compile", root, id, || {
            reference(&base.name, &source, false, &base.targets)
        });
        cold.push(ms);
        for (j, text) in replies.iter().enumerate() {
            if j == s.edited {
                let mut problems = reply_problems(text, Served::Cold, &edited_ref);
                let again =
                    service.compile_one(SuiteRequest::new(base.name.clone(), source.clone()));
                problems.extend(outcome_problems(&again, Served::CacheHit, &edited_ref));
                let what = format!("{} edit {}.{}", base.name, edit.site.unit, edit.site.var);
                gate.op(i, &what, problems);
            } else {
                gate.op(
                    i,
                    &suites[j].name,
                    reply_problems(text, Served::CacheHit, &references[j]),
                );
            }
        }

        if i.is_multiple_of(ADMIN_EVERY) {
            wire.admin(&mut tr, &mut gate, root, id);
        }
        if opts.trace && i.is_multiple_of(SHADOW_EVERY) {
            layers.begin_op();
            let shadow = tr.open("shadow", root, id);
            layers.shadow(&mut tr, shadow, id, &base.name, &source, false);
            tr.close(shadow);
        }
        tr.close(root);
    }

    let tail_percentile = end_to_end(&mut m, setup_s, &ops, opts.trace);
    if opts.trace {
        add_service_counters(&mut m, &service.cumulative_stats());
        wire.report(&mut m);
        m.set("service.edit_leaf_p50_ms", leaf.p50());
        m.set("service.edit_shared_p50_ms", shared.p50());
        m.set("service.edit_over_cold.leaf", leaf.p50() / cold.p50());
        m.set("service.edit_over_cold.shared", shared.p50() / cold.p50());
    }
    finish_trace(NAME, opts, &tr, &layers, &mut m);
    Outcome {
        gate,
        metrics: m,
        ops: ops.len(),
        tail_percentile,
        constants: vec![
            ("EDITS_PER_S", EDITS_PER_S),
            ("ADMIN_EVERY", ADMIN_EVERY as u64),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::quick_opts;
    use super::*;

    #[test]
    fn quick_run_splices_and_a_damaged_reference_fails_it() {
        let out = run(&quick_opts(NAME, true));
        assert!(out.gate.correct(), "{:?}", out.gate);
        assert_eq!(out.ops, EDITS_PER_S as usize);
        let v = |k: &str| out.metrics.get(k).unwrap_or(0.0);
        assert!(
            v("service.splice_share") > 0.5,
            "{}",
            v("service.splice_share")
        );
        assert!(v("service.edit_leaf_p50_ms") < v("service.edit_shared_p50_ms"));
        assert_eq!(v("store.appended_records"), 0.0);
        assert_eq!(v("codegen.emit_ms"), 0.0, "the service does not emit here");

        let mut bad = quick_opts(NAME, false);
        bad.corrupt_reference = true;
        assert!(!run(&bad).gate.correct());
    }
}
