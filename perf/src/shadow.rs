//! Shadow decomposition: the layers a compile request passes through,
//! called one by one from outside on the same input, each under its
//! own span. `symbolic` has no entry of its own on the request path —
//! its cost sits inside `core.pass.ddtest.*` until the program traces
//! itself.

use std::collections::BTreeMap;

use apar_analysis::alias::AliasInfo;
use apar_analysis::summary::Summaries;
use apar_analysis::{constprop, incr, CallGraph, LoopForest, SymMap};
use apar_core::report::SkipReason;
use apar_core::{Compiler, PassId};
use apar_minifort::{frontend_recovering, parse_program, resolve};
use apar_symbolic::OpCounter;

use crate::check::profile;
use crate::metrics::{suite_slug, Metrics};
use crate::trace::Tracer;

/// `PassId::ALL`, in order, as metric-name parts.
pub const PASS_SLUGS: [&str; 8] = [
    "ddtest",
    "privatize",
    "induction",
    "inline",
    "gsa",
    "constprop",
    "reduction",
    "others",
];

/// Span names of the decomposition and the metric each one feeds.
const LAYER_SPANS: [(&str, &str); 11] = [
    ("minifort.parse", "minifort.parse_ms"),
    ("minifort.resolve", "minifort.resolve_ms"),
    ("minifort.reparse", "minifort.reparse_ms"),
    ("analysis.callgraph", "analysis.callgraph_ms"),
    ("analysis.loopforest", "analysis.loopforest_ms"),
    ("analysis.summaries", "analysis.summaries_ms"),
    ("analysis.alias", "analysis.alias_ms"),
    ("analysis.constprop", "analysis.constprop_ms"),
    ("analysis.loop_keys", "analysis.loop_keys_ms"),
    ("core.compile", "core.compile_ms"),
    ("codegen.emit", "codegen.emit_ms"),
];

/// Counts gathered over every shadowed operation of a run.
#[derive(Debug, Default)]
pub struct Layers {
    /// Operations (not programs) decomposed.
    pub ops: u64,
    lines: u64,
    stmts: u64,
    loops: u64,
    pairs_tested: u64,
    parallelized: u64,
    budget_tripped: u64,
    artifact_bytes: u64,
    emitted: u64,
    not_emittable: u64,
    pass_ops: [u64; 8],
    pass_ms: [f64; 8],
    /// Ops of the latest compile of each named source.
    by_name: BTreeMap<String, u64>,
}

impl Layers {
    /// Call once per shadowed operation, before its programs.
    pub fn begin_op(&mut self) {
        self.ops += 1;
    }

    /// Decomposes one source under `parent`; returns the report
    /// signature of the shadow compile (through the emitter when `emit`).
    pub fn shadow(
        &mut self,
        tr: &mut Tracer,
        parent: u32,
        request: u64,
        name: &str,
        source: &str,
        emit: bool,
    ) -> String {
        let compiler = Compiler::new(profile());
        let caps = compiler.profile.caps;
        let (prog, _) = tr.time("minifort.parse", parent, request, || parse_program(source));
        let prog = prog.expect("benchmark inputs parse");
        let copy = prog.clone();
        let (rp, _) = tr.time("minifort.resolve", parent, request, || resolve(copy));
        let rp = rp.expect("benchmark inputs resolve");

        let (cg, _) = tr.time("analysis.callgraph", parent, request, || {
            CallGraph::build(&rp)
        });
        let (forest, _) = tr.time("analysis.loopforest", parent, request, || {
            LoopForest::build(&rp)
        });
        let mut sym = SymMap::new();
        let ops = OpCounter::unlimited();
        let (summaries, _) = tr.time("analysis.summaries", parent, request, || {
            Summaries::build(&rp, &cg, &mut sym, caps, &ops)
        });
        let (alias, _) = tr.time("analysis.alias", parent, request, || {
            AliasInfo::build(&rp, &cg, caps, &ops)
        });
        let (cp, _) = tr.time("analysis.constprop", parent, request, || {
            constprop::propagate(&rp, &cg, &mut sym, caps, &summaries)
        });
        let knobs = incr::Knobs {
            loop_op_budget: compiler.profile.loop_op_budget,
            inline_depth: compiler.profile.inline_depth,
            inline_stmt_budget: compiler.profile.inline_stmt_budget,
            runtime_test: compiler.profile.runtime_test,
        };
        tr.time("analysis.loop_keys", parent, request, || {
            incr::loop_keys(
                &rp, &forest, &cg, &summaries, &alias, &cp, &sym, &caps, &knobs,
            )
        });

        let (result, _) = tr.time("core.compile", parent, request, || {
            compiler.compile(name, prog)
        });
        let mut result = result.expect("benchmark inputs compile");
        if emit {
            let (emitted, _) = tr.time("codegen.emit", parent, request, || compiler.emit(result));
            tr.time("minifort.reparse", parent, request, || {
                frontend_recovering(&emitted.source)
            });
            self.artifact_bytes += emitted.source.len() as u64;
            self.emitted += emitted.emitted as u64;
            self.not_emittable += emitted
                .result
                .report
                .skipped
                .iter()
                .filter(|s| matches!(s.reason, SkipReason::NotEmittable { .. }))
                .count() as u64;
            result = emitted.result;
        }

        self.lines += source.lines().count() as u64;
        self.stmts += rp.program.stmt_count as u64;
        self.loops += result.loops.len() as u64;
        self.pairs_tested += result
            .loops
            .iter()
            .map(|l| l.pairs_tested as u64)
            .sum::<u64>();
        self.parallelized += result.loops.iter().filter(|l| l.parallelized).count() as u64;
        self.budget_tripped += result.budget_tripped_loops() as u64;
        for (i, pass) in PassId::ALL.iter().enumerate() {
            if let Some(cost) = result.report.per_pass.get(pass) {
                self.pass_ops[i] += cost.ops;
                self.pass_ms[i] += cost.seconds * 1e3;
            }
        }
        self.by_name
            .insert(name.to_string(), result.report.total_ops());
        result.report_signature()
    }

    /// Writes the compiler-layer metrics: times and counts per shadowed
    /// operation, so a batch reads as a batch and an edit as an edit.
    pub fn report(&self, tr: &Tracer, m: &mut Metrics) {
        m.set("trace.shadowed_ops", self.ops as f64);
        if self.ops == 0 {
            return;
        }
        let per_op = |total: f64| total / self.ops as f64;
        for (span, metric) in LAYER_SPANS {
            m.set(metric, per_op(tr.total_ms(span)));
        }
        let front_s = (tr.total_ms("minifort.parse") + tr.total_ms("minifort.resolve")) / 1e3;
        if front_s > 0.0 {
            m.set("minifort.lines_per_s", self.lines as f64 / front_s);
        }
        m.set("minifort.stmts", per_op(self.stmts as f64));
        m.set("analysis.loops", per_op(self.loops as f64));
        m.set("analysis.pairs_tested", per_op(self.pairs_tested as f64));
        m.set("core.loops_parallelized", per_op(self.parallelized as f64));
        m.set(
            "core.budget_tripped_loops",
            per_op(self.budget_tripped as f64),
        );
        m.set("codegen.artifact_bytes", per_op(self.artifact_bytes as f64));
        m.set("codegen.emitted_loops", per_op(self.emitted as f64));
        m.set("codegen.not_emittable", per_op(self.not_emittable as f64));
        for (i, slug) in PASS_SLUGS.iter().enumerate() {
            m.set(
                &format!("core.pass.{slug}.ops"),
                per_op(self.pass_ops[i] as f64),
            );
            m.set(&format!("core.pass.{slug}.ms"), per_op(self.pass_ms[i]));
        }
        m.set(
            "core.ops_total",
            per_op(self.pass_ops.iter().sum::<u64>() as f64),
        );
        for (name, ops) in &self.by_name {
            let metric = format!("core.ops.{}", suite_slug(name));
            if crate::metrics::find(&metric).is_some() {
                m.set(&metric, *ops as f64);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::reference;
    use crate::trace::ROOT;

    #[test]
    fn pass_slugs_follow_pass_order() {
        assert_eq!(PassId::ALL.len(), PASS_SLUGS.len());
        assert_eq!(PassId::ALL[0], PassId::DataDependence);
        assert_eq!(PassId::ALL[7], PassId::Others);
    }

    #[test]
    fn shadow_reproduces_the_reference_and_fills_every_layer() {
        let w = crate::inputs::suites().pop().expect("LINPACK");
        let mut tr = Tracer::new(true);
        let mut layers = Layers::default();
        for emit in [false, true] {
            layers.begin_op();
            let sig = layers.shadow(&mut tr, ROOT, 1, &w.name, &w.source, emit);
            assert_eq!(
                sig,
                reference(&w.name, &w.source, emit, &w.targets).signature
            );
        }
        let mut m = Metrics::default();
        layers.report(&tr, &mut m);
        for (_, metric) in LAYER_SPANS {
            assert!(m.get(metric).is_some_and(|v| v > 0.0), "{metric}");
        }
        assert!(m.get("core.ops.LINPACK").is_some_and(|v| v > 0.0));
        assert_eq!(
            m.get("core.ops_total"),
            Some(m.get("core.ops.LINPACK").expect("set")),
            "two compiles of one program, averaged over two ops"
        );
        assert!(m.get("codegen.emitted_loops").is_some_and(|v| v > 0.0));
    }
}
