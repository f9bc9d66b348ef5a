//! `exec_suites`: the original sources run serially and their emitted,
//! reparsed artifacts run on four modeled CPUs. No service; the
//! compiler is set-up here.

use apar_core::{Compiler, EmitResult};
use apar_minifort::{frontend, ResolvedProgram};
use apar_runtime::{
    run as execute, DeckVal, ExecConfig, ExecMode, RunResult, FORK_REGION_COST, FORK_THREAD_COST,
};
use apar_workloads::{DeckValue, Workload};

use super::{end_to_end, finish_trace, timed_setup, Outcome, RunOpts};
use crate::check::{manifest_problems, profile, Gate};
use crate::inputs::suites;
use crate::metrics::{suite_slug, Metrics, Samples};
use crate::shadow::Layers;
use crate::trace::{Tracer, ROOT};

pub const NAME: &str = "exec_suites";
/// Serial passes over the eight suites per ten seconds of `--seconds`
/// (a serial pass takes ~1.6 s here, the one parallel pass ~3 s).
pub const PASSES_PER_10S: u64 = 4;
/// The paper's machine. The virtual clock depends on it, so it stays 4
/// on any host; every gated number of the parallel runs is virtual.
pub const MODELED_CPUS: usize = 4;
pub const SEG_WORDS: usize = 1 << 22;

struct Program {
    suite: Workload,
    deck: Vec<DeckVal>,
    serial: ResolvedProgram,
    emitted: EmitResult,
}

fn setup() -> Vec<Program> {
    suites()
        .into_iter()
        .map(|suite| {
            let deck = suite
                .deck
                .iter()
                .map(|d| match d {
                    DeckValue::Int(v) => DeckVal::Int(*v),
                    DeckValue::Real(v) => DeckVal::Real(*v),
                })
                .collect();
            let serial = frontend(&suite.source).expect("suites parse");
            let emitted = Compiler::new(profile())
                .compile_and_emit(&suite.name, &suite.source)
                .expect("suites compile");
            Program {
                suite,
                deck,
                serial,
                emitted,
            }
        })
        .collect()
}

fn config(mode: ExecMode) -> ExecConfig {
    ExecConfig {
        mode,
        threads: MODELED_CPUS,
        seg_words: SEG_WORDS,
        ..ExecConfig::default()
    }
}

pub fn run(opts: &RunOpts) -> Outcome {
    let mut tr = Tracer::new(opts.trace);
    let mut gate = Gate::new(NAME);
    let mut m = Metrics::default();
    let mut layers = Layers::default();
    let (programs, setup_s) = timed_setup(setup);
    for p in &programs {
        let mut problems = manifest_problems(&p.emitted.result, &p.suite.targets);
        if !p.emitted.reparse_diags.is_empty() {
            problems.push(format!(
                "artifact reparses with {} diagnostics",
                p.emitted.reparse_diags.len()
            ));
        }
        gate.op(0, &format!("{} artifact", p.suite.name), problems);
    }

    let passes = (PASSES_PER_10S * opts.seconds).div_ceil(10).max(2) as usize;
    let mut ops = Samples::default();
    let mut auto_wall = Samples::default();
    let mut first: Vec<(RunResult, RunResult)> = Vec::new();
    for pass in 0..passes {
        let id = pass as u64;
        let root = tr.open("op", ROOT, id);
        let mut serial_ms = 0.0;
        let mut serial_runs = Vec::with_capacity(programs.len());
        for p in &programs {
            let (r, ms) = tr.time("runtime.run.serial", root, id, || {
                execute(&p.serial, &p.deck, &config(ExecMode::Serial))
            });
            serial_ms += ms;
            serial_runs.push(r);
        }
        ops.push(serial_ms);
        tr.close(root);

        // Parallel runs are checked against the serial ones on the
        // first pass and when damage is injected; their counts are
        // virtual, so one pass gives every number they have.
        let mut auto_ms = 0.0;
        for (k, (p, serial)) in programs.iter().zip(serial_runs).enumerate() {
            let mut problems = Vec::new();
            match serial {
                Err(e) => problems.push(format!("serial run failed: {e}")),
                Ok(s) if pass == 0 => {
                    let (auto, ms) = tr.time("runtime.run.auto", ROOT, id, || {
                        execute(&p.emitted.reparsed, &p.deck, &config(ExecMode::Auto))
                    });
                    auto_ms += ms;
                    match auto {
                        Err(e) => problems.push(format!("parallel run failed: {e}")),
                        Ok(mut a) => {
                            if opts.corrupt_reference && k == 0 {
                                a.output.push("damage".into());
                            }
                            if a.output != s.output || a.stopped != s.stopped {
                                problems.push(
                                    "parallel output or STOP state differs from serial".into(),
                                );
                            }
                            first.push((s, a));
                        }
                    }
                }
                Ok(s) => {
                    let (s0, _) = &first[k];
                    if s.virt != s0.virt || s.output != s0.output {
                        problems.push("serial run is not deterministic".into());
                    }
                }
            }
            gate.op(pass, &p.suite.name, problems);
        }
        if pass == 0 {
            auto_wall.push(auto_ms);
        }
    }

    let tail_percentile = end_to_end(&mut m, setup_s, &ops, opts.trace);
    if opts.trace && first.len() == programs.len() {
        let mut log_sum = 0.0;
        let mut min = f64::INFINITY;
        let (mut serial_virt, mut auto_virt, mut regions, mut forks) = (0u64, 0u64, 0u64, 0u64);
        for (p, (s, a)) in programs.iter().zip(&first) {
            let speedup = s.virt as f64 / a.virt as f64;
            m.set(
                &format!("runtime.speedup.{}", suite_slug(&p.suite.name)),
                speedup,
            );
            log_sum += speedup.ln();
            min = min.min(speedup);
            if speedup < 1.0 {
                m.add("runtime.below_1x", 1.0);
            }
            serial_virt += s.virt;
            auto_virt += a.virt;
            regions += a.regions;
            forks += a.forks;
        }
        m.set(
            "runtime.speedup_geomean",
            (log_sum / programs.len() as f64).exp(),
        );
        m.set("runtime.speedup_min", min);
        m.set("runtime.regions", regions as f64);
        m.set("runtime.forks", forks as f64);
        let fork_virt = regions * FORK_REGION_COST + forks * FORK_THREAD_COST;
        m.set(
            "runtime.fork_virt_share",
            fork_virt as f64 / auto_virt as f64,
        );
        m.set("runtime.serial_virt_mops", serial_virt as f64 / 1e6);
        m.set("runtime.auto_virt_mops", auto_virt as f64 / 1e6);
        m.set("runtime.serial_wall_s", ops.p50() / 1e3);
        m.set("runtime.auto_wall_s", auto_wall.p50() / 1e3);
        m.set(
            "runtime.interp_serial_mops",
            serial_virt as f64 / 1e6 / (ops.p50() / 1e3),
        );

        // What the compiler did to produce these artifacts.
        layers.begin_op();
        let shadow = tr.open("shadow", ROOT, 0);
        for p in &programs {
            layers.shadow(&mut tr, shadow, 0, &p.suite.name, &p.suite.source, true);
        }
        tr.close(shadow);
    }
    finish_trace(NAME, opts, &tr, &layers, &mut m);
    Outcome {
        gate,
        metrics: m,
        ops: ops.len(),
        tail_percentile,
        constants: vec![
            ("PASSES_PER_10S", PASSES_PER_10S),
            ("MODELED_CPUS", MODELED_CPUS as u64),
            ("SEG_WORDS", SEG_WORDS as u64),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::quick_opts;
    use super::*;

    #[test]
    fn quick_run_matches_serial_and_damaged_output_fails_it() {
        let out = run(&quick_opts(NAME, true));
        assert!(out.gate.correct(), "{:?}", out.gate);
        let v = |k: &str| out.metrics.get(k).unwrap_or(0.0);
        assert_eq!(v("runtime.below_1x"), 3.0);
        assert!(v("runtime.speedup_min") < 1.0 && v("runtime.speedup_geomean") > 1.0);
        assert!(v("codegen.emitted_loops") > 0.0);
        assert_eq!(v("service.cold") + v("store.appended_records"), 0.0);

        let mut bad = quick_opts(NAME, false);
        bad.corrupt_reference = true;
        assert!(!run(&bad).gate.correct());
    }
}
