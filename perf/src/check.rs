//! The correctness gate: service-free references and the tally of
//! checked operations behind `attempted` / `failed`.

use apar_core::jsonio::{parse, JVal};
use apar_core::{CompileResult, Compiler, CompilerProfile};
use apar_service::{Served, SuiteOutcome};
use apar_workloads::TargetSpec;

/// Counts operations whose outputs were checked and names the ones
/// that failed. One operation is one `attempted`, however many
/// conditions it has to meet.
#[derive(Debug)]
pub struct Gate {
    workload: &'static str,
    pub attempted: u64,
    pub failed: u64,
}

impl Gate {
    pub fn new(workload: &'static str) -> Self {
        Gate {
            workload,
            attempted: 0,
            failed: 0,
        }
    }

    /// Records one operation; `problems` lists what was wrong with it.
    pub fn op(&mut self, iteration: usize, what: &str, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            for p in problems {
                eprintln!(
                    "FAILED {} iteration {} {}: {}",
                    self.workload, iteration, what, p
                );
            }
        }
    }

    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }
}

/// What a plain `Compiler`, with no service around it, says about one
/// source: the answer every service path has to reproduce.
#[derive(Clone, Debug)]
pub struct Reference {
    pub signature: String,
    pub loops: usize,
    pub parallelized: usize,
    /// `!$TARGET` loops whose class differs from the suite's manifest.
    pub manifest_problems: Vec<String>,
}

/// The profile every workload compiles under.
pub fn profile() -> CompilerProfile {
    CompilerProfile::polaris2008().with_threads(1)
}

/// `!$TARGET` classifications against the suite's hand-written manifest.
pub fn manifest_problems(result: &CompileResult, targets: &[TargetSpec]) -> Vec<String> {
    let mut out = Vec::new();
    for spec in targets {
        match result
            .target_loops()
            .find(|l| l.target.as_deref() == Some(&spec.name))
        {
            Some(l) if l.classification == spec.expected_baseline => {}
            Some(l) => out.push(format!(
                "target {} classified {:?}, manifest says {:?}",
                spec.name, l.classification, spec.expected_baseline
            )),
            None => out.push(format!("target {} has no loop report", spec.name)),
        }
    }
    out
}

/// Compiles `source` service-free, through the emitter when `emit`.
pub fn reference(name: &str, source: &str, emit: bool, targets: &[TargetSpec]) -> Reference {
    let compiler = Compiler::new(profile());
    let plain = compiler.compile_source_recovering(name, source);
    let mut manifest = manifest_problems(&plain, targets);
    let result = if emit {
        let emitted = compiler.emit(plain);
        if !emitted.reparse_diags.is_empty() {
            manifest.push(format!(
                "reference artifact reparses with {} diagnostics",
                emitted.reparse_diags.len()
            ));
        }
        emitted.result
    } else {
        plain
    };
    Reference {
        signature: result.report_signature(),
        loops: result.loops.len(),
        parallelized: result.loops.iter().filter(|l| l.parallelized).count(),
        manifest_problems: manifest,
    }
}

/// What is wrong with a library outcome that should have been `served`
/// and should match `reference`.
pub fn outcome_problems(o: &SuiteOutcome, served: Served, reference: &Reference) -> Vec<String> {
    let mut out = reference.manifest_problems.clone();
    if o.served != served {
        out.push(format!("served {:?}, expected {:?}", o.served, served));
    }
    if o.artifact.signature() != reference.signature {
        out.push("report signature differs from the service-free reference".into());
    }
    if let apar_service::SuiteArtifact::Emitted(e) = &*o.artifact {
        if !e.reparse_diags.is_empty() {
            out.push(format!(
                "artifact reparses with {} diagnostics",
                e.reparse_diags.len()
            ));
        }
    }
    out
}

/// What is wrong with a daemon reply line to a `SRC` request.
pub fn reply_problems(reply: &str, served: Served, reference: &Reference) -> Vec<String> {
    let Some(doc) = reply.trim_end().strip_prefix("OK ").and_then(parse) else {
        return vec![format!("daemon reply is not OK <json>: {:.80}", reply)];
    };
    let mut out = Vec::new();
    if doc.str_field("served") != Some(served.label()) {
        out.push(format!(
            "daemon served {:?}, expected {}",
            doc.str_field("served"),
            served.label()
        ));
    }
    let count = |key| doc.get(key).and_then(JVal::as_u64);
    if count("loops") != Some(reference.loops as u64)
        || count("parallelized") != Some(reference.parallelized as u64)
    {
        out.push("daemon loop counts differ from the service-free reference".into());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_counts_operations_not_conditions() {
        let mut g = Gate::new("t");
        assert!(!g.correct(), "nothing attempted is not correct");
        g.op(0, "a", vec![]);
        assert!(g.correct());
        g.op(1, "b", vec!["x".into(), "y".into()]);
        assert_eq!((g.attempted, g.failed), (2, 1));
        assert!(!g.correct());
    }

    #[test]
    fn references_agree_with_the_manifests() {
        for w in crate::inputs::suites() {
            for emit in [false, true] {
                let r = reference(&w.name, &w.source, emit, &w.targets);
                assert!(
                    r.manifest_problems.is_empty(),
                    "{}: {:?}",
                    w.name,
                    r.manifest_problems
                );
                assert!(r.loops > 0 && !r.signature.is_empty());
            }
        }
    }

    #[test]
    fn reply_check_reads_the_daemon_line() {
        let r = Reference {
            signature: "s".into(),
            loops: 3,
            parallelized: 1,
            manifest_problems: vec![],
        };
        let ok = r#"OK {"name":"A","served":"hit","loops":3,"parallelized":1,"diags":0}"#;
        assert!(reply_problems(ok, Served::CacheHit, &r).is_empty());
        assert_eq!(reply_problems(ok, Served::Cold, &r).len(), 1);
        assert_eq!(reply_problems("ERR nope", Served::Cold, &r).len(), 1);
        let off = ok.replace("\"loops\":3", "\"loops\":4");
        assert_eq!(reply_problems(&off, Served::CacheHit, &r).len(), 1);
    }
}
