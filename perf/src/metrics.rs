//! Metric and workload tables, the percentile helper, and the result
//! line. `BENCHMARK.json` at the repository root repeats these tables;
//! a unit test keeps the two in step.

use std::collections::BTreeMap;

use apar_core::jsonio::Json;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How a metric is compared between two runs of the same code.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Derived from the host's clock or memory: agrees within a bound.
    Wall,
    /// Made by the program from its inputs: repeats exactly for a seed.
    Count,
}

#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub kind: Kind,
    /// Allowed worsening as a share of the earlier value. Per-layer
    /// metrics carry the bound `selfcheck` applies to wall values; the
    /// driver gates end-to-end metrics only.
    pub bound: f64,
}

pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadDef; 6] = [
    WorkloadDef {
        name: "cold_batch",
        why: "op = 20 never-seen programs on a fresh service: every compiler layer does full work, caches only pay inserts, store and daemon bypassed",
    },
    WorkloadDef {
        name: "edit_stream",
        why: "op = a one-line SEISMIC edit (70% leaf, 30% shared units) among 7 unchanged suites through the daemon: front end, loop keys and splicing dominate",
    },
    WorkloadDef {
        name: "warm_hits",
        why: "op = the 8 suites resent unchanged through the daemon: result-cache hits only, so framing and key hashing are all there is and the compiler is bypassed",
    },
    WorkloadDef {
        name: "durable_restart",
        why: "op = a one-line edit with the store attached, in rounds that end in a restart: the only write path through append, flush and compaction",
    },
    WorkloadDef {
        name: "restart_recovery",
        why: "op = opening a service on a seeded store directory until ready: load, CRC, parse and replay-verify, the read side of the store",
    },
    WorkloadDef {
        name: "exec_suites",
        why: "op = one serial interpreter pass over the 8 suites, beside their emitted artifacts on 4 modeled CPUs: depends on which loops were emitted parallel",
    },
];

const fn wall(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        kind: Kind::Wall,
        bound,
    }
}

const fn count(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        kind: Kind::Count,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees, on every workload. The operation
/// ("op") each workload times is named in its `why`.
pub const END_TO_END: [MetricDef; 5] = [
    wall("setup_s", "s", Lower, 0.25),
    wall("peak_rss_mb", "MiB", Lower, 0.15),
    wall("op_p50_ms", "ms", Lower, 0.10),
    wall("op_tail_ms", "ms", Lower, 0.20),
    // A mean in disguise: with four passes in `exec_suites` one stalled
    // pass moves it 10 %, so it gets the widest bound.
    wall("op_per_s", "1/s", Higher, 0.25),
];

/// Layer wall metrics are looser than the end-to-end ones: most are
/// sums of sub-millisecond spans from a fifth of the operations.
const LAYER_BOUND: f64 = 0.25;

const fn lw(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    wall(name, unit, better, LAYER_BOUND)
}

/// Single-layer metrics, reported by the traced run. Layers are the
/// crates; a workload that bypasses a layer reports 0 for it. Times
/// named `*_ms` are per operation of the workload unless stated.
pub const PER_LAYER: [MetricDef; 108] = [
    // minifort: shadow decomposition of the operation's sources.
    lw("minifort.parse_ms", "ms", Lower),
    lw("minifort.resolve_ms", "ms", Lower),
    lw("minifort.reparse_ms", "ms", Lower),
    lw("minifort.lines_per_s", "1/s", Higher),
    count("minifort.stmts", "count", Lower),
    // analysis: the public builders on the resolved program.
    lw("analysis.callgraph_ms", "ms", Lower),
    lw("analysis.loopforest_ms", "ms", Lower),
    lw("analysis.summaries_ms", "ms", Lower),
    lw("analysis.alias_ms", "ms", Lower),
    lw("analysis.constprop_ms", "ms", Lower),
    lw("analysis.loop_keys_ms", "ms", Lower),
    count("analysis.loops", "count", Lower),
    count("analysis.pairs_tested", "count", Lower),
    // core: Compiler::compile on a pre-parsed program, per_pass.
    lw("core.compile_ms", "ms", Lower),
    count("core.ops_total", "ops", Lower),
    count("core.pass.ddtest.ops", "ops", Lower),
    count("core.pass.privatize.ops", "ops", Lower),
    count("core.pass.induction.ops", "ops", Lower),
    count("core.pass.inline.ops", "ops", Lower),
    count("core.pass.gsa.ops", "ops", Lower),
    count("core.pass.constprop.ops", "ops", Lower),
    count("core.pass.reduction.ops", "ops", Lower),
    count("core.pass.others.ops", "ops", Lower),
    lw("core.pass.ddtest.ms", "ms", Lower),
    lw("core.pass.privatize.ms", "ms", Lower),
    lw("core.pass.induction.ms", "ms", Lower),
    lw("core.pass.inline.ms", "ms", Lower),
    lw("core.pass.gsa.ms", "ms", Lower),
    lw("core.pass.constprop.ms", "ms", Lower),
    lw("core.pass.reduction.ms", "ms", Lower),
    lw("core.pass.others.ms", "ms", Lower),
    count("core.ops.SEISMIC", "ops", Lower),
    count("core.ops.GAMESS", "ops", Lower),
    count("core.ops.SANDER", "ops", Lower),
    count("core.ops.PERFECT-ADM", "ops", Lower),
    count("core.ops.PERFECT-TRFD", "ops", Lower),
    count("core.ops.PERFECT-MDG", "ops", Lower),
    count("core.ops.PERFECT-BDNA", "ops", Lower),
    count("core.ops.LINPACK", "ops", Lower),
    count("core.loops_parallelized", "count", Higher),
    count("core.budget_tripped_loops", "count", Lower),
    lw("core.fanout_2t_over_1t", "ratio", Lower),
    // codegen
    lw("codegen.emit_ms", "ms", Lower),
    count("codegen.artifact_bytes", "bytes", Lower),
    count("codegen.emitted_loops", "count", Lower),
    count("codegen.not_emittable", "count", Lower),
    // service (library)
    lw("service.cold_overhead_ms", "ms", Lower),
    count("service.result_hits", "count", Higher),
    count("service.cold", "count", Lower),
    count("service.deduped", "count", Lower),
    count("service.degraded", "count", Lower),
    count("service.rejected", "count", Lower),
    count("service.result_evictions", "count", Lower),
    count("service.facts_hits", "count", Higher),
    count("service.facts_misses", "count", Lower),
    count("service.facts_evictions", "count", Lower),
    count("service.loop_hits", "count", Higher),
    count("service.loop_misses", "count", Lower),
    count("service.loop_refusals", "count", Lower),
    count("service.loop_entries", "count", Lower),
    count("service.splice_share", "ratio", Higher),
    lw("service.edit_leaf_p50_ms", "ms", Lower),
    lw("service.edit_shared_p50_ms", "ms", Lower),
    lw("service.edit_over_cold.leaf", "ratio", Lower),
    lw("service.edit_over_cold.shared", "ratio", Lower),
    // service daemon
    lw("daemon.hit_p50_us", "us", Lower),
    lw("daemon.hit_p99_us", "us", Lower),
    lw("daemon.frame_us", "us", Lower),
    lw("daemon.stats_us", "us", Lower),
    lw("daemon.health_us", "us", Lower),
    lw("daemon.req_mb_per_s", "MB/s", Higher),
    // service store
    lw("store.append_ms_per_batch", "ms", Lower),
    lw("store.edit_slowdown_last_over_first", "ratio", Lower),
    count("store.appended_records", "count", Lower),
    count("store.compactions", "count", Lower),
    count("store.bytes", "bytes", Lower),
    count("store.append_errors", "count", Lower),
    lw("store.load_ms", "ms", Lower),
    lw("store.recover_ms", "ms", Lower),
    lw("store.recover_verify_ms", "ms", Lower),
    count("store.recovered_results", "count", Higher),
    count("store.recovered_loops", "count", Higher),
    count("store.recovered_facts", "count", Higher),
    count("store.recovery_refusals", "count", Lower),
    count("store.restart_hit_share", "ratio", Higher),
    // runtime
    count("runtime.speedup_geomean", "ratio", Higher),
    count("runtime.speedup_min", "ratio", Higher),
    count("runtime.speedup.SEISMIC", "ratio", Higher),
    count("runtime.speedup.GAMESS", "ratio", Higher),
    count("runtime.speedup.SANDER", "ratio", Higher),
    count("runtime.speedup.PERFECT-ADM", "ratio", Higher),
    count("runtime.speedup.PERFECT-TRFD", "ratio", Higher),
    count("runtime.speedup.PERFECT-MDG", "ratio", Higher),
    count("runtime.speedup.PERFECT-BDNA", "ratio", Higher),
    count("runtime.speedup.LINPACK", "ratio", Higher),
    count("runtime.below_1x", "count", Lower),
    count("runtime.regions", "count", Lower),
    count("runtime.forks", "count", Lower),
    count("runtime.fork_virt_share", "ratio", Lower),
    count("runtime.serial_virt_mops", "Mops", Lower),
    count("runtime.auto_virt_mops", "Mops", Lower),
    lw("runtime.serial_wall_s", "s", Lower),
    lw("runtime.auto_wall_s", "s", Lower),
    lw("runtime.interp_serial_mops", "Mops/s", Higher),
    // the traced run itself
    lw("trace.op_p50_ms", "ms", Lower),
    count("trace.spans", "count", Lower),
    count("trace.ops", "count", Higher),
    count("trace.shadowed_ops", "count", Higher),
];

pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}

/// A metric name as it appears in the tables: suite names carry a `/`
/// that metric names may not.
pub fn suite_slug(suite: &str) -> String {
    suite.replace('/', "-")
}

/// Values measured by one run, keyed by the table's own name strings.
#[derive(Clone, Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Sets a metric; the name must be in the tables.
    pub fn set(&mut self, name: &str, value: f64) {
        let def = find(name).unwrap_or_else(|| panic!("metric {name} is not in the tables"));
        self.0.insert(def.name, value);
    }

    pub fn add(&mut self, name: &str, value: f64) {
        let cur = self.get(name).unwrap_or(0.0);
        self.set(name, cur + value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// The metrics object of the result line: every metric of `defs`,
    /// 0 for a layer the workload bypassed.
    pub fn to_json(&self, defs: &[MetricDef]) -> Json {
        Json::Obj(
            defs.iter()
                .map(|d| {
                    let v = self.get(d.name).unwrap_or(0.0);
                    let value = if d.kind == Kind::Count && v.fract() == 0.0 && v.abs() < 9.0e15 {
                        Json::Int(v as i64)
                    } else {
                        Json::Num(v)
                    };
                    (
                        d.name,
                        Json::Obj(vec![("value", value), ("unit", Json::Str(d.unit.into()))]),
                    )
                })
                .collect(),
        )
    }
}

/// Percentiles a tail may be reported at, highest first. p95 is the
/// ceiling: on the builder's host p99 of 50 000 sub-millisecond rounds
/// moved 9 % between runs of the same code, p95 does not.
const TAIL_LADDER: [f64; 3] = [95.0, 90.0, 75.0];

/// The highest percentile that still has at least ten samples beyond
/// it; the median when even the lowest rung has fewer.
pub fn tail_percentile(samples: usize) -> f64 {
    TAIL_LADDER
        .into_iter()
        .find(|p| samples as f64 * (100.0 - p) / 100.0 >= 10.0)
        .unwrap_or(50.0)
}

/// Linear-interpolated percentile of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let rank = p / 100.0 * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

/// Latency samples of one class of operation, in milliseconds.
#[derive(Clone, Debug, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, ms: f64) {
        self.0.push(ms);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn values(&self) -> &[f64] {
        &self.0
    }

    pub fn sum(&self) -> f64 {
        // Not `sum()`: an empty f64 sum is -0.0.
        self.0.iter().fold(0.0, |a, b| a + b)
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    pub fn p(&self, p: f64) -> f64 {
        percentile(&self.sorted(), p)
    }

    pub fn p50(&self) -> f64 {
        self.p(50.0)
    }

    /// `(percentile, value)` of the tail this many samples support.
    pub fn tail(&self) -> (f64, f64) {
        let p = tail_percentile(self.len());
        (p, self.p(p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && chars.all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_fit_the_contract_and_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for name in WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
        {
            assert!(name_ok(name), "bad name {name}");
            assert!(seen.insert(name), "duplicate name {name}");
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(m.unit.len() <= 16, "{}", m.name);
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(m.bound <= 0.25, "{}", m.name);
        }
        let setup = find("setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn every_suite_has_its_per_suite_metrics() {
        for w in apar_workloads::all_suites() {
            for prefix in ["core.ops.", "runtime.speedup."] {
                let name = format!("{prefix}{}", suite_slug(&w.name));
                assert!(find(&name).is_some(), "{name} missing from PER_LAYER");
            }
        }
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_percentile(5), 50.0);
        assert_eq!(tail_percentile(39), 50.0);
        assert_eq!(tail_percentile(40), 75.0);
        assert_eq!(tail_percentile(99), 75.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(200), 95.0);
        assert_eq!(tail_percentile(1_000_000), 95.0);
        for n in [40usize, 100, 200, 1000, 123_456] {
            let p = tail_percentile(n);
            assert!(n as f64 * (100.0 - p) / 100.0 >= 10.0);
        }
    }

    #[test]
    fn percentile_interpolates() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 50.0), 2.5);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }
}
