//! The six workloads. Each sets its inputs up from the seed (several
//! times, to report a median set-up time), runs its operations in a
//! closed loop from one client thread, checks every output it timed,
//! and fills the metric tables.

pub mod cold_batch;
pub mod durable_restart;
pub mod edit_stream;
pub mod exec_suites;
pub mod restart_recovery;
pub mod warm_hits;

use std::path::{Path, PathBuf};
use std::time::Instant;

use apar_service::{ServiceConfig, ServiceStats, StoreStats};

use crate::check::{profile, Gate};
use crate::metrics::{Metrics, Samples};
use crate::shadow::Layers;
use crate::trace::Tracer;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// In a traced run every operation is timed under a span and every
/// this-many-th is also decomposed into layers.
pub const SHADOW_EVERY: usize = 5;

#[derive(Clone, Debug)]
pub struct RunOpts {
    pub seed: u64,
    /// Iteration counts are this many times a per-second constant, so a
    /// run lasts about this long on the builder's host and its counts
    /// repeat exactly for a seed.
    pub seconds: u64,
    pub trace: bool,
    /// Where store directories and trace files go.
    pub out_dir: PathBuf,
    /// Test hook: damage one reference so the gate has to fire.
    pub corrupt_reference: bool,
}

pub struct Outcome {
    pub gate: Gate,
    pub metrics: Metrics,
    /// Operations timed, and the percentile `op_tail_ms` stands for.
    pub ops: usize,
    pub tail_percentile: f64,
    /// `(constant name, value)` pairs that fixed the iteration counts.
    pub constants: Vec<(&'static str, u64)>,
}

/// The service every workload talks to: one worker, one compiler
/// thread, default bounds and watermarks.
pub fn service_config(emit: bool) -> ServiceConfig {
    ServiceConfig {
        profile: profile(),
        workers: 1,
        emit,
        ..ServiceConfig::default()
    }
}

/// Runs `setup` [`SETUP_REPS`] times and keeps the last result with
/// the median duration in seconds.
pub fn timed_setup<T>(mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut secs = Samples::default();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup());
        secs.push(t.elapsed().as_secs_f64());
    }
    (last.expect("SETUP_REPS > 0"), secs.p50())
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Fills the end-to-end metrics from the timed operations, and the
/// traced run's own median for the overhead comparison.
pub fn end_to_end(m: &mut Metrics, setup_s: f64, ops: &Samples, traced: bool) -> f64 {
    let (tail_p, tail) = ops.tail();
    m.set("setup_s", setup_s);
    m.set("peak_rss_mb", peak_rss_mb());
    m.set("op_p50_ms", ops.p50());
    m.set("op_tail_ms", tail);
    m.set("op_per_s", ops.len() as f64 / (ops.sum() / 1e3));
    if traced {
        m.set("trace.op_p50_ms", ops.p50());
        m.set("trace.ops", ops.len() as f64);
    }
    tail_p
}

/// Adds one service's (or one batch's) counters to the totals.
pub fn add_service_counters(m: &mut Metrics, s: &ServiceStats) {
    m.add("service.result_hits", s.result_hits as f64);
    m.add("service.cold", s.cold as f64);
    m.add("service.deduped", s.deduped as f64);
    m.add("service.degraded", s.degraded as f64);
    m.add("service.rejected", s.rejected as f64);
    m.add("service.result_evictions", s.result_evictions as f64);
    m.add("service.facts_hits", s.facts.hits as f64);
    m.add("service.facts_misses", s.facts.misses as f64);
    m.add("service.facts_evictions", s.facts.evictions as f64);
    m.add("service.loop_hits", s.facts.loop_hits as f64);
    m.add("service.loop_misses", s.facts.loop_misses as f64);
    m.add("service.loop_refusals", s.facts.loop_refusals as f64);
    m.set("service.loop_entries", s.facts.loop_entries as f64);
    let lookups = [
        "service.loop_hits",
        "service.loop_misses",
        "service.loop_refusals",
    ]
    .iter()
    .map(|k| m.get(k).unwrap_or(0.0))
    .sum::<f64>();
    if lookups > 0.0 {
        m.set(
            "service.splice_share",
            m.get("service.loop_hits").unwrap_or(0.0) / lookups,
        );
    }
}

/// Adds one service's store counters to the totals; `store.bytes` is
/// a gauge and keeps the latest value.
pub fn add_store_counters(m: &mut Metrics, s: &StoreStats) {
    m.add("store.appended_records", s.appended_records as f64);
    m.add("store.compactions", s.compactions as f64);
    m.add("store.append_errors", s.append_errors as f64);
    m.add("store.recovered_results", s.recovered_results as f64);
    m.add("store.recovered_loops", s.recovered_loops as f64);
    m.add("store.recovered_facts", s.recovered_facts as f64);
    m.add("store.recovery_refusals", s.recovery_refusals as f64);
    m.set("store.bytes", s.store_bytes as f64);
}

/// Closes a traced run: layer metrics, span count, the trace file.
pub fn finish_trace(workload: &str, opts: &RunOpts, tr: &Tracer, layers: &Layers, m: &mut Metrics) {
    if !tr.on() {
        return;
    }
    layers.report(tr, m);
    m.set("trace.spans", tr.spans().len() as f64);
    let path = opts.out_dir.join(format!("trace-{workload}.jsonl"));
    if let Err(e) = std::fs::create_dir_all(&opts.out_dir).and_then(|()| tr.write_jsonl(&path)) {
        eprintln!("warning: cannot write {}: {e}", path.display());
    }
}

/// A store directory under the output directory, named by process and
/// purpose, removed when dropped — also when a check fails or panics.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn new(opts: &RunOpts, tag: &str) -> Self {
        let path = opts
            .out_dir
            .join("tmp")
            .join(format!("store-{}-{}", std::process::id(), tag));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("create store directory under the output directory");
        TempDir(path)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }

    /// Copies the regular files of `from` (a store directory is flat).
    pub fn copy_from(&self, from: &Path) {
        for entry in std::fs::read_dir(from)
            .expect("read template store")
            .flatten()
        {
            if entry.file_type().is_ok_and(|t| t.is_file()) {
                std::fs::copy(entry.path(), self.0.join(entry.file_name()))
                    .expect("copy store file");
            }
        }
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
pub mod tests {
    use super::*;

    /// Options for a smoke-sized run writing under the build directory.
    pub fn quick_opts(tag: &str, trace: bool) -> RunOpts {
        RunOpts {
            seed: 7,
            seconds: 1,
            trace,
            out_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("out")
                .join(format!("test-{tag}")),
            corrupt_reference: false,
        }
    }

    #[test]
    fn setup_is_repeated_and_reports_a_duration() {
        let mut calls = 0;
        let (v, s) = timed_setup(|| {
            calls += 1;
            calls
        });
        assert_eq!((v, calls), (SETUP_REPS, SETUP_REPS));
        assert!(s >= 0.0);
    }

    #[test]
    fn temp_dirs_vanish_on_drop() {
        let opts = quick_opts("tempdir", false);
        let path = {
            let d = TempDir::new(&opts, "x");
            std::fs::write(d.path().join("f"), b"1").expect("write");
            d.path().to_path_buf()
        };
        assert!(!path.exists());
    }

    #[test]
    fn peak_rss_is_read() {
        assert!(peak_rss_mb() > 1.0);
    }
}
