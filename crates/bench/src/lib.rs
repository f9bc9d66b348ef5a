//! Figure and table harnesses, and the verdict harnesses.
//!
//! One module per experiment; each produces a serializable data struct
//! and an ASCII rendering that mirrors the paper's figure, and is driven
//! by a standalone binary (`cargo run -p apar-bench --bin figN`).
//! `all_figures` writes the JSON artifacts that EXPERIMENTS.md records.
//!
//! Nothing here times the compiler or the service on the wall clock:
//! `perf/` is the repository's one benchmark. What lives here beside
//! the figures judges, it does not measure — `exec_bench` (virtual
//! time only), and the `fuzz`, `persist_bench::torture` and
//! `resilience_bench::soak` contracts.

pub mod ablation;
pub mod exec_bench;
pub mod fig1;
pub mod fig2;
pub mod fig4;
pub mod fig5;
pub mod fuzz;
pub mod json;
pub mod persist_bench;
pub mod resilience_bench;
pub mod spec;

/// Writes a JSON artifact under `target/figures/`.
pub fn write_artifact(name: &str, value: &impl json::ToJson) -> std::path::PathBuf {
    let dir = std::path::Path::new("target/figures");
    std::fs::create_dir_all(dir).expect("create target/figures");
    let path = dir.join(name);
    std::fs::write(&path, value.to_json().render()).expect("write artifact");
    path
}

/// Renders a horizontal bar of `value` against `max` in `width` cells.
pub fn bar(value: f64, max: f64, width: usize) -> String {
    let n = if max > 0.0 {
        ((value / max) * width as f64).round() as usize
    } else {
        0
    };
    "#".repeat(n.min(width))
}
