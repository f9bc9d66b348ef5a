//! Figure 1: measured performance of the four SEISMIC components under
//! serial, MPI, OpenMP, and Polaris (auto-parallelized) versions, for
//! the SMALL and MEDIUM datasets, on the modeled 4-processor machine.
//!
//! Times are *virtual seconds* (deterministic modeled time on the
//! 4-CPU machine; see `apar_runtime::interp::OPS_PER_SECOND` and
//! DESIGN.md's substitution table). Wall time of the underlying serial
//! interpretation is reported alongside for transparency.

use apar_core::{Compiler, CompilerProfile};
use apar_minifort::frontend;
use apar_runtime::{run, run_mpi, ExecConfig, ExecMode};
use apar_workloads::seismic::{component, Component};
use apar_workloads::{DataSize, Variant};

pub const THREADS: usize = 4;

#[derive(Clone, Debug)]
pub struct Fig1Row {
    pub component: String,
    pub serial_s: f64,
    pub mpi_s: f64,
    pub openmp_s: f64,
    pub polaris_s: f64,
    pub serial_wall_s: f64,
    pub polaris_regions: u64,
}

#[derive(Clone, Debug)]
pub struct Fig1Data {
    pub size: String,
    pub threads: usize,
    pub rows: Vec<Fig1Row>,
}

/// Runs all four components at one dataset size.
pub fn measure(size: DataSize) -> Fig1Data {
    let rows = [
        Component::DataGen,
        Component::Stack,
        Component::Fft3d,
        Component::FinDiff,
    ]
    .into_iter()
    .map(|c| measure_component(c, size))
    .collect();
    Fig1Data {
        size: format!("{:?}", size).to_uppercase(),
        threads: THREADS,
        rows,
    }
}

/// Runs one component under all four versions.
pub fn measure_component(c: Component, size: DataSize) -> Fig1Row {
    let sw = component(c, size, Variant::Serial);
    let rp = frontend(&sw.source).expect("serial frontend");
    let serial = run(&rp, &sw.deck, &ExecConfig::default()).expect("serial run");

    let ow = component(c, size, Variant::OpenMp);
    let rpo = frontend(&ow.source).expect("omp frontend");
    let omp = run(
        &rpo,
        &ow.deck,
        &ExecConfig {
            mode: ExecMode::Manual,
            threads: THREADS,
            ..Default::default()
        },
    )
    .expect("omp run");

    let compiled = Compiler::new(CompilerProfile::polaris2008())
        .compile_source(&sw.name, &sw.source)
        .expect("compile");
    let auto = run(
        &compiled.rp,
        &sw.deck,
        &ExecConfig {
            mode: ExecMode::Auto,
            threads: THREADS,
            ..Default::default()
        },
    )
    .expect("auto run");

    let mw = component(c, size, Variant::Mpi);
    let rpm = frontend(&mw.source).expect("mpi frontend");
    let mpi = run_mpi(&rpm, &mw.deck, THREADS, &ExecConfig::default()).expect("mpi run");

    Fig1Row {
        component: c.label().to_string(),
        serial_s: serial.virt_seconds(),
        mpi_s: mpi.virt_seconds(),
        openmp_s: omp.virt_seconds(),
        polaris_s: auto.virt_seconds(),
        serial_wall_s: serial.wall.as_secs_f64(),
        polaris_regions: auto.regions,
    }
}

/// ASCII rendering mirroring the paper's stacked chart.
pub fn render(data: &Fig1Data) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Figure 1 — SEISMIC performance, {} dataset ({} modeled CPUs; virtual seconds)\n",
        data.size, data.threads
    ));
    out.push_str(&format!(
        "{:>14} {:>9} {:>9} {:>9} {:>9}   speedup vs serial\n",
        "component", "serial", "MPI", "OpenMP", "Polaris"
    ));
    for r in &data.rows {
        out.push_str(&format!(
            "{:>14} {:>9.2} {:>9.2} {:>9.2} {:>9.2}   mpi {:>4.2}x  omp {:>4.2}x  polaris {:>4.2}x\n",
            r.component,
            r.serial_s,
            r.mpi_s,
            r.openmp_s,
            r.polaris_s,
            r.serial_s / r.mpi_s,
            r.serial_s / r.openmp_s,
            r.serial_s / r.polaris_s,
        ));
    }
    out
}
