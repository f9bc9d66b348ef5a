//! The Figure 1 story on one SEISMIC component: compile the serial
//! framework source, see which loops the 2008-era compiler finds, and
//! execute all four program versions of the paper on the modeled
//! 4-processor machine.
//!
//! Run with: `cargo run --release --example seismic_pipeline [component]`
//! where component is one of: datagen stack fft findiff (default fft).

use autopar::core::{Compiler, CompilerProfile};
use autopar::minifort::frontend;
use autopar::runtime::{run, run_mpi, ExecConfig, ExecMode};
use autopar::workloads::seismic::{component, Component};
use autopar::workloads::{DataSize, Variant};

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "fft".into());
    let c = match which.as_str() {
        "datagen" => Component::DataGen,
        "stack" => Component::Stack,
        "fft" => Component::Fft3d,
        "findiff" => Component::FinDiff,
        other => panic!("unknown component {}", other),
    };
    let size = DataSize::Small;
    let sw = component(c, size, Variant::Serial);
    let deck = &sw.deck;

    println!("component: {}  (SMALL deck, modeled 4-CPU machine)\n", c.label());

    // What does the 2008 compiler see?
    let compiled = Compiler::new(CompilerProfile::polaris2008())
        .compile_source(&sw.name, &sw.source)
        .expect("compile");
    println!("target loops under the 2008 baseline:");
    for l in compiled.target_loops() {
        println!(
            "  {:>14} in {:<8} -> {:?}{}",
            l.target.clone().unwrap(),
            l.unit,
            l.classification,
            if l.parallelized { "  [parallelized]" } else { "" }
        );
    }

    // Execute the four versions.
    let rp = frontend(&sw.source).unwrap();
    let serial = run(&rp, deck, &ExecConfig::default()).unwrap();
    let ow = component(c, size, Variant::OpenMp);
    let rpo = frontend(&ow.source).unwrap();
    let omp = run(
        &rpo,
        deck,
        &ExecConfig { mode: ExecMode::Manual, threads: 4, ..Default::default() },
    )
    .unwrap();
    let auto = run(
        &compiled.rp,
        deck,
        &ExecConfig { mode: ExecMode::Auto, threads: 4, ..Default::default() },
    )
    .unwrap();
    let mw = component(c, size, Variant::Mpi);
    let rpm = frontend(&mw.source).unwrap();
    let mpi = run_mpi(&rpm, deck, 4, &ExecConfig::default()).unwrap();

    println!("\nmodeled elapsed time (virtual seconds):");
    println!("  serial : {:>8.2}", serial.virt_seconds());
    println!("  MPI    : {:>8.2}  ({:.2}x)", mpi.virt_seconds(), serial.virt_seconds() / mpi.virt_seconds());
    println!("  OpenMP : {:>8.2}  ({:.2}x)", omp.virt_seconds(), serial.virt_seconds() / omp.virt_seconds());
    println!(
        "  Polaris: {:>8.2}  ({:.2}x, {} fork/join regions)",
        auto.virt_seconds(),
        serial.virt_seconds() / auto.virt_seconds(),
        auto.regions
    );
}
