//! End-to-end: every SEISMIC component produces the same numbers under
//! all four program versions of Figure 1 — serial, hand-OpenMP,
//! compiler-parallelized (both profiles), and hand-MPI — with the
//! parallel runs under the dynamic race checker.

use autopar::core::{Compiler, CompilerProfile};
use autopar::minifort::frontend;
use autopar::runtime::{run, run_mpi, ExecConfig, ExecMode};
use autopar::workloads::seismic::{component, Component};
use autopar::workloads::{DataSize, Variant};

/// Extracts the numeric tokens of checksum lines.
fn checksums(out: &[String]) -> Vec<f64> {
    out.iter()
        .flat_map(|l| l.split_whitespace())
        .filter_map(|t| t.parse::<f64>().ok())
        .collect()
}

fn close(a: &[f64], b: &[f64], tol: f64) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())))
}

fn run_component(c: Component) {
    // Serial reference.
    let serial_w = component(c, DataSize::Test, Variant::Serial);
    let rp = frontend(&serial_w.source).expect("frontend");
    let serial = run(&rp, &serial_w.deck, &ExecConfig::default())
        .unwrap_or_else(|e| panic!("{:?} serial: {}", c, e));
    let reference = checksums(&serial.output);
    assert!(!reference.is_empty(), "{:?}: no checksums", c);

    // Hand-OpenMP, race-checked.
    let omp_w = component(c, DataSize::Test, Variant::OpenMp);
    let rp_omp = frontend(&omp_w.source).expect("frontend omp");
    let omp = run(
        &rp_omp,
        &omp_w.deck,
        &ExecConfig {
            mode: ExecMode::Manual,
            check_races: true,
            ..Default::default()
        },
    )
    .unwrap_or_else(|e| panic!("{:?} omp: {}", c, e));
    assert!(
        close(&reference, &checksums(&omp.output), 1e-6),
        "{:?} omp mismatch:\n serial={:?}\n omp={:?}",
        c,
        serial.output,
        omp.output
    );
    assert!(omp.regions > 0, "{:?}: OpenMP forked nothing", c);

    // Compiler-parallelized (baseline and full), race-checked.
    for profile in [CompilerProfile::polaris2008(), CompilerProfile::full()] {
        let name = profile.name.clone();
        let compiled = Compiler::new(profile)
            .compile_source(&serial_w.name, &serial_w.source)
            .unwrap_or_else(|e| panic!("{:?} compile: {}", c, e));
        let auto = run(
            &compiled.rp,
            &serial_w.deck,
            &ExecConfig {
                mode: ExecMode::Auto,
                check_races: true,
                    ..Default::default()
            },
        )
        .unwrap_or_else(|e| panic!("{:?} auto({}): {}", c, name, e));
        assert!(
            close(&reference, &checksums(&auto.output), 1e-6),
            "{:?} auto({}) mismatch:\n serial={:?}\n auto={:?}",
            c,
            name,
            serial.output,
            auto.output
        );
    }

    // Hand-MPI on 4 ranks (checksum only — the MPI programs print the
    // reduced energy/sum lines).
    let mpi_w = component(c, DataSize::Test, Variant::Mpi);
    let rp_mpi = frontend(&mpi_w.source).expect("frontend mpi");
    let mpi = run_mpi(&rp_mpi, &mpi_w.deck, 4, &ExecConfig::default())
        .unwrap_or_else(|e| panic!("{:?} mpi: {}", c, e));
    assert!(
        !checksums(&mpi.output).is_empty(),
        "{:?} mpi produced no checksums",
        c
    );
}

#[test]
fn datagen_all_versions_agree() {
    run_component(Component::DataGen);
}

#[test]
fn stack_all_versions_agree() {
    run_component(Component::Stack);
}

#[test]
fn fft3d_all_versions_agree() {
    run_component(Component::Fft3d);
}

#[test]
fn findiff_all_versions_agree() {
    run_component(Component::FinDiff);
}

/// The MPI versions compute the same physics: compare the finite
/// difference energy between serial and MPI (identical decomposition-
/// independent result).
#[test]
fn findiff_mpi_matches_serial_energy() {
    let w = component(Component::FinDiff, DataSize::Test, Variant::Serial);
    let rp = frontend(&w.source).unwrap();
    let serial = run(&rp, &w.deck, &ExecConfig::default()).unwrap();
    // Serial prints "FDE <energy>" via SEISOUT.
    let serial_e: f64 = serial
        .output
        .iter()
        .find(|l| l.starts_with("FDE"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|t| t.parse().ok())
        .expect("serial energy");
    let mw = component(Component::FinDiff, DataSize::Test, Variant::Mpi);
    let rp_m = frontend(&mw.source).unwrap();
    let mpi = run_mpi(&rp_m, &mw.deck, 4, &ExecConfig::default()).unwrap();
    let mpi_e: f64 = mpi
        .output
        .iter()
        .find(|l| l.starts_with("FDE"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|t| t.parse().ok())
        .expect("mpi energy");
    assert!(
        (serial_e - mpi_e).abs() <= 1e-6 * (1.0 + serial_e.abs()),
        "serial {} vs mpi {}",
        serial_e,
        mpi_e
    );
}
