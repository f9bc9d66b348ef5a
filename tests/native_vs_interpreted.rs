//! Cross-validation: the native Rust kernels and the interpreted
//! MiniFort modules compute the same numbers (same formulas, same
//! operation order), tying the two execution substrates together.

use autopar::kernels::{datagen, fft, findiff, SeisParams, Strategy};
use autopar::minifort::frontend;
use autopar::runtime::{run, ExecConfig};
use autopar::workloads::seismic::{component, component_params, Component};
use autopar::workloads::{DataSize, Variant};

fn interpreted_line(c: Component, prefix: &str) -> f64 {
    let w = component(c, DataSize::Test, Variant::Serial);
    let rp = frontend(&w.source).expect("frontend");
    let r = run(&rp, &w.deck, &ExecConfig::default()).expect("run");
    r.output
        .iter()
        .find(|l| l.starts_with(prefix))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|t| t.parse().ok())
        .unwrap_or_else(|| panic!("no '{}' line in {:?}", prefix, r.output))
}

fn native_params(c: Component) -> SeisParams {
    let p = component_params(c, DataSize::Test);
    SeisParams {
        ngath: p.ngath as usize,
        nfold: p.nfold as usize,
        nsamp: p.nsamp as usize,
        nx: p.nx as usize,
        ny: p.ny as usize,
        nt: p.nt as usize,
        ntime: p.ntime as usize,
        dt: 0.002,
        dx: 10.0,
        velo: 2000.0,
    }
}

#[test]
fn datagen_checksum_matches_native() {
    let p = native_params(Component::DataGen);
    let mut otra = datagen::generate(&p, Strategy::Serial);
    // Pad to cover the QC window region before applying the passes.
    otra.resize(p.ntrc() * p.nsamp + 4 * p.nsamp, 0.0);
    datagen::apply_qc(&p, &mut otra);
    let native = datagen::checksum(&otra[..p.ntrc() * p.nsamp]);
    let interp = interpreted_line(Component::DataGen, "CWRITE");
    assert!(
        (native - interp).abs() < 1e-6 * (1.0 + native.abs()),
        "native {} vs interpreted {}",
        native,
        interp
    );
}

#[test]
fn fft_checksum_matches_native() {
    let p = native_params(Component::Fft3d);
    let ra = fft::m3fk(&p, Strategy::Serial);
    let native = datagen::checksum(&ra);
    let interp = interpreted_line(Component::Fft3d, "CWRITE");
    assert!(
        (native - interp).abs() < 1e-6 * (1.0 + native.abs()),
        "native {} vs interpreted {}",
        native,
        interp
    );
}

#[test]
fn findiff_energy_matches_native() {
    let p = native_params(Component::FinDiff);
    let (_, native) = findiff::propagate(&p, Strategy::Serial);
    let interp = interpreted_line(Component::FinDiff, "FDE");
    assert!(
        (native - interp).abs() < 1e-6 * (1.0 + native.abs()),
        "native {} vs interpreted {}",
        native,
        interp
    );
}
