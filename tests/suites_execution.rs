//! The GAMESS and SANDER mimics are real programs: they execute, their
//! multifunctionality dispatch reacts to the deck, and the compiler-
//! parallelized versions reproduce the serial numbers under the race
//! checker.

use autopar::core::{Compiler, CompilerProfile};
use autopar::minifort::frontend;
use autopar::runtime::{run, DeckVal, ExecConfig, ExecMode};
use autopar::workloads::{DataSize, Workload};

fn serial(w: &Workload) -> Vec<String> {
    let rp = frontend(&w.source).expect("frontend");
    run(&rp, &w.deck, &ExecConfig::default())
        .unwrap_or_else(|e| panic!("{}: {}", w.name, e))
        .output
}

#[test]
fn gamess_executes_and_prints_energy() {
    let w = autopar::workloads::gamess::suite(DataSize::Test);
    let out = serial(&w);
    let energy = out
        .iter()
        .find(|l| l.starts_with("ENERGY"))
        .expect("energy line");
    let v: f64 = energy.split_whitespace().nth(1).unwrap().parse().unwrap();
    assert!(v.is_finite());
}

#[test]
fn gamess_dispatch_reacts_to_wavefunction_choice() {
    // Different SCFTYP decks run different code paths; the shared X is
    // used differently, so the energy differs.
    let w = autopar::workloads::gamess::suite(DataSize::Test);
    let mut energies = Vec::new();
    for scftyp in [1i64, 2, 4, 5] {
        let rp = frontend(&w.source).expect("frontend");
        let mut d = w.deck.clone();
        d[0] = DeckVal::Int(scftyp);
        let out = run(&rp, &d, &ExecConfig::default()).expect("run").output;
        let e: f64 = out
            .iter()
            .find(|l| l.starts_with("ENERGY"))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|t| t.parse().ok())
            .expect("energy");
        energies.push(e);
    }
    assert!(
        energies.windows(2).any(|w| (w[0] - w[1]).abs() > 1e-12),
        "all wavefunctions produced identical energies: {:?}",
        energies
    );
}

#[test]
fn gamess_auto_parallel_matches_serial() {
    let w = autopar::workloads::gamess::suite(DataSize::Test);
    let reference = serial(&w);
    for profile in [CompilerProfile::polaris2008(), CompilerProfile::full()] {
        let name = profile.name.clone();
        let r = Compiler::new(profile)
            .compile_source(&w.name, &w.source)
            .expect("compile");
        let out = run(
            &r.rp,
            &w.deck,
            &ExecConfig {
                mode: ExecMode::Auto,
                check_races: true,
                ..Default::default()
            },
        )
        .unwrap_or_else(|e| panic!("auto({}): {}", name, e));
        assert_eq!(reference, out.output, "profile {}", name);
    }
}

#[test]
fn sander_md_vs_minimization_dispatch() {
    let w = autopar::workloads::sander::suite(DataSize::Test);
    // IMIN = 0: molecular dynamics (prints EK); IMIN = 1: minimization.
    let md = serial(&w);
    assert!(md.iter().any(|l| l.starts_with("EK")));
    let rp = frontend(&w.source).expect("frontend");
    let mut d = w.deck.clone();
    d[0] = DeckVal::Int(1);
    let min = run(&rp, &d, &ExecConfig::default()).expect("run").output;
    assert!(!min.iter().any(|l| l.starts_with("EK")), "{:?}", min);
    assert!(min.iter().any(|l| l.starts_with("EP")));
}

#[test]
fn sander_auto_parallel_matches_serial() {
    let w = autopar::workloads::sander::suite(DataSize::Test);
    let reference = serial(&w);
    let r = Compiler::new(CompilerProfile::full())
        .compile_source(&w.name, &w.source)
        .expect("compile");
    let out = run(
        &r.rp,
        &w.deck,
        &ExecConfig {
            mode: ExecMode::Auto,
            check_races: true,
            ..Default::default()
        },
    )
    .unwrap_or_else(|e| panic!("{}", e));
    // Reductions reassociate; compare numerically.
    assert_eq!(reference.len(), out.output.len());
    for (a, b) in reference.iter().zip(&out.output) {
        let pa: Vec<&str> = a.split_whitespace().collect();
        let pb: Vec<&str> = b.split_whitespace().collect();
        assert_eq!(pa.len(), pb.len());
        for (x, y) in pa.iter().zip(&pb) {
            match (x.parse::<f64>(), y.parse::<f64>()) {
                (Ok(u), Ok(v)) => assert!(
                    (u - v).abs() <= 1e-6 * (1.0 + u.abs()),
                    "{} vs {}",
                    a,
                    b
                ),
                _ => assert_eq!(x, y),
            }
        }
    }
}

#[test]
fn perfect_and_linpack_execute() {
    for w in autopar::workloads::perfect::codes() {
        let out = serial(&w);
        assert!(!out.is_empty(), "{} produced no output", w.name);
    }
    let out = serial(&autopar::workloads::linpack::suite());
    // The LU solve of the diagonally dominant system is well-behaved.
    let v: f64 = out
        .last()
        .and_then(|l| l.split_whitespace().last())
        .and_then(|t| t.parse().ok())
        .expect("norm");
    assert!(v.is_finite() && v > 0.0);
}
