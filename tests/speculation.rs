//! The speculative runtime dependence test
//! (`CompilerProfile::with_runtime_test`): loops that static analysis
//! must leave serial — gathers through unknown index arrays, bounds
//! from the input deck — run in parallel under a runtime conflict
//! check, rolling back to serial when the data turns out dependent.
//!
//! This is the reproduction's implementation of the runtime techniques
//! the paper's conclusion calls for beyond static analysis.

use apar_minicheck::forall;
use autopar::core::{Classification as C, CompileResult, Compiler, CompilerProfile};
use autopar::runtime::{run, ExecConfig, ExecMode, RunResult};

/// Gather-update through an index array the compiler cannot see
/// through. `COLLIDE = 0` fills IX with a permutation (independent);
/// `COLLIDE = 1` folds everything onto eight cells (dependent).
fn gather_src(collide: i64) -> String {
    format!(
        "PROGRAM SPEC
  REAL A(4096), B(4096)
  INTEGER IX(4096)
  DO I = 1, 4096
    B(I) = REAL(I) * 0.5
    IF ({collide} .EQ. 1) THEN
      IX(I) = MOD(I, 8) + 1
    ELSE
      IX(I) = 4097 - I
    ENDIF
  ENDDO
!$TARGET GUPD
  DO I = 1, 4096
    A(IX(I)) = B(I) * 2.0 + 1.0 + B(I) * B(I) * 0.25 - B(I) / 3.0
  ENDDO
  S = 0.0
  DO I = 1, 4096
    S = S + A(I)
  ENDDO
  WRITE(*,*) 'SUM', S
END
"
    )
}

fn compile_spec(src: &str) -> CompileResult {
    Compiler::new(CompilerProfile::polaris2008().with_runtime_test())
        .compile_source("spec", src)
        .unwrap_or_else(|e| panic!("{}", e))
}

fn exec(r: &CompileResult, mode: ExecMode, threads: usize) -> RunResult {
    run(
        &r.rp,
        &[],
        &ExecConfig {
            mode,
            threads,
            check_races: false,
            ..Default::default()
        },
    )
    .unwrap_or_else(|e| panic!("{}", e))
}

#[test]
fn indirection_loop_gets_speculative_annotation() {
    let r = compile_spec(&gather_src(0));
    let l = r
        .target_loops()
        .find(|l| l.target.as_deref() == Some("GUPD"))
        .expect("target");
    assert_eq!(l.classification, C::Indirection);
    assert!(l.speculative, "runtime-test profile must speculate");
    assert!(!l.parallelized, "speculative is not statically parallel");
}

#[test]
fn baseline_profile_never_speculates() {
    for profile in [CompilerProfile::polaris2008(), CompilerProfile::full()] {
        let r = Compiler::new(profile)
            .compile_source("spec", &gather_src(0))
            .unwrap();
        assert!(r.loops.iter().all(|l| !l.speculative));
    }
}

#[test]
fn independent_gather_commits_and_matches_serial() {
    let r = compile_spec(&gather_src(0));
    let ser = exec(&r, ExecMode::Serial, 1);
    let par = exec(&r, ExecMode::Auto, 4);
    assert_eq!(ser.output, par.output);
    assert_eq!(par.speculations, 1, "test must pass and commit");
    assert_eq!(par.rollbacks, 0);
}

#[test]
fn colliding_gather_rolls_back_and_matches_serial() {
    let r = compile_spec(&gather_src(1));
    let ser = exec(&r, ExecMode::Serial, 1);
    let par = exec(&r, ExecMode::Auto, 4);
    assert_eq!(ser.output, par.output, "rollback must restore serial semantics");
    assert_eq!(par.speculations, 0);
    assert_eq!(par.rollbacks, 1);
}

#[test]
fn successful_speculation_is_faster_misspeculation_slower() {
    // Baseline: the same program under the same profile minus the
    // runtime test — the other loops still parallelize, only the
    // gather stays serial. Isolates the speculation delta.
    let base_of = |src: &str| {
        let r = Compiler::new(CompilerProfile::polaris2008())
            .compile_source("spec", src)
            .unwrap();
        exec(&r, ExecMode::Auto, 4).virt
    };
    let ok_src = gather_src(0);
    let bad_src = gather_src(1);
    let ok_par = exec(&compile_spec(&ok_src), ExecMode::Auto, 4).virt;
    let bad_par = exec(&compile_spec(&bad_src), ExecMode::Auto, 4).virt;
    let ok_base = base_of(&ok_src);
    let bad_base = base_of(&bad_src);
    assert!(
        ok_par < ok_base,
        "committed speculation should win: {} vs {}",
        ok_par,
        ok_base
    );
    assert!(
        bad_par > bad_base,
        "misspeculation pays for the failed attempt: {} vs {}",
        bad_par,
        bad_base
    );
}

#[test]
fn rangeless_bound_loop_speculates() {
    // N arrives from the input deck: statically rangeless, dynamically
    // fine.
    let src = "PROGRAM SPECN
  REAL A(256)
  READ(*,*) N
  DO I = 1, 256
    A(I) = REAL(I)
  ENDDO
!$TARGET RLOOP
  DO I = 1, N
    A(I + N) = A(I) * 3.0
  ENDDO
  WRITE(*,*) A(200)
END
";
    let r = compile_spec(src);
    let l = r
        .target_loops()
        .find(|l| l.target.as_deref() == Some("RLOOP"))
        .expect("target");
    assert!(
        l.speculative,
        "rangeless loop should speculate, classified {:?}",
        l.classification
    );
    let deck = vec![autopar::runtime::DeckVal::Int(100)];
    let ser = run(&r.rp, &deck, &ExecConfig::default()).unwrap();
    let par = run(
        &r.rp,
        &deck,
        &ExecConfig {
            mode: ExecMode::Auto,
            threads: 4,
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(ser.output, par.output);
    assert_eq!(par.speculations, 1);
    assert_eq!(par.rollbacks, 0);
}

#[test]
fn scalar_recurrence_is_not_a_speculation_candidate() {
    // The blocked scalar is a real recurrence (RealDependence, not a
    // dynamically checkable hindrance): must stay serial even under
    // the runtime-test profile.
    let src = "PROGRAM SPECX
  REAL A(100)
  X = 1.0
!$TARGET SREC
  DO I = 1, 100
    X = X * 0.5 + REAL(I)
    A(I) = X
  ENDDO
  WRITE(*,*) A(100)
END
";
    let r = compile_spec(src);
    let l = r
        .target_loops()
        .find(|l| l.target.as_deref() == Some("SREC"))
        .expect("target");
    assert!(!l.speculative);
    assert!(!l.parallelized);
}

#[test]
fn workload_suites_run_correctly_under_speculation() {
    // The end-to-end validation on real code: every application suite
    // compiled with the runtime test enabled must still produce the
    // serial output under Auto — with dozens of speculative regions
    // committing or rolling back along the way.
    use autopar::workloads::DataSize;
    let suites = vec![
        autopar::workloads::gamess::suite(DataSize::Test),
        autopar::workloads::sander::suite(DataSize::Test),
        autopar::workloads::seismic::full_suite(
            DataSize::Test,
            autopar::workloads::Variant::Serial,
        ),
    ];
    for w in suites {
        let r = Compiler::new(CompilerProfile::polaris2008().with_runtime_test())
            .compile_source(&w.name, &w.source)
            .unwrap_or_else(|e| panic!("{}: {}", w.name, e));
        assert!(
            r.loops.iter().any(|l| l.speculative),
            "{}: expected speculative loops",
            w.name
        );
        let ser = run(&r.rp, &w.deck, &ExecConfig::default())
            .unwrap_or_else(|e| panic!("{}: {}", w.name, e));
        let par = run(
            &r.rp,
            &w.deck,
            &ExecConfig {
                mode: ExecMode::Auto,
                threads: 4,
                ..Default::default()
            },
        )
        .unwrap_or_else(|e| panic!("{}: {}", w.name, e));
        assert_eq!(
            ser.output, par.output,
            "{}: speculative execution diverged from serial",
            w.name
        );
        assert!(
            par.speculations + par.rollbacks > 0,
            "{}: no speculative region actually executed",
            w.name
        );
    }
}

/// Soundness under arbitrary index arrays: whatever `IX(I) =
/// MOD(I * m + a, md) + 1` produces — permutation, fold, constant —
/// the speculative run must reproduce the serial output exactly, by
/// committing when the data is independent and rolling back when it is
/// not.
#[test]
fn speculative_run_always_matches_serial() {
    forall("speculative_run_always_matches_serial", 24, |rng| {
        let mul = rng.int_in(1, 15);
        let add = rng.int_in(0, 63);
        let md = rng.int_in(1, 255);
        let trip = rng.int_in(32, 255);
        let src = format!(
            "PROGRAM SP
  REAL A(512), B(512)
  INTEGER IX(512)
  DO I = 1, 512
    A(I) = REAL(I) * 0.125
    B(I) = REAL(I) * 0.5
    IX(I) = MOD(I * {mul} + {add}, {md}) + 1
  ENDDO
!$TARGET GUPD
  DO I = 1, {trip}
    A(IX(I)) = B(I) * 2.0 + A(IX(I)) * 0.25
  ENDDO
  S = 0.0
  DO I = 1, 512
    S = S + A(I)
  ENDDO
  WRITE(*,*) 'SUM', S
END
"
        );
        let r = Compiler::new(CompilerProfile::polaris2008().with_runtime_test())
            .compile_source("sp", &src)
            .unwrap_or_else(|e| panic!("{}\n{}", e, src));
        let ser = run(&r.rp, &[], &ExecConfig::default())
            .unwrap_or_else(|e| panic!("{}\n{}", e, src));
        let par = run(
            &r.rp,
            &[],
            &ExecConfig {
                mode: ExecMode::Auto,
                threads: 4,
                ..Default::default()
            },
        )
        .unwrap_or_else(|e| panic!("{}\n{}", e, src));
        assert_eq!(&ser.output, &par.output);
    });
}

#[test]
fn speculation_composes_with_full_profile() {
    // full() resolves the permutation statically when indirection
    // analysis can see the IF-free initializer; with the branch in the
    // way it cannot, so the runtime test still adds loops on top of
    // full().
    let r = Compiler::new(CompilerProfile::full().with_runtime_test())
        .compile_source("spec", &gather_src(0))
        .unwrap();
    let l = r
        .target_loops()
        .find(|l| l.target.as_deref() == Some("GUPD"))
        .expect("target");
    assert!(
        l.parallelized || l.speculative,
        "full+runtime-test must handle the gather one way or the other"
    );
    let ser = exec(&r, ExecMode::Serial, 1);
    let par = exec(&r, ExecMode::Auto, 4);
    assert_eq!(ser.output, par.output);
}
