//! Fault-tolerant execution: injected speculation conflicts must roll
//! back to bit-identical serial semantics with the rollback billed to
//! the virtual clock; injected worker panics and rank kills must come
//! back as structured errors, never escaped panics or hangs.

use apar_minicheck::forall;
use autopar::core::{CompileResult, Compiler, CompilerProfile};
use autopar::minifort::frontend;
use autopar::runtime::{
    run, run_mpi, ExecConfig, ExecMode, FaultPlan, MsgPat, RtError, RunResult,
};

/// Independent gather through an index array: clean data, so only an
/// injected conflict can make the speculative region roll back.
fn gather_src() -> String {
    "PROGRAM SPEC
  REAL A(2048), B(2048)
  INTEGER IX(2048)
  READ(*,*) N
  DO I = 1, 2048
    B(I) = REAL(I) * 0.5
    IX(I) = 2049 - I
  ENDDO
!$TARGET GUPD
  DO I = 1, 2048
    A(IX(I)) = B(I) * 2.0 + 1.0 + B(I) * B(I) * 0.25
  ENDDO
  S = 0.0
  DO I = 1, 2048
    S = S + A(I) * REAL(N)
  ENDDO
  WRITE(*,*) 'SUM', S
END
"
    .to_string()
}

fn compile_spec(src: &str) -> CompileResult {
    Compiler::new(CompilerProfile::polaris2008().with_runtime_test())
        .compile_source("spec", src)
        .unwrap_or_else(|e| panic!("{}", e))
}

fn deck() -> Vec<autopar::runtime::DeckVal> {
    vec![autopar::runtime::DeckVal::Int(3)]
}

fn exec(r: &CompileResult, mode: ExecMode, fault: FaultPlan) -> RunResult {
    run(
        &r.rp,
        &deck(),
        &ExecConfig {
            mode,
            threads: 4,
            fault,
            ..Default::default()
        },
    )
    .unwrap_or_else(|e| panic!("{}", e))
}

#[test]
fn forced_conflict_rolls_back_bit_identical_to_serial() {
    let r = compile_spec(&gather_src());
    let ser = exec(&r, ExecMode::Serial, FaultPlan::none());
    let forced = exec(&r, ExecMode::Auto, FaultPlan::none().force_conflict());
    assert_eq!(
        ser.output, forced.output,
        "rollback must restore exact serial semantics"
    );
    assert_eq!(forced.speculations, 0, "forced conflict must not commit");
    assert_eq!(forced.rollbacks, 1);
}

#[test]
fn rollback_cost_lands_on_the_virtual_clock() {
    // The same program, clean vs forced: the rollback pays for the
    // checkpoint, the wasted parallel attempt, the restore, and the
    // serial re-execution — so forced virtual time must be strictly
    // larger, and deterministically so.
    let r = compile_spec(&gather_src());
    let clean = exec(&r, ExecMode::Auto, FaultPlan::none());
    let forced = exec(&r, ExecMode::Auto, FaultPlan::none().force_conflict());
    assert_eq!(clean.rollbacks, 0);
    assert_eq!(forced.rollbacks, 1);
    assert!(
        forced.virt > clean.virt,
        "rollback must cost virtual time: forced {} vs clean {}",
        forced.virt,
        clean.virt
    );
    // Determinism: repeat runs agree exactly despite real threads.
    for _ in 0..3 {
        let again = exec(&r, ExecMode::Auto, FaultPlan::none().force_conflict());
        assert_eq!(again.virt, forced.virt);
        assert_eq!(again.output, forced.output);
    }
}

#[test]
fn worker_panic_is_contained_as_structured_error() {
    // A statically parallel region with an injected panic in worker 2:
    // the panic must surface as RtError::WorkerPanic with provenance,
    // not abort the process or poison unrelated state.
    let src = "PROGRAM P
  REAL A(512), B(512)
  DO I = 1, 512
    B(I) = REAL(I)
  ENDDO
!$OMP PARALLEL DO
  DO I = 1, 512
    A(I) = B(I) * 2.0
  ENDDO
  WRITE(*,*) A(512)
END
";
    let rp = frontend(src).unwrap_or_else(|e| panic!("{}", e));
    let err = run(
        &rp,
        &[],
        &ExecConfig {
            mode: ExecMode::Manual,
            threads: 4,
            fault: FaultPlan::none().panic_worker(2),
            ..Default::default()
        },
    )
    .expect_err("injected worker panic must fail the run");
    match err {
        RtError::WorkerPanic { worker, ref message, .. } => {
            assert_eq!(worker, 2);
            assert!(message.contains("injected"), "{}", message);
        }
        other => panic!("expected WorkerPanic, got {}", other),
    }
}

#[test]
fn killed_rank_surfaces_as_rank_killed() {
    // Rank 1 dies at its first MP operation; the world must terminate
    // with the root cause (RankKilled), not the follow-on deadlock the
    // surviving ranks observe.
    let src = "PROGRAM P
  CALL MPMYID(ME)
  X = REAL(ME + 1)
  CALL MPREDS(X)
  IF (ME .EQ. 0) THEN
    WRITE(*,*) X
  ENDIF
END
";
    let rp = frontend(src).unwrap_or_else(|e| panic!("{}", e));
    let cfg = ExecConfig {
        mpi_timeout_ms: 250,
        fault: FaultPlan::none().kill_rank(1, 0),
        ..Default::default()
    };
    let err = run_mpi(&rp, &[], 4, &cfg).expect_err("killed rank must fail the world");
    match err {
        RtError::RankKilled { rank } => assert_eq!(rank, 1),
        other => panic!("expected RankKilled, got {}", other),
    }
}

#[test]
fn dropped_message_becomes_deadlock_not_hang() {
    // The fault plan silently loses the only message: the receiver must
    // report a deadlock naming its wait within the timeout.
    let src = "PROGRAM P
  REAL A(1)
  CALL MPMYID(ME)
  IF (ME .EQ. 1) THEN
    A(1) = 1.0
    CALL MPSEND(A, 1, 1, 0, 5)
  ENDIF
  IF (ME .EQ. 0) THEN
    CALL MPRECV(A, 1, 1, 1, 5)
  ENDIF
END
";
    let rp = frontend(src).unwrap_or_else(|e| panic!("{}", e));
    let cfg = ExecConfig {
        mpi_timeout_ms: 250,
        fault: FaultPlan::none().drop_message(MsgPat::any().with_tag(5)),
        ..Default::default()
    };
    let err = run_mpi(&rp, &[], 2, &cfg).expect_err("lost message must not hang");
    assert!(matches!(err, RtError::Deadlock(_)), "{}", err);
    let msg = format!("{}", err);
    assert!(msg.contains("rank 0") && msg.contains("tag=5"), "{}", msg);
}

/// Rollback determinism property: whatever the index data, a forced
/// conflict must land the speculative region back on the exact serial
/// output, and the virtual clock of the forced run is a pure function
/// of the program (identical across repeats on real threads).
#[test]
fn forced_rollback_always_matches_serial() {
    forall("forced_rollback_always_matches_serial", 12, |rng| {
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
        let forced_cfg = ExecConfig {
            mode: ExecMode::Auto,
            threads: 4,
            fault: FaultPlan::none().force_conflict(),
            ..Default::default()
        };
        let f1 = run(&r.rp, &[], &forced_cfg).unwrap_or_else(|e| panic!("{}\n{}", e, src));
        assert_eq!(&ser.output, &f1.output, "\n{}", src);
        assert_eq!(f1.speculations, 0);
        assert!(f1.rollbacks >= 1);
        let f2 = run(&r.rp, &[], &forced_cfg).unwrap_or_else(|e| panic!("{}\n{}", e, src));
        assert_eq!(f1.virt, f2.virt, "forced rollback virt must be deterministic");
    });
}
