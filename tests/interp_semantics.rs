//! Fortran-77 execution semantics the analyses rely on: storage
//! association through COMMON and EQUIVALENCE, by-reference argument
//! passing, implicit typing at runtime, deck reading, STOP, traps, and
//! the output limit.

use autopar::minifort::frontend;
use autopar::runtime::{run, DeckVal, ExecConfig, RtError};

fn exec(src: &str) -> Vec<String> {
    exec_deck(src, &[])
}

fn exec_deck(src: &str, deck: &[DeckVal]) -> Vec<String> {
    let rp = frontend(src).unwrap_or_else(|e| panic!("{}", e));
    run(&rp, deck, &ExecConfig::default())
        .unwrap_or_else(|e| panic!("{}", e))
        .output
}

fn exec_err(src: &str) -> RtError {
    let rp = frontend(src).unwrap_or_else(|e| panic!("{}", e));
    match run(&rp, &[], &ExecConfig::default()) {
        Ok(r) => panic!("expected trap, got {:?}", r.output),
        Err(e) => e,
    }
}

#[test]
fn common_block_is_shared_across_units() {
    let out = exec(
        "PROGRAM P
  COMMON /BLK/ X, Y
  X = 1.5
  Y = 2.5
  CALL BUMP
  WRITE(*,*) X, Y
END
SUBROUTINE BUMP
  COMMON /BLK/ A, B
  A = A + 1.0
  B = B * 2.0
END
",
    );
    assert_eq!(out, vec!["2.500000 5.000000".to_string()]);
}

#[test]
fn equivalence_overlays_storage() {
    // Y(1) aliases X(3): writing one reads back through the other.
    let out = exec(
        "PROGRAM P
  REAL X(5), Y(3)
  EQUIVALENCE (X(3), Y(1))
  DO I = 1, 5
    X(I) = REAL(I)
  ENDDO
  Y(2) = 99.0
  WRITE(*,*) X(4), Y(1)
END
",
    );
    assert_eq!(out, vec!["99.000000 3.000000".to_string()]);
}

#[test]
fn arguments_pass_by_reference() {
    let out = exec(
        "PROGRAM P
  REAL A(4)
  A(2) = 10.0
  CALL TWICE(A(2))
  WRITE(*,*) A(2)
END
SUBROUTINE TWICE(X)
  X = X * 2.0
END
",
    );
    assert_eq!(out, vec!["20.000000".to_string()]);
}

#[test]
fn array_section_actual_rebases_callee_indexing() {
    // Passing A(3) gives the callee a window starting there.
    let out = exec(
        "PROGRAM P
  REAL A(8)
  DO I = 1, 8
    A(I) = REAL(I)
  ENDDO
  CALL SUMUP(A(3), 4)
END
SUBROUTINE SUMUP(V, N)
  REAL V(*)
  INTEGER N
  S = 0.0
  DO I = 1, N
    S = S + V(I)
  ENDDO
  WRITE(*,*) 'S', S
END
",
    );
    // 3+4+5+6 = 18.
    assert_eq!(out, vec!["S 18.000000".to_string()]);
}

#[test]
fn implicit_typing_integers_vs_reals() {
    // I..N names are INTEGER: assignment truncates; others are REAL.
    let out = exec(
        "PROGRAM P
  K = 2.9
  X = 2.9
  WRITE(*,*) K, X
END
",
    );
    assert_eq!(out, vec!["2 2.900000".to_string()]);
}

#[test]
fn integer_division_truncates() {
    let out = exec(
        "PROGRAM P
  I = 7
  J = 2
  K = I / J
  M = (0 - 7) / 2
  WRITE(*,*) K, M
END
",
    );
    assert_eq!(out, vec!["3 -3".to_string()]);
}

#[test]
fn deck_reads_in_order_and_exhaustion_traps() {
    let out = exec_deck(
        "PROGRAM P
  READ(*,*) N
  READ(*,*) X
  WRITE(*,*) N, X
END
",
        &[DeckVal::Int(5), DeckVal::Real(1.25)],
    );
    assert_eq!(out, vec!["5 1.250000".to_string()]);

    let rp = frontend("PROGRAM P\n  READ(*,*) N\nEND\n").unwrap();
    match run(&rp, &[], &ExecConfig::default()) {
        Err(RtError::DeckExhausted) => {}
        other => panic!("expected DeckExhausted, got {:?}", other.map(|r| r.output)),
    }
}

#[test]
fn stop_halts_and_is_reported() {
    let rp = frontend(
        "PROGRAM P
  WRITE(*,*) 'BEFORE'
  STOP
  WRITE(*,*) 'AFTER'
END
",
    )
    .unwrap();
    let r = run(&rp, &[], &ExecConfig::default()).unwrap();
    assert_eq!(r.output, vec!["BEFORE".to_string()]);
    assert!(r.stopped);
}

#[test]
fn out_of_range_subscript_traps() {
    // Per F77 storage association, intra-arena overruns are legal (a
    // COMMON overrun lands in neighbouring storage); only escaping the
    // arena entirely traps.
    let e = exec_err(
        "PROGRAM P
  REAL A(4)
  COMMON /B/ A
  I = 2000000000
  A(I) = 1.0
  WRITE(*,*) A(1)
END
",
    );
    assert!(
        format!("{}", e).contains("subscript out of range"),
        "{}",
        e
    );
}

#[test]
fn zero_do_step_traps() {
    let e = exec_err(
        "PROGRAM P
  K = 0
  DO I = 1, 10, K
    X = 1.0
  ENDDO
END
",
    );
    assert!(format!("{}", e).contains("zero DO step"), "{}", e);
}

#[test]
fn output_limit_enforced() {
    let rp = frontend(
        "PROGRAM P
  DO I = 1, 100
    WRITE(*,*) I
  ENDDO
END
",
    )
    .unwrap();
    let r = run(
        &rp,
        &[],
        &ExecConfig {
            max_output: 10,
            ..Default::default()
        },
    );
    match r {
        Err(RtError::OutputLimit) => {}
        other => panic!("expected OutputLimit, got {:?}", other.map(|r| r.output.len())),
    }
}

#[test]
fn function_subprograms_return_values() {
    let out = exec(
        "PROGRAM P
  X = POLY(2.0) + POLY(3.0)
  WRITE(*,*) X
END
REAL FUNCTION POLY(T)
  POLY = T * T + 1.0
END
",
    );
    // (4+1) + (9+1) = 15.
    assert_eq!(out, vec!["15.000000".to_string()]);
}

#[test]
fn computed_conditions_and_elseif_chain() {
    let out = exec(
        "PROGRAM P
  DO I = 1, 4
    IF (I .EQ. 1) THEN
      WRITE(*,*) 'ONE'
    ELSEIF (I .LE. 3) THEN
      WRITE(*,*) 'MID', I
    ELSE
      WRITE(*,*) 'BIG'
    ENDIF
  ENDDO
END
",
    );
    assert_eq!(
        out,
        vec![
            "ONE".to_string(),
            "MID 2".to_string(),
            "MID 3".to_string(),
            "BIG".to_string()
        ]
    );
}

#[test]
fn do_while_and_logical_operators() {
    let out = exec(
        "PROGRAM P
  K = 1
  DO WHILE (K .LT. 100 .AND. MOD(K, 7) .NE. 0)
    K = K + 3
  ENDDO
  WRITE(*,*) K
END
",
    );
    // 1,4,7 — stops at 7 (divisible by 7).
    assert_eq!(out, vec!["7".to_string()]);
}

#[test]
fn loop_variable_has_fortran_exit_value() {
    let out = exec(
        "PROGRAM P
  DO I = 1, 10
    X = REAL(I)
  ENDDO
  WRITE(*,*) I
END
",
    );
    assert_eq!(out, vec!["11".to_string()]);
}

#[test]
fn multidim_column_major_layout() {
    // A(I,J) and the EQUIVALENCE'd flat view agree on column-major
    // order — the property the reshaped-access analysis depends on.
    let out = exec(
        "PROGRAM P
  REAL A(3, 2), F(6)
  EQUIVALENCE (A(1, 1), F(1))
  K = 0
  DO J = 1, 2
    DO I = 1, 3
      K = K + 1
      A(I, J) = REAL(K)
    ENDDO
  ENDDO
  WRITE(*,*) F(1), F(4), F(6)
END
",
    );
    // Column-major: F = [A(1,1),A(2,1),A(3,1),A(1,2),A(2,2),A(3,2)].
    assert_eq!(out, vec!["1.000000 4.000000 6.000000".to_string()]);
}

// Loop and address arithmetic at the edge of INTEGER: the interpreter's
// own bookkeeping traps where it cannot be represented, and the loop
// variable — a program value — wraps like any other integer expression.
// Either way the answer is the same in every build profile.

#[test]
fn do_trip_count_that_does_not_fit_traps() {
    let err = exec_err(
        "PROGRAM P
  DO I = -9223372036854775807, 9223372036854775807
    K = I
  ENDDO
END
",
    );
    assert_eq!(err, RtError::Trap("DO trip count overflows".to_string()));
}

#[test]
fn loop_variable_wraps_like_integer_arithmetic() {
    let out = exec(
        "PROGRAM P
  N = 0
  DO I = 9223372036854775806, 9223372036854775807
    N = N + 1
  ENDDO
  WRITE(*,*) N, I, 9223372036854775807 + 1
END
",
    );
    assert_eq!(
        out,
        vec!["2 -9223372036854775808 -9223372036854775808".to_string()]
    );
}

#[test]
fn subscript_arithmetic_overflow_traps() {
    for (what, stmt) in [
        ("base + offset", "A(9223372036854775807) = 1.0"),
        ("subscript - lower", "A(-9223372036854775807 - 1) = 1.0"),
        ("offset * stride", "B(1, 9223372036854775807) = 1.0"),
        ("offset + offset", "X = B(4611686018427387904, 4611686018427387904)"),
    ] {
        let src = format!("PROGRAM P\n  REAL A(10), B(4, 4)\n  {}\nEND\n", stmt);
        match exec_err(&src) {
            RtError::Trap(m) => assert!(m.contains("subscript out of range"), "{}: {}", what, m),
            other => panic!("{}: expected a trap, got {}", what, other),
        }
    }
}

#[test]
fn array_extent_overflow_traps_on_activation() {
    let err = exec_err(
        "PROGRAM P
  REAL W(8)
  CALL S(W, 4000000000)
END
SUBROUTINE S(A, N)
  REAL A(N, N, N)
  A(1, 1, 1) = 1.0
END
",
    );
    assert_eq!(err, RtError::Trap("S: array extent overflows".to_string()));
}
