//! The virtual clock, pinned to the op. Every number here is what the
//! interpreter charged before expressions were compiled to closures:
//! a change to how the interpreter runs a program must leave each of
//! them exactly where it is. Virtual time changes only on purpose, and
//! a change that moves one of these says so.

use autopar::core::{Compiler, CompilerProfile};
use autopar::minifort::frontend;
use autopar::runtime::{run, ExecConfig, ExecMode, RtError};
use autopar::workloads::{gamess, linpack, perfect, sander, seismic, DataSize, Variant, Workload};

fn suites() -> Vec<Workload> {
    let mut v = vec![
        seismic::full_suite(DataSize::Test, Variant::Serial),
        gamess::suite(DataSize::Test),
        sander::suite(DataSize::Test),
    ];
    v.extend(perfect::codes());
    v.push(linpack::suite());
    v
}

/// `(suite, serial virt, Auto virt on 4 threads)`.
const SUITE_CLOCKS: [(&str, u64, u64); 8] = [
    ("SEISMIC", 201_744, 533_411),
    ("GAMESS", 27_004, 145_621),
    ("SANDER", 34_753, 101_565),
    ("PERFECT/ADM", 2_734_421, 903_101),
    ("PERFECT/TRFD", 713_502, 195_922),
    ("PERFECT/MDG", 3_941_704, 1_032_624),
    ("PERFECT/BDNA", 114_741, 59_721),
    ("LINPACK", 595_052, 1_036_148),
];

#[test]
fn suite_clocks_are_pinned() {
    let suites = suites();
    let mut got = Vec::new();
    for w in &suites {
        let serial = frontend(&w.source).expect("frontend");
        let s = run(&serial, &w.deck, &ExecConfig::default())
            .unwrap_or_else(|e| panic!("{} serial: {}", w.name, e));
        let compiled = Compiler::new(CompilerProfile::polaris2008())
            .compile_source(&w.name, &w.source)
            .expect("compile");
        let cfg = ExecConfig {
            mode: ExecMode::Auto,
            threads: 4,
            ..Default::default()
        };
        let a =
            run(&compiled.rp, &w.deck, &cfg).unwrap_or_else(|e| panic!("{} auto: {}", w.name, e));
        assert_eq!(
            a.output, s.output,
            "{}: Auto output differs from serial",
            w.name
        );
        got.push((w.name.clone(), s.virt, a.virt));
    }
    let want: Vec<(String, u64, u64)> = SUITE_CLOCKS
        .iter()
        .map(|&(n, s, a)| (n.to_string(), s, a))
        .collect();
    assert_eq!(got, want);
}

/// Runs `src` serially under a virtual-op budget.
fn budgeted(src: &str, max_virt: u64) -> Result<Vec<String>, RtError> {
    let rp = frontend(src).unwrap_or_else(|e| panic!("{}", e));
    let cfg = ExecConfig {
        max_virt,
        ..Default::default()
    };
    run(&rp, &[], &cfg).map(|r| r.output)
}

/// A FUNCTION called from the middle of an expression, whose last
/// statement is the program's last budget check: the smallest budget
/// sees exactly what the expression charged before the call.
const CALL_IN_EXPR: &str = "PROGRAM P
  REAL A(8)
  Y = 2.0
  DO I = 1, 8
    A(I) = Y * REAL(I) + F(Y + 1.0, I) * 3.0 - A(I)
  ENDDO
  Z = A(1) + F(A(8), 2) + Y
END
FUNCTION F(X, K)
  F = X
  DO J = 1, K
    F = F + REAL(J) * X
  ENDDO
END
";

/// Intrinsics of each arity, one variadic MAX past four arguments.
const INTRINSICS: &str = "PROGRAM P
  REAL A(6)
  S = 0.0
  DO I = 1, 6
    A(I) = SQRT(ABS(REAL(I) - 3.5)) + MOD(I, 4) + SIGN(1.5, 2.0 - REAL(I))
    S = S + MAX(A(I), 1.0, REAL(I), 0.5, S, 2.0) + MIN(A(I), S) + ATAN2(S, 1.0)
  ENDDO
  WRITE(*,*) S
END
";

/// A 2-D stencil: two subscripts per load and per store.
const TWO_D: &str = "PROGRAM P
  REAL A(6, 5), B(5, 6)
  DO J = 1, 5
    DO I = 1, 6
      A(I, J) = REAL(I * J)
      B(J, I) = REAL(I + J)
    ENDDO
  ENDDO
  DO J = 2, 5
    DO I = 2, 6
      A(I, J) = A(I - 1, J) + B(J, I) * A(I, J - 1)
    ENDDO
  ENDDO
  WRITE(*,*) A(6, 5)
END
";

#[test]
fn smallest_completing_budget_is_pinned() {
    for (what, src, min) in [
        ("call in expression", CALL_IN_EXPR, 788),
        ("intrinsics", INTRINSICS, 452),
        ("2-D array", TWO_D, 1040),
    ] {
        assert!(
            budgeted(src, min).is_ok(),
            "{}: budget {} completes",
            what,
            min
        );
        assert_eq!(
            budgeted(src, min - 1),
            Err(RtError::OpLimit),
            "{}: budget {} is one short",
            what,
            min - 1
        );
    }
}

fn trap(body: &str) -> String {
    let src = format!(
        "PROGRAM P\n  REAL A(10)\n  I = 3\n{}\nEND\nFUNCTION F(X)\n  F = X\nEND\n",
        body
    );
    match budgeted(&src, u64::MAX) {
        Err(RtError::Trap(m)) => m,
        other => panic!("{}: expected a trap, got {:?}", body, other),
    }
}

#[test]
fn expression_trap_messages_are_pinned() {
    // Each trap is raised once in a call-free expression and once in
    // one that also calls a FUNCTION.
    for (body, want) in [
        ("  X = A(1, I)", "too many subscripts"),
        ("  X = F(1.0) + A(I, 1)", "too many subscripts"),
        (
            "  X = A(I * 1000000000000)",
            "subscript out of range (addr 2999999999999)",
        ),
        (
            "  X = F(1.0) + A(-I * 1000000000000)",
            "subscript out of range (addr -3000000000001)",
        ),
        (
            "  K = -9223372036854775807 - 1\n  X = A(K)",
            "subscript out of range (address overflows)",
        ),
        (
            "  X = MOD(I)",
            "Mod: expected at least 2 argument(s), got 1",
        ),
        (
            "  X = F(2.0) * ATAN2(F(1.0))",
            "Atan2: expected at least 2 argument(s), got 1",
        ),
    ] {
        assert_eq!(trap(body), want, "{}", body);
    }
}
