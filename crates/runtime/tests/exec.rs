//! Interpreter semantics: serial execution, storage association,
//! parallel execution equivalence, the race checker, and MPI builtins.

use apar_minifort::frontend;
use apar_runtime::{run, run_mpi, DeckVal, ExecConfig, ExecMode, RtError, MAX_CALL_DEPTH};

fn exec(src: &str, deck: &[DeckVal]) -> Vec<String> {
    let rp = frontend(src).expect("frontend");
    run(&rp, deck, &ExecConfig::default())
        .expect("run")
        .output
}

fn exec_mode(src: &str, deck: &[DeckVal], mode: ExecMode, check: bool) -> Vec<String> {
    let rp = frontend(src).expect("frontend");
    run(
        &rp,
        deck,
        &ExecConfig {
            mode,
            check_races: check,
            ..Default::default()
        },
    )
    .expect("run")
    .output
}

fn last_num(out: &[String]) -> f64 {
    out.last()
        .and_then(|l| l.split_whitespace().last())
        .and_then(|t| t.parse().ok())
        .unwrap_or(f64::NAN)
}

#[test]
fn arithmetic_and_write() {
    let out = exec("PROGRAM P\nX = 3.0\nY = X * 2.0 + 1.0\nWRITE(*,*) 'Y', Y\nEND\n", &[]);
    assert_eq!(out, vec!["Y 7.000000"]);
}

#[test]
fn integer_semantics() {
    let out = exec(
        "PROGRAM P\nI = 7\nJ = I / 2\nK = MOD(I, 4)\nM = 2 ** 5\nWRITE(*,*) J, K, M\nEND\n",
        &[],
    );
    assert_eq!(out, vec!["3 3 32"]);
}

#[test]
fn do_loop_and_array() {
    let out = exec(
        "PROGRAM P\nREAL A(10)\nDO I = 1, 10\nA(I) = REAL(I) * 2.0\nENDDO\nS = 0.0\nDO I = 1, 10\nS = S + A(I)\nENDDO\nWRITE(*,*) S\nEND\n",
        &[],
    );
    assert_eq!(last_num(&out), 110.0);
}

#[test]
fn do_loop_step_and_exit_value() {
    let out = exec(
        "PROGRAM P\nN = 0\nDO I = 1, 10, 3\nN = N + 1\nENDDO\nWRITE(*,*) N, I\nEND\n",
        &[],
    );
    // Iterations: 1,4,7,10 -> N=4; exit value I=13.
    assert_eq!(out, vec!["4 13"]);
}

#[test]
fn negative_step() {
    let out = exec(
        "PROGRAM P\nS = 0.0\nDO I = 5, 1, -2\nS = S + REAL(I)\nENDDO\nWRITE(*,*) S\nEND\n",
        &[],
    );
    assert_eq!(last_num(&out), 9.0); // 5 + 3 + 1
}

#[test]
fn if_elseif_else() {
    let src = "PROGRAM P\nREAD(*,*) N\nIF (N .GT. 0) THEN\nWRITE(*,*) 'POS'\nELSE IF (N .LT. 0) THEN\nWRITE(*,*) 'NEG'\nELSE\nWRITE(*,*) 'ZERO'\nENDIF\nEND\n";
    assert_eq!(exec(src, &[DeckVal::Int(5)]), vec!["POS"]);
    assert_eq!(exec(src, &[DeckVal::Int(-5)]), vec!["NEG"]);
    assert_eq!(exec(src, &[DeckVal::Int(0)]), vec!["ZERO"]);
}

#[test]
fn subroutine_by_reference() {
    let out = exec(
        "PROGRAM P\nX = 1.0\nCALL BUMP(X)\nCALL BUMP(X)\nWRITE(*,*) X\nEND\nSUBROUTINE BUMP(V)\nV = V + 1.5\nEND\n",
        &[],
    );
    assert_eq!(last_num(&out), 4.0);
}

#[test]
fn array_and_section_arguments() {
    let out = exec(
        "PROGRAM P\nREAL A(10)\nDO I = 1, 10\nA(I) = 1.0\nENDDO\nCALL FILL(A(4), 3, 9.0)\nS = 0.0\nDO I = 1, 10\nS = S + A(I)\nENDDO\nWRITE(*,*) S\nEND\nSUBROUTINE FILL(B, N, V)\nREAL B(*)\nDO K = 1, N\nB(K) = V\nENDDO\nEND\n",
        &[],
    );
    // Elements 4..6 become 9: total = 7*1 + 3*9 = 34.
    assert_eq!(last_num(&out), 34.0);
}

#[test]
fn functions_return_values() {
    let out = exec(
        "PROGRAM P\nX = TWICE(4.0) + TWICE(1.0)\nWRITE(*,*) X\nEND\nREAL FUNCTION TWICE(V)\nTWICE = V * 2.0\nEND\n",
        &[],
    );
    assert_eq!(last_num(&out), 10.0);
}

#[test]
fn common_blocks_share_storage() {
    let out = exec(
        "PROGRAM P\nCOMMON /C/ X, N\nX = 1.5\nN = 3\nCALL SHOW\nEND\nSUBROUTINE SHOW\nCOMMON /C/ Y, M\nWRITE(*,*) Y, M\nEND\n",
        &[],
    );
    assert_eq!(out, vec!["1.500000 3"]);
}

#[test]
fn equivalence_overlays_storage() {
    let out = exec(
        "PROGRAM P\nREAL A(10), B(10)\nEQUIVALENCE (A(5), B(1))\nA(5) = 42.0\nB(2) = 7.0\nWRITE(*,*) B(1), A(6)\nEND\n",
        &[],
    );
    assert_eq!(out, vec!["42.000000 7.000000"]);
}

#[test]
fn adjustable_and_2d_arrays() {
    let out = exec(
        "PROGRAM P\nREAL A(4, 3)\nCALL SET(A, 4, 3)\nWRITE(*,*) A(2, 3)\nEND\nSUBROUTINE SET(M, NR, NC)\nREAL M(NR, NC)\nDO J = 1, NC\nDO I = 1, NR\nM(I, J) = REAL(I * 10 + J)\nENDDO\nENDDO\nEND\n",
        &[],
    );
    assert_eq!(last_num(&out), 23.0);
}

#[test]
fn data_statement_initializes() {
    let out = exec(
        "PROGRAM P\nREAL A(5)\nDATA A /5*2.0/, Q /1.5/\nWRITE(*,*) A(3) + Q\nEND\n",
        &[],
    );
    assert_eq!(last_num(&out), 3.5);
}

#[test]
fn dowhile_runs() {
    let out = exec(
        "PROGRAM P\nN = 1\nDO WHILE (N .LT. 100)\nN = N * 2\nENDDO\nWRITE(*,*) N\nEND\n",
        &[],
    );
    assert_eq!(out, vec!["128"]);
}

#[test]
fn stop_halts() {
    let src = "PROGRAM P\nWRITE(*,*) 'A'\nREAD(*,*) N\nIF (N .GT. 0) STOP\nWRITE(*,*) 'B'\nEND\n";
    assert_eq!(exec(src, &[DeckVal::Int(1)]), vec!["A"]);
    assert_eq!(exec(src, &[DeckVal::Int(0)]), vec!["A", "B"]);
}

#[test]
fn deck_exhaustion_errors() {
    let rp = frontend("PROGRAM P\nREAD(*,*) A, B\nEND\n").unwrap();
    let err = run(&rp, &[DeckVal::Int(1)], &ExecConfig::default()).unwrap_err();
    assert_eq!(err, RtError::DeckExhausted);
}

// ---------------- parallel execution ----------------

const PAR_SRC: &str = "PROGRAM P\nREAL A(1000)\n!$OMP PARALLEL DO PRIVATE(T)\nDO I = 1, 1000\nT = REAL(I) * 0.5\nA(I) = T + 1.0\nENDDO\nS = 0.0\n!$OMP PARALLEL DO REDUCTION(+:S)\nDO I = 1, 1000\nS = S + A(I)\nENDDO\nWRITE(*,*) S\nEND\n";

#[test]
fn parallel_matches_serial() {
    let serial = exec_mode(PAR_SRC, &[], ExecMode::Serial, false);
    let par = exec_mode(PAR_SRC, &[], ExecMode::Manual, true);
    let (a, b) = (last_num(&serial), last_num(&par));
    assert!((a - b).abs() / a.abs() < 1e-9, "{} vs {}", a, b);
    // And it actually forked.
    let rp = frontend(PAR_SRC).unwrap();
    let r = run(
        &rp,
        &[],
        &ExecConfig {
            mode: ExecMode::Manual,
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(r.regions, 2);
    assert!(r.forks >= 8);
}

#[test]
fn lastprivate_value_survives() {
    let src = "PROGRAM P\nREAL A(100)\n!$OMP PARALLEL DO PRIVATE(T)\nDO I = 1, 100\nT = REAL(I)\nA(I) = T\nENDDO\nWRITE(*,*) T, I\nEND\n";
    let serial = exec_mode(src, &[], ExecMode::Serial, false);
    let par = exec_mode(src, &[], ExecMode::Manual, false);
    assert_eq!(serial, par);
    assert_eq!(serial, vec!["100.000000 101"]);
}

#[test]
fn private_array_isolation() {
    let src = "PROGRAM P\nREAL A(64), W(8)\n!$OMP PARALLEL DO PRIVATE(W, K)\nDO I = 1, 64\nDO K = 1, 8\nW(K) = REAL(I + K)\nENDDO\nA(I) = W(1) + W(8)\nENDDO\nS = 0.0\nDO I = 1, 64\nS = S + A(I)\nENDDO\nWRITE(*,*) S\nEND\n";
    let serial = exec_mode(src, &[], ExecMode::Serial, false);
    let par = exec_mode(src, &[], ExecMode::Manual, true);
    assert_eq!(last_num(&serial), last_num(&par));
}

#[test]
fn cyclic_schedule_matches_serial() {
    // Imbalanced body (the IF arm does extra work for low I): a
    // `!$PAR DO SCHEDULE(CYCLIC)` deals iterations round-robin. The
    // result must still be bit-identical to serial.
    let src = "PROGRAM P\nREAL A(100)\n!$PAR DO SCHEDULE(CYCLIC) PRIVATE(T)\nDO I = 1, 100\nT = REAL(I)\nIF (I .LT. 50) THEN\nT = T + REAL(I) * 2.0\nENDIF\nA(I) = T\nENDDO\nS = 0.0\nDO I = 1, 100\nS = S + A(I)\nENDDO\nWRITE(*,*) S\nEND\n";
    let serial = exec_mode(src, &[], ExecMode::Serial, false);
    let par = exec_mode(src, &[], ExecMode::Auto, true);
    assert_eq!(serial, par);
}

#[test]
fn cyclic_lastprivate_comes_from_final_iteration() {
    // With 4 threads and 98 iterations, the final iteration (t = 97)
    // belongs to worker 1 under CYCLIC — not the last worker, which is
    // the static chunking's lastprivate carrier.
    let src = "PROGRAM P\nREAL A(98)\n!$PAR DO SCHEDULE(CYCLIC) PRIVATE(T)\nDO I = 1, 98\nT = REAL(I)\nA(I) = T\nENDDO\nWRITE(*,*) T, I\nEND\n";
    let serial = exec_mode(src, &[], ExecMode::Serial, false);
    let par = exec_mode(src, &[], ExecMode::Auto, false);
    assert_eq!(serial, par);
    assert_eq!(serial, vec!["98.000000 99"]);
}

#[test]
fn cyclic_reduction_matches_serial() {
    let src = "PROGRAM P\nREAL A(200)\nDO I = 1, 200\nA(I) = REAL(I)\nENDDO\nS = 0.0\n!$PAR DO SCHEDULE(CYCLIC) REDUCTION(+:S)\nDO I = 1, 200\nS = S + A(I)\nENDDO\nWRITE(*,*) S\nEND\n";
    let serial = exec_mode(src, &[], ExecMode::Serial, false);
    let par = exec_mode(src, &[], ExecMode::Auto, true);
    assert_eq!(serial, par);
    assert_eq!(last_num(&serial), 20100.0);
}

#[test]
fn race_checker_catches_real_race() {
    // A(I) = A(I+1): cross-iteration anti-dependence; a (wrong) manual
    // annotation must be caught.
    let src = "PROGRAM P\nREAL A(100)\nDO I = 1, 100\nA(I) = REAL(I)\nENDDO\n!$OMP PARALLEL DO\nDO I = 1, 99\nA(I) = A(I + 1)\nENDDO\nWRITE(*,*) A(1)\nEND\n";
    let rp = frontend(src).unwrap();
    let err = run(
        &rp,
        &[],
        &ExecConfig {
            mode: ExecMode::Manual,
            check_races: true,
            threads: 4,
            ..Default::default()
        },
    )
    .unwrap_err();
    assert!(matches!(err, RtError::Race(_)), "{:?}", err);
}

#[test]
fn race_checker_accepts_disjoint_writes() {
    let src = "PROGRAM P\nREAL A(100)\n!$OMP PARALLEL DO\nDO I = 1, 100\nA(I) = REAL(I)\nENDDO\nWRITE(*,*) A(50)\nEND\n";
    let out = exec_mode(src, &[], ExecMode::Manual, true);
    assert_eq!(last_num(&out), 50.0);
}

#[test]
fn min_max_reductions_parallel() {
    let src = "PROGRAM P\nREAL A(200)\nDO I = 1, 200\nA(I) = ABS(REAL(I - 77)) + 2.0\nENDDO\nXMIN = 1.0E30\nXMAX = -1.0E30\n!$OMP PARALLEL DO REDUCTION(MIN:XMIN) REDUCTION(MAX:XMAX)\nDO I = 1, 200\nXMIN = MIN(XMIN, A(I))\nXMAX = MAX(XMAX, A(I))\nENDDO\nWRITE(*,*) XMIN, XMAX\nEND\n";
    let serial = exec_mode(src, &[], ExecMode::Serial, false);
    let par = exec_mode(src, &[], ExecMode::Manual, true);
    assert_eq!(serial, par);
    assert_eq!(serial, vec!["2.000000 125.000000"]);
}

// ---------------- MPI simulation ----------------

#[test]
fn mpi_rank_identity_and_reduce() {
    let src = "PROGRAM P\nCALL MPMYID(ME)\nCALL MPNPROC(NP)\nS = REAL(ME + 1)\nCALL MPREDS(S)\nIF (ME .EQ. 0) THEN\nWRITE(*,*) NP, S\nENDIF\nEND\n";
    let rp = frontend(src).unwrap();
    let r = run_mpi(&rp, &[], 4, &ExecConfig::default()).unwrap();
    // sum of 1..4 = 10
    assert_eq!(r.output, vec!["4 10.000000"]);
}

#[test]
fn mpi_send_recv_ring() {
    let src = "PROGRAM P\nREAL BUF(8)\nCALL MPMYID(ME)\nCALL MPNPROC(NP)\nDO K = 1, 8\nBUF(K) = REAL(ME * 100 + K)\nENDDO\nNEXT = MOD(ME + 1, NP)\nPREV = MOD(ME + NP - 1, NP)\nCALL MPSEND(BUF, 1, 4, NEXT, 7)\nCALL MPRECV(BUF, 5, 4, PREV, 7)\nIF (ME .EQ. 0) THEN\nWRITE(*,*) BUF(5), BUF(8)\nENDIF\nEND\n";
    let rp = frontend(src).unwrap();
    let r = run_mpi(&rp, &[], 4, &ExecConfig::default()).unwrap();
    // Rank 0 receives rank 3's first 4 elements: 301..304.
    assert_eq!(r.output, vec!["301.000000 304.000000"]);
}

#[test]
fn mpi_allgather() {
    let src = "PROGRAM P\nREAL G(16)\nCALL MPMYID(ME)\nCALL MPNPROC(NP)\nDO K = 1, 4\nG(ME * 4 + K) = REAL(ME * 10 + K)\nENDDO\nCALL MPALLG(G, ME * 4 + 1, 4)\nIF (ME .EQ. 0) THEN\nWRITE(*,*) G(1), G(8), G(16)\nENDIF\nEND\n";
    let rp = frontend(src).unwrap();
    let r = run_mpi(&rp, &[], 4, &ExecConfig::default()).unwrap();
    assert_eq!(r.output, vec!["1.000000 14.000000 34.000000"]);
}

#[test]
fn mpi_commons_are_rank_private() {
    let src = "PROGRAM P\nCOMMON /C/ N\nCALL MPMYID(ME)\nN = ME\nCALL MPBAR\nS = REAL(N)\nCALL MPREDS(S)\nIF (ME .EQ. 0) THEN\nWRITE(*,*) S\nENDIF\nEND\n";
    let rp = frontend(src).unwrap();
    let r = run_mpi(&rp, &[], 4, &ExecConfig::default()).unwrap();
    // 0+1+2+3 = 6: each rank kept its own N.
    assert_eq!(r.output, vec!["6.000000"]);
}

#[test]
fn malformed_intrinsic_arity_traps_instead_of_panicking() {
    // Lowering does not validate intrinsic arity; the interpreter must
    // surface a structured trap, not an index panic.
    let rp = frontend("PROGRAM P\nK = MOD(7)\nWRITE(*,*) K\nEND\n").expect("frontend");
    let err = run(&rp, &[], &ExecConfig::default()).expect_err("arity trap");
    assert!(matches!(err, RtError::Trap(_)), "{:?}", err);
}

// ---------------- the stack bound ----------------

fn run_bounded(src: &str, mode: ExecMode, seg_words: usize) -> Result<Vec<String>, RtError> {
    let rp = frontend(src).expect("frontend");
    let cfg = ExecConfig {
        mode,
        seg_words,
        ..Default::default()
    };
    run(&rp, &[], &cfg).map(|r| r.output)
}

#[test]
fn unbounded_recursion_overflows_the_stack_bound() {
    let src = |local: usize| {
        format!(
            "PROGRAM P\nCALL R(1)\nEND\nSUBROUTINE R(N)\nREAL W({})\nW(1) = REAL(N)\nCALL R(N + 1)\nEND\n",
            local
        )
    };
    // A small explicit bound, and the default every other caller uses.
    // The frame grows with the bound to keep the depth at which the
    // bound is met small (16 and 4), below the call-depth cap.
    let default = ExecConfig::default().seg_words;
    for (local, seg_words) in [(1000, 1 << 14), (1_000_000, default)] {
        assert_eq!(
            run_bounded(&src(local), ExecMode::Serial, seg_words),
            Err(RtError::StackOverflow),
            "seg_words = {}",
            seg_words
        );
    }
}

#[test]
fn oversized_local_overflows_the_stack_bound() {
    let src = "PROGRAM P\nREAL A(100000000)\nA(1) = 1.0\nWRITE(*,*) A(1)\nEND\n";
    assert_eq!(
        run_bounded(src, ExecMode::Serial, 1 << 14),
        Err(RtError::StackOverflow)
    );
    // The same program under a bound that fits it runs: the bound is
    // the only thing that failed above.
    let fits = src.replace("100000000", "1000");
    assert_eq!(
        run_bounded(&fits, ExecMode::Serial, 1 << 14),
        Ok(vec!["1.000000".to_string()])
    );
}

#[test]
fn private_array_overlay_past_a_worker_segment_is_stack_overflow() {
    // W lives in COMMON, so the main thread's stack holds only scalars;
    // each worker must overlay 5000 private words in a 1024-word segment.
    let src = "PROGRAM P\nCOMMON /C/ W(5000)\nREAL A(8)\n!$OMP PARALLEL DO PRIVATE(W)\nDO I = 1, 8\nW(1) = REAL(I)\nA(I) = W(1)\nENDDO\nWRITE(*,*) A(8)\nEND\n";
    assert_eq!(
        run_bounded(src, ExecMode::Manual, 1 << 10),
        Err(RtError::StackOverflow)
    );
    assert_eq!(
        run_bounded(src, ExecMode::Manual, 1 << 14),
        Ok(vec!["8.000000".to_string()])
    );
}

// ---------------- the call-depth cap ----------------

/// Runs `src` (default configuration but `mode`) on a fresh thread with
/// a 2 MiB stack, the size a spawned thread gets by default: recursion
/// must end in an `RtError` there, never in a host stack overflow.
fn run_on_small_stack(src: &str, mode: ExecMode) -> Result<Vec<String>, RtError> {
    let src = src.to_string();
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(move || {
            let rp = frontend(&src).expect("frontend");
            let cfg = ExecConfig {
                mode,
                ..Default::default()
            };
            run(&rp, &[], &cfg).map(|r| r.output)
        })
        .expect("spawn")
        .join()
        .expect("no host stack overflow")
}

#[test]
fn runaway_recursion_with_tiny_frames_hits_the_depth_cap() {
    // One-word activations would take a million levels to fill the
    // default stack segment; the depth cap stops them first, through a
    // CALL, a FUNCTION inside an expression, nested statements, and a
    // worker thread of a parallel loop.
    let recursions = [
        "PROGRAM P\nCALL R(1)\nEND\nSUBROUTINE R(N)\nCALL R(N + 1)\nEND\n",
        "PROGRAM P\nX = 1.0 + F(1) * 2.0\nEND\nFUNCTION F(N)\nF = 1.0 + F(N + 1) * 2.0\nEND\n",
        "PROGRAM P\nCALL R(1)\nEND\nSUBROUTINE R(N)\nDO I = 1, 2\nIF (N .GT. 0) THEN\nDO J = 1, 2\nCALL R(N + I + J)\nENDDO\nENDIF\nENDDO\nEND\n",
    ];
    for src in recursions {
        assert_eq!(
            run_on_small_stack(src, ExecMode::Serial),
            Err(RtError::StackOverflow),
            "{}",
            src
        );
    }
    let parallel = "PROGRAM P\nREAL A(8)\n!$OMP PARALLEL DO\nDO I = 1, 8\nA(I) = F(I)\nENDDO\nEND\nFUNCTION F(N)\nF = F(N + 1)\nEND\n";
    assert_eq!(
        run_on_small_stack(parallel, ExecMode::Manual),
        Err(RtError::StackOverflow)
    );
}

#[test]
fn the_depth_cap_counts_activations_exactly() {
    // The main program is one activation; a chain of R calls adds one
    // each. `MAX_CALL_DEPTH` activations run, one more does not.
    let chain = |calls: usize| {
        format!(
            "PROGRAM P\nCALL R(1)\nWRITE(*,*) 7\nEND\nSUBROUTINE R(N)\nIF (N .LT. {}) THEN\nCALL R(N + 1)\nENDIF\nEND\n",
            calls
        )
    };
    assert_eq!(
        run_on_small_stack(&chain(MAX_CALL_DEPTH - 1), ExecMode::Serial),
        Ok(vec!["7".to_string()])
    );
    assert_eq!(
        run_on_small_stack(&chain(MAX_CALL_DEPTH), ExecMode::Serial),
        Err(RtError::StackOverflow)
    );
}
