//! Semantics of the message-passing substrate (ranks as threads,
//! per-pair channels, generation-counted collectives): point-to-point
//! ordering, tag matching, allreduce, allgather, barrier, and the
//! virtual-clock costs that make Figure 1's MPI bars meaningful.

use autopar::minifort::frontend;
use autopar::runtime::{run_mpi, ExecConfig, FaultPlan, MsgPat, RtError, RunResult};

fn mpi(src: &str, ranks: usize) -> RunResult {
    let rp = frontend(src).unwrap_or_else(|e| panic!("{}", e));
    run_mpi(&rp, &[], ranks, &ExecConfig::default()).unwrap_or_else(|e| panic!("{}", e))
}

fn mpi_err(src: &str, ranks: usize) -> RtError {
    let rp = frontend(src).unwrap_or_else(|e| panic!("{}", e));
    match run_mpi(&rp, &[], ranks, &ExecConfig::default()) {
        Ok(r) => panic!("expected error, got output {:?}", r.output),
        Err(e) => e,
    }
}

/// Like `mpi_err` but with a short deadlock timeout so tests that rely
/// on the detector (rather than a finished peer) stay fast.
fn mpi_err_quick(src: &str, ranks: usize) -> RtError {
    let rp = frontend(src).unwrap_or_else(|e| panic!("{}", e));
    let cfg = ExecConfig {
        mpi_timeout_ms: 250,
        ..Default::default()
    };
    match run_mpi(&rp, &[], ranks, &cfg) {
        Ok(r) => panic!("expected error, got output {:?}", r.output),
        Err(e) => e,
    }
}

#[test]
fn rank_identity_and_count() {
    // Only rank 0's output is reported; it knows its id and the world.
    let out = mpi(
        "PROGRAM P
  CALL MPMYID(ME)
  CALL MPNPROC(NP)
  IF (ME .EQ. 0) THEN
    WRITE(*,*) 'ID', ME, NP
  ENDIF
END
",
        4,
    );
    assert_eq!(out.output, vec!["ID 0 4".to_string()]);
}

#[test]
fn point_to_point_roundtrip() {
    // Rank 1 doubles what rank 0 sends and returns it.
    let out = mpi(
        "PROGRAM P
  REAL A(8)
  CALL MPMYID(ME)
  IF (ME .EQ. 0) THEN
    DO I = 1, 8
      A(I) = REAL(I)
    ENDDO
    CALL MPSEND(A, 1, 8, 1, 7)
    CALL MPRECV(A, 1, 8, 1, 8)
    WRITE(*,*) 'GOT', A(1), A(8)
  ENDIF
  IF (ME .EQ. 1) THEN
    CALL MPRECV(A, 1, 8, 0, 7)
    DO I = 1, 8
      A(I) = A(I) * 2.0
    ENDDO
    CALL MPSEND(A, 1, 8, 0, 8)
  ENDIF
END
",
        2,
    );
    assert_eq!(out.output, vec!["GOT 2.000000 16.000000".to_string()]);
}

#[test]
fn messages_from_one_sender_arrive_in_order() {
    let out = mpi(
        "PROGRAM P
  REAL A(1), B(1)
  CALL MPMYID(ME)
  IF (ME .EQ. 1) THEN
    A(1) = 1.0
    CALL MPSEND(A, 1, 1, 0, 5)
    A(1) = 2.0
    CALL MPSEND(A, 1, 1, 0, 5)
  ENDIF
  IF (ME .EQ. 0) THEN
    CALL MPRECV(A, 1, 1, 1, 5)
    CALL MPRECV(B, 1, 1, 1, 5)
    WRITE(*,*) 'ORD', A(1), B(1)
  ENDIF
END
",
        2,
    );
    assert_eq!(out.output, vec!["ORD 1.000000 2.000000".to_string()]);
}

#[test]
fn tag_mismatch_reports_deadlock_not_hang() {
    // Rank 1 sends tag 5 and finishes; rank 0 waits on tag 6 forever.
    // The run must terminate with a deadlock diagnostic naming the
    // blocked rank, the wanted tag, and the undelivered one — never
    // hang or silently match the wrong message.
    let e = mpi_err(
        "PROGRAM P
  REAL A(1)
  CALL MPMYID(ME)
  IF (ME .EQ. 1) THEN
    A(1) = 1.0
    CALL MPSEND(A, 1, 1, 0, 5)
  ENDIF
  IF (ME .EQ. 0) THEN
    CALL MPRECV(A, 1, 1, 1, 6)
  ENDIF
END
",
        2,
    );
    assert!(matches!(e, RtError::Deadlock(_)), "{}", e);
    let msg = format!("{}", e);
    assert!(msg.contains("rank 0"), "{}", msg);
    assert!(msg.contains("tag=6"), "{}", msg);
    assert!(msg.contains('5'), "undelivered tag should be named: {}", msg);
}

#[test]
fn mutual_recv_deadlock_names_both_ranks() {
    // Both ranks block on a receive no one will send: the classic
    // head-to-head deadlock. The detector (timeout path, both ranks
    // still alive) must fire within the configured timeout and name
    // each blocked rank with its wait.
    let start = std::time::Instant::now();
    let e = mpi_err_quick(
        "PROGRAM P
  REAL A(1)
  CALL MPMYID(ME)
  IF (ME .EQ. 0) THEN
    CALL MPRECV(A, 1, 1, 1, 7)
  ENDIF
  IF (ME .EQ. 1) THEN
    CALL MPRECV(A, 1, 1, 0, 8)
  ENDIF
END
",
        2,
    );
    assert!(matches!(e, RtError::Deadlock(_)), "{}", e);
    let msg = format!("{}", e);
    assert!(msg.contains("rank 0") && msg.contains("rank 1"), "{}", msg);
    assert!(msg.contains("MPRECV"), "{}", msg);
    assert!(msg.contains("tag=7") && msg.contains("tag=8"), "{}", msg);
    assert!(
        start.elapsed() < std::time::Duration::from_secs(10),
        "deadlock detection must not hang"
    );
}

#[test]
fn collective_missing_rank_reports_deadlock() {
    // Rank 1 skips the reduction: rank 0 waits at the collective while
    // rank 1 finishes. Must terminate with a diagnostic, not hang.
    let e = mpi_err_quick(
        "PROGRAM P
  CALL MPMYID(ME)
  X = 1.0
  IF (ME .EQ. 0) THEN
    CALL MPREDS(X)
  ENDIF
END
",
        2,
    );
    assert!(matches!(e, RtError::Deadlock(_)), "{}", e);
    let msg = format!("{}", e);
    assert!(msg.contains("MPREDS"), "{}", msg);
    assert!(msg.contains("rank 0"), "{}", msg);
}

#[test]
fn zero_length_send_and_recv_complete() {
    // A zero-count message is a pure synchronization token: it must
    // match and complete, moving no data.
    let out = mpi(
        "PROGRAM P
  REAL A(4)
  CALL MPMYID(ME)
  A(1) = 3.0
  IF (ME .EQ. 1) THEN
    CALL MPSEND(A, 1, 0, 0, 5)
  ENDIF
  IF (ME .EQ. 0) THEN
    CALL MPRECV(A, 1, 0, 1, 5)
    WRITE(*,*) 'ZLEN', A(1)
  ENDIF
END
",
        2,
    );
    // The receive must not clobber A despite the matched message.
    assert_eq!(out.output, vec!["ZLEN 3.000000".to_string()]);
}

#[test]
fn zero_length_allgather_completes() {
    // Every rank contributes an empty slice; the collective still has
    // to synchronize all ranks and leave the array untouched.
    let out = mpi(
        "PROGRAM P
  REAL A(8)
  CALL MPMYID(ME)
  A(1) = 7.0
  CALL MPALLG(A, 1, 0)
  IF (ME .EQ. 0) THEN
    WRITE(*,*) 'ZAG', A(1)
  ENDIF
END
",
        4,
    );
    assert_eq!(out.output, vec!["ZAG 7.000000".to_string()]);
}

#[test]
fn self_send_is_delivered() {
    // A rank sending to itself must see the message on its own queue —
    // not deadlock waiting for a peer.
    let out = mpi(
        "PROGRAM P
  REAL A(2), B(2)
  CALL MPMYID(ME)
  IF (ME .EQ. 0) THEN
    A(1) = 5.0
    A(2) = 6.0
    CALL MPSEND(A, 1, 2, 0, 3)
    CALL MPRECV(B, 1, 2, 0, 3)
    WRITE(*,*) 'SELF', B(1), B(2)
  ENDIF
END
",
        2,
    );
    assert_eq!(out.output, vec!["SELF 5.000000 6.000000".to_string()]);
}

#[test]
fn send_to_invalid_rank_traps() {
    let e = mpi_err(
        "PROGRAM P
  REAL A(1)
  A(1) = 1.0
  CALL MPSEND(A, 1, 1, 9, 5)
END
",
        2,
    );
    assert!(format!("{}", e).contains("MPSEND"), "{}", e);
}

/// The trap message of a run that must fail with a trap.
fn trap_msg(e: RtError) -> String {
    match e {
        RtError::Trap(m) => m,
        other => panic!("expected a trap, got {}", other),
    }
}

#[test]
fn hostile_buffer_arguments_trap_before_moving_data() {
    // COUNT and IOFF come from the program: a COUNT of 2^40 words used
    // to reach the allocator and abort the process, 2^62 panicked on
    // capacity overflow, and an IOFF of i64::MIN overflowed `IOFF - 1`.
    // Each is a trap now, identical in every build profile, raised
    // before anything is allocated, sent or received.
    let send = |ioff: &str, count: &str| {
        format!(
            "PROGRAM P
  REAL A(4)
  INTEGER K, N
  CALL MPMYID(ME)
  K = {}
  N = {}
  IF (ME .EQ. 0) THEN
    CALL MPSEND(A, K, N, 1, 7)
  ENDIF
  IF (ME .EQ. 1) THEN
    CALL MPRECV(A, 1, 4, 0, 7)
  ENDIF
END
",
            ioff, count
        )
    };
    let cases = [
        (
            send("1", "1099511627776"),
            "MPSEND: 1099511627776 elements at offset 0 lie outside memory",
        ),
        (
            send("1", "4611686018427387904"),
            "MPSEND: 4611686018427387904 elements at offset 0 lie outside memory",
        ),
        (
            send("-9223372036854775807 - 1", "1"),
            "MPSEND: buffer offset -9223372036854775808 overflows",
        ),
        (
            send("9223372036854775807", "2"),
            "MPSEND: 2 elements at offset 9223372036854775806 lie outside memory",
        ),
    ];
    for (src, want) in cases {
        assert_eq!(trap_msg(mpi_err(&src, 2)), want);
    }

    let recv = "PROGRAM P
  REAL A(4)
  INTEGER N
  CALL MPMYID(ME)
  N = 1099511627776
  IF (ME .EQ. 0) THEN
    CALL MPSEND(A, 1, 4, 1, 7)
  ENDIF
  IF (ME .EQ. 1) THEN
    CALL MPRECV(A, 1, N, 0, 7)
  ENDIF
END
";
    assert_eq!(
        trap_msg(mpi_err(recv, 2)),
        "MPRECV: 1099511627776 elements at offset 0 lie outside memory"
    );

    let allgather = "PROGRAM P
  REAL G(8)
  INTEGER N
  N = 4611686018427387904
  CALL MPALLG(G, 1, N)
END
";
    assert_eq!(
        trap_msg(mpi_err(allgather, 2)),
        "MPALLG: 4611686018427387904 elements at offset 0 lie outside memory"
    );
}

#[test]
fn allreduce_sums_across_ranks() {
    // Each rank contributes (rank+1): 1+2+3+4 = 10.
    let out = mpi(
        "PROGRAM P
  CALL MPMYID(ME)
  X = REAL(ME + 1)
  CALL MPREDS(X)
  IF (ME .EQ. 0) THEN
    WRITE(*,*) 'RED', X
  ENDIF
END
",
        4,
    );
    assert_eq!(out.output, vec!["RED 10.000000".to_string()]);
}

#[test]
fn consecutive_allreduces_do_not_bleed() {
    // Generation counting: a second reduction must start fresh.
    let out = mpi(
        "PROGRAM P
  CALL MPMYID(ME)
  X = 1.0
  CALL MPREDS(X)
  Y = REAL(ME)
  CALL MPREDS(Y)
  IF (ME .EQ. 0) THEN
    WRITE(*,*) 'TWO', X, Y
  ENDIF
END
",
        4,
    );
    assert_eq!(out.output, vec!["TWO 4.000000 6.000000".to_string()]);
}

#[test]
fn allgather_distributes_every_slice() {
    // Rank r fills its slice with r+1; after MPALLG all ranks hold the
    // full vector. Verified on rank 0.
    let out = mpi(
        "PROGRAM P
  REAL A(8)
  CALL MPMYID(ME)
  CALL MPNPROC(NP)
  N = 8 / NP
  DO I = 1, N
    A(ME * N + I) = REAL(ME + 1)
  ENDDO
  CALL MPALLG(A, ME * N + 1, N)
  IF (ME .EQ. 0) THEN
    S = 0.0
    DO I = 1, 8
      S = S + A(I) * REAL(I)
    ENDDO
    WRITE(*,*) 'AG', S
  ENDIF
END
",
        4,
    );
    // A = [1,1,2,2,3,3,4,4]; sum A(i)*i = 1+2+6+8+15+18+28+32 = 110.
    assert_eq!(out.output, vec!["AG 110.000000".to_string()]);
}

#[test]
fn barrier_orders_epochs() {
    // Without the barrier rank 1 could read X before rank 0's send
    // completes; the explicit protocol plus barrier must always give
    // the post-epoch value. (The barrier itself is exercised; the
    // correctness signal is deterministic output.)
    let out = mpi(
        "PROGRAM P
  REAL A(1)
  CALL MPMYID(ME)
  CALL MPBAR()
  IF (ME .EQ. 0) THEN
    A(1) = 41.0
    CALL MPSEND(A, 1, 1, 1, 1)
  ENDIF
  IF (ME .EQ. 1) THEN
    CALL MPRECV(A, 1, 1, 0, 1)
    A(1) = A(1) + 1.0
    CALL MPSEND(A, 1, 1, 0, 2)
  ENDIF
  CALL MPBAR()
  IF (ME .EQ. 0) THEN
    CALL MPRECV(A, 1, 1, 1, 2)
    WRITE(*,*) 'BAR', A(1)
  ENDIF
END
",
        2,
    );
    assert_eq!(out.output, vec!["BAR 42.000000".to_string()]);
}

#[test]
fn virtual_clock_charges_messages() {
    // The same computation with and without a message exchange: the
    // messaging version must cost more virtual time (latency + words),
    // and an N-rank run reports the slowest rank plus startup.
    let no_msg = mpi(
        "PROGRAM P
  CALL MPMYID(ME)
  X = 1.0
  IF (ME .EQ. 0) THEN
    WRITE(*,*) X
  ENDIF
END
",
        2,
    );
    let with_msg = mpi(
        "PROGRAM P
  REAL A(64)
  CALL MPMYID(ME)
  IF (ME .EQ. 0) THEN
    A(1) = 1.0
    CALL MPSEND(A, 1, 64, 1, 1)
  ENDIF
  IF (ME .EQ. 1) THEN
    CALL MPRECV(A, 1, 64, 0, 1)
  ENDIF
  IF (ME .EQ. 0) THEN
    WRITE(*,*) A(1)
  ENDIF
END
",
        2,
    );
    assert!(
        with_msg.virt > no_msg.virt + 2_000,
        "message must cost latency: {} vs {}",
        with_msg.virt,
        no_msg.virt
    );
}

#[test]
fn message_timestamps_propagate_to_receiver_clock() {
    // Rank 0 does heavy local work, then sends to rank 1. Rank 1's
    // receive cannot complete before the sender's virtual time — so
    // the reported (max-rank) virtual time reflects the dependency
    // chain, not just each rank's local ops.
    let chained = mpi(
        "PROGRAM P
  REAL A(4), W(2048)
  CALL MPMYID(ME)
  IF (ME .EQ. 0) THEN
    DO I = 1, 2048
      W(I) = REAL(I) * 1.5 + REAL(I) * REAL(I)
    ENDDO
    A(1) = W(2048)
    CALL MPSEND(A, 1, 4, 1, 3)
  ENDIF
  IF (ME .EQ. 1) THEN
    CALL MPRECV(A, 1, 4, 0, 3)
    WRITE(*,*) A(1)
  ENDIF
END
",
        2,
    );
    // Rank 1 alone does almost nothing; if timestamps did not
    // propagate, total virt would be near the startup floor.
    assert!(
        chained.virt > 20_000,
        "receiver clock must include sender's work: {}",
        chained.virt
    );
}

#[test]
fn repeated_collectives_stay_in_lockstep() {
    // 20 generations of allreduce inside a loop: any generation-counter
    // slip would desynchronize the ranks or double-count a round.
    let out = mpi(
        "PROGRAM P
  CALL MPMYID(ME)
  S = 0.0
  DO K = 1, 20
    X = REAL(ME + K)
    CALL MPREDS(X)
    S = S + X
  ENDDO
  IF (ME .EQ. 0) THEN
    WRITE(*,*) 'LOCK', S
  ENDIF
END
",
        4,
    );
    // Round k: sum over ranks of (rank + k) = 6 + 4k; total over k=1..20
    // = 120 + 4*210 = 960.
    assert_eq!(out.output, vec!["LOCK 960.000000".to_string()]);
}

#[test]
fn mixed_collectives_and_messages_interleave() {
    // Barrier / reduce / point-to-point in one program — the shapes the
    // SEISMIC MPI pipelines chain together.
    let out = mpi(
        "PROGRAM P
  REAL A(4)
  CALL MPMYID(ME)
  CALL MPNPROC(NP)
  X = REAL(ME + 1)
  CALL MPREDS(X)
  CALL MPBAR()
  IF (ME .EQ. 1) THEN
    A(1) = X * 10.0
    CALL MPSEND(A, 1, 1, 0, 9)
  ENDIF
  IF (ME .EQ. 0) THEN
    CALL MPRECV(A, 1, 1, 1, 9)
    WRITE(*,*) 'MIX', X, A(1)
  ENDIF
END
",
        4,
    );
    assert_eq!(out.output, vec!["MIX 10.000000 100.000000".to_string()]);
}

#[test]
fn single_rank_world_works() {
    let out = mpi(
        "PROGRAM P
  CALL MPMYID(ME)
  CALL MPNPROC(NP)
  X = REAL(ME + NP)
  CALL MPREDS(X)
  WRITE(*,*) 'ONE', X
END
",
        1,
    );
    assert_eq!(out.output, vec!["ONE 1.000000".to_string()]);
}

#[test]
fn delayed_message_costs_its_latency_on_the_critical_path_only() {
    // Rank 1 works, then sends; rank 0 does nothing but wait for it, so
    // the receive is the critical path and the run ends when it does.
    let rp = frontend(
        "PROGRAM P
  REAL A(4), W(2048)
  CALL MPMYID(ME)
  IF (ME .EQ. 1) THEN
    DO I = 1, 2048
      W(I) = REAL(I) * 1.5
    ENDDO
    A(1) = W(2048)
    CALL MPSEND(A, 1, 4, 0, 3)
  ENDIF
  IF (ME .EQ. 0) THEN
    CALL MPRECV(A, 1, 4, 1, 3)
    WRITE(*,*) 'GOT', A(1)
  ENDIF
END
",
    )
    .unwrap_or_else(|e| panic!("{}", e));
    let run = |fault: FaultPlan| {
        let cfg = ExecConfig {
            fault,
            ..Default::default()
        };
        run_mpi(&rp, &[], 2, &cfg).unwrap_or_else(|e| panic!("{}", e))
    };
    let base = run(FaultPlan::none());
    assert_eq!(base.output, vec!["GOT 3072.000000".to_string()]);

    let delayed = run(FaultPlan::none().delay_message(MsgPat::any().to_rank(0), 7_000));
    assert_eq!(delayed.output, base.output);
    assert_eq!(delayed.virt, base.virt + 7_000);

    // Nothing is addressed to rank 1, so this pattern matches nothing.
    let elsewhere = run(FaultPlan::none().delay_message(MsgPat::any().to_rank(1), 7_000));
    assert_eq!((elsewhere.output, elsewhere.virt), (base.output, base.virt));
}
