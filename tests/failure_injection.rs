//! Failure injection: the system must *fail loudly* — wrong parameters
//! hit the engine's round cap instead of silently producing garbage,
//! corrupted outputs are rejected by the verifiers, and API misuse panics
//! with a diagnosis.

use distsym::algos::coloring::a2logn::ColoringA2LogN;
use distsym::algos::mis::MisExtension;
use distsym::algos::Partition;
use distsym::graphcore::{gen, verify, Graph, GraphBuilder, IdAssignment, VertexId};
use distsym::simlocal::{ActorRunner, EngineError, Protocol, Runner, StepCtx, Transition};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::time::{Duration, Instant};

#[test]
fn under_declared_arboricity_reports_livelock() {
    // A clique declared as arboricity 1: nobody's degree ever drops below
    // the threshold, so the engine must return the round-cap error.
    let g = gen::clique(24);
    let ids = IdAssignment::identity(24);
    let err = Runner::new(&Partition::new(1), &g, &ids).run().unwrap_err();
    let EngineError::RoundLimitExceeded { still_active, .. } = err else {
        panic!("expected the round-cap error, got {err}");
    };
    assert_eq!(still_active, 24, "everyone should still be stuck");
}

#[test]
fn under_declared_arboricity_in_composed_protocol() {
    let g = gen::clique(20);
    let ids = IdAssignment::identity(20);
    assert!(Runner::new(&ColoringA2LogN::new(1), &g, &ids)
        .run()
        .is_err());
    assert!(Runner::new(&MisExtension::new(1), &g, &ids).run().is_err());
}

#[test]
fn over_declared_arboricity_still_correct_just_more_colors() {
    // Declaring a LARGER arboricity is safe: the threshold loosens, the
    // palette grows, correctness is preserved.
    let mut rng = ChaCha8Rng::seed_from_u64(600);
    let gg = gen::forest_union(300, 2, &mut rng);
    let ids = IdAssignment::identity(300);
    let out = Runner::new(&ColoringA2LogN::new(10), &gg.graph, &ids)
        .run()
        .unwrap();
    verify::assert_ok(verify::proper_vertex_coloring(
        &gg.graph,
        &out.outputs,
        usize::MAX,
    ));
}

#[test]
fn corrupted_outputs_are_rejected_by_verifiers() {
    let mut rng = ChaCha8Rng::seed_from_u64(601);
    let gg = gen::forest_union(200, 2, &mut rng);
    let ids = IdAssignment::identity(200);

    // Corrupt a proper coloring on one endpoint of some edge.
    let out = Runner::new(&ColoringA2LogN::new(2), &gg.graph, &ids)
        .run()
        .unwrap();
    let mut colors = out.outputs.clone();
    let (_, (u, v)) = gg.graph.edges().next().expect("has edges");
    colors[u as usize] = colors[v as usize];
    assert!(verify::proper_vertex_coloring(&gg.graph, &colors, usize::MAX).is_err());

    // Corrupt an MIS by adding a dominated vertex.
    let out = Runner::new(&MisExtension::new(2), &gg.graph, &ids)
        .run()
        .unwrap();
    let mut mis = out.outputs.clone();
    let outsider = gg
        .graph
        .vertices()
        .find(|&w| !mis[w as usize])
        .expect("some vertex is outside the MIS");
    mis[outsider as usize] = true;
    assert!(verify::maximal_independent_set(&gg.graph, &mis).is_err());

    // And by removing a member (maximality breaks).
    let mut mis = out.outputs.clone();
    let member = gg.graph.vertices().find(|&w| mis[w as usize]).unwrap();
    mis[member as usize] = false;
    // Either independence still holds but maximality fails, or the vertex
    // was someone's only dominator — both must be rejected.
    assert!(verify::maximal_independent_set(&gg.graph, &mis).is_err());
}

#[test]
fn round_cap_override_trips_early() {
    let mut rng = ChaCha8Rng::seed_from_u64(602);
    let gg = gen::forest_union(500, 2, &mut rng);
    let ids = IdAssignment::identity(500);
    // MIS needs its iteration windows; a cap of 3 rounds must fail.
    let err = Runner::new(&MisExtension::new(2), &gg.graph, &ids)
        .max_rounds(3)
        .run()
        .unwrap_err();
    assert!(matches!(
        err,
        EngineError::RoundLimitExceeded { max_rounds: 3, .. }
    ));
    assert!(err.to_string().contains("after 3 rounds"));
}

#[test]
#[should_panic(expected = "ID assignment must cover all vertices")]
fn id_assignment_size_mismatch_panics() {
    let g = gen::path(5);
    let ids = IdAssignment::identity(4);
    let _ = Runner::new(&Partition::new(1), &g, &ids).run();
}

#[test]
fn verifier_rejects_wrong_length_vectors() {
    let g = gen::path(4);
    assert!(verify::proper_vertex_coloring(&g, &[0, 1], 2).is_err());
    assert!(verify::maximal_independent_set(&g, &[true]).is_err());
    assert!(verify::maximal_matching(&g, &[true]).is_err());
    assert!(verify::h_partition(&g, &[1, 1], 4).is_err());
}

#[test]
fn builder_rejects_malformed_graphs() {
    let r = std::panic::catch_unwind(|| GraphBuilder::new(3).edge(1, 1));
    assert!(r.is_err(), "self-loop must panic");
    let r = std::panic::catch_unwind(|| GraphBuilder::new(3).edge(0, 7));
    assert!(r.is_err(), "out-of-range endpoint must panic");
}

/// Runs forever (until round 20) but puts one vertex to sleep once —
/// with one vertex per shard, that stalls exactly that shard's round.
struct Sleeper {
    slow: VertexId,
    at_round: u32,
    dur: Duration,
}

impl Protocol for Sleeper {
    type State = ();
    type Msg = ();
    type Output = u32;
    fn init(&self, _: &Graph, _: &IdAssignment, _: VertexId) {}
    fn publish(&self, _: &()) {}
    fn step(&self, ctx: StepCtx<'_, ()>) -> Transition<(), u32> {
        if ctx.v == self.slow && ctx.round == self.at_round {
            std::thread::sleep(self.dur);
        }
        if ctx.round >= 20 {
            Transition::Terminate((), ctx.round)
        } else {
            Transition::Continue(())
        }
    }
}

/// Like [`Sleeper`], but the victim vertex panics instead of sleeping —
/// a fail-stop shard crash.
struct Panicker {
    victim: VertexId,
    at_round: u32,
}

impl Protocol for Panicker {
    type State = ();
    type Msg = ();
    type Output = u32;
    fn init(&self, _: &Graph, _: &IdAssignment, _: VertexId) {}
    fn publish(&self, _: &()) {}
    fn step(&self, ctx: StepCtx<'_, ()>) -> Transition<(), u32> {
        if ctx.v == self.victim && ctx.round == self.at_round {
            panic!("injected fault on vertex {}", ctx.v);
        }
        if ctx.round >= 20 {
            Transition::Terminate((), ctx.round)
        } else {
            Transition::Continue(())
        }
    }
}

#[test]
fn slow_shard_trips_the_watchdog_and_is_named() {
    // Three vertices, one per shard; vertex 2 sleeps 400ms in round 2
    // while the watchdog timeout is 40ms. Shards 0 and 1 must stall on
    // the barrier and the diagnostic must blame shard 2.
    let g = gen::cycle(3);
    let ids = IdAssignment::identity(3);
    let p = Sleeper {
        slow: 2,
        at_round: 2,
        dur: Duration::from_millis(400),
    };
    let t0 = Instant::now();
    let err = ActorRunner::new(&p, &g, &ids)
        .shards(3)
        .stall_timeout(Duration::from_millis(40))
        .run()
        .unwrap_err();
    let elapsed = t0.elapsed();
    let EngineError::Stalled { round, diagnostic } = err else {
        panic!("expected a stall, got {err}");
    };
    assert_eq!(round, 2, "peers were draining round 2: {diagnostic}");
    assert!(
        diagnostic.starts_with("shard 2 stopped the run"),
        "diagnostic must name the slow shard: {diagnostic}"
    );
    assert!(
        diagnostic.contains("awaiting [2]"),
        "stalled peers must list who they awaited: {diagnostic}"
    );
    assert!(
        elapsed < Duration::from_secs(5),
        "watchdog must fire promptly, took {elapsed:?}"
    );
}

#[test]
fn crashed_shard_is_reported_not_hung() {
    // Vertex 1 (= shard 1) panics in round 2. The peers' recv times out,
    // the join captures the panic, and the diagnostic says "crashed"
    // with the payload — instead of the old forever-hang.
    let g = gen::cycle(3);
    let ids = IdAssignment::identity(3);
    let p = Panicker {
        victim: 1,
        at_round: 2,
    };
    let err = ActorRunner::new(&p, &g, &ids)
        .shards(3)
        .stall_timeout(Duration::from_millis(40))
        .run()
        .unwrap_err();
    let EngineError::Stalled { diagnostic, .. } = err else {
        panic!("expected a stall, got {err}");
    };
    assert!(
        diagnostic.starts_with("shard 1 stopped the run"),
        "a crashed shard is guilty outright: {diagnostic}"
    );
    assert!(
        diagnostic.contains("shard 1: crashed (injected fault on vertex 1)"),
        "the panic payload must survive into the diagnostic: {diagnostic}"
    );
}

#[test]
fn tcp_peer_death_is_detected_as_link_loss_without_the_full_timeout() {
    // Over TCP the dying shard's streams close, so the reader threads
    // report the lost link immediately — no stall_timeout override
    // needed, the run must still fail fast (default timeout is 30s).
    let g = gen::cycle(3);
    let ids = IdAssignment::identity(3);
    let p = Panicker {
        victim: 1,
        at_round: 2,
    };
    let t0 = Instant::now();
    let err = ActorRunner::new(&p, &g, &ids)
        .shards(3)
        .run_tcp()
        .unwrap_err();
    let elapsed = t0.elapsed();
    let EngineError::Stalled { diagnostic, .. } = err else {
        panic!("expected a stall, got {err}");
    };
    assert!(
        diagnostic.starts_with("shard 1 stopped the run"),
        "diagnostic must name the crashed shard: {diagnostic}"
    );
    assert!(
        elapsed < Duration::from_secs(10),
        "link loss must beat the 30s recv timeout, took {elapsed:?}"
    );
}

#[test]
fn io_parser_surfaces_line_numbers() {
    let err = distsym::graphcore::io::from_edge_list("n 3\n0 1\nbogus\n").unwrap_err();
    assert!(
        err.contains("line 3"),
        "error should name the offending line: {err}"
    );
}

#[test]
fn cli_rejects_out_of_range_parameters_without_panicking() {
    for args in [
        &[
            "--algo",
            "ka",
            "--family",
            "forest_union",
            "--n",
            "100",
            "--a",
            "0",
        ][..],
        &["--algo", "ka", "--n", "100", "--k", "1"][..],
        &["--algo", "partition", "--n", "100", "--eps", "0"][..],
    ] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_distsym"))
            .arg("run")
            .args(args)
            .output()
            .expect("run distsym");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.starts_with("error: --"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}
