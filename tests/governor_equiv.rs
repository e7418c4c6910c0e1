//! Governor equivalence and interruption guarantees.
//!
//! Two properties, both load-bearing for trusting governed execution:
//!
//! 1. **Equivalence.** Under an unlimited guard, every governed
//!    algorithm returns exactly what its ungoverned twin returns —
//!    the guard threading changes control flow on interruption only,
//!    never the answer. Checked property-style on random graphs.
//! 2. **Interruption.** Under a hopeless limit (an already-expired
//!    deadline, a one-node budget) an expensive query on a committed
//!    1k-node workload returns a structured `Interrupted` error — it
//!    neither hangs nor panics nor corrupts the engine — on every one
//!    of the nine emulated engines.

use graph_db_models::algo::pattern::{match_pattern, match_pattern_governed, PatternNode};
use graph_db_models::algo::planned::match_pattern_auto;
use graph_db_models::algo::regular::{
    regular_path_exists, regular_path_exists_governed, LabelRegex,
};
use graph_db_models::algo::summary::{diameter, diameter_governed};
use graph_db_models::algo::{shortest_path, shortest_path_governed, Pattern};
use graph_db_models::bench::workload::{load_into_engine, social_graph, SocialParams};
use graph_db_models::core::{Direction, NodeId};
use graph_db_models::engines::{make_engine, EngineKind, GovernedAnswer, GovernedOp};
use graph_db_models::govern::{ExecutionGuard, Limits};
use graph_db_models::graphs::SimpleGraph;
use proptest::prelude::*;
use std::time::Duration;

/// A random small directed graph with labels from a 3-letter alphabet.
fn graph_strategy() -> impl Strategy<Value = (SimpleGraph, usize)> {
    (
        2usize..10,
        prop::collection::vec((0usize..10, 0usize..10, 0u8..3), 0..25),
    )
        .prop_map(|(n, edges)| {
            let mut g = SimpleGraph::directed();
            let nodes: Vec<NodeId> = (0..n).map(|_| g.add_node()).collect();
            for (a, b, l) in edges {
                let label = ["a", "b", "c"][l as usize];
                g.add_labeled_edge(nodes[a % n], nodes[b % n], label)
                    .expect("nodes exist");
            }
            (g, n)
        })
}

/// A 2-variable connected pattern: x -> y over any labels.
fn wedge_pattern() -> Pattern {
    let mut p = Pattern::new();
    let x = p.node(PatternNode::var("x"));
    let y = p.node(PatternNode::var("y"));
    p.edge(x, y, None).expect("valid indices");
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// governed(∞) ≡ ungoverned for pattern matching (both the
    /// reference backtracker and the planned matcher), shortest paths,
    /// regular paths, and diameter.
    #[test]
    fn unlimited_guard_changes_nothing((g, n) in graph_strategy()) {
        let guard = ExecutionGuard::unlimited();
        let pattern = wedge_pattern();

        let plain = match_pattern(&g, &pattern);
        let governed = match_pattern_governed(&g, &pattern, &guard).unwrap();
        prop_assert_eq!(&plain, &governed);

        let auto = match_pattern_auto(&g, &pattern, None).unwrap();
        let auto_governed = match_pattern_auto(&g, &pattern, Some(&guard)).unwrap();
        prop_assert_eq!(auto.to_bindings(), auto_governed.to_bindings());

        let regex = LabelRegex::compile("(a|b)*c?").unwrap();
        for i in 0..n {
            for j in 0..n {
                let (a, b) = (NodeId(i as u64), NodeId(j as u64));
                prop_assert_eq!(
                    shortest_path(&g, a, b).map(|p| p.nodes),
                    shortest_path_governed(&g, a, b, &guard).unwrap().map(|p| p.nodes)
                );
                prop_assert_eq!(
                    regular_path_exists(&g, a, b, &regex),
                    regular_path_exists_governed(&g, a, b, &regex, &guard).unwrap()
                );
            }
        }

        prop_assert_eq!(
            diameter(&g, Direction::Outgoing),
            diameter_governed(&g, Direction::Outgoing, &guard).unwrap()
        );
    }
}

/// The acceptance gauntlet: a committed 1k-person social workload on
/// every engine; an expensive governed pattern match under an
/// already-expired deadline must return `Interrupted` — promptly,
/// structurally, and leaving the engine usable.
#[test]
fn expired_deadline_interrupts_pattern_match_on_every_engine() {
    let people = social_graph(SocialParams::default()); // 1000 people
    let mut pattern = Pattern::new();
    // A 3-hop unconstrained chain: no label constraints, because some
    // engine models drop labels on load — this stays expensive (≫10⁶
    // candidate extensions over 1k nodes / ~10k edges) on all nine.
    let a = pattern.node(PatternNode::var("a"));
    let b = pattern.node(PatternNode::var("b"));
    let c = pattern.node(PatternNode::var("c"));
    let d = pattern.node(PatternNode::var("d"));
    pattern.edge(a, b, None).unwrap();
    pattern.edge(b, c, None).unwrap();
    pattern.edge(c, d, None).unwrap();

    let base = std::env::temp_dir().join(format!("gdm-governor-equiv-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    for kind in EngineKind::all() {
        let dir = base.join(kind.label().to_lowercase().replace('-', "_"));
        std::fs::create_dir_all(&dir).unwrap();
        let mut engine = make_engine(kind, &dir).unwrap();
        load_into_engine(engine.as_mut(), &people).unwrap();

        // Zero-duration deadline: expired before the first check.
        let guard = ExecutionGuard::new(Limits::none().with_deadline(Duration::from_millis(0)));
        let err = engine
            .run_governed(GovernedOp::PatternMatch(&pattern), &guard)
            .unwrap_err();
        assert!(
            err.is_interrupted(),
            "{}: expected Interrupted, got {err}",
            kind.label()
        );

        // The same engine still answers a cheap governed query under
        // its own default limits — interruption wounds nothing.
        let defaults = ExecutionGuard::new(engine.default_limits());
        let sp = engine
            .run_governed(GovernedOp::ShortestPath(NodeId(0), NodeId(0)), &defaults)
            .unwrap();
        assert_eq!(
            sp,
            GovernedAnswer::Path(Some(vec![NodeId(0)])),
            "{}",
            kind.label()
        );
    }
    let _ = std::fs::remove_dir_all(&base);
}

/// A one-node-visit budget interrupts the diameter sweep on every
/// engine, and the error carries the partial-progress row count.
#[test]
fn tiny_budget_interrupts_diameter_on_every_engine() {
    let people = social_graph(SocialParams {
        people: 120,
        communities: 4,
        intra_edges: 4,
        inter_edges: 1,
        seed: 17,
    });
    let base = std::env::temp_dir().join(format!("gdm-governor-budget-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    for kind in EngineKind::all() {
        let dir = base.join(kind.label().to_lowercase().replace('-', "_"));
        std::fs::create_dir_all(&dir).unwrap();
        let mut engine = make_engine(kind, &dir).unwrap();
        load_into_engine(engine.as_mut(), &people).unwrap();

        let guard = ExecutionGuard::new(Limits::none().with_node_visits(1));
        let err = engine
            .run_governed(GovernedOp::Diameter, &guard)
            .unwrap_err();
        assert!(
            err.is_interrupted(),
            "{}: expected Interrupted, got {err}",
            kind.label()
        );

        // Unlimited governed diameter equals the ungoverned summary
        // on the frozen snapshot.
        let got = engine
            .run_governed(GovernedOp::Diameter, &ExecutionGuard::unlimited())
            .unwrap();
        let fz = engine.snapshot().unwrap();
        assert_eq!(
            got,
            GovernedAnswer::Diameter(diameter(&fz, Direction::Outgoing)),
            "{}",
            kind.label()
        );
    }
    let _ = std::fs::remove_dir_all(&base);
}

/// Governed-vectorized gauntlet: the batch executor at one worker
/// charges the guard once per candidate batch, so it must (a) equal
/// its ungoverned run under an unlimited guard, (b) return the
/// structured `Interrupted` (with the partial row count) under
/// deadline, budget, and row limits, and (c) leave partial progress
/// observable, exactly like the row-at-a-time matchers.
#[test]
fn governed_vectorized_budget_and_deadline_gauntlet() {
    use graph_db_models::algo::planned::{auto_domains, execute_pattern};
    use graph_db_models::algo::FrozenGraph;
    use graph_db_models::core::{GdmError, InterruptReason};

    let people = social_graph(SocialParams {
        people: 300,
        communities: 4,
        intra_edges: 4,
        inter_edges: 1,
        seed: 7,
    });
    let fz = FrozenGraph::freeze_attributed(&people);
    let mut pattern = Pattern::new();
    let a = pattern.node(PatternNode::var("a").with_label("person"));
    let b = pattern.node(PatternNode::var("b"));
    let c = pattern.node(PatternNode::var("c"));
    pattern.edge(a, b, Some("knows")).unwrap();
    pattern.edge(b, c, Some("knows")).unwrap();
    let domains = auto_domains(&fz, &pattern);
    let sequential =
        |guard: Option<&ExecutionGuard>| execute_pattern(&fz, &pattern, &domains, 1, guard);

    // (a) Unlimited guard: same binding set as the ungoverned run.
    let plain = sequential(None).unwrap();
    let governed = sequential(Some(&ExecutionGuard::unlimited())).unwrap();
    assert_eq!(plain.to_bindings(), governed.to_bindings());
    assert!(!plain.is_empty(), "workload has 2-hop chains");

    // (b) Each limit family interrupts with its own structured reason.
    let cases: [(Limits, InterruptReason); 3] = [
        (
            Limits::none().with_deadline(Duration::from_millis(0)),
            InterruptReason::Deadline,
        ),
        (Limits::none().with_node_visits(5), InterruptReason::Budget),
        (Limits::none().with_rows(1), InterruptReason::Budget),
    ];
    for (limits, want) in cases {
        let guard = ExecutionGuard::new(limits);
        let err = sequential(Some(&guard)).unwrap_err();
        match err {
            GdmError::Interrupted { reason, partial } => {
                assert_eq!(reason, want);
                assert!(
                    (partial as usize) <= plain.len(),
                    "partial rows cannot exceed the full result"
                );
            }
            other => panic!("expected structured Interrupted, got {other}"),
        }
    }

    // (c) A row limit trips *after* emitting rows up to the cap: the
    // partial count in the error equals the limit.
    let guard = ExecutionGuard::new(Limits::none().with_rows(3));
    match sequential(Some(&guard)).unwrap_err() {
        GdmError::Interrupted { partial, .. } => {
            assert!(
                partial >= 3,
                "rows up to the cap were produced, got {partial}"
            )
        }
        other => panic!("expected Interrupted, got {other}"),
    }
}

/// The same gauntlet for the executor fanned out across workers,
/// forced onto multiple workers so the guard really is shared across
/// threads (a single-core CI machine must not silently skip the
/// interesting path): (a) byte-identical to the one-worker run under
/// an unlimited guard, (b) structured `Interrupted` with the right
/// reason under each limit family, with the partial count reflecting
/// rows settled across *all* workers, and (c) a panic-injected worker
/// degrades to the inline rerun without changing the answer.
#[test]
fn governed_par_vectorized_gauntlet_under_forced_workers() {
    use graph_db_models::algo::parallel::{force_fanout, inject_worker_panic_once};
    use graph_db_models::algo::planned::{auto_domains, execute_pattern};
    use graph_db_models::algo::FrozenGraph;
    use graph_db_models::core::{GdmError, InterruptReason};

    let people = social_graph(SocialParams {
        people: 300,
        communities: 4,
        intra_edges: 4,
        inter_edges: 1,
        seed: 7,
    });
    let fz = FrozenGraph::freeze_attributed(&people);
    let mut pattern = Pattern::new();
    let a = pattern.node(PatternNode::var("a").with_label("person"));
    let b = pattern.node(PatternNode::var("b"));
    let c = pattern.node(PatternNode::var("c"));
    pattern.edge(a, b, Some("knows")).unwrap();
    pattern.edge(b, c, Some("knows")).unwrap();
    let domains = auto_domains(&fz, &pattern);
    force_fanout(true);
    let run = |workers: usize, guard: Option<&ExecutionGuard>| {
        execute_pattern(&fz, &pattern, &domains, workers, guard)
    };

    // (a) Unlimited guard, 4 forced workers: byte-identical table.
    let plain = run(1, None).unwrap();
    assert!(!plain.is_empty(), "workload has 2-hop chains");
    let unlimited = ExecutionGuard::unlimited();
    let par = run(4, Some(&unlimited)).unwrap();
    assert_eq!(par, plain, "parallel result must match byte-for-byte");

    // (b) Each limit family interrupts with its structured reason even
    // when the trip happens on a worker thread; the merged partial
    // count never exceeds the full result.
    let cases: [(Limits, InterruptReason); 3] = [
        (
            Limits::none().with_deadline(Duration::from_millis(0)),
            InterruptReason::Deadline,
        ),
        (Limits::none().with_node_visits(5), InterruptReason::Budget),
        (Limits::none().with_rows(1), InterruptReason::Budget),
    ];
    for (limits, want) in cases {
        let guard = ExecutionGuard::new(limits);
        let err = run(4, Some(&guard)).unwrap_err();
        match err {
            GdmError::Interrupted { reason, partial } => {
                assert_eq!(reason, want);
                assert!(
                    (partial as usize) <= plain.len(),
                    "partial rows cannot exceed the full result"
                );
            }
            other => panic!("expected structured Interrupted, got {other}"),
        }
    }

    // Cancellation from outside the call is an interrupt too — the
    // workers see the flag at their next guard check.
    let guard = ExecutionGuard::unlimited();
    guard.cancel_token().cancel();
    let err = run(4, Some(&guard)).unwrap_err();
    assert!(err.is_interrupted(), "cancel must interrupt, got {err}");

    // (c) A panic injected into one worker poisons its morsels; the
    // executor discards the parallel attempt and reruns inline, so the
    // caller still gets the full, correct table.
    inject_worker_panic_once();
    let recovered = run(4, None).unwrap();
    assert_eq!(
        recovered, plain,
        "a poisoned morsel must degrade to the sequential answer, not change it"
    );
    force_fanout(false);
}
