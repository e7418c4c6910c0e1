//! Essential graph queries across the nine engine emulations — the
//! performance companion the paper's related work (Dominguez-Sal et
//! al. [11]) ran against real 2012 systems. Engines that do not
//! support a query are skipped, mirroring Table VII.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gdm_algo::pattern::{Pattern, PatternNode};
use gdm_bench::{load_into_engine, social_graph, SocialParams};
use gdm_core::{Direction, NodeId};
use gdm_engines::{make_engine, AnalysisFunc, EngineKind, GraphEngine, SummaryFunc};
use std::hint::black_box;

struct Fixture {
    kind: EngineKind,
    engine: Box<dyn GraphEngine>,
    nodes: Vec<NodeId>,
}

fn fixtures(people: usize) -> Vec<Fixture> {
    let graph = social_graph(SocialParams {
        people,
        communities: 8,
        intra_edges: 6,
        inter_edges: 2,
        seed: 42,
    });
    let base = std::env::temp_dir().join(format!("gdm-bench-eq-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    EngineKind::all()
        .into_iter()
        .map(|kind| {
            let dir = base.join(kind.label().to_lowercase().replace('-', "_"));
            std::fs::create_dir_all(&dir).expect("temp dir");
            let mut engine = make_engine(kind, &dir).expect("engine");
            let nodes = load_into_engine(engine.as_mut(), &graph).expect("load");
            Fixture {
                kind,
                engine,
                nodes,
            }
        })
        .collect()
}

fn bench_essential(c: &mut Criterion) {
    let fixtures = fixtures(600);

    let mut group = c.benchmark_group("adjacency");
    for f in &fixtures {
        group.bench_function(BenchmarkId::from_parameter(f.kind.label()), |b| {
            b.iter(|| {
                for i in 0..32 {
                    let a = f.nodes[i * 7 % f.nodes.len()];
                    let bn = f.nodes[(i * 13 + 5) % f.nodes.len()];
                    black_box(f.engine.adjacent(a, bn).expect("supported everywhere"));
                }
            })
        });
    }
    group.finish();

    let mut group = c.benchmark_group("k_neighborhood_k2");
    for f in &fixtures {
        if f.engine.k_neighborhood(f.nodes[0], 2).is_err() {
            continue; // Table VII blank
        }
        group.bench_function(BenchmarkId::from_parameter(f.kind.label()), |b| {
            b.iter(|| {
                let n = f.nodes[17];
                black_box(f.engine.k_neighborhood(n, 2).expect("supported"));
            })
        });
    }
    group.finish();

    let mut group = c.benchmark_group("shortest_path");
    for f in &fixtures {
        if f.engine.shortest_path(f.nodes[0], f.nodes[1]).is_err() {
            continue;
        }
        group.bench_function(BenchmarkId::from_parameter(f.kind.label()), |b| {
            b.iter(|| {
                black_box(
                    f.engine
                        .shortest_path(f.nodes[3], f.nodes[f.nodes.len() - 4])
                        .expect("supported"),
                );
            })
        });
    }
    group.finish();

    let mut group = c.benchmark_group("summarization_order");
    for f in &fixtures {
        group.bench_function(BenchmarkId::from_parameter(f.kind.label()), |b| {
            b.iter(|| black_box(f.engine.summarize(SummaryFunc::Order).expect("supported")))
        });
    }
    group.finish();
}

/// Live vs frozen vs frozen+parallel on one representative engine:
/// the CSR snapshot fast path whose numbers `perf_report` records in
/// `BENCH_essential.json`.
fn bench_frozen(c: &mut Criterion) {
    let fixtures = fixtures(600);
    let f = fixtures
        .iter()
        .find(|f| f.kind == EngineKind::Neo4j)
        .expect("neo4j fixture");
    let fz = f.engine.snapshot().expect("snapshot");
    let threads = gdm_algo::default_threads().clamp(2, 8);

    let mut group = c.benchmark_group("snapshot_build");
    group.bench_function("freeze", |b| {
        b.iter(|| black_box(f.engine.snapshot().expect("snapshot")))
    });
    group.finish();

    let (a, z) = (f.nodes[3], f.nodes[f.nodes.len() - 4]);
    let mut group = c.benchmark_group("bfs_shortest_path");
    group.bench_function("live", |b| {
        b.iter(|| black_box(f.engine.shortest_path(a, z).expect("supported")))
    });
    group.bench_function("frozen", |b| b.iter(|| black_box(fz.frozen_distance(a, z))));
    group.finish();

    let mut group = c.benchmark_group("diameter");
    group.sample_size(10);
    group.bench_function("live", |b| {
        b.iter(|| {
            black_box(
                f.engine
                    .summarize(SummaryFunc::Diameter)
                    .expect("supported"),
            )
        })
    });
    group.bench_function("frozen_seq", |b| {
        b.iter(|| black_box(gdm_algo::par_diameter(&fz, Direction::Both, 1)))
    });
    group.bench_function("frozen_par", |b| {
        b.iter(|| black_box(gdm_algo::par_diameter(&fz, Direction::Both, threads)))
    });
    group.finish();

    let mut group = c.benchmark_group("connected_components");
    if let Some(live) = fixtures
        .iter()
        .find(|f| f.engine.analyze(AnalysisFunc::ConnectedComponents).is_ok())
    {
        group.bench_function(BenchmarkId::new("live", live.kind.label()), |b| {
            b.iter(|| {
                black_box(
                    live.engine
                        .analyze(AnalysisFunc::ConnectedComponents)
                        .expect("supported"),
                )
            })
        });
    }
    group.bench_function("frozen_seq", |b| {
        b.iter(|| black_box(gdm_algo::par_connected_components(&fz, 1).len()))
    });
    group.bench_function("frozen_par", |b| {
        b.iter(|| black_box(gdm_algo::par_connected_components(&fz, threads).len()))
    });
    group.finish();

    let mut pattern = Pattern::new();
    let x = pattern.node(PatternNode::var("x").with_label("person"));
    let y = pattern.node(PatternNode::var("y").with_label("person"));
    let z = pattern.node(PatternNode::var("z").with_label("person"));
    pattern.edge(x, y, Some("knows")).expect("vars exist");
    pattern.edge(y, z, Some("knows")).expect("vars exist");
    // Pattern matching is compared on the one engine that executes it
    // live, against that engine's own snapshot, so all three rows
    // answer the same question on the same data.
    let mut group = c.benchmark_group("pattern_two_hop");
    group.sample_size(10);
    if let Some(live) = fixtures
        .iter()
        .find(|f| f.engine.pattern_match(&pattern).is_ok())
    {
        let pfz = live.engine.snapshot().expect("snapshot");
        group.bench_function(BenchmarkId::new("live", live.kind.label()), |b| {
            b.iter(|| black_box(live.engine.pattern_match(&pattern).expect("supported")))
        });
        group.bench_function("frozen_seq", |b| {
            b.iter(|| black_box(gdm_algo::pattern::match_pattern(&pfz, &pattern).len()))
        });
        let domains = gdm_algo::auto_domains(&pfz, &pattern);
        group.bench_function("frozen_par", |b| {
            b.iter(|| {
                black_box(
                    gdm_algo::execute_pattern(&pfz, &pattern, &domains, threads, None)
                        .expect("ungoverned")
                        .len(),
                )
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_essential, bench_frozen
}
criterion_main!(benches);
