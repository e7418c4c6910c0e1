//! # gdm-algo
//!
//! The essential graph queries of the paper's Section IV, implemented
//! once, generically over [`gdm_core::GraphView`], so that every data
//! model in `gdm-graphs` — and therefore every engine emulation —
//! answers the same queries through the same code:
//!
//! 1. **Adjacency queries** ([`adjacency`]): node/edge adjacency tests
//!    and k-neighborhood listing.
//! 2. **Reachability queries** ([`paths`], [`regular`]): reachability,
//!    fixed-length paths, regular (simple) paths over edge-label
//!    regular expressions, shortest paths (unweighted and weighted).
//! 3. **Pattern matching queries** ([`pattern`]): subgraph isomorphism
//!    (VF2-style backtracking) with a brute-force oracle for testing.
//! 4. **Summarization queries** ([`summary`]): aggregation functions
//!    plus the structural functions the paper lists — order, degree,
//!    minimum/maximum/average degree, path length, distance between
//!    nodes, diameter.
//!
//! [`traverse`] provides the BFS/DFS machinery and a Neo4j-style
//! fluent traversal description (the "framework for graph traversals"
//! of the paper's Neo4j description); [`analysis`] adds the analysis
//! functions Table V probes (connected components, triangle counting,
//! clustering coefficients).
//!
//! For read-heavy workloads, [`frozen`] compiles any view into a
//! point-in-time CSR snapshot ([`FrozenGraph`]) that answers the same
//! queries identically but at array speed. Pattern queries go through
//! one entry point, [`execute_pattern`], whose degradation ladder
//! routes a snapshot to the vectorized morsel executor
//! ([`vectorized`]) and any other view to the row-at-a-time planned
//! matcher ([`planned`]). The executor and the snapshot analytics
//! (diameter, components, triangles, clustering, degree) share one
//! parallel substrate ([`parallel`]): scoped workers claiming morsels
//! from an atomic cursor, panic isolation with an inline rerun, and a
//! merge in morsel order, so every output is identical at any worker
//! count.

pub mod adjacency;
pub mod analysis;
pub mod frozen;
pub mod parallel;
pub mod paths;
pub mod pattern;
pub mod planned;
pub mod refreeze;
pub mod regular;
pub mod summary;
pub mod traverse;
pub mod vectorized;

pub use adjacency::{edges_adjacent, k_neighborhood, nodes_adjacent};
pub use frozen::{frozen_regular_path_exists, FrozenGraph};
pub use parallel::{
    default_threads, executor_workers, par_average_clustering, par_connected_components,
    par_degree_stats, par_diameter, par_eccentricities, par_triangle_count, set_executor_workers,
};
pub use paths::{
    bidirectional_shortest_path, dijkstra, distance, fixed_length_path_exists, fixed_length_paths,
    is_reachable, shortest_path, shortest_path_governed, Path,
};
pub use pattern::{match_pattern, match_pattern_governed, Pattern, PatternEdge, PatternNode};
pub use planned::{
    auto_domains, domain_estimates, domains_consistent, execute_pattern, match_pattern_auto,
    planned_order, Domains, MatchTable,
};
pub use refreeze::{incremental_refreeze, incremental_refreeze_structural};
pub use regular::{
    regular_path_exists, regular_path_exists_governed, regular_simple_paths, LabelRegex,
};
pub use summary::{
    aggregate, degree_stats, diameter, diameter_governed, graph_order, graph_size, Aggregate,
};
pub use traverse::{bfs_order, dfs_order, Traversal};
#[doc(hidden)]
pub use vectorized::{
    match_pattern_par_vectorized_domains_governed, match_pattern_vectorized_governed,
};
