//! Complexity contract of induced-subgraph construction.
//!
//! `InducedSubgraph::extract` runs in `O(|V(G)| + Σ_{v ∈ W} deg(v))` and
//! `project` is the same routine over the parent's CSR. On a sparse ring
//! lattice both are linear in `n`, so 16× the input must cost about 16×;
//! a quadratic builder costs about 256×. The bound sits between the two,
//! on the minimum of several runs, so scheduling noise cannot trip it.

use std::hint::black_box;
use std::time::{Duration, Instant};

use scpm_graph::bitadj::VertexBitset;
use scpm_graph::csr::VertexId;
use scpm_graph::generators::watts_strogatz;
use scpm_graph::induced::InducedSubgraph;

/// Vertices of the small ring lattice.
const N: usize = 4096;
/// Input growth between the two sizes.
const GROWTH: usize = 16;
/// Timed runs per size; the minimum counts.
const RUNS: usize = 5;
/// Largest accepted cost ratio: linear ≈ 16×, quadratic ≈ 256×.
const MAX_RATIO: f64 = 64.0;

/// Minimum wall time of `RUNS` calls of `f`.
fn min_time<T>(mut f: impl FnMut() -> T) -> Duration {
    (0..RUNS)
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            start.elapsed()
        })
        .min()
        .unwrap()
}

/// `(extract, project)` times on a ring lattice over `n` vertices (degree
/// 4): `extract` of every vertex, and `project` of every other vertex out
/// of that whole-graph subgraph.
fn costs(n: usize) -> (Duration, Duration) {
    let g = watts_strogatz(n, 4, 0.0, 1);
    let all: Vec<VertexId> = (0..n as VertexId).collect();
    let extract = min_time(|| InducedSubgraph::extract(&g, &all));
    let parent = InducedSubgraph::extract(&g, &all);
    let even: Vec<VertexId> = all.iter().copied().filter(|v| v % 2 == 0).collect();
    let keep = VertexBitset::from_sorted(n, &even);
    let project = min_time(|| parent.project(&keep));
    (extract, project)
}

#[test]
fn induced_subgraph_construction_is_linear() {
    let (extract_n, project_n) = costs(N);
    let (extract_16n, project_16n) = costs(N * GROWTH);
    for (name, small, large) in [
        ("extract", extract_n, extract_16n),
        ("project", project_n, project_16n),
    ] {
        let ratio = large.as_secs_f64() / small.as_secs_f64().max(1e-9);
        assert!(
            ratio < MAX_RATIO,
            "{name}: {GROWTH}x the input cost {ratio:.1}x ({small:?} -> {large:?}); \
             linear is ~{GROWTH}x, quadratic ~{}x",
            GROWTH * GROWTH
        );
    }
}
