//! Guards the workspace wiring itself: the `scpm_suite::prelude` façade
//! must re-export every layer, and the re-exports must be the same types
//! the member crates define (not parallel copies).

use scpm_suite::prelude::*;

#[test]
fn figure1_has_eleven_vertices() {
    let g = figure1();
    assert_eq!(g.num_vertices(), 11);
    assert_eq!(g.num_attributes(), 5);
}

#[test]
fn prelude_reexports_are_the_member_crate_types() {
    // Passing a prelude-built value to a fully-qualified member-crate API
    // only compiles if the re-export is the same type.
    let g: scpm_graph::AttributedGraph = figure1();
    let params: scpm_core::ScpmParams = ScpmParams::new(3, 0.6, 4).with_eps_min(0.5);
    let result = scpm_core::Scpm::new(&g, params).run();
    assert_eq!(result.patterns.len(), 7);
}

#[test]
fn prelude_covers_every_layer() {
    // graph
    let mut b = AttributedGraphBuilder::new(3);
    let a0 = b.intern_attr("x");
    b.add_edge(0, 1);
    b.add_attr(0, a0);
    let g = b.build();
    assert_eq!(g.num_vertices(), 3);
    // quasiclique
    let cfg = QcConfig::new(0.5, 2);
    assert!(cfg.gamma > 0.0);
    let _ = SearchOrder::Dfs;
    // datasets
    let d = small_dblp_like(0.01, 7);
    assert!(d.graph.num_vertices() > 0);
    // core (re-exported via `scpm_core::*`)
    let _ = ScpmParams::new(2, 0.5, 3);
}

#[test]
fn prelude_exposes_parallel_driver_and_null_cache() {
    // The work-stealing driver, its configuration, and the shared
    // null-model cache are part of the façade surface.
    let g = figure1();
    let params = ScpmParams::new(3, 0.6, 4).with_eps_min(0.5);
    let serial = Scpm::new(&g, params.clone()).run();
    let parallel = Scpm::new(&g, params.clone()).run_scheduled(&ParallelConfig::new(2));
    assert_eq!(serial.reports, parallel.reports);

    let cache = std::sync::Arc::new(NullModelCache::new());
    let cached = Scpm::with_cache(&g, params, cache.clone()).run();
    assert_eq!(serial.reports, cached.reports);
    assert!(!cache.is_empty());
}
