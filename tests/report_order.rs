//! Report order, pinned independently of the scheduler: every mining path
//! must emit its reports in the depth-first order of the attribute
//! lattice, derived here from the attribute ids alone.
//!
//! A set `{a1, …, ak}` (ascending) sorts under the key
//! `[0, a1]` when `k = 1`, and `[1, a1, 1, a2, …, 1, a(k-1), 0, ak]`
//! otherwise: all level-1 reports first, then each branch's extensions
//! before any of its descendants, branches in ascending attribute order.

use scpm_core::segments::mine_mapped;
use scpm_core::{ParallelConfig, Scpm, ScpmParams, ScpmResult};
use scpm_datasets::dblp_like;
use scpm_graph::figure1::figure1;
use scpm_graph::{encode, AttributedGraph, MappedSnapshot};

/// The lattice key of the attribute set `attrs` (sorted ascending).
fn lattice_key(attrs: &[u32]) -> Vec<u32> {
    let (last, prefix) = attrs.split_last().expect("non-empty attribute set");
    let mut key: Vec<u32> = prefix.iter().flat_map(|&a| [1, a]).collect();
    key.extend([0, *last]);
    key
}

fn assert_lattice_order(result: &ScpmResult, path: &str) {
    let keys: Vec<Vec<u32>> = result
        .reports
        .iter()
        .map(|r| lattice_key(&r.attrs))
        .collect();
    let mut sorted = keys.clone();
    sorted.sort();
    sorted.dedup();
    assert_eq!(keys, sorted, "{path}: reports out of lattice order");
    let pattern_keys: Vec<Vec<u32>> = result
        .patterns
        .iter()
        .map(|p| lattice_key(&p.attrs))
        .collect();
    assert!(
        pattern_keys.is_sorted(),
        "{path}: patterns out of lattice order"
    );
}

/// Mines `g` through every path and checks each one's order.
fn check_every_path(g: &AttributedGraph, params: ScpmParams) -> ScpmResult {
    let scpm = Scpm::new(g, params.clone());
    let serial = scpm.run();
    assert_lattice_order(&serial, "run");
    for threads in [2, 4] {
        let scheduled = scpm.run_scheduled(&ParallelConfig::new(threads));
        assert_lattice_order(&scheduled, &format!("run_scheduled({threads})"));
    }
    let snap = MappedSnapshot::from_bytes(encode(g)).unwrap();
    for budget in [1, usize::MAX] {
        let mapped = mine_mapped(&snap, params.clone(), budget).unwrap();
        assert_lattice_order(&mapped, &format!("mine_mapped(budget {budget})"));
    }
    serial
}

fn deepest(result: &ScpmResult) -> usize {
    result
        .reports
        .iter()
        .map(|r| r.attrs.len())
        .max()
        .unwrap_or(0)
}

#[test]
fn figure1_reports_follow_lattice_order() {
    // σmin = 1 with no ε floor keeps every attribute extensible.
    let result = check_every_path(&figure1(), ScpmParams::new(1, 0.5, 3).with_eps_min(0.0));
    assert!(deepest(&result) >= 3, "expected level-3 sets");
}

#[test]
fn planted_graph_reports_follow_lattice_order() {
    let dataset = dblp_like(0.01, 21);
    // No ε floor keeps every level-1 set extensible; γ = 0.9 keeps the
    // quasi-clique searches cheap while level-3 sets still qualify.
    let params = ScpmParams::new(8, 0.9, 6)
        .with_eps_min(0.0)
        .with_max_attrs(3);
    let result = check_every_path(&dataset.graph, params);
    assert!(deepest(&result) >= 3, "expected level-3 sets");
    assert!(!result.patterns.is_empty(), "expected patterns");
}
