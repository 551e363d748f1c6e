//! Out-of-core mining over a zero-copy snapshot: the attribute lattice is
//! sharded into **segments** of level-1 roots so only one segment's
//! working subgraph is resident at a time.
//!
//! [`mine_mapped`] reproduces [`Scpm::run`](crate::Scpm::run) bit-for-bit
//! (same reports, same patterns, same counters — only `elapsed` is its own
//! wall clock) while reading the graph through a [`MappedSnapshot`]
//! instead of a heap [`AttributedGraph`](scpm_graph::AttributedGraph).
//! The trick is that every subgraph the search can ever extract under a
//! root attribute `a` lies inside `V(a)`, so a **working graph**
//! containing all edges incident to `W = ⋃ V(a)` over the segment's roots
//! answers every adjacency query of the segment's entire subtree exactly
//! as the full graph would.
//!
//! The driver has two layers:
//!
//! 1. **Pack** — frequent attributes (support ≥ σmin), ascending, are
//!    greedily packed into segments; an attribute's cost is the CSR
//!    footprint `8·(deg(v)+1)` bytes of each vertex it *newly* adds to the
//!    segment's working set. A segment always takes at least one root, so
//!    a hub attribute larger than the budget forms a singleton segment.
//! 2. **Walk (descending segments)** — each segment's roots run through
//!    the same lattice walk as the in-memory mine
//!    ([`crate::parallel`]), on the segment's working graph, with the
//!    surviving level-1 entries of every later segment carried as
//!    resident siblings. Descending order guarantees that by the time a
//!    root is extended, every later sibling has been evaluated. The walk
//!    keys its output by attribute ids, so one merge of every segment's
//!    parts gives the in-memory order.
//!
//! Carried siblings keep their tidset and cover resident (their mining
//! subgraph is dropped with their working graph). Only roots that pass
//! the Theorem 4/5 gates are carried; on the `exp_oocore` gate graph that
//! is 2 of 4,803 frequent roots, about 1.95 MB.
//!
//! ε is normalized against the **full** graph's null model (degree
//! histogram straight from the mapped CSR offsets), shared across
//! segments through one [`NullModelCache`]; see [`Scpm::with_model`].

use std::sync::Arc;
use std::time::Instant;

use scpm_graph::attributed::{AttrId, AttributedGraphBuilder};
use scpm_graph::csr::VertexId;
use scpm_graph::{DegreeDistribution, MappedSnapshot, SnapshotError};
use scpm_itemset::Tidset;

use crate::algorithm::Scpm;
use crate::nullmodel::{AnalyticalModel, NullModelCache};
use crate::parallel::{merge, walk};
use crate::params::ScpmParams;
use crate::pattern::ScpmResult;

/// Greedily packs the frequent attributes (ascending) into segments whose
/// working-set CSR footprint stays under `budget_bytes`. Every segment
/// holds at least one root. Costs O(Σ supports) after one O(n) bitmap:
/// a segment boundary clears only the closed segment's vertices.
fn pack_segments(
    snap: &MappedSnapshot,
    frequent: &[AttrId],
    budget_bytes: usize,
) -> Result<Vec<Vec<AttrId>>, SnapshotError> {
    let offsets = snap.csr_offsets()?;
    let cost_of = |v: VertexId| -> usize {
        let v = v as usize;
        8 * ((offsets[v + 1] - offsets[v]) as usize + 1)
    };
    let mut segments: Vec<Vec<AttrId>> = Vec::new();
    let mut member = vec![false; snap.num_vertices()];
    let mut current: Vec<AttrId> = Vec::new();
    let mut current_cost = 0usize;
    for &a in frequent {
        let vs = snap.vertices_with(a)?;
        let added: usize = vs
            .iter()
            .filter(|&&v| !member[v as usize])
            .map(|&v| cost_of(v))
            .sum();
        if !current.is_empty() && current_cost + added > budget_bytes {
            for &b in &current {
                for &v in snap.vertices_with(b)? {
                    member[v as usize] = false;
                }
            }
            segments.push(std::mem::take(&mut current));
            // Recost against the now-empty working set.
            current_cost = vs.iter().map(|&v| cost_of(v)).sum();
        } else {
            current_cost += added;
        }
        for &v in vs {
            member[v as usize] = true;
        }
        current.push(a);
    }
    if !current.is_empty() {
        segments.push(current);
    }
    Ok(segments)
}

/// Builds a segment's working graph: every vertex of the snapshot, plus
/// every edge with at least one endpoint in the union `W` of the segment
/// roots' tidsets. No attributes are interned — the mining engine reads
/// attribute data from entries, never from the working graph. `member` is
/// an all-false scratch bitmap over the snapshot's vertices, all-false
/// again on return; only `W`'s vertices are marked, scanned and cleared.
fn working_graph(
    snap: &MappedSnapshot,
    roots: &[AttrId],
    member: &mut [bool],
) -> Result<scpm_graph::AttributedGraph, SnapshotError> {
    let mut working: Vec<VertexId> = Vec::new();
    for &a in roots {
        for &v in snap.vertices_with(a)? {
            if !member[v as usize] {
                member[v as usize] = true;
                working.push(v);
            }
        }
    }
    working.sort_unstable();
    let mut b = AttributedGraphBuilder::new(snap.num_vertices());
    for &v in &working {
        for &u in snap.neighbors(v)? {
            // Both endpoints in the working set would add the edge twice;
            // keep the copy from the smaller endpoint.
            if !member[u as usize] || v < u {
                b.add_edge(v, u);
            }
        }
    }
    for &v in &working {
        member[v as usize] = false;
    }
    Ok(b.build())
}

/// Mines a mapped snapshot with bounded working-graph memory, reproducing
/// [`Scpm::run`](crate::Scpm::run) on the decoded graph bit-for-bit
/// (reports, patterns and every counter except the wall-clock `elapsed`).
///
/// `segment_budget_bytes` caps the approximate CSR footprint of each
/// segment's working graph — smaller budgets mean more, smaller segments
/// (a single hub attribute may still exceed the budget on its own; it then
/// forms a singleton segment, which is the floor of this scheme).
///
/// ```
/// use scpm_core::segments::mine_mapped;
/// use scpm_core::{Scpm, ScpmParams};
/// use scpm_graph::figure1::figure1;
/// use scpm_graph::{encode, MappedSnapshot};
///
/// let g = figure1();
/// let snap = MappedSnapshot::from_bytes(encode(&g)).unwrap();
/// let params = ScpmParams::new(3, 0.6, 4).with_eps_min(0.5);
/// let out_of_core = mine_mapped(&snap, params.clone(), 256).unwrap();
/// let in_memory = Scpm::new(&g, params).run();
/// assert_eq!(
///     format!("{:?}", out_of_core.reports),
///     format!("{:?}", in_memory.reports),
/// );
/// assert_eq!(out_of_core.patterns.len(), in_memory.patterns.len());
/// ```
pub fn mine_mapped(
    snap: &MappedSnapshot,
    params: ScpmParams,
    segment_budget_bytes: usize,
) -> Result<ScpmResult, SnapshotError> {
    let start = Instant::now();
    let n = snap.num_vertices();
    let num_attrs = snap.num_attributes();

    // The full graph's degree histogram, straight from the CSR offsets —
    // the null model every segment normalizes against.
    let offsets = snap.csr_offsets()?;
    let max_degree = (0..n)
        .map(|v| (offsets[v + 1] - offsets[v]) as usize)
        .max()
        .unwrap_or(0);
    let mut counts = vec![0usize; max_degree + 1];
    for v in 0..n {
        counts[(offsets[v + 1] - offsets[v]) as usize] += 1;
    }
    let dist = DegreeDistribution::from_counts(counts);
    let cache = Arc::new(NullModelCache::new());

    let frequent: Vec<AttrId> = (0..num_attrs as AttrId)
        .filter(|&a| {
            snap.support(a)
                .map(|s| s >= params.sigma_min)
                .unwrap_or(true)
        })
        .collect();
    // Surface any validation error the filter swallowed.
    for &a in &frequent {
        snap.support(a)?;
    }

    let segments = pack_segments(snap, &frequent, segment_budget_bytes)?;

    // Descending, so every sibling b > a has been evaluated (and, if it
    // survived, carried) before any root a extends with it.
    let mut parts = Vec::new();
    let mut carried = Vec::new();
    let mut member = vec![false; n];
    for seg in segments.iter().rev() {
        let graph = working_graph(snap, seg, &mut member)?;
        let model = AnalyticalModel::from_distribution(dist.clone(), n, &params.quasi_clique)
            .with_cache(cache.clone());
        let scpm = Scpm::with_model(&graph, params.clone(), model);
        let roots = seg.iter().map(|&a| {
            let tids = Tidset::from_sorted(snap.vertices_with(a)?.to_vec());
            Ok::<_, SnapshotError>((a, tids))
        });
        carried = walk(&scpm, roots, carried, 1, &mut parts)?;
        // A carried entry is only ever a sibling from here on; its mining
        // subgraph belongs to this segment.
        for entry in &mut carried {
            entry.sub = None;
        }
    }

    let (mut result, _) = merge(parts);
    result.stats.elapsed = start.elapsed();
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scpm;
    use scpm_graph::figure1::figure1;
    use scpm_graph::{encode, AttributedGraph};

    fn fingerprint(r: &ScpmResult) -> String {
        format!("{:?}|{:?}", r.reports, r.patterns)
    }

    fn assert_equivalent(g: &AttributedGraph, params: ScpmParams, budgets: &[usize]) {
        let reference = Scpm::new(g, params.clone()).run();
        let snap = MappedSnapshot::from_bytes(encode(g)).unwrap();
        for &budget in budgets {
            let mined = mine_mapped(&snap, params.clone(), budget).unwrap();
            assert_eq!(
                fingerprint(&mined),
                fingerprint(&reference),
                "budget {budget} diverged"
            );
            let (mut a, mut b) = (mined.stats, reference.stats);
            a.elapsed = Default::default();
            b.elapsed = Default::default();
            assert_eq!(
                format!("{a:?}"),
                format!("{b:?}"),
                "budget {budget} counters"
            );
        }
    }

    #[test]
    fn figure1_matches_in_memory_at_every_budget() {
        // Budgets from "one root per segment" to "everything in one".
        let g = figure1();
        let params = ScpmParams::new(3, 0.6, 4).with_eps_min(0.5);
        assert_equivalent(&g, params, &[1, 64, 512, 4096, usize::MAX]);
    }

    #[test]
    fn permissive_parameters_exercise_deep_subtrees() {
        // σmin = 1 with no ε/δ floor keeps every attribute extensible, so
        // cross-segment sibling extension does real work.
        let g = figure1();
        let params = ScpmParams::new(1, 0.5, 3).with_eps_min(0.0);
        assert_equivalent(&g, params, &[1, 200, usize::MAX]);
    }

    /// A deterministic random attributed graph (xorshift; no rand dep).
    fn random_graph(n: usize, attrs: u32, seed: u64) -> AttributedGraph {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut b = AttributedGraphBuilder::new(n);
        for a in 0..attrs {
            b.intern_attr(&format!("t{a}"));
        }
        for _ in 0..n * 3 {
            let (u, v) = ((next() as usize % n) as u32, (next() as usize % n) as u32);
            if u != v {
                b.add_edge(u, v);
            }
        }
        for v in 0..n as u32 {
            for _ in 0..1 + next() % 3 {
                b.add_attr(v, (next() % attrs as u64) as u32);
            }
        }
        b.build()
    }

    #[test]
    fn random_graphs_match_in_memory() {
        for seed in 1..=6u64 {
            let g = random_graph(40, 8, seed.wrapping_mul(0x9e3779b97f4a7c15));
            let params = ScpmParams::new(3, 0.5, 3).with_eps_min(0.1);
            assert_equivalent(&g, params, &[1, 1 << 10, 1 << 20]);
        }
    }

    #[test]
    fn empty_and_attributeless_graphs_are_fine() {
        let g = AttributedGraphBuilder::new(5).build();
        let snap = MappedSnapshot::from_bytes(encode(&g)).unwrap();
        let r = mine_mapped(&snap, ScpmParams::new(1, 0.5, 3), 1024).unwrap();
        assert!(r.reports.is_empty() && r.patterns.is_empty());
    }

    #[test]
    fn segment_packing_respects_budget_floor() {
        let g = figure1();
        let snap = MappedSnapshot::from_bytes(encode(&g)).unwrap();
        let frequent: Vec<AttrId> = (0..snap.num_attributes() as AttrId)
            .filter(|&a| snap.support(a).unwrap() >= 1)
            .collect();
        // A 1-byte budget forces singleton segments.
        let tiny = pack_segments(&snap, &frequent, 1).unwrap();
        assert_eq!(tiny.len(), frequent.len());
        assert!(tiny.iter().all(|s| s.len() == 1));
        // An unbounded budget packs everything together.
        let all = pack_segments(&snap, &frequent, usize::MAX).unwrap();
        assert_eq!(all.len(), 1);
        assert_eq!(all[0], frequent);
    }

    #[test]
    fn corrupt_snapshot_surfaces_error_not_panic() {
        let g = figure1();
        let mut bytes = encode(&g).as_ref().to_vec();
        bytes[400] ^= 0xff; // inside the CSR-offsets section
        let snap = MappedSnapshot::from_bytes(bytes).unwrap();
        let err = mine_mapped(&snap, ScpmParams::new(1, 0.5, 3), 1024);
        assert!(err.is_err(), "corruption must surface as an error");
    }
}
