//! The traced lattice walk: `Scpm::run` re-walked from the benchmark
//! through each layer's public functions, with a span around every call.
//!
//! The walk must reproduce `Scpm::run` exactly — same reports, patterns
//! and counters — or its timings describe a different program; the
//! caller checks both. Inside each coverage and top-k search the engine's
//! own reduction, re-extraction and bitset packing are not visible, so the
//! walk repeats them once, timed under a `<search>.repeat` span, just
//! before the search; the search's busy time is its span minus those
//! repeats.

use std::sync::Arc;

use scpm_core::{
    AnalyticalModel, AttributeSetReport, NullModelCache, Pattern, ScpmParams, ScpmResult,
};
use scpm_graph::csr::intersect_into;
use scpm_graph::{
    AttrId, AttributedGraph, BitAdjacency, CsrGraph, InducedSubgraph, VertexBitset, VertexId,
};
use scpm_itemset::Tidset;
use scpm_quasiclique::{
    reduce_vertices, EngineScratch, Miner, MiningMode, QuasiClique, Representation, SearchStats,
    BITADJ_MAX_VERTICES,
};

use crate::trace::Recorder;

/// Largest mining subgraph a lattice entry keeps for its children to
/// project from (the constant of the same role in `scpm_core::algorithm`).
const PROJECT_RETAIN_MAX_VERTICES: usize = 1 << 14;

/// Counts the walk takes at the layer boundaries.
#[derive(Clone, Copy, Debug, Default)]
pub struct WalkCounts {
    pub intersect_calls: u64,
    pub extract_vertices: u64,
    pub reduce_in: u64,
    pub reduce_out: u64,
    pub pack_words: u64,
    pub null_hits: u64,
    pub null_misses: u64,
}

struct Entry {
    attrs: Vec<AttrId>,
    tids: Tidset,
    cover: Vec<VertexId>,
    sub: Option<Arc<InducedSubgraph>>,
}

struct Walk<'a> {
    g: &'a AttributedGraph,
    p: &'a ScpmParams,
    model: AnalyticalModel,
    rec: &'a mut Recorder,
    scratch: EngineScratch,
    keep: VertexBitset,
    result: ScpmResult,
    counts: WalkCounts,
    op: u64,
}

/// Walks the lattice of `g` under `p`, recording spans into `rec`.
pub fn walk(g: &AttributedGraph, p: &ScpmParams, rec: &mut Recorder) -> (ScpmResult, WalkCounts) {
    let cache = Arc::new(NullModelCache::new());
    let model = rec.time("core.null", || {
        AnalyticalModel::new(g.graph(), &p.quasi_clique).with_cache(Arc::clone(&cache))
    });
    let mut w = Walk {
        g,
        p,
        model,
        rec,
        scratch: EngineScratch::new(),
        keep: VertexBitset::empty(0),
        result: ScpmResult::default(),
        counts: WalkCounts::default(),
        op: 0,
    };
    let mut level1 = Vec::new();
    for a in g.attributes() {
        if g.support(a) < p.sigma_min {
            continue;
        }
        let tids = Tidset::from_sorted(g.vertices_with(a).to_vec());
        if let Some(e) = w.evaluate(vec![a], tids, None, None) {
            level1.push(e);
        }
    }
    w.enumerate_class(&level1);
    w.counts.null_hits = cache.hits();
    w.counts.null_misses = cache.misses();
    (w.result, w.counts)
}

impl Walk<'_> {
    fn enumerate_class(&mut self, class: &[Entry]) {
        for i in 0..class.len() {
            let mut next = Vec::new();
            let mut cover_buf = Vec::new();
            for j in (i + 1)..class.len() {
                if let Some(e) = self.extend_pair(&class[i], &class[j], &mut cover_buf) {
                    next.push(e);
                }
            }
            if !next.is_empty() {
                self.enumerate_class(&next);
            }
        }
    }

    fn extend_pair(
        &mut self,
        base: &Entry,
        sib: &Entry,
        cover_buf: &mut Vec<VertexId>,
    ) -> Option<Entry> {
        let sigma = self.p.sigma_min;
        self.counts.intersect_calls += 1;
        let Some(tids) = self.rec.time("itemset.intersect", || {
            base.tids.intersect_min_support(&sib.tids, sigma)
        }) else {
            self.result.stats.pruned_support += 1;
            return None;
        };
        let mut attrs = base.attrs.clone();
        attrs.push(*sib.attrs.last().expect("non-empty attribute set"));
        let parent_cover = if self.p.prune.vertex_pruning {
            intersect_into(&base.cover, &sib.cover, cover_buf);
            Some(cover_buf.as_slice())
        } else {
            None
        };
        self.evaluate(attrs, tids, parent_cover, base.sub.as_deref())
    }

    fn evaluate(
        &mut self,
        attrs: Vec<AttrId>,
        tids: Tidset,
        parent_cover: Option<&[VertexId]>,
        parent_sub: Option<&InducedSubgraph>,
    ) -> Option<Entry> {
        self.op += 1;
        self.rec.set_op(self.op);
        let span = self.rec.begin("core.evaluate");
        let entry = self.evaluate_inner(attrs, tids, parent_cover, parent_sub);
        self.rec.end(span);
        entry
    }

    fn evaluate_inner(
        &mut self,
        attrs: Vec<AttrId>,
        tids: Tidset,
        parent_cover: Option<&[VertexId]>,
        parent_sub: Option<&InducedSubgraph>,
    ) -> Option<Entry> {
        let p = self.p;
        let support = tids.support();
        let (covered, stats, sub) = self.coverage(tids.as_slice(), parent_cover, parent_sub);
        let epsilon = if support == 0 {
            0.0
        } else {
            covered.len() as f64 / support as f64
        };
        let s = &mut self.result.stats;
        s.attribute_sets_examined += 1;
        s.qc_nodes_coverage += stats.nodes_visited;
        add_work(s, &stats);
        let model = &self.model;
        let delta_lb = self
            .rec
            .time("core.null", || model.normalize(epsilon, support));
        let qualified = epsilon >= p.eps_min && delta_lb >= p.delta_min;
        if attrs.len() >= p.min_attrs {
            self.result.reports.push(AttributeSetReport {
                attrs: attrs.clone(),
                support,
                covered: covered.len(),
                epsilon,
                delta_lb,
                qualified,
            });
            if qualified {
                self.result.stats.attribute_sets_qualified += 1;
                if let Some(sub) = sub.as_deref() {
                    for clique in self.top_k(sub) {
                        self.result.patterns.push(Pattern {
                            attrs: attrs.clone(),
                            clique,
                        });
                    }
                }
            }
        } else if qualified {
            self.result.stats.attribute_sets_qualified += 1;
        }

        if attrs.len() >= p.max_attrs {
            return None;
        }
        let covered_count = covered.len() as f64;
        let sigma_min = p.sigma_min as f64;
        if p.prune.eps_pruning && covered_count < p.eps_min * sigma_min {
            self.result.stats.pruned_eps_bound += 1;
            return None;
        }
        if p.prune.delta_pruning {
            let model = &self.model;
            let exp_floor = self.rec.time("core.null", || model.expected(p.sigma_min));
            if covered_count < p.delta_min * exp_floor * sigma_min {
                self.result.stats.pruned_delta_bound += 1;
                return None;
            }
        }
        let sub = sub.filter(|s| s.num_vertices() <= PROJECT_RETAIN_MAX_VERTICES);
        Some(Entry {
            attrs,
            tids,
            cover: covered,
            sub,
        })
    }

    /// `K_S` of one attribute set: the mining set (Theorem 3), its
    /// subgraph (projected from the parent's or extracted), and the
    /// coverage search.
    fn coverage(
        &mut self,
        vertices: &[VertexId],
        parent_cover: Option<&[VertexId]>,
        parent_sub: Option<&InducedSubgraph>,
    ) -> (Vec<VertexId>, SearchStats, Option<Arc<InducedSubgraph>>) {
        let p = self.p;
        let none = (Vec::new(), SearchStats::default(), None);
        if vertices.is_empty() {
            return none;
        }
        let mining = match parent_cover {
            Some(cover) if p.prune.vertex_pruning => {
                let mut out = Vec::new();
                intersect_into(vertices, cover, &mut out);
                out
            }
            _ => vertices.to_vec(),
        };
        if mining.len() < p.quasi_clique.min_size {
            return none;
        }
        let sub = Arc::new(match parent_sub {
            Some(parent) => {
                let keep = &mut self.keep;
                keep.reset(parent.num_vertices());
                let (mut i, mut j) = (0, 0);
                while i < mining.len() && j < parent.original.len() {
                    match mining[i].cmp(&parent.original[j]) {
                        std::cmp::Ordering::Less => i += 1,
                        std::cmp::Ordering::Greater => j += 1,
                        std::cmp::Ordering::Equal => {
                            keep.insert(j as VertexId);
                            i += 1;
                            j += 1;
                        }
                    }
                }
                self.rec.time("graph.project", || parent.project(keep))
            }
            None => {
                self.counts.extract_vertices += mining.len() as u64;
                let g = self.g.graph();
                self.rec
                    .time("graph.extract", || InducedSubgraph::extract(g, &mining))
            }
        });

        let span = self.rec.begin("quasiclique.coverage");
        self.repeat_engine_prep("quasiclique.coverage.repeat", &sub.graph);
        let miner = self.miner(&sub);
        let scratch = &mut self.scratch;
        let out = self.rec.time("quasiclique.search", || {
            miner.run_with(MiningMode::Coverage, scratch)
        });
        self.rec.end(span);
        let covered = out.covered.iter().map(|&l| sub.to_original(l)).collect();
        (covered, out.stats, Some(sub))
    }

    /// Repeats, timed under a span named `name`, the steps `Miner::run_with`
    /// takes before its search: the Theorem-3 reduction, the re-extraction
    /// of the survivors and the bitset pack.
    fn repeat_engine_prep(&mut self, name: &'static str, input: &CsrGraph) {
        let span = self.rec.begin(name);
        let cfg = self.p.quasi_clique;
        let survivors = self
            .rec
            .time("quasiclique.reduce", || reduce_vertices(input, &cfg));
        self.counts.reduce_in += input.num_vertices() as u64;
        self.counts.reduce_out += survivors.len() as u64;
        if survivors.len() >= cfg.min_size {
            self.counts.extract_vertices += survivors.len() as u64;
            let inner = self.rec.time("graph.extract.reduced", || {
                InducedSubgraph::extract(input, &survivors)
            });
            let n = inner.num_vertices();
            if self.p.repr != Representation::Slice && n <= BITADJ_MAX_VERTICES {
                let adj = self
                    .rec
                    .time("graph.pack", || BitAdjacency::from_csr(&inner.graph));
                self.counts.pack_words += (n * adj.stride()) as u64;
            }
        }
        self.rec.end(span);
    }

    fn top_k(&mut self, sub: &InducedSubgraph) -> Vec<QuasiClique> {
        let k = self.p.k;
        if k == 0 {
            return Vec::new();
        }
        self.repeat_engine_prep("quasiclique.topk.repeat", &sub.graph);
        let miner = self.miner(sub);
        let scratch = &mut self.scratch;
        let out = self.rec.time("quasiclique.topk", || {
            miner.run_with(MiningMode::TopK(k), scratch)
        });
        let s = &mut self.result.stats;
        s.qc_nodes_topk += out.stats.nodes_visited;
        add_work(s, &out.stats);
        out.cliques
            .into_iter()
            .map(|q| QuasiClique {
                vertices: sub.to_original_set(&q.vertices),
                min_degree_ratio: q.min_degree_ratio,
                edge_density: q.edge_density,
            })
            .collect()
    }

    fn miner<'s>(&self, sub: &'s InducedSubgraph) -> Miner<'s> {
        Miner::new(&sub.graph, self.p.quasi_clique)
            .with_order(self.p.search_order)
            .with_prune(self.p.qc_prune)
            .with_repr(self.p.repr)
    }
}

fn add_work(s: &mut scpm_core::ScpmStats, st: &SearchStats) {
    s.qc_edge_tests += st.edge_tests;
    s.qc_kernel_ops += st.kernel_ops;
    s.qc_fused_ops += st.fused_ops;
    s.qc_blocks_skipped += st.blocks_skipped;
    s.qc_probes_elided += st.probes_elided;
    s.qc_batch_ops += st.batch_ops;
}

#[cfg(test)]
mod tests {
    use super::*;
    use scpm_core::Scpm;

    #[test]
    fn walk_reproduces_scpm_run_on_figure1() {
        let g = scpm_graph::figure1::figure1();
        for params in [
            ScpmParams::new(3, 0.6, 4).with_eps_min(0.5),
            ScpmParams::new(2, 0.5, 3).with_max_attrs(3),
        ] {
            let mut rec = Recorder::default();
            let (walked, _) = walk(&g, &params, &mut rec);
            let mut want = Scpm::new(&g, params).run();
            want.stats.elapsed = Default::default();
            assert_eq!(format!("{:?}", walked), format!("{:?}", want));
            let spans = rec.spans();
            assert!(spans.iter().any(|s| s.name == "quasiclique.search"));
            // Every repeated engine step sits under the repeat span of the
            // search it belongs to.
            for s in spans.iter().filter(|s| s.name == "quasiclique.reduce") {
                let parent = spans[s.parent.expect("reduce is nested")].name;
                assert!(parent.ends_with(".repeat"), "{parent}");
            }
        }
    }
}
