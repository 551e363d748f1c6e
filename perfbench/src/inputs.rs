//! Workload definitions and the seeded inputs they run on.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use scpm_core::ScpmParams;
use scpm_datasets::{citeseer_like, dblp_like, skewed_attr_like, SyntheticDataset};
use scpm_graph::{AttributedGraph, AttributedGraphBuilder, DeltaOp, GraphDelta, VertexId};

/// One named workload: a generator shape and the mining parameters.
pub struct Spec {
    pub name: &'static str,
    generate: fn(f64, u64) -> SyntheticDataset,
    scale: f64,
    /// Generator seed of the graph's shape (see [`prepare_graph`]).
    shape_seed: u64,
    pub params: ScpmParams,
    /// Whether the workload is the served update mix rather than mines.
    pub serve: bool,
}

impl Spec {
    pub fn generate(&self) -> SyntheticDataset {
        (self.generate)(self.scale, self.shape_seed)
    }

    pub fn describe(&self) -> String {
        let p = &self.params;
        format!(
            "scale={} shape_seed={} sigma_min={} gamma={} min_size={} max_attrs={} eps_min={} top_k={}",
            self.scale,
            self.shape_seed,
            p.sigma_min,
            p.quasi_clique.gamma,
            p.quasi_clique.min_size,
            p.max_attrs,
            p.eps_min,
            p.k
        )
    }
}

pub const WORKLOADS: &[&str] = &["citeseer-wide", "skewed-search", "serve-update-mix"];

pub fn spec(name: &str) -> Option<Spec> {
    // The shapes and parameters of the `large-citeseer`, `skewed-attr`
    // and `dblp` rows of `exp_perf`, so the counter gate and this
    // benchmark look at the same graphs.
    let spec = match name {
        "citeseer-wide" => Spec {
            name: "citeseer-wide",
            generate: citeseer_like,
            scale: 0.15,
            shape_seed: 23,
            params: ScpmParams::new(400, 0.5, 8)
                .with_eps_min(0.1)
                .with_top_k(3)
                .with_max_attrs(2),
            serve: false,
        },
        "skewed-search" => Spec {
            name: "skewed-search",
            generate: skewed_attr_like,
            scale: 0.02,
            shape_seed: 17,
            params: ScpmParams::new(10, 0.5, 6)
                .with_eps_min(0.1)
                .with_top_k(3)
                .with_max_attrs(2),
            serve: false,
        },
        "serve-update-mix" => Spec {
            name: "serve-update-mix",
            generate: dblp_like,
            scale: 0.02,
            shape_seed: 42,
            params: ScpmParams::new(8, 0.5, 8)
                .with_eps_min(0.1)
                .with_top_k(3)
                .with_max_attrs(3),
            serve: true,
        },
        _ => return None,
    };
    Some(spec)
}

/// The graph a run mines: the workload's generated shape with its
/// attribute ids permuted by `seed`.
///
/// The shape's own generator seed stays fixed. Quasi-clique search work
/// swings up to 51× between generator seeds and up to 24× between vertex
/// orders of one graph, so a seeded shape would measure the draw rather
/// than the code. Permuting attribute ids changes the lattice's enumeration order
/// and every id the program sees, while the search work stays put.
pub fn prepare_graph(g: &AttributedGraph, seed: u64) -> AttributedGraph {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xa77_5eed);
    let mut order: Vec<u32> = g.attributes().collect();
    order.shuffle(&mut rng);
    let mut b = AttributedGraphBuilder::new(g.num_vertices());
    for (u, v) in g.graph().edges() {
        b.add_edge(u, v);
    }
    for a in order {
        let id = b.intern_attr(g.attr_name(a));
        for &v in g.vertices_with(a) {
            b.add_attr(v, id);
        }
    }
    b.build()
}

/// One `POST /update` delta plus its JSON body.
#[derive(Clone, Debug)]
pub struct Update {
    /// Which of [`UPDATE_KINDS`] the delta is.
    pub kind: &'static str,
    pub delta: GraphDelta,
    pub body: String,
}

/// The delta kinds of [`update_stream`], in the order of its mix.
pub const UPDATE_KINDS: &[&str] = &["tail_attr", "cross_edge", "new_vertex", "head_churn"];

/// The seeded delta stream of the served workload, over the kinds ROADMAP
/// item 2 calls representative: tail-attribute assignments, edges between
/// communities, new vertices, and some churn on the head attribute.
///
/// The weights (40/30/20/10%) are an unverified assumption: no real update
/// traffic exists to fit them to. A head-churn update costs two orders of
/// magnitude more than the median one, so the pooled update latencies move
/// with its weight; the per-kind latencies do not.
pub fn update_stream(
    ds: &SyntheticDataset,
    g: &AttributedGraph,
    sigma_min: usize,
    seed: u64,
    count: usize,
) -> Vec<Update> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xde17a);
    let mut n = g.num_vertices() as VertexId;
    let tail: Vec<&str> = g
        .attributes()
        .filter(|&a| g.support(a) < sigma_min)
        .map(|a| g.attr_name(a))
        .collect();
    let frequent: Vec<&str> = g
        .attributes()
        .filter(|&a| g.support(a) >= sigma_min)
        .map(|a| g.attr_name(a))
        .collect();
    let head = g
        .attributes()
        .max_by_key(|&a| (g.support(a), std::cmp::Reverse(a)))
        .map(|a| g.attr_name(a))
        .expect("graph has attributes");
    let communities = &ds.communities;
    (0..count)
        .map(|_| {
            let (mut add, mut edges, mut attrs) = (0usize, Vec::new(), Vec::new());
            let kind = match rng.random_range(0..10u32) {
                0..=3 => 0,
                4..=6 => 1,
                7..=8 => 2,
                _ => 3,
            };
            match kind {
                // Tail attributes on random vertices.
                0 => {
                    for _ in 0..3 {
                        let name = tail.choose(&mut rng).expect("tail attributes");
                        attrs.push((rng.random_range(0..n), name.to_string()));
                    }
                }
                // Edges between members of two different communities.
                1 => {
                    for _ in 0..2 {
                        let c1 = rng.random_range(0..communities.len());
                        let c2 = (c1 + rng.random_range(1..communities.len())) % communities.len();
                        let u = *communities[c1].choose(&mut rng).expect("community");
                        let v = *communities[c2].choose(&mut rng).expect("community");
                        edges.push((u, v));
                    }
                }
                // New vertices, wired in and labeled.
                2 => {
                    add = rng.random_range(1..=2);
                    for k in 0..add as VertexId {
                        let v = n + k;
                        for _ in 0..2 {
                            edges.push((v, rng.random_range(0..n)));
                        }
                        let name = frequent.choose(&mut rng).expect("frequent attributes");
                        attrs.push((v, name.to_string()));
                    }
                    n += add as VertexId;
                }
                // Churn on the head attribute.
                _ => {
                    for _ in 0..2 {
                        attrs.push((rng.random_range(0..n), head.to_string()));
                    }
                }
            }
            update(UPDATE_KINDS[kind], add, edges, attrs)
        })
        .collect()
}

fn update(
    kind: &'static str,
    add: usize,
    edges: Vec<(VertexId, VertexId)>,
    attrs: Vec<(VertexId, String)>,
) -> Update {
    // The server applies `add_vertices`, then `edges`, then `attrs`.
    let mut ops = Vec::new();
    if add > 0 {
        ops.push(DeltaOp::AddVertices(add));
    }
    ops.extend(edges.iter().map(|&(u, v)| DeltaOp::AddEdge(u, v)));
    ops.extend(attrs.iter().map(|(v, a)| DeltaOp::AddAttr(*v, a.clone())));
    let edges_json: Vec<String> = edges.iter().map(|(u, v)| format!("[{u},{v}]")).collect();
    let attrs_json: Vec<String> = attrs
        .iter()
        .map(|(v, a)| format!("[{v},\"{a}\"]"))
        .collect();
    let body = format!(
        "{{\"add_vertices\":{add},\"edges\":[{}],\"attrs\":[{}]}}",
        edges_json.join(","),
        attrs_json.join(",")
    );
    Update {
        kind,
        delta: GraphDelta { ops },
        body,
    }
}

/// One read of the served catalog.
#[derive(Clone, Debug)]
pub enum Query {
    Attrs(String),
    Covering(VertexId),
    /// Ranking (`delta`, `epsilon` or `support`) and `k`.
    Top(&'static str, usize),
    Reports(f64),
}

impl Query {
    pub fn target(&self) -> String {
        match self {
            Query::Attrs(list) => format!("/patterns?attrs={}", percent_encode(list)),
            Query::Covering(v) => format!("/patterns/covering?v={v}"),
            Query::Top(by, k) => format!("/top?by={by}&k={k}"),
            Query::Reports(d) => format!("/reports?delta_min={d}"),
        }
    }

    /// The same read answered by the catalog directly.
    pub fn answer(
        &self,
        c: &scpm_serve::PatternCatalog,
    ) -> Result<scpm_serve::Json, scpm_serve::HttpError> {
        match self {
            Query::Attrs(list) => c.query_attrs(list),
            Query::Covering(v) => c.query_covering(*v),
            Query::Top(by, k) => c.query_top(scpm_serve::TopBy::parse(by)?, *k),
            Query::Reports(d) => c.query_delta(*d),
        }
    }
}

/// The seeded query mix: attribute sets the initial mine examined (and a
/// few pairs it may not have), vertices of the initial graph, top-k
/// rankings and δ thresholds. The weights (40/25/20/15%) are an unverified
/// assumption, like those of [`update_stream`].
pub fn query_mix(
    g: &AttributedGraph,
    examined: &[Vec<u32>],
    seed: u64,
    count: usize,
) -> Vec<Query> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e7);
    let n = g.num_vertices() as VertexId;
    let names = |attrs: &[u32]| -> String {
        attrs
            .iter()
            .map(|&a| g.attr_name(a))
            .collect::<Vec<_>>()
            .join(",")
    };
    (0..count)
        .map(|_| match rng.random_range(0..20u32) {
            0..=6 => Query::Attrs(names(examined.choose(&mut rng).expect("examined sets"))),
            7 => {
                let a = examined.choose(&mut rng).expect("examined sets")[0];
                let b = examined.choose(&mut rng).expect("examined sets")[0];
                Query::Attrs(names(&[a, b]))
            }
            8..=12 => Query::Covering(rng.random_range(0..n)),
            13..=16 => {
                let by = ["delta", "epsilon", "support"][rng.random_range(0..3usize)];
                Query::Top(by, rng.random_range(1..=20))
            }
            _ => Query::Reports(f64::from(rng.random_range(0..40u32)) / 4.0),
        })
        .collect()
}

fn percent_encode(s: &str) -> String {
    s.bytes()
        .map(|b| match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b',' => {
                (b as char).to_string()
            }
            _ => format!("%{b:02X}"),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let spec = spec("serve-update-mix").unwrap();
        let ds = spec.generate();
        let (a, b) = (prepare_graph(&ds.graph, 5), prepare_graph(&ds.graph, 5));
        assert_eq!(snapshot(&a), snapshot(&b));
        assert_ne!(snapshot(&a), snapshot(&prepare_graph(&ds.graph, 6)));
        let ua = update_stream(&ds, &a, 8, 5, 20);
        let ub = update_stream(&ds, &b, 8, 5, 20);
        assert_eq!(
            ua.iter().map(|u| &u.body).collect::<Vec<_>>(),
            ub.iter().map(|u| &u.body).collect::<Vec<_>>()
        );
        // Every delta applies in sequence.
        let mut g = a;
        for u in &ua {
            g = u.delta.apply(&g).expect("delta applies").graph;
        }
    }

    fn snapshot(g: &AttributedGraph) -> Vec<u8> {
        scpm_graph::encode(g).to_vec()
    }

    #[test]
    fn percent_encoding_keeps_list_separators() {
        assert_eq!(percent_encode("a*1,b c"), "a%2A1,b%20c");
    }
}
