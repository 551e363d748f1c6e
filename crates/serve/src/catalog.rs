//! The immutable, queryable pattern catalog a server generation publishes.
//!
//! A [`PatternCatalog`] freezes one mining run — the [`ScpmResult`] plus
//! everything needed to answer queries without touching the graph again
//! (attribute names, the name→id map, the vertex count). Handlers clone an
//! `Arc<PatternCatalog>` out of the server's swap slot and answer entirely
//! from that snapshot, so a concurrent re-mine can never produce a torn
//! response: every reply is derived from exactly one generation, and the
//! generation number is stamped into the response envelope.
//!
//! All JSON here is rendered through [`crate::json::Json`], whose output
//! is byte-stable — [`PatternCatalog::full_json`] over the same snapshot
//! and parameters is byte-identical no matter whether it was produced by
//! `scpm mine --json`, the first server generation, or a `POST /mine`
//! re-mine at any thread count (the parallel driver's output is
//! bit-identical to the serial one).

use std::collections::HashMap;

use scpm_core::{AttributeSetReport, Pattern, ScpmParams, ScpmResult};
use scpm_graph::attributed::{AttrId, AttributedGraph};
use scpm_graph::csr::VertexId;

use crate::http::HttpError;
use crate::json::Json;

/// Ranking key of `GET /top`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TopBy {
    /// Descending normalized structural correlation `δ_lb`.
    Delta,
    /// Descending structural correlation `ε`.
    Epsilon,
    /// Descending support `σ`.
    Support,
}

impl TopBy {
    /// Parses the `by` query parameter.
    pub fn parse(s: &str) -> Result<TopBy, HttpError> {
        match s {
            "delta" => Ok(TopBy::Delta),
            "epsilon" => Ok(TopBy::Epsilon),
            "support" => Ok(TopBy::Support),
            other => Err(HttpError::invalid_parameter(format!(
                "invalid `by` value `{other}` (want delta|epsilon|support)"
            ))),
        }
    }

    fn as_str(self) -> &'static str {
        match self {
            TopBy::Delta => "delta",
            TopBy::Epsilon => "epsilon",
            TopBy::Support => "support",
        }
    }
}

/// One immutable catalog generation: a mining result frozen for serving.
#[derive(Debug)]
pub struct PatternCatalog {
    generation: u64,
    params: ScpmParams,
    attr_names: Vec<String>,
    name_to_id: HashMap<String, AttrId>,
    num_vertices: usize,
    result: ScpmResult,
}

impl PatternCatalog {
    /// Freezes `result` (mined from `graph` under `params`) as catalog
    /// generation `generation`.
    pub fn build(
        graph: &AttributedGraph,
        params: &ScpmParams,
        result: ScpmResult,
        generation: u64,
    ) -> Self {
        let attr_names: Vec<String> = (0..graph.num_attributes())
            .map(|a| graph.attr_name(a as AttrId).to_string())
            .collect();
        let name_to_id = attr_names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.clone(), i as AttrId))
            .collect();
        PatternCatalog {
            generation,
            params: params.clone(),
            attr_names,
            name_to_id,
            num_vertices: graph.num_vertices(),
            result,
        }
    }

    /// This catalog's generation number (0 = the startup mine; each
    /// `POST /mine` swap increments it).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The parameters this catalog was mined under.
    pub fn params(&self) -> &ScpmParams {
        &self.params
    }

    /// The frozen mining result.
    pub fn result(&self) -> &ScpmResult {
        &self.result
    }

    /// Attribute names, indexed by [`AttrId`].
    fn names(&self, attrs: &[AttrId]) -> Json {
        Json::Arr(
            attrs
                .iter()
                .map(|&a| Json::str(self.attr_names[a as usize].clone()))
                .collect(),
        )
    }

    fn report_json(&self, r: &AttributeSetReport) -> Json {
        Json::Obj(vec![
            ("attrs".into(), self.names(&r.attrs)),
            ("support".into(), Json::Int(r.support as u64)),
            ("covered".into(), Json::Int(r.covered as u64)),
            ("epsilon".into(), Json::Num(r.epsilon)),
            ("delta_lb".into(), Json::Num(r.delta_lb)),
            ("qualified".into(), Json::Bool(r.qualified)),
        ])
    }

    fn pattern_json(&self, p: &Pattern) -> Json {
        Json::Obj(vec![
            ("attrs".into(), self.names(&p.attrs)),
            (
                "vertices".into(),
                Json::Arr(
                    p.clique
                        .vertices
                        .iter()
                        .map(|&v| Json::Int(u64::from(v)))
                        .collect(),
                ),
            ),
            ("size".into(), Json::Int(p.clique.size() as u64)),
            ("gamma".into(), Json::Num(p.clique.min_degree_ratio)),
            ("density".into(), Json::Num(p.clique.edge_density)),
        ])
    }

    /// `usize::MAX` means "unbounded" in the params; render it as `null`.
    fn bounded(n: usize) -> Json {
        if n == usize::MAX {
            Json::Null
        } else {
            Json::Int(n as u64)
        }
    }

    /// The mining parameters as JSON (the catalog's provenance).
    pub fn params_json(&self) -> Json {
        Json::Obj(vec![
            ("sigma_min".into(), Json::Int(self.params.sigma_min as u64)),
            ("gamma".into(), Json::Num(self.params.quasi_clique.gamma)),
            (
                "min_size".into(),
                Json::Int(self.params.quasi_clique.min_size as u64),
            ),
            ("eps_min".into(), Json::Num(self.params.eps_min)),
            ("delta_min".into(), Json::Num(self.params.delta_min)),
            ("top_k".into(), Self::bounded(self.params.k)),
            ("min_attrs".into(), Json::Int(self.params.min_attrs as u64)),
            ("max_attrs".into(), Self::bounded(self.params.max_attrs)),
        ])
    }

    /// Deterministic run counters (everything in
    /// [`scpm_core::ScpmStats`] except the wall-clock `elapsed`).
    pub fn stats_json(&self) -> Json {
        let s = &self.result.stats;
        Json::Obj(vec![
            (
                "attribute_sets_examined".into(),
                Json::Int(s.attribute_sets_examined),
            ),
            (
                "attribute_sets_qualified".into(),
                Json::Int(s.attribute_sets_qualified),
            ),
            ("pruned_support".into(), Json::Int(s.pruned_support)),
            ("pruned_eps_bound".into(), Json::Int(s.pruned_eps_bound)),
            ("pruned_delta_bound".into(), Json::Int(s.pruned_delta_bound)),
            ("qc_nodes_coverage".into(), Json::Int(s.qc_nodes_coverage)),
            ("qc_nodes_topk".into(), Json::Int(s.qc_nodes_topk)),
            ("qc_edge_tests".into(), Json::Int(s.qc_edge_tests)),
            ("qc_kernel_ops".into(), Json::Int(s.qc_kernel_ops)),
            ("qc_fused_ops".into(), Json::Int(s.qc_fused_ops)),
            ("qc_blocks_skipped".into(), Json::Int(s.qc_blocks_skipped)),
            ("qc_probes_elided".into(), Json::Int(s.qc_probes_elided)),
            ("qc_batch_ops".into(), Json::Int(s.qc_batch_ops)),
        ])
    }

    /// The whole catalog as one JSON object — the byte-identity surface
    /// shared by `GET /catalog` and `scpm mine --json`. Excludes the
    /// generation and wall-clock timing, which are serving-side state.
    pub fn full_json(&self) -> Json {
        Json::Obj(vec![
            ("params".into(), self.params_json()),
            ("num_vertices".into(), Json::Int(self.num_vertices as u64)),
            (
                "num_attributes".into(),
                Json::Int(self.attr_names.len() as u64),
            ),
            (
                "num_reports".into(),
                Json::Int(self.result.reports.len() as u64),
            ),
            (
                "num_patterns".into(),
                Json::Int(self.result.patterns.len() as u64),
            ),
            (
                "reports".into(),
                Json::Arr(
                    self.result
                        .reports
                        .iter()
                        .map(|r| self.report_json(r))
                        .collect(),
                ),
            ),
            (
                "patterns".into(),
                Json::Arr(
                    self.result
                        .patterns
                        .iter()
                        .map(|p| self.pattern_json(p))
                        .collect(),
                ),
            ),
            ("stats".into(), self.stats_json()),
        ])
    }

    /// Resolves a comma-separated attribute list to sorted, deduplicated
    /// ids; unknown names are a 422.
    fn resolve_attrs(&self, list: &str) -> Result<Vec<AttrId>, HttpError> {
        let mut ids = Vec::new();
        for name in list.split(',') {
            let name = name.trim();
            if name.is_empty() {
                continue;
            }
            let id = self.name_to_id.get(name).copied().ok_or_else(|| {
                HttpError::new(
                    422,
                    "unknown_attribute",
                    format!("unknown attribute `{name}`"),
                )
            })?;
            ids.push(id);
        }
        if ids.is_empty() {
            return Err(HttpError::invalid_parameter("empty attribute list"));
        }
        ids.sort_unstable();
        ids.dedup();
        Ok(ids)
    }

    /// `GET /patterns?attrs=A,B` — the report and patterns of one exact
    /// attribute set (`report` is `null` for sets the run never examined).
    pub fn query_attrs(&self, list: &str) -> Result<Json, HttpError> {
        let ids = self.resolve_attrs(list)?;
        let report = self
            .result
            .report_for(&ids)
            .map(|r| self.report_json(r))
            .unwrap_or(Json::Null);
        let patterns: Vec<Json> = self
            .result
            .patterns_for(&ids)
            .into_iter()
            .map(|p| self.pattern_json(p))
            .collect();
        Ok(Json::Obj(vec![
            ("attrs".into(), self.names(&ids)),
            ("report".into(), report),
            ("count".into(), Json::Int(patterns.len() as u64)),
            ("patterns".into(), Json::Arr(patterns)),
        ]))
    }

    /// `GET /patterns/covering?v=N` — all patterns whose quasi-clique
    /// contains vertex `v`.
    pub fn query_covering(&self, v: VertexId) -> Result<Json, HttpError> {
        if (v as usize) >= self.num_vertices {
            return Err(HttpError::invalid_parameter(format!(
                "vertex {v} out of range (graph has {} vertices)",
                self.num_vertices
            )));
        }
        let patterns: Vec<Json> = self
            .result
            .patterns_covering(v)
            .into_iter()
            .map(|p| self.pattern_json(p))
            .collect();
        Ok(Json::Obj(vec![
            ("vertex".into(), Json::Int(u64::from(v))),
            ("count".into(), Json::Int(patterns.len() as u64)),
            ("patterns".into(), Json::Arr(patterns)),
        ]))
    }

    /// `GET /reports?delta_min=X` — reports at or above a δ_lb threshold,
    /// in enumeration order.
    pub fn query_delta(&self, delta_min: f64) -> Result<Json, HttpError> {
        if !delta_min.is_finite() || delta_min < 0.0 {
            return Err(HttpError::invalid_parameter(format!(
                "delta_min must be a finite non-negative number, got {delta_min}"
            )));
        }
        let reports: Vec<Json> = self
            .result
            .reports_with_min_delta(delta_min)
            .into_iter()
            .map(|r| self.report_json(r))
            .collect();
        Ok(Json::Obj(vec![
            ("delta_min".into(), Json::Num(delta_min)),
            ("count".into(), Json::Int(reports.len() as u64)),
            ("reports".into(), Json::Arr(reports)),
        ]))
    }

    /// `GET /top?by=delta|epsilon|support&k=N` — the k best reports under
    /// one ranking (ties broken by attribute ids, like the CLI tables).
    pub fn query_top(&self, by: TopBy, k: usize) -> Result<Json, HttpError> {
        if k == 0 {
            return Err(HttpError::invalid_parameter("k must be at least 1"));
        }
        let rows = match by {
            TopBy::Delta => self.result.top_by_delta(k),
            TopBy::Epsilon => self.result.top_by_epsilon(k),
            TopBy::Support => self.result.top_by_support(k),
        };
        let reports: Vec<Json> = rows.into_iter().map(|r| self.report_json(r)).collect();
        Ok(Json::Obj(vec![
            ("by".into(), Json::str(by.as_str())),
            ("k".into(), Json::Int(k as u64)),
            ("count".into(), Json::Int(reports.len() as u64)),
            ("reports".into(), Json::Arr(reports)),
        ]))
    }

    /// Compact description of this generation (the `POST /mine` response
    /// and part of `GET /stats`).
    pub fn summary_json(&self) -> Json {
        Json::Obj(vec![
            ("generation".into(), Json::Int(self.generation)),
            (
                "reports".into(),
                Json::Int(self.result.reports.len() as u64),
            ),
            (
                "patterns".into(),
                Json::Int(self.result.patterns.len() as u64),
            ),
            (
                "qualified".into(),
                Json::Int(self.result.stats.attribute_sets_qualified),
            ),
            ("params".into(), self.params_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scpm_core::{Scpm, ScpmParams};
    use scpm_graph::figure1::figure1;

    fn table1_catalog() -> (AttributedGraph, PatternCatalog) {
        let g = figure1();
        let params = ScpmParams::new(3, 0.6, 4).with_eps_min(0.5).with_top_k(5);
        let result = Scpm::new(&g, params.clone()).run();
        let catalog = PatternCatalog::build(&g, &params, result, 0);
        (g, catalog)
    }

    #[test]
    fn full_json_is_reproducible_and_parses() {
        let (_, a) = table1_catalog();
        let (_, b) = table1_catalog();
        let ja = a.full_json().render();
        assert_eq!(ja, b.full_json().render());
        let parsed = Json::parse(&ja).unwrap();
        assert_eq!(parsed.get("num_reports").unwrap().as_u64(), Some(5));
        assert_eq!(parsed.get("num_patterns").unwrap().as_u64(), Some(7));
    }

    #[test]
    fn query_attrs_matches_report() {
        let (g, c) = table1_catalog();
        let out = c.query_attrs("B,A").unwrap(); // order-insensitive
        let report = out.get("report").unwrap();
        assert_eq!(report.get("support").unwrap().as_u64(), Some(6));
        let a = g.attr_id("A").unwrap();
        let b = g.attr_id("B").unwrap();
        let expected = c.result().report_for(&[a.min(b), a.max(b)]).unwrap();
        assert_eq!(
            report.get("epsilon").unwrap().as_f64().unwrap(),
            expected.epsilon
        );
        assert!(c.query_attrs("NOPE").is_err());
        assert!(c.query_attrs("").is_err());
    }

    #[test]
    fn covering_and_delta_and_top() {
        let (_, c) = table1_catalog();
        let out = c.query_covering(0).unwrap();
        let count = out.get("count").unwrap().as_u64().unwrap();
        let direct = c.result().patterns_covering(0).len() as u64;
        assert_eq!(count, direct);
        assert!(c.query_covering(u32::MAX).is_err());

        let out = c.query_delta(0.0).unwrap();
        assert_eq!(
            out.get("count").unwrap().as_u64().unwrap() as usize,
            c.result().reports.len()
        );
        assert!(c.query_delta(f64::NAN).is_err());
        assert!(c.query_delta(-1.0).is_err());

        let out = c.query_top(TopBy::Support, 2).unwrap();
        let rows = out.get("reports").unwrap().as_array().unwrap();
        assert_eq!(rows.len(), 2);
        let s0 = rows[0].get("support").unwrap().as_u64().unwrap();
        let s1 = rows[1].get("support").unwrap().as_u64().unwrap();
        assert!(s0 >= s1);
        assert!(c.query_top(TopBy::Delta, 0).is_err());
        assert!(TopBy::parse("sideways").is_err());
    }

    #[test]
    fn unbounded_params_render_null() {
        let g = figure1();
        let params = ScpmParams::new(3, 0.6, 4); // k and max_attrs unbounded
        let result = Scpm::new(&g, params.clone()).run();
        let c = PatternCatalog::build(&g, &params, result, 3);
        let p = c.params_json();
        assert_eq!(p.get("top_k").unwrap(), &Json::Null);
        assert_eq!(p.get("max_attrs").unwrap(), &Json::Null);
        assert_eq!(c.generation(), 3);
    }
}
