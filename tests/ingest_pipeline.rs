//! End-to-end ingestion: an on-disk edge-list + attribute-table dataset,
//! pushed through `ingest → snapshot → mine`, must produce a report
//! byte-identical to mining the same graph constructed in memory — at the
//! library level and through the `scpm` binary.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use scpm_core::report::{render_patterns, render_top_tables};
use scpm_core::{ParallelConfig, Scpm, ScpmParams, ScpmResult};
use scpm_datasets::dblp_like;
use scpm_datasets::ingest::{
    canonicalize_attributes, ingest_files, IngestOptions, SourceFormat, UnknownVertexPolicy,
};
use scpm_graph::io::{write_attr_table, write_edge_list};
use scpm_graph::snapshot;
use scpm_graph::AttributedGraph;

fn params() -> ScpmParams {
    ScpmParams::new(8, 0.5, 6)
        .with_eps_min(0.1)
        .with_top_k(2)
        .with_max_attrs(2)
}

/// The rendered mining report (tables + patterns; the run summary carries
/// wall-clock timings and is compared separately, stripped).
fn report_of(g: &AttributedGraph, r: &ScpmResult) -> String {
    format!(
        "{}\n{}",
        render_top_tables(g, r, 10),
        render_patterns(g, r, 10)
    )
}

fn workdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("scpm_it_ingest_{tag}"));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Writes `g` in the on-disk release shape (edge list + attribute table).
fn materialize(g: &AttributedGraph, dir: &Path) -> (PathBuf, PathBuf) {
    let edges = dir.join("g.edges");
    let attrs = dir.join("g.attrs");
    write_edge_list(g.graph(), std::fs::File::create(&edges).unwrap()).unwrap();
    write_attr_table(g, std::fs::File::create(&attrs).unwrap()).unwrap();
    (edges, attrs)
}

#[test]
fn on_disk_pipeline_is_byte_identical_to_in_memory() {
    let dir = workdir("lib");
    let graph = dblp_like(0.005, 17).graph;
    let (edges, attrs) = materialize(&graph, &dir);

    // Disk path: parse → normalize → snapshot round-trip → parallel mine.
    let ingested = ingest_files(
        SourceFormat::EdgeList,
        &edges,
        Some(&attrs),
        &IngestOptions::default(),
    )
    .unwrap();
    assert!(ingested.report.numeric_ids, "ids should pass through");
    let snap = dir.join("g.snap");
    snapshot::save_snapshot(&ingested.graph, &snap).unwrap();
    let loaded = snapshot::load_snapshot(&snap).unwrap();
    let mined_disk = Scpm::new(&loaded, params()).run_scheduled(&ParallelConfig::new(2));

    // In-memory path: canonical form of the very same graph, serial mine.
    let reference = canonicalize_attributes(&graph);
    let mined_mem = Scpm::new(&reference, params()).run();

    // Snapshots and reports are byte-identical.
    assert_eq!(
        snapshot::encode(&reference).as_ref(),
        snapshot::encode(&loaded).as_ref(),
        "snapshot bytes differ between disk and in-memory paths"
    );
    assert_eq!(
        report_of(&loaded, &mined_disk),
        report_of(&reference, &mined_mem),
        "mined reports differ between disk and in-memory paths"
    );
}

#[test]
fn adjacency_variant_ingests_to_the_same_graph() {
    let dir = workdir("adj");
    let graph = dblp_like(0.004, 11).graph;
    let (edges, attrs) = materialize(&graph, &dir);
    let adj = dir.join("g.adj");
    scpm_graph::io::write_adjacency(graph.graph(), std::fs::File::create(&adj).unwrap()).unwrap();

    let from_edges = ingest_files(
        SourceFormat::EdgeList,
        &edges,
        Some(&attrs),
        &IngestOptions::default(),
    )
    .unwrap();
    let from_adj = ingest_files(
        SourceFormat::Adjacency,
        &adj,
        Some(&attrs),
        &IngestOptions::default(),
    )
    .unwrap();
    assert_eq!(
        snapshot::encode(&from_edges.graph).as_ref(),
        snapshot::encode(&from_adj.graph).as_ref(),
        "edge-list and adjacency ingests disagree"
    );
    // The adjacency file lists every edge twice; normalization merged them.
    let parse = from_adj.report.parse.unwrap();
    assert_eq!(parse.duplicate_edges_merged, from_adj.report.edges);
}

#[test]
fn unified_format_ingests_equivalently() {
    let dir = workdir("unified");
    let graph = dblp_like(0.004, 13).graph;
    let unified = dir.join("g.scpm");
    scpm_graph::io::save_attributed(&graph, &unified).unwrap();
    let out = ingest_files(
        SourceFormat::Unified,
        &unified,
        None,
        &IngestOptions::default(),
    )
    .unwrap();
    assert_eq!(
        snapshot::encode(&out.graph).as_ref(),
        snapshot::encode(&canonicalize_attributes(&graph)).as_ref()
    );
}

#[test]
fn strict_vertex_mode_rejects_typos() {
    let dir = workdir("strict");
    std::fs::write(dir.join("g.edges"), "0 1\n1 2\n").unwrap();
    std::fs::write(dir.join("g.attrs"), "0 db\n99 ml\n").unwrap();
    let opts = IngestOptions {
        unknown_vertices: UnknownVertexPolicy::Error,
        ..IngestOptions::default()
    };
    let err = ingest_files(
        SourceFormat::EdgeList,
        &dir.join("g.edges"),
        Some(&dir.join("g.attrs")),
        &opts,
    )
    .unwrap_err();
    assert!(err.to_string().contains("99"), "{err}");
}

// ---- CLI-level pipeline ----

fn scpm(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_scpm"))
        .args(args)
        .output()
        .expect("failed to spawn scpm binary")
}

/// Mining stdout minus the run-summary line (it contains wall-clock time).
fn stdout_without_summary(out: &Output) -> String {
    assert!(
        out.status.success(),
        "scpm failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter(|l| !l.starts_with("examined="))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn cli_ingest_then_mine_snapshot_matches_in_memory_graph() {
    let dir = workdir("cli");
    let graph = dblp_like(0.005, 19).graph;
    let (edges, attrs) = materialize(&graph, &dir);

    // Disk path through the binary: ingest, then mine the snapshot.
    let ingested_snap = dir.join("ingested.snap");
    let out = scpm(&[
        "ingest",
        "--edges",
        edges.to_str().unwrap(),
        "--attrs",
        attrs.to_str().unwrap(),
        "--out",
        ingested_snap.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("numeric ids"), "{text}");
    assert!(text.contains("snapshot v3"), "{text}");

    // In-memory path: write the canonical graph's snapshot directly.
    let reference_snap = dir.join("reference.snap");
    snapshot::save_snapshot(&canonicalize_attributes(&graph), &reference_snap).unwrap();
    // The two snapshot files are byte-identical on disk.
    assert_eq!(
        std::fs::read(&ingested_snap).unwrap(),
        std::fs::read(&reference_snap).unwrap()
    );

    let mine_args = |snap: &Path| -> Vec<String> {
        vec![
            "mine".into(),
            "--snapshot".into(),
            snap.to_str().unwrap().into(),
            "--sigma-min".into(),
            "8".into(),
            "--min-size".into(),
            "6".into(),
            "--eps-min".into(),
            "0.1".into(),
            "--max-attrs".into(),
            "2".into(),
            "--top-k".into(),
            "2".into(),
        ]
    };
    let run = |snap: &Path| {
        let args = mine_args(snap);
        let refs: Vec<&str> = args.iter().map(String::as_str).collect();
        stdout_without_summary(&scpm(&refs))
    };
    assert_eq!(
        run(&ingested_snap),
        run(&reference_snap),
        "CLI mining output differs between ingested and in-memory snapshots"
    );
}

#[test]
fn cli_ingest_error_paths_exit_nonzero() {
    let dir = workdir("cli_err");
    let edges = dir.join("g.edges");
    std::fs::write(&edges, "0 1\n1\n").unwrap(); // truncated second line
    let out = scpm(&[
        "ingest",
        "--edges",
        edges.to_str().unwrap(),
        "--out",
        dir.join("g.snap").to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("line 2"), "{err}");

    // Stale snapshot (version 1 header) fails cleanly through mine.
    let graph = dblp_like(0.003, 7).graph;
    let mut raw = snapshot::encode(&graph).to_vec();
    raw[8..12].copy_from_slice(&1u32.to_le_bytes());
    let stale = dir.join("stale.snap");
    std::fs::write(&stale, &raw).unwrap();
    let out = scpm(&["mine", "--snapshot", stale.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("version 1"), "{err}");
}
