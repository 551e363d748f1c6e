//! E-INGEST — end-to-end ingestion pipeline check: materialize a
//! DBLP-style dataset as the on-disk interchange files real releases ship
//! in (edge list + vertex→attribute table), push them through the full
//! pipeline (parse → normalize → snapshot encode → decode → parallel SCPM
//! run), and verify the mined report is **byte-identical** to mining the
//! same graph constructed in memory.
//!
//! ```text
//! cargo run --release -p scpm-bench --bin exp_ingest [scale] [seed] [threads]
//! ```
//!
//! Emits one TSV row per pipeline stage (`stage  seconds  detail`) and
//! exits nonzero if any equivalence check fails — CI runs this as the
//! ingestion smoke test.

use std::process::ExitCode;

use scpm_bench::{arg_f64, arg_usize, row, timed};
use scpm_core::report::{render_patterns, render_top_tables};
use scpm_core::{ParallelConfig, Scpm, ScpmParams};
use scpm_datasets::ingest::{canonicalize_attributes, ingest_files, IngestOptions, SourceFormat};
use scpm_datasets::{dblp_like, ingest_cached};
use scpm_graph::io::{write_attr_table, write_edge_list};
use scpm_graph::snapshot;
use scpm_graph::AttributedGraph;

fn params() -> ScpmParams {
    ScpmParams::new(8, 0.5, 6)
        .with_eps_min(0.1)
        .with_top_k(3)
        .with_max_attrs(2)
}

/// The full rendered report (tables + patterns). The run summary is
/// excluded: it contains wall-clock timings.
fn report_of(g: &AttributedGraph, result: &scpm_core::ScpmResult) -> String {
    format!(
        "{}\n{}",
        render_top_tables(g, result, 10),
        render_patterns(g, result, 10)
    )
}

fn main() -> ExitCode {
    let scale = arg_f64(1, 0.01);
    let seed = arg_usize(2, 42) as u64;
    let threads = arg_usize(3, 2);
    let dir = std::env::temp_dir().join(format!("scpm_exp_ingest_{seed}"));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create work dir");

    println!("# exp_ingest scale={scale} seed={seed} threads={threads}");
    println!("stage\tseconds\tdetail");

    // Generate the reference dataset in memory.
    let (dataset, secs) = timed(|| dblp_like(scale, seed));
    let graph = dataset.graph;
    row!(
        "generate",
        format!("{secs:.3}"),
        format!(
            "n={} m={} attrs={}",
            graph.num_vertices(),
            graph.num_edges(),
            graph.num_attributes()
        )
    );

    // Materialize the on-disk release shape. Plain (non-atomic) creates
    // are fine: these files are regenerated at the top of every run and
    // consumed only below, so a torn write costs a re-run, not state.
    let edges_path = dir.join("dblp.edges");
    let attrs_path = dir.join("dblp.attrs");
    let (_, secs) = timed(|| {
        write_edge_list(
            graph.graph(),
            std::fs::File::create(&edges_path).expect("create edge file"),
        )
        .expect("write edge list");
        write_attr_table(
            &graph,
            std::fs::File::create(&attrs_path).expect("create attr file"),
        )
        .expect("write attr table");
    });
    let disk_bytes = std::fs::metadata(&edges_path).map(|m| m.len()).unwrap_or(0)
        + std::fs::metadata(&attrs_path).map(|m| m.len()).unwrap_or(0);
    row!(
        "write-files",
        format!("{secs:.3}"),
        format!("{disk_bytes} bytes")
    );

    // Ingest: parse + normalize.
    let (ingested, secs) = timed(|| {
        ingest_files(
            SourceFormat::EdgeList,
            &edges_path,
            Some(&attrs_path),
            &IngestOptions::default(),
        )
        .expect("ingest")
    });
    let parse = ingested.report.parse.clone().unwrap_or_default();
    row!(
        "ingest",
        format!("{secs:.3}"),
        format!(
            "numeric_ids={} dup_edges={} dup_pairs={}",
            ingested.report.numeric_ids, parse.duplicate_edges_merged, parse.duplicate_pairs_merged
        )
    );

    // Snapshot round-trip. Atomic write: this snapshot is read back (and
    // may be reused as a cache), so it must never exist in a torn state.
    let snap_path = dir.join("dblp.snap");
    let (bytes, secs) = timed(|| snapshot::encode(&ingested.graph));
    scpm_graph::write_atomic(&snap_path, &bytes).expect("write snapshot");
    row!(
        "encode",
        format!("{secs:.3}"),
        format!("{} bytes", bytes.len())
    );
    let (loaded, secs) = timed(|| snapshot::load_snapshot(&snap_path).expect("load snapshot"));
    row!("decode", format!("{secs:.3}"), "checksum verified");

    // Mine the ingested path (parallel driver) and the in-memory path
    // (serial driver) — the suite guarantees those agree bit-for-bit.
    let config = ParallelConfig::new(threads);
    let (from_disk, secs) = timed(|| Scpm::new(&loaded, params()).run_scheduled(&config));
    row!(
        "mine-ingested",
        format!("{secs:.3}"),
        format!("patterns={}", from_disk.patterns.len())
    );
    let reference = canonicalize_attributes(&graph);
    let (in_memory, secs) = timed(|| Scpm::new(&reference, params()).run());
    row!(
        "mine-in-memory",
        format!("{secs:.3}"),
        format!("patterns={}", in_memory.patterns.len())
    );

    // Byte-identical verification: snapshots and rendered reports.
    let mut failures = 0;
    let snap_identical = snapshot::encode(&reference).as_ref() == bytes.as_ref();
    if !snap_identical {
        eprintln!("FAIL: ingested snapshot differs from in-memory snapshot");
        failures += 1;
    }
    let report_disk = report_of(&loaded, &from_disk);
    let report_mem = report_of(&reference, &in_memory);
    let report_identical = report_disk == report_mem;
    if !report_identical {
        eprintln!("FAIL: mined reports differ\n--- ingested ---\n{report_disk}\n--- in-memory ---\n{report_mem}");
        failures += 1;
    }
    row!(
        "verify",
        "0.000",
        format!("snapshot_identical={snap_identical} report_identical={report_identical}")
    );

    // Cached re-ingest must hit and reproduce the same graph.
    let cache_dir = dir.join("cache");
    let opts = IngestOptions::default();
    let (first, hit1) = ingest_cached(
        &cache_dir,
        SourceFormat::EdgeList,
        &edges_path,
        Some(&attrs_path),
        &opts,
    )
    .expect("cold ingest_cached");
    let ((second, hit2), secs) = timed(|| {
        ingest_cached(
            &cache_dir,
            SourceFormat::EdgeList,
            &edges_path,
            Some(&attrs_path),
            &opts,
        )
        .expect("warm ingest_cached")
    });
    let cache_ok =
        !hit1 && hit2 && snapshot::encode(&first).as_ref() == snapshot::encode(&second).as_ref();
    if !cache_ok {
        eprintln!("FAIL: ingest cache did not hit or returned a different graph");
        failures += 1;
    }
    row!("cache-reload", format!("{secs:.3}"), format!("hit={hit2}"));

    std::fs::remove_dir_all(&dir).ok();
    if failures == 0 {
        println!("# OK: raw files → snapshot → mine is byte-identical to the in-memory path");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
