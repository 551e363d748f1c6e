//! Set-up shared by every workload, the three mining paths, and the two
//! mining workloads (`citeseer-wide`, `skewed-search`).

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use scpm_core::{mine_mapped, run_parallel_traced, ParallelConfig, Scpm, ScpmParams, ScpmResult};
use scpm_datasets::{
    canonicalize_attributes, ingest_files_external, ExternalOptions, IngestOptions, SourceFormat,
    SyntheticDataset,
};
use scpm_graph::io::{write_attr_table, write_edge_list};
use scpm_graph::{save_snapshot, AttributedGraph, MappedSnapshot};
use scpm_quasiclique::Representation;

use crate::inputs::{prepare_graph, Spec};
use crate::load::Tally;
use crate::stats::{max, median};
use crate::trace::{top_level_ns, totals_by_name, Recorder};
use crate::walk::walk;
use crate::Report;

/// Record-buffer budget of the external ingest: small enough that
/// `citeseer-wide`'s edge and pair streams spill several sorted runs.
const INGEST_BUDGET: usize = 256 << 10;

/// Set-up repeats for at least this long (and at least three times), so
/// its median is read off many set-ups even where one takes milliseconds.
const SETUP_SECONDS: f64 = 2.0;

/// A workload's inputs, loaded the way a user loads a graph: generated,
/// written as a v3 snapshot, opened mapped, and read back in memory. Set-up
/// also writes the graph as text and ingests it under a memory budget
/// (`ingested`), the path a user takes from a dataset release.
pub struct Prepared {
    pub ds: SyntheticDataset,
    pub graph: AttributedGraph,
    pub snap: MappedSnapshot,
    pub ingested: PathBuf,
}

pub fn prepare(
    spec: &Spec,
    seed: u64,
    work: &Path,
    rec: &mut Recorder,
) -> Result<Prepared, String> {
    let (ds, g) = rec.time("datasets.generate", || {
        let ds = spec.generate();
        let g = prepare_graph(&ds.graph, seed);
        (ds, g)
    });
    let (edges, attrs) = (work.join("graph.edges"), work.join("graph.attrs"));
    rec.time("datasets.write_text", || write_text(&g, &edges, &attrs))
        .map_err(|e| format!("writing {}: {e}", edges.display()))?;
    let ingested = work.join("ingested.snap");
    let ext = ExternalOptions {
        memory_budget: INGEST_BUDGET,
        temp_dir: None,
    };
    rec.time("datasets.ingest", || {
        ingest_files_external(
            SourceFormat::EdgeList,
            &edges,
            Some(attrs.as_path()),
            &IngestOptions::default(),
            &ext,
            &ingested,
        )
    })
    .map_err(|e| format!("ingesting {}: {e}", edges.display()))?;

    let snap_path = work.join("graph.snap");
    rec.time("graph.snapshot.write", || save_snapshot(&g, &snap_path))
        .map_err(|e| format!("writing {}: {e}", snap_path.display()))?;
    let snap = rec
        .time("graph.snapshot.open", || MappedSnapshot::open(&snap_path))
        .map_err(|e| format!("opening {}: {e}", snap_path.display()))?;
    // Attribute ids stay as seeded: the snapshot of `g` is read back as it
    // is, since canonical renumbering would undo the permutation that is
    // this run's input.
    let graph = rec
        .time("graph.snapshot.decode", || snap.to_graph())
        .map_err(|e| format!("reading {}: {e}", snap_path.display()))?;
    Ok(Prepared {
        ds,
        graph,
        snap,
        ingested,
    })
}

fn write_text(g: &AttributedGraph, edges: &Path, attrs: &Path) -> std::io::Result<()> {
    write_edge_list(g.graph(), std::fs::File::create(edges)?)?;
    write_attr_table(g, std::fs::File::create(attrs)?)
}

/// Whether the budgeted ingest wrote exactly the snapshot of the
/// in-memory pipeline: the mined graph with canonical attribute ids.
pub fn ingest_matches(prep: &Prepared) -> bool {
    let want = scpm_graph::encode(&canonicalize_attributes(&prep.graph));
    std::fs::read(&prep.ingested).is_ok_and(|got| got[..] == want[..])
}

/// Runs `once` at least three times and for at least [`SETUP_SECONDS`],
/// returning the median wall time and the last result. Earlier results
/// go to `discard`, outside the timing.
pub fn repeat_setup<T>(
    mut once: impl FnMut() -> Result<T, String>,
    mut discard: impl FnMut(T),
) -> Result<(f64, T), String> {
    let mut times = Vec::new();
    loop {
        let t = Instant::now();
        let out = once()?;
        times.push(t.elapsed().as_secs_f64());
        if times.len() >= 3 && times.iter().sum::<f64>() >= SETUP_SECONDS {
            return Ok((median(&times).expect("timed set-up"), out));
        }
        discard(out);
    }
}

/// Everything a run reports except wall-clock: what every path of one
/// workload must agree on.
pub fn fingerprint(r: &ScpmResult) -> String {
    format!("{:?}|{:?}", r.reports, r.patterns)
}

/// The reference result every mine is checked against: the sorted-slice
/// representation, the repository's differential oracle.
pub fn reference(g: &AttributedGraph, params: &ScpmParams) -> ScpmResult {
    Scpm::new(g, params.clone().with_repr(Representation::Slice)).run()
}

/// A segment budget of a quarter of the frequent roots' combined CSR
/// footprint, so the mapped mine always runs several segments.
pub fn segment_budget(g: &AttributedGraph, sigma_min: usize) -> usize {
    let mut member = vec![false; g.num_vertices()];
    for a in g.attributes().filter(|&a| g.support(a) >= sigma_min) {
        for &v in g.vertices_with(a) {
            member[v as usize] = true;
        }
    }
    let footprint: usize = (0..g.num_vertices() as u32)
        .filter(|&v| member[v as usize])
        .map(|v| 8 * (g.graph().degree(v) + 1))
        .sum();
    (footprint / 4).max(1)
}

/// How many segments `mine_mapped` packs under `budget`: its greedy
/// packing over the frequent roots in ascending order, repeated here
/// because `mine_mapped` does not report it.
pub fn segment_count(g: &AttributedGraph, sigma_min: usize, budget: usize) -> usize {
    let cost = |v: u32| 8 * (g.graph().degree(v) + 1);
    let mut member = vec![false; g.num_vertices()];
    let (mut segments, mut used, mut current) = (0, 0usize, 0usize);
    for a in g.attributes().filter(|&a| g.support(a) >= sigma_min) {
        let vs = g.vertices_with(a);
        let added: usize = vs
            .iter()
            .filter(|&&v| !member[v as usize])
            .map(|&v| cost(v))
            .sum();
        if current > 0 && used + added > budget {
            segments += 1;
            member.iter_mut().for_each(|m| *m = false);
            used = vs.iter().map(|&v| cost(v)).sum();
            current = 0;
        } else {
            used += added;
        }
        vs.iter().for_each(|&v| member[v as usize] = true);
        current += 1;
    }
    segments + usize::from(current > 0)
}

/// Wall times of the three mining paths over one graph.
#[derive(Default)]
pub struct MineTimes {
    pub serial: Vec<f64>,
    pub two: Vec<f64>,
    pub mapped: Vec<f64>,
}

impl MineTimes {
    pub fn extend(&mut self, other: MineTimes) {
        self.serial.extend(other.serial);
        self.two.extend(other.two);
        self.mapped.extend(other.mapped);
    }
}

/// Mines `g` serially, with two threads, and mapped from `snap`, in a
/// rotating order, checking each result against `want`. Repeats until
/// at least `min_reps` rounds are done and `until` has passed.
#[allow(clippy::too_many_arguments)]
pub fn mine_rounds(
    g: &AttributedGraph,
    snap: &MappedSnapshot,
    params: &ScpmParams,
    budget: usize,
    want: &str,
    min_reps: usize,
    until: Instant,
    tally: &mut Tally,
) -> MineTimes {
    let mut times = MineTimes::default();
    let mut round = 0;
    while round < min_reps || Instant::now() < until {
        for k in 0..3 {
            let t = Instant::now();
            let (result, slot) = match (round + k) % 3 {
                0 => (Ok(Scpm::new(g, params.clone()).run()), &mut times.serial),
                1 => (
                    Ok(Scpm::new(g, params.clone()).run_scheduled(&ParallelConfig::new(2))),
                    &mut times.two,
                ),
                _ => (mine_mapped(snap, params.clone(), budget), &mut times.mapped),
            };
            slot.push(t.elapsed().as_secs_f64());
            tally.check(result.is_ok_and(|r| fingerprint(&r) == want));
        }
        round += 1;
    }
    times
}

/// Reports each path's fastest round. Interference from other work on
/// the host only ever adds time, and it comes in phases of several
/// seconds that move a run's median by up to half; the fastest round is
/// the estimate that stays put from run to run. The median is printed
/// alongside.
pub fn report_mine_times(r: &mut Report, t: &MineTimes) {
    for (name, xs) in [
        ("mine_s", &t.serial),
        ("mine_2t_s", &t.two),
        ("mine_mmap_s", &t.mapped),
    ] {
        let fastest = xs.iter().copied().fold(f64::INFINITY, f64::min);
        r.metric(name, fastest, "s");
        r.note(&format!(
            "{name}.median = {:.6} s over {} rounds (max {:.6})",
            median(xs).expect("at least one round"),
            xs.len(),
            max(xs).expect("at least one round")
        ));
    }
}

/// The untraced run of a mining workload.
pub fn run(
    spec: &Spec,
    seed: u64,
    seconds: u64,
    work: &Path,
    r: &mut Report,
) -> Result<(), String> {
    let (setup_s, prep) =
        repeat_setup(|| prepare(spec, seed, work, &mut Recorder::default()), drop)?;
    r.metric("setup_s", setup_s, "s");
    shape(r, &prep.graph);
    r.tally.check(ingest_matches(&prep));
    let want = fingerprint(&reference(&prep.graph, &spec.params));
    let budget = segment_budget(&prep.graph, spec.params.sigma_min);
    let until = Instant::now() + Duration::from_secs(seconds);
    let times = mine_rounds(
        &prep.graph,
        &prep.snap,
        &spec.params,
        budget,
        &want,
        1,
        until,
        &mut r.tally,
    );
    report_mine_times(r, &times);
    Ok(())
}

pub fn shape(r: &mut Report, g: &AttributedGraph) {
    r.show("graph.vertices", g.num_vertices() as f64);
    r.show("graph.edges", g.num_edges() as f64);
    r.show("graph.attributes", g.num_attributes() as f64);
}

/// The traced run of a mining workload.
pub fn run_traced(
    spec: &Spec,
    seed: u64,
    seconds: u64,
    work: &Path,
    r: &mut Report,
) -> Result<(), String> {
    let mut setup_rec = Recorder::default();
    let prep = prepare(spec, seed, work, &mut setup_rec)?;
    shape(r, &prep.graph);
    r.tally.check(ingest_matches(&prep));
    report_setup_layers(r, &setup_rec);
    let budget = segment_budget(&prep.graph, spec.params.sigma_min);
    r.metric(
        "core.segments.count",
        segment_count(&prep.graph, spec.params.sigma_min, budget) as f64,
        "count",
    );
    let mut walk_rec = Recorder::default();
    mine_layers(
        r,
        &prep.graph,
        &prep.snap,
        &spec.params,
        budget,
        seconds,
        &mut walk_rec,
    );
    crate::serve::not_applicable(r);
    write_spans(
        work,
        spec.name,
        &[("setup", &setup_rec), ("walk", &walk_rec)],
    )
}

pub fn report_setup_layers(r: &mut Report, rec: &Recorder) {
    let t = totals_by_name(rec.spans());
    let secs = |name: &str| t.get(name).map_or(0.0, |x| x.total_ns as f64 / 1e9);
    r.metric("datasets.generate_s", secs("datasets.generate"), "s");
    r.metric("datasets.ingest_s", secs("datasets.ingest"), "s");
    r.metric("graph.snapshot.write_s", secs("graph.snapshot.write"), "s");
    r.metric("graph.snapshot.open_s", secs("graph.snapshot.open"), "s");
    r.show("datasets.write_text_s", secs("datasets.write_text"));
    r.show("graph.snapshot.decode_s", secs("graph.snapshot.decode"));
}

/// The mining layers of the traced run: untraced baselines of the three
/// paths for a third of `seconds`, the scheduler's task trace, and traced
/// walks for the rest (at least one of each). Per-layer times are per
/// walk.
pub fn mine_layers(
    r: &mut Report,
    g: &AttributedGraph,
    snap: &MappedSnapshot,
    params: &ScpmParams,
    budget: usize,
    seconds: u64,
    rec: &mut Recorder,
) {
    let reference = reference(g, params);
    let want = fingerprint(&reference);
    let third = Duration::from_secs(seconds) / 3;
    let base = mine_rounds(
        g,
        snap,
        params,
        budget,
        &want,
        1,
        Instant::now() + third,
        &mut r.tally,
    );
    let serial = median(&base.serial).expect("one round");
    r.metric(
        "core.sched.speedup_2t",
        serial / median(&base.two).expect("one round"),
        "ratio",
    );
    let (traced, tasks) = run_parallel_traced(g, params.clone(), &ParallelConfig::new(2));
    r.tally.check(fingerprint(&traced) == want);
    let works: Vec<f64> = tasks.iter().map(|t| t.work() as f64).collect();
    let imbalance = match works.len() {
        0 => 1.0,
        n => works.iter().copied().fold(0.0, f64::max) / (works.iter().sum::<f64>() / n as f64),
    };
    r.metric("core.sched.imbalance", imbalance, "ratio");
    r.show("core.sched.tasks", works.len() as f64);

    // Each traced walk is paired with an untraced `Scpm::run` just before
    // it, so the two ratios below compare runs made under the same load.
    let until = Instant::now() + 2 * third;
    let (mut walls, mut untraced, mut counts) = (Vec::new(), Vec::new(), Vec::new());
    while walls.is_empty() || Instant::now() < until {
        let t = Instant::now();
        let run = Scpm::new(g, params.clone()).run();
        untraced.push(t.elapsed().as_secs_f64());
        r.tally.check(fingerprint(&run) == want);
        let t = Instant::now();
        let (walked, c) = walk(g, params, rec);
        walls.push(t.elapsed().as_nanos() as f64);
        // The walk only describes the program if it is the same walk.
        let s = &walked.stats;
        let want_stats = &reference.stats;
        let same = fingerprint(&walked) == want
            && (
                s.attribute_sets_examined,
                s.attribute_sets_qualified,
                s.qc_nodes_coverage,
                s.qc_nodes_topk,
            ) == (
                want_stats.attribute_sets_examined,
                want_stats.attribute_sets_qualified,
                want_stats.qc_nodes_coverage,
                want_stats.qc_nodes_topk,
            );
        r.tally.check(same);
        counts.push((walked.stats, c));
    }
    let walks = walls.len() as f64;
    let untraced_s = median(&untraced).expect("one run");
    r.metric(
        "trace.overhead",
        median(&walls).expect("one walk") / 1e9 / untraced_s,
        "ratio",
    );
    r.show("trace.walks", walks);
    let t = totals_by_name(rec.spans());
    let busy = |name: &str| t.get(name).map_or(0.0, |x| x.total_ns as f64 / 1e9 / walks);
    let calls = |name: &str| t.get(name).map_or(0.0, |x| x.calls as f64 / walks);
    // The walk's own work: its top-level spans less the engine steps it
    // repeats for attribution. Compared with the untraced program, it
    // drops below 1 when `Scpm::run` does work the walk does not.
    let repeats = |name: &str| busy(&format!("{name}.repeat"));
    let repeated = repeats("quasiclique.coverage") + repeats("quasiclique.topk");
    let walked = top_level_ns(rec.spans()) as f64 / 1e9 / walks - repeated;
    r.metric("trace.coverage", walked / untraced_s, "ratio");

    let (stats, c) = counts[0];
    let repeat = counts.iter().all(|(s, _)| {
        (s.qc_kernel_ops, s.qc_edge_tests, s.pruned_support)
            == (
                stats.qc_kernel_ops,
                stats.qc_edge_tests,
                stats.pruned_support,
            )
    });
    r.tally.check(repeat);
    r.metric("itemset.intersect.calls", c.intersect_calls as f64, "count");
    r.metric("itemset.intersect.busy_s", busy("itemset.intersect"), "s");
    r.metric(
        "graph.extract.calls",
        calls("graph.extract") + calls("graph.extract.reduced"),
        "count",
    );
    r.metric("graph.extract.vertices", c.extract_vertices as f64, "count");
    r.metric(
        "graph.extract.busy_s",
        busy("graph.extract") + busy("graph.extract.reduced"),
        "s",
    );
    r.metric("graph.project.busy_s", busy("graph.project"), "s");
    r.metric("graph.pack.busy_s", busy("graph.pack"), "s");
    r.metric("graph.pack.words", c.pack_words as f64, "count");
    r.metric("quasiclique.reduce.busy_s", busy("quasiclique.reduce"), "s");
    r.metric(
        "quasiclique.reduce.survivor_ratio",
        c.reduce_out as f64 / c.reduce_in.max(1) as f64,
        "ratio",
    );
    r.metric(
        "quasiclique.search.busy_s",
        (busy("quasiclique.search") - repeats("quasiclique.coverage")).max(0.0),
        "s",
    );
    r.metric(
        "quasiclique.topk.busy_s",
        (busy("quasiclique.topk") - repeats("quasiclique.topk")).max(0.0),
        "s",
    );
    r.metric(
        "qc_nodes",
        (stats.qc_nodes_coverage + stats.qc_nodes_topk) as f64,
        "count",
    );
    r.metric("kernel_ops", stats.qc_kernel_ops as f64, "count");
    r.metric("edge_tests", stats.qc_edge_tests as f64, "count");
    r.metric(
        "core.lattice.sets_examined",
        stats.attribute_sets_examined as f64,
        "count",
    );
    r.metric(
        "core.lattice.sets_qualified",
        stats.attribute_sets_qualified as f64,
        "count",
    );
    r.metric(
        "core.lattice.pruned",
        (stats.pruned_support + stats.pruned_eps_bound + stats.pruned_delta_bound) as f64,
        "count",
    );
    r.metric("core.null.busy_s", busy("core.null"), "s");
    r.metric(
        "core.null.cache_hit_ratio",
        c.null_hits as f64 / (c.null_hits + c.null_misses).max(1) as f64,
        "ratio",
    );
}

pub fn write_spans(work: &Path, workload: &str, recs: &[(&str, &Recorder)]) -> Result<(), String> {
    let dir = work.parent().expect("work dir has a parent").join("spans");
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    for (part, rec) in recs {
        let path = dir.join(format!("{workload}-{part}.tsv"));
        rec.write_tsv(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    Ok(())
}
