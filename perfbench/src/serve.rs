//! The `serve-update-mix` workload: reads and writes over one served
//! catalog, then a crash and a recovery.

use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use scpm_core::{
    checkpoint_with, recover, replay_mine, DataDir, DirtySet, IncrementalCtx, NullModelCache,
    ParallelConfig, Scpm, ScpmParams,
};
use scpm_graph::{fnv1a64, save_snapshot, AttributedGraph, FaultInjector, MappedSnapshot};
use scpm_serve::{Client, DurabilityConfig, Json, PatternCatalog, ServeConfig, Server};

use crate::inputs::{query_mix, update_stream, Query, Spec, Update, UPDATE_KINDS};
use crate::load::{classify, open_loop, Outcome, Tally};
use crate::mine::{
    fingerprint, ingest_matches, mine_layers, mine_rounds, prepare, reference, repeat_setup,
    report_mine_times, report_setup_layers, segment_budget, segment_count, shape, write_spans,
};
use crate::stats::{max, median, tail};
use crate::trace::{totals_by_name, Recorder};
use crate::Report;

/// HTTP worker threads of the server; the client side is one reader and
/// one writer, so at most two connections are open at once.
const HTTP_THREADS: usize = 2;
/// Scheduler threads of the server's mines.
const MINE_THREADS: usize = 1;
/// Deltas per second of the open-loop writer. An update holds the mine
/// lock under 1 ms for a tail attribute or a new vertex and ~100 ms for an
/// edge between communities or head churn (~40 ms over the mix), so the
/// lock is busy about a sixth of the time and the queue does not grow.
const UPDATE_RATE: f64 = 4.0;
/// Deltas between checkpoints (the server's default).
const CHECKPOINT_EVERY: u64 = 8;
/// Client socket timeout; a request that takes longer has failed.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(10);
/// Recoveries timed per run, each from the same crashed directory.
const RECOVERIES: usize = 5;
/// Least rounds of each mining path per mining window.
const MINE_ROUNDS: usize = 3;

fn config(params: &ScpmParams, dir: &Path) -> ServeConfig {
    ServeConfig::new(params.clone(), HTTP_THREADS)
        .with_mine_threads(MINE_THREADS)
        .with_durability(DurabilityConfig::new(dir).with_checkpoint_every(CHECKPOINT_EVERY))
}

fn reset_dir(dir: &Path) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("clearing {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))
}

fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    reset_dir(to)?;
    let entries =
        std::fs::read_dir(from).map_err(|e| format!("reading {}: {e}", from.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| e.to_string())?;
        std::fs::copy(entry.path(), to.join(entry.file_name())).map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// What the clients saw.
struct Load {
    query_ms: Vec<f64>,
    update_ms: Vec<f64>,
    lateness_ms: Vec<f64>,
    tally: Tally,
    /// The deltas the server acknowledged, in order.
    applied: Vec<usize>,
}

/// The hash of the body the server must send for `q` from catalog `c`.
fn expected_hash(q: &Query, c: &PatternCatalog) -> Option<u64> {
    let body = Json::Obj(vec![
        ("result".into(), q.answer(c).ok()?),
        ("error".into(), Json::Null),
        ("generation".into(), Json::Int(c.generation())),
    ]);
    Some(fnv1a64(body.render().as_bytes()))
}

/// One closed-loop reader and one open-loop writer against `server` for
/// `seconds`. Every read is checked against the catalog generation it
/// reports; every write against the catalog the server swapped in.
fn drive(server: &Server, queries: &[Query], updates: &[Update], seconds: u64) -> Load {
    let client = Client::new(server.addr()).with_timeout(CLIENT_TIMEOUT);
    let catalogs = Mutex::new(BTreeMap::from([(0u64, server.catalog())]));
    // The catalog of generation `g`. The writer records each generation
    // before it sends the next update, so a generation it has not recorded
    // yet is still the server's live one.
    let catalog_of = |g: u64| {
        let mut map = catalogs.lock().expect("catalog map");
        if let Some(c) = map.get(&g) {
            return Some(Arc::clone(c));
        }
        let c = server.catalog();
        (c.generation() == g).then(|| Arc::clone(map.entry(g).or_insert(c)))
    };
    let writer_done = AtomicBool::new(false);
    let interval = Duration::from_secs_f64(1.0 / UPDATE_RATE);
    let run_for = Duration::from_secs(seconds);
    let (writes, reads) = std::thread::scope(|s| {
        let writer = s.spawn(|| {
            let mut outcomes = Vec::new();
            let timed = open_loop(interval, run_for, |i| {
                let res = client.post("/update", &updates[i].body);
                let outcome = classify(&res, |r| {
                    r.generation().is_ok_and(|g| {
                        let c = server.catalog();
                        let ok = c.generation() == g;
                        catalogs.lock().expect("catalog map").insert(g, c);
                        ok
                    })
                });
                outcomes.push(outcome);
            });
            writer_done.store(true, Ordering::SeqCst);
            (timed, outcomes)
        });
        let reader = s.spawn(|| {
            let (mut lat, mut outcomes) = (Vec::new(), Vec::new());
            // Expected body hashes by query, for one generation at a time,
            // so the reader's memory does not grow with the reads it makes.
            let (mut cached_gen, mut cache) = (None, HashMap::new());
            let mut i = 0;
            while !writer_done.load(Ordering::SeqCst) {
                let q = i % queries.len();
                let t = Instant::now();
                let res = client.get(&queries[q].target());
                lat.push(t.elapsed().as_secs_f64() * 1e3);
                // A read is correct when its body is exactly what the
                // catalog of the generation it names renders for the query.
                let outcome = classify(&res, |r| {
                    let Ok(g) = r.generation() else {
                        return false;
                    };
                    if cached_gen != Some(g) {
                        cached_gen = Some(g);
                        cache.clear();
                    }
                    let want = *cache.entry(q).or_insert_with(|| {
                        catalog_of(g).and_then(|c| expected_hash(&queries[q], &c))
                    });
                    want == Some(fnv1a64(r.body.as_bytes()))
                });
                outcomes.push(outcome);
                i += 1;
            }
            (lat, outcomes)
        });
        (
            writer.join().expect("writer thread"),
            reader.join().expect("reader thread"),
        )
    });

    let ((timed, write_outcomes), (mut query_ms, read_outcomes)) = (writes, reads);
    let mut tally = Tally::default();
    let mut update_ms = Vec::new();
    let mut applied = Vec::new();
    for (i, (t, o)) in timed.iter().zip(&write_outcomes).enumerate() {
        tally.record(*o);
        // A failed operation misses every latency limit.
        if *o == Outcome::Ok {
            update_ms.push(t.latency * 1e3);
            applied.push(i);
        } else {
            update_ms.push(f64::INFINITY);
        }
    }
    for (l, o) in query_ms.iter_mut().zip(&read_outcomes) {
        tally.record(*o);
        if *o != Outcome::Ok {
            *l = f64::INFINITY;
        }
    }
    Load {
        query_ms,
        update_ms,
        lateness_ms: timed.iter().map(|t| t.lateness * 1e3).collect(),
        tally,
        applied,
    }
}

/// The graph after the acknowledged deltas, applied by the benchmark.
fn final_graph(
    g0: &AttributedGraph,
    updates: &[Update],
    applied: &[usize],
) -> Result<AttributedGraph, String> {
    let mut g = g0.clone();
    for &i in applied {
        g = updates[i]
            .delta
            .apply(&g)
            .map_err(|e| format!("delta {i}: {e}"))?
            .graph;
    }
    Ok(g)
}

fn show_latencies(r: &mut Report, name: &str, xs: &[f64]) {
    match median(xs) {
        Some(m) => r.show(&format!("{name}.p50"), m),
        None => r.note(&format!("{name}.p50 = n/a (no successful samples)")),
    }
    match tail(xs) {
        // With fewer than 20 samples the rule's percentile falls below the
        // median, which is no tail.
        Some(t) if t.percentile >= 50.0 => r.note(&format!(
            "{name}.tail = {:.6} (p{:.3} of {} samples)",
            t.value, t.percentile, t.samples
        )),
        _ => r.note(&format!(
            "{name}.tail = n/a ({} samples; a tail needs at least 20)",
            xs.len()
        )),
    }
}

struct Started {
    prep: crate::mine::Prepared,
    server: Server,
}

fn start(spec: &Spec, seed: u64, work: &Path, rec: &mut Recorder) -> Result<Started, String> {
    let data = work.join("data");
    reset_dir(&data)?;
    let prep = prepare(spec, seed, work, rec)?;
    let server = rec.time("serve.start", || {
        Server::start(prep.graph.clone(), config(&spec.params, &data))
    })?;
    Ok(Started { prep, server })
}

/// The clients' inputs: the seeded deltas and query mix over the initial graph.
fn inputs(spec: &Spec, seed: u64, s: &Started, seconds: u64) -> (Vec<Update>, Vec<Query>) {
    let count = (UPDATE_RATE * seconds as f64).ceil() as usize + 1;
    let updates = update_stream(
        &s.prep.ds,
        &s.prep.graph,
        spec.params.sigma_min,
        seed,
        count,
    );
    let examined: Vec<Vec<u32>> = s
        .server
        .catalog()
        .result()
        .reports
        .iter()
        .map(|r| r.attrs.clone())
        .collect();
    (updates, query_mix(&s.prep.graph, &examined, seed, 4096))
}

/// The untraced run.
pub fn run(
    spec: &Spec,
    seed: u64,
    seconds: u64,
    work: &Path,
    r: &mut Report,
) -> Result<(), String> {
    let (setup_s, started) = repeat_setup(
        || start(spec, seed, work, &mut Recorder::default()),
        |s| s.server.stop(),
    )?;
    r.metric("setup_s", setup_s, "s");
    shape(r, &started.prep.graph);
    r.tally.check(ingest_matches(&started.prep));
    let g0 = started.prep.graph.clone();
    let want0 = fingerprint(&reference(&g0, &spec.params));
    r.tally
        .check(fingerprint(started.server.catalog().result()) == want0);
    // Two thirds of the run serve; the rest mines the initial graph on
    // all three paths while the server idles (the mine a server start
    // runs), half before the clients run and half after, so a burst of
    // interference on the host cannot cover every round.
    let load_s = (seconds * 2 / 3).max(1);
    let window = Duration::from_secs(seconds - load_s) / 2;
    let (updates, queries) = inputs(spec, seed, &started, load_s);
    let budget = segment_budget(&g0, spec.params.sigma_min);
    let snap = &started.prep.snap;
    let mines = |r: &mut Report| {
        mine_rounds(
            &g0,
            snap,
            &spec.params,
            budget,
            &want0,
            MINE_ROUNDS,
            Instant::now() + window,
            &mut r.tally,
        )
    };
    let mut times = mines(r);

    let s = drive(&started.server, &queries, &updates, load_s);
    r.tally.merge(s.tally);
    show_latencies(r, "query_ms", &s.query_ms);
    show_latencies(r, "update_ms", &s.update_ms);
    // The mix's weights are assumed, so each kind's latencies are shown
    // on their own as well.
    for kind in UPDATE_KINDS {
        let xs: Vec<f64> = s
            .update_ms
            .iter()
            .zip(&updates)
            .filter(|(_, u)| u.kind == *kind)
            .map(|(x, _)| *x)
            .collect();
        show_latencies(r, &format!("update_ms.{kind}"), &xs);
    }
    r.show("load.lateness_ms.max", max(&s.lateness_ms).unwrap_or(0.0));

    // The served catalog must equal a from-scratch mine of the final graph.
    let g = final_graph(&g0, &updates, &s.applied)?;
    let want = fingerprint(&reference(&g, &spec.params));
    r.tally
        .check(fingerprint(started.server.catalog().result()) == want);

    // Crash, then recover the same directory several times.
    started.server.abort();
    let (data, crashed) = (work.join("data"), work.join("crashed"));
    copy_dir(&data, &crashed)?;
    let mut recover_s = Vec::new();
    for _ in 0..RECOVERIES {
        copy_dir(&crashed, &data)?;
        let t = Instant::now();
        let opened = Server::open(config(&spec.params, &data));
        recover_s.push(t.elapsed().as_secs_f64());
        match opened {
            Ok((server, _)) => {
                r.tally
                    .check(fingerprint(server.catalog().result()) == want);
                server.stop();
            }
            Err(e) => {
                r.note(&format!("recovery failed: {e}"));
                r.tally.check(false);
            }
        }
    }
    r.show("recover_s", median(&recover_s).expect("recoveries ran"));

    times.extend(mines(r));
    report_mine_times(r, &times);
    Ok(())
}

/// The traced run: the same clients, then the update path mirrored
/// through its public functions with spans, a recovery, and the traced
/// lattice walk over the final graph.
pub fn run_traced(
    spec: &Spec,
    seed: u64,
    seconds: u64,
    work: &Path,
    r: &mut Report,
) -> Result<(), String> {
    let mut setup_rec = Recorder::default();
    let started = start(spec, seed, work, &mut setup_rec)?;
    shape(r, &started.prep.graph);
    r.tally.check(ingest_matches(&started.prep));
    report_setup_layers(r, &setup_rec);
    let g0 = started.prep.graph.clone();
    let load_s = (seconds * 2 / 3).max(1);
    let (updates, queries) = inputs(spec, seed, &started, load_s);
    let s = drive(&started.server, &queries, &updates, load_s);
    r.tally.merge(s.tally);
    let served = started.server.catalog();
    started.server.abort();
    r.metric("serve.refused", s.tally.refused as f64, "count");
    r.metric(
        "load.lateness_ms.p50",
        median(&s.lateness_ms).unwrap_or(0.0),
        "ms",
    );
    r.metric(
        "load.lateness_ms.max",
        max(&s.lateness_ms).unwrap_or(0.0),
        "ms",
    );

    let g = final_graph(&g0, &updates, &s.applied)?;
    let want = fingerprint(&reference(&g, &spec.params));
    r.tally.check(fingerprint(served.result()) == want);

    let snap_path = work.join("final.snap");
    save_snapshot(&g, &snap_path).map_err(|e| e.to_string())?;
    let snap = MappedSnapshot::open(&snap_path).map_err(|e| e.to_string())?;
    let budget = segment_budget(&g, spec.params.sigma_min);
    r.metric(
        "core.segments.count",
        segment_count(&g, spec.params.sigma_min, budget) as f64,
        "count",
    );
    let mut walk_rec = Recorder::default();
    mine_layers(r, &g, &snap, &spec.params, budget, 1, &mut walk_rec);

    let mut update_rec = Recorder::default();
    let catalog = mirror(
        r,
        spec,
        &g0,
        &updates,
        &s.applied,
        &work.join("mirror"),
        &mut update_rec,
        &want,
    )?;

    // Direct catalog reads against the same mix, for the HTTP share.
    let mut direct_us = Vec::new();
    for q in queries.iter().take(2048) {
        let t = Instant::now();
        let answer = q.answer(&catalog).map(|j| j.render());
        direct_us.push(t.elapsed().as_secs_f64() * 1e6);
        r.tally.check(answer.is_ok());
    }
    let direct_p50 = median(&direct_us).expect("direct reads");
    r.metric("serve.catalog.query_us.p50", direct_p50, "us");
    r.metric(
        "serve.http_overhead_ms",
        median(&s.query_ms).unwrap_or(0.0) - direct_p50 / 1e3,
        "ms",
    );

    write_spans(
        work,
        spec.name,
        &[
            ("setup", &setup_rec),
            ("update", &update_rec),
            ("walk", &walk_rec),
        ],
    )
}

/// Replays the acknowledged deltas through the server's update path —
/// apply, journal, dirty set, incremental mine, catalog, periodic
/// checkpoint — then recovers the directory, with a span around each
/// call. Returns the final catalog.
#[allow(clippy::too_many_arguments)]
fn mirror(
    r: &mut Report,
    spec: &Spec,
    g0: &AttributedGraph,
    updates: &[Update],
    applied: &[usize],
    dir: &Path,
    rec: &mut Recorder,
    want: &str,
) -> Result<PatternCatalog, String> {
    let err = |e: &dyn std::fmt::Display| e.to_string();
    reset_dir(dir)?;
    let data = DataDir::open(dir).map_err(|e| err(&e))?;
    let params = &spec.params;
    let config = ParallelConfig::new(MINE_THREADS);
    let inj = FaultInjector::none();

    let mut scpm = Scpm::with_cache(g0, params.clone(), Arc::new(NullModelCache::new()))
        .with_incremental(IncrementalCtx::recording());
    let result = rec.time("core.mine.record", || scpm.run_scheduled(&config));
    let (mut memo, _) = scpm
        .take_incremental()
        .expect("recording context")
        .into_parts();
    let mut catalog = PatternCatalog::build(g0, params, result, 0);
    let mut journal = rec
        .time("core.store.checkpoint", || {
            checkpoint_with(&inj, &data, 0, g0, &memo, params)
        })
        .map_err(|e| err(&e))?;
    let mut graph = g0.clone();
    let (mut last_checkpoint, mut incr, mut hits, mut misses) = (0u64, Vec::new(), 0u64, 0u64);
    for (op, &i) in applied.iter().enumerate() {
        rec.set_op(op as u64 + 1);
        let delta = &updates[i].delta;
        let a = rec
            .time("graph.delta.apply", || delta.apply(&graph))
            .map_err(|e| err(&e))?;
        let seq = rec
            .time("graph.journal.append", || journal.append(delta))
            .map_err(|e| err(&e))?;
        let dirty = rec.time("core.incr.dirty", || DirtySet::from_delta(&a.graph, &a));
        graph = a.graph;
        let cache = Arc::new(NullModelCache::new());
        let mut scpm = Scpm::with_cache(&graph, params.clone(), Arc::clone(&cache))
            .with_incremental(IncrementalCtx::update(Arc::new(memo), dirty));
        let result = rec.time("core.incr.mine", || scpm.run_scheduled(&config));
        let (next, stats) = scpm
            .take_incremental()
            .expect("update context")
            .into_parts();
        memo = next;
        incr.push(stats);
        hits += cache.hits();
        misses += cache.misses();
        catalog = rec.time("serve.catalog.build", || {
            PatternCatalog::build(&graph, params, result, seq)
        });
        if seq - last_checkpoint >= CHECKPOINT_EVERY {
            journal = rec
                .time("core.store.checkpoint", || {
                    checkpoint_with(&inj, &data, seq, &graph, &memo, params)
                })
                .map_err(|e| err(&e))?;
            last_checkpoint = seq;
        }
    }
    r.tally.check(fingerprint(catalog.result()) == want);
    drop(journal);
    rec.set_op(0);
    let recovered = rec
        .time("core.store.recover", || {
            recover(&data).and_then(|state| replay_mine(state, params, &config))
        })
        .map_err(|e| err(&e))?;
    r.tally.check(fingerprint(&recovered.result) == want);

    let t = totals_by_name(rec.spans());
    let span_ms = |name: &str| -> Vec<f64> {
        rec.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    };
    let p50 = |name: &str| median(&span_ms(name)).unwrap_or(0.0);
    let (reeval, reused): (u64, u64) = incr
        .iter()
        .fold((0, 0), |(a, b), s| (a + s.reevaluated, b + s.reused));
    let (live, replayed): (u64, u64) = incr.iter().fold((0, 0), |(a, b), s| {
        (a + s.live_kernel_ops, b + s.reused_kernel_ops)
    });
    r.metric(
        "core.incr.reevaluated_ratio",
        reeval as f64 / (reeval + reused).max(1) as f64,
        "ratio",
    );
    r.metric(
        "core.incr.live_ops_ratio",
        live as f64 / (live + replayed).max(1) as f64,
        "ratio",
    );
    r.metric("core.incr.mine_ms.p50", p50("core.incr.mine"), "ms");
    // Per delta kind, since the mix's weights are assumed. Update spans
    // carry the delta's position in `applied`, plus one, as their op.
    for kind in UPDATE_KINDS {
        let xs: Vec<f64> = rec
            .spans()
            .iter()
            .filter(|s| {
                s.name == "core.incr.mine" && updates[applied[s.op as usize - 1]].kind == *kind
            })
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect();
        match median(&xs) {
            Some(m) => r.show(&format!("core.incr.mine_ms.{kind}.p50"), m),
            None => r.note(&format!(
                "core.incr.mine_ms.{kind}.p50 = n/a (no such deltas)"
            )),
        }
    }
    // Replaces the full walk's ratio: on this workload the null model
    // runs inside updates.
    r.metric(
        "core.null.cache_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
    );
    r.metric(
        "graph.journal.append_ms.p50",
        p50("graph.journal.append"),
        "ms",
    );
    r.metric(
        "core.store.checkpoint_ms.p50",
        p50("core.store.checkpoint"),
        "ms",
    );
    r.metric(
        "core.store.recover_s",
        t.get("core.store.recover")
            .map_or(0.0, |x| x.total_ns as f64 / 1e9),
        "s",
    );
    r.metric(
        "serve.catalog.build_ms.p50",
        p50("serve.catalog.build"),
        "ms",
    );
    Ok(catalog)
}

/// Per-layer metrics of the update path, which the mining workloads do
/// not run: reported as 0 with the reason.
pub fn not_applicable(r: &mut Report) {
    const WHY: &str = "no served updates on a mining workload";
    for (name, unit) in [
        ("core.incr.reevaluated_ratio", "ratio"),
        ("core.incr.live_ops_ratio", "ratio"),
        ("core.incr.mine_ms.p50", "ms"),
        ("graph.journal.append_ms.p50", "ms"),
        ("core.store.checkpoint_ms.p50", "ms"),
        ("core.store.recover_s", "s"),
        ("serve.catalog.query_us.p50", "us"),
        ("serve.catalog.build_ms.p50", "ms"),
        ("serve.http_overhead_ms", "ms"),
        ("serve.refused", "count"),
        ("load.lateness_ms.p50", "ms"),
        ("load.lateness_ms.max", "ms"),
    ] {
        r.not_applicable(name, unit, WHY);
    }
}
