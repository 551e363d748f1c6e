//! Wall-clock benchmark of the SCPM suite.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <citeseer-wide|skewed-search|serve-update-mix> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. `--trace 0` measures the end-to-end
//! metrics with nothing instrumented; `--trace 1` is the separate traced
//! run that reports the per-layer metrics. Either way every output is
//! checked, and the last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. The exit code is 0 only
//! when every check held. See `perfbench/README.md`.

mod inputs;
mod load;
mod mine;
mod serve;
mod stats;
mod trace;
mod walk;

use std::path::PathBuf;
use std::process::ExitCode;

use load::Tally;

/// End-to-end metrics, measured with tracing off.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("mine_s", "s"),
    ("mine_2t_s", "s"),
    ("mine_mmap_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, reported by the traced run.
const PER_LAYER: &[(&str, &str)] = &[
    ("itemset.intersect.calls", "count"),
    ("itemset.intersect.busy_s", "s"),
    ("graph.extract.calls", "count"),
    ("graph.extract.vertices", "count"),
    ("graph.extract.busy_s", "s"),
    ("graph.project.busy_s", "s"),
    ("graph.pack.busy_s", "s"),
    ("graph.pack.words", "count"),
    ("quasiclique.reduce.busy_s", "s"),
    ("quasiclique.reduce.survivor_ratio", "ratio"),
    ("quasiclique.search.busy_s", "s"),
    ("quasiclique.topk.busy_s", "s"),
    ("qc_nodes", "count"),
    ("kernel_ops", "count"),
    ("edge_tests", "count"),
    ("core.lattice.sets_examined", "count"),
    ("core.lattice.sets_qualified", "count"),
    ("core.lattice.pruned", "count"),
    ("core.null.busy_s", "s"),
    ("core.null.cache_hit_ratio", "ratio"),
    ("core.sched.speedup_2t", "ratio"),
    ("core.sched.imbalance", "ratio"),
    ("core.segments.count", "count"),
    ("graph.snapshot.write_s", "s"),
    ("graph.snapshot.open_s", "s"),
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
    ("datasets.generate_s", "s"),
    ("datasets.ingest_s", "s"),
    ("load.lateness_ms.p50", "ms"),
    ("load.lateness_ms.max", "ms"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
];

/// What one run measured and checked. Each metric and note is printed as
/// it is recorded; the JSON line at the end carries the metrics.
#[derive(Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    pub tally: Tally,
}

impl Report {
    /// Records a reported metric; a later value under the same name
    /// replaces the earlier one.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        println!("{name} = {value} {unit}");
        self.metrics.retain(|(n, _, _)| n != name);
        self.metrics.push((name.to_string(), value, unit));
    }

    /// A reported metric that the workload does not exercise: 0, with why.
    pub fn not_applicable(&mut self, name: &str, unit: &'static str, why: &str) {
        println!("{name} = n/a ({why}; reported as 0)");
        self.metrics.retain(|(n, _, _)| n != name);
        self.metrics.push((name.to_string(), 0.0, unit));
    }

    /// A value printed for the reader but not reported.
    pub fn show(&self, name: &str, value: f64) {
        println!("{name} = {value}");
    }

    pub fn note(&self, text: &str) {
        println!("{text}");
    }

    fn json(&self, wanted: &[(&str, &str)]) -> String {
        let metrics: Vec<String> = wanted
            .iter()
            .map(|(name, unit)| {
                let (_, value, got_unit) = self
                    .metrics
                    .iter()
                    .find(|(n, _, _)| n == name)
                    .unwrap_or_else(|| panic!("metric {name} was not measured"));
                assert_eq!(got_unit, unit, "unit of {name}");
                assert!(value.is_finite(), "{name} = {value}");
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.tally.failed == 0,
            self.tally.attempted,
            self.tally.failed,
            metrics.join(", ")
        )
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
    })
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                inputs::WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let Some(spec) = inputs::spec(&args.workload) else {
        eprintln!(
            "perfbench: unknown workload {} (want one of {})",
            args.workload,
            inputs::WORKLOADS.join(", ")
        );
        return ExitCode::from(2);
    };

    // Everything the run writes, spill files of the mapped miner included,
    // stays under the directory it was started from.
    let root = PathBuf::from(".bench_work");
    let work = root.join(format!("{}-{}", spec.name, std::process::id()));
    let tmp = work.join("tmp");
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("perfbench: creating {}: {e}", tmp.display());
        return ExitCode::FAILURE;
    }
    let tmp = std::fs::canonicalize(&tmp).expect("work directory exists");
    // Set before any thread starts.
    std::env::set_var("TMPDIR", &tmp);

    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# context: workload={} seed={} seconds={} trace={} nproc={threads} kernel_backend={} simd_compiled={} profile={} client_threads={} client_connections={} mine_threads=2",
        spec.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        scpm_graph::bitadj::detect_kernel_backend().name(),
        scpm_graph::bitadj::simd_compiled(),
        if cfg!(debug_assertions) { "debug" } else { "release" },
        if spec.serve { 2 } else { 0 },
        if spec.serve { 2 } else { 0 },
    );
    println!("# shape: {}", spec.describe());

    let mut r = Report::default();
    let outcome = match (spec.serve, args.trace) {
        (false, false) => mine::run(&spec, args.seed, args.seconds, &work, &mut r),
        (false, true) => mine::run_traced(&spec, args.seed, args.seconds, &work, &mut r),
        (true, false) => serve::run(&spec, args.seed, args.seconds, &work, &mut r),
        (true, true) => serve::run_traced(&spec, args.seed, args.seconds, &work, &mut r),
    };
    let _ = std::fs::remove_dir_all(&work);
    if let Err(e) = outcome {
        eprintln!("perfbench: {}: {e}", spec.name);
        return ExitCode::FAILURE;
    }
    match peak_rss_mib() {
        Some(mib) => r.metric("peak_rss_mib", mib, "MiB"),
        None => {
            eprintln!("perfbench: cannot read VmHWM from /proc/self/status");
            return ExitCode::FAILURE;
        }
    }
    if !spec.serve && !args.trace {
        for name in [
            "query_ms.p50",
            "query_ms.tail",
            "update_ms.p50",
            "update_ms.tail",
            "recover_s",
        ] {
            r.note(&format!(
                "{name} = n/a (no served reads or writes on a mining workload)"
            ));
        }
    }
    r.show("failed_frac", r.tally.failed_frac());
    r.show("attempted", r.tally.attempted as f64);
    println!(
        "{}",
        r.json(if args.trace { PER_LAYER } else { END_TO_END })
    );
    if r.tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists here and in `BENCHMARK.json` must agree.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = json.matches("\"unit\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn json_line_carries_exactly_the_wanted_metrics() {
        let mut r = Report::default();
        r.metric("a", 1.5, "s");
        r.metric("b", 2.0, "ms");
        r.metric("a", 1.25, "s");
        r.tally.check(true);
        assert_eq!(
            r.json(&[("a", "s")]),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\"a\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
    }
}
