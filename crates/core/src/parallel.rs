//! The lattice walk: the one driver behind every SCPM mine.
//!
//! [`Scpm::run`], [`Scpm::run_scheduled`], [`run_parallel_traced`] and the
//! out-of-core [`mine_mapped`](crate::segments::mine_mapped) all produce
//! their output through [`walk`] and [`merge`]:
//!
//! 1. Level-1 attribute sets are evaluated on the calling thread.
//! 2. A branch shallower than `SPLIT_DEPTH` (two levels) is *split*
//!    down to single ε evaluations: every `base ∪ {sibling}` extension
//!    becomes its own stealable task, and a per-branch join assembles the
//!    surviving child class (in sibling order) once the last evaluation
//!    lands, then spawns the child branches. Even one hub attribute's
//!    extension loop — the dominant cost on skewed graphs — is therefore
//!    spread over all workers.
//! 3. Branches at or below the split depth run as one recursive task each
//!    (task bookkeeping is wasted on the lattice's thin tail).
//!
//! Tasks start in a shared [`crossbeam::deque::Injector`]; workers push
//! follow-on tasks to per-worker LIFO deques and steal FIFO from each
//! other when idle. The calling thread is always worker 0, so a one-worker
//! walk (the serial mine) runs the same task loop without spawning.
//!
//! **Determinism.** Every part of the output is keyed by attribute ids:
//! the level-1 report of root `a` is keyed `[0, a]` and the branch of
//! root `a` is `[1, a]`; inside a branch with key `P`, the extension by
//! sibling `b` is keyed `P ++ [0, b]` and the child branch whose last
//! attribute is `b` is `P ++ [1, b]`. Classes are in ascending attribute
//! order, so those keys sort (lexicographically) exactly like the
//! depth-first traversal — all level-1 reports first, then each branch's
//! evaluations before all of its descendants'. Sorting the parts by key
//! and concatenating gives the same output no matter which worker ran
//! what when, and parts from different segments of an out-of-core mine
//! merge with no global index. The scheduler's only observable effect is
//! wall-clock time.
//!
//! Workers share one [`Scpm`] (hence one [`crate::NullModelCache`] —
//! `exp(σ)` is computed once per support globally) and each owns one
//! [`crate::CorrelationEngine`], whose quasi-clique scratch buffers are
//! recycled across all tasks the worker executes.
//!
//! `docs/PARALLELISM.md` covers the design and the determinism argument in
//! detail.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crossbeam::deque::{Injector, Stealer, Worker};
use parking_lot::Mutex;

use scpm_graph::attributed::{AttrId, AttributedGraph};
use scpm_itemset::Tidset;

use crate::algorithm::{EnumEntry, Scpm};
use crate::correlation::CorrelationEngine;
use crate::params::ScpmParams;
use crate::pattern::ScpmResult;

/// Lattice depth down to which branches are split into stealable tasks.
/// Splitting the top two lattice levels exposes `O(branches²)` stealable
/// tasks, enough to feed any realistic worker count, while deeper
/// subtrees stay recursive (task bookkeeping is wasted on leaves).
const SPLIT_DEPTH: usize = 2;

/// Configuration of the work-stealing driver: its worker count.
///
/// ```
/// use scpm_core::{ParallelConfig, Scpm, ScpmParams};
/// use scpm_graph::figure1::figure1;
///
/// let g = figure1();
/// let params = ScpmParams::new(3, 0.6, 4).with_eps_min(0.5);
/// let scpm = Scpm::new(&g, params);
/// let serial = scpm.run();
/// let parallel = scpm.run_scheduled(&ParallelConfig::new(4));
/// assert_eq!(serial.reports, parallel.reports);
/// assert_eq!(serial.patterns, parallel.patterns);
/// ```
#[derive(Clone, Debug)]
pub struct ParallelConfig {
    /// Requested worker count. The driver clamps this to the number of
    /// tasks the run can actually produce (see [`Scpm::run_scheduled`]);
    /// `0` or `1` runs one worker on the calling thread.
    pub threads: usize,
}

impl ParallelConfig {
    /// A configuration with `threads` workers.
    pub fn new(threads: usize) -> Self {
        ParallelConfig { threads }
    }
}

impl Default for ParallelConfig {
    /// All available hardware threads.
    fn default() -> Self {
        Self::new(std::thread::available_parallelism().map_or(1, |n| n.get()))
    }
}

/// One piece of a run's output — a level-1 evaluation or one scheduler
/// task's reports, patterns and counters — under its lattice key.
pub(crate) type Part = (Vec<u32>, ScpmResult);

/// A schedulable unit of lattice work.
enum Task {
    /// Run branch `branch` of `class` recursively to completion (used at
    /// and below [`SPLIT_DEPTH`]). `key` is the branch's lattice key.
    Subtree {
        key: Vec<u32>,
        class: Arc<Vec<EnumEntry>>,
        branch: usize,
    },
    /// Evaluate the single extension `class[branch] ∪ {class[sibling]}` of
    /// a splitting branch (above [`SPLIT_DEPTH`]).
    Extend {
        join: Arc<BranchJoin>,
        sibling: usize,
    },
}

/// Join state of one splitting branch: collects the surviving child
/// entries of its sibling evaluations; the evaluation that finishes last
/// assembles the child class and spawns the child branches.
struct BranchJoin {
    /// Lattice key of the branch.
    key: Vec<u32>,
    /// Lattice depth of the branch (level-1 branches are depth 0).
    depth: usize,
    class: Arc<Vec<EnumEntry>>,
    branch: usize,
    /// Sibling evaluations still outstanding.
    remaining: AtomicUsize,
    /// `(sibling index, child entry)` pairs of successful extensions.
    survivors: Mutex<Vec<(usize, EnumEntry)>>,
}

/// Queues branch `branch` of `class` (under the parent key `prefix`, at
/// depth `depth`) as either one recursive task or a fan of per-sibling
/// evaluation tasks, bumping `pending` once per queued task. A branch
/// with no later siblings does nothing.
fn spawn_branch(
    prefix: &[u32],
    depth: usize,
    class: &Arc<Vec<EnumEntry>>,
    branch: usize,
    pending: &AtomicUsize,
    push: &mut impl FnMut(Task),
) {
    if branch + 1 >= class.len() {
        return;
    }
    let mut key = prefix.to_vec();
    key.extend([1, class[branch].last_attr()]);
    if depth >= SPLIT_DEPTH {
        pending.fetch_add(1, Ordering::AcqRel);
        push(Task::Subtree {
            key,
            class: Arc::clone(class),
            branch,
        });
        return;
    }
    let join = Arc::new(BranchJoin {
        key,
        depth,
        branch,
        remaining: AtomicUsize::new(class.len() - branch - 1),
        survivors: Mutex::new(Vec::new()),
        class: Arc::clone(class),
    });
    for sibling in (branch + 1)..class.len() {
        pending.fetch_add(1, Ordering::AcqRel);
        push(Task::Extend {
            join: Arc::clone(&join),
            sibling,
        });
    }
}

/// The work one scheduler task performed, for load-balance diagnostics
/// (see [`run_parallel_traced`]).
#[derive(Clone, Debug)]
pub struct SubtreeTrace {
    /// Lattice key of the task: `[1, a]` for the branch of root `a`,
    /// extended by `[0, b]` for the evaluation of sibling `b` and by
    /// `[1, b]` for the child branch whose last attribute is `b`.
    pub path: Vec<u32>,
    /// The task's counters; `qc_nodes_coverage + qc_nodes_topk` is a
    /// hardware-independent proxy for the task's compute cost.
    pub stats: crate::pattern::ScpmStats,
}

impl SubtreeTrace {
    /// Search-node work proxy of this task (coverage + top-k nodes, plus
    /// one unit per evaluated attribute set so empty subtrees still have
    /// nonzero cost).
    pub fn work(&self) -> u64 {
        self.stats.qc_nodes_coverage + self.stats.qc_nodes_topk + self.stats.attribute_sets_examined
    }
}

/// Number of *immediately available* tasks for a run with `branches`
/// level-1 branches: one evaluation task per level-1 `{i, j}` pair. Used
/// to clamp the worker count — workers beyond this bound would start with
/// nothing to do (splitting can create more tasks later, but never before
/// these complete).
fn parallel_task_bound(branches: usize) -> usize {
    branches.saturating_mul(branches.saturating_sub(1)) / 2
}

/// Like [`Scpm::run_scheduled`] on a fresh miner, but also returns one
/// [`SubtreeTrace`] per scheduler task, in lattice order. The trace is the
/// run's exact work decomposition, for load-balance diagnostics that do
/// not depend on the machine the trace was recorded on. Level-1
/// evaluations are not tasks and have no trace; a run with at most one
/// extensible level-1 set has no tasks at all.
///
/// ```
/// use scpm_core::{run_parallel_traced, ParallelConfig, Scpm, ScpmParams};
/// use scpm_graph::figure1::figure1;
///
/// let g = figure1();
/// // εmin = 0 keeps every level-1 set extensible, so the run schedules.
/// let params = ScpmParams::new(2, 0.6, 4).with_eps_min(0.0);
/// let serial = Scpm::new(&g, params.clone()).run();
/// let (parallel, traces) = run_parallel_traced(&g, params, &ParallelConfig::new(2));
/// assert_eq!(serial.reports, parallel.reports);
/// assert_eq!(serial.patterns, parallel.patterns);
/// // Level 1 runs on the calling thread; the tasks cover the rest.
/// assert!(!traces.is_empty());
/// let examined: u64 = traces.iter().map(|t| t.stats.attribute_sets_examined).sum();
/// let level1 = serial.reports.iter().filter(|r| r.attrs.len() == 1).count() as u64;
/// assert_eq!(examined + level1, serial.stats.attribute_sets_examined);
/// ```
pub fn run_parallel_traced(
    graph: &AttributedGraph,
    params: ScpmParams,
    config: &ParallelConfig,
) -> (ScpmResult, Vec<SubtreeTrace>) {
    run_scheduler(&Scpm::new(graph, params), config)
}

impl<'g> Scpm<'g> {
    /// Runs this miner under the work-stealing scheduler.
    ///
    /// Output (reports, patterns, counters) is bit-identical at every
    /// thread count; only the wall-clock `elapsed` differs. The worker
    /// count is clamped to the number of immediately available tasks, so
    /// a run with no extensible level-1 pair spawns no thread; with one
    /// worker the calling thread runs every task itself.
    pub fn run_scheduled(&self, config: &ParallelConfig) -> ScpmResult {
        run_scheduler(self, config).0
    }
}

/// Mines the whole in-memory graph: every frequent attribute is a root.
fn run_scheduler(scpm: &Scpm<'_>, config: &ParallelConfig) -> (ScpmResult, Vec<SubtreeTrace>) {
    let start = Instant::now();
    let graph = scpm.graph();
    let sigma_min = scpm.params().sigma_min;
    let roots = graph
        .attributes()
        .filter(|&a| graph.support(a) >= sigma_min)
        .map(|a| {
            let tids = Tidset::from_sorted(graph.vertices_with(a).to_vec());
            Ok::<_, std::convert::Infallible>((a, tids))
        });
    let mut parts = Vec::new();
    let Ok(_) = walk(scpm, roots, Vec::new(), config.threads, &mut parts);
    let (mut result, traces) = merge(parts);
    result.stats.elapsed = start.elapsed();
    (result, traces)
}

/// The walk over the branches of `roots`. Evaluates each root at level 1
/// on the calling thread, then extends every surviving root with each
/// later survivor and then with each entry of `carried` (survivors of
/// roots walked earlier, all with larger attribute ids), on up to
/// `threads` workers. Pushes one keyed [`Part`] per level-1 evaluation and
/// per task into `parts`, and returns the roots' survivors followed by
/// `carried`.
pub(crate) fn walk<E>(
    scpm: &Scpm<'_>,
    roots: impl IntoIterator<Item = Result<(AttrId, Tidset), E>>,
    carried: Vec<EnumEntry>,
    threads: usize,
    parts: &mut Vec<Part>,
) -> Result<Vec<EnumEntry>, E> {
    let engine = scpm.engine();
    let mut class = Vec::new();
    for root in roots {
        let (a, tids) = root?;
        let mut part = ScpmResult::default();
        if let Some(entry) = scpm.evaluate(&engine, vec![a], tids, None, None, true, &mut part) {
            class.push(entry);
        }
        parts.push((vec![0, a], part));
    }
    let branches = class.len();
    class.extend(carried);
    let class = Arc::new(class);

    let injector: Injector<Task> = Injector::new();
    let pending = AtomicUsize::new(0);
    for branch in 0..branches {
        spawn_branch(&[], 0, &class, branch, &pending, &mut |task| {
            injector.push(task)
        });
    }
    let workers = threads.min(parallel_task_bound(branches)).max(1);
    let queues: Vec<Worker<Task>> = (0..workers).map(|_| Worker::new_lifo()).collect();
    let stealers: Vec<Stealer<Task>> = queues.iter().map(Worker::stealer).collect();
    let shared = Shared {
        scpm,
        injector,
        stealers,
        pending,
    };
    let mut queues = queues.into_iter();
    let own = queues.next().expect("at least one worker");
    crossbeam::scope(|scope| {
        let helpers: Vec<_> = queues
            .enumerate()
            .map(|(i, own)| {
                let shared = &shared;
                scope.spawn(move |_| shared.work(i + 1, own, &shared.scpm.engine()))
            })
            .collect();
        parts.extend(shared.work(0, own, &engine));
        for helper in helpers {
            parts.extend(helper.join().expect("scpm worker panicked"));
        }
    })
    .expect("scpm worker panicked");
    Ok(Arc::into_inner(class).expect("every task has finished"))
}

/// Orders `parts` by lattice key and concatenates them into one result,
/// plus one [`SubtreeTrace`] per task part. A parent's key is a strict
/// prefix of — hence sorts before — all of its descendants' keys, so the
/// order is the depth-first traversal's.
pub(crate) fn merge(mut parts: Vec<Part>) -> (ScpmResult, Vec<SubtreeTrace>) {
    parts.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    let mut result = ScpmResult::default();
    let mut traces = Vec::new();
    for (path, part) in parts {
        result.reports.extend(part.reports);
        result.patterns.extend(part.patterns);
        result.stats.merge(&part.stats);
        if path[0] == 1 {
            traces.push(SubtreeTrace {
                path,
                stats: part.stats,
            });
        }
    }
    (result, traces)
}

/// What every worker of one walk shares.
struct Shared<'a, 'g> {
    scpm: &'a Scpm<'g>,
    injector: Injector<Task>,
    stealers: Vec<Stealer<Task>>,
    /// Tasks queued or running.
    pending: AtomicUsize,
}

impl Shared<'_, '_> {
    /// Worker `wid`'s task loop: runs tasks from its own deque, the
    /// injector and its peers' deques until none exists or can be
    /// created, and returns the keyed parts of the tasks it ran. The
    /// engine's quasi-clique scratch buffers are reused by every task.
    fn work(&self, wid: usize, own: Worker<Task>, engine: &CorrelationEngine<'_>) -> Vec<Part> {
        let mut parts = Vec::new();
        let mut cover_buf = Vec::new();
        let mut idle_polls = 0u32;
        loop {
            let task = own
                .pop()
                .or_else(|| self.injector.steal().success())
                .or_else(|| steal_from_peers(&self.stealers, wid));
            let Some(task) = task else {
                if self.pending.load(Ordering::Acquire) == 0 {
                    return parts;
                }
                // Back off after a burst of empty polls so a long serial
                // tail (one worker grinding a subtree) does not spin the
                // idle workers at 100% CPU. 100 µs is noise next to any ε
                // evaluation.
                idle_polls += 1;
                if idle_polls < 64 {
                    std::thread::yield_now();
                } else {
                    std::thread::sleep(std::time::Duration::from_micros(100));
                }
                continue;
            };
            idle_polls = 0;
            // Decremented on every exit path (unwind included) — but only
            // after this iteration registered any follow-on tasks, so
            // `pending == 0` still means "no task exists or can ever be
            // created".
            let _task_done = PendingGuard(&self.pending);
            let mut local = ScpmResult::default();
            match task {
                Task::Subtree { key, class, branch } => {
                    self.scpm
                        .enumerate_branch(engine, &class, branch, &mut local);
                    parts.push((key, local));
                }
                Task::Extend { join, sibling } => {
                    let class = &join.class;
                    if let Some(entry) = self.scpm.extend_pair_refs(
                        engine,
                        &class[join.branch],
                        &class[sibling],
                        &mut cover_buf,
                        &mut local,
                    ) {
                        join.survivors.lock().push((sibling, entry));
                    }
                    let mut key = join.key.clone();
                    key.extend([0, class[sibling].last_attr()]);
                    parts.push((key, local));
                    if join.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                        // Last sibling evaluation of this branch: assemble
                        // the child class in sibling order and spawn the
                        // child branches.
                        let mut survivors = std::mem::take(&mut *join.survivors.lock());
                        survivors.sort_unstable_by_key(|&(j, _)| j);
                        let next: Arc<Vec<EnumEntry>> =
                            Arc::new(survivors.into_iter().map(|(_, e)| e).collect());
                        for branch in 0..next.len() {
                            spawn_branch(
                                &join.key,
                                join.depth + 1,
                                &next,
                                branch,
                                &self.pending,
                                &mut |task| own.push(task),
                            );
                        }
                    }
                }
            }
        }
    }
}

/// Decrements the pending-task counter when dropped — *also* during a
/// panic unwind, so a crashing worker cannot strand the others in their
/// idle loop (they drain the remaining tasks and exit; the panic then
/// propagates through the scope join).
struct PendingGuard<'a>(&'a AtomicUsize);

impl Drop for PendingGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

/// One round-robin steal attempt over the other workers' deques.
fn steal_from_peers(stealers: &[Stealer<Task>], wid: usize) -> Option<Task> {
    let n = stealers.len();
    for k in 1..n {
        if let Some(task) = stealers[(wid + k) % n].steal().success() {
            return Some(task);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use scpm_graph::figure1::figure1;

    type ReportRows = Vec<(Vec<u32>, usize, bool)>;
    type PatternRows = Vec<(Vec<u32>, Vec<u32>)>;

    fn comparable(r: &ScpmResult) -> (ReportRows, PatternRows) {
        let reports = r
            .reports
            .iter()
            .map(|rep| (rep.attrs.clone(), rep.support, rep.qualified))
            .collect();
        let patterns = r
            .patterns
            .iter()
            .map(|p| (p.attrs.clone(), p.clique.vertices.clone()))
            .collect();
        (reports, patterns)
    }

    #[test]
    fn parallel_output_equals_serial_in_order() {
        let g = figure1();
        let params = ScpmParams::new(2, 0.6, 4).with_eps_min(0.1);
        let scpm = Scpm::new(&g, params);
        let serial = scpm.run();
        for threads in [1, 2, 4] {
            let parallel = scpm.run_scheduled(&ParallelConfig::new(threads));
            assert_eq!(
                comparable(&serial),
                comparable(&parallel),
                "threads = {threads}"
            );
            assert_eq!(
                serial.stats.attribute_sets_examined,
                parallel.stats.attribute_sets_examined
            );
        }
    }

    #[test]
    fn worker_clamp_handles_degenerate_level1() {
        // σmin larger than any support: level 1 is empty, so no workers
        // should spawn and the run must still terminate with the (empty)
        // serial result.
        let g = figure1();
        let scpm = Scpm::new(&g, ScpmParams::new(100, 0.6, 4));
        let serial = scpm.run();
        let parallel = scpm.run_scheduled(&ParallelConfig::new(8));
        assert_eq!(comparable(&serial), comparable(&parallel));
        assert!(parallel.reports.is_empty());
    }

    #[test]
    fn task_bound_formula() {
        // One evaluation task per level-1 pair.
        assert_eq!(parallel_task_bound(0), 0);
        assert_eq!(parallel_task_bound(1), 0);
        assert_eq!(parallel_task_bound(2), 1);
        assert_eq!(parallel_task_bound(5), 10);
        // Saturates instead of overflowing.
        assert_eq!(parallel_task_bound(usize::MAX), usize::MAX / 2);
    }
}
