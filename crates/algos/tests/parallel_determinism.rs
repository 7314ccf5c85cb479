//! Thread-count determinism: the Worker runs the paper's sequential
//! schedule for every `pipeline_threads` value, so any thread count — and
//! prefetch on or off — must produce bit-identical vertex arrays and
//! identical message counters for every algorithm, including runs that
//! spill messages across partitions and runs interrupted by a
//! checkpoint/resume cycle. The oracle is the single-threaded run of
//! `EngineOptions::full()`.

use std::sync::Arc;

use graphz_algos::common::{AlgoParams, Algorithm};
use graphz_algos::runner::{self, AlgoOutcome, CheckpointSpec};
use graphz_gen::rmat_edges;
use graphz_io::{IoStats, ScratchDir};
use graphz_storage::DosGraph;
use graphz_storage::EdgeListFile;
use graphz_types::{Edge, EngineOptions, MemoryBudget};

fn power_law_graph(seed: u64, edges: u64) -> Vec<Edge> {
    rmat_edges(8, edges, Default::default(), seed).collect()
}

fn symmetrized(edges: Vec<Edge>) -> Vec<Edge> {
    let mut out: Vec<Edge> = edges
        .iter()
        .filter(|e| e.src != e.dst)
        .flat_map(|e| [*e, Edge::new(e.dst, e.src)])
        .collect();
    out.sort();
    out.dedup();
    out
}

struct Fixture {
    _dir: ScratchDir,
    stats: Arc<IoStats>,
    dos: DosGraph,
}

impl Fixture {
    fn new(edges: Vec<Edge>) -> Fixture {
        let dir = ScratchDir::new("par-det").unwrap();
        let stats = IoStats::new();
        let el = EdgeListFile::create(&dir.file("g.bin"), Arc::clone(&stats), edges).unwrap();
        let dos = runner::prepare_dos(
            &el,
            &dir.path().join("dos"),
            MemoryBudget::from_mib(4),
            Arc::clone(&stats),
        )
        .unwrap();
        Fixture { _dir: dir, stats, dos }
    }

    fn run(
        &self,
        params: &AlgoParams,
        budget: MemoryBudget,
        threads: usize,
        prefetch: bool,
        ckpt: &CheckpointSpec,
    ) -> AlgoOutcome {
        let mut options = EngineOptions::with_parallel_workers(threads);
        options.prefetch = prefetch;
        self.run_options(params, budget, options, ckpt)
    }

    fn run_options(
        &self,
        params: &AlgoParams,
        budget: MemoryBudget,
        options: EngineOptions,
        ckpt: &CheckpointSpec,
    ) -> AlgoOutcome {
        runner::run_graphz_configured(
            &self.dos,
            params,
            budget,
            options,
            ckpt,
            Arc::clone(&self.stats),
        )
        .unwrap()
    }
}

fn params_for(algo: Algorithm) -> AlgoParams {
    let p = AlgoParams::new(algo).with_source(0);
    match algo {
        Algorithm::PageRank => p.with_max_iterations(30),
        Algorithm::Bp => p.with_rounds(4).with_max_iterations(30),
        Algorithm::RandomWalk => p.with_rounds(5).with_max_iterations(30),
        _ => p.with_max_iterations(200),
    }
}

fn graph_for(algo: Algorithm, seed: u64) -> Vec<Edge> {
    let edges = power_law_graph(seed, 1500);
    if algo.wants_symmetrized() {
        symmetrized(edges)
    } else {
        edges
    }
}

/// The headline guarantee: for all six algorithms, at a roomy and a starved
/// budget, every {threads} × {prefetch} combination is bit-identical to the
/// sequential schedule — `EngineOptions::full()` on one pipeline thread.
#[test]
fn six_algorithms_bit_identical_across_threads_and_prefetch() {
    let none = CheckpointSpec::disabled();
    let sequential = EngineOptions { pipeline_threads: 1, ..EngineOptions::full() };
    for (i, algo) in Algorithm::all().into_iter().enumerate() {
        let fx = Fixture::new(graph_for(algo, 11 * (i as u64 + 1)));
        let params = params_for(algo);
        for budget in [MemoryBudget::from_kib(8), MemoryBudget::from_kib(1)] {
            let baseline = fx.run_options(&params, budget, sequential, &none);
            for threads in [1usize, 2, 8] {
                for prefetch in [true, false] {
                    let out = fx.run(&params, budget, threads, prefetch, &none);
                    assert_eq!(
                        baseline.values, out.values,
                        "{algo:?} at {budget}: threads={threads} prefetch={prefetch} \
                         diverged from the sequential schedule"
                    );
                    assert_eq!(baseline.iterations, out.iterations, "{algo:?} iterations");
                    assert_eq!(baseline.messages, out.messages, "{algo:?} messages");
                    assert_eq!(baseline.spilled, out.spilled, "{algo:?} spilled");
                }
            }
        }
    }
}

/// A budget small enough to force many partitions *and* message spills:
/// the claimed-segment protocol (prefetcher pre-draining spilled runs) must
/// not change results.
#[test]
fn spilled_multi_partition_run_is_deterministic() {
    let fx = Fixture::new(symmetrized(power_law_graph(99, 1500)));
    let params = AlgoParams::new(Algorithm::Cc).with_max_iterations(300);
    let budget = MemoryBudget(256); // 32 u64-sized vertices per partition
    let none = CheckpointSpec::disabled();
    let baseline = fx.run(&params, budget, 1, true, &none);
    assert!(baseline.partitions > 1, "budget must force multiple partitions");
    assert!(baseline.spilled > 0, "budget must force message spills");
    for (threads, prefetch) in [(8, true), (8, false), (2, true)] {
        let out = fx.run(&params, budget, threads, prefetch, &none);
        assert_eq!(baseline.values, out.values, "threads={threads} prefetch={prefetch}");
        assert_eq!(baseline.spilled, out.spilled);
        assert_eq!(baseline.iterations, out.iterations);
    }
}

/// Interrupt a parallel run mid-computation, then resume with a *different*
/// thread count and prefetch setting: the checkpoint carries sealed spill
/// segments and the global iteration counter, so the resumed run must land
/// exactly where an uninterrupted single-threaded run does.
#[test]
fn checkpoint_resume_mid_run_matches_uninterrupted() {
    let fx = Fixture::new(symmetrized(power_law_graph(123, 1500)));
    let params = AlgoParams::new(Algorithm::Cc).with_max_iterations(300);
    let budget = MemoryBudget::from_kib(1);
    let none = CheckpointSpec::disabled();
    let reference = fx.run(&params, budget, 1, true, &none);
    assert!(reference.converged);
    assert!(reference.iterations >= 2, "need room to interrupt: {}", reference.iterations);

    // Stop strictly before the uninterrupted run converged (every thread
    // count follows the same schedule, so its trajectory is the same).
    let cut = (reference.iterations - 1).max(1);
    let gens = ScratchDir::new("par-det-gens").unwrap();
    let write = CheckpointSpec {
        dir: Some(gens.path().to_path_buf()),
        every: 1,
        resume: false,
    };
    let head = fx.run(&params.with_max_iterations(cut), budget, 8, true, &write);
    assert!(!head.converged, "interrupted run must stop before convergence");

    let resume = CheckpointSpec {
        dir: Some(gens.path().to_path_buf()),
        every: 0,
        resume: true,
    };
    let tail = fx.run(&params, budget, 2, false, &resume);
    assert!(tail.converged);
    assert_eq!(reference.values, tail.values);
}
