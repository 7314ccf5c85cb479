//! Capacity-1 regression gate: `EngineOptions::queue_cap` forces *every*
//! bounded queue in the pipeline (Sio batches, Worker jobs, Worker results,
//! spill writer, prefetch slots) down to a single slot — the most
//! deadlock-prone configuration a bounded-queue pipeline has. The model
//! checker (`graphz-check`) proves schedule-independence on the abstract
//! pipeline; this test pins the real engine to the same contract: for all
//! six algorithms, any {threads} × {prefetch} combination at capacity 1 is
//! bit-identical to the default-capacity single-threaded run.

#![forbid(unsafe_code)]

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
        let dir = ScratchDir::new("cap-one").unwrap();
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

    fn run(&self, params: &AlgoParams, budget: MemoryBudget, options: EngineOptions) -> AlgoOutcome {
        runner::run_graphz_configured(
            &self.dos,
            params,
            budget,
            options,
            &CheckpointSpec::disabled(),
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

/// All six algorithms, every queue at capacity 1, threads {1, 2, 8},
/// prefetch on and off — bit-identical to the default-capacity seed path.
#[test]
fn six_algorithms_bit_identical_at_capacity_one() {
    for (i, algo) in Algorithm::all().into_iter().enumerate() {
        let fx = Fixture::new(graph_for(algo, 17 * (i as u64 + 1)));
        let params = params_for(algo);
        // Starved budget: multiple partitions, spills.
        let budget = MemoryBudget::from_kib(1);
        let baseline = fx.run(&params, budget, EngineOptions::with_parallel_workers(1));
        for threads in [1usize, 2, 8] {
            for prefetch in [true, false] {
                let mut options =
                    EngineOptions::with_parallel_workers(threads).with_queue_cap(1);
                options.prefetch = prefetch;
                let out = fx.run(&params, budget, options);
                assert_eq!(
                    baseline.values, out.values,
                    "{algo:?}: threads={threads} prefetch={prefetch} queue_cap=1 \
                     diverged from the default-capacity baseline"
                );
                assert_eq!(baseline.iterations, out.iterations, "{algo:?} iterations");
                assert_eq!(baseline.messages, out.messages, "{algo:?} messages");
                assert_eq!(baseline.spilled, out.spilled, "{algo:?} spilled");
            }
        }
    }
}

/// Capacity must be a pure throughput knob: a ladder of capacities over a
/// spilling multi-partition run leaves every observable identical.
#[test]
fn capacity_ladder_is_observably_identical() {
    let fx = Fixture::new(symmetrized(power_law_graph(41, 1500)));
    let params = AlgoParams::new(Algorithm::Cc).with_max_iterations(300);
    let budget = MemoryBudget(256); // 32 u64-sized vertices per partition
    let baseline = fx.run(&params, budget, EngineOptions::with_parallel_workers(1));
    assert!(baseline.partitions > 1, "budget must force multiple partitions");
    assert!(baseline.spilled > 0, "budget must force message spills");
    for cap in [1usize, 2, 3, 64] {
        let options = EngineOptions::with_parallel_workers(8).with_queue_cap(cap);
        let out = fx.run(&params, budget, options);
        assert_eq!(baseline.values, out.values, "queue_cap={cap}");
        assert_eq!(baseline.iterations, out.iterations, "queue_cap={cap}");
        assert_eq!(baseline.spilled, out.spilled, "queue_cap={cap}");
    }
}

/// Background spill writer at queue capacity 1 under the starved budget —
/// the submit path must backpressure, never drop or reorder sealed runs.
#[test]
fn background_spill_at_capacity_one_is_identical() {
    let fx = Fixture::new(symmetrized(power_law_graph(43, 1500)));
    let params = AlgoParams::new(Algorithm::Cc).with_max_iterations(300);
    let budget = MemoryBudget(256);
    let baseline = fx.run(&params, budget, EngineOptions::with_parallel_workers(1));
    assert!(baseline.spilled > 0, "budget must force message spills");
    let mut options = EngineOptions::with_parallel_workers(2).with_queue_cap(1);
    options.background_spill = true;
    let out = fx.run(&params, budget, options);
    assert_eq!(baseline.values, out.values);
    assert_eq!(baseline.iterations, out.iterations);
    assert_eq!(baseline.spilled, out.spilled);
}
