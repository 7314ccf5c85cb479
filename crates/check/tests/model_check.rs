//! Schedule-exploration gate over the pipeline model.
//!
//! Three layers of evidence, all offline and deterministic:
//!
//! 1. **Seeded sweeps** — hundreds of pseudo-random schedules of the full
//!    5-node pipeline (Sio → Worker → Engine ⇄ MsgManager / Prefetcher), at
//!    default queue capacities and at the adversarial capacity-1 setting.
//!    Every schedule must complete (no deadlock, no livelock) and leave
//!    bit-identical vertex state on the model disk.
//! 2. **Exhaustive pass** — *every* schedule of a capacity-1 configuration,
//!    enumerated to completion (`complete == true`). The full pipeline's
//!    schedule tree is beyond exhaustive enumeration (a 3M-schedule bounded
//!    probe did not exhaust it even for a 1-vertex graph), so completeness
//!    is proven on the minimal sub-model that still contains the handoff we
//!    care about: the Sio thread racing the Worker over a capacity-1 batch
//!    queue, and the Worker handing its barrier result to the Engine.
//! 3. **Bounded exhaustive prefix** — the first `max_schedules` schedules
//!    of the full pipeline's DFS tree at capacity 1, as a structured (not
//!    random) probe of the exact interleavings nearest the all-zeros
//!    schedule, again asserting completion + bit-identical output.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use crossbeam::model::{
    explore_exhaustive, explore_seeded, ChanId, ModelSpec, Node, Outcome, Poll, Queues,
    RecvState, Want,
};
use graphz_check::pipeline::{build, golden, Disk, Msg, Pipeline, TinyGraph};
use graphz_types::EngineOptions;

/// Per-run output logs, index-aligned with a sweep's `runs` (the explorers
/// call `make` exactly once per run, in order).
type DiskLog = Rc<RefCell<Vec<Disk>>>;
type Counters = Rc<RefCell<Vec<u64>>>;
type CounterLog = Rc<RefCell<Vec<Counters>>>;

/// Build-per-run helper: returns the `make` closure `explore_*` needs and a
/// shared log of each run's disk.
fn pipeline_factory(
    graph: TinyGraph,
    rounds: u32,
    options: EngineOptions,
) -> (impl FnMut() -> Vec<Box<dyn Node<Msg>>>, DiskLog) {
    let disks: DiskLog = Rc::new(RefCell::new(Vec::new()));
    let log = Rc::clone(&disks);
    let make = move || {
        let p: Pipeline = build(&graph, rounds, &options);
        log.borrow_mut().push(Rc::clone(&p.disk));
        p.nodes
    };
    (make, disks)
}

/// Assert every run completed and left the golden output on its disk.
fn assert_all_golden(runs: &[crossbeam::model::RunResult], disks: &DiskLog, want: &[u64]) {
    assert_eq!(runs.len(), disks.borrow().len());
    for (i, (run, disk)) in runs.iter().zip(disks.borrow().iter()).enumerate() {
        assert!(
            !matches!(run.outcome, Outcome::Deadlock { .. }),
            "schedule {i} deadlocked: {:?}",
            run.outcome
        );
        assert_eq!(run.outcome, Outcome::Completed, "schedule {i} did not complete");
        assert_eq!(*disk.borrow(), want, "schedule {i} diverged from golden output");
    }
}

#[test]
fn seeded_sweep_explores_100_distinct_schedules_bit_identical() {
    let graph = TinyGraph::ring_with_chords();
    let rounds = 2;
    let want = golden(&graph, rounds);
    let options = EngineOptions::default();
    let spec = build(&graph, rounds, &options).spec;
    let (make, disks) = pipeline_factory(graph, rounds, options);
    let sweep = explore_seeded(&spec, make, 0..160, 500_000);

    assert_eq!(sweep.runs.len(), 160);
    assert!(sweep.distinct >= 100, "want >= 100 distinct schedules, got {}", sweep.distinct);
    let runs: Vec<_> = sweep.runs.into_iter().map(|(_, run)| run).collect();
    assert_all_golden(&runs, &disks, &want);
}

#[test]
fn seeded_sweep_capacity_one_no_deadlock_bit_identical() {
    let graph = TinyGraph::ring_with_chords();
    let rounds = 2;
    let want = golden(&graph, rounds);
    let options = EngineOptions::default().with_queue_cap(1);
    let spec = build(&graph, rounds, &options).spec;
    let (make, disks) = pipeline_factory(graph, rounds, options);
    let sweep = explore_seeded(&spec, make, 0..160, 500_000);

    assert!(sweep.distinct >= 100, "got {} distinct", sweep.distinct);
    let runs: Vec<_> = sweep.runs.into_iter().map(|(_, run)| run).collect();
    assert_all_golden(&runs, &disks, &want);
}

#[test]
fn bounded_exhaustive_prefix_full_pipeline_capacity_one() {
    // 4-vertex cycle, every queue at capacity 1, 1 round. The full tree is
    // too large to finish; this enumerates the DFS prefix.
    let graph = TinyGraph { edges: vec![vec![1], vec![2], vec![3], vec![0]] };
    let want = golden(&graph, 1);
    let options = EngineOptions::default().with_queue_cap(1);
    let spec = build(&graph, 1, &options).spec;
    let (make, disks) = pipeline_factory(graph, 1, options);
    let sweep = explore_exhaustive(&spec, make, 100_000, 3_000);

    assert!(!sweep.runs.is_empty());
    assert_all_golden(&sweep.runs, &disks, &want);
}

// ---------------------------------------------------------------------------
// Exhaustive (complete) pass on the minimal capacity-1 sub-model.
// ---------------------------------------------------------------------------

/// Sio half of the sub-model: streams each vertex's batch into the
/// capacity-1 Worker queue, then closes it.
struct MiniSio {
    items: VecDeque<Msg>,
    out: ChanId,
    closed: bool,
}

impl Node<Msg> for MiniSio {
    fn step(&mut self, q: &mut Queues<Msg>) -> Poll {
        if let Some(msg) = self.items.pop_front() {
            match q.try_send(self.out, msg) {
                Ok(()) => Poll::Ran,
                Err(msg) => {
                    self.items.push_front(msg);
                    Poll::Blocked(Want::Send(self.out))
                }
            }
        } else {
            if !self.closed {
                q.close(self.out);
                self.closed = true;
            }
            Poll::Done
        }
    }
}

/// Worker half: defers one message per out-edge, hands the barrier result
/// to the capacity-1 Engine queue on close.
struct MiniWorker {
    input: ChanId,
    output: ChanId,
    deferred: Vec<(u32, u64)>,
    pending: Option<Msg>,
    done: bool,
}

impl Node<Msg> for MiniWorker {
    fn step(&mut self, q: &mut Queues<Msg>) -> Poll {
        if let Some(msg) = self.pending.take() {
            return match q.try_send(self.output, msg) {
                Ok(()) => Poll::Done,
                Err(msg) => {
                    self.pending = Some(msg);
                    Poll::Blocked(Want::Send(self.output))
                }
            };
        }
        if self.done {
            return Poll::Done;
        }
        match q.try_recv(self.input) {
            RecvState::Msg(Msg::Batch { neighbors, .. }) => {
                for d in neighbors {
                    self.deferred.push((d, 1));
                }
                Poll::Ran
            }
            RecvState::Msg(_) => Poll::Ran,
            RecvState::Empty => Poll::Blocked(Want::Recv(self.input)),
            RecvState::Closed => {
                self.done = true;
                self.pending =
                    Some(Msg::WorkerDone { deferred: std::mem::take(&mut self.deferred) });
                Poll::Ran
            }
        }
    }
}

/// Engine half: applies the Worker's deferred messages in send order.
struct MiniEngine {
    input: ChanId,
    out: Counters,
}

impl Node<Msg> for MiniEngine {
    fn step(&mut self, q: &mut Queues<Msg>) -> Poll {
        match q.try_recv(self.input) {
            RecvState::Msg(Msg::WorkerDone { deferred }) => {
                let mut counters = self.out.borrow_mut();
                for (dst, value) in deferred {
                    counters[dst as usize] += value;
                }
                Poll::Done
            }
            RecvState::Msg(_) => Poll::Ran,
            RecvState::Empty => Poll::Blocked(Want::Recv(self.input)),
            RecvState::Closed => Poll::Done,
        }
    }
}

fn mini_model(graph: &TinyGraph) -> (ModelSpec, impl FnMut() -> Vec<Box<dyn Node<Msg>>>, CounterLog) {
    let mut spec = ModelSpec::default();
    let work = spec.channel("sio2work", 1);
    let eng = spec.channel("work2eng", 1);
    spec.node("sio", vec![work], vec![]);
    spec.node("worker", vec![eng], vec![work]);
    spec.node("engine", vec![], vec![eng]);

    let graph = graph.clone();
    let outs: CounterLog = Rc::new(RefCell::new(Vec::new()));
    let log = Rc::clone(&outs);
    let make = move || {
        let items: VecDeque<Msg> = (0..graph.num_vertices())
            .map(|v| Msg::Batch { vertex: v, neighbors: graph.edges[v as usize].clone() })
            .collect();
        let out = Rc::new(RefCell::new(vec![0u64; graph.num_vertices() as usize]));
        log.borrow_mut().push(Rc::clone(&out));
        let nodes: Vec<Box<dyn Node<Msg>>> = vec![
            Box::new(MiniSio { items, out: work, closed: false }),
            Box::new(MiniWorker {
                input: work,
                output: eng,
                deferred: Vec::new(),
                pending: None,
                done: false,
            }),
            Box::new(MiniEngine { input: eng, out }),
        ];
        nodes
    };
    (spec, make, outs)
}

#[test]
fn exhaustive_capacity_one_complete_and_bit_identical() {
    // 4-vertex cycle with a chord; every queue capacity 1. Small enough that
    // the DFS enumerates the *entire* schedule tree.
    let graph = TinyGraph { edges: vec![vec![1, 2], vec![2], vec![3], vec![0]] };
    let want = golden(&graph, 1);
    let (spec, make, outs) = mini_model(&graph);
    let sweep = explore_exhaustive(&spec, make, 10_000, 500_000);

    assert!(
        sweep.complete,
        "schedule tree not exhausted within bound ({} runs)",
        sweep.runs.len()
    );
    assert!(sweep.runs.len() >= 2, "expected real scheduling freedom");
    for (i, run) in sweep.runs.iter().enumerate() {
        assert!(
            !matches!(run.outcome, Outcome::Deadlock { .. }),
            "schedule {i} deadlocked: {:?}",
            run.outcome
        );
        assert_eq!(run.outcome, Outcome::Completed, "schedule {i} did not complete");
        assert_eq!(*outs.borrow()[i].borrow(), want, "schedule {i} diverged");
    }
}
