//! A virtual-scheduler model of the GraphZ engine pipeline.
//!
//! The real pipeline (paper §V Fig. 4, extended by the prefetcher) is
//! rebuilt here as [`crossbeam::model`] nodes connected by bounded virtual
//! channels:
//!
//! ```text
//!          sio2work          work2eng          eng2mgr
//!   Sio ─────────────▶ Worker ────────▶ Engine ─────────▶ MsgManager
//!                                      │   ▲  ◀──────────────┘ mgr2eng
//!                               eng2pf ▼   │ pf2eng
//!                                   Prefetcher (reads the "disk")
//! ```
//!
//! The modelled computation is message propagation over a tiny graph: each
//! round, every vertex sends `1` to each out-neighbour, and applying a
//! message increments the destination's counter. After `rounds` rounds the
//! analytically known result is `counter(v) = rounds × in_degree(v)` — a
//! value no admissible schedule may perturb. The queue capacities come from
//! the engine's own constants via [`queue_caps`].
//!
//! What the explorer then checks (see `tests/model_check.rs`):
//! * **Determinism** — bit-identical vertex output across hundreds of
//!   seeded schedules and an exhaustive pass at capacity 1.
//! * **Deadlock freedom** — no schedule reaches a state where every
//!   unfinished node is blocked (the wait-for graph stays acyclic).
//!
//! [`queue_caps`]: graphz_core::model_hooks::queue_caps

use std::cell::RefCell;
use std::rc::Rc;

use crossbeam::model::{ChanId, ModelSpec, Node, Poll, Queues, RecvState, Want};
use graphz_core::model_hooks::queue_caps;
use graphz_types::EngineOptions;

/// A tiny directed graph: `edges[v]` lists v's out-neighbours.
#[derive(Debug, Clone)]
pub struct TinyGraph {
    pub edges: Vec<Vec<u32>>,
}

impl TinyGraph {
    /// A 6-vertex ring with two chords — small enough for exhaustive
    /// exploration, irregular enough that every vertex's in-degree differs
    /// from its position.
    pub fn ring_with_chords() -> Self {
        TinyGraph {
            edges: vec![
                vec![1, 3],    // 0 → 1, 0 → 3
                vec![2],       // 1 → 2
                vec![3, 5],    // 2 → 3, 2 → 5
                vec![4],       // 3 → 4
                vec![5, 0],    // 4 → 5, 4 → 0
                vec![0],       // 5 → 0
            ],
        }
    }

    pub fn num_vertices(&self) -> u32 {
        self.edges.len() as u32
    }

    pub fn in_degree(&self, v: u32) -> u64 {
        self.edges.iter().flatten().filter(|&&d| d == v).count() as u64
    }
}

/// Every message that flows through the virtual pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Msg {
    /// Sio → Worker: one vertex's decoded adjacency list.
    Batch { vertex: u32, neighbors: Vec<u32> },
    /// Worker → Engine: the round's deferred messages, in send order.
    WorkerDone { deferred: Vec<(u32, u64)> },
    /// Engine → MsgManager: buffer `(dst, value)` for the next round.
    Enqueue { dst: u32, value: u64 },
    /// Engine → MsgManager: hand over the round's buffered messages.
    DrainRequest,
    /// MsgManager → Engine: the buffered messages, in send order.
    Drained { msgs: Vec<(u32, u64)> },
    /// Engine → Prefetcher: load round `round`'s state snapshot.
    PrefetchRequest { round: u32 },
    /// Prefetcher → Engine: the loaded snapshot.
    PrefetchReady { round: u32, counters: Vec<u64> },
}

/// The shared "disk": counters persisted between rounds. `Rc<RefCell<…>>`
/// because the model is single-threaded by construction.
pub type Disk = Rc<RefCell<Vec<u64>>>;

/// Channel ids for one built pipeline.
#[derive(Debug, Clone)]
pub struct Channels {
    pub sio2work: ChanId,
    pub work2eng: ChanId,
    pub eng2mgr: ChanId,
    pub mgr2eng: ChanId,
    pub eng2pf: ChanId,
    pub pf2eng: ChanId,
}

/// Everything needed to run and inspect one model instance.
pub struct Pipeline {
    pub spec: ModelSpec,
    pub channels: Channels,
    pub disk: Disk,
    pub nodes: Vec<Box<dyn Node<Msg>>>,
}

/// The Sio stage (with its Dispatcher): streams each round's adjacency lists
/// to the Worker, then closes. Re-armed by the Engine each round via a fresh node in the
/// next round's sub-run — here modelled as one node streaming all rounds
/// (block order is fixed; only interleaving with other stages varies).
struct Sio {
    graph: TinyGraph,
    out: ChanId,
    rounds: u32,
    round: u32,
    next_vertex: u32,
    closed: bool,
}

impl Node<Msg> for Sio {
    fn step(&mut self, q: &mut Queues<Msg>) -> Poll {
        if self.round >= self.rounds {
            if !self.closed {
                q.close(self.out);
                self.closed = true;
            }
            return Poll::Done;
        }
        let v = self.next_vertex;
        let msg = Msg::Batch { vertex: v, neighbors: self.graph.edges[v as usize].clone() };
        match q.try_send(self.out, msg) {
            Ok(()) => {
                self.next_vertex += 1;
                if self.next_vertex >= self.graph.num_vertices() {
                    self.next_vertex = 0;
                    self.round += 1;
                }
                Poll::Ran
            }
            Err(_) => Poll::Blocked(Want::Send(self.out)),
        }
    }
}

/// The Worker: applies updates in vertex order and defers every message
/// (the model has no dynamic fast path — all sends go through the
/// MsgManager, the stricter configuration).
struct Worker {
    input: ChanId,
    output: ChanId,
    /// Batches processed this round; `per_round` triggers the barrier flush.
    seen: u32,
    per_round: u32,
    deferred: Vec<(u32, u64)>,
    pending: Option<Msg>,
    done: bool,
}

impl Node<Msg> for Worker {
    fn step(&mut self, q: &mut Queues<Msg>) -> Poll {
        if let Some(msg) = self.pending.take() {
            match q.try_send(self.output, msg) {
                Ok(()) => return if self.done { Poll::Done } else { Poll::Ran },
                Err(msg) => {
                    self.pending = Some(msg);
                    return Poll::Blocked(Want::Send(self.output));
                }
            }
        }
        if self.done {
            return Poll::Done;
        }
        match q.try_recv(self.input) {
            RecvState::Msg(Msg::Batch { neighbors, .. }) => {
                // update(): send 1 to every out-neighbour, in edge order.
                for d in neighbors {
                    self.deferred.push((d, 1));
                }
                self.seen += 1;
                if self.seen == self.per_round {
                    self.seen = 0;
                    self.pending =
                        Some(Msg::WorkerDone { deferred: std::mem::take(&mut self.deferred) });
                }
                Poll::Ran
            }
            RecvState::Msg(_) => Poll::Ran,
            RecvState::Empty => Poll::Blocked(Want::Recv(self.input)),
            RecvState::Closed => {
                self.done = true;
                if !self.deferred.is_empty() {
                    // Residual flush (partition barrier at end of stream).
                    self.pending =
                        Some(Msg::WorkerDone { deferred: std::mem::take(&mut self.deferred) });
                    return Poll::Ran;
                }
                Poll::Done
            }
        }
    }
}

/// The MsgManager: buffers enqueued messages in arrival order and hands the
/// buffer back when the Engine drains at the round barrier.
struct MsgManager {
    input: ChanId,
    output: ChanId,
    buffer: Vec<(u32, u64)>,
    pending: Option<Msg>,
}

impl Node<Msg> for MsgManager {
    fn step(&mut self, q: &mut Queues<Msg>) -> Poll {
        if let Some(msg) = self.pending.take() {
            match q.try_send(self.output, msg) {
                Ok(()) => return Poll::Ran,
                Err(msg) => {
                    self.pending = Some(msg);
                    return Poll::Blocked(Want::Send(self.output));
                }
            }
        }
        match q.try_recv(self.input) {
            RecvState::Msg(Msg::Enqueue { dst, value }) => {
                self.buffer.push((dst, value));
                Poll::Ran
            }
            RecvState::Msg(Msg::DrainRequest) => {
                self.pending = Some(Msg::Drained { msgs: std::mem::take(&mut self.buffer) });
                Poll::Ran
            }
            RecvState::Msg(_) => Poll::Ran,
            RecvState::Empty => Poll::Blocked(Want::Recv(self.input)),
            RecvState::Closed => {
                q.close(self.output);
                Poll::Done
            }
        }
    }
}

/// The Prefetcher: capacity-1 request/response pair loading the counters
/// snapshot from the shared disk (double buffering: one request in flight).
struct Prefetcher {
    input: ChanId,
    output: ChanId,
    disk: Disk,
    pending: Option<Msg>,
}

impl Node<Msg> for Prefetcher {
    fn step(&mut self, q: &mut Queues<Msg>) -> Poll {
        if let Some(msg) = self.pending.take() {
            match q.try_send(self.output, msg) {
                Ok(()) => return Poll::Ran,
                Err(msg) => {
                    self.pending = Some(msg);
                    return Poll::Blocked(Want::Send(self.output));
                }
            }
        }
        match q.try_recv(self.input) {
            RecvState::Msg(Msg::PrefetchRequest { round }) => {
                let counters = self.disk.borrow().clone();
                self.pending = Some(Msg::PrefetchReady { round, counters });
                Poll::Ran
            }
            RecvState::Msg(_) => Poll::Ran,
            RecvState::Empty => Poll::Blocked(Want::Recv(self.input)),
            RecvState::Closed => {
                q.close(self.output);
                Poll::Done
            }
        }
    }
}

/// The Engine: takes the Worker's barrier result each round, routes its
/// deferred messages through the MsgManager in send order, applies the
/// drained stream to the disk snapshot obtained via the Prefetcher, and
/// writes the round's state back to "disk".
struct Engine {
    work_in: ChanId,
    mgr_out: ChanId,
    mgr_in: ChanId,
    pf_out: ChanId,
    pf_in: ChanId,
    rounds: u32,
    disk: Disk,
    round: u32,
    /// The drained message stream parked while awaiting the prefetcher.
    drained: Option<Vec<(u32, u64)>>,
    phase: EnginePhase,
    outbox: std::collections::VecDeque<(ChanId, Msg)>,
    closed: bool,
}

#[derive(Debug, PartialEq)]
enum EnginePhase {
    Barrier,
    AwaitDrain,
    AwaitPrefetch,
}

impl Engine {
    fn flush_outbox(&mut self, q: &mut Queues<Msg>) -> Option<Poll> {
        while let Some((chan, msg)) = self.outbox.pop_front() {
            if let Err(msg) = q.try_send(chan, msg) {
                self.outbox.push_front((chan, msg));
                return Some(Poll::Blocked(Want::Send(chan)));
            }
        }
        None
    }
}

impl Node<Msg> for Engine {
    fn step(&mut self, q: &mut Queues<Msg>) -> Poll {
        if let Some(blocked) = self.flush_outbox(q) {
            return blocked;
        }
        match self.phase {
            EnginePhase::Barrier => match q.try_recv(self.work_in) {
                RecvState::Msg(Msg::WorkerDone { deferred }) => {
                    // Partition barrier: enqueue in send order. Per-channel
                    // FIFO hands over the rounds in order even when the
                    // Worker runs a round ahead.
                    for (dst, value) in deferred {
                        self.outbox.push_back((self.mgr_out, Msg::Enqueue { dst, value }));
                    }
                    self.outbox.push_back((self.mgr_out, Msg::DrainRequest));
                    self.phase = EnginePhase::AwaitDrain;
                    Poll::Ran
                }
                RecvState::Msg(_) => Poll::Ran,
                RecvState::Empty => Poll::Blocked(Want::Recv(self.work_in)),
                RecvState::Closed => {
                    // Worker gone: close downstream and finish.
                    if !self.closed {
                        q.close(self.mgr_out);
                        q.close(self.pf_out);
                        self.closed = true;
                    }
                    Poll::Done
                }
            },
            EnginePhase::AwaitDrain => match q.try_recv(self.mgr_in) {
                RecvState::Msg(Msg::Drained { msgs }) => {
                    // Ask the prefetcher for the current snapshot, stash the
                    // drained stream until it arrives.
                    self.outbox.push_back((
                        self.pf_out,
                        Msg::PrefetchRequest { round: self.round },
                    ));
                    self.drained = Some(msgs);
                    self.phase = EnginePhase::AwaitPrefetch;
                    Poll::Ran
                }
                RecvState::Msg(_) => Poll::Ran,
                RecvState::Empty => Poll::Blocked(Want::Recv(self.mgr_in)),
                RecvState::Closed => Poll::Done,
            },
            EnginePhase::AwaitPrefetch => match q.try_recv(self.pf_in) {
                RecvState::Msg(Msg::PrefetchReady { mut counters, .. }) => {
                    // apply_message in send order.
                    for (dst, value) in self.drained.take().unwrap_or_default() {
                        counters[dst as usize] += value;
                    }
                    *self.disk.borrow_mut() = counters;
                    self.round += 1;
                    self.phase = EnginePhase::Barrier;
                    if self.round >= self.rounds {
                        // Final barrier: shut the pipeline down. Every
                        // WorkerDone has been consumed, so closing here
                        // cannot strand a blocked sender.
                        if !self.closed {
                            q.close(self.mgr_out);
                            q.close(self.pf_out);
                            self.closed = true;
                        }
                        return Poll::Done;
                    }
                    Poll::Ran
                }
                RecvState::Msg(_) => Poll::Ran,
                RecvState::Empty => Poll::Blocked(Want::Recv(self.pf_in)),
                RecvState::Closed => Poll::Done,
            },
        }
    }
}

/// Build the full pipeline model for `graph`, `rounds` rounds, and the
/// queue capacities the engine would use under `options` (`queue_cap`
/// forces depths).
pub fn build(graph: &TinyGraph, rounds: u32, options: &EngineOptions) -> Pipeline {
    let caps = queue_caps(options);
    let n = graph.num_vertices();

    let mut spec = ModelSpec::default();
    let sio2work = spec.channel("sio2work", caps.sio);
    // The Worker runs on the engine thread and hands over one partition's
    // result at a time.
    let work2eng = spec.channel("work2eng", 1);
    let eng2mgr = spec.channel("eng2mgr", caps.spill);
    let mgr2eng = spec.channel("mgr2eng", 1);
    let eng2pf = spec.channel("eng2pf", caps.prefetch);
    let pf2eng = spec.channel("pf2eng", caps.prefetch);

    spec.node("sio", vec![sio2work], vec![]);
    spec.node("worker", vec![work2eng], vec![sio2work]);
    spec.node("engine", vec![eng2mgr, eng2pf], vec![work2eng, mgr2eng, pf2eng]);
    spec.node("msgmanager", vec![mgr2eng], vec![eng2mgr]);
    spec.node("prefetcher", vec![pf2eng], vec![eng2pf]);

    let disk: Disk = Rc::new(RefCell::new(vec![0u64; n as usize]));

    let nodes: Vec<Box<dyn Node<Msg>>> = vec![
        Box::new(Sio {
            graph: graph.clone(),
            out: sio2work,
            rounds,
            round: 0,
            next_vertex: 0,
            closed: false,
        }),
        Box::new(Worker {
            input: sio2work,
            output: work2eng,
            seen: 0,
            // One Batch per vertex per round.
            per_round: n,
            deferred: Vec::new(),
            pending: None,
            done: false,
        }),
        Box::new(Engine {
            work_in: work2eng,
            mgr_out: eng2mgr,
            mgr_in: mgr2eng,
            pf_out: eng2pf,
            pf_in: pf2eng,
            rounds,
            disk: Rc::clone(&disk),
            round: 0,
            drained: None,
            phase: EnginePhase::Barrier,
            outbox: std::collections::VecDeque::new(),
            closed: false,
        }),
        Box::new(MsgManager { input: eng2mgr, output: mgr2eng, buffer: Vec::new(), pending: None }),
        Box::new(Prefetcher { input: eng2pf, output: pf2eng, disk: Rc::clone(&disk), pending: None }),
    ];

    let channels = Channels { sio2work, work2eng, eng2mgr, mgr2eng, eng2pf, pf2eng };
    Pipeline { spec, channels, disk, nodes }
}

/// The analytically known result: `rounds × in_degree(v)` for every vertex.
pub fn golden(graph: &TinyGraph, rounds: u32) -> Vec<u64> {
    (0..graph.num_vertices()).map(|v| rounds as u64 * graph.in_degree(v)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::model::{run_model, Outcome, SeededSchedule};

    #[test]
    fn single_run_matches_golden() {
        let graph = TinyGraph::ring_with_chords();
        let options = EngineOptions::default();
        let mut p = build(&graph, 3, &options);
        let run = run_model(&p.spec, &mut p.nodes, &mut SeededSchedule::new(1), 500_000);
        assert_eq!(run.outcome, Outcome::Completed, "trace len {}", run.trace.len());
        assert_eq!(*p.disk.borrow(), golden(&graph, 3));
    }

    #[test]
    fn capacity_one_single_run_matches_golden() {
        let graph = TinyGraph::ring_with_chords();
        let options = EngineOptions::default().with_queue_cap(1);
        let mut p = build(&graph, 2, &options);
        let run = run_model(&p.spec, &mut p.nodes, &mut SeededSchedule::new(2), 500_000);
        assert_eq!(run.outcome, Outcome::Completed);
        assert_eq!(*p.disk.borrow(), golden(&graph, 2));
    }

    #[test]
    fn golden_is_in_degree_times_rounds() {
        let graph = TinyGraph::ring_with_chords();
        // 9 edges total, so the golden sum is rounds × 9.
        let edges: usize = graph.edges.iter().map(Vec::len).sum();
        assert_eq!(golden(&graph, 4).iter().sum::<u64>(), 4 * edges as u64);
        assert_eq!(golden(&graph, 1)[0], 2); // in-edges 4→0 and 5→0
    }
}
