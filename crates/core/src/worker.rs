//! The Worker stage.
//!
//! The paper's Worker (§V, Fig. 4) applies `program.update` over the
//! resident partition in ascending vertex order. It runs inline on the
//! engine thread, one partition at a time, which is what makes execution
//! "deterministic and sequential-equivalent" (§IV-C) for every thread
//! count: the only other pipeline threads (Sio, prefetch, background
//! spill) move bytes, never decide the order of an update or a message.
//!
//! A message whose destination lies in the resident partition takes the
//! paper's dynamic-message fast path and is applied immediately. Every
//! other message is deferred into its destination partition's bucket and
//! handed to the MsgManager at the partition barrier.

use graphz_types::{cast, VertexId};

use crate::program::{UpdateContext, VertexProgram};
use crate::sio::AdjBatch;

/// The Worker's state for one run: the resident partition's slab, plus
/// everything its updates produced since the partition was
/// [`start`](ShardState::start)ed. Created once per [`Engine::run`] and
/// reused for every partition of every iteration, so its buffers keep their
/// capacity.
///
/// [`Engine::run`]: crate::Engine::run
pub struct ShardState<P: VertexProgram> {
    first: VertexId,
    end: VertexId,
    data: Vec<P::VertexData>,
    /// Deferred messages, coalesced into per-destination-partition buckets
    /// indexed by partition id (each bucket in send order). Sized once in
    /// [`ShardState::new`], so the per-message [`ShardState::defer`] is an
    /// O(1) push with no allocation and no group scan.
    deferred: Vec<Vec<(VertexId, P::Message)>>,
    /// Vertices that marked themselves changed in the current partition.
    pub(crate) changed: u64,
    /// Messages sent by the current partition's updates.
    pub(crate) sent: u64,
    /// Messages the current partition applied on the dynamic fast path.
    pub(crate) dynamic_applied: u64,
    iteration: u32,
    num_vertices: u64,
    dynamic: bool,
    /// Uniform partition width, for routing deferred messages to their
    /// destination partition without a barrier-side pass.
    per_partition: u64,
    outbox: Vec<(VertexId, P::Message)>,
}

impl<P: VertexProgram> ShardState<P> {
    /// A Worker for a graph of `num_vertices` split into partitions of
    /// `per_partition` vertices. With `dynamic`, in-partition messages apply
    /// immediately; without it, every message is deferred.
    pub fn new(num_vertices: u64, per_partition: u64, dynamic: bool) -> Self {
        let per_partition = per_partition.max(1);
        // One bucket per destination partition, allocated here (outside the
        // per-message path) so `defer` never allocates or scans.
        let partitions = num_vertices.div_ceil(per_partition) as usize;
        ShardState {
            first: 0,
            end: 0,
            data: Vec::new(),
            deferred: (0..partitions).map(|_| Vec::new()).collect(),
            changed: 0,
            sent: 0,
            dynamic_applied: 0,
            iteration: 0,
            num_vertices,
            dynamic,
            per_partition,
            outbox: Vec::new(),
        }
    }

    /// Take the slab of the partition starting at `first` for `iteration`
    /// and zero the per-partition counters.
    pub fn start(&mut self, first: VertexId, data: Vec<P::VertexData>, iteration: u32) {
        self.first = first;
        self.end = first + data.len() as VertexId;
        self.data = data;
        self.iteration = iteration;
        self.changed = 0;
        self.sent = 0;
        self.dynamic_applied = 0;
    }

    /// Apply one pending message to the resident partition. The engine
    /// replays the partition's messages in send order before any update.
    pub fn replay(&mut self, program: &P, dst: VertexId, msg: &P::Message) {
        // ipa:allow(panic-freedom) — the MsgManager only replays a partition's own destinations: first <= dst < end
        program.apply_message(dst, &mut self.data[(dst - self.first) as usize], msg);
    }

    pub fn process(&mut self, program: &P, batch: &AdjBatch) {
        for (v, neighbors, weights) in batch.vertices_weighted() {
            let mut ctx = UpdateContext {
                iteration: self.iteration,
                num_vertices: self.num_vertices,
                neighbors,
                weights,
                outbox: &mut self.outbox,
                changed: false,
            };
            // ipa:allow(panic-freedom) — Sio streams exactly the partition's vertices: first <= v < end
            program.update(v, &mut self.data[(v - self.first) as usize], &mut ctx);
            if ctx.changed {
                self.changed += 1;
            }
            self.sent += self.outbox.len() as u64;
            let mut outbox = std::mem::take(&mut self.outbox);
            for (dst, msg) in outbox.drain(..) {
                if self.dynamic && dst >= self.first && dst < self.end {
                    // Dynamic fast path: the destination is resident.
                    program.apply_message(
                        dst,
                        // ipa:allow(panic-freedom) — guarded by first <= dst < end just above
                        &mut self.data[(dst - self.first) as usize],
                        &msg,
                    );
                    self.dynamic_applied += 1;
                } else {
                    self.defer(dst, msg);
                }
            }
            self.outbox = outbox; // hand the drained buffer back for reuse
        }
    }

    /// Append a deferred message to its destination partition's bucket.
    /// The bucket vector is pre-sized in [`ShardState::new`], making this an
    /// O(1) push with no allocation and no group scan.
    fn defer(&mut self, dst: VertexId, msg: P::Message) {
        // ipa:allow(panic-freedom) — per_partition is clamped to >= 1 in new
        let p = (cast::widen_u32(dst) / self.per_partition) as usize;
        if p >= self.deferred.len() {
            // Unreachable while dst < num_vertices (p <= num_vertices /
            // per_partition rounds into the last bucket); grow rather than
            // panic or misroute if a caller ever violates that.
            self.deferred.resize_with(p + 1, Vec::new);
        }
        if let Some(bucket) = self.deferred.get_mut(p) {
            bucket.push((dst, msg));
        }
    }

    /// Partition barrier: hand every non-empty bucket to `emit` in
    /// ascending destination-partition order, then return the slab.
    pub fn finish<F>(&mut self, mut emit: F) -> graphz_types::Result<Vec<P::VertexData>>
    where
        F: FnMut(u32, Vec<(VertexId, P::Message)>) -> graphz_types::Result<()>,
    {
        for (p, bucket) in self.deferred.iter_mut().enumerate() {
            if !bucket.is_empty() {
                emit(p as u32, std::mem::take(bucket))?;
            }
        }
        Ok(std::mem::take(&mut self.data))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every vertex sends its id to each out-neighbour; a message adds to
    /// the destination's value.
    struct SendIds;

    impl VertexProgram for SendIds {
        type VertexData = u64;
        type Message = u64;

        fn update(&self, vid: VertexId, _data: &mut u64, ctx: &mut UpdateContext<'_, u64>) {
            ctx.mark_changed();
            for &n in ctx.neighbors() {
                ctx.send(n, u64::from(vid));
            }
        }

        fn apply_message(&self, _vid: VertexId, data: &mut u64, msg: &u64) {
            *data += msg;
        }
    }

    fn partition_one_batch() -> AdjBatch {
        // Partition 1 of width 4 holds vertices 4..8 of a 12-vertex graph.
        // 4 → {5, 9, 0}, 5 → {10, 6}, 6 → {}, 7 → {1}.
        AdjBatch {
            first_vertex: 4,
            degrees: vec![3, 2, 0, 1],
            edges: vec![5, 9, 0, 10, 6, 1],
            weights: vec![],
        }
    }

    #[test]
    fn resident_messages_apply_and_the_rest_reach_the_barrier_in_partition_order() {
        let mut w: ShardState<SendIds> = ShardState::new(12, 4, true);
        w.start(4, vec![0; 4], 0);
        w.replay(&SendIds, 7, &100);
        w.process(&SendIds, &partition_one_batch());
        assert_eq!((w.changed, w.sent, w.dynamic_applied), (4, 6, 2));
        let mut groups = Vec::new();
        let slab = w
            .finish(|p, group| {
                groups.push((p, group));
                Ok(())
            })
            .unwrap();
        // 4 → 5 and 5 → 6 applied mid-sweep; the replay landed on 7.
        assert_eq!(slab, vec![0, 4, 5, 100]);
        assert_eq!(groups, vec![(0, vec![(0, 4), (1, 7)]), (2, vec![(9, 4), (10, 5)])]);
    }

    #[test]
    fn static_messages_defer_even_inside_the_partition() {
        let mut w: ShardState<SendIds> = ShardState::new(12, 4, false);
        w.start(4, vec![0; 4], 0);
        w.process(&SendIds, &partition_one_batch());
        assert_eq!(w.dynamic_applied, 0);
        let mut groups = Vec::new();
        let slab = w
            .finish(|p, group| {
                groups.push((p, group));
                Ok(())
            })
            .unwrap();
        assert_eq!(slab, vec![0; 4]);
        assert_eq!(groups[1], (1, vec![(5, 4), (6, 5)]));
        // The buckets were handed over: the next partition starts empty.
        w.start(8, vec![0; 4], 0);
        let mut more = 0;
        w.finish(|_, _| {
            more += 1;
            Ok(())
        })
        .unwrap();
        assert_eq!(more, 0);
    }
}
