//! Memory budgets and engine options.
//!
//! The paper evaluates every system as a function of how much RAM it may use
//! (Fig. 6 sweeps the budget; Table X classifies graphs by how far they
//! exceed it). [`MemoryBudget`] is the single knob that plays the role of
//! "machine RAM" for every engine in this workspace.

/// How many bytes of vertex/message state an engine may keep resident.
///
/// This models the paper's RAM sizes. The budget covers the per-partition
/// vertex array and message buffers — the things the engines deliberately
/// size to memory — not transient block buffers, which are small constants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct MemoryBudget(pub u64);

impl MemoryBudget {
    pub const fn bytes(self) -> u64 {
        self.0
    }

    pub const fn from_mib(mib: u64) -> Self {
        MemoryBudget(mib * 1024 * 1024)
    }

    pub const fn from_kib(kib: u64) -> Self {
        MemoryBudget(kib * 1024)
    }

    /// How many records of `record_size` bytes fit in this budget (at least 1,
    /// so degenerate budgets still make forward progress one record at a
    /// time rather than deadlocking).
    pub fn records(self, record_size: usize) -> u64 {
        (self.0 / record_size as u64).max(1)
    }

    /// Split this budget evenly across `shards` concurrent consumers.
    ///
    /// Each shard receives `floor(bytes / shards)` bytes (never rounding the
    /// aggregate above the original budget), and the split never collapses to
    /// zero: like [`records`](Self::records), a degenerate budget still lets
    /// every shard make forward progress one byte at a time. The split is a
    /// pure function of `(budget, shards)`, which is what lets the sharded
    /// ingest pipeline keep a deterministic run plan for a fixed
    /// configuration.
    pub fn split(self, shards: usize) -> Self {
        let n = shards.max(1) as u64;
        MemoryBudget((self.0 / n).max(1))
    }

    /// Number of partitions needed to process `total` records of
    /// `record_size` bytes `fraction`-of-budget at a time.
    pub fn partitions_for(self, total: u64, record_size: usize, fraction: f64) -> u32 {
        assert!(fraction > 0.0 && fraction <= 1.0, "fraction must be in (0, 1]");
        let per_part = ((self.records(record_size) as f64 * fraction) as u64).max(1);
        total.div_ceil(per_part).max(1) as u32
    }
}

impl std::fmt::Display for MemoryBudget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let b = self.0;
        if b >= 1024 * 1024 && b.is_multiple_of(1024 * 1024) {
            write!(f, "{}MiB", b / (1024 * 1024))
        } else if b >= 1024 && b.is_multiple_of(1024) {
            write!(f, "{}KiB", b / 1024)
        } else {
            write!(f, "{b}B")
        }
    }
}

/// Feature switches for the GraphZ engine, used by the Fig. 7 ablation study.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineOptions {
    /// Use degree-ordered storage (DOS). When off, the engine runs over the
    /// original vertex order with a dense per-vertex index, like the
    /// "GraphZ w/o DOS" configuration of Fig. 7.
    pub use_dos: bool,
    /// Apply messages to in-memory destinations immediately (ordered dynamic
    /// messages). When off, *every* message is buffered and replayed at the
    /// start of the destination partition's next load, emulating a
    /// static-message system ("GraphZ w/o DOS and DM" in Fig. 7).
    pub dynamic_messages: bool,
    /// Threads for the engine pipeline. With `>= 2`, Sio reads and decodes
    /// adjacency blocks on its own thread while the engine thread runs the
    /// Worker; `1` does both inline. The Worker schedule is the same either
    /// way, so results are bit-identical for every value (tested).
    pub pipeline_threads: usize,
    /// Keep the vertex array resident across iterations when the whole graph
    /// fits in one partition, skipping the per-iteration spill/reload.
    /// Off by default: the paper's implementation "does not have many
    /// in-memory optimizations" (§VI-E) and the reproduction benchmarks run
    /// without it; this implements that future work as an opt-in.
    pub in_memory_fast_path: bool,
    /// Spill cross-partition messages on a dedicated MsgManager thread
    /// (the paper's four-component pipeline, §V Fig. 4) instead of on the
    /// Worker. Byte-identical spill files; only scheduling changes.
    pub background_spill: bool,
    /// Prefetch the next partition's vertex slab, partition index, and
    /// spilled message run on a background thread while the current partition
    /// computes (GridGraph-style double buffering). Pure scheduling: results
    /// are bit-identical with prefetch on or off.
    pub prefetch: bool,
    /// Force every bounded pipeline queue (Sio batches, background spill
    /// jobs, batch-pool recycler) to this capacity. `None` keeps each stage's tuned default. Results are
    /// bit-identical for any capacity ≥ 1 — queue depth is pure scheduling —
    /// which the capacity-1 regression suite and the model checker both
    /// enforce.
    pub queue_cap: Option<usize>,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            use_dos: true,
            dynamic_messages: true,
            pipeline_threads: 2,
            in_memory_fast_path: false,
            background_spill: false,
            prefetch: true,
            queue_cap: None,
        }
    }
}

impl EngineOptions {
    /// The full-featured configuration (the "GraphZ" bars in the paper).
    pub fn full() -> Self {
        Self::default()
    }

    /// The full configuration with `threads` pipeline threads (see
    /// [`pipeline_threads`](Self::pipeline_threads)). Results are
    /// bit-identical for every `threads` value.
    pub fn with_parallel_workers(threads: usize) -> Self {
        EngineOptions { pipeline_threads: threads.max(1), ..Self::default() }
    }

    /// Fig. 7's "GraphZ w/o DOS" configuration.
    pub fn without_dos() -> Self {
        EngineOptions { use_dos: false, ..Self::default() }
    }

    /// Fig. 7's "GraphZ w/o DOS and DM" configuration.
    pub fn without_dos_and_dm() -> Self {
        EngineOptions { use_dos: false, dynamic_messages: false, ..Self::default() }
    }

    /// §VI-E future work: enable the in-memory fast path.
    pub fn with_in_memory_fast_path() -> Self {
        EngineOptions { in_memory_fast_path: true, ..Self::default() }
    }

    /// Force every bounded pipeline queue to `cap` (≥ 1). Used by the
    /// capacity-1 regression suite to prove queue depth never affects
    /// results.
    pub fn with_queue_cap(self, cap: usize) -> Self {
        EngineOptions { queue_cap: Some(cap.max(1)), ..self }
    }

    /// Builder-style construction following the workspace API convention
    /// (`XBuilder` + chainable setters + fallible `build()`): invalid
    /// combinations surface as [`GraphError::InvalidConfig`] instead of being
    /// silently clamped.
    pub fn builder() -> EngineOptionsBuilder {
        EngineOptionsBuilder { opts: Self::default() }
    }
}

/// Builder for [`EngineOptions`].
///
/// Produced by [`EngineOptions::builder`]. Every setter is chainable;
/// [`build`](Self::build) validates the configuration (thread and
/// queue-capacity counts must be ≥ 1) and returns a typed error rather than
/// clamping, so misconfigurations are visible at the call site.
#[derive(Debug, Clone)]
pub struct EngineOptionsBuilder {
    opts: EngineOptions,
}

impl EngineOptionsBuilder {
    /// Toggle degree-ordered storage (Fig. 7 ablation).
    pub fn use_dos(mut self, on: bool) -> Self {
        self.opts.use_dos = on;
        self
    }

    /// Toggle ordered dynamic messages (Fig. 7 ablation).
    pub fn dynamic_messages(mut self, on: bool) -> Self {
        self.opts.dynamic_messages = on;
        self
    }

    /// Pipeline thread count (see [`EngineOptions::pipeline_threads`]).
    pub fn threads(mut self, threads: usize) -> Self {
        self.opts.pipeline_threads = threads;
        self
    }

    /// Toggle background partition prefetch.
    pub fn prefetch(mut self, on: bool) -> Self {
        self.opts.prefetch = on;
        self
    }

    /// Toggle the dedicated MsgManager spill thread.
    pub fn background_spill(mut self, on: bool) -> Self {
        self.opts.background_spill = on;
        self
    }

    /// Toggle the §VI-E in-memory fast path.
    pub fn in_memory_fast_path(mut self, on: bool) -> Self {
        self.opts.in_memory_fast_path = on;
        self
    }

    /// Force every bounded pipeline queue to `cap`.
    pub fn queue_cap(mut self, cap: usize) -> Self {
        self.opts.queue_cap = Some(cap);
        self
    }

    /// Validate and produce the options.
    pub fn build(self) -> crate::error::Result<EngineOptions> {
        use crate::error::GraphError;
        if self.opts.pipeline_threads == 0 {
            return Err(GraphError::InvalidConfig("pipeline_threads must be >= 1".into()));
        }
        if self.opts.queue_cap == Some(0) {
            return Err(GraphError::InvalidConfig("queue_cap must be >= 1".into()));
        }
        Ok(self.opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_units() {
        assert_eq!(MemoryBudget::from_mib(2).bytes(), 2 * 1024 * 1024);
        assert_eq!(MemoryBudget::from_kib(3).bytes(), 3 * 1024);
        assert_eq!(MemoryBudget::from_mib(2).to_string(), "2MiB");
        assert_eq!(MemoryBudget::from_kib(3).to_string(), "3KiB");
        assert_eq!(MemoryBudget(100).to_string(), "100B");
    }

    #[test]
    fn records_never_zero() {
        assert_eq!(MemoryBudget(1).records(1024), 1);
        assert_eq!(MemoryBudget::from_kib(1).records(4), 256);
    }

    #[test]
    fn split_is_even_and_never_zero() {
        assert_eq!(MemoryBudget::from_kib(8).split(4), MemoryBudget::from_kib(2));
        assert_eq!(MemoryBudget(10).split(3), MemoryBudget(3));
        assert_eq!(MemoryBudget(1).split(16), MemoryBudget(1));
        assert_eq!(MemoryBudget::from_mib(1).split(0), MemoryBudget::from_mib(1));
        // Deterministic: same inputs, same split.
        assert_eq!(MemoryBudget(12345).split(7), MemoryBudget(12345).split(7));
    }

    #[test]
    fn options_builder_matches_presets() {
        let b = EngineOptions::builder().build().unwrap();
        assert_eq!(b, EngineOptions::default());
        let par = EngineOptions::builder().threads(4).build().unwrap();
        assert_eq!(par, EngineOptions::with_parallel_workers(4));
        let ab = EngineOptions::builder().use_dos(false).dynamic_messages(false).build().unwrap();
        assert_eq!(ab, EngineOptions::without_dos_and_dm());
        let capped = EngineOptions::builder().queue_cap(3).build().unwrap();
        assert_eq!(capped.queue_cap, Some(3));
    }

    #[test]
    fn options_builder_rejects_zeroes() {
        assert!(EngineOptions::builder().threads(0).build().is_err());
        assert!(EngineOptions::builder().queue_cap(0).build().is_err());
    }

    #[test]
    fn partition_count_covers_everything() {
        let b = MemoryBudget::from_kib(1); // 256 4-byte records
        assert_eq!(b.partitions_for(256, 4, 1.0), 1);
        assert_eq!(b.partitions_for(257, 4, 1.0), 2);
        assert_eq!(b.partitions_for(1024, 4, 0.5), 8);
        assert_eq!(b.partitions_for(0, 4, 1.0), 1);
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn partition_fraction_validated() {
        MemoryBudget::from_kib(1).partitions_for(10, 4, 0.0);
    }

    #[test]
    fn ablation_presets() {
        assert!(EngineOptions::full().use_dos);
        assert!(!EngineOptions::without_dos().use_dos);
        assert!(EngineOptions::without_dos().dynamic_messages);
        let ab = EngineOptions::without_dos_and_dm();
        assert!(!ab.use_dos && !ab.dynamic_messages);
        assert!(!EngineOptions::full().in_memory_fast_path);
        assert!(EngineOptions::with_in_memory_fast_path().in_memory_fast_path);
        assert!(EngineOptions::full().prefetch);
        let par = EngineOptions::with_parallel_workers(4);
        assert_eq!(par.pipeline_threads, 4);
        assert_eq!(par, EngineOptions { pipeline_threads: 4, ..EngineOptions::full() });
        assert_eq!(EngineOptions::with_parallel_workers(0).pipeline_threads, 1);
        assert_eq!(EngineOptions::full().queue_cap, None);
        assert_eq!(EngineOptions::full().with_queue_cap(0).queue_cap, Some(1));
        assert_eq!(EngineOptions::with_parallel_workers(4).with_queue_cap(1).queue_cap, Some(1));
    }
}
