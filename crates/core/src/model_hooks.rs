//! Hooks for the `graphz-check` model checker (feature `model` only).
//!
//! The model checker rebuilds the Sio → Worker → Engine ⇄ MsgManager /
//! Prefetcher pipeline as virtual [`crossbeam::model`] nodes. For its
//! verdicts to say anything about the real engine, the model must size its
//! queues the way the engine does — so this module collects every pipeline
//! queue's capacity in [`queue_caps`] from the same constants the engine's
//! constructors read, instead of letting the model duplicate them.
//!
//! Nothing here exists in a normal build; the feature is additive.

pub use crate::sio::DEFAULT_SIO_QUEUE_CAP;
pub use crate::msgmanager::DEFAULT_SPILL_QUEUE_CAP;

use graphz_types::EngineOptions;

/// The capacity of every bounded queue in the engine pipeline, as the
/// engine would size them for `options`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineQueueCaps {
    /// Sio thread → Worker batch channel.
    pub sio: usize,
    /// Worker → background MsgManager spill queue.
    pub spill: usize,
    /// Engine ↔ prefetcher request/response queues (always 1: double
    /// buffering means exactly one load in flight).
    pub prefetch: usize,
}

/// Mirror of how `stream_partition_weighted` and `BackgroundWriter::spawn`
/// size their queues for `options` (`queue_cap` overrides everything except
/// the structurally capacity-1 prefetch pair).
pub fn queue_caps(options: &EngineOptions) -> PipelineQueueCaps {
    let cap = options.queue_cap;
    PipelineQueueCaps {
        sio: cap.unwrap_or(DEFAULT_SIO_QUEUE_CAP).max(1),
        spill: cap.unwrap_or(DEFAULT_SPILL_QUEUE_CAP).max(1),
        prefetch: 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_caps_follow_override() {
        let d = queue_caps(&EngineOptions::default());
        assert_eq!(d.sio, DEFAULT_SIO_QUEUE_CAP);
        assert_eq!(d.spill, DEFAULT_SPILL_QUEUE_CAP);
        assert_eq!(d.prefetch, 1);
        let one = queue_caps(&EngineOptions::default().with_queue_cap(1));
        assert_eq!(one, PipelineQueueCaps { sio: 1, spill: 1, prefetch: 1 });
    }
}
