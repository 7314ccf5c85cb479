//! Correctness tooling for the GraphZ workspace.
//!
//! Two halves, both fully offline:
//!
//! * [`pipeline`] — a loom-lite model of the Sio → Worker → Engine ⇄
//!   MsgManager / Prefetcher pipeline, run under the virtual scheduler in
//!   `crossbeam::model`. The schedule-exploration tests
//!   (`tests/model_check.rs`) drive hundreds of seeded interleavings plus a
//!   bounded exhaustive pass and assert bit-identical output and deadlock
//!   freedom (via the wait-for-graph cycle detector).
//! * [`lint`] — the repo-invariant lint pass behind the `graphz-lint`
//!   binary (`cargo run -p graphz-check --bin graphz-lint`), enforcing the
//!   named rules documented in DESIGN.md §6e.
//! * [`audit`] — the dataflow/protocol analyses behind the `graphz-audit`
//!   binary (DESIGN.md §6f): the global lock-acquisition-order graph,
//!   checked offset/cast arithmetic in the storage layer, and the
//!   must-consume protocols for atomic writes and message claims. Built on
//!   [`parser`], a lightweight token/item parser, with machine-readable
//!   reports from [`json`].
//! * [`flow`] — the path-sensitive dataflow analyses behind the
//!   `graphz-flow` binary (DESIGN.md §6j): per-function control-flow
//!   graphs ([`flow::cfg`]) plus a generic worklist solver
//!   ([`flow::solver`]) driving fault-surface coverage, path-complete
//!   must-consume, determinism taint, and error-context rules.
//! * [`ipa`] — the interprocedural analyses behind the `graphz-ipa` binary
//!   (DESIGN.md §6k): a workspace call graph ([`ipa::callgraph`]) with
//!   bottom-up effect summaries ([`ipa::summary`]) proving the Worker hot
//!   path allocation-, lock-, and panic-free and every file-creating sink
//!   fault-gated on all call paths.
//! * [`stale`] — the `stale-suppression` lint: re-runs every analyzer with
//!   suppression markers neutralized and flags `<tool>:allow(<rule>)`
//!   comments that no longer suppress any finding.

#![forbid(unsafe_code)]

pub mod audit;
pub mod flow;
pub mod ipa;
pub mod json;
pub mod lint;
pub mod parser;
pub mod pipeline;
pub mod stale;
