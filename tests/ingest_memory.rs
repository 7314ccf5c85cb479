//! Text ingest runs in memory bounded by its sort budget, not by its input
//! (DESIGN.md §6g): the import streams parsed chunks to disk, degrees are
//! counted in a dense per-id array, and the conversion's sorts hold at most
//! their budget. This test ingests text whose binary edge list is many
//! times the budget and bounds the process's resident high-water rise.
//!
//! It is the only test in its binary, so no other test's allocations land
//! in the measurement. The high-water mark is Linux's `VmHWM`, reset through
//! `/proc/self/clear_refs`; the workspace forbids `unsafe`, so a counting
//! allocator is not an option.

use std::io::Write;

use graphz_io::{IoStats, ScratchDir};
use graphz_storage::IngestPipeline;
use graphz_types::MemoryBudget;

/// One field of `/proc/self/status`, in KiB.
fn status_kib(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line[field.len()..].trim().trim_end_matches("kB").trim().parse().ok()
}

#[test]
fn text_ingest_high_water_rise_is_bounded_by_the_budget() {
    if status_kib("VmHWM:").is_none() {
        eprintln!("skipped: no VmHWM in /proc/self/status on this platform");
        return;
    }
    let budget = MemoryBudget::from_mib(1);
    // 1.2 M edges: a 9.6 MB binary edge list, over 9x the budget.
    let edges: u64 = 1_200_000;
    let scratch = ScratchDir::new("ingest-memory").unwrap();
    let text = scratch.file("g.txt");
    {
        let mut out = std::io::BufWriter::new(std::fs::File::create(&text).unwrap());
        for e in graphz_gen::rmat_edges(17, edges, Default::default(), 5) {
            writeln!(out, "{}\t{}", e.src, e.dst).unwrap();
        }
        out.flush().unwrap();
    }
    let pipeline = IngestPipeline::builder()
        .budget(budget)
        .stats(IoStats::new())
        .threads(2)
        .build()
        .unwrap();

    // Writing 5 resets VmHWM to the current RSS.
    std::fs::write("/proc/self/clear_refs", "5").expect("reset VmHWM through clear_refs");
    let base = status_kib("VmHWM:").unwrap();
    let dos = pipeline.run(&text, &scratch.path().join("dos")).unwrap();
    let rise_kib = status_kib("VmHWM:").unwrap().saturating_sub(base);
    assert_eq!(dos.meta().num_edges, edges);

    // The parse window, run formation and merge buffers each hold about
    // the budget; on top come the dense degree count (8 B per source id,
    // 1 MiB at scale 17) and the worker threads. The rise measured about
    // 2.6 MiB on a 2-core x86-64 Linux VM, against 25 MiB when the import
    // held every parsed edge and each merged run had a read-ahead thread.
    let bound_kib = 8 * budget.bytes() / 1024;
    eprintln!("ingest high-water rise: {rise_kib} KiB (bound {bound_kib} KiB)");
    assert!(
        rise_kib < bound_kib,
        "ingest raised the resident high-water mark by {rise_kib} KiB; \
         the bound for a {} KiB budget is {bound_kib} KiB",
        budget.bytes() / 1024
    );
}
