//! Property test for the tentpole determinism claim (DESIGN.md §6g): for
//! any ingest thread count and parse chunk size, the DOS directory produced
//! by [`IngestPipeline`] is **byte-identical** to the serial build — every
//! file, including the `checksums.txt` sidecar — and `verify_dos` reports
//! the same clean result.
//!
//! Covered shapes:
//! * an unweighted power-law-ish graph from a seeded LCG;
//! * the same graph with derived weights (`weights.bin` must match too);
//! * a graph whose id space ends in a zero-out-degree tail (ids that only
//!   ever appear as destinations), exercising the zero-degree group and the
//!   `next_zero` fill in the relabeling pass.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

use graphz_io::{FaultState, FaultSurface, IoStats, ScratchDir};
use graphz_storage::{scratch_root_for, verify_dos, IngestPipeline, IngestPipelineBuilder};
use graphz_types::MemoryBudget;

const THREAD_COUNTS: &[usize] = &[1, 2, 8];
/// Tiny forces many chunk boundaries inside lines; the default exercises
/// the single-chunk fast path on these inputs.
const CHUNK_SIZES: &[u64] = &[48, graphz_storage::chunked::DEFAULT_CHUNK_BYTES];

fn stats() -> Arc<IoStats> {
    IoStats::new()
}

/// Every file in a DOS directory, name → bytes.
fn dir_contents(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut out = BTreeMap::new();
    for entry in std::fs::read_dir(dir).unwrap() {
        let entry = entry.unwrap();
        out.insert(
            entry.file_name().to_string_lossy().into_owned(),
            std::fs::read(entry.path()).unwrap(),
        );
    }
    out
}

/// A deterministic edge-list text with comments, blank lines, and mixed
/// separators, so chunk boundaries land inside all of them.
fn lcg_graph_text(seed: u64, edges: usize, id_space: u64) -> String {
    let mut text = String::from("# ingest equivalence fixture\n\n");
    let mut x = seed;
    for i in 0..edges {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let src = (x >> 33) % id_space;
        let dst = (x >> 15) % id_space;
        let sep = if i % 3 == 0 { '\t' } else { ' ' };
        text.push_str(&format!("{src}{sep}{dst}\n"));
        if i % 97 == 0 {
            text.push_str("# interior comment\n");
        }
    }
    text
}

fn builder(threads: usize, chunk_bytes: u64) -> IngestPipelineBuilder {
    IngestPipeline::builder()
        // Small budget so every configuration spills to multi-run sorts.
        .budget(MemoryBudget::from_kib(32))
        .stats(stats())
        .threads(threads)
        .chunk_bytes(chunk_bytes)
}

/// Ingest `text` at every (threads, chunk) configuration and assert the
/// produced directories are byte-identical to the serial one.
fn assert_equivalent(label: &str, text: &str, weighted: bool) {
    let scratch = ScratchDir::new(&format!("ingest-eq-{label}")).unwrap();
    let src = scratch.file("g.txt");
    std::fs::write(&src, text).unwrap();

    let serial_dir = scratch.path().join("serial");
    let mut serial_b = builder(1, graphz_storage::chunked::DEFAULT_CHUNK_BYTES);
    if weighted {
        serial_b = serial_b.weights(graphz_types::derive_weight);
    }
    serial_b.build().unwrap().run(&src, &serial_dir).unwrap();
    let want = dir_contents(&serial_dir);
    let want_report = verify_dos(&serial_dir, stats()).unwrap();
    assert!(want_report.is_clean(), "{label}: serial build fails verify");
    assert!(want_report.files_checksummed > 0, "{label}: sidecar missing");

    for &threads in THREAD_COUNTS {
        for &chunk in CHUNK_SIZES {
            let dir = scratch.path().join(format!("t{threads}-c{chunk}"));
            let mut b = builder(threads, chunk);
            if weighted {
                b = b.weights(graphz_types::derive_weight);
            }
            b.build().unwrap().run(&src, &dir).unwrap();
            let got = dir_contents(&dir);
            assert_eq!(
                got.keys().collect::<Vec<_>>(),
                want.keys().collect::<Vec<_>>(),
                "{label}: file set differs at threads={threads} chunk={chunk}"
            );
            for (name, bytes) in &got {
                assert_eq!(
                    bytes, &want[name],
                    "{label}: {name} differs at threads={threads} chunk={chunk}"
                );
            }
            let report = verify_dos(&dir, stats()).unwrap();
            assert_eq!(
                report, want_report,
                "{label}: verify report differs at threads={threads} chunk={chunk}"
            );
        }
    }
}

#[test]
fn unweighted_graph_is_byte_identical_across_configurations() {
    assert_equivalent("plain", &lcg_graph_text(7, 600, 90), false);
}

#[test]
fn weighted_graph_is_byte_identical_across_configurations() {
    assert_equivalent("weighted", &lcg_graph_text(11, 400, 60), true);
}

/// DESIGN.md §6h: kill the pipeline at *every* stage-commit point in turn,
/// then rerun with `resume(true)` — the finished directory must be
/// byte-identical to an uninterrupted run, `checksums.txt` included, and the
/// scratch root must be gone afterwards.
#[test]
fn resume_after_a_kill_at_every_stage_is_byte_identical() {
    let scratch = ScratchDir::new("ingest-kill-resume").unwrap();
    let src = scratch.file("g.txt");
    std::fs::write(&src, lcg_graph_text(31, 300, 50)).unwrap();

    let clean_dir = scratch.path().join("clean");
    builder(1, graphz_storage::chunked::DEFAULT_CHUNK_BYTES)
        .build()
        .unwrap()
        .run(&src, &clean_dir)
        .unwrap();
    let want = dir_contents(&clean_dir);

    // Every stage the pipeline commits, in order. A text source exercises
    // the import stage too; binary sources simply have one fewer commit.
    const STAGES: &[&str] = &["import", "degrees", "old2new", "new2old", "adjacency", "emit"];
    for stage in STAGES {
        let dir = scratch.path().join(format!("kill-{stage}"));
        let faults = FaultState::fail_at_label(&format!("commit-manifest:{stage}"));
        let err = builder(1, graphz_storage::chunked::DEFAULT_CHUNK_BYTES)
            .faults(FaultSurface::none().with_faults(Arc::clone(&faults)))
            .build()
            .unwrap()
            .run(&src, &dir)
            .unwrap_err();
        assert!(
            faults.fired(),
            "kill at `{stage}`: the labeled commit never ran — stage renamed? ({err})"
        );
        assert!(
            scratch_root_for(&dir).exists(),
            "kill at `{stage}`: the scratch root must survive the crash for resume"
        );

        builder(1, graphz_storage::chunked::DEFAULT_CHUNK_BYTES)
            .resume(true)
            .build()
            .unwrap()
            .run(&src, &dir)
            .unwrap();
        let got = dir_contents(&dir);
        assert_eq!(
            got.keys().collect::<Vec<_>>(),
            want.keys().collect::<Vec<_>>(),
            "kill at `{stage}`: file set differs after resume"
        );
        for (name, bytes) in &got {
            assert_eq!(bytes, &want[name], "kill at `{stage}`: {name} differs after resume");
        }
        assert!(
            !scratch_root_for(&dir).exists(),
            "kill at `{stage}`: resume must clean up the scratch root"
        );
        let report = verify_dos(&dir, stats()).unwrap();
        assert!(report.is_clean(), "kill at `{stage}`: resumed directory fails verify");
    }
}

#[test]
fn zero_degree_tail_is_byte_identical_across_configurations() {
    // Sources drawn from [0, 40) but destinations from [0, 120): ids 40..120
    // have out-degree zero, and the top of the id space (119) appears only
    // as a destination, so num_vertices comes entirely from the dst side.
    let mut text = String::new();
    let mut x: u64 = 23;
    for _ in 0..300 {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        text.push_str(&format!("{} {}\n", (x >> 33) % 40, (x >> 15) % 120));
    }
    text.push_str("0 119\n");
    assert_equivalent("tail", &text, false);
}

/// Golden-digest oracle: the byte-identity suites above compare
/// configurations of the *same* converter, so a change to the converter
/// that moved every configuration's bytes alike would pass them. This
/// test pins the bytes themselves: a fixed seeded R-MAT graph, converted
/// unweighted and weighted at 1 and 2 threads under a budget small enough
/// for multi-run sorts, must reproduce the recorded `checksums.txt` (length
/// and CRC32 of every data file).
#[test]
fn golden_checksums_match_recorded_digests() {
    const UNWEIGHTED: &str = "# GraphZ metadata\n\
        file:edges.bin=160000,5dc8abe0\n\
        file:index.tbl=1728,2421f487\n\
        file:new2old.bin=16356,e48e2dee\n\
        file:old2new.bin=16356,ead047be\n\
        format=dos-checksums\n";
    const WEIGHTED: &str = "# GraphZ metadata\n\
        file:edges.bin=160000,5dc8abe0\n\
        file:index.tbl=1728,2421f487\n\
        file:new2old.bin=16356,e48e2dee\n\
        file:old2new.bin=16356,ead047be\n\
        file:weights.bin=160000,f9cad105\n\
        format=dos-checksums\n";
    let scratch = ScratchDir::new("ingest-golden").unwrap();
    let bin = scratch.file("g.bin");
    let edges = graphz_gen::rmat_edges(12, 40_000, Default::default(), 2024);
    let el = graphz_storage::EdgeListFile::create(&bin, stats(), edges).unwrap();
    for (weighted, want) in [(false, UNWEIGHTED), (true, WEIGHTED)] {
        for threads in [1usize, 2] {
            let dir = scratch.path().join(format!("w{weighted}-t{threads}"));
            let mut b = graphz_storage::DosConverter::builder()
                .budget(MemoryBudget::from_kib(64))
                .stats(stats())
                .threads(threads);
            if weighted {
                b = b.weights(graphz_types::derive_weight);
            }
            b.build().unwrap().convert(&el, &dir).unwrap();
            let got = std::fs::read_to_string(dir.join("checksums.txt")).unwrap();
            assert_eq!(got, want, "weighted={weighted} threads={threads}");
        }
    }
}
