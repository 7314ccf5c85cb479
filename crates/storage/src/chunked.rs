//! Chunked parallel import of SNAP-style text edge lists.
//!
//! The chunk plan is a pure function of `(total_bytes, chunk_bytes)` — never
//! of thread count or timing (the workspace's deterministic-schedule rule,
//! DESIGN.md §6d/§6g): the file is cut into fixed-size byte spans, each span
//! owns exactly the lines that *begin* inside it, and chunk `i` is parsed by
//! worker `i % threads`. Parsed chunks are written to the edge list in index
//! order as they arrive, which reproduces the serial line order exactly, so
//! the resulting binary edge list is byte-identical to
//! [`EdgeListFile::import_text`] for every thread count and chunk size.
//!
//! The import streams: at most `2·threads + 1` parsed chunks are alive at
//! once (one queued and one being parsed per worker, and the one being
//! written), so its memory is bounded by the chunk size, not the input
//! size. [`chunk_bytes_for`] sizes the chunks so that window fits a sort
//! budget.
//!
//! A line "begins at" byte `p` when `p == 0` or the previous byte is `\n`.
//! A worker assigned span `[start, end)` seeks to `start - 1` (when
//! `start > 0`) and discards through the first newline — if the previous
//! byte *was* the newline this consumes exactly that byte, so a line
//! beginning exactly at `start` is kept; otherwise the discarded bytes are
//! the tail of a line owned by the previous chunk. It then parses every line
//! beginning before `end`, reading past `end` to finish the final line.

use std::io::{BufRead, BufReader, Seek, SeekFrom};
use std::path::Path;
use std::sync::{mpsc, Arc};

use graphz_io::IoStats;
use graphz_types::prelude::*;

use crate::edgelist::{EdgeListFile, EdgeListWriter};

/// Default span size for parallel text parsing when no memory budget
/// applies, and the cap on [`chunk_bytes_for`] (4 MiB — large enough that
/// per-chunk overhead vanishes, small enough that a handful of chunks exist
/// even for modest inputs).
pub const DEFAULT_CHUNK_BYTES: u64 = 4 << 20;

/// Span size for an import that must fit `budget` at `threads` parse
/// workers: the in-flight window of `2·threads + 1` parsed chunks (see the
/// module docs) stays within the budget. A line holding an edge takes at
/// least 4 bytes (`"0 1\n"`) and parses to an 8-byte edge, so a span's
/// parsed edges take at most twice its bytes. Capped at
/// [`DEFAULT_CHUNK_BYTES`].
pub fn chunk_bytes_for(budget: MemoryBudget, threads: usize) -> u64 {
    let window = 2 * cast::len_u64(threads.max(1)) + 1;
    (budget.bytes() / (2 * window)).clamp(1, DEFAULT_CHUNK_BYTES)
}

/// One byte span of the chunk plan: the lines beginning in `start..end`
/// belong to this chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkSpan {
    pub start: u64,
    pub end: u64,
}

/// Cut `total_bytes` into fixed-size spans. Pure function of its arguments:
/// the plan (and therefore which lines each chunk owns) is identical for
/// every thread count.
pub fn plan_chunks(total_bytes: u64, chunk_bytes: u64) -> Vec<ChunkSpan> {
    let step = chunk_bytes.max(1);
    let mut spans = Vec::new();
    let mut at = 0u64;
    while at < total_bytes {
        let next = total_bytes.min(at.saturating_add(step));
        spans.push(ChunkSpan { start: at, end: next });
        at = next;
    }
    spans
}

/// Parse one text line: `Ok(None)` for blanks and `#` comments, `Ok(Some)`
/// for a `src dst` pair. `where_` prefixes error messages (the parallel
/// parser reports byte spans instead of the serial path's line numbers).
fn parse_line(line: &str, where_: &dyn Fn() -> String) -> Result<Option<Edge>> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(None);
    }
    let mut it = line.split_whitespace();
    let mut field = |name: &str| -> Result<VertexId> {
        it.next()
            .ok_or_else(|| GraphError::Corrupt(format!("{}: expected `src dst`", where_())))?
            .parse()
            .map_err(|_| GraphError::Corrupt(format!("{}: {name} is not a u32", where_())))
    };
    let src = field("src")?;
    let dst = field("dst")?;
    Ok(Some(Edge::new(src, dst)))
}

/// Parse the lines a single span owns (see the module docs for the
/// ownership rule).
fn parse_span(text_path: &Path, span: ChunkSpan) -> Result<Vec<Edge>> {
    let mut file = std::fs::File::open(text_path).ctx("open", text_path)?;
    let mut skew = 0u64; // bytes consumed before the first owned line
    if span.start > 0 {
        file.seek(SeekFrom::Start(span.start - 1))?;
        skew = 1;
    }
    let mut reader = BufReader::new(file);
    let mut raw = Vec::new();
    if span.start > 0 {
        let n = reader.read_until(b'\n', &mut raw)?;
        skew = cast::len_u64(n) - skew;
        raw.clear();
    }
    // `span.start + skew` is where the first owned line begins.
    let mut at = cast::add_u64(span.start, skew, "text chunk position")?;
    let mut edges = Vec::new();
    while at < span.end {
        raw.clear();
        let n = reader.read_until(b'\n', &mut raw)?;
        if n == 0 {
            break;
        }
        let line = std::str::from_utf8(&raw).map_err(|_| {
            GraphError::Corrupt(format!(
                "{}: bytes {at}..{}: line is not valid UTF-8",
                text_path.display(),
                at + cast::len_u64(n)
            ))
        })?;
        let here = at;
        if let Some(e) = parse_line(line, &|| {
            format!("{}: byte {here}", text_path.display())
        })? {
            edges.push(e);
        }
        at = cast::add_u64(at, cast::len_u64(n), "text chunk position")?;
    }
    Ok(edges)
}

/// One malformed input line, quarantined instead of aborting the import.
///
/// `line` is the global 1-based line number (chunk-local counts are summed
/// in plan order, so the number is identical for every thread count and
/// chunk size), `byte` the offset where the line begins.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BadRecord {
    pub line: u64,
    pub byte: u64,
    pub text: String,
    pub reason: String,
}

/// What one span's lenient parse produced: the good edges, the number of
/// lines the span owns (good or bad, including blanks and comments), and
/// the malformed lines with span-local line indices.
struct LenientSpan {
    edges: Vec<Edge>,
    owned_lines: u64,
    bad: Vec<BadRecord>, // `line` is 0-based *within* the span here
}

/// Lenient variant of [`parse_span`]: malformed lines (bad field counts,
/// non-numeric ids, invalid UTF-8) are collected instead of aborting. IO
/// errors still abort — they say nothing about the input's content.
fn parse_span_lenient(text_path: &Path, span: ChunkSpan) -> Result<LenientSpan> {
    let mut file = std::fs::File::open(text_path).ctx("open", text_path)?;
    let mut skew = 0u64;
    if span.start > 0 {
        file.seek(SeekFrom::Start(span.start - 1))?;
        skew = 1;
    }
    let mut reader = BufReader::new(file);
    let mut raw = Vec::new();
    if span.start > 0 {
        let n = reader.read_until(b'\n', &mut raw)?;
        skew = cast::len_u64(n) - skew;
        raw.clear();
    }
    let mut at = cast::add_u64(span.start, skew, "text chunk position")?;
    let mut out = LenientSpan { edges: Vec::new(), owned_lines: 0, bad: Vec::new() };
    while at < span.end {
        raw.clear();
        let n = reader.read_until(b'\n', &mut raw)?;
        if n == 0 {
            break;
        }
        let here = at;
        let local_line = out.owned_lines;
        out.owned_lines += 1;
        match std::str::from_utf8(&raw) {
            Err(_) => out.bad.push(BadRecord {
                line: local_line,
                byte: here,
                text: String::from_utf8_lossy(&raw).trim_end().to_string(),
                reason: "line is not valid UTF-8".into(),
            }),
            Ok(line) => match parse_line(line, &|| format!("byte {here}")) {
                Ok(Some(e)) => out.edges.push(e),
                Ok(None) => {}
                Err(e) => {
                    // The sidecar already prints the byte offset; strip the
                    // error's own location prefix so it is not said twice.
                    let noise = format!("corrupt data: byte {here}: ");
                    let reason = e.to_string();
                    let reason =
                        reason.strip_prefix(&noise).map(str::to_string).unwrap_or(reason);
                    out.bad.push(BadRecord {
                        line: local_line,
                        byte: here,
                        text: line.trim_end().to_string(),
                        reason,
                    });
                }
            },
        }
        at = cast::add_u64(at, cast::len_u64(n), "text chunk position")?;
    }
    Ok(out)
}

/// Parse every span of `plan` on `threads` workers and hand the results to
/// `sink` in plan order, stopping at the first error in that order.
///
/// Worker `w` parses spans `i % threads == w` and queues each result in its
/// own one-slot channel; the calling thread drains the channels round-robin,
/// which is plan order. A worker blocks once it holds one queued and one
/// finished result, so at most `2·threads + 1` parsed chunks are alive.
fn parse_in_order<R: Send>(
    plan: &[ChunkSpan],
    threads: usize,
    parse: impl Fn(ChunkSpan) -> Result<R> + Sync,
    mut sink: impl FnMut(R) -> Result<()>,
) -> Result<()> {
    if threads <= 1 || plan.len() <= 1 {
        for span in plan {
            sink(parse(*span)?)?;
        }
        return Ok(());
    }
    let workers = threads.min(plan.len());
    std::thread::scope(|scope| -> Result<()> {
        let mut outboxes = Vec::with_capacity(workers);
        for worker in 0..workers {
            let (tx, rx) = mpsc::sync_channel::<Result<R>>(1);
            outboxes.push(rx);
            let parse = &parse;
            std::thread::Builder::new()
                .name(format!("graphz-parse-{worker}"))
                .spawn_scoped(scope, move || {
                    for span in plan.iter().skip(worker).step_by(workers) {
                        let parsed = parse(*span);
                        let failed = parsed.is_err();
                        // A closed outbox means the collector stopped early.
                        if tx.send(parsed).is_err() || failed {
                            return;
                        }
                    }
                })?;
        }
        // Returning drops the outboxes, which unblocks any worker still
        // waiting to hand over a chunk.
        for (idx, outbox) in (0..plan.len()).zip(outboxes.iter().cycle()) {
            let parsed = outbox.recv().map_err(|_| {
                GraphError::Corrupt(format!("parse worker lost chunk {idx}"))
            })?;
            sink(parsed?)?;
        }
        Ok(())
    })
}

/// Import a SNAP-style text file, quarantining up to `max_bad_records`
/// malformed lines instead of aborting on the first one.
///
/// Returns the imported edge list (malformed lines simply dropped from it)
/// plus the quarantined records with **global 1-based line numbers** —
/// chunk-local counts are summed in plan order, so numbering, edges, and
/// output bytes are identical for every `threads` and `chunk_bytes`.
/// Exceeding `max_bad_records` is a typed [`GraphError::Corrupt`] naming
/// the first offending line.
pub fn import_text_quarantined(
    text_path: &Path,
    bin_path: &Path,
    stats: Arc<IoStats>,
    threads: usize,
    chunk_bytes: u64,
    max_bad_records: u64,
) -> Result<(EdgeListFile, Vec<BadRecord>)> {
    let total_bytes = std::fs::metadata(text_path).ctx("stat", text_path)?.len();
    let plan = plan_chunks(total_bytes, chunk_bytes);
    let mut out = EdgeListWriter::create(bin_path, stats)?;
    // Chunk-local line indices become global 1-based numbers via a running
    // prefix sum of each span's owned-line count.
    let mut bad: Vec<BadRecord> = Vec::new();
    let mut lines_before: u64 = 0;
    parse_in_order(
        &plan,
        threads,
        |span| parse_span_lenient(text_path, span),
        |span| {
            for mut b in span.bad {
                b.line = cast::add_u64(lines_before, b.line, "quarantine line number")? + 1;
                bad.push(b);
            }
            lines_before =
                cast::add_u64(lines_before, span.owned_lines, "quarantine line count")?;
            out.push_all(span.edges)
        },
    )?;
    if cast::len_u64(bad.len()) > max_bad_records {
        let first = bad.first().map_or(0, |b| b.line);
        return Err(GraphError::Corrupt(format!(
            "{}: {} malformed records exceed --max-bad-records {max_bad_records} \
             (first at line {first})",
            text_path.display(),
            bad.len(),
        )));
    }
    Ok((out.finish()?, bad))
}

/// Import a SNAP-style text file by parsing `chunk_bytes`-sized spans on
/// `threads` workers and writing the parsed chunks in plan order.
///
/// Byte-identical to [`EdgeListFile::import_text`] for every `threads` and
/// `chunk_bytes`; `threads <= 1` delegates to the serial path outright.
pub fn import_text_chunked(
    text_path: &Path,
    bin_path: &Path,
    stats: Arc<IoStats>,
    threads: usize,
    chunk_bytes: u64,
) -> Result<EdgeListFile> {
    if threads <= 1 {
        return EdgeListFile::import_text(text_path, bin_path, stats);
    }
    let total_bytes = std::fs::metadata(text_path).ctx("stat", text_path)?.len();
    let plan = plan_chunks(total_bytes, chunk_bytes);
    if plan.len() <= 1 {
        return EdgeListFile::import_text(text_path, bin_path, stats);
    }
    let mut out = EdgeListWriter::create(bin_path, stats)?;
    parse_in_order(
        &plan,
        threads,
        |span| parse_span(text_path, span),
        |edges| out.push_all(edges),
    )?;
    out.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphz_io::ScratchDir;

    fn stats() -> Arc<IoStats> {
        IoStats::new()
    }

    #[test]
    fn plan_covers_the_file_exactly() {
        assert!(plan_chunks(0, 16).is_empty());
        let plan = plan_chunks(100, 32);
        assert_eq!(plan.len(), 4);
        assert_eq!(plan[0], ChunkSpan { start: 0, end: 32 });
        assert_eq!(plan[3], ChunkSpan { start: 96, end: 100 });
        for w in plan.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
        // Degenerate chunk size still terminates.
        assert_eq!(plan_chunks(3, 0).len(), 3);
    }

    #[test]
    fn default_chunk_window_fits_the_budget() {
        let budget = MemoryBudget::from_mib(8);
        for threads in [1u64, 2, 8] {
            let chunk = chunk_bytes_for(budget, cast::clamp_usize(threads));
            // At most 2 parsed bytes per text byte, 2·threads + 1 chunks.
            assert!(2 * chunk * (2 * threads + 1) <= budget.bytes(), "threads={threads}");
        }
        assert_eq!(chunk_bytes_for(MemoryBudget::from_mib(1024), 1), DEFAULT_CHUNK_BYTES);
        assert_eq!(chunk_bytes_for(MemoryBudget(1), 4), 1);
    }

    /// Deterministic pseudo-random text graph with comments, blank lines,
    /// and mixed whitespace, shaped to land line breaks on chunk borders.
    fn sample_text(lines: usize) -> String {
        let mut out = String::from("# header comment\n\n");
        let mut x: u64 = 7;
        for i in 0..lines {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let src = (x >> 33) % 97;
            let dst = (x >> 11) % 97;
            if i % 17 == 0 {
                out.push_str("# interior comment\n");
            }
            if i % 23 == 0 {
                out.push('\n');
            }
            out.push_str(&format!("{src}\t{dst}\n"));
        }
        out
    }

    #[test]
    fn chunked_import_matches_serial_bytes() {
        let dir = ScratchDir::new("chunked").unwrap();
        let txt = dir.file("g.txt");
        std::fs::write(&txt, sample_text(500)).unwrap();
        let serial_bin = dir.file("serial.bin");
        EdgeListFile::import_text(&txt, &serial_bin, stats()).unwrap();
        let serial = std::fs::read(&serial_bin).unwrap();
        assert!(!serial.is_empty());
        for threads in [2usize, 3, 8] {
            for chunk_bytes in [7u64, 64, 1 << 20] {
                let bin = dir.file(&format!("par-{threads}-{chunk_bytes}.bin"));
                let f =
                    import_text_chunked(&txt, &bin, stats(), threads, chunk_bytes).unwrap();
                assert_eq!(
                    std::fs::read(&bin).unwrap(),
                    serial,
                    "threads={threads} chunk_bytes={chunk_bytes}"
                );
                assert_eq!(f.meta(), EdgeListFile::open(&serial_bin).unwrap().meta());
            }
        }
    }

    #[test]
    fn file_without_trailing_newline() {
        let dir = ScratchDir::new("chunked-tail").unwrap();
        let txt = dir.file("g.txt");
        std::fs::write(&txt, "0 1\n1 2\n2 3").unwrap();
        let f = import_text_chunked(&txt, &dir.file("g.bin"), stats(), 4, 4).unwrap();
        assert_eq!(f.meta().num_edges, 3);
        let serial = EdgeListFile::import_text(&txt, &dir.file("s.bin"), stats()).unwrap();
        assert_eq!(
            std::fs::read(dir.file("g.bin")).unwrap(),
            std::fs::read(dir.file("s.bin")).unwrap()
        );
        assert_eq!(f.meta(), serial.meta());
    }

    #[test]
    fn garbage_is_a_typed_error_naming_the_byte() {
        let dir = ScratchDir::new("chunked-bad").unwrap();
        let txt = dir.file("g.txt");
        std::fs::write(&txt, "0 1\n0 2\n0 3\n1 nope\n2 0\n").unwrap();
        let err = import_text_chunked(&txt, &dir.file("g.bin"), stats(), 2, 4).unwrap_err();
        assert!(matches!(err, GraphError::Corrupt(_)), "got {err:?}");
        assert!(err.to_string().contains("byte"), "{err}");
    }

    #[test]
    fn single_chunk_and_single_thread_delegate_to_serial() {
        let dir = ScratchDir::new("chunked-serial").unwrap();
        let txt = dir.file("g.txt");
        std::fs::write(&txt, "5 6\n6 7\n").unwrap();
        let a = import_text_chunked(&txt, &dir.file("a.bin"), stats(), 1, 4).unwrap();
        let b = import_text_chunked(&txt, &dir.file("b.bin"), stats(), 8, 1 << 20).unwrap();
        assert_eq!(a.meta(), b.meta());
        assert_eq!(
            std::fs::read(dir.file("a.bin")).unwrap(),
            std::fs::read(dir.file("b.bin")).unwrap()
        );
    }

    #[test]
    fn quarantine_collects_bad_lines_with_stable_global_numbers() {
        let dir = ScratchDir::new("chunked-quar").unwrap();
        let txt = dir.file("g.txt");
        // Line numbers (1-based): 1 comment, 2 good, 3 bad, 4 good, 5 blank,
        // 6 bad, 7 good.
        std::fs::write(&txt, "# header\n0 1\n1 nope\n1 2\n\n999999999999 0\n2 0\n").unwrap();
        // Reference: the same file with the bad lines removed.
        let serial_bin = dir.file("clean.bin");
        std::fs::write(dir.file("clean.txt"), "# header\n0 1\n1 2\n\n2 0\n").unwrap();
        EdgeListFile::import_text(&dir.file("clean.txt"), &serial_bin, stats()).unwrap();
        let want = std::fs::read(&serial_bin).unwrap();
        for (threads, chunk) in [(1usize, 4u64), (1, 1 << 20), (3, 4), (4, 7)] {
            let bin = dir.file(&format!("q-{threads}-{chunk}.bin"));
            let (f, bad) =
                import_text_quarantined(&txt, &bin, stats(), threads, chunk, 10).unwrap();
            assert_eq!(f.meta().num_edges, 3, "threads={threads} chunk={chunk}");
            assert_eq!(std::fs::read(&bin).unwrap(), want, "threads={threads} chunk={chunk}");
            let lines: Vec<u64> = bad.iter().map(|b| b.line).collect();
            assert_eq!(lines, vec![3, 6], "threads={threads} chunk={chunk}");
            assert_eq!(bad[0].text, "1 nope");
            assert!(bad[0].reason.contains("not a u32"), "{}", bad[0].reason);
            assert!(bad[1].reason.contains("not a u32"), "{}", bad[1].reason);
        }
    }

    #[test]
    fn quarantine_over_budget_is_a_typed_error() {
        let dir = ScratchDir::new("chunked-quar-cap").unwrap();
        let txt = dir.file("g.txt");
        std::fs::write(&txt, "0 1\nbad one\nbad two\n1 2\n").unwrap();
        let err = import_text_quarantined(&txt, &dir.file("g.bin"), stats(), 2, 4, 1)
            .unwrap_err();
        assert!(matches!(err, GraphError::Corrupt(_)), "got {err:?}");
        assert!(err.to_string().contains("max-bad-records"), "{err}");
        assert!(err.to_string().contains("line 2"), "{err}");
        // With a budget that fits, the same file imports.
        let (f, bad) =
            import_text_quarantined(&txt, &dir.file("ok.bin"), stats(), 2, 4, 2).unwrap();
        assert_eq!(f.meta().num_edges, 2);
        assert_eq!(bad.len(), 2);
    }

    #[test]
    fn crlf_lines_parse_like_the_serial_path() {
        let dir = ScratchDir::new("chunked-crlf").unwrap();
        let txt = dir.file("g.txt");
        std::fs::write(&txt, "0 1\r\n1 2\r\n# c\r\n2 0\r\n").unwrap();
        let par = import_text_chunked(&txt, &dir.file("p.bin"), stats(), 3, 5).unwrap();
        let ser = EdgeListFile::import_text(&txt, &dir.file("s.bin"), stats()).unwrap();
        assert_eq!(par.meta(), ser.meta());
        assert_eq!(
            std::fs::read(dir.file("p.bin")).unwrap(),
            std::fs::read(dir.file("s.bin")).unwrap()
        );
    }
}
