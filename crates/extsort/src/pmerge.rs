//! Key-space-partitioned parallel k-way merge.
//!
//! The serial merge drains every run through one loser tree on a single
//! thread, so merge compares stop scaling the moment run formation goes
//! wide. This module splits the *key space* instead of the runs: splitter
//! keys are probed deterministically from the run files, every run is cut
//! at the first record `>= splitter` (a lower bound, so a group of equal
//! keys is never divided across workers), and each worker merges one
//! disjoint key range into a pre-computed region of the output file.
//!
//! Output bytes are identical to the serial merge for any worker count:
//!
//! * ranges partition the key space, and the lower-bound cut confines every
//!   group of equal keys to exactly one range, so concatenating the ranges
//!   in splitter order is the global key order;
//! * within a range each worker runs the same [`SortedStream`] loser tree
//!   over the same runs in the same relative order, so ties resolve by the
//!   same `(key, source index)` rule the serial merge uses.
//!
//! The *plan* (splitters, cuts, output regions) does vary with the worker
//! count, but every plan reproduces the same byte sequence, which is the
//! contract the ingest pipeline's byte-identity tests pin down. Callers gate
//! this path on an inert [`FaultSurface`](graphz_io::FaultSurface): chaos
//! runs must keep the serial merge so the gated op sequence stays
//! deterministic.

use std::collections::BTreeSet;
use std::io::{BufReader, Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use graphz_io::{FaultSurface, IoStats, RecordReader, RecordWriter, TrackedFile};
use graphz_types::{cast, FixedCodec, GraphError, IoCtx, Result};

use crate::stream::{RunSource, SortedStream};

/// Records below which the parallel merge is declined: the probe seeks and
/// per-worker file handles cost more than single-threaded compares save.
pub const PARALLEL_MERGE_MIN_RECORDS: u64 = 1 << 14;

/// Write buffer for each worker's output region.
const SEGMENT_BUF_BYTES: usize = 64 * 1024;

/// Decode the record at index `idx` of an open run file.
fn probe<T: FixedCodec>(file: &mut TrackedFile, idx: u64) -> Result<T> {
    let size = cast::len_u64(T::SIZE);
    let at = cast::mul_u64(idx, size, "merge probe position")?;
    file.seek(SeekFrom::Start(at))?;
    let mut buf = vec![0u8; T::SIZE];
    file.read_exact(&mut buf)?;
    Ok(T::read_from(&buf))
}

/// Index of the first record in the run whose key is `>= splitter`
/// (binary search over the seekable fixed-size records).
fn lower_bound<T, K, F>(file: &mut TrackedFile, records: u64, splitter: &K, key: &F) -> Result<u64>
where
    T: FixedCodec,
    K: Ord,
    F: Fn(&T) -> K,
{
    let (mut lo, mut hi) = (0u64, records);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if key(&probe::<T>(file, mid)?) < *splitter {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    Ok(lo)
}

/// Merge already-sorted `runs` into `output` with `workers` threads over
/// disjoint key ranges, each worker reading every run segment through a
/// `block`-byte buffer. Returns `Ok(false)` — having written nothing — when
/// the merge is too small to be worth parallelising; the caller then takes
/// the serial path.
pub(crate) fn merge_runs_parallel<T, K, F>(
    key: &F,
    stats: &Arc<IoStats>,
    surface: &FaultSurface,
    workers: usize,
    runs: &[PathBuf],
    block: usize,
    output: &Path,
) -> Result<bool>
where
    T: FixedCodec,
    K: Ord,
    F: Fn(&T) -> K + Sync,
{
    let size = cast::len_u64(T::SIZE);
    let workers = workers.max(2);

    let mut files = Vec::with_capacity(runs.len());
    let mut lens = Vec::with_capacity(runs.len());
    let mut total = 0u64;
    for path in runs {
        let file = TrackedFile::open(path, Arc::clone(stats)).ctx("open", path)?;
        let bytes = file.len()?;
        if bytes % size != 0 {
            return Err(GraphError::Corrupt(format!(
                "run {} is not a whole number of {}-byte records",
                path.display(),
                T::SIZE
            )));
        }
        let records = bytes / size;
        total = cast::add_u64(total, records, "merge record total")?;
        lens.push(records);
        files.push(file);
    }
    if total < PARALLEL_MERGE_MIN_RECORDS {
        return Ok(false);
    }

    // Probe candidate splitter keys at even fractions of every run, then
    // keep the candidates at even fractions of the sorted pool. Sampling
    // all runs (not just the largest) keeps the cuts balanced when the key
    // distribution is skewed across runs.
    let mut candidates: Vec<K> = Vec::with_capacity(runs.len() * (workers - 1));
    for (file, &n) in files.iter_mut().zip(&lens) {
        if n == 0 {
            continue;
        }
        for w in 1..workers {
            let idx = cast::mul_u64(n, cast::len_u64(w), "splitter probe")? / cast::len_u64(workers);
            candidates.push(key(&probe::<T>(file, idx.min(n - 1))?));
        }
    }
    candidates.sort();
    let chosen: BTreeSet<usize> = (1..workers).map(|w| candidates.len() * w / workers).collect();
    let splitters: Vec<K> = candidates
        .into_iter()
        .enumerate()
        .filter_map(|(i, k)| chosen.contains(&i).then_some(k))
        .collect();

    // cuts[r][i] = first record of run i belonging to range r; the final
    // row of run lengths closes the last range. Splitters are sorted, so
    // each row is element-wise >= the previous one.
    let mut cuts: Vec<Vec<u64>> = Vec::with_capacity(splitters.len() + 2);
    cuts.push(vec![0; files.len()]);
    for s in &splitters {
        let mut row = Vec::with_capacity(files.len());
        for (file, &n) in files.iter_mut().zip(&lens) {
            row.push(lower_bound::<T, K, F>(file, n, s, key)?);
        }
        cuts.push(row);
    }
    cuts.push(lens.clone());
    drop(files);

    // Record rank (= output position) where each range starts.
    let ranges = cuts.len() - 1;
    let mut regions = Vec::with_capacity(ranges);
    let mut rank = 0u64;
    for r in 0..ranges {
        let mut n = 0u64;
        for (&at, &next) in cuts[r].iter().zip(cuts[r + 1].iter()) {
            let seg = cast::sub_u64(next, at, "merge segment length")?;
            n = cast::add_u64(n, seg, "merge range length")?;
        }
        regions.push((rank, n));
        rank = cast::add_u64(rank, n, "merge output rank")?;
    }
    debug_assert_eq!(rank, total, "ranges must partition the merge input");

    // Callers take this path only with an inert surface (chaos runs stay
    // serial), so the gates are pass-throughs today — but routing keeps the
    // structural invariant that every output-file operation is gated, and
    // makes any future active-surface use chaos-covered by construction.
    surface.op("pmerge:create-output")?;
    let out = TrackedFile::create(output, Arc::clone(stats)).ctx("create", output)?;
    out.set_len(cast::mul_u64(total, size, "merged output bytes")?)?;
    drop(out);

    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(ranges);
        for (r, &(start, n)) in regions.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let (lo, hi) = (&cuts[r], &cuts[r + 1]);
            let stats = Arc::clone(stats);
            let handle = std::thread::Builder::new()
                .name(format!("graphz-merge-{r}"))
                .spawn_scoped(scope, move || {
                    merge_range::<T, K, F>(
                        key, stats, surface, runs, block, lo, hi, n, start, output,
                    )
                })?;
            handles.push(handle);
        }
        for h in handles {
            match h.join() {
                Ok(res) => res?,
                Err(_) => {
                    return Err(GraphError::Corrupt("parallel merge worker panicked".into()))
                }
            }
        }
        Ok(())
    })?;
    Ok(true)
}

/// One worker: loser-tree merge of the `[lo, hi)` segment of every run into
/// the output region starting at record rank `start`.
#[allow(clippy::too_many_arguments)]
fn merge_range<T, K, F>(
    key: &F,
    stats: Arc<IoStats>,
    surface: &FaultSurface,
    runs: &[PathBuf],
    block: usize,
    lo: &[u64],
    hi: &[u64],
    records: u64,
    start: u64,
    output: &Path,
) -> Result<()>
where
    T: FixedCodec,
    K: Ord,
    F: Fn(&T) -> K,
{
    let size = cast::len_u64(T::SIZE);
    let mut sources: Vec<RunSource<T>> = Vec::with_capacity(runs.len());
    // Skipping empty segments keeps only the *relative* source order, which
    // is all the `(key, source index)` tie-break observes.
    for (i, path) in runs.iter().enumerate() {
        let seg = cast::sub_u64(hi[i], lo[i], "merge segment length")?;
        if seg == 0 {
            continue;
        }
        let mut file = TrackedFile::open(path, Arc::clone(&stats)).ctx("open", path)?;
        file.seek(SeekFrom::Start(cast::mul_u64(lo[i], size, "segment start")?))?;
        let limited = BufReader::with_capacity(block, file)
            .take(cast::mul_u64(seg, size, "segment bytes")?);
        let boxed: Box<dyn Read + Send> = Box::new(limited);
        sources.push(RunSource::File(RecordReader::from_reader(boxed)));
    }
    let mut merged = SortedStream::new(sources, key, records)?;

    surface.op("pmerge:open-output-region")?;
    let mut out = TrackedFile::open_rw(output, stats).ctx("open-rw", output)?;
    out.seek(SeekFrom::Start(cast::mul_u64(start, size, "output region start")?))?;
    let mut w = RecordWriter::<T, _>::from_writer(
        surface.wrap(std::io::BufWriter::with_capacity(SEGMENT_BUF_BYTES, out)),
    );
    let mut drained = 0u64;
    while let Some(rec) = merged.next_record()? {
        w.push(&rec)?;
        drained += 1;
    }
    w.finish()?;
    if drained != records {
        return Err(GraphError::Corrupt(format!(
            "parallel merge range produced {drained} of {records} records"
        )));
    }
    Ok(())
}
