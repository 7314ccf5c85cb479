//! Workload inputs: the seeded R-MAT graph and the budgets sized to it.

use std::fs::File;
use std::io::{BufReader, Read};
use std::path::{Path, PathBuf};
use std::time::Instant;

use graphz_gen::{rmat_edges, RmatParams};
use graphz_io::IoStats;
use graphz_storage::EdgeListFile;
use graphz_types::{MemoryBudget, Result};

/// The DESIGN.md §6 "large" suite graph: R-MAT scale 19, 4 M edges.
pub const FULL_SCALE: u32 = 19;
pub const FULL_EDGES: u64 = 4_000_000;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// Graph size and the budgets that go with it. Every budget is fixed at
/// full scale and halves with each scale step below it, so a small
/// self-test graph keeps the full graph's size-to-budget ratios (and thus
/// its partition count and spill behaviour).
#[derive(Debug, Clone, Copy)]
pub struct Sizing {
    pub scale: u32,
    pub edges: u64,
    pub nproc: usize,
}

impl Sizing {
    pub fn new(scale: u32) -> Sizing {
        let shift = FULL_SCALE.saturating_sub(scale);
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        Sizing {
            scale,
            edges: FULL_EDGES >> shift,
            nproc,
        }
    }

    fn shrink(&self, full: MemoryBudget) -> MemoryBudget {
        let shift = FULL_SCALE.saturating_sub(self.scale);
        MemoryBudget((full.bytes() >> shift).max(16 * 1024))
    }

    /// The default 8 MiB budget: ingest sorts, conversions, and the engine
    /// on `bfs-fit` (where the whole vertex state fits in one partition).
    pub fn default_budget(&self) -> MemoryBudget {
        self.shrink(MemoryBudget::from_mib(8))
    }

    /// The 1 MiB engine budget of `pr-spill`: 8 partitions, spilled messages.
    pub fn spill_budget(&self) -> MemoryBudget {
        self.shrink(MemoryBudget::from_mib(1))
    }
}

/// Write the seeded R-MAT edge list to `work/input/g.bin`; returns it with
/// the generation time in seconds. Generation makes the inputs, once per
/// run; it is not part of the timed set-up.
pub fn generate(work: &Path, sizing: &Sizing, seed: u64) -> Result<(EdgeListFile, f64)> {
    let dir = work.join("input");
    std::fs::create_dir_all(&dir)?;
    let start = Instant::now();
    let bin = EdgeListFile::create(
        &dir.join("g.bin"),
        IoStats::new(),
        rmat_edges(sizing.scale, sizing.edges, RmatParams::default(), seed),
    )?;
    Ok((bin, start.elapsed().as_secs_f64()))
}

/// Run `prepare` [`SETUP_REPEATS`] times, each in a fresh directory under
/// `work`, and keep only the last result; earlier results go to `retire`
/// (untimed) before their directory is removed. Returns the kept result
/// with every set-up's wall time.
pub fn repeated_setup<T>(
    work: &Path,
    mut prepare: impl FnMut(&Path) -> Result<T>,
    mut retire: impl FnMut(T),
) -> Result<(T, Vec<f64>)> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut kept: Option<(T, PathBuf)> = None;
    for i in 0..SETUP_REPEATS {
        let dir = work.join(format!("setup-{i}"));
        std::fs::create_dir_all(&dir)?;
        let start = Instant::now();
        let prepared = prepare(&dir)?;
        times.push(start.elapsed().as_secs_f64());
        if let Some((old, old_dir)) = kept.replace((prepared, dir)) {
            retire(old);
            remove_dir(&old_dir);
        }
    }
    let (prepared, _) = kept.expect("SETUP_REPEATS is at least one");
    Ok((prepared, times))
}

pub fn remove_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}

/// Total bytes of the regular files directly inside `dir`.
pub fn dir_bytes(dir: &Path) -> Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let meta = entry?.metadata()?;
        if meta.is_file() {
            total += meta.len();
        }
    }
    Ok(total)
}

/// FNV-1a digest and length of a file, for byte-identity checks that do
/// not keep the reference bytes resident.
pub fn file_digest(path: &Path) -> Result<(u64, u64)> {
    let mut reader = BufReader::with_capacity(1 << 20, File::open(path)?);
    let mut buf = vec![0u8; 1 << 20];
    let (mut hash, mut len) = (FNV_OFFSET, 0u64);
    loop {
        let n = reader.read(&mut buf)?;
        if n == 0 {
            return Ok((hash, len));
        }
        hash = fnv1a(hash, &buf[..n]);
        len += n as u64;
    }
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

pub fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}
