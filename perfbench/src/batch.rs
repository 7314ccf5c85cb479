//! The batch workloads: `ingest-text` (SNAP text to a DOS image) and the
//! two engine workloads, `pr-spill` and `bfs-fit`.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use graphz_algos::graphz::{Bfs, PageRank};
use graphz_algos::runner::run_reference;
use graphz_algos::{AlgoParams, AlgoValues, Algorithm};
use graphz_core::{DosStore, Engine, EngineConfig, GraphStore, RunSummary, VertexProgram};
use graphz_extsort::SortTimings;
use graphz_io::IoStats;
use graphz_storage::{
    verify_dos, CsrGraph, DosConverter, DosGraph, EdgeListFile, IngestPipeline, IngestTimings,
};
use graphz_types::{EngineOptions, GraphError, MemoryBudget, Result, VertexId};

use crate::inputs::{dir_bytes, file_digest, generate, remove_dir, repeated_setup};
use crate::measure::{median, ratio, settle, Tracer};
use crate::{Ctx, Outcome, Samples};

/// `pr-spill` runs exactly this many PageRank iterations.
pub const PR_ITERATIONS: u32 = 10;

/// Largest relative difference, over all vertices, allowed between the
/// engine's PageRank and the in-memory reference after
/// [`PR_ITERATIONS`]. The engine applies in-partition messages within the
/// iteration that sends them, so after a fixed iteration count its ranks
/// differ from the synchronous reference by more than float rounding.
pub const PR_TOLERANCE: f64 = 0.1;

/// Per-layer numbers of the DOS conversion, from one set-up or ingest.
#[derive(Default)]
pub struct ConvertLayers {
    parse_s: Vec<f64>,
    merge_emit_s: Vec<f64>,
    open_s: Vec<f64>,
    form_s: Vec<f64>,
    sort_merge_s: Vec<f64>,
    read_per_edge: Vec<f64>,
    written_per_edge: Vec<f64>,
}

impl ConvertLayers {
    fn push(&mut self, parse_s: f64, convert_s: f64, sort: &SortTimings, open_s: f64) {
        self.parse_s.push(parse_s);
        self.merge_emit_s
            .push((convert_s - sort.form().as_secs_f64()).max(0.0));
        self.form_s.push(sort.form().as_secs_f64());
        self.sort_merge_s.push(sort.merge().as_secs_f64());
        self.open_s.push(open_s);
    }

    fn push_io(&mut self, stats: &IoStats, edges: u64) {
        let io = stats.snapshot();
        self.read_per_edge
            .push(ratio(io.bytes_read as f64, edges as f64));
        self.written_per_edge
            .push(ratio(io.bytes_written as f64, edges as f64));
    }

    pub fn report(&self, out: &mut Outcome, graph: &DosGraph) {
        let m = &mut out.metrics;
        m.insert("storage.parse_s", median(&self.parse_s));
        m.insert("storage.merge_emit_s", median(&self.merge_emit_s));
        m.insert("storage.open_s", median(&self.open_s));
        m.insert("storage.index_bytes", graph.index().index_bytes() as f64);
        m.insert(
            "storage.unique_degrees",
            graph.index().unique_degrees() as f64,
        );
        m.insert("extsort.form_s", median(&self.form_s));
        m.insert("extsort.merge_s", median(&self.sort_merge_s));
        m.insert("io.ingest_read_per_edge", median(&self.read_per_edge));
        m.insert("io.ingest_written_per_edge", median(&self.written_per_edge));
    }
}

/// `ingest-text`: SNAP text to a DOS image through `IngestPipeline`.
pub fn ingest_text(ctx: &Ctx, tracer: &mut Tracer) -> Result<Outcome> {
    let sizing = ctx.sizing;
    let budget = sizing.default_budget();
    let (bin, gen_s) = generate(&ctx.work, &sizing, ctx.seed)?;
    let (text, setup_times) = repeated_setup(
        &ctx.work,
        |dir| {
            let text = dir.join("g.txt");
            bin.export_text(&text, IoStats::new())?;
            Ok(text)
        },
        drop,
    )?;
    let edges = bin.meta().num_edges;
    let text_bytes = std::fs::metadata(&text)?.len();

    // Oracle: the binary-input conversion of the same graph.
    let oracle_dir = ctx.work.join("oracle");
    DosConverter::builder()
        .budget(budget)
        .stats(IoStats::new())
        .threads(sizing.nproc)
        .build()?
        .convert(&bin, &oracle_dir)?;
    let want = file_digest(&oracle_dir.join("edges.bin"))?;
    remove_dir(&oracle_dir);
    std::fs::remove_file(bin.path())?;

    let mut out = Outcome::new(setup_times);
    out.context.insert("generate_s", gen_s);
    out.context.insert(
        "text_bytes_over_sort_budget",
        ratio(text_bytes as f64, budget.bytes() as f64),
    );
    let mut samples = Samples::default();
    let mut layers = ConvertLayers::default();
    settle();
    let mut image_bytes_per_edge = None;
    let mut last_graph = None;
    let start = Instant::now();
    let mut i = 0u64;
    while samples.more(ctx, start, 3) {
        let traced = samples.next_traced(ctx, tracer);
        let dir = ctx.work.join(format!("ingest-{i}"));
        let stats = IoStats::new();
        let timings = IngestTimings::new();
        let pipeline = IngestPipeline::builder()
            .budget(budget)
            .stats(Arc::clone(&stats))
            .threads(sizing.nproc)
            .timings(Arc::clone(&timings))
            .build()?;
        let root = tracer.open("ingest", i, None);
        samples.begin();
        let (result, _) = tracer.span("storage.IngestPipeline::run", i, root, || {
            pipeline.run(&text, &dir)
        });
        let wall = samples.end();
        out.attempted += 1;
        let checked = result.and_then(|_| {
            let (graph, open_s) = tracer.span("storage.DosGraph::open", i, root, || {
                DosGraph::open(&dir, IoStats::new())
            });
            let graph = graph?;
            if traced {
                layers.push(
                    timings.import().as_secs_f64(),
                    timings.convert().as_secs_f64(),
                    timings.sort(),
                    open_s,
                );
                layers.push_io(&stats, edges);
            }
            check_image(&dir, want)?;
            if image_bytes_per_edge.is_none() {
                image_bytes_per_edge = Some(ratio(dir_bytes(&dir)? as f64, edges as f64));
            }
            Ok(graph)
        });
        tracer.close(root);
        match checked {
            Ok(graph) => {
                samples.push(traced, wall);
                last_graph = Some(graph);
            }
            Err(e) => out.fail(format!("ingest {i}: {e}")),
        }
        remove_dir(&dir);
        i += 1;
    }
    out.finish_ops(ctx, &samples, image_bytes_per_edge.unwrap_or(0.0));
    if let (true, Some(graph)) = (ctx.trace, &last_graph) {
        layers.report(&mut out, graph);
    }
    Ok(out)
}

/// The ingested image must pass `verify_dos` and carry exactly the
/// adjacency bytes of the binary-input conversion.
fn check_image(dir: &Path, want: (u64, u64)) -> Result<()> {
    let report = verify_dos(dir, IoStats::new())?;
    if !report.is_clean() {
        return Err(GraphError::Corrupt(format!(
            "verify_dos: {:?}",
            report.violations
        )));
    }
    if file_digest(&dir.join("edges.bin"))? != want {
        return Err(GraphError::Corrupt(
            "edges.bin differs from the binary-input conversion".into(),
        ));
    }
    Ok(())
}

/// The generated graph converted to a DOS image, as the engine and serve
/// workloads start from it.
pub struct Converted {
    pub dos: DosGraph,
    pub dos_dir: std::path::PathBuf,
}

/// Convert the binary edge list to a DOS image in `dir` with the default
/// budget, and open it; record the conversion's per-layer numbers into
/// `layers`.
fn convert_in(
    ctx: &Ctx,
    bin: &EdgeListFile,
    dir: &Path,
    tracer: &mut Tracer,
    trace_id: u64,
    layers: &mut ConvertLayers,
) -> Result<Converted> {
    let stats = IoStats::new();
    let sort = SortTimings::new();
    let converter = DosConverter::builder()
        .budget(ctx.sizing.default_budget())
        .stats(Arc::clone(&stats))
        .threads(ctx.sizing.nproc)
        .timings(Arc::clone(&sort))
        .build()?;
    let dos_dir = dir.join("dos");
    let root = tracer.open("setup", trace_id, None);
    let (converted, convert_s) =
        tracer.span("storage.DosConverter::convert", trace_id, root, || {
            converter.convert(bin, &dos_dir)
        });
    converted?;
    let (dos, open_s) = tracer.span("storage.DosGraph::open", trace_id, root, || {
        DosGraph::open(&dos_dir, IoStats::new())
    });
    tracer.close(root);
    layers.push(0.0, convert_s, &sort, open_s);
    layers.push_io(&stats, bin.meta().num_edges);
    Ok(Converted { dos: dos?, dos_dir })
}

/// Convert the generated graph `bin`, extended by `extend`,
/// [`SETUP_REPEATS`](crate::inputs::SETUP_REPEATS) times; returns the last
/// set-up, the set-up times, and the conversion's per-layer numbers.
/// Earlier set-ups go to `retire`.
pub fn converted_setup<T>(
    ctx: &Ctx,
    bin: &EdgeListFile,
    tracer: &mut Tracer,
    mut extend: impl FnMut(&Ctx, Converted, &Path) -> Result<T>,
    retire: impl FnMut(T),
) -> Result<(T, Vec<f64>, ConvertLayers)> {
    let mut layers = ConvertLayers::default();
    let mut n = 0;
    let (prepared, times) = repeated_setup(
        &ctx.work,
        |dir| {
            n += 1;
            let converted = convert_in(ctx, bin, dir, tracer, n, &mut layers)?;
            extend(ctx, converted, dir)
        },
        retire,
    )?;
    Ok((prepared, times, layers))
}

/// `bfs-fit` runs one BFS from each of this many highest-degree vertices
/// per operation. A single BFS takes 5 or 6 iterations depending on the
/// seed's graph; the sum over several sources varies less by seed.
pub const BFS_SOURCES: u32 = 4;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum EngineWorkload {
    /// PageRank, 10 iterations, 1 MiB budget: partitioned, spilling,
    /// prefetching.
    PrSpill,
    /// BFS to convergence from the top-degree vertices, 8 MiB budget: one
    /// partition.
    BfsFit,
}

/// One engine run of an operation: its parameters and expected values.
struct Job {
    params: AlgoParams,
    /// `params.source` as a storage id.
    source: VertexId,
    want: AlgoValues,
}

/// The runs of one operation, with reference results from the in-memory
/// CSR of the generated graph.
fn jobs(which: EngineWorkload, bin: &EdgeListFile, dos: &DosGraph) -> Result<Vec<Job>> {
    let edges = bin.read_all(IoStats::new())?;
    let csr = CsrGraph::from_edges(bin.meta().num_vertices as usize, &edges);
    drop(edges);
    let params: Vec<(AlgoParams, VertexId)> = match which {
        EngineWorkload::PrSpill => {
            let mut p = AlgoParams::new(Algorithm::PageRank).with_max_iterations(PR_ITERATIONS);
            // Never stop early: every run does exactly PR_ITERATIONS.
            p.pr_tolerance = 0.0;
            vec![(p, 0)]
        }
        EngineWorkload::BfsFit => {
            // DOS numbers vertices by descending degree: storage ids
            // 0..BFS_SOURCES are the highest-degree vertices.
            let new2old = dos.load_new2old(IoStats::new())?;
            (0..BFS_SOURCES)
                .map(|s| {
                    (
                        AlgoParams::new(Algorithm::Bfs).with_source(new2old[s as usize]),
                        s,
                    )
                })
                .collect()
        }
    };
    params
        .into_iter()
        .map(|(params, source)| {
            Ok(Job {
                params,
                source,
                want: run_reference(&csr, &params)?.values,
            })
        })
        .collect()
}

/// Engine timings and counters of one run.
struct RunRecord {
    summary: RunSummary,
    values: AlgoValues,
    new_s: f64,
    iterate_s: f64,
    values_s: f64,
}

/// `Engine::new`, `run`, `values_by_original_id`: one engine run.
fn one_run<P: VertexProgram>(
    tracer: &mut Tracer,
    trace_id: u64,
    dos: &DosGraph,
    program: P,
    config: EngineConfig,
    max_iterations: u32,
    extract: fn(Vec<P::VertexData>) -> AlgoValues,
) -> Result<RunRecord> {
    let root = tracer.open("run", trace_id, None);
    let store: Box<dyn GraphStore> = Box::new(DosStore::new(dos.clone()));
    let (engine, new_s) = tracer.span("core.Engine::new", trace_id, root, || {
        Engine::new(store, program, config, IoStats::new())
    });
    let mut engine = engine?;
    let (summary, iterate_s) = tracer.span("core.Engine::run", trace_id, root, || {
        engine.run(max_iterations)
    });
    let (values, values_s) =
        tracer.span("core.Engine::values_by_original_id", trace_id, root, || {
            engine.values_by_original_id()
        });
    tracer.close(root);
    Ok(RunRecord {
        summary: summary?,
        values: extract(values?),
        new_s,
        iterate_s,
        values_s,
    })
}

/// Per-layer samples of the engine, one entry per operation (summed over
/// the operation's runs).
#[derive(Default)]
struct EngineLayers {
    new_s: Vec<f64>,
    iterate_s: Vec<f64>,
    values_s: Vec<f64>,
    load_s: Vec<f64>,
    replay_s: Vec<f64>,
    compute_s: Vec<f64>,
    flush_s: Vec<f64>,
    hits: Vec<f64>,
    stalls: Vec<f64>,
    /// Counters of the last operation, summed over its runs.
    iterations: u64,
    partitions: u64,
    messages_sent: u64,
    dynamic_applied: u64,
    buffered: u64,
    spilled: u64,
    replayed: u64,
    fresh: u64,
    bytes_read: u64,
    bytes_written: u64,
    seeks: u64,
}

impl EngineLayers {
    fn push(&mut self, runs: &[RunRecord]) {
        let sum = |f: &dyn Fn(&RunRecord) -> f64| runs.iter().map(f).sum::<f64>();
        self.new_s.push(sum(&|r| r.new_s));
        self.iterate_s.push(sum(&|r| r.iterate_s));
        self.values_s.push(sum(&|r| r.values_s));
        self.load_s
            .push(sum(&|r| r.summary.stages.load.as_secs_f64()));
        self.replay_s
            .push(sum(&|r| r.summary.stages.replay.as_secs_f64()));
        self.compute_s
            .push(sum(&|r| r.summary.stages.compute.as_secs_f64()));
        self.flush_s
            .push(sum(&|r| r.summary.stages.flush.as_secs_f64()));
        self.hits.push(sum(&|r| r.summary.prefetch.hits as f64));
        self.stalls.push(sum(&|r| r.summary.prefetch.stalls as f64));
        let count =
            |f: &dyn Fn(&RunSummary) -> u64| runs.iter().map(|r| f(&r.summary)).sum::<u64>();
        self.iterations = count(&|s| u64::from(s.iterations));
        self.partitions = runs
            .iter()
            .map(|r| u64::from(r.summary.partitions))
            .max()
            .unwrap_or(0);
        self.messages_sent = count(&|s| s.messages_sent);
        self.dynamic_applied = count(&|s| s.dynamic_applied);
        self.buffered = count(&|s| s.buffered);
        self.spilled = count(&|s| s.spilled);
        self.replayed = count(&|s| s.replayed);
        self.fresh = count(&|s| s.pool.fresh);
        self.bytes_read = count(&|s| s.io.bytes_read);
        self.bytes_written = count(&|s| s.io.bytes_written);
        self.seeks = count(&|s| s.io.seeks);
    }

    fn report(&self, out: &mut Outcome) {
        let iterations = self.iterations as f64;
        let (hits, stalls) = (median(&self.hits), median(&self.stalls));
        let m = &mut out.metrics;
        m.insert("engine.new_s", median(&self.new_s));
        m.insert("engine.iterate_s", median(&self.iterate_s));
        m.insert("engine.values_s", median(&self.values_s));
        m.insert("engine.load_s", median(&self.load_s));
        m.insert("engine.replay_s", median(&self.replay_s));
        m.insert("engine.compute_s", median(&self.compute_s));
        m.insert("engine.flush_s", median(&self.flush_s));
        m.insert("engine.iterations", iterations);
        m.insert("engine.partitions", self.partitions as f64);
        m.insert(
            "engine.dm_ratio",
            ratio(self.dynamic_applied as f64, self.messages_sent as f64),
        );
        m.insert("msg.spilled", self.spilled as f64);
        m.insert("msg.replayed", self.replayed as f64);
        m.insert(
            "msg.spill_ratio",
            ratio(self.spilled as f64, self.buffered as f64),
        );
        m.insert("prefetch.hits", hits);
        m.insert("prefetch.stalls", stalls);
        m.insert("prefetch.hit_ratio", ratio(hits, hits + stalls));
        m.insert("pool.fresh", self.fresh as f64);
        m.insert(
            "io.read_per_iter",
            ratio(self.bytes_read as f64, iterations),
        );
        m.insert(
            "io.written_per_iter",
            ratio(self.bytes_written as f64, iterations),
        );
        m.insert("io.seeks", self.seeks as f64);
    }
}

/// `pr-spill` and `bfs-fit`: each operation runs the workload's engine
/// runs over a DOS image converted from the binary edge list in set-up.
pub fn engine_workload(ctx: &Ctx, tracer: &mut Tracer, which: EngineWorkload) -> Result<Outcome> {
    let (bin, gen_s) = generate(&ctx.work, &ctx.sizing, ctx.seed)?;
    let (converted, setup_times, convert_layers) =
        converted_setup(ctx, &bin, tracer, |_, converted, _| Ok(converted), drop)?;
    let Converted { dos, dos_dir } = converted;
    let edges = bin.meta().num_edges;
    let num_vertices = dos.index().num_vertices();
    let budget = match which {
        EngineWorkload::PrSpill => ctx.sizing.spill_budget(),
        EngineWorkload::BfsFit => ctx.sizing.default_budget(),
    };
    let jobs = jobs(which, &bin, &dos)?;
    std::fs::remove_file(bin.path())?;

    let mut out = Outcome::new(setup_times);
    out.context.insert("generate_s", gen_s);
    // PageRank state is (rank, votes), BFS state (distance, pending): both
    // 8 bytes per vertex.
    out.context.insert(
        "vertex_state_bytes_over_engine_budget",
        ratio((num_vertices * 8) as f64, budget.bytes() as f64),
    );
    let image_bytes_per_edge = ratio(dir_bytes(&dos_dir)? as f64, edges as f64);
    let mut samples = Samples::default();
    let mut layers = EngineLayers::default();
    settle();
    let start = Instant::now();
    let mut i = 0u64;
    while samples.more(ctx, start, 5) {
        let traced = samples.next_traced(ctx, tracer);
        samples.begin();
        let runs: Result<Vec<RunRecord>> = jobs
            .iter()
            .map(|job| run_job(ctx, tracer, i, &dos, which, budget, job))
            .collect();
        let wall = samples.end();
        out.attempted += 1;
        let checked = runs.and_then(|runs| {
            runs.iter()
                .zip(&jobs)
                .try_for_each(|(r, job)| check_run(which, r, &job.want))?;
            Ok(runs)
        });
        match checked {
            Ok(runs) => {
                samples.push(traced, wall);
                if traced {
                    layers.push(&runs);
                }
            }
            Err(e) => out.fail(format!("operation {i}: {e}")),
        }
        i += 1;
    }
    out.finish_ops(ctx, &samples, image_bytes_per_edge);
    if ctx.trace {
        convert_layers.report(&mut out, &dos);
        layers.report(&mut out);
    }
    Ok(out)
}

/// One engine run of `job` with the workload's budget and `nproc` engine
/// threads.
fn run_job(
    ctx: &Ctx,
    tracer: &mut Tracer,
    trace_id: u64,
    dos: &DosGraph,
    which: EngineWorkload,
    budget: MemoryBudget,
    job: &Job,
) -> Result<RunRecord> {
    let mut config = EngineConfig::new(budget)
        .with_options(EngineOptions::with_parallel_workers(ctx.sizing.nproc));
    config.scratch_base = Some(ctx.work.clone());
    let max = job.params.max_iterations;
    match which {
        EngineWorkload::PrSpill => {
            let program = PageRank {
                tolerance: job.params.pr_tolerance,
            };
            one_run(tracer, trace_id, dos, program, config, max, |v| {
                AlgoValues::Ranks(v.into_iter().map(|x| x.0).collect())
            })
        }
        EngineWorkload::BfsFit => {
            let program = Bfs { source: job.source };
            one_run(tracer, trace_id, dos, program, config, max, |v| {
                AlgoValues::Hops(v.into_iter().map(|x| x.0).collect())
            })
        }
    }
}

/// Output check against the reference, then the workload self-check: a
/// run that no longer exercises what the workload was chosen for fails.
fn check_run(which: EngineWorkload, r: &RunRecord, want: &AlgoValues) -> Result<()> {
    let s = &r.summary;
    let fail = |what: String| Err(GraphError::Algorithm(what));
    match which {
        EngineWorkload::PrSpill => {
            let err = want.max_relative_error(&r.values);
            if err > PR_TOLERANCE {
                return fail(format!(
                    "PageRank max relative error {err} > {PR_TOLERANCE}"
                ));
            }
            if s.partitions < 8 || s.spilled == 0 || s.prefetch.hits + s.prefetch.stalls == 0 {
                return fail(format!(
                    "self-check: partitions {} (want >= 8), spilled {} (want > 0), \
                     prefetch hits+stalls {} (want > 0)",
                    s.partitions,
                    s.spilled,
                    s.prefetch.hits + s.prefetch.stalls
                ));
            }
        }
        EngineWorkload::BfsFit => {
            if r.values != *want {
                return fail("BFS hop counts differ from the reference".into());
            }
            if s.partitions != 1 || s.spilled != 0 {
                return fail(format!(
                    "self-check: partitions {} (want 1), spilled {} (want 0)",
                    s.partitions, s.spilled
                ));
            }
        }
    }
    Ok(())
}
