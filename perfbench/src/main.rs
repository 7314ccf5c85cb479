//! GraphZ benchmark: ingest, run and serve, end to end and per layer.
//!
//! ```text
//! perfbench --workload <ingest-text|pr-spill|bfs-fit|serve-open> --seed N
//!           --seconds S --trace 0|1 --work DIR --trace-file FILE [--scale K]
//! ```
//!
//! Inputs are generated from `--seed` (R-MAT, DESIGN.md §6 "large" graph
//! unless `--scale` shrinks it for the self-test); the library under test
//! receives only the generated files. The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed`, and the metrics —
//! end-to-end with `--trace 0`, per-layer with `--trace 1`. A traced run
//! also writes its spans to FILE once, at exit; DIR holds the run's
//! scratch files.

mod batch;
mod inputs;
mod measure;
mod serve;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use batch::EngineWorkload;
use inputs::{Sizing, FULL_SCALE};
use measure::{median, peak_rss_mib, ratio, reset_peak_rss, Tracer};

/// End-to-end metrics and their units; every workload reports each.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("peak_rss_mib", "MiB"),
    ("image_bytes_per_edge", "B/edge"),
];

/// Per-layer metrics and their units. A workload that bypasses a layer
/// reports 0 for it: the traced run saw no work there.
const PER_LAYER: &[(&str, &str)] = &[
    ("storage.parse_s", "s"),
    ("storage.merge_emit_s", "s"),
    ("storage.open_s", "s"),
    ("storage.index_bytes", "B"),
    ("storage.unique_degrees", "count"),
    ("extsort.form_s", "s"),
    ("extsort.merge_s", "s"),
    ("io.ingest_read_per_edge", "B/edge"),
    ("io.ingest_written_per_edge", "B/edge"),
    ("io.read_per_iter", "B"),
    ("io.written_per_iter", "B"),
    ("io.seeks", "count"),
    ("io.read_per_query", "B"),
    ("engine.new_s", "s"),
    ("engine.iterate_s", "s"),
    ("engine.values_s", "s"),
    ("engine.load_s", "s"),
    ("engine.replay_s", "s"),
    ("engine.compute_s", "s"),
    ("engine.flush_s", "s"),
    ("engine.iterations", "count"),
    ("engine.partitions", "count"),
    ("engine.dm_ratio", "ratio"),
    ("msg.spilled", "count"),
    ("msg.replayed", "count"),
    ("msg.spill_ratio", "ratio"),
    ("prefetch.hits", "count"),
    ("prefetch.stalls", "count"),
    ("prefetch.hit_ratio", "ratio"),
    ("pool.fresh", "count"),
    ("serve.parse_p50_us", "us"),
    ("serve.parse_p99_us", "us"),
    ("serve.lookup_p50_us", "us"),
    ("serve.lookup_p99_us", "us"),
    ("serve.neighbors_p50_us", "us"),
    ("serve.neighbors_p99_us", "us"),
    ("serve.khop_p50_us", "us"),
    ("serve.khop_p99_us", "us"),
    ("serve.value_p50_us", "us"),
    ("serve.value_p99_us", "us"),
    ("serve.handle_p50_us", "us"),
    ("serve.handle_p99_us", "us"),
    ("serve.render_p50_us", "us"),
    ("serve.render_p99_us", "us"),
    ("serve.wire_p50_us", "us"),
    ("serve.wire_p99_us", "us"),
    ("serve.max_qps", "1/s"),
    ("serve.query_p50_us", "us"),
    ("serve.query_p99_us", "us"),
    ("gen.lag_p99_us", "us"),
    ("gen.backlog_max", "count"),
    ("trace.overhead", "ratio"),
];

pub struct Ctx {
    pub work: PathBuf,
    pub sizing: Sizing,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What one workload run measured.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub setup_times: Vec<f64>,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Size ratios and settings printed with the result.
    pub context: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn new(setup_times: Vec<f64>) -> Outcome {
        Outcome {
            attempted: 0,
            failed: 0,
            setup_times,
            metrics: BTreeMap::new(),
            context: BTreeMap::new(),
        }
    }

    /// Count a failed operation; the run goes on.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failed <= 10 {
            eprintln!("failed: {why}");
        }
    }

    /// Operation metrics of a batch workload from its samples.
    pub fn finish_ops(&mut self, ctx: &Ctx, samples: &Samples, image_bytes_per_edge: f64) {
        let m = &mut self.metrics;
        if ctx.trace {
            m.insert(
                "trace.overhead",
                ratio(median(&samples.traced), median(&samples.untraced)) - 1.0,
            );
            return;
        }
        let walls = &samples.untraced;
        m.insert("setup_s", median(&self.setup_times));
        m.insert("op_p50_ms", median(walls) * 1e3);
        m.insert("peak_rss_mib", median(&samples.peaks));
        m.insert("image_bytes_per_edge", image_bytes_per_edge);
    }
}

/// Operation wall times of a batch workload, in seconds, and the memory
/// high-water mark of each operation.
#[derive(Default)]
pub struct Samples {
    untraced: Vec<f64>,
    traced: Vec<f64>,
    peaks: Vec<f64>,
    attempts: usize,
    started: Option<Instant>,
}

impl Samples {
    /// Another sample is due until `seconds` have passed and at least
    /// `min` operations were attempted.
    pub fn more(&self, ctx: &Ctx, start: Instant, min: usize) -> bool {
        self.attempts < min || start.elapsed().as_secs_f64() < ctx.seconds
    }

    /// Start the next sample. A traced run traces every other operation,
    /// starting untraced, so the two interleave and the difference of their
    /// medians is the tracing overhead.
    pub fn next_traced(&mut self, ctx: &Ctx, tracer: &mut Tracer) -> bool {
        let traced = ctx.trace && self.attempts % 2 == 1;
        self.attempts += 1;
        tracer.set_recording(traced);
        traced
    }

    /// Start timing an operation.
    pub fn begin(&mut self) {
        reset_peak_rss();
        self.started = Some(Instant::now());
    }

    /// Stop timing; returns the operation's wall time in seconds.
    pub fn end(&mut self) -> f64 {
        let wall = self
            .started
            .take()
            .map_or(0.0, |t| t.elapsed().as_secs_f64());
        self.peaks.push(peak_rss_mib());
        wall
    }

    pub fn push(&mut self, traced: bool, wall: f64) {
        if traced {
            self.traced.push(wall);
        } else {
            self.untraced.push(wall);
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    work: PathBuf,
    trace_file: PathBuf,
    scale: u32,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .cloned()
            .ok_or_else(|| format!("missing {flag}"))
    };
    let num = |flag: &str| -> Result<u64, String> {
        get(flag)?
            .parse()
            .map_err(|_| format!("{flag} needs a whole number"))
    };
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    let scale = if argv.iter().any(|a| a == "--scale") {
        num("--scale")? as u32
    } else {
        FULL_SCALE
    };
    if !(8..=FULL_SCALE).contains(&scale) {
        return Err(format!("--scale must be in 8..={FULL_SCALE}"));
    }
    Ok(Args {
        workload: get("--workload")?,
        seed: num("--seed")?,
        seconds: num("--seconds")? as f64,
        trace,
        work: PathBuf::from(get("--work")?),
        trace_file: PathBuf::from(get("--trace-file")?),
        scale,
    })
}

/// Render a metric value: every digit as measured; a non-finite value
/// (which no metric should produce) makes the run incorrect.
fn render(v: f64) -> Option<String> {
    v.is_finite().then(|| format!("{v}"))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.work) {
        eprintln!("perfbench: cannot create {}: {e}", args.work.display());
        std::process::exit(2);
    }
    let ctx = Ctx {
        work: args.work.clone(),
        sizing: Sizing::new(args.scale),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
    };
    let mut tracer = Tracer::new(args.trace);
    let result = match args.workload.as_str() {
        "ingest-text" => batch::ingest_text(&ctx, &mut tracer),
        "pr-spill" => batch::engine_workload(&ctx, &mut tracer, EngineWorkload::PrSpill),
        "bfs-fit" => batch::engine_workload(&ctx, &mut tracer, EngineWorkload::BfsFit),
        "serve-open" => serve::serve_open(&ctx, &mut tracer),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    let mut out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    };
    if let Err(e) = tracer.write(&args.trace_file) {
        eprintln!("perfbench: cannot write {}: {e}", args.trace_file.display());
        std::process::exit(1);
    }

    let (table, missing_is_zero) = if args.trace {
        (PER_LAYER, true)
    } else {
        (END_TO_END, false)
    };
    let mut correct = out.failed == 0 && out.attempted > 0;
    let mut metrics = Vec::with_capacity(table.len());
    for &(name, unit) in table {
        let value = match out.metrics.remove(name) {
            Some(v) => v,
            None if missing_is_zero => 0.0,
            None => {
                eprintln!("perfbench: {} did not measure {name}", args.workload);
                correct = false;
                0.0
            }
        };
        let text = render(value).unwrap_or_else(|| {
            eprintln!("perfbench: {name} is not finite");
            correct = false;
            "0".into()
        });
        metrics.push(format!(
            "\"{name}\": {{\"value\": {text}, \"unit\": \"{unit}\"}}"
        ));
    }
    if let Some(name) = out.metrics.keys().next() {
        eprintln!("perfbench: {name} is not declared in the metric tables");
        correct = false;
    }

    out.context.insert("nproc", ctx.sizing.nproc as f64);
    out.context.insert("scale", f64::from(ctx.sizing.scale));
    out.context.insert("edges", ctx.sizing.edges as f64);
    out.context
        .insert("setup_repeats", out.setup_times.len() as f64);
    let context: Vec<String> = out
        .context
        .iter()
        .map(|(k, v)| format!("\"{k}\": {}", render(*v).unwrap_or("null".into())))
        .collect();
    println!("{{\"context\": {{{}}}}}", context.join(", "));
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
}
