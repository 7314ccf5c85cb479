//! Sampling statistics, the process memory high-water mark, and the
//! in-memory span recorder used by traced runs.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Median of `xs` (mean of the two middle values for an even count).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0..=100) of `xs`. With fewer than 100
/// samples, p99 is the largest sample.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn status_kib(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line[field.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// Restart the resident-set high-water mark from the current RSS, so that
/// set-up and oracle preparation do not count towards the workload's peak.
pub fn reset_peak_rss() {
    // Writing 5 to clear_refs resets VmHWM (Linux 4.0+). Where that is not
    // permitted the peak simply includes set-up.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Let set-up's side effects finish before measuring. Its files are
/// written to disk now, rather than by the kernel's writeback in the
/// middle of the measured operations; and heap memory it freed goes back
/// to the OS, so the workload's peak RSS does not depend on how much of it
/// the allocator kept in its arenas.
pub fn settle() {
    extern "C" {
        fn sync();
    }
    // SAFETY: POSIX sync takes no arguments and only schedules and waits
    // for writeback of dirty file data.
    unsafe {
        sync();
    }
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's malloc_trim takes no pointers, only releases free
        // heap pages, and may be called from any thread at any time.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Resident-set high-water mark of this process, in MiB.
pub fn peak_rss_mib() -> f64 {
    status_kib("VmHWM:").unwrap_or(0.0) / 1024.0
}

/// One timed interval: a call into a layer made from this benchmark.
struct Span {
    name: &'static str,
    /// Groups the spans of one operation (one ingest, run or request).
    trace: u64,
    id: u32,
    parent: Option<u32>,
    start_ns: u64,
    end_ns: u64,
}

/// Records spans in memory; [`Tracer::write`] stores them once, at exit.
/// A disabled tracer records nothing and costs one branch per call.
pub struct Tracer {
    enabled: bool,
    /// Whether the current operation is traced: a traced run alternates
    /// traced and untraced operations to measure the tracing overhead.
    recording: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            recording: enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Record the following spans only when `on` (and the tracer is enabled).
    pub fn set_recording(&mut self, on: bool) {
        self.recording = self.enabled && on;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Tracer::close`]. Returns its id.
    pub fn open(&mut self, name: &'static str, trace: u64, parent: Option<u32>) -> Option<u32> {
        if !self.recording {
            return None;
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            trace,
            id,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        Some(id)
    }

    /// Close span `id`; `None`, which `open` returns when not recording,
    /// is ignored.
    pub fn close(&mut self, id: Option<u32>) {
        if let Some(id) = id {
            let end = self.now_ns();
            self.spans[id as usize].end_ns = end;
        }
    }

    /// Run `f`, returning its result and wall time in seconds; record the
    /// interval as a span when recording.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        trace: u64,
        parent: Option<u32>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(name, trace, parent, start, end);
        (out, end.duration_since(start).as_secs_f64())
    }

    /// Record an interval measured elsewhere, such as a request's
    /// scheduled send and its reply.
    pub fn record(
        &mut self,
        name: &'static str,
        trace: u64,
        parent: Option<u32>,
        start: Instant,
        end: Instant,
    ) -> Option<u32> {
        if !self.recording {
            return None;
        }
        let id = self.spans.len() as u32;
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        let (start_ns, end_ns) = (at(start), at(end));
        self.spans.push(Span {
            name,
            trace,
            id,
            parent,
            start_ns,
            end_ns,
        });
        Some(id)
    }

    /// Write every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if !self.enabled {
            return Ok(());
        }
        let mut out = String::with_capacity(self.spans.len() * 96);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"trace\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, parent, s.trace, s.name, s.start_ns, s.end_ns
            );
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 100.0);
        assert_eq!(percentile(&xs, 99.0), 198.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 99.0), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn spans_nest_and_time() {
        let mut t = Tracer::new(true);
        let root = t.open("root", 7, None);
        let (_, secs) = t.span("child", 7, root, || std::hint::black_box(1 + 1));
        t.close(root);
        let (outer, child) = (&t.spans[0], &t.spans[1]);
        assert_eq!(child.parent, Some(0));
        assert!(outer.start_ns <= child.start_ns && child.end_ns <= outer.end_ns);
        assert!(secs >= 0.0);
        t.set_recording(false);
        assert_eq!(t.open("skipped", 8, None), None);
        let mut off = Tracer::new(false);
        off.set_recording(true);
        assert_eq!(off.open("x", 0, None), None);
    }
}
