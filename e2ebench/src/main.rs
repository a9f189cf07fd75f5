//! `sage-e2ebench`: the repository's wall-clock benchmark.
//!
//! ```text
//! sage-e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1> --sage <path>
//! ```
//!
//! Each workload runs from seeded model text to a checksum-verified sink
//! and prints, as the last line of standard output, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. Earlier lines
//! (prefixed `#`) carry the host, sample counts and the traced time split.
//! `--sage` names the built `sage` binary the fleet workload spawns its
//! daemons from. `NOTES.md` beside this crate says why each workload and
//! metric exists.

mod fleet;
mod local;
mod models;
mod probe;
mod stats;

use local::{Layout, LocalSpec};
use stats::{median, valid_name};
use std::path::PathBuf;
use std::process::ExitCode;

/// One reported figure.
pub struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

impl Metric {
    fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// The end-to-end metrics every untraced run reports.
const END_TO_END: [&str; 10] = [
    "setup_s",
    "time_to_result_s",
    "throughput_fps",
    "frame_latency_p50_ms",
    "frame_latency_p99_ms",
    "jobs_per_s",
    "job_latency_p50_ms",
    "job_latency_p90_ms",
    "success_rate",
    "peak_rss_mib",
];

/// The per-layer metrics every traced run reports.
const PER_LAYER: [&str; 33] = [
    "model.parse_s",
    "lint.lint_s",
    "check.check_s",
    "check.race_s",
    "check.pipeline_s",
    "core.codegen_s",
    "runtime.prepare_s",
    "runtime.frames",
    "runtime.rank_busy_s",
    "runtime.executor_self_s",
    "runtime.kernel_share",
    "runtime.credits_issued",
    "runtime.mem_high_water_bytes",
    "runtime.lockstep_ref_fps",
    "runtime.stream_speedup",
    "apps.kernel_s",
    "apps.kernel_calls",
    "fabric.send_s",
    "fabric.sends",
    "fabric.recv_wait_s",
    "fabric.recvs",
    "fabric.credit_wait_s",
    "fabric.bytes",
    "fabric.messages",
    "net.rank_run_ms",
    "net.wire_bytes",
    "net.wire_messages",
    "fleet.admit_queue_ms",
    "fleet.dispatch_merge_ms",
    "fleet.queue_high_water",
    "fleet.rejected",
    "fleet.failed",
    "trace.overhead_ratio",
];

/// Local episodes per phase, whatever the time budget.
const MIN_EPISODES: usize = 3;

/// Fleet bring-ups per untraced run: `setup_s` is their median.
const FLEET_ROUNDS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    sage: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<&str> {
        raw.iter()
            .position(|a| a == flag)
            .and_then(|i| raw.get(i + 1))
            .map(String::as_str)
    };
    let need = |flag: &str| get(flag).ok_or_else(|| format!("missing {flag}"));
    let seconds: f64 = need("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload: need("--workload")?.to_string(),
        seed: need("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match need("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
        },
        sage: get("--sage").map(PathBuf::from),
    })
}

/// Peak resident set (`VmHWM`) of the process whose status file is
/// `path`, in MiB; 0 when unreadable.
pub fn peak_rss_mib(path: &str) -> f64 {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Hands the heap's free pages back to the kernel and resets this
/// process's peak resident set (`VmHWM`) to what is left, so the next
/// [`peak_rss_mib`] read is the peak since now, as a fresh process would
/// see it rather than whatever earlier episodes left in the allocator.
/// Without the kernel's support the peak stays the process's own.
pub fn reset_peak_rss() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: glibc's `malloc_trim` only hands free heap pages back to
    // the kernel; it takes no pointers and is thread-safe.
    unsafe {
        malloc_trim(0);
    }
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// The host's CPU steal so far, in clock ticks: time the hypervisor gave
/// this machine's virtual CPUs to other guests (the first `cpu` line of
/// `/proc/stat`, eighth figure). `None` where the kernel does not say.
pub fn steal_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    stat.lines().next()?.split_whitespace().nth(8)?.parse().ok()
}

/// Pooled percentile `q` of `v` (0 when empty), with its sample count on
/// a `#` line.
fn pooled(v: &[f64], q: f64, what: &str) -> f64 {
    stats::percentile(v, q).map_or(0.0, |p| {
        println!(
            "# {what} p{}: {} samples, {} beyond",
            q * 100.0,
            p.samples,
            p.beyond
        );
        p.value
    })
}

/// Median over windows of consecutive samples of percentile `q` (0 when
/// empty), with the window counts on a `#` line. Windows hold `window`
/// samples, or fewer (never under ten) when that leaves under eight
/// windows, so the median rests on several windows when it can.
fn windowed(v: &[f64], q: f64, window: usize, what: &str) -> f64 {
    let window = (v.len() / 8).clamp(10, window.max(10));
    stats::windowed_percentile(v, q, window).map_or(0.0, |w| {
        println!(
            "# {what} p{}: {} (median of {} windows, >= {} samples and >= {} beyond each)",
            q * 100.0,
            w.value,
            w.windows,
            w.min_samples,
            w.min_beyond
        );
        w.value
    })
}

/// What one run produced.
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

impl Outcome {
    fn success_rate(&self) -> Metric {
        let ok = self.attempted.saturating_sub(self.failed);
        Metric::new(
            "success_rate",
            ok as f64 / self.attempted.max(1) as f64,
            "ratio",
        )
    }

    /// Adds `m`, replacing any metric of the same name.
    fn set(&mut self, m: Metric) {
        self.metrics.retain(|x| x.name != m.name);
        self.metrics.push(m);
    }
}

fn local_spec(workload: &str, seed: u64) -> Option<LocalSpec> {
    use sage_apps::{fft2d, stap};
    let (app, layout, streaming, frames) = match workload {
        // The paper's 2D FFT, stage groups on different ranks, streaming.
        "fft64_staged" => (fft2d::sage_model(64, 4), Layout::Staged, true, 250),
        // STAP at 256 threads per block: a heavy front door, tiny messages.
        "stap256_cold" => (stap::sage_model(256, 256), Layout::Aligned, false, 16),
        _ => return None,
    };
    Some(LocalSpec {
        text: models::seeded_text(app, seed),
        layout,
        streaming,
        frames,
    })
}

/// Per-layer figures that only the fleet produces; in-process runs have
/// no wire, admission queue or scheduler.
fn in_process_fleet_figures(out: &mut Outcome) {
    for (name, unit) in [
        ("net.wire_bytes", "bytes"),
        ("net.wire_messages", "count"),
        ("fleet.admit_queue_ms", "ms"),
        ("fleet.queue_high_water", "count"),
        ("fleet.rejected", "count"),
    ] {
        out.set(Metric::new(name, 0.0, unit));
    }
    out.set(Metric::new("fleet.failed", out.failed as f64, "count"));
}

fn run_local(spec: &LocalSpec, args: &Args) -> Result<Outcome, String> {
    let (expect, ref_fps) = local::reference(spec)?;
    println!("# reference sink checksum {expect:#018x}, lock-step {ref_fps:.1} frames/s");
    let mut out = Outcome {
        attempted: 1,
        failed: 0,
        metrics: Vec::new(),
    };
    if !args.trace {
        let phase = local::run_phase(spec, expect, args.seconds, MIN_EPISODES, false);
        out.attempted += phase.attempted;
        out.failed += phase.failed;
        if !phase.any() {
            return Err("every episode failed".into());
        }
        out.metrics = phase.end_to_end();
        return Ok(out);
    }
    let half = args.seconds / 2.0;
    let plain = local::run_phase(spec, expect, half, MIN_EPISODES, false);
    let traced = local::run_phase(spec, expect, half, MIN_EPISODES, true);
    for p in [&plain, &traced] {
        out.attempted += p.attempted;
        out.failed += p.failed;
    }
    if !plain.any() || !traced.any() {
        return Err("every episode failed".into());
    }
    out.metrics = traced.per_layer(spec.frames);
    in_process_fleet_figures(&mut out);
    out.set(Metric::new("runtime.lockstep_ref_fps", ref_fps, "frames/s"));
    out.set(Metric::new(
        "runtime.stream_speedup",
        plain.fps() / ref_fps.max(1e-9),
        "ratio",
    ));
    out.set(Metric::new(
        "trace.overhead_ratio",
        traced.fps() / plain.fps().max(1e-9),
        "ratio",
    ));
    Ok(out)
}

fn run_fleet(args: &Args) -> Result<Outcome, String> {
    let sage = args
        .sage
        .as_ref()
        .ok_or("fft64_fleet needs --sage <path to the built sage binary>")?;
    if !sage.is_file() {
        return Err(format!("no sage binary at {}", sage.display()));
    }
    let spec = LocalSpec {
        text: models::seeded_text(sage_apps::fft2d::sage_model(64, local::NODES), args.seed),
        layout: Layout::Aligned,
        streaming: false,
        frames: fleet::JOB_FRAMES,
    };
    let (expect, ref_fps) = local::reference(&spec)?;
    println!("# reference sink checksum {expect:#018x}, in-process {ref_fps:.1} frames/s");
    let job = fleet::JobKind::new(spec.text.clone(), expect)?;
    let mut out = Outcome {
        attempted: 1,
        failed: 0,
        metrics: Vec::new(),
    };
    let count = |out: &mut Outcome, r: &fleet::Round| {
        let (a, f) = r.counts();
        // The warm-up job is an operation too; a failed one aborts the run.
        out.attempted += a + 1;
        out.failed += f;
    };
    if !args.trace {
        let mut rounds = Vec::with_capacity(FLEET_ROUNDS);
        for _ in 0..FLEET_ROUNDS {
            let r = fleet::round(sage, &job, args.seconds / FLEET_ROUNDS as f64)?;
            count(&mut out, &r);
            rounds.push(r);
        }
        fleet::select_quiet(&mut rounds);
        let setups: Vec<f64> = rounds.iter().map(|r| r.setup.as_secs_f64()).collect();
        out.metrics = fleet::end_to_end(&rounds);
        out.set(Metric::new("setup_s", median(&setups).unwrap_or(0.0), "s"));
        let daemons = rounds.iter().map(|r| r.daemon_rss_mib).fold(0.0, f64::max);
        out.set(Metric::new(
            "peak_rss_mib",
            peak_rss_mib("/proc/self/status") + daemons,
            "MiB",
        ));
        return Ok(out);
    }
    // The in-process layers, measured on the job's reference model.
    let traced_local = local::run_phase(&spec, expect, args.seconds * 0.2, MIN_EPISODES, true);
    out.attempted += traced_local.attempted;
    out.failed += traced_local.failed;
    if !traced_local.any() {
        return Err("every in-process episode failed".into());
    }
    let plain = fleet::round(sage, &job, args.seconds * 0.4)?;
    count(&mut out, &plain);
    let traced = fleet::round(sage, &job, args.seconds * 0.4)?;
    count(&mut out, &traced);
    out.metrics = traced_local.per_layer(spec.frames);
    for m in fleet::per_layer(std::slice::from_ref(&traced)) {
        out.set(m);
    }
    out.set(Metric::new("runtime.lockstep_ref_fps", ref_fps, "frames/s"));
    out.set(Metric::new(
        "runtime.stream_speedup",
        fleet::jobs_per_s(std::slice::from_ref(&plain)) * f64::from(fleet::JOB_FRAMES)
            / ref_fps.max(1e-9),
        "ratio",
    ));
    out.set(Metric::new(
        "trace.overhead_ratio",
        fleet::jobs_per_s(std::slice::from_ref(&traced))
            / fleet::jobs_per_s(std::slice::from_ref(&plain)).max(1e-9),
        "ratio",
    ));
    Ok(out)
}

/// A JSON number; the format has no infinities, so a latency that missed
/// every limit prints as the largest finite value.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        format!("{}", f64::MAX)
    }
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    println!(
        "# workload {} seed {} seconds {} trace {} | nproc {nproc} profile {profile}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let mut out = match args.workload.as_str() {
        "fft64_fleet" => run_fleet(&args)?,
        w => {
            let spec = local_spec(w, args.seed).ok_or_else(|| {
                format!(
                    "unknown workload `{w}` \
                     (fft64_staged|stap256_cold|fft64_fleet)"
                )
            })?;
            run_local(&spec, &args)?
        }
    };
    if !args.trace {
        out.set(out.success_rate());
    }
    let want: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut got: Vec<&str> = out.metrics.iter().map(|m| m.name).collect();
    got.sort_unstable();
    let mut expected = want.to_vec();
    expected.sort_unstable();
    if got != expected || !got.iter().all(|n| valid_name(n)) {
        return Err(format!("metric set {got:?} differs from {expected:?}"));
    }
    out.metrics
        .sort_by_key(|m| want.iter().position(|w| *w == m.name));
    for m in &out.metrics {
        println!("# {} = {} {}", m.name, json_num(m.value), m.unit);
    }
    let body: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0,
        out.attempted,
        out.failed,
        body.join(", ")
    );
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("sage-e2ebench: {e}");
            ExitCode::FAILURE
        }
    }
}
