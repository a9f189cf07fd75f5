//! In-process workloads: model text → front door → prepared program →
//! `Cluster::run` + `execute_rank` (the calls `sage_runtime::execute`
//! makes) → merged sink → FNV-1a-64 checked against a reference run.
//!
//! One *episode* is everything `sage run --real` makes a user wait for,
//! from the model text to a verified sink checksum. A run repeats
//! episodes until its time is spent.

use crate::probe::{self, LinkTimes, RankProbe, TimedTransport};
use crate::stats::{median, quiet_buckets, self_time, steady_fps, steady_range};
use crate::{pooled, windowed, Metric};
use sage_apps::kernels::register_kernels;
use sage_atot::TaskMapping;
use sage_check::{pipeline_plan, race_analysis};
use sage_core::{checked_program, lint_model_source, model_from_sexpr, Placement, Project};
use sage_fabric::{Cluster, FabricMetrics, MachineSpec, TimePolicy};
use sage_model::{AppGraph, HardwareShelf, ProcId};
use sage_runtime::{
    execute_rank, prepare, FnRole, GlueProgram, Prepared, RuntimeOptions, SinkResults,
};
use sage_visualizer::Probe;
use std::time::{Duration, Instant};

/// Ranks of every workload: one per core of the 2-core reference host.
pub const NODES: usize = 2;

/// The streaming depth ceiling, as `sage bench --pipeline` uses it.
const MAX_DEPTH: u32 = 8;

/// Where the generated tasks go.
#[derive(Clone, Copy, Debug)]
pub enum Layout {
    /// SPMD-aligned: thread `t` of every block on node `t % NODES`.
    Aligned,
    /// Two cost-balanced stage groups on different ranks.
    Staged,
}

/// One in-process workload.
pub struct LocalSpec {
    /// The seeded model text the program receives.
    pub text: String,
    /// Task placement.
    pub layout: Layout,
    /// Streaming at min(proven depth, 8) instead of lock-step.
    pub streaming: bool,
    /// Frames (iterations) per episode.
    pub frames: u32,
}

/// Builds the placement `sage bench --pipeline` runs on: blocks split
/// greedily into two groups of equal modelled compute, each group on its
/// own rank, so every frame crosses ranks between stages. (The bench
/// crate keeps this helper private, so it is rebuilt here from the same
/// public model data.)
fn staged_placement(project: &Project) -> Result<Placement, String> {
    let flat = project.app.flatten().map_err(|e| e.to_string())?;
    let mut acc = [0.0f64; 2];
    let mut groups: Vec<usize> = flat
        .blocks()
        .iter()
        .map(|b| {
            let g = usize::from(acc[0] > acc[1]);
            acc[g] += b.cost().flops;
            g
        })
        .collect();
    if groups.iter().all(|&g| g == groups[0]) {
        for (i, g) in groups.iter_mut().enumerate() {
            *g = i % 2;
        }
    }
    let per = (project.hardware.node_count() / 2).max(1);
    let nodes = flat
        .blocks()
        .iter()
        .zip(&groups)
        .flat_map(|(b, &g)| (0..b.threads()).map(move |t| ProcId((g * per + t % per) as u32)))
        .collect();
    Ok(Placement::Tasks(TaskMapping { nodes }))
}

fn project_for(app: AppGraph) -> Project {
    Project::new(app, HardwareShelf::cspi_with_nodes(NODES))
}

fn placement_for(project: &Project, layout: Layout) -> Result<Placement, String> {
    match layout {
        Layout::Aligned => Ok(Placement::Aligned),
        Layout::Staged => staged_placement(project),
    }
}

/// FNV-1a-64 of every sink's assembled output over all frames, in
/// (function id, frame) order: the stream `sage run` fingerprints.
/// Folded frame by frame, so the whole stream is never held twice.
pub fn sink_checksum(
    program: &GlueProgram,
    results: &SinkResults,
    frames: u32,
) -> Result<u64, String> {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in program.functions.iter().filter(|f| f.role == FnRole::Sink) {
        for iter in 0..frames {
            let full = results
                .try_assemble(program, f.id, iter)
                .map_err(|e| e.to_string())?;
            for &b in &full {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    Ok(h)
}

/// The untimed reference: the same text and placement, lock-step,
/// through the library's own `Project::execute`. Returns the sink
/// checksum and the lock-step frame rate (frames / run wall time, the
/// median of up to three runs within about a second; every run must
/// agree on the checksum).
pub fn reference(spec: &LocalSpec) -> Result<(u64, f64), String> {
    let app = model_from_sexpr(&spec.text).map_err(|e| e.to_string())?;
    let mut project = project_for(app);
    register_kernels(&mut project.registry);
    let placement = placement_for(&project, spec.layout)?;
    let (program, _) = project.generate(&placement).map_err(|e| e.to_string())?;
    let start = Instant::now();
    let mut sums = Vec::new();
    let mut fps = Vec::new();
    while sums.is_empty() || (sums.len() < 3 && start.elapsed() < Duration::from_secs(1)) {
        let exec = project
            .execute(
                &program,
                TimePolicy::Real,
                &RuntimeOptions::paper_faithful(),
                spec.frames,
            )
            .map_err(|e| e.to_string())?;
        sums.push(sink_checksum(&program, &exec.results, spec.frames)?);
        fps.push(f64::from(spec.frames) / exec.report.wall.as_secs_f64().max(1e-9));
    }
    if sums.iter().any(|&s| s != sums[0]) {
        return Err(format!("reference runs disagree: {sums:#018x?}"));
    }
    Ok((sums[0], median(&fps).unwrap_or(0.0)))
}

/// Wall time of each front-door call of one episode.
#[derive(Clone, Copy, Debug, Default)]
struct FrontTimes {
    parse: Duration,
    lint: Duration,
    check: Duration,
    codegen: Duration,
    race: Duration,
    pipeline: Duration,
    prepare: Duration,
}

/// A program ready to execute.
struct Ready {
    program: GlueProgram,
    prepared: Prepared,
    options: RuntimeOptions,
    machine: MachineSpec,
}

/// Reads the clock once per step and returns the time since the last read.
struct Lap(Instant);

impl Lap {
    fn next(&mut self) -> Duration {
        let now = Instant::now();
        let d = now - self.0;
        self.0 = now;
        d
    }
}

/// Model text to a prepared program through the public front door, in
/// the order `sage run` takes it: parse, lint, check, codegen, the race
/// and pipeline proofs, then kernel registration and `prepare`.
fn front_door(spec: &LocalSpec, traced: bool) -> Result<(Ready, FrontTimes), String> {
    let mut lap = Lap(Instant::now());
    let mut t = FrontTimes::default();
    let app = model_from_sexpr(&spec.text).map_err(|e| e.to_string())?;
    t.parse = lap.next();
    let lint = lint_model_source(&spec.text, NODES);
    if lint.error_count() > 0 {
        return Err(format!("lint: {}", lint.summary()));
    }
    t.lint = lap.next();
    let (checked, diags) = checked_program(&spec.text, NODES);
    if diags.error_count() > 0 || checked.is_none() {
        return Err(format!("check: {}", diags.summary()));
    }
    t.check = lap.next();
    let mut project = project_for(app);
    let placement = placement_for(&project, spec.layout)?;
    let (program, _) = project.generate(&placement).map_err(|e| e.to_string())?;
    t.codegen = lap.next();
    race_analysis(&program).ok_or("race analysis refused the generated program")?;
    t.race = lap.next();
    let plan = pipeline_plan(&program, &project.hardware)
        .ok_or("pipeline planner refused the generated program")?;
    t.pipeline = lap.next();
    let mut options = RuntimeOptions::paper_faithful();
    if spec.streaming {
        let caps = plan.buffers.iter().map(|b| b.safe_depth).collect();
        options = options
            .with_pipeline(plan.safe_depth.clamp(1, MAX_DEPTH))
            .with_pipeline_depths(caps);
    }
    register_kernels(&mut project.registry);
    let registry = probe::wrap_registry(&project.registry, &program, traced);
    let prepared = prepare(&program, &registry).map_err(|e| e.to_string())?;
    t.prepare = lap.next();
    let machine = MachineSpec::from_hardware(&project.hardware);
    Ok((
        Ready {
            program,
            prepared,
            options,
            machine,
        },
        t,
    ))
}

/// One episode's measurements.
struct Episode {
    setup: Duration,
    result: Duration,
    fps: f64,
    latencies_ms: Vec<f64>,
    front: FrontTimes,
    ranks: Vec<RankProbe>,
    credits_issued: u64,
    metrics: FabricMetrics,
    /// Execution wall time outside the slowest rank: thread dispatch,
    /// join and the deposit merge.
    dispatch_merge: Duration,
    /// Host CPU steal while the episode ran, clock ticks.
    steal: u64,
    /// Peak resident memory of the benchmark process during the episode.
    peak_rss_mib: f64,
}

fn episode(spec: &LocalSpec, expect: u64, traced: bool) -> Result<Episode, String> {
    let start = Instant::now();
    let (ready, front) = front_door(spec, traced)?;
    let setup = start.elapsed();
    let frames = spec.frames;
    let cluster = Cluster::new(ready.machine.clone(), TimePolicy::Real);
    let exec_start = Instant::now();
    let (outs, report) = cluster.run(|ctx| {
        probe::begin_rank(frames);
        let probe = Probe::disabled();
        let t0 = Instant::now();
        let (out, link) = if traced {
            let mut tt = TimedTransport::new(ctx);
            let out = execute_rank(
                &mut tt,
                &ready.program,
                &ready.prepared,
                &ready.options,
                frames,
                &probe,
                None,
            );
            (out, tt.times)
        } else {
            let out = execute_rank(
                ctx,
                &ready.program,
                &ready.prepared,
                &ready.options,
                frames,
                &probe,
                None,
            );
            (out, LinkTimes::default())
        };
        let busy = t0.elapsed();
        let mut p = probe::end_rank();
        p.busy = busy;
        p.link = link;
        (out, p)
    });
    let mut results = SinkResults::default();
    let mut credits_issued = 0;
    let mut ranks = Vec::with_capacity(outs.len());
    for (out, p) in outs {
        let out = out.map_err(|e| e.to_string())?;
        credits_issued += out.stream.credits_issued;
        for ((f, i, t), bytes) in out.deposits {
            results.insert(f, i, t, bytes);
        }
        ranks.push(p);
    }
    let max_busy = ranks.iter().map(|r| r.busy).max().unwrap_or_default();
    let dispatch_merge = exec_start.elapsed().saturating_sub(max_busy);
    let sum = sink_checksum(&ready.program, &results, frames)?;
    if sum != expect {
        return Err(format!(
            "sink checksum {sum:#018x} differs from the reference {expect:#018x}"
        ));
    }
    let result = start.elapsed();

    // Frame stamps: first source start to last sink end, over ranks.
    let mut latency_ms = Vec::with_capacity(frames as usize);
    let mut done = Vec::with_capacity(frames as usize);
    for i in 0..frames as usize {
        let first = ranks.iter().filter_map(|r| r.frame_start[i]).min();
        let last = ranks.iter().filter_map(|r| r.frame_end[i]).max();
        let (Some(s), Some(e)) = (first, last) else {
            return Err(format!("frame {i} has no source or sink stamp"));
        };
        latency_ms.push(e.saturating_duration_since(s).as_secs_f64() * 1e3);
        done.push(e.saturating_duration_since(exec_start).as_secs_f64());
    }
    let fps = steady_fps(&done).ok_or("too few frames for a steady-state rate")?;
    // Latency counts the steady-state frames the rate is taken over: the
    // first frames of every run pay thread start-up and first-touch
    // faults, which `setup_s` and `time_to_result_s` already show, and
    // with short runs they would be the whole p99 tail.
    let mut order: Vec<usize> = (0..done.len()).collect();
    order.sort_by(|&a, &b| done[a].total_cmp(&done[b]));
    let (lo, hi) = steady_range(order.len()).ok_or("too few frames")?;
    let latencies_ms = order[lo..=hi].iter().map(|&i| latency_ms[i]).collect();
    Ok(Episode {
        setup,
        result,
        fps,
        latencies_ms,
        front,
        ranks,
        credits_issued,
        metrics: report.metrics,
        dispatch_merge,
        steal: 0,
        peak_rss_mib: 0.0,
    })
}

/// Episodes a phase needs before it keeps only its quiet half.
const QUIET_MIN_EPISODES: usize = 40;

/// The quiet episodes of one phase of a run, and how many were attempted.
#[derive(Default)]
pub struct Phase {
    episodes: Vec<Episode>,
    /// Episodes attempted.
    pub attempted: u64,
    /// Episodes that failed (typed error or checksum mismatch).
    pub failed: u64,
}

/// Runs episodes until `seconds` have passed (at least `min_episodes`),
/// then keeps the quiet ones: the half with the least host CPU steal
/// while they ran. On a shared virtual machine steal stalls rank threads
/// mid-frame; the episodes it hits are left out, whatever they measured.
/// A phase of fewer than [`QUIET_MIN_EPISODES`] episodes keeps them all:
/// halving so few would cost its medians and tails more than the steal.
/// Every episode, quiet or not, counts towards `attempted` and `failed`.
pub fn run_phase(
    spec: &LocalSpec,
    expect: u64,
    seconds: f64,
    min_episodes: usize,
    traced: bool,
) -> Phase {
    let mut phase = Phase::default();
    let start = Instant::now();
    while phase.episodes.len() < min_episodes || start.elapsed().as_secs_f64() < seconds {
        phase.attempted += 1;
        let before = crate::steal_ticks();
        crate::reset_peak_rss();
        match episode(spec, expect, traced) {
            Ok(mut e) => {
                e.peak_rss_mib = crate::peak_rss_mib("/proc/self/status");
                if let (Some(a), Some(b)) = (before, crate::steal_ticks()) {
                    e.steal = b.saturating_sub(a);
                }
                phase.episodes.push(e);
            }
            Err(e) => {
                phase.failed += 1;
                eprintln!("episode failed: {e}");
                // A workload that fails every time would never end; stop
                // once failures alone outnumber the minimum.
                if phase.failed as usize > min_episodes {
                    break;
                }
            }
        }
    }
    let steal: Vec<u64> = phase.episodes.iter().map(|e| e.steal).collect();
    if steal.len() >= QUIET_MIN_EPISODES {
        let mut quiet = quiet_buckets(&steal).into_iter();
        phase.episodes.retain(|_| quiet.next().unwrap_or(false));
    }
    println!(
        "# steal ticks per episode {steal:?}: {} of {} episodes quiet",
        phase.episodes.len(),
        steal.len()
    );
    phase
}

fn med<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    median(&items.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
}

impl Phase {
    /// `true` when at least one episode succeeded.
    pub fn any(&self) -> bool {
        !self.episodes.is_empty()
    }

    /// Median steady-state frames per second.
    pub fn fps(&self) -> f64 {
        med(&self.episodes, |e| e.fps)
    }

    /// The end-to-end metrics of an untraced phase.
    pub fn end_to_end(&self) -> Vec<Metric> {
        let e = &self.episodes;
        let lat: Vec<f64> = e.iter().flat_map(|e| e.latencies_ms.clone()).collect();
        windowed(&lat, 0.90, 100, "frame latency");
        let results_ms: Vec<f64> = e.iter().map(|e| e.result.as_secs_f64() * 1e3).collect();
        vec![
            Metric::new("setup_s", med(e, |e| e.setup.as_secs_f64()), "s"),
            Metric::new("time_to_result_s", med(e, |e| e.result.as_secs_f64()), "s"),
            Metric::new("throughput_fps", self.fps(), "frames/s"),
            Metric::new(
                "frame_latency_p50_ms",
                pooled(&lat, 0.50, "frame latency"),
                "ms",
            ),
            Metric::new(
                "frame_latency_p99_ms",
                windowed(&lat, 0.99, 1000, "frame latency"),
                "ms",
            ),
            Metric::new(
                "jobs_per_s",
                e.len() as f64
                    / e.iter()
                        .map(|e| e.result.as_secs_f64())
                        .sum::<f64>()
                        .max(1e-9),
                "jobs/s",
            ),
            Metric::new(
                "job_latency_p50_ms",
                pooled(&results_ms, 0.50, "job latency"),
                "ms",
            ),
            Metric::new(
                "job_latency_p90_ms",
                windowed(&results_ms, 0.90, 100, "job latency"),
                "ms",
            ),
            Metric::new("peak_rss_mib", med(e, |e| e.peak_rss_mib), "MiB"),
        ]
    }

    /// The per-layer metrics of a traced phase. Times and counts taken in
    /// the executor are totals over the phase's `runtime.frames` frames;
    /// front-door times are medians per call.
    pub fn per_layer(&self, frames_per_episode: u32) -> Vec<Metric> {
        let e = &self.episodes;
        let ranks = || e.iter().flat_map(|e| e.ranks.iter());
        let total = |f: &dyn Fn(&RankProbe) -> Duration| -> f64 {
            ranks().map(f).sum::<Duration>().as_secs_f64()
        };
        let busy = total(&|r| r.busy);
        let kernel = total(&|r| r.kernel);
        let send = total(&|r| r.link.send);
        let recv = total(&|r| r.link.recv_wait);
        let credit = total(&|r| r.link.credit_wait);
        let own = total(&|r| {
            self_time(
                r.busy,
                &[r.kernel, r.link.send, r.link.recv_wait, r.link.credit_wait],
            )
        });
        let count = |f: &dyn Fn(&RankProbe) -> u64| ranks().map(f).sum::<u64>() as f64;
        let fabric =
            |f: &dyn Fn(&FabricMetrics) -> u64| e.iter().map(|e| f(&e.metrics)).sum::<u64>() as f64;
        println!(
            "# traced split: rank busy {busy:.6} s = kernel {kernel:.6} + send {send:.6} \
             + recv-wait {recv:.6} + credit-wait {credit:.6} + executor self {own:.6} \
             (sum {:.6})",
            kernel + send + recv + credit + own
        );
        let secs = |d: Duration| d.as_secs_f64();
        vec![
            Metric::new("model.parse_s", med(e, |e| secs(e.front.parse)), "s"),
            Metric::new("lint.lint_s", med(e, |e| secs(e.front.lint)), "s"),
            Metric::new("check.check_s", med(e, |e| secs(e.front.check)), "s"),
            Metric::new("core.codegen_s", med(e, |e| secs(e.front.codegen)), "s"),
            Metric::new("check.race_s", med(e, |e| secs(e.front.race)), "s"),
            Metric::new("check.pipeline_s", med(e, |e| secs(e.front.pipeline)), "s"),
            Metric::new("runtime.prepare_s", med(e, |e| secs(e.front.prepare)), "s"),
            Metric::new(
                "runtime.frames",
                (e.len() as u64 * u64::from(frames_per_episode)) as f64,
                "count",
            ),
            Metric::new("runtime.rank_busy_s", busy, "s"),
            Metric::new("runtime.executor_self_s", own, "s"),
            Metric::new("runtime.kernel_share", kernel / busy.max(1e-12), "ratio"),
            Metric::new(
                "runtime.credits_issued",
                e.iter().map(|e| e.credits_issued).sum::<u64>() as f64,
                "count",
            ),
            Metric::new(
                "runtime.mem_high_water_bytes",
                e.iter()
                    .flat_map(|e| e.metrics.nodes.iter().map(|n| n.mem_high_water))
                    .max()
                    .unwrap_or(0) as f64,
                "bytes",
            ),
            Metric::new("apps.kernel_s", kernel, "s"),
            Metric::new("apps.kernel_calls", count(&|r| r.kernel_calls), "count"),
            Metric::new("fabric.send_s", send, "s"),
            Metric::new("fabric.sends", count(&|r| r.link.sends), "count"),
            Metric::new("fabric.recv_wait_s", recv, "s"),
            Metric::new("fabric.recvs", count(&|r| r.link.recvs), "count"),
            Metric::new("fabric.credit_wait_s", credit, "s"),
            Metric::new("fabric.bytes", fabric(&|m| m.total_bytes()), "bytes"),
            Metric::new("fabric.messages", fabric(&|m| m.total_messages()), "count"),
            Metric::new(
                "net.rank_run_ms",
                med(e, |e| {
                    secs(e.ranks.iter().map(|r| r.busy).max().unwrap_or_default()) * 1e3
                }),
                "ms",
            ),
            Metric::new(
                "fleet.dispatch_merge_ms",
                med(e, |e| secs(e.dispatch_merge) * 1e3),
                "ms",
            ),
        ]
    }
}
