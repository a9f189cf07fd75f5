//! The fleet workload: two `sage fleet` daemons from the repository's
//! built `sage` binary, an in-process `Scheduler`, and two closed-loop
//! clients submitting 2-rank, 8-frame jobs. Each job's per-rank sink
//! deposits are merged and checked against an in-process reference run,
//! as `sage submit` would merge them.
//!
//! Figures under load come from the run's quiet seconds: the half of
//! the whole seconds of all its rounds with the least host CPU steal
//! (read from `/proc/stat` once a second). On a shared virtual machine
//! a burst of steal stalls the daemons' rank threads mid-job and owns
//! the tail of every latency; the seconds it hits are left out, whatever
//! the jobs in them measured. With the bursts gone, tails are pooled
//! over the quiet jobs rather than windowed. Every job, quiet or not,
//! counts towards `attempted` and `failed`.

use crate::local::{sink_checksum, NODES};
use crate::stats::{bucket_rates, median, quiet_buckets};
use crate::{pooled, Metric};
use sage_core::{model_from_sexpr, Placement, Project};
use sage_fleet::{parse_fleet_banner, SchedConfig, Scheduler, SubmitSpec};
use sage_model::HardwareShelf;
use sage_runtime::{GlueProgram, SinkResults};
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Frames per job.
pub const JOB_FRAMES: u32 = 8;

/// Closed-loop clients: one per core of the 2-core reference host.
const CLIENTS: usize = 2;

/// One job as a client saw it.
struct JobRec {
    /// When the job was submitted.
    submitted: Instant,
    /// `submit` call to its outcome (infinite when refused).
    latency: f64,
    /// `submit` call to the verified sink checksum.
    result: f64,
    /// `JobOutcome.wall_secs`: dispatch to the last rank reporting.
    wall: f64,
    /// The slowest rank's `RankReport.wall_secs`.
    rank_max: f64,
    wire_bytes: u64,
    wire_messages: u64,
    ok: bool,
    /// Seconds from the start of the load to the verified result (to the
    /// refusal or failure when not `ok`).
    done_at: f64,
    /// Done in one of its round's quiet seconds.
    quiet: bool,
}

/// Daemon processes; dropping them kills and reaps any still running.
struct Daemons(Vec<Child>);

impl Daemons {
    /// Peak resident memory of the daemons, MiB (`VmHWM`).
    fn peak_rss_mib(&self) -> f64 {
        self.0
            .iter()
            .map(|c| crate::peak_rss_mib(&format!("/proc/{}/status", c.id())))
            .sum()
    }

    /// Waits for drained daemons to exit on their own (10 s at most).
    fn wait_exit(&mut self) -> Result<(), String> {
        let deadline = Instant::now() + Duration::from_secs(10);
        for mut c in std::mem::take(&mut self.0) {
            loop {
                match c.try_wait() {
                    Ok(Some(st)) if st.success() => break,
                    Ok(Some(st)) => return Err(format!("fleet daemon exited with {st}")),
                    Ok(None) if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(2))
                    }
                    Ok(None) => {
                        let _ = c.kill();
                        let _ = c.wait();
                        return Err("fleet daemon did not exit after drain".into());
                    }
                    Err(e) => return Err(format!("waiting for fleet daemon: {e}")),
                }
            }
        }
        Ok(())
    }
}

impl Drop for Daemons {
    fn drop(&mut self) {
        for c in &mut self.0 {
            let _ = c.kill();
            let _ = c.wait();
        }
    }
}

/// A running fleet: its daemons and the scheduler connected to them.
struct Fleet {
    daemons: Daemons,
    sched: Arc<Scheduler>,
}

fn spawn_daemon(sage: &Path, daemons: &mut Daemons) -> Result<String, String> {
    let mut child = Command::new(sage)
        .args(["fleet", "--listen", "127.0.0.1:0"])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawning `{} fleet`: {e}", sage.display()))?;
    let stdout = child.stdout.take();
    daemons.0.push(child);
    let mut line = String::new();
    BufReader::new(stdout.ok_or("fleet daemon has no stdout")?)
        .read_line(&mut line)
        .map_err(|e| format!("reading fleet banner: {e}"))?;
    parse_fleet_banner(&line)
        .map(str::to_string)
        .ok_or_else(|| format!("fleet daemon announced `{}`", line.trim()))
}

/// The job every client submits, and how to check its outcome.
pub struct JobKind {
    text: String,
    program: GlueProgram,
    expect: u64,
}

impl JobKind {
    /// Regenerates the program locally (the deterministic pipeline every
    /// rank runs), to assemble sink output from rank deposits.
    pub fn new(text: String, expect: u64) -> Result<JobKind, String> {
        let app = model_from_sexpr(&text).map_err(|e| e.to_string())?;
        let project = Project::new(app, HardwareShelf::cspi_with_nodes(NODES));
        let (program, _) = project
            .generate(&Placement::Aligned)
            .map_err(|e| e.to_string())?;
        Ok(JobKind {
            text,
            program,
            expect,
        })
    }

    fn submit(&self, sched: &Scheduler) -> JobRec {
        let t0 = Instant::now();
        let mut rec = JobRec {
            submitted: t0,
            latency: f64::INFINITY,
            result: f64::INFINITY,
            wall: 0.0,
            rank_max: 0.0,
            wire_bytes: 0,
            wire_messages: 0,
            ok: false,
            done_at: 0.0,
            quiet: false,
        };
        let spec = SubmitSpec {
            tenant: "e2ebench".into(),
            ..SubmitSpec::new(self.text.as_str(), NODES as u32, JOB_FRAMES)
        };
        let outcome = match sched.submit(&spec) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("job refused: {e}");
                return rec;
            }
        };
        rec.latency = t0.elapsed().as_secs_f64();
        rec.wall = outcome.wall_secs;
        let mut results = SinkResults::default();
        for report in outcome.reports {
            let Some(report) = report else {
                eprintln!("job {}: a rank died before reporting", outcome.job);
                return rec;
            };
            if let Some(e) = report.error {
                eprintln!("job {}: rank {} failed: {e}", outcome.job, report.rank);
                return rec;
            }
            rec.rank_max = rec.rank_max.max(report.wall_secs);
            for l in &report.links {
                rec.wire_bytes += l.bytes;
                rec.wire_messages += l.messages;
            }
            for ((f, i, t), bytes) in report.deposits {
                results.insert(f, i, t, bytes);
            }
        }
        match sink_checksum(&self.program, &results, JOB_FRAMES) {
            Ok(sum) if sum == self.expect => rec.ok = true,
            Ok(sum) => eprintln!(
                "job {}: sink checksum {sum:#018x} differs from the reference {:#018x}",
                outcome.job, self.expect
            ),
            Err(e) => eprintln!("job {}: {e}", outcome.job),
        }
        rec.result = t0.elapsed().as_secs_f64();
        rec
    }
}

/// Reads [`steal_ticks`](crate::steal_ticks) at `start` and at every
/// whole second after it up to `deadline`: reading `k + 1` minus reading
/// `k` is second `k`'s steal.
fn sample_steal(start: Instant, deadline: Instant) -> Vec<Option<u64>> {
    let mut ticks = Vec::new();
    for k in 0.. {
        let at = start + Duration::from_secs(k);
        if at > deadline {
            break;
        }
        std::thread::sleep(at.saturating_duration_since(Instant::now()));
        ticks.push(crate::steal_ticks());
    }
    ticks
}

/// Spawns the daemons, connects the scheduler and completes one verified
/// warm-up job: the fleet's set-up time.
fn bring_up(sage: &Path, job: &JobKind) -> Result<Fleet, String> {
    let mut daemons = Daemons(Vec::with_capacity(NODES));
    let addrs = (0..NODES)
        .map(|_| spawn_daemon(sage, &mut daemons))
        .collect::<Result<Vec<_>, _>>()?;
    let sched = Scheduler::connect(&addrs, SchedConfig::default()).map_err(|e| e.to_string())?;
    if !job.submit(&sched).ok {
        return Err("fleet warm-up job failed".into());
    }
    Ok(Fleet { daemons, sched })
}

/// One fleet's life: bring-up, closed-loop load, drain.
pub struct Round {
    /// Bring-up time.
    pub setup: Duration,
    jobs: Vec<JobRec>,
    /// Host CPU steal in each whole second of the load, clock ticks.
    steal: Vec<u64>,
    /// One entry per whole second of the load: `true` when quiet.
    quiet: Vec<bool>,
    wall: Duration,
    queue_high_water: u32,
    rejected: u64,
    failed: u64,
    /// Peak resident memory of the round's daemons, MiB.
    pub daemon_rss_mib: f64,
}

/// Brings a fleet up, drives it from [`CLIENTS`] closed-loop clients for
/// `seconds`, and drains it; every daemon has exited when this returns.
/// The round's quiet seconds are its own until [`select_quiet`] pools
/// them with other rounds'.
pub fn round(sage: &Path, job: &JobKind, seconds: f64) -> Result<Round, String> {
    let t0 = Instant::now();
    let mut fleet = bring_up(sage, job)?;
    let setup = t0.elapsed();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let (mut jobs, ticks) = std::thread::scope(|s| {
        let sampler = s.spawn(|| sample_steal(start, deadline));
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                s.spawn(|| {
                    let mut recs = Vec::new();
                    while Instant::now() < deadline {
                        recs.push(job.submit(&fleet.sched));
                    }
                    recs
                })
            })
            .collect();
        let jobs: Vec<JobRec> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_default())
            .collect();
        (jobs, sampler.join().unwrap_or_default())
    });
    let wall = start.elapsed();
    let whole = (wall.as_secs_f64() as usize).min(ticks.len().saturating_sub(1));
    let steal: Vec<u64> = ticks
        .windows(2)
        .take(whole)
        .map(|w| match (w[0], w[1]) {
            (Some(a), Some(b)) => b.saturating_sub(a),
            _ => 0,
        })
        .collect();
    for j in &mut jobs {
        let took = if j.ok { j.result } else { j.latency };
        j.done_at = j.submitted.saturating_duration_since(start).as_secs_f64()
            + if took.is_finite() { took } else { 0.0 };
    }
    let stats = fleet.sched.stats();
    let daemon_rss_mib = fleet.daemons.peak_rss_mib();
    fleet.sched.drain().map_err(|e| e.to_string())?;
    fleet.daemons.wait_exit()?;
    let mut round = Round {
        setup,
        jobs,
        steal,
        quiet: Vec::new(),
        wall,
        queue_high_water: stats.queue_high_water,
        rejected: stats.rejected_total(),
        failed: stats.failed,
        daemon_rss_mib,
    };
    select_quiet(std::slice::from_mut(&mut round));
    Ok(round)
}

/// Marks the quiet seconds of `rounds` taken together: the half of all
/// their whole seconds with the least host CPU steal, so a round that
/// met steal throughout gives way to a calmer one. A job is quiet when
/// it was done in a quiet second; rounds too short for a whole second
/// keep every job.
pub fn select_quiet(rounds: &mut [Round]) {
    let steal: Vec<u64> = rounds.iter().flat_map(|r| r.steal.clone()).collect();
    let mut quiet = quiet_buckets(&steal).into_iter();
    for r in rounds.iter_mut() {
        r.quiet = quiet.by_ref().take(r.steal.len()).collect();
        for j in &mut r.jobs {
            j.quiet = r.quiet.is_empty() || r.quiet.get(j.done_at as usize) == Some(&true);
        }
    }
    println!(
        "# fleet steal ticks per second {:?}: {} of {} seconds quiet",
        rounds.iter().map(|r| &r.steal).collect::<Vec<_>>(),
        rounds.iter().flat_map(|r| &r.quiet).filter(|&&q| q).count(),
        steal.len()
    );
}

impl Round {
    /// Jobs attempted and failed (refused, rank error or checksum
    /// mismatch) under load, quiet or not.
    pub fn counts(&self) -> (u64, u64) {
        let failed = self.jobs.iter().filter(|j| !j.ok).count();
        (self.jobs.len() as u64, failed as u64)
    }
}

/// Completed jobs per second: the median over the quiet seconds of
/// `rounds`, or the mean rate when they hold no whole second.
pub fn jobs_per_s(rounds: &[Round]) -> f64 {
    let done =
        |r: &Round| -> Vec<f64> { r.jobs.iter().filter(|j| j.ok).map(|j| j.done_at).collect() };
    let rates: Vec<f64> = rounds
        .iter()
        .flat_map(|r| bucket_rates(&done(r), &r.quiet, 1.0))
        .collect();
    median(&rates).unwrap_or_else(|| {
        let n: usize = rounds.iter().map(|r| done(r).len()).sum();
        let wall: f64 = rounds.iter().map(|r| r.wall.as_secs_f64()).sum();
        n as f64 / wall.max(1e-9)
    })
}

/// The jobs done in quiet seconds.
fn quiet_jobs(rounds: &[Round]) -> impl Iterator<Item = &JobRec> {
    rounds
        .iter()
        .flat_map(|r| r.jobs.iter())
        .filter(|j| j.quiet)
}

fn ok_jobs(rounds: &[Round]) -> impl Iterator<Item = &JobRec> {
    quiet_jobs(rounds).filter(|j| j.ok)
}

/// End-to-end metrics over untraced rounds (everything but `setup_s`,
/// `success_rate` and `peak_rss_mib`, which the caller adds).
pub fn end_to_end(rounds: &[Round]) -> Vec<Metric> {
    // A refused or failed job misses any latency limit.
    let lat_ms: Vec<f64> = quiet_jobs(rounds)
        .map(|j| if j.ok { j.latency * 1e3 } else { f64::INFINITY })
        .collect();
    let result_s: Vec<f64> = ok_jobs(rounds).map(|j| j.result).collect();
    let frame_ms: Vec<f64> = ok_jobs(rounds)
        .map(|j| j.rank_max * 1e3 / f64::from(JOB_FRAMES))
        .collect();
    let jps = jobs_per_s(rounds);
    vec![
        Metric::new("time_to_result_s", median(&result_s).unwrap_or(0.0), "s"),
        Metric::new("throughput_fps", jps * f64::from(JOB_FRAMES), "frames/s"),
        Metric::new(
            "frame_latency_p50_ms",
            pooled(&frame_ms, 0.50, "per-frame rank time"),
            "ms",
        ),
        Metric::new(
            "frame_latency_p99_ms",
            pooled(&frame_ms, 0.99, "per-frame rank time"),
            "ms",
        ),
        Metric::new("jobs_per_s", jps, "jobs/s"),
        Metric::new(
            "job_latency_p50_ms",
            pooled(&lat_ms, 0.50, "job latency"),
            "ms",
        ),
        Metric::new(
            "job_latency_p90_ms",
            pooled(&lat_ms, 0.90, "job latency"),
            "ms",
        ),
    ]
}

/// The fleet's per-layer metrics over traced rounds.
pub fn per_layer(rounds: &[Round]) -> Vec<Metric> {
    let med_of = |f: &dyn Fn(&JobRec) -> f64| {
        median(&ok_jobs(rounds).map(f).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    vec![
        Metric::new("net.rank_run_ms", med_of(&|j| j.rank_max * 1e3), "ms"),
        Metric::new("net.wire_bytes", med_of(&|j| j.wire_bytes as f64), "bytes"),
        Metric::new(
            "net.wire_messages",
            med_of(&|j| j.wire_messages as f64),
            "count",
        ),
        Metric::new(
            "fleet.admit_queue_ms",
            med_of(&|j| (j.latency - j.wall).max(0.0) * 1e3),
            "ms",
        ),
        Metric::new(
            "fleet.dispatch_merge_ms",
            med_of(&|j| (j.wall - j.rank_max).max(0.0) * 1e3),
            "ms",
        ),
        Metric::new(
            "fleet.queue_high_water",
            rounds.iter().map(|r| r.queue_high_water).max().unwrap_or(0) as f64,
            "count",
        ),
        Metric::new(
            "fleet.rejected",
            rounds.iter().map(|r| r.rejected).sum::<u64>() as f64,
            "count",
        ),
        Metric::new(
            "fleet.failed",
            rounds.iter().map(|r| r.failed).sum::<u64>() as f64,
            "count",
        ),
    ]
}
