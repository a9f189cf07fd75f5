//! Probes at the program's public seams: a [`Kernel`] wrapper registered
//! in a cloned [`Registry`], and a [`Transport`] wrapper handed to
//! `execute_rank`. Neither changes what the program computes; both only
//! read the clock around the call they forward.
//!
//! Kernel wrappers are shared by every rank thread, so they accumulate
//! into a thread-local [`RankProbe`] instead of a shared lock: timing
//! kernels through one `Mutex` serialises the ranks and would measure the
//! lock, not the program.

use sage_fabric::{FabricError, Payload, Transport, Work};
use sage_runtime::{FnRole, FnThreadCtx, GlueProgram, Kernel, Registry};
use std::cell::RefCell;
use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The executor's credit-message tag bit (bit 62, documented in
/// `sage_runtime::executor`): credits share the data fabric under it.
const CREDIT_BIT: u64 = 1 << 62;

/// What one rank thread measured during one run.
#[derive(Clone, Debug, Default)]
pub struct RankProbe {
    /// Per iteration: the earliest source-kernel start on this rank.
    pub frame_start: Vec<Option<Instant>>,
    /// Per iteration: the latest sink-kernel end on this rank.
    pub frame_end: Vec<Option<Instant>>,
    /// Time inside every kernel (traced runs only).
    pub kernel: Duration,
    /// Kernel invocations (traced runs only).
    pub kernel_calls: u64,
    /// Transport time (traced runs only).
    pub link: LinkTimes,
    /// Wall time inside `execute_rank`.
    pub busy: Duration,
}

thread_local! {
    static RANK: RefCell<RankProbe> = RefCell::new(RankProbe::default());
}

/// Resets this thread's probe for a run of `frames` iterations. Call on
/// the rank thread before `execute_rank`, so the stamp vectors never grow
/// while kernels run.
pub fn begin_rank(frames: u32) {
    RANK.with(|r| {
        *r.borrow_mut() = RankProbe {
            frame_start: vec![None; frames as usize],
            frame_end: vec![None; frames as usize],
            ..RankProbe::default()
        }
    });
}

/// Takes this thread's probe after `execute_rank` returned.
pub fn end_rank() -> RankProbe {
    RANK.with(|r| std::mem::take(&mut *r.borrow_mut()))
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Role {
    Source,
    Sink,
    Other,
}

/// A kernel that stamps frames (sources and sinks) and, when traced,
/// times every invocation.
struct TimedKernel {
    inner: Arc<dyn Kernel>,
    role: Role,
    traced: bool,
}

impl Kernel for TimedKernel {
    fn invoke(&self, ctx: &mut FnThreadCtx<'_>) -> Result<(), String> {
        let t0 = Instant::now();
        let out = self.inner.invoke(ctx);
        let t1 = Instant::now();
        let iter = ctx.iteration as usize;
        RANK.with(|r| {
            let mut r = r.borrow_mut();
            if self.traced {
                r.kernel += t1 - t0;
                r.kernel_calls += 1;
            }
            match self.role {
                Role::Source => {
                    if let Some(s) = r.frame_start.get_mut(iter) {
                        *s = Some(s.map_or(t0, |s| s.min(t0)));
                    }
                }
                Role::Sink => {
                    if let Some(e) = r.frame_end.get_mut(iter) {
                        *e = Some(e.map_or(t1, |e| e.max(t1)));
                    }
                }
                Role::Other => {}
            }
        });
        out
    }
}

/// Clones `base` and re-registers its kernels behind [`TimedKernel`]
/// wrappers: the source and sink kernels of `program` always (two clock
/// reads per call, the frame stamps), every kernel when `traced`.
pub fn wrap_registry(base: &Registry, program: &GlueProgram, traced: bool) -> Registry {
    let names = |role: FnRole| -> HashSet<&str> {
        program
            .functions
            .iter()
            .filter(|f| f.role == role)
            .map(|f| f.function.as_str())
            .collect()
    };
    let (sources, sinks) = (names(FnRole::Source), names(FnRole::Sink));
    let mut reg = base.clone();
    for name in base.names() {
        let role = if sources.contains(name.as_str()) {
            Role::Source
        } else if sinks.contains(name.as_str()) {
            Role::Sink
        } else {
            Role::Other
        };
        if role == Role::Other && !traced {
            continue;
        }
        if let Some(inner) = base.get(&name) {
            reg.register(
                name,
                TimedKernel {
                    inner,
                    role,
                    traced,
                },
            );
        }
    }
    reg
}

/// Transport time of one rank.
#[derive(Clone, Copy, Debug, Default)]
pub struct LinkTimes {
    /// Time inside `try_send`.
    pub send: Duration,
    /// `try_send` calls.
    pub sends: u64,
    /// Time blocked in `try_recv` on data tags.
    pub recv_wait: Duration,
    /// `try_recv` calls on data tags.
    pub recvs: u64,
    /// Time blocked in `try_recv` on credit tags.
    pub credit_wait: Duration,
}

/// A [`Transport`] that forwards every call to `inner` and times sends
/// and receives.
pub struct TimedTransport<'a, T: Transport> {
    inner: &'a mut T,
    /// What the wrapper measured.
    pub times: LinkTimes,
}

impl<'a, T: Transport> TimedTransport<'a, T> {
    /// Wraps one rank's transport.
    pub fn new(inner: &'a mut T) -> Self {
        TimedTransport {
            inner,
            times: LinkTimes::default(),
        }
    }
}

// `try_sendrecv` keeps the trait's default (send, then receive), which is
// also what the in-process backend uses, so both halves are timed above.
impl<T: Transport> Transport for TimedTransport<'_, T> {
    fn rank(&self) -> usize {
        self.inner.rank()
    }

    fn size(&self) -> usize {
        self.inner.size()
    }

    fn try_send(&mut self, dst: usize, tag: u64, payload: &Payload) -> Result<(), FabricError> {
        let t0 = Instant::now();
        let out = self.inner.try_send(dst, tag, payload);
        self.times.send += t0.elapsed();
        self.times.sends += 1;
        out
    }

    fn try_recv(&mut self, src: usize, tag: u64) -> Result<Payload, FabricError> {
        let t0 = Instant::now();
        let out = self.inner.try_recv(src, tag);
        let waited = t0.elapsed();
        if tag & CREDIT_BIT != 0 {
            self.times.credit_wait += waited;
        } else {
            self.times.recv_wait += waited;
            self.times.recvs += 1;
        }
        out
    }

    fn try_recv_ready(&mut self, src: usize, tag: u64) -> bool {
        self.inner.try_recv_ready(src, tag)
    }

    fn now(&self) -> f64 {
        self.inner.now()
    }

    fn compute(&mut self, work: Work) {
        self.inner.compute(work)
    }

    fn advance(&mut self, secs: f64) {
        self.inner.advance(secs)
    }

    fn advance_lost(&mut self, secs: f64) {
        self.inner.advance_lost(secs)
    }

    fn note_retry(&mut self) {
        self.inner.note_retry()
    }

    fn note_fault(&mut self) {
        self.inner.note_fault()
    }

    fn note_mem_use(&mut self, bytes: u64) {
        self.inner.note_mem_use(bytes)
    }

    fn check_failed(&mut self) -> Result<(), FabricError> {
        self.inner.check_failed()
    }

    fn kernel_fault(&self, block: &str, iteration: u32, thread: u32) -> Option<String> {
        self.inner.kernel_fault(block, iteration, thread)
    }
}
