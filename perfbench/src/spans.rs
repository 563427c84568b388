//! Outside-in span accounting for the traced run.
//!
//! The benchmark adds no tracing inside the program. It wraps the public
//! seams between layers instead — the guest's [`SchedHooks`] set
//! ([`HookSpan`]), a VM's [`Workload`] ([`WorkloadSpan`]) and the fleet's
//! [`PlacementPolicy`] ([`PolicySpan`]) — and times every call through
//! them. Open spans sit on a parent stack, so a span's self time is its
//! duration minus its children's: a workload call that wakes a task
//! re-enters `select_cpu`, and that hook time is charged to `vsched`, not
//! to `workloads`. Totals stay in memory and are written out when the run
//! ends.

use fleet::{HostView, PlacementPolicy, PlacementReq};
use guestos::{GuestOs, Kernel, Platform, SchedHooks, TaskAction, TaskId, VcpuId, Workload};
use std::any::Any;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// A layer whose public seam the benchmark wraps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// vSched hooks and probers, behind `SchedHooks`.
    Vsched,
    /// Guest applications, behind `Workload`.
    Workloads,
    /// Fleet placement, behind `PlacementPolicy`.
    Fleet,
}

/// Accumulated spans of one layer.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LayerTotals {
    /// Calls through the seam.
    pub calls: u64,
    /// Nanoseconds inside the seam, nested spans included.
    pub total_ns: u64,
    /// Nanoseconds inside the seam, nested spans excluded.
    pub self_ns: u64,
}

/// Hook calls by entry point, counted beside the `vsched` spans.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct HookCounts {
    /// `select_cpu` calls.
    pub select_cpu: u64,
    /// `select_cpu` calls that returned a vCPU: bvs picked one.
    pub picked: u64,
    /// `on_timer` calls.
    pub timer: u64,
}

struct Frame {
    layer: Layer,
    start_ns: u64,
    child_ns: u64,
}

/// The open spans and per-layer totals of one traced pass.
pub struct Profiler {
    origin: Instant,
    stack: Vec<Frame>,
    totals: [LayerTotals; 3],
    /// Hook calls by entry point.
    pub hooks: HookCounts,
    /// Host views handed to placement calls.
    pub views: u64,
}

/// A profiler shared by every wrapper of one pass.
pub type SharedProfiler = Rc<RefCell<Profiler>>;

impl Default for Profiler {
    fn default() -> Self {
        Self::new()
    }
}

impl Profiler {
    /// An empty profiler whose clock starts now.
    pub fn new() -> Self {
        Profiler {
            origin: Instant::now(),
            stack: Vec::new(),
            totals: [LayerTotals::default(); 3],
            hooks: HookCounts::default(),
            views: 0,
        }
    }

    /// An empty profiler to hand to wrappers.
    pub fn shared() -> SharedProfiler {
        Rc::new(RefCell::new(Profiler::new()))
    }

    /// Opens a span of `layer` at `t_ns` on the profiler's clock.
    pub fn enter_at(&mut self, layer: Layer, t_ns: u64) {
        self.stack.push(Frame {
            layer,
            start_ns: t_ns,
            child_ns: 0,
        });
    }

    /// Closes the innermost open span at `t_ns`, charging its whole
    /// duration to its parent's children.
    pub fn exit_at(&mut self, t_ns: u64) {
        let f = self.stack.pop().expect("every exit closes an open span");
        let dur = t_ns.saturating_sub(f.start_ns);
        let t = &mut self.totals[f.layer as usize];
        t.calls += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(f.child_ns);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
    }

    /// Totals of one layer.
    pub fn totals(&self, layer: Layer) -> LayerTotals {
        self.totals[layer as usize]
    }

    /// Spans still open.
    pub fn open_spans(&self) -> usize {
        self.stack.len()
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

/// Runs `f` as one span of `layer`. The profiler is not borrowed while
/// `f` runs, so the seams it reaches can open nested spans.
fn span<R>(prof: &SharedProfiler, layer: Layer, f: impl FnOnce() -> R) -> R {
    {
        let mut p = prof.borrow_mut();
        let t = p.now_ns();
        p.enter_at(layer, t);
    }
    let r = f();
    let mut p = prof.borrow_mut();
    let t = p.now_ns();
    p.exit_at(t);
    r
}

/// A hook set whose every call is a `vsched` span.
pub struct HookSpan {
    inner: Box<dyn SchedHooks>,
    prof: SharedProfiler,
}

impl HookSpan {
    /// Wraps `inner`, recording into `prof`.
    pub fn new(inner: Box<dyn SchedHooks>, prof: SharedProfiler) -> Self {
        HookSpan { inner, prof }
    }
}

impl SchedHooks for HookSpan {
    // Delegated, so `vsched::instance` still finds the wrapped `Vsched`.
    fn as_any(&mut self) -> &mut dyn Any {
        self.inner.as_any()
    }

    fn select_cpu(
        &mut self,
        kern: &mut Kernel,
        plat: &mut dyn Platform,
        task: TaskId,
        prev: VcpuId,
    ) -> Option<VcpuId> {
        let picked = span(&self.prof, Layer::Vsched, || {
            self.inner.select_cpu(kern, plat, task, prev)
        });
        let mut p = self.prof.borrow_mut();
        p.hooks.select_cpu += 1;
        p.hooks.picked += u64::from(picked.is_some());
        picked
    }

    fn on_tick(&mut self, kern: &mut Kernel, plat: &mut dyn Platform, v: VcpuId) {
        span(&self.prof, Layer::Vsched, || {
            self.inner.on_tick(kern, plat, v)
        });
    }

    fn on_vcpu_start(&mut self, kern: &mut Kernel, plat: &mut dyn Platform, v: VcpuId) {
        span(&self.prof, Layer::Vsched, || {
            self.inner.on_vcpu_start(kern, plat, v)
        });
    }

    fn on_vcpu_stop(&mut self, kern: &mut Kernel, plat: &mut dyn Platform, v: VcpuId) {
        span(&self.prof, Layer::Vsched, || {
            self.inner.on_vcpu_stop(kern, plat, v)
        });
    }

    fn on_timer(&mut self, kern: &mut Kernel, plat: &mut dyn Platform, token: u64) {
        self.prof.borrow_mut().hooks.timer += 1;
        span(&self.prof, Layer::Vsched, || {
            self.inner.on_timer(kern, plat, token)
        });
    }

    fn on_builtin_burst(&mut self, kern: &mut Kernel, plat: &mut dyn Platform, task: TaskId) {
        span(&self.prof, Layer::Vsched, || {
            self.inner.on_builtin_burst(kern, plat, task)
        });
    }
}

/// A workload whose every call is a `workloads` span.
pub struct WorkloadSpan {
    inner: Box<dyn Workload>,
    prof: SharedProfiler,
}

impl WorkloadSpan {
    /// Wraps `inner`, recording into `prof`.
    pub fn new(inner: Box<dyn Workload>, prof: SharedProfiler) -> Self {
        WorkloadSpan { inner, prof }
    }
}

impl Workload for WorkloadSpan {
    fn start(&mut self, guest: &mut GuestOs, plat: &mut dyn Platform) {
        span(&self.prof, Layer::Workloads, || {
            self.inner.start(guest, plat)
        });
    }

    fn on_timer(&mut self, guest: &mut GuestOs, plat: &mut dyn Platform, token: u64) {
        span(&self.prof, Layer::Workloads, || {
            self.inner.on_timer(guest, plat, token)
        });
    }

    fn next_action(
        &mut self,
        guest: &mut GuestOs,
        plat: &mut dyn Platform,
        t: TaskId,
    ) -> TaskAction {
        span(&self.prof, Layer::Workloads, || {
            self.inner.next_action(guest, plat, t)
        })
    }

    fn finished(&self) -> bool {
        self.inner.finished()
    }

    fn owns_task(&self, t: TaskId) -> bool {
        self.inner.owns_task(t)
    }

    fn label(&self) -> &str {
        self.inner.label()
    }
}

/// A placement policy whose every decision is a `fleet` span.
pub struct PolicySpan {
    inner: Box<dyn PlacementPolicy>,
    prof: SharedProfiler,
}

impl PolicySpan {
    /// Wraps `inner`, recording into `prof`.
    pub fn new(inner: Box<dyn PlacementPolicy>, prof: SharedProfiler) -> Self {
        PolicySpan { inner, prof }
    }
}

impl PlacementPolicy for PolicySpan {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn place(&mut self, req: &PlacementReq, hosts: &[HostView]) -> Option<usize> {
        self.prof.borrow_mut().views += hosts.len() as u64;
        span(&self.prof, Layer::Fleet, || self.inner.place(req, hosts))
    }
}
