//! The traced mode's span recorder and the wrapper types that put spans
//! around the calls into each layer.
//!
//! Spans are recorded from the benchmark's own code only: around
//! `Interp::call`, `run_forward`, `replace_regions` and the set-up
//! phases directly, and around every `PolicyCheck::carat_guard`,
//! `MemSpace` access and `FrameSink::deliver` through [`TimedPolicy`],
//! [`TimedMem`] and [`TimedSink`]. The program itself is unchanged.
//!
//! A span has a name, start, end, parent span and batch id. Self time
//! (duration minus the part its children cover) is folded into
//! per-name totals as spans close, so it covers every span; the spans
//! themselves are kept in memory up to a cap and written out at exit.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;

use kop_core::{AccessFlags, Size, VAddr, Violation};
use kop_e1000e::{AccessCounts, E1000Device, FrameSink, MemSpace};
use kop_policy::PolicyCheck;

/// Where a span sits. Runtime names are the per-packet layers the
/// traced report splits `pkt_ns` into; set-up names cover bring-up.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Name {
    /// One timed batch (the benchmark's own loop).
    Batch,
    /// `Interp::call` (kop-interp / kop-vm dispatch).
    InterpCall,
    /// `run_forward` (kop-net: NAPI loop, parse, rewrite, FlowGen).
    Forward,
    /// A `MemSpace` load or store (kop-e1000e memory space).
    Mem,
    /// `PolicyCheck::carat_guard` (kop-policy).
    Check,
    /// Device side of the `MemSpace`: DMA, wire inject, bulk copies.
    Dma,
    /// `FrameSink::deliver` (the benchmark's ledger).
    Sink,
    /// `PolicyModule::replace_regions` (kop-policy publish).
    Publish,
    /// `parse_module` (kop-ir).
    Parse,
    /// `compile_module` (kop-compiler with kop-analysis inside).
    Compile,
    /// `ModuleStager::stage` (kop-kernel loader: signature + static proof).
    Stage,
    /// `StagedModule::lower` (kop-vm lowering).
    Lower,
    /// `reserve_module` + `commit_module` (kop-kernel loader).
    Commit,
    /// The traced profile window (kop-trace profiler).
    Profile,
    /// `Kernel::tick` promotion (kop-kernel + kop-vm).
    Promote,
    /// An empty span, used to price the recorder itself.
    Empty,
}

const NAMES: usize = 16;

impl Name {
    fn idx(self) -> usize {
        self as usize
    }

    /// The label written to the span dump.
    pub fn label(self) -> &'static str {
        match self {
            Name::Batch => "bench.batch",
            Name::InterpCall => "kop-interp.call",
            Name::Forward => "kop-net.run_forward",
            Name::Mem => "kop-e1000e.mem",
            Name::Check => "kop-policy.check",
            Name::Dma => "kop-e1000e.dma",
            Name::Sink => "bench.sink",
            Name::Publish => "kop-policy.publish",
            Name::Parse => "kop-ir.parse",
            Name::Compile => "kop-compiler.compile",
            Name::Stage => "kop-kernel.stage",
            Name::Lower => "kop-vm.lower",
            Name::Commit => "kop-kernel.commit",
            Name::Profile => "kop-trace.profile",
            Name::Promote => "kop-kernel.promote",
            Name::Empty => "bench.empty",
        }
    }
}

/// One closed span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    name: Name,
    id: u32,
    parent: Option<u32>,
    batch: u32,
    start_ns: u64,
    end_ns: u64,
}

struct Open {
    name: Name,
    id: u32,
    start_ns: u64,
    child_ns: u64,
}

/// Per-name totals over every closed span.
#[derive(Clone, Copy, Debug, Default)]
pub struct Totals {
    /// Spans closed.
    pub calls: u64,
    /// Summed durations.
    pub incl_ns: u64,
    /// Summed self times.
    pub self_ns: u64,
}

struct Recorder {
    on: bool,
    epoch: Instant,
    next_id: u32,
    batch: u32,
    stack: Vec<Open>,
    spans: Vec<Span>,
    cap: usize,
    totals: [Totals; NAMES],
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder {
        on: false,
        epoch: Instant::now(),
        next_id: 0,
        batch: 0,
        stack: Vec::new(),
        spans: Vec::new(),
        cap: 0,
        totals: [Totals::default(); NAMES],
    });
}

/// Start recording, keeping at most `cap` spans for the dump.
pub fn start(cap: usize) {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        r.on = true;
        r.cap = cap;
        r.spans.reserve(cap.min(1 << 20));
    });
}

/// Stop recording (totals and kept spans stay readable).
pub fn stop() {
    REC.with(|r| r.borrow_mut().on = false);
}

/// Tag the spans that follow with batch id `b`.
pub fn set_batch(b: u32) {
    REC.with(|r| r.borrow_mut().batch = b);
}

/// Zero the per-name totals (kept spans are untouched).
pub fn reset_totals() {
    REC.with(|r| r.borrow_mut().totals = [Totals::default(); NAMES]);
}

/// The per-name totals so far.
pub fn totals(name: Name) -> Totals {
    REC.with(|r| r.borrow().totals[name.idx()])
}

/// Run `f` inside a span named `name` (just `f` while not recording).
#[inline]
pub fn span<R>(name: Name, f: impl FnOnce() -> R) -> R {
    let on = REC.with(|r| {
        let mut r = r.borrow_mut();
        if !r.on {
            return false;
        }
        let id = r.next_id;
        r.next_id = r.next_id.wrapping_add(1);
        let start_ns = r.epoch.elapsed().as_nanos() as u64;
        r.stack.push(Open {
            name,
            id,
            start_ns,
            child_ns: 0,
        });
        true
    });
    let out = f();
    if on {
        REC.with(|r| {
            let mut r = r.borrow_mut();
            let end_ns = r.epoch.elapsed().as_nanos() as u64;
            let open = r.stack.pop().expect("span stack balanced");
            let dur = end_ns.saturating_sub(open.start_ns);
            let t = &mut r.totals[open.name.idx()];
            t.calls += 1;
            t.incl_ns += dur;
            t.self_ns += dur.saturating_sub(open.child_ns);
            let parent = r.stack.last_mut().map(|p| {
                p.child_ns += dur;
                p.id
            });
            if r.spans.len() < r.cap {
                let batch = r.batch;
                r.spans.push(Span {
                    name: open.name,
                    id: open.id,
                    parent,
                    batch,
                    start_ns: open.start_ns,
                    end_ns,
                });
            }
        });
    }
    out
}

/// Price of one empty span in ns (enter + exit, both clock reads),
/// measured on the recorder itself; the totals are left as found.
pub fn empty_span_ns() -> f64 {
    const N: u32 = 20_000;
    let saved = REC.with(|r| {
        let r = r.borrow();
        (r.totals, r.cap, r.spans.len())
    });
    REC.with(|r| r.borrow_mut().cap = 0);
    let t0 = Instant::now();
    for _ in 0..N {
        span(Name::Empty, || ());
    }
    let ns = t0.elapsed().as_nanos() as f64 / N as f64;
    REC.with(|r| {
        let mut r = r.borrow_mut();
        r.totals = saved.0;
        r.cap = saved.1;
        r.spans.truncate(saved.2);
    });
    ns
}

/// The kept spans as TSV (`id parent batch name start_ns end_ns`).
pub fn dump() -> String {
    REC.with(|r| {
        let r = r.borrow();
        let mut out = String::with_capacity(r.spans.len() * 48 + 64);
        out.push_str("id\tparent\tbatch\tname\tstart_ns\tend_ns\n");
        for s in &r.spans {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.id,
                parent,
                s.batch,
                s.name.label(),
                s.start_ns,
                s.end_ns
            );
        }
        out
    })
}

/// A `PolicyCheck` that records a [`Name::Check`] span per guard.
pub struct TimedPolicy<P>(pub P);

impl<P: PolicyCheck> PolicyCheck for TimedPolicy<P> {
    #[inline]
    fn carat_guard(&self, addr: VAddr, size: Size, flags: AccessFlags) -> Result<(), Violation> {
        span(Name::Check, || self.0.carat_guard(addr, size, flags))
    }
}

/// A `MemSpace` that records a [`Name::Mem`] span per load/store and a
/// [`Name::Dma`] span per device-side call.
pub struct TimedMem<M>(pub M);

impl<M: MemSpace> MemSpace for TimedMem<M> {
    fn read(&mut self, addr: u64, size: u64) -> Result<u64, Violation> {
        span(Name::Mem, || self.0.read(addr, size))
    }

    fn write(&mut self, addr: u64, size: u64, value: u64) -> Result<(), Violation> {
        span(Name::Mem, || self.0.write(addr, size, value))
    }

    fn bulk_write(&mut self, addr: u64, bytes: &[u8]) {
        span(Name::Dma, || self.0.bulk_write(addr, bytes))
    }

    fn bulk_read(&mut self, addr: u64, len: usize) -> Vec<u8> {
        span(Name::Dma, || self.0.bulk_read(addr, len))
    }

    fn tx_tick(&mut self, sink: &mut dyn FrameSink) -> u64 {
        span(Name::Dma, || self.0.tx_tick(sink))
    }

    fn rx_inject(&mut self, frame: &[u8]) -> bool {
        span(Name::Dma, || self.0.rx_inject(frame))
    }

    fn device(&mut self) -> &mut E1000Device {
        self.0.device()
    }

    fn counts(&self) -> AccessCounts {
        self.0.counts()
    }

    fn arena_base(&self) -> u64 {
        self.0.arena_base()
    }

    fn arena_len(&self) -> u64 {
        self.0.arena_len()
    }

    fn mmio_base(&self) -> u64 {
        self.0.mmio_base()
    }

    fn tracer(&self) -> Option<&std::sync::Arc<kop_trace::Tracer>> {
        self.0.tracer()
    }
}

/// A `FrameSink` that records a [`Name::Sink`] span per delivery.
pub struct TimedSink<'a, S: FrameSink>(pub &'a mut S);

impl<S: FrameSink> FrameSink for TimedSink<'_, S> {
    fn deliver(&mut self, frame: &[u8]) {
        span(Name::Sink, || self.0.deliver(frame))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        start(16);
        span(Name::Batch, || {
            span(Name::Check, || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        stop();
        let b = totals(Name::Batch);
        let c = totals(Name::Check);
        assert_eq!((b.calls, c.calls), (1, 1));
        assert_eq!(b.incl_ns, b.self_ns + c.incl_ns);
        assert!(c.self_ns >= 2_000_000);
        let text = dump();
        assert_eq!(text.lines().count(), 3, "header + two spans");
        assert!(text.contains("kop-policy.check"));
    }
}
