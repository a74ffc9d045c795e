//! The rigs the figures share: the throughput series of Figs. 3–5,
//! the interpreted mini-e1000e TX rig (`exec`, `jit`, `opt`), the
//! loop-heavy opt workload, and the native forwarding rig (`jit`,
//! `smp`, `forward`, `fleet`).

use std::sync::Arc;

use kop_compiler::{compile_module, CompileOptions};
use kop_core::{KernelResult, Protection, Region, Size, VAddr};
use kop_e1000e::{DirectMem, E1000Device, E1000Driver, GuardedMem, MemSpace};
use kop_interp::{Engine, ExecStats, Interp};
use kop_kernel::{Kernel, KernelConfig, ModuleImage};
use kop_net::{tool, ForwardReport, ToolConfig};
use kop_policy::{DefaultAction, PolicyCheck, PolicyModule};
use kop_sim::{cdf_points, MachineProfile, Summary};
use kop_trace::Tracer;

use crate::corpus;
use crate::setup;

use super::measure;
use super::quick;
use super::Series;

/// Standard trial configuration (paper: ~100k packets/trial, many trials).
pub(super) fn cfg(seed: u64) -> ToolConfig {
    if quick() {
        return ToolConfig {
            packets_per_trial: 2_000,
            trials: 7,
            frame_size: 128,
            seed,
        };
    }
    ToolConfig {
        packets_per_trial: 100_000,
        trials: 41,
        frame_size: 128,
        seed,
    }
}

/// One throughput CDF of the calibrated sender: unguarded, or guarded
/// by an `n`-region policy whose driver rules sit at scan position
/// `hit`.
pub(super) fn throughput_series(
    machine: MachineProfile,
    label: &str,
    guarded: Option<(usize, u64)>, // (n regions, hit position)
    seed: u64,
) -> (Series, Summary) {
    let report = match guarded {
        None => {
            let mut s = setup::baseline_sender(machine);
            tool::run_throughput(&mut s, &cfg(seed)).expect("baseline trial")
        }
        Some((n, hit)) => {
            let mut s = setup::carat_sender(machine, setup::n_region_policy(n), hit);
            tool::run_throughput(&mut s, &cfg(seed)).expect("carat trial")
        }
    };
    let summary = report.summary;
    (
        Series {
            label: label.to_string(),
            points: cdf_points(&report.samples),
        },
        summary,
    )
}

/// The module the interpreted TX rig loads.
pub const XMIT_MODULE: &str = "mini-e1000e";
/// The TX ring: 256 descriptors × `{i64, i32, i32}`.
pub(crate) const RING_BYTES: u64 = 256 * 16;
/// The frame buffer `xmit` writes the header into.
pub(crate) const FRAME_BYTES: u64 = 64;
/// A heap block standing in for the BAR; it covers the TDT doorbell.
pub const MMIO_BYTES: u64 = 0x4000;
/// The TDT doorbell's offset in the BAR.
pub(crate) const TDT_OFF: u64 = 0x3818;
/// `@stats`: three 8-byte counters.
pub(crate) const STATS_BYTES: u64 = 24;
/// The payload length: 128 B on the wire with the header.
pub(crate) const LEN: u64 = 114;

/// The buffers one `xmit` touches.
#[derive(Clone, Copy, Debug)]
pub struct TxBufs {
    /// The TX ring.
    pub ring: VAddr,
    /// The frame buffer.
    pub frame: VAddr,
    /// The MMIO window.
    pub mmio: VAddr,
    /// The module's `@stats` global.
    pub stats: VAddr,
}

/// Every byte an `xmit` may write, read back.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TxBytes {
    /// The TX ring.
    pub ring: Vec<u8>,
    /// The frame buffer.
    pub frame: Vec<u8>,
    /// `@stats`.
    pub stats: Vec<u8>,
    /// The TDT doorbell word.
    pub tdt: u64,
}

impl TxBufs {
    /// Sends packet `p`: ring slot `p mod 256` with head == slot, so
    /// `clean_tx` finds nothing to reclaim and the hot path is header,
    /// descriptor, `@stats` and doorbell.
    pub fn xmit(&self, interp: &mut Interp<'_>, p: u64) -> KernelResult<Option<u64>> {
        let slot = p & 255;
        let args = [
            self.ring.raw(),
            self.frame.raw(),
            self.mmio.raw(),
            slot,
            LEN,
            slot,
        ];
        interp.call(XMIT_MODULE, "xmit", &args)
    }

    /// Reads back every byte an `xmit` may write.
    pub fn read(&self, kernel: &Kernel) -> TxBytes {
        let bytes = |addr: VAddr, len: u64| {
            let mut out = vec![0u8; len as usize];
            kernel.mem.read_bytes(addr, &mut out).expect("read back");
            out
        };
        TxBytes {
            ring: bytes(self.ring, RING_BYTES),
            frame: bytes(self.frame, FRAME_BYTES),
            stats: bytes(self.stats, STATS_BYTES),
            tdt: kernel
                .mem
                .read_uint(VAddr(self.mmio.raw() + TDT_OFF), Size(4))
                .expect("tdt"),
        }
    }

    /// Least-privilege grants: the ring, the frame, the MMIO window and
    /// (with `with_stats`) `@stats`, each a region of its own.
    pub fn grants(&self, with_stats: bool) -> Vec<Region> {
        let mut g = vec![
            (self.ring, RING_BYTES),
            (self.frame, FRAME_BYTES),
            (self.mmio, MMIO_BYTES),
        ];
        if with_stats {
            g.push((self.stats, STATS_BYTES));
        }
        g.into_iter()
            .map(|(base, len)| {
                Region::new(base, Size(len), Protection::READ_WRITE).expect("grant region")
            })
            .collect()
    }
}

/// What one [`TxRig::run`] observed.
#[derive(Clone, Copy, Debug)]
pub(crate) struct TxRun {
    /// Wall-clock ns per packet of the send loop.
    pub(crate) ns_pkt: f64,
    /// The interpreter's counters.
    pub(crate) stats: ExecStats,
    /// Guards the promoted tier admitted inline.
    pub(crate) inline_admits: u64,
    /// Inline guards that deopted to the general path.
    pub(crate) inline_deopts: u64,
}

/// The interpreted mini-e1000e TX rig: the module compiled with the
/// caller's options, a kernel booted over the caller's policy and
/// configuration, the module inserted, and its ring, frame and MMIO
/// buffers allocated. Every interpreter runs on one module stack
/// allocated after the buffers.
pub struct TxRig {
    /// The kernel the module runs in.
    pub kernel: Kernel,
    /// The buffers `xmit` touches.
    pub bufs: TxBufs,
    /// The guard sites the container attests.
    pub(crate) static_guards: u64,
    stack: VAddr,
}

impl TxRig {
    /// Compiles, boots, inserts and allocates (see [`TxRig`]).
    pub fn boot(opts: &CompileOptions, policy: Arc<PolicyModule>, config: KernelConfig) -> TxRig {
        let key = setup::operator_key();
        let out =
            compile_module(corpus::parse(corpus::MINI_E1000E_IR), opts, &key).expect("compiles");
        let mut kernel = Kernel::boot(policy, vec![key], config);
        kernel.insmod(&out.signed).expect("loads");
        let stats = kernel
            .module(XMIT_MODULE)
            .expect("loaded")
            .image()
            .globals
            .get("stats")
            .copied()
            .expect("@stats laid out");
        let bufs = TxBufs {
            ring: kernel.kmalloc(RING_BYTES).expect("ring"),
            frame: kernel.kmalloc(FRAME_BYTES).expect("frame"),
            mmio: kernel.kmalloc(MMIO_BYTES).expect("mmio window"),
            stats,
        };
        let stack = Interp::new(&mut kernel).expect("interp").stack_base();
        TxRig {
            kernel,
            bufs,
            static_guards: out.signed.attestation.guard_count,
            stack,
        }
    }

    /// The loaded module's image.
    pub(crate) fn image(&self) -> Arc<ModuleImage> {
        Arc::clone(self.kernel.module(XMIT_MODULE).expect("loaded").image())
    }

    /// An interpreter on the rig's stack, running `engine`.
    pub fn interp(&mut self, engine: Engine) -> Interp<'_> {
        let mut interp = Interp::with_stack(&mut self.kernel, self.stack);
        interp.set_engine(engine);
        interp
    }

    /// Sends packets `0..packets` on `engine` in one interpreter, timing
    /// the send loop.
    pub(crate) fn run(&mut self, engine: Engine, packets: u64) -> TxRun {
        let bufs = self.bufs;
        let mut interp = self.interp(engine);
        let ((), ns) = measure::timed(|| {
            for p in 0..packets {
                bufs.xmit(&mut interp, p).expect("xmit");
            }
        });
        TxRun {
            ns_pkt: ns / packets as f64,
            stats: interp.stats(),
            inline_admits: interp.inline_admits(),
            inline_deopts: interp.inline_deopts(),
        }
    }

    /// The profile window promotion feeds on: `packets` packets on the
    /// general bytecode with the tracer on.
    pub fn profile(&mut self, packets: u64) {
        self.kernel.tracer().set_enabled(true);
        self.run(Engine::Bytecode, packets);
        self.kernel.tracer().set_enabled(false);
    }

    /// Promotes every guard site with a profiled hit; returns the
    /// promoted op count.
    pub fn promote(&mut self) -> usize {
        self.kernel
            .promote_hot(XMIT_MODULE, 1)
            .expect("promotion passes its own validation")
    }

    /// Reads back every byte an `xmit` may write.
    pub(crate) fn read(&self) -> TxBytes {
        self.bufs.read(&self.kernel)
    }

    /// `(module, site, hits)` per profiled guard site.
    pub(crate) fn site_hits(&self) -> Vec<(String, String, u64)> {
        self.kernel
            .tracer()
            .profile_snapshot()
            .into_iter()
            .map(|(meta, prof)| (meta.module.clone(), meta.label.clone(), prof.hits))
            .collect()
    }
}

/// The traced correctness pass of `exec` and `opt`: `packets` packets
/// on the tree and on the bytecode, each on a fresh rig from `boot` with
/// the tracer on. Asserts that each engine's per-site totals reconcile
/// with its guard counter, and that the engines agree on `ExecStats` and
/// on every site's hits. Returns the per-site hits and their total.
pub(super) fn traced_engines_agree(
    boot: impl Fn() -> TxRig,
    packets: u64,
) -> (Vec<(String, String, u64)>, u64) {
    let traced = |engine| {
        let mut rig = boot();
        rig.kernel.tracer().set_enabled(true);
        let stats = rig.run(engine, packets).stats;
        assert_eq!(
            rig.kernel.tracer().total_checks(),
            stats.guards,
            "per-site profile totals must reconcile with the interp guard counter"
        );
        (stats, rig.site_hits())
    };
    let (tree_stats, tree_sites) = traced(Engine::Tree);
    let (vm_stats, vm_sites) = traced(Engine::Bytecode);
    assert_eq!(tree_stats, vm_stats, "traced ExecStats must match");
    assert_eq!(
        tree_sites, vm_sites,
        "per-site hit attribution must match exactly across engines"
    );
    assert!(!tree_sites.is_empty(), "guard sites were profiled");
    (tree_sites, tree_stats.guards)
}

/// The loop-heavy opt workload built with `opts` and run once under an
/// allow-all policy: `(static guards, dynamic guards, result)`.
pub(super) fn opt_workload(opts: &CompileOptions) -> (f64, f64, u64) {
    let key = setup::operator_key();
    let out = compile_module(corpus::parse(corpus::OPT_WORKLOAD_IR), opts, &key).expect("compiles");
    let policy = Arc::new(PolicyModule::new());
    policy.set_default_action(DefaultAction::Allow);
    let mut kernel = Kernel::boot(policy, vec![key], KernelConfig::default());
    kernel.insmod(&out.signed).expect("loads");
    let buf = kernel.kmalloc(4096).expect("buf");
    let mut interp = Interp::new(&mut kernel).expect("interp");
    let result = interp
        .call("opt-workload", "run", &[buf.raw(), 256])
        .expect("runs")
        .expect("returns");
    (
        out.signed.attestation.guard_count as f64,
        interp.stats().guards as f64,
        result,
    )
}

/// The driver's guard-site map over the arena and MMIO window
/// `DirectMem::with_defaults` lays out.
pub(super) fn default_site_map() -> kop_policy::SiteMap {
    kop_e1000e::driver_site_map(
        kop_core::layout::DIRECT_MAP_BASE,
        kop_core::layout::MMIO_WINDOW_BASE,
    )
}

/// A fresh, brought-up driver over `mem`.
pub(super) fn driver<M: MemSpace>(mem: M) -> E1000Driver<M> {
    let mut drv = E1000Driver::probe(mem).expect("probe");
    drv.up().expect("up");
    drv
}

/// Unguarded driver memory with the default arena and MMIO window.
pub(super) fn unguarded() -> DirectMem {
    DirectMem::with_defaults(E1000Device::default())
}

/// Guarded driver memory over `policy`.
pub(super) fn guarded<P: PolicyCheck>(policy: P) -> GuardedMem<P> {
    GuardedMem::new(unguarded(), policy)
}

/// One timed forwarding pass over a fresh driver: offered frames from a
/// seeded [`kop_net::FlowGen`] are injected into the RX DMA engine,
/// NAPI-polled, rewritten, and transmitted back out into a ledger. Every
/// pass is fully audited — the forwarding rate is only reported if the
/// ledger proves zero loss (beyond counted wire drops), zero duplication,
/// and zero reordering.
pub(super) fn forward_once<M: MemSpace>(
    mem: M,
    (seed, flows, offered, budget): (u64, usize, u64, u64),
) -> (f64, ForwardReport, kop_e1000e::AccessCounts) {
    let mut drv = driver(mem);
    let mut gen = kop_net::FlowGen::new(seed, flows);
    let mut ledger = kop_net::LedgerSink::new();
    let (rep, ns) = measure::timed(|| {
        kop_net::run_forward(&mut drv, &mut gen, &mut ledger, offered, budget)
            .expect("forwarding run")
    });
    assert_eq!(
        rep.forwarded, rep.accepted,
        "every accepted frame forwarded"
    );
    assert_eq!(rep.unparseable, 0);
    assert_eq!(ledger.frames, rep.forwarded);
    assert_eq!(ledger.duplicates, 0, "zero duplicated frames");
    assert_eq!(ledger.unsequenced, 0);
    assert_eq!(
        ledger.missing(rep.offered).len() as u64,
        rep.wire_dropped,
        "every missing sequence accounted for by a counted wire drop"
    );
    (
        rep.forwarded as f64 / (ns / 1e9).max(1e-9),
        rep,
        drv.counts(),
    )
}

/// One forwarding pass over a fresh driver into a sink that captures
/// every forwarded frame.
pub(super) fn forward_capture<M: MemSpace>(
    mem: M,
    (seed, flows, offered, budget): (u64, usize, u64, u64),
) -> kop_net::PacketSink {
    let mut sink = kop_net::PacketSink::capturing(offered as usize);
    let mut gen = kop_net::FlowGen::new(seed, flows);
    kop_net::run_forward(&mut driver(mem), &mut gen, &mut sink, offered, budget).expect("forward");
    sink
}

/// One forwarding window through a guarded driver over `policy` with a
/// tracer that turns on after bring-up, so its profile covers exactly
/// the window. Asserts that the per-site totals equal the driver's
/// guard-call delta; returns the report, the tracer and that delta.
pub(super) fn traced_forward(
    policy: Arc<PolicyModule>,
    (seed, flows, offered, budget): (u64, usize, u64, u64),
) -> (ForwardReport, Arc<Tracer>, u64) {
    let tracer = Tracer::with_capacity(kop_trace::DEFAULT_CAPACITY);
    let mut drv = driver(GuardedMem::with_tracer(
        unguarded(),
        policy,
        Arc::clone(&tracer),
    ));
    tracer.set_enabled(true);
    let before = drv.counts();
    let mut gen = kop_net::FlowGen::new(seed, flows);
    let mut ledger = kop_net::LedgerSink::new();
    let rep = kop_net::run_forward(&mut drv, &mut gen, &mut ledger, offered, budget)
        .expect("traced forward");
    let guard_calls = drv.counts().since(&before).guard_calls;
    assert_eq!(
        tracer.total_checks(),
        guard_calls,
        "per-site profile totals must reconcile with the RX+TX guard counter"
    );
    (rep, tracer, guard_calls)
}

/// Forwards `chunks` chunks of `per_chunk` offered frames through one
/// guarded driver over `policy`, for a storm on another thread to race.
/// Before each chunk it counts a stale admit when `stale()` holds — the
/// caller's stale-grant discipline. The ledger audit is exact: no
/// duplicate, and every missing frame a counted wire drop. Returns
/// `(forwarded frames, stale admits)`.
pub(super) fn chunked_forward(
    policy: &Arc<PolicyModule>,
    seed: u64,
    flows: usize,
    (chunks, per_chunk, budget): (u64, u64, u64),
    stale: impl Fn() -> bool,
) -> (u64, u64) {
    let mut drv = driver(guarded(Arc::clone(policy)));
    let mut gen = kop_net::FlowGen::new(seed, flows);
    let mut ledger = kop_net::LedgerSink::new();
    let (mut forwarded, mut dropped, mut stale_admits) = (0, 0, 0);
    for _ in 0..chunks {
        stale_admits += stale() as u64;
        let rep = kop_net::run_forward(&mut drv, &mut gen, &mut ledger, per_chunk, budget)
            .expect("forwarding chunk");
        forwarded += rep.forwarded;
        dropped += rep.wire_dropped;
    }
    assert_eq!(ledger.duplicates, 0);
    assert_eq!(ledger.frames, forwarded);
    assert_eq!(
        ledger.missing(chunks * per_chunk).len() as u64,
        dropped,
        "chunked loss accounting is exact"
    );
    (forwarded, stale_admits)
}
