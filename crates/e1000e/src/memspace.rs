//! The driver's memory-access abstraction — where guard injection lands.
//!
//! The paper builds the e1000e driver twice with the same compiler and
//! flags: once unmodified (*baseline*) and once with the CARAT KOP
//! transformation (*carat*). The Rust analogue is a driver generic over
//! [`MemSpace`]:
//!
//! * [`DirectMem`] performs each access directly — compiling the driver
//!   over it produces machine code with no trace of guards (baseline);
//! * [`GuardedMem`] invokes [`kop_policy::PolicyCheck::carat_guard`]
//!   before *every* access, exactly mirroring the injected
//!   `call @carat_guard(ptr, size, flags)` (carat).
//!
//! Both spaces route addresses in the device BAR window to the device
//! model's registers (ioremap'd MMIO) — and MMIO accesses are guarded
//! too, because they are ordinary loads/stores in the driver's code.
//! Bulk payload movement uses the separate *unguarded* [`MemSpace::bulk_write`]
//! path: in the real driver, packet payload reaches the NIC by DMA from
//! the sk_buff, never through guarded CPU code.

use std::sync::Arc;

use kop_core::{AccessFlags, Size, VAddr, Violation};
use kop_policy::{PolicyCheck, SiteMap};
use kop_trace::{GuardDecision, Producer, ProfileShard, SiteId, Tracer};

use crate::device::{DmaMem, E1000Device, FrameSink};
use crate::driver::{RX_BUFS_OFF, RX_RING_OFF, STATS_OFF, TX_BUFS_OFF, TX_RING_OFF};
use crate::regs::BAR_SIZE;

/// Access counters — the measured "driver work" that feeds the machine
/// model ([`kop_sim::PacketWork`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AccessCounts {
    /// CPU loads from RAM.
    pub ram_reads: u64,
    /// CPU stores to RAM.
    pub ram_writes: u64,
    /// MMIO register reads.
    pub mmio_reads: u64,
    /// MMIO register writes.
    pub mmio_writes: u64,
    /// Guard invocations (0 for [`DirectMem`]).
    pub guard_calls: u64,
    /// Guards the policy front admitted without a policy lookup
    /// ([`PolicyCheck::flush_admits`]; 0 unless the front has a fast path).
    pub inline_admits: u64,
    /// Bytes moved through the unguarded bulk/DMA path.
    pub bulk_bytes: u64,
}

impl AccessCounts {
    /// Difference since `earlier`.
    pub fn since(&self, earlier: &AccessCounts) -> AccessCounts {
        AccessCounts {
            ram_reads: self.ram_reads - earlier.ram_reads,
            ram_writes: self.ram_writes - earlier.ram_writes,
            mmio_reads: self.mmio_reads - earlier.mmio_reads,
            mmio_writes: self.mmio_writes - earlier.mmio_writes,
            guard_calls: self.guard_calls - earlier.guard_calls,
            inline_admits: self.inline_admits - earlier.inline_admits,
            bulk_bytes: self.bulk_bytes - earlier.bulk_bytes,
        }
    }
}

/// The driver's view of memory: typed loads/stores (guardable), bulk
/// DMA-side transfers (never guarded), and access to the NIC below.
pub trait MemSpace {
    /// Load `size` ∈ {1,2,4,8} bytes at `addr` (little endian).
    fn read(&mut self, addr: u64, size: u64) -> Result<u64, Violation>;

    /// Store `size` ∈ {1,2,4,8} bytes at `addr` (little endian).
    fn write(&mut self, addr: u64, size: u64, value: u64) -> Result<(), Violation>;

    /// Unguarded bulk copy into memory (sk_buff fill / DMA side).
    fn bulk_write(&mut self, addr: u64, bytes: &[u8]);

    /// Unguarded bulk copy out of memory (passing an RX buffer upward).
    fn bulk_read(&mut self, addr: u64, len: usize) -> Vec<u8>;

    /// Run the NIC's TX DMA engine (hardware side, unguarded).
    fn tx_tick(&mut self, sink: &mut dyn FrameSink) -> u64;

    /// Inject a frame on the wire side (hardware side, unguarded).
    fn rx_inject(&mut self, frame: &[u8]) -> bool;

    /// Direct access to the device model (tests/telemetry; not the
    /// driver's data path).
    fn device(&mut self) -> &mut E1000Device;

    /// Access counters so far.
    fn counts(&self) -> AccessCounts;

    /// The base address of the RAM arena available to the driver.
    fn arena_base(&self) -> u64;

    /// The size of the RAM arena.
    fn arena_len(&self) -> u64;

    /// The base of the device's MMIO window.
    fn mmio_base(&self) -> u64;

    /// The tracer this space reports guard checks and driver events to
    /// (None for untraced spaces — the default, and always for the
    /// baseline build, which has no guards to trace).
    fn tracer(&self) -> Option<&Arc<Tracer>> {
        None
    }
}

/// RAM arena addressed at a configurable base (the driver's slice of the
/// direct map), with the NIC's BAR mapped alongside.
pub struct DirectMem {
    arena_base: u64,
    ram: Vec<u8>,
    mmio_base: u64,
    dev: E1000Device,
    counts: AccessCounts,
}

/// Arena wrapper giving the DMA engine physical access with bounds checks
/// (a real bus would machine-check on out-of-range DMA).
struct ArenaDma<'a> {
    base: u64,
    ram: &'a mut [u8],
}

impl DmaMem for ArenaDma<'_> {
    fn dma_read(&mut self, addr: u64, buf: &mut [u8]) {
        let off = addr.checked_sub(self.base).expect("DMA below arena") as usize;
        buf.copy_from_slice(&self.ram[off..off + buf.len()]);
    }
    fn dma_write(&mut self, addr: u64, buf: &[u8]) {
        let off = addr.checked_sub(self.base).expect("DMA below arena") as usize;
        self.ram[off..off + buf.len()].copy_from_slice(buf);
    }
}

impl DirectMem {
    /// Create an arena of `len` bytes at `arena_base` with the device's
    /// BAR at `mmio_base`.
    pub fn new(arena_base: u64, len: u64, mmio_base: u64, dev: E1000Device) -> DirectMem {
        assert!(
            mmio_base >= arena_base + len || mmio_base + BAR_SIZE <= arena_base,
            "MMIO window must not overlap the RAM arena"
        );
        DirectMem {
            arena_base,
            ram: vec![0u8; len as usize],
            mmio_base,
            dev,
            counts: AccessCounts::default(),
        }
    }

    /// Default layout: 16 MiB of "direct map" RAM plus the BAR in the
    /// ioremap window, using the kernel layout constants.
    pub fn with_defaults(dev: E1000Device) -> DirectMem {
        DirectMem::new(
            kop_core::layout::DIRECT_MAP_BASE,
            16 << 20,
            kop_core::layout::MMIO_WINDOW_BASE,
            dev,
        )
    }

    fn is_mmio(&self, addr: u64, size: u64) -> bool {
        addr >= self.mmio_base && addr + size <= self.mmio_base + BAR_SIZE
    }

    fn ram_off(&self, addr: u64, size: u64) -> usize {
        let off = addr
            .checked_sub(self.arena_base)
            .unwrap_or_else(|| panic!("access at {addr:#x} below arena"));
        assert!(
            off + size <= self.ram.len() as u64,
            "access at {addr:#x}+{size} beyond arena"
        );
        off as usize
    }

    fn do_read(&mut self, addr: u64, size: u64) -> u64 {
        if self.is_mmio(addr, size) {
            self.counts.mmio_reads += 1;
            return self.dev.reg_read(addr - self.mmio_base);
        }
        self.counts.ram_reads += 1;
        let off = self.ram_off(addr, size);
        let mut b = [0u8; 8];
        b[..size as usize].copy_from_slice(&self.ram[off..off + size as usize]);
        u64::from_le_bytes(b)
    }

    fn do_write(&mut self, addr: u64, size: u64, value: u64) {
        if self.is_mmio(addr, size) {
            self.counts.mmio_writes += 1;
            self.dev.reg_write(addr - self.mmio_base, value);
            return;
        }
        self.counts.ram_writes += 1;
        let off = self.ram_off(addr, size);
        self.ram[off..off + size as usize].copy_from_slice(&value.to_le_bytes()[..size as usize]);
    }
}

impl MemSpace for DirectMem {
    #[inline]
    fn read(&mut self, addr: u64, size: u64) -> Result<u64, Violation> {
        Ok(self.do_read(addr, size))
    }

    #[inline]
    fn write(&mut self, addr: u64, size: u64, value: u64) -> Result<(), Violation> {
        self.do_write(addr, size, value);
        Ok(())
    }

    fn bulk_write(&mut self, addr: u64, bytes: &[u8]) {
        self.counts.bulk_bytes += bytes.len() as u64;
        let off = self.ram_off(addr, bytes.len() as u64);
        self.ram[off..off + bytes.len()].copy_from_slice(bytes);
    }

    fn bulk_read(&mut self, addr: u64, len: usize) -> Vec<u8> {
        self.counts.bulk_bytes += len as u64;
        let off = self.ram_off(addr, len as u64);
        self.ram[off..off + len].to_vec()
    }

    fn tx_tick(&mut self, sink: &mut dyn FrameSink) -> u64 {
        let mut dma = ArenaDma {
            base: self.arena_base,
            ram: &mut self.ram,
        };
        self.dev.tx_tick(&mut dma, sink)
    }

    fn rx_inject(&mut self, frame: &[u8]) -> bool {
        let mut dma = ArenaDma {
            base: self.arena_base,
            ram: &mut self.ram,
        };
        self.dev.rx_inject(&mut dma, frame)
    }

    fn device(&mut self) -> &mut E1000Device {
        &mut self.dev
    }

    fn counts(&self) -> AccessCounts {
        self.counts
    }

    fn arena_base(&self) -> u64 {
        self.arena_base
    }

    fn arena_len(&self) -> u64 {
        self.ram.len() as u64
    }

    fn mmio_base(&self) -> u64 {
        self.mmio_base
    }
}

/// Synthetic guard-site identities for the hand-guarded driver build.
///
/// The interpreted path gets per-instruction site IDs from the compiler
/// pass; the native `GuardedMem` build has no IR, so it classifies each
/// guarded address into one of a fixed set of sites by arena region
/// ([`driver_site_map`]) — the same granularity the paper's per-path
/// breakdown uses (descriptor ring vs stats block vs doorbell ...).
/// Checks tally into this space's own profile shard, so queues on one
/// tracer never share a profile lock.
struct GuardTrace {
    shard: ProfileShard,
    map: SiteMap,
    /// Sites indexed by `map`'s classification.
    sites: [SiteId; 7],
}

/// Labels for the synthetic driver sites, in [`driver_site_map`] order.
const DRIVER_SITE_LABELS: [&str; 7] = [
    "mmio_doorbell",
    "tx_desc_ring",
    "rx_desc_ring",
    "stats_block",
    "tx_bufs",
    "rx_bufs",
    "other",
];

impl GuardTrace {
    fn new(tracer: Arc<Tracer>, map: SiteMap) -> GuardTrace {
        let sites = DRIVER_SITE_LABELS.map(|l| tracer.register_site("e1000e", l));
        GuardTrace {
            shard: ProfileShard::new(tracer),
            map,
            sites,
        }
    }

    fn site_for(&self, addr: u64) -> SiteId {
        self.sites[self.map.classify(addr) as usize]
    }
}

/// The driver's guard-site map: the address ranges the tracer attributes
/// guards by and a [`kop_policy::GuardFront`] keys its slots by. Site
/// indices follow `DRIVER_SITE_LABELS` order; unmatched addresses
/// classify as site 6 ("other").
pub fn driver_site_map(arena_base: u64, mmio_base: u64) -> SiteMap {
    SiteMap::new(6)
        .range(mmio_base, mmio_base + BAR_SIZE, 0)
        .range(arena_base + TX_RING_OFF, arena_base + RX_RING_OFF, 1)
        .range(arena_base + RX_RING_OFF, arena_base + STATS_OFF, 2)
        .range(arena_base + STATS_OFF, arena_base + TX_BUFS_OFF, 3)
        .range(arena_base + TX_BUFS_OFF, arena_base + RX_BUFS_OFF, 4)
        .range(arena_base + RX_BUFS_OFF, u64::MAX, 5)
}

/// The transformed build: every load/store is preceded by a guard check.
pub struct GuardedMem<P: PolicyCheck> {
    inner: DirectMem,
    policy: P,
    trace: Option<GuardTrace>,
}

impl<P: PolicyCheck> GuardedMem<P> {
    /// Wrap a memory space with a policy.
    pub fn new(inner: DirectMem, policy: P) -> GuardedMem<P> {
        GuardedMem {
            inner,
            policy,
            trace: None,
        }
    }

    /// Wrap a memory space with a policy and report every guard check to
    /// `tracer` under synthetic per-region sites (see `GuardTrace`).
    /// Costs one relaxed atomic load per guard while tracing is off.
    pub fn with_tracer(inner: DirectMem, policy: P, tracer: Arc<Tracer>) -> GuardedMem<P> {
        let map = driver_site_map(inner.arena_base, inner.mmio_base);
        let trace = Some(GuardTrace::new(tracer, map));
        GuardedMem {
            inner,
            policy,
            trace,
        }
    }

    /// The policy in use, with its batched admits drained into the
    /// policy's stats first.
    pub fn policy(&self) -> &P {
        self.policy.flush_admits();
        &self.policy
    }
}

impl<P: PolicyCheck> GuardedMem<P> {
    #[inline(always)]
    fn guard(&mut self, addr: u64, size: u64, flags: AccessFlags) -> Result<(), Violation> {
        self.inner.counts.guard_calls += 1;
        if let Some(t) = self.trace.as_mut().filter(|t| t.shard.tracer().enabled()) {
            // The site's profile keeps its address range
            // (`SiteProfile::envelope`). No native guard is promoted;
            // the guard front's slots fill from grants.
            let site = t.site_for(addr);
            let policy = &self.policy;
            return t.shard.traced_check(
                Producer::Driver,
                site,
                Some((addr, size)),
                || policy.carat_guard(VAddr(addr), Size(size), flags),
                |r| match r {
                    Ok(()) => GuardDecision::Allowed,
                    Err(_) => GuardDecision::Denied,
                },
            );
        }
        self.policy.carat_guard(VAddr(addr), Size(size), flags)
    }
}

impl<P: PolicyCheck> MemSpace for GuardedMem<P> {
    #[inline]
    fn read(&mut self, addr: u64, size: u64) -> Result<u64, Violation> {
        self.guard(addr, size, AccessFlags::READ)?;
        Ok(self.inner.do_read(addr, size))
    }

    #[inline]
    fn write(&mut self, addr: u64, size: u64, value: u64) -> Result<(), Violation> {
        self.guard(addr, size, AccessFlags::WRITE)?;
        self.inner.do_write(addr, size, value);
        Ok(())
    }

    // The bulk/DMA paths and hardware side are NOT guarded — they are not
    // module loads/stores (paper §4).
    fn bulk_write(&mut self, addr: u64, bytes: &[u8]) {
        self.inner.bulk_write(addr, bytes)
    }

    fn bulk_read(&mut self, addr: u64, len: usize) -> Vec<u8> {
        self.inner.bulk_read(addr, len)
    }

    // Each frame crosses the device once, so draining the front's admits
    // here keeps `policy.checks` within one frame of the guard calls.
    fn tx_tick(&mut self, sink: &mut dyn FrameSink) -> u64 {
        self.policy.flush_admits();
        self.inner.tx_tick(sink)
    }

    fn rx_inject(&mut self, frame: &[u8]) -> bool {
        self.policy.flush_admits();
        self.inner.rx_inject(frame)
    }

    fn device(&mut self) -> &mut E1000Device {
        self.inner.device()
    }

    fn counts(&self) -> AccessCounts {
        AccessCounts {
            inline_admits: self.policy.flush_admits(),
            ..self.inner.counts()
        }
    }

    fn arena_base(&self) -> u64 {
        self.inner.arena_base()
    }

    fn arena_len(&self) -> u64 {
        self.inner.arena_len()
    }

    fn mmio_base(&self) -> u64 {
        self.inner.mmio_base()
    }

    fn tracer(&self) -> Option<&Arc<Tracer>> {
        self.trace.as_ref().map(|t| t.shard.tracer())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kop_core::Protection;
    use kop_policy::{GuardFront, NoopPolicy, PolicyModule};

    fn direct() -> DirectMem {
        DirectMem::with_defaults(E1000Device::default())
    }

    #[test]
    fn ram_read_write() {
        let mut m = direct();
        let base = m.arena_base();
        m.write(base + 0x100, 8, 0xdead_beef_cafe_f00d).unwrap();
        assert_eq!(m.read(base + 0x100, 8).unwrap(), 0xdead_beef_cafe_f00d);
        assert_eq!(m.read(base + 0x100, 2).unwrap(), 0xf00d);
        let c = m.counts();
        assert_eq!(c.ram_writes, 1);
        assert_eq!(c.ram_reads, 2);
        assert_eq!(c.guard_calls, 0);
    }

    #[test]
    fn mmio_routes_to_device() {
        let mut m = direct();
        let bar = m.mmio_base();
        m.write(bar + crate::regs::CTRL, 4, crate::regs::ctrl::RST)
            .unwrap();
        let st = m.read(bar + crate::regs::STATUS, 4).unwrap();
        assert!(st & crate::regs::status::LU != 0);
        let c = m.counts();
        assert_eq!(c.mmio_writes, 1);
        assert_eq!(c.mmio_reads, 1);
        assert_eq!(c.ram_reads, 0);
    }

    #[test]
    fn guarded_mem_counts_and_permits() {
        let pm = PolicyModule::new();
        pm.set_default_action(kop_policy::DefaultAction::Allow);
        let mut m = GuardedMem::new(direct(), &pm);
        let base = m.arena_base();
        m.write(base, 8, 1).unwrap();
        m.read(base, 8).unwrap();
        assert_eq!(m.counts().guard_calls, 2);
        assert_eq!(pm.stats().checks, 2);
    }

    #[test]
    fn guarded_mem_blocks_forbidden() {
        let pm = PolicyModule::new(); // default deny
        let arena = kop_core::layout::DIRECT_MAP_BASE;
        pm.add_region(
            kop_core::Region::new(VAddr(arena), Size(0x1000), Protection::READ_WRITE).unwrap(),
        )
        .unwrap();
        let mut m = GuardedMem::new(direct(), &pm);
        assert!(m.write(arena + 0x10, 8, 1).is_ok());
        let v = m.write(arena + 0x2000, 8, 1).unwrap_err();
        assert_eq!(v.addr, VAddr(arena + 0x2000));
        // Denied access did not land (GuardedMem returns before touching
        // RAM).
        let mut probe = m;
        // bulk path is unguarded, read it back raw:
        assert_eq!(probe.bulk_read(arena + 0x2000, 8), vec![0u8; 8]);
    }

    #[test]
    fn bulk_paths_are_unguarded() {
        let pm = PolicyModule::new(); // default deny: guards would reject
        let mut m = GuardedMem::new(direct(), &pm);
        let base = m.arena_base();
        m.bulk_write(base + 0x500, b"payload");
        assert_eq!(m.bulk_read(base + 0x500, 7), b"payload");
        assert_eq!(m.counts().guard_calls, 0);
        assert_eq!(m.counts().bulk_bytes, 14);
        assert_eq!(pm.stats().checks, 0);
    }

    #[test]
    fn noop_policy_has_zero_policy_work() {
        let mut m = GuardedMem::new(direct(), NoopPolicy);
        let base = m.arena_base();
        for i in 0..100 {
            m.write(base + i * 8, 8, i).unwrap();
        }
        assert_eq!(m.counts().guard_calls, 100);
    }

    #[test]
    fn counts_since_delta() {
        let mut m = direct();
        let base = m.arena_base();
        m.write(base, 8, 1).unwrap();
        let snap = m.counts();
        m.write(base, 8, 2).unwrap();
        m.read(base, 8).unwrap();
        let d = m.counts().since(&snap);
        assert_eq!(d.ram_writes, 1);
        assert_eq!(d.ram_reads, 1);
    }

    #[test]
    #[should_panic(expected = "below arena")]
    fn out_of_arena_access_panics() {
        let mut m = direct();
        let _ = m.read(0x1000, 8);
    }

    #[test]
    fn traced_guards_classify_by_region() {
        let pm = PolicyModule::new();
        pm.set_default_action(kop_policy::DefaultAction::Allow);
        let tracer = Tracer::new();
        tracer.set_enabled(true);
        let mut m = GuardedMem::with_tracer(direct(), &pm, Arc::clone(&tracer));
        let base = m.arena_base();
        let bar = m.mmio_base();
        m.write(base + crate::driver::TX_RING_OFF, 8, 1).unwrap();
        m.write(base + crate::driver::STATS_OFF, 8, 1).unwrap();
        m.read(bar + crate::regs::STATUS, 4).unwrap();
        assert_eq!(tracer.total_checks(), 3);
        let labels: Vec<String> = tracer
            .profile_snapshot()
            .into_iter()
            .map(|(meta, p)| {
                assert_eq!(p.hits, 1);
                assert_eq!(meta.module, "e1000e");
                meta.label
            })
            .collect();
        assert!(labels.contains(&"tx_desc_ring".to_string()), "{labels:?}");
        assert!(labels.contains(&"stats_block".to_string()));
        assert!(labels.contains(&"mmio_doorbell".to_string()));
        // Each check is its site's first, so each is timed: GuardEnter +
        // GuardExit per check, all from the Driver producer.
        let snap = tracer.snapshot();
        assert_eq!(snap.records.len(), 6);
        assert!(snap.records.iter().all(|r| r.producer == Producer::Driver));
    }

    #[test]
    fn driver_site_map_classifies_by_arena_region() {
        let arena = kop_core::layout::DIRECT_MAP_BASE;
        let bar = kop_core::layout::MMIO_WINDOW_BASE;
        let map = driver_site_map(arena, bar);
        let expected = [
            (bar, 0),
            (bar + 0x100, 0),
            (arena + crate::driver::TX_RING_OFF, 1),
            (arena + crate::driver::RX_RING_OFF, 2),
            (arena + crate::driver::STATS_OFF, 3),
            (arena + crate::driver::TX_BUFS_OFF, 4),
            (arena + crate::driver::RX_BUFS_OFF, 5),
            (arena + crate::driver::RX_BUFS_OFF + (64 << 20), 5),
            (0x1000, 6), // below the arena
        ];
        for (addr, site) in expected {
            assert_eq!(map.classify(addr), site, "{addr:#x}");
        }
    }

    #[test]
    fn front_answers_driver_guards_inline() {
        let pm = Arc::new(PolicyModule::two_region_paper_policy());
        let mem = direct();
        let map = driver_site_map(mem.arena_base(), mem.mmio_base());
        let mut m = GuardedMem::new(mem, GuardFront::new(Arc::clone(&pm), map));
        let base = m.arena_base();
        let before = pm.stats().checks;
        for _ in 0..100 {
            m.write(base + crate::driver::TX_RING_OFF, 8, 1).unwrap();
        }
        // One general check filled the site's slot; the other 99 guards
        // were admitted from it, and the accessor accounted them all.
        let c = m.counts();
        assert_eq!(c.guard_calls, 100);
        assert_eq!(c.inline_admits, 99);
        assert_eq!(pm.stats().checks - before, 100);
        // A policy write stales every slot at once.
        pm.clear_regions();
        assert!(m.write(base + crate::driver::TX_RING_OFF, 8, 1).is_err());
        assert_eq!(m.counts().inline_admits, 99);
        assert_eq!(pm.stats().checks - before, 101);
    }

    #[test]
    fn disabled_tracer_records_nothing_from_guards() {
        let pm = PolicyModule::new();
        pm.set_default_action(kop_policy::DefaultAction::Allow);
        let tracer = Tracer::new(); // disabled by default
        let mut m = GuardedMem::with_tracer(direct(), &pm, Arc::clone(&tracer));
        let base = m.arena_base();
        m.write(base, 8, 1).unwrap();
        assert_eq!(m.counts().guard_calls, 1, "guard itself still runs");
        assert_eq!(tracer.total_checks(), 0);
        assert!(tracer.snapshot().records.is_empty());
    }
}
