//! Simulated kernel memory: sparse pages with permissions.
//!
//! Loads and stores of 1/2/4/8 bytes are little-endian, as on x86-64. A
//! page is materialized (zero-filled) on first touch, like anonymous
//! kernel memory. Every byte up to the top of the address space is
//! addressable, and an access that faults (it runs past the top, or a
//! store touches a read-only page) changes nothing: no byte lands and no
//! page is materialized.
//!
//! Module text pages are mapped read-only: CARAT KOP "can fall back on
//! the Linux kernel's use of traditional hardware-based virtual memory
//! for some enforcement. For example, paging can be used to mark the
//! kernel module's code pages as unwritable, thus avoiding the problem of
//! self-modifying code" (§2).
//!
//! There are no device hooks: the NIC driver's MMIO lives in
//! `kop_e1000e::DirectMem`, and an interpreted module's doorbell is an
//! ordinary heap block.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use parking_lot::Mutex;

use kop_core::layout::{PAGE_SHIFT, PAGE_SIZE};
use kop_core::{KernelError, KernelResult, Size, VAddr};

/// Deterministic fault-injection seam for simulated-memory reads.
///
/// Installed with [`SimMemory::set_fault_hook`] and consulted on every
/// integer load while installed. Implementations must be deterministic
/// so runs that use them reproduce byte-identically.
pub trait FaultHook: Send {
    /// May corrupt the value of an integer load from simulated memory
    /// (transient bit-flip). Return `value` unchanged for no fault.
    fn corrupt_read(&mut self, addr: VAddr, size: Size, value: u64) -> u64;
}

/// Sparse simulated memory with page permissions.
///
/// The read side takes `&self` and an installed fault hook sits behind a
/// mutex, so `SimMemory` is `Send + Sync`: any number of simulated CPUs
/// may run concurrent (guarded) loads against a shared reference, while
/// stores keep requiring `&mut` (exclusive) access. Reads lock nothing
/// while no hook is installed.
#[derive(Default)]
pub struct SimMemory {
    pages: HashMap<u64, Page, BuildHasherDefault<PfnHasher>>,
    fault_hook: Option<Mutex<Box<dyn FaultHook>>>,
}

/// Hashes a page number for [`SimMemory`]'s page table in one multiply
/// (SipHash costs more than the rest of a load). The rotate folds the
/// product's well-mixed high bits into the low bits the table indexes
/// with, so page numbers that differ only in high bits still spread.
///
/// The hash is unkeyed, so a module could pick page numbers that collide.
/// Each costs it a resident 4 KiB page, and a guarded module reaches only
/// its policy's regions, whose consecutive page numbers the multiply
/// spreads evenly.
#[derive(Default)]
struct PfnHasher(u64);

impl Hasher for PfnHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .rotate_left(32);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

struct Page {
    bytes: Box<[u8; PAGE_SIZE as usize]>,
    writable: bool,
}

impl Page {
    fn zeroed() -> Page {
        Page {
            bytes: Box::new([0u8; PAGE_SIZE as usize]),
            writable: true,
        }
    }
}

/// The last byte of the `len`-byte access at `addr`: `None` for an empty
/// one, a fault (`what`) for one that runs past the top of the address
/// space.
fn last_byte(addr: VAddr, len: usize, what: &str) -> KernelResult<Option<u64>> {
    match len {
        0 => Ok(None),
        n => addr
            .raw()
            .checked_add(n as u64 - 1)
            .map(Some)
            .ok_or_else(|| KernelError::Fault {
                addr,
                what: what.into(),
            }),
    }
}

impl SimMemory {
    /// Empty memory.
    pub fn new() -> SimMemory {
        SimMemory::default()
    }

    /// Install a fault-injection hook consulted by integer reads.
    /// Replaces any previous hook.
    pub fn set_fault_hook(&mut self, hook: Box<dyn FaultHook>) {
        self.fault_hook = Some(Mutex::new(hook));
    }

    /// Remove and return the installed fault hook, if any.
    pub fn clear_fault_hook(&mut self) -> Option<Box<dyn FaultHook>> {
        self.fault_hook.take().map(Mutex::into_inner)
    }

    /// Mark the pages covering `[base, base+len)` read-only (they are
    /// materialized if missing). Used for module text.
    pub fn protect_readonly(&mut self, base: VAddr, len: u64) {
        let first = base.raw() >> PAGE_SHIFT;
        let last = (base.raw() + len.saturating_sub(1)) >> PAGE_SHIFT;
        for pfn in first..=last {
            self.pages.entry(pfn).or_insert_with(Page::zeroed).writable = false;
        }
    }

    /// Make the pages covering a range writable again (module unload).
    pub fn protect_readwrite(&mut self, base: VAddr, len: u64) {
        let first = base.raw() >> PAGE_SHIFT;
        let last = (base.raw() + len.saturating_sub(1)) >> PAGE_SHIFT;
        for pfn in first..=last {
            if let Some(page) = self.pages.get_mut(&pfn) {
                page.writable = true;
            }
        }
    }

    /// Number of materialized pages (testing/telemetry aid).
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    /// Read `buf.len()` bytes at `addr`. Takes `&self`: reads never
    /// materialize pages (untouched memory reads zero), so any number of
    /// threads may read concurrently.
    pub fn read_bytes(&self, addr: VAddr, buf: &mut [u8]) -> KernelResult<()> {
        if last_byte(addr, buf.len(), "read wraps address space")?.is_none() {
            return Ok(());
        }
        let mut at = addr.raw();
        let mut rest = buf;
        loop {
            let off = (at & (PAGE_SIZE - 1)) as usize;
            let (chunk, tail) = rest.split_at_mut(rest.len().min(PAGE_SIZE as usize - off));
            match self.pages.get(&(at >> PAGE_SHIFT)) {
                Some(page) => chunk.copy_from_slice(&page.bytes[off..off + chunk.len()]),
                None => chunk.fill(0), // untouched memory reads zero
            }
            if tail.is_empty() {
                return Ok(());
            }
            at += chunk.len() as u64;
            rest = tail;
        }
    }

    /// Write `buf` at `addr`. All or nothing: a store that faults leaves
    /// every byte and the set of resident pages as they were.
    pub fn write_bytes(&mut self, addr: VAddr, buf: &[u8]) -> KernelResult<()> {
        let Some(last) = last_byte(addr, buf.len(), "write wraps address space")? else {
            return Ok(());
        };
        let read_only = |at: u64| KernelError::Fault {
            addr: VAddr(at),
            what: "write to read-only page".into(),
        };
        let (first, end) = (addr.raw() >> PAGE_SHIFT, last >> PAGE_SHIFT);
        // A store spanning pages checks them all before any byte lands or
        // any page is materialized. A one-page store checks in its single
        // lookup below.
        if first != end {
            if let Some(pfn) =
                (first..=end).find(|pfn| self.pages.get(pfn).is_some_and(|p| !p.writable))
            {
                return Err(read_only((pfn << PAGE_SHIFT).max(addr.raw())));
            }
        }
        let mut at = addr.raw();
        let mut rest = buf;
        loop {
            let off = (at & (PAGE_SIZE - 1)) as usize;
            let (chunk, tail) = rest.split_at(rest.len().min(PAGE_SIZE as usize - off));
            let page = self
                .pages
                .entry(at >> PAGE_SHIFT)
                .or_insert_with(Page::zeroed);
            if !page.writable {
                return Err(read_only(at));
            }
            page.bytes[off..off + chunk.len()].copy_from_slice(chunk);
            if tail.is_empty() {
                return Ok(());
            }
            at += chunk.len() as u64;
            rest = tail;
        }
    }

    /// Read a little-endian unsigned integer of `size` (1/2/4/8) bytes.
    pub fn read_uint(&self, addr: VAddr, size: Size) -> KernelResult<u64> {
        let n = size.raw();
        debug_assert!(matches!(n, 1 | 2 | 4 | 8), "bad access width {n}");
        let mut buf = [0u8; 8];
        self.read_bytes(addr, &mut buf[..n as usize])?;
        let value = u64::from_le_bytes(buf);
        Ok(match &self.fault_hook {
            Some(h) => h.lock().corrupt_read(addr, size, value),
            None => value,
        })
    }

    /// Write a little-endian unsigned integer of `size` (1/2/4/8) bytes.
    pub fn write_uint(&mut self, addr: VAddr, size: Size, value: u64) -> KernelResult<()> {
        let n = size.raw();
        debug_assert!(matches!(n, 1 | 2 | 4 | 8), "bad access width {n}");
        self.write_bytes(addr, &value.to_le_bytes()[..n as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_fill_on_first_read() {
        let m = SimMemory::new();
        assert_eq!(m.read_uint(VAddr(0x5000), Size(8)).unwrap(), 0);
        assert_eq!(m.resident_pages(), 0, "reads must not materialize pages");
    }

    #[test]
    fn sim_memory_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SimMemory>();
    }

    #[test]
    fn concurrent_guarded_reads_share_one_memory() {
        use kop_core::{AccessFlags, Protection, Region};
        use kop_policy::{PolicyCheck, PolicyModule};

        let mut m = SimMemory::new();
        let base = VAddr(0xffff_8880_0000_0000);
        for i in 0..64u64 {
            m.write_uint(VAddr(base.raw() + i * 8), Size(8), i).unwrap();
        }
        let pm = PolicyModule::new();
        pm.add_region(Region::new(base, Size(64 * 8), Protection::READ_ONLY).unwrap())
            .unwrap();
        // A guarded load: the guard, then the read, both through `&self`.
        let guarded_read = |a: VAddr| -> KernelResult<u64> {
            pm.carat_guard(a, Size(8), AccessFlags::READ)?;
            m.read_uint(a, Size(8))
        };
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for i in 0..64u64 {
                        let a = VAddr(base.raw() + i * 8);
                        assert_eq!(guarded_read(a).unwrap(), i);
                    }
                    // Out-of-region reads are refused by the guard.
                    assert!(guarded_read(VAddr(base.raw() + 64 * 8)).is_err());
                });
            }
        });
        assert_eq!(pm.stats().checks, 4 * 65);
    }

    #[test]
    fn write_read_roundtrip_all_widths() {
        let mut m = SimMemory::new();
        let a = VAddr(0xffff_8880_0000_1000);
        for (size, val) in [
            (1u64, 0xabu64),
            (2, 0xbeef),
            (4, 0xdead_beef),
            (8, u64::MAX - 5),
        ] {
            m.write_uint(a, Size(size), val).unwrap();
            assert_eq!(m.read_uint(a, Size(size)).unwrap(), val);
        }
    }

    #[test]
    fn cross_page_access() {
        let mut m = SimMemory::new();
        let a = VAddr(0x1ffc); // 4 bytes in page 1, 4 bytes in page 2
        m.write_uint(a, Size(8), 0x1122_3344_5566_7788).unwrap();
        assert_eq!(m.read_uint(a, Size(8)).unwrap(), 0x1122_3344_5566_7788);
        assert_eq!(m.resident_pages(), 2);
        // Byte-granular check across the boundary (little endian).
        assert_eq!(m.read_uint(VAddr(0x1ffc), Size(1)).unwrap(), 0x88);
        assert_eq!(m.read_uint(VAddr(0x2003), Size(1)).unwrap(), 0x11);
    }

    #[test]
    fn readonly_pages_fault_on_write() {
        let mut m = SimMemory::new();
        let text = VAddr(0xffff_ffff_a000_0000);
        m.write_uint(text, Size(8), 42).unwrap();
        m.protect_readonly(text, 0x2000);
        let err = m.write_uint(text, Size(8), 43).unwrap_err();
        assert!(matches!(err, KernelError::Fault { .. }));
        // Reads still fine; data intact.
        assert_eq!(m.read_uint(text, Size(8)).unwrap(), 42);
        // Unprotect (module unloaded) and write again.
        m.protect_readwrite(text, 0x2000);
        m.write_uint(text, Size(8), 43).unwrap();
    }

    #[test]
    fn store_at_top_of_address_space_lands() {
        let mut m = SimMemory::new();
        let top = VAddr(u64::MAX - 7);
        m.write_uint(top, Size(8), 0x1122_3344_5566_7788).unwrap();
        assert_eq!(m.read_uint(top, Size(8)).unwrap(), 0x1122_3344_5566_7788);
        assert_eq!(m.read_uint(VAddr(u64::MAX), Size(1)).unwrap(), 0x11);
    }

    #[test]
    fn load_at_top_of_address_space_reads_zero() {
        let m = SimMemory::new();
        assert_eq!(m.read_uint(VAddr(u64::MAX - 7), Size(8)).unwrap(), 0);
        let mut buf = [0xffu8; 3];
        m.read_bytes(VAddr(u64::MAX - 2), &mut buf).unwrap();
        assert_eq!(buf, [0; 3]);
    }

    #[test]
    fn wrapping_store_writes_nothing() {
        let mut m = SimMemory::new();
        m.write_uint(VAddr(u64::MAX - 7), Size(4), 0).unwrap();
        let err = m
            .write_uint(VAddr(u64::MAX - 3), Size(8), u64::MAX)
            .unwrap_err();
        assert_eq!(
            err,
            KernelError::Fault {
                addr: VAddr(u64::MAX - 3),
                what: "write wraps address space".into(),
            }
        );
        assert_eq!(m.read_uint(VAddr(u64::MAX - 3), Size(2)).unwrap(), 0);
        assert_eq!(m.read_uint(VAddr(u64::MAX - 3), Size(4)).unwrap(), 0);
        assert!(m.read_uint(VAddr(u64::MAX - 3), Size(8)).is_err());
    }

    #[test]
    fn store_into_read_only_page_leaves_writable_half_untouched() {
        let mut m = SimMemory::new();
        m.write_uint(VAddr(0x1ff8), Size(8), 0x0101_0101_0101_0101)
            .unwrap();
        m.protect_readonly(VAddr(0x2000), 0x1000);
        let err = m.write_uint(VAddr(0x1ffc), Size(8), 0).unwrap_err();
        assert!(matches!(
            err,
            KernelError::Fault {
                addr: VAddr(0x2000),
                ..
            }
        ));
        assert_eq!(
            m.read_uint(VAddr(0x1ff8), Size(8)).unwrap(),
            0x0101_0101_0101_0101
        );
    }

    #[test]
    fn faulting_store_materializes_no_page() {
        let mut m = SimMemory::new();
        m.protect_readonly(VAddr(0x2000), 0x1000);
        assert_eq!(m.resident_pages(), 1);
        assert!(m.write_uint(VAddr(0x1ffc), Size(8), 7).is_err());
        assert!(m.write_bytes(VAddr(0x1800), &[7; 0x1000]).is_err());
        assert_eq!(m.resident_pages(), 1, "page 1 was materialized");
        // A one-page store into the read-only page faults too.
        assert!(m.write_uint(VAddr(0x2008), Size(4), 7).is_err());
        assert_eq!(m.resident_pages(), 1);
    }

    /// Reference model of [`SimMemory`]'s RAM: one entry per written
    /// byte, plus the resident and the read-only page numbers. A faulting
    /// access leaves it as it was.
    #[derive(Default)]
    struct Oracle {
        bytes: std::collections::BTreeMap<u64, u8>,
        resident: std::collections::BTreeSet<u64>,
        read_only: std::collections::BTreeSet<u64>,
    }

    impl Oracle {
        /// `[addr, addr+len)` byte by byte, or the faulting address if it
        /// runs past the top of the address space.
        fn span(addr: u64, len: usize) -> Result<Vec<u64>, u64> {
            if len > 0 && addr.checked_add(len as u64 - 1).is_none() {
                return Err(addr);
            }
            Ok((0..len as u64).map(|i| addr + i).collect())
        }

        fn read(&self, addr: u64, len: usize) -> Result<Vec<u8>, u64> {
            let span = Oracle::span(addr, len)?;
            Ok(span
                .iter()
                .map(|a| self.bytes.get(a).copied().unwrap_or(0))
                .collect())
        }

        fn write(&mut self, addr: u64, data: &[u8]) -> Result<(), u64> {
            let span = Oracle::span(addr, data.len())?;
            if let Some(a) = span
                .iter()
                .find(|&&a| self.read_only.contains(&(a >> PAGE_SHIFT)))
            {
                return Err(*a);
            }
            for (a, b) in span.into_iter().zip(data) {
                self.bytes.insert(a, *b);
                self.resident.insert(a >> PAGE_SHIFT);
            }
            Ok(())
        }

        fn pages(base: u64, len: u64) -> std::ops::RangeInclusive<u64> {
            (base >> PAGE_SHIFT)..=((base + len.saturating_sub(1)) >> PAGE_SHIFT)
        }
    }

    /// Addresses clustered at page boundaries, at the bottom and at the
    /// top of the address space (an anchor plus a small signed delta).
    const ANCHORS: [u64; 4] = [0x2000, 0xffff_8880_0000_2000, u64::MAX - 0xfff, 0];

    fn fault_addr<T>(r: KernelResult<T>) -> Result<T, u64> {
        r.map_err(|e| match e {
            KernelError::Fault { addr, .. } => addr.raw(),
            other => panic!("unexpected error {other:?}"),
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// Random loads, stores and protection changes near page
        /// boundaries and the top of the address space agree with a flat
        /// byte map, and a faulting access changes nothing.
        #[test]
        fn sim_memory_matches_flat_byte_map(
            ops in proptest::collection::vec(
                (0u8..6, 0usize..4, -24i64..24, proptest::arbitrary::any::<u64>(), 0u32..4, 0usize..20),
                1..48,
            ),
        ) {
            let mut m = SimMemory::new();
            let mut o = Oracle::default();
            for (kind, anchor, delta, value, width, len) in ops {
                let addr = ANCHORS[anchor].wrapping_add_signed(delta);
                let size = 1u64 << width;
                let resident = m.resident_pages();
                // The bytes a faulting store must have left alone.
                let attempted = match kind {
                    1 => size as usize,
                    3 => len,
                    _ => 0,
                };
                let failed = match kind {
                    0 => {
                        let got = fault_addr(m.read_uint(VAddr(addr), Size(size)));
                        let want = o.read(addr, size as usize).map(|b| {
                            b.iter().rev().fold(0u64, |v, &x| v << 8 | u64::from(x))
                        });
                        proptest::prop_assert_eq!(got, want, "read_uint({:#x}, {})", addr, size);
                        got.is_err()
                    }
                    1 => {
                        let got = fault_addr(m.write_uint(VAddr(addr), Size(size), value));
                        let want = o.write(addr, &value.to_le_bytes()[..size as usize]);
                        proptest::prop_assert_eq!(got, want, "write_uint({:#x}, {})", addr, size);
                        got.is_err()
                    }
                    2 => {
                        let mut buf = vec![0xa5; len];
                        let got = fault_addr(m.read_bytes(VAddr(addr), &mut buf)).map(|()| buf);
                        proptest::prop_assert_eq!(&got, &o.read(addr, len), "read_bytes({:#x}, {})", addr, len);
                        got.is_err()
                    }
                    3 => {
                        let data: Vec<u8> = (0..len).map(|i| (value >> (i % 8 * 8)) as u8).collect();
                        let got = fault_addr(m.write_bytes(VAddr(addr), &data));
                        proptest::prop_assert_eq!(got, o.write(addr, &data), "write_bytes({:#x}, {})", addr, len);
                        got.is_err()
                    }
                    kind => {
                        // Up to two pages, never running past the top.
                        let plen = (value % 0x2000).min(u64::MAX - addr).max(1);
                        if kind == 4 {
                            m.protect_readonly(VAddr(addr), plen);
                            o.resident.extend(Oracle::pages(addr, plen));
                            o.read_only.extend(Oracle::pages(addr, plen));
                        } else {
                            m.protect_readwrite(VAddr(addr), plen);
                            for pfn in Oracle::pages(addr, plen) {
                                o.read_only.remove(&pfn);
                            }
                        }
                        false
                    }
                };
                if failed {
                    proptest::prop_assert_eq!(m.resident_pages(), resident, "a faulting access materialized a page");
                    for i in 0..attempted as u64 {
                        let Some(a) = addr.checked_add(i) else { break };
                        let mut b = [0u8];
                        m.read_bytes(VAddr(a), &mut b).unwrap();
                        proptest::prop_assert_eq!(Ok(b.to_vec()), o.read(a, 1), "a faulting store wrote {:#x}", a);
                    }
                }
                proptest::prop_assert_eq!(m.resident_pages(), o.resident.len());
            }
        }
    }

    #[test]
    fn fault_hook_corrupts_reads_until_cleared() {
        struct FlipLowBit;
        impl FaultHook for FlipLowBit {
            fn corrupt_read(&mut self, _addr: VAddr, _size: Size, value: u64) -> u64 {
                value ^ 1
            }
        }
        let mut m = SimMemory::new();
        let a = VAddr(0xffff_8880_0000_2000);
        m.write_uint(a, Size(8), 42).unwrap();
        m.set_fault_hook(Box::new(FlipLowBit));
        assert_eq!(m.read_uint(a, Size(8)).unwrap(), 43);
        assert!(m.clear_fault_hook().is_some());
        assert_eq!(m.read_uint(a, Size(8)).unwrap(), 42);
    }

    #[test]
    fn bulk_bytes_roundtrip() {
        let mut m = SimMemory::new();
        let data: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        let a = VAddr(0xffff_8880_1234_0000);
        m.write_bytes(a, &data).unwrap();
        let mut back = vec![0u8; data.len()];
        m.read_bytes(a, &mut back).unwrap();
        assert_eq!(back, data);
    }
}
