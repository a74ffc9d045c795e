//! Per-guard-site profiling: hit counts and log2-bucketed latency
//! histograms, tallied into shards the guard hosts own.
//!
//! Aggregation is independent of the ring buffer — the ring can overwrite
//! old events, but the profile never loses a check, so per-site totals
//! reconcile exactly with the aggregate guard-check count (asserted by
//! the root `tests/trace.rs`).
//!
//! Every guard host owns one [`ProfileShard`]: the interpreter one, and
//! each traced native `GuardedMem` one. A host writes its shard's
//! per-site cells itself, with relaxed loads and stores and no lock: a
//! shard has one writer, the host, through `&mut`. Checks arrive two
//! ways. A *timed* check (the general guard path,
//! [`ProfileShard::traced_check`]) lands with its host latency. An
//! *inline* admit ([`ProfileShard::admit`], a guard answered by its
//! promoted tier's grant) adds to `hits` and the address envelope,
//! never to the latency histogram. So Σ`hits` == guards and Σ`hist` +
//! Σ`inline` == guards.
//!
//! Readers merge. The tracer keeps, under one lock, the totals of every
//! retired shard and the cells of every live one; a reader sums both
//! under that lock. A shard registers on its first write, sized to the
//! sites registered at that moment, and a write to a site registered
//! later replaces it, under the same lock, with a larger one that
//! starts from its counts. Dropping the handle folds the shard into the
//! retired totals and unregisters it in one critical section, so a
//! reader counts every shard exactly once. A reader racing a live
//! writer sees, per cell, a value between the counts before and after
//! the writes in flight, and each cell only grows between two reads.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::event::{GuardDecision, Producer, TraceEvent};
use crate::sites::SiteId;
use crate::Tracer;

/// Number of log2 latency buckets. Bucket `i` covers `[2^i, 2^(i+1))`
/// nanoseconds (bucket 0 also absorbs 0 ns); 32 buckets reach ~4.3 s.
pub const LATENCY_BUCKETS: usize = 32;

/// Map a latency to its log2 bucket.
pub fn latency_bucket(ns: u64) -> usize {
    (63 - ns.max(1).leading_zeros() as usize).min(LATENCY_BUCKETS - 1)
}

/// Aggregated profile of one guard site.
#[derive(Clone, PartialEq, Debug)]
pub struct SiteProfile {
    /// Total checks observed at this site, timed and inline.
    pub hits: u64,
    /// Checks answered by a promoted tier's grant (the inline admit):
    /// counted in `hits` and folded into the envelope, never
    /// timed. `hist`, `total_ns` and [`SiteProfile::mean_ns`] describe
    /// only the [`SiteProfile::timed`] checks.
    pub inline: u64,
    /// Checks that did not come back `Allowed`.
    pub denied: u64,
    /// Sum of timed check latencies (host ns).
    pub total_ns: u64,
    /// log2 latency histogram of the timed checks; `hist[i]` counts
    /// checks in `[2^i, 2^(i+1))` ns.
    pub hist: [u64; LATENCY_BUCKETS],
    /// Lowest guarded address attributed to this site (`u64::MAX` when no
    /// check ever carried an address).
    pub lo_addr: u64,
    /// One past the highest guarded byte attributed to this site (0 when
    /// no check ever carried an address).
    pub hi_addr: u64,
}

impl Default for SiteProfile {
    fn default() -> SiteProfile {
        SiteProfile {
            hits: 0,
            inline: 0,
            denied: 0,
            total_ns: 0,
            hist: [0; LATENCY_BUCKETS],
            lo_addr: u64::MAX,
            hi_addr: 0,
        }
    }
}

impl SiteProfile {
    /// Checks that went through the timed general path (`hits -
    /// inline`); equals the histogram total.
    pub fn timed(&self) -> u64 {
        self.hits - self.inline
    }

    /// Mean latency of the timed checks in ns (0 when none was timed).
    pub fn mean_ns(&self) -> u64 {
        self.total_ns.checked_div(self.timed()).unwrap_or(0)
    }

    /// The observed address envelope `[lo, hi)` of this site's checks, if
    /// any check carried its guarded address. The promotion tier uses the
    /// envelope to find the policy region a hot site's accesses live in.
    pub fn envelope(&self) -> Option<(u64, u64)> {
        (self.hi_addr > self.lo_addr).then_some((self.lo_addr, self.hi_addr))
    }

    /// Add `other`'s checks to this profile.
    fn merge(&mut self, other: &SiteProfile) {
        self.hits += other.hits;
        self.inline += other.inline;
        self.denied += other.denied;
        self.total_ns += other.total_ns;
        for (h, o) in self.hist.iter_mut().zip(&other.hist) {
            *h += o;
        }
        self.lo_addr = self.lo_addr.min(other.lo_addr);
        self.hi_addr = self.hi_addr.max(other.hi_addr);
    }
}

/// One site's live cells in a shard: a [`SiteProfile`] its one writer
/// updates with relaxed loads and stores while readers load it.
struct SiteCells {
    hits: AtomicU64,
    inline: AtomicU64,
    denied: AtomicU64,
    total_ns: AtomicU64,
    hist: [AtomicU64; LATENCY_BUCKETS],
    lo: AtomicU64,
    hi: AtomicU64,
}

/// `cell += n` by its one writer: no locked instruction.
#[inline]
fn add(cell: &AtomicU64, n: u64) {
    cell.store(cell.load(Ordering::Relaxed) + n, Ordering::Relaxed);
}

/// Widen `[lo, hi)` to cover `[addr, end)`, by the cells' one writer.
#[inline]
fn widen(lo: &AtomicU64, hi: &AtomicU64, addr: u64, end: u64) {
    if addr < lo.load(Ordering::Relaxed) {
        lo.store(addr, Ordering::Relaxed);
    }
    if end > hi.load(Ordering::Relaxed) {
        hi.store(end, Ordering::Relaxed);
    }
}

impl SiteCells {
    fn new(p: &SiteProfile) -> SiteCells {
        SiteCells {
            hits: AtomicU64::new(p.hits),
            inline: AtomicU64::new(p.inline),
            denied: AtomicU64::new(p.denied),
            total_ns: AtomicU64::new(p.total_ns),
            hist: p.hist.map(AtomicU64::new),
            lo: AtomicU64::new(p.lo_addr),
            hi: AtomicU64::new(p.hi_addr),
        }
    }

    fn load(&self) -> SiteProfile {
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        SiteProfile {
            hits: get(&self.hits),
            inline: get(&self.inline),
            denied: get(&self.denied),
            total_ns: get(&self.total_ns),
            hist: std::array::from_fn(|i| get(&self.hist[i])),
            lo_addr: get(&self.lo),
            hi_addr: get(&self.hi),
        }
    }

    /// Zero the cells. Overwrites cells a live writer owns, so it is for
    /// quiesced shards only (like [`crate::Counter::set`]).
    fn clear(&self) {
        let counts = [&self.hits, &self.inline, &self.denied, &self.total_ns];
        for c in counts.into_iter().chain(&self.hist).chain([&self.hi]) {
            c.store(0, Ordering::Relaxed);
        }
        self.lo.store(u64::MAX, Ordering::Relaxed);
    }
}

/// The tracer's profile books, behind its one profile lock: the totals
/// of retired shards and the cells of live ones.
#[derive(Default)]
pub(crate) struct Profiler {
    /// Folded totals of every retired shard, indexed by raw [`SiteId`].
    retired: Vec<SiteProfile>,
    /// Cells of every registered, not yet retired shard.
    live: Vec<Arc<[SiteCells]>>,
}

impl Profiler {
    /// Retired totals plus every live shard, indexed by raw [`SiteId`].
    pub(crate) fn merged(&self) -> Vec<SiteProfile> {
        let mut out = self.retired.clone();
        for shard in &self.live {
            fold(&mut out, shard);
        }
        out
    }

    /// Σhits over every site, retired and live.
    pub(crate) fn total_hits(&self) -> u64 {
        let retired: u64 = self.retired.iter().map(|p| p.hits).sum();
        let live: u64 = self
            .live
            .iter()
            .flat_map(|s| s.iter())
            .map(|c| c.hits.load(Ordering::Relaxed))
            .sum();
        retired + live
    }

    /// Zero the retired totals and every live shard's cells.
    pub(crate) fn reset(&mut self) {
        self.retired.clear();
        self.live
            .iter()
            .flat_map(|s| s.iter())
            .for_each(SiteCells::clear);
    }

    /// Shards registered and not yet retired.
    pub(crate) fn live_shards(&self) -> usize {
        self.live.len()
    }

    /// Put `new` where `old` was registered, or register it.
    fn replace(&mut self, old: &Arc<[SiteCells]>, new: Arc<[SiteCells]>) {
        match self.live.iter_mut().find(|s| Arc::ptr_eq(s, old)) {
            Some(slot) => *slot = new,
            None => self.live.push(new),
        }
    }

    /// Fold `shard` into the retired totals and unregister it.
    fn retire(&mut self, shard: &Arc<[SiteCells]>) {
        if let Some(i) = self.live.iter().position(|s| Arc::ptr_eq(s, shard)) {
            self.live.swap_remove(i);
            fold(&mut self.retired, shard);
        }
    }
}

/// Add a shard's cells to per-site totals.
fn fold(into: &mut Vec<SiteProfile>, shard: &[SiteCells]) {
    if into.len() < shard.len() {
        into.resize(shard.len(), SiteProfile::default());
    }
    for (p, c) in into.iter_mut().zip(shard) {
        p.merge(&c.load());
    }
}

/// One guard host's live per-site profile in its tracer.
///
/// The host writes it with relaxed loads and stores through `&mut` and
/// never locks: [`ProfileShard::admit`] for an inline admit and
/// [`ProfileShard::traced_check`] for a timed check. Readers of the
/// tracer's profile ([`Tracer::profile_snapshot`],
/// [`Tracer::total_checks`], the `top` report) merge it in while it
/// lives; dropping the handle folds it into the tracer's retired totals.
///
/// The shard registers on its first write, so a host that never traces
/// registers nothing. It covers the sites registered at that moment
/// ([`Tracer::site_count`]); a write to a site registered later (a
/// module loaded after) replaces it under the tracer's profile lock with
/// one covering every site registered by then, carrying its counts over.
/// A site id the tracer never registered is not counted.
pub struct ProfileShard {
    tracer: Arc<Tracer>,
    /// Per-site cells, as registered in the tracer; empty until the
    /// first write.
    cells: Arc<[SiteCells]>,
}

impl ProfileShard {
    /// A shard of `tracer`'s profile, registered on its first write.
    pub fn new(tracer: Arc<Tracer>) -> ProfileShard {
        ProfileShard {
            tracer,
            cells: Arc::new([]),
        }
    }

    /// The tracer this shard reports to.
    pub fn tracer(&self) -> &Arc<Tracer> {
        &self.tracer
    }

    /// Count one inline admit of `[addr, addr + size)` at `site`: a hit,
    /// an inline admit and a wider envelope, no latency and no ring
    /// event. O(1), no lock. The caller decides whether its frame is
    /// traced, so an admit tallied after tracing was switched off is
    /// kept.
    #[inline]
    pub fn admit(&mut self, site: SiteId, addr: u64, size: u64) {
        if let Some(c) = self.cell(site) {
            add(&c.hits, 1);
            add(&c.inline, 1);
            widen(&c.lo, &c.hi, addr, addr.saturating_add(size));
        }
    }

    /// One traced guard check, as every guard host runs it while tracing
    /// is on: bracket `check` with GuardEnter/GuardExit events from
    /// `producer`, time it on the host clock, and tally its latency, the
    /// verdict `decide` reads from its outcome and, for a memory guard,
    /// its `(addr, size)` span into `site`'s cells. Returns the outcome
    /// for the host to act on. While the tracer is disabled it only runs
    /// `check`.
    #[inline]
    pub fn traced_check<R>(
        &mut self,
        producer: Producer,
        site: SiteId,
        span: Option<(u64, u64)>,
        check: impl FnOnce() -> R,
        decide: impl FnOnce(&R) -> GuardDecision,
    ) -> R {
        if !self.tracer.enabled() {
            return check();
        }
        self.tracer
            .record(producer, TraceEvent::GuardEnter { site });
        let t0 = Instant::now();
        let outcome = check();
        let ns = (t0.elapsed().as_nanos() as u64).max(1);
        let decision = decide(&outcome);
        self.tracer
            .record(producer, TraceEvent::GuardExit { site, decision, ns });
        self.record(site, ns, decision.is_denied(), span);
        outcome
    }

    /// Tally one timed check of `ns` at `site`.
    pub(crate) fn record(&mut self, site: SiteId, ns: u64, denied: bool, span: Option<(u64, u64)>) {
        if let Some(c) = self.cell(site) {
            add(&c.hits, 1);
            if denied {
                add(&c.denied, 1);
            }
            add(&c.total_ns, ns);
            add(&c.hist[latency_bucket(ns)], 1);
            if let Some((addr, size)) = span {
                widen(&c.lo, &c.hi, addr, addr.saturating_add(size));
            }
        }
    }

    /// `site`'s cells, registering or growing the shard first if it
    /// does not cover `site` yet.
    #[inline]
    fn cell(&mut self, site: SiteId) -> Option<&SiteCells> {
        let i = site.0 as usize;
        if i >= self.cells.len() && !self.grow(i) {
            return None;
        }
        Some(&self.cells[i])
    }

    /// Replace the cells with ones covering every registered site, with
    /// the counts so far, under the profile lock. False when site `i` is
    /// not registered.
    #[cold]
    #[inline(never)]
    fn grow(&mut self, i: usize) -> bool {
        let mut books = self.tracer.profiles.lock();
        let len = self.tracer.site_count();
        if i >= len {
            return false;
        }
        let counts = |s| {
            self.cells
                .get(s)
                .map_or_else(SiteProfile::default, SiteCells::load)
        };
        let cells: Arc<[SiteCells]> = (0..len).map(|s| SiteCells::new(&counts(s))).collect();
        books.replace(&self.cells, Arc::clone(&cells));
        self.cells = cells;
        true
    }
}

impl Drop for ProfileShard {
    fn drop(&mut self) {
        if !self.cells.is_empty() {
            self.tracer.profiles.lock().retire(&self.cells);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tracer with `n` registered sites, tracing on.
    fn tracer(n: u32) -> Arc<Tracer> {
        let t = Tracer::new();
        for i in 0..n {
            t.register_site("m", &format!("s{i}"));
        }
        t.set_enabled(true);
        t
    }

    /// One site's merged profile (zeros if never hit).
    fn get(t: &Tracer, site: SiteId) -> SiteProfile {
        t.profiles
            .lock()
            .merged()
            .get(site.0 as usize)
            .cloned()
            .unwrap_or_default()
    }

    #[test]
    fn buckets_are_log2() {
        assert_eq!(latency_bucket(0), 0);
        assert_eq!(latency_bucket(1), 0);
        assert_eq!(latency_bucket(2), 1);
        assert_eq!(latency_bucket(3), 1);
        assert_eq!(latency_bucket(4), 2);
        assert_eq!(latency_bucket(1023), 9);
        assert_eq!(latency_bucket(1024), 10);
        assert_eq!(latency_bucket(u64::MAX), LATENCY_BUCKETS - 1);
    }

    #[test]
    fn envelope_tracks_the_observed_address_window() {
        let t = tracer(2);
        let mut s = ProfileShard::new(Arc::clone(&t));
        assert_eq!(get(&t, SiteId(1)).envelope(), None);
        s.record(SiteId(1), 10, false, None); // no address attached
        assert_eq!(get(&t, SiteId(1)).envelope(), None);
        s.record(SiteId(1), 10, false, Some((0x1000, 8)));
        s.record(SiteId(1), 10, false, Some((0x1040, 16)));
        assert_eq!(get(&t, SiteId(1)).envelope(), Some((0x1000, 0x1050)));
        assert_eq!(get(&t, SiteId(1)).hits, 3);
    }

    #[test]
    fn inline_admits_count_hits_and_envelope_but_no_latency() {
        let t = tracer(6);
        let mut s = ProfileShard::new(Arc::clone(&t));
        s.record(SiteId(3), 100, false, Some((0x2000, 8)));
        s.admit(SiteId(3), 0x2040, 8);
        s.admit(SiteId(3), 0x1ff0, 4);
        s.admit(SiteId(5), 0x9000, 16);
        let prof = get(&t, SiteId(3));
        assert_eq!((prof.hits, prof.inline, prof.timed()), (3, 2, 1));
        assert_eq!(prof.hist.iter().sum::<u64>(), prof.timed());
        assert_eq!(prof.mean_ns(), 100, "inline admits are never timed");
        assert_eq!(prof.envelope(), Some((0x1ff0, 0x2048)));
        assert_eq!(get(&t, SiteId(5)).envelope(), Some((0x9000, 0x9010)));
        assert_eq!(get(&t, SiteId(5)).mean_ns(), 0);
        assert_eq!(t.total_checks(), 4);

        // A second host's shard adds to the same sites.
        let mut other = ProfileShard::new(Arc::clone(&t));
        other.admit(SiteId(5), 0x9000, 8);
        other.admit(SiteId(3), 0x2000, 8);
        assert_eq!(get(&t, SiteId(5)).inline, 2);
        assert_eq!(get(&t, SiteId(3)).inline, 3);
        assert_eq!(t.live_profile_shards(), 2);
        // A site the tracer never registered is not counted.
        other.admit(SiteId(6), 0, 8);
        assert_eq!(get(&t, SiteId(6)).hits, 0);
        drop(other);
        assert_eq!(t.live_profile_shards(), 1);
        assert_eq!(t.total_checks(), 6, "a retired shard keeps its counts");
    }

    #[test]
    fn profile_aggregates_hits_and_latency() {
        let t = tracer(3);
        let mut s = ProfileShard::new(Arc::clone(&t));
        s.record(SiteId(2), 100, false, None);
        s.record(SiteId(2), 300, true, None);
        let prof = get(&t, SiteId(2));
        assert_eq!(prof.hits, 2);
        assert_eq!(prof.denied, 1);
        assert_eq!(prof.total_ns, 400);
        assert_eq!(prof.mean_ns(), 200);
        assert_eq!(
            prof.hist[latency_bucket(100)] + prof.hist[latency_bucket(300)],
            2
        );
        assert_eq!(t.total_checks(), 2);
        assert_eq!(get(&t, SiteId(0)).hits, 0);
        assert_eq!(t.profile_snapshot().len(), 1);
    }

    #[test]
    fn a_grown_shard_carries_its_counts_and_registers_once() {
        let t = tracer(1);
        let mut s = ProfileShard::new(Arc::clone(&t));
        assert_eq!(t.live_profile_shards(), 0, "registered on first write");
        s.admit(SiteId(0), 0x100, 8);
        assert_eq!(t.live_profile_shards(), 1);
        let late = t.register_site("m", "late");
        s.admit(late, 0x200, 8);
        s.admit(SiteId(0), 0x80, 8);
        assert_eq!(t.live_profile_shards(), 1, "the larger shard replaced it");
        assert_eq!(get(&t, SiteId(0)).hits, 2);
        assert_eq!(get(&t, SiteId(0)).envelope(), Some((0x80, 0x108)));
        assert_eq!(get(&t, late).hits, 1);
        t.reset_profiles();
        assert_eq!(t.total_checks(), 0, "reset zeroes the live shard");
        s.admit(late, 0x200, 8);
        drop(s);
        assert_eq!(t.live_profile_shards(), 0);
        assert_eq!((t.total_checks(), get(&t, late).hits), (1, 1));
    }
}
