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
//! ways. A general-path check ([`ProfileShard::traced_check`]) is
//! *timed* — bracketed by a GuardEnter/GuardExit pair in the ring and
//! its host latency put in the histogram — when it is the 1st, 17th,
//! 33rd… general-path check of its site in the shard (one in
//! [`SAMPLE_EVERY`]; the phase is the shard's own per-site count, so the
//! choice is deterministic), or when the site has denied before in the
//! shard. An *inline* admit ([`ProfileShard::admit`], a guard answered by
//! its promoted tier's grant) is never timed. Every check, timed or not,
//! adds to `hits`, `denied` and the address envelope. So Σ`hits` ==
//! guards exactly, and Σ`hist` + Σuntimed == guards, where the untimed
//! checks are the inline admits plus the general-path checks the rule
//! left untimed; the ring holds one event pair per timed check.
//!
//! Readers merge. The tracer keeps, under one lock, the totals of every
//! retired shard and the cells of every live one; a reader sums both
//! under that lock. A shard registers on its first write, sized to the
//! sites registered at that moment, and a write to a site registered
//! later replaces it, under the same lock, with a larger one that
//! starts from its counts (and so keeps each site's phase). Dropping the
//! handle folds the shard into the retired totals and unregisters it in
//! one critical section, so a reader counts every shard exactly once. A
//! reader racing a live writer sees, per cell, a value between the
//! counts before and after the writes in flight, and each cell only
//! grows between two reads.

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

/// One general-path check in this many per site and shard is timed and
/// put in the ring (the 1st, 17th, 33rd…); after the site's first denial
/// in the shard, every one is.
pub const SAMPLE_EVERY: u64 = 16;

/// Aggregated profile of one guard site.
#[derive(Clone, PartialEq, Debug)]
pub struct SiteProfile {
    /// Total checks observed at this site, timed or not.
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
    /// Checks that were timed: the histogram total. The rest of `hits`
    /// are inline admits and general-path checks left untimed by
    /// sampling. A view read while the host writes may be a check apart
    /// between `hits`, `inline` and `hist`, so nothing is derived by
    /// subtraction.
    pub fn timed(&self) -> u64 {
        self.hist.iter().sum()
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

    /// Whether the next general-path check here is timed: the first of
    /// every [`SAMPLE_EVERY`] (`hits - inline` counts the general-path
    /// checks so far), or any after a denial. Read by the cells' one
    /// writer; wrapping only if a reset races it.
    #[inline]
    fn times_next(&self) -> bool {
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let general = get(&self.hits).wrapping_sub(get(&self.inline));
        general % SAMPLE_EVERY == 0 || get(&self.denied) > 0
    }

    /// Tally one general-path check, with its latency `ns` if timed, by
    /// the cells' one writer.
    #[inline]
    fn tally(&self, ns: Option<u64>, denied: bool, span: Option<(u64, u64)>) {
        add(&self.hits, 1);
        if denied {
            add(&self.denied, 1);
        }
        if let Some(ns) = ns {
            add(&self.total_ns, ns);
            add(&self.hist[latency_bucket(ns)], 1);
        }
        if let Some((addr, size)) = span {
            widen(&self.lo, &self.hi, addr, addr.saturating_add(size));
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
/// [`ProfileShard::traced_check`] for a general-path check, which it
/// times one in [`SAMPLE_EVERY`] per site, and every one after the
/// site's first denial. Readers of the
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

    /// One traced general-path guard check, as every guard host runs it
    /// while tracing is on. It tallies into `site`'s cells a hit, the
    /// verdict `decide` reads from the outcome and, for a memory guard,
    /// its `(addr, size)` span. When the check is one the sampling rule
    /// times (the first of every [`SAMPLE_EVERY`] general-path checks of
    /// the site in this shard, or any after the site's first denial
    /// here), it is also bracketed with GuardEnter/GuardExit events from
    /// `producer`, timed on the host clock, and its latency goes in the
    /// histogram; any other check reads no clock and emits no event.
    /// Returns the outcome for the host to act on. While the tracer is
    /// disabled, or for a site it never registered, it only runs
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
        if !self.tracer.enabled() || !self.covers(site) {
            return check();
        }
        let c = &self.cells[site.0 as usize];
        if !c.times_next() {
            let outcome = check();
            c.tally(None, decide(&outcome).is_denied(), span);
            return outcome;
        }
        self.tracer
            .record(producer, TraceEvent::GuardEnter { site });
        let t0 = Instant::now();
        let outcome = check();
        let ns = (t0.elapsed().as_nanos() as u64).max(1);
        let decision = decide(&outcome);
        self.tracer
            .record(producer, TraceEvent::GuardExit { site, decision, ns });
        c.tally(Some(ns), decision.is_denied(), span);
        outcome
    }

    /// Tally one timed check of `ns` at `site`, outside the sampling rule.
    #[cfg(test)]
    pub(crate) fn record(&mut self, site: SiteId, ns: u64, denied: bool, span: Option<(u64, u64)>) {
        if let Some(c) = self.cell(site) {
            c.tally(Some(ns), denied, span);
        }
    }

    /// Whether the shard covers `site`, registering or growing it first
    /// if it does not yet; false for a site the tracer never registered.
    #[inline]
    fn covers(&mut self, site: SiteId) -> bool {
        let i = site.0 as usize;
        i < self.cells.len() || self.grow(i)
    }

    /// `site`'s cells, registering or growing the shard first if it
    /// does not cover `site` yet.
    #[inline]
    fn cell(&mut self, site: SiteId) -> Option<&SiteCells> {
        self.covers(site).then(|| &self.cells[site.0 as usize])
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

    /// Run `n` general-path checks at `site` through `s`, denied when
    /// `deny`, each spanning `[0x1000, 0x1008)`.
    fn checks(s: &mut ProfileShard, site: SiteId, n: u64, deny: bool) {
        for _ in 0..n {
            let verdict = if deny {
                GuardDecision::Denied
            } else {
                GuardDecision::Allowed
            };
            s.traced_check(
                Producer::Driver,
                site,
                Some((0x1000, 8)),
                || (),
                |_| verdict,
            );
        }
    }

    /// `(GuardEnter, GuardExit)` events in the ring.
    fn event_pairs(t: &Tracer) -> (u64, u64) {
        let snap = t.snapshot();
        let count =
            |f: fn(&TraceEvent) -> bool| snap.records.iter().filter(|r| f(&r.event)).count() as u64;
        (
            count(|e| matches!(e, TraceEvent::GuardEnter { .. })),
            count(|e| matches!(e, TraceEvent::GuardExit { .. })),
        )
    }

    #[test]
    fn one_general_check_in_sample_every_is_timed_the_first_included() {
        for g in [1, 2, 15, 16, 17, 32, 33, 100] {
            let t = tracer(1);
            let mut s = ProfileShard::new(Arc::clone(&t));
            checks(&mut s, SiteId(0), 1, false);
            assert_eq!(get(&t, SiteId(0)).timed(), 1, "the first check is timed");
            checks(&mut s, SiteId(0), g - 1, false);
            let p = get(&t, SiteId(0));
            assert_eq!(
                (p.hits, p.timed()),
                (g, g.div_ceil(SAMPLE_EVERY)),
                "g = {g}"
            );
            assert_eq!(event_pairs(&t), (p.timed(), p.timed()), "g = {g}");
            assert_eq!(p.envelope(), Some((0x1000, 0x1008)), "every check widens");
        }
    }

    #[test]
    fn the_phase_is_per_site_and_shard_kept_by_grow_and_restarted_by_reset() {
        let t = tracer(2);
        let mut a = ProfileShard::new(Arc::clone(&t));
        checks(&mut a, SiteId(0), 10, false);
        // Another site's first check, and another shard's, are timed.
        checks(&mut a, SiteId(1), 1, false);
        assert_eq!(get(&t, SiteId(1)).timed(), 1, "a phase per site");
        let mut b = ProfileShard::new(Arc::clone(&t));
        checks(&mut b, SiteId(0), 1, false);
        assert_eq!(get(&t, SiteId(0)).timed(), 2, "a phase per shard");
        drop(b);

        // A write to a late site grows `a`; site 0 keeps its phase, so
        // its 17th check is the next one timed.
        let late = t.register_site("m", "late");
        checks(&mut a, late, 1, false);
        checks(&mut a, SiteId(0), 6, false);
        assert_eq!(get(&t, SiteId(0)).timed(), 2, "checks 11-16 untimed");
        checks(&mut a, SiteId(0), 1, false);
        assert_eq!(get(&t, SiteId(0)).timed(), 3, "check 17 timed");

        // Inline admits do not move the phase.
        for _ in 0..20 {
            a.admit(SiteId(0), 0x1000, 8);
        }
        checks(&mut a, SiteId(0), 16, false);
        assert_eq!(
            get(&t, SiteId(0)).timed(),
            4,
            "checks 18-32 untimed, 33 timed"
        );

        // A reset restarts every phase: the next check is timed.
        t.reset_profiles();
        checks(&mut a, SiteId(0), 1, false);
        assert_eq!(get(&t, SiteId(0)).timed(), 1);
    }

    #[test]
    fn every_check_after_a_sites_first_denial_is_timed() {
        let t = tracer(2);
        let mut s = ProfileShard::new(Arc::clone(&t));
        checks(&mut s, SiteId(0), 3, false);
        checks(&mut s, SiteId(0), 1, true); // the 4th check: untimed
        assert_eq!(get(&t, SiteId(0)).timed(), 1);
        checks(&mut s, SiteId(0), 5, false);
        checks(&mut s, SiteId(0), 2, true);
        checks(&mut s, SiteId(1), 5, false);
        let p = get(&t, SiteId(0));
        assert_eq!((p.hits, p.denied, p.timed()), (11, 3, 8));
        assert_eq!(get(&t, SiteId(1)).timed(), 1, "another site keeps sampling");
        assert_eq!(event_pairs(&t), (9, 9));
        assert!(t.hot_sites(1).iter().all(|(m, _)| m.id != SiteId(0)));
    }

    #[test]
    fn an_untimed_check_emits_no_event_and_counts_nothing_inline() {
        let t = tracer(1);
        let mut s = ProfileShard::new(Arc::clone(&t));
        checks(&mut s, SiteId(0), 2, false);
        let p = get(&t, SiteId(0));
        assert_eq!((p.hits, p.inline, p.timed()), (2, 0, 1));
        assert_eq!(event_pairs(&t), (1, 1));
        assert_eq!(t.seq(Producer::Driver), 2);
    }

    #[test]
    fn a_view_read_between_a_writers_stores_does_not_underflow() {
        // What a reader can load from an all-inline site between `admit`'s
        // store of `hits` and its store of `inline`.
        let view = SiteProfile {
            hits: 5,
            inline: 6,
            ..SiteProfile::default()
        };
        assert_eq!((view.timed(), view.mean_ns()), (0, 0));
        let mut timed = view.clone();
        timed.hist[latency_bucket(40)] = 2;
        timed.total_ns = 80;
        assert_eq!((timed.timed(), timed.mean_ns()), (2, 40));
    }
}
