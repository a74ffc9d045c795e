//! Per-guard-site profiling: hit counts and log2-bucketed latency
//! histograms.
//!
//! Aggregation is independent of the ring buffer — the ring can overwrite
//! old events, but the profiler never loses a check, so per-site totals
//! reconcile exactly with the aggregate guard-check count (asserted by
//! the root `tests/trace.rs`).
//!
//! Checks arrive two ways. A *timed* check (the general guard path)
//! lands one at a time with its host latency. An *inline* admit (a
//! guard answered by its promoted tier's grant) is counted per site in
//! an [`InlineBatch`] the executor owns and folded in a batch when the
//! interpreter call returns: it adds to `hits` and the address envelope,
//! never to the latency histogram. So Σ`hits` == guards and Σ`hist` +
//! Σ`inline` == guards.

use crate::sites::SiteId;

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
}

/// One site's inline admits since the last flush.
#[derive(Clone, Copy, Debug)]
struct InlineTally {
    site: SiteId,
    hits: u64,
    lo: u64,
    hi: u64,
}

/// Inline admits not yet handed to the profiler, counted per site.
///
/// The bytecode executor owns one and calls [`InlineBatch::admit`] for
/// every guard a promoted tier's grant answers in a frame entered with
/// tracing on, then hands the batch to
/// [`crate::Tracer::record_inline`] once, where the interpreter call
/// returns (on success and on error alike): one profiler lock per call
/// instead of a lock, two ring events and two clock reads per guard.
/// `admit` is O(1) (a dense slot per raw [`SiteId`] plus a list of the
/// sites touched since the last flush) and stops allocating once every
/// site and the touched list have been seen at their largest.
#[derive(Debug, Default)]
pub struct InlineBatch {
    /// Raw site id → 1 + index into `pending`; 0 while the site has no
    /// pending admit.
    slot: Vec<u32>,
    pending: Vec<InlineTally>,
}

impl InlineBatch {
    /// Count one inline admit of `[addr, addr + size)` at `site`.
    #[inline]
    pub fn admit(&mut self, site: SiteId, addr: u64, size: u64) {
        let end = addr.saturating_add(size);
        let idx = site.0 as usize;
        if idx >= self.slot.len() {
            self.slot.resize(idx + 1, 0);
        }
        match self.slot[idx] {
            0 => {
                self.pending.push(InlineTally {
                    site,
                    hits: 1,
                    lo: addr,
                    hi: end,
                });
                self.slot[idx] = self.pending.len() as u32;
            }
            s => {
                let t = &mut self.pending[s as usize - 1];
                t.hits += 1;
                t.lo = t.lo.min(addr);
                t.hi = t.hi.max(end);
            }
        }
    }

    /// No admit is pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Drop every pending admit.
    pub(crate) fn clear(&mut self) {
        self.drain().for_each(drop);
    }

    /// Empty the batch, yielding each touched site's tally.
    fn drain(&mut self) -> impl Iterator<Item = InlineTally> + '_ {
        let slot = &mut self.slot;
        self.pending
            .drain(..)
            .inspect(move |t| slot[t.site.0 as usize] = 0)
    }
}

/// Dense per-site profile store, indexed by raw [`SiteId`].
#[derive(Debug, Default)]
pub(crate) struct Profiler {
    per_site: Vec<SiteProfile>,
}

impl Profiler {
    fn entry(&mut self, site: SiteId) -> &mut SiteProfile {
        let idx = site.0 as usize;
        if idx >= self.per_site.len() {
            self.per_site.resize(idx + 1, SiteProfile::default());
        }
        &mut self.per_site[idx]
    }

    pub(crate) fn record(&mut self, site: SiteId, ns: u64, denied: bool, span: Option<(u64, u64)>) {
        let p = self.entry(site);
        p.hits += 1;
        if denied {
            p.denied += 1;
        }
        p.total_ns += ns;
        p.hist[latency_bucket(ns)] += 1;
        if let Some((addr, size)) = span {
            p.lo_addr = p.lo_addr.min(addr);
            p.hi_addr = p.hi_addr.max(addr.saturating_add(size));
        }
    }

    /// Fold a batch of inline admits in, leaving the batch empty.
    pub(crate) fn record_inline(&mut self, batch: &mut InlineBatch) {
        for t in batch.drain() {
            let p = self.entry(t.site);
            p.hits += t.hits;
            p.inline += t.hits;
            p.lo_addr = p.lo_addr.min(t.lo);
            p.hi_addr = p.hi_addr.max(t.hi);
        }
    }

    pub(crate) fn snapshot(&self) -> Vec<(SiteId, SiteProfile)> {
        self.per_site
            .iter()
            .enumerate()
            .filter(|(_, p)| p.hits > 0)
            .map(|(i, p)| (SiteId(i as u32), p.clone()))
            .collect()
    }

    pub(crate) fn total_hits(&self) -> u64 {
        self.per_site.iter().map(|p| p.hits).sum()
    }

    pub(crate) fn reset(&mut self) {
        self.per_site.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Profiler {
        /// One site's profile (zeros if never hit).
        fn get(&self, site: SiteId) -> SiteProfile {
            self.per_site
                .get(site.0 as usize)
                .cloned()
                .unwrap_or_default()
        }
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
        let mut p = Profiler::default();
        assert_eq!(p.get(SiteId(1)).envelope(), None);
        p.record(SiteId(1), 10, false, None); // no address attached
        assert_eq!(p.get(SiteId(1)).envelope(), None);
        p.record(SiteId(1), 10, false, Some((0x1000, 8)));
        p.record(SiteId(1), 10, false, Some((0x1040, 16)));
        assert_eq!(p.get(SiteId(1)).envelope(), Some((0x1000, 0x1050)));
        assert_eq!(p.get(SiteId(1)).hits, 3);
    }

    #[test]
    fn inline_batch_counts_hits_and_envelope_but_no_latency() {
        let mut p = Profiler::default();
        p.record(SiteId(3), 100, false, Some((0x2000, 8)));
        let mut b = InlineBatch::default();
        assert!(b.is_empty());
        b.admit(SiteId(3), 0x2040, 8);
        b.admit(SiteId(3), 0x1ff0, 4);
        b.admit(SiteId(5), 0x9000, 16);
        p.record_inline(&mut b);
        assert!(b.is_empty(), "a flush empties the batch");
        let prof = p.get(SiteId(3));
        assert_eq!((prof.hits, prof.inline, prof.timed()), (3, 2, 1));
        assert_eq!(prof.hist.iter().sum::<u64>(), prof.timed());
        assert_eq!(prof.mean_ns(), 100, "inline admits are never timed");
        assert_eq!(prof.envelope(), Some((0x1ff0, 0x2048)));
        assert_eq!(p.get(SiteId(5)).envelope(), Some((0x9000, 0x9010)));
        assert_eq!(p.get(SiteId(5)).mean_ns(), 0);
        assert_eq!(p.total_hits(), 4);

        // The emptied batch starts every site afresh.
        b.admit(SiteId(5), 0x9000, 8);
        b.admit(SiteId(3), 0x2000, 8);
        p.record_inline(&mut b);
        assert_eq!(p.get(SiteId(5)).inline, 2);
        assert_eq!(p.get(SiteId(3)).inline, 3);
        b.admit(SiteId(4), 0, 8);
        b.clear();
        p.record_inline(&mut b);
        assert_eq!(p.get(SiteId(4)).hits, 0);
        assert_eq!(p.total_hits(), 6);
    }

    #[test]
    fn profile_aggregates_hits_and_latency() {
        let mut p = Profiler::default();
        p.record(SiteId(2), 100, false, None);
        p.record(SiteId(2), 300, true, None);
        let prof = p.get(SiteId(2));
        assert_eq!(prof.hits, 2);
        assert_eq!(prof.denied, 1);
        assert_eq!(prof.total_ns, 400);
        assert_eq!(prof.mean_ns(), 200);
        assert_eq!(
            prof.hist[latency_bucket(100)] + prof.hist[latency_bucket(300)],
            2
        );
        assert_eq!(p.total_hits(), 2);
        assert_eq!(p.get(SiteId(0)).hits, 0);
        assert_eq!(p.snapshot().len(), 1);
    }
}
