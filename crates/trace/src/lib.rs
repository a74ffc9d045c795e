//! # kop-trace — kernel-wide tracing & metrics
//!
//! The paper's headline numbers are guard *overhead* on the e1000e TX
//! path (Fig. 5/6), but without in-kernel instrumentation nothing can say
//! *which* guard site the cycles went to. This crate is the repo's
//! ftrace: an always-compiled, cheap-when-disabled observability
//! subsystem threaded through every layer.
//!
//! * [`Tracer`] — the per-kernel trace instance: a fixed-capacity,
//!   overwrite-on-full ring buffer of typed [`TraceEvent`]s with
//!   per-producer sequence numbers and drop counters, timestamped by a
//!   deterministic virtual clock (one tick per event).
//! * [`sites`] — stable guard-site IDs: a deterministic walk assigns each
//!   injected guard call a `(function, site)` identity that the
//!   attestation digests, the loader registers, and the interpreter uses
//!   to attribute every dynamic check.
//! * [`profile`] — per-site hit counts and log2-bucketed check-latency
//!   histograms, aggregated independently of the ring (so totals
//!   reconcile exactly even after wraparound).
//! * [`Counter`] / [`CounterRegistry`] — the unified named-counter story:
//!   `DriverStats` and the policy's `GuardStats` register their cells
//!   here so figures read one registry instead of three structs.
//! * [`perfetto`] — Chrome/perfetto `trace_event` JSON export.
//! * [`report`] — text consumers (`top guard sites`, raw dump).
//! * [`control`] — the tracefs-style text protocol behind the kernel's
//!   `/dev/trace` chardev (`tracing_on`, `trace`, `top`, `perfetto`, …).
//!
//! ## Disabled-path cost
//!
//! Every emission site does `tracer.enabled()` first — one relaxed atomic
//! load, no lock, no allocation. The acceptance bar (guarded TX with
//! tracing compiled in but disabled regresses < 2%) is asserted by the
//! `reproduce trace` figure (`kop_bench::figures::trace`).
//!
//! ## Enabled-path cost
//!
//! Every guard host owns a [`ProfileShard`] and tallies its checks into
//! it with relaxed loads and stores, taking no lock; readers merge the
//! live shards with the retired ones ([`profile`]). Every check costs
//! its tally, so per-site hits, denials and envelopes stay exact. A
//! general-path guard check ([`ProfileShard::traced_check`]) is timed
//! one in [`SAMPLE_EVERY`] per site and shard, and every time after the
//! site's first denial there; a timed check adds two ring events (two
//! pushes under the ring's lock) and two clock reads. A guard answered
//! by its promoted tier's grant ([`ProfileShard::admit`]) is never
//! timed. So the ring and the latency histogram see only the timed
//! checks, and a site's general-path guards pay for events and clock
//! reads once per [`SAMPLE_EVERY`] checks instead of on each.

#![warn(missing_docs)]

pub mod counter;
pub mod event;
pub mod perfetto;
pub mod profile;
pub mod report;
mod ring;
pub mod sites;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

pub use counter::{Counter, CounterRegistry};
pub use event::{GuardDecision, Producer, TraceEvent, TraceRecord};
pub use profile::{latency_bucket, ProfileShard, SiteProfile, LATENCY_BUCKETS, SAMPLE_EVERY};
pub use sites::{
    assign_guard_sites, canonical_site_text, GuardSite, SiteId, SiteKind, SiteMeta, SiteTable,
    GUARD_SYMBOL, INTRINSIC_GUARD_SYMBOL,
};

/// Default ring capacity (events) used by `Tracer::new`.
pub const DEFAULT_CAPACITY: usize = 4096;

/// A consistent view of the ring at one instant.
#[derive(Clone, PartialEq, Debug)]
pub struct TraceSnapshot {
    /// Retained records, oldest first.
    pub records: Vec<TraceRecord>,
    /// Per-producer `(producer, next sequence number)` — equals the count
    /// of events that producer has ever emitted.
    pub seqs: Vec<(Producer, u64)>,
    /// Per-producer `(producer, records overwritten)`.
    pub drops: Vec<(Producer, u64)>,
    /// Virtual clock at snapshot time (total events ever recorded).
    pub clock: u64,
}

impl TraceSnapshot {
    /// Total drops across all producers.
    pub fn total_drops(&self) -> u64 {
        self.drops.iter().map(|(_, d)| d).sum()
    }

    /// Records emitted by one producer, oldest first.
    pub fn by_producer(&self, p: Producer) -> Vec<&TraceRecord> {
        self.records.iter().filter(|r| r.producer == p).collect()
    }
}

struct SiteRegistry {
    metas: Vec<SiteMeta>,
}

/// The trace instance one simulated kernel (or one native test harness)
/// owns. Always compiled in; `Arc`-share it across layers and flip
/// [`Tracer::set_enabled`] to start paying for events.
pub struct Tracer {
    enabled: AtomicBool,
    ring: Mutex<ring::Ring>,
    sites: Mutex<SiteRegistry>,
    /// The profile lock: retired shard totals and the live shards. A
    /// shard grows and retires under it, and every reader takes it.
    profiles: Mutex<profile::Profiler>,
    counters: CounterRegistry,
}

impl Tracer {
    /// New disabled tracer with [`DEFAULT_CAPACITY`].
    pub fn new() -> Arc<Tracer> {
        Tracer::with_capacity(DEFAULT_CAPACITY)
    }

    /// New disabled tracer with an explicit ring capacity (min 1).
    pub fn with_capacity(capacity: usize) -> Arc<Tracer> {
        Arc::new(Tracer {
            enabled: AtomicBool::new(false),
            ring: Mutex::new(ring::Ring::new(capacity)),
            sites: Mutex::new(SiteRegistry { metas: Vec::new() }),
            profiles: Mutex::new(profile::Profiler::default()),
            counters: CounterRegistry::new(),
        })
    }

    /// Is tracing on? One relaxed load — this is the *entire* cost a
    /// disabled tracer adds to a guard check.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turn tracing on or off (`echo 1 > tracing_on`).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Record an event. No-op while disabled.
    #[inline]
    pub fn record(&self, producer: Producer, event: TraceEvent) {
        if !self.enabled() {
            return;
        }
        self.ring.lock().push(producer, event);
    }

    /// Consistent snapshot of the ring, sequences, and drop counters.
    pub fn snapshot(&self) -> TraceSnapshot {
        let ring = self.ring.lock();
        TraceSnapshot {
            records: ring.records(),
            seqs: Producer::ALL.iter().map(|&p| (p, ring.seq(p))).collect(),
            drops: Producer::ALL.iter().map(|&p| (p, ring.drops(p))).collect(),
            clock: ring.clock(),
        }
    }

    /// Discard retained records (drop counters, sequences, and the clock
    /// keep running).
    pub fn clear(&self) {
        self.ring.lock().clear();
    }

    /// Ring capacity in events.
    pub fn capacity(&self) -> usize {
        self.ring.lock().capacity()
    }

    /// Events ever emitted by `p` (its next sequence number).
    pub fn seq(&self, p: Producer) -> u64 {
        self.ring.lock().seq(p)
    }

    /// Events of `p` overwritten by wraparound.
    pub fn drops(&self, p: Producer) -> u64 {
        self.ring.lock().drops(p)
    }

    // --- sites ---------------------------------------------------------

    /// Register a module's IR guard sites (loader calls this at insmod)
    /// once `build` accepts the per-module lookup table they get; the
    /// loader lowers the module with it. The registry is held across
    /// `build`, so the ids it sees are the ids registered, and a `build`
    /// that fails registers nothing. Returns the table and what `build`
    /// made.
    pub fn register_module_sites<T, E>(
        &self,
        module: &str,
        sites: &[GuardSite],
        build: impl FnOnce(&SiteTable) -> Result<T, E>,
    ) -> Result<(Arc<SiteTable>, T), E> {
        let mut reg = self.sites.lock();
        let ids = (reg.metas.len()..).map(|id| SiteId(id as u32));
        let mut table = SiteTable::new();
        for (site, id) in sites.iter().zip(ids.clone()) {
            table.insert(&site.function, site.inst, id);
        }
        let built = build(&table)?;
        reg.metas
            .extend(sites.iter().zip(ids).map(|(site, id)| SiteMeta {
                id,
                module: module.to_string(),
                label: site.label(),
                kind: site.kind,
            }));
        Ok((Arc::new(table), built))
    }

    /// Register one named synthetic site (native code paths — e.g. the
    /// Rust e1000e driver's descriptor-ring stores).
    pub fn register_site(&self, module: &str, label: &str) -> SiteId {
        let mut reg = self.sites.lock();
        let id = SiteId(reg.metas.len() as u32);
        reg.metas.push(SiteMeta {
            id,
            module: module.to_string(),
            label: label.to_string(),
            kind: SiteKind::Synthetic,
        });
        id
    }

    /// Metadata for a site, if registered.
    pub fn site_meta(&self, id: SiteId) -> Option<SiteMeta> {
        self.sites.lock().metas.get(id.0 as usize).cloned()
    }

    /// Label for a site, if registered.
    pub fn site_label(&self, id: SiteId) -> Option<String> {
        self.site_meta(id).map(|m| m.label)
    }

    /// Number of registered sites.
    pub fn site_count(&self) -> usize {
        self.sites.lock().metas.len()
    }

    // --- profiles ------------------------------------------------------

    /// All sites with at least one hit, joined with their metadata.
    /// Merges the retired totals with every live [`ProfileShard`].
    pub fn profile_snapshot(&self) -> Vec<(SiteMeta, SiteProfile)> {
        let profiles = self.profiles.lock().merged();
        let reg = self.sites.lock();
        profiles
            .into_iter()
            .zip(&reg.metas)
            .filter(|(prof, _)| prof.hits > 0)
            .map(|(prof, meta)| (meta.clone(), prof))
            .collect()
    }

    /// Total guard checks aggregated across every site, retired and live
    /// shards alike — the number that must reconcile with the
    /// interpreter's/policy's own check count.
    pub fn total_checks(&self) -> u64 {
        self.profiles.lock().total_hits()
    }

    /// Profile shards registered and not yet retired: one per guard host
    /// that has tallied a check and is still alive.
    pub fn live_profile_shards(&self) -> usize {
        self.profiles.lock().live_shards()
    }

    /// The hotness query the promotion tier runs: every profiled site
    /// with at least `min_hits` checks and not a single denial, hottest
    /// first. Denied sites are excluded by design — a site that ever
    /// produced a violation must keep the full check + trace path, never
    /// an inlined fast admit.
    pub fn hot_sites(&self, min_hits: u64) -> Vec<(SiteMeta, SiteProfile)> {
        let mut hot: Vec<(SiteMeta, SiteProfile)> = self
            .profile_snapshot()
            .into_iter()
            .filter(|(_, p)| p.hits >= min_hits.max(1) && p.denied == 0)
            .collect();
        hot.sort_by(|a, b| b.1.hits.cmp(&a.1.hits).then(a.0.id.cmp(&b.0.id)));
        hot
    }

    /// Reset all per-site profiles, live shards included (site
    /// registrations are kept). A live shard's owner writes with a load
    /// and a store, so a concurrent tally can undo the reset: reset only
    /// quiesced tracers, like [`Counter::set`].
    pub fn reset_profiles(&self) {
        self.profiles.lock().reset();
    }

    // --- counters ------------------------------------------------------

    /// The unified counter registry for this tracer.
    pub fn counters(&self) -> &CounterRegistry {
        &self.counters
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.enabled())
            .field("capacity", &self.capacity())
            .field("sites", &self.site_count())
            .field("total_checks", &self.total_checks())
            .field("live_profile_shards", &self.live_profile_shards())
            .finish()
    }
}

/// The tracefs-style text control protocol (`/dev/trace` speaks this).
pub mod control {
    use super::*;

    /// Handle one request: whitespace-separated words, mirroring
    /// tracefs file UX. The whole grammar:
    ///
    /// * `tracing_on` → `"0"` / `"1"`
    /// * `tracing_on 0|1` → `"ok"` (enable/disable)
    /// * `trace` → the retained ring, one record per line
    /// * `top` / `top N` → the top-N guard-sites table (default 10; `N`
    ///   is unsigned decimal digits)
    /// * `counters` → the unified counter registry, `name=value` lines
    /// * `rx` (alias `forward`) → the receive/forwarding datapath slice
    ///   of the registry: every counter whose leaf name starts with
    ///   `rx_`, `irq_` or `poll_`, `name=value` lines
    /// * `perfetto` → chrome://tracing JSON for the retained ring
    /// * `clear` → `"ok"` (drop retained records)
    ///
    /// Anything else — an unknown command, a malformed argument, or a
    /// trailing word — returns `Err` with a usage string and changes
    /// nothing.
    pub fn handle(tracer: &Tracer, request: &str) -> Result<String, String> {
        let req = request.trim();
        let usage = || {
            format!(
                "unknown trace command {req:?}; \
                 usage: tracing_on [0|1] | trace | top [N] | counters | rx | perfetto | clear"
            )
        };
        let words: Vec<&str> = req.split_whitespace().collect();
        match words[..] {
            ["tracing_on"] => Ok(if tracer.enabled() { "1" } else { "0" }.to_string()),
            ["tracing_on", on @ ("0" | "1")] => {
                tracer.set_enabled(on == "1");
                Ok("ok".to_string())
            }
            ["trace"] => Ok(report::dump(tracer)),
            ["top"] => Ok(report::top_sites(tracer, 10)),
            ["top", n] => count(n)
                .map(|n| report::top_sites(tracer, n))
                .ok_or_else(usage),
            ["counters"] => Ok(counter_lines(tracer, |_| true)),
            ["rx" | "forward"] => Ok(counter_lines(tracer, |leaf| {
                leaf.starts_with("rx_") || leaf.starts_with("irq_") || leaf.starts_with("poll_")
            })),
            ["perfetto"] => Ok(perfetto::export_json(tracer)),
            ["clear"] => {
                tracer.clear();
                Ok("ok".to_string())
            }
            _ => Err(usage()),
        }
    }

    /// `N` of `top N`: unsigned decimal digits that fit a `usize`.
    fn count(word: &str) -> Option<usize> {
        if word.bytes().all(|b| b.is_ascii_digit()) {
            word.parse().ok()
        } else {
            None
        }
    }

    /// `name=value` lines for every registered counter whose leaf name
    /// (after the last `.`) passes `keep`.
    fn counter_lines(tracer: &Tracer, keep: impl Fn(&str) -> bool) -> String {
        let mut s = String::new();
        for (name, v) in tracer.counters().snapshot() {
            if keep(name.rsplit('.').next().unwrap_or(&name)) {
                s.push_str(&name);
                s.push('=');
                s.push_str(&v.to_string());
                s.push('\n');
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev() -> TraceEvent {
        TraceEvent::Xmit { bytes: 60 }
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::with_capacity(8);
        let site = t.register_site("m", "s");
        let mut shard = ProfileShard::new(Arc::clone(&t));
        t.record(Producer::Driver, ev());
        for _ in 0..20 {
            let checked = shard.traced_check(
                Producer::Driver,
                site,
                None,
                || 7,
                |_| GuardDecision::Denied,
            );
            assert_eq!(checked, 7, "the check still runs");
        }
        assert!(t.snapshot().records.is_empty());
        assert_eq!(t.total_checks(), 0);
        assert_eq!(t.seq(Producer::Driver), 0);
        assert_eq!(t.live_profile_shards(), 0, "no shard registered");
        // They left no sampling phase and no denial behind: once tracing
        // is on, the site's first check is timed and its second is not.
        t.set_enabled(true);
        for _ in 0..2 {
            shard.traced_check(
                Producer::Driver,
                site,
                None,
                || 7,
                |_| GuardDecision::Allowed,
            );
        }
        assert_eq!(t.seq(Producer::Driver), 2);
    }

    #[test]
    fn wraparound_overwrites_oldest_and_keeps_order() {
        let t = Tracer::with_capacity(4);
        t.set_enabled(true);
        for i in 0..10u64 {
            t.record(Producer::Bench, TraceEvent::Xmit { bytes: i });
        }
        let snap = t.snapshot();
        assert_eq!(snap.records.len(), 4);
        // The newest 4 survive, oldest first.
        let bytes: Vec<u64> = snap
            .records
            .iter()
            .map(|r| match r.event {
                TraceEvent::Xmit { bytes } => bytes,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(bytes, vec![6, 7, 8, 9]);
        // Timestamps and sequences strictly increase.
        for w in snap.records.windows(2) {
            assert!(w[0].ts < w[1].ts);
            assert!(w[0].seq < w[1].seq);
        }
        assert_eq!(t.drops(Producer::Bench), 6);
        assert_eq!(t.seq(Producer::Bench), 10);
        assert_eq!(snap.clock, 10);
    }

    #[test]
    fn drops_are_charged_to_the_overwritten_producer() {
        let t = Tracer::with_capacity(2);
        t.set_enabled(true);
        t.record(Producer::Kernel, ev());
        t.record(Producer::Driver, ev());
        // These two evict the Kernel record then the first Driver record.
        t.record(Producer::Interp, ev());
        t.record(Producer::Interp, ev());
        assert_eq!(t.drops(Producer::Kernel), 1);
        assert_eq!(t.drops(Producer::Driver), 1);
        assert_eq!(t.drops(Producer::Interp), 0);
        assert_eq!(t.snapshot().total_drops(), 2);
    }

    #[test]
    fn clear_keeps_clock_and_sequences_running() {
        let t = Tracer::with_capacity(8);
        t.set_enabled(true);
        t.record(Producer::Bench, ev());
        t.clear();
        t.record(Producer::Bench, ev());
        let snap = t.snapshot();
        assert_eq!(snap.records.len(), 1);
        assert_eq!(snap.records[0].ts, 1, "clock not reset by clear");
        assert_eq!(snap.records[0].seq, 1, "seq not reset by clear");
        assert_eq!(snap.total_drops(), 0, "clear is not a drop");
    }

    #[test]
    fn site_registration_assigns_dense_ids_and_labels() {
        let t = Tracer::new();
        let a = t.register_site("e1000e", "tx_desc_store");
        let b = t.register_site("e1000e", "tdt_doorbell");
        assert_eq!(a, SiteId(0));
        assert_eq!(b, SiteId(1));
        assert_eq!(t.site_label(b).unwrap(), "tdt_doorbell");
        assert_eq!(t.site_count(), 2);
        t.set_enabled(true);
        let mut shard = ProfileShard::new(Arc::clone(&t));
        shard.record(a, 100, false, None);
        shard.record(a, 200, true, None);
        let profiles = t.profile_snapshot();
        let (_, prof) = profiles.iter().find(|(m, _)| m.id == a).unwrap();
        assert_eq!((prof.hits, prof.denied), (2, 1));
        assert_eq!(t.total_checks(), 2);
        let top = report::top_sites(&t, 5);
        assert!(top.contains("tx_desc_store"), "{top}");
    }

    #[test]
    fn top_reads_its_total_and_rows_from_one_snapshot() {
        let t = Tracer::new();
        let none = report::top_sites(&t, 10);
        assert!(none.contains("(0 checks total)"), "{none}");
        assert!(none.contains("(no guard checks profiled)"), "{none}");
        let site = t.register_site("m", "only");
        t.set_enabled(true);
        ProfileShard::new(Arc::clone(&t)).record(site, 40, false, None);
        let top = report::top_sites(&t, 0);
        assert!(top.contains("(1 checks total)"), "{top}");
        assert!(
            !top.contains("no guard checks profiled"),
            "a profiled check truncated away is still a check:\n{top}"
        );
        let all = report::top_sites(&t, 10);
        assert!(all.contains("only") && all.contains("100.0%"), "{all}");
    }

    #[test]
    fn top_shows_how_many_checks_its_mean_is_over() {
        let t = Tracer::new();
        let site = t.register_site("m", "sampled");
        t.set_enabled(true);
        let mut shard = ProfileShard::new(Arc::clone(&t));
        for _ in 0..17 {
            shard.traced_check(
                Producer::Driver,
                site,
                None,
                || (),
                |_| GuardDecision::Allowed,
            );
        }
        shard.admit(site, 0x1000, 8);
        let top = report::top_sites(&t, 1);
        let row: Vec<&str> = top.lines().nth(2).unwrap().split_whitespace().collect();
        // SITE LABEL MODULE HITS % INLINE TIMED DENIED MEAN_NS
        assert_eq!(row[1..4], ["sampled", "m", "18"], "{top}");
        assert_eq!(row[5..8], ["1", "2", "0"], "{top}");
    }

    #[test]
    fn hot_sites_ranks_by_hits_and_excludes_denied_and_cold() {
        let t = Tracer::new();
        let hot = t.register_site("m", "hot");
        let cold = t.register_site("m", "cold");
        let bad = t.register_site("m", "violator");
        t.set_enabled(true);
        let mut shard = ProfileShard::new(Arc::clone(&t));
        for i in 0..100u64 {
            shard.record(hot, 10, false, Some((0x1000 + i * 8, 8)));
        }
        shard.record(cold, 10, false, None);
        for _ in 0..200 {
            shard.record(bad, 10, false, None);
        }
        shard.record(bad, 10, true, None); // one denial disqualifies
        let hits = t.hot_sites(50);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].0.id, hot);
        assert_eq!(hits[0].1.envelope(), Some((0x1000, 0x1000 + 100 * 8)));
        // Lower threshold admits the cold site too, hottest first.
        let all = t.hot_sites(1);
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].0.id, hot);
        assert_eq!(all[1].0.id, cold);
    }

    #[test]
    fn control_protocol_mirrors_tracefs() {
        let t = Tracer::with_capacity(8);
        assert_eq!(control::handle(&t, "tracing_on").unwrap(), "0");
        assert_eq!(control::handle(&t, "tracing_on 1").unwrap(), "ok");
        assert_eq!(control::handle(&t, "tracing_on").unwrap(), "1");
        t.record(Producer::Driver, ev());
        let dump = control::handle(&t, "trace").unwrap();
        assert!(dump.contains("xmit bytes=60"), "{dump}");
        assert!(control::handle(&t, "perfetto").unwrap().contains("\"ph\""));
        assert_eq!(control::handle(&t, "clear").unwrap(), "ok");
        assert!(control::handle(&t, "bogus").is_err());
        assert_eq!(control::handle(&t, "tracing_on 0").unwrap(), "ok");
        assert!(!t.enabled());
    }

    #[test]
    fn rx_command_filters_receive_counters() {
        let t = Tracer::new();
        t.counters().counter("e1000e.rx_packets").add(12);
        t.counters().counter("e1000e.irq_fired").add(3);
        t.counters().counter("e1000e.poll_passes").add(5);
        t.counters().counter("e1000e.tx_packets").add(99);
        t.counters().counter("policy.checks").add(1000);
        let out = control::handle(&t, "rx").unwrap();
        assert!(out.contains("e1000e.rx_packets=12"), "{out}");
        assert!(out.contains("e1000e.irq_fired=3"), "{out}");
        assert!(out.contains("e1000e.poll_passes=5"), "{out}");
        assert!(!out.contains("tx_packets"), "{out}");
        assert!(!out.contains("policy.checks"), "{out}");
        // `forward` is an alias.
        assert_eq!(control::handle(&t, "forward").unwrap(), out);
    }

    #[test]
    fn counter_registry_is_shared_and_idempotent() {
        let t = Tracer::new();
        let c1 = t.counters().counter("driver.tx_packets");
        let c2 = t.counters().counter("driver.tx_packets");
        c1.add(3);
        c2.inc();
        assert_eq!(c1.get(), 4);
        assert!(c1.same_cell(&c2));
        let external = Counter::new("policy.checks");
        assert!(t.counters().register(&external));
        let clash = Counter::new("policy.checks");
        assert!(
            !t.counters().register(&clash),
            "second cell same name loses"
        );
        external.add(7);
        assert_eq!(t.counters().get("policy.checks").unwrap().get(), 7);
        let snap = t.counters().snapshot();
        assert_eq!(
            snap,
            vec![
                ("driver.tx_packets".to_string(), 4),
                ("policy.checks".to_string(), 7)
            ]
        );
    }

    #[test]
    fn perfetto_export_is_structurally_valid() {
        let t = Tracer::with_capacity(64);
        let site = t.register_site("mod_x", "f/g0");
        t.set_enabled(true);
        t.record(
            Producer::Loader,
            TraceEvent::ModuleLoad {
                module: "mod_x".to_string(),
                guard_sites: 1,
            },
        );
        t.record(Producer::Interp, TraceEvent::GuardEnter { site });
        t.record(
            Producer::Interp,
            TraceEvent::GuardExit {
                site,
                decision: GuardDecision::Quarantined,
                ns: 120,
            },
        );
        t.record(
            Producer::Kernel,
            TraceEvent::ModuleQuarantine {
                module: "mod_x".to_string(),
                violations: 1,
            },
        );
        let snap = t.snapshot();
        let events = perfetto::export_events(&t, &snap);
        perfetto::validate_events(&events).expect("structurally valid");
        // Required fields on every non-metadata event.
        for ev in events.iter().filter(|e| e.ph != 'M') {
            assert!(!ev.name.is_empty());
            assert_eq!(ev.pid, perfetto::PERFETTO_PID);
            assert!(ev.tid >= 1);
        }
        // Guard events are a balanced B/E pair on the interp track named
        // by the site label.
        assert!(events.iter().any(|e| e.ph == 'B' && e.name == "f/g0"));
        assert!(events.iter().any(|e| e.ph == 'E' && e.name == "f/g0"));
        let json = perfetto::to_json(&events);
        perfetto::validate_json(&json).expect("json shape");
        for key in [
            "\"name\"", "\"cat\"", "\"ph\"", "\"ts\"", "\"pid\"", "\"tid\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    fn validate_events_rejects_nonmonotonic_tracks() {
        let mk = |ts, tid| perfetto::PerfettoEvent {
            name: "x".to_string(),
            cat: "c".to_string(),
            ph: 'i',
            ts,
            pid: 1,
            tid,
        };
        assert!(perfetto::validate_events(&[mk(5, 1), mk(4, 1)]).is_err());
        // Different tracks may interleave arbitrarily.
        assert!(perfetto::validate_events(&[mk(5, 1), mk(4, 2)]).is_ok());
    }
}
