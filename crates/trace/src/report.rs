//! Text consumers: the "top guard sites" table and the raw trace dump.

use std::fmt::Write as _;

use crate::profile::SiteProfile;
use crate::sites::SiteMeta;
use crate::Tracer;

/// Render the top-`n` guard sites by hit count as an aligned text table,
/// mirroring `perf report` / ftrace's `trace_stat` output. `INLINE` is
/// the share of `HITS` a promoted tier's grant answered; `TIMED` the
/// general-path checks the sampling rule timed
/// ([`crate::SAMPLE_EVERY`]), and `MEAN_NS` averages over those only.
/// The header's total and the rows come from one merged snapshot.
pub fn top_sites(tracer: &Tracer, n: usize) -> String {
    let mut rows: Vec<(SiteMeta, SiteProfile)> = tracer.profile_snapshot();
    let total: u64 = rows.iter().map(|(_, p)| p.hits).sum();
    let profiled = !rows.is_empty();
    rows.sort_by(|a, b| {
        b.1.hits
            .cmp(&a.1.hits)
            .then(b.1.total_ns.cmp(&a.1.total_ns))
            .then(a.0.id.cmp(&b.0.id))
    });
    rows.truncate(n);

    let mut s = String::new();
    let _ = writeln!(s, "# top guard sites ({} checks total)", total);
    let _ = writeln!(
        s,
        "{:<6} {:<28} {:<10} {:>10} {:>8} {:>10} {:>8} {:>8} {:>9}",
        "SITE", "LABEL", "MODULE", "HITS", "%", "INLINE", "TIMED", "DENIED", "MEAN_NS"
    );
    for (meta, prof) in &rows {
        let pct = if total == 0 {
            0.0
        } else {
            prof.hits as f64 * 100.0 / total as f64
        };
        let _ = writeln!(
            s,
            "{:<6} {:<28} {:<10} {:>10} {:>7.1}% {:>10} {:>8} {:>8} {:>9}",
            meta.id.0,
            truncate(&meta.label, 28),
            truncate(&meta.module, 10),
            prof.hits,
            pct,
            prof.inline,
            prof.timed(),
            prof.denied,
            prof.mean_ns()
        );
    }
    if !profiled {
        let _ = writeln!(s, "(no guard checks profiled)");
    }
    s
}

/// Render every retained ring record, one per line, oldest first —
/// the `cat trace` view of the tracefs-style chardev.
pub fn dump(tracer: &Tracer) -> String {
    let snap = tracer.snapshot();
    let mut s = String::new();
    let _ = writeln!(
        s,
        "# tracer: entries={} capacity={} clock={}",
        snap.records.len(),
        tracer.capacity(),
        snap.clock
    );
    for (p, d) in &snap.drops {
        if *d > 0 {
            let _ = writeln!(s, "# drops[{p}]={d}");
        }
    }
    for rec in &snap.records {
        let _ = writeln!(s, "{rec}");
    }
    s
}

fn truncate(s: &str, n: usize) -> String {
    if s.chars().count() <= n {
        s.to_string()
    } else {
        let head: String = s.chars().take(n.saturating_sub(1)).collect();
        format!("{head}…")
    }
}
