use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};

/// Quick mode: shrink trial counts for CI smoke runs (`reproduce --quick`).
/// Off by default so tests and full reproductions keep the paper-scale
/// configuration; only the `reproduce` binary flips it.
static QUICK: AtomicBool = AtomicBool::new(false);

/// Enable or disable quick mode (off unless `reproduce` gets `--quick`).
pub fn set_quick(on: bool) {
    QUICK.store(on, Ordering::Relaxed);
}

pub(super) fn quick() -> bool {
    QUICK.load(Ordering::Relaxed)
}

/// One plotted series.
#[derive(Clone, Debug)]
pub struct Series {
    /// Legend label (e.g. `"carat"`, `"baseline"`, `"carat64"`).
    pub label: String,
    /// `(x, y)` points.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Whether the points are an empirical CDF as
    /// [`kop_sim::cdf_points`] builds one: `y` strictly increasing and
    /// ending at 1.
    fn is_cdf(&self) -> bool {
        self.points.last().is_some_and(|p| p.1 == 1.0)
            && self.points.windows(2).all(|w| w[0].1 < w[1].1)
    }
}

/// A regenerated figure: series plus headline numbers.
#[derive(Clone, Debug)]
pub struct FigureData {
    /// Identifier, e.g. `"fig3"`.
    pub id: &'static str,
    /// Title matching the paper's caption.
    pub title: String,
    /// Axis labels `(x, y)`.
    pub axes: (&'static str, &'static str),
    /// The plotted series.
    pub series: Vec<Series>,
    /// Headline `name = value` results (medians, deltas, ...).
    pub headlines: Vec<(String, f64)>,
    /// Free-form notes (paper expectations, substitutions).
    pub notes: Vec<String>,
}

impl FigureData {
    /// Look up a headline value.
    pub fn headline(&self, name: &str) -> Option<f64> {
        self.headlines
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Find a series by label.
    pub fn series(&self, label: &str) -> Option<&Series> {
        self.series.iter().find(|s| s.label == label)
    }

    /// Render as a text report (what `reproduce` prints).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "==== {} — {}", self.id.to_uppercase(), self.title);
        let _ = writeln!(out, "     x: {}   y: {}", self.axes.0, self.axes.1);
        for s in &self.series {
            if s.is_cdf() {
                // Quartiles of the distribution the CDF plots.
                let xs: Vec<f64> = s.points.iter().map(|p| p.0).collect();
                let _ = writeln!(
                    out,
                    "  series {:<10} p5 {:>12.1}  p25 {:>12.1}  median {:>12.1}  p75 {:>12.1}  p95 {:>12.1}",
                    s.label,
                    kop_sim::percentile(&xs, 5.0),
                    kop_sim::percentile(&xs, 25.0),
                    kop_sim::percentile(&xs, 50.0),
                    kop_sim::percentile(&xs, 75.0),
                    kop_sim::percentile(&xs, 95.0),
                );
            } else {
                let _ = writeln!(out, "  series {:<14}", s.label);
                for (x, y) in &s.points {
                    let _ = writeln!(out, "    x={x:<8} y={y:.4}");
                }
            }
        }
        if let Some(plot) = self.ascii_plot() {
            out.push_str(&plot);
        }
        for (name, value) in &self.headlines {
            let _ = writeln!(out, "  => {name} = {value:.6}");
        }
        for note in &self.notes {
            let _ = writeln!(out, "  note: {note}");
        }
        out
    }

    /// A terminal rendering of the figure (CDF overlays and histograms),
    /// so `reproduce` output looks like the paper's plots.
    pub fn ascii_plot(&self) -> Option<String> {
        const W: usize = 64;
        const H: usize = 12;
        if self.series.is_empty() || self.series.iter().any(|s| s.points.len() < 2) {
            return None;
        }
        let glyphs = ['*', 'o', '+', 'x', '#', '@'];
        let (mut xmin, mut xmax) = (f64::INFINITY, f64::NEG_INFINITY);
        let (mut ymin, mut ymax) = (f64::INFINITY, f64::NEG_INFINITY);
        for &(x, y) in self.series.iter().flat_map(|s| &s.points) {
            (xmin, xmax) = (xmin.min(x), xmax.max(x));
            (ymin, ymax) = (ymin.min(y), ymax.max(y));
        }
        if xmax <= xmin || ymax <= ymin {
            return None;
        }
        let mut grid = vec![[' '; W]; H];
        for (si, s) in self.series.iter().enumerate() {
            let g = glyphs[si % glyphs.len()];
            for &(x, y) in &s.points {
                let cx = ((x - xmin) / (xmax - xmin) * (W - 1) as f64).round() as usize;
                let cy = ((y - ymin) / (ymax - ymin) * (H - 1) as f64).round() as usize;
                let row = H - 1 - cy.min(H - 1);
                let col = cx.min(W - 1);
                // First series wins contested cells; overlap reads as
                // "curves coincide", which is the story anyway.
                if grid[row][col] == ' ' {
                    grid[row][col] = g;
                }
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "  {ymax:>11.4} +");
        for row in &grid {
            let line: String = row.iter().collect();
            let _ = writeln!(out, "              |{line}");
        }
        let _ = writeln!(out, "  {:>11.4} +{}", ymin, "-".repeat(W));
        let _ = writeln!(
            out,
            "              {:<32}{:>32}",
            format!("{xmin:.1}"),
            format!("{xmax:.1}")
        );
        let legend: Vec<String> = self
            .series
            .iter()
            .enumerate()
            .map(|(si, s)| format!("{} {}", glyphs[si % glyphs.len()], s.label))
            .collect();
        let _ = writeln!(out, "              legend: {}", legend.join("   "));
        Some(out)
    }

    /// Render as CSV (`series,x,y` rows).
    pub fn render_csv(&self) -> String {
        let mut out = String::from("series,x,y\n");
        for s in &self.series {
            for (x, y) in &s.points {
                let _ = writeln!(out, "{},{},{}", s.label, x, y);
            }
        }
        out
    }

    /// Render as machine-readable JSON (what `reproduce` writes to
    /// `BENCH_<id>.json`). Hand-rolled — no serde in the tree — with
    /// non-finite values mapped to `null`.
    pub fn render_json(&self) -> String {
        fn esc(s: &str) -> String {
            s.chars()
                .flat_map(|c| match c {
                    '"' => "\\\"".chars().collect::<Vec<_>>(),
                    '\\' => "\\\\".chars().collect(),
                    '\n' => "\\n".chars().collect(),
                    c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
                    c => vec![c],
                })
                .collect()
        }
        fn num(v: f64) -> String {
            if v.is_finite() {
                format!("{v}")
            } else {
                "null".into()
            }
        }
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"id\": \"{}\",", esc(self.id));
        let _ = writeln!(out, "  \"title\": \"{}\",", esc(&self.title));
        let _ = writeln!(
            out,
            "  \"axes\": [\"{}\", \"{}\"],",
            esc(self.axes.0),
            esc(self.axes.1)
        );
        let series: Vec<String> = self
            .series
            .iter()
            .map(|s| {
                let pts: Vec<String> = s
                    .points
                    .iter()
                    .map(|(x, y)| format!("[{}, {}]", num(*x), num(*y)))
                    .collect();
                format!(
                    "    {{\"label\": \"{}\", \"points\": [{}]}}",
                    esc(&s.label),
                    pts.join(", ")
                )
            })
            .collect();
        let _ = writeln!(out, "  \"series\": [\n{}\n  ],", series.join(",\n"));
        let heads: Vec<String> = self
            .headlines
            .iter()
            .map(|(n, v)| format!("    \"{}\": {}", esc(n), num(*v)))
            .collect();
        let _ = writeln!(out, "  \"headlines\": {{\n{}\n  }},", heads.join(",\n"));
        let notes: Vec<String> = self
            .notes
            .iter()
            .map(|n| format!("    \"{}\"", esc(n)))
            .collect();
        let _ = writeln!(out, "  \"notes\": [\n{}\n  ]", notes.join(",\n"));
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn figure(series: Series) -> FigureData {
        FigureData {
            id: "smp",
            title: "t".into(),
            axes: ("threads", "rate"),
            series: vec![series],
            headlines: vec![],
            notes: vec![],
        }
    }

    #[test]
    fn a_non_cdf_series_renders_its_rows_not_percentiles() {
        let text = figure(Series {
            label: "rate".into(),
            points: vec![(1.0, 5.0), (2.0, 9.5), (4.0, 12.25)],
        })
        .render_text();
        assert!(!text.contains("p5"), "{text}");
        for row in [
            "x=1        y=5.0000",
            "x=2        y=9.5000",
            "x=4        y=12.2500",
        ] {
            assert!(text.contains(row), "missing {row:?} in {text}");
        }
    }

    #[test]
    fn a_cdf_series_renders_its_quartiles() {
        let cdf = Series {
            label: "cdf".into(),
            points: kop_sim::cdf_points(&[3.0, 1.0, 2.0, 2.0]),
        };
        assert!(cdf.is_cdf());
        let text = figure(cdf).render_text();
        assert!(text.contains("p5") && text.contains("median"), "{text}");
        assert!(!text.contains("x=1"), "{text}");
    }
}
