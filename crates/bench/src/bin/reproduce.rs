//! `reproduce` — regenerate the paper's figures.
//!
//! ```text
//! reproduce [FIGURE|all]   # one figure by name, or every figure (default)
//!           [--csv]        # raw series to stdout instead of the report
//!           [--out DIR]    # additionally write one CSV per figure into DIR
//!           [--quick]      # tiny trial counts (CI smoke); not paper-scale
//! ```
//!
//! The figure names are those of [`kop_bench::figures::FIGURES`]; an
//! unknown name prints them and exits 2. Every figure is also written as
//! machine-readable `BENCH_<id>.json` (into `--out DIR` when given, else
//! the current directory).

use kop_bench::figures;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let csv = args.iter().any(|a| a == "--csv");
    if args.iter().any(|a| a == "--quick") {
        figures::set_quick(true);
    }
    let out_dir = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned();
    // The figure name: the first argument that is neither a flag nor
    // the value of `--out`.
    let what = (0..args.len())
        .find(|&i| !args[i].starts_with("--") && (i == 0 || args[i - 1] != "--out"))
        .map_or("all", |i| args[i].as_str());

    let figs = match figures::FIGURES.iter().find(|(name, _)| *name == what) {
        Some((_, generate)) => generate(),
        None if what == "all" => figures::all_figures(),
        None => {
            let names: Vec<&str> = figures::FIGURES.iter().map(|(name, _)| *name).collect();
            eprintln!("unknown experiment '{what}'");
            eprintln!(
                "usage: reproduce [{}|all] [--csv] [--out DIR] [--quick]",
                names.join("|")
            );
            std::process::exit(2);
        }
    };

    let dir = std::path::Path::new(out_dir.as_deref().unwrap_or("."));
    if out_dir.is_some() {
        std::fs::create_dir_all(dir).expect("create --out directory");
    }
    for fig in figs {
        if csv {
            print!("{}", fig.render_csv());
        } else {
            println!("{}", fig.render_text());
        }
        if out_dir.is_some() {
            let path = dir.join(format!("{}.csv", fig.id));
            std::fs::write(&path, fig.render_csv()).expect("write figure CSV");
            eprintln!("wrote {}", path.display());
        }
        // Machine-readable results for CI consumers and dashboards.
        let path = dir.join(format!("BENCH_{}.json", fig.id));
        std::fs::write(&path, fig.render_json()).expect("write BENCH json");
        eprintln!("wrote {}", path.display());
    }
}
