use kop_compiler::{compile_module, CompileOptions};

use crate::corpus;
use crate::setup;

use super::measure::timed;
use super::{FigureData, Series};

/// ANALYSIS: precision and wall-clock of the `kop-analysis` static
/// guard-coverage verifier over the KIR corpus — the "prove, don't
/// trust" cost the static-verification loader mode pays per insmod.
pub fn analysis() -> FigureData {
    let key = setup::operator_key();
    let mut headlines = Vec::new();
    let mut notes = Vec::new();
    let mut points = Vec::new();

    let mut corpus_modules = corpus::all();
    corpus_modules.push(("synthetic-200", corpus::synthetic_large(200)));

    for (name, module) in corpus_modules {
        // The raw module must be *rejected* (that is the precision floor:
        // no unguarded access sneaks through) ...
        let raw_report = kop_analysis::verify_guard_coverage(&module);
        assert!(
            !raw_report.is_clean(),
            "{name}: unguarded module must be rejected"
        );
        // ... and both the paper build and the optimized build must be
        // *proven* (no false rejection of legitimate guard placements).
        for (cfg_name, opts) in [
            ("carat", CompileOptions::carat_kop()),
            ("opt", CompileOptions::optimized()),
        ] {
            let out = compile_module(module.clone(), &opts, &key).expect("compiles");
            let ir = out
                .signed
                .verify(std::slice::from_ref(&key))
                .expect("verifies");
            // Optimized builds carry an obligation ledger; proving them
            // means replaying it, exactly as the loader does at insmod.
            let ledger = kop_analysis::ObligationLedger::parse(&out.signed.attestation.obligations)
                .expect("attested ledger parses");
            let (report, ns) = timed(|| kop_analysis::validate_module(&ir, &ledger));
            let us = ns / 1e3;
            assert!(report.is_clean(), "{name}/{cfg_name}: must prove clean");
            let checked = report.stat("accesses_checked") as f64;
            let proven = report.stat("accesses_proven") as f64;
            headlines.push((format!("{name}_{cfg_name}_accesses"), checked));
            headlines.push((
                format!("{name}_{cfg_name}_precision"),
                if checked > 0.0 { proven / checked } else { 1.0 },
            ));
            headlines.push((format!("{name}_{cfg_name}_verify_us"), us));
            points.push((checked, us));
        }
        // The KA003 provenance lint on the raw module: the rootkit corpus
        // member launders pointers through inttoptr and must be flagged.
        let prov = kop_analysis::provenance::analyze_provenance(&module);
        if name == "credscan" {
            let laundered = prov
                .with_code(kop_analysis::LintCode::LaunderedPointer)
                .count() as f64;
            assert!(laundered > 0.0, "credscan must trip KA003");
            headlines.push(("credscan_laundered_accesses".into(), laundered));
            notes.push(
                "credscan reaches kernel memory via inttoptr: flagged KA003 before it ever runs"
                    .into(),
            );
        }
    }

    points.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));
    FigureData {
        id: "analysis",
        title: "static guard-coverage verification: precision and cost over the KIR corpus".into(),
        axes: ("memory accesses in module", "verify wall-clock (us)"),
        series: vec![Series {
            label: "verify_us".into(),
            points,
        }],
        headlines,
        notes: {
            notes.push(
                "precision 1.0 = every access proven guarded; raw (unguarded) builds are rejected"
                    .into(),
            );
            notes.push(
                "this is the per-insmod cost of Verification::Static — proving instead of trusting the signature".into(),
            );
            notes
        },
    }
}
