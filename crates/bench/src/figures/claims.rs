use kop_compiler::{compile_module, CompileOptions};
use kop_kernel::{Kernel, KernelConfig};
use kop_policy::PolicyModule;

use crate::corpus;
use crate::setup;

use super::measure::timed;
use super::FigureData;

/// CLAIM-T (§4.1): applying CARAT KOP to an existing module is a
/// recompilation — no source changes — and every load/store gets exactly
/// one guard.
pub fn claims() -> FigureData {
    let key = setup::operator_key();
    let mut headlines = Vec::new();
    let mut notes = Vec::new();
    for (name, module) in corpus::all() {
        let accesses = module.memory_access_count() as f64;
        let lines = module.text_lines() as f64;
        // Baseline and carat builds from the *same* input module.
        let base = compile_module(module.clone(), &CompileOptions::baseline(), &key)
            .expect("baseline build");
        let carat =
            compile_module(module, &CompileOptions::carat_kop(), &key).expect("carat build");
        headlines.push((format!("{name}_ir_lines"), lines));
        headlines.push((format!("{name}_mem_accesses"), accesses));
        headlines.push((
            format!("{name}_guards_injected"),
            carat.stats.get("guards_injected") as f64,
        ));
        assert_eq!(
            carat.stats.get("guards_injected") as f64,
            accesses,
            "one guard per access"
        );
        assert_eq!(base.stats.get("guards_injected"), 0);
        // Both validate and load under the same kernel.
        let mut kernel = Kernel::boot(
            std::sync::Arc::new(PolicyModule::new()),
            vec![key.clone()],
            KernelConfig::default(),
        );
        kernel.insmod(&carat.signed).expect("carat module loads");
        notes.push(format!(
            "{name}: same input IR for both builds (zero source changes); carat build signed {} and loaded",
            &carat.signed.content_hash()[..12]
        ));
    }
    // The scale claim, literally: a ~19 kLoC module transformed by
    // recompilation, timed.
    let big = corpus::synthetic_large(800);
    let big_lines = big.text_lines() as f64;
    let big_accesses = big.memory_access_count() as f64;
    let (big_out, ns) = timed(|| {
        compile_module(big, &CompileOptions::carat_kop(), &key).expect("large module compiles")
    });
    let compile_ms = ns / 1e6;
    assert_eq!(
        big_out.stats.get("guards_injected") as f64,
        big_accesses,
        "one guard per access at scale"
    );
    headlines.push(("synthetic_19k_ir_lines".into(), big_lines));
    headlines.push(("synthetic_19k_mem_accesses".into(), big_accesses));
    headlines.push((
        "synthetic_19k_guards_injected".into(),
        big_out.stats.get("guards_injected") as f64,
    ));
    headlines.push(("synthetic_19k_compile_ms".into(), compile_ms));
    notes.push(format!(
        "scale: a {big_lines:.0}-line synthetic module (paper's e1000e: ~19,000 lines of C) transformed, attested, and signed in {compile_ms:.0} ms"
    ));
    notes.push(
        "paper: the 19 kLoC e1000e transformed with no source changes; ours: every corpus module"
            .into(),
    );
    FigureData {
        id: "claims",
        title: "engineering-effort claims (§4.1): zero-source-change transformation".into(),
        axes: ("", ""),
        series: vec![],
        headlines,
        notes,
    }
}
