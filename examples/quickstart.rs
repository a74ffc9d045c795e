//! Quickstart: the full CARAT KOP pipeline in one file.
//!
//! 1. Author a tiny kernel module in KIR.
//! 2. Compile it with the CARAT KOP guard-injection pass and sign it.
//! 3. Boot the simulated kernel, configure a policy over `/dev/carat`.
//! 4. Insert the module (signature validated, `carat_guard` linked).
//! 5. Run it — permitted accesses go through, a forbidden one panics the
//!    kernel, exactly as the paper prescribes for production HPC.
//!
//! Run with: `cargo run --example quickstart`

use std::sync::Arc;

use carat_kop::compiler::{compile_module, CompileOptions, CompilerKey};
use carat_kop::core::{Protection, Region, Size, VAddr};
use carat_kop::interp::Interp;
use carat_kop::ir::parse_module;
use carat_kop::kernel::{Kernel, KernelConfig};
use carat_kop::policy::{PolicyCmd, PolicyModule, PolicyResponse};

const MODULE_SRC: &str = r#"
module "hello-kop"

global @counter : i64 = 0

define i64 @tick(ptr %scratch) {
entry:
  %old = load i64, ptr @counter
  %new = add i64 %old, 1
  store i64 %new, ptr @counter
  store i64 %new, ptr %scratch
  ret i64 %new
}
"#;

fn main() {
    // --- Compile: guard injection + attestation + signing. -------------
    let key = CompilerKey::from_passphrase("operator-key", "quickstart demo");
    let module = parse_module(MODULE_SRC).expect("module parses");
    println!(
        "input module: {} loads/stores",
        module.memory_access_count()
    );
    let out = compile_module(module, &CompileOptions::carat_kop(), &key).expect("compiles");
    println!(
        "compiled: {} guards injected, signed as {}",
        out.stats.get("guards_injected"),
        &out.signed.content_hash()[..16]
    );

    // --- Boot the kernel and configure the firewall. -------------------
    let policy = Arc::new(PolicyModule::new()); // default deny, panic on violation
    let mut kernel = Kernel::boot(policy, vec![key], KernelConfig::default());

    // Allow the kernel heap region the module will be handed (ioctl path,
    // like the paper's policy-manager tool).
    // The kmalloc arena lives 1 GiB into the direct map; cover it.
    let heap_rule = Region::new(
        VAddr(carat_kop::core::layout::DIRECT_MAP_BASE),
        Size(2 << 30),
        Protection::READ_WRITE,
    )
    .expect("rule");
    let resp = kernel
        .ioctl("/dev/carat", &PolicyCmd::AddRegion(heap_rule).encode())
        .expect("ioctl");
    assert_eq!(PolicyResponse::decode(&resp).unwrap(), PolicyResponse::Ok);

    // The module's own data section must be reachable too.
    let loaded = kernel.insmod(&out.signed).expect("insmod");
    let data_rule = Region::new(
        loaded.layout.data_base,
        Size(loaded.layout.data_size.max(1)),
        Protection::READ_WRITE,
    )
    .expect("rule");
    let name = loaded.name.clone();
    kernel
        .ioctl("/dev/carat", &PolicyCmd::AddRegion(data_rule).encode())
        .expect("ioctl");
    println!(
        "module '{name}' inserted; policy has {} rules",
        kernel.policy().region_count()
    );

    // --- Run: permitted accesses. ---------------------------------------
    let scratch = kernel.kmalloc(64).expect("kmalloc");
    {
        let mut interp = Interp::new(&mut kernel).expect("interp");
        for _ in 0..3 {
            let v = interp
                .call("hello-kop", "tick", &[scratch.raw()])
                .expect("tick")
                .expect("returns");
            println!("tick -> {v}");
        }
    }
    println!(
        "guard stats after permitted runs: {}",
        kernel.policy().stats()
    );

    // --- Run: a forbidden access (user-half pointer) panics. -----------
    let mut interp = Interp::new(&mut kernel).expect("interp");
    let err = interp
        .call("hello-kop", "tick", &[0x40_0000])
        .expect_err("user-half store must be blocked");
    println!("forbidden access stopped: {err}");
    assert!(kernel.panicked().is_some());
    println!("kernel log tail:");
    for line in kernel.dmesg().iter().rev().take(3).rev() {
        println!("  dmesg: {line}");
    }
}
