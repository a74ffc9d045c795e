//! Stamps the compiler version into the binary so every result line
//! records what built it ("unknown" if `rustc --version` fails). A new
//! compiler rebuilds the package, and with it reruns this script.

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(&rustc)
        .arg("--version")
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=KOPBENCH_RUSTC={version}");
    println!("cargo:rerun-if-changed=build.rs");
}
