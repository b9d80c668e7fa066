//! Embeds the compiler's identity, so every result names the toolchain that
//! built the measured code.

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = Command::new(&rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
    println!("cargo:rustc-env=BENCHMARK_RUSTC_VERSION={version}");
    println!("cargo:rerun-if-changed=build.rs");
}
