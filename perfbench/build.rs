//! Captures the toolchain provenance of this build (rustc version and the
//! target-cpu the code generator was told to assume) so every result line
//! can name the compiler and machine flags it was measured with.

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = Command::new(&rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    // `.cargo/config.toml` rustflags reach build scripts as
    // `CARGO_ENCODED_RUSTFLAGS`, separated by 0x1f.
    let flags = std::env::var("CARGO_ENCODED_RUSTFLAGS").unwrap_or_default();
    let flags: Vec<&str> = flags.split('\x1f').collect();
    let target_cpu = flags
        .iter()
        .enumerate()
        .find_map(|(i, f)| {
            f.strip_prefix("target-cpu=")
                .or_else(|| f.strip_prefix("-Ctarget-cpu="))
                .or_else(|| {
                    (*f == "-C")
                        .then(|| flags.get(i + 1).and_then(|n| n.strip_prefix("target-cpu=")))
                        .flatten()
                })
        })
        .unwrap_or("default")
        .to_string();
    println!("cargo:rustc-env=PERFBENCH_RUSTC_VERSION={version}");
    println!("cargo:rustc-env=PERFBENCH_TARGET_CPU={target_cpu}");
    println!("cargo:rerun-if-env-changed=CARGO_ENCODED_RUSTFLAGS");
    println!("cargo:rerun-if-env-changed=RUSTC");
}
