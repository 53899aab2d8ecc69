//! Records the effective compiler flags and optimization level so every
//! report can name the codegen that produced it. `CARGO_ENCODED_RUSTFLAGS`
//! holds the flags from `RUSTFLAGS` or any `.cargo/config.toml` in effect.

fn main() {
    let flags = std::env::var("CARGO_ENCODED_RUSTFLAGS").unwrap_or_default().replace('\x1f', " ");
    let opt = std::env::var("OPT_LEVEL").unwrap_or_default();
    println!("cargo:rustc-env=WMH_BENCH_RUSTFLAGS={flags}");
    println!("cargo:rustc-env=WMH_BENCH_OPT_LEVEL={opt}");
    println!("cargo:rerun-if-env-changed=CARGO_ENCODED_RUSTFLAGS");
}
