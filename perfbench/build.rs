//! Records the compiler version and, when built from a git checkout, the
//! commit, so every benchmark result names the build it came from.

use std::path::PathBuf;
use std::process::Command;

fn output(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    let text = String::from_utf8(out.stdout).ok()?;
    (out.status.success() && !text.trim().is_empty()).then(|| text.trim().to_string())
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = output(&rustc, &["--version"]).unwrap_or_else(|| "unknown".into());
    let root =
        PathBuf::from(std::env::var("CARGO_MANIFEST_DIR").expect("cargo sets it")).join("..");
    let git = root.join(".git");
    let mut commit = None;
    if git.exists() {
        let root = root.to_string_lossy();
        commit = output("git", &["-C", &root, "rev-parse", "--short=12", "HEAD"]);
        for watched in ["HEAD", "refs"] {
            println!("cargo:rerun-if-changed={}", git.join(watched).display());
        }
    }
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    println!(
        "cargo:rustc-env=PERFBENCH_COMMIT={}",
        commit.as_deref().unwrap_or("none")
    );
    println!("cargo:rerun-if-changed=build.rs");
}
