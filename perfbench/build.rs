//! Records build provenance for the result records: the rustc that built the
//! benchmark, the git revision of the tree (when it is a git checkout), and
//! the cargo profile.

use std::process::Command;

fn first_line(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok()?;
    if !out.status.success() {
        return None;
    }
    let s = String::from_utf8(out.stdout).ok()?;
    s.lines().next().map(str::trim).map(String::from)
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = first_line(Command::new(rustc).arg("--version")).unwrap_or("unknown".into());
    let rev = first_line(Command::new("git").args(["rev-parse", "HEAD"]))
        .unwrap_or("unknown (not a git checkout)".into());
    let profile = std::env::var("PROFILE").unwrap_or_else(|_| "unknown".into());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    println!("cargo:rustc-env=PERFBENCH_GIT_REV={rev}");
    println!("cargo:rustc-env=PERFBENCH_PROFILE={profile}");
    println!("cargo:rerun-if-changed=build.rs");
}
