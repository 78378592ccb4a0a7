//! Finding and building the program under test.
//!
//! The benchmark measures the real `glodyne` binary, built from the
//! checkout it runs in with the root manifest's own release profile.
//! A checkout that holds only the benchmark has no program to build,
//! and the run ends there with an error.

use std::io;
use std::path::{Path, PathBuf};
use std::process::Command;

/// The repository root: the working directory when it holds the
/// program's sources (how the benchmark is meant to be invoked), else
/// the parent of this package.
pub fn repo_root() -> io::Result<PathBuf> {
    let cwd = std::env::current_dir()?;
    let here = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    [cwd, here]
        .into_iter()
        .find(|root| root.join("crates/cli/Cargo.toml").is_file())
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::NotFound,
                "no crates/cli/Cargo.toml here: run from the repository root",
            )
        })
}

/// Build `glodyne` (a no-op when it is fresh) and return its path.
/// Cargo decides what is stale, so a run never measures a binary older
/// than the sources beside it.
pub fn build_server(root: &Path) -> io::Result<PathBuf> {
    let status = Command::new("cargo")
        .args(["build", "--release", "--offline", "--quiet"])
        .args(["-p", "glodyne-cli", "--bin", "glodyne"])
        .current_dir(root)
        .status()?;
    if !status.success() {
        return Err(io::Error::other(format!(
            "building the glodyne binary failed ({status})"
        )));
    }
    // Cargo resolved a relative CARGO_TARGET_DIR against `root`, where
    // it ran.
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    let bin = root.join(target).join("release").join("glodyne");
    if !bin.is_file() {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!("cargo built no {}", bin.display()),
        ));
    }
    Ok(bin)
}

/// First line of a command's standard output, or `unknown`.
fn first_line(program: &str, args: &[&str], dir: &Path) -> String {
    Command::new(program)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// What a record is stamped with: `(commit, rustc, cpu model)`.
pub fn stamps(root: &Path) -> (String, String, String) {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    (
        first_line("git", &["rev-parse", "HEAD"], root),
        first_line("rustc", &["-V"], root),
        cpu,
    )
}
