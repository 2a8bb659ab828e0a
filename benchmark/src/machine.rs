//! What the machine and the build looked like: the context without
//! which a timing cannot be compared with another.

use std::process::Command;

use vcdn_types::json::Json;

/// Cores this process may run on (cgroup- and affinity-aware).
pub fn online_cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Peak resident set of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "/proc/self/status has no VmHWM line".to_string())
}

/// First line of a command's standard output (empty if it printed
/// nothing), if it ran and succeeded.
fn first_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    Some(stdout.lines().next().unwrap_or("").trim().to_string())
}

/// The context every result carries: cores and build profile. Both are
/// known without leaving the process.
pub fn context() -> Vec<(String, Json)> {
    vec![
        ("cores".to_string(), Json::Int(online_cores() as i128)),
        (
            "profile".to_string(),
            Json::Str(
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }
                .to_string(),
            ),
        ),
        (
            "rustflags".to_string(),
            Json::Str(option_env!("RUSTFLAGS").unwrap_or("").to_string()),
        ),
    ]
}

/// The extra context of a recorded run: compiler and commit, asked of
/// `rustc` and `git` (each `"unknown"` where the tool or the repository
/// is missing). A commit with uncommitted changes on top reads
/// `<hash>-dirty`.
pub fn recorded_context() -> Vec<(String, Json)> {
    let unknown = || "unknown".to_string();
    let git =
        |args: &[&str]| first_line("git", &[&["-C", env!("CARGO_MANIFEST_DIR")], args].concat());
    let commit = git(&["rev-parse", "HEAD"]).map_or_else(unknown, |hash| {
        let dirty = git(&["status", "--porcelain"]).is_some_and(|line| !line.is_empty());
        if dirty {
            format!("{hash}-dirty")
        } else {
            hash
        }
    });
    vec![
        (
            "rustc".to_string(),
            Json::Str(first_line("rustc", &["--version"]).unwrap_or_else(unknown)),
        ),
        ("commit".to_string(), Json::Str(commit)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_rss_is_positive_on_linux() {
        assert!(peak_rss_mib().unwrap() > 0.0);
        assert!(online_cores() >= 1);
    }
}
