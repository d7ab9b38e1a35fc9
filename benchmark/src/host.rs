//! Facts about the host and the source tree that go into the manifest.

use std::process::Command;

/// A `/proc/self/status` memory field (`VmRSS`, `VmHWM`) in MiB; `0.0`
/// where the file or field is missing.
pub fn rss_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn git(args: &[&str]) -> Option<String> {
    let out = Command::new("git").args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// `(revision, dirty)`: the checked-out commit and whether the tree has
/// changes, so a baseline cannot silently come from an edited tree.
/// Unless the working directory is a git checkout's root, both are
/// unknown (`None`): an enclosing repository is not this one.
pub fn git_state() -> (Option<String>, Option<bool>) {
    if !std::path::Path::new(".git").exists() {
        return (None, None);
    }
    let rev = git(&["rev-parse", "HEAD"]);
    let dirty = rev
        .as_ref()
        .and_then(|_| git(&["status", "--porcelain"]))
        .map(|s| !s.is_empty());
    (rev, dirty)
}
