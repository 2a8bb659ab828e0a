//! The workspace's one source of a thread count.
//!
//! What fans work out by default — the experiment grid, the trace
//! generator's sampler workers — is bit-identical at any worker count, so
//! the count is a machine setting, not an experiment parameter: one
//! environment variable, read here and nowhere else.

/// The worker count to use: the `VCDN_WORKERS` environment variable if set
/// to a positive integer, else the machine's available parallelism, else 1.
#[expect(
    clippy::disallowed_methods,
    reason = "the workspace's one environment read and host probe; every parallel result is worker-count-invariant"
)]
pub fn worker_count() -> usize {
    if let Ok(v) = std::env::var("VCDN_WORKERS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
        eprintln!("VCDN_WORKERS={v:?} is not a positive integer; ignoring");
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}
