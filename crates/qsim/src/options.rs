//! Engine configuration for the dense simulators.

use std::fmt;
use std::thread;

/// With an automatic thread count, registers below this width run
/// serially: spawning a scoped thread costs tens of microseconds, which a
/// full pass over fewer than ~2¹⁶ amplitudes cannot amortize.
const CROSSOVER_QUBITS: usize = 16;

/// The thread count of the statevector/density kernel engine.
///
/// Results are **identical for every `threads` value**: each amplitude's
/// update depends only on its own basis index and the pre-update values of
/// its gate-local partners, so scheduling cannot reassociate any
/// floating-point operation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimOptions {
    /// Worker threads for amplitude streaming. `0` (the default) means
    /// auto: serial below 16 qubits, available parallelism from 16 up.
    /// Any other count is used as given, whatever the register's width.
    pub threads: usize,
}

impl SimOptions {
    /// One thread — the configuration the thread-count equivalence tests
    /// compare against.
    pub fn serial() -> Self {
        SimOptions { threads: 1 }
    }

    /// Sets the worker-thread count (`0` = auto).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The thread count to use for a register of `num_qubits`, after
    /// resolving `0 = auto`.
    pub(crate) fn effective_threads(&self, num_qubits: usize) -> usize {
        match self.threads {
            0 if num_qubits < CROSSOVER_QUBITS => 1,
            0 => default_threads(),
            t => t,
        }
    }
}

impl fmt::Display for SimOptions {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.threads {
            0 => write!(f, "threads=auto({})", default_threads()),
            t => write!(f, "threads={t}"),
        }
    }
}

/// Available parallelism, falling back to 1 when it cannot be queried
/// (same convention as `qcompile::batch::default_workers`). Cached after
/// the first query so per-gate hot paths never repeat the OS call.
fn default_threads() -> usize {
    static CACHED: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CACHED.get_or_init(|| thread::available_parallelism().map_or(1, |n| n.get()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crossover_forces_serial() {
        let auto = SimOptions::default();
        assert_eq!(auto.effective_threads(3), 1);
        assert_eq!(auto.effective_threads(15), 1);
        assert_eq!(auto.effective_threads(16), default_threads());
    }

    #[test]
    fn zero_threads_is_auto() {
        assert_eq!(SimOptions::default().threads, 0);
        let auto = SimOptions::serial().with_threads(0);
        assert_eq!(auto.effective_threads(20), default_threads());
    }

    #[test]
    fn explicit_thread_counts_are_used_as_given() {
        let eight = SimOptions::default().with_threads(8);
        assert_eq!(eight.effective_threads(3), 8);
        assert_eq!(eight.effective_threads(16), 8);
        assert_eq!(SimOptions::serial().effective_threads(20), 1);
    }

    #[test]
    fn display_is_informative() {
        let s = SimOptions::serial().to_string();
        assert!(s.contains("threads=1"), "{s}");
        let s = SimOptions::default().to_string();
        assert!(s.contains("threads=auto("), "{s}");
    }
}
