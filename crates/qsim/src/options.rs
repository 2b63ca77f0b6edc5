//! Engine configuration for the dense simulators.

use std::fmt;
use std::thread;

/// Tuning knobs for the statevector/density kernel engine.
///
/// The defaults are safe everywhere: results are **identical for every
/// `threads` value** (each amplitude's update depends only on its own
/// basis index and the pre-update values of its gate-local partners, so
/// scheduling cannot reassociate any floating-point operation), and fused
/// diagonal application agrees with gate-by-gate application to ~1e-15
/// per amplitude (pinned to 1e-12 by the `kernel_equivalence` property
/// tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimOptions {
    /// Worker threads for amplitude streaming. `0` means auto (available
    /// parallelism). Values are clamped so small registers never pay
    /// fork-join overhead — see [`SimOptions::crossover_qubits`].
    pub threads: usize,
    /// Registers below this width always run serially: spawning a scoped
    /// thread costs tens of microseconds, which a full pass over fewer
    /// than ~2¹⁶ amplitudes cannot amortize.
    pub crossover_qubits: usize,
    /// Fuse runs of consecutive diagonal gates (RZ, U1, Z, S, T, CZ,
    /// CPHASE, RZZ) into a single amplitude pass. QAOA cost layers are
    /// entirely diagonal, so this collapses `m` per-gate passes into one
    /// parity-counting pass — the headline statevector win.
    pub fused_diagonals: bool,
}

impl SimOptions {
    /// Fully serial, fusion on — the configuration the thread-count
    /// equivalence tests compare against.
    pub fn serial() -> Self {
        SimOptions {
            threads: 1,
            ..SimOptions::default()
        }
    }

    /// Sets the worker-thread count (`0` = auto).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the serial/parallel crossover register width.
    pub fn with_crossover_qubits(mut self, qubits: usize) -> Self {
        self.crossover_qubits = qubits;
        self
    }

    /// Enables or disables diagonal-gate fusion.
    pub fn with_fused_diagonals(mut self, fused: bool) -> Self {
        self.fused_diagonals = fused;
        self
    }

    /// The thread count to use for a register of `num_qubits`, after
    /// resolving `0 = auto` and applying the serial crossover.
    pub fn effective_threads(&self, num_qubits: usize) -> usize {
        if num_qubits < self.crossover_qubits {
            return 1;
        }
        match self.threads {
            0 => default_threads(),
            t => t,
        }
    }
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            threads: 0,
            crossover_qubits: 16,
            fused_diagonals: true,
        }
    }
}

impl fmt::Display for SimOptions {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.threads {
            0 => write!(f, "threads=auto({})", default_threads())?,
            t => write!(f, "threads={t}")?,
        }
        write!(
            f,
            " crossover={}q fused_diagonals={}",
            self.crossover_qubits,
            if self.fused_diagonals { "on" } else { "off" }
        )
    }
}

/// Available parallelism, falling back to 1 when it cannot be queried
/// (same convention as `qcompile::batch::default_workers`). Cached after
/// the first query so per-gate hot paths never repeat the OS call.
pub fn default_threads() -> usize {
    static CACHED: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CACHED.get_or_init(|| thread::available_parallelism().map_or(1, |n| n.get()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crossover_forces_serial() {
        let opts = SimOptions::default().with_threads(8);
        assert_eq!(opts.effective_threads(10), 1);
        assert_eq!(opts.effective_threads(16), 8);
    }

    #[test]
    fn zero_threads_is_auto() {
        let opts = SimOptions::default().with_crossover_qubits(0);
        assert_eq!(opts.effective_threads(1), default_threads());
    }

    #[test]
    fn display_is_informative() {
        let s = SimOptions::serial().to_string();
        assert!(s.contains("threads=1"), "{s}");
        assert!(s.contains("fused_diagonals=on"), "{s}");
    }
}
