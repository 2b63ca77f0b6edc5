//! Deadline bookkeeping, the negative-cache backoff state machine, and
//! the poison-pill quarantine ledger.
//!
//! All three run on the service's **logical clock** — a `u64` tick count
//! advanced once per admission plus explicit [`crate::Service::advance`]
//! steps — never wall time. That keeps every expiry, every backoff
//! window and every quarantine transition a pure function of the
//! request stream, which is what lets the chaos campaign gate these
//! mechanisms byte-exactly in CI.

use qcompile::CancelToken;

/// Seeded, jittered exponential-backoff policy for negative cache
/// entries (the TTL a failed key serves its error for before the
/// service retries the compile).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackoffConfig {
    /// TTL of a key's first failure, in logical ticks (min 1).
    pub base_ticks: u64,
    /// Ceiling the doubling saturates at.
    pub max_ticks: u64,
    /// Seed for the deterministic jitter (≤ 25% of the TTL) that keeps
    /// a thundering herd of expired keys from retrying in lockstep.
    pub seed: u64,
}

impl Default for BackoffConfig {
    fn default() -> Self {
        BackoffConfig {
            base_ticks: 16,
            max_ticks: 4096,
            seed: 0x9e37_79b9_7f4a_7c15,
        }
    }
}

impl BackoffConfig {
    /// The TTL for a key on its `strikes`-th consecutive failure
    /// (1-based): `base << (strikes-1)` capped at `max_ticks`, plus a
    /// seeded jitter in `[0, ttl/4]` keyed by `(seed, key, strikes)`.
    pub fn ttl(&self, key_fp: u64, strikes: u32) -> u64 {
        let base = self.base_ticks.max(1);
        let shift = u64::from(strikes.saturating_sub(1)).min(52);
        let ttl = base
            .checked_shl(shift as u32)
            .unwrap_or(u64::MAX)
            .min(self.max_ticks.max(base));
        let jitter_span = ttl / 4 + 1;
        ttl + splitmix64(self.seed ^ key_fp ^ u64::from(strikes)) % jitter_span
    }
}

/// SplitMix64 — a tiny seeded mixer; good enough for jitter and cheap
/// enough for the admission path.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Why a spec fingerprint was quarantined. The variant names the
/// category of the strike that crossed the threshold; `strikes` is the
/// **combined** panic + timeout count, because that combined count is
/// what trips quarantine — reporting only one category would
/// under-count a mixed history in telemetry and error messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuarantineReason {
    /// The final strike was a worker panic.
    Panicked {
        /// Total strikes (panics + timeouts) at quarantine.
        strikes: u32,
    },
    /// The final strike was a blown deadline (cancelled in flight).
    TimedOut {
        /// Total strikes (panics + timeouts) at quarantine.
        strikes: u32,
    },
}

impl QuarantineReason {
    /// A short stable label for telemetry and error messages.
    pub fn label(&self) -> &'static str {
        match self {
            QuarantineReason::Panicked { .. } => "panicked",
            QuarantineReason::TimedOut { .. } => "timed-out",
        }
    }
}

/// The poison-pill ledger: spec fingerprints whose compiles panic or
/// time out repeatedly are quarantined so coalesced and future callers
/// fail fast instead of re-detonating a worker. Keyed by
/// [`crate::spec_fingerprint`] (the *program*, not the full cache key):
/// a spec that crashes the compiler crashes it under every option set,
/// so one quarantine covers all of them.
#[derive(Debug, Default)]
pub(crate) struct PoisonLedger {
    threshold: u32,
    /// Combined panic + timeout strikes per spec.
    strikes: std::collections::HashMap<u64, u32>,
    quarantined: std::collections::HashMap<u64, QuarantineReason>,
}

impl PoisonLedger {
    /// A ledger quarantining after `threshold` strikes (0 disables it).
    pub fn new(threshold: u32) -> PoisonLedger {
        PoisonLedger {
            threshold,
            ..PoisonLedger::default()
        }
    }

    /// The quarantine verdict for `spec_fp`, if any.
    pub fn quarantined(&self, spec_fp: u64) -> Option<QuarantineReason> {
        self.quarantined.get(&spec_fp).copied()
    }

    /// Number of currently quarantined specs.
    pub fn len(&self) -> usize {
        self.quarantined.len()
    }

    /// Records one strike — a worker panic, else a timeout (an
    /// in-flight cancellation) — and returns the reason iff this strike
    /// quarantined the spec.
    pub fn strike(&mut self, spec_fp: u64, panicked: bool) -> Option<QuarantineReason> {
        if self.threshold == 0 || self.quarantined.contains_key(&spec_fp) {
            return None;
        }
        let count = self.strikes.entry(spec_fp).or_default();
        *count += 1;
        if *count < self.threshold {
            return None;
        }
        let strikes = *count;
        let reason = if panicked {
            QuarantineReason::Panicked { strikes }
        } else {
            QuarantineReason::TimedOut { strikes }
        };
        self.quarantined.insert(spec_fp, reason);
        Some(reason)
    }

    /// Clears the strikes and quarantine of `spec_fp` (the operator
    /// release valve). Returns whether it was quarantined.
    pub fn release(&mut self, spec_fp: u64) -> bool {
        self.strikes.remove(&spec_fp);
        self.quarantined.remove(&spec_fp).is_some()
    }
}

/// One deadline-bearing compile currently on a worker: tripping its
/// token at expiry makes the pipeline abort at its next pass boundary.
#[derive(Debug)]
struct InflightEntry {
    job_id: u64,
    deadline: u64,
    token: CancelToken,
}

/// Registry of in-flight deadline-bearing compiles, swept on every
/// clock movement under the admission lock.
#[derive(Debug, Default)]
pub(crate) struct InflightDeadlines {
    entries: Vec<InflightEntry>,
}

impl InflightDeadlines {
    /// Registers a dispatched job. Called when the job leaves its queue.
    pub fn register(&mut self, job_id: u64, deadline: u64, token: CancelToken) {
        self.entries.push(InflightEntry {
            job_id,
            deadline,
            token,
        });
    }

    /// Removes a completed job's registration.
    pub fn complete(&mut self, job_id: u64) {
        self.entries.retain(|e| e.job_id != job_id);
    }

    /// Trips the token of every entry whose deadline has passed at
    /// `now`, removing it. Returns how many were cancelled.
    pub fn sweep(&mut self, now: u64) -> u64 {
        let before = self.entries.len();
        self.entries.retain(|e| {
            if now > e.deadline {
                e.token.cancel();
                false
            } else {
                true
            }
        });
        (before - self.entries.len()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_saturates_and_jitters_within_bounds() {
        let cfg = BackoffConfig {
            base_ticks: 8,
            max_ticks: 64,
            seed: 3,
        };
        for strikes in 1..12u32 {
            let nominal = (8u64 << u64::from(strikes - 1).min(52)).min(64);
            let ttl = cfg.ttl(42, strikes);
            assert!(ttl >= nominal, "jitter never shortens the TTL");
            assert!(ttl <= nominal + nominal / 4 + 1, "jitter ≤ 25% + 1");
        }
        // Deterministic per (seed, key, strikes); sensitive to each.
        assert_eq!(cfg.ttl(42, 3), cfg.ttl(42, 3));
        let other_seed = BackoffConfig { seed: 4, ..cfg };
        let distinct = (1..20u32).any(|s| cfg.ttl(42, s) != other_seed.ttl(42, s));
        assert!(distinct, "the jitter actually consumes the seed");
    }

    #[test]
    fn ledger_quarantines_at_threshold_and_releases() {
        let mut ledger = PoisonLedger::new(3);
        assert_eq!(ledger.strike(7, true), None);
        assert_eq!(ledger.strike(7, false), None);
        let verdict = ledger.strike(7, true);
        // Quarantine trips on the combined count, so the reason reports
        // it too: 2 panics + 1 timeout, categorized by the final strike.
        assert_eq!(verdict, Some(QuarantineReason::Panicked { strikes: 3 }));
        assert_eq!(ledger.quarantined(7), verdict);
        assert_eq!(ledger.len(), 1);
        // Further strikes on a quarantined spec are no-ops.
        assert_eq!(ledger.strike(7, true), None);
        // Other specs are independent.
        assert_eq!(ledger.quarantined(8), None);
        assert!(ledger.release(7));
        assert_eq!(ledger.quarantined(7), None);
        assert!(!ledger.release(7), "already released");
        // Strikes were cleared too: the count restarts.
        assert_eq!(ledger.strike(7, true), None);
        assert_eq!(ledger.strike(7, true), None);
    }

    #[test]
    fn zero_threshold_never_quarantines() {
        let mut ledger = PoisonLedger::new(0);
        for _ in 0..100 {
            assert_eq!(ledger.strike(1, true), None);
        }
        assert_eq!(ledger.quarantined(1), None);
    }

    #[test]
    fn sweep_trips_only_expired_tokens() {
        let mut inflight = InflightDeadlines::default();
        let (a, b) = (CancelToken::new(), CancelToken::new());
        inflight.register(1, 10, a.clone());
        inflight.register(2, 20, b.clone());
        assert_eq!(inflight.sweep(10), 0, "deadline tick itself still lives");
        assert_eq!(inflight.sweep(11), 1);
        assert!(a.is_cancelled());
        assert!(!b.is_cancelled());
        // Completion removes the registration before it can fire.
        inflight.complete(2);
        assert_eq!(inflight.sweep(100), 0);
        assert!(!b.is_cancelled());
    }
}
