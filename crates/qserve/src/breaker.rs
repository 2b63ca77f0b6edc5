//! Per-tenant admission control: a token-bucket rate limiter and a
//! circuit breaker, layered above the round-robin tenant FIFOs.
//!
//! Both run on the service's **logical clock** (one tick per admission,
//! plus explicit [`crate::Service::advance`] steps), never wall time, so
//! every open/close/refill transition is a pure function of the request
//! stream — the property the chaos campaign's byte-identical manifests
//! rest on. Both are consulted and updated only by the admission core
//! (`admission.rs`).
//!
//! The breaker watches *compile completions* (failures trip it; while
//! half-open only the probe's completion decides it); the bucket
//! charges *admitted compiles* (cache hits are free — serving an `Arc`
//! clone costs nothing worth protecting). An abusive tenant therefore
//! trips open or runs dry without touching other tenants' state.

/// Token-bucket policy: `capacity` tokens, one token back per
/// `refill_ticks` logical ticks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BucketConfig {
    /// Maximum (and initial) token count.
    pub capacity: u64,
    /// Logical ticks per regained token (min 1).
    pub refill_ticks: u64,
}

impl Default for BucketConfig {
    fn default() -> Self {
        BucketConfig {
            capacity: 64,
            refill_ticks: 1,
        }
    }
}

/// Circuit-breaker policy. `failure_threshold: 0` disables the breaker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive compile failures that trip the breaker open.
    pub failure_threshold: u32,
    /// Logical ticks the breaker stays open before admitting one
    /// half-open probe.
    pub cooldown_ticks: u64,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 8,
            cooldown_ticks: 64,
        }
    }
}

/// Lazily refilled token bucket on the logical clock.
#[derive(Debug, Clone)]
pub(crate) struct TokenBucket {
    config: BucketConfig,
    tokens: u64,
    last_refill: u64,
}

impl TokenBucket {
    pub fn new(config: BucketConfig) -> TokenBucket {
        TokenBucket {
            config,
            tokens: config.capacity,
            last_refill: 0,
        }
    }

    fn refill(&mut self, now: u64) {
        let per = self.config.refill_ticks.max(1);
        let elapsed = now.saturating_sub(self.last_refill);
        let earned = elapsed / per;
        if earned > 0 {
            self.tokens = (self.tokens + earned).min(self.config.capacity);
            self.last_refill += earned * per;
        }
    }

    /// Takes one token at `now` if available.
    pub fn try_take(&mut self, now: u64) -> bool {
        self.refill(now);
        if self.tokens > 0 {
            self.tokens -= 1;
            true
        } else {
            false
        }
    }

    /// Tokens that would be available at `now`, without charging or
    /// mutating the bucket — the ops-plane `bucket_level` gauge.
    pub fn level(&self, now: u64) -> u64 {
        let per = self.config.refill_ticks.max(1);
        let earned = now.saturating_sub(self.last_refill) / per;
        (self.tokens + earned).min(self.config.capacity)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BreakerState {
    /// Normal service; counts consecutive failures.
    Closed { failures: u32 },
    /// Tripped; misses fail fast until the cooldown elapses.
    Open { until: u64 },
    /// Cooldown over; exactly one probe compile is in flight.
    HalfOpen,
}

/// Closed → Open → HalfOpen circuit breaker on the logical clock.
#[derive(Debug, Clone)]
pub(crate) struct CircuitBreaker {
    config: BreakerConfig,
    state: BreakerState,
}

/// What the breaker said about admitting one compile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BreakerDecision {
    /// Admit normally.
    Admit,
    /// Admit as the half-open probe (its completion decides the state).
    Probe,
    /// Fail fast; the breaker reopens in `retry_in` ticks.
    Reject {
        /// Ticks until the next half-open probe is allowed.
        retry_in: u64,
    },
}

/// What a completion did to the breaker state — the ops journal
/// distinguishes trips from probe-driven closes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BreakerTransition {
    /// No journal-worthy transition.
    None,
    /// This completion tripped the breaker open.
    Tripped,
    /// A successful half-open probe closed the breaker.
    Closed,
}

impl CircuitBreaker {
    pub fn new(config: BreakerConfig) -> CircuitBreaker {
        CircuitBreaker {
            config,
            state: BreakerState::Closed { failures: 0 },
        }
    }

    /// Consults the breaker for one compile admission at `now`.
    pub fn admit(&mut self, now: u64) -> BreakerDecision {
        if self.config.failure_threshold == 0 {
            return BreakerDecision::Admit;
        }
        match self.state {
            BreakerState::Closed { .. } => BreakerDecision::Admit,
            BreakerState::Open { until } if now >= until => {
                self.state = BreakerState::HalfOpen;
                BreakerDecision::Probe
            }
            BreakerState::Open { until } => BreakerDecision::Reject {
                retry_in: until - now,
            },
            // A probe is already in flight; its completion decides.
            BreakerState::HalfOpen => BreakerDecision::Reject { retry_in: 0 },
        }
    }

    /// Returns an unused half-open probe slot. The admission that
    /// consumed the probe never dispatched a compile (a later gate
    /// rejected it, served it from a shed rung, or the queued job was
    /// deadline-reaped before a worker took it), so no completion will
    /// ever [`CircuitBreaker::record`] the probe's verdict. Without
    /// this, `HalfOpen` — which only exits via `record` — would reject
    /// the tenant's misses forever. Re-opening with `until: now` makes
    /// the very next admission eligible to probe again.
    pub fn abort_probe(&mut self, now: u64) {
        if self.state == BreakerState::HalfOpen {
            self.state = BreakerState::Open { until: now };
        }
    }

    /// Records one compile completion for this tenant at `now`,
    /// reporting the state transition it caused (if any). `probe` says
    /// whether the completing compile was admitted as the half-open
    /// probe: while half-open, exactly that one completion decides.
    pub fn record(&mut self, now: u64, success: bool, probe: bool) -> BreakerTransition {
        if self.config.failure_threshold == 0 {
            return BreakerTransition::None;
        }
        match (&mut self.state, success) {
            (BreakerState::Closed { .. }, true) => {
                self.state = BreakerState::Closed { failures: 0 };
                BreakerTransition::None
            }
            (BreakerState::Closed { failures }, false) => {
                *failures += 1;
                if *failures >= self.config.failure_threshold {
                    self.state = BreakerState::Open {
                        until: now + self.config.cooldown_ticks,
                    };
                    BreakerTransition::Tripped
                } else {
                    BreakerTransition::None
                }
            }
            // A straggler queued before the trip and finishing after the
            // probe was admitted is not the probe: it decides nothing.
            (BreakerState::HalfOpen, _) if !probe => BreakerTransition::None,
            (BreakerState::HalfOpen, true) => {
                self.state = BreakerState::Closed { failures: 0 };
                BreakerTransition::Closed
            }
            (BreakerState::HalfOpen, false) => {
                self.state = BreakerState::Open {
                    until: now + self.config.cooldown_ticks,
                };
                BreakerTransition::Tripped
            }
            // A straggler completing while the breaker is open (e.g. a
            // pre-trip job finishing late) does not move the state.
            (BreakerState::Open { .. }, _) => BreakerTransition::None,
        }
    }

    /// Whether the breaker is currently open (for stats snapshots).
    pub fn is_open(&self) -> bool {
        matches!(self.state, BreakerState::Open { .. })
    }

    /// State encoded for the ops-plane gauge: 0 closed, 1 half-open,
    /// 2 open.
    pub fn state_code(&self) -> u64 {
        match self.state {
            BreakerState::Closed { .. } => 0,
            BreakerState::HalfOpen => 1,
            BreakerState::Open { .. } => 2,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_charges_and_refills_on_the_logical_clock() {
        let mut bucket = TokenBucket::new(BucketConfig {
            capacity: 2,
            refill_ticks: 10,
        });
        assert_eq!(bucket.level(0), 2);
        assert!(bucket.try_take(0));
        assert!(bucket.try_take(0));
        assert_eq!(bucket.level(5), 0, "level previews without charging");
        assert!(!bucket.try_take(5), "empty until a refill interval passes");
        assert_eq!(bucket.level(10), 1);
        assert!(bucket.try_take(10), "one token back after refill_ticks");
        assert!(!bucket.try_take(19));
        // Long idle refills to capacity, never beyond.
        assert!(bucket.try_take(1000));
        assert!(bucket.try_take(1000));
        assert!(!bucket.try_take(1000));
    }

    #[test]
    fn breaker_trips_probes_and_recloses() {
        let mut breaker = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 2,
            cooldown_ticks: 10,
        });
        assert_eq!(breaker.admit(1), BreakerDecision::Admit);
        assert_eq!(breaker.state_code(), 0);
        assert_eq!(breaker.record(1, false, false), BreakerTransition::None);
        assert_eq!(
            breaker.record(2, false, false),
            BreakerTransition::Tripped,
            "second failure trips it"
        );
        assert!(breaker.is_open());
        assert_eq!(breaker.state_code(), 2);
        assert_eq!(breaker.admit(3), BreakerDecision::Reject { retry_in: 9 });
        // Cooldown over: exactly one probe; concurrent misses still fail.
        assert_eq!(breaker.admit(12), BreakerDecision::Probe);
        assert_eq!(breaker.state_code(), 1);
        assert_eq!(breaker.admit(12), BreakerDecision::Reject { retry_in: 0 });
        // Failed probe reopens; successful probe closes.
        assert_eq!(breaker.record(12, false, true), BreakerTransition::Tripped);
        assert!(breaker.is_open());
        assert_eq!(breaker.admit(22), BreakerDecision::Probe);
        assert_eq!(breaker.record(22, true, true), BreakerTransition::Closed);
        assert!(!breaker.is_open());
        assert_eq!(breaker.state_code(), 0);
        assert_eq!(breaker.admit(23), BreakerDecision::Admit);
    }

    #[test]
    fn aborted_probe_returns_the_slot_instead_of_wedging_half_open() {
        let mut breaker = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 1,
            cooldown_ticks: 10,
        });
        assert_eq!(breaker.record(1, false, false), BreakerTransition::Tripped);
        assert_eq!(breaker.admit(11), BreakerDecision::Probe);
        // The probe's request was rejected by a later gate: no compile
        // will ever record a verdict, so the slot must come back.
        breaker.abort_probe(11);
        assert_eq!(breaker.admit(11), BreakerDecision::Probe);
        // A dispatched probe's completion still decides normally.
        assert_eq!(breaker.record(12, true, true), BreakerTransition::Closed);
        assert_eq!(breaker.admit(13), BreakerDecision::Admit);
        // Aborting when no probe is outstanding is a no-op.
        breaker.abort_probe(13);
        assert_eq!(breaker.admit(13), BreakerDecision::Admit);
    }

    #[test]
    fn successes_reset_the_consecutive_failure_count() {
        let mut breaker = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 2,
            cooldown_ticks: 5,
        });
        for t in 0..20 {
            assert_eq!(
                breaker.record(t, t % 2 == 0, false),
                BreakerTransition::None,
                "alternation never trips"
            );
        }
        assert!(!breaker.is_open());
    }

    #[test]
    fn zero_threshold_disables_the_breaker() {
        let mut breaker = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 0,
            cooldown_ticks: 5,
        });
        for t in 0..100 {
            assert_eq!(breaker.record(t, false, false), BreakerTransition::None);
            assert_eq!(breaker.admit(t), BreakerDecision::Admit);
        }
    }

    #[test]
    fn half_open_ignores_stragglers_until_the_probe_reports() {
        let mut breaker = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 2,
            cooldown_ticks: 10,
        });
        assert_eq!(breaker.record(1, false, false), BreakerTransition::None);
        assert_eq!(breaker.record(2, false, false), BreakerTransition::Tripped);
        assert_eq!(breaker.admit(12), BreakerDecision::Probe);
        // A pre-trip job finishing now is not the probe, either way.
        assert_eq!(breaker.record(13, true, false), BreakerTransition::None);
        assert_eq!(breaker.record(13, false, false), BreakerTransition::None);
        assert_eq!(breaker.state_code(), 1, "still half-open");
        // The probe's failure re-trips it.
        assert_eq!(breaker.record(14, false, true), BreakerTransition::Tripped);
        assert_eq!(breaker.admit(15), BreakerDecision::Reject { retry_in: 9 });
    }

    #[test]
    fn late_straggler_completion_cannot_close_an_open_breaker() {
        let mut breaker = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 1,
            cooldown_ticks: 100,
        });
        assert_eq!(breaker.record(1, false, false), BreakerTransition::Tripped);
        assert!(breaker.is_open());
        assert_eq!(
            breaker.record(2, true, false),
            BreakerTransition::None,
            "straggler success is ignored"
        );
        assert!(breaker.is_open());
    }
}
