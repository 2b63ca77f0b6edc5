//! Content-addressed compiled-artifact cache.
//!
//! Entries are located by a 64-bit structural fingerprint of the full
//! [`CacheKey`], but a fingerprint match alone never serves an artifact:
//! every bucket keeps the complete owned key and verifies **full
//! equality** on hit (the same discipline as
//! [`qhw::HardwareContext::shared`]). A hash collision between distinct
//! specs therefore degrades to an ordinary miss-and-compile — wrong
//! artifacts are impossible by construction, which is what the
//! cache-correctness suite pins down by forcing two distinct keys into
//! one bucket. Neither step costs time in the program's size: the spec's
//! fingerprint is computed once when it is built, and a resubmitted
//! clone shares its body, so the equality check is a pointer compare.
//!
//! Recency, eviction and state transitions are all driven by the caller
//! (the service's admission path) under one lock, so the hit/miss/
//! eviction sequence is deterministic for a given request stream.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use qcompile::{
    Compilation, CompileOptions, CompiledArtifact, InitialMapping, QaoaSpec, Resilience,
};

use crate::service::ServeError;

/// Full identity of one cached compile product. Two requests share an
/// artifact iff their keys are equal — bit-identical program, equal
/// options, same topology, and (for calibration-consuming
/// configurations) the same calibration epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheKey {
    /// The program being compiled, compared bit-exactly (O(1) for a
    /// clone of the cached key's spec).
    pub spec: QaoaSpec,
    /// The requested configuration (mapping, compilation mode, packing,
    /// resilience policy — all of it shapes the artifact).
    pub options: CompileOptions,
    /// [`qhw::Topology::fingerprint`] of the service's target.
    pub topology_fp: u64,
    /// `Some(epoch)` iff `options` consume calibration (VIC). Hop-metric
    /// and naive artifacts carry `None` and survive calibration
    /// hot-reloads untouched.
    pub calibration_epoch: Option<u64>,
}

impl CacheKey {
    /// Builds the key for a request against the service's current
    /// topology and calibration epoch. Only
    /// [`Compilation::IncrementalReliability`] reads calibration, so only
    /// it bakes the epoch into its identity.
    pub fn new(spec: QaoaSpec, options: CompileOptions, topology_fp: u64, epoch: u64) -> CacheKey {
        let calibration_epoch =
            matches!(options.compilation, Compilation::IncrementalReliability).then_some(epoch);
        CacheKey {
            spec,
            options,
            topology_fp,
            calibration_epoch,
        }
    }

    /// The 64-bit structural fingerprint locating this key's bucket.
    pub fn fingerprint(&self) -> u64 {
        let mut h = DefaultHasher::new();
        self.spec.fingerprint().hash(&mut h);
        hash_options(&self.options, &mut h);
        self.topology_fp.hash(&mut h);
        self.calibration_epoch.hash(&mut h);
        h.finish()
    }
}

/// Structural fingerprint of a [`QaoaSpec`]: qubit count, measurement
/// flag, every level's CPHASE list and mixer angle, every field term,
/// and the parameter table — all angle values hashed bit-exactly via
/// `f64::to_bits`. It reads [`QaoaSpec::fingerprint`], computed once
/// when the spec was built, so it costs nothing per request. Specs that
/// compare equal hash equal (equality is bit-exact too); the proptest
/// suite checks the converse over generated program pairs.
pub fn spec_fingerprint(spec: &QaoaSpec) -> u64 {
    spec.fingerprint()
}

fn hash_options<H: Hasher>(options: &CompileOptions, h: &mut H) {
    let mapping: u8 = match options.mapping {
        InitialMapping::Naive => 0,
        InitialMapping::GreedyV => 1,
        InitialMapping::Dense => 2,
        InitialMapping::Qaim => 3,
    };
    let compilation: u8 = match options.compilation {
        Compilation::RandomOrder => 0,
        Compilation::Ip => 1,
        Compilation::IncrementalHops => 2,
        Compilation::IncrementalReliability => 3,
    };
    mapping.hash(h);
    compilation.hash(h);
    options.packing_limit.hash(h);
    let Resilience {
        fallback,
        pass_budget,
        swap_budget,
        max_retries,
    } = options.resilience;
    fallback.hash(h);
    pass_budget.map(|d| d.as_nanos()).hash(h);
    swap_budget.hash(h);
    max_retries.hash(h);
}

/// `(result, served_order, resolved_at)` of a finished compile.
pub(crate) type Resolution = (Result<Arc<CompiledArtifact>, ServeError>, u64, Instant);

/// The completion slot admission hands to every requester of an
/// in-flight compile. The worker (or an inline drain) fills it exactly
/// once; waiters block on the condvar.
#[derive(Debug, Default)]
pub(crate) struct Completion {
    pub slot: Mutex<Option<Resolution>>,
    pub ready: Condvar,
}

/// What a cache bucket entry currently holds.
#[derive(Debug, Clone)]
pub(crate) enum SlotState {
    /// Reserved at admission; the compile is queued or running. Later
    /// requests for the same key coalesce onto the shared completion.
    Pending(Arc<Completion>),
    /// A finished artifact, served by `Arc` clone.
    Ready(Arc<CompiledArtifact>),
    /// The compile failed; the error is served to later requests
    /// (negative caching keeps the outcome sequence deterministic and
    /// stops a poisoned key from hammering the workers) until
    /// `expires_at`, after which the next lookup reaps the entry and the
    /// service retries the compile with the strike count carried
    /// forward into the next backoff window.
    Failed {
        /// The error served while the entry lives.
        error: ServeError,
        /// Logical tick past which the entry expires; `None` caches the
        /// failure forever (non-recoverable errors).
        expires_at: Option<u64>,
        /// Consecutive failures of this key so far (drives backoff).
        strikes: u32,
    },
}

/// Three-way result of a cache probe at a logical instant.
#[derive(Debug)]
pub(crate) enum Lookup {
    /// A live entry (pending, ready, or an unexpired failure).
    Hit {
        state: SlotState,
        /// Reservation id of the entry (== the producing job's id). A
        /// pending hit parks its lifecycle settlement on this id so the
        /// fill drains exactly the waiters of *this* reservation, even
        /// if the key is later evicted and re-reserved.
        entry_id: u64,
    },
    /// A negative entry whose backoff TTL has lapsed: the entry has been
    /// reaped; the caller should re-admit the compile as a miss and
    /// carry `strikes` into the next failure's TTL.
    ExpiredNegative {
        /// Consecutive failures recorded before expiry.
        strikes: u32,
    },
    /// No entry for this key.
    Miss,
}

#[derive(Debug)]
struct Entry {
    /// Unique per reservation: a worker completing an evicted-and-
    /// re-reserved key must not overwrite the newer entry.
    id: u64,
    key: CacheKey,
    state: SlotState,
    /// Admission tick of the last lookup/reserve touching this entry —
    /// the LRU ordinate.
    last_used: u64,
}

/// Capacity-bounded LRU over compiled artifacts. Not internally
/// synchronized: the service wraps it in its admission lock.
#[derive(Debug)]
pub(crate) struct ArtifactCache {
    capacity: usize,
    /// Fingerprint → entries (more than one only on a fingerprint
    /// collision, where equality verification keeps them apart).
    buckets: HashMap<u64, Vec<Entry>>,
    /// `last_used` tick → `(fingerprint, id)`, the eviction order.
    recency: BTreeMap<u64, (u64, u64)>,
    len: usize,
    tick: u64,
    next_id: u64,
}

impl ArtifactCache {
    pub fn new(capacity: usize) -> ArtifactCache {
        ArtifactCache {
            capacity: capacity.max(1),
            buckets: HashMap::new(),
            recency: BTreeMap::new(),
            len: 0,
            tick: 0,
            next_id: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    /// Probes for `key` in bucket `fp` at logical instant `now`,
    /// verifying full key equality. A live entry is touched (recency)
    /// and returned; a negative entry past its backoff TTL is reaped and
    /// reported as [`Lookup::ExpiredNegative`] so the caller retries the
    /// compile with the strike history intact.
    pub fn lookup(&mut self, fp: u64, key: &CacheKey, now: u64) -> Lookup {
        self.tick += 1;
        let tick = self.tick;
        let Some(entry) = self
            .buckets
            .get_mut(&fp)
            .and_then(|bucket| bucket.iter_mut().find(|e| e.key == *key))
        else {
            return Lookup::Miss;
        };
        if let SlotState::Failed {
            expires_at: Some(expires_at),
            strikes,
            ..
        } = entry.state
        {
            if now > expires_at {
                self.recency.remove(&entry.last_used);
                let id = entry.id;
                self.remove_entry(fp, id);
                return Lookup::ExpiredNegative { strikes };
            }
        }
        self.recency.remove(&entry.last_used);
        entry.last_used = tick;
        let id = entry.id;
        let state = entry.state.clone();
        self.recency.insert(tick, (fp, id));
        Lookup::Hit {
            state,
            entry_id: id,
        }
    }

    /// Shed-ladder probe: returns a live, servable entry for `key`
    /// (ready or pending — a shed request can coalesce onto an
    /// in-flight compile), touching its recency. Failed entries are
    /// `None` whether their TTL lapsed or not, and an expired negative
    /// entry is **not** reaped: reaping here would discard the strike
    /// history [`Lookup::ExpiredNegative`] exists to carry forward, so
    /// the entry is left for the rung's own next admission to reap.
    pub fn probe_servable(&mut self, fp: u64, key: &CacheKey) -> Option<SlotState> {
        let entry = self
            .buckets
            .get_mut(&fp)?
            .iter_mut()
            .find(|e| e.key == *key)?;
        if matches!(entry.state, SlotState::Failed { .. }) {
            return None;
        }
        self.tick += 1;
        self.recency.remove(&entry.last_used);
        entry.last_used = self.tick;
        let id = entry.id;
        let state = entry.state.clone();
        self.recency.insert(self.tick, (fp, id));
        Some(state)
    }

    /// Inserts `key` in bucket `fp` holding `state` — a pending
    /// reservation at admission, or an artifact recovered at warm start —
    /// evicting the least-recently-used entries first if at capacity.
    /// Returns the new entry's id and the fingerprints of the evicted
    /// entries (the service unlinks their disk spills).
    ///
    /// Pending entries are evictable like any other: their waiters hold
    /// the completion `Arc` directly, so eviction only forgets the cache
    /// slot, it never strands a requester.
    pub fn insert(&mut self, fp: u64, key: CacheKey, state: SlotState) -> (u64, Vec<u64>) {
        let evicted = self.evict_to_capacity();
        self.tick += 1;
        let id = self.next_id;
        self.next_id += 1;
        self.buckets.entry(fp).or_default().push(Entry {
            id,
            key,
            state,
            last_used: self.tick,
        });
        self.recency.insert(self.tick, (fp, id));
        self.len += 1;
        (id, evicted)
    }

    fn evict_to_capacity(&mut self) -> Vec<u64> {
        let mut evicted = Vec::new();
        while self.len >= self.capacity {
            let (&tick, &(victim_fp, victim_id)) =
                self.recency.iter().next().expect("len > 0 implies recency");
            self.recency.remove(&tick);
            self.remove_entry(victim_fp, victim_id);
            evicted.push(victim_fp);
        }
        evicted
    }

    /// Flips the reservation `(fp, id)` to its terminal state. Failures
    /// become negative entries expiring at `expires_at` (`None` =
    /// cached forever) carrying `strikes` consecutive failures for the
    /// backoff ladder. Returns whether the entry was still live — a
    /// no-op `false` when it was evicted (or invalidated) while the
    /// compile ran.
    pub fn complete(
        &mut self,
        fp: u64,
        id: u64,
        result: &Result<Arc<CompiledArtifact>, ServeError>,
        expires_at: Option<u64>,
        strikes: u32,
    ) -> bool {
        if let Some(bucket) = self.buckets.get_mut(&fp) {
            if let Some(entry) = bucket.iter_mut().find(|e| e.id == id) {
                entry.state = match result {
                    Ok(artifact) => SlotState::Ready(Arc::clone(artifact)),
                    Err(error) => SlotState::Failed {
                        error: error.clone(),
                        expires_at,
                        strikes,
                    },
                };
                return true;
            }
        }
        false
    }

    /// Unconditionally removes the reservation `(fp, id)` and its
    /// recency locator. Used when admission reaps an expired queued job:
    /// a deadline lapse says nothing about the key's compilability, so
    /// it must not leave a negative entry behind.
    pub fn forget(&mut self, fp: u64, id: u64) {
        if let Some(bucket) = self.buckets.get(&fp) {
            if let Some(entry) = bucket.iter().find(|e| e.id == id) {
                self.recency.remove(&entry.last_used);
                self.remove_entry(fp, id);
            }
        }
    }

    /// Drops every entry whose key consumed calibration (the epoch-`Some`
    /// keys) — the hot-reload invalidation. Calibration-independent
    /// artifacts are untouched. Returns the dropped fingerprints (the
    /// service unlinks their disk spills; the count is the stat).
    pub fn invalidate_calibration_dependent(&mut self) -> Vec<u64> {
        let mut dropped = Vec::new();
        self.buckets.retain(|&fp, bucket| {
            bucket.retain(|e| {
                if e.key.calibration_epoch.is_some() {
                    dropped.push(fp);
                    false
                } else {
                    true
                }
            });
            !bucket.is_empty()
        });
        let buckets = &self.buckets;
        self.recency.retain(|_, (fp, id)| {
            buckets
                .get(fp)
                .is_some_and(|b| b.iter().any(|e| e.id == *id))
        });
        self.len -= dropped.len();
        dropped
    }

    fn remove_entry(&mut self, fp: u64, id: u64) {
        if let Some(bucket) = self.buckets.get_mut(&fp) {
            let before = bucket.len();
            bucket.retain(|e| e.id != id);
            self.len -= before - bucket.len();
            if bucket.is_empty() {
                self.buckets.remove(&fp);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcompile::CphaseOp;

    fn spec(n: usize, edges: &[(usize, usize)]) -> QaoaSpec {
        let ops: Vec<CphaseOp> = edges
            .iter()
            .map(|&(a, b)| CphaseOp::new(a, b, 0.5))
            .collect();
        QaoaSpec::new(n, vec![(ops, 0.3)], true)
    }

    fn key(edges: &[(usize, usize)]) -> CacheKey {
        CacheKey::new(spec(4, edges), CompileOptions::ic(), 11, 0)
    }

    fn dummy_artifact(marker: usize) -> Arc<CompiledArtifact> {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let context = qhw::HardwareContext::new(qhw::Topology::linear(4));
        let spec = spec(4, &[(0, 1), (marker % 2 + 1, marker % 2 + 2)]);
        Arc::new(
            qcompile::try_compile_artifact_with_context(
                &spec,
                &context,
                &CompileOptions::naive(),
                &mut StdRng::seed_from_u64(1),
            )
            .expect("linear chain compiles"),
        )
    }

    fn pending() -> SlotState {
        SlotState::Pending(Arc::default())
    }

    fn hit(lookup: Lookup) -> Option<SlotState> {
        match lookup {
            Lookup::Hit { state, .. } => Some(state),
            _ => None,
        }
    }

    fn is_miss(lookup: Lookup) -> bool {
        matches!(lookup, Lookup::Miss)
    }

    /// Two *distinct* keys forced into the same fingerprint bucket must
    /// keep their identities apart: equality verification makes a
    /// collision cost a rebuild, never a wrong artifact.
    #[test]
    fn forced_fingerprint_collision_cannot_cross_serve() {
        let mut cache = ArtifactCache::new(8);
        let ka = key(&[(0, 1), (1, 2)]);
        let kb = key(&[(0, 1), (2, 3)]);
        assert_ne!(ka, kb);
        let forced_fp = 42u64;

        let (ida, _) = cache.insert(forced_fp, ka.clone(), pending());
        let (idb, _) = cache.insert(forced_fp, kb.clone(), pending());
        let (a, b) = (dummy_artifact(0), dummy_artifact(1));
        cache.complete(forced_fp, ida, &Ok(Arc::clone(&a)), None, 0);
        cache.complete(forced_fp, idb, &Ok(Arc::clone(&b)), None, 0);

        match hit(cache.lookup(forced_fp, &ka, 0)) {
            Some(SlotState::Ready(got)) => assert!(Arc::ptr_eq(&got, &a)),
            other => panic!("expected ka's artifact, got {other:?}"),
        }
        match hit(cache.lookup(forced_fp, &kb, 0)) {
            Some(SlotState::Ready(got)) => assert!(Arc::ptr_eq(&got, &b)),
            other => panic!("expected kb's artifact, got {other:?}"),
        }
        // A third distinct key landing in the bucket is a clean miss.
        assert!(is_miss(cache.lookup(forced_fp, &key(&[(1, 2), (2, 3)]), 0)));
    }

    #[test]
    fn lru_evicts_least_recently_used_first() {
        let mut cache = ArtifactCache::new(2);
        let (k1, k2, k3) = (key(&[(0, 1)]), key(&[(1, 2)]), key(&[(2, 3)]));
        cache.insert(k1.fingerprint(), k1.clone(), pending());
        cache.insert(k2.fingerprint(), k2.clone(), pending());
        // Touch k1 so k2 becomes the LRU victim.
        assert!(hit(cache.lookup(k1.fingerprint(), &k1, 0)).is_some());
        let (_, evicted) = cache.insert(k3.fingerprint(), k3.clone(), pending());
        assert_eq!(evicted, vec![k2.fingerprint()], "evicted fps surfaced");
        assert_eq!(cache.len(), 2);
        assert!(is_miss(cache.lookup(k2.fingerprint(), &k2, 0)), "k2 gone");
        assert!(hit(cache.lookup(k1.fingerprint(), &k1, 0)).is_some());
        assert!(hit(cache.lookup(k3.fingerprint(), &k3, 0)).is_some());
    }

    #[test]
    fn completing_an_evicted_reservation_is_a_no_op() {
        let mut cache = ArtifactCache::new(1);
        let (k1, k2) = (key(&[(0, 1)]), key(&[(1, 2)]));
        let (id1, _) = cache.insert(k1.fingerprint(), k1.clone(), pending());
        let (_, evicted) = cache.insert(k2.fingerprint(), k2.clone(), pending());
        assert_eq!(evicted.len(), 1);
        // The worker of the evicted reservation reports in late.
        cache.complete(k1.fingerprint(), id1, &Ok(dummy_artifact(0)), None, 0);
        assert!(is_miss(cache.lookup(k1.fingerprint(), &k1, 0)));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn invalidation_touches_only_calibration_consumers() {
        let mut cache = ArtifactCache::new(8);
        let vic = CacheKey::new(spec(4, &[(0, 1)]), CompileOptions::vic(), 11, 3);
        let ic = CacheKey::new(spec(4, &[(0, 1)]), CompileOptions::ic(), 11, 3);
        assert!(vic.calibration_epoch.is_some());
        assert!(ic.calibration_epoch.is_none());
        cache.insert(vic.fingerprint(), vic.clone(), pending());
        cache.insert(ic.fingerprint(), ic.clone(), pending());
        assert_eq!(
            cache.invalidate_calibration_dependent(),
            vec![vic.fingerprint()]
        );
        assert!(is_miss(cache.lookup(vic.fingerprint(), &vic, 0)));
        assert!(hit(cache.lookup(ic.fingerprint(), &ic, 0)).is_some());
        // Recency bookkeeping stays consistent: filling back up evicts
        // cleanly rather than panicking on stale locators.
        for i in 0..20 {
            let k = key(&[(0, 1), (1, 2), (2, 3), (i % 3, 3 - i % 3)]);
            cache.insert(k.fingerprint(), k, pending());
        }
        assert!(cache.len() <= 8);
    }

    /// Satellite regression (PR 9): a negatively cached key must stop
    /// serving its error once the backoff TTL lapses — the entry is
    /// reaped at lookup and the strike history is handed back.
    #[test]
    fn negative_entries_expire_and_surface_their_strikes() {
        let mut cache = ArtifactCache::new(8);
        let k = key(&[(0, 1)]);
        let fp = k.fingerprint();
        let (id, _) = cache.insert(fp, k.clone(), pending());
        let error = ServeError::Overloaded {
            queued: 0,
            capacity: 0,
        };
        cache.complete(fp, id, &Err(error), Some(10), 2);
        // Live through the deadline tick itself...
        match hit(cache.lookup(fp, &k, 10)) {
            Some(SlotState::Failed { strikes, .. }) => assert_eq!(strikes, 2),
            other => panic!("expected live negative entry, got {other:?}"),
        }
        // ...reaped one tick later, strikes carried out.
        match cache.lookup(fp, &k, 11) {
            Lookup::ExpiredNegative { strikes } => assert_eq!(strikes, 2),
            other => panic!("expected expiry, got {other:?}"),
        }
        assert_eq!(cache.len(), 0);
        assert!(is_miss(cache.lookup(fp, &k, 11)), "expiry reaped it");

        // `expires_at: None` (non-recoverable) never expires.
        let (id, _) = cache.insert(fp, k.clone(), pending());
        let error = ServeError::Overloaded {
            queued: 1,
            capacity: 1,
        };
        cache.complete(fp, id, &Err(error), None, 1);
        assert!(hit(cache.lookup(fp, &k, u64::MAX)).is_some());
    }

    /// The shed-ladder probe is read-only with respect to failure
    /// state: it must neither serve a failed rung nor reap an expired
    /// negative entry (reaping would lose the strike history the rung's
    /// own next admission carries into its backoff TTL).
    #[test]
    fn probe_servable_skips_failures_and_preserves_expired_strikes() {
        let mut cache = ArtifactCache::new(8);
        let k = key(&[(0, 1)]);
        let fp = k.fingerprint();
        let (id, _) = cache.insert(fp, k.clone(), pending());
        let error = ServeError::Overloaded {
            queued: 0,
            capacity: 0,
        };
        cache.complete(fp, id, &Err(error), Some(10), 3);

        // Live or expired, a failed entry is never a shed target…
        assert!(cache.probe_servable(fp, &k).is_none(), "live negative");
        assert!(hit(cache.lookup(fp, &k, 10)).is_some());
        // (now 11 > expires_at 10: the negative entry has lapsed)
        assert!(cache.probe_servable(fp, &k).is_none(), "expired negative");

        // …and the probe left the entry in place: the key's own next
        // lookup still reaps it with the full strike count.
        match cache.lookup(fp, &k, 11) {
            Lookup::ExpiredNegative { strikes } => assert_eq!(strikes, 3),
            other => panic!("expected expiry with strikes intact, got {other:?}"),
        }

        // A ready entry probes servable (and a missing key is None).
        let k2 = key(&[(1, 2)]);
        let (id2, _) = cache.insert(k2.fingerprint(), k2.clone(), pending());
        cache.complete(k2.fingerprint(), id2, &Ok(dummy_artifact(0)), None, 0);
        assert!(matches!(
            cache.probe_servable(k2.fingerprint(), &k2),
            Some(SlotState::Ready(_))
        ));
        assert!(cache.probe_servable(fp, &k).is_none(), "reaped above");
    }

    #[test]
    fn forget_removes_the_reservation_and_its_recency() {
        let mut cache = ArtifactCache::new(2);
        let (k1, k2) = (key(&[(0, 1)]), key(&[(1, 2)]));
        let (id1, _) = cache.insert(k1.fingerprint(), k1.clone(), pending());
        cache.insert(k2.fingerprint(), k2.clone(), pending());
        cache.forget(k1.fingerprint(), id1);
        assert_eq!(cache.len(), 1);
        assert!(is_miss(cache.lookup(k1.fingerprint(), &k1, 0)));
        // The recency locator went with it: churning past capacity keeps
        // the books straight instead of panicking on a stale locator.
        for i in 0..10 {
            let k = key(&[(0, 1), (i % 3, 3 - i % 3)]);
            cache.insert(k.fingerprint(), k, pending());
        }
        assert!(cache.len() <= 2);
        // Forgetting a second time (or an unknown id) is a no-op.
        cache.forget(k1.fingerprint(), id1);
    }

    #[test]
    fn insert_ready_serves_immediately_and_respects_capacity() {
        let mut cache = ArtifactCache::new(1);
        let (k1, k2) = (key(&[(0, 1)]), key(&[(1, 2)]));
        let a = dummy_artifact(0);
        let ready = SlotState::Ready(Arc::clone(&a));
        let (_, evicted) = cache.insert(k1.fingerprint(), k1.clone(), ready);
        assert!(evicted.is_empty());
        match hit(cache.lookup(k1.fingerprint(), &k1, 0)) {
            Some(SlotState::Ready(got)) => assert!(Arc::ptr_eq(&got, &a)),
            other => panic!("expected recovered artifact, got {other:?}"),
        }
        let ready = SlotState::Ready(dummy_artifact(1));
        let (_, evicted) = cache.insert(k2.fingerprint(), k2.clone(), ready);
        assert_eq!(evicted, vec![k1.fingerprint()]);
        assert_eq!(cache.len(), 1);
    }
}
