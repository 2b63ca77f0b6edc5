//! Order statistics over latency samples.

/// Sorts samples ascending (NaN-free input).
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

/// Nearest-rank quantile of ascending `sorted` samples; 0 when empty.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    quantile(&sorted(samples.to_vec()), 0.5)
}

/// Smallest sample; 0 when empty.
pub fn min(samples: &[f64]) -> f64 {
    samples.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// Arithmetic mean; 0 when empty.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// The tail the benchmark reports as `p99_us`: the 99th percentile when
/// at least ten samples lie beyond it, else the highest of 95/90/75/50
/// that has ten beyond it (or the median for tiny runs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile actually used (99, 95, …).
    pub percentile: f64,
    /// The sample value at that percentile.
    pub value: f64,
    /// Samples strictly above the percentile's rank.
    pub beyond: usize,
}

/// Computes the reported tail of ascending `sorted` samples.
pub fn tail(sorted: &[f64]) -> Tail {
    let n = sorted.len();
    let pick = [0.99, 0.95, 0.90, 0.75]
        .into_iter()
        .find(|q| (n as f64 * (1.0 - q)).floor() >= 10.0)
        .unwrap_or(0.5);
    let rank = ((pick * n as f64).ceil() as usize).clamp(1, n.max(1));
    Tail {
        percentile: pick * 100.0,
        value: quantile(sorted, pick),
        beyond: n.saturating_sub(rank),
    }
}

/// One timed operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// When it started, seconds since the timed part began.
    pub at: f64,
    /// Which operation it was (a compile job, one evaluation of an
    /// instance): repetitions of one operation share a class.
    pub class: u32,
    /// Its latency, microseconds.
    pub us: f64,
}

/// Length of the time blocks [`quiet_blocks`] compares.
pub const BLOCK_SECS: f64 = 0.25;

/// Share of the blocks [`quiet_blocks`] keeps.
pub const QUIET_SHARE: f64 = 0.1;

/// The latencies of `samples` that fall in the quietest [`QUIET_SHARE`]
/// of [`BLOCK_SECS`] blocks (keyed by seconds into the run), ranked by
/// `rank` of each block's latencies: [`mean`] ranks a block the host
/// slowed and a block with a stall in it both low; [`block_p99`] ranks by
/// the tail itself, for reporting a tail.
///
/// A small VM shares its host, whose contention comes and goes over
/// seconds to minutes and only ever slows work down. Pooling the quietest
/// blocks keeps thousands of operations while filtering that contention,
/// as a best-of-N timing does; a slower program is slower in every block,
/// so it still shows.
pub fn quiet_blocks(samples: &[Sample], rank: fn(&[f64]) -> f64) -> Vec<f64> {
    use std::collections::{BTreeMap, BTreeSet};
    let block = |at: f64| (at / BLOCK_SECS) as u64;
    let mut blocks: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    for s in samples {
        blocks.entry(block(s.at)).or_default().push(s.us);
    }
    let mut ranked: Vec<(f64, u64)> = blocks.iter().map(|(&b, v)| (rank(v), b)).collect();
    ranked.sort_by(|a, b| a.0.total_cmp(&b.0));
    let keep = ((ranked.len() as f64 * QUIET_SHARE).ceil() as usize).max(1);
    let quiet: BTreeSet<u64> = ranked.iter().take(keep).map(|&(_, b)| b).collect();
    samples
        .iter()
        .filter(|s| quiet.contains(&block(s.at)))
        .map(|s| s.us)
        .collect()
}

/// The 99th percentile of one block's latencies.
pub fn block_p99(latencies: &[f64]) -> f64 {
    quantile(&sorted(latencies.to_vec()), 0.99)
}

/// The lowest latency of each class: for operations repeated identically
/// across rounds, their best-of-rounds timing.
pub fn best_per_class(samples: &[Sample]) -> Vec<f64> {
    let mut best: std::collections::BTreeMap<u32, f64> = std::collections::BTreeMap::new();
    for s in samples {
        best.entry(s.class)
            .and_modify(|b| *b = b.min(s.us))
            .or_insert(s.us);
    }
    best.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_blocks_keep_the_fastest_block() {
        // Ten blocks; all but the fourth run twice as slow.
        let samples: Vec<Sample> = (0..1000)
            .map(|i| {
                let at = (i / 100) as f64 * BLOCK_SECS + 0.01;
                let slow = i / 100 != 3;
                Sample {
                    at,
                    class: (i % 3) as u32,
                    us: (1 + i % 3) as f64 * if slow { 2.0 } else { 1.0 },
                }
            })
            .collect();
        let quiet = quiet_blocks(&samples, mean);
        assert_eq!(quiet.len(), 100);
        assert!(quiet.iter().all(|&us| us <= 3.0));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let big: Vec<f64> = (1..=2000).map(f64::from).collect();
        let t = tail(&big);
        assert_eq!(t.percentile, 99.0);
        assert_eq!(t.beyond, 20);
        let small: Vec<f64> = (1..=120).map(f64::from).collect();
        let t = tail(&small);
        assert_eq!(t.percentile, 90.0);
        assert!(t.beyond >= 10);
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&v, 0.5), 2.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }
}
