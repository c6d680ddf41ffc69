//! Seeded input generation and open-loop pacing.
//!
//! Everything a workload feeds the program comes from [`Rng`] seeded by
//! the `--seed` argument, so the same seed replays the same inputs and
//! the program under test never sees the seed itself — only the
//! generated requests.

use std::time::{Duration, Instant};

/// SplitMix64: tiny, fast, and stable across platforms and releases,
/// which the seed → input mapping must be.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EED_B3AC_4D3D_1CE5)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }

    /// Exponential inter-arrival gap of a Poisson process at `rate`
    /// events per second.
    pub fn exp_gap(&mut self, rate: f64) -> f64 {
        -(1.0 - self.unit()).ln() / rate
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Skewed key popularity: how many of `total` requests go to each of
/// `keys` keys when key `i` has Zipf weight `1 / (i + 1)^exponent`
/// (largest-remainder rounding, so the counts sum to `total`).
pub fn zipf_counts(keys: usize, exponent: f64, total: usize) -> Vec<usize> {
    let weight: Vec<f64> = (0..keys)
        .map(|rank| 1.0 / ((rank + 1) as f64).powf(exponent))
        .collect();
    let sum: f64 = weight.iter().sum();
    let exact: Vec<f64> = weight.iter().map(|w| w / sum * total as f64).collect();
    let mut counts: Vec<usize> = exact.iter().map(|e| e.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..keys).collect();
    by_remainder
        .sort_by(|&a, &b| (exact[b] - exact[b].floor()).total_cmp(&(exact[a] - exact[a].floor())));
    let short = total - counts.iter().sum::<usize>();
    for &k in by_remainder.iter().take(short) {
        counts[k] += 1;
    }
    counts
}

/// A seeded order over `items` inputs, `blocks` blocks long: every
/// block holds each input once, in a seeded order, so every seed offers
/// the same mix and only the order differs.
pub fn balanced_order(seed: u64, items: usize, blocks: usize) -> Vec<usize> {
    let mut rng = Rng::new(seed);
    (0..blocks)
        .flat_map(|_| {
            let mut block: Vec<usize> = (0..items).collect();
            rng.shuffle(&mut block);
            block
        })
        .collect()
}

/// Seeded Poisson arrival times (seconds from the start) for exactly
/// `count` requests at `rate` per second, rescaled so the last arrival
/// lands at `count / rate`: a fixed count keeps the reported tail
/// percentile the same rung on every seed, and a fixed span keeps the
/// offered rate exact.
pub fn poisson_arrivals(rng: &mut Rng, rate: f64, count: usize) -> Vec<f64> {
    let mut t = 0.0;
    let raw: Vec<f64> = (0..count)
        .map(|_| {
            t += rng.exp_gap(rate);
            t
        })
        .collect();
    let scale = count as f64 / rate / t.max(f64::MIN_POSITIVE);
    raw.into_iter().map(|a| a * scale).collect()
}

/// One open-loop request's timing, all offsets from the loop start.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// When the schedule said to send it.
    pub due: Duration,
    /// When the generator actually sent it.
    pub sent: Duration,
    /// When its response arrived.
    pub done: Duration,
}

impl Timing {
    /// Latency from the *due* time: a stalled generator or a backed-up
    /// server both count against every request scheduled behind them.
    pub fn latency(&self) -> Duration {
        self.done.saturating_sub(self.due)
    }

    /// How late the generator sent the request.
    pub fn late(&self) -> Duration {
        self.sent.saturating_sub(self.due)
    }
}

/// Sends request `i` at `start + due[i]` for every `i`, in order,
/// sleeping until each is due and never waiting for responses. Returns
/// each request's actual send offset. A send that overruns pushes the
/// later ones late; the lateness is recorded, not hidden.
pub fn pace(start: Instant, due: &[Duration], mut send: impl FnMut(usize)) -> Vec<Duration> {
    let mut sent = Vec::with_capacity(due.len());
    for (i, &d) in due.iter().enumerate() {
        let now = start.elapsed();
        if d > now {
            std::thread::sleep(d - now);
        }
        sent.push(start.elapsed());
        send(i);
    }
    sent
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_arrivals_replay_by_seed() {
        let a = poisson_arrivals(&mut Rng::new(7), 50.0, 200);
        let b = poisson_arrivals(&mut Rng::new(7), 50.0, 200);
        let c = poisson_arrivals(&mut Rng::new(8), 50.0, 200);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        // The span is exactly count / rate.
        assert!((a[199] - 4.0).abs() < 1e-9, "span {}", a[199]);
    }

    #[test]
    fn balanced_order_is_seeded_and_balanced() {
        let a = balanced_order(5, 4, 32);
        assert_eq!(a, balanced_order(5, 4, 32));
        assert_ne!(a, balanced_order(6, 4, 32));
        for block in a.chunks(4) {
            let mut sorted = block.to_vec();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2, 3]);
        }
    }

    #[test]
    fn zipf_counts_are_skewed_and_sum_to_the_total() {
        let counts = zipf_counts(12, 1.3, 1000);
        assert_eq!(counts.iter().sum::<usize>(), 1000);
        assert!(counts.windows(2).all(|w| w[0] >= w[1]), "{counts:?}");
        assert!(counts[0] > 4 * counts[11], "{counts:?}");
        assert_eq!(zipf_counts(3, 0.0, 7), vec![3, 2, 2]);
    }

    #[test]
    fn open_loop_latency_counts_from_the_due_time() {
        let due: Vec<Duration> = [0, 5, 10, 15]
            .iter()
            .map(|&ms| Duration::from_millis(ms))
            .collect();
        let start = Instant::now();
        // The first send stalls 40 ms: everything behind it goes late.
        let sent = pace(start, &due, |i| {
            if i == 0 {
                std::thread::sleep(Duration::from_millis(40));
            }
        });
        assert!(sent[1] >= Duration::from_millis(40));
        let done = sent[1] + Duration::from_millis(2);
        let t = Timing {
            due: due[1],
            sent: sent[1],
            done,
        };
        assert!(t.late() >= Duration::from_millis(35));
        // Latency includes the generator's stall, not just the 2 ms the
        // response took after the actual send.
        assert_eq!(t.latency(), done - due[1]);
        assert!(t.latency() >= t.late() + Duration::from_millis(2));
    }
}
