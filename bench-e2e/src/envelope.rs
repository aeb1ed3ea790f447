//! The quiet-host envelope: per (episode, slot), the fastest observation
//! across passes.
//!
//! This host has minute-long slow phases that inflate whole passes by tens
//! of percent, so a per-pass mean or median is not repeatable. Every pass
//! replays bit-identical work (the digest check enforces it), which makes
//! the per-slot minimum a consistent estimator of the undisturbed cost:
//! noise only ever adds time.

/// Sorted-sample percentile at rank `floor((n - 1) * q)`. Rounding down
/// keeps at least `n * (1 - q)` samples beyond the pick.
pub fn percentile(sorted: &[u64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let idx = ((sorted.len() - 1) as f64 * q).floor() as usize;
    sorted[idx] as f64
}

/// Median of the two middle samples (exact midpoint for even counts).
pub fn median(sorted: &[u64]) -> f64 {
    assert!(!sorted.is_empty(), "median of no samples");
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2] as f64
    } else {
        (sorted[n / 2 - 1] as f64 + sorted[n / 2] as f64) / 2.0
    }
}

/// The highest percentile of the ladder that still leaves at least ten
/// samples beyond it, as `(label, q)`. `None` below twenty samples, where
/// not even the median qualifies.
pub fn tail_percentile(samples: usize) -> Option<(&'static str, f64)> {
    // (label, quantile, samples beyond it per ten thousand) - whole numbers,
    // so the "at least ten beyond" test is exact.
    const LADDER: [(&str, f64, usize); 6] = [
        ("p99.99", 0.9999, 1),
        ("p99.9", 0.999, 10),
        ("p99", 0.99, 100),
        ("p95", 0.95, 500),
        ("p90", 0.90, 1_000),
        ("p50", 0.50, 5_000),
    ];
    LADDER
        .into_iter()
        .find(|&(_, _, beyond)| samples.saturating_mul(beyond) >= 10 * 10_000)
        .map(|(label, q, _)| (label, q))
}

/// `(q1, median, q3)`.
pub fn quartiles(sorted: &[u64]) -> (f64, f64, f64) {
    (
        percentile(sorted, 0.25),
        median(sorted),
        percentile(sorted, 0.75),
    )
}

/// Timings of one episode in one pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpisodeTimes {
    /// Construction (`TenantPipeline::new` / `ServeLoop::new`).
    pub setup_ns: u64,
    /// One entry per step, then one for the closing `finish()` / `run()`.
    pub slot_ns: Vec<u64>,
}

impl EpisodeTimes {
    pub fn wall_ns(&self) -> u64 {
        self.setup_ns + self.slot_ns.iter().sum::<u64>()
    }
}

#[derive(Debug, Clone)]
pub struct Envelope {
    /// Fastest timings seen so far, one per episode.
    best: Vec<EpisodeTimes>,
    /// Σ episode walls of each pass, in pass order.
    pass_wall_ns: Vec<u64>,
}

impl Envelope {
    /// Starts the envelope from the first pass.
    pub fn new(first_pass: Vec<EpisodeTimes>) -> Envelope {
        let wall = first_pass.iter().map(EpisodeTimes::wall_ns).sum();
        Envelope {
            best: first_pass,
            pass_wall_ns: vec![wall],
        }
    }

    /// Folds another pass in: per-slot minimum.
    ///
    /// # Panics
    ///
    /// Panics if the pass has a different shape from the first one — every
    /// pass runs the same episodes for the same number of steps.
    pub fn absorb(&mut self, pass: &[EpisodeTimes]) {
        assert_eq!(pass.len(), self.best.len(), "episode count changed");
        for (best, seen) in self.best.iter_mut().zip(pass) {
            assert_eq!(best.slot_ns.len(), seen.slot_ns.len(), "slot count changed");
            best.setup_ns = best.setup_ns.min(seen.setup_ns);
            for (b, &s) in best.slot_ns.iter_mut().zip(&seen.slot_ns) {
                *b = (*b).min(s);
            }
        }
        self.pass_wall_ns
            .push(pass.iter().map(EpisodeTimes::wall_ns).sum());
    }

    pub fn passes(&self) -> usize {
        self.pass_wall_ns.len()
    }

    pub fn pass_wall_ns(&self) -> &[u64] {
        &self.pass_wall_ns
    }

    pub fn longest_pass_ns(&self) -> u64 {
        self.pass_wall_ns.iter().copied().max().unwrap_or(0)
    }

    pub fn episodes(&self) -> &[EpisodeTimes] {
        &self.best
    }

    /// Σ episodes of the fastest construction.
    pub fn setup_ns(&self) -> u64 {
        self.best.iter().map(|e| e.setup_ns).sum()
    }

    /// Σ envelope slots: steps plus the closing slot of every episode.
    pub fn slots_ns(&self) -> u64 {
        self.best.iter().flat_map(|e| &e.slot_ns).sum()
    }

    /// Σ closing slots.
    pub fn finish_ns(&self) -> u64 {
        self.best.iter().filter_map(|e| e.slot_ns.last()).sum()
    }

    /// What an undisturbed pass would have cost.
    pub fn wall_ns(&self) -> u64 {
        self.setup_ns() + self.slots_ns()
    }

    /// Envelope step samples (closing slots excluded) of the steps whose
    /// index satisfies `keep`, sorted.
    pub fn steps_sorted(&self, keep: impl Fn(usize) -> bool) -> Vec<u64> {
        let mut out: Vec<u64> = self
            .best
            .iter()
            .flat_map(|e| {
                let steps = &e.slot_ns[..e.slot_ns.len().saturating_sub(1)];
                steps.iter().enumerate()
            })
            .filter(|(k, _)| keep(*k))
            .map(|(_, &ns)| ns)
            .collect();
        out.sort_unstable();
        out
    }

    /// Median pass wall ÷ envelope wall: how disturbed the host was.
    pub fn pass_spread(&self) -> f64 {
        let mut walls = self.pass_wall_ns.clone();
        walls.sort_unstable();
        median(&walls) / self.wall_ns().max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn times(setup_ns: u64, slot_ns: &[u64]) -> EpisodeTimes {
        EpisodeTimes {
            setup_ns,
            slot_ns: slot_ns.to_vec(),
        }
    }

    #[test]
    fn envelope_is_the_per_slot_minimum() {
        let mut env = Envelope::new(vec![times(100, &[10, 50, 30, 7]), times(90, &[5, 5, 5, 9])]);
        env.absorb(&[times(120, &[12, 20, 31, 8]), times(80, &[6, 4, 9, 3])]);
        env.absorb(&[times(101, &[9, 60, 29, 9]), times(95, &[7, 7, 2, 4])]);
        assert_eq!(
            env.episodes(),
            &[times(100, &[9, 20, 29, 7]), times(80, &[5, 4, 2, 3])]
        );
        assert_eq!(env.passes(), 3);
        assert_eq!(env.setup_ns(), 180);
        assert_eq!(env.slots_ns(), 9 + 20 + 29 + 7 + 5 + 4 + 2 + 3);
        assert_eq!(env.finish_ns(), 7 + 3);
        assert_eq!(env.wall_ns(), 180 + 79);
        assert_eq!(env.pass_wall_ns(), &[311, 293, 323]);
        assert_eq!(env.longest_pass_ns(), 323);
        // Closing slots (7 and 3) are not steps.
        assert_eq!(env.steps_sorted(|_| true), vec![2, 4, 5, 9, 20, 29]);
        assert_eq!(env.steps_sorted(|k| k % 2 == 0), vec![2, 5, 9, 29]);
        assert!((env.pass_spread() - 311.0 / 259.0).abs() < 1e-12);
    }

    #[test]
    fn the_envelope_never_exceeds_any_pass() {
        let passes = [
            vec![times(5, &[3, 9, 4])],
            vec![times(6, &[2, 11, 5])],
            vec![times(4, &[4, 8, 6])],
        ];
        let mut env = Envelope::new(passes[0].clone());
        env.absorb(&passes[1]);
        env.absorb(&passes[2]);
        for pass in &passes {
            assert!(env.wall_ns() <= pass[0].wall_ns());
        }
        assert!(env.pass_spread() >= 1.0);
    }

    #[test]
    #[should_panic(expected = "slot count changed")]
    fn a_pass_of_another_shape_is_a_bug() {
        let mut env = Envelope::new(vec![times(1, &[1, 2])]);
        env.absorb(&[times(1, &[1, 2, 3])]);
    }

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median(&[4]), 4.0);
        assert_eq!(median(&[1, 3]), 2.0);
        assert_eq!(median(&[1, 3, 9]), 3.0);
        assert_eq!(median(&[1, 3, 9, 11]), 6.0);
        let hundred: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&hundred, 0.0), 1.0);
        assert_eq!(percentile(&hundred, 1.0), 100.0);
        assert_eq!(percentile(&hundred, 0.9), 90.0);
        assert_eq!(quartiles(&[1, 2, 3, 4, 5]), (2.0, 3.0, 4.0));
    }

    #[test]
    fn tail_picker_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(("p50", 0.50)));
        assert_eq!(tail_percentile(99), Some(("p50", 0.50)));
        assert_eq!(tail_percentile(100), Some(("p90", 0.90)));
        assert_eq!(tail_percentile(199), Some(("p90", 0.90)));
        assert_eq!(tail_percentile(200), Some(("p95", 0.95)));
        assert_eq!(tail_percentile(999), Some(("p95", 0.95)));
        assert_eq!(tail_percentile(1_000), Some(("p99", 0.99)));
        assert_eq!(tail_percentile(9_999), Some(("p99", 0.99)));
        assert_eq!(tail_percentile(10_000), Some(("p99.9", 0.999)));
        assert_eq!(tail_percentile(100_000), Some(("p99.99", 0.9999)));
        // Whatever the count, ten or more samples lie beyond the pick.
        for n in [20usize, 57, 100, 400, 1_200, 6_000, 123_456] {
            let (_, q) = tail_percentile(n).unwrap();
            let rank = ((n - 1) as f64 * q).floor() as usize;
            assert!(n - 1 - rank >= 10, "n={n}: only {} beyond", n - 1 - rank);
        }
    }
}
