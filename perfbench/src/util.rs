//! Small shared pieces: the seeded generator, order statistics, the
//! verdict tally and the metric record.

/// SplitMix64: the benchmark's only source of randomness, so one seed
/// fixes every generated input.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x6a09_e667_f3bc_c909)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// True with probability `pct` percent.
    pub fn chance(&mut self, pct: u64) -> bool {
        self.next_u64() % 100 < pct
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Median of `v` (mean of the two middle values for an even count).
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Nearest-rank `q`-quantile of `v` (`0 < q <= 1`); the default
/// (zero) when empty.
pub fn quantile<T: Copy + Default + PartialOrd>(v: &mut [T], q: f64) -> T {
    if v.is_empty() {
        return T::default();
    }
    v.sort_by(|a, b| a.partial_cmp(b).expect("latencies are never NaN"));
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// A bounded uniform sample (reservoir) of latencies in ms, so that the
/// harness's memory stays flat however many passes a run makes.
pub struct Samples {
    seen: u64,
    items: Vec<f64>,
    rng: Rng,
}

impl Samples {
    const CAP: usize = 1 << 16;

    pub fn new() -> Self {
        Samples {
            seen: 0,
            items: Vec::with_capacity(Self::CAP),
            rng: Rng::new(0),
        }
    }

    pub fn push(&mut self, x: f64) {
        self.seen += 1;
        if self.items.len() < Self::CAP {
            self.items.push(x);
        } else {
            let j = (self.rng.next_u64() % self.seen) as usize;
            if j < Self::CAP {
                self.items[j] = x;
            }
        }
    }

    pub fn clear(&mut self) {
        self.seen = 0;
        self.items.clear();
    }

    /// Nearest-rank `q`-quantile; 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        quantile(&mut self.items.clone(), q)
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Verdicts and invariant checks made against known answers. A wrong
/// verdict is counted, never fatal.
#[derive(Default, Debug)]
pub struct Tally {
    pub attempted: u64,
    pub wrong: u64,
    notes: Vec<String>,
}

impl Tally {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.wrong += 1;
            if self.notes.len() < 20 {
                self.notes.push(what());
            }
        }
    }

    /// Count `n` verdicts of which `wrong` were wrong.
    pub fn check_many(&mut self, n: u64, wrong: u64, what: impl FnOnce() -> String) {
        self.attempted += n;
        if wrong > 0 {
            self.wrong += wrong;
            if self.notes.len() < 20 {
                self.notes.push(what());
            }
        }
    }

    pub fn notes(&self) -> &[String] {
        &self.notes
    }
}

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// Peak resident set size of this process in MiB, from `VmHWM`.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let mut v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&mut v, 0.5), 50);
        assert_eq!(quantile(&mut v, 0.99), 99);
    }

    #[test]
    fn rng_is_deterministic() {
        let (mut a, mut b) = (Rng::new(7), Rng::new(7));
        assert!((0..100).all(|_| a.next_u64() == b.next_u64()));
    }
}
