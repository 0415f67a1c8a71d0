//! Small shared helpers: order statistics, a seeded generator, and the
//! result record every workload fills in.

use std::fmt::Write as _;

/// Median of `v` (0 for an empty slice).
pub fn median(v: &[f64]) -> f64 {
    percentile(v, 50.0)
}

/// Nearest-rank percentile `p` (0..=100) of `v` (0 for an empty slice).
pub fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// SplitMix64: a tiny, well-mixed generator for seeded workload inputs.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and a stream tag, so workloads that draw
    /// several independent sequences keep them apart.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform index in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// What one run measured: ops attempted and failed, plus named metrics
/// with their units, in the order they were recorded.
#[derive(Default)]
pub struct Report {
    /// Operations attempted (experiments, requests or frames).
    pub attempted: u64,
    /// Operations whose output failed a correctness check.
    pub failed: u64,
    /// Human-readable reasons for the first few failures.
    pub failures: Vec<String>,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    /// Records metric `name`.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        match self.metrics.iter_mut().find(|m| m.0 == name) {
            Some(m) => (m.1, m.2) = (value, unit),
            None => self.metrics.push((name.to_owned(), value, unit)),
        }
    }

    /// Counts one failed operation and keeps its reason (first 20 only).
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(why);
        }
    }

    /// The value and unit recorded for `name`, if any.
    pub fn get(&self, name: &str) -> Option<(f64, &'static str)> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| (m.1, m.2))
    }

    /// Checks every recorded metric against the benchmark definition's
    /// lists: its name must be listed, with the same unit.
    pub fn check_definition(&self, lists: &[&[(String, String)]]) -> Result<(), String> {
        for (name, _, unit) in &self.metrics {
            let listed = lists.iter().flat_map(|l| l.iter()).find(|(n, _)| n == name);
            match listed {
                None => return Err(format!("metric `{name}` is not in the benchmark definition")),
                Some((_, u)) if u != unit => {
                    return Err(format!("metric `{name}` is in {unit}, the definition says {u}"))
                }
                Some(_) => {}
            }
        }
        Ok(())
    }

    /// The metrics named in `list`, in its order. With `fill`, a metric this
    /// workload does not measure reads 0; without, it is an error.
    pub fn select(
        &self,
        list: &[(String, String)],
        fill: bool,
    ) -> Result<Vec<(String, f64, String)>, String> {
        list.iter()
            .map(|(name, unit)| match self.get(name) {
                Some((v, _)) => Ok((name.clone(), v, unit.clone())),
                None if fill => Ok((name.clone(), 0.0, unit.clone())),
                None => Err(format!("this workload does not measure `{name}`")),
            })
            .collect()
    }

    /// The one-line result object.
    pub fn result_line(&self, metrics: &[(String, f64, String)]) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, value, unit)) in metrics.iter().enumerate() {
            let v = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                out,
                "{}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}",
                if i == 0 { "" } else { ", " }
            );
        }
        out.push_str("}}");
        out
    }
}
