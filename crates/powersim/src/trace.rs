//! Power traces: time series of per-block power.

/// A time series of per-block power samples.
///
/// Samples are uniformly spaced `dt` seconds apart; each sample holds one
/// wattage per floorplan block, in floorplan order.
///
/// # Examples
///
/// ```
/// use hotiron_powersim::PowerTrace;
///
/// // Two blocks held at 3 W and 1 W for 2 ms, sampled every 10 µs.
/// let t = PowerTrace::constant(&[3.0, 1.0], 1e-5, 2e-3);
/// assert_eq!(t.len(), 200);
/// assert_eq!(t.block_count(), 2);
/// assert_eq!(t.total(0), 4.0);
/// assert_eq!(t.average(), vec![3.0, 1.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PowerTrace {
    dt: f64,
    block_count: usize,
    /// Flattened `len x block_count`.
    data: Vec<f64>,
}

impl PowerTrace {
    /// Creates an empty trace.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is not positive or `block_count` is zero.
    pub fn new(dt: f64, block_count: usize) -> Self {
        assert!(dt.is_finite() && dt > 0.0, "dt must be positive");
        assert!(block_count > 0, "need at least one block");
        Self { dt, block_count, data: Vec::new() }
    }

    /// Appends one sample.
    ///
    /// # Panics
    ///
    /// Panics if `sample.len()` differs from the block count.
    pub fn push(&mut self, sample: &[f64]) {
        assert_eq!(sample.len(), self.block_count, "one value per block");
        self.data.extend_from_slice(sample);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.data.len() / self.block_count
    }

    /// Whether the trace has no samples.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Seconds between samples.
    pub fn dt(&self) -> f64 {
        self.dt
    }

    /// Number of blocks per sample.
    pub fn block_count(&self) -> usize {
        self.block_count
    }

    /// Total trace duration, s.
    pub fn duration(&self) -> f64 {
        self.len() as f64 * self.dt
    }

    /// Sample `i` as a slice of per-block watts.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn sample(&self, i: usize) -> &[f64] {
        let lo = i * self.block_count;
        &self.data[lo..lo + self.block_count]
    }

    /// Per-block time-average power.
    pub fn average(&self) -> Vec<f64> {
        let n = self.len().max(1) as f64;
        let mut avg = vec![0.0; self.block_count];
        for i in 0..self.len() {
            for (a, v) in avg.iter_mut().zip(self.sample(i)) {
                *a += v;
            }
        }
        for a in &mut avg {
            *a /= n;
        }
        avg
    }

    /// Total chip power of sample `i`, W.
    pub fn total(&self, i: usize) -> f64 {
        self.sample(i).iter().sum()
    }

    /// A constant trace holding `powers` for `duration` seconds.
    ///
    /// # Panics
    ///
    /// Panics if `powers` is empty.
    pub fn constant(powers: &[f64], dt: f64, duration: f64) -> Self {
        let mut t = Self::new(dt, powers.len());
        let n = (duration / dt).round().max(1.0) as usize;
        for _ in 0..n {
            t.push(powers);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_sample() {
        let mut t = PowerTrace::new(1e-6, 2);
        t.push(&[1.0, 2.0]);
        t.push(&[3.0, 4.0]);
        assert_eq!(t.len(), 2);
        assert_eq!(t.sample(1), &[3.0, 4.0]);
        assert_eq!(t.total(0), 3.0);
        assert!((t.duration() - 2e-6).abs() < 1e-18);
    }

    #[test]
    fn average_over_samples() {
        let mut t = PowerTrace::new(1.0, 1);
        t.push(&[2.0]);
        t.push(&[4.0]);
        assert_eq!(t.average(), vec![3.0]);
    }

    #[test]
    fn constant_trace() {
        let t = PowerTrace::constant(&[1.0, 2.0], 0.5, 2.0);
        assert_eq!(t.len(), 4);
        assert_eq!(t.sample(3), &[1.0, 2.0]);
    }
}
