//! Threshold-triggered dynamic thermal management.

/// Whether DTM is currently throttling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DtmState {
    /// Full speed.
    Running,
    /// Throttled (dynamic power scaled down).
    Engaged,
}

/// Cumulative DTM statistics.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DtmStats {
    /// Number of distinct engagements.
    pub engagements: usize,
    /// Total time spent throttled, s.
    pub throttled_time: f64,
    /// Total observed time, s.
    pub total_time: f64,
    /// Samples where the *true* temperature exceeded the trigger while DTM
    /// was not engaged (missed violations).
    pub missed_violations: usize,
}

impl DtmStats {
    /// Fraction of time spent throttled — the performance-penalty proxy
    /// (`throttle` slows the core while engaged).
    pub fn duty(&self) -> f64 {
        if self.total_time > 0.0 {
            self.throttled_time / self.total_time
        } else {
            0.0
        }
    }
}

/// A threshold DTM controller with hysteresis and a minimum engagement
/// duration (the §5.1 "engagement duration" knob).
///
/// When the sensed maximum temperature crosses `trigger`, dynamic power is
/// scaled by `throttle` for at least `min_engagement` seconds, and until the
/// sensed temperature falls below `release`.
///
/// # Examples
///
/// ```
/// use hotiron_dtm::ThresholdDtm;
///
/// let mut dtm = ThresholdDtm::new(85.0, 82.0, 0.5, 3e-3);
/// assert_eq!(dtm.update(80.0, 80.0, 0.0), 1.0); // cool: full speed
/// assert_eq!(dtm.update(86.0, 86.0, 1e-3), 0.5); // hot: throttled
/// ```
#[derive(Debug, Clone)]
pub struct ThresholdDtm {
    trigger: f64,
    release: f64,
    throttle: f64,
    min_engagement: f64,
    state: DtmState,
    engaged_at: f64,
    last_time: Option<f64>,
    stats: DtmStats,
}

impl ThresholdDtm {
    /// Creates a controller.
    ///
    /// # Panics
    ///
    /// Panics if `release > trigger`, `throttle` is outside `(0, 1]`, or the
    /// engagement duration is negative.
    pub fn new(trigger: f64, release: f64, throttle: f64, min_engagement: f64) -> Self {
        assert!(release <= trigger, "release must not exceed trigger");
        assert!(throttle > 0.0 && throttle <= 1.0, "throttle factor must be in (0, 1]");
        assert!(min_engagement >= 0.0, "engagement duration must be non-negative");
        Self {
            trigger,
            release,
            throttle,
            min_engagement,
            state: DtmState::Running,
            engaged_at: 0.0,
            last_time: None,
            stats: DtmStats::default(),
        }
    }

    /// Trigger threshold, °C.
    pub fn trigger(&self) -> f64 {
        self.trigger
    }

    /// Current state.
    pub fn state(&self) -> DtmState {
        self.state
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> DtmStats {
        self.stats
    }

    /// Advances the controller to time `now` with the *sensed* maximum
    /// temperature and the *true* maximum (for missed-violation accounting;
    /// pass the sensed value twice if ground truth is unknown). Returns the
    /// dynamic-power factor to apply: 1.0 (full speed) or the throttle
    /// factor.
    pub fn update(&mut self, sensed_max: f64, true_max: f64, now: f64) -> f64 {
        let dt = self.last_time.map_or(0.0, |t| (now - t).max(0.0));
        self.last_time = Some(now);
        self.stats.total_time += dt;
        if self.state == DtmState::Engaged {
            self.stats.throttled_time += dt;
        }
        match self.state {
            DtmState::Running => {
                if true_max > self.trigger && sensed_max <= self.trigger {
                    self.stats.missed_violations += 1;
                }
                if sensed_max > self.trigger {
                    self.state = DtmState::Engaged;
                    self.engaged_at = now;
                    self.stats.engagements += 1;
                }
            }
            DtmState::Engaged => {
                let held = now - self.engaged_at;
                if held >= self.min_engagement && sensed_max < self.release {
                    self.state = DtmState::Running;
                }
            }
        }
        match self.state {
            DtmState::Running => 1.0,
            DtmState::Engaged => self.throttle,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engages_and_releases_with_hysteresis() {
        let mut dtm = ThresholdDtm::new(85.0, 82.0, 0.5, 0.0);
        assert_eq!(dtm.update(80.0, 80.0, 0.0), 1.0);
        assert_eq!(dtm.update(86.0, 86.0, 1.0), 0.5);
        // Between release and trigger: stays engaged.
        assert_eq!(dtm.update(83.0, 83.0, 2.0), 0.5);
        // Below release: released.
        assert_eq!(dtm.update(81.0, 81.0, 3.0), 1.0);
        assert_eq!(dtm.stats().engagements, 1);
    }

    #[test]
    fn honors_min_engagement() {
        let mut dtm = ThresholdDtm::new(85.0, 82.0, 0.5, 5.0);
        dtm.update(86.0, 86.0, 0.0);
        // Cool again immediately, but must stay engaged for 5 s.
        assert_eq!(dtm.update(70.0, 70.0, 1.0), 0.5);
        assert_eq!(dtm.update(70.0, 70.0, 4.9), 0.5);
        assert_eq!(dtm.update(70.0, 70.0, 5.1), 1.0);
    }

    #[test]
    fn accumulates_throttled_time() {
        let mut dtm = ThresholdDtm::new(85.0, 82.0, 0.5, 0.0);
        dtm.update(90.0, 90.0, 0.0);
        dtm.update(90.0, 90.0, 1.0);
        dtm.update(90.0, 90.0, 2.0);
        dtm.update(70.0, 70.0, 3.0);
        let s = dtm.stats();
        assert!((s.throttled_time - 3.0).abs() < 1e-12, "{s:?}");
        assert!((s.total_time - 3.0).abs() < 1e-12);
        assert!((s.duty() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn counts_missed_violations() {
        let mut dtm = ThresholdDtm::new(85.0, 82.0, 0.5, 0.0);
        // Sensor under-reads: true temperature violates, sensed does not.
        dtm.update(84.0, 88.0, 0.0);
        assert_eq!(dtm.stats().missed_violations, 1);
        assert_eq!(dtm.state(), DtmState::Running);
    }

    #[test]
    fn repeated_engagements_counted() {
        let mut dtm = ThresholdDtm::new(85.0, 82.0, 0.5, 0.0);
        for i in 0..3 {
            let t = i as f64 * 2.0;
            dtm.update(90.0, 90.0, t);
            dtm.update(70.0, 70.0, t + 1.0);
        }
        assert_eq!(dtm.stats().engagements, 3);
    }

    #[test]
    #[should_panic(expected = "release must not exceed trigger")]
    fn rejects_inverted_hysteresis() {
        let _ = ThresholdDtm::new(80.0, 85.0, 0.5, 0.0);
    }
}
