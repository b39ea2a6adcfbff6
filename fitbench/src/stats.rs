//! Named samples and the order statistics reported from them.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Paces measurement rounds within a time budget: the first round always
/// runs, and a later one starts only if, at the previous round's length, it
/// would end no more than half a round past the budget.
pub struct RoundClock {
    budget: Duration,
    start: Instant,
    last_start: Option<Instant>,
    rounds: usize,
}

impl RoundClock {
    /// Starts the clock.
    pub fn new(budget: Duration) -> Self {
        RoundClock {
            budget,
            start: Instant::now(),
            last_start: None,
            rounds: 0,
        }
    }

    /// Whether to run another round; counts it if so.
    pub fn next_round(&mut self) -> bool {
        let now = Instant::now();
        let go = match self.last_start {
            None => true,
            Some(prev) => (now - self.start) + (now - prev) / 2 <= self.budget,
        };
        if go {
            self.last_start = Some(now);
            self.rounds += 1;
        }
        go
    }

    /// Rounds started so far.
    pub fn rounds(&self) -> usize {
        self.rounds
    }
}

/// Samples per metric name, in recording order.
#[derive(Debug, Default)]
pub struct Samples {
    by_name: BTreeMap<String, Vec<f64>>,
}

impl Samples {
    /// Records one sample.
    pub fn push(&mut self, name: &str, value: f64) {
        self.by_name
            .entry(name.to_string())
            .or_default()
            .push(value);
    }

    /// The samples recorded under `name`.
    pub fn get(&self, name: &str) -> &[f64] {
        self.by_name.get(name).map_or(&[], Vec::as_slice)
    }

    /// Median of the samples under `name`, if any.
    pub fn median(&self, name: &str) -> Option<f64> {
        median(self.get(name))
    }
}

/// Median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// `(min, max)` of the samples.
pub fn range(values: &[f64]) -> Option<(f64, f64)> {
    let min = values.iter().copied().min_by(f64::total_cmp)?;
    let max = values.iter().copied().max_by(f64::total_cmp)?;
    Some((min, max))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn range_and_named_samples() {
        let mut s = Samples::default();
        s.push("a", 2.0);
        s.push("a", 5.0);
        s.push("a", 1.0);
        assert_eq!(s.get("a"), &[2.0, 5.0, 1.0]);
        assert_eq!(s.median("a"), Some(2.0));
        assert_eq!(range(s.get("a")), Some((1.0, 5.0)));
        assert!(s.get("b").is_empty());
    }
}
