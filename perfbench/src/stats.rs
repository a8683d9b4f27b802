//! Order statistics for the report.

/// Quartiles `[q1, median, q3]` by the same rule as Python's
/// `statistics.quantiles(data, n=4)` (the "exclusive" method), so the
/// dispersion printed here matches what a reader recomputes from the
/// raw values. A single sample is its own quartiles.
pub fn quartiles(samples: &[f64]) -> [f64; 3] {
    let mut data = samples.to_vec();
    data.sort_by(f64::total_cmp);
    match data.len() {
        0 => [f64::NAN; 3],
        1 => [data[0]; 3],
        len => {
            let m = len as i64 + 1;
            [1, 2, 3].map(|i| {
                let j = (i * m / 4).clamp(1, len as i64 - 1);
                // Negative for tiny samples: Python then extrapolates.
                let delta = (i * m - j * 4) as f64;
                let j = j as usize;
                (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
            })
        }
    }
}

/// Nearest-rank quantile of an already sorted slice, and how many
/// samples lie strictly beyond its rank.
pub fn rank_quantile(sorted: &[f64], q: f64) -> (f64, usize) {
    if sorted.is_empty() {
        return (f64::NAN, 0);
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    (sorted[rank - 1], sorted.len() - rank)
}

/// Arithmetic mean (NaN for no samples).
pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// The fastest latency seen for each operation of a workload, over the
/// repeats the window ran.
///
/// Operations come in parts, each what the window runs as a unit: one
/// file for `compile`, one cold-cache epoch for `serve_mixed`, the whole
/// trace for `serve_hit`. The window runs every part many times, spread
/// over its length, and one closed-loop caller makes every repeat of an
/// operation meet the same program state. A shared host only ever slows
/// work down, in bursts of seconds that can come densely for minutes,
/// and the fastest of repeats spread over the window is the figure those
/// bursts move least: on a 2-vCPU VM, 45-second `compile` runs moved the
/// per-file fastest latency by 5% where their median time slice moved by
/// 25%.
pub struct Fastest {
    /// Per part, the fastest latency of each operation (µs); infinite
    /// until the operation has run.
    parts: Vec<Vec<f64>>,
}

impl Fastest {
    /// Parts with the given numbers of operations.
    pub fn new(part_ops: impl IntoIterator<Item = usize>) -> Fastest {
        Fastest {
            parts: part_ops
                .into_iter()
                .map(|ops| vec![f64::INFINITY; ops])
                .collect(),
        }
    }

    /// Records one run of operation `op` of `part` that took `latency_us`.
    pub fn op(&mut self, part: usize, op: usize, latency_us: f64) {
        let best = &mut self.parts[part][op];
        *best = best.min(latency_us);
    }

    /// The fastest latency of every operation that ran, sorted.
    pub fn latencies(&self) -> Vec<f64> {
        let mut latencies: Vec<f64> = self
            .parts
            .iter()
            .flatten()
            .copied()
            .filter(|l| l.is_finite())
            .collect();
        latencies.sort_by(f64::total_cmp);
        latencies
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let data: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&data), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
    }

    #[test]
    fn fastest_keeps_each_operations_minimum() {
        let mut fastest = Fastest::new([2, 1, 3]);
        for latencies in [[40.0, 30.0], [50.0, 20.0]] {
            for (op, latency) in latencies.into_iter().enumerate() {
                fastest.op(0, op, latency);
            }
        }
        fastest.op(1, 0, 7.0);
        assert_eq!(fastest.latencies(), vec![7.0, 20.0, 40.0]);
    }

    #[test]
    fn rank_quantile_counts_the_tail() {
        let data: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(rank_quantile(&data, 0.99), (990.0, 10));
        assert_eq!(rank_quantile(&data, 0.5), (500.0, 500));
    }
}
