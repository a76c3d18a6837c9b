//! Order statistics the report is built from: nearest-rank percentiles,
//! the "ten samples beyond" rule, and the median and quartiles over
//! windows.

/// Nearest-rank percentile of an ascending slice: the smallest element
/// with at least `p·len` elements at or below it. `p` in `0.0..=1.0`.
/// `None` on an empty slice.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Sorts `values` in place and returns the nearest-rank percentile.
pub fn percentile(values: &mut [f64], p: f64) -> Option<f64> {
    values.sort_by(f64::total_cmp);
    percentile_sorted(values, p)
}

/// The highest percentile that still leaves at least ten samples
/// beyond it, capped at `cap`: a tail read off fewer samples is noise.
/// `None` when even the median has fewer than ten samples above it.
pub fn supported_percentile(samples: usize, cap: f64) -> Option<f64> {
    if samples < 20 {
        return None;
    }
    Some((1.0 - 10.0 / samples as f64).min(cap))
}

/// The tail of an ascending slice: its value at `cap`, or at the
/// highest percentile the sample supports when that is lower (the
/// median when it supports none). Returns `(value, percentile used)`.
pub fn tail_sorted(sorted: &[f64], cap: f64) -> Option<(f64, f64)> {
    let p = supported_percentile(sorted.len(), cap).unwrap_or(0.5);
    Some((percentile_sorted(sorted, p)?, p))
}

/// Median (nearest rank) of `values`; `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(&mut values.to_vec(), 0.5)
}

/// Median and quartiles of per-window values. A timing metric reports
/// the quartile on its better side ([`quiet`](Self::quiet)).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WindowSummary {
    /// Median over windows.
    pub median: f64,
    /// First quartile over windows.
    pub q1: f64,
    /// Third quartile over windows.
    pub q3: f64,
    /// Number of windows.
    pub windows: usize,
}

impl WindowSummary {
    /// Summarises per-window values; `None` when there is no window.
    pub fn of(per_window: &[f64]) -> Option<WindowSummary> {
        let mut v = per_window.to_vec();
        v.sort_by(f64::total_cmp);
        Some(WindowSummary {
            median: percentile_sorted(&v, 0.5)?,
            q1: percentile_sorted(&v, 0.25)?,
            q3: percentile_sorted(&v, 0.75)?,
            windows: v.len(),
        })
    }

    /// The quartile on the metric's better side: the median of the
    /// quieter half of the windows. What disturbs a window on a shared
    /// host — a neighbour on the cache, a stolen core — only ever makes
    /// it slower, and was seen to cover half the windows of a run, where
    /// the median over all windows follows the neighbour and not the
    /// program. The quiet quartile holds until three quarters of the
    /// windows are disturbed.
    pub fn quiet(&self, lower_is_better: bool) -> f64 {
        if lower_is_better {
            self.q1
        } else {
            self.q3
        }
    }
}

/// 64-bit FNV-1a, folded incrementally: the digest two runs compare to
/// prove they measured the same request stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds one 64-bit word in, byte by byte.
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_textbook_definition() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 0.5), Some(5.0));
        assert_eq!(percentile_sorted(&v, 0.9), Some(9.0));
        assert_eq!(percentile_sorted(&v, 0.91), Some(10.0));
        assert_eq!(percentile_sorted(&v, 0.0), Some(1.0));
        assert_eq!(percentile_sorted(&v, 1.0), Some(10.0));
        assert_eq!(percentile_sorted(&[], 0.5), None);
        let mut unsorted = [3.0, 1.0, 2.0];
        assert_eq!(percentile(&mut unsorted, 0.5), Some(2.0));
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(supported_percentile(19, 0.99), None);
        assert_eq!(supported_percentile(100, 0.99), Some(0.9));
        assert_eq!(supported_percentile(120, 0.9), Some(0.9));
        assert_eq!(supported_percentile(999, 0.99), Some(1.0 - 10.0 / 999.0));
        assert_eq!(supported_percentile(1000, 0.99), Some(0.99));
        assert_eq!(supported_percentile(1_000_000, 0.99), Some(0.99));
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_sorted(&v, 0.99), Some((90.0, 0.9)));
        assert_eq!(tail_sorted(&v[..5], 0.99), Some((3.0, 0.5)));
        assert_eq!(tail_sorted(&[], 0.99), None);
    }

    #[test]
    fn window_summary_is_robust_to_one_slow_window() {
        let mut windows = vec![10.0; 9];
        windows.push(1000.0);
        let s = WindowSummary::of(&windows).unwrap();
        assert_eq!((s.median, s.q1, s.q3, s.windows), (10.0, 10.0, 10.0, 10));
        assert_eq!(WindowSummary::of(&[]), None);
        assert_eq!(median(&[4.0, 1.0, 3.0]), Some(3.0));
    }

    #[test]
    fn the_quiet_quartile_ignores_a_disturbed_half() {
        // Five windows of ten hit by a neighbour: the median moves, the
        // quartile on the better side does not.
        let latency = [19.0, 28.0, 26.0, 33.0, 35.0, 28.5, 18.8, 19.1, 21.7, 19.7];
        let s = WindowSummary::of(&latency).unwrap();
        assert_eq!((s.median, s.quiet(true)), (21.7, 19.1));
        let rate = [95.0, 61.0, 65.0, 57.0, 55.0, 66.0, 92.0, 91.0, 76.0, 88.0];
        let s = WindowSummary::of(&rate).unwrap();
        assert_eq!((s.median, s.quiet(false)), (66.0, 91.0));
        // Three samples: the best of them.
        let s = WindowSummary::of(&[1.6, 1.3, 1.4]).unwrap();
        assert_eq!((s.quiet(true), s.quiet(false)), (1.3, 1.6));
    }

    #[test]
    fn fnv_depends_on_order_and_content() {
        let fold = |ws: &[u64]| {
            let mut f = Fnv::default();
            ws.iter().for_each(|&w| f.word(w));
            f.0
        };
        assert_eq!(fold(&[1, 2]), fold(&[1, 2]));
        assert_ne!(fold(&[1, 2]), fold(&[2, 1]));
        assert_ne!(fold(&[]), fold(&[0]));
    }
}
