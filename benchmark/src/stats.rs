//! Order statistics, slice rates and the two `/proc` parsers.

/// Nearest-rank percentile of an ascending slice (`p` in 0..=100).
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted values (mean of the middle two when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (exclusive method), so the spreads printed here are the ones
/// the acceptance check computes. Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Units per second as the median over equal parts of the window: at most
/// `max_slices`, and few enough that a slice holds some 64 events — with
/// 7 events to a slice the median slice moved in steps of a seventh.
/// `events` are `(completion time in ns since the window opened, units)`.
/// The plain mean moved ±20% with tail noise on the sizing host; the
/// median slice does not.
pub fn slice_rate_median(events: &[(u64, u64)], window_ns: u64, max_slices: usize) -> f64 {
    assert!(window_ns > 0 && max_slices > 0);
    let slices = (events.len() / 64).clamp(1, max_slices);
    let mut per_slice = vec![0u64; slices];
    for &(t, units) in events {
        let i = ((t as u128 * slices as u128) / window_ns as u128) as usize;
        per_slice[i.min(slices - 1)] += units;
    }
    let slice_s = window_ns as f64 / slices as f64 / 1e9;
    let rates: Vec<f64> = per_slice.iter().map(|&u| u as f64 / slice_s).collect();
    median(&rates)
}

/// `utime + stime` in clock ticks from the text of `/proc/<pid>/stat`.
/// The command name (field 2) may itself contain spaces and parentheses,
/// so fields are counted from the last `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Peak resident set (`VmHWM`, kB) from the text of `/proc/<pid>/status`.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_ascii_whitespace().nth(1)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 90.0), 90);
        assert_eq!(percentile(&v, 99.9), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[7], 99.0), 7);
    }

    #[test]
    fn median_and_quartiles_match_python() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }

    #[test]
    fn slice_rate_ignores_one_stalled_slice() {
        // 4 slices of 1 s; three carry 100 units, one stalled at 10.
        let mut events = Vec::new();
        for s in 0..4u64 {
            for e in 0..64u64 {
                let units = if s == 2 && e > 5 { 0 } else { 100 };
                events.push((s * 1_000_000_000 + e * 1_000_000, units));
            }
        }
        assert_eq!(slice_rate_median(&events, 4_000_000_000, 4), 6400.0);
        // Too few events for four slices: one slice, the plain rate.
        assert_eq!(
            slice_rate_median(&events[..100], 4_000_000_000, 4),
            10_000.0 / 4.0
        );
        // An event stamped exactly at the window's end lands in the last slice.
        assert_eq!(slice_rate_median(&[(1_000, 5)], 1_000, 1), 5.0 / 1e-6);
    }

    #[test]
    fn proc_stat_survives_a_hostile_comm() {
        let stat = "1234 (ge dd) x) S 1 1234 1234 0 -1 4194304 500 0 0 0 \
                    37 5 0 0 20 0 3 0 100 1000000 200 18446744073709551615";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(42));
        assert_eq!(parse_stat_cpu_ticks("garbage"), None);
    }

    #[test]
    fn vm_hwm_is_found_by_name() {
        let status = "Name:\tgedd\nVmPeak:\t  300000 kB\nVmHWM:\t  184320 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(184_320));
        assert_eq!(parse_vm_hwm_kb("Name:\tgedd\n"), None);
    }
}
