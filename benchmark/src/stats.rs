//! Sample statistics and host resource readings.

/// Median of `xs` (mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics if `xs` is empty.
pub fn median(xs: &[f64]) -> f64 {
    quartiles(xs)[1]
}

/// First, second and third quartile of `xs`, by the same "exclusive"
/// interpolation as Python's `statistics.quantiles(xs, n=4)`, so the
/// spreads printed here equal the ones an external pipeline computes from
/// the raw samples.
///
/// # Panics
///
/// Panics if `xs` is empty.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    assert!(!xs.is_empty(), "quartiles of an empty sample");
    let mut d = xs.to_vec();
    d.sort_by(f64::total_cmp);
    let n = d.len();
    if n == 1 {
        return [d[0]; 3];
    }
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0
    };
    [q(1), q(2), q(3)]
}

/// Inter-quartile range as a share of the median.
pub fn iqr_share(xs: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(xs);
    (q3 - q1) / q2
}

/// `struct rusage` of 64-bit Linux: two `struct timeval` (seconds,
/// microseconds) followed by fourteen `long` counters, `ru_maxrss` first.
#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss_kib: i64,
    _rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

const RUSAGE_SELF: i32 = 0;
const RUSAGE_CHILDREN: i32 = -1;

fn rusage(who: i32) -> RUsage {
    let mut u = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss_kib: 0,
        _rest: [0; 13],
    };
    // SAFETY: `u` is a live, writable value with the layout of the C
    // `struct rusage` on this platform, and getrusage writes only inside
    // that struct.
    let rc = unsafe { getrusage(who, &mut u) };
    assert_eq!(rc, 0, "getrusage({who}) failed");
    u
}

fn cpu_seconds(u: &RUsage) -> f64 {
    (u.utime[0] + u.stime[0]) as f64 + (u.utime[1] + u.stime[1]) as f64 * 1e-6
}

/// User plus system CPU seconds this process has used so far.
pub fn cpu_seconds_self() -> f64 {
    cpu_seconds(&rusage(RUSAGE_SELF))
}

/// User plus system CPU seconds of every child process waited for so far.
pub fn cpu_seconds_children() -> f64 {
    cpu_seconds(&rusage(RUSAGE_CHILDREN))
}

/// Peak resident set of this process, in MB.
pub fn peak_rss_mb_self() -> f64 {
    rusage(RUSAGE_SELF).maxrss_kib as f64 / 1024.0
}

/// Largest peak resident set among the child processes waited for, in MB.
pub fn peak_rss_mb_children() -> f64 {
    rusage(RUSAGE_CHILDREN).maxrss_kib as f64 / 1024.0
}

/// The host CPU's model name, as `/proc/cpuinfo` reports it.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    // Reference values from Python 3: statistics.quantiles(xs, n=4).
    #[test]
    fn quartiles_match_python_exclusive_method() {
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0]), [1.25, 2.5, 3.75]);
        assert_eq!(quartiles(&[5.0, 1.0, 3.0]), [1.0, 3.0, 5.0]);
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
    }

    #[test]
    fn median_and_iqr_share() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(iqr_share(&ten), (8.25 - 2.75) / 5.5);
    }

    #[test]
    fn resource_readings_are_plausible() {
        assert!(peak_rss_mb_self() > 0.0);
        assert!(cpu_seconds_self() >= 0.0);
        assert!(peak_rss_mb_children() >= 0.0);
    }
}
