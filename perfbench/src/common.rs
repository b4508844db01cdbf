//! Pieces every workload shares: metric records, output checks,
//! order statistics, the process's peak memory and the host record.

use netbench::{fnv1a_fold, FNV_OFFSET};
use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

/// The output checks of one run. A failed check fails the run and
/// counts as a failed operation.
#[derive(Debug, Default)]
pub struct Checks {
    /// Checks evaluated.
    pub run: u64,
    /// Description of every check that failed.
    pub failures: Vec<String>,
}

impl Checks {
    /// Records one check; `what` describes it for the failure list.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.run += 1;
        if !ok {
            self.failures.push(what());
        }
    }
}

/// What one run of one workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: packets offered (serve) or grid jobs
    /// (grid), plus the output checks.
    pub attempted: u64,
    /// Operations that failed, failed checks included.
    pub failed: u64,
    /// The output checks.
    pub checks: Checks,
    /// The reported metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Sets a metric's value; panics on a name the workload does not
    /// report, which is a bug in this benchmark.
    pub fn set(&mut self, name: &str, value: f64) {
        let m = self
            .metrics
            .iter_mut()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("unknown metric {name}"));
        m.value = value;
    }

    /// `true` when every check passed and every value is a finite
    /// number.
    pub fn correct(&self) -> bool {
        self.checks.failures.is_empty() && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The result line: one JSON object with exactly the keys
    /// `correct`, `attempted`, `failed` and `metrics`.
    pub fn json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed + self.checks.failures.len() as u64,
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                s,
                "{}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                if i == 0 { "" } else { ", " },
                m.name,
                value,
                m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// The median of `xs` (mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The `q`-quantile of `xs` by nearest rank (`q` in `[0, 1]`).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of nothing");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Index of the bucket holding the `q` quantile (`q` in `[0, 1]`) of a
/// histogram; `None` for an empty histogram.
pub fn hist_quantile_bucket(buckets: &[u64], q: f64) -> Option<usize> {
    let total: u64 = buckets.iter().sum();
    let target = (q * total as f64).ceil().max(1.0) as u64;
    let mut seen = 0;
    buckets.iter().position(|n| {
        seen += n;
        seen >= target
    })
}

/// Upper edge, in microseconds, of the log2 bucket holding the `q`
/// quantile of a histogram whose bucket `i` counts spans with
/// `floor(log2(us)) == i`. Returns 0 for an empty histogram.
pub fn log2_hist_quantile_us(buckets: &[u64], q: f64) -> f64 {
    hist_quantile_bucket(buckets, q).map_or(0.0, |i| (1u64 << (i + 1)) as f64)
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Runs `exe` (this benchmark's binary in one of its child modes) with
/// `args`, waits for it to end, and returns the fields after `tag` on
/// the last standard-output line that starts with it. `None` when the
/// child failed or printed no such line.
pub fn run_child(exe: &Path, args: &[&str], tag: &str) -> Option<Vec<String>> {
    let output = Command::new(exe).args(args).output().ok()?;
    if !output.status.success() {
        return None;
    }
    let text = String::from_utf8_lossy(&output.stdout);
    let line = text
        .lines()
        .rev()
        .find_map(|l| l.strip_prefix(tag)?.strip_prefix(' '))?;
    Some(line.split_whitespace().map(str::to_string).collect())
}

/// SplitMix64: derives independent sub-seeds from the run's `--seed`.
pub fn mix_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The commit the sources came from: `.git/HEAD` resolved by hand, so
/// nothing outside the working directory is read. `"unknown"` in a
/// checkout without `.git`.
pub fn commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .map_or_else(|_| "unknown".into(), |c| c.trim().to_string()),
        None => head,
    }
}

/// A digest of the program's sources (`Cargo.toml`, `Cargo.lock` and
/// every file under `crates/`), which names the code measured even in
/// a checkout without git history.
pub fn source_digest() -> String {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else {
                files.push(p);
            }
        }
    }
    let mut files = vec!["Cargo.toml".into(), "Cargo.lock".into()];
    walk(Path::new("crates"), &mut files);
    files.sort();
    let mut h = FNV_OFFSET;
    for f in &files {
        h = fnv1a_fold(h, f.to_string_lossy().bytes());
        if let Ok(bytes) = std::fs::read(f) {
            h = fnv1a_fold(h, bytes);
        }
    }
    format!("{h:016x}")
}

/// Logical cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.99), 99.0);
        assert_eq!(quantile(&xs, 0.5), 50.0);
        assert_eq!(quantile(&[7.0], 0.0), 7.0);
    }

    #[test]
    fn hist_quantile_reports_upper_bucket_edge() {
        // 90 spans in [4, 8) us, 10 in [64, 128) us.
        let mut b = vec![0u64; 16];
        b[2] = 90;
        b[6] = 10;
        assert_eq!(log2_hist_quantile_us(&b, 0.5), 8.0);
        assert_eq!(log2_hist_quantile_us(&b, 0.99), 128.0);
        assert_eq!(log2_hist_quantile_us(&[0, 0], 0.5), 0.0);
    }

    #[test]
    fn result_line_has_exactly_four_keys() {
        let mut o = Outcome {
            attempted: 3,
            metrics: vec![Metric {
                name: "pkt_per_s",
                unit: "1/s",
                value: 0.0,
            }],
            ..Outcome::default()
        };
        o.set("pkt_per_s", 12.5);
        o.checks.check(false, || "broken".into());
        assert_eq!(
            o.json(),
            "{\"correct\": false, \"attempted\": 3, \"failed\": 1, \
             \"metrics\": {\"pkt_per_s\": {\"value\": 12.5, \"unit\": \"1/s\"}}}"
        );
    }
}
