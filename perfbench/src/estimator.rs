//! The benchmark's clock and its fastest-repetition estimator.
//!
//! Noise on a shared virtual machine only ever slows code down, and it
//! comes in stretches: the CPU runs 1.5-2x slower for anything from
//! half a second to a whole run. A workload is therefore cut into short
//! deterministic *jobs* that are repeated round-robin until the time
//! budget runs out. A job may split itself into several *segments* by
//! calling [`Probe::mark`] (a day splits at its gap and session
//! boundaries); each segment is a unit of the estimate. A workload's
//! time is the sum over its units of each unit's fastest repetition:
//! units of a few milliseconds land inside fast windows even during
//! slow stretches, so that sum is steady where whole-pass timings are
//! not.
//!
//! Every repetition also returns a digest of what the job simulated.
//! A repetition counts as failed when its digest differs from the
//! job's pinned digest (default seed only) or from the job's own first
//! repetition.

use std::time::Instant;

use crate::digest::Digest;

/// Reads the host's monotonic clock.
#[must_use]
pub fn now() -> Instant {
    // qlint::allow(ND01, reason = "benchmark stopwatch: host time is the measured output and never reaches the simulation")
    Instant::now()
}

/// Seconds elapsed from `earlier` to `later`.
#[must_use]
pub fn secs_between(earlier: Instant, later: Instant) -> f64 {
    later.saturating_duration_since(earlier).as_secs_f64()
}

/// Number of span accumulators a [`Probe`] carries; span ids index it.
pub const SPAN_SLOTS: usize = 8;

/// The stopwatch handed to one repetition of a job.
#[derive(Debug)]
pub struct Probe {
    marks: Vec<Instant>,
    stopped: Option<Instant>,
    spans_ns: [f64; SPAN_SLOTS],
}

impl Probe {
    fn new() -> Self {
        Probe {
            marks: Vec::with_capacity(256),
            stopped: None,
            spans_ns: [0.0; SPAN_SLOTS],
        }
    }

    fn start(&mut self) {
        self.marks.clear();
        self.stopped = None;
        self.spans_ns = [0.0; SPAN_SLOTS];
        self.marks.push(now());
    }

    /// Closes the current segment and opens the next one.
    pub fn mark(&mut self) {
        self.marks.push(now());
    }

    /// Ends the timed part of the repetition: whatever the job does
    /// afterwards (hashing its outputs, dropping them) is not timed.
    pub fn stop(&mut self) {
        if self.stopped.is_none() {
            self.stopped = Some(now());
        }
    }

    /// Adds host time to span accumulator `slot` (ignored when out of
    /// range).
    pub fn add_span(&mut self, slot: usize, seconds: f64) {
        if let Some(s) = self.spans_ns.get_mut(slot) {
            *s += seconds * 1e9;
        }
    }

    /// Segment durations of the finished repetition, seconds.
    fn segments(&mut self) -> Vec<f64> {
        let end = self.stopped.unwrap_or_else(now);
        self.marks.push(end);
        self.marks
            .windows(2)
            .map(|w| secs_between(w[0], w[1]))
            .collect()
    }
}

/// A job's body: runs the program once from freshly built state and
/// returns the digest of what it simulated.
pub type JobFn<'a> = Box<dyn FnMut(&mut Probe) -> Result<Digest, String> + 'a>;

/// One repeatable piece of a workload.
pub struct Job<'a> {
    /// Label used in failure messages and the run log.
    pub name: String,
    /// Digest every repetition must reproduce, when one is pinned.
    pub pinned: Option<Digest>,
    /// The body.
    pub run: JobFn<'a>,
}

impl std::fmt::Debug for Job<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Job")
            .field("name", &self.name)
            .field("pinned", &self.pinned)
            .finish_non_exhaustive()
    }
}

impl<'a> Job<'a> {
    /// A job with no pinned digest.
    pub fn new(
        name: impl Into<String>,
        run: impl FnMut(&mut Probe) -> Result<Digest, String> + 'a,
    ) -> Self {
        Job {
            name: name.into(),
            pinned: None,
            run: Box::new(run),
        }
    }

    /// Pins the digest every repetition must reproduce.
    #[must_use]
    pub fn pinned(mut self, digest: Option<Digest>) -> Self {
        self.pinned = digest;
        self
    }
}

/// What the estimator learned about one job.
#[derive(Debug, Clone)]
pub struct JobStats {
    /// The job's label.
    pub name: String,
    /// Digest of the first repetition.
    pub digest: Option<Digest>,
    /// Fastest repetition of each segment, seconds.
    pub fastest: Vec<f64>,
    /// Span accumulators of the repetition with the fastest total,
    /// nanoseconds.
    pub spans_ns: [f64; SPAN_SLOTS],
    /// Fastest total of one repetition, seconds.
    pub fastest_total: f64,
    /// Timed seconds of every repetition, one per pass.
    pub rep_s: Vec<f64>,
    /// Repetitions that failed.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
}

impl JobStats {
    fn new(name: &str) -> Self {
        JobStats {
            name: name.to_owned(),
            digest: None,
            fastest: Vec::new(),
            spans_ns: [0.0; SPAN_SLOTS],
            fastest_total: f64::INFINITY,
            rep_s: Vec::new(),
            failed: 0,
            failures: Vec::new(),
        }
    }

    /// Sum of the fastest repetition of each of the job's segments.
    #[must_use]
    pub fn sum_fastest(&self) -> f64 {
        self.fastest.iter().sum()
    }

    /// Repetitions run.
    #[must_use]
    pub fn reps(&self) -> usize {
        self.rep_s.len()
    }

    fn fail(&mut self, message: &str) {
        self.failed += 1;
        if self.failures.len() < 4 {
            self.failures.push(format!("{}: {message}", self.name));
        }
    }

    /// Records one repetition and whether it failed.
    fn record(
        &mut self,
        result: Result<Digest, String>,
        pinned: Option<Digest>,
        segments: Vec<f64>,
        spans_ns: &[f64; SPAN_SLOTS],
    ) {
        let total: f64 = segments.iter().sum();
        self.rep_s.push(total);
        let digest = match result {
            Ok(d) => d,
            Err(e) => return self.fail(&e),
        };
        match self.digest {
            None => {
                self.digest = Some(digest);
                if let Some(pin) = pinned.filter(|&p| p != digest) {
                    return self.fail(&format!(
                        "digest {digest:#018x} differs from the pinned {pin:#018x}"
                    ));
                }
            }
            Some(first) if first != digest => {
                return self.fail(&format!(
                    "digest {digest:#018x} differs from its first repetition {first:#018x}"
                ));
            }
            Some(_) => {}
        }
        if self.fastest.is_empty() {
            self.fastest = segments;
        } else if self.fastest.len() == segments.len() {
            for (best, s) in self.fastest.iter_mut().zip(&segments) {
                *best = best.min(*s);
            }
        } else {
            let had = self.fastest.len();
            return self.fail(&format!(
                "{} segments where the first repetition had {had}",
                segments.len()
            ));
        }
        if total < self.fastest_total {
            self.fastest_total = total;
            self.spans_ns = *spans_ns;
        }
    }
}

/// Outcome of one estimator phase, or of a part of its jobs.
#[derive(Debug, Clone)]
pub struct Estimate {
    /// Per-job statistics, in job order.
    pub jobs: Vec<JobStats>,
}

impl Estimate {
    /// The estimate of jobs `range` alone.
    #[must_use]
    pub fn part(&self, range: std::ops::Range<usize>) -> Estimate {
        Estimate {
            jobs: self
                .jobs
                .get(range)
                .map(<[JobStats]>::to_vec)
                .unwrap_or_default(),
        }
    }

    /// The workload time: the sum over every unit of its fastest
    /// repetition, seconds.
    #[must_use]
    pub fn sum_fastest(&self) -> f64 {
        self.jobs.iter().map(JobStats::sum_fastest).sum()
    }

    /// Units (segments over all jobs) the estimate sums.
    #[must_use]
    pub fn units(&self) -> usize {
        self.jobs.iter().map(|j| j.fastest.len()).sum()
    }

    /// Complete passes over the jobs.
    #[must_use]
    pub fn passes(&self) -> usize {
        self.jobs.iter().map(JobStats::reps).min().unwrap_or(0)
    }

    /// Job repetitions run.
    #[must_use]
    pub fn attempted(&self) -> u64 {
        self.jobs.iter().map(|j| j.reps() as u64).sum()
    }

    /// Repetitions that failed (error, digest mismatch, or a segment
    /// count that changed between repetitions).
    #[must_use]
    pub fn failed(&self) -> u64 {
        self.jobs.iter().map(|j| j.failed).sum()
    }

    /// The first few failure messages of every job.
    #[must_use]
    pub fn failures(&self) -> Vec<String> {
        self.jobs.iter().flat_map(|j| j.failures.clone()).collect()
    }

    /// Median timed seconds of one pass over the jobs.
    #[must_use]
    pub fn median_pass_s(&self) -> f64 {
        let pass_s: Vec<f64> = (0..self.passes())
            .map(|p| self.jobs.iter().map(|j| j.rep_s[p]).sum())
            .collect();
        median(&pass_s)
    }

    /// Median pass over the sum of fastest units: near 1 when the run
    /// saw quiet host time, large when it never met a fast window.
    #[must_use]
    pub fn noise_ratio(&self) -> f64 {
        let fastest = self.sum_fastest();
        if fastest > 0.0 {
            self.median_pass_s() / fastest
        } else {
            0.0
        }
    }

    /// Sum of span accumulator `slot` over every job's fastest
    /// repetition, nanoseconds.
    #[must_use]
    pub fn span_ns(&self, slot: usize) -> f64 {
        self.jobs
            .iter()
            .map(|j| j.spans_ns.get(slot).copied().unwrap_or(0.0))
            .sum()
    }
}

/// Median of `values` (0 for an empty slice).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        0.5 * (sorted[mid - 1] + sorted[mid])
    }
}

/// Repeats `jobs` round-robin, in whole passes, until `deadline` has
/// passed and at least `min_passes` passes are done, and keeps each
/// unit's fastest repetition.
pub fn estimate(jobs: &mut [Job<'_>], deadline: Instant, min_passes: u32) -> Estimate {
    let mut est = Estimate {
        jobs: jobs.iter().map(|j| JobStats::new(&j.name)).collect(),
    };
    let mut probe = Probe::new();
    let mut passes = 0u32;
    while passes < min_passes || now() < deadline {
        for (job, stats) in jobs.iter_mut().zip(&mut est.jobs) {
            probe.start();
            let result = (job.run)(&mut probe);
            let segments = probe.segments();
            stats.record(result, job.pinned, segments, &probe.spans_ns);
        }
        passes += 1;
    }
    est
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn counting_job<'a>(name: &str, digests: &'a [Digest], pin: Option<Digest>) -> Job<'a> {
        let mut calls = 0usize;
        Job::new(name, move |probe: &mut Probe| {
            let d = digests[calls.min(digests.len() - 1)];
            calls += 1;
            probe.mark();
            Ok(d)
        })
        .pinned(pin)
    }

    #[test]
    fn a_digest_that_changes_between_repetitions_is_a_failed_operation() {
        let digests = [7, 7, 8, 7];
        let mut jobs = vec![counting_job("flaky", &digests, None)];
        let est = estimate(&mut jobs, now(), 4);
        assert_eq!(est.attempted(), 4);
        assert_eq!(est.failed(), 1, "{:?}", est.failures());
        assert!(est.failures()[0].contains("first repetition"));
    }

    #[test]
    fn a_digest_that_differs_from_the_pinned_one_is_a_failed_operation() {
        let digests = [7];
        let mut jobs = vec![
            counting_job("pinned-ok", &digests, Some(7)),
            counting_job("pinned-bad", &digests, Some(9)),
        ];
        let est = estimate(&mut jobs, now(), 3);
        assert_eq!(est.attempted(), 6);
        assert_eq!(est.failed(), 1, "{:?}", est.failures());
        assert!(est.failures()[0].starts_with("pinned-bad"));
        assert_eq!(est.part(1..2).failed(), 1);
        assert_eq!(est.part(0..1).failed(), 0);
    }

    #[test]
    fn errors_and_changed_segment_counts_are_failed_operations() {
        let mut calls = 0u32;
        let mut jobs = vec![
            Job::new("err", |_: &mut Probe| Err("boom".to_owned())),
            Job::new("segments", move |probe: &mut Probe| {
                calls += 1;
                if calls == 2 {
                    probe.mark();
                }
                Ok(1)
            }),
        ];
        let est = estimate(&mut jobs, now(), 2);
        assert_eq!(est.attempted(), 4);
        assert_eq!(est.failed(), 3, "{:?}", est.failures());
    }

    #[test]
    fn the_estimate_keeps_each_segments_fastest_repetition() {
        let mut calls = 0u64;
        let mut jobs = vec![Job::new("sleepy", move |probe: &mut Probe| {
            calls += 1;
            // Alternate which segment is slow: the fastest of each
            // segment comes from a different repetition.
            let (a, b) = if calls.is_multiple_of(2) {
                (1, 6)
            } else {
                (6, 1)
            };
            std::thread::sleep(Duration::from_millis(a));
            probe.mark();
            std::thread::sleep(Duration::from_millis(b));
            probe.stop();
            std::thread::sleep(Duration::from_millis(5));
            Ok(0)
        })];
        let est = estimate(&mut jobs, now(), 4);
        assert_eq!(est.failed(), 0);
        assert_eq!(est.units(), 2);
        let fastest = est.sum_fastest();
        assert!(fastest >= 0.002, "{fastest}");
        assert!(
            fastest < 0.007,
            "untimed tail or slow segments leaked: {fastest}"
        );
        assert!(est.noise_ratio() > 1.5);
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
