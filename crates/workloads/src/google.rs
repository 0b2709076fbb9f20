//! Google cluster-trace synthesis and the §9.3 offload analysis.
//!
//! The paper mines the 2011 Google cluster trace for transient effects:
//! 90 % of resource utilisation comes from jobs longer than two hours
//! though they are only ~5 % of jobs; 1.39 M unique tasks use ≥ 10 % of a
//! core for ≥ 5 minutes (offload candidates); but the average node runs
//! 7.7 such cores' worth of tasks per 5-minute window, diluting the
//! saving. The real trace is not distributable here, so [`GoogleTrace`]
//! synthesizes tasks whose aggregates match the published statistics and
//! the same analysis code runs against it.

use inc_sim::{Nanos, Rng};

/// One synthesized task.
#[derive(Clone, Copy, Debug)]
pub struct Task {
    /// Start time.
    pub start: Nanos,
    /// Duration.
    pub duration: Nanos,
    /// Mean CPU usage in cores (normalized like the trace, 0..~4).
    pub cpu_cores: f64,
    /// Node the task is scheduled on.
    pub node: u32,
}

/// A synthesized cluster trace.
#[derive(Clone, Debug)]
pub struct GoogleTrace {
    /// All tasks.
    pub tasks: Vec<Task>,
    /// Number of nodes in the synthesized cluster.
    pub nodes: u32,
    /// Trace horizon.
    pub horizon: Nanos,
}

impl GoogleTrace {
    /// Synthesizes a trace over `nodes` nodes and `horizon`.
    ///
    /// The task mix is bimodal, as the published analysis requires:
    /// ~95 % short tasks (minutes, small CPU) and ~5 % long tasks
    /// (> 2 h, larger CPU), with the long tail carrying ~90 % of the
    /// core-seconds.
    pub fn synthesize(rng: &mut Rng, nodes: u32, horizon: Nanos, tasks_per_node: usize) -> Self {
        let mut tasks = Vec::with_capacity(nodes as usize * tasks_per_node);
        for node in 0..nodes {
            for _ in 0..tasks_per_node {
                let long = rng.chance(0.05);
                let (duration, cpu) = if long {
                    // Long jobs: 2-20 h, 0.3-2 cores.
                    let hours = 2.0 + rng.exp(4.0).min(18.0);
                    let cpu = 0.3 + rng.f64() * 1.7;
                    (Nanos::from_secs_f64(hours * 3600.0), cpu)
                } else {
                    // Short jobs: 1 - 30 min, light-to-moderate CPU,
                    // weighted so long jobs carry ~90 % of core-seconds.
                    let mins = 1.0 + rng.exp(5.5).min(29.0);
                    let cpu = 0.05 + rng.f64() * 0.45;
                    (Nanos::from_secs_f64(mins * 60.0), cpu)
                };
                let latest_start = horizon.saturating_sub(duration);
                let start = if latest_start == Nanos::ZERO {
                    Nanos::ZERO
                } else {
                    Nanos::from_nanos(rng.range_u64(0, latest_start.as_nanos()))
                };
                tasks.push(Task {
                    start,
                    duration,
                    cpu_cores: cpu,
                    node,
                });
            }
        }
        GoogleTrace {
            tasks,
            nodes,
            horizon,
        }
    }

    /// Total core-seconds in the trace.
    pub fn total_core_seconds(&self) -> f64 {
        self.tasks
            .iter()
            .map(|t| t.cpu_cores * t.duration.as_secs_f64())
            .sum()
    }

    /// Fraction of core-seconds contributed by tasks longer than `cut`.
    pub fn utilization_share_of_long_tasks(&self, cut: Nanos) -> f64 {
        let long: f64 = self
            .tasks
            .iter()
            .filter(|t| t.duration > cut)
            .map(|t| t.cpu_cores * t.duration.as_secs_f64())
            .sum();
        long / self.total_core_seconds()
    }

    /// Fraction of *tasks* longer than `cut`.
    pub fn task_share_longer_than(&self, cut: Nanos) -> f64 {
        let n = self.tasks.iter().filter(|t| t.duration > cut).count();
        n as f64 / self.tasks.len() as f64
    }

    /// §9.3 offload candidates: tasks using at least `min_cores` of a core
    /// for at least `min_duration`.
    pub fn offload_candidates(&self, min_cores: f64, min_duration: Nanos) -> Vec<&Task> {
        self.offload_candidates_iter(min_cores, min_duration)
            .collect()
    }

    /// Streaming twin of [`GoogleTrace::offload_candidates`]: yields the
    /// qualifying tasks without materialising a `Vec` per query (the
    /// per-request path of heavy-traffic replays scans candidates every
    /// interval).
    pub fn offload_candidates_iter(
        &self,
        min_cores: f64,
        min_duration: Nanos,
    ) -> impl Iterator<Item = &Task> {
        self.tasks
            .iter()
            .filter(move |t| t.cpu_cores >= min_cores && t.duration >= min_duration)
    }

    /// §9.3 dilution metric: the average, over 5-minute windows and nodes,
    /// of candidate cores running concurrently on a node.
    pub fn mean_candidate_cores_per_node(&self, min_cores: f64, min_duration: Nanos) -> f64 {
        let window = Nanos::from_secs(300);
        let windows = (self.horizon.as_nanos() / window.as_nanos()).max(1);
        let mut total = 0.0;
        for t in self.offload_candidates_iter(min_cores, min_duration) {
            // A task contributes its CPU to every window it overlaps.
            let first = t.start.as_nanos() / window.as_nanos();
            let last = (t.start + t.duration).as_nanos() / window.as_nanos();
            let overlapped = (last - first + 1).min(windows);
            total += t.cpu_cores * overlapped as f64;
        }
        total / (windows as f64 * self.nodes as f64)
    }
}

/// The published §9.3 reference numbers, for the regeneration harness.
pub mod reference {
    /// Offload candidates in the full trace ("more than 1.39 million
    /// unique tasks").
    pub const OFFLOAD_CANDIDATE_TASKS: u64 = 1_390_000;
    /// Mean candidate (normalized) cores per node per 5-minute sample.
    pub const CANDIDATE_CORES_PER_NODE: f64 = 7.7;
    /// Share of resource utilisation in jobs longer than two hours.
    pub const LONG_JOB_UTILIZATION_SHARE: f64 = 0.90;
    /// Share of jobs that are that long.
    pub const LONG_JOB_COUNT_SHARE: f64 = 0.05;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace() -> GoogleTrace {
        // 500 tasks/node/day puts the candidate density in the published
        // regime (~7.7 candidate cores per node per 5-minute window).
        let mut rng = Rng::new(42);
        GoogleTrace::synthesize(&mut rng, 100, Nanos::from_secs(24 * 3600), 500)
    }

    #[test]
    fn long_jobs_dominate_utilization() {
        let t = trace();
        let cut = Nanos::from_secs(2 * 3600);
        let share = t.utilization_share_of_long_tasks(cut);
        // §9.3: "90% of resource utilization is by jobs longer than two
        // hours, though these jobs represent only 5% of the total".
        assert!((0.80..0.97).contains(&share), "utilization share {share}");
        let count_share = t.task_share_longer_than(cut);
        assert!(
            (0.02..0.09).contains(&count_share),
            "count share {count_share}"
        );
    }

    #[test]
    fn candidates_exist_and_dilute() {
        let t = trace();
        let min = Nanos::from_secs(300);
        let candidates = t.offload_candidates(0.10, min);
        assert!(!candidates.is_empty());
        let per_node = t.mean_candidate_cores_per_node(0.10, min);
        // The dilution effect: several candidate cores per node at once,
        // same order as the published 7.7.
        assert!((2.0..20.0).contains(&per_node), "per node {per_node}");
    }

    #[test]
    fn candidate_filter_respects_thresholds() {
        let t = trace();
        let all = t.tasks.len();
        let some = t.offload_candidates(0.10, Nanos::from_secs(300)).len();
        let fewer = t.offload_candidates(0.50, Nanos::from_secs(3600)).len();
        assert!(some < all);
        assert!(fewer < some);
    }

    #[test]
    fn synthesis_is_deterministic() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        let ta = GoogleTrace::synthesize(&mut a, 10, Nanos::from_secs(3600), 20);
        let tb = GoogleTrace::synthesize(&mut b, 10, Nanos::from_secs(3600), 20);
        assert_eq!(ta.tasks.len(), tb.tasks.len());
        assert_eq!(ta.total_core_seconds(), tb.total_core_seconds());
    }
}
