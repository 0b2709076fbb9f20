//! A multi-core service station.
//!
//! Models the host side of each application: `c` identical cores serving a
//! FIFO backlog of requests, as in an M/G/c queue. Software servers in this
//! reproduction (memcached, libpaxos, NSD) submit each arriving request with
//! an application-specific service time; the station answers when the
//! request finishes and how busy the CPU was — the two quantities the
//! paper's host-side power model and host controller consume.

use crate::time::Nanos;

/// Admission decision for a submitted job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Admission {
    /// The job was accepted and will finish at `finish`.
    Served {
        /// When a core started executing the job.
        start: Nanos,
        /// When the job completes.
        finish: Nanos,
    },
    /// The job was rejected because the backlog exceeded the admission bound.
    Dropped,
}

/// A fixed set of identical cores with FIFO queueing and drop-tail admission.
///
/// Jobs are dispatched to the core that frees up earliest, which for
/// identical cores realises global FIFO order. The backlog is bounded by a
/// maximum queueing *delay* rather than a count, which models a socket
/// buffer of roughly `max_delay × arrival_rate` packets.
///
/// # Examples
///
/// ```
/// use inc_sim::{Admission, Nanos, ServiceStation};
///
/// let mut cpu = ServiceStation::new(2, Nanos::from_millis(1));
/// match cpu.submit(Nanos::ZERO, Nanos::from_micros(10)) {
///     Admission::Served { start, finish } => {
///         assert_eq!(start, Nanos::ZERO);
///         assert_eq!(finish, Nanos::from_micros(10));
///     }
///     Admission::Dropped => unreachable!(),
/// }
/// ```
#[derive(Clone, Debug)]
pub struct ServiceStation {
    busy_until: Vec<Nanos>,
    /// Total service nanoseconds ever assigned (including not-yet-elapsed).
    assigned_busy_ns: u128,
    max_queue_delay: Nanos,
    dropped: u64,
}

impl ServiceStation {
    /// Creates a station with `cores` cores that drops a job once it
    /// would wait longer than `max_queue_delay` for a core.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero.
    pub fn new(cores: usize, max_queue_delay: Nanos) -> Self {
        assert!(cores > 0, "need at least one core");
        ServiceStation {
            busy_until: vec![Nanos::ZERO; cores],
            assigned_busy_ns: 0,
            max_queue_delay,
            dropped: 0,
        }
    }

    /// Submits a job arriving at `now` requiring `service` core time.
    pub fn submit(&mut self, now: Nanos, service: Nanos) -> Admission {
        let (idx, &free_at) = self
            .busy_until
            .iter()
            .enumerate()
            .min_by_key(|&(_, &t)| t)
            .expect("at least one core");
        let start = free_at.max(now);
        if start.saturating_sub(now) > self.max_queue_delay {
            self.dropped += 1;
            return Admission::Dropped;
        }
        let finish = start + service;
        self.busy_until[idx] = finish;
        self.assigned_busy_ns += service.as_nanos() as u128;
        Admission::Served { start, finish }
    }

    /// Returns cumulative busy core-nanoseconds up to time `now`.
    ///
    /// Work already assigned but scheduled beyond `now` is excluded, so
    /// successive calls with increasing `now` yield a non-decreasing value
    /// suitable for windowed utilisation estimates.
    pub fn busy_core_ns(&self, now: Nanos) -> u128 {
        let overhang: u128 = self
            .busy_until
            .iter()
            .map(|&t| t.saturating_sub(now).as_nanos() as u128)
            .sum();
        self.assigned_busy_ns.saturating_sub(overhang)
    }

    /// Returns how many jobs were rejected since creation.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Discards all pending work, as when a process is stopped.
    pub fn quiesce(&mut self, now: Nanos) {
        // Truncate in-flight work at `now`: the cumulative counter must not
        // include the discarded overhang.
        let overhang: u128 = self
            .busy_until
            .iter()
            .map(|&t| t.saturating_sub(now).as_nanos() as u128)
            .sum();
        self.assigned_busy_ns = self.assigned_busy_ns.saturating_sub(overhang);
        for t in &mut self.busy_until {
            *t = (*t).min(now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn served(adm: Admission) -> (Nanos, Nanos) {
        match adm {
            Admission::Served { start, finish } => (start, finish),
            Admission::Dropped => panic!("unexpected drop"),
        }
    }

    #[test]
    fn single_core_fifo() {
        let mut s = ServiceStation::new(1, Nanos::MAX);
        let (a0, f0) = served(s.submit(Nanos::ZERO, Nanos::from_micros(10)));
        let (a1, f1) = served(s.submit(Nanos::ZERO, Nanos::from_micros(10)));
        assert_eq!(a0, Nanos::ZERO);
        assert_eq!(f0, Nanos::from_micros(10));
        assert_eq!(a1, Nanos::from_micros(10));
        assert_eq!(f1, Nanos::from_micros(20));
    }

    #[test]
    fn two_cores_run_in_parallel() {
        let mut s = ServiceStation::new(2, Nanos::MAX);
        let (_, f0) = served(s.submit(Nanos::ZERO, Nanos::from_micros(10)));
        let (_, f1) = served(s.submit(Nanos::ZERO, Nanos::from_micros(10)));
        assert_eq!(f0, Nanos::from_micros(10));
        assert_eq!(f1, Nanos::from_micros(10));
        // Both cores busy for the first 5 us, idle by 15 us.
        assert_eq!(s.busy_core_ns(Nanos::from_micros(5)), 10_000);
        assert_eq!(s.busy_core_ns(Nanos::from_micros(15)), 20_000);
    }

    #[test]
    fn admission_bound_drops_backlog() {
        let mut s = ServiceStation::new(1, Nanos::from_micros(15));
        // Each job is 10 us; the third would wait 20 us > 15 us bound.
        assert!(matches!(
            s.submit(Nanos::ZERO, Nanos::from_micros(10)),
            Admission::Served { .. }
        ));
        assert!(matches!(
            s.submit(Nanos::ZERO, Nanos::from_micros(10)),
            Admission::Served { .. }
        ));
        assert_eq!(
            s.submit(Nanos::ZERO, Nanos::from_micros(10)),
            Admission::Dropped
        );
        assert_eq!(s.dropped(), 1);
    }

    #[test]
    fn busy_accounting_excludes_future_work() {
        let mut s = ServiceStation::new(1, Nanos::MAX);
        s.submit(Nanos::ZERO, Nanos::from_micros(100));
        assert_eq!(s.busy_core_ns(Nanos::from_micros(30)), 30_000);
        assert_eq!(s.busy_core_ns(Nanos::from_micros(100)), 100_000);
        assert_eq!(s.busy_core_ns(Nanos::from_micros(200)), 100_000);
    }

    #[test]
    fn quiesce_discards_backlog() {
        let mut s = ServiceStation::new(1, Nanos::MAX);
        s.submit(Nanos::ZERO, Nanos::from_micros(100));
        s.quiesce(Nanos::from_micros(10));
        // Counter reflects only the 10 us actually consumed.
        assert_eq!(s.busy_core_ns(Nanos::from_micros(50)), 10_000);
        // New work starts immediately.
        let (start, _) = match s.submit(Nanos::from_micros(20), Nanos::from_micros(5)) {
            Admission::Served { start, finish } => (start, finish),
            Admission::Dropped => panic!(),
        };
        assert_eq!(start, Nanos::from_micros(20));
    }
}
