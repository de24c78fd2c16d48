//! Lightweight run telemetry: counters of simulation work done, for
//! throughput reporting (simulated instructions per second) in the bench
//! harness.
//!
//! Each [`SweepEngine`](crate::sweep::SweepEngine) owns one [`Telemetry`]
//! and records every cell it simulates, so a summary counts exactly the
//! engine that did the work; the driver itself records nothing. Callers
//! that run the driver directly record into the engine they report
//! against. The cost is a handful of relaxed atomic adds per *run*, not
//! per instruction — invisible next to the simulation itself.

use crate::config::SimConfig;
use crate::driver::{arena_counts, ArenaCounts, RunResult};
use std::sync::atomic::{AtomicU64, Ordering};

/// Monotonic counters of simulation work.
#[derive(Debug, Default)]
pub struct Telemetry {
    instructions: AtomicU64,
    cycles: AtomicU64,
    runs: AtomicU64,
    events: AtomicU64,
    policy_runs: AtomicU64,
    arena_builds: AtomicU64,
    arena_reuses: AtomicU64,
}

/// Point-in-time copy of the counters; subtract two to get the work done
/// in an interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TelemetrySnapshot {
    /// Instructions simulated.
    pub instructions: u64,
    /// Cycles simulated.
    pub cycles: u64,
    /// Simulation runs completed.
    pub runs: u64,
    /// Miss-lifecycle events recorded by traced runs (0 unless tracing
    /// was enabled).
    pub events: u64,
    /// Runs simulated under a non-LRU replacement policy (0 unless a
    /// policy sweep ran).
    pub policy_runs: u64,
    /// Processors constructed from scratch because no pooled worker
    /// matched the run's configuration. On a warm worker arena this stays
    /// flat run-to-run — the allocation counter the zero-alloc tests pin.
    pub arena_builds: u64,
    /// Runs served by resetting a pooled processor instead of building
    /// one.
    pub arena_reuses: u64,
}

impl std::ops::Add for TelemetrySnapshot {
    type Output = TelemetrySnapshot;

    fn add(self, o: TelemetrySnapshot) -> TelemetrySnapshot {
        TelemetrySnapshot {
            instructions: self.instructions + o.instructions,
            cycles: self.cycles + o.cycles,
            runs: self.runs + o.runs,
            events: self.events + o.events,
            policy_runs: self.policy_runs + o.policy_runs,
            arena_builds: self.arena_builds + o.arena_builds,
            arena_reuses: self.arena_reuses + o.arena_reuses,
        }
    }
}

impl TelemetrySnapshot {
    /// Work done between `earlier` and `self` (counters are monotonic, so
    /// this saturates rather than wrapping if misused).
    pub fn since(&self, earlier: TelemetrySnapshot) -> TelemetrySnapshot {
        TelemetrySnapshot {
            instructions: self.instructions.saturating_sub(earlier.instructions),
            cycles: self.cycles.saturating_sub(earlier.cycles),
            runs: self.runs.saturating_sub(earlier.runs),
            events: self.events.saturating_sub(earlier.events),
            policy_runs: self.policy_runs.saturating_sub(earlier.policy_runs),
            arena_builds: self.arena_builds.saturating_sub(earlier.arena_builds),
            arena_reuses: self.arena_reuses.saturating_sub(earlier.arena_reuses),
        }
    }

    /// Simulated instructions per second over `wall` seconds.
    pub fn inst_per_sec(&self, wall: f64) -> f64 {
        if wall > 0.0 {
            self.instructions as f64 / wall
        } else {
            0.0
        }
    }
}

impl Telemetry {
    /// Records one completed simulation run.
    pub fn record_run(&self, instructions: u64, cycles: u64) {
        self.instructions.fetch_add(instructions, Ordering::Relaxed);
        self.cycles.fetch_add(cycles, Ordering::Relaxed);
        self.runs.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one completed single-width run of `cfg`, counting it as a
    /// policy run when `cfg` leaves the default replacement policy.
    pub fn record_result(&self, cfg: &SimConfig, result: &RunResult) {
        self.record_run(result.instructions, result.cycles);
        if cfg.replacement != nbl_core::tag_array::ReplacementKind::default() {
            self.record_policy_run();
        }
    }

    /// Records lifecycle events observed by one traced run.
    pub fn record_events(&self, events: u64) {
        self.events.fetch_add(events, Ordering::Relaxed);
    }

    /// Records one run simulated under a non-default replacement policy.
    pub fn record_policy_run(&self) {
        self.policy_runs.fetch_add(1, Ordering::Relaxed);
    }

    /// Records worker-arena builds and reuses (a per-thread
    /// [`ArenaCounts`] delta).
    pub fn record_arena(&self, delta: ArenaCounts) {
        self.arena_builds.fetch_add(delta.builds, Ordering::Relaxed);
        self.arena_reuses.fetch_add(delta.reuses, Ordering::Relaxed);
    }

    /// Runs `job` on the calling thread and records the worker-arena
    /// builds and reuses it caused (the change in this thread's
    /// [`arena_counts`]). The engine wraps every pool job in this.
    pub fn track<T>(&self, job: impl FnOnce() -> T) -> T {
        let before = arena_counts();
        let out = job();
        self.record_arena(arena_counts().since(before));
        out
    }

    /// Current counter values.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        TelemetrySnapshot {
            instructions: self.instructions.load(Ordering::Relaxed),
            cycles: self.cycles.load(Ordering::Relaxed),
            runs: self.runs.load(Ordering::Relaxed),
            events: self.events.load(Ordering::Relaxed),
            policy_runs: self.policy_runs.load(Ordering::Relaxed),
            arena_builds: self.arena_builds.load(Ordering::Relaxed),
            arena_reuses: self.arena_reuses.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_delta() {
        let t = Telemetry::default();
        let before = t.snapshot();
        t.record_run(40_000, 55_000);
        t.record_run(40_000, 90_000);
        t.record_events(12);
        t.record_policy_run();
        t.record_arena(ArenaCounts {
            builds: 1,
            reuses: 2,
        });
        let d = t.snapshot().since(before);
        assert_eq!(
            d,
            TelemetrySnapshot {
                instructions: 80_000,
                cycles: 145_000,
                runs: 2,
                events: 12,
                policy_runs: 1,
                arena_builds: 1,
                arena_reuses: 2,
            }
        );
        assert!((d.inst_per_sec(2.0) - 40_000.0).abs() < 1e-9);
        assert_eq!(d.inst_per_sec(0.0), 0.0);
        assert_eq!((d + d).since(d), d);
    }

    #[test]
    fn instances_count_independently() {
        let (a, b) = (Telemetry::default(), Telemetry::default());
        a.record_run(1, 2);
        assert_eq!(a.snapshot().runs, 1);
        assert_eq!(b.snapshot(), TelemetrySnapshot::default());
    }
}
