//! Scenario injection: the engine's window onto non-stationary workloads
//! and faults.
//!
//! A [`ScenarioHook`] describes everything about a run that varies with
//! time: the visitor arrival rate `λ₀(t)`, the request correlation `p(t)`,
//! the origin-seed count (seed crashes and recoveries), tracker
//! availability (blackouts defer entries), and a state-dependent peer
//! abort process with per-downloader rate `θ(t)`.
//!
//! The engine consults the hook only when one is attached
//! ([`crate::engine::Simulation::with_hook`]); a plain
//! [`crate::engine::Simulation::new`] run carries `None` and pays nothing
//! beyond a handful of `Option` checks per event, so the O(log N) event
//! path of the stationary engine is untouched.
//!
//! ## Sampling contracts
//!
//! * **Arrivals** are a non-homogeneous Poisson process realized by
//!   Lewis–Shedler thinning: candidates at the constant majorizing rate
//!   [`ScenarioHook::arrival_rate_bound`], each accepted with probability
//!   `λ₀(t)/bound`. Correctness requires `0 ≤ λ₀(t) ≤ bound` everywhere.
//! * **Aborts** are a state-dependent Poisson process with instantaneous
//!   rate `θ(t) · N(t)` (`N` = downloading peers). The engine thins
//!   against `abort_rate_bound() · N` and re-arms the candidate after
//!   every event — exact by memorylessness, since `N` is constant between
//!   events.
//! * **Tracker blackouts** defer entry: a visitor arriving while
//!   [`ScenarioHook::tracker_up`] is false joins at
//!   [`ScenarioHook::tracker_release`] instead (or never, if the tracker
//!   stays down past the arrival horizon). Request sets are still drawn at
//!   the arrival instant — the user decided what to fetch before the
//!   tracker went dark.
//! * **Origin-seed changes** take effect at [`ScenarioHook::next_boundary`]
//!   times, where the engine re-reads [`ScenarioHook::origin_seeds`] and
//!   updates the rate cache.
//!
//! All hook methods must be deterministic functions of `t`: the engine's
//! reproducibility and full-recompute bit-equivalence guarantees extend to
//! scenario runs only because the hook itself carries no hidden state.

use btfluid_workload::requests::FileId;

/// Time-varying workload and fault description consulted by the engine.
///
/// Implementations live outside this crate (the `btfluid-scenario`
/// registry); the trait sits next to the observer types so the engine's
/// dependencies stay pointed at abstractions.
pub trait ScenarioHook {
    /// Instantaneous visitor arrival rate `λ₀(t)`.
    fn arrival_rate(&self, t: f64) -> f64;

    /// Constant majorizer for [`Self::arrival_rate`]; must be finite,
    /// strictly positive, and `≥ λ₀(t)` for all `t`.
    fn arrival_rate_bound(&self) -> f64;

    /// Request correlation `p(t)` at the arrival instant. Values outside
    /// `[0, 1]` are clamped by the engine.
    fn correlation(&self, t: f64) -> f64;

    /// Instantaneous per-downloader abort rate `θ(t)`.
    fn abort_rate(&self, t: f64) -> f64;

    /// Constant majorizer for [`Self::abort_rate`]; must be finite,
    /// non-negative, and `≥ θ(t)` for all `t`. Zero disables aborts.
    fn abort_rate_bound(&self) -> f64;

    /// Number of origin publishers alive at `t` (seed crash/recovery
    /// windows).
    fn origin_seeds(&self, t: f64) -> usize;

    /// Whether the tracker admits new entries at `t`.
    fn tracker_up(&self, t: f64) -> bool;

    /// The earliest time strictly after `t` at which the origin-seed count
    /// or tracker state changes, or `None` when neither ever changes
    /// again. The engine schedules a control event at each boundary.
    fn next_boundary(&self, t: f64) -> Option<f64>;

    /// Serializes the hook's state for checkpointing.
    ///
    /// Hooks are required to be deterministic pure functions of `t`
    /// (see the module docs), so there is no *mutable* state to carry
    /// across a snapshot — the bytes act as a fingerprint: the engine
    /// embeds a digest of them in every [`crate::Snapshot`] and
    /// [`crate::engine::Simulation::restore_with_hook`] refuses a hook
    /// whose state bytes do not digest to the same value. Implementations
    /// should return a stable encoding of their full parameterization
    /// (e.g. a `Debug` rendering); the default — an empty vector — only
    /// ever matches another hook that also declares no state.
    fn hook_state(&self) -> Vec<u8> {
        Vec::new()
    }

    /// Whether this hook *replays* a recorded arrival trace instead of
    /// describing a stochastic arrival process. When true, the engine
    /// bypasses Lewis–Shedler thinning entirely: it walks
    /// [`Self::replay_arrival`] by index (the cursor is snapshotted, so
    /// resumed runs continue the trace bit-identically) and draws nothing
    /// from the arrival RNG stream. [`Self::arrival_rate`] and
    /// [`Self::arrival_rate_bound`] must still return a finite positive
    /// summary rate (the empirical one) for attachment validation and
    /// observability; [`Self::correlation`] is never used for sampling.
    fn replays(&self) -> bool {
        false
    }

    /// The `idx`-th recorded arrival — `(time, files)` with a non-empty,
    /// strictly increasing file set — or `None` past the end of the
    /// trace. Times must be non-decreasing in `idx`. Only consulted when
    /// [`Self::replays`] returns true.
    fn replay_arrival(&self, idx: u64) -> Option<(f64, Vec<FileId>)> {
        let _ = idx;
        None
    }

    /// The earliest time `≥ t` at which the tracker is up — where an
    /// arrival at `t` actually joins. The default walks
    /// [`Self::next_boundary`] and returns `+∞` if the tracker never
    /// recovers.
    fn tracker_release(&self, t: f64) -> f64 {
        let mut s = t;
        // Bounded walk: a hook with pathological boundary chatter yields
        // +∞ (drop the arrival) instead of hanging the engine.
        for _ in 0..4096 {
            if self.tracker_up(s) {
                return s;
            }
            match self.next_boundary(s) {
                Some(b) => s = b,
                None => return f64::INFINITY,
            }
        }
        f64::INFINITY
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Constant-rate hook with one tracker blackout window.
    struct Blackout {
        from: f64,
        until: f64,
    }

    impl ScenarioHook for Blackout {
        fn arrival_rate(&self, _t: f64) -> f64 {
            1.0
        }
        fn arrival_rate_bound(&self) -> f64 {
            1.0
        }
        fn correlation(&self, _t: f64) -> f64 {
            0.5
        }
        fn abort_rate(&self, _t: f64) -> f64 {
            0.0
        }
        fn abort_rate_bound(&self) -> f64 {
            0.0
        }
        fn origin_seeds(&self, _t: f64) -> usize {
            0
        }
        fn tracker_up(&self, t: f64) -> bool {
            !(self.from..self.until).contains(&t)
        }
        fn next_boundary(&self, t: f64) -> Option<f64> {
            [self.from, self.until].into_iter().find(|&b| b > t)
        }
    }

    #[test]
    fn release_passes_through_when_up() {
        let h = Blackout {
            from: 10.0,
            until: 20.0,
        };
        assert_eq!(h.tracker_release(5.0), 5.0);
        assert_eq!(h.tracker_release(25.0), 25.0);
    }

    #[test]
    fn release_defers_to_window_end() {
        let h = Blackout {
            from: 10.0,
            until: 20.0,
        };
        assert_eq!(h.tracker_release(15.0), 20.0);
        assert_eq!(h.tracker_release(10.0), 20.0);
    }

    /// A tracker that never comes back.
    struct Dead;

    impl ScenarioHook for Dead {
        fn arrival_rate(&self, _t: f64) -> f64 {
            1.0
        }
        fn arrival_rate_bound(&self) -> f64 {
            1.0
        }
        fn correlation(&self, _t: f64) -> f64 {
            0.5
        }
        fn abort_rate(&self, _t: f64) -> f64 {
            0.0
        }
        fn abort_rate_bound(&self) -> f64 {
            0.0
        }
        fn origin_seeds(&self, _t: f64) -> usize {
            0
        }
        fn tracker_up(&self, _t: f64) -> bool {
            false
        }
        fn next_boundary(&self, _t: f64) -> Option<f64> {
            None
        }
    }

    #[test]
    fn dead_tracker_releases_at_infinity() {
        assert_eq!(Dead.tracker_release(3.0), f64::INFINITY);
    }
}
