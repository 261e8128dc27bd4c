//! Per-module fault accounting and the escalation watchdog.
//!
//! The module boundary ([`crate::GuardRuntime`], which both
//! [`crate::NVersionSystem`] and `mvml-avsim`'s perception run) *detects*
//! runtime faults — panics, deadline misses, non-finite outputs — but
//! detection alone only protects the current frame. The [`Watchdog`] closes the runtime-assurance loop:
//! repeated faults from the same module within a sliding frame window are
//! escalated into a *reactive rejuvenation trigger*, so runtime misbehaviour
//! drives the exact same recover-on-detect path the DSPN models predict for
//! crashed modules: [`crate::rejuvenation::StateProcess::report_failure`]
//! moves its token into the net's `Pmf`, repaired by `Tr` at rate `μ`.

use crate::error::SystemError;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// What the runtime guard observed about one module on one frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum FaultEventKind {
    /// The module panicked mid-inference (caught by `catch_unwind`).
    Panic,
    /// The module's answer arrived after its deadline budget and was
    /// discarded (injected latency fault, or a measured wall-clock overrun).
    DeadlineMiss,
    /// The module produced non-finite logits; the affected samples were
    /// withheld from the voter.
    NonFiniteOutput {
        /// Number of samples of the batch that carried non-finite logits.
        samples: usize,
    },
    /// The watchdog escalated this module to non-functional after repeated
    /// faults.
    Escalated,
}

/// One observed fault, attributed to a module and a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FaultEvent {
    /// Index of the module the fault was observed on.
    pub module: usize,
    /// Frame counter at the time of observation.
    pub frame: u64,
    /// What was observed.
    pub kind: FaultEventKind,
}

/// A bounded log of [`FaultEvent`]s with per-module totals.
///
/// The log keeps the most recent `capacity` events (older ones are counted
/// in [`FaultLog::dropped`] but discarded), so a long campaign cannot grow
/// memory without bound.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultLog {
    events: VecDeque<FaultEvent>,
    capacity: usize,
    dropped: u64,
    per_module: Vec<u64>,
}

impl FaultLog {
    /// Creates a log for `modules` modules keeping at most `capacity`
    /// events.
    pub fn new(modules: usize, capacity: usize) -> Self {
        FaultLog {
            events: VecDeque::new(),
            capacity: capacity.max(1),
            dropped: 0,
            per_module: vec![0; modules],
        }
    }

    /// Records an event.
    pub fn record(&mut self, event: FaultEvent) {
        if let Some(count) = self.per_module.get_mut(event.module) {
            *count += 1;
        }
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &FaultEvent> {
        self.events.iter()
    }

    /// Number of events evicted from the bounded buffer.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Total faults ever attributed to `module` (including evicted ones).
    pub fn module_total(&self, module: usize) -> u64 {
        self.per_module.get(module).copied().unwrap_or(0)
    }

    /// Total faults ever recorded.
    pub fn total(&self) -> u64 {
        self.per_module.iter().sum()
    }
}

/// Watchdog tuning: escalate a module once it accumulates `threshold`
/// faults within the last `window` frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WatchdogConfig {
    /// Sliding window length, in frames.
    pub window: u64,
    /// Number of faults within the window that triggers escalation.
    pub threshold: u32,
}

impl Default for WatchdogConfig {
    /// Three faults within ten frames: fast enough to beat a crashed
    /// module's next few voting rounds, tolerant of an isolated transient.
    fn default() -> Self {
        WatchdogConfig {
            window: 10,
            threshold: 3,
        }
    }
}

/// The escalation watchdog (one sliding window per module).
#[derive(Debug, Clone, PartialEq)]
pub struct Watchdog {
    cfg: WatchdogConfig,
    history: Vec<VecDeque<u64>>,
}

impl Watchdog {
    /// Creates a watchdog over `modules` modules.
    ///
    /// # Errors
    ///
    /// [`SystemError::InvalidConfig`] if `threshold` or `window` is zero —
    /// either value would make the watchdog escalate on every frame or
    /// never, and the hardened path reports bad configuration instead of
    /// panicking.
    pub fn new(modules: usize, cfg: WatchdogConfig) -> Result<Self, SystemError> {
        if cfg.threshold == 0 {
            return Err(SystemError::InvalidConfig {
                reason: "watchdog threshold must be positive".into(),
            });
        }
        if cfg.window == 0 {
            return Err(SystemError::InvalidConfig {
                reason: "watchdog window must be positive".into(),
            });
        }
        Ok(Watchdog {
            cfg,
            history: vec![VecDeque::new(); modules],
        })
    }

    /// The active configuration.
    pub fn config(&self) -> WatchdogConfig {
        self.cfg
    }

    /// Records one fault observation for `module` at `frame`. Returns
    /// `true` when the observation tips the module over the threshold —
    /// the caller must then escalate (fail the module so reactive
    /// rejuvenation picks it up) and the window is cleared so a single
    /// burst escalates once.
    pub fn observe(&mut self, module: usize, frame: u64) -> bool {
        let Some(h) = self.history.get_mut(module) else {
            return false;
        };
        while h
            .front()
            .is_some_and(|&f| frame.saturating_sub(f) >= self.cfg.window)
        {
            h.pop_front();
        }
        h.push_back(frame);
        if h.len() >= self.cfg.threshold as usize {
            h.clear();
            true
        } else {
            false
        }
    }

    /// Clears a module's window (call after it was rejuvenated, so old
    /// faults do not count against the fresh deployment).
    pub fn reset(&mut self, module: usize) {
        if let Some(h) = self.history.get_mut(module) {
            h.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_records_and_bounds() {
        let mut log = FaultLog::new(3, 4);
        for frame in 0..6 {
            log.record(FaultEvent {
                module: (frame % 3) as usize,
                frame,
                kind: FaultEventKind::Panic,
            });
        }
        assert_eq!(log.events().count(), 4);
        assert_eq!(log.dropped(), 2);
        assert_eq!(log.total(), 6);
        assert_eq!(log.module_total(0), 2);
        assert_eq!(log.module_total(99), 0, "unknown module reads zero");
        // Oldest retained event is frame 2 (frames 0 and 1 evicted).
        assert_eq!(log.events().next().map(|e| e.frame), Some(2));
    }

    #[test]
    fn watchdog_trips_at_threshold_within_window() {
        let mut wd = Watchdog::new(
            2,
            WatchdogConfig {
                window: 10,
                threshold: 3,
            },
        )
        .unwrap();
        assert!(!wd.observe(0, 1));
        assert!(!wd.observe(0, 2));
        assert!(wd.observe(0, 3), "third fault in window escalates");
        // Window cleared: the next burst must re-accumulate.
        assert!(!wd.observe(0, 4));
    }

    #[test]
    fn watchdog_window_expires_old_faults() {
        let mut wd = Watchdog::new(
            1,
            WatchdogConfig {
                window: 5,
                threshold: 3,
            },
        )
        .unwrap();
        assert!(!wd.observe(0, 0));
        assert!(!wd.observe(0, 1));
        // Frame 6: both old faults have aged out (6 - f >= 5 for f in {0, 1}).
        assert!(!wd.observe(0, 6), "expired faults must not count");
        assert!(!wd.observe(0, 7), "only 6 and 7 remain in the window");
        assert!(wd.observe(0, 8), "6, 7, 8 are within the window");
    }

    #[test]
    fn watchdog_modules_are_independent_and_resettable() {
        let mut wd = Watchdog::new(2, WatchdogConfig::default()).unwrap();
        assert!(!wd.observe(0, 1));
        assert!(!wd.observe(1, 1));
        assert!(!wd.observe(0, 2));
        wd.reset(0);
        assert!(!wd.observe(0, 3));
        assert!(!wd.observe(0, 4), "reset cleared module 0's window");
        assert!(!wd.observe(1, 2));
        assert!(wd.observe(1, 3), "module 1 unaffected by module 0's reset");
    }

    #[test]
    fn watchdog_out_of_range_module_is_ignored() {
        let mut wd = Watchdog::new(1, WatchdogConfig::default()).unwrap();
        assert!(!wd.observe(7, 1));
        wd.reset(7); // no panic
    }

    #[test]
    fn zero_threshold_and_window_rejected() {
        for cfg in [
            WatchdogConfig {
                window: 5,
                threshold: 0,
            },
            WatchdogConfig {
                window: 0,
                threshold: 3,
            },
        ] {
            assert!(
                matches!(
                    Watchdog::new(1, cfg),
                    Err(SystemError::InvalidConfig { .. })
                ),
                "cfg {cfg:?} must be rejected"
            );
        }
    }
}
