//! Profiler configuration.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::sampling::SamplingRate;

/// A [`ProfilerConfig`] field holds a value outside its documented domain.
///
/// Mirrors the `FaultPlan::validate()` pattern: the error names the offending
/// field, echoes the rejected value and states the requirement, so a bad config
/// is diagnosable from the message alone. Values are carried as strings to keep
/// the error `Eq` (f64 isn't).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// The offending `ProfilerConfig` field.
    pub field: &'static str,
    /// The rejected value, rendered.
    pub value: String,
    /// What the field requires.
    pub requirement: &'static str,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ProfilerConfig.{} = {} is invalid: {}",
            self.field, self.value, self.requirement
        )
    }
}

impl std::error::Error for ConfigError {}

/// Configuration of the stack-sampling subsystem (Section III.B).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StackSamplingConfig {
    /// The *finest* timer gap between samples, in simulated nanoseconds, and the
    /// cadence after any change to the stack: the sampler doubles its gap while
    /// samples learn nothing, up to
    /// `max(gap_ns, `[`crate::stack_sampling::BACKOFF_CEILING_NS`]`)`, and returns to
    /// `gap_ns` on the first sample that does. The paper evaluates 4 ms and 16 ms,
    /// which are at or above that ceiling and therefore never back off; neither does
    /// `0` ("every opportunity").
    pub gap_ns: u64,
    /// Lazy frame extraction (capture raw on first visit, extract on second) versus
    /// immediate extraction — the two columns of Table V.
    pub lazy_extraction: bool,
}

impl Default for StackSamplingConfig {
    fn default() -> Self {
        StackSamplingConfig {
            gap_ns: 16_000_000,
            lazy_extraction: true,
        }
    }
}

/// How often sticky-set footprinting re-arms tracking within an interval (Table V's
/// "Nonstop" vs "Timer-based (100ms)" columns).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FootprintMode {
    /// Re-arm a sampled object immediately after every logged access: exact access
    /// frequencies, maximal overhead.
    Nonstop,
    /// Re-arm in rounds separated by at least this many simulated nanoseconds.
    Timer(u64),
}

/// Configuration of sticky-set footprinting (Section III.A.1).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FootprintConfig {
    /// Probing cadence.
    pub mode: FootprintMode,
    /// Lower bound on the object sampling gap used for footprinting (the paper puts
    /// "a lower bound on object sampling gap" to bound repeated-tracking overhead).
    pub min_gap: u64,
}

impl Default for FootprintConfig {
    fn default() -> Self {
        FootprintConfig {
            mode: FootprintMode::Timer(100_000_000), // 100 ms
            min_gap: 1,
        }
    }
}

/// How a thread sheds pending OAL batches when the master's bounded mailbox is
/// full (see `ProfilerConfig::oal_mailbox_capacity`). Every policy is
/// deterministic — the choice of what to shed depends only on the pending queue,
/// never on wall-clock time — and every shed batch is attributed in `RunReport`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ShedPolicy {
    /// Drop the oldest pending batch outright. The freshest data survives; the
    /// dropped interval is prorated out of round coverage like a lost OAL.
    DropOldestRound,
    /// Merge the two oldest pending batches into one (entries concatenated, the
    /// younger interval's identity kept) — halves queue depth without losing
    /// bytes, at the cost of interval-attribution precision.
    MergeBatches,
    /// Merge like [`ShedPolicy::MergeBatches`] but also collapse the merged batch
    /// to per-class summaries (`Oal::summarize`), shedding object identity to cut
    /// wire bytes — the last rung before data loss.
    SummaryOnly,
}

impl ShedPolicy {
    /// Stable lowercase label for events and metrics keys.
    pub fn label(self) -> &'static str {
        match self {
            ShedPolicy::DropOldestRound => "drop_oldest_round",
            ShedPolicy::MergeBatches => "merge_batches",
            ShedPolicy::SummaryOnly => "summary_only",
        }
    }
}

/// What the profiler does with the accesses it sees: whether it logs them, at
/// what grain, and whether the logs reach the coordinator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ProfilingMode {
    /// No correlation tracking: the "No Correl. Tracking" baseline columns.
    Off,
    /// Log sampled accesses into OALs but never ship them (Table II, which
    /// isolates the CPU cost of collection).
    CollectOnly,
    /// Log sampled accesses via false-invalid arming and ship the OALs to the
    /// coordinator (Table III).
    Tracking,
    /// Log *every* access once per interval at full payload size, without
    /// arming, and ship it: the "log inserted at every object access"
    /// simulation behind Fig. 1(a). Overrides sampling.
    GroundTruth,
}

impl ProfilingMode {
    /// Whether accesses are logged into OALs.
    pub fn logs(self) -> bool {
        self != ProfilingMode::Off
    }

    /// Whether the OALs are shipped to the coordinator.
    pub fn ships(self) -> bool {
        matches!(self, ProfilingMode::Tracking | ProfilingMode::GroundTruth)
    }
}

/// Top-level profiler configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProfilerConfig {
    /// Initial per-class sampling rate.
    pub initial_rate: SamplingRate,
    /// Correlation tracking, OAL shipping and ground truth.
    pub mode: ProfilingMode,
    /// Convergence threshold on the relative `E_ABS` distance for the adaptive rate
    /// controller; `None` pins rates at `initial_rate`.
    pub adaptive_threshold: Option<f64>,
    /// How many closed intervals the analyzer folds into one TCM round.
    pub intervals_per_round: u32,
    /// Keep the raw OAL stream at the master (memory-heavy; used by the page-grain
    /// baseline analysis and by Fig. 1-style offline comparisons).
    pub record_oals: bool,
    /// Stack sampling, if enabled.
    pub stack: Option<StackSamplingConfig>,
    /// Sticky-set footprinting, if enabled.
    pub footprint: Option<FootprintConfig>,
    /// Deadline-based TCM round close for lossy networks: round `r` closes as soon as
    /// the fastest thread's interval watermark reaches `(r+1)·intervals_per_round`
    /// plus this many grace intervals, even if slower (or dead) threads never report.
    /// `None` keeps the fault-free wait-for-all-watermarks behavior.
    pub round_deadline_intervals: Option<u64>,
    /// Minimum fraction of expected (thread, interval) OALs a round must have
    /// received for the adaptive controller to act on it; rounds below the threshold
    /// still fold into the TCM but skip rate adaptation (a lossy round would look
    /// artificially different from its predecessor and trigger spurious refinement).
    pub min_round_coverage: f64,
    /// Snapshot the coordinator's profiling state (`ProfilerCheckpoint`) every this
    /// many closed TCM rounds, so a crashed master restarts from the snapshot and
    /// replays only post-checkpoint OALs. `None` takes none: a restart then
    /// reinstates the round-zero state and replays the whole OAL history.
    pub checkpoint_every_rounds: Option<u64>,
    /// Quarantine a node out of the round-coverage denominator once it has crashed
    /// more than this many times, so a flapping node cannot keep every round below
    /// `min_round_coverage` and starve adaptive convergence. `None` never expels.
    pub quarantine_after_crashes: Option<u32>,
    /// SLO on the profiler's own cost, as a fraction of charged compute time
    /// (e.g. `Some(0.02)` = "profiling may consume at most 2% of the work it
    /// observes"). When the per-round measured cost fraction exceeds the budget,
    /// the adaptive controller walks a deterministic degradation ladder — coarsen
    /// the hottest class's rate, merge rounds, summary-only OALs — instead of
    /// refining. Requires `adaptive_threshold` (the budget loop is part of the
    /// controller). `None` keeps the accuracy-only controller bit-identical to
    /// previous releases.
    pub overhead_budget: Option<f64>,
    /// Bound the master's OAL mailbox to this many queued envelopes; senders that
    /// find it full shed per `shed_policy` instead of growing the queue. `None`
    /// keeps the legacy unbounded mailbox.
    pub oal_mailbox_capacity: Option<usize>,
    /// What a thread does with pending OAL batches when the bounded mailbox is
    /// full. Ignored unless `oal_mailbox_capacity` is set.
    pub shed_policy: ShedPolicy,
    /// Post-convergence drift watching: a converged class whose per-round
    /// relative `E_ABS` distance spikes above this threshold (for
    /// [`DRIFT_HYSTERESIS_ROUNDS`](crate::adaptive::DRIFT_HYSTERESIS_ROUNDS)
    /// consecutive trusted rounds) is un-converged and stepped one rate finer, so
    /// the profiler re-follows a workload phase change instead of reporting the
    /// pre-shift correlation picture forever — at most
    /// [`MAX_DRIFT_REACTIVATIONS`](crate::adaptive::MAX_DRIFT_REACTIVATIONS) times
    /// per class. Must be at least `adaptive_threshold` (the gap is the hysteresis
    /// band). `None` keeps the historical frozen-forever behaviour, bit for bit.
    pub drift_threshold: Option<f64>,
    /// Gray-failure detection: demote a node to straggler once the EWMA of its
    /// per-round progress deficit (intervals advanced behind the cluster's
    /// fastest-progressing node between round closes) exceeds this; its
    /// unreported intervals are prorated out of round coverage (like a soft
    /// quarantine) until the EWMA recovers below half the threshold. `None`
    /// disables detection.
    pub straggler_lag_intervals: Option<f64>,
}

impl ProfilerConfig {
    /// Everything off — the "No Correl. Tracking" baseline columns.
    pub fn disabled() -> Self {
        ProfilerConfig {
            initial_rate: SamplingRate::Full,
            mode: ProfilingMode::Off,
            adaptive_threshold: None,
            intervals_per_round: 1,
            record_oals: false,
            stack: None,
            footprint: None,
            round_deadline_intervals: None,
            min_round_coverage: 0.0,
            checkpoint_every_rounds: None,
            quarantine_after_crashes: None,
            overhead_budget: None,
            oal_mailbox_capacity: None,
            shed_policy: ShedPolicy::DropOldestRound,
            drift_threshold: None,
            straggler_lag_intervals: None,
        }
    }

    /// Correlation tracking at a fixed rate with OAL transfer (Table III columns).
    pub fn tracking_at(rate: SamplingRate) -> Self {
        ProfilerConfig {
            initial_rate: rate,
            mode: ProfilingMode::Tracking,
            ..Self::disabled()
        }
    }

    /// Ground-truth full-trace profiling (the inherent pattern of Fig. 1a).
    pub fn ground_truth() -> Self {
        ProfilerConfig {
            mode: ProfilingMode::GroundTruth,
            ..Self::disabled()
        }
    }

    /// Check every field against its documented domain, naming the first
    /// offender. Called by the cluster builder (`try_build`) and the CLI, so an
    /// invalid user-supplied config is a typed error before a cluster exists —
    /// not a mid-run anomaly.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let err = |field: &'static str, value: String, requirement: &'static str| {
            Err(ConfigError {
                field,
                value,
                requirement,
            })
        };
        if self.initial_rate == SamplingRate::NX(0) {
            return err(
                "initial_rate",
                self.initial_rate.label(),
                "a page-relative rate samples at least once per page; use 1X or finer",
            );
        }
        if self.intervals_per_round == 0 {
            return err(
                "intervals_per_round",
                self.intervals_per_round.to_string(),
                "a TCM round must span at least one interval",
            );
        }
        if let Some(t) = self.adaptive_threshold {
            if !t.is_finite() || t <= 0.0 {
                return err(
                    "adaptive_threshold",
                    format!("{t}"),
                    "the convergence threshold must be a finite number exceeding 0",
                );
            }
        }
        if !(0.0..=1.0).contains(&self.min_round_coverage) {
            return err(
                "min_round_coverage",
                format!("{}", self.min_round_coverage),
                "must be a fraction in [0, 1]",
            );
        }
        if self.checkpoint_every_rounds == Some(0) {
            return err(
                "checkpoint_every_rounds",
                "0".to_string(),
                "a checkpoint cadence of 0 rounds is meaningless; use None to disable",
            );
        }
        if let Some(b) = self.overhead_budget {
            if !b.is_finite() || b <= 0.0 || b > 1.0 {
                return err(
                    "overhead_budget",
                    format!("{b}"),
                    "the overhead budget is a fraction of charged compute in (0, 1]",
                );
            }
            if self.adaptive_threshold.is_none() {
                return err(
                    "overhead_budget",
                    format!("{b}"),
                    "the budget loop rides the adaptive controller; set adaptive_threshold",
                );
            }
        }
        if let Some(dt) = self.drift_threshold {
            let Some(at) = self.adaptive_threshold else {
                return err(
                    "drift_threshold",
                    format!("{dt}"),
                    "drift watching rides the adaptive controller; set adaptive_threshold",
                );
            };
            if !dt.is_finite() || dt < at {
                return err(
                    "drift_threshold",
                    format!("{dt}"),
                    "must be finite and at least adaptive_threshold (the gap is the hysteresis band)",
                );
            }
        }
        if self.oal_mailbox_capacity == Some(0) {
            return err(
                "oal_mailbox_capacity",
                "0".to_string(),
                "a zero-capacity mailbox could never accept mail; use None for unbounded",
            );
        }
        if let Some(lag) = self.straggler_lag_intervals {
            if !lag.is_finite() || lag <= 0.0 {
                return err(
                    "straggler_lag_intervals",
                    format!("{lag}"),
                    "the straggler lag threshold must be a finite number of intervals exceeding 0",
                );
            }
        }
        Ok(())
    }
}

impl Default for ProfilerConfig {
    fn default() -> Self {
        ProfilerConfig::tracking_at(SamplingRate::NX(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_expected_switches() {
        let off = ProfilerConfig::disabled();
        assert_eq!(off.mode, ProfilingMode::Off);
        assert!(!off.mode.logs() && !off.mode.ships());

        let track = ProfilerConfig::tracking_at(SamplingRate::NX(4));
        assert_eq!(track.mode, ProfilingMode::Tracking);
        assert!(track.mode.logs() && track.mode.ships());
        assert_eq!(track.initial_rate, SamplingRate::NX(4));

        let truth = ProfilerConfig::ground_truth();
        assert_eq!(truth.mode, ProfilingMode::GroundTruth);
        assert!(truth.mode.logs() && truth.mode.ships());

        let collect = ProfilingMode::CollectOnly;
        assert!(collect.logs() && !collect.ships());
    }

    #[test]
    fn presets_all_validate() {
        ProfilerConfig::disabled().validate().unwrap();
        ProfilerConfig::default().validate().unwrap();
        ProfilerConfig::ground_truth().validate().unwrap();
        ProfilerConfig::tracking_at(SamplingRate::NX(16)).validate().unwrap();
    }

    #[test]
    fn validation_names_the_offending_field_and_value() {
        let bad = ProfilerConfig {
            overhead_budget: Some(1.5),
            ..ProfilerConfig::default()
        };
        let e = bad.validate().unwrap_err();
        assert_eq!(e.field, "overhead_budget");
        let msg = e.to_string();
        assert!(msg.contains("ProfilerConfig.overhead_budget"), "named: {msg}");
        assert!(msg.contains("1.5"), "value echoed: {msg}");
        assert!(msg.contains("(0, 1]"), "requirement stated: {msg}");
    }

    #[test]
    fn every_domain_check_fires() {
        let base = ProfilerConfig::default();
        let cases: Vec<(ProfilerConfig, &str)> = vec![
            (
                ProfilerConfig { initial_rate: SamplingRate::NX(0), ..base },
                "initial_rate",
            ),
            (
                ProfilerConfig { intervals_per_round: 0, ..base },
                "intervals_per_round",
            ),
            (
                ProfilerConfig { adaptive_threshold: Some(0.0), ..base },
                "adaptive_threshold",
            ),
            (
                ProfilerConfig { adaptive_threshold: Some(f64::NAN), ..base },
                "adaptive_threshold",
            ),
            (
                ProfilerConfig { min_round_coverage: 1.5, ..base },
                "min_round_coverage",
            ),
            (
                ProfilerConfig { min_round_coverage: f64::NAN, ..base },
                "min_round_coverage",
            ),
            (
                ProfilerConfig { checkpoint_every_rounds: Some(0), ..base },
                "checkpoint_every_rounds",
            ),
            (
                ProfilerConfig {
                    overhead_budget: Some(0.0),
                    adaptive_threshold: Some(0.05),
                    ..base
                },
                "overhead_budget",
            ),
            (
                ProfilerConfig {
                    overhead_budget: Some(1.5),
                    adaptive_threshold: Some(0.05),
                    ..base
                },
                "overhead_budget",
            ),
            (
                ProfilerConfig {
                    overhead_budget: Some(0.02),
                    adaptive_threshold: None,
                    ..base
                },
                "overhead_budget",
            ),
            (
                ProfilerConfig { oal_mailbox_capacity: Some(0), ..base },
                "oal_mailbox_capacity",
            ),
            (
                ProfilerConfig {
                    drift_threshold: Some(0.2),
                    adaptive_threshold: None,
                    ..base
                },
                "drift_threshold",
            ),
            (
                ProfilerConfig {
                    drift_threshold: Some(0.01),
                    adaptive_threshold: Some(0.05),
                    ..base
                },
                "drift_threshold",
            ),
            (
                ProfilerConfig {
                    drift_threshold: Some(f64::NAN),
                    adaptive_threshold: Some(0.05),
                    ..base
                },
                "drift_threshold",
            ),
            (
                ProfilerConfig {
                    straggler_lag_intervals: Some(f64::NAN),
                    ..base
                },
                "straggler_lag_intervals",
            ),
            (
                ProfilerConfig {
                    straggler_lag_intervals: Some(0.0),
                    ..base
                },
                "straggler_lag_intervals",
            ),
        ];
        for (cfg, field) in cases {
            assert_eq!(cfg.validate().unwrap_err().field, field);
        }
    }

    #[test]
    fn defaults_match_paper_constants() {
        assert_eq!(StackSamplingConfig::default().gap_ns, 16_000_000);
        match FootprintConfig::default().mode {
            FootprintMode::Timer(ns) => assert_eq!(ns, 100_000_000),
            _ => panic!("default footprint mode should be the 100 ms timer"),
        }
    }
}
