//! # jessy-core — adaptive sampling-based profiling
//!
//! The paper's primary contribution, reimplemented on the `jessy-gos`/`jessy-stack`
//! substrates:
//!
//! * **Adaptive object sampling** ([`sampling`]) — per-class prime sampling gaps
//!   derived from the `nX` page-relative rate notation (`gap = SP / (s·n)`), the
//!   sampled/unsampled decision over per-class sequence numbers, and the array
//!   amortization scheme of Section II.B.3. Logged sizes are scaled by the gap
//!   (a Horvitz–Thompson estimator), which is what makes the paper's accuracy
//!   numbers achievable at coarse rates.
//! * **Correlation tracking** ([`oal`], [`tcm`], [`accuracy`]) — per-thread,
//!   per-interval Object Access Lists fed to a central analyzer that reorganizes them
//!   per object and accrues the Thread Correlation Map; the two distance metrics
//!   (`E_ABS`, `E_EUC`) of Section II.B.2. The coordinator's one reduce path is
//!   [`RoundAccrual`], which accrues each round straight into one dense map.
//! * **The adaptive rate controller** ([`adaptive`]) — stepwise rate refinement driven
//!   by *relative* accuracy between successive rounds, with resampling walks after
//!   each change, drift re-activation of converged classes, and the overhead-budget
//!   loop that keeps the profiler's own measured cost within an SLO fraction of
//!   charged compute via a deterministic degradation ladder (coarsen rates → merge
//!   rounds → summary OALs).
//! * **Stack sampling** ([`stack_sampling`]) — the Fig. 8 algorithm with all four
//!   optimizations (timer activation, two-phase scan over visited flags, lazy raw
//!   extraction, comparison by probing) to mine **stack-invariant references**; the
//!   timer backs off while samples learn nothing.
//! * **Sticky sets** ([`sticky`]) — footprinting by repeated sampling within an
//!   interval, and resolution over the object graph from stack invariants using
//!   sampled objects as landmarks.
//! * **The per-thread facade** ([`profiler`]) — what the runtime drives: access hooks,
//!   interval open/close with false-invalid arming, and the profiling statistics the
//!   benchmark tables read.


#![warn(missing_docs)]
pub mod accuracy;
pub mod adaptive;
pub mod config;
pub mod homeaware;
pub mod oal;
pub mod profiler;
pub mod sampling;
pub mod stack_sampling;
pub mod sticky;
pub mod tcm;
pub mod view;

pub use accuracy::{accuracy_abs, accuracy_euc, e_abs, e_abs_sparse, e_euc};
pub use adaptive::{AdaptiveController, DegradeStep, RateCause, RateChange, RoundOutcome};
pub use config::{
    ConfigError, FootprintConfig, FootprintMode, ProfilerConfig, ProfilingMode, ShedPolicy,
    StackSamplingConfig,
};
pub use homeaware::{HomeAwareAnalyzer, HomeAwareReport, HomeMigrationRec};
pub use oal::{Oal, OalEntry};
pub use profiler::{ProfilerShared, ProfilerStats, ThreadProfiler};
pub use sampling::{GapTable, SamplingRate};
pub use stack_sampling::StackSampler;
pub use tcm::{RoundAccrual, RoundSummary, SparseTcm, Tcm, TcmBuilder};
pub use view::CorrelationView;
