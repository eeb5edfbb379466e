//! # HiFIND — a DoS-resilient flow-level IDS for high-speed networks
//!
//! A from-scratch implementation of *"A DoS Resilient Flow-level Intrusion
//! Detection Approach for High-speed Networks"* (Gao, Li & Chen, ICDCS
//! 2006). HiFIND records traffic in a small, fixed set of sketches —
//! never per-flow state — and detects TCP SYN flooding and horizontal /
//! vertical port scans from EWMA forecast errors over those sketches.
//!
//! ## Architecture (paper Figure 2)
//!
//! ```text
//! packets ─▶ SketchRecorder ─▶ per-interval snapshots ─▶ GridEwma ─▶
//!   forecast-error grids ─▶ reversible-sketch INFERENCE (3 steps) ─▶
//!   raw alerts ─▶ 2D-sketch classification (phase 2) ─▶
//!   FP heuristics (phase 3) ─▶ final alerts
//! ```
//!
//! * [`recorder::SketchRecorder`] — the per-packet data plane: three
//!   reversible sketches ({SIP,Dport}, {DIP,Dport}, {SIP,DIP}, value
//!   `#SYN − #SYN/ACK`), one k-ary sketch ({DIP,Dport}, value `#SYN`) and
//!   two 2D sketches ({SIP,Dport}×{DIP}, {SIP,DIP}×{Dport}).
//! * [`detector`] — the three-step flow-level detection algorithm (§3.3).
//! * [`classify`] — intrusion classification with the 2D sketches (§4).
//! * [`fp_filter`] — SYN-flooding false-positive reduction (§3.4).
//! * [`pipeline::HiFind`] — everything wired together, one call per
//!   interval; [`pipeline::HiFind::run_trace`] for offline traces.
//! * [`aggregate`] — multi-router sketch aggregation (§3.1, Figure 3).
//! * [`metrics`] — the Table 9 memory model and §5.5.2 access counts.
//! * [`evaluate`] — alert ↔ ground-truth scoring for experiments.
//! * [`postprocess`] — block-scan correlation across alerts.
//! * [`mitigate`] — per-attack-type countermeasure planning (§1's "attack
//!   root cause analysis for mitigation").
//!
//! ## Quickstart
//!
//! ```
//! use hifind::{HiFind, HiFindConfig};
//! use hifind_flow::{Packet, Trace};
//!
//! // A tiny trace: two quiet minutes, then a scanner probing many
//! // addresses on port 445 (a *change* against the forecast).
//! let mut trace = Trace::new();
//! for minute in 0..3u64 {
//!     let client = [9, 9, 9, 9].into();
//!     trace.push(Packet::syn(minute * 60_000, client, 4000, [10, 0, 0, 1].into(), 80));
//!     trace.push(Packet::syn_ack(minute * 60_000 + 5, client, 4000, [10, 0, 0, 1].into(), 80));
//!     if minute == 2 {
//!         for i in 0..200u32 {
//!             let dst = [10, 0, (i >> 8) as u8, i as u8].into();
//!             trace.push(Packet::syn(
//!                 minute * 60_000 + 10 + i as u64 * 250,
//!                 [6, 6, 6, 6].into(), 2000, dst, 445,
//!             ));
//!         }
//!     }
//! }
//! let mut ids = HiFind::new(HiFindConfig::paper(7)).unwrap();
//! let log = ids.run_trace(&trace);
//! assert!(log.final_alerts().iter().any(|a| a.kind.is_scan()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod classify;
pub mod config;
pub mod detector;
pub mod evaluate;
pub mod fp_filter;
pub mod metrics;
pub mod mitigate;
pub mod parallel;
pub mod pipeline;
pub mod plan;
pub mod postprocess;
pub mod recorder;
pub mod report;
pub mod run_report;
pub mod telemetry_ext;

pub use aggregate::HiFindAggregator;
pub use config::HiFindConfig;
pub use evaluate::{evaluate, EvalSummary};
pub use mitigate::{plan as mitigation_plan, Action, MitigationPolicy};
pub use parallel::{MergeStats, ParallelError, ParallelRecorder};
pub use pipeline::{CoreCheckpoint, DetectionCore, HiFind, IntervalOutcome};
pub use plan::{HashPlan, PlanBatch};
pub use postprocess::{correlate_block_scans, BlockScanReport};
pub use recorder::{IntervalSnapshot, SketchRecorder, SnapshotShape};
pub use report::{Alert, AlertKind, AlertLog, Phase};
pub use run_report::{IntervalReport, PhaseAlertCounts, PhaseNanos, RunReport};

/// The live-metrics crate, re-exported so downstream users of
/// [`HiFind::attach_telemetry`] (the CLI, the bench harness) can name
/// [`hifind_telemetry::Registry`] without a direct dependency.
pub use hifind_telemetry as telemetry;
