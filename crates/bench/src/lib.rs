//! Experiment harness reproducing every table and figure of the HiFIND
//! paper (see DESIGN.md §4 for the experiment index and EXPERIMENTS.md for
//! recorded results).
//!
//! `src/bin/paper_traces.rs` regenerates every table and figure read off
//! the two paper traces (Tables 4–8, Figure 4, §5.2, §5.4) from one
//! detection run per trace; `table1`, `table9`, `mem_accesses` and
//! `ablation_accuracy` regenerate the rest. Per-layer performance
//! (§5.5.3) is the end-to-end benchmark's (`benchmark/`, `--trace 1`);
//! what it cannot answer is left here, each file opening with its
//! question: the perf bins
//! `multi_router`, `hierarchy`, `parallel_record` and
//! `telemetry_overhead`, whose `results/BENCH_*.json` carry a
//! [`harness::Provenance`] header, and the Criterion benches under
//! `benches/` (INFERENCE vs heavy-key count; hash and stage ablations).
//! This library holds what they share:
//!
//! * [`exact::ExactHiFind`] — the paper's "non-sketch" method: the same
//!   three-step detection algorithm over exact per-key tables (§5.2,
//!   Table 9).
//! * [`harness`] — scenario scaling, alert/truth set algebra, table
//!   printing helpers, and the perf bins' provenance header.
//! * [`overhead`] — instrumented-vs-uninstrumented recording throughput
//!   (an attached telemetry registry's < 5% record-path budget).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exact;
pub mod harness;
pub mod overhead;

pub use exact::ExactHiFind;
