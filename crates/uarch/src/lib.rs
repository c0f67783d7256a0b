#![warn(missing_docs)]

//! HPS-like wide-issue out-of-order timing model.
//!
//! The paper measures the target cache's end-to-end benefit as *reduction
//! in execution time* on the HPS microarchitecture: a wide-issue,
//! out-of-order machine using Tomasulo-style dynamic scheduling with
//! checkpoint repair — "checkpoints are established for each branch; thus,
//! once a branch misprediction is determined, instructions from the correct
//! path are fetched in the next cycle."
//!
//! This crate reimplements that machine as a deterministic trace-driven
//! timing model:
//!
//! * **Front end** — the `target-cache` crate's
//!   [`PredictionHarness`](target_cache::harness::PredictionHarness)
//!   (BTB + two-level predictor + return stack + optional target cache)
//!   decides, for every branch, whether the fetch stream was redirected
//!   correctly. Fetch supplies up to `fetch_width` instructions per cycle
//!   and cannot fetch past a taken branch within a cycle.
//! * **Execution core** — register renaming (modelled as per-register
//!   ready times), a bounded in-flight window with in-order retirement,
//!   `fu_count` universal function units with the class latencies of the
//!   paper's Table 3, and a simulated data cache with a fixed miss penalty.
//! * **Misprediction recovery** — a mispredicted branch blocks fetch of
//!   younger instructions until the cycle after the branch executes
//!   (checkpoint repair: no drain, no retrain).
//!
//! Because the model is trace-driven along the correct path, wrong-path
//! instructions are not simulated; their cost appears as the fetch gap
//! between a mispredicted branch and its resolution, which is the dominant
//! first-order effect the paper's execution-time numbers capture.
//!
//! # Two engines, one schedule
//!
//! [`simulate`] is the reference engine: one loop that runs the harness,
//! the data cache and the schedule together, one instruction at a time.
//! It is the naive twin every faster path must match, and the one
//! [`simulate_instrumented`] times stage by stage under `REPRO_PROF=full`.
//!
//! Campaigns use the split engine instead, which computes the same
//! reports in three passes, each as rarely as its inputs allow:
//!
//! 1. [`prepare`] — once per trace and ([`PrepareKey`]: class latencies,
//!    data cache): the data cache runs over the trace, and each
//!    instruction becomes 4 bytes of operands, latency code and branch
//!    flags ([`PreparedTrace`]).
//! 2. [`FrontEndPass::replay`] — once per trace and front end: the
//!    prediction harness replays the trace and records one mispredicted
//!    bit per branch. The same pass answers a functional request.
//! 3. [`schedule`] — once per machine: fetch, execute and retire over the
//!    prepared trace. A batch of machines advances in lockstep, chunk by
//!    chunk, so the prepared trace is read once per batch.
//!
//! The wrong path is never fetched, so the data cache sees the same
//! address sequence and the harness the same branches on every walk:
//! nothing a later pass computes feeds back into an earlier one.
//!
//! # Example
//!
//! ```
//! use hps_uarch::{simulate, MachineConfig};
//! use target_cache::harness::FrontEndConfig;
//! use target_cache::TargetCacheConfig;
//! use sim_workloads::Benchmark;
//!
//! let trace = Benchmark::Perl.workload().generate(20_000);
//! let base = simulate(&trace, &MachineConfig::isca97(FrontEndConfig::isca97_baseline()));
//! let tc = simulate(&trace, &MachineConfig::isca97(FrontEndConfig::isca97_with(
//!     TargetCacheConfig::isca97_tagless_gshare(),
//! )));
//! assert!(tc.cycles <= base.cycles, "the target cache must not slow perl down");
//!
//! // The split engine: prepare once, replay each front end once, then
//! // schedule both machines in one lockstep batch.
//! use hps_uarch::{prepare, schedule, FrontEndPass};
//! use target_cache::harness::PredictionHarness;
//!
//! let machines = [
//!     MachineConfig::isca97(FrontEndConfig::isca97_baseline()),
//!     MachineConfig::isca97(FrontEndConfig::isca97_with(
//!         TargetCacheConfig::isca97_tagless_gshare(),
//!     )),
//! ];
//! let prepared = prepare(&trace, &machines[0]);
//! let passes: Vec<FrontEndPass> = machines
//!     .iter()
//!     .map(|m| FrontEndPass::replay(&mut PredictionHarness::new(m.frontend), &trace))
//!     .collect();
//! let reports = schedule(&prepared, &[(&machines[0], &passes[0]), (&machines[1], &passes[1])]);
//! assert_eq!(reports, vec![base, tc]);
//! ```

pub mod config;
pub mod dcache;
pub mod engine;
pub mod prepare;
pub mod report;
pub mod schedule;

pub use config::{DCacheConfig, MachineConfig};
pub use dcache::DataCache;
pub use engine::{simulate, simulate_instrumented};
pub use prepare::{prepare, PrepareKey, PreparedTrace};
pub use report::SimReport;
pub use schedule::{schedule, FrontEndPass};
