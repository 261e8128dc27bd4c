//! # mvml-bench — the experiment harness
//!
//! One binary per table/figure of the paper (see `src/bin/`), plus the
//! shared pipelines they build on:
//!
//! * [`calibrate`] — the Table II pipeline (train → inject → `p`/`p'`/`α`).
//! * [`campaign`] — the runtime fault-injection campaign (grid, headline,
//!   DSPN cross-check) behind `results/CAMPAIGN_runtime.json`.
//! * [`casestudy`] — the Tables VI–VIII pipeline (detector bank, parallel
//!   route campaigns).
//! * [`mod@format`] — plain-text table rendering.
//!
//! | Binary | Regenerates |
//! |---|---|
//! | `table2_accuracy` | Table II (healthy vs compromised accuracy) |
//! | `table3_states` | Table III (per-state reliability functions) |
//! | `table5_reliability` | Tables IV–V (DSPN expected reliability) |
//! | `fig4_sweeps` | Fig. 4 (a)–(f) parameter studies |
//! | `table6_routes` | Table VI (collision data, 8 routes, w/ vs w/o) |
//! | `table7_interval` | Table VII (rejuvenation-interval impact) |
//! | `table8_overhead` | Table VIII (FPS / CPU / compute overhead) |
//! | `petri_analyze` | Structural certificates for the paper nets (`results/ANALYSIS_petri.json`) |
//! | `campaign` | Runtime fault-injection campaign (`results/CAMPAIGN_runtime.json`) |

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Experiment drivers, not library code: when a solver or file write
// fails there is no caller to recover, so aborting loudly via
// unwrap/expect is the right behaviour (workspace policy sets these
// lints to warn; CI promotes warnings to errors).
#![allow(clippy::unwrap_used, clippy::expect_used)]

pub mod calibrate;
pub mod campaign;
pub mod casestudy;
pub mod format;
