//! # mvml-petri — a DSPN modelling and analysis engine
//!
//! This crate implements Deterministic and Stochastic Petri Nets (DSPNs) as
//! used by the DSN'25 paper *"Multi-version Machine Learning and Rejuvenation
//! for Resilient Perception in Safety-critical Systems"*. It plays the role
//! that [TimeNET](https://timenet.tu-ilmenau.de/) plays in the paper: build a
//! net, solve it for its steady-state distribution, and evaluate reward
//! (reliability) functions over the markings.
//!
//! ## Model class
//!
//! * **Places** hold non-negative integer token counts.
//! * **Transitions** are *immediate* (fire in zero time, selected by
//!   marking-dependent weights and priorities), *exponential* (fire after an
//!   exponentially distributed delay, with single-/infinite-/k-server
//!   semantics), or *deterministic* (fire after a fixed delay with enabling
//!   memory).
//! * **Arcs** are input, output or inhibitor arcs, each with a weight.
//! * **Guards** are boolean functions of the current marking that gate a
//!   transition's enabling, exactly like TimeNET's enabling functions.
//!
//! ## Solution methods
//!
//! * [`analysis`] — structural (static) verification from the incidence
//!   matrix alone: P/T-invariants, boundedness certificates, dead-transition
//!   and immediate-cycle detection, surfaced via [`Net::analyze`].
//! * [`reach`] — explicit reachability-graph generation with on-the-fly
//!   elimination of *vanishing* markings (markings that enable an immediate
//!   transition).
//! * [`ctmc`] — exact steady-state solution of the embedded continuous-time
//!   Markov chain (dense Gaussian elimination for small chains, Gauss–Seidel
//!   for large sparse ones).
//! * [`erlang`] — phase-type expansion that replaces each deterministic
//!   transition by an Erlang-*k* chain of exponential stages, turning a DSPN
//!   into a (larger) SPN that the CTMC solver handles exactly. The
//!   approximation error vanishes as *k → ∞*; `k = 32` reproduces the paper's
//!   rejuvenation models to well under 0.1%.
//! * [`sim`] — a discrete-event Monte-Carlo simulator with warm-up deletion
//!   and batch-means confidence intervals, used to cross-validate the
//!   analytical solutions (the paper's Table V is itself produced "through
//!   DSPN simulation"), built on the [`Simulator`] stepper that also runs a
//!   net as a live process.
//! * [`solve`] — a [`SolutionMethod`] facade unifying the three backends
//!   (dense / Gauss–Seidel / simulation); every solve reports which backend
//!   ran and its residual via [`SolutionInfo`].
//!
//! ## Example
//!
//! A two-state availability model (fail rate λ, repair rate μ) has the
//! closed-form availability μ/(λ+μ):
//!
//! ```
//! use mvml_petri::{NetBuilder, steady_state, ExpectedReward};
//!
//! # fn main() -> Result<(), mvml_petri::PetriError> {
//! let mut b = NetBuilder::new("availability");
//! let up = b.place("up", 1);
//! let down = b.place("down", 0);
//! let fail = b.exponential("fail", 0.01);
//! let repair = b.exponential("repair", 1.0);
//! b.input_arc(up, fail, 1)?;
//! b.output_arc(fail, down, 1)?;
//! b.input_arc(down, repair, 1)?;
//! b.output_arc(repair, up, 1)?;
//! let net = b.build()?;
//!
//! let solution = steady_state(&net)?;
//! let availability = solution.expected_reward(|m| f64::from(m[up]));
//! assert!((availability - 1.0 / 1.01).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// The solver's expect/unwrap sites are invariants of already-validated
// nets (every fallible path returns `PetriError` at the API boundary);
// panicking on a broken internal invariant is deliberate here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

mod enabling;
mod error;
mod marking;
mod model;

pub mod analysis;
pub mod ctmc;
pub mod erlang;
pub mod linalg;
pub mod reach;
pub mod reward;
pub mod sim;
pub mod solve;
pub mod transient;

pub use analysis::{
    analyze_with, AnalysisOptions, Finding, FindingKind, Invariant, Severity, StructuralReport,
};
pub use ctmc::{steady_state, steady_state_with, SolverOptions, SteadyState};
pub use erlang::erlang_expand;
pub use error::PetriError;
pub use marking::Marking;
pub use model::{
    Net, NetBuilder, PlaceId, RateSpec, ServerSemantics, Timing, TransitionId, WeightSpec,
};
pub use reach::{ReachOptions, ReachabilityGraph};
pub use reward::ExpectedReward;
pub use sim::{simulate, Firing, SimConfig, SimResult, Simulator};
pub use solve::{solve_graph, solve_steady, Backend, Solution, SolutionInfo, SolutionMethod};
pub use transient::{transient, TransientSolution};
