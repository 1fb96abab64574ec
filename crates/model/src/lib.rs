//! # brisk-model
//!
//! The NUMA-aware, rate-based performance model of BriskStream (Section 3).
//!
//! Given an execution graph (operators expanded into replicas) and a —
//! possibly partial — placement of its vertices onto CPU sockets, the model
//! predicts the **output rate of every operator** and hence the application
//! throughput `R = Σ_sink ro`. The crucial difference from classic rate-based
//! optimization (Viglas & Naughton) is that an operator's processing
//! capability is *not* a constant: the per-tuple cost
//!
//! ```text
//! T(p) = Te + Tf,    Tf = ceil(N / S) * L(i, j)   (Formula 2)
//! ```
//!
//! depends on the NUMA distance `L(i,j)` between the operator and each of its
//! producers under plan `p`. The same replica is up to ~9× slower when
//! fetching across CPU trays than when collocated (Figure 8).
//!
//! The model also checks the three resource-constraint families the
//! optimizer must respect (Eq. 3–5): per-socket CPU cycles, per-socket local
//! DRAM bandwidth and per-link remote channel bandwidth — plus the physical
//! one-replica-per-core limit implied by the paper's core-isolated execution.
//!
//! The model is split into what a graph fixes and what a placement changes
//! ([`prepared`]): [`Evaluator::prepare`] derives the placement-independent
//! terms once per execution graph, and a [`Cursor`] prices placements over
//! them, re-pricing only what a `place`/`unplace` step touched — which is
//! what makes a B&B node cheap. [`Evaluator::evaluate`] and
//! [`Evaluator::bound`] are the one-shot form of the same pass.
//!
//! Three fetch-cost policies support the Figure 12 ablation:
//!
//! * [`TfPolicy::RelativeLocation`] — the real RLAS model.
//! * [`TfPolicy::AlwaysRemote`] — `RLAS_fix(L)`: every operator
//!   pessimistically pays the worst-case (max-hop) fetch penalty.
//! * [`TfPolicy::NeverRemote`] — `RLAS_fix(U)`: remote memory access is
//!   ignored entirely.

pub mod comm;
pub mod constraints;
pub mod evaluator;
pub mod predict;
pub mod prepared;
pub mod recalibrate;

pub use comm::comm_cost_matrix;
pub use constraints::{ConstraintReport, ResourceDemand, Violation};
pub use evaluator::{
    Evaluation, Evaluator, Ingress, TfPolicy, VertexRates, BOTTLENECK_TOLERANCE,
    DEFAULT_QUEUE_OVERHEAD_NS,
};
pub use predict::{predict_for_plan, OperatorPrediction, PlanPrediction};
pub use prepared::{Cursor, PreparedModel};
pub use recalibrate::{
    recalibrate_from_measurement, MeasuredOperator, Recalibration, MIN_CALIBRATION_TUPLES,
};
