//! # systolic-dp
//!
//! A reproduction of **Wah & Li, "Systolic Processing for Dynamic
//! Programming Problems" (1985)** as a Rust workspace: cycle-accurate
//! systolic-array designs for the four DP formulation classes
//! (monadic/polyadic × serial/nonserial), divide-and-conquer scheduling
//! over banks of arrays, AND/OR-graph search, and the nonserial→serial
//! transforms — with every table, figure, and proposition of the paper
//! regenerated by the `experiments` binary in `sdp-bench`.
//!
//! This crate is a facade that re-exports the workspace members:
//!
//! | crate | contents |
//! |---|---|
//! | [`semiring`] | min-plus (tropical) algebra, dense matrices |
//! | [`systolic`] | clocked array simulation engine + schedulers |
//! | [`multistage`] | multistage graphs, generators, DP baselines |
//! | [`andor`] | AND/OR graphs, partitioning, chain DP, transforms |
//! | [`core`] | the paper's systolic designs (Figs. 3–5), §4–§6 machinery |
//! | [`serve`] | dynamic-batching TCP request server over the engines |
//!
//! ## Quickstart
//!
//! ```
//! use systolic_dp::prelude::*;
//!
//! // A random 8-stage shortest-path problem with 4 states per stage.
//! let g = generate::random_single_source_sink(42, 8, 4, 0, 99);
//!
//! // Sequential dynamic programming (the baseline)...
//! let dp = solve::forward_dp(&g);
//!
//! // ...and the paper's pipelined systolic array (Design 1, Fig. 3),
//! // with no fault injection and no tracing.
//! let systolic = Design1Array::new(4)
//!     .run(g.matrix_string(), &mut NoFaults, &mut NullSink)
//!     .expect("a valid matrix string");
//!
//! assert_eq!(systolic.optimum(), dp.cost);
//! ```
//!
//! Every engine has one entry point that takes a fault injector and an
//! event sink by `&mut`: pass [`NoFaults`](prelude::NoFaults) and
//! [`NullSink`](prelude::NullSink) for a plain run (both compile away),
//! an `sdp_fault::PlanInjector` to inject faults, or an
//! `sdp_trace::CountingSink` or `sdp_trace::vcd::VcdSink` to observe it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use sdp_andor as andor;
pub use sdp_core as core;
pub use sdp_multistage as multistage;
pub use sdp_semiring as semiring;
pub use sdp_serve as serve;
pub use sdp_systolic as systolic;

/// Convenient re-exports for applications.
pub mod prelude {
    pub use sdp_andor::chain::{matrix_chain_order, optimal_bst};
    pub use sdp_andor::nonserial::TernaryChain;
    pub use sdp_andor::partition::build_partition_graph;
    pub use sdp_andor::serialize::serialize;
    pub use sdp_andor::{reduction, topdown};
    pub use sdp_core::align::{sw_mesh, sw_mesh_aligned, Scoring};
    pub use sdp_core::chain_array::{simulate_chain_array, ChainMapping};
    pub use sdp_core::classify::{table1, Formulation};
    pub use sdp_core::dnc;
    pub use sdp_core::gkt::GktArray;
    pub use sdp_core::knapsack_array::{knapsack_array, KnapsackItem};
    pub use sdp_core::{Design1Array, Design2Array, Design3Array};
    pub use sdp_fault::NoFaults;
    pub use sdp_multistage::{generate, solve, MultistageGraph, NodeValueGraph};
    pub use sdp_semiring::{Cost, Matrix, MinPlus, Semiring};
    pub use sdp_trace::NullSink;
}
