//! # flashmem-profiler
//!
//! The offline profiling stage of FlashMem (Figure 3, "Profiler" box):
//!
//! * [`classify`] — the Table 5 operator classification (elemental / reusable /
//!   hierarchical) with memory-bandwidth, load-capacity-tolerance and
//!   compute-intensity levels.
//! * [`latency_model`] — lowering of graph nodes and fusion groups into
//!   simulator kernels, and the Figure 2 overlap-interference sweep.
//! * [`sampling`] — systematic kernel sampling with injected extra I/O, the
//!   training data of Figure 4.
//! * [`gbrt`] — a from-scratch gradient-boosted regression-tree model standing
//!   in for XGBoost (not available offline).
//! * [`capacity`] — per-layer load capacities `C_ℓ`, either via the paper's
//!   static thresholds (0% / 20% / 300%) or via the trained regressor.
//!
//! ## Example
//!
//! ```rust
//! use flashmem_gpu_sim::DeviceSpec;
//! use flashmem_graph::{FusionPlan, ModelZoo};
//! use flashmem_profiler::CapacityProfiler;
//!
//! let model = ModelZoo::vit();
//! let plan = FusionPlan::default_fusion(model.graph());
//! let capacities = CapacityProfiler::new(DeviceSpec::oneplus_12())
//!     .capacities(model.graph(), &plan);
//! assert_eq!(capacities.len(), plan.len());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![warn(clippy::too_many_lines)]

pub mod capacity;
pub mod classify;
pub mod gbrt;
pub mod latency_model;
pub mod sampling;

pub use capacity::{CapacityPolicy, CapacityProfiler, LoadCapacity};
pub use classify::{kernel_category, kernel_category_of, Level, OperatorClass};
pub use gbrt::{GbrtConfig, GbrtModel, RegressionTree};
pub use latency_model::{
    kernel_for_group, kernel_for_node, overlap_sweep, LoweringOptions, OverlapPoint,
};
pub use sampling::{KernelSample, KernelSampler, SamplingConfig};
