//! # flashmem-graph
//!
//! DNN computational-graph representation, operator taxonomy and the model zoo
//! used by the FlashMem (ASPLOS '26) reproduction.
//!
//! The paper treats a DNN as a DAG of low-level operators executed in a fixed
//! linear order (Section 3.1); each operator may own a weight tensor, and the
//! planner reasons about weight *sizes*, operator *categories* (Table 5) and
//! arithmetic *work* — never about numeric values. This crate provides exactly
//! that abstraction:
//!
//! * [`TensorDesc`]/[`DType`] — shape + dtype descriptors.
//! * [`OpKind`]/[`OpCategory`] — the operator taxonomy with the paper's
//!   elemental / reusable / hierarchical classification.
//! * [`Graph`]/[`Node`]/[`GraphBuilder`] — lowered graphs in execution order.
//! * [`WeightInventory`]/[`WeightChunk`] — weight extraction and chunking for
//!   the OPG formulation.
//! * [`FusionPlan`]/[`FusionGroup`] — kernel fusion groups and the split
//!   primitive used by adaptive fusion.
//! * [`ModelZoo`] — parametric generators for the 11 evaluated models of
//!   Table 6 (plus the Table 4 solver-stress models).
//!
//! ## Example
//!
//! ```rust
//! use flashmem_graph::{GraphBuilder, ModelZoo, OpKind};
//!
//! // Hand-built graph…
//! let mut b = GraphBuilder::new("mlp");
//! let x = b.input("x", &[128, 768]);
//! let h = b.matmul("fc1", x, 3072);
//! let h = b.unary("gelu", OpKind::GeLU, h);
//! b.matmul("fc2", h, 768);
//! let g = b.build();
//! assert!(g.validate().is_ok());
//!
//! // …or one of the paper's evaluation models.
//! let vit = ModelZoo::vit();
//! assert!(vit.graph().total_params() > 90_000_000);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![warn(clippy::too_many_lines)]

pub mod builder;
pub mod fusion;
pub mod graph;
pub mod models;
pub mod op;
pub mod tensor;
pub mod weights;

pub use builder::GraphBuilder;
pub use fusion::{FusionGroup, FusionPlan};
pub use graph::{Graph, GraphError, Node, NodeId};
pub use models::{ModelSpec, ModelTask, ModelZoo, PaperStats};
pub use op::{OpCategory, OpKind};
pub use tensor::{DType, TensorDesc};
pub use weights::{WeightChunk, WeightInfo, WeightInventory, DEFAULT_CHUNK_BYTES};
