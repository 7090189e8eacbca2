//! # flashmem-baselines
//!
//! Simulated baseline frameworks for the FlashMem evaluation:
//!
//! * [`PreloadFramework`] with behaviour profiles for **MNN**, **NCNN**,
//!   **TVM**, **LiteRT** and **ExecuTorch** — the commercial preloading
//!   frameworks of Tables 7/8, including their operator/model support matrix
//!   (the "–" cells).
//! * [`SmartMem`] — the precursor research prototype (layout-transformation
//!   elimination, still preloading) that FlashMem is measured against in the
//!   Mem-ReDT column, the breakdown study and the portability study.
//! * [`NaiveOverlap`] — the Always-Next and Same-Op-Type streaming strawmen of
//!   Figure 9, which share FlashMem's executor but plan without load-capacity
//!   awareness.
//!
//! All of them implement the [`InferenceEngine`] trait from `flashmem-core`,
//! and [`registry`] assembles the standard line-ups so the benchmark harness
//! can sweep the full engine × model × device matrix uniformly.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![warn(clippy::too_many_lines)]

pub mod naive_overlap;
pub mod preload;
pub mod registry;
pub mod smartmem;

pub use flashmem_core::engine::{
    run_or_dash, CompiledArtifact, EngineRegistry, FrameworkKind, InferenceEngine,
};
pub use naive_overlap::{NaiveOverlap, NaiveStrategy};
pub use preload::{FrameworkProfile, PreloadFramework};
pub use registry::{baseline_registry, flashmem_engine, standard_registry};
pub use smartmem::SmartMem;
