//! Table 4 — execution-time breakdown of the LC-OPG solver (process nodes /
//! build model / solve model) and its termination status under a per-window
//! node limit.
//!
//! The status and search-node columns are deterministic: the search stops on
//! a node count, never on the clock, so they repeat exactly on any host. The
//! phase times are host wall-clock measurements.

use std::time::Duration;

use flashmem_core::{FlashMemConfig, LcOpgSolver};
use flashmem_gpu_sim::DeviceSpec;
use flashmem_graph::{ModelSpec, ModelZoo};

use crate::table::TextTable;

/// One row of Table 4.
#[derive(Debug, Clone, PartialEq)]
pub struct Table4Row {
    /// Model name.
    pub model: String,
    /// Number of lowered nodes in the graph.
    pub graph_nodes: usize,
    /// Time spent processing nodes (graph, fusion, capacities).
    pub process_nodes: Duration,
    /// Time spent building CP models.
    pub build_model: Duration,
    /// Time spent solving.
    pub solve_model: Duration,
    /// Final solver status (`OPTIMAL` / `FEASIBLE`).
    pub status: String,
    /// Branch-and-bound nodes explored over all windows.
    pub search_nodes: u64,
    /// Fraction of weights streamed by the resulting plan.
    pub streamed_fraction: f64,
}

/// The full Table 4 result.
#[derive(Debug, Clone, PartialEq)]
pub struct Table4 {
    /// Rows in model order.
    pub rows: Vec<Table4Row>,
    /// The per-window node limit used.
    pub node_limit: u64,
}

fn models(quick: bool) -> Vec<ModelSpec> {
    if quick {
        vec![ModelZoo::gptneo_small(), ModelZoo::vit()]
    } else {
        vec![
            ModelZoo::gptneo_small(),
            ModelZoo::gptneo_1_3b(),
            ModelZoo::gptneo_2_7b(),
            ModelZoo::vit_8b(),
            ModelZoo::llama2_13b(),
            ModelZoo::llama2_70b(),
        ]
    }
}

/// Run the Table 4 experiment under memory priority with the planner's
/// default node limit.
pub fn run(quick: bool) -> Table4 {
    let device = DeviceSpec::oneplus_12();
    let config = FlashMemConfig::memory_priority();
    let rows = models(quick)
        .into_iter()
        .map(|model| {
            let solver = LcOpgSolver::new(device.clone(), config.clone());
            let (plan, report) = solver.plan(model.graph());
            Table4Row {
                model: model.name.clone(),
                graph_nodes: model.graph().len(),
                process_nodes: report.process_nodes,
                build_model: report.build_model,
                solve_model: report.solve_model,
                status: report.status.name().to_string(),
                search_nodes: report.solver_nodes,
                streamed_fraction: plan.streamed_fraction(),
            }
        })
        .collect();
    Table4 {
        rows,
        node_limit: config.solver_node_limit,
    }
}

impl std::fmt::Display for Table4 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Table 4: LC-OPG execution-time breakdown (node limit {} per window)",
            self.node_limit
        )?;
        let mut t = TextTable::new(&[
            "Model",
            "Graph nodes",
            "Process nodes (s)",
            "Build model (s)",
            "Solve model (s)",
            "Solver Status",
            "Search nodes",
            "Streamed (%)",
        ]);
        for r in &self.rows {
            t.row(&[
                r.model.clone(),
                format!("{}", r.graph_nodes),
                format!("{:.3}", r.process_nodes.as_secs_f64()),
                format!("{:.3}", r.build_model.as_secs_f64()),
                format!("{:.3}", r.solve_model.as_secs_f64()),
                r.status.clone(),
                format!("{}", r.search_nodes),
                format!("{:.1}", r.streamed_fraction * 100.0),
            ]);
        }
        write!(f, "{t}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_table_4_reports_statuses_and_phase_times() {
        let result = run(true);
        assert_eq!(result.rows.len(), 2);
        for r in &result.rows {
            assert!(r.graph_nodes > 100);
            assert_eq!(r.status, "OPTIMAL", "{}", r.model);
            assert!(r.search_nodes > 0);
            assert!(r.streamed_fraction > 0.0);
            // Every phase is accounted for (may be tiny but not negative).
            assert!(r.process_nodes + r.build_model + r.solve_model > Duration::ZERO);
        }
        // Status and search nodes are deterministic; only the times move.
        let deterministic = |t: &Table4| -> Vec<(String, u64)> {
            t.rows
                .iter()
                .map(|r| (r.status.clone(), r.search_nodes))
                .collect()
        };
        assert_eq!(deterministic(&run(true)), deterministic(&result));
        let text = result.to_string();
        assert!(text.contains("GPTNeo-Small"));
        assert!(text.contains("Solver Status"));
        assert!(text.contains("Search nodes"));
    }

    #[test]
    fn larger_models_cost_more_planner_time() {
        let result = run(true);
        let small = &result.rows[0]; // GPT-Neo-S
        let vit = &result.rows[1];
        let total = |r: &Table4Row| r.process_nodes + r.build_model + r.solve_model;
        // ViT has more weights to schedule than GPT-Neo-S (more blocks).
        assert!(vit.graph_nodes > small.graph_nodes);
        assert!(
            total(vit) >= total(small) / 4,
            "planner time not absurdly inverted"
        );
    }
}
