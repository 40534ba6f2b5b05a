//! Presentational awareness: primitive and hybrid data models (paper §IV).
//!
//! A spreadsheet can be stored in a database as a single table — row
//! oriented (ROM), column oriented (COM), or row-column-value (RCV) — or
//! decomposed into multiple tables, one per region, each using the model
//! that suits that region ("hybrid data models"). Finding the best hybrid is
//! NP-hard (Theorem 1, by reduction from minimum edge-length rectilinear
//! partitioning), but restricting to decompositions obtainable by recursive
//! horizontal/vertical cuts admits an exact dynamic program (Theorem 2) as
//! well as cheap greedy heuristics.
//!
//! * [`cost::CostModel`] — the s1..s5 storage constants (PostgreSQL and
//!   "ideal database" presets) plus optional access costs,
//! * [`view::GridView`] — (weighted) occupancy with O(1) rectangle counts;
//!   collapsing structurally identical adjacent rows/columns implements the
//!   paper's *weighted representation* (Theorem 5: no loss of optimality),
//! * [`dp`] — optimal recursive decomposition, O(n⁵),
//! * [`greedy`] — the greedy and aggressive-greedy heuristics, O(n²),
//! * [`incremental`] — maintenance under edits with migration factor η,
//! * [`bounds`] — the OPT lower bound and the ⌊e·s2/s1 + 1⌋ table-count
//!   upper bound (Theorems 3 and 4).

pub mod bounds;
pub mod cost;
pub mod dp;
pub mod greedy;
pub mod incremental;
pub mod model;
pub mod view;

pub use bounds::{opt_lower_bound, table_count_upper_bound};
pub use cost::{AccessModel, CostModel};
pub use dp::optimize_dp;
pub use greedy::{optimize_agg, optimize_greedy};
pub use incremental::{incremental_agg, IncrementalOptions};
pub use model::{Decomposition, ModelKind, Region};
pub use view::{GridView, Occupancy};

/// Which single-table models the optimizer may assign to a region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelSet {
    pub rom: bool,
    pub com: bool,
    pub rcv: bool,
}

impl ModelSet {
    /// ROM-only — the setting of Problem 1 (Hybrid-ROM).
    pub const ROM_ONLY: ModelSet = ModelSet {
        rom: true,
        com: false,
        rcv: false,
    };

    /// ROM + COM + RCV — the extension of Theorem 6.
    pub const ALL: ModelSet = ModelSet {
        rom: true,
        com: true,
        rcv: true,
    };
}

impl Default for ModelSet {
    fn default() -> Self {
        ModelSet::ALL
    }
}

/// Options shared by the optimizers.
#[derive(Debug, Clone)]
pub struct OptimizerOptions {
    pub models: ModelSet,
    /// DP guard: refuse grids whose (collapsed) side exceeds this, since DP
    /// is O(n⁵) (the paper terminates DP after a wall-clock budget; we bound
    /// the input instead so behaviour is deterministic).
    pub dp_max_side: usize,
    /// Optional formula/scroll workload: rectangles whose access cost is
    /// added to the objective (paper Theorem 7 extension).
    pub workload: Vec<dataspread_grid::Rect>,
    /// Access-cost constants; only used when `workload` is non-empty.
    pub access: AccessModel,
}

impl Default for OptimizerOptions {
    fn default() -> Self {
        OptimizerOptions {
            models: ModelSet::default(),
            dp_max_side: 96,
            workload: Vec::new(),
            access: AccessModel::default(),
        }
    }
}
