//! Cached metric handles for one [`SheetEngine`](crate::SheetEngine).
//!
//! Created once per sheet from the workspace's shared
//! [`MetricsRegistry`] and attached via `SheetEngine::set_obs`; recording
//! is a few relaxed atomics and a clock-read pair per recompute cascade /
//! checkpoint.

use std::sync::Arc;

use dataspread_obs::{now_ms, Counter, Event, Histogram, MetricsRegistry};

/// Engine-level metric handles: checkpoint duration and page writes,
/// recompute wave count/width/duration, and the batch-vs-scalar
/// evaluation split.
#[derive(Clone)]
pub struct EngineObs {
    registry: Arc<MetricsRegistry>,
    sheet: String,
    /// `checkpoint_ns{sheet}` — checkpoint wall time.
    pub checkpoint_ns: Arc<Histogram>,
    /// `checkpoint_pages_written{sheet}` — pages rewritten by checkpoints.
    pub checkpoint_pages: Arc<Counter>,
    /// `recompute_waves{sheet}` — topological waves executed.
    pub waves: Arc<Counter>,
    /// `recompute_wave_width{sheet}` — cells per wave.
    pub wave_width: Arc<Histogram>,
    /// `recompute_ns{sheet}` — whole-cascade recompute wall time.
    pub recompute_ns: Arc<Histogram>,
    /// `eval_batch_cells{sheet}` — cells evaluated by vectorized sweeps.
    pub batch_evals: Arc<Counter>,
    /// `eval_scalar_cells{sheet}` — cells evaluated by per-cell walks.
    pub scalar_evals: Arc<Counter>,
}

impl EngineObs {
    /// Create (or re-acquire) the engine metric handles for `sheet`.
    pub fn new(registry: &Arc<MetricsRegistry>, sheet: &str) -> EngineObs {
        let labels: &[(&str, &str)] = &[("sheet", sheet)];
        EngineObs {
            registry: Arc::clone(registry),
            sheet: sheet.to_string(),
            checkpoint_ns: registry.histogram("checkpoint_ns", labels),
            checkpoint_pages: registry.counter("checkpoint_pages_written", labels),
            waves: registry.counter("recompute_waves", labels),
            wave_width: registry.histogram("recompute_wave_width", labels),
            recompute_ns: registry.histogram("recompute_ns", labels),
            batch_evals: registry.counter("eval_batch_cells", labels),
            scalar_evals: registry.counter("eval_scalar_cells", labels),
        }
    }

    /// Record a checkpoint that failed after starting — the rollback the
    /// undo journal will perform at the next open.
    pub fn note_checkpoint_rollback(&self, cause: &str) {
        self.registry.push_event(Event {
            ts_ms: now_ms(),
            kind: "checkpoint_rollback".to_string(),
            sheet: self.sheet.clone(),
            op: "checkpoint".to_string(),
            duration_ns: 0,
            ticket: 0,
            outcome: cause.to_string(),
        });
    }
}

impl std::fmt::Debug for EngineObs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineObs")
            .field("sheet", &self.sheet)
            .finish()
    }
}
