//! Engine settings legs and transparent/opaque step twins shared by the
//! conformance suites.
//!
//! The engine has one executor; what varies between runs is the settings
//! it is given. Every conformance check runs over [`legs`] — morsel size
//! {default, 16, 1} × exchange budget {unset, 4096, 0} — and must produce
//! identical rows, order, shuffle volumes and first errors on each.
//!
//! Columnar against row execution is checked inside one context instead:
//! a chain built with [`map_step`]/[`filter_step`] runs once transparent
//! (`map_expr`/`filter_expr`, lowered to columnar tiles) and once as its
//! opaque twin (the same expression behind a closure, which keeps the
//! stage on the row path).

#![allow(dead_code)]

use diablo_dataflow::{Context, Dataset, RowExpr};
use diablo_runtime::{RuntimeError, Value};

/// One engine-settings leg.
#[derive(Clone, Copy, Debug)]
pub struct Leg {
    /// Morsel size in rows; `None` keeps the context default.
    pub morsel: Option<usize>,
    /// Exchange memory budget in bytes; `None` is unbounded.
    pub budget: Option<u64>,
}

impl Leg {
    /// Applies the leg to a context. The budget is always set, so a
    /// suite-wide `DIABLO_MEMORY_BUDGET` never changes what a leg means.
    pub fn apply(&self, ctx: Context) -> Context {
        if let Some(rows) = self.morsel {
            ctx.set_morsel_size(rows);
        }
        ctx.set_memory_budget(self.budget);
        ctx
    }

    /// A short label for assertion messages.
    pub fn name(&self) -> String {
        let morsel = self.morsel.map_or("default".to_string(), |m| m.to_string());
        let budget = self.budget.map_or("unset".to_string(), |b| b.to_string());
        format!("morsel {morsel}, budget {budget}")
    }
}

/// Every morsel size × exchange budget leg; the first is the default.
/// Morsel sizes 16 and 1 split even the small fixtures across the
/// work-stealing pool; budgets 4096 and 0 push exchanged buckets through
/// disk runs.
pub fn legs() -> Vec<Leg> {
    let mut out = Vec::new();
    for morsel in [None, Some(16), Some(1)] {
        for budget in [None, Some(4096), Some(0)] {
            out.push(Leg { morsel, budget });
        }
    }
    out
}

/// Applies `e` as a `map` step: transparently (`map_expr`) or as its
/// opaque twin, `map(move |v| e.eval(v))`.
pub fn map_step(d: &Dataset, e: RowExpr, transparent: bool) -> Dataset {
    if transparent {
        d.map_expr(e).unwrap()
    } else {
        d.map(move |v| e.eval(v)).unwrap()
    }
}

/// Applies `e` as a `filter` step: transparently (`filter_expr`) or as its
/// opaque twin with `filter_expr`'s exact semantics.
pub fn filter_step(d: &Dataset, e: RowExpr, transparent: bool) -> Dataset {
    if transparent {
        d.filter_expr(e).unwrap()
    } else {
        d.filter(move |v| match e.eval(v)? {
            Value::Bool(b) => Ok(b),
            _ => Err(RuntimeError::new("condition must be boolean")),
        })
        .unwrap()
    }
}
