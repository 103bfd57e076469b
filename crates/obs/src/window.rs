//! The per-operation cost window every paged dictionary shares.

use crate::Obs;
use dam_cache::Pager;

/// A dictionary over one [`Pager`]. Its operations run through
/// [`PagedDict::in_op`], so the pager's cost window brackets each one and
/// [`Pager::last_op_cost`] answers `Dictionary::last_op_cost`.
pub trait PagedDict {
    /// The pager that owns the window, and the registry, if one is
    /// attached, that its counters are published to.
    fn pager_and_obs(&mut self) -> (&mut Pager, Option<&Obs>);

    /// Run one operation inside the pager's cost window. The window closes
    /// on every return path, success or failure, and then the pager's
    /// cumulative counters are published to the attached registry as the
    /// `pager.*` gauges.
    fn in_op<R>(&mut self, body: impl FnOnce(&mut Self) -> R) -> R
    where
        Self: Sized,
    {
        self.pager_and_obs().0.begin_window();
        let out = body(self);
        let (pager, obs) = self.pager_and_obs();
        pager.end_window();
        if let Some(o) = obs {
            o.record_pager(&pager.counters());
        }
        out
    }
}
