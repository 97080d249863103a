//! The matcher's instrumentation hook: a recorder trait that costs
//! nothing when observation is off.
//!
//! The backtracking matcher is the engine's innermost loop — millions of
//! candidate checks per validation pass — so its instrumentation cannot
//! be a branch on a runtime flag per candidate. Instead the matcher is
//! generic over a [`MatchRecorder`], defaulting to [`NoopRecorder`]:
//! the no-op methods monomorphize away entirely, leaving the
//! uninstrumented build byte-for-byte the loop it always was. Observed
//! enumeration passes a [`CellRecorder`] instead, which tallies into
//! `Cell<u64>`s — each matcher run happens inside one work unit on one
//! thread, so no synchronization is needed; the caller folds the tallies
//! into its per-batch tally after the unit completes.

use std::cell::Cell;

/// Observer of the matcher hot loop. `on_attempt` fires once per
/// candidate node considered for a variable (before exclusion and
/// consistency checks); `on_match` fires once per complete match
/// delivered to the caller.
///
/// Methods take `&self` so the matcher can hold a shared reference; the
/// provided implementations are empty, so a recorder only pays for what
/// it overrides.
pub trait MatchRecorder {
    /// A candidate node was considered for a pattern variable.
    fn on_attempt(&self) {}

    /// `n` candidate nodes were considered at once. Attempts fire
    /// unconditionally per candidate in a list, so the matcher reports a
    /// whole candidate list in one call instead of paying a hook per
    /// node — equivalent counts, one tally per backtracking level.
    fn add_attempts(&self, n: u64) {
        for _ in 0..n {
            self.on_attempt();
        }
    }

    /// A complete match was found.
    fn on_match(&self) {}

    /// A candidate node was rejected by a cheap pre-filter (labeled-degree,
    /// constant-attribute or attribute-equality check) *before* the
    /// consistency checks and the recursion below it. Pre-filter rejects
    /// are a subset of the attempts already tallied by
    /// [`MatchRecorder::add_attempts`] — the separate count shows how much
    /// of the candidate stream the filters kill.
    fn on_prefilter_reject(&self) {}
}

/// The do-nothing recorder: the matcher's default type parameter.
/// Monomorphizes to zero instructions — matching without observation
/// compiles to the same loop as before the hook existed.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopRecorder;

impl MatchRecorder for NoopRecorder {}

/// The canonical no-op recorder instance, usable wherever a
/// `&NoopRecorder` with any lifetime is needed.
pub static NOOP: NoopRecorder = NoopRecorder;

/// A single-threaded tally recorder: counts attempts and matches in
/// `Cell<u64>`s. One matcher run executes inside one work unit on one
/// thread, so interior mutability without synchronization is exactly
/// right; the caller folds the counts into its tally after the unit
/// finishes.
#[derive(Debug, Clone, Default)]
pub struct CellRecorder {
    attempts: Cell<u64>,
    matches: Cell<u64>,
    prefilter_rejects: Cell<u64>,
}

impl CellRecorder {
    /// A recorder with zeroed tallies.
    pub fn new() -> CellRecorder {
        CellRecorder::default()
    }

    /// Candidate nodes considered so far.
    pub fn attempts(&self) -> u64 {
        self.attempts.get()
    }

    /// Complete matches found so far.
    pub fn matches(&self) -> u64 {
        self.matches.get()
    }

    /// Candidates killed by the matcher's pre-filters so far.
    pub fn prefilter_rejects(&self) -> u64 {
        self.prefilter_rejects.get()
    }
}

impl MatchRecorder for CellRecorder {
    fn on_attempt(&self) {
        self.attempts.set(self.attempts.get() + 1);
    }

    fn add_attempts(&self, n: u64) {
        self.attempts.set(self.attempts.get() + n);
    }

    fn on_match(&self) {
        self.matches.set(self.matches.get() + 1);
    }

    fn on_prefilter_reject(&self) {
        self.prefilter_rejects.set(self.prefilter_rejects.get() + 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_recorder_tallies() {
        let r = CellRecorder::new();
        r.on_attempt();
        r.on_attempt();
        r.on_match();
        r.on_prefilter_reject();
        assert_eq!(r.attempts(), 2);
        assert_eq!(r.matches(), 1);
        assert_eq!(r.prefilter_rejects(), 1);
    }

    #[test]
    fn noop_recorder_is_callable_via_the_trait() {
        fn drive<R: MatchRecorder>(r: &R) {
            r.on_attempt();
            r.on_match();
        }
        drive(&NOOP);
        let cell = CellRecorder::new();
        drive(&cell);
        assert_eq!(cell.attempts(), 1);
    }
}
