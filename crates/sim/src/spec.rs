//! Loop descriptions and cost parameters for strategy simulations.

/// Whether the terminator can be evaluated by any iteration independently.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TerminatorKind {
    /// Remainder-invariant: depends only on the dispatcher and loop-entry
    /// values. Every iteration can evaluate its own exit test, so overshot
    /// iterations stop after the (cheap) test — no work to undo.
    RemainderInvariant,
    /// Remainder-variant: depends on values computed in the loop body.
    /// Iterations past the sequential exit cannot detect it and execute
    /// their full bodies, which must later be undone.
    RemainderVariant,
}

/// A WHILE loop as the simulator sees it.
///
/// `upper` bounds the iteration space (the paper's `u`); `exit_at` is the
/// first iteration at which the sequential loop's terminator fires (`None`
/// when the loop simply exhausts `upper`, e.g. a linked-list traversal
/// ending at `null`). `work(i)` is the remainder cost of iteration `i`;
/// `writes(i)`/`reads(i)` size the time-stamping and shadow-marking
/// overheads.
pub struct LoopSpec {
    /// Upper bound on the iteration space.
    pub upper: usize,
    /// First iteration whose terminator test fires (sequential semantics).
    pub exit_at: Option<usize>,
    /// Terminator class (drives overshoot behaviour).
    pub terminator: TerminatorKind,
    /// Remainder cost of iteration `i`, in cycles.
    pub work: Box<dyn Fn(usize) -> u64>,
    /// Shared-array writes performed by iteration `i`.
    pub writes: Box<dyn Fn(usize) -> u64>,
    /// Shared-array reads performed by iteration `i`.
    pub reads: Box<dyn Fn(usize) -> u64>,
}

impl std::fmt::Debug for LoopSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LoopSpec")
            .field("upper", &self.upper)
            .field("exit_at", &self.exit_at)
            .field("terminator", &self.terminator)
            .finish_non_exhaustive()
    }
}

impl LoopSpec {
    /// A loop of `upper` iterations, each costing `work` cycles and
    /// performing one write and one read, ending by exhaustion.
    pub fn uniform(upper: usize, work: u64) -> Self {
        LoopSpec {
            upper,
            exit_at: None,
            terminator: TerminatorKind::RemainderInvariant,
            work: Box::new(move |_| work),
            writes: Box::new(|_| 1),
            reads: Box::new(|_| 1),
        }
    }

    /// Sets the first terminating iteration and the terminator class.
    pub fn with_exit(mut self, exit_at: usize, terminator: TerminatorKind) -> Self {
        self.exit_at = Some(exit_at);
        self.terminator = terminator;
        self
    }

    /// Replaces the per-iteration work function.
    pub fn with_work(mut self, work: impl Fn(usize) -> u64 + 'static) -> Self {
        self.work = Box::new(work);
        self
    }

    /// Replaces the per-iteration access counts.
    pub fn with_accesses(
        mut self,
        writes: impl Fn(usize) -> u64 + 'static,
        reads: impl Fn(usize) -> u64 + 'static,
    ) -> Self {
        self.writes = Box::new(writes);
        self.reads = Box::new(reads);
        self
    }

    /// Iterations the *sequential* loop performs work for: `0..work_end()`.
    /// The exit iteration itself only evaluates the terminator.
    pub fn work_end(&self) -> usize {
        self.exit_at.map_or(self.upper, |e| e.min(self.upper))
    }

    /// Total sequential remainder cycles (`T_rem` in Section 7).
    pub fn t_rem(&self) -> u64 {
        (0..self.work_end()).map(|i| (self.work)(i)).sum()
    }
}

/// Primitive-operation costs, in cycles. These are the knobs the
/// experiments document in `EXPERIMENTS.md`; the defaults make work
/// dominant and overheads small-but-visible, as on the Alliant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Overheads {
    /// Claiming an iteration from the self-scheduler.
    pub t_dispatch: u64,
    /// One dispatcher increment: `next(ptr)` / `i = i + 1` for recurrences.
    pub t_next: u64,
    /// Lock acquire+release pair around a critical section (General-1).
    pub t_lock: u64,
    /// One terminator evaluation.
    pub t_term: u64,
    /// Time-stamping one write (undo support).
    pub t_stamp: u64,
    /// Marking one shadow access (PD test).
    pub t_shadow: u64,
    /// Checkpointing one element before the loop.
    pub t_backup: u64,
    /// Restoring one element while undoing.
    pub t_restore: u64,
    /// PD post-execution analysis, per recorded access.
    pub t_analysis: u64,
    /// One global barrier episode.
    pub t_barrier: u64,
    /// One associative combine in a parallel prefix.
    pub t_prefix_op: u64,
}

impl Default for Overheads {
    fn default() -> Self {
        Overheads {
            t_dispatch: 2,
            t_next: 3,
            t_lock: 8,
            t_term: 1,
            t_stamp: 2,
            t_shadow: 2,
            t_backup: 1,
            t_restore: 1,
            t_analysis: 1,
            t_barrier: 40,
            t_prefix_op: 2,
        }
    }
}

/// How many iterations a self-scheduling claim grants at once: the
/// threaded runtime's own policy, so an `ExecConfig` can be read off a
/// real run's configuration.
///
/// Chunking amortizes the `t_dispatch` charge over `len` iterations at
/// the price of a larger in-flight span: under an RV terminator a chunk
/// that straddles the exit executes (and must undo) every iteration it
/// already started. `ChunkPolicy::One` runs are bit-identical to the
/// pre-chunking simulator.
pub use wlp_runtime::ChunkPolicy;

/// Which run-time support machinery the transformed loop carries — the
/// sources of the paper's `T_b` (before), `T_d` (during) and `T_a` (after)
/// overheads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecConfig {
    /// Elements checkpointed before the DOALL (`T_b`); 0 = no backups.
    pub backup_elems: u64,
    /// Time-stamp every write during the loop (`T_d`), enabling undo.
    pub stamp_writes: bool,
    /// Mark PD shadow arrays during the loop (`T_d`) and run the parallel
    /// post-execution analysis (`T_a`).
    pub pd_shadow: bool,
    /// Restore overwritten values of overshot iterations after the loop
    /// (`T_a`). Requires `stamp_writes`.
    pub undo_overshoot: bool,
    /// Cap on engine dispatch events (`None` = unlimited): the simulator's
    /// runaway-dispatcher guard. A run that hits the cap reports
    /// `diverged = true` instead of spinning forever.
    pub max_engine_steps: Option<u64>,
    /// Self-scheduling grant size for dynamic DOALL loops.
    pub chunk: ChunkPolicy,
    /// Watchdog deadline in engine cycles — the simulator's mirror of the
    /// runtime's `Deadline`: an iteration whose body would run longer than
    /// this wedges its lane, the region is cancelled and the attempt
    /// aborts with a timeout instead of stretching the makespan without
    /// bound. `None` = no watchdog.
    pub deadline_ticks: Option<u64>,
    /// Undo-log budget in stamped writes — the mirror of
    /// `SpeculativeArray::with_budget`: a speculative attempt whose
    /// stamped-write total exceeds this aborts with a budget trip instead
    /// of growing speculation state without bound. `None` = unbounded.
    pub budget_writes: Option<u64>,
    /// Per-claim dispatcher cost override for dynamic self-scheduling —
    /// the mirror of the runtime's lock-free claim path (a relaxed
    /// `fetch_add` or a deque pop instead of a locked counter). `None`
    /// charges the historical [`Overheads::t_dispatch`], keeping existing
    /// traces and makespans bit-identical.
    pub claim_cost: Option<u64>,
    /// DOACROSS grain: iterations per wavefront sync cell — the mirror of
    /// the runtime's `doacross` grain and the governor's grain ladder.
    /// Coarser grain amortizes one dispatch + one sync per `grain`
    /// iterations at the cost of pipeline fill latency. `0` is treated as
    /// `1` (per-iteration sync, the historical behavior).
    pub doacross_grain: usize,
}

impl ExecConfig {
    /// No run-time machinery at all (e.g. list traversal with RI
    /// terminator: "no backups or time-stamps" in Table 2).
    pub fn bare() -> Self {
        ExecConfig::default()
    }

    /// Backups + write time-stamps + undo (TRACK, MA28 rows of Table 2).
    pub fn with_undo(backup_elems: u64) -> Self {
        ExecConfig {
            backup_elems,
            stamp_writes: true,
            undo_overshoot: true,
            ..ExecConfig::default()
        }
    }

    /// Full speculation: undo machinery plus the PD test.
    pub fn with_pd(backup_elems: u64) -> Self {
        ExecConfig {
            pd_shadow: true,
            ..ExecConfig::with_undo(backup_elems)
        }
    }

    /// Caps the engine's dispatch-event budget (the runaway guard).
    pub fn with_step_budget(mut self, steps: u64) -> Self {
        self.max_engine_steps = Some(steps);
        self
    }

    /// Selects the self-scheduling grant size for dynamic DOALLs.
    pub fn with_chunk(mut self, chunk: ChunkPolicy) -> Self {
        self.chunk = chunk;
        self
    }

    /// Arms the simulated watchdog: lanes wedged longer than `ticks`
    /// cancel the region.
    pub fn with_deadline_ticks(mut self, ticks: u64) -> Self {
        self.deadline_ticks = Some(ticks);
        self
    }

    /// Bounds the undo log: speculative attempts stamping more than
    /// `writes` abort with a budget trip.
    pub fn with_write_budget(mut self, writes: u64) -> Self {
        self.budget_writes = Some(writes);
        self
    }

    /// Overrides the per-claim dispatcher charge for dynamic
    /// self-scheduling (models the lock-free claim fast path). Without
    /// this, claims cost [`Overheads::t_dispatch`].
    pub fn with_claim_cost(mut self, cycles: u64) -> Self {
        self.claim_cost = Some(cycles);
        self
    }

    /// Sets the DOACROSS grain (iterations per wavefront sync cell).
    pub fn with_doacross_grain(mut self, grain: usize) -> Self {
        self.doacross_grain = grain;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_spec_totals() {
        let s = LoopSpec::uniform(10, 7);
        assert_eq!(s.t_rem(), 70);
        assert_eq!(s.work_end(), 10);
    }

    #[test]
    fn exit_truncates_work() {
        let s = LoopSpec::uniform(10, 7).with_exit(4, TerminatorKind::RemainderVariant);
        assert_eq!(s.work_end(), 4);
        assert_eq!(s.t_rem(), 28);
    }

    #[test]
    fn exit_beyond_upper_is_clamped() {
        let s = LoopSpec::uniform(10, 1).with_exit(99, TerminatorKind::RemainderInvariant);
        assert_eq!(s.work_end(), 10);
    }

    #[test]
    fn custom_work_function() {
        let s = LoopSpec::uniform(5, 0).with_work(|i| i as u64);
        assert_eq!(s.t_rem(), 1 + 2 + 3 + 4);
    }

    #[test]
    fn config_presets() {
        assert!(!ExecConfig::bare().stamp_writes);
        let u = ExecConfig::with_undo(100);
        assert!(u.stamp_writes && u.undo_overshoot && !u.pd_shadow);
        let pd = ExecConfig::with_pd(100);
        assert!(pd.pd_shadow && pd.stamp_writes);
        assert_eq!(ExecConfig::bare().max_engine_steps, None);
        assert_eq!(
            ExecConfig::bare().with_step_budget(7).max_engine_steps,
            Some(7)
        );
        assert_eq!(ExecConfig::bare().chunk, ChunkPolicy::One);
        assert_eq!(
            ExecConfig::bare().with_chunk(ChunkPolicy::Fixed(8)).chunk,
            ChunkPolicy::Fixed(8)
        );
        assert_eq!(ExecConfig::bare().deadline_ticks, None);
        assert_eq!(ExecConfig::bare().budget_writes, None);
        let governed = ExecConfig::with_pd(64)
            .with_deadline_ticks(500)
            .with_write_budget(32);
        assert_eq!(governed.deadline_ticks, Some(500));
        assert_eq!(governed.budget_writes, Some(32));
        assert!(governed.pd_shadow && governed.stamp_writes);
        assert_eq!(ExecConfig::bare().claim_cost, None);
        assert_eq!(ExecConfig::bare().with_claim_cost(1).claim_cost, Some(1));
    }

    #[test]
    fn chunk_grants_never_overrun_or_stall() {
        for policy in [
            ChunkPolicy::One,
            ChunkPolicy::Fixed(16),
            ChunkPolicy::Guided { min: 2 },
        ] {
            let mut remaining = 1000usize;
            while remaining > 0 {
                let g = policy.grant(remaining, 4);
                assert!(g >= 1 && g <= remaining, "{policy:?}: grant {g}");
                remaining -= g;
            }
        }
    }

    #[test]
    fn guided_grants_shrink_as_the_loop_drains() {
        let g = ChunkPolicy::Guided { min: 1 };
        assert_eq!(g.grant(1000, 4), 250);
        assert_eq!(g.grant(100, 4), 25);
        assert_eq!(g.grant(3, 4), 1);
    }
}
