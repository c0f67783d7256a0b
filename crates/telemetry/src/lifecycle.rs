//! The campaign lifecycle event stream.
//!
//! A campaign's scheduler emits exactly one [`CampaignEvent`] per
//! lifecycle transition and hands it to every [`CampaignSink`] it was
//! given. Each observability artifact is a renderer of that one stream
//! and keeps the kinds it needs: the progress JSONL
//! ([`crate::ProgressWriter`]), the flight ring
//! ([`crate::FlightRecorder`]) and the Chrome trace
//! ([`crate::TraceCollector`]).
//!
//! The campaign journal is not a sink. It is the durability path: the
//! scheduler writes it (fallibly) *before* any sink sees the event that
//! reports the outcome it records, so every artifact's tail reconciles
//! with journaled state.

/// A cell's totals across this run's attempts.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CellTally<'a> {
    /// Cell id (`table4/perl`).
    pub cell: &'a str,
    /// Attempts executed this run.
    pub attempts: u32,
    /// Wall-clock milliseconds across the attempts.
    pub wall_ms: u64,
    /// Simulated instructions processed across the attempts.
    pub instructions: u64,
}

/// One lifecycle transition of a campaign, in the order a campaign
/// emits them.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum CampaignEvent<'a> {
    /// The campaign was scheduled. Renderers add the run id they were
    /// built for.
    Started {
        /// Tool name (`repro_all`, `table4`, …).
        tool: &'a str,
        /// Scale name (`quick`, `standard`, `full`).
        scale: &'a str,
        /// The campaign's correlation id (empty when it has none).
        trace_id: &'a str,
        /// Cells scheduled, including those restored from the journal.
        total: u64,
        /// Worker threads.
        workers: u64,
    },
    /// A cell's journaled `ok` outcome was restored; it will not run
    /// (zero attempts, the instructions its record carried).
    CellResumed(CellTally<'a>),
    /// An attempt was spawned; `attempt > 1` is a retry.
    AttemptStarted {
        /// Cell id.
        cell: &'a str,
        /// Attempt number (1-based).
        attempt: u32,
        /// For a retry, the failure that triggered it (empty otherwise).
        reason: &'a str,
    },
    /// An attempt returned a failure (a panic or an injected fault).
    AttemptFailed {
        /// Cell id.
        cell: &'a str,
        /// The attempt that failed.
        attempt: u32,
        /// The failure reason.
        reason: &'a str,
    },
    /// The deadline sweep detached an overrunning attempt.
    DeadlineKill {
        /// Cell id.
        cell: &'a str,
        /// The deadline it overran.
        deadline_ms: u64,
    },
    /// A cell produced data; its outcome is journaled.
    CellFinished(CellTally<'a>),
    /// A cell exhausted its attempts; the failure (the second field) is
    /// journaled.
    CellFailed(CellTally<'a>, &'a str),
    /// Cancellation stopped the campaign at a cell boundary. `unresolved`
    /// are the cells that started but never resolved (they were waiting
    /// out a retry backoff); like every never-started cell, they are not
    /// journaled.
    Cancelled {
        /// The reason the first canceller gave.
        reason: &'a str,
        /// Started cells left without an outcome.
        unresolved: &'a [CellTally<'a>],
    },
    /// A tick of the campaign's heartbeat, plus one closing beat.
    Heartbeat {
        /// Cells with an attempt in flight.
        active: u64,
        /// Cells with a final outcome (including resumed).
        done: u64,
        /// Cells scheduled.
        total: u64,
    },
    /// The campaign ended: every cell resolved or was cancelled.
    Finished {
        /// Cells that produced data (including resumed).
        done: u64,
        /// Cells that failed or were cancelled.
        failed: u64,
        /// Cells scheduled.
        total: u64,
    },
}

/// A renderer of the lifecycle stream. Rendering must not fail the
/// campaign: a sink that cannot write reports it and carries on.
pub trait CampaignSink {
    /// Renders one event (or ignores a kind it does not keep).
    fn on_event(&self, event: &CampaignEvent<'_>);
}

/// The first line of a (possibly multi-line) failure reason.
pub(crate) fn first_line(reason: &str) -> &str {
    reason.lines().next().unwrap_or(reason)
}
