//! What one workload run hands back to the report.

use wmh_serve::{Outcome, QueryResponse};

/// A named value for the human-readable report.
#[derive(Debug, Clone)]
pub struct Line {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Sample count, percentile used, or other context.
    pub note: String,
}

impl Line {
    /// A line with its context note.
    pub fn new(
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        note: impl Into<String>,
    ) -> Self {
        Self { name: name.into(), value, unit, note: note.into() }
    }
}

/// A correctness check; any failed gate fails the run.
#[derive(Debug, Clone)]
pub struct Gate {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// The observed values.
    pub detail: String,
}

impl Gate {
    /// A gate with the values it saw.
    pub fn new(name: impl Into<String>, ok: bool, detail: impl Into<String>) -> Self {
        Self { name: name.into(), ok, detail: detail.into() }
    }
}

/// One pass of a workload's timed loop.
#[derive(Debug, Default)]
pub struct Run {
    /// Seconds of each set-up made before the loop.
    pub setup_s: Vec<f64>,
    /// Each operation the loop completed: `(completion time in s since
    /// the loop started, latency in ms)`.
    pub ops: Vec<(f64, f64)>,
    /// Wall time of the loop.
    pub elapsed_s: f64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed, were refused or did not answer `ok`.
    pub failed: u64,
    /// Workload-specific lines (per-kind latencies, recall, …).
    pub lines: Vec<Line>,
    /// Refusals among the query answers, for serving workloads.
    pub refusals: Option<Refusals>,
    /// Correctness gates.
    pub gates: Vec<Gate>,
}

/// Outcome tallies over query responses.
#[derive(Debug, Default, Clone, Copy)]
pub struct Refusals {
    /// Slices shed at full shard inboxes.
    pub shed: u64,
    /// `overloaded` answers.
    pub overloaded: u64,
    /// `partial` answers.
    pub partial: u64,
}

impl Refusals {
    /// Count one response.
    pub fn add(&mut self, r: &QueryResponse) {
        self.shed += r.shed as u64;
        self.overloaded += u64::from(r.outcome == Outcome::Overloaded);
        self.partial += u64::from(r.outcome == Outcome::Partial);
    }

    /// Add another tally.
    pub fn merge(&mut self, o: Self) {
        self.shed += o.shed;
        self.overloaded += o.overloaded;
        self.partial += o.partial;
    }

    /// Report lines, noting what was counted.
    pub fn lines(&self, scope: &str) -> Vec<Line> {
        vec![
            Line::new("service.shed", self.shed as f64, "count", format!("slices, {scope}")),
            Line::new(
                "service.overloaded",
                self.overloaded as f64,
                "count",
                format!("answers, {scope}"),
            ),
            Line::new("service.partial", self.partial as f64, "count", format!("answers, {scope}")),
        ]
    }
}
