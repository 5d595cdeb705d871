//! Recorder event kinds, and the printing of a run's result. Metric
//! names and units are listed in `BENCHMARK.json`; what each per-layer
//! metric should move is in `perfbench/README.md`.

use std::fmt::Write as _;

/// Every recorder event kind (`TraceEventKind::name`), each reported as
/// `events.<kind>` (0 when the workload never emits it).
pub const EVENT_KINDS: [&str; 29] = [
    "submit",
    "dispatch",
    "bus_acquire",
    "flash_start",
    "complete",
    "link_tx",
    "queue_full",
    "detector_sample",
    "laggard_detected",
    "escalation",
    "migration_begin",
    "reshape_begin",
    "reloc_commit",
    "reloc_rollback",
    "write_redirect",
    "fault_injected",
    "gc_run",
    "map_miss",
    "power_loss",
    "journal_checkpoint",
    "journal_replay",
    "rebuild_start",
    "rebuild_done",
    "federation_hop",
    "federation_laggard",
    "federation_migration_begin",
    "federation_migration_commit",
    "federation_migration_abort",
    "federation_retry",
];

/// One measured value.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Human context printed beside the value (quartiles, sample
    /// counts); not part of the JSON result.
    pub note: String,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
            note: String::new(),
        }
    }

    pub fn note(mut self, note: impl Into<String>) -> Self {
        self.note = note.into();
        self
    }
}

/// The machine-read result line.
pub struct Result {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

/// A finite number as JSON, with every digit Rust's shortest
/// round-trip formatting gives it.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

impl Result {
    /// Prints one human line per metric, then the JSON result as the
    /// last line of standard output.
    pub fn print(&self) {
        for m in &self.metrics {
            let note = if m.note.is_empty() {
                String::new()
            } else {
                format!("  ({})", m.note)
            };
            println!(
                "{:<34} {:>16} {}{note}",
                m.name,
                json_number(m.value),
                m.unit
            );
        }
        let mut json = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                json,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            );
        }
        json.push_str("}}");
        println!("{json}");
    }
}
