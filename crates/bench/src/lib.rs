//! Shared harness for regenerating the paper's figures.
//!
//! Runs [`FigureSpec`] sweeps in parallel across worker threads, prints
//! paper-style latency/throughput series, and records CSV files that
//! EXPERIMENTS.md references.
//!
//! The harness is crash-safe: every completed point is checkpointed to a
//! [`Journal`] (atomic JSONL, keyed by the point's configuration digest),
//! worker panics are contained to the point that raised them, transient
//! outcomes retry with seed-jittered backoff, and SIGINT drains in-flight
//! points before flushing partial results and printing a ready-to-paste
//! resume command. See `docs/ROBUSTNESS.md`.
//!
//! Execution is pluggable behind the [`WorkerBackend`] trait: the default
//! [`LocalThreadBackend`] runs points on an in-process pool, while
//! [`RemoteBackend`] shards them across `wormsim-worker` processes over
//! HTTP. Either way each completed point is journaled as soon as it
//! finishes, and the journal keeps its lines in schedule order, so the
//! merged CSV and journal are byte-identical no matter how the sweep was
//! sharded. See `docs/DISTRIBUTION.md`.

// The status and event enums each carry a whole `RunResult` in their
// "done" arm and live for one poll; boxing it would buy an allocation per
// point and nothing else.
#![allow(clippy::large_enum_variant)]

mod backend;
mod chaos;
pub mod cli;
mod figure;
mod http;
mod journal;
mod options;
pub mod plot;
mod reference;
mod remote;
mod report;
pub mod study;
mod supervisor;
mod sweep;
pub mod worker;
pub use backend::{
    BackendChoice, BackendError, LocalThreadBackend, PointJob, PointStatus, WorkHandle,
    WorkerBackend,
};
pub use chaos::{ChaosPlan, ChaosPlanError};
pub use figure::{figure_plan, run_figure_or_exit};
pub use journal::{Journal, JournalEntry, JournalError, SalvagedLine};
pub use options::SweepOptions;
pub use reference::{paper_reference, PaperClaim};
pub use remote::RemoteBackend;
pub use report::{latency_at, peak_utilization, print_figure, print_paper_comparison, write_csv};
pub use supervisor::{QuarantineRecord, SupervisionReport};
pub use sweep::{
    install_sigint_handler, resume_command, run_points_or_exit, run_sweep, run_sweep_or_exit,
    ExperimentsRun, HarnessError, PointOutcome, SweepError, SweepPlan,
};
