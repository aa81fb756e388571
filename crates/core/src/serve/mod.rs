//! Exploration-as-a-service: the `ggd serve` job daemon.
//!
//! The one-shot CLI builds a design's baseline, runs one command, and
//! throws the baseline away. This module turns the same pipeline into a
//! long-lived **job server**: clients submit explore/harden/analyze jobs
//! over a Unix-domain socket (or in process), a scheduler feeds them to
//! runner threads by priority, and every job over the same design shares
//! one lazily-built [`baseline::BaselineCache`] entry — baseline
//! placement, routing, STA graph, and power model are built once per
//! design per server lifetime, not once per command.
//!
//! The moving parts:
//!
//! - [`job`] — versioned [`JobSpec`]s ([`JOB_SPEC_VERSION`]), the
//!   lifecycle state machine ([`JobState`]), and the per-job event
//!   stream ([`JobEvent`]).
//! - `registry` *(internal)* — queue and state transitions: strict
//!   priority, FIFO within a class, pause/cancel landing at generation
//!   boundaries.
//! - [`baseline`] — the per-design shared [`baseline::DesignContext`]
//!   (spec + baseline snapshot + headline summary, and the evaluation
//!   engine once an explore needs it).
//! - [`server`] — runner threads and the socket front end. Explore jobs
//!   are **generation-stepped**: each scheduler step resumes the job's
//!   [`crate::nsga2::Exploration`] from its checkpoint envelope, runs
//!   exactly one NSGA-II generation and saves the envelope again, so
//!   pause/resume/cancel reuse [`crate::checkpoint`] verbatim and a
//!   paused-and-resumed job is bit-identical to an uninterrupted one.
//! - [`journal`] — the durable job journal: a checksummed write-ahead
//!   log of lifecycle transitions. On restart the server replays it,
//!   re-queues non-terminal jobs in original order, and resumes explores
//!   from their per-job checkpoints bit-identically (DESIGN.md §2j).
//! - [`proto`] — the newline-delimited `ggjson` wire protocol
//!   ([`proto::PROTO_VERSION`], message table in the module docs).
//! - [`client`] — the typed client the `ggd` subcommands wrap, with
//!   bounded jittered-backoff retries, reconnection, and idempotent
//!   submits via dedup tokens.
//!
//! ```no_run
//! use gdsii_guard::serve::{Client, JobSpec, Server, ServerConfig};
//!
//! let server = Server::start(ServerConfig {
//!     socket: Some("/tmp/ggd.sock".into()),
//!     ..ServerConfig::default()
//! })?;
//! let mut client = Client::connect(std::path::Path::new("/tmp/ggd.sock"))?;
//! let job = client.submit(&JobSpec::explore("TINY"))?;
//! let status = client.watch(job, 0, |e| eprintln!("[{}] {}", e.tick, e.kind))?;
//! println!("{:?}", status.state);
//! server.stop();
//! # Ok::<(), gdsii_guard::Error>(())
//! ```

pub mod baseline;
pub mod client;
pub mod job;
pub mod journal;
pub mod proto;
pub(crate) mod registry;
pub mod server;

pub use baseline::{BaselineCache, DesignContext};
pub use client::{Client, RetryPolicy};
pub use job::{BaselineSummary, JobEvent, JobKind, JobSpec, JobState, JobStatus, JOB_SPEC_VERSION};
pub use journal::{Journal, JournalRecord};
pub use server::{peak_rss_bytes, Server, ServerConfig, ServerStats};
