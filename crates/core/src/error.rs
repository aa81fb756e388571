//! Typed errors for the public flow API.
//!
//! The crate used to panic at its two fallible seams — a layout that fails
//! [`layout::Layout::check_consistency`] and a poisoned operator-edit
//! cache. Both now surface as [`Error`] from the validating entry points
//! ([`crate::pipeline::evaluate`], [`crate::pipeline::implement_baseline`])
//! and the [`crate::flow::FlowRun`] terminals.

use std::fmt;

/// Everything that can go wrong inside the evaluation flow.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// The layout handed to a validating entry point fails
    /// `check_consistency` against the technology; the payload is the
    /// consistency checker's diagnostic.
    InconsistentLayout(String),
    /// A worker thread panicked while holding the operator-edit cache
    /// lock, so memoized edits can no longer be trusted.
    EditCachePoisoned,
    /// A checkpoint could not be written, read, or trusted (I/O error,
    /// checksum/version mismatch, or a base snapshot that differs from the
    /// one the checkpoint was taken against).
    Checkpoint(String),
    /// The job server refused a request or the socket transport failed
    /// (unknown job, bad job spec, protocol violation, connect/read/write
    /// error); the payload is the server's or transport's diagnostic.
    Serve(String),
    /// The job server is over its admission limits (queue depth or memory
    /// budget) and refused a submit. Unlike [`Error::Serve`] this is
    /// *retryable*: the same request is expected to succeed once load
    /// drains, and [`crate::serve::Client`] retries it with backoff
    /// before surfacing the error.
    Busy(String),
    /// A command-line invocation could not be parsed (unknown subcommand,
    /// unknown flag, missing or malformed argument). The payload is the
    /// diagnostic; `ggd` prints the relevant usage text alongside it.
    InvalidArgs(String),
    /// A filesystem operation outside the checkpoint envelope failed
    /// (e.g. writing an exported GDSII stream).
    Io(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::InconsistentLayout(why) => {
                write!(f, "layout fails consistency check: {why}")
            }
            Error::EditCachePoisoned => {
                write!(f, "operator-edit cache poisoned by a panicked worker")
            }
            Error::Checkpoint(why) => {
                write!(f, "checkpoint error: {why}")
            }
            Error::Serve(why) => {
                write!(f, "job server error: {why}")
            }
            Error::Busy(why) => {
                write!(f, "job server busy (retryable): {why}")
            }
            Error::InvalidArgs(why) => {
                write!(f, "invalid arguments: {why}")
            }
            Error::Io(why) => {
                write!(f, "I/O error: {why}")
            }
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = Error::InconsistentLayout("cell 3 off grid".into());
        assert!(e.to_string().contains("cell 3 off grid"));
        assert!(Error::EditCachePoisoned.to_string().contains("poisoned"));
    }
}
