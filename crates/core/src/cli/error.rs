//! The one error type of the `parqp` front end: whatever goes wrong in
//! an invocation is a [`CliError`], and the binary turns any of them
//! into its message on stderr and exit code 2.

use parqp_data::io::IoError;
use parqp_mpc::MpcError;
use parqp_query::ParseError;
use std::fmt;

/// Why a `parqp` invocation failed.
#[derive(Debug)]
pub enum CliError {
    /// No command, or one the command table does not know; the message
    /// ends with the usage text.
    Usage(String),
    /// Argv the flag table refuses — an unknown, misplaced, valueless,
    /// unparsable, out-of-range or required-but-absent flag, or a word
    /// outside the choices its command offers — with the one-line message.
    Flag(String),
    /// `--query` does not parse.
    Query(ParseError),
    /// The `--data` files do not match the query: their number differs
    /// from its atoms, or a file's width from its atom's arity.
    Shape(String),
    /// The relation file at this path could not be read, parsed or written.
    Data(String, IoError),
    /// The text artifact at this path (`--out`, `--check`, `--slo`)
    /// could not be read or written.
    File(String, std::io::Error),
    /// The simulator refused the execution mode.
    Mpc(MpcError),
    /// `observe` does not know the experiment (its message lists them).
    Experiment(String),
    /// The counts document is unreadable, or the gate found regressions.
    Metrics(String),
    /// The paged run diverged from the unpaged one.
    Store(String),
    /// The serve driver refused the configuration, or `--verify` diverged.
    Serve(String),
    /// The rules file is malformed, or a burn-rate alert fired.
    Slo(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Query(e) => e.fmt(f),
            CliError::Mpc(e) => e.fmt(f),
            CliError::Data(path, e) => write!(f, "{path}: {e}"),
            CliError::File(path, e) => write!(f, "{path}: {e}"),
            CliError::Usage(message)
            | CliError::Flag(message)
            | CliError::Shape(message)
            | CliError::Experiment(message)
            | CliError::Metrics(message)
            | CliError::Store(message)
            | CliError::Serve(message)
            | CliError::Slo(message) => f.write_str(message),
        }
    }
}

impl std::error::Error for CliError {}

impl From<ParseError> for CliError {
    fn from(e: ParseError) -> Self {
        CliError::Query(e)
    }
}

impl From<MpcError> for CliError {
    fn from(e: MpcError) -> Self {
        CliError::Mpc(e)
    }
}
