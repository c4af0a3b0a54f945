//! Typed errors for the simulator's invariant violations.
//!
//! The panicking entry points (`Cluster::new`, `Exchange::send`,
//! `Grid::rank`, …) are the ergonomic surface algorithms use — a violated
//! invariant there is a bug in the calling algorithm, and aborting the
//! simulated run is the right default. Each of them is a thin wrapper
//! over a `try_*` sibling returning [`MpcError`], for callers (planners,
//! servers, fuzzers) that must survive malformed input instead of
//! panicking. Keeping the panic in exactly one place per invariant also
//! keeps the workspace's panic-surface ratchet (`parqp-lint` rule PQ201)
//! honest: `crates/mpc` has no `unwrap`/`expect` at all, and every
//! `panic!` routes through one of these variants.

/// An invariant violation reported by the MPC simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MpcError {
    /// A cluster or grid dimension was zero.
    EmptyTopology {
        /// What was being constructed (`"cluster"` or `"grid"`).
        what: &'static str,
    },
    /// A message was addressed to a server rank outside `0..p`.
    BadServer { dest: usize, p: usize },
    /// A row was sent on a stream the row exchange was not opened with.
    BadStream { stream: usize, streams: usize },
    /// A row's width differs from the stride of the stream it was sent on.
    BadRowWidth {
        stream: usize,
        got: usize,
        stride: usize,
    },
    /// A coordinate vector had the wrong number of dimensions.
    BadArity { got: usize, expected: usize },
    /// A coordinate exceeded its dimension's size.
    BadCoordinate { coord: usize, dim_size: usize },
    /// A rank exceeded the grid size.
    BadRank { rank: usize, size: usize },
    /// A per-server compute closure panicked during
    /// [`Cluster::try_map`](crate::Cluster::try_map).
    WorkerPanic { server: usize, message: String },
    /// The host refused to spawn the worker pool of
    /// [`ExecMode::Parallel`](crate::ExecMode::Parallel).
    PoolSpawn { workers: usize, message: String },
}

impl std::fmt::Display for MpcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MpcError::EmptyTopology { what } => {
                write!(f, "a {what} needs at least one server in every dimension")
            }
            MpcError::BadServer { dest, p } => {
                write!(
                    f,
                    "destination server {dest} out of range for cluster of {p}"
                )
            }
            MpcError::BadStream { stream, streams } => {
                write!(
                    f,
                    "stream {stream} out of range for a row exchange of {streams} streams"
                )
            }
            MpcError::BadRowWidth {
                stream,
                got,
                stride,
            } => {
                write!(
                    f,
                    "row of {got} words sent on stream {stream}, whose stride is {stride}"
                )
            }
            MpcError::BadArity { got, expected } => {
                write!(
                    f,
                    "coordinate arity mismatch: got {got}, grid has {expected} dimensions"
                )
            }
            MpcError::BadCoordinate { coord, dim_size } => {
                write!(
                    f,
                    "coordinate {coord} out of range for dimension of size {dim_size}"
                )
            }
            MpcError::BadRank { rank, size } => {
                write!(f, "rank {rank} out of range for grid of {size}")
            }
            MpcError::WorkerPanic { server, message } => {
                write!(f, "server {server} compute closure panicked: {message}")
            }
            MpcError::PoolSpawn { workers, message } => {
                write!(f, "cannot spawn a pool of {workers} workers: {message}")
            }
        }
    }
}

impl std::error::Error for MpcError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_numbers() {
        let e = MpcError::BadServer { dest: 9, p: 4 };
        assert_eq!(
            e.to_string(),
            "destination server 9 out of range for cluster of 4"
        );
        let e = MpcError::BadCoordinate {
            coord: 7,
            dim_size: 3,
        };
        assert!(e.to_string().contains("7"));
        assert!(e.to_string().contains("3"));
    }

    #[test]
    fn is_std_error() {
        fn takes(_: &dyn std::error::Error) {}
        takes(&MpcError::EmptyTopology { what: "grid" });
    }
}
