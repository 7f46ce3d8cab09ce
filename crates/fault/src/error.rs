//! The workspace-wide typed error.
//!
//! Public API boundaries across the stack return `Result<_, SdpError>`
//! from their `try_*` entry points; the panicking convenience wrappers
//! format these errors, so the messages here deliberately contain the
//! exact phrases the original `assert!` sites used (and that the
//! `#[should_panic(expected = ...)]` regression tests pin).

use std::fmt;

/// A typed error for malformed inputs and failed recovery across the
/// systolic stack.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum SdpError {
    /// A linear array was built with zero PEs.
    EmptyArray,
    /// A mesh was built with a zero dimension.
    MeshDims {
        /// Requested rows.
        rows: usize,
        /// Requested columns.
        cols: usize,
    },
    /// A mesh was given the wrong number of PEs for its shape.
    PeCount {
        /// `rows * cols`.
        expected: usize,
        /// PEs actually supplied.
        got: usize,
    },
    /// A token bus was built with zero stations.
    EmptyBus,
    /// A design driver was given an empty matrix string.
    EmptyMatrixString,
    /// A matrix string has fewer matrices than the formulation needs.
    StringTooShort {
        /// Matrices supplied.
        got: usize,
        /// Minimum required.
        need: usize,
    },
    /// An interior matrix of the string is not square of the common size.
    NotSquare {
        /// Index of the offending matrix in the string.
        index: usize,
        /// Expected side `m`.
        m: usize,
    },
    /// A matrix product was requested with mismatched inner dimensions.
    InnerDimMismatch {
        /// Columns of the left operand.
        left_cols: usize,
        /// Rows of the right operand.
        right_rows: usize,
    },
    /// A multistage-graph stage has the wrong number of node values.
    WrongStageWidth {
        /// Stage index.
        stage: usize,
        /// Expected width `m`.
        m: usize,
        /// Values actually supplied.
        got: usize,
    },
    /// A DAG schedule was requested for a cyclic dependency graph.
    CyclicDag,
    /// A DAG task references a dependency index outside the task list.
    DepOutOfRange {
        /// Task holding the bad dependency.
        task: usize,
        /// The out-of-range dependency index.
        dep: usize,
        /// Number of tasks in the list.
        len: usize,
    },
    /// A scheduler was given zero matrices.
    NoMatrices,
    /// A scheduler was given zero arrays.
    NoArrays,
    /// A random-generation cost range is empty (`lo > hi`).
    EmptyRange {
        /// Lower bound supplied.
        lo: i64,
        /// Upper bound supplied.
        hi: i64,
    },
    /// A numeric parameter is below its documented minimum.
    BadParameter {
        /// Parameter name as it appears in the API.
        name: &'static str,
        /// Value supplied.
        got: u64,
        /// Minimum accepted value.
        min: u64,
    },
    /// A numeric parameter is above its documented maximum.
    ParameterTooLarge {
        /// Parameter name as it appears in the API.
        name: &'static str,
        /// Value supplied.
        got: u64,
        /// Maximum accepted value.
        max: u64,
    },
    /// A worker task panicked (or was killed by fault injection) and
    /// could not be recovered within the retry budget.
    TaskPanicked {
        /// Task index that kept failing.
        task: u64,
        /// Recovery attempts that were made before giving up.
        attempts: u32,
    },
    /// An instance of a batched run has a different shape from the
    /// batch's first instance (batched pipelining requires uniform
    /// shapes so every instance follows the same schedule).
    BatchShapeMismatch {
        /// Index of the offending instance.
        index: usize,
    },
    /// A batched run was given zero instances.
    EmptyBatch,
    /// An alignment operand contains a symbol outside the scoring
    /// scheme's alphabet.
    SymbolOutOfRange {
        /// Byte offset of the offending symbol within its operand.
        index: usize,
        /// The symbol itself.
        symbol: u8,
        /// Alphabet size the scoring matrix covers (symbols `0..alphabet`).
        alphabet: u8,
    },
    /// Redundant replicas disagreed with no majority to vote with.
    NoMajority,
    /// Recompute-on-mismatch never saw two consecutive agreeing runs
    /// within its retry budget.
    RecoveryExhausted {
        /// Total runs performed.
        attempts: u32,
    },
    /// A serving request could not be decoded (bad JSON, missing or
    /// ill-typed fields, unknown request kind).
    MalformedRequest {
        /// Human-readable decode failure.
        reason: String,
    },
    /// A serving request line exceeded the configured payload limit.
    PayloadTooLarge {
        /// Bytes received before the server gave up.
        bytes: usize,
        /// Configured per-request limit.
        limit: usize,
    },
    /// The admission queue is full; the request was rejected for
    /// backpressure rather than queued unboundedly.
    QueueFull {
        /// Queue depth at rejection time.
        depth: usize,
    },
    /// The server is draining for shutdown and admits no new work.
    ShuttingDown,
    /// A request's deadline expired before an engine produced its
    /// answer; the job was discarded without burning engine work.
    DeadlineExceeded {
        /// Milliseconds the request had waited when it was expired.
        waited_ms: u64,
        /// The deadline the request carried (client-supplied or the
        /// server default).
        deadline_ms: u64,
    },
    /// The admission queue is above its shed threshold; the request was
    /// shed pre-emptively so queued work keeps meeting its deadlines.
    Overloaded {
        /// Suggested client back-off before retrying.
        retry_after_ms: u64,
    },
    /// The circuit breaker for this engine class is open (the engine
    /// has been failing) and no degraded fallback applied.
    CircuitOpen {
        /// Milliseconds until the breaker will admit a probe.
        retry_after_ms: u64,
    },
}

impl fmt::Display for SdpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            SdpError::EmptyArray => write!(f, "a systolic array needs at least one PE"),
            SdpError::MeshDims { rows, cols } => {
                write!(f, "mesh dimensions must be positive (got {rows}x{cols})")
            }
            SdpError::PeCount { expected, got } => {
                write!(f, "need rows*cols PEs (expected {expected}, got {got})")
            }
            SdpError::EmptyBus => write!(f, "bus needs at least one station"),
            SdpError::EmptyMatrixString => write!(f, "empty matrix string"),
            SdpError::StringTooShort { got, need } => {
                write!(f, "matrix string too short (got {got}, need at least {need})")
            }
            SdpError::NotSquare { index, m } => {
                write!(f, "interior matrices must be m x m (matrix {index}, m = {m})")
            }
            SdpError::InnerDimMismatch {
                left_cols,
                right_rows,
            } => write!(
                f,
                "inner dimensions must agree (left has {left_cols} cols, right has {right_rows} rows)"
            ),
            SdpError::WrongStageWidth { stage, m, got } => {
                write!(f, "stage {stage} must have m = {m} values (got {got})")
            }
            SdpError::CyclicDag => write!(f, "cyclic dependency graph"),
            SdpError::DepOutOfRange { task, dep, len } => write!(
                f,
                "dependency index out of range (task {task} depends on {dep}, list has {len})"
            ),
            SdpError::NoMatrices => write!(f, "need at least one matrix"),
            SdpError::NoArrays => write!(f, "need at least one array"),
            SdpError::EmptyRange { lo, hi } => {
                write!(f, "cost range is empty (lo = {lo} > hi = {hi})")
            }
            SdpError::BadParameter { name, got, min } => {
                write!(f, "parameter {name} must be at least {min} (got {got})")
            }
            SdpError::ParameterTooLarge { name, got, max } => {
                write!(f, "parameter {name} must be at most {max} (got {got})")
            }
            SdpError::TaskPanicked { task, attempts } => {
                write!(f, "task {task} panicked and stayed faulty after {attempts} attempts")
            }
            SdpError::BatchShapeMismatch { index } => {
                write!(f, "batch instance {index} has a different shape from instance 0")
            }
            SdpError::EmptyBatch => write!(f, "batch needs at least one instance"),
            SdpError::SymbolOutOfRange {
                index,
                symbol,
                alphabet,
            } => write!(
                f,
                "symbol {symbol} at offset {index} is outside the scoring alphabet (size {alphabet})"
            ),
            SdpError::NoMajority => write!(f, "redundant replicas disagree with no majority"),
            SdpError::RecoveryExhausted { attempts } => {
                write!(f, "recovery exhausted after {attempts} attempts")
            }
            SdpError::MalformedRequest { ref reason } => {
                write!(f, "malformed request: {reason}")
            }
            SdpError::PayloadTooLarge { bytes, limit } => {
                write!(f, "payload too large ({bytes} bytes, limit {limit})")
            }
            SdpError::QueueFull { depth } => {
                write!(f, "admission queue full (depth {depth})")
            }
            SdpError::ShuttingDown => write!(f, "server is shutting down"),
            SdpError::DeadlineExceeded {
                waited_ms,
                deadline_ms,
            } => write!(
                f,
                "deadline exceeded (waited {waited_ms} ms, deadline {deadline_ms} ms)"
            ),
            SdpError::Overloaded { retry_after_ms } => {
                write!(f, "server overloaded, retry after {retry_after_ms} ms")
            }
            SdpError::CircuitOpen { retry_after_ms } => {
                write!(f, "engine circuit open, retry after {retry_after_ms} ms")
            }
        }
    }
}

impl std::error::Error for SdpError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_preserve_legacy_panic_phrases() {
        // The panicking wrappers format these errors; the substrings
        // below are pinned by pre-existing #[should_panic] tests.
        let cases: Vec<(SdpError, &str)> = vec![
            (SdpError::EmptyArray, "at least one PE"),
            (
                SdpError::MeshDims { rows: 0, cols: 3 },
                "mesh dimensions must be positive",
            ),
            (
                SdpError::PeCount {
                    expected: 4,
                    got: 1,
                },
                "rows*cols",
            ),
            (SdpError::EmptyBus, "at least one station"),
            (SdpError::EmptyMatrixString, "empty matrix string"),
            (SdpError::StringTooShort { got: 1, need: 2 }, "too short"),
            (SdpError::NotSquare { index: 1, m: 3 }, "m x m"),
            (
                SdpError::InnerDimMismatch {
                    left_cols: 2,
                    right_rows: 3,
                },
                "inner dimensions",
            ),
            (
                SdpError::WrongStageWidth {
                    stage: 1,
                    m: 3,
                    got: 2,
                },
                "must have m",
            ),
            (SdpError::CyclicDag, "cyclic"),
            (SdpError::NoMatrices, "need at least one matrix"),
            (SdpError::NoArrays, "need at least one array"),
            (
                SdpError::ParameterTooLarge {
                    name: "failed_pe",
                    got: 5,
                    max: 4,
                },
                "must be at most 4",
            ),
        ];
        for (err, phrase) in cases {
            let msg = err.to_string();
            assert!(msg.contains(phrase), "{msg:?} should contain {phrase:?}");
        }
    }

    #[test]
    fn error_trait_is_implemented() {
        let err: Box<dyn std::error::Error> = Box::new(SdpError::CyclicDag);
        assert_eq!(err.to_string(), "cyclic dependency graph");
    }
}
