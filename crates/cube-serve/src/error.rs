//! Server-side error type: every failure maps to an HTTP status and a
//! stable machine-readable code, so clients (and the CI serve gate)
//! can assert on behavior without parsing prose.

use cube_algebra::{AlgebraError, ExprParseError};
use cube_store::StoreError;
use cube_xml::XmlError;
use std::fmt;

/// A request- or repository-level failure with its wire representation.
///
/// `code` is stable and machine-checkable; `message` is for humans.
/// Expression-parse failures carry the parser's own `P00x` code so the
/// HTTP surface and the library surface agree on error identity.
#[derive(Debug, Clone)]
pub struct ServeError {
    /// HTTP status the error renders as.
    pub status: u16,
    /// Stable machine-readable code, e.g. `unknown_experiment`, `P004`.
    pub code: String,
    /// Human-readable description.
    pub message: String,
    /// Optional pre-rendered JSON fragment appended to the wire body
    /// as a `"diagnostics"` field — the static checker's `A0xx` array
    /// for `/eval` pre-flight rejections. `None` for ordinary errors.
    pub details: Option<String>,
}

impl ServeError {
    /// An error with an explicit status and code.
    pub fn with_status(status: u16, code: &str, message: impl Into<String>) -> Self {
        Self {
            status,
            code: code.to_string(),
            message: message.into(),
            details: None,
        }
    }

    /// A 400 with an explicit code.
    pub fn bad_request(code: &str, message: impl Into<String>) -> Self {
        Self::with_status(400, code, message)
    }

    /// A 404 for a missing experiment or route.
    pub fn not_found(code: &str, message: impl Into<String>) -> Self {
        Self::with_status(404, code, message)
    }

    /// A 500 for repository or I/O failures.
    pub fn internal(message: impl Into<String>) -> Self {
        Self::with_status(500, "internal", message)
    }

    /// A 503 `unavailable`-family error: the object (or the whole
    /// repository) could not be read even after retries, or is
    /// quarantined by the circuit breaker. Clients should back off and
    /// retry later.
    pub fn unavailable(code: &str, message: impl Into<String>) -> Self {
        Self::with_status(503, code, message)
    }

    /// A 504 `deadline_exceeded`: the request's time budget ran out
    /// during the named phase. The work was abandoned, not completed.
    pub fn deadline(phase: &str) -> Self {
        Self::with_status(
            504,
            "deadline_exceeded",
            format!("request deadline expired while {phase}"),
        )
    }

    /// Attaches a pre-rendered JSON `diagnostics` array to the error.
    #[must_use]
    pub fn with_details(mut self, details: String) -> Self {
        self.details = Some(details);
        self
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {} ({})", self.status, self.message, self.code)
    }
}

impl std::error::Error for ServeError {}

impl From<StoreError> for ServeError {
    fn from(e: StoreError) -> Self {
        let (status, code) = match &e {
            StoreError::Format { .. } => (400, "bad_store"),
            StoreError::Checksum { .. } => (400, "store_checksum"),
            StoreError::Limit { .. } => (413, "limit"),
            StoreError::Model(_) => (422, "model"),
            StoreError::Io { .. } => (500, "io"),
        };
        Self::with_status(status, code, e.to_string())
    }
}

impl From<XmlError> for ServeError {
    fn from(e: XmlError) -> Self {
        let (status, code) = match &e {
            XmlError::Limit { .. } => (413, "limit"),
            XmlError::Model(_) => (422, "model"),
            XmlError::Io { .. } => (500, "io"),
            _ => (400, "bad_xml"),
        };
        Self::with_status(status, code, e.to_string())
    }
}

impl From<ExprParseError> for ServeError {
    fn from(e: ExprParseError) -> Self {
        Self::with_status(400, e.code.as_str(), e.to_string())
    }
}

impl From<AlgebraError> for ServeError {
    fn from(e: AlgebraError) -> Self {
        Self::with_status(422, "algebra", e.to_string())
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        Self::internal(e.to_string())
    }
}
