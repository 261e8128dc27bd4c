//! The wire protocol: length-prefixed JSON frames over a byte stream.
//!
//! Every message is one frame: a 4-byte big-endian length followed by that
//! many bytes of JSON. The framing layer is transport-agnostic (any
//! `Read`/`Write` pair); the TCP front-end in [`crate::server`] and the
//! load generator's client mode both speak it. Frames are bounded by
//! [`MAX_FRAME_BYTES`] so a corrupt length prefix cannot make the server
//! allocate unbounded memory.

use crate::report::ServiceReport;
use mvml_core::Verdict;
use serde::{Deserialize, Serialize};
use std::io::{Read, Write};

/// Upper bound on one frame's JSON body. Generous for classification
/// requests (a 32×32 float image is ~11 KiB of JSON, each pixel its
/// shortest round-trip `f32` text) while still refusing nonsense lengths
/// from corrupt or hostile prefixes.
pub const MAX_FRAME_BYTES: u32 = 16 * 1024 * 1024;

/// Largest buffer the reader allocates before any body byte has arrived.
/// A hostile prefix can claim up to [`MAX_FRAME_BYTES`]; the reader only
/// grows the buffer as bytes actually arrive, so claiming a length costs
/// the attacker bandwidth, not the server memory.
const READ_CHUNK_BYTES: usize = 64 * 1024;

/// A client-to-server message.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Classify one sample under a tenant's N-version system.
    Classify {
        /// Tenant the request is admitted under.
        tenant: String,
        /// Client-chosen correlation id, echoed in the response.
        id: u64,
        /// Sample shape (without the batch dimension), e.g. `[1, 12, 12]`.
        shape: Vec<usize>,
        /// Row-major sample values; length must equal the shape product.
        pixels: Vec<f32>,
    },
    /// Ask for the service's current deterministic accounting report.
    Stats,
    /// Ask the server to finish outstanding work and shut down.
    Shutdown,
}

/// A server-to-client message.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// The verdict for one [`Request::Classify`].
    Classified {
        /// Correlation id echoed from the request.
        id: u64,
        /// Tenant the request was served under.
        tenant: String,
        /// The trusted voter's decision.
        verdict: VerdictDto,
        /// Service round the request was batched into.
        round: u64,
    },
    /// The report answering a [`Request::Stats`].
    Stats {
        /// Deterministic per-tenant accounting at the time of the request.
        report: ServiceReport,
    },
    /// Acknowledgement of a [`Request::Shutdown`].
    ShuttingDown,
    /// The request was refused at admission by the overload-protection
    /// layer. Unlike [`Response::Error`], this is a normal, retryable
    /// outcome with machine-readable backoff advice.
    Rejected {
        /// Correlation id echoed from the request.
        id: u64,
        /// Tenant the request named.
        tenant: String,
        /// Why admission refused it.
        reason: RejectReason,
    },
    /// The request could not be served (unknown tenant, bad shape, …).
    Error {
        /// Human-readable reason.
        message: String,
    },
}

/// Why the overload-protection layer refused a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RejectReason {
    /// The tenant's admission queue (or the service-wide aggregate bound)
    /// is full; the request was never enqueued.
    Overloaded,
    /// The tenant's round-based token bucket is empty.
    RateLimited {
        /// Service rounds until the bucket refills enough for one request.
        retry_after_rounds: u64,
    },
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RejectReason::Overloaded => write!(f, "overloaded"),
            RejectReason::RateLimited { retry_after_rounds } => {
                write!(f, "rate limited; retry after {retry_after_rounds} round(s)")
            }
        }
    }
}

/// A serializable mirror of [`mvml_core::Verdict`] for the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum VerdictDto {
    /// The voter produced a class.
    Output {
        /// The winning class index.
        class: usize,
    },
    /// Proposals diverged; the voter safely skipped (R.1/R.2).
    Skip,
    /// No operational module proposed anything.
    NoModules,
    /// The request was lost to a shard restart before a vote happened.
    Dropped,
    /// The request was refused or shed by the overload-protection layer
    /// (never reached a shard; sits outside the SLO request identity).
    Rejected {
        /// Why the overload layer refused it.
        reason: RejectReason,
    },
}

impl VerdictDto {
    /// `true` when the service produced an actual class.
    pub fn is_decisive(&self) -> bool {
        matches!(self, VerdictDto::Output { .. })
    }
}

impl From<&Verdict<usize>> for VerdictDto {
    fn from(v: &Verdict<usize>) -> Self {
        match v {
            Verdict::Output(class) => VerdictDto::Output { class: *class },
            Verdict::Skip => VerdictDto::Skip,
            Verdict::NoModules => VerdictDto::NoModules,
        }
    }
}

/// Framing/encoding errors.
#[derive(Debug)]
pub enum ProtoError {
    /// The underlying transport failed.
    Io(std::io::Error),
    /// The frame body was not valid JSON for the expected message type.
    Json {
        /// Decoder error text.
        reason: String,
    },
    /// The length prefix exceeded the reader's frame bound.
    Oversized {
        /// The offending prefix value.
        len: u32,
    },
    /// The length prefix was zero. An empty body can never hold a valid
    /// message, so it is refused before any buffer exists.
    ZeroLength,
    /// The stream ended in the middle of a frame.
    Truncated,
    /// The transport's read or write deadline expired mid-frame. Kept
    /// distinct from [`ProtoError::Io`] so the server can close stalled
    /// (slow-loris) connections with a typed reason.
    Timeout,
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Io(e) => write!(f, "frame io: {e}"),
            ProtoError::Json { reason } => write!(f, "frame json: {reason}"),
            ProtoError::Oversized { len } => {
                write!(f, "frame length {len} exceeds the frame bound")
            }
            ProtoError::ZeroLength => write!(f, "zero-length frame"),
            ProtoError::Truncated => write!(f, "stream ended mid-frame"),
            ProtoError::Timeout => write!(f, "transport deadline expired mid-frame"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<std::io::Error> for ProtoError {
    fn from(e: std::io::Error) -> Self {
        // Socket deadlines surface as WouldBlock (unix) or TimedOut
        // (windows); both mean "the peer stalled", not "the transport broke".
        match e.kind() {
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => ProtoError::Timeout,
            _ => ProtoError::Io(e),
        }
    }
}

/// Writes one message as a length-prefixed JSON frame and flushes.
pub fn write_frame<W: Write, T: Serialize>(w: &mut W, msg: &T) -> Result<(), ProtoError> {
    let body = serde_json::to_string(msg).map_err(|e| ProtoError::Json {
        reason: e.to_string(),
    })?;
    let len = u32::try_from(body.len()).map_err(|_| ProtoError::Oversized { len: u32::MAX })?;
    if len > MAX_FRAME_BYTES {
        return Err(ProtoError::Oversized { len });
    }
    w.write_all(&len.to_be_bytes())?;
    w.write_all(body.as_bytes())?;
    w.flush()?;
    Ok(())
}

/// Reads one frame with the default [`MAX_FRAME_BYTES`] bound. Returns
/// `Ok(None)` on a clean end-of-stream at a frame boundary; a stream that
/// ends mid-frame is [`ProtoError::Truncated`].
pub fn read_frame<R: Read, T: Deserialize>(r: &mut R) -> Result<Option<T>, ProtoError> {
    read_frame_with_limit(r, MAX_FRAME_BYTES)
}

/// Reads one frame whose body may be at most `max_len` bytes.
///
/// The length prefix is validated *before* any body buffer exists: a zero
/// prefix is [`ProtoError::ZeroLength`], a prefix above `max_len` is
/// [`ProtoError::Oversized`]. The body buffer then grows in bounded chunks
/// as bytes arrive, so even an accepted prefix never forces an up-front
/// allocation larger than the bytes the peer has actually sent (plus one
/// chunk).
pub fn read_frame_with_limit<R: Read, T: Deserialize>(
    r: &mut R,
    max_len: u32,
) -> Result<Option<T>, ProtoError> {
    let mut prefix = [0u8; 4];
    let mut filled = 0usize;
    while filled < prefix.len() {
        let n = r.read(&mut prefix[filled..])?;
        if n == 0 {
            return if filled == 0 {
                Ok(None)
            } else {
                Err(ProtoError::Truncated)
            };
        }
        filled += n;
    }
    let len = u32::from_be_bytes(prefix);
    if len == 0 {
        return Err(ProtoError::ZeroLength);
    }
    if len > max_len.min(MAX_FRAME_BYTES) {
        return Err(ProtoError::Oversized { len });
    }
    let total = len as usize;
    let mut body = Vec::with_capacity(total.min(READ_CHUNK_BYTES));
    let mut chunk = [0u8; 4096];
    while body.len() < total {
        let want = (total - body.len()).min(chunk.len());
        let n = r.read(&mut chunk[..want])?;
        if n == 0 {
            return Err(ProtoError::Truncated);
        }
        body.extend_from_slice(&chunk[..n]);
    }
    let text = String::from_utf8(body).map_err(|e| ProtoError::Json {
        reason: e.to_string(),
    })?;
    let msg = serde_json::from_str(&text).map_err(|e| ProtoError::Json {
        reason: e.to_string(),
    })?;
    Ok(Some(msg))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let req = Request::Classify {
            tenant: "alpha".into(),
            id: 7,
            shape: vec![1, 2, 2],
            pixels: vec![0.25, -1.5, 0.0, 3.0],
        };
        let mut buf = Vec::new();
        write_frame(&mut buf, &req).expect("write");
        write_frame(&mut buf, &Request::Stats).expect("write");
        let mut cursor = &buf[..];
        let a: Request = read_frame(&mut cursor).expect("read").expect("some");
        let b: Request = read_frame(&mut cursor).expect("read").expect("some");
        assert_eq!(a, req);
        assert_eq!(b, Request::Stats);
        let end: Result<Option<Request>, _> = read_frame(&mut cursor);
        assert!(matches!(end, Ok(None)), "clean EOF at frame boundary");
    }

    #[test]
    fn truncated_and_oversized_frames_are_typed_errors() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Request::Shutdown).expect("write");
        // Chop the body mid-frame.
        let cut = buf.len() - 3;
        let mut cursor = &buf[..cut];
        let got: Result<Option<Request>, _> = read_frame(&mut cursor);
        assert!(matches!(got, Err(ProtoError::Truncated)));
        // Chop inside the length prefix.
        let mut cursor = &buf[..2];
        let got: Result<Option<Request>, _> = read_frame(&mut cursor);
        assert!(matches!(got, Err(ProtoError::Truncated)));
        // A hostile length prefix is refused before any allocation.
        let huge = (MAX_FRAME_BYTES + 1).to_be_bytes();
        let mut cursor = &huge[..];
        let got: Result<Option<Request>, _> = read_frame(&mut cursor);
        assert!(matches!(got, Err(ProtoError::Oversized { .. })));
    }

    #[test]
    fn zero_length_prefix_is_a_typed_error() {
        let zero = 0u32.to_be_bytes();
        let mut cursor = &zero[..];
        let got: Result<Option<Request>, _> = read_frame(&mut cursor);
        assert!(matches!(got, Err(ProtoError::ZeroLength)));
    }

    #[test]
    fn per_reader_limit_tightens_the_global_bound() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Request::Stats).expect("write");
        let mut cursor = &buf[..];
        // A limit below this frame's body length refuses it up front...
        let got: Result<Option<Request>, _> = read_frame_with_limit(&mut cursor, 4);
        assert!(matches!(got, Err(ProtoError::Oversized { .. })));
        // ...while a permissive limit admits it.
        let mut cursor = &buf[..];
        let got: Request = read_frame_with_limit(&mut cursor, 1024)
            .expect("read")
            .expect("some");
        assert_eq!(got, Request::Stats);
    }

    #[test]
    fn reject_reason_round_trips_on_the_wire() {
        let resp = Response::Rejected {
            id: 3,
            tenant: "alpha".into(),
            reason: RejectReason::RateLimited {
                retry_after_rounds: 2,
            },
        };
        let mut buf = Vec::new();
        write_frame(&mut buf, &resp).expect("write");
        let mut cursor = &buf[..];
        let got: Response = read_frame(&mut cursor).expect("read").expect("some");
        assert_eq!(got, resp);
    }

    #[test]
    fn verdict_dto_mirrors_core_verdicts() {
        assert_eq!(
            VerdictDto::from(&Verdict::Output(4usize)),
            VerdictDto::Output { class: 4 }
        );
        assert_eq!(VerdictDto::from(&Verdict::<usize>::Skip), VerdictDto::Skip);
        assert_eq!(
            VerdictDto::from(&Verdict::<usize>::NoModules),
            VerdictDto::NoModules
        );
        assert!(VerdictDto::Output { class: 0 }.is_decisive());
        assert!(!VerdictDto::Dropped.is_decisive());
    }
}
