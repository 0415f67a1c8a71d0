//! Wire protocol: length-prefixed JSON frames and the request/response
//! vocabulary.
//!
//! # Frame format
//!
//! ```text
//! +----------------+---------------------+
//! | length: u32 BE | payload: JSON utf-8 |
//! +----------------+---------------------+
//! ```
//!
//! One frame carries one JSON document. The length counts payload bytes
//! only; frames longer than the server's configured bound are rejected with
//! a `413` error and the connection is closed (an oversized or garbage
//! prefix means the stream can no longer be trusted to be frame-aligned).
//!
//! # Requests
//!
//! ```json
//! {"kind": "solve", "scenario": "paper-oil", "fidelity": "fast",
//!  "power_scale": 1.25, "deadline_ms": 50}
//! {"kind": "solve", "scn": "[scenario]\nname = inline\n…"}
//! {"kind": "stats"}
//! {"kind": "shutdown"}
//! ```
//!
//! `scenario` names a shipped scenario; `scn` carries an inline scenario
//! file. Exactly one of the two must be present. `power_scale` multiplies
//! the scenario's power, `power_w` replaces it with a uniform total;
//! `deadline_ms` bounds queue wait — a request that cannot start solving in
//! time is shed with a `503` response instead of being served late.
//!
//! `solver` (`"auto"`, `"direct"`, `"cg"`, `"multigrid"`, `"spectral"`)
//! overrides the scenario's solver choice for this request. Requesting
//! `"spectral"` against a stack that does not qualify answers `422` naming
//! the disqualifying layer.
//!
//! # Responses
//!
//! Every response carries `ok` and `code` (HTTP-flavored). Solve reports add
//! per-block temperatures, solver telemetry and the cache disposition
//! (`"hit"`, `"miss"` or `"coalesced"`); shed responses carry
//! `code = 503` and a `shed` reason (`"queue-full"` or `"deadline"`).

use crate::json::{obj, Json};
use hotiron_bench::scenario::SolverSpec;
use std::io::{self, Read, Write};

/// Default maximum frame payload: 1 MiB.
pub const MAX_FRAME_BYTES: usize = 1 << 20;

/// A framing failure while reading.
#[derive(Debug)]
pub enum FrameError {
    /// Clean end of stream before a length prefix (normal connection close).
    Closed,
    /// The peer declared a payload longer than the configured bound.
    Oversized {
        /// Declared payload length.
        declared: usize,
        /// The server's bound.
        max: usize,
    },
    /// The stream ended mid-frame.
    Truncated,
    /// Underlying I/O failure.
    Io(io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Closed => write!(f, "connection closed"),
            Self::Oversized { declared, max } => {
                write!(f, "declared frame of {declared} bytes exceeds the {max}-byte bound")
            }
            Self::Truncated => write!(f, "stream ended mid-frame"),
            Self::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Writes one frame: 4-byte big-endian length + payload.
///
/// # Errors
///
/// Any underlying I/O error.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame too long for u32"))?;
    w.write_all(&len.to_be_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one frame, enforcing the `max` payload bound.
///
/// # Errors
///
/// [`FrameError::Closed`] on clean EOF before a prefix, [`FrameError::Io`]
/// for timeouts and transport failures, [`FrameError::Oversized`] /
/// [`FrameError::Truncated`] for malformed streams.
pub fn read_frame(r: &mut impl Read, max: usize) -> Result<Vec<u8>, FrameError> {
    let mut prefix = [0u8; 4];
    let mut got = 0;
    while got < 4 {
        match r.read(&mut prefix[got..]) {
            Ok(0) => return Err(if got == 0 { FrameError::Closed } else { FrameError::Truncated }),
            Ok(n) => got += n,
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    let declared = u32::from_be_bytes(prefix) as usize;
    if declared > max {
        return Err(FrameError::Oversized { declared, max });
    }
    let mut payload = vec![0u8; declared];
    let mut filled = 0;
    while filled < declared {
        match r.read(&mut payload[filled..]) {
            Ok(0) => return Err(FrameError::Truncated),
            Ok(n) => filled += n,
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(payload)
}

/// Which scenario a solve request runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScenarioSource {
    /// A scenario shipped with the daemon, by name.
    Named(String),
    /// An inline `.scn` document.
    Inline(String),
}

/// Requested solve fidelity (mirrors the experiment harness' tiers).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FidelityTier {
    /// Grid clamped to 16×16 — the sub-millisecond serving tier.
    Fast,
    /// The scenario's full grid.
    Paper,
}

impl FidelityTier {
    /// The wire token.
    pub fn token(self) -> &'static str {
        match self {
            Self::Fast => "fast",
            Self::Paper => "paper",
        }
    }
}

/// A solve request.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveRequest {
    /// Scenario to run.
    pub scenario: ScenarioSource,
    /// Fidelity tier (default fast).
    pub fidelity: FidelityTier,
    /// Multiplies the scenario's power map.
    pub power_scale: Option<f64>,
    /// Replaces the scenario's power with a uniform total (watts).
    pub power_w: Option<f64>,
    /// Queue-wait bound; `None` means the server default.
    pub deadline_ms: Option<u64>,
    /// Include the per-block temperature report (default true).
    pub blocks: bool,
    /// Per-request solver override; `None` keeps the scenario's own choice.
    pub solver: Option<SolverSpec>,
}

/// A decoded request frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Run (or join) a scenario solve.
    Solve(SolveRequest),
    /// Metrics snapshot.
    Stats,
    /// Begin graceful drain: stop accepting, finish queued work, exit.
    Shutdown,
}

impl Request {
    /// Decodes a request from its JSON document.
    ///
    /// # Errors
    ///
    /// A human-readable message naming the offending field.
    pub fn from_json(v: &Json) -> Result<Request, String> {
        let kind = v
            .get("kind")
            .and_then(Json::as_str)
            .ok_or_else(|| "missing string field `kind`".to_owned())?;
        match kind {
            "stats" => Ok(Request::Stats),
            "shutdown" => Ok(Request::Shutdown),
            "solve" => {
                let named = v.get("scenario").and_then(Json::as_str);
                let inline = v.get("scn").and_then(Json::as_str);
                let scenario = match (named, inline) {
                    (Some(n), None) => ScenarioSource::Named(n.to_owned()),
                    (None, Some(s)) => ScenarioSource::Inline(s.to_owned()),
                    (Some(_), Some(_)) => {
                        return Err("give `scenario` or `scn`, not both".to_owned())
                    }
                    (None, None) => return Err("missing `scenario` (or inline `scn`)".to_owned()),
                };
                let fidelity = match v.get("fidelity").and_then(Json::as_str) {
                    None | Some("fast") => FidelityTier::Fast,
                    Some("paper") => FidelityTier::Paper,
                    Some(other) => return Err(format!("unknown fidelity `{other}`")),
                };
                let power_scale = match v.get("power_scale") {
                    None => None,
                    Some(j) => Some(
                        j.as_f64()
                            .filter(|s| s.is_finite() && *s >= 0.0)
                            .ok_or_else(|| "bad `power_scale`".to_owned())?,
                    ),
                };
                let power_w = match v.get("power_w") {
                    None => None,
                    Some(j) => Some(
                        j.as_f64()
                            .filter(|w| w.is_finite() && *w >= 0.0)
                            .ok_or_else(|| "bad `power_w`".to_owned())?,
                    ),
                };
                let deadline_ms = match v.get("deadline_ms") {
                    None => None,
                    Some(j) => Some(j.as_u64().ok_or_else(|| "bad `deadline_ms`".to_owned())?),
                };
                let blocks = v.get("blocks").and_then(Json::as_bool).unwrap_or(true);
                let solver = match v.get("solver").and_then(Json::as_str) {
                    None => None,
                    Some(tok) => Some(
                        SolverSpec::from_token(tok)
                            .ok_or_else(|| format!("unknown solver `{tok}`"))?,
                    ),
                };
                Ok(Request::Solve(SolveRequest {
                    scenario,
                    fidelity,
                    power_scale,
                    power_w,
                    deadline_ms,
                    blocks,
                    solver,
                }))
            }
            other => Err(format!("unknown request kind `{other}`")),
        }
    }

    /// Encodes the request as a JSON document (the client side).
    pub fn to_json(&self) -> Json {
        match self {
            Request::Stats => obj([("kind", Json::Str("stats".into()))]),
            Request::Shutdown => obj([("kind", Json::Str("shutdown".into()))]),
            Request::Solve(s) => {
                let mut members = vec![("kind".to_owned(), Json::Str("solve".into()))];
                match &s.scenario {
                    ScenarioSource::Named(n) => {
                        members.push(("scenario".to_owned(), Json::Str(n.clone())));
                    }
                    ScenarioSource::Inline(text) => {
                        members.push(("scn".to_owned(), Json::Str(text.clone())));
                    }
                }
                members.push(("fidelity".to_owned(), Json::Str(s.fidelity.token().into())));
                if let Some(scale) = s.power_scale {
                    members.push(("power_scale".to_owned(), Json::Num(scale)));
                }
                if let Some(w) = s.power_w {
                    members.push(("power_w".to_owned(), Json::Num(w)));
                }
                if let Some(d) = s.deadline_ms {
                    members.push(("deadline_ms".to_owned(), Json::Num(d as f64)));
                }
                if !s.blocks {
                    members.push(("blocks".to_owned(), Json::Bool(false)));
                }
                if let Some(spec) = s.solver {
                    members.push(("solver".to_owned(), Json::Str(spec.token().into())));
                }
                Json::Obj(members)
            }
        }
    }
}

/// Builds the error/shed response document.
pub fn error_response(code: u16, message: &str) -> Json {
    obj([
        ("ok", Json::Bool(false)),
        ("code", Json::Num(f64::from(code))),
        ("error", Json::Str(message.to_owned())),
    ])
}

/// Builds the `503` shed response; `reason` is `"queue-full"` or
/// `"deadline"`.
pub fn shed_response(reason: &str) -> Json {
    obj([
        ("ok", Json::Bool(false)),
        ("code", Json::Num(503.0)),
        ("shed", Json::Str(reason.to_owned())),
        ("error", Json::Str(format!("overloaded: {reason}"))),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"{\"kind\":\"stats\"}").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = Cursor::new(buf);
        assert_eq!(read_frame(&mut r, MAX_FRAME_BYTES).unwrap(), b"{\"kind\":\"stats\"}");
        assert_eq!(read_frame(&mut r, MAX_FRAME_BYTES).unwrap(), b"");
        assert!(matches!(read_frame(&mut r, MAX_FRAME_BYTES), Err(FrameError::Closed)));
    }

    #[test]
    fn oversized_declared_length_is_rejected_without_reading_payload() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_be_bytes());
        let mut r = Cursor::new(buf);
        match read_frame(&mut r, 1024) {
            Err(FrameError::Oversized { declared, max }) => {
                assert_eq!(declared, u32::MAX as usize);
                assert_eq!(max, 1024);
            }
            other => panic!("expected Oversized, got {other:?}"),
        }
    }

    #[test]
    fn truncated_frames_are_detected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&8u32.to_be_bytes());
        buf.extend_from_slice(b"half");
        assert!(matches!(read_frame(&mut Cursor::new(buf), 1024), Err(FrameError::Truncated)));
        // A lone partial prefix is also truncation, not a clean close.
        assert!(matches!(
            read_frame(&mut Cursor::new(vec![0u8, 0]), 1024),
            Err(FrameError::Truncated)
        ));
    }

    #[test]
    fn requests_round_trip_through_json() {
        let reqs = [
            Request::Stats,
            Request::Shutdown,
            Request::Solve(SolveRequest {
                scenario: ScenarioSource::Named("paper-oil".into()),
                fidelity: FidelityTier::Fast,
                power_scale: Some(1.25),
                power_w: None,
                deadline_ms: Some(50),
                blocks: true,
                solver: None,
            }),
            Request::Solve(SolveRequest {
                scenario: ScenarioSource::Inline("[scenario]\nname = x\n".into()),
                fidelity: FidelityTier::Paper,
                power_scale: None,
                power_w: Some(40.0),
                deadline_ms: None,
                blocks: false,
                solver: Some(SolverSpec::Spectral),
            }),
        ];
        for req in reqs {
            let round = Request::from_json(&req.to_json()).unwrap();
            assert_eq!(req, round);
        }
    }

    #[test]
    fn bad_requests_name_the_field() {
        let e = Request::from_json(&Json::parse(r#"{"kind":"solve"}"#).unwrap()).unwrap_err();
        assert!(e.contains("scenario"), "{e}");
        let e = Request::from_json(
            &Json::parse(r#"{"kind":"solve","scenario":"x","deadline_ms":-3}"#).unwrap(),
        )
        .unwrap_err();
        assert!(e.contains("deadline_ms"), "{e}");
        let e = Request::from_json(&Json::parse(r#"{"kind":"dance"}"#).unwrap()).unwrap_err();
        assert!(e.contains("dance"), "{e}");
        let e = Request::from_json(
            &Json::parse(r#"{"kind":"solve","scenario":"x","solver":"quantum"}"#).unwrap(),
        )
        .unwrap_err();
        assert!(e.contains("quantum"), "{e}");
    }
}
