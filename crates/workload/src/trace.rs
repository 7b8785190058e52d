//! Trace capture and replay.
//!
//! Production Memcached studies (Atikoglu et al., McDipper) work from
//! captured request traces. This module defines a minimal line-oriented
//! trace format —
//!
//! ```text
//! # comments and blank lines ignored
//! get <key>
//! put <key> <value_bytes>
//! ```
//!
//! — with a writer, a parser, and a replaying [`RequestGenerator`], so
//! downstream users can feed their own captured workloads to the
//! simulator instead of the synthetic generators.

use crate::{Op, Request, RequestGenerator};

/// Errors from trace parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// A line had an unknown verb or the wrong number of fields.
    BadLine {
        /// 1-based line number.
        line: usize,
        /// The offending text.
        text: String,
    },
    /// The trace contained no requests.
    Empty,
}

impl core::fmt::Display for TraceError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            TraceError::BadLine { line, text } => write!(f, "bad trace line {line}: {text:?}"),
            TraceError::Empty => write!(f, "trace contains no requests"),
        }
    }
}

impl std::error::Error for TraceError {}

/// Parses a trace from its text form.
///
/// GET lines carry no size; the replayer reports the stored value's size
/// as 0 and lets the store supply the actual bytes (like a real client).
///
/// # Errors
///
/// [`TraceError::BadLine`] on malformed input, [`TraceError::Empty`] if
/// nothing remains after comments.
///
/// # Examples
///
/// ```
/// use densekv_workload::trace::TraceReplay;
///
/// let trace = TraceReplay::from_text("# warmup\nput user:1 100\nget user:1\n")?;
/// assert_eq!(trace.len(), 2);
/// # Ok::<(), densekv_workload::trace::TraceError>(())
/// ```
pub(crate) fn parse_trace(text: &str) -> Result<Vec<Request>, TraceError> {
    let mut requests = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let bad = || TraceError::BadLine {
            line: idx + 1,
            text: raw.to_owned(),
        };
        let mut words = line.split_whitespace();
        match words.next() {
            Some("get") => {
                let key = words.next().ok_or_else(bad)?;
                if words.next().is_some() {
                    return Err(bad());
                }
                requests.push(Request {
                    op: Op::Get,
                    key: key.as_bytes().to_vec(),
                    value_bytes: 0,
                });
            }
            Some("put") => {
                let key = words.next().ok_or_else(bad)?;
                let value_bytes = words.next().and_then(|w| w.parse().ok()).ok_or_else(bad)?;
                if words.next().is_some() {
                    return Err(bad());
                }
                requests.push(Request {
                    op: Op::Put,
                    key: key.as_bytes().to_vec(),
                    value_bytes,
                });
            }
            _ => return Err(bad()),
        }
    }
    if requests.is_empty() {
        return Err(TraceError::Empty);
    }
    Ok(requests)
}

/// Replays a parsed trace, looping back to the start when exhausted.
#[derive(Debug, Clone)]
pub struct TraceReplay {
    requests: Vec<Request>,
    cursor: usize,
    loops: u64,
}

impl TraceReplay {
    /// Creates a replayer over a non-empty request list.
    ///
    /// # Errors
    ///
    /// [`TraceError::Empty`] if `requests` is empty.
    pub fn new(requests: Vec<Request>) -> Result<Self, TraceError> {
        if requests.is_empty() {
            return Err(TraceError::Empty);
        }
        Ok(TraceReplay {
            requests,
            cursor: 0,
            loops: 0,
        })
    }

    /// Parses and wraps a textual trace.
    ///
    /// # Errors
    ///
    /// Propagates `parse_trace` errors.
    pub fn from_text(text: &str) -> Result<Self, TraceError> {
        TraceReplay::new(parse_trace(text)?)
    }

    /// How many times the trace has wrapped around.
    pub fn loops(&self) -> u64 {
        self.loops
    }

    /// Number of requests in one pass of the trace.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// Always false: construction rejects empty traces.
    pub fn is_empty(&self) -> bool {
        false
    }
}

impl RequestGenerator for TraceReplay {
    fn next_request(&mut self) -> Request {
        let request = self.requests[self.cursor].clone();
        self.cursor += 1;
        if self.cursor == self.requests.len() {
            self.cursor = 0;
            self.loops += 1;
        }
        request
    }

    fn describe(&self) -> String {
        format!("trace replay of {} requests", self.requests.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_and_blanks_skipped() {
        let requests = parse_trace("# header\n\n  get k  \n").unwrap();
        assert_eq!(requests.len(), 1);
        assert_eq!(requests[0].key, b"k");
    }

    #[test]
    fn bad_lines_are_located() {
        let err = parse_trace("get a\nfrobnicate b\n").unwrap_err();
        assert_eq!(
            err,
            TraceError::BadLine {
                line: 2,
                text: "frobnicate b".into()
            }
        );
        assert!(matches!(
            parse_trace("put k notanumber\n"),
            Err(TraceError::BadLine { line: 1, .. })
        ));
        assert!(matches!(
            parse_trace("get k extra\n"),
            Err(TraceError::BadLine { .. })
        ));
        assert_eq!(parse_trace("# only comments\n"), Err(TraceError::Empty));
    }

    #[test]
    fn replay_loops() {
        let mut replay = TraceReplay::from_text("get a\nget b\n").unwrap();
        assert_eq!(replay.len(), 2);
        let keys: Vec<Vec<u8>> = (0..5).map(|_| replay.next_request().key).collect();
        assert_eq!(keys[0], keys[2]);
        assert_eq!(keys[1], keys[3]);
        assert_eq!(replay.loops(), 2);
        assert!(replay.describe().contains("2 requests"));
    }

    #[test]
    fn empty_replay_rejected() {
        assert_eq!(TraceReplay::new(Vec::new()).unwrap_err(), TraceError::Empty);
    }
}
