//! The Memcached text protocol (the subset the paper's workloads use:
//! `get`, `gets`, `set`, `delete`, `touch`, `flush_all`, `stats`, plus
//! `version` and `quit`).
//!
//! Parsing is incremental: `parse_request` either yields a complete
//! command borrowed from the bytes it was given (and how many of them it
//! spans), reports how many bytes it needs first, or fails with a
//! protocol error — exactly the contract a byte-stream server loop needs.
//! [`parse_command`] is the same parse copied out into an owned
//! [`Command`] and consumed from a [`bytes::BytesMut`].

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::store::{GetHit, HitRef, StoreError};

/// Maximum accepted command-line length (Memcached rejects longer).
pub const MAX_LINE_BYTES: usize = 2048;

/// Largest data block a storage command may carry (Memcached's default
/// 1 MB item limit). Together with [`MAX_LINE_BYTES`] this bounds how
/// much a server must buffer per connection, no matter what a remote
/// peer sends.
pub const MAX_VALUE_BYTES: u64 = 1 << 20;

/// Which storage semantics a data-block command carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreVerb {
    /// Unconditional store.
    Set,
    /// Store only if absent.
    Add,
    /// Store only if present.
    Replace,
    /// Append to an existing value.
    Append,
    /// Prepend to an existing value.
    Prepend,
    /// Compare-and-swap against a token.
    Cas,
}

/// A parsed client command. By default it owns its bytes; the command
/// loop executes the borrowed form, [`Request`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command<B = Bytes, K = Vec<Bytes>> {
    /// `get <key>+` — fetch one or more keys.
    Get {
        /// Keys requested.
        keys: K,
        /// Whether CAS tokens were requested (`gets`).
        with_cas: bool,
    },
    /// `set|add|replace|append|prepend|cas <key> <flags> <exptime>
    /// <bytes> [cas] [noreply]` + data block.
    Set {
        /// Storage semantics.
        verb: StoreVerb,
        /// Item key.
        key: B,
        /// Client-opaque flags.
        flags: u32,
        /// Expiry in seconds (0 = immortal).
        exptime: u64,
        /// Value bytes.
        data: B,
        /// CAS token (only for `cas`).
        cas: u64,
        /// Suppress the reply.
        noreply: bool,
    },
    /// `incr <key> <delta> [noreply]` / `decr …`.
    IncrDecr {
        /// Item key.
        key: B,
        /// Unsigned delta.
        delta: u64,
        /// True for `decr`.
        decrement: bool,
        /// Suppress the reply.
        noreply: bool,
    },
    /// `delete <key> [noreply]`.
    Delete {
        /// Item key.
        key: B,
        /// Suppress the reply.
        noreply: bool,
    },
    /// `touch <key> <exptime> [noreply]`.
    Touch {
        /// Item key.
        key: B,
        /// New expiry in seconds.
        exptime: u64,
        /// Suppress the reply.
        noreply: bool,
    },
    /// `flush_all`.
    FlushAll,
    /// `stats [<sub>]` — plain `stats` carries no argument; extended
    /// introspection (`stats latency`, `stats shards`, `stats reset`)
    /// carries the sub-command verbatim for the serving layer to route.
    Stats {
        /// The sub-command after `stats`, if any.
        arg: Option<B>,
    },
    /// `metrics` — Prometheus text exposition of every live metric
    /// (a densekv extension; not part of the Memcached protocol).
    Metrics,
    /// `version`.
    Version,
    /// `quit`.
    Quit,
}

/// A command whose key and data are slices of the bytes it was parsed
/// from: nothing is copied until a store keeps it.
pub type Request<'a> = Command<&'a [u8], Keys<'a>>;

impl<B, K> Command<B, K> {
    /// The same command over another representation of its bytes and
    /// of its key list.
    fn map<'a, B2, K2>(
        &'a self,
        bytes: impl Fn(&'a B) -> B2,
        keys: impl FnOnce(&'a K) -> K2,
    ) -> Command<B2, K2> {
        match *self {
            Command::Get {
                keys: ref k,
                with_cas,
            } => Command::Get {
                keys: keys(k),
                with_cas,
            },
            Command::Set {
                verb,
                ref key,
                flags,
                exptime,
                ref data,
                cas,
                noreply,
            } => Command::Set {
                verb,
                key: bytes(key),
                flags,
                exptime,
                data: bytes(data),
                cas,
                noreply,
            },
            Command::IncrDecr {
                ref key,
                delta,
                decrement,
                noreply,
            } => Command::IncrDecr {
                key: bytes(key),
                delta,
                decrement,
                noreply,
            },
            Command::Delete { ref key, noreply } => Command::Delete {
                key: bytes(key),
                noreply,
            },
            Command::Touch {
                ref key,
                exptime,
                noreply,
            } => Command::Touch {
                key: bytes(key),
                exptime,
                noreply,
            },
            Command::FlushAll => Command::FlushAll,
            Command::Stats { ref arg } => Command::Stats {
                arg: arg.as_ref().map(bytes),
            },
            Command::Metrics => Command::Metrics,
            Command::Version => Command::Version,
            Command::Quit => Command::Quit,
        }
    }
}

impl Request<'_> {
    /// Copies the request out of the buffer it borrows from.
    pub fn to_command(&self) -> Command {
        self.map(
            |bytes| Bytes::copy_from_slice(bytes),
            |keys| keys.clone().map(Bytes::copy_from_slice).collect(),
        )
    }
}

impl Command {
    /// The command as the borrowed form the command loop executes.
    pub fn as_request(&self) -> Request<'_> {
        self.map(|bytes| &bytes[..], |keys| Keys::Owned(keys.iter()))
    }
}

/// Protocol-level parse errors (the server answers `CLIENT_ERROR`/`ERROR`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// Unknown verb.
    UnknownCommand(String),
    /// Malformed arguments for a known verb.
    BadArguments(&'static str),
    /// Command line exceeded [`MAX_LINE_BYTES`].
    LineTooLong,
    /// Data block wasn't terminated with CRLF.
    BadDataChunk,
    /// Announced data block exceeds [`MAX_VALUE_BYTES`].
    ValueTooLarge,
}

impl core::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ProtocolError::UnknownCommand(verb) => write!(f, "unknown command {verb:?}"),
            ProtocolError::BadArguments(what) => write!(f, "bad arguments: {what}"),
            ProtocolError::LineTooLong => write!(f, "command line too long"),
            ProtocolError::BadDataChunk => write!(f, "bad data chunk"),
            ProtocolError::ValueTooLarge => write!(f, "object too large for cache"),
        }
    }
}

impl std::error::Error for ProtocolError {}

/// Incremental parse outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Parsed {
    /// A complete command was consumed from the buffer.
    Complete(Command),
    /// The buffer does not yet hold a complete command; read more bytes.
    Incomplete,
}

/// The space-separated tokens of a command line, empty tokens skipped.
#[derive(Debug, Clone)]
pub struct Tokens<'a> {
    rest: &'a [u8],
}

impl<'a> Iterator for Tokens<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        let start = self.rest.iter().position(|&b| b != b' ')?;
        let rest = &self.rest[start..];
        let end = rest.iter().position(|&b| b == b' ').unwrap_or(rest.len());
        self.rest = &rest[end..];
        Some(&rest[..end])
    }
}

/// The keys of a `get`: read straight off the received line, or out of
/// an owned [`Command`].
#[derive(Debug, Clone)]
pub enum Keys<'a> {
    /// The rest of the command line after the verb.
    Line(Tokens<'a>),
    /// The key list of a [`Command::Get`].
    Owned(std::slice::Iter<'a, Bytes>),
}

impl<'a> Iterator for Keys<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        match self {
            Keys::Line(tokens) => tokens.next(),
            Keys::Owned(keys) => keys.next().map(|key| &key[..]),
        }
    }
}

/// Tries to parse one command from the front of `buf`.
///
/// On [`Parsed::Complete`] the command's bytes (including its data block,
/// for `set`) have been consumed. On [`Parsed::Incomplete`] the buffer is
/// untouched.
///
/// # Errors
///
/// Returns a [`ProtocolError`] for malformed input; the caller should
/// answer with `render_error` and close or resynchronize.
///
/// # Examples
///
/// ```
/// use bytes::BytesMut;
/// use densekv_kv::protocol::{parse_command, Command, Parsed};
///
/// let mut buf = BytesMut::from(&b"get user:42\r\n"[..]);
/// match parse_command(&mut buf)? {
///     Parsed::Complete(Command::Get { keys, .. }) => {
///         assert_eq!(&keys[0][..], b"user:42");
///     }
///     other => panic!("unexpected: {other:?}"),
/// }
/// # Ok::<(), densekv_kv::protocol::ProtocolError>(())
/// ```
pub fn parse_command(buf: &mut BytesMut) -> Result<Parsed, ProtocolError> {
    let (Some(request), used) = parse_request(buf)? else {
        return Ok(Parsed::Incomplete);
    };
    let command = request.to_command();
    buf.advance(used);
    Ok(Parsed::Complete(command))
}

/// Tries to parse one request from the front of `buf` without copying
/// anything out of it: `(Some(request), used)` carries the request and
/// how many bytes of `buf` it spans (data block included); `(None, need)`
/// means `buf` does not yet hold a complete command, and that the answer
/// cannot change before `buf` holds `need` bytes — the length a storage
/// command announced, or one more byte of a line still arriving.
///
/// # Errors
///
/// As for [`parse_command`].
pub(crate) fn parse_request(buf: &[u8]) -> Result<(Option<Request<'_>>, usize), ProtocolError> {
    // A line within the limit ends inside this window; past it the line
    // is too long whether or not its end has arrived.
    let window = &buf[..buf.len().min(MAX_LINE_BYTES + 2)];
    let Some(line_end) = find_crlf(window) else {
        if buf.len() > MAX_LINE_BYTES {
            return Err(ProtocolError::LineTooLong);
        }
        return Ok((None, buf.len() + 1));
    };
    let mut parts = Tokens {
        rest: &buf[..line_end],
    };
    let verb = parts.next().unwrap_or(b"");
    let mut used = line_end + 2;

    let request = match verb {
        b"get" | b"gets" => {
            if parts.clone().next().is_none() {
                return Err(ProtocolError::BadArguments("get needs at least one key"));
            }
            Request::Get {
                keys: Keys::Line(parts),
                with_cas: verb == b"gets",
            }
        }
        b"set" | b"add" | b"replace" | b"append" | b"prepend" | b"cas" => {
            let store_verb = match verb {
                b"set" => StoreVerb::Set,
                b"add" => StoreVerb::Add,
                b"replace" => StoreVerb::Replace,
                b"append" => StoreVerb::Append,
                b"prepend" => StoreVerb::Prepend,
                _ => StoreVerb::Cas,
            };
            let key = parts
                .next()
                .ok_or(ProtocolError::BadArguments("storage command needs a key"))?;
            // Out of range is an error, as memcached's `safe_strtoul`
            // makes it, not a value to wrap.
            let flags = u32::try_from(parse_u64(parts.next(), "flags")?)
                .map_err(|_| ProtocolError::BadArguments("flags"))?;
            let exptime = parse_u64(parts.next(), "exptime")?;
            let nbytes = parse_u64(parts.next(), "bytes")?;
            // Memcached rejects oversized items up front; the bound also
            // keeps the length arithmetic below overflow-safe and caps
            // how far a server buffer can grow waiting for the block.
            if nbytes > MAX_VALUE_BYTES {
                return Err(ProtocolError::ValueTooLarge);
            }
            let nbytes = nbytes as usize;
            let cas = if store_verb == StoreVerb::Cas {
                parse_u64(parts.next(), "cas token")?
            } else {
                0
            };
            let noreply = matches!(parts.next(), Some(b"noreply"));
            let data_start = used;
            used = data_start + nbytes + 2;
            if buf.len() < used {
                return Ok((None, used));
            }
            if &buf[data_start + nbytes..used] != b"\r\n" {
                return Err(ProtocolError::BadDataChunk);
            }
            Request::Set {
                verb: store_verb,
                key,
                flags,
                exptime,
                data: &buf[data_start..data_start + nbytes],
                cas,
                noreply,
            }
        }
        b"incr" | b"decr" => {
            let key = parts
                .next()
                .ok_or(ProtocolError::BadArguments("incr/decr needs a key"))?;
            let delta = parse_u64(parts.next(), "delta")?;
            Request::IncrDecr {
                key,
                delta,
                decrement: verb == b"decr",
                noreply: matches!(parts.next(), Some(b"noreply")),
            }
        }
        b"delete" => {
            let key = parts
                .next()
                .ok_or(ProtocolError::BadArguments("delete needs a key"))?;
            Request::Delete {
                key,
                noreply: matches!(parts.next(), Some(b"noreply")),
            }
        }
        b"touch" => {
            let key = parts
                .next()
                .ok_or(ProtocolError::BadArguments("touch needs a key"))?;
            let exptime = parse_u64(parts.next(), "exptime")?;
            Request::Touch {
                key,
                exptime,
                noreply: matches!(parts.next(), Some(b"noreply")),
            }
        }
        b"flush_all" => Request::FlushAll,
        b"stats" => Request::Stats { arg: parts.next() },
        b"metrics" => Request::Metrics,
        b"version" => Request::Version,
        b"quit" => Request::Quit,
        other => {
            return Err(ProtocolError::UnknownCommand(
                String::from_utf8_lossy(other).into_owned(),
            ))
        }
    };
    Ok((Some(request), used))
}

/// Offset of the first CRLF in `buf`.
pub(crate) fn find_crlf(buf: &[u8]) -> Option<usize> {
    let mut from = 1;
    while let Some(i) = buf.get(from..)?.iter().position(|&b| b == b'\n') {
        if buf[from + i - 1] == b'\r' {
            return Some(from + i - 1);
        }
        from += i + 1;
    }
    None
}

fn parse_u64(token: Option<&[u8]>, what: &'static str) -> Result<u64, ProtocolError> {
    let token = token.ok_or(ProtocolError::BadArguments(what))?;
    std::str::from_utf8(token)
        .ok()
        .and_then(|s| s.parse().ok())
        .ok_or(ProtocolError::BadArguments(what))
}

/// Appends `n` in decimal.
fn put_decimal(out: &mut BytesMut, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.put_slice(&digits[at..]);
}

/// Renders a `VALUE` block for one GET hit.
pub fn render_value(out: &mut BytesMut, key: &[u8], hit: &GetHit, with_cas: bool) {
    render_hit(out, key, hit.borrowed(), with_cas);
}

/// Renders a `VALUE` block for a hit the store still owns.
pub(crate) fn render_hit(out: &mut BytesMut, key: &[u8], hit: HitRef<'_>, with_cas: bool) {
    out.put_slice(b"VALUE ");
    out.put_slice(key);
    out.put_slice(b" ");
    put_decimal(out, u64::from(hit.flags));
    out.put_slice(b" ");
    put_decimal(out, hit.value.len() as u64);
    if with_cas {
        out.put_slice(b" ");
        put_decimal(out, hit.cas);
    }
    out.put_slice(b"\r\n");
    out.put_slice(hit.value);
    out.put_slice(b"\r\n");
}

/// Terminates a GET response.
pub fn render_end(out: &mut BytesMut) {
    out.put_slice(b"END\r\n");
}

/// Renders the reply to a storage command.
pub(crate) fn render_stored(out: &mut BytesMut) {
    out.put_slice(b"STORED\r\n");
}

/// Renders the reply to a delete.
pub(crate) fn render_deleted(out: &mut BytesMut, existed: bool) {
    out.put_slice(if existed {
        b"DELETED\r\n".as_slice()
    } else {
        b"NOT_FOUND\r\n".as_slice()
    });
}

/// Renders a store-side failure.
pub(crate) fn render_store_error(out: &mut BytesMut, err: &StoreError) {
    match err {
        StoreError::OutOfMemory => out.put_slice(b"SERVER_ERROR out of memory storing object\r\n"),
        // Same wording as the parse-time nbytes cap: one item-size
        // policy, one client-visible error, whichever layer catches it.
        StoreError::ValueTooLarge { .. } => {
            out.put_slice(b"SERVER_ERROR object too large for cache\r\n")
        }
        StoreError::CasMismatch => out.put_slice(b"EXISTS\r\n"),
        StoreError::NotFound => out.put_slice(b"NOT_FOUND\r\n"),
        StoreError::Exists => out.put_slice(b"NOT_STORED\r\n"),
        StoreError::NotNumeric => {
            out.put_slice(b"CLIENT_ERROR cannot increment or decrement non-numeric value\r\n")
        }
        other => {
            out.put_slice(b"CLIENT_ERROR ");
            out.put_slice(other.to_string().as_bytes());
            out.put_slice(b"\r\n");
        }
    }
}

/// Renders an `incr`/`decr` result.
pub(crate) fn render_number(out: &mut BytesMut, value: u64) {
    put_decimal(out, value);
    out.put_slice(b"\r\n");
}

/// Renders a protocol-level failure.
pub(crate) fn render_error(out: &mut BytesMut, err: &ProtocolError) {
    match err {
        ProtocolError::UnknownCommand(_) => out.put_slice(b"ERROR\r\n"),
        ProtocolError::ValueTooLarge => {
            // Memcached's wording for its item-size cap.
            out.put_slice(b"SERVER_ERROR object too large for cache\r\n");
        }
        other => {
            out.put_slice(b"CLIENT_ERROR ");
            out.put_slice(other.to_string().as_bytes());
            out.put_slice(b"\r\n");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::StoreBackend;
    use crate::store::{KvStore, StoreConfig};

    fn parse_one(input: &[u8]) -> Result<Parsed, ProtocolError> {
        let mut buf = BytesMut::from(input);
        parse_command(&mut buf)
    }

    #[test]
    fn get_single_and_multi() {
        match parse_one(b"get a\r\n").unwrap() {
            Parsed::Complete(Command::Get { keys, with_cas }) => {
                assert_eq!(keys.len(), 1);
                assert!(!with_cas);
            }
            other => panic!("{other:?}"),
        }
        match parse_one(b"gets a bb ccc\r\n").unwrap() {
            Parsed::Complete(Command::Get { keys, with_cas }) => {
                assert_eq!(keys.len(), 3);
                assert_eq!(&keys[2][..], b"ccc");
                assert!(with_cas);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn set_with_data_block() {
        let mut buf = BytesMut::from(&b"set k 7 60 5\r\nhello\r\nget k\r\n"[..]);
        match parse_command(&mut buf).unwrap() {
            Parsed::Complete(Command::Set {
                verb,
                key,
                flags,
                exptime,
                data,
                cas,
                noreply,
            }) => {
                assert_eq!(verb, StoreVerb::Set);
                assert_eq!(&key[..], b"k");
                assert_eq!(flags, 7);
                assert_eq!(exptime, 60);
                assert_eq!(&data[..], b"hello");
                assert_eq!(cas, 0);
                assert!(!noreply);
            }
            other => panic!("{other:?}"),
        }
        // The following command is still in the buffer.
        assert!(matches!(
            parse_command(&mut buf).unwrap(),
            Parsed::Complete(Command::Get { .. })
        ));
    }

    #[test]
    fn set_noreply_flag() {
        match parse_one(b"set k 0 0 2 noreply\r\nhi\r\n").unwrap() {
            Parsed::Complete(Command::Set { noreply, .. }) => assert!(noreply),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn flags_beyond_32_bits_are_an_error_not_a_wrap() {
        let set = |flags: u64| parse_one(format!("set k {flags} 0 1\r\nx\r\n").as_bytes());
        match set(u64::from(u32::MAX)).unwrap() {
            Parsed::Complete(Command::Set { flags, .. }) => assert_eq!(flags, u32::MAX),
            other => panic!("{other:?}"),
        }
        let over = set(u64::from(u32::MAX) + 1);
        assert_eq!(over, Err(ProtocolError::BadArguments("flags")));
        let mut out = BytesMut::new();
        render_error(&mut out, &over.unwrap_err());
        assert_eq!(&out[..], b"CLIENT_ERROR bad arguments: flags\r\n");
    }

    #[test]
    fn incomplete_inputs_wait_for_more() {
        assert_eq!(parse_one(b"get a").unwrap(), Parsed::Incomplete);
        assert_eq!(
            parse_one(b"set k 0 0 10\r\nhalf").unwrap(),
            Parsed::Incomplete
        );
        // Incomplete parse leaves the buffer intact.
        let mut buf = BytesMut::from(&b"set k 0 0 4\r\nab"[..]);
        let before = buf.clone();
        assert_eq!(parse_command(&mut buf).unwrap(), Parsed::Incomplete);
        assert_eq!(buf, before);
    }

    #[test]
    fn value_data_may_contain_spaces_and_binary() {
        match parse_one(b"set k 0 0 6\r\na b\r\nc\r\n").unwrap() {
            Parsed::Complete(Command::Set { data, .. }) => assert_eq!(&data[..], b"a b\r\nc"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn errors() {
        assert!(matches!(
            parse_one(b"frobnicate\r\n"),
            Err(ProtocolError::UnknownCommand(_))
        ));
        assert!(matches!(
            parse_one(b"set k 0 0 notanumber\r\n"),
            Err(ProtocolError::BadArguments(_))
        ));
        assert!(matches!(
            parse_one(b"set k 0 0 3\r\nabcX\r"),
            Err(ProtocolError::BadDataChunk) | Ok(Parsed::Incomplete)
        ));
        assert!(matches!(
            parse_one(b"get\r\n"),
            Err(ProtocolError::BadArguments(_))
        ));
    }

    #[test]
    fn misc_verbs() {
        assert!(matches!(
            parse_one(b"flush_all\r\n").unwrap(),
            Parsed::Complete(Command::FlushAll)
        ));
        assert!(matches!(
            parse_one(b"stats\r\n").unwrap(),
            Parsed::Complete(Command::Stats { arg: None })
        ));
        match parse_one(b"stats latency\r\n").unwrap() {
            Parsed::Complete(Command::Stats { arg: Some(arg) }) => {
                assert_eq!(&arg[..], b"latency");
            }
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            parse_one(b"metrics\r\n").unwrap(),
            Parsed::Complete(Command::Metrics)
        ));
        assert!(matches!(
            parse_one(b"version\r\n").unwrap(),
            Parsed::Complete(Command::Version)
        ));
        assert!(matches!(
            parse_one(b"quit\r\n").unwrap(),
            Parsed::Complete(Command::Quit)
        ));
        assert!(matches!(
            parse_one(b"touch k 30\r\n").unwrap(),
            Parsed::Complete(Command::Touch { exptime: 30, .. })
        ));
    }

    #[test]
    fn render_roundtrip_through_store() {
        let mut store = KvStore::new(StoreConfig::with_capacity(4 << 20));
        store
            .set_with_flags(b"k", b"world".to_vec(), 9, None, 0)
            .unwrap();
        let hit = store.get(b"k", 0).unwrap();
        let mut out = BytesMut::new();
        render_value(&mut out, b"k", &hit, false);
        render_end(&mut out);
        assert_eq!(&out[..], b"VALUE k 9 5\r\nworld\r\nEND\r\n");
        let mut out = BytesMut::new();
        render_value(&mut out, b"k", &hit, true);
        let text = String::from_utf8_lossy(&out).into_owned();
        assert!(text.starts_with("VALUE k 9 5 "), "{text}");
    }

    #[test]
    fn render_misc() {
        let mut out = BytesMut::new();
        render_stored(&mut out);
        render_deleted(&mut out, true);
        render_deleted(&mut out, false);
        render_store_error(&mut out, &StoreError::OutOfMemory);
        render_error(&mut out, &ProtocolError::UnknownCommand("x".into()));
        let text = String::from_utf8_lossy(&out).into_owned();
        assert!(text.contains("STORED"));
        assert!(text.contains("DELETED"));
        assert!(text.contains("NOT_FOUND"));
        assert!(text.contains("SERVER_ERROR"));
        assert!(text.ends_with("ERROR\r\n"));
    }

    #[test]
    fn storage_verb_family() {
        for (text, verb) in [
            (&b"add k 0 0 2\r\nhi\r\n"[..], StoreVerb::Add),
            (b"replace k 0 0 2\r\nhi\r\n", StoreVerb::Replace),
            (b"append k 0 0 2\r\nhi\r\n", StoreVerb::Append),
            (b"prepend k 0 0 2\r\nhi\r\n", StoreVerb::Prepend),
        ] {
            match parse_one(text).unwrap() {
                Parsed::Complete(Command::Set { verb: v, data, .. }) => {
                    assert_eq!(v, verb);
                    assert_eq!(&data[..], b"hi");
                }
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn cas_carries_token() {
        match parse_one(b"cas k 1 0 2 99\r\nhi\r\n").unwrap() {
            Parsed::Complete(Command::Set {
                verb, cas, noreply, ..
            }) => {
                assert_eq!(verb, StoreVerb::Cas);
                assert_eq!(cas, 99);
                assert!(!noreply);
            }
            other => panic!("{other:?}"),
        }
        match parse_one(b"cas k 1 0 2 99 noreply\r\nhi\r\n").unwrap() {
            Parsed::Complete(Command::Set { noreply, .. }) => assert!(noreply),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn incr_decr_parse() {
        match parse_one(b"incr counter 5\r\n").unwrap() {
            Parsed::Complete(Command::IncrDecr {
                delta, decrement, ..
            }) => {
                assert_eq!(delta, 5);
                assert!(!decrement);
            }
            other => panic!("{other:?}"),
        }
        match parse_one(b"decr counter 3\r\n").unwrap() {
            Parsed::Complete(Command::IncrDecr { decrement, .. }) => assert!(decrement),
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            parse_one(b"incr counter notanumber\r\n"),
            Err(ProtocolError::BadArguments(_))
        ));
    }

    #[test]
    fn oversized_value_announcement_is_rejected_cleanly() {
        // One byte over the cap: rejected before any data is buffered.
        let over = MAX_VALUE_BYTES + 1;
        assert_eq!(
            parse_one(format!("set k 0 0 {over}\r\n").as_bytes()),
            Err(ProtocolError::ValueTooLarge)
        );
        // Exactly at the cap the parser waits for the block instead.
        let at = MAX_VALUE_BYTES;
        assert_eq!(
            parse_one(format!("set k 0 0 {at}\r\n").as_bytes()).unwrap(),
            Parsed::Incomplete
        );
        // The rejection renders as Memcached's SERVER_ERROR, not a panic.
        let mut out = BytesMut::new();
        render_error(&mut out, &ProtocolError::ValueTooLarge);
        assert_eq!(&out[..], b"SERVER_ERROR object too large for cache\r\n");
    }

    #[test]
    fn unterminated_garbage_is_bounded_by_line_limit() {
        // No CRLF ever arrives: the parser must flag the line instead of
        // buffering without bound.
        let mut buf = BytesMut::new();
        buf.extend_from_slice(&vec![b'x'; MAX_LINE_BYTES + 1]);
        assert_eq!(parse_command(&mut buf), Err(ProtocolError::LineTooLong));
    }

    /// One pseudo-protocol fragment for the chunked fuzz test: a mix of
    /// well-formed commands, truncated commands, raw bytes, framing
    /// noise, and `quit`.
    fn fragment() -> impl proptest::Strategy<Value = Vec<u8>> {
        use proptest::Strategy as _;
        (0u8..11, proptest::any::<u8>(), 0usize..12).prop_map(|(kind, byte, n)| match kind {
            0 => b"get k\r\n".to_vec(),
            1 => format!("set k 0 0 {n}\r\n").into_bytes(),
            2 => vec![byte; n],
            3 => b"\r\n".to_vec(),
            4 => b"set k 0 0 184467440737095516\r\n".to_vec(),
            5 => format!("incr k {}\r\n", u64::from(byte) * 7).into_bytes(),
            6 => b"gets a b c\r\n".to_vec(),
            7 => vec![b' '; n],
            8 => b"cas k 1 0 2 99\r\nhi\r\n".to_vec(),
            9 => b"quit\r\n".to_vec(),
            _ => b"delete \x00\xff\r\n".to_vec(),
        })
    }

    proptest::proptest! {
        /// Adversarial bytes from a real socket: random fragments fed at
        /// random split points through the drain loop over a model store
        /// never panic it, and every call makes progress — it consumes
        /// what is complete and leaves only a command the parser still
        /// waits for. The replies equal [`serve_buffer`]'s one-shot
        /// replies byte for byte, nothing after a close is consumed, and
        /// a trailing partial command stays buffered and unanswered.
        ///
        /// [`serve_buffer`]: crate::server::serve_buffer
        #[test]
        fn parser_survives_random_chunked_bytes(
            fragments in proptest::collection::vec(fragment(), 1..32),
            splits in proptest::collection::vec(1usize..17, 1..32)
        ) {
            use crate::server::{drain, serve_buffer, store_step, Drain};
            use crate::store::{KvStore, StoreConfig};

            let config = StoreConfig::with_capacity(8 << 20);
            let stream: Vec<u8> = fragments.concat();
            let mut one_shot = KvStore::new(config.clone());
            let (whole, whole_end) =
                drain(&stream, &mut BytesMut::new(), usize::MAX, store_step(&mut one_shot, 0));
            let mut store = KvStore::new(config.clone());
            let mut step = store_step(&mut store, 0);
            let mut buf = BytesMut::new();
            let mut out = BytesMut::new();
            let (mut fed, mut consumed) = (0usize, 0usize);
            // Where a session starts: what draining nothing answers (an
            // empty stream's whole drain answers the same).
            let (_, mut end) = drain(&buf, &mut out, usize::MAX, &mut step);
            let mut split = splits.iter().cycle();
            while fed < stream.len() {
                let Drain::NeedMore(need) = end else { break };
                let take = (*split.next().unwrap()).min(stream.len() - fed);
                buf.extend_from_slice(&stream[fed..fed + take]);
                fed += take;
                if buf.len() < need {
                    // Short of what the last drain asked for: draining
                    // could not progress, so it is skipped, as the live
                    // session skips it.
                    continue;
                }
                let used;
                (used, end) = drain(&buf, &mut out, usize::MAX, &mut step);
                Buf::advance(&mut buf, used);
                consumed += used;
                if let Drain::NeedMore(need) = end {
                    // What is left is one command still arriving: the
                    // parser waits for it and leaves it where it is, and
                    // says how much of it must arrive first.
                    proptest::prop_assert!(need > buf.len());
                    let before = buf.clone();
                    proptest::prop_assert_eq!(parse_command(&mut buf), Ok(Parsed::Incomplete));
                    proptest::prop_assert_eq!(&buf, &before);
                }
                // So the buffer stays bounded by a command line plus the
                // largest admissible data block.
                proptest::prop_assert!(
                    buf.len() <= MAX_LINE_BYTES + MAX_VALUE_BYTES as usize + 2 + 16
                );
            }
            let reference = serve_buffer(&mut KvStore::new(config), &stream, 0);
            proptest::prop_assert_eq!(&out[..], &reference[..]);
            proptest::prop_assert_eq!(end, whole_end);
            proptest::prop_assert_eq!(consumed, whole, "a close consumes nothing after it");
            if matches!(end, Drain::NeedMore(_)) {
                proptest::prop_assert_eq!(consumed + buf.len(), stream.len());
            }
        }
    }

    #[test]
    fn render_number_and_new_errors() {
        let mut out = BytesMut::new();
        render_number(&mut out, 16);
        render_store_error(&mut out, &StoreError::Exists);
        render_store_error(&mut out, &StoreError::NotNumeric);
        let text = String::from_utf8_lossy(&out).into_owned();
        assert!(text.starts_with("16\r\n"));
        assert!(text.contains("NOT_STORED"));
        assert!(text.contains("non-numeric"));
    }
}
