//! A blocking client over the [`densekv_kv::client`] codec: one
//! [`Connection`] per socket.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};

use bytes::BytesMut;

use densekv_kv::client::{parse_reply, BadReply, Reply, RequestBuilder, Value};

/// Read size per syscall on the client side.
const READ_CHUNK: usize = 16 << 10;

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// The server's bytes did not parse as a protocol reply.
    Protocol(BadReply),
    /// The server answered with an in-band error line
    /// (`ERROR` / `CLIENT_ERROR …` / `SERVER_ERROR …`).
    Server(String),
    /// The server closed the connection mid-reply.
    Closed,
}

impl core::fmt::Display for ClientError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "socket error: {e}"),
            ClientError::Protocol(e) => write!(f, "{e}"),
            ClientError::Server(line) => write!(f, "server error: {line}"),
            ClientError::Closed => write!(f, "server closed the connection"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<BadReply> for ClientError {
    fn from(e: BadReply) -> Self {
        ClientError::Protocol(e)
    }
}

/// One blocking protocol connection.
pub struct Connection {
    stream: TcpStream,
    rx: BytesMut,
    builder: RequestBuilder,
    chunk: Vec<u8>,
}

impl Connection {
    /// Connects and disables Nagle (request/response traffic).
    ///
    /// # Errors
    ///
    /// Propagates connect failures.
    pub fn connect(addr: SocketAddr) -> Result<Self, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Connection {
            stream,
            rx: BytesMut::with_capacity(4096),
            builder: RequestBuilder::new(),
            chunk: vec![0u8; READ_CHUNK],
        })
    }

    fn send(&mut self) -> Result<(), ClientError> {
        let bytes = self.builder.take();
        self.stream.write_all(&bytes)?;
        Ok(())
    }

    /// Reads one reply, turning in-band error lines into
    /// [`ClientError::Server`].
    ///
    /// # Errors
    ///
    /// [`ClientError`] on socket failure, malformed output, an error
    /// reply, or the server closing mid-reply.
    pub(crate) fn read_reply(&mut self) -> Result<Reply, ClientError> {
        loop {
            if let Some(reply) = parse_reply(&mut self.rx)? {
                if let Reply::Error(line) = reply {
                    return Err(ClientError::Server(line));
                }
                return Ok(reply);
            }
            match self.stream.read(&mut self.chunk)? {
                0 => return Err(ClientError::Closed),
                n => self.rx.extend_from_slice(&self.chunk[..n]),
            }
        }
    }

    /// `set` with zero flags and no expiry; true on `STORED`.
    ///
    /// # Errors
    ///
    /// See `Connection::read_reply`.
    pub fn set(&mut self, key: &[u8], value: &[u8]) -> Result<bool, ClientError> {
        self.builder.set(key, value, 0, 0);
        self.send()?;
        Ok(self.read_reply()? == Reply::Stored)
    }

    /// Single-key `get`; `None` on a miss.
    ///
    /// # Errors
    ///
    /// See `Connection::read_reply`.
    pub fn get(&mut self, key: &[u8]) -> Result<Option<Value>, ClientError> {
        self.builder.get(key);
        self.send()?;
        match self.read_reply()? {
            Reply::Values(mut values) => Ok(values.pop()),
            other => Err(ClientError::Protocol(BadReply(format!(
                "expected VALUE block, got {other:?}"
            )))),
        }
    }

    /// `delete`; true when the key existed.
    ///
    /// # Errors
    ///
    /// See `Connection::read_reply`.
    pub fn delete(&mut self, key: &[u8]) -> Result<bool, ClientError> {
        self.builder.delete(key);
        self.send()?;
        Ok(self.read_reply()? == Reply::Deleted)
    }

    /// `touch`; true when the key existed.
    ///
    /// # Errors
    ///
    /// See `Connection::read_reply`.
    pub fn touch(&mut self, key: &[u8], exptime: u64) -> Result<bool, ClientError> {
        self.builder.touch(key, exptime);
        self.send()?;
        Ok(self.read_reply()? == Reply::Touched)
    }

    /// `version`; the server's version string.
    ///
    /// # Errors
    ///
    /// See `Connection::read_reply`.
    pub fn version(&mut self) -> Result<String, ClientError> {
        self.builder.version();
        self.send()?;
        match self.read_reply()? {
            Reply::Version(v) => Ok(v),
            other => Err(ClientError::Protocol(BadReply(format!(
                "expected VERSION, got {other:?}"
            )))),
        }
    }

    /// `flush_all`.
    ///
    /// # Errors
    ///
    /// See `Connection::read_reply`.
    pub fn flush_all(&mut self) -> Result<(), ClientError> {
        self.builder.flush_all();
        self.send()?;
        match self.read_reply()? {
            Reply::Ok => Ok(()),
            other => Err(ClientError::Protocol(BadReply(format!(
                "expected OK, got {other:?}"
            )))),
        }
    }

    /// Sends `quit`; the server closes the socket without replying.
    ///
    /// # Errors
    ///
    /// Propagates the write failure.
    pub fn quit(mut self) -> Result<(), ClientError> {
        self.builder.quit();
        self.send()
    }

    /// Sends a raw request and collects the multi-line text reply the
    /// introspection verbs produce: every line up to (excluding) the
    /// `END` terminator, without line endings. Splits on `\n` and trims
    /// a trailing `\r`, so it reads both the CRLF `stats …` replies and
    /// the LF Prometheus exposition of `metrics`.
    ///
    /// # Errors
    ///
    /// [`ClientError`] on socket failure or the server closing before
    /// `END` arrives.
    pub fn text_block(&mut self, request: &[u8]) -> Result<Vec<String>, ClientError> {
        self.stream.write_all(request)?;
        let mut lines = Vec::new();
        loop {
            while let Some(end) = self.rx.iter().position(|&b| b == b'\n') {
                let raw = self.rx.split_to(end + 1);
                let mut line = &raw[..end];
                if line.last() == Some(&b'\r') {
                    line = &line[..line.len() - 1];
                }
                if line == b"END" {
                    return Ok(lines);
                }
                lines.push(String::from_utf8_lossy(line).into_owned());
            }
            match self.stream.read(&mut self.chunk)? {
                0 => return Err(ClientError::Closed),
                n => self.rx.extend_from_slice(&self.chunk[..n]),
            }
        }
    }

    /// Writes raw bytes and returns the next reply *line* verbatim —
    /// for poking the server with traffic the builder refuses to emit.
    #[cfg(test)]
    pub(crate) fn raw_roundtrip(&mut self, bytes: &[u8]) -> Result<String, ClientError> {
        self.stream.write_all(bytes)?;
        loop {
            if let Some(end) = self.rx.windows(2).position(|w| w == b"\r\n") {
                let line = self.rx.split_to(end + 2);
                return Ok(String::from_utf8_lossy(&line[..end]).into_owned());
            }
            match self.stream.read(&mut self.chunk)? {
                0 => return Err(ClientError::Closed),
                n => self.rx.extend_from_slice(&self.chunk[..n]),
            }
        }
    }
}
