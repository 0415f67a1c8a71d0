//! A blocking request/response client for the daemon's wire protocol.

use crate::json::Json;
use crate::protocol::{read_frame, write_frame, FrameError, Request, MAX_FRAME_BYTES};
use std::io;
use std::net::TcpStream;

/// A blocking request/response client over one connection.
pub struct Client {
    stream: TcpStream,
}

/// A failed exchange, split by blame: transport failures versus responses
/// that were not valid protocol JSON.
#[derive(Debug)]
pub enum ClientError {
    /// Connect, framing or I/O failure.
    Transport(FrameError),
    /// The response frame was not a JSON object.
    BadResponse(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Transport(e) => write!(f, "transport: {e}"),
            Self::BadResponse(m) => write!(f, "bad response: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl Client {
    /// Connects to the daemon.
    ///
    /// # Errors
    ///
    /// The underlying connect failure.
    pub fn connect(addr: &str) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        Ok(Client { stream })
    }

    /// Sends one request and reads its response.
    ///
    /// # Errors
    ///
    /// [`ClientError`] on transport failure or a non-JSON response.
    pub fn request(&mut self, req: &Request) -> Result<Json, ClientError> {
        let payload = req.to_json().render();
        write_frame(&mut self.stream, payload.as_bytes())
            .map_err(|e| ClientError::Transport(FrameError::Io(e)))?;
        let frame =
            read_frame(&mut self.stream, MAX_FRAME_BYTES).map_err(ClientError::Transport)?;
        let text = std::str::from_utf8(&frame)
            .map_err(|e| ClientError::BadResponse(format!("not utf-8: {e}")))?;
        Json::parse(text).map_err(|e| ClientError::BadResponse(e.to_string()))
    }
}
