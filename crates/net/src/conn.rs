//! A blocking request/response connection over one [`TcpStream`].
//!
//! The protocol is strictly half-duplex per connection: one side sends
//! a request frame, the other answers with exactly one response frame.
//! That single-outstanding-request discipline *is* the per-connection
//! backpressure — a client cannot queue a second request into the
//! server until its first answer has been drained off the socket.
//! Concurrency comes from opening more connections, which the
//! gateway's admission queue bounds globally.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use crate::frame::{read_frame, write_frame_vectored};
use crate::proto::{ProtocolError, Request, Response, TraceContext, CHUNK_BYTES};

/// One framed, half-duplex protocol connection.
#[derive(Debug)]
pub struct Conn {
    stream: TcpStream,
    /// Set when a transport-level failure (or an abandoned chunked
    /// transfer) leaves the stream in an undefined half-duplex state:
    /// a poisoned connection refuses further requests and must never
    /// be recycled into a pool.
    poisoned: bool,
}

impl Conn {
    /// Wraps an accepted or connected stream. `TCP_NODELAY` is set
    /// (request/response traffic is latency-bound, and every frame is
    /// flushed whole); failures to set it are ignored.
    pub fn new(stream: TcpStream) -> Conn {
        let _ = stream.set_nodelay(true);
        Conn {
            stream,
            poisoned: false,
        }
    }

    /// Whether a transport failure has left this connection in an
    /// undefined state (see [`Conn::poisoned`](struct@Conn) docs —
    /// pools must drop such connections instead of recycling them).
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Marks the connection poisoned on error — every frame-level I/O
    /// funnels through this, so no failed exchange can leave the
    /// connection looking reusable.
    fn guard<T>(&mut self, res: Result<T, ProtocolError>) -> Result<T, ProtocolError> {
        if res.is_err() {
            self.poisoned = true;
        }
        res
    }

    /// Connects to `addr` within `timeout`.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Io`] on refusal, timeout, or address parse
    /// failure.
    pub fn connect(addr: &str, timeout: Duration) -> Result<Conn, ProtocolError> {
        let sockaddr = addr
            .parse()
            .map_err(|_| ProtocolError::Malformed("unparseable socket address"))?;
        let stream = TcpStream::connect_timeout(&sockaddr, timeout)?;
        Ok(Conn::new(stream))
    }

    /// Sets (or clears, with `None`) the blocking-read timeout.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Io`] if the socket rejects the option.
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> Result<(), ProtocolError> {
        self.stream.set_read_timeout(timeout)?;
        Ok(())
    }

    /// Sends one request frame. When the calling thread has an
    /// operation in progress (see `galloper_obs::op`), its context is
    /// stamped onto the frame as a trailing extension, so the server's
    /// spans join this request's trace tree — distributed trace
    /// propagation costs one thread-local read here and nothing when
    /// no operation is active.
    ///
    /// # Errors
    ///
    /// [`ProtocolError`] on frame or socket failure.
    pub fn send_request(&mut self, req: &Request) -> Result<(), ProtocolError> {
        if self.poisoned {
            return Err(ProtocolError::Unexpected(
                "request on a poisoned connection",
            ));
        }
        let ctx = galloper_obs::op::current();
        let ctx = ctx.is_active().then_some(TraceContext {
            op: ctx.op,
            span: ctx.span,
        });
        // One vectored write puts header + payload on the socket in a
        // single syscall — no per-call BufWriter allocation, no copy of
        // the payload into an intermediate buffer, nothing to flush.
        let res = write_frame_vectored(&mut &self.stream, &req.encode_with_ctx(ctx));
        self.guard(res)
    }

    /// Receives one request frame (server side), dropping any trace
    /// context; servers that propagate context use
    /// [`recv_request_with_ctx`](Conn::recv_request_with_ctx).
    ///
    /// # Errors
    ///
    /// [`ProtocolError`] on frame, socket, or decode failure; a clean
    /// peer disconnect surfaces as
    /// [`std::io::ErrorKind::UnexpectedEof`] inside
    /// [`ProtocolError::Io`].
    pub fn recv_request(&mut self) -> Result<Request, ProtocolError> {
        let res = read_frame(&mut self.stream).and_then(|p| Request::decode(&p));
        self.guard(res)
    }

    /// Receives one request frame along with its optional
    /// [`TraceContext`].
    ///
    /// # Errors
    ///
    /// As [`Conn::recv_request`].
    pub fn recv_request_with_ctx(
        &mut self,
    ) -> Result<(Request, Option<TraceContext>), ProtocolError> {
        let res = read_frame(&mut self.stream).and_then(|p| Request::decode_with_ctx(&p));
        self.guard(res)
    }

    /// Sends one response frame (server side).
    ///
    /// # Errors
    ///
    /// [`ProtocolError`] on frame or socket failure.
    pub fn send_response(&mut self, resp: &Response) -> Result<(), ProtocolError> {
        let res = write_frame_vectored(&mut &self.stream, &resp.encode());
        self.guard(res)
    }

    /// Receives one response frame.
    ///
    /// # Errors
    ///
    /// As [`Conn::recv_request`].
    pub fn recv_response(&mut self) -> Result<Response, ProtocolError> {
        let res = read_frame(&mut self.stream).and_then(|p| Response::decode(&p));
        self.guard(res)
    }

    /// One full request/response exchange.
    ///
    /// # Errors
    ///
    /// As [`Conn::send_request`] / [`Conn::recv_response`].
    pub fn call(&mut self, req: &Request) -> Result<Response, ProtocolError> {
        self.send_request(req)?;
        self.recv_response()
    }

    /// Stores an object of any size as one put session: the first
    /// [`CHUNK_BYTES`] ride the [`Request::PutObject`], so an object
    /// that fits one chunk takes exactly one exchange, and the rest
    /// follows as [`Request::PutChunk`]s. Returns [`Response::Ok`] on
    /// success or the server's typed error.
    ///
    /// # Errors
    ///
    /// [`ProtocolError`] on transport failure (the connection is then
    /// poisoned).
    pub fn put_object(&mut self, name: &str, data: &[u8]) -> Result<Response, ProtocolError> {
        self.put_reader(name, data.len() as u64, &mut &*data)
    }

    /// [`Conn::put_object`] for a source that streams: reads exactly
    /// `len` bytes from `reader`, never holding more than one chunk in
    /// memory.
    ///
    /// # Errors
    ///
    /// [`ProtocolError`] on transport failure or a short/failed read
    /// from `reader`. A failed read after the first chunk poisons the
    /// connection: a half-sent transfer cannot be resumed.
    pub fn put_reader(
        &mut self,
        name: &str,
        len: u64,
        reader: &mut impl Read,
    ) -> Result<Response, ProtocolError> {
        let mut left = len;
        let first = self.call(&Request::PutObject {
            name: name.to_string(),
            object_len: len,
            bytes: read_chunk(reader, &mut left)?,
        })?;
        let id = match first {
            Response::PutBegun { id } => id,
            other => return Ok(other),
        };
        let mut seq = 1u64;
        loop {
            let bytes = match read_chunk(reader, &mut left) {
                Ok(bytes) => bytes,
                Err(e) => {
                    // The server still holds an open transfer on this
                    // connection; abandoning it mid-stream makes the
                    // connection unusable for anything else.
                    self.poisoned = true;
                    return Err(ProtocolError::Io(e));
                }
            };
            let resp = self.call(&Request::PutChunk { id, seq, bytes })?;
            // The final chunk's answer is the put's result; a typed
            // error ends the transfer server-side, and the frame
            // stream stays aligned, so no poisoning.
            if left == 0 || resp != Response::Ok {
                return Ok(resp);
            }
            seq += 1;
        }
    }

    /// Reads a whole object. Returns [`Response::Blob`] with the bytes,
    /// or the server's typed error.
    ///
    /// # Errors
    ///
    /// [`ProtocolError`] on transport failure.
    pub fn get_object(&mut self, name: &str) -> Result<Response, ProtocolError> {
        let mut buf = Vec::new();
        match self.get_writer(name, &mut buf)? {
            Response::Ok => Ok(Response::Blob(buf)),
            other => Ok(other),
        }
    }

    /// [`Conn::get_object`] for a destination that streams: the object
    /// bytes go straight to `out` window by window, never whole in
    /// memory when the object spans several windows. Returns
    /// [`Response::Ok`] once every byte is written, or the server's
    /// typed error (nothing or a prefix may have been written by then).
    ///
    /// # Errors
    ///
    /// [`ProtocolError`] on transport failure or a failed local write
    /// (which poisons the connection: a download may be left open
    /// mid-stream).
    pub fn get_writer(
        &mut self,
        name: &str,
        out: &mut impl Write,
    ) -> Result<Response, ProtocolError> {
        // A one-window object is the degenerate download: its only
        // window, already the last.
        let (id, object_len, mut bytes, mut eof) = match self.call(&Request::GetObject {
            name: name.to_string(),
        })? {
            Response::Blob(bytes) => (0, bytes.len() as u64, bytes, true),
            Response::GetBegun {
                id,
                object_len,
                bytes,
            } => (id, object_len, bytes, false),
            other => return Ok(other),
        };
        let mut got = 0u64;
        loop {
            got += bytes.len() as u64;
            if let Err(e) = out.write_all(&bytes) {
                self.poisoned = true;
                return Err(ProtocolError::Io(e));
            }
            if eof {
                if got != object_len {
                    self.poisoned = true;
                    return Err(ProtocolError::Unexpected(
                        "download ended at the wrong length",
                    ));
                }
                return Ok(Response::Ok);
            }
            match self.call(&Request::GetChunk { id })? {
                Response::Chunk {
                    id: rid,
                    eof: last,
                    bytes: next,
                } if rid == id => (eof, bytes) = (last, next),
                Response::Chunk { .. } => {
                    self.poisoned = true;
                    return Err(ProtocolError::Unexpected("chunk for a different transfer"));
                }
                other => return Ok(other),
            }
        }
    }
}

/// Reads the next put chunk — [`CHUNK_BYTES`], or the `left` bytes that
/// remain when fewer — and counts it off `left`.
fn read_chunk(reader: &mut impl Read, left: &mut u64) -> std::io::Result<Vec<u8>> {
    let mut bytes = vec![0u8; (CHUNK_BYTES as u64).min(*left) as usize];
    reader.read_exact(&mut bytes)?;
    *left -= bytes.len() as u64;
    Ok(bytes)
}
