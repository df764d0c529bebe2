//! A tiny blocking RESP client — just enough of `redis-cli` to drive the
//! TCP server from tests, benchmarks, and examples: frame commands, write
//! them (optionally pipelined), and decode replies with a resumable
//! [`StreamDecoder`], so a reply that takes forty reads to arrive is still
//! scanned once.

use crate::resp::{DecodeStop, RespValue, StreamDecoder};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// Read chunk size for reply buffering.
const READ_CHUNK: usize = 16 * 1024;

/// A blocking RESP connection to a [`crate::GraphServer`] (or any RESP
/// server). Generic over the byte stream so tests can script what the
/// "server" sends and how it is cut into reads.
pub struct RespClient<S = TcpStream> {
    stream: S,
    /// Received bytes of the reply still in progress (a TCP segment can end
    /// mid-frame); whole replies leave it as soon as they decode.
    buf: Vec<u8>,
    /// Parse state of `buf`, carried across reads.
    decoder: StreamDecoder,
    /// Decoded replies not yet handed out (one segment can complete several
    /// pipelined replies).
    ready: VecDeque<RespValue>,
    /// Landing area for one `read`.
    chunk: Vec<u8>,
}

impl RespClient {
    /// Connect to `addr` (e.g. `"127.0.0.1:6380"`).
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<RespClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(RespClient::from_stream(stream))
    }
}

impl<S: Read + Write> RespClient<S> {
    /// Wrap an already-connected stream (hostile-client tests build their
    /// own sockets and hand them over once done misbehaving).
    pub fn from_stream(stream: S) -> RespClient<S> {
        RespClient {
            stream,
            buf: Vec::new(),
            decoder: StreamDecoder::for_replies(),
            ready: VecDeque::new(),
            chunk: vec![0u8; READ_CHUNK],
        }
    }

    /// Send one command and block for its reply.
    pub fn command(&mut self, parts: &[&str]) -> io::Result<RespValue> {
        self.send(&RespValue::command(parts))?;
        self.read_reply()
    }

    /// Convenience: `GRAPH.QUERY <graph> <cypher>`.
    pub fn query(&mut self, graph: &str, cypher: &str) -> io::Result<RespValue> {
        self.command(&["GRAPH.QUERY", graph, cypher])
    }

    /// Write one frame without waiting for a reply (pipelining).
    pub fn send(&mut self, frame: &RespValue) -> io::Result<()> {
        self.stream.write_all(&frame.encode())
    }

    /// Write raw bytes (hostile tests send deliberately broken frames).
    pub fn send_raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.stream.write_all(bytes)
    }

    /// Send a whole pipeline in one write, then collect exactly one reply
    /// per command, in order.
    pub fn pipeline(&mut self, commands: &[RespValue]) -> io::Result<Vec<RespValue>> {
        let mut out = Vec::new();
        for c in commands {
            c.encode_into(&mut out);
        }
        self.stream.write_all(&out)?;
        let mut replies = Vec::with_capacity(commands.len());
        for _ in 0..commands.len() {
            replies.push(self.read_reply()?);
        }
        Ok(replies)
    }

    /// Block until one complete reply frame is decoded. `UnexpectedEof`
    /// means the server closed the connection (e.g. after a protocol
    /// violation); `InvalidData` means the server itself sent malformed RESP
    /// — both only after every reply that did arrive whole was handed out.
    pub fn read_reply(&mut self) -> io::Result<RespValue> {
        loop {
            if let Some(reply) = self.ready.pop_front() {
                return Ok(reply);
            }
            self.advance()?;
        }
    }

    /// One step towards the next reply: decode what is buffered and, if that
    /// completed nothing, read once more. Decoding comes first so a
    /// malformed tail is reported without blocking on a socket that has
    /// nothing further to say.
    fn advance(&mut self) -> io::Result<()> {
        let (frames, consumed, stop) = self.decoder.feed(&self.buf);
        self.buf.drain(..consumed);
        if !frames.is_empty() {
            self.ready.extend(frames);
            return Ok(());
        }
        if stop == DecodeStop::Malformed {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "server sent malformed RESP"));
        }
        let n = self.stream.read(&mut self.chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        self.buf.extend_from_slice(&self.chunk[..n]);
        Ok(())
    }

    /// The underlying stream (tests tweak timeouts on it).
    pub fn stream(&self) -> &S {
        &self.stream
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scripted socket: the "server" has already written `wire`, and each
    /// `read` hands over at most `write_size` bytes of it — how a reply cut
    /// into that many-byte TCP writes reaches a client that keeps up.
    struct Script {
        wire: Vec<u8>,
        write_size: usize,
        delivered: usize,
        reads: usize,
    }

    impl Script {
        fn client(wire: Vec<u8>, write_size: usize) -> RespClient<Script> {
            RespClient::from_stream(Script { wire, write_size, delivered: 0, reads: 0 })
        }
    }

    impl Read for Script {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let rest = &self.wire[self.delivered..];
            let n = rest.len().min(self.write_size).min(buf.len());
            buf[..n].copy_from_slice(&rest[..n]);
            self.delivered += n;
            self.reads += 1;
            Ok(n) // 0 once the script runs out: the server hung up
        }
    }

    impl Write for Script {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// A `GRAPH.QUERY`-shaped reply of `rows` two-cell rows.
    fn row_reply(rows: usize) -> RespValue {
        RespValue::Array(vec![
            RespValue::Array(vec![RespValue::BulkString("id(t)".into())]),
            RespValue::Array(
                (0..rows as i64)
                    .map(|i| {
                        RespValue::Array(vec![
                            RespValue::Integer(i * 7919 - 40_000),
                            RespValue::BulkString(format!("name-{i}\r\n")),
                        ])
                    })
                    .collect(),
            ),
            RespValue::Array(vec![RespValue::BulkString("Cached: true".into())]),
        ])
    }

    #[test]
    fn a_megabyte_reply_in_small_writes_is_scanned_once() {
        let reply = row_reply(40_000);
        let mut wire = reply.encode();
        assert!(wire.len() >= 1 << 20, "only {} bytes", wire.len());
        RespValue::SimpleString("PONG".into()).encode_into(&mut wire);
        let (one_shot, used) = RespValue::decode(&wire).unwrap();
        for write_size in [1usize, 7, 4096] {
            let mut client = Script::client(wire.clone(), write_size);
            // Same structural assertion as `stream_decoder_scans_each_byte_once`:
            // the decoder's offset into the whole stream (bytes already
            // drained + its offset into the retained buffer) never rewinds,
            // however many reads the reply takes.
            let mut high_water = 0usize;
            while client.ready.is_empty() {
                client.advance().unwrap();
                let drained = client.stream.delivered - client.buf.len();
                let scanned = drained + client.decoder.scan_offset();
                assert!(scanned >= high_water, "rescan at write size {write_size}");
                high_water = scanned;
            }
            assert!(client.stream.reads >= used / write_size.min(READ_CHUNK));
            let got = client.read_reply().unwrap();
            assert_eq!(got, one_shot, "write size {write_size}");
            assert_eq!(got, reply);
            assert_eq!(client.read_reply().unwrap(), RespValue::SimpleString("PONG".into()));
        }
    }

    #[test]
    fn pipelined_replies_in_one_segment_come_out_in_order() {
        let replies = vec![
            RespValue::SimpleString("PONG".into()),
            row_reply(3),
            RespValue::Error("ERR graph `g` does not exist".into()),
            RespValue::Null,
            RespValue::Integer(i64::MIN),
        ];
        let mut wire = Vec::new();
        for reply in &replies {
            reply.encode_into(&mut wire);
        }
        let mut client = Script::client(wire, usize::MAX);
        for expected in &replies {
            assert_eq!(&client.read_reply().unwrap(), expected);
        }
        assert_eq!(client.stream.reads, 1, "one segment, one read");
        assert_eq!(client.read_reply().unwrap_err().kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn a_hostile_server_costs_an_error_not_a_panic() {
        // A first byte that is no RESP type is malformed on sight: a reply
        // is never an inline command.
        let mut client = Script::client(b"PING\r\n".to_vec(), usize::MAX);
        assert_eq!(client.read_reply().unwrap_err().kind(), io::ErrorKind::InvalidData);
        // The server hanging up mid-reply.
        let whole = row_reply(100).encode();
        for write_size in [1usize, 4096] {
            let mut client = Script::client(whole[..whole.len() / 2].to_vec(), write_size);
            assert_eq!(client.read_reply().unwrap_err().kind(), io::ErrorKind::UnexpectedEof);
        }
        // Whole replies ahead of the damage are still delivered, and the
        // error then repeats rather than blocking on the socket.
        let mut wire = RespValue::Integer(1).encode();
        wire.extend_from_slice(b"+OK\r\n*2\r\n:1\r\n?\r\n");
        let mut client = Script::client(wire, usize::MAX);
        assert_eq!(client.read_reply().unwrap(), RespValue::Integer(1));
        assert_eq!(client.read_reply().unwrap(), RespValue::SimpleString("OK".into()));
        for _ in 0..2 {
            assert_eq!(client.read_reply().unwrap_err().kind(), io::ErrorKind::InvalidData);
        }
        assert_eq!(client.stream.reads, 1);
        // None of which touches another, healthy connection.
        let mut healthy = Script::client(row_reply(2).encode(), 3);
        assert_eq!(healthy.read_reply().unwrap(), row_reply(2));
    }
}
