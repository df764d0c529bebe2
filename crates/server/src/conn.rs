//! The per-connection framing loop: socket bytes in, RESP replies out.
//!
//! Each accepted connection gets one OS thread running [`serve_connection`]
//! (Redis proper multiplexes on one thread; a thread per connection keeps
//! the reproduction simple while preserving the architecture that matters —
//! queries still execute on the module threadpool, never on the connection
//! thread). The loop enforces the protocol contract
//! [`DecodeStop`] documents:
//!
//! * the retained buffer of unparsed bytes is **bounded** by the live
//!   `MAX_QUERY_BUFFER` config — a client that declares a huge bulk string
//!   (or never completes a frame) is disconnected at the bound, not buffered
//!   without limit;
//! * a **malformed** prefix (garbage that can never become RESP) closes the
//!   connection immediately with a `-ERR Protocol error` reply, since a
//!   length-prefixed stream cannot resynchronise;
//! * pipelined commands execute **strictly in order**, exactly like Redis: a
//!   pipeline saves network round-trips, it does not reorder execution — a
//!   `CREATE` pipelined before a `MATCH` is visible to it. Each query still
//!   runs on a pool worker (the connection thread blocks on its reply);
//!   cross-**connection** concurrency is what the pool parallelises, per the
//!   paper's one-query-one-thread model. Replies of a batch are gathered into
//!   one buffer and written with a single syscall; a query's reply arrives
//!   from its worker already encoded, so the rows are walked once, there.

use crate::commands::Command;
use crate::resp::{DecodeStop, RespValue, StreamDecoder};
use crate::server::RedisGraphServer;
use crossbeam::atomic::{AtomicBool, Ordering};
use crossbeam::channel::bounded;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

/// How long a blocked read waits before rechecking the shutdown flag.
const SHUTDOWN_POLL: Duration = Duration::from_millis(50);

/// How long one reply write may stall before the connection is declared
/// dead. Bounds the damage of a client that stops reading (and with it the
/// time a graceful shutdown can be held hostage by such a client); a client
/// draining at any rate keeps completing individual writes well within it.
const WRITE_STALL_TIMEOUT: Duration = Duration::from_secs(10);

/// Read chunk size (bytes appended to the retained buffer per `read`).
const READ_CHUNK: usize = 16 * 1024;

/// Capacity the reply buffer keeps between batches: enough that ordinary
/// replies never reallocate it, small enough that one huge reply does not
/// pin its size to the connection for life.
const OUT_RETAINED: usize = 1024 * 1024;

/// Serve one client connection until EOF, protocol error, buffer overflow,
/// write failure, or server shutdown. Runs on its own thread; queries run on
/// the module threadpool.
pub(crate) fn serve_connection(
    mut stream: TcpStream,
    server: Arc<RedisGraphServer>,
    shutdown: Arc<AtomicBool>,
) {
    // Replies are small and latency matters for point reads; queries are
    // where the time goes, not segment coalescing.
    let _ = stream.set_nodelay(true);
    // A bounded read timeout doubles as the shutdown poll interval, so a
    // connection parked in `read` notices a graceful stop promptly.
    let _ = stream.set_read_timeout(Some(SHUTDOWN_POLL));
    let _ = stream.set_write_timeout(Some(WRITE_STALL_TIMEOUT));

    let mut retained: Vec<u8> = Vec::new();
    // Resumable parse state: a frame arriving across many reads is scanned
    // once, not re-decoded from byte zero per read (which would be quadratic
    // for a large pipelined burst or a slowly-arriving big bulk).
    let mut decoder = StreamDecoder::new();
    let mut chunk = vec![0u8; READ_CHUNK];
    let mut out: Vec<u8> = Vec::new();
    loop {
        if shutdown.load(Ordering::SeqCst) {
            // Graceful stop: every command read so far had its reply written
            // below before we came back around; just close.
            return;
        }
        let n = match stream.read(&mut chunk) {
            Ok(0) => return, // client closed its end
            Ok(n) => n,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => continue,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return,
        };
        retained.extend_from_slice(&chunk[..n]);
        server.metrics().bytes_in.fetch_add(n as u64, Ordering::Relaxed);

        let (frames, consumed, stop) = decoder.feed(&retained);
        retained.drain(..consumed);

        if !frames.is_empty() {
            // Execute in submission order — Redis semantics: a pipelined
            // write is visible to every later command of the same pipeline.
            // Replies accumulate into one buffer, written once per batch.
            server.metrics().pipeline_depth.record(frames.len() as u64);
            let mut close_after_replies = false;
            for frame in &frames {
                execute_frame(&server, frame, &shutdown, &mut close_after_replies, &mut out);
            }
            server.metrics().bytes_out.fetch_add(out.len() as u64, Ordering::Relaxed);
            if stream.write_all(&out).is_err() {
                return;
            }
            let _ = stream.flush();
            out.clear();
            out.shrink_to(OUT_RETAINED);
            if close_after_replies {
                return;
            }
        }

        if stop == DecodeStop::Malformed {
            // The stream can never resynchronise; tell the client why and
            // hang up (same contract as Redis' protocol errors).
            write_error_and_close(&mut stream, "ERR Protocol error: malformed RESP frame");
            return;
        }
        let cap = server.max_query_buffer();
        if retained.len() > cap {
            write_error_and_close(
                &mut stream,
                &format!(
                    "ERR Protocol error: unparsed query buffer exceeded MAX_QUERY_BUFFER \
                     ({cap} bytes)"
                ),
            );
            return;
        }
    }
}

/// Execute one decoded frame to completion and append its encoded reply to
/// `out`: queries go to the pool and are awaited (one worker, this connection
/// blocked — the pool parallelises across connections), admin commands run
/// inline, `SHUTDOWN` flips the listener's flag.
fn execute_frame(
    server: &Arc<RedisGraphServer>,
    frame: &RespValue,
    shutdown: &Arc<AtomicBool>,
    close_after_replies: &mut bool,
    out: &mut Vec<u8>,
) {
    let reply = match Command::parse(frame) {
        Err(e) => RespValue::Error(format!("ERR {e}")),
        Ok(Command::Shutdown) => {
            // Acknowledge, finish writing this pipeline's replies, then let
            // the listener drain every connection and exit. (Counted here:
            // this arm never reaches `RedisGraphServer::execute`.)
            server.metrics().count_command(crate::metrics::CommandKind::Shutdown);
            shutdown.store(true, Ordering::SeqCst);
            *close_after_replies = true;
            RespValue::SimpleString("OK".to_string())
        }
        Ok(Command::GraphQuery { graph, query }) => {
            // The worker encodes the result set itself; its bytes are the
            // reply, with no tree in between.
            let (tx, rx) = bounded::<Vec<u8>>(1);
            server.submit_query(graph, query, tx);
            match rx.recv() {
                Ok(encoded) => {
                    out.extend_from_slice(&encoded);
                    return;
                }
                Err(_) => RespValue::Error("ERR query worker exited".to_string()),
            }
        }
        Ok(other) => server.execute(other),
    };
    reply.encode_into(out);
}

/// Best-effort error reply before closing (the peer may already be gone).
fn write_error_and_close(stream: &mut TcpStream, message: &str) {
    let _ = stream.write_all(&RespValue::Error(message.to_string()).encode());
    let _ = stream.flush();
}
