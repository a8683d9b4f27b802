//! A thin TCP line-protocol listener over `std::net::TcpListener`.
//!
//! Each connection reads protocol lines and answers each one through
//! [`answer_line`]: one JSON reply line per request, and the
//! introspection lines `STATS`, `METRICS` (multi-line, terminated by a
//! `# EOF` line), `SLOW` and `CACHE` (see [`crate::protocol`]). This is
//! deliberately a minimal front end: each connection thread answers
//! its lines one at a time, and a request goes through
//! [`ServeHandle::solve_raw`], which runs it to completion on the
//! connection thread itself, waiting there for one of the server's
//! solve slots while all are busy. The caching lives in the shared plan
//! cache.
//!
//! The connection loop is defensive about malformed clients: request
//! lines are capped at [`TcpOptions::max_line_bytes`] (an oversized
//! line gets an error reply and is discarded instead of buffered
//! unboundedly), reads carry a timeout so a half-open idle connection
//! releases its thread, and a parse error answers with an error line
//! but keeps the connection alive.

use crate::protocol::{answer_line, reply_to_json};
use crate::{ServeError, ServeHandle, ServeReply};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Connection-hardening knobs for the TCP front door.
#[derive(Clone, Copy, Debug)]
pub struct TcpOptions {
    /// Longest request line accepted, in bytes (newline excluded). A
    /// longer line is answered with a `bad_request` error reply and
    /// discarded; the connection stays open.
    pub max_line_bytes: usize,
    /// Read timeout per request line; a connection idle longer than
    /// this is closed so it cannot pin its thread forever. `None`
    /// blocks indefinitely.
    pub read_timeout: Option<Duration>,
}

impl Default for TcpOptions {
    fn default() -> TcpOptions {
        TcpOptions {
            max_line_bytes: 64 * 1024,
            read_timeout: Some(Duration::from_secs(30)),
        }
    }
}

/// A running TCP front door; dropping it leaves the listener thread
/// running, call [`shutdown`](TcpFrontDoor::shutdown) to stop it.
pub struct TcpFrontDoor {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl TcpFrontDoor {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and
    /// starts accepting connections, serving them through `handle`,
    /// with default [`TcpOptions`].
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(handle: ServeHandle, addr: &str) -> std::io::Result<TcpFrontDoor> {
        TcpFrontDoor::bind_with(handle, addr, TcpOptions::default())
    }

    /// [`bind`](TcpFrontDoor::bind) with explicit hardening options.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind_with(
        handle: ServeHandle,
        addr: &str,
        options: TcpOptions,
    ) -> std::io::Result<TcpFrontDoor> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept = {
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("gmc-serve-accept".to_owned())
                .spawn(move || {
                    for stream in listener.incoming() {
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                        let Ok(stream) = stream else { continue };
                        let handle = handle.clone();
                        std::thread::Builder::new()
                            .name("gmc-serve-conn".to_owned())
                            .spawn(move || {
                                serve_connection(stream, &handle, &options);
                            })
                            .ok();
                    }
                })?
        };
        Ok(TcpFrontDoor {
            addr,
            stop,
            accept: Some(accept),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting and joins the accept thread. Connections already
    /// being served run to completion on their own threads. A panicked
    /// accept thread is reported, not propagated: shutdown must always
    /// complete.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::Relaxed);
        // Unblock the accept loop with a self-connection. A wildcard
        // bind address (0.0.0.0 / ::) is not connectable on every
        // platform, so aim at the matching loopback instead.
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake.ip() {
                std::net::IpAddr::V4(_) => std::net::IpAddr::V4(std::net::Ipv4Addr::LOCALHOST),
                std::net::IpAddr::V6(_) => std::net::IpAddr::V6(std::net::Ipv6Addr::LOCALHOST),
            });
        }
        TcpStream::connect(wake).ok();
        if let Some(t) = self.accept.take() {
            if t.join().is_err() {
                eprintln!("gmc-serve: accept thread panicked (shutdown continues)");
            }
        }
    }
}

/// One bounded read of a request line.
enum LineRead {
    /// A complete line within the cap (newline stripped, may be empty).
    Line(String),
    /// The line overflowed the cap; the remainder was discarded up to
    /// the next newline, the connection can continue.
    Oversized,
    /// EOF, timeout, I/O error, or an unrecoverably long line: stop
    /// serving this connection.
    Closed,
}

/// Reads one `\n`-terminated line of at most `max` bytes. On overflow
/// the rest of the line is discarded (bounded by a multiple of `max`)
/// so one hostile line cannot buffer unboundedly or desync the stream.
fn read_bounded_line(reader: &mut impl BufRead, max: usize) -> LineRead {
    let mut buf: Vec<u8> = Vec::new();
    loop {
        let available = match reader.fill_buf() {
            Ok(available) => available,
            Err(_) => return LineRead::Closed,
        };
        if available.is_empty() {
            // EOF: a trailing unterminated line still gets served.
            return if buf.is_empty() {
                LineRead::Closed
            } else {
                LineRead::Line(String::from_utf8_lossy(&buf).into_owned())
            };
        }
        if let Some(pos) = available.iter().position(|&b| b == b'\n') {
            buf.extend_from_slice(&available[..pos]);
            reader.consume(pos + 1);
            return if buf.len() > max {
                LineRead::Oversized
            } else {
                LineRead::Line(String::from_utf8_lossy(&buf).into_owned())
            };
        }
        let taken = available.len();
        buf.extend_from_slice(available);
        reader.consume(taken);
        if buf.len() > max {
            buf.clear();
            return if discard_to_newline(reader, max.saturating_mul(16)) {
                LineRead::Oversized
            } else {
                LineRead::Closed
            };
        }
    }
}

/// Skips input until after the next newline, giving up (and telling the
/// caller to close) once `cap` bytes have been discarded without one.
fn discard_to_newline(reader: &mut impl BufRead, cap: usize) -> bool {
    let mut discarded = 0usize;
    loop {
        let available = match reader.fill_buf() {
            Ok(available) => available,
            Err(_) => return false,
        };
        if available.is_empty() {
            return false;
        }
        if let Some(pos) = available.iter().position(|&b| b == b'\n') {
            reader.consume(pos + 1);
            return true;
        }
        let taken = available.len();
        discarded = discarded.saturating_add(taken);
        reader.consume(taken);
        if discarded > cap {
            return false;
        }
    }
}

fn serve_connection(stream: TcpStream, handle: &ServeHandle, options: &TcpOptions) {
    stream.set_read_timeout(options.read_timeout).ok();
    let Ok(peer_write) = stream.try_clone() else {
        return;
    };
    let mut writer = std::io::BufWriter::new(peer_write);
    let mut reader = BufReader::new(stream);
    loop {
        let line = match read_bounded_line(&mut reader, options.max_line_bytes) {
            LineRead::Line(line) => line,
            LineRead::Oversized => {
                let reply = ServeReply {
                    structure: String::new(),
                    result: Err(ServeError::BadRequest(format!(
                        "request line exceeds {} bytes",
                        options.max_line_bytes
                    ))),
                };
                if write_reply_line(&mut writer, &reply_to_json(&reply)).is_err() {
                    break;
                }
                continue;
            }
            LineRead::Closed => break,
        };
        if line.trim().is_empty() {
            continue;
        }
        if write_reply_line(&mut writer, &answer_line(handle, &line)).is_err() {
            break;
        }
    }
}

fn write_reply_line(writer: &mut impl Write, response: &str) -> std::io::Result<()> {
    writer.write_all(response.as_bytes())?;
    writer.write_all(b"\n")?;
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn bounded_reader_accepts_lines_within_cap() {
        let mut input = Cursor::new(b"hello world\nsecond\n".to_vec());
        let mut reader = BufReader::new(&mut input);
        assert!(matches!(
            read_bounded_line(&mut reader, 64),
            LineRead::Line(l) if l == "hello world"
        ));
        assert!(matches!(
            read_bounded_line(&mut reader, 64),
            LineRead::Line(l) if l == "second"
        ));
        assert!(matches!(
            read_bounded_line(&mut reader, 64),
            LineRead::Closed
        ));
    }

    #[test]
    fn bounded_reader_serves_trailing_unterminated_line() {
        let mut input = Cursor::new(b"tail".to_vec());
        let mut reader = BufReader::new(&mut input);
        assert!(matches!(
            read_bounded_line(&mut reader, 64),
            LineRead::Line(l) if l == "tail"
        ));
    }

    #[test]
    fn bounded_reader_discards_oversized_line_and_resyncs() {
        let mut payload = vec![b'x'; 200];
        payload.push(b'\n');
        payload.extend_from_slice(b"next\n");
        let mut input = Cursor::new(payload);
        let mut reader = BufReader::new(&mut input);
        assert!(matches!(
            read_bounded_line(&mut reader, 16),
            LineRead::Oversized
        ));
        assert!(matches!(
            read_bounded_line(&mut reader, 16),
            LineRead::Line(l) if l == "next"
        ));
    }

    #[test]
    fn bounded_reader_closes_on_endless_line() {
        // No newline at all and far past the discard cap: close.
        let mut input = Cursor::new(vec![b'x'; 20 * 16 + 64]);
        let mut reader = BufReader::new(&mut input);
        assert!(matches!(
            read_bounded_line(&mut reader, 16),
            LineRead::Closed
        ));
    }
}
