//! Unix-socket front end: one listener, one thread per connection, frames
//! decoded into [`Request`]s and answered by [`Dexd::call`] on that
//! connection's thread.
//!
//! The accept loop polls with a short timeout so it notices shutdown (set
//! by a `Shutdown` request on any connection, or programmatically) without
//! a self-pipe. A connection that sends garbage gets an `Error` frame when
//! the payload is undecodable, or a closed socket when the framing itself
//! is broken — either way the daemon keeps serving everyone else.

use crate::proto::{decode, read_frame, read_message, write_message, Request, Response};
use crate::service::Dexd;
use std::io;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

/// Binds `path` and serves until the service shuts down. Removes a stale
/// socket file at `path` first, and removes it again on exit. Returns once
/// every connection thread has ended; requests sent in process are the
/// caller's to wait for, via [`Dexd::join`].
pub fn serve_unix(svc: Arc<Dexd>, path: &Path) -> io::Result<()> {
    // A previous daemon that died uncleanly leaves its socket file behind;
    // binding over it requires removing it first.
    let _ = std::fs::remove_file(path);
    let listener = UnixListener::bind(path)?;
    listener.set_nonblocking(true)?;

    let mut conns: Vec<std::thread::JoinHandle<()>> = Vec::new();
    while !svc.is_shutdown() {
        match listener.accept() {
            Ok((stream, _addr)) => {
                let svc = Arc::clone(&svc);
                conns.push(
                    std::thread::Builder::new()
                        .name("dexd-conn".to_string())
                        .spawn(move || serve_connection(svc, stream))
                        .expect("spawn dexd connection thread"),
                );
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => {
                let _ = std::fs::remove_file(path);
                return Err(e);
            }
        }
        // Reap finished connection threads so a long-lived daemon doesn't
        // accumulate handles.
        conns.retain(|h| !h.is_finished());
    }
    for h in conns {
        let _ = h.join();
    }
    let _ = std::fs::remove_file(path);
    Ok(())
}

/// Serves one connection until the peer closes, the framing breaks, or the
/// service shuts down.
fn serve_connection(svc: Arc<Dexd>, stream: UnixStream) {
    // The accept loop hands over a nonblocking socket (inherited on some
    // platforms); per-connection IO is blocking.
    if stream.set_nonblocking(false).is_err() {
        return;
    }
    let mut reader = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let mut writer = stream;
    loop {
        // The peer closed, or the framing broke: past a bad length prefix
        // there is no next frame boundary to resynchronize on.
        let Ok(payload) = read_frame(&mut reader) else {
            return;
        };
        let resp = match decode::<Request>(&payload) {
            Ok(req) => svc.call(req),
            Err(e) => Response::Error {
                message: format!("malformed request: {e}"),
            },
        };
        let done = matches!(resp, Response::ShuttingDown);
        if write_message(&mut writer, &resp).is_err() {
            // Peer vanished mid-reply; the service already did the work and
            // released the admission ticket — just drop the connection.
            return;
        }
        if done {
            return;
        }
    }
}

/// Blocking client for the Unix-socket protocol — the shape external
/// tooling (and the CI smoke test) uses.
pub struct SocketClient {
    stream: UnixStream,
}

impl SocketClient {
    /// Connects to a serving daemon.
    pub fn connect(path: &Path) -> io::Result<SocketClient> {
        Ok(SocketClient {
            stream: UnixStream::connect(path)?,
        })
    }

    /// Sends one request and blocks for its response.
    pub fn call(&mut self, req: &Request) -> io::Result<Response> {
        write_message(&mut self.stream, req)?;
        read_message(&mut self.stream)
    }
}
