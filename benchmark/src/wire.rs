//! The client side of the line-JSON wire, and the server process.

use crate::json::{self, Json};
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// How long any single reply may take before the run is abandoned. Far
/// above the slowest legitimate reply (a `flush` waits for one step).
const REPLY_TIMEOUT: Duration = Duration::from_secs(120);

/// A running `glodyne serve` process. Dropping it kills and reaps the
/// process, so no exit path of the benchmark leaves a server behind.
pub struct Server {
    child: Child,
    /// Kept open so the server's shutdown summary has somewhere to go.
    _stdout: BufReader<ChildStdout>,
    /// `host:port` the server reported it bound.
    pub addr: String,
    /// When the process was spawned.
    pub spawned: Instant,
}

impl Server {
    /// Spawn `bin serve --bind 127.0.0.1:0 <args>` and wait for the
    /// preamble line that carries the bound address — which the
    /// program prints only after its warm start. Server stderr goes to
    /// `log`.
    pub fn spawn(bin: &Path, args: &[String], log: &Path) -> io::Result<Server> {
        let stderr = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(log)?;
        let spawned = Instant::now();
        let mut child = Command::new(bin)
            .arg("serve")
            .args(["--bind", "127.0.0.1:0"])
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(stderr)
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout was piped"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            if stdout.read_line(&mut line)? == 0 {
                let _ = child.kill();
                let status = child.wait()?;
                return Err(io::Error::other(format!(
                    "server exited before serving ({status}); see {}",
                    log.display()
                )));
            }
            if let Some(rest) = line.strip_prefix("serving on ") {
                break rest.split_whitespace().next().unwrap_or("").to_string();
            }
        };
        Ok(Server {
            child,
            _stdout: stdout,
            addr,
            spawned,
        })
    }

    /// Process id, for `/proc` accounting.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// A new connection to the server.
    pub fn connect(&self) -> io::Result<Conn> {
        Conn::connect(&self.addr)
    }

    /// `SIGKILL` the process and reap it.
    pub fn kill(mut self) -> io::Result<()> {
        self.child.kill()?;
        self.child.wait().map(|_| ())
    }

    /// Ask for a clean shutdown over the wire and reap the process;
    /// falls back to `SIGKILL` if it does not exit within ten seconds.
    pub fn shutdown(mut self) -> io::Result<()> {
        let mut conn = self.connect()?;
        conn.call("{\"cmd\":\"shutdown\"}")?;
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if self.child.try_wait()?.is_some() {
                return Ok(());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        self.child.kill()?;
        self.child.wait()?;
        Err(io::Error::other("server ignored shutdown and was killed"))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Already reaped by `kill`/`shutdown` on the normal paths;
        // errors here mean exactly that.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One client connection: write a request line, read a reply line.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    out: Vec<u8>,
    line: String,
}

impl Conn {
    /// Connect with Nagle off (one-line round trips) and a reply
    /// timeout, so a hung server fails the run instead of hanging it.
    pub fn connect(addr: &str) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        Ok(Conn {
            writer: stream.try_clone()?,
            reader: BufReader::with_capacity(1 << 16, stream),
            out: Vec::with_capacity(1 << 12),
            line: String::with_capacity(1 << 12),
        })
    }

    /// Send one request line without waiting for its reply. The line
    /// and its newline leave in one write, so the server never sees
    /// half a request.
    pub fn send(&mut self, request: &str) -> io::Result<()> {
        self.out.clear();
        self.out.extend_from_slice(request.as_bytes());
        self.out.push(b'\n');
        self.writer.write_all(&self.out)
    }

    /// Read the next reply line (no newline). Replies come back in
    /// request order. The line borrows the connection's buffer: the
    /// read phases call this tens of thousands of times and must not
    /// allocate per call.
    pub fn recv(&mut self) -> io::Result<&str> {
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(self.line.trim_end())
    }

    /// Send one request and wait for its reply.
    pub fn call(&mut self, request: &str) -> io::Result<&str> {
        self.send(request)?;
        self.recv()
    }

    /// [`Conn::call`], parsed.
    pub fn call_json(&mut self, request: &str) -> io::Result<Json> {
        let reply = self.call(request)?;
        json::parse(reply)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{e}: {reply}")))
    }
}

/// Whether a reply line reports success, without parsing it. Every
/// reply of the protocol starts with its `ok` member.
pub fn is_ok(reply: &str) -> bool {
    reply.starts_with("{\"ok\":true")
}

/// The `epoch` of a successful reply, without parsing the whole line.
pub fn epoch_of(reply: &str) -> Option<u64> {
    let rest = &reply[reply.find("\"epoch\":")? + 8..];
    let end = rest.find(|c: char| !c.is_ascii_digit())?;
    rest[..end].parse().ok()
}

/// The `kind` of a failed reply (`not_found`, `degraded`, ...).
pub fn error_kind(reply: &str) -> Option<&str> {
    let rest = &reply[reply.find("\"kind\":\"")? + 8..];
    rest.split('"').next()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scans_reply_lines_without_parsing() {
        let ok = r#"{"ok":true,"cmd":"flush","stepped":true,"epoch":37}"#;
        assert!(is_ok(ok));
        assert_eq!(epoch_of(ok), Some(37));
        let bad = r#"{"ok":false,"kind":"not_found","error":"node 5 has no embedding in epoch 2"}"#;
        assert!(!is_ok(bad));
        assert_eq!(error_kind(bad), Some("not_found"));
        assert_eq!(epoch_of(r#"{"ok":true}"#), None);
    }
}
