//! Transport abstraction: the line-JSON service protocol over either a
//! Unix domain socket or TCP.
//!
//! One spelling rule applies everywhere an endpoint is written down
//! (`sarad --socket`, `sarac --connect`):
//! a value containing `':'` is a `host:port` TCP address; anything else
//! is a Unix socket path. The protocol itself is transport-agnostic —
//! [`Conn`] implements `Read`/`Write`/`try_clone` over both, so the
//! server and client never branch on the transport past connect time.

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};

/// Where a `sarad` service listens (or a client connects).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// A Unix domain socket at this path.
    Unix(PathBuf),
    /// A TCP `host:port` address.
    Tcp(String),
}

impl Endpoint {
    /// Parse an endpoint spelling: anything containing `':'` is a TCP
    /// `host:port` address, anything else a Unix socket path.
    pub fn parse(s: &str) -> Endpoint {
        if s.contains(':') {
            Endpoint::Tcp(s.to_string())
        } else {
            Endpoint::Unix(PathBuf::from(s))
        }
    }

    /// The Unix-socket endpoint for a path (no spelling rule applied).
    pub fn unix(path: &Path) -> Endpoint {
        Endpoint::Unix(path.to_path_buf())
    }
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Unix(p) => write!(f, "{}", p.display()),
            Endpoint::Tcp(a) => write!(f, "{a}"),
        }
    }
}

/// One protocol connection over either transport.
#[derive(Debug)]
pub enum Conn {
    /// Over a Unix domain socket.
    Unix(UnixStream),
    /// Over TCP.
    Tcp(TcpStream),
}

impl Conn {
    /// Connect to an endpoint.
    ///
    /// # Errors
    ///
    /// The underlying connect error (absent socket, connection refused,
    /// unresolvable address).
    pub fn connect(ep: &Endpoint) -> io::Result<Conn> {
        match ep {
            Endpoint::Unix(p) => UnixStream::connect(p).map(Conn::Unix),
            Endpoint::Tcp(a) => TcpStream::connect(a.as_str()).map(Conn::Tcp),
        }
    }

    /// A second handle to the same connection (for split read/write).
    ///
    /// # Errors
    ///
    /// The underlying clone error.
    pub fn try_clone(&self) -> io::Result<Conn> {
        match self {
            Conn::Unix(s) => s.try_clone().map(Conn::Unix),
            Conn::Tcp(s) => s.try_clone().map(Conn::Tcp),
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Unix(s) => s.read(buf),
            Conn::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Unix(s) => s.write(buf),
            Conn::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Unix(s) => s.flush(),
            Conn::Tcp(s) => s.flush(),
        }
    }
}

/// A listening socket over either transport.
#[derive(Debug)]
pub enum Listener {
    /// A bound Unix listener and the path it owns (removed on
    /// [`Listener::close`]).
    Unix(UnixListener, PathBuf),
    /// A bound TCP listener.
    Tcp(TcpListener),
}

impl Listener {
    /// Bind an endpoint. For Unix sockets the parent directory is
    /// created and any stale socket file replaced; for TCP, port `0`
    /// binds an ephemeral port (read it back via
    /// [`Listener::local_endpoint`]).
    ///
    /// # Errors
    ///
    /// A one-line diagnostic naming the endpoint.
    pub fn bind(ep: &Endpoint) -> Result<Listener, String> {
        match ep {
            Endpoint::Unix(path) => {
                if let Some(parent) = path.parent() {
                    std::fs::create_dir_all(parent).map_err(|e| {
                        format!("cannot create socket dir {}: {e}", parent.display())
                    })?;
                }
                let _ = std::fs::remove_file(path);
                UnixListener::bind(path)
                    .map(|l| Listener::Unix(l, path.clone()))
                    .map_err(|e| format!("cannot bind {}: {e}", path.display()))
            }
            Endpoint::Tcp(addr) => TcpListener::bind(addr.as_str())
                .map(Listener::Tcp)
                .map_err(|e| format!("cannot bind {addr}: {e}")),
        }
    }

    /// Accept one connection (blocking).
    ///
    /// # Errors
    ///
    /// The underlying accept error.
    pub fn accept(&self) -> io::Result<Conn> {
        match self {
            Listener::Unix(l, _) => l.accept().map(|(s, _)| Conn::Unix(s)),
            Listener::Tcp(l) => l.accept().map(|(s, _)| Conn::Tcp(s)),
        }
    }

    /// The endpoint this listener is actually bound to. For TCP this
    /// resolves an ephemeral port `0` to the real one, so it is also
    /// the address a self-connection (shutdown wake) must use.
    pub fn local_endpoint(&self) -> Endpoint {
        match self {
            Listener::Unix(_, path) => Endpoint::Unix(path.clone()),
            Listener::Tcp(l) => {
                Endpoint::Tcp(l.local_addr().map_or_else(|_| "?:?".to_string(), |a| a.to_string()))
            }
        }
    }

    /// Release transport resources: removes the Unix socket file
    /// (TCP needs no cleanup).
    pub fn close(&self) {
        if let Listener::Unix(_, path) = self {
            let _ = std::fs::remove_file(path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spelling_rule_splits_on_colon() {
        assert_eq!(Endpoint::parse("127.0.0.1:7777"), Endpoint::Tcp("127.0.0.1:7777".into()));
        assert_eq!(Endpoint::parse("localhost:0"), Endpoint::Tcp("localhost:0".into()));
        assert_eq!(Endpoint::parse("/tmp/sarad.sock"), Endpoint::Unix("/tmp/sarad.sock".into()));
        assert_eq!(Endpoint::parse("relative.sock"), Endpoint::Unix("relative.sock".into()));
    }

    #[test]
    fn tcp_listener_reports_its_ephemeral_port() {
        let l = Listener::bind(&Endpoint::parse("127.0.0.1:0")).unwrap();
        let ep = l.local_endpoint();
        let Endpoint::Tcp(addr) = &ep else { panic!("want tcp endpoint, got {ep}") };
        assert!(!addr.ends_with(":0"), "port 0 must resolve to the bound port, got {addr}");
        // And the reported endpoint is connectable.
        let mut conn = Conn::connect(&ep).unwrap();
        let accepted = l.accept().unwrap();
        use std::io::Write as _;
        conn.write_all(b"x").unwrap();
        drop(accepted);
    }
}
