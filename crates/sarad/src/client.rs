//! A blocking line-JSON client for the `sarad` socket protocol — over
//! a Unix domain socket or TCP (see [`crate::net`]) — with typed
//! errors and jittered exponential retry.
//!
//! Every failure mode is a distinct [`ClientError`] variant, so callers
//! can tell a dead daemon (fall back to local compilation) from a busy
//! one (back off and retry — safe because requests are
//! content-addressed and idempotent) from a server that died mid-
//! response (typed, never a parse panic) from a genuine server-side
//! error (do not retry).

use crate::net::{Conn, Endpoint};
use sara_util::Json;
use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::time::Duration;

/// Typed client-side failure taxonomy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientError {
    /// Could not connect to the socket (daemon absent or refusing).
    Connect(String),
    /// The server shed the request with a typed `busy` rejection
    /// (bounded-queue backpressure). Retryable with backoff.
    Busy(String),
    /// The connection closed before a terminal response line arrived
    /// (server died or dropped the connection mid-response).
    Dropped(String),
    /// The server sent bytes that do not parse as a protocol line.
    Protocol(String),
    /// A server-side typed error terminal (compile failure, unknown
    /// workload, ...). Not retryable.
    Server(String),
    /// The server-side per-request deadline elapsed between stages.
    /// Retryable: completed stages are cached, so a retry resumes from
    /// the last finished stage.
    Timeout(String),
}

impl ClientError {
    /// Short machine-readable tag for logs and reports.
    pub fn code(&self) -> &'static str {
        match self {
            ClientError::Connect(_) => "connect",
            ClientError::Busy(_) => "busy",
            ClientError::Dropped(_) => "dropped",
            ClientError::Protocol(_) => "protocol",
            ClientError::Server(_) => "server",
            ClientError::Timeout(_) => "timeout",
        }
    }

    /// Whether retrying the same request may succeed: connection
    /// failures, shed (busy) requests, dropped connections, and
    /// deadline timeouts are all safe to retry because requests are
    /// content-addressed and idempotent.
    pub fn retryable(&self) -> bool {
        !matches!(self, ClientError::Server(_) | ClientError::Protocol(_))
    }
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Connect(m)
            | ClientError::Busy(m)
            | ClientError::Dropped(m)
            | ClientError::Protocol(m)
            | ClientError::Server(m)
            | ClientError::Timeout(m) => write!(f, "{m}"),
        }
    }
}

/// Jittered exponential backoff for retryable failures. The jitter is
/// drawn from a seeded xorshift stream, so tests are reproducible and
/// a thundering herd of identical clients still decorrelates.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts (1 = no retry).
    pub attempts: u32,
    /// Base delay before the first retry.
    pub base_ms: u64,
    /// Ceiling on any single delay.
    pub max_ms: u64,
    /// Jitter seed (zero is remapped).
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { attempts: 5, base_ms: 20, max_ms: 1000, seed: 0x5eed }
    }
}

impl RetryPolicy {
    /// No retries at all: one attempt, fail fast.
    pub fn none() -> RetryPolicy {
        RetryPolicy { attempts: 1, ..RetryPolicy::default() }
    }

    /// The delay before retry number `attempt` (0-based): exponential
    /// in the attempt, capped at `max_ms`, with multiplicative jitter
    /// in `[0.5, 1.0)` so synchronized clients spread out.
    pub fn delay(&self, attempt: u32) -> Duration {
        let exp = self.base_ms.saturating_mul(1u64 << attempt.min(20));
        let capped = exp.min(self.max_ms);
        let mut x = self.seed.wrapping_add(u64::from(attempt) + 1);
        if x == 0 {
            x = 0x9e37_79b9_7f4a_7c15;
        }
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let jitter_half = (capped / 2).saturating_mul(x % 1000) / 1000;
        Duration::from_millis(capped / 2 + jitter_half)
    }
}

/// One connection to a running `sarad`.
#[derive(Debug)]
pub struct Client {
    writer: Conn,
    reader: BufReader<Conn>,
}

/// True when a response line is terminal (exactly one per request).
pub fn is_terminal(line: &Json) -> bool {
    line.get("ok").is_some()
        || line.get("error").is_some()
        || line.get("event").and_then(Json::as_str) == Some("done")
}

/// Map a server error terminal to the typed variant its `code` names.
fn server_error(line: &Json, msg: &str) -> ClientError {
    match line.get("code").and_then(Json::as_str) {
        Some("backpressure") => ClientError::Busy(msg.to_string()),
        Some("timeout") => ClientError::Timeout(msg.to_string()),
        _ => ClientError::Server(msg.to_string()),
    }
}

impl Client {
    /// Connect to a Unix server socket (see [`Client::connect_to`] for
    /// the transport-generic entry point).
    ///
    /// # Errors
    ///
    /// [`ClientError::Connect`] when the socket is absent or refuses.
    pub fn connect(socket: &Path) -> Result<Client, ClientError> {
        Client::connect_to(&Endpoint::unix(socket))
    }

    /// Connect to an endpoint — a Unix socket path or a TCP
    /// `host:port` address.
    ///
    /// # Errors
    ///
    /// [`ClientError::Connect`] when the endpoint is absent or refuses
    /// (over TCP, a refused connection is this variant too — and it is
    /// retryable, since the daemon may still be binding its port).
    pub fn connect_to(endpoint: &Endpoint) -> Result<Client, ClientError> {
        let stream = Conn::connect(endpoint)
            .map_err(|e| ClientError::Connect(format!("cannot connect to {endpoint}: {e}")))?;
        let reader = BufReader::new(
            stream
                .try_clone()
                .map_err(|e| ClientError::Connect(format!("cannot clone socket stream: {e}")))?,
        );
        Ok(Client { writer: stream, reader })
    }

    /// Connect to an endpoint, retrying transient failures (absent
    /// socket, TCP connection refused) with jittered exponential
    /// backoff.
    ///
    /// # Errors
    ///
    /// The last [`ClientError::Connect`] once attempts are exhausted.
    pub fn connect_to_with_retry(
        endpoint: &Endpoint,
        policy: &RetryPolicy,
    ) -> Result<Client, ClientError> {
        let mut last = ClientError::Connect("no attempts configured".to_string());
        for attempt in 0..policy.attempts.max(1) {
            match Client::connect_to(endpoint) {
                Ok(c) => return Ok(c),
                Err(e) => last = e,
            }
            if attempt + 1 < policy.attempts {
                std::thread::sleep(policy.delay(attempt));
            }
        }
        Err(last)
    }

    /// Send one request and collect every response line through the
    /// terminal one (progress events first, terminal last).
    ///
    /// # Errors
    ///
    /// Typed transport errors: [`ClientError::Dropped`] when the server
    /// dies before the terminal line, [`ClientError::Protocol`] on
    /// unparsable bytes. A server-side `{"error": ...}` terminal is
    /// returned as `Ok` — the caller distinguishes protocol errors from
    /// request errors.
    pub fn request(&mut self, req: &Json) -> Result<Vec<Json>, ClientError> {
        let mut text = req.pretty().replace('\n', " ");
        text.push('\n');
        self.writer
            .write_all(text.as_bytes())
            .and_then(|()| self.writer.flush())
            .map_err(|e| ClientError::Dropped(format!("send: {e}")))?;
        let mut lines = Vec::new();
        loop {
            let mut raw = String::new();
            let n = self
                .reader
                .read_line(&mut raw)
                .map_err(|e| ClientError::Dropped(format!("recv: {e}")))?;
            if n == 0 {
                return Err(ClientError::Dropped(
                    "connection closed before a terminal response".to_string(),
                ));
            }
            if raw.trim().is_empty() {
                continue;
            }
            let line = Json::parse(raw.trim())
                .map_err(|e| ClientError::Protocol(format!("bad response line: {e}")))?;
            let terminal = is_terminal(&line);
            lines.push(line);
            if terminal {
                return Ok(lines);
            }
        }
    }

    /// The terminal line of one request (progress events discarded).
    ///
    /// # Errors
    ///
    /// Transport errors, or the server's `error` terminal hoisted to the
    /// typed variant its `code` names.
    pub fn call(&mut self, req: &Json) -> Result<Json, ClientError> {
        let lines = self.request(req)?;
        let last = lines.last().ok_or_else(|| ClientError::Protocol("empty response".into()))?;
        if let Some(e) = last.get("error").and_then(Json::as_str) {
            return Err(server_error(last, e));
        }
        Ok(last.clone())
    }

    /// Fetch the service stats counters.
    ///
    /// # Errors
    ///
    /// Transport or protocol failure.
    pub fn stats(&mut self) -> Result<Json, ClientError> {
        let resp = self.call(&Json::object().set("op", "stats"))?;
        resp.get("stats")
            .cloned()
            .ok_or_else(|| ClientError::Protocol("stats response missing counters".into()))
    }

    /// Ask the server to shut down.
    ///
    /// # Errors
    ///
    /// Transport or protocol failure.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        self.call(&Json::object().set("op", "shutdown")).map(|_| ())
    }
}

/// One-shot request with full retry handling: connects (with backoff),
/// sends `req`, and retries the whole connect+send cycle on retryable
/// failures — connection refused, `busy` shedding, dropped connections,
/// deadline timeouts. Safe because `sarad` requests are
/// content-addressed and idempotent: a retried request re-serves (or
/// resumes) cached work, never duplicates it.
///
/// # Errors
///
/// The first non-retryable error, or the last error once attempts are
/// exhausted.
pub fn run_with_retry(
    socket: &Path,
    req: &Json,
    policy: &RetryPolicy,
) -> Result<Vec<Json>, ClientError> {
    run_with_retry_to(&Endpoint::unix(socket), req, policy)
}

/// [`run_with_retry`] over either transport: the endpoint names a Unix
/// socket path or a TCP `host:port` address.
///
/// # Errors
///
/// The first non-retryable error, or the last error once attempts are
/// exhausted.
pub fn run_with_retry_to(
    endpoint: &Endpoint,
    req: &Json,
    policy: &RetryPolicy,
) -> Result<Vec<Json>, ClientError> {
    let mut last: Option<ClientError> = None;
    for attempt in 0..policy.attempts.max(1) {
        let outcome = Client::connect_to(endpoint).and_then(|mut c| c.request(req));
        match outcome {
            Ok(lines) => {
                // A terminal `busy`/`timeout` error is retryable; other
                // error terminals are final and returned to the caller.
                let Some(e) = lines.last().and_then(|l| {
                    l.get("error").and_then(Json::as_str).map(|m| server_error(l, m))
                }) else {
                    return Ok(lines);
                };
                if !e.retryable() {
                    return Ok(lines);
                }
                last = Some(e);
            }
            Err(e) if e.retryable() => last = Some(e),
            Err(e) => return Err(e),
        }
        if attempt + 1 < policy.attempts {
            std::thread::sleep(policy.delay(attempt));
        }
    }
    Err(last.unwrap_or_else(|| ClientError::Connect("no attempts configured".to_string())))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_exponential_capped_and_jittered_within_bounds() {
        let p = RetryPolicy { attempts: 8, base_ms: 10, max_ms: 200, seed: 99 };
        let mut prev_cap = 0;
        for attempt in 0..8 {
            let d = p.delay(attempt).as_millis() as u64;
            let cap = (10u64 << attempt).min(200);
            assert!(d >= cap / 2, "attempt {attempt}: {d} < half of {cap}");
            assert!(d <= cap, "attempt {attempt}: {d} > cap {cap}");
            assert!(cap >= prev_cap, "caps must be monotone");
            prev_cap = cap;
        }
    }

    #[test]
    fn backoff_is_deterministic_per_seed() {
        let a = RetryPolicy { seed: 7, ..RetryPolicy::default() };
        let b = RetryPolicy { seed: 7, ..RetryPolicy::default() };
        for attempt in 0..5 {
            assert_eq!(a.delay(attempt), b.delay(attempt));
        }
    }

    #[test]
    fn error_taxonomy_retryability() {
        assert!(ClientError::Connect("x".into()).retryable());
        assert!(ClientError::Busy("x".into()).retryable());
        assert!(ClientError::Dropped("x".into()).retryable());
        assert!(ClientError::Timeout("x".into()).retryable());
        assert!(!ClientError::Server("x".into()).retryable());
        assert!(!ClientError::Protocol("x".into()).retryable());
    }
}
