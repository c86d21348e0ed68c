//! The `serve-mixed` traffic: an in-process `pb-serve` (one worker, the
//! default `auto` planner) driven by one closed-loop connection that
//! interleaves reads with a writer's cycle, every response checked against
//! the oracle.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use pb_serve::{ServeConfig, Server};
use serde_json::Value;

use crate::kernel::Tally;

/// Catalog budget of the benchmark's server: room for the largest
/// workload's operand and product.
const BUDGET_BYTES: usize = 4 << 30;

/// Starts a one-worker server on an ephemeral localhost port.
pub fn start() -> Result<Server, String> {
    let config = ServeConfig::default()
        .addr("127.0.0.1:0")
        .workers(1)
        .budget_bytes(BUDGET_BYTES);
    Server::start(config).map_err(|e| format!("cannot start pb-serve: {e}"))
}

/// One blocking line-protocol connection.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
}

impl Client {
    /// Connects to `addr`.
    pub fn connect(addr: SocketAddr) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("set_nodelay: {e}"))?;
        let writer = stream
            .try_clone()
            .map_err(|e| format!("clone stream: {e}"))?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
            line: String::new(),
        })
    }

    /// Sends one request line and parses the response line.  `Ok` holds
    /// the response object whether or not it reports success.
    pub fn call(&mut self, request: &str) -> Result<Value, String> {
        self.writer
            .write_all(request.as_bytes())
            .and_then(|_| self.writer.write_all(b"\n"))
            .map_err(|e| format!("send: {e}"))?;
        self.line.clear();
        let n = self
            .reader
            .read_line(&mut self.line)
            .map_err(|e| format!("receive: {e}"))?;
        if n == 0 {
            return Err("server closed the connection".into());
        }
        serde_json::from_str(self.line.trim_end()).map_err(|e| format!("bad response: {e}"))
    }

    /// [`Client::call`] that also requires `"ok": true`.
    pub fn call_ok(&mut self, request: &str) -> Result<Value, String> {
        let v = self.call(request)?;
        if is_ok(&v) {
            Ok(v)
        } else {
            Err(format!("request failed: {}", self.line.trim_end()))
        }
    }
}

fn is_ok(v: &Value) -> bool {
    v.get("ok").and_then(Value::as_bool) == Some(true)
}

fn fingerprint_of(v: &Value) -> Option<u64> {
    v.get("fingerprint").and_then(Value::as_u64)
}

/// A read request and the oracle fingerprint of its product.
#[derive(Debug, Clone)]
pub struct Read {
    pub line: String,
    pub fingerprint: u64,
}

/// The read of residents `r{i}·r{j}`, whose oracle product has
/// `fingerprint`.
pub fn read(i: usize, j: usize, fingerprint: u64) -> Read {
    Read {
        line: format!("{{\"op\":\"multiply\",\"a\":\"r{i}\",\"b\":\"r{j}\"}}"),
        fingerprint,
    }
}

/// Catalog names the writer reuses every cycle; it evicts both before
/// the next cycle stores them again.
const STORED: &str = "w";
const PRODUCT: &str = "p";

/// A store the writer ships, as its request line, and the oracle
/// fingerprint of its product with the resident operand.
#[derive(Debug, Clone)]
pub struct WriteJob {
    pub line: String,
    pub fingerprint: u64,
}

impl WriteJob {
    /// Renders the store of `body` once, before any loop times it.
    pub fn new(body: &str, fingerprint: u64) -> WriteJob {
        WriteJob {
            line: crate::inputs::store_line(STORED, body),
            fingerprint,
        }
    }
}

/// The writer's cycle: store a fresh matrix, multiply it by `resident`
/// into the catalog, evict both.
#[derive(Debug, Clone)]
pub struct Writer {
    pub resident: String,
    pub pool: Vec<WriteJob>,
}

/// Samples of one closed-loop run.
#[derive(Debug, Default)]
pub struct ServeRun {
    /// Client latency of read multiplies, ms.
    pub multiply_ms: Vec<f64>,
    /// Client latency of stores, ms.
    pub store_ms: Vec<f64>,
    /// Requests completed on both connections.
    pub requests: u64,
    /// Wall time of the loop, s.
    pub wall_s: f64,
    /// Multiplies (reads and writes) per kernel the planner chose.
    pub planned: BTreeMap<String, u64>,
    /// Multiplies answered as part of a batch of more than one.
    pub batched: u64,
    /// Multiplies answered.
    pub multiplies: u64,
    pub tally: Tally,
}

impl ServeRun {
    /// Share of the answered multiplies the planner sent to PB.
    pub fn pb_share(&self) -> f64 {
        let pb = pb_spgemm::PlannedKernel::Pb.name();
        self.planned.get(pb).copied().unwrap_or(0) as f64 / self.multiplies as f64
    }

    /// Adds another run's samples and counts to this one's.
    pub fn absorb(&mut self, other: ServeRun) {
        self.multiply_ms.extend(other.multiply_ms);
        self.store_ms.extend(other.store_ms);
        self.requests += other.requests;
        self.wall_s += other.wall_s;
        for (kernel, n) in other.planned {
            *self.planned.entry(kernel).or_default() += n;
        }
        self.batched += other.batched;
        self.multiplies += other.multiplies;
        self.tally.merge(other.tally);
    }

    /// Checks a multiply response against `expected` and records its
    /// planner and batching telemetry.
    fn multiply_answered(&mut self, v: &Value, expected: u64) {
        self.multiplies += 1;
        let kernel = v.get("planned").and_then(Value::as_str).unwrap_or("none");
        *self.planned.entry(kernel.to_string()).or_default() += 1;
        self.batched += u64::from(v.get("batched_with").and_then(Value::as_u64) > Some(1));
        self.tally
            .record(is_ok(v) && fingerprint_of(v) == Some(expected));
    }
}

/// Time one request; a transport error ends the loop.
fn timed(client: &mut Client, line: &str) -> Result<(Value, f64), String> {
    let t = Instant::now();
    let v = client.call(line)?;
    Ok((v, t.elapsed().as_secs_f64() * 1e3))
}

/// Runs the closed loop on `client` for `seconds`, in whole cycles (at
/// least one).  A cycle is the writer's four requests (when there is a
/// writer), each preceded by one read; without a writer, one read.  One
/// connection waits for each reply, so the server never queues: on a host
/// with two cores, two connections put four busy threads (two clients,
/// the reactor that parses each line and the worker) on two cores, and
/// the order the worker served them in settled into one of two patterns
/// per run, moving the read median by 70%.
pub fn closed_loop(
    client: &mut Client,
    reads: &[Read],
    writer: Option<&Writer>,
    seconds: f64,
) -> Result<ServeRun, String> {
    let start = Instant::now();
    let until = start + Duration::from_secs_f64(seconds);
    let mut out = ServeRun::default();
    let steps = writer.map(|w| {
        [
            format!(
                "{{\"op\":\"multiply\",\"a\":\"{STORED}\",\"b\":\"{}\",\"store_as\":\"{PRODUCT}\"}}",
                w.resident
            ),
            format!("{{\"op\":\"evict\",\"name\":\"{STORED}\"}}"),
            format!("{{\"op\":\"evict\",\"name\":\"{PRODUCT}\"}}"),
        ]
    });
    let mut next_read = 0usize;
    let mut read = |client: &mut Client, out: &mut ServeRun| -> Result<(), String> {
        let read = &reads[next_read % reads.len()];
        next_read += 1;
        let (v, ms) = timed(client, &read.line)?;
        out.multiply_answered(&v, read.fingerprint);
        out.multiply_ms.push(ms);
        out.requests += 1;
        Ok(())
    };
    let mut cycle = 0usize;
    while Instant::now() < until || cycle == 0 {
        read(client, &mut out)?;
        if let (Some(writer), Some([multiply, evict_stored, evict_product])) = (writer, &steps) {
            let w = &writer.pool[cycle % writer.pool.len()];
            let (v, ms) = timed(client, &w.line)?;
            out.tally.record(is_ok(&v));
            out.store_ms.push(ms);
            read(client, &mut out)?;
            let (v, _) = timed(client, multiply)?;
            out.multiply_answered(&v, w.fingerprint);
            for evict in [evict_stored, evict_product] {
                read(client, &mut out)?;
                let (v, _) = timed(client, evict)?;
                out.tally
                    .record(is_ok(&v) && v.get("evicted").and_then(Value::as_bool) == Some(true));
            }
            out.requests += 4;
        }
        cycle += 1;
    }
    out.wall_s = start.elapsed().as_secs_f64();
    Ok(out)
}
