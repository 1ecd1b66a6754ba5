//! The `retreet-serve` process under test and the client side of its
//! NDJSON-over-TCP protocol.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use retreet_serve::json::{self, Value};

/// How long a spawned server may take to start listening.
const LISTEN_TIMEOUT: Duration = Duration::from_secs(60);

/// How long a server may take to exit after a `shutdown` request.
const EXIT_TIMEOUT: Duration = Duration::from_secs(10);

/// The flags every workload starts the server with (plus `--persist`).
pub const SERVER_FLAGS: [&str; 3] = ["--listen", "127.0.0.1:0", "--warm-start"];

/// A running `retreet-serve --listen … --warm-start --persist …`.  Dropping
/// it kills the process (if still running) and removes its store file.
pub struct Server {
    child: Child,
    port: u16,
    persist: PathBuf,
    stderr: Option<JoinHandle<()>>,
}

impl Server {
    /// Spawns the server with a fresh store file at `persist` and waits
    /// until it listens (warm start happens before that).
    pub fn spawn(binary: &Path, persist: PathBuf) -> Result<Server, String> {
        let _ = std::fs::remove_file(&persist);
        let mut child = Command::new(binary)
            .args(SERVER_FLAGS)
            .arg("--persist")
            .arg(&persist)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|err| format!("cannot start {}: {err}", binary.display()))?;
        let stderr = child.stderr.take().expect("stderr was piped");
        let (tx, rx) = mpsc::channel::<u16>();
        // The reader forwards the listening port, then drains the rest of
        // the log so the server never blocks on a full pipe.
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stderr).lines() {
                let Ok(line) = line else { break };
                if let Some(port) = line
                    .strip_prefix("retreet-serve: listening on ")
                    .and_then(|addr| addr.rsplit(':').next())
                    .and_then(|port| port.trim().parse().ok())
                {
                    let _ = tx.send(port);
                }
            }
        });
        let mut server = Server {
            child,
            port: 0,
            persist,
            stderr: Some(reader),
        };
        server.port = rx
            .recv_timeout(LISTEN_TIMEOUT)
            .map_err(|_| String::from("server did not report a listening port"))?;
        Ok(server)
    }

    /// The server's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Opens a client connection.
    pub fn connect(&self) -> Result<Connection, String> {
        let stream = TcpStream::connect(("127.0.0.1", self.port))
            .map_err(|err| format!("cannot connect to port {}: {err}", self.port))?;
        let reader = BufReader::new(
            stream
                .try_clone()
                .map_err(|err| format!("cannot clone stream: {err}"))?,
        );
        Ok(Connection {
            stream,
            reader,
            buf: String::new(),
        })
    }

    /// The server's counters, from one `stats` request on `conn`.
    pub fn stats(conn: &mut Connection) -> Result<Counters, String> {
        let (response, _) = conn.round_trip(r#"{"kind":"stats"}"#)?;
        let value = json::parse(&response).map_err(|err| format!("stats: {err}"))?;
        Counters::from_stats(&value).ok_or_else(|| format!("malformed stats: {response}"))
    }

    /// Graceful stop: a `shutdown` request, then wait for exit (killing the
    /// process if it overstays).
    pub fn shutdown(mut self, conn: &mut Connection) -> Result<(), String> {
        conn.round_trip(r#"{"kind":"shutdown"}"#)?;
        let deadline = Instant::now() + EXIT_TIMEOUT;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("server exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                Ok(None) => return Err(String::from("server did not exit after shutdown")),
                Err(err) => return Err(format!("cannot wait for server: {err}")),
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(reader) = self.stderr.take() {
            let _ = reader.join();
        }
        let _ = std::fs::remove_file(&self.persist);
    }
}

/// One client connection: a request line out, a response line back.
pub struct Connection {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    buf: String,
}

impl Connection {
    /// Sends `line` and reads the full response line, timing the pair from
    /// the write of the request to the read of the response's newline.
    pub fn round_trip(&mut self, line: &str) -> Result<(String, Duration), String> {
        let mut out = Vec::with_capacity(line.len() + 1);
        out.extend_from_slice(line.as_bytes());
        out.push(b'\n');
        self.buf.clear();
        let started = Instant::now();
        self.stream
            .write_all(&out)
            .map_err(|err| format!("write failed: {err}"))?;
        let read = self
            .reader
            .read_line(&mut self.buf)
            .map_err(|err| format!("read failed: {err}"))?;
        let elapsed = started.elapsed();
        if read == 0 || !self.buf.ends_with('\n') {
            return Err(String::from("server closed the connection mid-response"));
        }
        Ok((self.buf.trim_end().to_string(), elapsed))
    }
}

/// The `stats` counters the benchmark reads.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    /// Verdict-cache hits.
    pub hits: u64,
    /// Verdict-cache misses.
    pub misses: u64,
    /// Portfolio engine runs.
    pub engine_runs: u64,
    /// Cold-lane requests shed as `overloaded`.
    pub shed: u64,
    /// `run` requests executed on the VM.
    pub vm_runs: u64,
    /// `run` requests that fell back to the interpreter.
    pub interp_runs: u64,
    /// Executors compiled.
    pub compiles: u64,
    /// Records appended to the verdict store.
    pub appends: u64,
}

impl Counters {
    fn from_stats(value: &Value) -> Option<Counters> {
        let get = |section: &str, key: &str| -> Option<u64> {
            match value.as_object()?.get(section)?.as_object()?.get(key)? {
                Value::Number(n) => Some(*n as u64),
                _ => None,
            }
        };
        Some(Counters {
            hits: get("cache", "hits")?,
            misses: get("cache", "misses")?,
            engine_runs: get("serving", "engine_runs")?,
            shed: get("sched", "shed")?,
            vm_runs: get("codegen", "vm_runs")?,
            interp_runs: get("codegen", "interp_runs")?,
            compiles: get("codegen", "compiles")?,
            appends: get("store", "appends")?,
        })
    }

    /// The counts accrued since `earlier`.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            engine_runs: self.engine_runs - earlier.engine_runs,
            shed: self.shed - earlier.shed,
            vm_runs: self.vm_runs - earlier.vm_runs,
            interp_runs: self.interp_runs - earlier.interp_runs,
            compiles: self.compiles - earlier.compiles,
            appends: self.appends - earlier.appends,
        }
    }

    /// Cache hits over lookups (0 when there were none).
    pub fn hit_ratio(&self) -> f64 {
        let lookups = self.hits + self.misses;
        if lookups == 0 {
            0.0
        } else {
            self.hits as f64 / lookups as f64
        }
    }
}

/// Clock ticks per second of the `/proc` time fields (`USER_HZ`, fixed at
/// 100 by the Linux user-space ABI).
const USER_HZ: u64 = 100;

/// CPU time the process has used so far, in nanoseconds: `utime + stime`
/// from `/proc/<pid>/stat`.  Unlike a sum over `/proc/<pid>/task/*`, these
/// include the threads that have already exited — the bounded race and
/// equivalence searches run one of their two chunks on a short-lived
/// thread whenever a worker is free.  They tick at 10 ms.
pub fn cpu_ns(pid: u32) -> Result<u64, String> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .map_err(|err| format!("cannot read stat of {pid}: {err}"))?;
    // The command name (field 2) is parenthesised and may hold spaces, so
    // count fields from its closing parenthesis: field 3 comes first.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest)
        .ok_or_else(|| format!("malformed stat: {stat}"))?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |field: usize| -> Result<u64, String> {
        fields
            .get(field - 3)
            .and_then(|value| value.parse::<u64>().ok())
            .ok_or_else(|| format!("malformed stat field {field}: {stat}"))
    };
    let total = ticks(14)? + ticks(15)?;
    Ok(total * (1_000_000_000 / USER_HZ))
}

/// The process's peak resident set (`VmHWM`), in KiB.
pub fn peak_rss_kib(pid: u32) -> Result<u64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|err| format!("cannot read status of {pid}: {err}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| String::from("no VmHWM line in /proc status"))
}
