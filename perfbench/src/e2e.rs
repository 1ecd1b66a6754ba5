//! The closed-loop load generator: spawns the server, warms it up, drives
//! it over TCP and turns the samples into the end-to-end metrics.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crate::check::{check, Checked};
use crate::server::{self, Connection, Counters, Server};
use crate::workload::{warm_up, Request, RequestStream, Workload};

/// Samples every run collects before it stops, so that at least ten lie
/// beyond the 90th percentile.
pub const MIN_SAMPLES: usize = 110;

/// Longest a measured phase may run past `--seconds` to reach
/// [`MIN_SAMPLES`] on a slow host.
const MAX_EXTENSION: Duration = Duration::from_secs(60);

/// Where server binaries and store files live for one run.
#[derive(Debug, Clone)]
pub struct Env {
    /// The release `retreet-serve` binary.
    pub server_binary: PathBuf,
    /// Directory for the servers' store files.
    pub scratch: PathBuf,
}

impl Env {
    /// A store-file path unique to this process and `tag`.
    pub fn store_file(&self, tag: &str) -> PathBuf {
        self.scratch
            .join(format!("store-{}-{tag}.log", std::process::id()))
    }
}

/// A server that finished warm-up, with the connection that warmed it.
pub struct Warm {
    /// The server process.
    pub server: Server,
    /// The connection used for warm-up, `stats` and `shutdown`.
    pub control: Connection,
    /// From spawn until warm-up finished.
    pub setup: Duration,
}

/// Spawns a server and runs the workload's warm-up on it, checking every
/// warm-up answer.
pub fn start(env: &Env, workload: Workload, tag: &str) -> Result<Warm, String> {
    let started = Instant::now();
    let server = Server::spawn(&env.server_binary, env.store_file(tag))?;
    let mut control = server.connect()?;
    for request in warm_up(workload) {
        let (response, _) = control.round_trip(&request.line)?;
        if let (Checked::Wrong(why) | Checked::Failed(why), _) = check(&response, &request.expect) {
            return Err(format!("warm-up {} failed: {why}", request.label));
        }
    }
    Ok(Warm {
        server,
        control,
        setup: started.elapsed(),
    })
}

/// One answered request.
#[derive(Debug, Clone)]
pub struct Sample {
    /// What was sent.
    pub request: Request,
    /// Write of the request to read of the full response line.
    pub latency: Duration,
    /// The server's own `elapsed_us`, when reported.
    pub server_us: Option<f64>,
    /// The oracle's judgement.
    pub checked: Checked,
}

/// Everything measured while the closed loop ran.
#[derive(Debug)]
pub struct Phase {
    /// Every request, in send order per connection, connections in turn.
    pub samples: Vec<Sample>,
    /// Wall time of the loop.
    pub wall: Duration,
    /// Server CPU time spent during the loop.
    pub cpu_ns: u64,
    /// Server counters accrued during the loop.
    pub counters: Counters,
    /// Server peak resident set, KiB.
    pub peak_rss_kib: u64,
    /// Connections driven.
    pub connections: usize,
}

/// Drives the warm server in a closed loop — each connection sends its
/// next request only after the previous response — for `seconds`, and
/// longer (up to a minute) while fewer than `min_samples` requests
/// completed.
pub fn drive(
    warm: &mut Warm,
    workload: Workload,
    seed: u64,
    seconds: f64,
    nproc: usize,
    min_samples: usize,
) -> Result<Phase, String> {
    let connections = workload.connections(nproc);
    let pid = warm.server.pid();
    let before = Server::stats(&mut warm.control)?;
    // The warm-up connection is the first client, so the server thread
    // that warmed up (and holds its allocations) keeps serving.
    let mut extra = (1..connections)
        .map(|_| warm.server.connect())
        .collect::<Result<Vec<_>, _>>()?;
    let mut conns: Vec<&mut Connection> = std::iter::once(&mut warm.control)
        .chain(extra.iter_mut())
        .collect();
    let cpu_before = server::cpu_ns(pid)?;
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let cap = deadline + MAX_EXTENSION;
    let completed = AtomicUsize::new(0);
    let per_connection: Vec<Result<Vec<Sample>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(index, conn)| {
                let completed = &completed;
                scope.spawn(move || {
                    let mut samples = Vec::new();
                    for request in RequestStream::new(workload, seed, index) {
                        let now = Instant::now();
                        if now >= cap
                            || (now >= deadline && completed.load(Ordering::Relaxed) >= min_samples)
                        {
                            break;
                        }
                        let (response, latency) = conn.round_trip(&request.line)?;
                        let (checked, server_us) = check(&response, &request.expect);
                        samples.push(Sample {
                            request,
                            latency,
                            server_us,
                            checked,
                        });
                        completed.fetch_add(1, Ordering::Relaxed);
                    }
                    Ok(samples)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("client thread panicked"))
            .collect()
    });
    let wall = started.elapsed();
    let cpu_after = server::cpu_ns(pid)?;
    let after = Server::stats(&mut warm.control)?;
    let peak_rss_kib = server::peak_rss_kib(pid)?;
    let mut samples = Vec::new();
    for result in per_connection {
        samples.extend(result?);
    }
    Ok(Phase {
        samples,
        wall,
        cpu_ns: cpu_after.saturating_sub(cpu_before),
        counters: after.since(&before),
        peak_rss_kib,
        connections,
    })
}

/// The nearest-rank `p`-quantile of `sorted` (ascending), or `None` when
/// fewer than ten samples lie beyond it.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let rank = (p * sorted.len() as f64).ceil() as usize;
    if rank == 0 || sorted.len() < rank + 10 {
        return None;
    }
    Some(sorted[rank - 1])
}

/// The median of `values` (mean of the middle two for even lengths).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Checks that the loop exercised the workload's path, from the server's
/// own counters: every verify request a cache hit on `warm-verify`; every
/// one a miss with one engine run and one store append on `cold-verify`;
/// every `run` on the VM with no recompilation on `run-exec`; nothing
/// shed anywhere.
pub fn path_violations(workload: Workload, requests: u64, counts: &Counters) -> Vec<String> {
    let mut violations = Vec::new();
    let mut expect = |what: &str, got: u64, want: u64| {
        if got != want {
            violations.push(format!("{what}: {got}, expected {want}"));
        }
    };
    expect("sched.shed", counts.shed, 0);
    match workload {
        Workload::WarmVerify => {
            expect("cache hits", counts.hits, requests);
            expect("cache misses", counts.misses, 0);
            expect("engine runs", counts.engine_runs, 0);
            expect("store appends", counts.appends, 0);
        }
        Workload::ColdVerify => {
            expect("cache hits", counts.hits, 0);
            expect("engine runs", counts.engine_runs, requests);
            expect("store appends", counts.appends, requests);
        }
        Workload::RunExec => {
            expect("vm runs", counts.vm_runs, requests);
            expect("interpreter fallbacks", counts.interp_runs, 0);
            expect("executor compiles", counts.compiles, 0);
            expect("engine runs", counts.engine_runs, 0);
        }
    }
    violations
}
