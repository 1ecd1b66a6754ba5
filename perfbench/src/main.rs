//! `perfbench` — the end-to-end benchmark of the shipped `retreet-serve`.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//!           --server PATH --scratch DIR [--commit SHA]
//! perfbench goldens
//! ```
//!
//! With `--trace 0` it spawns the release server several times to time
//! set-up, then drives the last one over TCP in a closed loop for `S`
//! seconds and prints the end-to-end metrics.  With `--trace 1` it replays
//! the workload's seeded requests over TCP and then in-process through the
//! layers' public functions, and prints the per-layer metrics.  Either way
//! every answer is checked, and the last stdout line is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; the exit code is
//! non-zero when an answer is wrong or the workload left its path.
//! `goldens` prints the golden `run` answers (field digest and returns)
//! from the reference interpreter: the content of `golden_returns.txt`.

mod check;
mod e2e;
mod server;
#[cfg(test)]
mod tests;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use retreet_serve::json;

use check::Checked;
use workload::Workload;

/// Servers spawned per `--trace 0` run to time set-up; the metric is
/// their median and the last one is driven.
const SETUPS: usize = 9;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    server: PathBuf,
    scratch: PathBuf,
    commit: String,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut server = None;
    let mut scratch = None;
    let mut commit = String::from("unknown");
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} expects a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(String::from("--seconds must be in (0, 120]"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(String::from("--trace takes 0 or 1")),
                })
            }
            "--server" => server = Some(PathBuf::from(value)),
            "--scratch" => scratch = Some(PathBuf::from(value)),
            "--commit" => commit = value,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        server: server.ok_or("--server is required")?,
        scratch: scratch.ok_or("--scratch is required")?,
        commit,
    })
}

/// One reported metric.
pub struct Metric {
    /// Name as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The result of one run, printed as the result line.
pub struct Report {
    /// Every answer matched its oracle and the path assertions held.
    pub correct: bool,
    /// Requests sent in the measured phase.
    pub attempted: usize,
    /// Requests answered with a typed service error.
    pub failed: usize,
    /// The metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Run metadata (a JSON object body), printed before the result.
    pub meta: Vec<(&'static str, String)>,
}

impl Report {
    fn print(&self) {
        for metric in &self.metrics {
            println!("{} = {} {}", metric.name, metric.value, metric.unit);
        }
        let meta: Vec<String> = self
            .meta
            .iter()
            .map(|(key, value)| format!("\"{key}\":{value}"))
            .collect();
        println!("{{\"meta\":{{{}}}}}", meta.join(","));
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(",")
        );
    }
}

/// A JSON string literal.
pub fn quoted(text: &str) -> String {
    format!("\"{}\"", json::escape(text))
}

/// Tallies the oracle's judgements, printing every wrong answer.
pub fn tally(samples: &[e2e::Sample]) -> (usize, usize) {
    let mut failed = 0;
    let mut wrong = 0;
    for sample in samples {
        match &sample.checked {
            Checked::Ok => {}
            Checked::Failed(code) => {
                failed += 1;
                eprintln!("perfbench: {} failed: {code}", sample.request.label);
            }
            Checked::Wrong(why) => {
                wrong += 1;
                eprintln!("perfbench: WRONG answer to {}: {why}", sample.request.label);
            }
        }
    }
    (failed, wrong)
}

fn common_meta(args: &Args, nproc: usize) -> Vec<(&'static str, String)> {
    let flags: Vec<String> = server::SERVER_FLAGS
        .iter()
        .map(|flag| quoted(flag))
        .chain([quoted("--persist"), quoted("<fresh store file>")])
        .collect();
    vec![
        ("workload", quoted(args.workload.name())),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", args.trace.to_string()),
        ("nproc", nproc.to_string()),
        ("server_flags", format!("[{}]", flags.join(","))),
        ("commit", quoted(&args.commit)),
    ]
}

fn run_e2e(args: &Args, env: &e2e::Env, nproc: usize) -> Result<Report, String> {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut warm = None;
    for index in 0..SETUPS {
        let mut started = e2e::start(env, args.workload, &format!("setup{index}"))?;
        setups.push(started.setup.as_secs_f64());
        if index + 1 < SETUPS {
            started.server.shutdown(&mut started.control)?;
        } else {
            warm = Some(started);
        }
    }
    let mut warm = warm.expect("at least one set-up");
    let phase = e2e::drive(
        &mut warm,
        args.workload,
        args.seed,
        args.seconds,
        nproc,
        e2e::MIN_SAMPLES,
    )?;
    warm.server.shutdown(&mut warm.control)?;

    let attempted = phase.samples.len();
    let (failed, wrong) = tally(&phase.samples);
    let ok = attempted - failed - wrong;
    let violations = e2e::path_violations(args.workload, attempted as u64, &phase.counters);
    for violation in &violations {
        eprintln!(
            "perfbench: {} left its path: {violation}",
            args.workload.name()
        );
    }
    let mut latencies: Vec<f64> = phase
        .samples
        .iter()
        .map(|s| s.latency.as_secs_f64() * 1e3)
        .collect();
    latencies.sort_by(f64::total_cmp);
    let p50 = e2e::percentile(&latencies, 0.5);
    let p90 = e2e::percentile(&latencies, 0.9);
    let (Some(p50), Some(p90)) = (p50, p90) else {
        return Err(format!(
            "{attempted} samples are too few for a 90th percentile"
        ));
    };
    let wall = phase.wall.as_secs_f64();
    let metrics = vec![
        Metric {
            name: "setup_s",
            value: e2e::median(&setups),
            unit: "s",
        },
        Metric {
            name: "throughput_rps",
            value: ok as f64 / wall,
            unit: "1/s",
        },
        Metric {
            name: "latency_p50_ms",
            value: p50,
            unit: "ms",
        },
        Metric {
            name: "latency_p90_ms",
            value: p90,
            unit: "ms",
        },
        // A wrong answer fails the run instead of counting here.
        Metric {
            name: "success_rate",
            value: (attempted - failed) as f64 / attempted as f64,
            unit: "ratio",
        },
        Metric {
            name: "server_cpu_ms_per_req",
            value: phase.cpu_ns as f64 / 1e6 / attempted as f64,
            unit: "ms",
        },
        Metric {
            name: "peak_rss_mib",
            value: phase.peak_rss_kib as f64 / 1024.0,
            unit: "MiB",
        },
    ];
    let beyond = |p: f64| attempted - (p * attempted as f64).ceil() as usize;
    let mut meta = common_meta(args, nproc);
    meta.extend([
        ("connections", phase.connections.to_string()),
        ("wall_s", wall.to_string()),
        ("samples", attempted.to_string()),
        ("samples_beyond_p50", beyond(0.5).to_string()),
        ("samples_beyond_p90", beyond(0.9).to_string()),
        ("error_rate", (failed as f64 / attempted as f64).to_string()),
        (
            "setup_samples_s",
            format!(
                "[{}]",
                setups
                    .iter()
                    .map(f64::to_string)
                    .collect::<Vec<_>>()
                    .join(",")
            ),
        ),
        ("per_label", per_label(&phase.samples, p50, p90)),
        (
            "p50_held_by",
            holding_labels(&phase.samples, "latency_p50_ms", p50),
        ),
        (
            "p90_held_by",
            holding_labels(&phase.samples, "latency_p90_ms", p90),
        ),
        (
            "path_violations",
            format!(
                "[{}]",
                violations
                    .iter()
                    .map(|v| quoted(v))
                    .collect::<Vec<_>>()
                    .join(",")
            ),
        ),
    ]);
    Ok(Report {
        correct: wrong == 0 && violations.is_empty(),
        attempted,
        failed,
        metrics,
        meta,
    })
}

/// Per request label: count, median client latency, median server
/// `elapsed_us` — the transport floor is their difference — and the share
/// of the label's samples above p50 and above p90.
fn per_label(samples: &[e2e::Sample], p50: f64, p90: f64) -> String {
    let rows: Vec<String> = labels(samples)
        .into_iter()
        .map(|label| {
            let client = label_latencies(samples, label);
            let server: Vec<f64> = samples
                .iter()
                .filter(|s| s.request.label == label)
                .filter_map(|s| s.server_us)
                .collect();
            format!(
                "{}:{{\"n\":{},\"client_p50_ms\":{:.3},\"server_elapsed_p50_ms\":{:.3},\
                 \"above_p50\":{:.3},\"above_p90\":{:.3}}}",
                quoted(label),
                client.len(),
                e2e::median(&client),
                e2e::median(&server) / 1e3,
                share_above(&client, p50),
                share_above(&client, p90)
            )
        })
        .collect();
    format!("{{{}}}", rows.join(","))
}

fn labels(samples: &[e2e::Sample]) -> Vec<&'static str> {
    let mut labels: Vec<&str> = samples.iter().map(|s| s.request.label).collect();
    labels.sort_unstable();
    labels.dedup();
    labels
}

fn label_latencies(samples: &[e2e::Sample], label: &str) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| s.request.label == label)
        .map(|s| s.latency.as_secs_f64() * 1e3)
        .collect()
}

fn share_above(values: &[f64], threshold: f64) -> f64 {
    values.iter().filter(|&&v| v > threshold).count() as f64 / values.len().max(1) as f64
}

/// The labels whose latency band holds the percentile `value`: at least a
/// tenth of their samples on each side of it.  Latencies cluster by label,
/// so a percentile no label holds lies on the edge between two bands and
/// can jump between runs; that is printed as a warning.
fn holding_labels(samples: &[e2e::Sample], name: &str, value: f64) -> String {
    let holders: Vec<String> = labels(samples)
        .into_iter()
        .filter(|label| {
            let above = share_above(&label_latencies(samples, label), value);
            (0.1..=0.9).contains(&above)
        })
        .map(quoted)
        .collect();
    if holders.is_empty() {
        eprintln!(
            "perfbench: warning: {name} = {value:.3} ms lies between two labels' latency bands, \
             so it may jump between runs (see per_label in the meta line)"
        );
    }
    format!("[{}]", holders.join(","))
}

fn main() -> ExitCode {
    let mut raw = std::env::args().skip(1).peekable();
    if raw.peek().map(String::as_str) == Some("goldens") {
        print!("{}", workload::golden_table());
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(raw) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    if let Err(err) = std::fs::create_dir_all(&args.scratch) {
        eprintln!("perfbench: cannot create {}: {err}", args.scratch.display());
        return ExitCode::from(2);
    }
    let env = e2e::Env {
        server_binary: args.server.clone(),
        scratch: args.scratch.clone(),
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let result = if args.trace {
        trace::run(&args, &env, nproc)
    } else {
        run_e2e(&args, &env, nproc)
    };
    match result {
        Ok(report) => {
            report.print();
            if report.correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("perfbench: the run produced wrong answers or left its path");
                ExitCode::FAILURE
            }
        }
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::FAILURE
        }
    }
}
