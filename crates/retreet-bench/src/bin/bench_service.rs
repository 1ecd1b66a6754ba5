//! `bench_service` — the serving-tier benchmark.
//!
//! Drives a `retreet_serve::Service` (one shared verifier: sharded verdict
//! cache, single-flight coalescing) with a warm-cache NDJSON workload from
//! 1, 4 and 8 client threads, and writes the machine-readable report to
//! `BENCH_service.json` at the repository root.
//!
//! ```text
//! bench_service [--quick] [--out PATH] [--ceiling-seconds S]
//!               [--rounds N] [--min-scaling F]
//! ```
//!
//! * `--quick` — smaller budget and fewer rounds (the CI perf-smoke mode).
//! * `--out PATH` — where to write the JSON report (default
//!   `BENCH_service.json` in the current directory).
//! * `--ceiling-seconds S` — exit non-zero when any timed section exceeds
//!   `S` seconds of wall clock (default 120; catches accidental
//!   exponential regressions, not noise).
//! * `--rounds N` — workload repetitions per client thread.
//! * `--min-scaling F` — exit non-zero when 8-thread throughput is below
//!   `F ×` the single-thread throughput (default 0: shared CI runners and
//!   single-core hosts cannot honestly promise parallel speedups).
//!
//! Like `bench_engines`, the run **fails on verdict drift**: every response
//! is checked against the §5 expectation, single-threaded first and then
//! under every concurrency level — a serving layer that changes answers
//! under load is a bug, not a throughput result.  A cold-burst phase
//! additionally asserts single-flight coalescing: 8 threads issuing the
//! same cold query must trigger exactly one engine run.
//!
//! Schema v2 adds three robustness phases, each on a fresh service:
//!
//! * **shed** — a deliberately tiny cold lane (1 worker, 1-slot queue)
//!   under stalled engines; every request must be answered correctly or
//!   shed with a typed `overloaded` error, and the shed rate is recorded.
//! * **deadline** — engines stalled far past a short per-query deadline;
//!   every query must resolve as a typed `deadline_exceeded` error or a
//!   correct degraded verdict (fail-closed), and the deadline-hit rate is
//!   recorded.
//! * **cold restart** — the workload is served once with a persistent
//!   verdict store, the service is dropped, and a restarted service must
//!   answer the whole workload from the recovered store with **zero**
//!   engine runs; a warm-hit rate below 1.0 fails the run.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;

use retreet_bench::harness::{array, num, Flags};
use retreet_bench::object;
use retreet_lang::corpus;
use retreet_serve::json;
use retreet_serve::{ServeOptions, Service};
use retreet_verify::FaultPlan;

/// One request of the workload: the NDJSON line plus the verdict word every
/// response must carry (the drift gate).
struct WorkItem {
    line: String,
    expected_verdict: &'static str,
}

/// The §5 serving mix: every corpus race query, every known fusion pair,
/// and a pair of validity queries — with the paper's expected verdicts.
fn workload() -> Vec<WorkItem> {
    let race = |source: &str, expected: &'static str| WorkItem {
        line: format!(r#"{{"kind":"race","program":"{}"}}"#, json::escape(source)),
        expected_verdict: expected,
    };
    let equiv = |original: &str, transformed: &str, expected: &'static str| WorkItem {
        line: format!(
            r#"{{"kind":"equivalence","original":"{}","transformed":"{}"}}"#,
            json::escape(original),
            json::escape(transformed)
        ),
        expected_verdict: expected,
    };
    let validity = |formula: &str, expected: &'static str| WorkItem {
        line: format!(r#"{{"kind":"validity","formula":"{formula}"}}"#),
        expected_verdict: expected,
    };
    vec![
        race(corpus::SIZE_COUNTING_PARALLEL_SRC, "race-free"),
        race(corpus::SIZE_COUNTING_SEQUENTIAL_SRC, "race-free"),
        race(corpus::TREE_MUTATION_ORIGINAL_SRC, "race-free"),
        race(corpus::CSS_MINIFY_ORIGINAL_SRC, "race-free"),
        race(corpus::CYCLETREE_ORIGINAL_SRC, "race-free"),
        race(corpus::CYCLETREE_PARALLEL_SRC, "race"),
        race(corpus::DISJOINT_PARALLEL_SRC, "race-free"),
        race(corpus::OVERLAPPING_PARALLEL_SRC, "race"),
        equiv(
            corpus::SIZE_COUNTING_SEQUENTIAL_SRC,
            corpus::SIZE_COUNTING_FUSED_SRC,
            "equivalent",
        ),
        equiv(
            corpus::SIZE_COUNTING_SEQUENTIAL_SRC,
            corpus::SIZE_COUNTING_FUSED_INVALID_SRC,
            "not-equivalent",
        ),
        equiv(
            corpus::TREE_MUTATION_ORIGINAL_SRC,
            corpus::TREE_MUTATION_FUSED_SRC,
            "equivalent",
        ),
        equiv(
            corpus::CSS_MINIFY_ORIGINAL_SRC,
            corpus::CSS_MINIFY_FUSED_SRC,
            "equivalent",
        ),
        equiv(
            corpus::CYCLETREE_ORIGINAL_SRC,
            corpus::CYCLETREE_FUSED_SRC,
            "equivalent",
        ),
        validity(
            "(forall r (implies (root r) (forall x (reach r x))))",
            "valid",
        ),
        validity("(forall x (leaf x))", "invalid"),
    ]
}

/// Checks one response line against its expectation; returns the drift
/// message on mismatch.
fn check_response(response: &str, expected_verdict: &str) -> Result<(), String> {
    if response.contains(r#""status":"ok""#)
        && response.contains(&format!(r#""verdict":"{expected_verdict}""#))
    {
        Ok(())
    } else {
        Err(format!(
            "expected verdict `{expected_verdict}`, got: {response}"
        ))
    }
}

struct Section {
    client_threads: usize,
    requests: usize,
    wall_seconds: f64,
    throughput_rps: f64,
    p50_us: u64,
    p99_us: u64,
}

/// Runs `rounds` passes over the workload from `threads` client threads
/// against the shared service, collecting per-request latencies.
fn run_section(
    service: &Arc<Service>,
    work: &Arc<Vec<WorkItem>>,
    threads: usize,
    rounds: usize,
    drifted: &Arc<AtomicBool>,
) -> Section {
    let barrier = Arc::new(Barrier::new(threads + 1));
    let mut handles = Vec::new();
    for thread in 0..threads {
        let service = Arc::clone(service);
        let work = Arc::clone(work);
        let barrier = Arc::clone(&barrier);
        let drifted = Arc::clone(drifted);
        handles.push(std::thread::spawn(move || {
            let mut latencies = Vec::with_capacity(rounds * work.len());
            barrier.wait();
            for round in 0..rounds {
                // Stagger thread start positions so concurrent threads hit
                // different cache shards at any instant.
                let offset = (thread * 7 + round) % work.len();
                for i in 0..work.len() {
                    let item = &work[(i + offset) % work.len()];
                    let start = Instant::now();
                    let response = service.handle_line(&item.line);
                    latencies.push(start.elapsed().as_micros() as u64);
                    if let Err(err) = check_response(&response, item.expected_verdict) {
                        if !drifted.swap(true, Ordering::Relaxed) {
                            eprintln!(
                                "bench_service: verdict drift under {threads} threads: {err}"
                            );
                        }
                    }
                }
            }
            latencies
        }));
    }
    barrier.wait();
    let start = Instant::now();
    let mut latencies: Vec<u64> = Vec::new();
    for handle in handles {
        latencies.extend(handle.join().expect("client thread panicked"));
    }
    let wall_seconds = start.elapsed().as_secs_f64();
    latencies.sort_unstable();
    let percentile = |p: f64| -> u64 {
        let idx = ((latencies.len() as f64 - 1.0) * p).round() as usize;
        latencies[idx]
    };
    Section {
        client_threads: threads,
        requests: latencies.len(),
        wall_seconds,
        throughput_rps: latencies.len() as f64 / wall_seconds,
        p50_us: percentile(0.50),
        p99_us: percentile(0.99),
    }
}

/// The cold-burst single-flight check: 8 threads issue the *same* cold
/// query against a fresh service; exactly one engine run may happen, and
/// everyone must receive the same witness.
fn cold_burst(options: &ServeOptions) -> Result<(usize, u64, u64), String> {
    const THREADS: usize = 8;
    let service = Arc::new(Service::new(options));
    let line = Arc::new(format!(
        r#"{{"kind":"race","program":"{}"}}"#,
        json::escape(corpus::CYCLETREE_PARALLEL_SRC)
    ));
    let barrier = Arc::new(Barrier::new(THREADS));
    let mut handles = Vec::new();
    for _ in 0..THREADS {
        let service = Arc::clone(&service);
        let line = Arc::clone(&line);
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            barrier.wait();
            service.handle_line(&line)
        }));
    }
    let responses: Vec<String> = handles
        .into_iter()
        .map(|h| h.join().expect("burst thread panicked"))
        .collect();
    for response in &responses {
        check_response(response, "race")?;
    }
    let serving = service.verifier().serving_stats();
    if serving.engine_runs != 1 {
        return Err(format!(
            "cold burst ran the engine {} times; single-flight must run it once",
            serving.engine_runs
        ));
    }
    // Every lookup counts as exactly one hit or miss; `collisions` is a
    // separate diagnostic and must stay 0 here (all threads send the same
    // query, so no key collision is possible).
    let cache = service.verifier().cache_stats();
    if cache.hits + cache.misses != THREADS as u64 || cache.collisions != 0 {
        return Err(format!(
            "cold burst accounting off: {} hits + {} misses != {THREADS} queries \
             (collisions {})",
            cache.hits, cache.misses, cache.collisions
        ));
    }
    Ok((THREADS, serving.coalesced, cache.hits))
}

/// Outcome of one robustness phase: how many requests were issued and how
/// many hit the phase's event (shed / deadline / warm hit).
struct Phase {
    requests: usize,
    events: u64,
    rate: f64,
}

/// The admission-control phase: a deliberately tiny cold lane (1 worker,
/// 1-slot queue) with every engine run stalled, hammered by concurrent
/// distinct cold queries.  Every response must be either a correct verdict
/// or a typed `overloaded` shed — anything else (a wrong verdict, an
/// untyped error, a hang) fails the run.
fn overload_shed(options: &ServeOptions) -> Result<Phase, String> {
    let sources: [(&str, &str); 6] = [
        (corpus::CYCLETREE_PARALLEL_SRC, "race"),
        (corpus::OVERLAPPING_PARALLEL_SRC, "race"),
        (corpus::DISJOINT_PARALLEL_SRC, "race-free"),
        (corpus::SIZE_COUNTING_PARALLEL_SRC, "race-free"),
        (corpus::SIZE_COUNTING_SEQUENTIAL_SRC, "race-free"),
        (corpus::TREE_MUTATION_ORIGINAL_SRC, "race-free"),
    ];
    let service = Arc::new(Service::new(&ServeOptions {
        workers: 1,
        cold_queue: 1,
        faults: Some(Arc::new(
            FaultPlan::builder(17).engine_stall(1.0, 120).build(),
        )),
        ..options.clone()
    }));
    let barrier = Arc::new(Barrier::new(sources.len()));
    let mut handles = Vec::new();
    for (source, expected) in sources {
        let service = Arc::clone(&service);
        let barrier = Arc::clone(&barrier);
        let line = format!(r#"{{"kind":"race","program":"{}"}}"#, json::escape(source));
        handles.push(std::thread::spawn(move || {
            barrier.wait();
            (service.handle_line(&line), expected)
        }));
    }
    let mut shed = 0u64;
    let mut answered = 0u64;
    for handle in handles {
        let (response, expected) = handle.join().expect("shed client panicked");
        if response.contains(r#""code":"overloaded""#) {
            shed += 1;
        } else {
            check_response(&response, expected).map_err(|err| format!("shed phase: {err}"))?;
            answered += 1;
        }
    }
    if answered == 0 || shed == 0 {
        return Err(format!(
            "shed phase must both answer and shed under a full 1-slot queue \
             (answered {answered}, shed {shed})"
        ));
    }
    Ok(Phase {
        requests: sources.len(),
        events: shed,
        rate: shed as f64 / sources.len() as f64,
    })
}

/// The deadline phase: every engine run stalls far past a short per-query
/// deadline, so every cold query must resolve *typed* — a
/// `deadline_exceeded` error or a correct degraded verdict — never a wrong
/// answer and never a hang.
fn deadline_pressure(options: &ServeOptions) -> Result<Phase, String> {
    let sources: [(&str, &str); 4] = [
        (corpus::CYCLETREE_PARALLEL_SRC, "race"),
        (corpus::OVERLAPPING_PARALLEL_SRC, "race"),
        (corpus::DISJOINT_PARALLEL_SRC, "race-free"),
        (corpus::SIZE_COUNTING_PARALLEL_SRC, "race-free"),
    ];
    let service = Service::new(&ServeOptions {
        deadline_ms: 60,
        faults: Some(Arc::new(
            FaultPlan::builder(23).engine_stall(1.0, 5_000).build(),
        )),
        ..options.clone()
    });
    for (source, expected) in sources {
        let line = format!(r#"{{"kind":"race","program":"{}"}}"#, json::escape(source));
        let response = service.handle_line(&line);
        let degraded_ok =
            response.contains(r#""degraded":true"#) && check_response(&response, expected).is_ok();
        if !response.contains(r#""code":"deadline_exceeded""#) && !degraded_ok {
            return Err(format!(
                "deadline phase: expected a typed deadline_exceeded error or a \
                 correct degraded verdict, got: {response}"
            ));
        }
    }
    let hits = service.verifier().serving_stats().deadline_hits;
    if hits == 0 {
        return Err(String::from(
            "deadline phase: stalled engines under a 60ms deadline recorded no \
             deadline hits",
        ));
    }
    Ok(Phase {
        requests: sources.len(),
        events: hits,
        rate: hits as f64 / sources.len() as f64,
    })
}

/// The crash-recovery phase: serve the whole workload once with a
/// persistent verdict store, drop the service, restart against the same
/// log, and replay the workload.  The restarted service must answer every
/// request from the recovered store — zero engine runs, warm-hit rate
/// exactly 1.0 — or the run fails.
fn cold_restart(options: &ServeOptions, work: &[WorkItem]) -> Result<Phase, String> {
    let path = std::env::temp_dir().join(format!(
        "retreet-bench-service-{}.rslog",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let persisted = ServeOptions {
        persist: Some(path.clone()),
        ..options.clone()
    };
    {
        let service = Service::new(&persisted);
        for item in work {
            let response = service.handle_line(&item.line);
            check_response(&response, item.expected_verdict)
                .map_err(|err| format!("restart phase (first boot): {err}"))?;
        }
        if !service.finish() {
            return Err(String::from(
                "restart phase: first boot missed its drain deadline",
            ));
        }
    }
    let service = Service::new(&persisted);
    let loaded = service
        .verifier()
        .store_stats()
        .map_or(0, |stats| stats.loaded);
    for item in work {
        let response = service.handle_line(&item.line);
        check_response(&response, item.expected_verdict)
            .map_err(|err| format!("restart phase (after restart): {err}"))?;
        if !response.contains(r#""cached":true"#) {
            return Err(format!(
                "restart phase: a recovered verdict was not served as a cache \
                 hit: {response}"
            ));
        }
    }
    let hits = service.verifier().cache_stats().hits;
    let engine_runs = service.verifier().serving_stats().engine_runs;
    let _ = std::fs::remove_file(&path);
    if engine_runs != 0 {
        return Err(format!(
            "restart phase: the restarted service re-ran {engine_runs} engine \
             dispatch(es); the recovered store ({loaded} verdicts) must answer \
             everything"
        ));
    }
    let rate = hits as f64 / work.len() as f64;
    if rate < 1.0 {
        return Err(format!(
            "restart phase: warm-hit rate {rate:.4} after restart; every replayed \
             request must hit the recovered store"
        ));
    }
    Ok(Phase {
        requests: work.len(),
        events: hits,
        rate,
    })
}

fn main() {
    let flags = Flags::parse(
        "bench_service",
        "bench_service [--quick] [--out PATH] [--ceiling-seconds S] [--rounds N] [--min-scaling F]",
        &["--quick"],
        &["--out", "--ceiling-seconds", "--rounds", "--min-scaling"],
    );
    let quick = flags.switch("--quick");
    let out = flags.get_or("--out", String::from("BENCH_service.json"));
    let ceiling_seconds = flags.get_or("--ceiling-seconds", 120.0);
    let rounds = match flags.get_or("--rounds", 0) {
        0 if quick => 20,
        0 => 60,
        rounds => rounds,
    };
    let min_scaling = flags.get_or("--min-scaling", 0.0);

    let options = if quick {
        ServeOptions {
            race_nodes: 3,
            equiv_nodes: 4,
            validity_nodes: 4,
            valuations: 1,
            ..ServeOptions::default()
        }
    } else {
        ServeOptions::default()
    };
    let budget_label = if quick { "quick" } else { "full" };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    // Warm start: preload the corpus, then one single-threaded correctness
    // pass over the full workload (which also warms the two validity
    // entries the preload does not cover).
    let service = Arc::new(Service::new(&options));
    let preloaded = service.warm_start();
    let work = Arc::new(workload());
    let mut failed = false;
    for item in work.iter() {
        let response = service.handle_line(&item.line);
        if let Err(err) = check_response(&response, item.expected_verdict) {
            eprintln!("bench_service: verdict drift (single-threaded): {err}");
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }

    println!("== warm-cache serving throughput ({budget_label} budget, {cores} core(s)) ==");
    println!(
        "{:>7} {:>10} {:>9} {:>12} {:>9} {:>9}",
        "threads", "requests", "wall (s)", "rps", "p50 (us)", "p99 (us)"
    );
    let drifted = Arc::new(AtomicBool::new(false));
    let mut sections = Vec::new();
    for threads in [1usize, 4, 8] {
        let section = run_section(&service, &work, threads, rounds, &drifted);
        println!(
            "{:>7} {:>10} {:>9.3} {:>12.0} {:>9} {:>9}",
            section.client_threads,
            section.requests,
            section.wall_seconds,
            section.throughput_rps,
            section.p50_us,
            section.p99_us
        );
        if section.wall_seconds > ceiling_seconds {
            eprintln!(
                "bench_service: {} threads took {:.2}s, over the {:.0}s ceiling",
                threads, section.wall_seconds, ceiling_seconds
            );
            failed = true;
        }
        sections.push(section);
    }
    if drifted.load(Ordering::Relaxed) {
        failed = true;
    }

    let burst = match cold_burst(&options) {
        Ok(burst) => burst,
        Err(err) => {
            eprintln!("bench_service: {err}");
            std::process::exit(1);
        }
    };
    println!(
        "cold burst: {} threads, 1 engine run, {} coalesced, {} cache hits",
        burst.0, burst.1, burst.2
    );

    // Robustness phases (schema v2): each runs against a fresh service so
    // its stats don't pollute the warm-cache numbers above.
    let shed = match overload_shed(&options) {
        Ok(phase) => phase,
        Err(err) => {
            eprintln!("bench_service: {err}");
            std::process::exit(1);
        }
    };
    println!(
        "overload: {} requests, {} shed (shed rate {:.4})",
        shed.requests, shed.events, shed.rate
    );
    let deadline = match deadline_pressure(&options) {
        Ok(phase) => phase,
        Err(err) => {
            eprintln!("bench_service: {err}");
            std::process::exit(1);
        }
    };
    println!(
        "deadline: {} requests, {} deadline hits (hit rate {:.4})",
        deadline.requests, deadline.events, deadline.rate
    );
    let restart = match cold_restart(&options, &work) {
        Ok(phase) => phase,
        Err(err) => {
            eprintln!("bench_service: {err}");
            std::process::exit(1);
        }
    };
    println!(
        "cold restart: {} requests, {} warm hits (warm-hit rate {:.4})",
        restart.requests, restart.events, restart.rate
    );

    let cache = service.verifier().cache_stats();
    let serving = service.verifier().serving_stats();
    let hit_rate = cache.hits as f64 / (cache.hits + cache.misses).max(1) as f64;
    let coalescing_rate = serving.coalesced as f64 / service.requests_handled().max(1) as f64;
    let scaling = sections[2].throughput_rps / sections[0].throughput_rps;
    println!(
        "hit rate {:.4}, coalescing rate {:.4}, 8-thread scaling {scaling:.2}x",
        hit_rate, coalescing_rate
    );

    let section = |s: &Section| {
        object! {
            "client_threads": s.client_threads, "requests": s.requests,
            "wall_seconds": num(s.wall_seconds, 4), "throughput_rps": num(s.throughput_rps, 0),
            "p50_us": s.p50_us, "p99_us": s.p99_us,
        }
    };
    let report = object! {
        "schema": "retreet-bench-service/v2",
        "methodology": "warm-cache NDJSON serving: corpus preloaded via warm_start, then N client \
            threads replay the full §5 request mix (race + equivalence + validity) against one \
            shared Service; every response is checked against the paper's verdict; latencies \
            are per-request wall clock including JSON parse; the cold burst issues one identical \
            cold query from 8 threads and asserts exactly one engine run (single-flight); v2 \
            adds three fresh-service robustness phases: shed rate under a full 1-slot cold queue \
            with stalled engines, deadline-hit rate with engines stalled past a 60ms per-query \
            deadline, and the warm-hit rate after a cold restart from the persisted verdict \
            store (must be 1.0 with zero engine runs)",
        "cores": cores,
        "budget": object! {
            "label": budget_label, "race_nodes": options.race_nodes,
            "equiv_nodes": options.equiv_nodes, "validity_nodes": options.validity_nodes,
            "valuations": options.valuations,
        },
        "warm_start_preloaded": preloaded,
        "sections": array(sections.iter().map(section)),
        "scaling_8_over_1": num(scaling, 3),
        "cold_burst": object! {
            "threads": burst.0, "engine_runs": 1usize, "coalesced": burst.1, "cache_hits": burst.2,
        },
        "cache": object! {
            "hits": cache.hits, "misses": cache.misses, "collisions": cache.collisions,
            "entries": cache.entries, "hit_rate": num(hit_rate, 4),
        },
        "serving": object! {
            "engine_runs": serving.engine_runs, "cancelled_runs": serving.cancelled_runs,
            "coalesced": serving.coalesced, "panicked_runs": serving.panicked_runs,
            "deadline_hits": serving.deadline_hits, "degraded": serving.degraded,
            "coalescing_rate": num(coalescing_rate, 4),
        },
        "robustness": object! {
            "shed": object! {
                "requests": shed.requests, "shed": shed.events, "shed_rate": num(shed.rate, 4),
            },
            "deadline": object! {
                "requests": deadline.requests, "deadline_hits": deadline.events,
                "deadline_hit_rate": num(deadline.rate, 4),
            },
            "cold_restart": object! {
                "requests": restart.requests, "warm_hits": restart.events,
                "warm_hit_rate": num(restart.rate, 4),
            },
        },
    };
    flags.write_report(&out, &report);

    if scaling < min_scaling {
        eprintln!(
            "bench_service: 8-thread scaling {scaling:.2}x below the required {:.2}x",
            min_scaling
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
