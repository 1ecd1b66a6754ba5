//! The benchmark's own oracles, tested: the golden `run` answers, the
//! α-renaming generator, the response checker, the percentile rule and
//! the server CPU sampling.
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`
//! (the golden check interprets 48 trees of up to 65,535 nodes).

use retreet_serve::{ServeOptions, Service};
use retreet_verify::{Query, Verifier, Warmth};

use std::time::Duration;

use crate::check::{check, Checked};
use crate::e2e::percentile;
use crate::server;
use crate::trace::verdict_word;
use crate::workload::{
    self, alpha_rename, fields_digest, golden, mix, round_slots, Expect, MixKind, Payload, Request,
    RequestStream, Workload, MIX_LEN, RUN_PROGRAMS, VALUATIONS,
};

#[test]
fn golden_returns_are_the_reference_interpreters() {
    assert_eq!(
        workload::golden_table(),
        workload::GOLDEN_TABLE,
        "golden_returns.txt is stale: regenerate it with `perfbench goldens`"
    );
    for program in RUN_PROGRAMS {
        for valuation in VALUATIONS {
            assert!(golden(program.name, valuation).is_some());
        }
    }
}

#[test]
fn field_digests_see_what_a_run_wrote() {
    let mut writers = 0;
    for program in RUN_PROGRAMS {
        let parsed = retreet_lang::parse_program(program.source).expect("corpus program parses");
        let input = workload::run_tree(&parsed, &program, VALUATIONS[1]);
        let written = retreet_analysis::interp::run(&parsed, &input)
            .expect("reference interpreter runs")
            .tree;
        let golden = golden(program.name, VALUATIONS[1]).expect("a golden answer");
        assert_eq!(fields_digest(&written, &parsed), golden.fields);
        let wrote = written.field_snapshot() != input.field_snapshot();
        assert_eq!(fields_digest(&input, &parsed) != golden.fields, wrote);
        if let (true, Some(field)) = (wrote, retreet_codegen::program_fields(&parsed).first()) {
            writers += 1;
            // One field of one node off by one is caught.
            let mut off = written.clone();
            let node = off.nodes().last().expect("a non-empty tree");
            off.set_field(node, field, off.field(node, field) + 1);
            assert_ne!(
                fields_digest(&off, &parsed),
                golden.fields,
                "{}",
                program.name
            );
        }
    }
    assert!(writers >= 4, "only {writers} run programs write fields");
}

#[test]
fn mix_matches_its_constants() {
    let mix = mix();
    assert_eq!(mix.len(), MIX_LEN);
    assert_eq!(mix[MIX_LEN - 2].label, "E3");
    assert_eq!(mix[MIX_LEN - 1].label, "E4a");
    for workload in Workload::ALL {
        let slots = round_slots(workload);
        let bound = match workload {
            Workload::RunExec => RUN_PROGRAMS.len(),
            Workload::WarmVerify | Workload::ColdVerify => MIX_LEN,
        };
        assert!(slots.iter().all(|&slot| slot < bound));
        for slot in 0..bound {
            assert!(
                slots.contains(&slot),
                "{} never sends slot {slot}",
                workload.name()
            );
        }
    }
}

#[test]
fn alpha_renaming_touches_functions_and_fields_only() {
    let source = "fn Main(n) { x = Walk(n.l); n.v = n.l.best + x; return x; }\n\
                  fn Walk(n) { if (n == nil) { return 0; } else { return n.c1.w + 2; } }";
    assert_eq!(
        alpha_rename(source, "_z"),
        "fn Main(n) { x = Walk_z(n.l); n.v_z = n.l.best_z + x; return x; }\n\
         fn Walk_z(n) { if (n == nil) { return 0; } else { return n.c1.w_z + 2; } }"
    );
}

/// The verifier of the quick budget: the smallest trees the paper
/// verdicts still show on.
fn quick_verifier() -> Verifier {
    Verifier::builder()
        .race_nodes(3)
        .equiv_nodes(4)
        .valuations(1)
        .build()
}

fn programs(request: &Request) -> Vec<retreet_lang::ast::Program> {
    let sources: Vec<&String> = match &request.payload {
        Payload::Race(source) => vec![source],
        Payload::Equivalence(original, transformed) => vec![original, transformed],
        Payload::Run(..) => unreachable!("cold requests verify"),
    };
    sources
        .into_iter()
        .map(|source| {
            let program = retreet_lang::parse_program(source).unwrap_or_else(|err| {
                panic!("{}: renamed program does not parse: {err}", request.label)
            });
            let errors = retreet_lang::validate(&program);
            assert!(errors.is_empty(), "{}: {errors:?}", request.label);
            program
        })
        .collect()
}

fn query(programs: &[retreet_lang::ast::Program]) -> Query<'_> {
    match programs {
        [program] => Query::DataRace(program),
        [original, transformed] => Query::Equivalence(original, transformed),
        _ => unreachable!("one or two programs"),
    }
}

#[test]
fn renamed_queries_parse_miss_the_cache_and_keep_their_verdicts() {
    let warm = Service::new(&ServeOptions::default());
    assert_eq!(warm.warm_start(), MIX_LEN);
    let verifier = warm.verifier();
    let quick = quick_verifier();
    let round = round_slots(Workload::ColdVerify).len();
    for seed in [1, 2] {
        let entries_before = quick.cache_stats().entries;
        let requests: Vec<Request> = RequestStream::new(Workload::ColdVerify, seed, 0)
            .take(round)
            .collect();
        for request in &requests {
            let programs = programs(request);
            let Expect::Verdict { verdict, .. } = request.expect else {
                panic!("cold requests expect verdicts");
            };
            assert_eq!(
                verifier.probe(&query(&programs)),
                Warmth::Cold,
                "{} hits the cache warm with the originals",
                request.label
            );
            let answer = quick
                .verify(query(&programs))
                .expect("renamed queries verify");
            let word = verdict_word(&answer.outcome);
            assert_eq!(word, verdict, "{} changed its verdict", request.label);
        }
        // Every request of the round got a cache entry of its own: none
        // matched the key of another request answered before it.
        assert_eq!(quick.cache_stats().entries - entries_before, requests.len());
    }
}

#[test]
fn request_streams_are_deterministic_per_seed() {
    for workload in Workload::ALL {
        let lines = |seed| -> Vec<String> {
            RequestStream::new(workload, seed, 0)
                .take(40)
                .map(|r| r.line)
                .collect()
        };
        assert_eq!(lines(7), lines(7), "{}", workload.name());
        assert_ne!(lines(7), lines(8), "{}", workload.name());
    }
}

#[test]
fn cold_requests_rename_both_sides_of_a_pair_alike() {
    for request in RequestStream::new(Workload::ColdVerify, 3, 0).take(MIX_LEN * 2) {
        if let Payload::Equivalence(original, transformed) = &request.payload {
            let source = mix()
                .into_iter()
                .find(|q| q.label == request.label)
                .expect("a mix query");
            let MixKind::Equivalence(a, _) = source.kind else {
                panic!("pairs stay pairs");
            };
            assert_ne!(original, a);
            assert!(original.contains("_s3q") && transformed.contains("_s3q"));
        }
    }
}

#[test]
fn checker_separates_failures_from_wrong_answers() {
    let expect = Expect::Verdict {
        kind: "race",
        verdict: "race-free",
        cached: true,
    };
    let ok = r#"{"status":"ok","kind":"race","verdict":"race-free","cached":true,"elapsed_us":5}"#;
    assert_eq!(check(ok, &expect), (Checked::Ok, Some(5.0)));
    let wrong = r#"{"status":"ok","kind":"race","verdict":"race","cached":true}"#;
    assert!(matches!(check(wrong, &expect).0, Checked::Wrong(_)));
    let uncached = r#"{"status":"ok","kind":"race","verdict":"race-free","cached":false}"#;
    assert!(matches!(check(uncached, &expect).0, Checked::Wrong(_)));
    let shed = r#"{"status":"error","code":"overloaded","error":"full"}"#;
    assert_eq!(
        check(shed, &expect).0,
        Checked::Failed(String::from("overloaded"))
    );

    let run = Request::run(RUN_PROGRAMS[5], VALUATIONS[0]);
    let Expect::Run { returns, nodes, .. } = &run.expect else {
        panic!("run requests expect returns");
    };
    let good = format!(
        r#"{{"status":"ok","kind":"run","tier":"vm","returns":[{}],"nodes":{nodes}}}"#,
        returns[0]
    );
    assert_eq!(check(&good, &run.expect).0, Checked::Ok);
    let off = format!(
        r#"{{"status":"ok","kind":"run","tier":"vm","returns":[{}],"nodes":{nodes}}}"#,
        returns[0] + 1
    );
    assert!(matches!(check(&off, &run.expect).0, Checked::Wrong(_)));
    let interpreted = good.replace("\"vm\"", "\"interpreter\"");
    assert!(matches!(
        check(&interpreted, &run.expect).0,
        Checked::Wrong(_)
    ));
}

#[test]
fn percentiles_need_ten_samples_beyond() {
    let values: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&values, 0.5), Some(50.0));
    assert_eq!(percentile(&values, 0.9), Some(90.0));
    assert_eq!(percentile(&values[..99], 0.9), None);
}

#[test]
fn server_cpu_counts_threads_that_have_exited() {
    let pid = std::process::id();
    let before = server::cpu_ns(pid).expect("own stat is readable");
    // Burn 300 ms of this thread's own CPU time, then exit.
    std::thread::spawn(|| {
        let own = || -> u64 {
            std::fs::read_to_string("/proc/thread-self/schedstat")
                .ok()
                .and_then(|text| text.split_whitespace().next()?.parse().ok())
                .expect("thread schedstat is readable")
        };
        let start = own();
        let mut spins = 0u64;
        while own() - start < 300_000_000 {
            spins = std::hint::black_box(spins.wrapping_add(1));
        }
    })
    .join()
    .expect("burner thread finished");
    let burnt = server::cpu_ns(pid).expect("own stat is readable") - before;
    // Ticks are 10 ms; other tests only add to the total.
    assert!(
        burnt >= Duration::from_millis(280).as_nanos() as u64,
        "an exited thread's CPU time went missing: {burnt} ns counted"
    );
}
