//! The traced run: the workload's seeded requests go over TCP once more,
//! then through an in-process `Service::handle_line` (untraced), then
//! through the layers' public functions one by one with a span around
//! each call.  Per-layer metrics are read off the spans.
//!
//! Spans are kept in memory and written to `<scratch>/spans-*.jsonl`
//! when the run ends.  Layers a workload does not reach on its own path
//! are measured on a reference slice of the workload that does (the
//! `run-exec` programs, the cold α-renamed mix, the warm mix), generated
//! from the same seed, so every traced run reports every layer; `NOTES.md`
//! lists which layers are on each workload's path.

use std::io::Write;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use retreet_analysis::{corresp, equiv, race, summary};
use retreet_codegen::{compile_with_lowering, FlatTree, Vm};
use retreet_lang::ast::Program;
use retreet_runtime::exec::ProgramExecutor;
use retreet_serve::{json, ServeOptions, Service};
use retreet_verify::{Engine, Outcome, Query, Verifier, Warmth};

use crate::check::{check, Checked};
use crate::e2e::{self, Env};
use crate::workload::{self, Expect, Payload, Request, RequestStream, Workload};
use crate::{quoted, tally, Args, Metric, Report};

/// Share of `--seconds` spent driving the server over TCP.
const TCP_SHARE: f64 = 0.4;

/// Share of `--seconds` the traced replay may use beyond its first
/// complete round.
const REPLAY_SHARE: f64 = 0.4;

/// One timed call at a layer boundary.
#[derive(Debug, Clone)]
struct Span {
    /// The replayed request the call belongs to.
    request: usize,
    name: &'static str,
    /// Index of the enclosing span, if any.
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
    /// Tree nodes processed (VM spans), for the per-node rate.
    nodes: u64,
}

/// An in-memory span recorder.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::close`].
    fn open(&mut self, request: usize, name: &'static str, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            request,
            name,
            parent,
            start_ns,
            end_ns: start_ns,
            nodes: 0,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, span: usize) {
        self.spans[span].end_ns = self.now_ns();
    }

    /// Times `call` as one span.
    fn time<T>(
        &mut self,
        request: usize,
        name: &'static str,
        parent: Option<usize>,
        call: impl FnOnce() -> T,
    ) -> T {
        let span = self.open(request, name, parent);
        let result = std::hint::black_box(call());
        self.close(span);
        result
    }

    /// Median duration of the spans named `name`, in µs.
    fn median_us(&self, name: &str) -> Option<f64> {
        let durations: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect();
        (!durations.is_empty()).then(|| e2e::median(&durations))
    }

    fn write(&self, path: &std::path::Path) -> Result<(), String> {
        let mut out = std::io::BufWriter::new(
            std::fs::File::create(path)
                .map_err(|err| format!("cannot create {}: {err}", path.display()))?,
        );
        for span in &self.spans {
            let parent = span.parent.map_or(String::from("null"), |p| p.to_string());
            writeln!(
                out,
                "{{\"request\":{},\"name\":\"{}\",\"parent\":{},\"start_ns\":{},\"end_ns\":{},\"nodes\":{}}}",
                span.request, span.name, parent, span.start_ns, span.end_ns, span.nodes
            )
            .map_err(|err| format!("cannot write spans: {err}"))?;
        }
        out.flush()
            .map_err(|err| format!("cannot write spans: {err}"))
    }
}

/// The verdict word the service renders for `outcome`.
pub fn verdict_word(outcome: &Outcome) -> &'static str {
    match outcome {
        Outcome::RaceFree { .. } => "race-free",
        Outcome::Race(_) => "race",
        Outcome::Equivalent { .. } => "equivalent",
        Outcome::NotEquivalent(_) => "not-equivalent",
        Outcome::Valid { .. } => "valid",
        Outcome::Invalid(_) => "invalid",
    }
}

/// The layers' state for the replay: a service verifier in the same state
/// as the server's (warm-started, persisted), single-engine verifiers with
/// the cache off, and a VM.
struct Layers {
    tracer: Tracer,
    service: Service,
    _store: StoreFile,
    engines: Vec<(&'static str, Verifier)>,
    vm: Vm,
    wrong: Vec<String>,
}

/// A verifier with the server's default budget running only `engine`, with
/// the cache off so every call does the engine's work.
fn single_engine(engine: Engine) -> Verifier {
    let options = ServeOptions::default();
    Verifier::builder()
        .race_nodes(options.race_nodes)
        .equiv_nodes(options.equiv_nodes)
        .validity_nodes(options.validity_nodes)
        .valuations(options.valuations)
        .engines([engine])
        .cache_capacity(0)
        .build()
}

fn record(wrong: &mut Vec<String>, request: &Request, why: String) {
    wrong.push(format!("{}: {why}", request.label));
}

fn expect_verdict(
    wrong: &mut Vec<String>,
    request: &Request,
    who: &str,
    result: &Result<retreet_verify::Verdict, retreet_verify::VerifyError>,
    verdict: &str,
) {
    match result {
        Ok(got) if verdict_word(&got.outcome) == verdict => {}
        Ok(got) => record(
            wrong,
            request,
            format!("{who} answered {}", verdict_word(&got.outcome)),
        ),
        Err(err) => record(wrong, request, format!("{who} failed: {err}")),
    }
}

impl Layers {
    fn new(env: &Env) -> Result<Layers, String> {
        let (service, store) = in_process_service(env, "layers")?;
        Ok(Layers {
            tracer: Tracer::new(),
            service,
            _store: store,
            engines: vec![
                ("verify.engine.automata_us", single_engine(Engine::Automata)),
                (
                    "verify.engine.configuration_us",
                    single_engine(Engine::Configuration),
                ),
                ("verify.engine.trace_us", single_engine(Engine::Trace)),
            ],
            vm: Vm::new(),
            wrong: Vec::new(),
        })
    }

    /// Replays one request through the layers.  The calls the server makes
    /// for it sit under one `request` span; the calls that split the work
    /// further (compiling from scratch, single engines, analyses) are
    /// spans of their own outside it.
    fn replay(&mut self, id: usize, request: &Request) {
        let compiled = match &request.payload {
            Payload::Run(program, _) => {
                let parsed =
                    retreet_lang::parse_program(program.source).expect("corpus programs parse");
                // A fresh verifier, so lowering certification is not
                // served from a cache — as on the server's first sight.
                let verifier = ServeOptions::default().build_verifier();
                let compiled = self
                    .tracer
                    .time(id, "codegen.compile_us", None, || {
                        compile_with_lowering(&verifier, &parsed)
                    })
                    .expect("workload programs compile");
                Some(compiled)
            }
            Payload::Race(_) | Payload::Equivalence(..) => None,
        };
        let root = self.tracer.open(id, "request", None);
        self.tracer
            .time(id, "serve.json_parse_us", Some(root), || {
                json::parse(&request.line)
            })
            .expect("generated request lines are JSON");
        match &request.payload {
            Payload::Race(source) => {
                let program = self.parse(id, root, source);
                self.verify(id, root, request, Query::DataRace(&program));
            }
            Payload::Equivalence(original, transformed) => {
                let original = self.parse(id, root, original);
                let transformed = self.parse(id, root, transformed);
                self.verify(
                    id,
                    root,
                    request,
                    Query::Equivalence(&original, &transformed),
                );
            }
            Payload::Run(program, valuation) => {
                let parsed = self.parse(id, root, program.source);
                let compiled = compiled.expect("compiled above");
                self.run(id, root, request, &parsed, &compiled, program, *valuation);
            }
        }
    }

    fn parse(&mut self, id: usize, root: usize, source: &str) -> Program {
        let program = self
            .tracer
            .time(id, "lang.parse_us", Some(root), || {
                retreet_lang::parse_program(source)
            })
            .expect("generated programs parse");
        let errors = self.tracer.time(id, "lang.validate_us", Some(root), || {
            retreet_lang::validate(&program)
        });
        assert!(errors.is_empty(), "generated programs validate: {errors:?}");
        program
    }

    /// The verification path: probe, then a hit or a miss through the
    /// service's verifier.  After a miss come, outside the request span, a
    /// second lookup (now a hit), every single engine that supports the
    /// query and the analyses behind them.
    fn verify(&mut self, id: usize, root: usize, request: &Request, query: Query<'_>) {
        let Expect::Verdict { verdict, .. } = &request.expect else {
            unreachable!("verification requests expect verdicts");
        };
        let verifier = self.service.verifier();
        let tracer = &mut self.tracer;
        let wrong = &mut self.wrong;
        let warmth = tracer.time(id, "verify.probe_us", Some(root), || verifier.probe(&query));
        let name = if warmth == Warmth::Cold {
            "verify.miss_us"
        } else {
            "verify.hit_us"
        };
        let result = tracer.time(id, name, Some(root), || verifier.verify(query));
        tracer.close(root);
        expect_verdict(wrong, request, "portfolio", &result, verdict);
        if warmth != Warmth::Cold {
            return;
        }
        let again = tracer.time(id, "verify.hit_us", None, || verifier.verify(query));
        expect_verdict(wrong, request, "cached lookup", &again, verdict);
        for (name, engine) in &self.engines {
            if !engine.engines()[0].supports(query.kind()) {
                continue;
            }
            let result = tracer.time(id, name, None, || engine.verify(query));
            expect_verdict(wrong, request, name, &result, verdict);
        }
        let config = verifier.config();
        match query {
            Query::DataRace(program) => {
                let structural = tracer.time(id, "analysis.summary_us", None, || {
                    summary::structural_race_analysis(program)
                });
                if structural.is_race_free() && *verdict != "race-free" {
                    record(
                        wrong,
                        request,
                        String::from("summaries proved race-freedom"),
                    );
                }
                let bounded = tracer.time(id, "analysis.race_bounded_us", None, || {
                    race::check_data_race(program, &config.race_options())
                });
                if !bounded.is_race_free() && *verdict != "race" {
                    record(wrong, request, String::from("bounded search found a race"));
                }
            }
            Query::Equivalence(original, transformed) => {
                let matched = tracer.time(id, "analysis.corresp_us", None, || {
                    corresp::check_fusion_correspondence(original, transformed)
                });
                if matched.is_established() && *verdict != "equivalent" {
                    record(wrong, request, String::from("correspondence established"));
                }
                let bounded = tracer.time(id, "analysis.equiv_bounded_us", None, || {
                    equiv::check_equivalence(original, transformed, &config.equiv_options())
                });
                if !bounded.is_equivalent() && *verdict != "not-equivalent" {
                    record(
                        wrong,
                        request,
                        String::from("bounded search found a counterexample"),
                    );
                }
            }
            Query::Validity(_) => {}
        }
    }

    /// The `run` path: build and fill the tree, flatten it, run the VM,
    /// write the columns back.  After it, outside the request span: building
    /// an executor (fresh verifier) and the executor's own `run`.
    #[allow(clippy::too_many_arguments)]
    fn run(
        &mut self,
        id: usize,
        root: usize,
        request: &Request,
        parsed: &Program,
        compiled: &retreet_codegen::CompiledProgram,
        program: &workload::RunProgram,
        valuation: u64,
    ) {
        let Expect::Run {
            returns, fields, ..
        } = &request.expect
        else {
            unreachable!("run requests expect returns");
        };
        let tracer = &mut self.tracer;
        let tree = tracer.time(id, "analysis.tree_build_us", Some(root), || {
            workload::run_tree(parsed, program, valuation)
        });
        let mut flat = tracer.time(id, "codegen.flatten_us", Some(root), || {
            FlatTree::from_value_tree_kary(&tree, &compiled.fields, compiled.arity)
        });
        let vm = &mut self.vm;
        let vm_span = tracer.open(id, "codegen.vm_us", Some(root));
        let got = std::hint::black_box(vm.run_flat(compiled, &mut flat));
        tracer.close(vm_span);
        tracer.spans[vm_span].nodes = tree.len() as u64;
        let written = tracer.time(id, "codegen.write_back_us", Some(root), || {
            flat.write_back(&tree, &compiled.fields)
        });
        tracer.close(root);
        let wrong = &mut self.wrong;
        match got {
            Ok(got) if &got == returns => {}
            Ok(got) => record(
                wrong,
                request,
                format!("VM returned {got:?}, golden {returns:?}"),
            ),
            Err(err) => record(wrong, request, format!("VM failed: {err}")),
        }
        expect_fields(wrong, request, "VM", &written, parsed, *fields);

        let verifier = ServeOptions::default().build_verifier();
        let executor = tracer.time(id, "runtime.executor_build_us", None, || {
            ProgramExecutor::with_verifier(&verifier, parsed)
        });
        let outcome = tracer.time(id, "runtime.run_us", None, || executor.run(&tree));
        match outcome {
            Ok(outcome) => {
                if &outcome.returns != returns {
                    record(
                        wrong,
                        request,
                        format!(
                            "executor returned {:?}, golden {returns:?}",
                            outcome.returns
                        ),
                    );
                }
                expect_fields(wrong, request, "executor", &outcome.tree, parsed, *fields);
            }
            Err(err) => record(wrong, request, format!("executor failed: {err}")),
        }
    }
}

/// Checks the fields a run wrote against the reference interpreter's
/// digest.
fn expect_fields(
    wrong: &mut Vec<String>,
    request: &Request,
    who: &str,
    tree: &retreet_analysis::vtree::ValueTree,
    parsed: &Program,
    golden: u64,
) {
    let got = workload::fields_digest(tree, parsed);
    if got != golden {
        record(
            wrong,
            request,
            format!("{who} wrote fields with digest {got:016x}, golden {golden:016x}"),
        );
    }
}

fn micros(duration: Duration) -> f64 {
    duration.as_secs_f64() * 1e6
}

/// A store file removed when dropped.
struct StoreFile(PathBuf);

impl Drop for StoreFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// An in-process service configured like the spawned server (defaults,
/// a fresh store file, warm start), with the guard of its store file.
fn in_process_service(env: &Env, tag: &str) -> Result<(Service, StoreFile), String> {
    let store = StoreFile(env.store_file(tag));
    let _ = std::fs::remove_file(&store.0);
    let service = Service::try_new(&ServeOptions {
        persist: Some(store.0.clone()),
        ..ServeOptions::default()
    })
    .map_err(|err| format!("in-process service: {err}"))?;
    service.warm_start();
    Ok((service, store))
}

/// The first complete round of another workload's stream under `seed`:
/// the reference slice for layers `workload` does not reach.
fn reference_round(other: Workload, seed: u64) -> Vec<Request> {
    let round = workload::round_slots(other).len();
    RequestStream::new(other, seed, 0).take(round).collect()
}

/// The traced run of `args.workload`.
pub fn run(args: &Args, env: &Env, nproc: usize) -> Result<Report, String> {
    let workload = args.workload;

    // 1. Over TCP, as in the end-to-end run, keeping each request's latency.
    let mut warm = e2e::start(env, workload, "trace")?;
    let round = workload::round_slots(workload).len();
    let phase = e2e::drive(
        &mut warm,
        workload,
        args.seed,
        args.seconds * TCP_SHARE,
        nproc,
        round,
    )?;
    warm.server.shutdown(&mut warm.control)?;
    let attempted = phase.samples.len();
    let (failed, mut wrong) = tally(&phase.samples);
    let violations = e2e::path_violations(workload, attempted as u64, &phase.counters);
    for violation in &violations {
        eprintln!("perfbench: {} left its path: {violation}", workload.name());
    }

    // 2. The same requests through an untraced in-process `handle_line`.
    let (service, store) = in_process_service(env, "handle")?;
    for request in workload::warm_up(workload) {
        service.handle_line(&request.line);
    }
    let mut handle_us = Vec::with_capacity(attempted);
    let mut transport_us = Vec::with_capacity(attempted);
    for sample in &phase.samples {
        let started = Instant::now();
        let response = service.handle_line(&sample.request.line);
        let took = started.elapsed();
        if let (Checked::Wrong(why), _) = check(&response, &sample.request.expect) {
            wrong += 1;
            eprintln!(
                "perfbench: WRONG in-process answer to {}: {why}",
                sample.request.label
            );
        }
        handle_us.push(micros(took));
        transport_us.push(micros(sample.latency) - micros(took));
    }
    service.finish();
    drop((service, store));

    // 3. The same requests again, layer by layer, under spans; then the
    //    reference rounds for the layers this workload does not reach.
    let mut layers = Layers::new(env)?;
    let budget = Duration::from_secs_f64(args.seconds * REPLAY_SHARE);
    let replay_started = Instant::now();
    let mut replayed = 0;
    for (index, sample) in phase.samples.iter().enumerate() {
        if index >= round && replay_started.elapsed() >= budget {
            break;
        }
        layers.replay(index, &sample.request);
        replayed += 1;
    }
    let on_path_spans = layers.tracer.spans.len();
    let references: &[Workload] = match workload {
        Workload::WarmVerify => &[Workload::ColdVerify, Workload::RunExec],
        Workload::ColdVerify => &[Workload::RunExec],
        Workload::RunExec => &[Workload::WarmVerify, Workload::ColdVerify],
    };
    let mut id = attempted;
    for other in references {
        for request in reference_round(*other, args.seed) {
            layers.replay(id, &request);
            id += 1;
        }
    }
    for why in &layers.wrong {
        eprintln!("perfbench: WRONG layer answer to {why}");
    }
    wrong += layers.wrong.len();
    let tracer = &layers.tracer;
    let replay_us: Vec<f64> = tracer.spans[..on_path_spans]
        .iter()
        .filter(|s| s.name == "request")
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
        .collect();
    let vm_ns_per_node: Vec<f64> = tracer
        .spans
        .iter()
        .filter(|s| s.name == "codegen.vm_us" && s.nodes > 0)
        .map(|s| (s.end_ns - s.start_ns) as f64 / s.nodes as f64)
        .collect();
    let spans_path = env
        .scratch
        .join(format!("spans-{}-seed{}.jsonl", workload.name(), args.seed));
    tracer.write(&spans_path)?;

    let mut metrics = vec![
        Metric {
            name: "serve.transport_us",
            value: e2e::median(&transport_us),
            unit: "us",
        },
        Metric {
            name: "serve.handle_line_us",
            value: e2e::median(&handle_us),
            unit: "us",
        },
        Metric {
            name: "trace.replay_us",
            value: e2e::median(&replay_us),
            unit: "us",
        },
    ];
    for name in LAYER_SPANS {
        let value = tracer
            .median_us(name)
            .ok_or_else(|| format!("no `{name}` span was recorded"))?;
        metrics.push(Metric {
            name,
            value,
            unit: "us",
        });
    }
    metrics.push(Metric {
        name: "codegen.vm_ns_per_node",
        value: e2e::median(&vm_ns_per_node),
        unit: "ns",
    });
    let counts = &phase.counters;
    for (name, value, unit) in [
        ("verify.cache_hit_ratio", counts.hit_ratio(), "ratio"),
        ("verify.engine_runs", counts.engine_runs as f64, "count"),
        ("sched.shed", counts.shed as f64, "count"),
        ("codegen.vm_runs", counts.vm_runs as f64, "count"),
        ("store.appends", counts.appends as f64, "count"),
    ] {
        metrics.push(Metric { name, value, unit });
    }

    let mut meta = crate::common_meta(args, nproc);
    meta.extend([
        ("connections", phase.connections.to_string()),
        ("tcp_samples", attempted.to_string()),
        ("replayed_requests", replayed.to_string()),
        (
            "reference_workloads",
            format!(
                "[{}]",
                references
                    .iter()
                    .map(|w| quoted(w.name()))
                    .collect::<Vec<_>>()
                    .join(",")
            ),
        ),
        ("spans", tracer.spans.len().to_string()),
        ("spans_file", quoted(&spans_path.display().to_string())),
    ]);
    Ok(Report {
        correct: wrong == 0 && violations.is_empty(),
        attempted,
        failed,
        metrics,
        meta,
    })
}

/// Layer spans reported as median µs per call.
const LAYER_SPANS: [&str; 20] = [
    "serve.json_parse_us",
    "lang.parse_us",
    "lang.validate_us",
    "verify.probe_us",
    "verify.hit_us",
    "verify.miss_us",
    "verify.engine.automata_us",
    "verify.engine.configuration_us",
    "verify.engine.trace_us",
    "analysis.summary_us",
    "analysis.corresp_us",
    "analysis.race_bounded_us",
    "analysis.equiv_bounded_us",
    "analysis.tree_build_us",
    "codegen.flatten_us",
    "codegen.vm_us",
    "codegen.write_back_us",
    "runtime.run_us",
    "codegen.compile_us",
    "runtime.executor_build_us",
];
