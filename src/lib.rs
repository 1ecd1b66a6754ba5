//! # retreet-repro — umbrella crate for the Retreet reproduction
//!
//! Reproduction of *"Reasoning about recursive tree traversals"* (Wang,
//! Liu, Zhang, Qiu; PPoPP 2021).  The entry point for every verification
//! question is the unified [`retreet_verify::Verifier`] façade:
//!
//! ```
//! use retreet_repro::retreet_verify::{Query, Verifier};
//! use retreet_repro::retreet_lang::corpus;
//!
//! let verifier = Verifier::builder()
//!     .max_nodes(3)      // exhaust every tree up to this many nodes
//!     .valuations(1)     // deterministic field valuations per shape
//!     .parallel(true)    // race the applicable engines, first verdict wins
//!     .build();
//!
//! // Theorem 2 (data race), Theorem 3 (equivalence) and MSO validity all go
//! // through the same call:
//! let verdict = verifier
//!     .verify(Query::DataRace(&corpus::size_counting_parallel()))
//!     .unwrap();
//! assert!(verdict.is_race_free());
//! println!("{verdict}"); // verdict, engine provenance, soundness, timing
//! ```
//!
//! The workspace members underneath:
//!
//! * [`retreet_verify`] — **the façade**: `Verifier` builder, typed
//!   `Query` → `Verdict` pipeline, engine portfolio, sharded verdict cache
//!   with single-flight coalescing, batch fan-out, typed `VerifyError`s;
//! * [`retreet_serve`] — **the serving tier**: a long-running NDJSON
//!   service (stdin or TCP) over one shared `Verifier`, with corpus
//!   warm-start and per-response cache/coalesce provenance;
//! * [`retreet_lang`] — the Retreet language (AST, parser, blocks, read/write
//!   analysis, weakest preconditions, the §5 program corpus);
//! * [`retreet_logic`] — the linear-integer-arithmetic solver substrate;
//! * [`retreet_mso`] — MSO over binary trees, bounded checking and the
//!   tree-automata decision procedure (the MONA substitute);
//! * [`retreet_analysis`] — the engine layer: configurations, data-race
//!   detection and fusion-equivalence checking;
//! * [`retreet_transform`] — **the certified transform tier**: AST-level
//!   traversal fusion, parallel schedule synthesis, and the certified
//!   schedule autotuner (`tune` — partial-fusion × parallelization
//!   enumeration, batch certification, cost-scored winners), each
//!   returning a `CertifiedTransform` whose certificate is a façade
//!   verdict;
//! * [`retreet_codegen`] — **the execution tier**: flat `u32`-indexed trees,
//!   a register bytecode + compiler, a certified iterative-lowering pass
//!   (self-recursion → explicit worklist loops, each gated by a façade
//!   equivalence verdict) and a stack-free VM, with the reference
//!   interpreter kept as the differential baseline;
//! * [`retreet_runtime`] — owned trees, fused and rayon-parallel schedules,
//!   capability types gated by transform certificates, and
//!   `exec::ProgramExecutor` — tiered execution preferring compiled
//!   bytecode with interpreter fallback;
//! * [`retreet_css`] / [`retreet_cycletree`] — the two real-world case-study
//!   substrates of the evaluation.
//!
//! # MIGRATION — old per-crate entry points → the façade + transform tier
//!
//! The PR 1 deprecated option-struct shims have been **removed**; every
//! in-tree caller goes through the façade (verdicts) or the transform tier
//! (certified programs).  New code should use the mappings below.
//!
//! | Old call | New call |
//! |----------|----------|
//! | `retreet_analysis::race::check_data_race(&p, &RaceOptions { max_nodes, valuations, .. })` | `Verifier::builder().race_nodes(n).valuations(v).build().verify(Query::DataRace(&p))` |
//! | `retreet_analysis::equiv::check_equivalence(&a, &b, &EquivOptions { .. })` | `verifier.verify(Query::Equivalence(&a, &b))` |
//! | `retreet_mso::bounded::check_validity(&f, bound)` | `Verifier::builder().validity_nodes(bound).engines([Engine::BoundedEnumeration]).build().verify(Query::Validity(&f))` |
//! | `retreet_mso::compile::is_valid(&f)` | `verifier.verify(Query::Validity(&f))` (the automata engine wins where the fragment allows; `Soundness::Unbounded` in the verdict) |
//! | `VerifiedFusion::verify(&a, &b, &EquivOptions)` *(removed)* | `VerifiedFusion::verify_with(&verifier, &a, &b)`, or synthesize: `retreet_transform::fuse_main_passes(&verifier, &original)` + `VerifiedFusion::from_certified(&t)` |
//! | `VerifiedParallelization::verify(&p, &RaceOptions)` *(removed)* | `VerifiedParallelization::verify_with(&verifier, &p)`, or synthesize: `retreet_transform::synthesize_parallel_main(&verifier, &sequential)` + `VerifiedParallelization::from_certified(&t)` |
//! | `VerifiedFusion::run_fused2(&mut tree, &a, &b)` / `run_fused3(…)` *(removed)* | the arity-generic `VerifiedFusion::run_fused(&mut tree, &[&a, &b, …])` |
//! | `retreet_runtime::visit::fuse2(&a, &b)` / `fuse3(…)` *(removed)* | `retreet_runtime::visit::fuse_all(&[&a, &b, …])` |
//! | hand-writing a fused program and checking `Query::Equivalence` | `retreet_transform::fuse_main_passes(&verifier, &original)` — the fused program is synthesized and returned with its certificate |
//! | `fuse_main_passes(&verifier, &p)` as the *only* schedule considered | `retreet_transform::tune(&verifier, &p, &TuneOptions::default(), &mut cost)` — whole-pass fusion is one point in the enumerated partial-fusion × parallelization space; the tuner certifies every candidate in one batch and returns the measured winner (never slower than best-of{original, canonical fusion}) plus the full scored table |
//! | hand-picking between the fused and the parallel schedule by guesswork | `retreet_runtime::tune_and_compile(&verifier, &p, &options)` — the VM-backed cost model: each certified candidate compiled once through `ProgramExecutor` (interpreter timings refused), probe-run differential-checked, best-of-batches measured; returns the `TunedSchedule` *and* the winner's ready-to-run executor |
//! | hand-writing a parallel `Main` and checking `Query::DataRace` | `retreet_transform::synthesize_parallel_main(&verifier, &sequential)` (pass level) / `retreet_transform::parallelize_recursive_calls(&verifier, &p)` (sibling recursion) |
//! | `retreet_css::analysis_model::verify_css_fusion(&EquivOptions)` *(removed)* | `retreet_css::analysis_model::verify_css_fusion_with(&verifier)` (verdict only) or `certify_css_fusion(&verifier)` (synthesized certified transform) |
//! | mutating `RaceOptions` / `EquivOptions` / `EnumOptions` fields | `RaceOptions::builder()…build()` etc., or set the budget once on the `Verifier` builder |
//! | repeated `Solver::check(&growing_system)` along a search | [`retreet_logic::IncrementalSolver`]: `push()` / `assume_all(&new_atoms)` / `check()` / `pop()` over a shared [`retreet_logic::SolverCache`] — the SAT prefix is never re-solved and a cached-UNSAT prefix prunes the extension outright |
//! | `Solver::check` on systems that repeat across a query | `Solver::check_cached(&system, &cache)` (component-decomposed memoization keyed by [`retreet_logic::intern`]-ed atom ids) |
//! | per-query `BlockTable::build` + re-summarized paths | `retreet_analysis::AnalysisContext::for_program(&p)` — block table, field sets, lazy path summaries, solver cache and symbol table, memoized process-wide per program |
//! | the seed (pre-optimization) engine behaviour | preserved verbatim in `retreet_analysis::naive` (differential tests and the `bench_engines` "before" column only) |
//! | `CacheStats { hits, misses, entries }` | gains `collisions` (an insert that found a same-key, different-subjects resident; the resident entry is kept, never evicted by the collider, and the lookup side stays a plain miss so `hits + misses == lookups` always) — exhaustive-match constructors must add the field |
//! | `Engine::Automata.supports(kind)` == `false` for `DataRace` / `Equivalence` | **now `true` for all three query kinds**: the automata engine answers races through the structural access-summary analysis and equivalence through the fusion-correspondence matcher, both at `Soundness::Unbounded`; code that assumed `verify_with_engine(Engine::Automata, Query::DataRace(..))` errors with `NoApplicableEngine` must handle a verdict (the engine still *skips* when a structural race candidate or a non-corresponding pair gets only a bounded all-clear from its delegate) |
//! | asserting `verdict.engine == Engine::Trace` (or `trees_checked() > 0`) on §5 race/equivalence portfolio verdicts | the default portfolio now answers these with `Engine::Automata`, `Soundness::Unbounded`, and `trees_checked() == 0` (no model enumeration backs an unbounded answer); pin `.engines([Engine::Configuration])` / `[Engine::Trace]` to keep exercising the bounded tiers, or assert on `verdict.soundness` instead of the model count |
//! | re-verifying to strengthen a cached bounded verdict | the cache upgrades in place: an unbounded verdict replaces a resident `BoundedUpTo` entry for the same key, and a bounded re-run never downgrades a resident unbounded (or wider-bounded) verdict — `Soundness::covers` is the replacement criterion |
//! | `Verdict { outcome, engine, soundness, elapsed, cached }` | gains `coalesced: bool` (the verdict was adopted from an identical in-flight query's single engine run) |
//! | `.parallel(true)` first-definitive-verdict-wins dispatch | **removed** (it could cache a bounded positive over a pending engine's unbounded refutation, nondeterministically): parallel dispatch now decides by *authority* — dispatch order, unbounded engines first — and verdict + witness are identical to sequential on every run; losing engines are cooperatively cancelled |
//! | looping `verifier.verify(q)` over a batch | `verifier.verify_batch(&[q1, q2, …])` — worker-thread fan-out, results in input order, duplicates coalesced |
//! | hand-rolled serving loops around a `Verifier` | `retreet_serve::Service` + `serve_lines` / `serve_tcp` (NDJSON protocol), or the `retreet-serve` binary (`--listen ADDR --warm-start --parallel`) |
//! | `check_data_race` / `check_equivalence` / `check_validity` in a portfolio worker | the `*_cancellable(…, cancel: &AtomicBool)` variants — return `None` instead of a verdict once the flag is raised |
//! | `retreet_analysis::interp::run(&p, &tree)` in a hot loop | `retreet_runtime::exec::ProgramExecutor::new(&p)` (or `with_verifier(&verifier, &p)` for certified iterative lowering) + `executor.run(&tree)` — compile once, run on the VM many times, interpreter fallback when the program doesn't compile |
//! | one-shot compiled execution | `retreet_runtime::run_compiled(&p, &tree)` / `run_compiled_certified(&verifier, &certified_transform, &tree)` |
//! | trusting a hand-written iterative rewrite of a recursive traversal | `retreet_codegen::compile_with_lowering(&verifier, &p)` — the lowering is synthesized, then certified via `Query::Equivalence` against a reconstruction; refusals carry the counterexample tree and the function stays on frame bytecode |
//! | `Verdict { outcome, engine, soundness, elapsed, cached, coalesced }` | gains `degraded: bool` — a best-effort verdict returned because the per-query deadline expired after this engine finished but before the authoritative one did; degraded verdicts are never cached or persisted, so cache hits always report `degraded == false` |
//! | `verifier.verify(q)` with unbounded patience | `Verifier::builder().default_deadline(Duration)…` (or `ServeOptions::deadline_ms` / `--deadline-ms`): the watchdog raises the cooperative cancel flag at expiry and the call resolves *typed* — a degraded best-resolved verdict or `VerifyError::DeadlineExceeded`, never a wrong or truncated answer |
//! | `--warm-start` as the only restart story | `Verifier::builder().persist(path)` / `ServeOptions::persist` / `--persist PATH`: a crash-safe `retreet_store` record log written through on every fresh verdict and replayed on startup — warm start generalized to every verdict ever computed; `--fail-open` refuses a corrupt store instead of skipping bad records |
//! | `ServeOptions { race_nodes, equiv_nodes, validity_nodes, valuations, parallel, cache_capacity }` | gains the robustness knobs `workers`, `cold_queue`, `deadline_ms`, `max_connections`, `drain_ms`, `persist`, `fail_open`, `faults` — exhaustive literals must append `..ServeOptions::default()` |
//! | `Service::new(&options)` panicking on a bad store | `Service::try_new(&options)` → `Result<Service, VerifyError>` (`Service::new` still panics); `Service::finish()` drains in-flight work, joins the cold-lane workers and flushes the store — call it (or send `{"kind":"shutdown"}`) before exit |
//! | matching serve error responses on the `error` text | every error response now carries a machine-readable `"code"` (`bad_request`, `request_too_large`, `overloaded`, `shutting_down`, `deadline_exceeded`, `unsupported`, `internal`) — dispatch on the code, not the prose |
//! | `serve_tcp(service, listener)` accepting forever | bounded by `ServeOptions::max_connections` (excess clients get one `overloaded` line at accept) and returns cleanly after a shutdown request, draining via `Service::finish()` |
//! | `retreet_lang::ast::Dir::{Left, Right}` | `retreet_lang::ast::ChildAxis(u8)` — `ChildAxis::LEFT` / `ChildAxis::RIGHT` are axes 0 and 1; programs address any axis as `n.c<k>` (with `n.l` / `n.r` as spelling-preserving aliases for `c0` / `c1`) and declare higher arities with an `arity K;` header (2 ≤ K ≤ `MAX_ARITY`, default 2) |
//! | `Dir::flip()` to realign a two-call fusion order | **removed** — the fusion builder aligns *k*-ary call orders to the first component's axis permutation directly; no two-element special case survives |
//! | `NodeSel::{Cur, Left, Right}` in bytecode | `NodeSel::{Cur, Child(ChildAxis)}` — child selectors carry the axis |
//! | `IterativeLowering { pre, mid, post, .. }` (three fixed segments) | `IterativeLowering { axes, call_results, segments, .. }` — `axes.len() + 1` straight-line segments, one per gap around the recursive calls, at any arity |
//! | `FlatTree` with `left` / `right` index arrays | `FlatTree::from_value_tree_kary(&tree, &fields, arity)` — one `u32` child column per axis (`from_value_tree` remains the binary shorthand) |
//! | `retreet_mso::encode::check_overlap(&a, &b) -> OverlapVerdict` / `check_overlap_k(&a, &b, arity)` and `guards_equivalent_k(&a, &b, arity)` | `check_overlap(&a, &b) -> bool` (true when some tree puts the regions in contact) / `guards_equivalent(&a, &b) -> bool` — one exact decider per question at every arity; `OverlapVerdict`, the `_k` twins, `overlap_formula(_k)` and `StructuralRaceAnalysis::Candidate::example` are gone (the NFTA encoding survives only as a test oracle) |
//! | `TreeCorpus::new(max_nodes, &fields, valuations)` (binary only) | `TreeCorpus::with_arity(arity, max_nodes, &fields, valuations)` — k-ary shape enumeration; `ValueTree::complete_kary(arity, height, &fields, init)` builds complete k-ary measurement trees |
//! | `run` / `tune` service requests pinned to binary trees | both accept an optional `"arity"` field (2 ≤ arity ≤ 8, at least the program's declared arity; out-of-range answers a typed `bad_request`); `TuneOptions` gains `tree_arity` |
//! | `retreet_bench::to_json(&results) -> String` | `retreet_bench::experiments_report(&results) -> Value` ([`retreet_serve::json::Value`]); render with `.pretty()` (indented) or `.to_string()` (compact) |
//! | `engine_perf_to_json` / `transform_report_to_json` / `tune_report_to_json` / `codegen_report_to_json` (`-> String`) | `engines_report` / `transform_report` / `tune_report` / `codegen_report` (`-> Value`, same arguments); the `bench_*` binaries write `value.pretty()` — keys sorted, numbers rounded to the old precision, non-finite numbers as `null` |
//! | `cargo bench -p retreet-bench` (the Criterion benches `e1_size_counting` … `e4_cycletree`, `perf_fusion`, `perf_parallel`, `perf_portfolio`, `ablation_granularity`) and the `criterion` shim | removed: verdicts, engine agreement and the ablation gap are asserted by `tests/evaluation_verdicts.rs` and `tests/verifier_facade.rs`; timings come from the `bench_*` binaries; the cache-hit cost is the `verify.hit_us` layer of the `perfbench` warm-verify trace |
//!
//! # Benchmarks
//!
//! Five `bench_*` binaries in `retreet-bench` reproduce the §5 evaluation
//! and its performance record.  They share one flag parser and one report
//! writer (`retreet_bench::harness`): every `BENCH_*.json` is built as a
//! [`retreet_serve::json::Value`] and written indented with sorted keys.
//! Correctness gates fail a run with exit code 1; a malformed command line
//! exits 2.
//!
//! `cargo run --release -p retreet-bench --bin bench_engines` writes
//! `BENCH_engines.json` at the repository root: every §5 experiment timed
//! through both the frozen naive engines and the optimized portfolio under
//! the quick and the full budget (schema `retreet-bench-engines/v1`; format
//! documented in `crates/README.md`).  CI's perf-smoke job runs the quick
//! budget with a generous wall-clock ceiling to catch accidental
//! exponential regressions.
//!
//! `cargo run --release -p retreet-bench --bin bench_transform` writes
//! `BENCH_transform.json` (schema `retreet-bench-transform/v2`): every
//! fusable §5 case synthesized and certified through the transform tier,
//! plus fused-vs-sequential runtime on all five families — both sides
//! compiled to the VM tier and differential-checked against the
//! interpreter before timing.  CI runs it in quick mode and fails on
//! certificate drift and on execution drift.
//!
//! `cargo run --release -p retreet-bench --bin bench_service` writes
//! `BENCH_service.json` (schema `retreet-bench-service/v2`): warm-cache
//! serving throughput and p50/p99 latency under 1/4/8 client threads,
//! cache hit and coalescing rates, a cold-burst single-flight check, and
//! three robustness phases — shed rate under a full cold queue, the
//! deadline-hit rate with engines stalled past the per-query deadline,
//! and the warm-hit rate after a cold restart from the persisted verdict
//! store (which must be exactly 1.0 with zero engine runs).  Every
//! response is verified against the paper's verdict — drift under
//! concurrency fails the run.
//!
//! `cargo run --release -p retreet-bench --bin bench_codegen` writes
//! `BENCH_codegen.json` (schema `retreet-bench-codegen/v1`): every
//! executable §5 workload compiled through the codegen tier and timed on
//! the reference interpreter, the bytecode VM and the VM running the
//! certified fusion, with one certificate line per iterative lowering
//! (fresh-then-cached serving path, `cached` / `coalesced` flags reported
//! honestly).  CI runs it in quick mode and fails on VM-vs-interpreter
//! drift.
//!
//! `cargo run --release -p retreet-bench --bin bench_tune` writes
//! `BENCH_tune.json` (schema `retreet-bench-tune/v1`): the certified
//! schedule autotuner run on all five fusable families — the full scored
//! candidate table (certified schedules with measured VM seconds,
//! refusals with their witnesses), both baselines, and the winner with
//! its certificate provenance.  CI runs it in quick mode and fails on
//! drift, on a tuned cost above best-of{original, canonical fusion},
//! and on a winner without certificate provenance.
//!
//! Old verdict shapes map to [`retreet_verify::Outcome`] variants: race
//! witnesses, equivalence counterexamples and falsifying trees ride along
//! unchanged inside the unified [`retreet_verify::Verdict`], which adds
//! engine provenance ([`retreet_verify::Engine`]), a bounded-soundness
//! caveat ([`retreet_verify::Soundness`]) and wall-clock timing.  Errors
//! that used to be ad-hoc `String`s are now the typed
//! [`retreet_verify::VerifyError`] hierarchy.

#![forbid(unsafe_code)]

pub use retreet_analysis;
pub use retreet_codegen;
pub use retreet_css;
pub use retreet_cycletree;
pub use retreet_lang;
pub use retreet_logic;
pub use retreet_mso;
pub use retreet_runtime;
pub use retreet_serve;
pub use retreet_store;
pub use retreet_transform;
pub use retreet_verify;

// The façade types, re-exported at the top level for downstream brevity.
pub use retreet_verify::{Query, Verdict, Verifier, VerifyError};
