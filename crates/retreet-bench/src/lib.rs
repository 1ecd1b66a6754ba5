//! # retreet-bench — the experiment harness
//!
//! One function per row of the paper's evaluation (§5).  Each returns an
//! [`ExperimentResult`] carrying the verdict, the paper's expected verdict,
//! and the wall-clock time, so that the `bench_*` binaries, the examples
//! and the tests all run the same code paths.  Every report is built as a
//! [`retreet_serve::json::Value`] (`engines_report`, `transform_report`,
//! …) and written through its one JSON writer; [`harness`] holds the flag
//! parser and report writer the binaries share.
//!
//! Every query goes through the unified [`retreet_verify::Verifier`] façade;
//! the harness builds its verifiers with the cache *disabled* so measured
//! times reflect real engine work, not cache hits (the cache's own cost is
//! the `verify.hit_us` layer of the end-to-end benchmark's warm-verify
//! trace).
//!
//! Absolute times are not comparable to the paper's MONA runtimes (different
//! decision procedure, different hardware); what must match is every verdict
//! and the relative difficulty ordering (cycletree fusion ≫ CSS fusion ≫ the
//! small cases; race queries cheaper than equivalence queries).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;

use harness::{array, num};
use retreet_analysis::coarse;
use retreet_lang::corpus;
use retreet_serve::json::Value;
use retreet_verify::{Outcome, Query, Verifier};

/// The verdict of one experiment, in the vocabulary of §5.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The transformation was proven correct (fusion accepted).
    Valid,
    /// A counterexample to the transformation was found.
    Invalid,
    /// The parallel composition is data-race-free.
    RaceFree,
    /// A data race was found.
    Race,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Valid => "Valid",
            Verdict::Invalid => "Invalid",
            Verdict::RaceFree => "RaceFree",
            Verdict::Race => "Race",
        }
    }
}

/// The outcome of one experiment run.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// Experiment identifier (E1a, E1b, …) as used in DESIGN.md.
    pub id: &'static str,
    /// Human-readable description.
    pub description: &'static str,
    /// The verdict produced by this reproduction.
    pub verdict: Verdict,
    /// The verdict the paper reports.
    pub expected: Verdict,
    /// MONA's wall-clock time in the paper, in seconds (for context only).
    pub paper_seconds: f64,
    /// Wall-clock time of the winning engine, in seconds.
    pub measured_seconds: f64,
    /// Which portfolio engine produced the verdict.
    pub engine: &'static str,
    /// How far the verdict's guarantee extends (`"unbounded"` or the
    /// bounded-budget rendering), straight from the façade's
    /// [`retreet_verify::Soundness`].
    pub soundness: String,
    /// Extra detail (counterexample summary, model counts, …).
    pub detail: String,
}

impl ExperimentResult {
    /// True when this reproduction's verdict matches the paper's.
    pub fn matches_paper(&self) -> bool {
        self.verdict == self.expected
    }
}

/// Analysis budget used by the experiment harness; benches can scale it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Budget {
    /// Maximum tree size (nodes) for equivalence checking.
    pub equiv_nodes: usize,
    /// Field valuations per shape for equivalence checking.
    pub equiv_valuations: usize,
    /// Maximum tree size (nodes) for race checking.
    pub race_nodes: usize,
}

impl Default for Budget {
    fn default() -> Self {
        Budget {
            equiv_nodes: 5,
            equiv_valuations: 2,
            race_nodes: 4,
        }
    }
}

impl Budget {
    /// A smaller budget for quick smoke runs (used by `cargo test`).
    pub fn quick() -> Self {
        Budget {
            equiv_nodes: 4,
            equiv_valuations: 1,
            race_nodes: 3,
        }
    }

    /// The façade verifier this budget induces for equivalence queries
    /// (cache disabled so every run measures real engine work).
    pub fn equivalence_verifier(&self) -> Verifier {
        Verifier::builder()
            .equiv_nodes(self.equiv_nodes)
            .valuations(self.equiv_valuations)
            .check_dependence_order(true)
            .cache_capacity(0)
            .build()
    }

    /// The façade verifier this budget induces for race queries (one
    /// valuation per shape, like the paper's race rows; cache disabled).
    pub fn race_verifier(&self) -> Verifier {
        Verifier::builder()
            .race_nodes(self.race_nodes)
            .valuations(1)
            .cache_capacity(0)
            .build()
    }

    /// The façade verifier the schedule autotuner uses: both query kinds
    /// under this budget with the verdict cache **enabled** — the tuner
    /// certifies dozens of candidates through one `verify_batch` call and
    /// recompiles the winner, so shared cache/coalescing state is part of
    /// what the tune bench exercises (unlike the engine benches, which
    /// disable the cache to time raw engine work).
    pub fn tune_verifier(&self) -> Verifier {
        Verifier::builder()
            .equiv_nodes(self.equiv_nodes)
            .valuations(self.equiv_valuations)
            .race_nodes(self.race_nodes)
            .check_dependence_order(true)
            .build()
    }
}

fn equivalence_experiment(
    id: &'static str,
    description: &'static str,
    paper_seconds: f64,
    expected: Verdict,
    original: &retreet_lang::ast::Program,
    transformed: &retreet_lang::ast::Program,
    budget: &Budget,
) -> ExperimentResult {
    let verifier = budget.equivalence_verifier();
    let verdict = verifier
        .verify(Query::Equivalence(original, transformed))
        .expect("corpus programs are well-formed");
    let (kind, detail) = match &verdict.outcome {
        Outcome::Equivalent { trees_checked: 0 } => (
            Verdict::Valid,
            String::from("equivalent on every tree (fusion correspondence)"),
        ),
        Outcome::Equivalent { trees_checked } => (
            Verdict::Valid,
            format!("equivalent on {trees_checked} bounded models"),
        ),
        Outcome::NotEquivalent(ce) => (
            Verdict::Invalid,
            format!("counterexample: {:?}", ce.disagreement),
        ),
        other => unreachable!("equivalence query produced {other:?}"),
    };
    ExperimentResult {
        id,
        description,
        verdict: kind,
        expected,
        paper_seconds,
        measured_seconds: verdict.elapsed.as_secs_f64(),
        engine: verdict.engine.name(),
        soundness: verdict.soundness.to_string(),
        detail,
    }
}

fn race_experiment(
    id: &'static str,
    description: &'static str,
    paper_seconds: f64,
    expected: Verdict,
    program: &retreet_lang::ast::Program,
    budget: &Budget,
) -> ExperimentResult {
    let verifier = budget.race_verifier();
    let verdict = verifier
        .verify(Query::DataRace(program))
        .expect("corpus programs are well-formed");
    let (kind, detail) = match &verdict.outcome {
        Outcome::RaceFree {
            trees_checked: 0,
            configurations: 0,
        } => (
            Verdict::RaceFree,
            String::from("race-free on every tree (structural access summaries)"),
        ),
        Outcome::RaceFree {
            trees_checked,
            configurations,
        } => (
            Verdict::RaceFree,
            format!("race-free over {trees_checked} trees / {configurations} configurations"),
        ),
        Outcome::Race(witness) => (
            Verdict::Race,
            format!(
                "race on {}.{} between {} and {}",
                witness.node, witness.field, witness.first, witness.second
            ),
        ),
        other => unreachable!("race query produced {other:?}"),
    };
    ExperimentResult {
        id,
        description,
        verdict: kind,
        expected,
        paper_seconds,
        measured_seconds: verdict.elapsed.as_secs_f64(),
        engine: verdict.engine.name(),
        soundness: verdict.soundness.to_string(),
        detail,
    }
}

/// E1a — fuse the mutually recursive `Odd`/`Even` traversals (Fig. 6a).
pub fn e1a_size_counting_fusion(budget: &Budget) -> ExperimentResult {
    equivalence_experiment(
        "E1a",
        "size counting: fuse Odd/Even into Fused (Fig. 6a)",
        0.14,
        Verdict::Valid,
        &corpus::size_counting_sequential(),
        &corpus::size_counting_fused(),
        budget,
    )
}

/// E1b — the invalid fusion of Fig. 6b must be rejected with a counterexample.
pub fn e1b_size_counting_invalid_fusion(budget: &Budget) -> ExperimentResult {
    equivalence_experiment(
        "E1b",
        "size counting: invalid fusion (Fig. 6b) is rejected",
        0.14,
        Verdict::Invalid,
        &corpus::size_counting_sequential(),
        &corpus::size_counting_fused_invalid(),
        budget,
    )
}

/// E1c — `Odd(n) ‖ Even(n)` is data-race-free.
pub fn e1c_size_counting_race_freedom(budget: &Budget) -> ExperimentResult {
    race_experiment(
        "E1c",
        "size counting: Odd(n) || Even(n) is data-race-free",
        0.02,
        Verdict::RaceFree,
        &corpus::size_counting_parallel(),
        budget,
    )
}

/// E2 — fuse the tree-mutation pair `Swap`; `IncrmLeft` (Fig. 7).
pub fn e2_tree_mutation_fusion(budget: &Budget) -> ExperimentResult {
    equivalence_experiment(
        "E2",
        "tree mutation: fuse Swap; IncrmLeft after flag conversion (Fig. 7)",
        0.12,
        Verdict::Valid,
        &corpus::tree_mutation_original(),
        &corpus::tree_mutation_fused(),
        budget,
    )
}

/// E3 — fuse the three CSS minification traversals (Fig. 8).
pub fn e3_css_minification_fusion(budget: &Budget) -> ExperimentResult {
    equivalence_experiment(
        "E3",
        "CSS minification: fuse ConvertValues; MinifyFont; ReduceInit (Fig. 8)",
        6.88,
        Verdict::Valid,
        &corpus::css_minify_original(),
        &corpus::css_minify_fused(),
        budget,
    )
}

/// E4a — fuse the cycletree numbering and routing traversals (Fig. 9).
pub fn e4a_cycletree_fusion(budget: &Budget) -> ExperimentResult {
    equivalence_experiment(
        "E4a",
        "cycletree: fuse RootMode + ComputeRouting (Fig. 9)",
        490.55,
        Verdict::Valid,
        &corpus::cycletree_original(),
        &corpus::cycletree_fused(),
        budget,
    )
}

/// E4b — parallelizing the cycletree traversals races on `num`.
pub fn e4b_cycletree_parallelization_race(budget: &Budget) -> ExperimentResult {
    race_experiment(
        "E4b",
        "cycletree: RootMode || ComputeRouting has a data race on num",
        0.95,
        Verdict::Race,
        &corpus::cycletree_parallel(),
        budget,
    )
}

/// The coarse-baseline ablation (P3): which fusions does a TreeFuser-style
/// field-granularity analysis reject that the fine-grained check accepts?
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Case-study name.
    pub case: &'static str,
    /// Verdict of the coarse (field-granularity) baseline.
    pub coarse_accepts: bool,
    /// Verdict of the fine-grained (Retreet-style) check.
    pub fine_grained_accepts: bool,
}

/// Runs the granularity ablation for the three fusion case studies.
pub fn ablation_granularity(budget: &Budget) -> Vec<AblationRow> {
    let verifier = budget.equivalence_verifier();
    let fine = |original: &retreet_lang::ast::Program, fused: &retreet_lang::ast::Program| {
        verifier
            .verify(Query::Equivalence(original, fused))
            .expect("corpus programs are well-formed")
            .is_equivalent()
    };
    vec![
        AblationRow {
            case: "size_counting",
            coarse_accepts: coarse::coarse_fusion_ok(&corpus::size_counting_sequential()),
            fine_grained_accepts: fine(
                &corpus::size_counting_sequential(),
                &corpus::size_counting_fused(),
            ),
        },
        AblationRow {
            case: "css_minification",
            coarse_accepts: coarse::coarse_fusion_ok(&corpus::css_minify_original()),
            fine_grained_accepts: fine(&corpus::css_minify_original(), &corpus::css_minify_fused()),
        },
        AblationRow {
            case: "cycletree",
            coarse_accepts: coarse::coarse_fusion_ok(&corpus::cycletree_original()),
            fine_grained_accepts: fine(&corpus::cycletree_original(), &corpus::cycletree_fused()),
        },
    ]
}

/// Runs every verification experiment (E1a–E4b) with the given budget.
pub fn run_all(budget: &Budget) -> Vec<ExperimentResult> {
    vec![
        e1a_size_counting_fusion(budget),
        e1b_size_counting_invalid_fusion(budget),
        e1c_size_counting_race_freedom(budget),
        e2_tree_mutation_fusion(budget),
        e3_css_minification_fusion(budget),
        e4a_cycletree_fusion(budget),
        e4b_cycletree_parallelization_race(budget),
    ]
}

/// Renders results as an aligned text table (used by examples and by the
/// bench harness to regenerate EXPERIMENTS.md content).
pub fn render_table(results: &[ExperimentResult]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<5} {:<62} {:>10} {:>14} {:>12} {:>12} {:>8}\n",
        "id", "experiment", "verdict", "engine", "paper (s)", "measured (s)", "match"
    ));
    for r in results {
        out.push_str(&format!(
            "{:<5} {:<62} {:>10} {:>14} {:>12.2} {:>12.4} {:>8}\n",
            r.id,
            r.description,
            r.verdict.as_str(),
            r.engine,
            r.paper_seconds,
            r.measured_seconds,
            if r.matches_paper() { "yes" } else { "NO" }
        ));
    }
    out
}

/// The machine-readable experiment record: one object per result.
pub fn experiments_report(results: &[ExperimentResult]) -> Value {
    array(results.iter().map(|r| {
        object! {
            "id": r.id, "description": r.description,
            "verdict": r.verdict.as_str(), "expected": r.expected.as_str(),
            "paper_seconds": Value::Number(r.paper_seconds),
            "measured_seconds": Value::Number(r.measured_seconds),
            "engine": r.engine, "soundness": &r.soundness, "detail": &r.detail,
        }
    }))
}

/// One row of the engine-performance report: the same §5 experiment run
/// through the frozen naive engines ("before") and the optimized engines
/// ("after"), with best-of-batches wall-clock for both.
#[derive(Debug, Clone)]
pub struct EnginePerfRow {
    /// Experiment identifier (E1a, E1b, …).
    pub id: &'static str,
    /// Human-readable description.
    pub description: &'static str,
    /// Query kind: `"race"` or `"equivalence"`.
    pub kind: &'static str,
    /// The optimized engine's verdict.
    pub verdict: Verdict,
    /// The verdict the paper reports.
    pub expected: Verdict,
    /// Engine provenance of the optimized verdict (from the façade).
    pub engine: &'static str,
    /// Soundness of the optimized verdict (`"unbounded"` or the bounded
    /// rendering); `bench_engines` gates on regressions of this field.
    pub soundness: String,
    /// True when the frozen naive engine returned the same verdict.
    pub verdicts_agree: bool,
    /// Best-of-batches wall-clock of the naive ("before") engine, seconds.
    pub naive_seconds: f64,
    /// Best-of-batches wall-clock of the optimized ("after") engine through
    /// the façade, seconds.
    pub optimized_seconds: f64,
}

impl EnginePerfRow {
    /// naive / optimized.
    pub fn speedup(&self) -> f64 {
        self.naive_seconds / self.optimized_seconds
    }

    /// True when this reproduction's verdict matches the paper's.
    pub fn matches_paper(&self) -> bool {
        self.verdict == self.expected
    }
}

/// Best (minimum) mean-per-call wall-clock over `batches` batches of
/// `per_batch` calls — the noise-robust measurement the perf report uses.
fn best_of<F: FnMut()>(batches: usize, per_batch: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..batches.max(1) {
        let start = std::time::Instant::now();
        for _ in 0..per_batch.max(1) {
            f();
        }
        best = best.min(start.elapsed().as_secs_f64() / per_batch.max(1) as f64);
    }
    best
}

/// Runs every §5 experiment under `budget` through both the frozen naive
/// engines and the optimized façade engines, timing each with
/// best-of-`batches` × `per_batch`.
///
/// Methodology: verdict caching is disabled (every call runs the engine),
/// and timings are steady-state — derived per-program analysis state
/// (block tables, path summaries, the solver memo) persists across calls
/// exactly as it does in the ROADMAP's serving scenario.  The naive path
/// has no such state by construction, matching the seed revision.
pub fn measure_engine_perf(
    budget: &Budget,
    batches: usize,
    per_batch: usize,
) -> Vec<EnginePerfRow> {
    use retreet_analysis::equiv::EquivOptions;
    use retreet_analysis::naive;
    use retreet_analysis::race::RaceOptions;

    let equiv_options = EquivOptions::builder()
        .max_nodes(budget.equiv_nodes)
        .valuations(budget.equiv_valuations)
        .check_dependence_order(true)
        .build();
    // One valuation per shape, matching `Budget::race_verifier`.
    let race_options = RaceOptions::builder()
        .max_nodes(budget.race_nodes)
        .valuations(1)
        .build();

    type EquivCase = (
        fn(&Budget) -> ExperimentResult,
        retreet_lang::ast::Program,
        retreet_lang::ast::Program,
    );
    type RaceCase = (fn(&Budget) -> ExperimentResult, retreet_lang::ast::Program);

    let mut rows = Vec::new();
    let equivalences: [EquivCase; 5] = [
        (
            e1a_size_counting_fusion,
            corpus::size_counting_sequential(),
            corpus::size_counting_fused(),
        ),
        (
            e1b_size_counting_invalid_fusion,
            corpus::size_counting_sequential(),
            corpus::size_counting_fused_invalid(),
        ),
        (
            e2_tree_mutation_fusion,
            corpus::tree_mutation_original(),
            corpus::tree_mutation_fused(),
        ),
        (
            e3_css_minification_fusion,
            corpus::css_minify_original(),
            corpus::css_minify_fused(),
        ),
        (
            e4a_cycletree_fusion,
            corpus::cycletree_original(),
            corpus::cycletree_fused(),
        ),
    ];
    for (run_optimized, original, transformed) in &equivalences {
        let result = run_optimized(budget);
        let naive_verdict = naive::check_equivalence(original, transformed, &equiv_options);
        let naive_kind = if naive_verdict.is_equivalent() {
            Verdict::Valid
        } else {
            Verdict::Invalid
        };
        let naive_seconds = best_of(batches, per_batch, || {
            let v = naive::check_equivalence(original, transformed, &equiv_options);
            std::hint::black_box(&v);
        });
        let optimized_seconds = best_of(batches, per_batch, || {
            let r = run_optimized(budget);
            std::hint::black_box(&r);
        });
        rows.push(EnginePerfRow {
            id: result.id,
            description: result.description,
            kind: "equivalence",
            verdict: result.verdict,
            expected: result.expected,
            engine: result.engine,
            soundness: result.soundness.clone(),
            verdicts_agree: naive_kind == result.verdict,
            naive_seconds,
            optimized_seconds,
        });
    }

    let races: [RaceCase; 2] = [
        (
            e1c_size_counting_race_freedom,
            corpus::size_counting_parallel(),
        ),
        (
            e4b_cycletree_parallelization_race,
            corpus::cycletree_parallel(),
        ),
    ];
    for (run_optimized, program) in &races {
        let result = run_optimized(budget);
        let naive_verdict = naive::check_data_race(program, &race_options);
        let naive_kind = if naive_verdict.is_race_free() {
            Verdict::RaceFree
        } else {
            Verdict::Race
        };
        let naive_seconds = best_of(batches, per_batch, || {
            let v = naive::check_data_race(program, &race_options);
            std::hint::black_box(&v);
        });
        let optimized_seconds = best_of(batches, per_batch, || {
            let r = run_optimized(budget);
            std::hint::black_box(&r);
        });
        rows.push(EnginePerfRow {
            id: result.id,
            description: result.description,
            kind: "race",
            verdict: result.verdict,
            expected: result.expected,
            engine: result.engine,
            soundness: result.soundness.clone(),
            verdicts_agree: naive_kind == result.verdict,
            naive_seconds,
            optimized_seconds,
        });
    }
    // Keep the §5 ordering: E1a, E1b, E1c, E2, E3, E4a, E4b.
    rows.sort_by_key(|row| row.id);
    rows
}

/// Renders one budget's perf rows as an aligned text table.
pub fn render_engine_perf(rows: &[EnginePerfRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<5} {:<12} {:>10} {:>14} {:>10} {:>12} {:>14} {:>9} {:>7}\n",
        "id",
        "kind",
        "verdict",
        "engine",
        "soundness",
        "naive (ms)",
        "optimized (ms)",
        "speedup",
        "match"
    ));
    for row in rows {
        out.push_str(&format!(
            "{:<5} {:<12} {:>10} {:>14} {:>10} {:>12.4} {:>14.4} {:>8.2}x {:>7}\n",
            row.id,
            row.kind,
            row.verdict.as_str(),
            row.engine,
            if row.soundness == "unbounded" {
                "unbounded"
            } else {
                "bounded"
            },
            row.naive_seconds * 1e3,
            row.optimized_seconds * 1e3,
            row.speedup(),
            if row.matches_paper() && row.verdicts_agree {
                "yes"
            } else {
                "NO"
            }
        ));
    }
    out
}

/// The full engine-performance report (one section per budget), the
/// `BENCH_engines.json` document.  See `crates/README.md` for the format.
pub fn engines_report(sections: &[(&str, &Budget, Vec<EnginePerfRow>)]) -> Value {
    let experiment = |row: &EnginePerfRow| {
        object! {
            "id": row.id, "kind": row.kind, "description": row.description,
            "verdict": row.verdict.as_str(), "expected": row.expected.as_str(),
            "matches_paper": row.matches_paper(),
            "engine": row.engine, "soundness": &row.soundness,
            "naive_verdict_agrees": row.verdicts_agree,
            "naive_seconds": num(row.naive_seconds, 6),
            "optimized_seconds": num(row.optimized_seconds, 6),
            "speedup": num(row.speedup(), 2),
        }
    };
    let budgets = sections.iter().map(|(label, budget, rows)| {
        let section = object! {
            "race_nodes": budget.race_nodes, "equiv_nodes": budget.equiv_nodes,
            "equiv_valuations": budget.equiv_valuations,
            "experiments": array(rows.iter().map(experiment)),
        };
        (label.to_string(), section)
    });
    object! {
        "schema": "retreet-bench-engines/v1",
        "methodology": "best-of-batches wall-clock per full query; verdict cache disabled; naive = \
            seed engine algorithms (retreet_analysis::naive; shares the reworked interpreter \
            plumbing, so speedups are conservative lower bounds vs the seed), optimized = facade \
            engine portfolio with shared per-program analysis state",
        "budgets": Value::Object(budgets.collect()),
    }
}

// ---------------------------------------------------------------------------
// The transform report: certificates + fused-vs-sequential runtime
// ---------------------------------------------------------------------------

/// One certificate row of the transform report: a §5 fusion synthesized by
/// `retreet_transform::fuse_main_passes` with its equivalence certificate.
#[derive(Debug, Clone)]
pub struct TransformCertRow {
    /// Experiment identifier (E1, E2, E3, E4a).
    pub id: &'static str,
    /// Corpus case name.
    pub case: &'static str,
    /// How many fused functions the worklist synthesized.
    pub fused_functions: usize,
    /// Certificate kind (`"equivalence"` when certified).
    pub kind: String,
    /// Engine provenance of the certifying verdict.
    pub engine: &'static str,
    /// Soundness of the certifying verdict (`"unbounded"` for a fusion
    /// correspondence, the bounded rendering otherwise).
    pub soundness: String,
    /// Bounded models the certificate rests on (0 for an unbounded
    /// correspondence certificate, which does not enumerate models).
    pub trees_checked: usize,
    /// True when the transform layer produced a certified program that
    /// validates and roundtrips; false records a drift (and fails the run).
    pub certified: bool,
    /// Wall-clock of the certifying verdict, seconds.
    pub elapsed_seconds: f64,
    /// Failure detail when `certified` is false.
    pub detail: String,
}

/// Synthesizes and certifies every fusable §5 case through the transform
/// layer under `budget`, recording certificate provenance.  A row with
/// `certified == false` is *certificate drift* — the construction or the
/// verdict changed — and `bench_transform` fails on it.
pub fn certify_transforms(budget: &Budget) -> Vec<TransformCertRow> {
    use retreet_transform::fuse_main_passes;

    let verifier = budget.equivalence_verifier();
    let cases: [(&'static str, &'static str, retreet_lang::ast::Program); 5] = [
        ("E1", "size_counting", corpus::size_counting_sequential()),
        ("E2", "tree_mutation", corpus::tree_mutation_original()),
        ("E3", "css_minify", corpus::css_minify_original()),
        ("E4a", "cycletree", corpus::cycletree_original()),
        ("E5", "kdtree_closest", corpus::kdtree_closest()),
    ];
    cases
        .into_iter()
        .map(
            |(id, case, original)| match fuse_main_passes(&verifier, &original) {
                Ok(certified) => TransformCertRow {
                    id,
                    case,
                    fused_functions: certified
                        .transformed
                        .funcs
                        .iter()
                        .filter(|f| f.name.starts_with("Fused_"))
                        .count(),
                    kind: certified.certificate.kind.to_string(),
                    engine: certified.certificate.engine().name(),
                    soundness: certified.certificate.verdict.soundness.to_string(),
                    trees_checked: certified.certificate.trees_checked(),
                    certified: true,
                    elapsed_seconds: certified.certificate.verdict.elapsed.as_secs_f64(),
                    detail: String::new(),
                },
                Err(err) => TransformCertRow {
                    id,
                    case,
                    fused_functions: 0,
                    kind: String::from("none"),
                    engine: "none",
                    soundness: String::from("none"),
                    trees_checked: 0,
                    certified: false,
                    elapsed_seconds: 0.0,
                    detail: err.to_string(),
                },
            },
        )
        .collect()
}

/// One runtime row of the transform report: the certified fused program
/// against the original sequential composition, both executed through the
/// `retreet-codegen` VM tier on the same seeded tree.
#[derive(Debug, Clone)]
pub struct TransformPerfRow {
    /// Experiment identifier (E1, E2, E3, E4a).
    pub id: &'static str,
    /// Workload description.
    pub case: &'static str,
    /// How many passes the sequential baseline runs.
    pub passes: usize,
    /// Workload size (tree nodes).
    pub input_size: usize,
    /// Best-of-batches wall-clock of the sequential composition on the VM,
    /// seconds.
    pub sequential_seconds: f64,
    /// Best-of-batches wall-clock of the certified fusion on the VM,
    /// seconds.
    pub fused_seconds: f64,
    /// True when either program diverged from the interpreter reference (or
    /// fell off the VM tier) before timing — a correctness regression that
    /// fails the bench.
    pub drift: bool,
}

impl TransformPerfRow {
    /// sequential / fused.
    pub fn speedup(&self) -> f64 {
        self.sequential_seconds / self.fused_seconds
    }
}

/// Measures certified-fusion-vs-sequential runtime on all five fusable
/// families (E1/E2/E3/E4a plus the E5 k-d find-closest-point pair), executing **both** programs through the compiled VM tier
/// (`ProgramExecutor::with_verifier`, certified lowering included) on the
/// same seeded complete tree — real execution-tier numbers, not the old
/// interpreter-vs-interpreter (or native-stand-in) comparison.  Before any
/// timing, both programs are differential-checked against the interpreter
/// reference; a mismatch marks the row as drift.
pub fn measure_transform_perf(
    verifier: &Verifier,
    batches: usize,
    per_batch: usize,
    tree_height: usize,
) -> Vec<TransformPerfRow> {
    use retreet_analysis::vtree::ValueTree;
    use retreet_codegen::{program_fields, trees_agree};
    use retreet_runtime::exec::{ExecTier, ProgramExecutor};
    use retreet_transform::fuse_main_passes;

    type PerfCase = (
        &'static str,
        &'static str,
        usize,
        retreet_lang::ast::Program,
    );
    let cases: [PerfCase; 5] = [
        (
            "E1",
            "size counting: Odd; Even (2 passes) vs certified fusion, on the VM",
            2,
            corpus::size_counting_sequential(),
        ),
        (
            "E2",
            "tree mutation: Swap; IncrmLeft (2 passes) vs certified fusion, on the VM",
            2,
            corpus::tree_mutation_original(),
        ),
        (
            "E3",
            "CSS minify: ConvertValues; MinifyFont; ReduceInit (3 passes) vs certified fusion, on the VM",
            3,
            corpus::css_minify_original(),
        ),
        (
            "E4a",
            "cycletree: RootMode; ComputeRouting (2 passes) vs certified fusion, on the VM",
            2,
            corpus::cycletree_original(),
        ),
        (
            "E5",
            "k-d find-closest-point: ComputeDist; FoldMin (2 passes) vs certified fusion, on the VM",
            2,
            corpus::kdtree_closest(),
        ),
    ];

    cases
        .into_iter()
        .map(|(id, case, passes, original)| {
            let fused = fuse_main_passes(verifier, &original)
                .unwrap_or_else(|err| panic!("{id}: fusion failed: {err}"));

            let fields = program_fields(&original);
            let field_refs: Vec<&str> = fields.iter().map(String::as_str).collect();
            let mut tree = ValueTree::complete(tree_height, &field_refs, |_, _| 0);
            tree.fill_fields(&field_refs, 7);

            let sequential = ProgramExecutor::with_verifier(verifier, &original);
            let fused_exec = ProgramExecutor::with_verifier(verifier, &fused.transformed);

            // Differential gate before any timing: both programs on the VM
            // tier, identical returns and semantically identical trees
            // against the interpreter reference.
            let drift = match (
                sequential.run_interpreted(&tree),
                sequential.run(&tree),
                fused_exec.run(&tree),
            ) {
                (Ok(reference), Ok(seq_vm), Ok(fused_vm)) => {
                    seq_vm.tier != ExecTier::Vm
                        || fused_vm.tier != ExecTier::Vm
                        || seq_vm.returns != reference.returns
                        || fused_vm.returns != reference.returns
                        || !trees_agree(&seq_vm.tree, &reference.tree)
                        || !trees_agree(&fused_vm.tree, &reference.tree)
                }
                _ => true,
            };

            let sequential_seconds = best_of(batches, per_batch, || {
                std::hint::black_box(sequential.run(&tree).ok());
            });
            let fused_seconds = best_of(batches, per_batch, || {
                std::hint::black_box(fused_exec.run(&tree).ok());
            });

            TransformPerfRow {
                id,
                case,
                passes,
                input_size: tree.len(),
                sequential_seconds,
                fused_seconds,
                drift,
            }
        })
        .collect()
}

/// Renders the transform report as aligned text tables.
pub fn render_transform_report(certs: &[TransformCertRow], perf: &[TransformPerfRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<5} {:<16} {:>6} {:>14} {:>14} {:>8} {:>10}\n",
        "id", "case", "fused", "certificate", "engine", "models", "certified"
    ));
    for row in certs {
        out.push_str(&format!(
            "{:<5} {:<16} {:>6} {:>14} {:>14} {:>8} {:>10}\n",
            row.id,
            row.case,
            row.fused_functions,
            row.kind,
            row.engine,
            row.trees_checked,
            if row.certified { "yes" } else { "NO" }
        ));
    }
    out.push('\n');
    out.push_str(&format!(
        "{:<5} {:>7} {:>10} {:>16} {:>12} {:>9} {:>7}\n",
        "id", "passes", "size", "sequential (ms)", "fused (ms)", "speedup", "drift"
    ));
    for row in perf {
        out.push_str(&format!(
            "{:<5} {:>7} {:>10} {:>16.4} {:>12.4} {:>8.2}x {:>7}\n",
            row.id,
            row.passes,
            row.input_size,
            row.sequential_seconds * 1e3,
            row.fused_seconds * 1e3,
            row.speedup(),
            if row.drift { "DRIFT" } else { "ok" },
        ));
    }
    out
}

/// The transform report, the `BENCH_transform.json` document (schema
/// `retreet-bench-transform/v2`; format in `crates/README.md`).
/// v2: runtime rows cover every fusable family (E1/E2/E3/E4a/E5), are
/// measured on the compiled VM tier instead of native stand-ins, and carry
/// a `drift` flag from the pre-timing differential check.
pub fn transform_report(
    budget_label: &str,
    budget: &Budget,
    certs: &[TransformCertRow],
    perf: &[TransformPerfRow],
) -> Value {
    let certificate = |row: &TransformCertRow| {
        object! {
            "id": row.id, "case": row.case, "fused_functions": row.fused_functions,
            "kind": &row.kind, "engine": row.engine, "soundness": &row.soundness,
            "trees_checked": row.trees_checked, "certified": row.certified,
            "elapsed_seconds": num(row.elapsed_seconds, 6), "detail": &row.detail,
        }
    };
    let runtime = |row: &TransformPerfRow| {
        object! {
            "id": row.id, "case": row.case, "passes": row.passes, "input_size": row.input_size,
            "sequential_seconds": num(row.sequential_seconds, 6),
            "fused_seconds": num(row.fused_seconds, 6),
            "speedup": num(row.speedup(), 2), "drift": row.drift,
        }
    };
    object! {
        "schema": "retreet-bench-transform/v2",
        "methodology": "certificates: fuse_main_passes under the stated budget, verdict cache \
            disabled; runtime: best-of-batches wall-clock of the sequential pass composition vs \
            the certified fusion, both compiled to the retreet-codegen VM tier (certified \
            lowering) and differential-checked against the interpreter before timing",
        "budget": object! {
            "label": budget_label, "equiv_nodes": budget.equiv_nodes,
            "equiv_valuations": budget.equiv_valuations,
        },
        "certificates": array(certs.iter().map(certificate)),
        "runtime": array(perf.iter().map(runtime)),
    }
}

// ---------------------------------------------------------------------------
// The tune report: the certified schedule autotuner over the §5 families
// ---------------------------------------------------------------------------

/// One candidate line of a tune row — a compact rendering of the tuner's
/// scored candidate table for the report.
#[derive(Debug, Clone)]
pub struct TuneCandidateSummary {
    /// The candidate's deterministic label (grouping + schedule).
    pub label: String,
    /// Whether the verifier certified the candidate.
    pub certified: bool,
    /// Measured VM cost in seconds (`None` for refused or unmeasured
    /// candidates).
    pub seconds: Option<f64>,
    /// The refusal or measurement-failure reason (empty when measured).
    pub detail: String,
}

/// One row of the tune report: the autotuner run end-to-end on one §5
/// family through `retreet_runtime::tune_and_compile`.
#[derive(Debug, Clone)]
pub struct TuneReportRow {
    /// Experiment identifier (E1, E2, E3, E4a).
    pub id: &'static str,
    /// Corpus case name.
    pub case: &'static str,
    /// How many schedule candidates were enumerated.
    pub candidates: usize,
    /// How many of them the verifier certified.
    pub certified: usize,
    /// How many were refused (kept in the table with their witness).
    pub refused: usize,
    /// Measured VM cost of the original program, seconds.
    pub baseline_original_seconds: f64,
    /// Measured VM cost of the canonical whole-run fusion, seconds
    /// (`None` if that candidate failed to certify or measure).
    pub baseline_fused_seconds: Option<f64>,
    /// Measured VM cost of the tuner's winner, seconds.
    pub tuned_seconds: f64,
    /// Label of the winning schedule (`"original"` for the baseline
    /// fallback).
    pub winner_label: String,
    /// Certificate kind of the winning schedule.
    pub winner_kind: String,
    /// Engine provenance of the winner's certificate.
    pub winner_engine: &'static str,
    /// Soundness of the winner's certificate.
    pub winner_soundness: String,
    /// True when the tuned schedule is strictly cheaper than the canonical
    /// whole-pass fusion on this workload.
    pub beats_canonical_fusion: bool,
    /// True when the winner's VM run diverged from the original program's
    /// interpreter reference — fails the bench.
    pub drift: bool,
    /// The scored candidate table, in enumeration order.
    pub table: Vec<TuneCandidateSummary>,
}

impl TuneReportRow {
    /// The better of the two baselines.
    pub fn best_baseline_seconds(&self) -> f64 {
        match self.baseline_fused_seconds {
            Some(fused) => self.baseline_original_seconds.min(fused),
            None => self.baseline_original_seconds,
        }
    }

    /// best-baseline / tuned (≥ 1 unless the tuner regressed).
    pub fn speedup(&self) -> f64 {
        self.best_baseline_seconds() / self.tuned_seconds
    }

    /// True when the tuned schedule is *slower* than the best baseline —
    /// a violation of the tuner's guarantee that fails the bench.
    pub fn regressed(&self) -> bool {
        self.tuned_seconds > self.best_baseline_seconds()
    }
}

/// Runs the certified schedule autotuner on the five fusable families through
/// `retreet_runtime::tune_and_compile` (the VM-backed cost model) and
/// records per-family candidate counts, baselines, the winner's certificate
/// provenance, and an explicit winner-vs-interpreter drift recheck.
///
/// The `verifier` should come from [`Budget::tune_verifier`] — the tuner's
/// batch certification relies on shared cache/coalescing state.
pub fn measure_tune(
    verifier: &Verifier,
    options: &retreet_transform::TuneOptions,
) -> Vec<TuneReportRow> {
    use retreet_analysis::vtree::ValueTree;
    use retreet_codegen::{program_fields, trees_agree};
    use retreet_runtime::exec::ProgramExecutor;
    use retreet_runtime::tune_and_compile;
    use retreet_transform::CandidateStatus;

    let cases: [(&'static str, &'static str, retreet_lang::ast::Program); 5] = [
        ("E1", "size_counting", corpus::size_counting_sequential()),
        ("E2", "tree_mutation", corpus::tree_mutation_original()),
        ("E3", "css_minify", corpus::css_minify_original()),
        ("E4a", "cycletree", corpus::cycletree_original()),
        ("E5", "kdtree_closest", corpus::kdtree_closest()),
    ];

    cases
        .into_iter()
        .map(|(id, case, original)| {
            let tuned = tune_and_compile(verifier, &original, options)
                .unwrap_or_else(|err| panic!("{id}: autotuning failed: {err}"));
            let schedule = &tuned.schedule;

            // Independent drift recheck: the winner's compiled run against
            // the original program's interpreter reference on the same
            // measurement tree (the tuner's own gate, reproduced here so
            // the report does not take it on faith).
            let fields = program_fields(&original);
            let field_refs: Vec<&str> = fields.iter().map(String::as_str).collect();
            let mut tree = ValueTree::complete(options.tree_height, &field_refs, |_, _| 0);
            tree.fill_fields(&field_refs, options.seed);
            let drift = match (
                ProgramExecutor::new(&original).run_interpreted(&tree),
                tuned.executor.run(&tree),
            ) {
                (Ok(reference), Ok(winner)) => {
                    winner.returns != reference.returns
                        || !trees_agree(&winner.tree, &reference.tree)
                }
                _ => true,
            };

            let table: Vec<TuneCandidateSummary> = schedule
                .candidates
                .iter()
                .map(|candidate| match &candidate.status {
                    CandidateStatus::Certified { cost, .. } => TuneCandidateSummary {
                        label: candidate.label.clone(),
                        certified: true,
                        seconds: cost.as_ref().ok().copied(),
                        detail: cost.as_ref().err().cloned().unwrap_or_default(),
                    },
                    CandidateStatus::Refused(reason) => TuneCandidateSummary {
                        label: candidate.label.clone(),
                        certified: false,
                        seconds: None,
                        detail: reason.to_string(),
                    },
                })
                .collect();

            let certificate = &schedule.winner.certificate;
            TuneReportRow {
                id,
                case,
                candidates: schedule.candidates.len(),
                certified: schedule.certified_count(),
                refused: schedule.refused_count(),
                baseline_original_seconds: schedule.baseline_original_seconds,
                baseline_fused_seconds: schedule.baseline_fused_seconds,
                tuned_seconds: schedule.winner_seconds,
                winner_label: schedule.winner_label.clone(),
                winner_kind: certificate.kind.to_string(),
                winner_engine: certificate.engine().name(),
                winner_soundness: certificate.soundness().to_string(),
                beats_canonical_fusion: schedule
                    .baseline_fused_seconds
                    .map(|fused| schedule.winner_seconds < fused)
                    .unwrap_or(false),
                drift,
                table,
            }
        })
        .collect()
}

/// Renders the tune report as aligned text tables: one summary row per
/// family, then each family's scored candidate table.
pub fn render_tune_report(rows: &[TuneReportRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<5} {:<14} {:>5} {:>5} {:>4} {:>14} {:>12} {:>11} {:>8} {:>6}\n",
        "id",
        "case",
        "cand",
        "cert",
        "ref",
        "original (ms)",
        "fused (ms)",
        "tuned (ms)",
        "speedup",
        "drift"
    ));
    for row in rows {
        out.push_str(&format!(
            "{:<5} {:<14} {:>5} {:>5} {:>4} {:>14.4} {:>12} {:>11.4} {:>7.2}x {:>6}\n",
            row.id,
            row.case,
            row.candidates,
            row.certified,
            row.refused,
            row.baseline_original_seconds * 1e3,
            row.baseline_fused_seconds
                .map(|s| format!("{:.4}", s * 1e3))
                .unwrap_or_else(|| String::from("-")),
            row.tuned_seconds * 1e3,
            row.speedup(),
            if row.drift { "DRIFT" } else { "ok" },
        ));
    }
    for row in rows {
        out.push_str(&format!(
            "\n{} winner: {} [{} / {} / {}]\n",
            row.id, row.winner_label, row.winner_kind, row.winner_engine, row.winner_soundness
        ));
        for candidate in &row.table {
            out.push_str(&format!(
                "  {:<48} {:>10} {:>12}{}\n",
                candidate.label,
                if candidate.certified {
                    "certified"
                } else {
                    "refused"
                },
                candidate
                    .seconds
                    .map(|s| format!("{:.4} ms", s * 1e3))
                    .unwrap_or_else(|| String::from("-")),
                if candidate.detail.is_empty() {
                    String::new()
                } else {
                    format!("  ({})", candidate.detail)
                },
            ));
        }
    }
    out
}

/// The tune report, the `BENCH_tune.json` document (schema
/// `retreet-bench-tune/v1`; format in `crates/README.md`).
pub fn tune_report(
    label: &str,
    budget: &Budget,
    options: &retreet_transform::TuneOptions,
    rows: &[TuneReportRow],
) -> Value {
    let candidate = |candidate: &TuneCandidateSummary| {
        object! {
            "label": &candidate.label, "certified": candidate.certified,
            "seconds": candidate.seconds.map(|s| num(s, 6)), "detail": &candidate.detail,
        }
    };
    let experiment = |row: &TuneReportRow| {
        object! {
            "id": row.id, "case": row.case, "candidates": row.candidates,
            "certified": row.certified, "refused": row.refused,
            "baseline_original_seconds": num(row.baseline_original_seconds, 6),
            "baseline_fused_seconds": row.baseline_fused_seconds.map(|s| num(s, 6)),
            "tuned_seconds": num(row.tuned_seconds, 6),
            "tuned_speedup": num(row.speedup(), 2),
            "winner": object! {
                "label": &row.winner_label, "certificate": &row.winner_kind,
                "engine": row.winner_engine, "soundness": &row.winner_soundness,
            },
            "beats_canonical_fusion": row.beats_canonical_fusion, "drift": row.drift,
            "table": array(row.table.iter().map(candidate)),
        }
    };
    object! {
        "schema": "retreet-bench-tune/v1",
        "methodology": "retreet-transform::tune over each family's Main pass run: contiguous \
            partial-fusion groupings x schedule variants, certified in one verify_batch call, \
            measured best-of-batches through the retreet-codegen VM tier (never the \
            interpreter), winner never slower than best-of{original, canonical fusion}; winner \
            differential-rechecked against the interpreter reference",
        "budget": object! {
            "label": label, "equiv_nodes": budget.equiv_nodes,
            "equiv_valuations": budget.equiv_valuations, "race_nodes": budget.race_nodes,
            "max_candidates": options.max_candidates, "tree_height": options.tree_height,
            "seed": options.seed, "batches": options.batches, "per_batch": options.per_batch,
        },
        "experiments": array(rows.iter().map(experiment)),
    }
}

// ---------------------------------------------------------------------------
// Codegen tier: interpreter vs bytecode VM
// ---------------------------------------------------------------------------

/// One executable workload timed on both execution tiers (and, where the
/// workload's `Main` fuses, on the VM running the certifiably fused form).
#[derive(Debug, Clone)]
pub struct CodegenPerfRow {
    /// Workload identifier (C1…).
    pub id: &'static str,
    /// Workload description.
    pub case: &'static str,
    /// Nodes in the input tree.
    pub nodes: usize,
    /// Functions compiled to certified worklist loops.
    pub lowered_funcs: usize,
    /// Best-of-batches wall-clock of the reference interpreter, seconds.
    pub interp_seconds: f64,
    /// Best-of-batches wall-clock of the bytecode VM, seconds.
    pub vm_seconds: f64,
    /// Best-of-batches wall-clock of the VM running the certified fusion of
    /// the workload (`None` when `Main` has no certifiable fusion).
    pub vm_fused_seconds: Option<f64>,
    /// True when the VM's returns or post-run tree diverged from the
    /// interpreter's — a correctness regression that fails the bench.
    pub drift: bool,
}

impl CodegenPerfRow {
    /// interpreter / VM.
    pub fn vm_speedup(&self) -> f64 {
        self.interp_seconds / self.vm_seconds
    }

    /// interpreter / VM-on-fused, when a certified fusion exists.
    pub fn fused_speedup(&self) -> Option<f64> {
        self.vm_fused_seconds.map(|s| self.interp_seconds / s)
    }
}

/// One lowering-equivalence certificate line, with the serving provenance
/// (`cached` / `coalesced`) of its verdict reported honestly — the second
/// compilation of a workload must show `cached: true`, not pretend the
/// engine ran again.
#[derive(Debug, Clone)]
pub struct CodegenCertRow {
    /// Workload identifier the lowering belongs to.
    pub workload: &'static str,
    /// The lowered function.
    pub func: String,
    /// `"fresh"` for the first compilation, `"recompile"` for the second.
    pub phase: &'static str,
    /// The engine that produced the equivalence verdict.
    pub engine: &'static str,
    /// Whether the verdict came from the verifier's cache.
    pub cached: bool,
    /// Whether the verdict was coalesced onto a concurrent identical query.
    pub coalesced: bool,
    /// Verdict wall-clock, seconds (the original engine run's time when
    /// cached).
    pub elapsed_seconds: f64,
}

/// The four executable §5 workloads of the codegen bench.
fn codegen_workloads() -> Vec<(&'static str, &'static str, retreet_lang::ast::Program)> {
    vec![
        (
            "C1",
            "size counting: Odd; Even (mutual recursion, frame bytecode)",
            corpus::size_counting_sequential(),
        ),
        (
            "C2",
            "tree mutation: Swap; IncrmLeft (certified worklist loops)",
            corpus::tree_mutation_original(),
        ),
        (
            "C3",
            "CSS minify: ConvertValues; MinifyFont; ReduceInit",
            corpus::css_minify_original(),
        ),
        (
            "C4",
            "cycletree: four numbering modes + ComputeRouting",
            corpus::cycletree_original(),
        ),
        (
            "C5",
            "k-d find-closest-point: ComputeDist; FoldMin over a left-balanced tree",
            corpus::kdtree_closest(),
        ),
    ]
}

/// Runs the codegen benchmark: for each executable §5 workload, compile
/// with certified lowering (twice, so the certificate lines show the
/// fresh-then-cached serving path), differential-check the VM against the
/// interpreter on the same tree, then time interpreter vs VM vs
/// VM-on-certified-fusion.  The `verifier` should have its cache *enabled*
/// — honest `cached`/`coalesced` reporting is part of what this bench
/// demonstrates.
pub fn measure_codegen_perf(
    verifier: &Verifier,
    batches: usize,
    per_batch: usize,
    tree_height: usize,
) -> (Vec<CodegenPerfRow>, Vec<CodegenCertRow>) {
    use retreet_analysis::interp;
    use retreet_analysis::vtree::ValueTree;
    use retreet_codegen::{compile_with_lowering, trees_agree, Vm};
    use retreet_lang::blocks::BlockTable;
    use retreet_transform::fuse_main_passes;

    let mut rows = Vec::new();
    let mut certs = Vec::new();
    for (id, case, program) in codegen_workloads() {
        let compiled = match compile_with_lowering(verifier, &program) {
            Ok(compiled) => compiled,
            Err(err) => panic!("{id}: codegen failed: {err}"),
        };
        for cert in &compiled.lowerings {
            certs.push(CodegenCertRow {
                workload: id,
                func: cert.func.clone(),
                phase: "fresh",
                engine: cert.verdict.engine.name(),
                cached: cert.verdict.cached,
                coalesced: cert.verdict.coalesced,
                elapsed_seconds: cert.verdict.elapsed.as_secs_f64(),
            });
        }
        // Compile again: the same equivalence queries must now be served
        // from the verdict cache, and the rows must say so.
        if let Ok(recompiled) = compile_with_lowering(verifier, &program) {
            for cert in &recompiled.lowerings {
                certs.push(CodegenCertRow {
                    workload: id,
                    func: cert.func.clone(),
                    phase: "recompile",
                    engine: cert.verdict.engine.name(),
                    cached: cert.verdict.cached,
                    coalesced: cert.verdict.coalesced,
                    elapsed_seconds: cert.verdict.elapsed.as_secs_f64(),
                });
            }
        }

        let fields = retreet_codegen::program_fields(&program);
        let field_refs: Vec<&str> = fields.iter().map(String::as_str).collect();
        let mut tree = ValueTree::complete(tree_height, &field_refs, |_, _| 0);
        tree.fill_fields(&field_refs, 7);

        // Differential gate before any timing: identical returns and
        // semantically identical trees, or the row is marked as drift.
        let table = BlockTable::build(&program);
        let mut vm = Vm::new();
        let drift = match (
            interp::run_with_table(&table, &tree),
            vm.run(&compiled, &tree),
        ) {
            (Ok(exp), Ok(act)) => exp.returns != act.returns || !trees_agree(&exp.tree, &act.tree),
            (Err(_), Err(_)) => false,
            _ => true,
        };

        let interp_seconds = best_of(batches, per_batch, || {
            std::hint::black_box(interp::run_with_table(&table, &tree).ok());
        });
        let vm_seconds = best_of(batches, per_batch, || {
            std::hint::black_box(vm.run(&compiled, &tree).ok());
        });
        let vm_fused_seconds = fuse_main_passes(verifier, &program)
            .ok()
            .and_then(|fused| compile_with_lowering(verifier, &fused.transformed).ok())
            .map(|compiled_fused| {
                best_of(batches, per_batch, || {
                    std::hint::black_box(vm.run(&compiled_fused, &tree).ok());
                })
            });

        rows.push(CodegenPerfRow {
            id,
            case,
            nodes: tree.len(),
            lowered_funcs: compiled.lowerings.len(),
            interp_seconds,
            vm_seconds,
            vm_fused_seconds,
            drift,
        });
    }
    (rows, certs)
}

/// Renders the codegen report as aligned text tables.
pub fn render_codegen_report(rows: &[CodegenPerfRow], certs: &[CodegenCertRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<4} {:>8} {:>8} {:>12} {:>10} {:>8} {:>12} {:>7}\n",
        "id", "nodes", "lowered", "interp (ms)", "vm (ms)", "speedup", "fused (ms)", "drift"
    ));
    for row in rows {
        out.push_str(&format!(
            "{:<4} {:>8} {:>8} {:>12.4} {:>10.4} {:>7.2}x {:>12} {:>7}\n",
            row.id,
            row.nodes,
            row.lowered_funcs,
            row.interp_seconds * 1e3,
            row.vm_seconds * 1e3,
            row.vm_speedup(),
            row.vm_fused_seconds
                .map(|s| format!("{:.4}", s * 1e3))
                .unwrap_or_else(|| String::from("-")),
            if row.drift { "DRIFT" } else { "ok" },
        ));
    }
    out.push('\n');
    out.push_str(&format!(
        "{:<4} {:<12} {:<10} {:<14} {:>7} {:>10}\n",
        "id", "func", "phase", "engine", "cached", "coalesced"
    ));
    for cert in certs {
        out.push_str(&format!(
            "{:<4} {:<12} {:<10} {:<14} {:>7} {:>10}\n",
            cert.workload, cert.func, cert.phase, cert.engine, cert.cached, cert.coalesced,
        ));
    }
    out
}

/// The codegen report, the `BENCH_codegen.json` document (schema
/// `retreet-bench-codegen/v1`; format in `crates/README.md`).
pub fn codegen_report(
    label: &str,
    tree_height: usize,
    rows: &[CodegenPerfRow],
    certs: &[CodegenCertRow],
) -> Value {
    let workload = |row: &CodegenPerfRow| {
        object! {
            "id": row.id, "case": row.case, "nodes": row.nodes,
            "lowered_funcs": row.lowered_funcs,
            "interp_seconds": num(row.interp_seconds, 6),
            "vm_seconds": num(row.vm_seconds, 6), "vm_speedup": num(row.vm_speedup(), 2),
            "vm_fused_seconds": row.vm_fused_seconds.map(|s| num(s, 6)),
            "fused_speedup": row.fused_speedup().map(|s| num(s, 2)),
            "drift": row.drift,
        }
    };
    let certificate = |cert: &CodegenCertRow| {
        object! {
            "workload": cert.workload, "func": &cert.func, "phase": cert.phase,
            "engine": cert.engine, "cached": cert.cached, "coalesced": cert.coalesced,
            "elapsed_seconds": num(cert.elapsed_seconds, 6),
        }
    };
    object! {
        "schema": "retreet-bench-codegen/v1",
        "methodology": "best-of-batches wall-clock of the reference interpreter vs the \
            retreet-codegen bytecode VM on complete trees; every iterative lowering certified by \
            an equivalence verdict (fresh-then-cached serving path shown); VM outputs \
            differential-checked against the interpreter before timing",
        "budget": object! { "label": label, "tree_height": tree_height },
        "workloads": array(rows.iter().map(workload)),
        "lowering_certificates": array(certs.iter().map(certificate)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use retreet_serve::json;
    use std::collections::BTreeMap;

    /// A report as the binaries write it, parsed back: the top-level object.
    fn written(report: &Value) -> BTreeMap<String, Value> {
        match json::parse(&report.pretty()).unwrap() {
            Value::Object(map) => map,
            other => panic!("report is not an object: {other}"),
        }
    }

    /// The items of a report array, each an object.
    fn objects(array: &Value) -> Vec<&BTreeMap<String, Value>> {
        let items = array.as_array().expect("an array");
        items
            .iter()
            .map(|item| item.as_object().expect("an object"))
            .collect()
    }

    #[test]
    fn codegen_report_has_no_drift_and_honest_cache_flags() {
        let verifier = Verifier::builder().build();
        let (rows, certs) = measure_codegen_perf(&verifier, 1, 1, 6);
        assert_eq!(rows.len(), 5);
        for row in &rows {
            assert!(!row.drift, "{}: VM diverged from the interpreter", row.id);
        }
        // At least one §5 workload lowers, and the recompile phase is
        // served from the verdict cache and says so.
        assert!(rows.iter().any(|r| r.lowered_funcs > 0));
        assert!(certs.iter().any(|c| c.phase == "fresh" && !c.cached));
        assert!(certs.iter().any(|c| c.phase == "recompile" && c.cached));
        let report = written(&codegen_report("quick", 6, &rows, &certs));
        assert_eq!(report["schema"].as_str(), Some("retreet-bench-codegen/v1"));
        let workloads = objects(&report["workloads"]);
        assert_eq!(workloads.len(), 5);
        assert!(workloads.iter().all(|w| w["drift"] == Value::Bool(false)));
        let lowerings = objects(&report["lowering_certificates"]);
        assert_eq!(lowerings.len(), certs.len());
        assert!(lowerings
            .iter()
            .any(|c| c["phase"].as_str() == Some("recompile") && c["cached"] == Value::Bool(true)));
    }

    #[test]
    fn every_experiment_matches_the_paper_verdict() {
        let budget = Budget::quick();
        let results = run_all(&budget);
        assert_eq!(results.len(), 7);
        for result in &results {
            assert!(
                result.matches_paper(),
                "{} disagreed with the paper: {:?} (expected {:?}) — {}",
                result.id,
                result.verdict,
                result.expected,
                result.detail
            );
        }
    }

    #[test]
    fn ablation_shows_the_granularity_gap() {
        let rows = ablation_granularity(&Budget::quick());
        // The coarse baseline rejects the CSS and cycletree fusions that the
        // fine-grained analysis accepts — the paper's motivating gap.
        let css = rows.iter().find(|r| r.case == "css_minification").unwrap();
        assert!(!css.coarse_accepts && css.fine_grained_accepts);
        let cyc = rows.iter().find(|r| r.case == "cycletree").unwrap();
        assert!(!cyc.coarse_accepts && cyc.fine_grained_accepts);
        // Both agree on the trivially disjoint size-counting case.
        let size = rows.iter().find(|r| r.case == "size_counting").unwrap();
        assert!(size.coarse_accepts && size.fine_grained_accepts);
    }

    #[test]
    fn every_result_reports_engine_provenance() {
        let results = run_all(&Budget::quick());
        for result in &results {
            assert!(
                ["automata", "configuration", "trace"].contains(&result.engine),
                "{}: unexpected engine {}",
                result.id,
                result.engine
            );
            assert!(!result.soundness.is_empty(), "{}", result.id);
        }
    }

    #[test]
    fn every_paper_experiment_is_answered_unbounded() {
        // The tentpole claim: the automata tier answers all seven §5
        // experiments (positively via the structural analyses, negatively
        // via delegated witness search) with an unbounded guarantee.
        let results = run_all(&Budget::quick());
        assert_eq!(results.len(), 7);
        for result in &results {
            assert_eq!(result.engine, "automata", "{}", result.id);
            assert_eq!(result.soundness, "unbounded", "{}", result.id);
        }
    }

    #[test]
    fn rendering_and_serialization() {
        let budget = Budget::quick();
        let results = vec![e1c_size_counting_race_freedom(&budget)];
        let table = render_table(&results);
        assert!(table.contains("E1c"));
        let record = json::parse(&experiments_report(&results).pretty()).unwrap();
        let rows = objects(&record);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0]["verdict"].as_str(), Some("RaceFree"));
        assert_eq!(rows[0]["engine"].as_str(), Some(results[0].engine));
    }

    #[test]
    fn transform_certificates_hold_under_the_quick_budget() {
        let certs = certify_transforms(&Budget::quick());
        assert_eq!(certs.len(), 5);
        for row in &certs {
            assert!(row.certified, "{} drifted: {}", row.id, row.detail);
            assert_eq!(row.kind, "equivalence", "{}", row.id);
            // A bounded certificate must rest on actual models; an
            // unbounded fusion-correspondence certificate rests on none.
            assert!(
                row.trees_checked > 0 || row.soundness == "unbounded",
                "{}: no models and no unbounded guarantee",
                row.id
            );
        }
        // The cycletree fusion is the only multi-function tuple family.
        let cycletree = certs.iter().find(|r| r.id == "E4a").unwrap();
        assert_eq!(cycletree.fused_functions, 4);
    }

    #[test]
    fn transform_report_serializes_with_the_versioned_schema() {
        let budget = Budget::quick();
        let certs = certify_transforms(&budget);
        let perf = measure_transform_perf(&budget.tune_verifier(), 1, 1, 6);
        assert_eq!(perf.len(), 5, "all five fusable families get runtime rows");
        for row in &perf {
            assert!(!row.drift, "{}: VM diverged from the interpreter", row.id);
        }
        let report = written(&transform_report("quick", &budget, &certs, &perf));
        assert_eq!(
            report["schema"].as_str(),
            Some("retreet-bench-transform/v2")
        );
        assert_eq!(objects(&report["certificates"]).len(), 5);
        let runtime = objects(&report["runtime"]);
        let ids: Vec<_> = runtime.iter().map(|r| r["id"].as_str().unwrap()).collect();
        assert_eq!(ids, ["E1", "E2", "E3", "E4a", "E5"]);
        for row in runtime {
            assert_eq!(row["drift"], Value::Bool(false));
            assert!(matches!(row["speedup"], Value::Number(_)));
        }
        let table = render_transform_report(&certs, &perf);
        assert!(table.contains("E4a") && table.contains("speedup"));
    }

    #[test]
    fn tune_report_respects_the_baseline_guarantee_and_serializes() {
        let budget = Budget::quick();
        let verifier = budget.tune_verifier();
        let options = retreet_transform::TuneOptions::quick();
        let rows = measure_tune(&verifier, &options);
        assert_eq!(rows.len(), 5, "all five fusable families tune");
        for row in &rows {
            assert!(!row.drift, "{}: winner drifted from the reference", row.id);
            assert!(!row.regressed(), "{}: tuned slower than baseline", row.id);
            assert!(row.candidates >= 1 && row.certified >= 1, "{}", row.id);
            assert_eq!(row.candidates, row.certified + row.refused, "{}", row.id);
            assert_eq!(row.winner_kind, "equivalence", "{}", row.id);
            assert!(!row.winner_engine.is_empty() && !row.winner_soundness.is_empty());
        }
        // The cycletree family refuses its racy parallel-passes candidate
        // and keeps it in the table.
        let cycletree = rows.iter().find(|r| r.id == "E4a").unwrap();
        assert!(cycletree.refused >= 1);
        assert!(cycletree
            .table
            .iter()
            .any(|c| !c.certified && c.detail.contains("data race")));
        let report = written(&tune_report("quick", &budget, &options, &rows));
        assert_eq!(report["schema"].as_str(), Some("retreet-bench-tune/v1"));
        let experiments = objects(&report["experiments"]);
        assert_eq!(experiments.len(), 5);
        for (experiment, row) in experiments.iter().zip(&rows) {
            assert_eq!(
                experiment["beats_canonical_fusion"],
                Value::Bool(row.beats_canonical_fusion)
            );
            assert_eq!(experiment["drift"], Value::Bool(false));
            assert!(matches!(experiment["tuned_speedup"], Value::Number(_)));
        }
        let table = render_tune_report(&rows);
        assert!(table.contains("winner") && table.contains("E4a"));
    }
}
