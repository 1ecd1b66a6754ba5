//! Program execution with tier selection: compiled bytecode first, the
//! reference interpreter as fallback.
//!
//! A [`ProgramExecutor`] is built once per program and reused across trees,
//! from any number of threads at once: it holds the compiled
//! [`CompiledProgram`] (when compilation succeeded) and the interpreter's
//! prebuilt [`BlockTable`] for the fallback path; every run gets a fresh
//! [`Vm`], whose pools only grow to the run's depth × register window.
//!
//! Two entry points take two kinds of input.  [`ProgramExecutor::run`]
//! executes on a caller's [`ValueTree`] and returns the post-run tree (the
//! differential tests' surface).  [`ProgramExecutor::run_complete`] takes a
//! seeded complete tree by its `(arity, height, seed)` alone and returns no
//! tree: on the VM tier it builds a [`FlatTree`] straight from those three
//! numbers, runs on it and drops it, so no [`ValueTree`] is ever built.
//! Construction through
//! [`ProgramExecutor::with_verifier`] additionally runs the certified
//! iterative-lowering pipeline of `retreet-codegen`, so self-recursive
//! traversals execute as explicit-worklist loops — but only when the
//! verifier certified the lowering equivalent to the recursion.
//!
//! Runtime errors (nil dereference, depth exhaustion) are *program* errors
//! the interpreter would raise identically, so they are reported, not used
//! as a reason to fall back.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use retreet_analysis::interp::{self, InterpError};
use retreet_analysis::vtree::ValueTree;
use retreet_codegen::{
    compile, compile_with_lowering, program_fields, run_program, CompiledProgram, FlatTree,
    LoweringCertificate, Vm, VmError,
};
use retreet_lang::ast::Program;
use retreet_lang::blocks::BlockTable;
use retreet_transform::CertifiedTransform;
use retreet_verify::Verifier;

/// Which execution tier ran (or would run) a program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecTier {
    /// Compiled bytecode on the VM.
    Vm,
    /// The reference tree-walking interpreter.
    Interpreter,
}

impl fmt::Display for ExecTier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecTier::Vm => write!(f, "vm"),
            ExecTier::Interpreter => write!(f, "interpreter"),
        }
    }
}

/// The result of one run: `Main`'s values, the post-run tree, and which
/// tier produced them.
#[derive(Debug, Clone)]
pub struct ExecOutcome {
    /// Values returned by `Main`.
    pub returns: Vec<i64>,
    /// The tree after all field writes.
    pub tree: ValueTree,
    /// The tier that executed the program.
    pub tier: ExecTier,
}

/// The result of [`ProgramExecutor::run_complete`]: `Main`'s values, the
/// tier that produced them and the size of the tree they ran on — no tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompleteRun {
    /// Values returned by `Main`.
    pub returns: Vec<i64>,
    /// The tier that executed the program.
    pub tier: ExecTier,
    /// Nodes of the complete tree the program ran on.
    pub nodes: usize,
}

/// A runtime failure, from whichever tier ran.
#[derive(Debug, Clone)]
pub enum ExecError {
    /// The VM failed.
    Vm(VmError),
    /// The interpreter failed.
    Interp(InterpError),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Vm(err) => write!(f, "vm: {err}"),
            ExecError::Interp(err) => write!(f, "interpreter: {err}"),
        }
    }
}

impl std::error::Error for ExecError {}

/// A reusable executor for one program.
#[derive(Debug)]
pub struct ProgramExecutor {
    table: BlockTable,
    compiled: Option<CompiledProgram>,
    /// The fields the interpreter fallback of [`Self::run_complete`] seeds.
    fields: Vec<String>,
    vm_runs: AtomicU64,
    interp_runs: AtomicU64,
}

impl ProgramExecutor {
    /// Builds an executor with plain compilation (no iterative lowering).
    /// A program the bytecode compiler rejects — e.g. a call to an unknown
    /// function, which the interpreter only faults on lazily — still gets
    /// an executor; it just runs on the interpreter tier.
    pub fn new(program: &Program) -> Self {
        Self::build(program, compile(program).ok())
    }

    /// Builds an executor whose compilation includes the certified
    /// iterative-lowering pass: lowerable traversals are submitted to
    /// `verifier` and run as worklist loops when (and only when) the
    /// equivalence verdict is positive.
    pub fn with_verifier(verifier: &Verifier, program: &Program) -> Self {
        Self::build(program, compile_with_lowering(verifier, program).ok())
    }

    fn build(program: &Program, compiled: Option<CompiledProgram>) -> Self {
        ProgramExecutor {
            table: BlockTable::build(program),
            compiled,
            fields: program_fields(program),
            vm_runs: AtomicU64::new(0),
            interp_runs: AtomicU64::new(0),
        }
    }

    /// The tier [`Self::run`] and [`Self::run_complete`] will use.
    pub fn tier(&self) -> ExecTier {
        if self.compiled.is_some() {
            ExecTier::Vm
        } else {
            ExecTier::Interpreter
        }
    }

    /// The equivalence certificates of the iterative lowerings baked into
    /// the compiled program (empty without [`Self::with_verifier`], or when
    /// nothing was lowerable).
    pub fn lowerings(&self) -> &[LoweringCertificate] {
        self.compiled
            .as_ref()
            .map(|c| c.lowerings.as_slice())
            .unwrap_or(&[])
    }

    /// Runs the program on `tree`, preferring the compiled tier.
    pub fn run(&self, tree: &ValueTree) -> Result<ExecOutcome, ExecError> {
        match &self.compiled {
            Some(compiled) => {
                let result = run_program(compiled, tree).map_err(ExecError::Vm)?;
                self.vm_runs.fetch_add(1, Ordering::Relaxed);
                Ok(ExecOutcome {
                    returns: result.returns,
                    tree: result.tree,
                    tier: ExecTier::Vm,
                })
            }
            None => self.run_interpreted(tree),
        }
    }

    /// Runs the program on the complete `arity`-ary tree of `height` levels
    /// whose fields are seeded from `seed` — the tree
    /// `ValueTree::complete_kary` + `fill_fields` would build — preferring
    /// the compiled tier.  The VM tier builds that tree directly as a
    /// [`FlatTree`] and drops it after the run; only the interpreter
    /// fallback builds the [`ValueTree`].
    ///
    /// # Panics
    ///
    /// When `height` or `arity` is 0; callers bound the tree's node count
    /// before asking for it.
    pub fn run_complete(
        &self,
        arity: u8,
        height: usize,
        seed: u64,
    ) -> Result<CompleteRun, ExecError> {
        match &self.compiled {
            Some(compiled) => {
                let mut tree = FlatTree::complete(arity, height, &compiled.fields, seed);
                let returns = Vm::new()
                    .run_flat(compiled, &mut tree)
                    .map_err(ExecError::Vm)?;
                self.vm_runs.fetch_add(1, Ordering::Relaxed);
                Ok(CompleteRun {
                    returns,
                    tier: ExecTier::Vm,
                    nodes: tree.len(),
                })
            }
            None => {
                let fields: Vec<&str> = self.fields.iter().map(String::as_str).collect();
                let mut tree = ValueTree::complete_kary(arity, height, &fields, |_, _| 0);
                tree.fill_fields(&fields, seed);
                let outcome = self.run_interpreted(&tree)?;
                Ok(CompleteRun {
                    returns: outcome.returns,
                    tier: outcome.tier,
                    nodes: tree.len(),
                })
            }
        }
    }

    /// Runs the program on the interpreter tier unconditionally (the
    /// differential baseline).
    pub fn run_interpreted(&self, tree: &ValueTree) -> Result<ExecOutcome, ExecError> {
        let result = interp::run_with_table(&self.table, tree).map_err(ExecError::Interp)?;
        self.interp_runs.fetch_add(1, Ordering::Relaxed);
        Ok(ExecOutcome {
            returns: result.returns,
            tree: result.tree,
            tier: ExecTier::Interpreter,
        })
    }

    /// How many runs the VM tier has served.
    pub fn vm_runs(&self) -> u64 {
        self.vm_runs.load(Ordering::Relaxed)
    }

    /// How many runs the interpreter tier has served.
    pub fn interp_runs(&self) -> u64 {
        self.interp_runs.load(Ordering::Relaxed)
    }
}

/// One-shot convenience: compile (without lowering) and run `program` on
/// `tree`, preferring the compiled tier.
pub fn run_compiled(program: &Program, tree: &ValueTree) -> Result<ExecOutcome, ExecError> {
    ProgramExecutor::new(program).run(tree)
}

/// One-shot convenience for a certified transform: compile the transformed
/// program — with certified lowering — and run it.
pub fn run_compiled_certified(
    verifier: &Verifier,
    transform: &CertifiedTransform,
    tree: &ValueTree,
) -> Result<ExecOutcome, ExecError> {
    ProgramExecutor::with_verifier(verifier, &transform.transformed).run(tree)
}

#[cfg(test)]
mod tests {
    use super::*;
    use retreet_lang::corpus;

    #[test]
    fn executor_prefers_vm_and_matches_interpreter() {
        let program = corpus::size_counting_sequential();
        let executor = ProgramExecutor::new(&program);
        assert_eq!(executor.tier(), ExecTier::Vm);
        let mut tree = ValueTree::complete(8, &[], |_, _| 0);
        tree.fill_fields(&[], 3);
        let fast = executor.run(&tree).expect("vm run");
        let slow = executor.run_interpreted(&tree).expect("interp run");
        assert_eq!(fast.tier, ExecTier::Vm);
        assert_eq!(slow.tier, ExecTier::Interpreter);
        assert_eq!(fast.returns, slow.returns);
        assert_eq!(executor.vm_runs(), 1);
        assert_eq!(executor.interp_runs(), 1);
    }

    #[test]
    fn uncompilable_program_falls_back_to_interpreter() {
        let program = retreet_lang::parser::parse_program("fn Main(n) { x = Ghost(n); return x; }")
            .expect("parse");
        let executor = ProgramExecutor::new(&program);
        assert_eq!(executor.tier(), ExecTier::Interpreter);
        let result = executor.run(&ValueTree::single());
        assert!(
            matches!(
                result,
                Err(ExecError::Interp(InterpError::UnknownFunction(_)))
            ),
            "interpreter surfaces the unknown callee at run time"
        );
    }

    /// The interpreter's answer on the seeded complete tree `run_complete`
    /// is asked for.
    fn interpreted_on_complete(
        executor: &ProgramExecutor,
        program: &Program,
        arity: u8,
        height: usize,
        seed: u64,
    ) -> ExecOutcome {
        let fields = program_fields(program);
        let fields: Vec<&str> = fields.iter().map(String::as_str).collect();
        let mut tree = ValueTree::complete_kary(arity, height, &fields, |_, _| 0);
        tree.fill_fields(&fields, seed);
        executor.run_interpreted(&tree).expect("interp run")
    }

    #[test]
    fn run_complete_falls_back_to_the_interpreter() {
        let program = retreet_lang::parser::parse_program(
            "fn Main(n) { if (n == nil) { x = Ghost(n); return x; } else { v = n.v; return v; } }",
        )
        .expect("parse");
        let executor = ProgramExecutor::new(&program);
        assert_eq!(executor.tier(), ExecTier::Interpreter);
        let run = executor.run_complete(2, 3, 9).expect("interp");
        let expected = interpreted_on_complete(&executor, &program, 2, 3, 9);
        assert_eq!(run.tier, ExecTier::Interpreter);
        assert_eq!(run.returns, expected.returns);
        assert_eq!(run.nodes, 7);
    }

    #[test]
    fn concurrent_runs_of_one_executor_each_match_the_interpreter() {
        let program = corpus::kdtree_closest();
        let executor = ProgramExecutor::new(&program);
        assert_eq!(executor.tier(), ExecTier::Vm);
        let barrier = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            for seed in [3u64, 5, 7, 11] {
                let (executor, program, barrier) = (&executor, &program, &barrier);
                scope.spawn(move || {
                    barrier.wait();
                    for _ in 0..3 {
                        let fast = executor.run_complete(2, 9, seed).expect("vm");
                        let slow = interpreted_on_complete(executor, program, 2, 9, seed);
                        assert_eq!(fast.returns, slow.returns, "seed {seed}");
                    }
                });
            }
        });
        assert_eq!(executor.vm_runs(), 12);
    }

    #[test]
    fn with_verifier_carries_lowering_certificates() {
        let verifier = Verifier::builder().build();
        let program = corpus::tree_mutation_original();
        let executor = ProgramExecutor::with_verifier(&verifier, &program);
        assert!(!executor.lowerings().is_empty());
        let mut tree = ValueTree::complete(5, &["v"], |_, _| 0);
        tree.fill_fields(&["v"], 9);
        let fast = executor.run(&tree).expect("vm");
        let slow = executor.run_interpreted(&tree).expect("interp");
        assert_eq!(fast.returns, slow.returns);
        assert!(retreet_codegen::trees_agree(&fast.tree, &slow.tree));
    }
}
