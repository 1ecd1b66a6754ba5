//! The three workloads: the §5 query mix, its α-renamed cold variants, and
//! the `run` programs, each turned into a seeded stream of NDJSON requests
//! with the answer every response must carry.

use retreet_lang::corpus;
use retreet_serve::json;

/// One workload of the benchmark (see `NOTES.md` for why each exists).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Cache hits only: the 22-query mix against a warm-started server.
    WarmVerify,
    /// Cache misses only: every request is a fresh α-renamed mix query.
    ColdVerify,
    /// `run` requests executing the corpus programs on large trees.
    RunExec,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::WarmVerify,
        Workload::ColdVerify,
        Workload::RunExec,
    ];

    /// Parses a workload name as `BENCHMARK.json` spells it.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The name `BENCHMARK.json` uses.
    pub fn name(self) -> &'static str {
        match self {
            Workload::WarmVerify => "warm-verify",
            Workload::ColdVerify => "cold-verify",
            Workload::RunExec => "run-exec",
        }
    }

    /// Client connections (one thread each) of the closed loop, capped at
    /// the host's core count.
    pub fn connections(self, nproc: usize) -> usize {
        match self {
            Workload::WarmVerify => 2.min(nproc.max(1)),
            Workload::ColdVerify | Workload::RunExec => 1,
        }
    }
}

/// A small deterministic generator (SplitMix64), so the same seed gives
/// the same request stream on every host.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Shuffles `items` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// What a mix query asks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MixKind {
    /// A `race` query on one program.
    Race(&'static str),
    /// An `equivalence` query on an (original, transformed) pair.
    Equivalence(&'static str, &'static str),
}

/// One query of the §5 mix with the verdict the paper reports for it.
#[derive(Debug, Clone, Copy)]
pub struct MixQuery {
    /// Corpus name (race queries) or experiment id (equivalence pairs).
    pub label: &'static str,
    /// The query.
    pub kind: MixKind,
    /// The verdict word the service must answer.
    pub verdict: &'static str,
}

/// The 22-query §5 mix: every corpus program as a `race` query, plus the
/// five fusion pairs E1a/E1b/E2/E3/E4a — exactly what `--warm-start`
/// preloads.
pub fn mix() -> Vec<MixQuery> {
    let race = |label, source, verdict| MixQuery {
        label,
        kind: MixKind::Race(source),
        verdict,
    };
    let equiv = |label, original, transformed, verdict| MixQuery {
        label,
        kind: MixKind::Equivalence(original, transformed),
        verdict,
    };
    use corpus::*;
    vec![
        race(
            "size_counting_parallel",
            SIZE_COUNTING_PARALLEL_SRC,
            "race-free",
        ),
        race(
            "size_counting_sequential",
            SIZE_COUNTING_SEQUENTIAL_SRC,
            "race-free",
        ),
        race("size_counting_fused", SIZE_COUNTING_FUSED_SRC, "race-free"),
        race(
            "size_counting_fused_invalid",
            SIZE_COUNTING_FUSED_INVALID_SRC,
            "race-free",
        ),
        race(
            "tree_mutation_original",
            TREE_MUTATION_ORIGINAL_SRC,
            "race-free",
        ),
        race("tree_mutation_fused", TREE_MUTATION_FUSED_SRC, "race-free"),
        race("css_minify_original", CSS_MINIFY_ORIGINAL_SRC, "race-free"),
        race("css_minify_fused", CSS_MINIFY_FUSED_SRC, "race-free"),
        race("cycletree_original", CYCLETREE_ORIGINAL_SRC, "race-free"),
        race("cycletree_fused", CYCLETREE_FUSED_SRC, "race-free"),
        race("cycletree_parallel", CYCLETREE_PARALLEL_SRC, "race"),
        race("disjoint_parallel", DISJOINT_PARALLEL_SRC, "race-free"),
        race("overlapping_parallel", OVERLAPPING_PARALLEL_SRC, "race"),
        race("kdtree_closest", KDTREE_CLOSEST_SRC, "race-free"),
        race(
            "ternary_sum_sequential",
            TERNARY_SUM_SEQUENTIAL_SRC,
            "race-free",
        ),
        race(
            "ternary_sum_parallel",
            TERNARY_SUM_PARALLEL_SRC,
            "race-free",
        ),
        race("ternary_sum_racy", TERNARY_SUM_RACY_SRC, "race"),
        equiv(
            "E1a",
            SIZE_COUNTING_SEQUENTIAL_SRC,
            SIZE_COUNTING_FUSED_SRC,
            "equivalent",
        ),
        equiv(
            "E1b",
            SIZE_COUNTING_SEQUENTIAL_SRC,
            SIZE_COUNTING_FUSED_INVALID_SRC,
            "not-equivalent",
        ),
        equiv(
            "E2",
            TREE_MUTATION_ORIGINAL_SRC,
            TREE_MUTATION_FUSED_SRC,
            "equivalent",
        ),
        equiv(
            "E3",
            CSS_MINIFY_ORIGINAL_SRC,
            CSS_MINIFY_FUSED_SRC,
            "equivalent",
        ),
        equiv(
            "E4a",
            CYCLETREE_ORIGINAL_SRC,
            CYCLETREE_FUSED_SRC,
            "equivalent",
        ),
    ]
}

/// A program of the `run-exec` workload and the complete tree it runs on.
#[derive(Debug, Clone, Copy)]
pub struct RunProgram {
    /// Stable name (the key of the golden table).
    pub name: &'static str,
    /// Retreet source sent in the request.
    pub source: &'static str,
    /// Complete-tree height.
    pub height: usize,
    /// Complete-tree arity.
    pub arity: u8,
}

impl RunProgram {
    /// Nodes of the complete tree: `(arity^height - 1) / (arity - 1)`.
    pub fn nodes(&self) -> usize {
        let arity = self.arity as usize;
        (arity.pow(self.height as u32) - 1) / (arity - 1)
    }
}

/// The `run-exec` programs: the binary ones at the largest height the
/// server admits (16, 65,535 nodes), ternary `Sum` at height 10.
pub const RUN_PROGRAMS: [RunProgram; 6] = [
    RunProgram {
        name: "size_counting",
        source: corpus::SIZE_COUNTING_SEQUENTIAL_SRC,
        height: 16,
        arity: 2,
    },
    RunProgram {
        name: "tree_mutation",
        source: corpus::TREE_MUTATION_ORIGINAL_SRC,
        height: 16,
        arity: 2,
    },
    RunProgram {
        name: "css_minify",
        source: corpus::CSS_MINIFY_ORIGINAL_SRC,
        height: 16,
        arity: 2,
    },
    RunProgram {
        name: "cycletree",
        source: corpus::CYCLETREE_ORIGINAL_SRC,
        height: 16,
        arity: 2,
    },
    RunProgram {
        name: "kdtree_closest",
        source: corpus::KDTREE_CLOSEST_SRC,
        height: 16,
        arity: 2,
    },
    RunProgram {
        name: "ternary_sum",
        source: corpus::TERNARY_SUM_SEQUENTIAL_SRC,
        height: 10,
        arity: 3,
    },
];

/// Field valuations a `run` request may carry; the golden table holds the
/// reference interpreter's answer for every (program, valuation) pair.
pub const VALUATIONS: [u64; 8] = [11, 23, 37, 41, 53, 67, 79, 97];

/// The committed golden answers (see `golden_table`).
pub const GOLDEN_TABLE: &str = include_str!("../golden_returns.txt");

/// What the reference interpreter computes for one `run`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Golden {
    /// [`fields_digest`] of the tree after the run.
    pub fields: u64,
    /// `Main`'s returns.
    pub returns: Vec<i64>,
}

/// The golden answer of `program` under `valuation`, from the committed
/// table.
pub fn golden(program: &str, valuation: u64) -> Option<Golden> {
    GOLDEN_TABLE
        .lines()
        .filter(|line| !line.starts_with('#') && !line.trim().is_empty())
        .find_map(|line| {
            let mut fields = line.split_whitespace();
            let name = fields.next()?;
            let seed: u64 = fields.next()?.parse().ok()?;
            if name != program || seed != valuation {
                return None;
            }
            let digest = u64::from_str_radix(fields.next()?, 16).ok()?;
            let returns = fields.map(|v| v.parse().ok()).collect::<Option<_>>()?;
            Some(Golden {
                fields: digest,
                returns,
            })
        })
}

/// FNV-1a over every field `parsed` names, node by node: a digest of what
/// a run wrote into the tree.
pub fn fields_digest(
    tree: &retreet_analysis::vtree::ValueTree,
    parsed: &retreet_lang::ast::Program,
) -> u64 {
    let fields = retreet_codegen::program_fields(parsed);
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for node in tree.nodes() {
        for field in &fields {
            for byte in tree.field(node, field).to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    hash
}

/// The golden table as the reference interpreter computes it — the text
/// of `golden_returns.txt`.  Never uses the VM.
pub fn golden_table() -> String {
    use retreet_analysis::interp;
    let mut out = String::from(
        "# program valuation fields-digest returns... \
         (retreet_analysis::interp::run on the complete tree)\n",
    );
    for program in RUN_PROGRAMS {
        let parsed = retreet_lang::parse_program(program.source).expect("corpus program parses");
        for valuation in VALUATIONS {
            let tree = run_tree(&parsed, &program, valuation);
            let result = interp::run(&parsed, &tree).expect("reference interpreter runs");
            let returns: Vec<String> = result.returns.iter().map(i64::to_string).collect();
            out.push_str(&format!(
                "{} {} {:016x} {}\n",
                program.name,
                valuation,
                fields_digest(&result.tree, &parsed),
                returns.join(" ")
            ));
        }
    }
    out
}

/// The tree a `run` request is answered on, built exactly as the server
/// builds it: a zeroed complete tree whose program fields are then filled
/// from the valuation seed.
pub fn run_tree(
    parsed: &retreet_lang::ast::Program,
    program: &RunProgram,
    valuation: u64,
) -> retreet_analysis::vtree::ValueTree {
    let fields = retreet_codegen::program_fields(parsed);
    let refs: Vec<&str> = fields.iter().map(String::as_str).collect();
    let mut tree = retreet_analysis::vtree::ValueTree::complete_kary(
        program.arity,
        program.height,
        &refs,
        |_, _| 0,
    );
    tree.fill_fields(&refs, valuation);
    tree
}

/// What a request asks, with owned sources (α-renamed ones differ per
/// request).
#[derive(Debug, Clone)]
pub enum Payload {
    /// A `race` query.
    Race(String),
    /// An `equivalence` query.
    Equivalence(String, String),
    /// A `run` of a workload program under a valuation.
    Run(RunProgram, u64),
}

/// What the response must say.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expect {
    /// A verdict, served from the cache (`cached`) or computed.
    Verdict {
        /// `race` or `equivalence`.
        kind: &'static str,
        /// The verdict word.
        verdict: &'static str,
        /// The `cached` flag the workload's path implies.
        cached: bool,
    },
    /// A `run` on the VM tier returning the golden values.
    Run {
        /// `Main`'s returns from the reference interpreter.
        returns: Vec<i64>,
        /// The reference interpreter's [`fields_digest`] after the run
        /// (checked by the traced replay; responses carry no tree).
        fields: u64,
        /// Nodes of the tree.
        nodes: usize,
    },
}

/// One request of a workload.
#[derive(Debug, Clone)]
pub struct Request {
    /// Mix label or run-program name.
    pub label: &'static str,
    /// The query or run.
    pub payload: Payload,
    /// The answer the response must carry.
    pub expect: Expect,
    /// The NDJSON line sent (no trailing newline).
    pub line: String,
}

impl Request {
    fn verify(query: &MixQuery, payload: Payload, cached: bool) -> Request {
        let kind = match payload {
            Payload::Race(_) => "race",
            Payload::Equivalence(..) => "equivalence",
            Payload::Run(..) => unreachable!("verification payload"),
        };
        let line = match &payload {
            Payload::Race(program) => {
                format!(r#"{{"kind":"race","program":"{}"}}"#, json::escape(program))
            }
            Payload::Equivalence(original, transformed) => format!(
                r#"{{"kind":"equivalence","original":"{}","transformed":"{}"}}"#,
                json::escape(original),
                json::escape(transformed)
            ),
            Payload::Run(..) => unreachable!("verification payload"),
        };
        Request {
            label: query.label,
            payload,
            expect: Expect::Verdict {
                kind,
                verdict: query.verdict,
                cached,
            },
            line,
        }
    }

    /// The `run` request for `program` under `valuation`.
    pub fn run(program: RunProgram, valuation: u64) -> Request {
        let golden = golden(program.name, valuation)
            .unwrap_or_else(|| panic!("no golden answer for {} / {valuation}", program.name));
        Request {
            label: program.name,
            line: format!(
                r#"{{"kind":"run","program":"{}","height":{},"arity":{},"seed":{}}}"#,
                json::escape(program.source),
                program.height,
                program.arity,
                valuation
            ),
            payload: Payload::Run(program, valuation),
            expect: Expect::Run {
                returns: golden.returns,
                fields: golden.fields,
                nodes: program.nodes(),
            },
        }
    }

    /// The `race` or `equivalence` request of a mix query, verbatim.
    pub fn mix_query(query: &MixQuery, cached: bool) -> Request {
        let payload = match query.kind {
            MixKind::Race(source) => Payload::Race(source.to_string()),
            MixKind::Equivalence(a, b) => Payload::Equivalence(a.to_string(), b.to_string()),
        };
        Request::verify(query, payload, cached)
    }

    /// The mix query with every non-`Main` function name and every field
    /// name suffixed by `suffix` (both sides of a pair alike), so the
    /// service sees a query it has never cached; the verdict is the
    /// original's.
    pub fn renamed_query(query: &MixQuery, suffix: &str) -> Request {
        let payload = match query.kind {
            MixKind::Race(source) => Payload::Race(alpha_rename(source, suffix)),
            MixKind::Equivalence(a, b) => {
                Payload::Equivalence(alpha_rename(a, suffix), alpha_rename(b, suffix))
            }
        };
        Request::verify(query, payload, false)
    }
}

/// Renames, in Retreet source, every declared function other than `Main`
/// and every field (an identifier after `.` that is not a child axis
/// `l`, `r` or `c<k>`) by appending `suffix`.  Locals, parameters and
/// child axes are kept, so the program's meaning is unchanged.
pub fn alpha_rename(source: &str, suffix: &str) -> String {
    let tokens = identifier_spans(source);
    let functions: Vec<&str> = tokens
        .windows(2)
        .filter(|pair| &source[pair[0].0..pair[0].1] == "fn")
        .map(|pair| &source[pair[1].0..pair[1].1])
        .filter(|name| *name != "Main")
        .collect();
    let mut out = String::with_capacity(source.len() + 16 * tokens.len());
    let mut copied = 0;
    for &(start, end) in &tokens {
        let ident = &source[start..end];
        let after_dot = source[..start].trim_end().ends_with('.');
        let rename = if after_dot {
            !is_child_axis(ident)
        } else {
            functions.contains(&ident)
        };
        out.push_str(&source[copied..end]);
        if rename {
            out.push_str(suffix);
        }
        copied = end;
    }
    out.push_str(&source[copied..]);
    out
}

fn is_child_axis(ident: &str) -> bool {
    matches!(ident, "l" | "r")
        || ident
            .strip_prefix('c')
            .is_some_and(|k| !k.is_empty() && k.bytes().all(|b| b.is_ascii_digit()))
}

/// Byte spans of identifier tokens (`[A-Za-z_][A-Za-z0-9_]*`), skipping
/// numbers so a digit run never starts an identifier.
fn identifier_spans(source: &str) -> Vec<(usize, usize)> {
    let bytes = source.as_bytes();
    let mut spans = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        if b.is_ascii_alphabetic() || b == b'_' {
            let start = i;
            while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                i += 1;
            }
            spans.push((start, i));
        } else if b.is_ascii_digit() {
            while i < bytes.len() && bytes[i].is_ascii_alphanumeric() {
                i += 1;
            }
        } else {
            i += 1;
        }
    }
    spans
}

/// The endless, seeded request stream of one client connection.  Requests
/// come in rounds; each round is a seeded permutation of the workload's
/// slots, so every seed sends the same proportions in a different order.
#[derive(Debug, Clone)]
pub struct RequestStream {
    workload: Workload,
    seed: u64,
    rng: Rng,
    mix: Vec<MixQuery>,
    round: Vec<usize>,
    sent: u64,
}

/// The slots of one round of `workload`: indices into [`mix`] for the
/// verify workloads, into [`RUN_PROGRAMS`] for `run-exec`.
///
/// Latencies cluster by query, so a percentile that falls on the edge
/// between two clusters jumps from run to run.  Two slots are therefore
/// doubled: on `cold-verify` the two heaviest fusion checks (E3, E4a), so
/// the 90th percentile falls inside their band; on `run-exec` size
/// counting (the paper's running example), so the median falls inside
/// one program's band.
pub fn round_slots(workload: Workload) -> Vec<usize> {
    match workload {
        Workload::WarmVerify => (0..MIX_LEN).collect(),
        Workload::ColdVerify => (0..MIX_LEN).chain([MIX_LEN - 2, MIX_LEN - 1]).collect(),
        Workload::RunExec => vec![0, 0, 1, 2, 3, 4, 5],
    }
}

/// Queries in [`mix`]; its last five are E1a, E1b, E2, E3, E4a.
pub const MIX_LEN: usize = 22;

impl RequestStream {
    /// The stream of `connection` for `workload` under `seed`.
    pub fn new(workload: Workload, seed: u64, connection: usize) -> RequestStream {
        RequestStream {
            workload,
            seed,
            rng: Rng::new(seed, connection as u64),
            mix: mix(),
            round: Vec::new(),
            sent: 0,
        }
    }

    fn next_slot(&mut self) -> usize {
        if self.round.is_empty() {
            self.round = round_slots(self.workload);
            self.rng.shuffle(&mut self.round);
        }
        self.round.pop().expect("a refilled round is not empty")
    }
}

impl Iterator for RequestStream {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        let slot = self.next_slot();
        let index = self.sent;
        self.sent += 1;
        Some(match self.workload {
            Workload::WarmVerify => Request::mix_query(&self.mix[slot], true),
            Workload::ColdVerify => {
                let suffix = format!("_s{:x}q{index}", self.seed);
                Request::renamed_query(&self.mix[slot], &suffix)
            }
            Workload::RunExec => {
                let valuation = VALUATIONS[self.rng.below(VALUATIONS.len())];
                Request::run(RUN_PROGRAMS[slot], valuation)
            }
        })
    }
}

/// The requests that finish a server's warm-up: one `run` per program on
/// `run-exec` (compiling every executor), nothing on the verify
/// workloads (`--warm-start` already preloaded the mix).
pub fn warm_up(workload: Workload) -> Vec<Request> {
    match workload {
        Workload::RunExec => RUN_PROGRAMS
            .iter()
            .map(|program| Request::run(*program, VALUATIONS[0]))
            .collect(),
        Workload::WarmVerify | Workload::ColdVerify => Vec::new(),
    }
}
