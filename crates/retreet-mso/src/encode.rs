//! Encoding traversal access summaries as region and guard questions over
//! trees.
//!
//! The race and equivalence engines summarize what a block touches as a
//! *region* relative to its invocation node — the node itself, one of its
//! children, or a whole subtree (for recursive calls) — guarded by the
//! structural `IsNil` conditions on the path to the block.  Two questions
//! are asked about those summaries, and each has one decider here:
//!
//! * [`check_overlap`] — can two guarded regions touch a common node on
//!   some tree?
//! * [`guards_equivalent`] — do two structural guards hold on exactly the
//!   same nodes of every tree?
//!
//! The region language is tiny (`At`/`Subtree` at `Here`/`Child(i)` under
//! has/no child masks), so both deciders are exact case analyses whose
//! answers quantify over every tree at once.  They are the same relations
//! the paper's MSO encoding defines: the test module keeps that encoding as
//! an oracle (the overlap and guard formulas, compiled to tree automata by
//! [`crate::compile()`]) and pins both deciders to it.

/// A step down from the invocation node: the node itself or one child axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ChildStep {
    /// The invocation node itself (`n`).
    Here,
    /// Its child along the given axis (`n.l` is axis 0, `n.r` axis 1, and
    /// `n.c<k>` axis `k` for higher arities).
    Child(u8),
}

impl ChildStep {
    /// The left child of a binary node (axis 0).
    pub const LEFT: ChildStep = ChildStep::Child(0);
    /// The right child of a binary node (axis 1).
    pub const RIGHT: ChildStep = ChildStep::Child(1);
}

/// The part of the tree a block (running at some invocation node) may touch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Region {
    /// Exactly the node at the given offset (a direct field access).
    At(ChildStep),
    /// The whole subtree rooted at the offset (a recursive call: the callee
    /// and everything it transitively calls stay inside the subtree because
    /// the language only has downward node references).
    Subtree(ChildStep),
}

/// Structural constraints the path to a block imposes on the invocation
/// node: which children must exist or be absent (`IsNil` guards), one bit
/// per child axis (bit `k` speaks about axis `k`; the 8-bit masks cover
/// the surface language's largest arity).
///
/// A constraint with both the `no` and `has` bit set for the same axis is
/// contradictory — the guarded block is structurally unreachable.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StructConstraint {
    /// Axes whose child must be nil (`n.c<k> == nil` must hold).
    pub no_mask: u8,
    /// Axes whose child must exist (`n.c<k> != nil` must hold).
    pub has_mask: u8,
}

impl StructConstraint {
    /// Requires the child along `axis` to be nil.
    pub fn require_no(&mut self, axis: u8) {
        self.no_mask |= 1 << axis;
    }

    /// Requires the child along `axis` to exist.
    pub fn require_has(&mut self, axis: u8) {
        self.has_mask |= 1 << axis;
    }

    /// True when the child along `axis` must be nil.
    pub fn no(&self, axis: u8) -> bool {
        self.no_mask & (1 << axis) != 0
    }

    /// True when the child along `axis` must exist.
    pub fn has(&self, axis: u8) -> bool {
        self.has_mask & (1 << axis) != 0
    }

    /// True when the constraint can never hold on any tree node.
    pub fn contradictory(&self) -> bool {
        self.no_mask & self.has_mask != 0
    }
}

/// One side of a potential conflict: a region plus the structural guard
/// under which the access happens.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ConflictSide {
    /// Where the access lands, relative to the shared invocation node.
    pub region: Region,
    /// Structural conditions on the invocation node for the access to run.
    pub guard: StructConstraint,
}

/// Decides, over *all* trees, whether the two guarded regions can touch a
/// common node: `true` when some tree puts them in contact.
///
/// Both guards constrain the *same* invocation node, so their masks merge;
/// a merged contradiction, or a region hanging off a child the merged guard
/// forbids, makes contact impossible.  Otherwise the regions are a node
/// (`At`) or a full subtree (`Subtree`) at most one step below `v`, and on
/// trees (acyclic, references only point downward):
///
/// * `At(x)` meets `At(y)` iff `x == y` — distinct steps land on distinct
///   nodes.
/// * `Subtree(Here)` contains `v` and every descendant, so it meets
///   everything still possible under the guard.
/// * `Subtree(Child(i))` meets `At(Child(j))` or `Subtree(Child(j))` iff
///   `i == j` — subtrees under distinct children are disjoint — and never
///   meets `At(Here)`, which lies strictly above it.
///
/// Any surviving combination is witnessed by a node whose children exist
/// exactly where the merged guard and the two steps demand, so the answer
/// is exact at every arity.
pub fn check_overlap(a: &ConflictSide, b: &ConflictSide) -> bool {
    let no = a.guard.no_mask | b.guard.no_mask;
    let has = a.guard.has_mask | b.guard.has_mask;
    if no & has != 0 {
        return false;
    }
    let step_of = |region: Region| match region {
        Region::At(step) | Region::Subtree(step) => step,
    };
    let forbidden = |step: ChildStep| match step {
        ChildStep::Here => false,
        ChildStep::Child(axis) => no & (1u8 << axis) != 0,
    };
    if forbidden(step_of(a.region)) || forbidden(step_of(b.region)) {
        return false;
    }
    match (a.region, b.region) {
        (Region::At(x), Region::At(y)) => x == y,
        (Region::Subtree(x), Region::Subtree(y)) => match (x, y) {
            (ChildStep::Here, _) | (_, ChildStep::Here) => true,
            (ChildStep::Child(i), ChildStep::Child(j)) => i == j,
        },
        (Region::At(at), Region::Subtree(sub)) | (Region::Subtree(sub), Region::At(at)) => {
            match (at, sub) {
                (_, ChildStep::Here) => true,
                (ChildStep::Here, ChildStep::Child(_)) => false,
                (ChildStep::Child(i), ChildStep::Child(j)) => i == j,
            }
        }
    }
}

/// A purely structural boolean guard: the fragment of the surface language's
/// guard expressions built from `IsNil` tests, negation, and conjunction.
///
/// `NilAt(Here)` denotes "the invocation node is nil"; since the guards
/// compared here are evaluated at actual tree nodes, it lowers to `false`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GuardExpr {
    /// The constant true guard.
    True,
    /// `<offset> == nil`.
    NilAt(ChildStep),
    /// Guard negation.
    Not(Box<GuardExpr>),
    /// Guard conjunction.
    And(Box<GuardExpr>, Box<GuardExpr>),
}

impl GuardExpr {
    /// Evaluates the guard at a node whose nil children are exactly the set
    /// bits of `nil_mask` (bit `k` ⇒ the child along axis `k` is nil).
    fn eval(&self, nil_mask: u8) -> bool {
        match self {
            GuardExpr::True => true,
            GuardExpr::NilAt(ChildStep::Here) => false,
            GuardExpr::NilAt(ChildStep::Child(axis)) => nil_mask & (1u8 << axis) != 0,
            GuardExpr::Not(inner) => !inner.eval(nil_mask),
            GuardExpr::And(a, b) => a.eval(nil_mask) && b.eval(nil_mask),
        }
    }

    /// The child axes the guard tests, one bit per axis.
    fn axes(&self) -> u8 {
        match self {
            GuardExpr::True | GuardExpr::NilAt(ChildStep::Here) => 0,
            GuardExpr::NilAt(ChildStep::Child(axis)) => 1u8 << axis,
            GuardExpr::Not(inner) => inner.axes(),
            GuardExpr::And(a, b) => a.axes() | b.axes(),
        }
    }
}

/// Decides whether two structural guards hold on exactly the same nodes of
/// every tree: validity of `∀v. (a(v) ↔ b(v))`.
///
/// A guard only observes which children of `v` are nil, and every nil
/// pattern over the axes the two guards mention is realized by some tree
/// node, so validity reduces to agreement on each of those patterns.
pub fn guards_equivalent(a: &GuardExpr, b: &GuardExpr) -> bool {
    let axes = a.axes() | b.axes();
    let mut nil_mask = axes;
    loop {
        if a.eval(nil_mask) != b.eval(nil_mask) {
            return false;
        }
        if nil_mask == 0 {
            return true;
        }
        nil_mask = (nil_mask - 1) & axes;
    }
}

/// The MSO encoding of the region and guard questions, compiled to tree
/// automata: the paper's route to the answers [`check_overlap`] and
/// [`guards_equivalent`] give directly, kept as the oracle that pins them.
#[cfg(test)]
mod oracle {
    use super::{ChildStep, ConflictSide, GuardExpr, Region, StructConstraint};
    use crate::compile::{compile, is_valid};
    use crate::formula::{FoVar, Formula};

    /// Builds the slotted first-child/next-sibling chain for `axis` under
    /// `v` and applies `tail` to the final slot: `∃s0..s_axis. Left(v, s0) ∧
    /// Right(s0, s1) ∧ … ∧ tail(s_axis)`.
    ///
    /// This is how arities above 2 are binarized: each k-ary node's children
    /// hang off a right-spine of *slot* nodes, child `j` being the left
    /// child of slot `j`.  The formulas stay in the binary NFTA algebra, and
    /// since the binary universe contains every slotted image of every k-ary
    /// tree, an empty conflict automaton still proves k-ary disjointness.
    fn slotted(
        v: &str,
        axis: u8,
        fresh: &mut u32,
        tail: impl FnOnce(&str, &mut u32) -> Formula,
    ) -> Formula {
        let fo = |name: &str| FoVar::new(name);
        let slots: Vec<String> = (0..=axis)
            .map(|_| {
                let s = format!("s{fresh}");
                *fresh += 1;
                s
            })
            .collect();
        let mut parts = vec![Formula::Left(fo(v), fo(&slots[0]))];
        for j in 1..slots.len() {
            parts.push(Formula::Right(fo(&slots[j - 1]), fo(&slots[j])));
        }
        parts.push(tail(slots.last().expect("at least one slot"), fresh));
        let mut body = Formula::conj(parts);
        for s in slots.into_iter().rev() {
            body = Formula::exists_fo(s, body);
        }
        body
    }

    fn membership(v: &str, w: &str, region: Region, arity: u8, fresh: &mut u32) -> Formula {
        let fo = |name: &str| FoVar::new(name);
        match region {
            Region::At(ChildStep::Here) => Formula::Eq(fo(v), fo(w)),
            Region::At(ChildStep::Child(0)) if arity <= 2 => Formula::Left(fo(v), fo(w)),
            Region::At(ChildStep::Child(_)) if arity <= 2 => Formula::Right(fo(v), fo(w)),
            Region::At(ChildStep::Child(axis)) => {
                let w = w.to_string();
                slotted(v, axis, fresh, move |slot, _| {
                    Formula::Left(FoVar::new(slot), FoVar::new(&w))
                })
            }
            Region::Subtree(ChildStep::Here) => Formula::Reach(fo(v), fo(w)),
            Region::Subtree(ChildStep::Child(axis)) if arity <= 2 => {
                let c = format!("c{fresh}");
                *fresh += 1;
                let edge = if axis == 0 {
                    Formula::Left(fo(v), fo(&c))
                } else {
                    Formula::Right(fo(v), fo(&c))
                };
                Formula::exists_fo(c.clone(), Formula::and(edge, Formula::Reach(fo(&c), fo(w))))
            }
            Region::Subtree(ChildStep::Child(axis)) => {
                let w = w.to_string();
                slotted(v, axis, fresh, move |slot, fresh| {
                    let c = format!("c{fresh}");
                    *fresh += 1;
                    Formula::exists_fo(
                        c.clone(),
                        Formula::and(
                            Formula::Left(FoVar::new(slot), FoVar::new(&c)),
                            Formula::Reach(FoVar::new(&c), FoVar::new(&w)),
                        ),
                    )
                })
            }
        }
    }

    fn child_exists(v: &str, axis: u8, arity: u8, fresh: &mut u32) -> Formula {
        let fo = |name: &str| FoVar::new(name);
        if arity <= 2 {
            let g = format!("g{fresh}");
            *fresh += 1;
            let edge = if axis == 0 {
                Formula::Left(fo(v), fo(&g))
            } else {
                Formula::Right(fo(v), fo(&g))
            };
            return Formula::exists_fo(g, edge);
        }
        slotted(v, axis, fresh, |slot, fresh| {
            let g = format!("g{fresh}");
            *fresh += 1;
            Formula::exists_fo(g.clone(), Formula::Left(FoVar::new(slot), FoVar::new(&g)))
        })
    }

    fn guard_constraint(v: &str, guard: &StructConstraint, arity: u8, fresh: &mut u32) -> Formula {
        let mut parts = Vec::new();
        for axis in 0..arity.max(2) {
            if guard.has(axis) {
                parts.push(child_exists(v, axis, arity, fresh));
            }
            if guard.no(axis) {
                parts.push(Formula::not(child_exists(v, axis, arity, fresh)));
            }
        }
        Formula::conj(parts)
    }

    /// The closed formula "some tree has an invocation node `v` satisfying
    /// both guards and a node `w` inside both regions".  Axes beyond the
    /// binary pair are encoded through the slotted binarization (see
    /// `slotted`).
    pub fn overlap_formula(a: &ConflictSide, b: &ConflictSide, arity: u8) -> Formula {
        let mut fresh = 0;
        let body = Formula::conj([
            guard_constraint("v", &a.guard, arity, &mut fresh),
            guard_constraint("v", &b.guard, arity, &mut fresh),
            membership("v", "w", a.region, arity, &mut fresh),
            membership("v", "w", b.region, arity, &mut fresh),
        ]);
        Formula::exists_fo("v", Formula::exists_fo("w", body))
    }

    fn guard_expr_formula(v: &str, expr: &GuardExpr, arity: u8, fresh: &mut u32) -> Formula {
        match expr {
            GuardExpr::True => Formula::True,
            GuardExpr::NilAt(ChildStep::Here) => Formula::False,
            GuardExpr::NilAt(ChildStep::Child(axis)) => {
                Formula::not(child_exists(v, *axis, arity, fresh))
            }
            GuardExpr::Not(inner) => Formula::not(guard_expr_formula(v, inner, arity, fresh)),
            GuardExpr::And(a, b) => Formula::and(
                guard_expr_formula(v, a, arity, fresh),
                guard_expr_formula(v, b, arity, fresh),
            ),
        }
    }

    /// Binary overlap by NFTA emptiness of the compiled overlap formula.
    pub fn overlaps(a: &ConflictSide, b: &ConflictSide) -> bool {
        let compiled = compile(&overlap_formula(a, b, 2)).expect("overlap formulas compile");
        !compiled.automaton.is_empty()
    }

    /// Binary guard equivalence by validity of `∀v. (a(v) ↔ b(v))`.
    pub fn equivalent(a: &GuardExpr, b: &GuardExpr) -> bool {
        let mut fresh = 0;
        let lhs = guard_expr_formula("v", a, 2, &mut fresh);
        let rhs = guard_expr_formula("v", b, 2, &mut fresh);
        is_valid(&Formula::forall_fo("v", Formula::iff(lhs, rhs))).expect("guard formulas compile")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;

    fn side(region: Region) -> ConflictSide {
        ConflictSide {
            region,
            guard: StructConstraint::default(),
        }
    }

    const BINARY_REGIONS: [Region; 6] = [
        Region::At(ChildStep::Here),
        Region::At(ChildStep::LEFT),
        Region::At(ChildStep::RIGHT),
        Region::Subtree(ChildStep::Here),
        Region::Subtree(ChildStep::LEFT),
        Region::Subtree(ChildStep::RIGHT),
    ];

    #[test]
    fn sibling_subtrees_are_disjoint() {
        let left = side(Region::Subtree(ChildStep::LEFT));
        let right = side(Region::Subtree(ChildStep::RIGHT));
        assert!(!check_overlap(&left, &right));
    }

    #[test]
    fn node_and_its_subtree_overlap_with_a_witness() {
        let here = side(Region::At(ChildStep::Here));
        let subtree = side(Region::Subtree(ChildStep::Here));
        assert!(check_overlap(&here, &subtree));
        // The witness comes from the oracle: its conflict automaton is
        // non-empty and accepts the example tree it extracts.
        let compiled = compile(&oracle::overlap_formula(&here, &subtree, 2)).unwrap();
        let example = compiled
            .automaton
            .example_tree()
            .expect("a non-empty conflict automaton yields an example");
        assert!(compiled.automaton.accepts(&example));
    }

    #[test]
    fn child_access_misses_the_other_subtree() {
        let at_left = side(Region::At(ChildStep::LEFT));
        let right_subtree = side(Region::Subtree(ChildStep::RIGHT));
        assert!(!check_overlap(&at_left, &right_subtree));
        // But the left child is inside the left subtree.
        let left_subtree = side(Region::Subtree(ChildStep::LEFT));
        assert!(check_overlap(&at_left, &left_subtree));
    }

    #[test]
    fn contradictory_guards_rule_out_overlap() {
        let impossible = ConflictSide {
            region: Region::At(ChildStep::Here),
            guard: StructConstraint {
                no_mask: 0b01,
                has_mask: 0b01,
            },
        };
        let any = side(Region::Subtree(ChildStep::Here));
        assert!(!check_overlap(&impossible, &any));
    }

    #[test]
    fn incompatible_guards_rule_out_overlap() {
        // One access requires a left child, the other its absence: they can
        // never fire at the same invocation node.
        let with_left = ConflictSide {
            region: Region::At(ChildStep::Here),
            guard: StructConstraint {
                has_mask: 0b01,
                ..StructConstraint::default()
            },
        };
        let without_left = ConflictSide {
            region: Region::At(ChildStep::Here),
            guard: StructConstraint {
                no_mask: 0b01,
                ..StructConstraint::default()
            },
        };
        assert!(!check_overlap(&with_left, &without_left));
        assert!(check_overlap(&with_left, &with_left));
    }

    #[test]
    fn the_direct_decision_agrees_with_the_automata_on_binary_regions() {
        // The decider must be the same relation the NFTA oracle decides;
        // cross-check every unguarded binary region pair.
        for &ra in &BINARY_REGIONS {
            for &rb in &BINARY_REGIONS {
                let a = side(ra);
                let b = side(rb);
                assert_eq!(
                    check_overlap(&a, &b),
                    oracle::overlaps(&a, &b),
                    "deciders disagree on {a:?} vs {b:?}"
                );
            }
        }
        // Guarded spot checks (the full guarded sweep lives in the ignored
        // release-mode test below): incompatible requirements, a region
        // under a forbidden child, and a guard that merely requires the
        // touched child.
        let guarded = [
            (
                ConflictSide {
                    region: Region::At(ChildStep::Here),
                    guard: StructConstraint {
                        has_mask: 0b01,
                        ..StructConstraint::default()
                    },
                },
                ConflictSide {
                    region: Region::At(ChildStep::Here),
                    guard: StructConstraint {
                        no_mask: 0b01,
                        ..StructConstraint::default()
                    },
                },
            ),
            (
                ConflictSide {
                    region: Region::At(ChildStep::LEFT),
                    guard: StructConstraint {
                        no_mask: 0b01,
                        ..StructConstraint::default()
                    },
                },
                side(Region::Subtree(ChildStep::Here)),
            ),
            (
                ConflictSide {
                    region: Region::Subtree(ChildStep::LEFT),
                    guard: StructConstraint {
                        has_mask: 0b01,
                        ..StructConstraint::default()
                    },
                },
                side(Region::At(ChildStep::LEFT)),
            ),
        ];
        for (a, b) in guarded {
            assert_eq!(
                check_overlap(&a, &b),
                oracle::overlaps(&a, &b),
                "deciders disagree on {a:?} vs {b:?}"
            );
        }
    }

    #[test]
    #[ignore = "compiles 324 guarded overlap automata; run in release with --ignored"]
    fn every_guarded_side_agrees_with_the_oracle_against_every_region() {
        // 6 regions × 9 guards (each of the two axes free, required or
        // forbidden) = 54 guarded sides, each against the 6 unguarded
        // regions.
        let masks = [(0, 0), (0b01, 0), (0, 0b01)];
        let mut disagreements = Vec::new();
        for &region in &BINARY_REGIONS {
            for &(no0, has0) in &masks {
                for &(no1, has1) in &masks {
                    let guarded = ConflictSide {
                        region,
                        guard: StructConstraint {
                            no_mask: no0 | no1 << 1,
                            has_mask: has0 | has1 << 1,
                        },
                    };
                    for &other in &BINARY_REGIONS {
                        let other = side(other);
                        if check_overlap(&guarded, &other) != oracle::overlaps(&guarded, &other) {
                            disagreements.push((guarded, other));
                        }
                    }
                }
            }
        }
        assert!(disagreements.is_empty(), "{disagreements:?}");
    }

    /// Every binary guard of the literal-conjunction fragment: the 8
    /// literals (each atom, plain or negated) and their 64 ordered
    /// conjunctions.
    fn binary_guards() -> Vec<GuardExpr> {
        let atoms = [
            GuardExpr::True,
            GuardExpr::NilAt(ChildStep::Here),
            GuardExpr::NilAt(ChildStep::LEFT),
            GuardExpr::NilAt(ChildStep::RIGHT),
        ];
        let literals: Vec<GuardExpr> = atoms
            .iter()
            .flat_map(|atom| [atom.clone(), GuardExpr::Not(Box::new(atom.clone()))])
            .collect();
        let mut guards = literals.clone();
        for a in &literals {
            for b in &literals {
                guards.push(GuardExpr::And(Box::new(a.clone()), Box::new(b.clone())));
            }
        }
        guards
    }

    #[test]
    #[ignore = "decides 5184 guard-equivalence formulas by automata; run in release with --ignored"]
    fn guard_equivalence_agrees_with_the_oracle_on_binary_guards() {
        let guards = binary_guards();
        assert_eq!(guards.len(), 72);
        let mut disagreements = Vec::new();
        for a in &guards {
            for b in &guards {
                if guards_equivalent(a, b) != oracle::equivalent(a, b) {
                    disagreements.push((a.clone(), b.clone()));
                }
            }
        }
        assert!(disagreements.is_empty(), "{disagreements:?}");
    }

    #[test]
    fn ternary_overlap_questions_decide_instantly() {
        // Sibling subtrees stay disjoint and same-axis contacts stay
        // overlaps when the third axis is in play.
        for i in 0..3u8 {
            for j in 0..3u8 {
                let a = side(Region::Subtree(ChildStep::Child(i)));
                let b = side(Region::Subtree(ChildStep::Child(j)));
                assert_eq!(check_overlap(&a, &b), i == j);
                let at = side(Region::At(ChildStep::Child(i)));
                assert_eq!(check_overlap(&at, &b), i == j);
            }
        }
        // A guard forbidding the middle child empties regions under it.
        let guarded = ConflictSide {
            region: Region::At(ChildStep::Child(1)),
            guard: StructConstraint {
                no_mask: 0b010,
                ..StructConstraint::default()
            },
        };
        let everything = side(Region::Subtree(ChildStep::Here));
        assert!(!check_overlap(&guarded, &everything));
    }

    #[test]
    fn ternary_guard_equivalence_is_propositional() {
        let c2 = GuardExpr::NilAt(ChildStep::Child(2));
        let doubled = GuardExpr::Not(Box::new(GuardExpr::Not(Box::new(c2.clone()))));
        assert!(guards_equivalent(&c2, &doubled));
        assert!(!guards_equivalent(
            &c2,
            &GuardExpr::NilAt(ChildStep::Child(1))
        ));
        assert!(guards_equivalent(
            &GuardExpr::True,
            &GuardExpr::Not(Box::new(GuardExpr::NilAt(ChildStep::Here)))
        ));
    }

    #[test]
    fn guard_equivalence_sees_through_double_negation() {
        let plain = GuardExpr::NilAt(ChildStep::LEFT);
        let doubled = GuardExpr::Not(Box::new(GuardExpr::Not(Box::new(plain.clone()))));
        assert!(guards_equivalent(&plain, &doubled));
        assert!(guards_equivalent(
            &GuardExpr::True,
            &GuardExpr::Not(Box::new(GuardExpr::NilAt(ChildStep::Here)))
        ));
        assert!(!guards_equivalent(
            &GuardExpr::NilAt(ChildStep::LEFT),
            &GuardExpr::NilAt(ChildStep::RIGHT)
        ));
    }
}
