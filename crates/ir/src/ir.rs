//! The loop intermediate representation.
//!
//! A [`LoopIr`] is the body of one WHILE loop, normalized so that every
//! statement's memory effects are explicit. Subscripts are either affine
//! in the (virtual) loop counter, or declared unanalyzable — the paper's
//! "very complex subscript expressions … and, most frequently, subscripted
//! subscripts" for which only the run-time PD test can help.

use crate::span::Span;
use std::collections::BTreeSet;

/// Identifies an array in the loop's environment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ArrayId(pub u32);

/// Identifies a scalar variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub u32);

/// An array subscript, as far as the front-end could analyze it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Subscript {
    /// A loop-invariant constant index.
    Const(i64),
    /// Affine in the loop counter: `coeff·i + offset`.
    Affine {
        /// Multiplier of the loop counter.
        coeff: i64,
        /// Constant offset.
        offset: i64,
    },
    /// Unanalyzable at compile time (subscripted subscript, non-linear
    /// expression, cross-procedure value…).
    Unknown,
}

/// A memory reference: a scalar or an array element.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WRef {
    /// A scalar variable.
    Scalar(VarId),
    /// An element of an array.
    Element(ArrayId, Subscript),
}

/// The recurrence-update operator of a statement, as recognized by the
/// front-end (this is the information induction/recurrence recognition
/// passes produce).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateOp {
    /// `x = x + c`: an induction.
    AddConst,
    /// `x = a·x + b`: an associative (affine) recurrence.
    MulAddConst,
    /// `p = next(p)`: a pointer chase / general recurrence.
    PointerChase,
    /// Anything else that reads and writes the same variable.
    Other,
}

/// What a statement does, beyond its read/write sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StmtKind {
    /// Ordinary computation.
    Assign,
    /// A recurrence update of the scalar it both reads and writes.
    Update(UpdateOp),
    /// A loop exit test; `reads` lists what the condition depends on.
    ExitTest,
}

/// One statement of the loop body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stmt {
    /// Behavioural class.
    pub kind: StmtKind,
    /// Memory locations written.
    pub writes: Vec<WRef>,
    /// Memory locations read.
    pub reads: Vec<WRef>,
    /// Source span of the statement, when lowered from text (`None` for
    /// IR built programmatically). Analysis diagnostics anchor here.
    pub span: Option<Span>,
}

impl Stmt {
    /// An ordinary assignment.
    pub fn assign(writes: Vec<WRef>, reads: Vec<WRef>) -> Self {
        Stmt {
            kind: StmtKind::Assign,
            writes,
            reads,
            span: None,
        }
    }

    /// A recurrence update `var = op(var, …)`.
    pub fn update(var: VarId, op: UpdateOp, extra_reads: Vec<WRef>) -> Self {
        let mut reads = vec![WRef::Scalar(var)];
        reads.extend(extra_reads);
        Stmt {
            kind: StmtKind::Update(op),
            writes: vec![WRef::Scalar(var)],
            reads,
            span: None,
        }
    }

    /// An exit test over `reads`.
    pub fn exit_test(reads: Vec<WRef>) -> Self {
        Stmt {
            kind: StmtKind::ExitTest,
            writes: vec![],
            reads,
            span: None,
        }
    }

    /// Attaches a source span (builder style).
    pub fn with_span(mut self, span: Span) -> Self {
        self.span = Some(span);
        self
    }
}

/// The body of a WHILE loop.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LoopIr {
    /// Statements in program order.
    pub stmts: Vec<Stmt>,
    /// The source name of each array, indexed by [`ArrayId`], for a body
    /// lowered from source; empty for a body built by hand. This is how
    /// facts stated per [`ArrayId`] reach code that binds arrays by name.
    pub array_names: Vec<String>,
}

impl LoopIr {
    /// An empty loop body.
    pub fn new() -> Self {
        LoopIr::default()
    }

    /// Appends a statement, returning its index.
    pub fn push(&mut self, s: Stmt) -> usize {
        self.stmts.push(s);
        self.stmts.len() - 1
    }

    /// Number of statements.
    pub fn len(&self) -> usize {
        self.stmts.len()
    }

    /// Whether the body is empty.
    pub fn is_empty(&self) -> bool {
        self.stmts.is_empty()
    }

    /// Indices of the recurrence-update statements.
    pub fn updates(&self) -> impl Iterator<Item = usize> + '_ {
        self.stmts
            .iter()
            .enumerate()
            .filter(|(_, s)| matches!(s.kind, StmtKind::Update(_)))
            .map(|(i, _)| i)
    }

    /// Indices of the exit-test statements.
    pub fn exit_tests(&self) -> impl Iterator<Item = usize> + '_ {
        self.stmts
            .iter()
            .enumerate()
            .filter(|(_, s)| s.kind == StmtKind::ExitTest)
            .map(|(i, _)| i)
    }

    /// The remainder view of a (privatization-refined) body: recurrence
    /// updates contribute nothing (their value pattern is materialized up
    /// front — closed form or parallel prefix), and accesses to the
    /// scalars they own are likewise dropped everywhere. What is left is
    /// exactly the memory traffic a parallel execution of the remainder
    /// performs.
    pub fn remainder_view(&self) -> LoopIr {
        let update_vars: BTreeSet<VarId> = self
            .stmts
            .iter()
            .filter(|s| matches!(s.kind, StmtKind::Update(_)))
            .flat_map(|s| s.writes.iter())
            .filter_map(|w| match w {
                WRef::Scalar(v) => Some(*v),
                WRef::Element(..) => None,
            })
            .collect();
        let owned = |r: &WRef| matches!(r, WRef::Scalar(v) if update_vars.contains(v));
        let mut out = LoopIr {
            stmts: Vec::with_capacity(self.stmts.len()),
            array_names: self.array_names.clone(),
        };
        for s in &self.stmts {
            let mut c = s.clone();
            if matches!(s.kind, StmtKind::Update(_)) {
                c.writes.clear();
                c.reads.clear();
            } else {
                c.writes.retain(|r| !owned(r));
                c.reads.retain(|r| !owned(r));
            }
            out.push(c);
        }
        out
    }
}

/// Builders for the paper's example loops (used across tests and benches).
pub mod examples {
    use super::*;

    /// Figure 1(b): linked-list traversal — `while (tmp ≠ null) { work(tmp);
    /// tmp = next(tmp) }`. Scalar 0 is `tmp`; array 0 is the worked data.
    pub fn figure1b_list_traversal() -> LoopIr {
        let tmp = VarId(0);
        let data = ArrayId(0);
        let mut l = LoopIr::new();
        l.push(Stmt::exit_test(vec![WRef::Scalar(tmp)]));
        l.push(Stmt::assign(
            vec![WRef::Element(data, Subscript::Unknown)],
            vec![WRef::Scalar(tmp)],
        ));
        l.push(Stmt::update(tmp, UpdateOp::PointerChase, vec![]));
        l
    }

    /// Figure 1(e): `r = 1; while (f(r) < V) { work(r); r = a·r + b }`.
    pub fn figure1e_affine() -> LoopIr {
        let r = VarId(0);
        let data = ArrayId(0);
        let mut l = LoopIr::new();
        l.push(Stmt::exit_test(vec![WRef::Scalar(r)]));
        l.push(Stmt::assign(
            vec![WRef::Element(data, Subscript::Unknown)],
            vec![WRef::Scalar(r)],
        ));
        l.push(Stmt::update(r, UpdateOp::MulAddConst, vec![]));
        l
    }

    /// Figure 5(a): `do i: if f(i) exit; A[i] = 2·A[i]` — independent.
    pub fn figure5a_independent() -> LoopIr {
        let a = ArrayId(0);
        let i_affine = Subscript::Affine {
            coeff: 1,
            offset: 0,
        };
        let mut l = LoopIr::new();
        l.push(Stmt::exit_test(vec![WRef::Element(a, i_affine)]));
        l.push(Stmt::assign(
            vec![WRef::Element(a, i_affine)],
            vec![WRef::Element(a, i_affine)],
        ));
        l
    }

    /// Figure 5(b): `tmp = A[2i]; A[2i] = A[2i−1]; A[2i−1] = tmp` — the
    /// element swap. The scalar `tmp` carries output dependences across
    /// iterations, but it is defined before use in every iteration:
    /// privatizing it leaves only disjoint even/odd affine accesses to
    /// `A`, a valid DOALL. Scalar 0 is `tmp`; array 0 is `A`.
    pub fn figure5b_swap() -> LoopIr {
        let tmp = VarId(0);
        let a = ArrayId(0);
        let even = Subscript::Affine {
            coeff: 2,
            offset: 0,
        };
        let odd = Subscript::Affine {
            coeff: 2,
            offset: -1,
        };
        let mut l = LoopIr::new();
        l.push(Stmt::exit_test(vec![]));
        l.push(Stmt::assign(
            vec![WRef::Scalar(tmp)],
            vec![WRef::Element(a, even)],
        ));
        l.push(Stmt::assign(
            vec![WRef::Element(a, even)],
            vec![WRef::Element(a, odd)],
        ));
        l.push(Stmt::assign(
            vec![WRef::Element(a, odd)],
            vec![WRef::Scalar(tmp)],
        ));
        l
    }

    /// Figure 5(c): `A[i] = A[i] + A[i−1]` — a true recurrence.
    pub fn figure5c_recurrence() -> LoopIr {
        let a = ArrayId(0);
        let mut l = LoopIr::new();
        l.push(Stmt::exit_test(vec![]));
        l.push(Stmt::assign(
            vec![WRef::Element(
                a,
                Subscript::Affine {
                    coeff: 1,
                    offset: 0,
                },
            )],
            vec![
                WRef::Element(
                    a,
                    Subscript::Affine {
                        coeff: 1,
                        offset: 0,
                    },
                ),
                WRef::Element(
                    a,
                    Subscript::Affine {
                        coeff: 1,
                        offset: -1,
                    },
                ),
            ],
        ));
        l
    }

    /// Mixed-certainty gather/scatter: a dense affine write (`B[i] = W[i]`)
    /// feeding an indirect accumulate (`A[idx[i]] += B[i]`). Only the
    /// indirect array needs run-time shadowing; the dense half is
    /// statically certified.
    pub fn gather_scatter_mixed() -> LoopIr {
        let a = ArrayId(0);
        let b = ArrayId(1);
        let w = ArrayId(2);
        let i_affine = Subscript::Affine {
            coeff: 1,
            offset: 0,
        };
        let mut l = LoopIr::new();
        l.push(Stmt::exit_test(vec![]));
        l.push(Stmt::assign(
            vec![WRef::Element(b, i_affine)],
            vec![WRef::Element(w, i_affine)],
        ));
        l.push(Stmt::assign(
            vec![WRef::Element(a, Subscript::Unknown)],
            vec![
                WRef::Element(b, i_affine),
                WRef::Element(a, Subscript::Unknown),
            ],
        ));
        l
    }

    /// TRACK-style loop: subscripted subscripts (unknown) with an exit test
    /// on loop-computed values.
    pub fn track_style_unknown() -> LoopIr {
        let a = ArrayId(0);
        let idx = ArrayId(1);
        let i_affine = Subscript::Affine {
            coeff: 1,
            offset: 0,
        };
        let mut l = LoopIr::new();
        l.push(Stmt::exit_test(vec![WRef::Element(a, Subscript::Unknown)]));
        l.push(Stmt::assign(
            vec![WRef::Element(a, Subscript::Unknown)],
            vec![
                WRef::Element(idx, i_affine),
                WRef::Element(a, Subscript::Unknown),
            ],
        ));
        l
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_produce_expected_shapes() {
        let l = examples::figure1b_list_traversal();
        assert_eq!(l.len(), 3);
        assert_eq!(l.updates().collect::<Vec<_>>(), vec![2]);
        assert_eq!(l.exit_tests().collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn update_reads_and_writes_its_variable() {
        let s = Stmt::update(VarId(3), UpdateOp::AddConst, vec![]);
        assert_eq!(s.writes, vec![WRef::Scalar(VarId(3))]);
        assert!(s.reads.contains(&WRef::Scalar(VarId(3))));
    }

    #[test]
    fn empty_loop() {
        let l = LoopIr::new();
        assert!(l.is_empty());
        assert_eq!(l.updates().count(), 0);
    }
}
