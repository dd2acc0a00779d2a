//! Data-dependence testing and the dependence graph.
//!
//! Two references to the same memory conflict when they can address the
//! same location in the same or different iterations. For affine
//! subscripts `c₁·i + o₁` vs `c₂·j + o₂` a GCD-style test decides whether
//! `c₁·i − c₂·j = o₂ − o₁` has integer solutions, and whether any solution
//! has `i ≠ j` (a *loop-carried* dependence) or only `i = j`
//! (loop-independent). Unknown subscripts conflict conservatively — those
//! are the references the run-time PD test exists for.

use crate::ir::{LoopIr, StmtKind, Subscript, WRef};

/// Dependence classes (Section 5 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DepKind {
    /// Read after write.
    Flow,
    /// Write after read.
    Anti,
    /// Write after write.
    Output,
}

/// A dependence edge between two statements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DepEdge {
    /// Source statement (the earlier access in program/iteration order).
    pub from: usize,
    /// Sink statement.
    pub to: usize,
    /// Dependence class.
    pub kind: DepKind,
    /// Whether the dependence can cross iterations.
    pub loop_carried: bool,
}

/// The dependence graph of a loop body.
#[derive(Debug, Clone, Default)]
pub struct DepGraph {
    /// Number of statements.
    pub n: usize,
    /// All dependence edges.
    pub edges: Vec<DepEdge>,
}

/// How two subscripts may coincide.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Overlap {
    Never,
    SameIterationOnly,
    CrossIteration,
}

fn gcd(a: i128, b: i128) -> i128 {
    if b == 0 {
        a.abs()
    } else {
        gcd(b, a % b)
    }
}

fn subscript_overlap(s1: Subscript, s2: Subscript) -> Overlap {
    use Subscript::*;
    match (s1, s2) {
        (Unknown, _) | (_, Unknown) => Overlap::CrossIteration,
        (Const(a), Const(b)) => {
            if a == b {
                // the same fixed cell touched by every iteration
                Overlap::CrossIteration
            } else {
                Overlap::Never
            }
        }
        (Const(k), Affine { coeff, offset }) | (Affine { coeff, offset }, Const(k)) => {
            // exact integer arithmetic: the differences of extreme
            // subscripts do not fit in an i64
            let (k, coeff, offset) = (i128::from(k), i128::from(coeff), i128::from(offset));
            if coeff == 0 {
                if offset == k {
                    Overlap::CrossIteration
                } else {
                    Overlap::Never
                }
            } else if (k - offset) % coeff == 0 && (k - offset) / coeff >= 0 {
                // one (reachable) iteration touches the constant cell; the
                // constant reference touches it in every iteration
                Overlap::CrossIteration
            } else {
                // no integer solution, or the only solution is a negative
                // iteration the loop (virtual counter from 0) never runs
                Overlap::Never
            }
        }
        (
            Affine {
                coeff: c1,
                offset: o1,
            },
            Affine {
                coeff: c2,
                offset: o2,
            },
        ) => {
            let (c1, o1, c2, o2) = (
                i128::from(c1),
                i128::from(o1),
                i128::from(c2),
                i128::from(o2),
            );
            // solve c1·i − c2·j = o2 − o1
            if c1 == 0 && c2 == 0 {
                return if o1 == o2 {
                    Overlap::CrossIteration
                } else {
                    Overlap::Never
                };
            }
            // exactly one zero stride: the strided reference meets the
            // loop-invariant cell at a single iteration, which must be
            // reachable (≥ 0) for any conflict to exist
            if c1 == 0 || c2 == 0 {
                let (c, diff) = if c1 == 0 {
                    (c2, o1 - o2)
                } else {
                    (c1, o2 - o1)
                };
                return if diff % c == 0 && diff / c >= 0 {
                    Overlap::CrossIteration
                } else {
                    Overlap::Never
                };
            }
            let g = gcd(c1, c2);
            if g == 0 || (o2 - o1) % g != 0 {
                return Overlap::Never;
            }
            // same-iteration solution requires (c1 − c2)·i = o2 − o1
            let same_iter = if c1 == c2 {
                o1 == o2
            } else {
                (o2 - o1) % (c1 - c2) == 0
            };
            // a cross-iteration solution exists unless the only solutions
            // force i = j; for c1 = c2 ≠ 0 and o1 = o2 every solution has
            // i = j
            let cross = if c1 == c2 {
                o1 != o2
            } else {
                true // different strides: solutions with i ≠ j exist
            };
            match (same_iter, cross) {
                (_, true) => Overlap::CrossIteration,
                (true, false) => Overlap::SameIterationOnly,
                (false, false) => Overlap::Never,
            }
        }
    }
}

/// Whether two references can ever address the same location, in any pair
/// of iterations — the conservative question downstream analyses (RI/RV
/// dataflow, certificate construction) need. `Unknown` subscripts conflict
/// conservatively.
pub fn refs_may_conflict(r1: &WRef, r2: &WRef) -> bool {
    refs_overlap(r1, r2).is_some_and(|o| o != Overlap::Never)
}

/// Whether two references can address the same location in two *different*
/// iterations (a loop-carried conflict).
pub fn refs_conflict_cross_iteration(r1: &WRef, r2: &WRef) -> bool {
    refs_overlap(r1, r2) == Some(Overlap::CrossIteration)
}

/// Whether every head test of `rem` (a [`LoopIr::remainder_view`]) reads
/// only locations no *other* iteration's body writes. Exit tests run at
/// the head of an iteration, before its own body, so such tests see the
/// loop's inputs alone and can all be evaluated before any body runs.
pub fn heads_see_inputs(rem: &LoopIr) -> bool {
    let writes: Vec<&WRef> = rem
        .stmts
        .iter()
        .filter(|s| s.kind != StmtKind::ExitTest)
        .flat_map(|s| &s.writes)
        .collect();
    rem.exit_tests()
        .flat_map(|t| &rem.stmts[t].reads)
        .all(|r| !writes.iter().any(|w| refs_conflict_cross_iteration(r, w)))
}

fn refs_overlap(r1: &WRef, r2: &WRef) -> Option<Overlap> {
    match (r1, r2) {
        (WRef::Scalar(a), WRef::Scalar(b)) => (a == b).then_some(Overlap::CrossIteration),
        (WRef::Element(a1, s1), WRef::Element(a2, s2)) => {
            (a1 == a2).then(|| subscript_overlap(*s1, *s2))
        }
        _ => None,
    }
}

/// Builds the dependence graph of `body`.
///
/// For each conflicting pair, a single edge is emitted from the earlier
/// statement to the later one (or a self-edge for a statement whose own
/// accesses conflict across iterations — the recurrence pattern).
pub fn dep_graph(body: &LoopIr) -> DepGraph {
    let n = body.len();
    let mut edges = Vec::new();
    for (si, s1) in body.stmts.iter().enumerate() {
        for (sj, s2) in body.stmts.iter().enumerate() {
            if sj < si {
                continue; // each unordered pair once (si ≤ sj)
            }
            let mut push = |kind: DepKind, carried: bool| {
                edges.push(DepEdge {
                    from: si,
                    to: sj,
                    kind,
                    loop_carried: carried,
                });
            };
            // flow/anti: s1 writes vs s2 reads (and symmetric)
            for w in &s1.writes {
                for r in &s2.reads {
                    if let Some(ov) = refs_overlap(w, r) {
                        if ov != Overlap::Never {
                            push(DepKind::Flow, ov == Overlap::CrossIteration);
                        }
                    }
                }
            }
            if si != sj {
                for r in &s1.reads {
                    for w in &s2.writes {
                        if let Some(ov) = refs_overlap(r, w) {
                            if ov != Overlap::Never {
                                push(DepKind::Anti, ov == Overlap::CrossIteration);
                            }
                        }
                    }
                }
            }
            // output: writes vs writes — a reference compared with itself
            // still matters (a fixed cell written by every iteration)
            for w1 in &s1.writes {
                for w2 in &s2.writes {
                    if let Some(ov) = refs_overlap(w1, w2) {
                        if ov == Overlap::CrossIteration {
                            push(DepKind::Output, true);
                        }
                    }
                }
            }
        }
    }
    edges.sort_by_key(|e| (e.from, e.to, e.kind as u8, e.loop_carried));
    edges.dedup();
    DepGraph { n, edges }
}

impl DepGraph {
    /// Whether any loop-carried dependence exists among `stmts`.
    pub fn has_carried_within(&self, stmts: &[usize]) -> bool {
        self.edges
            .iter()
            .any(|e| e.loop_carried && stmts.contains(&e.from) && stmts.contains(&e.to))
    }

    /// Adjacency (both directions recorded as `from → to`) for SCC
    /// computation.
    pub fn successors(&self, s: usize) -> Vec<usize> {
        self.edges
            .iter()
            .filter(|e| e.from == s)
            .map(|e| e.to)
            .collect()
    }

    /// Renders the graph in Graphviz DOT format (loop-carried edges solid,
    /// loop-independent dashed; flow/anti/output colored) for inspection
    /// with `dot -Tsvg`.
    pub fn to_dot(&self) -> String {
        let mut out = String::from(
            "digraph deps {
  rankdir=TB;
",
        );
        for s in 0..self.n {
            out.push_str(&format!(
                "  s{s} [label=\"S{s}\" shape=box];
"
            ));
        }
        for e in &self.edges {
            let color = match e.kind {
                DepKind::Flow => "black",
                DepKind::Anti => "blue",
                DepKind::Output => "red",
            };
            let style = if e.loop_carried { "solid" } else { "dashed" };
            out.push_str(&format!(
                "  s{} -> s{} [color={color} style={style} label=\"{:?}{}\"];
",
                e.from,
                e.to,
                e.kind,
                if e.loop_carried { "*" } else { "" }
            ));
        }
        out.push_str(
            "}
",
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::examples;
    use crate::ir::{ArrayId, Stmt, VarId};
    use Subscript::*;

    #[test]
    fn gcd_works() {
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(gcd(-4, 6), 2);
        assert_eq!(gcd(5, 0), 5);
    }

    #[test]
    fn identical_affine_subscripts_are_same_iteration_only() {
        let s = Affine {
            coeff: 1,
            offset: 0,
        };
        assert_eq!(subscript_overlap(s, s), Overlap::SameIterationOnly);
    }

    #[test]
    fn shifted_affine_subscripts_are_cross_iteration() {
        let a = Affine {
            coeff: 1,
            offset: 0,
        };
        let b = Affine {
            coeff: 1,
            offset: -1,
        };
        assert_eq!(subscript_overlap(a, b), Overlap::CrossIteration);
    }

    #[test]
    fn disjoint_strided_subscripts_never_overlap() {
        // 2i vs 2j+1: even vs odd cells
        let even = Affine {
            coeff: 2,
            offset: 0,
        };
        let odd = Affine {
            coeff: 2,
            offset: 1,
        };
        assert_eq!(subscript_overlap(even, odd), Overlap::Never);
    }

    #[test]
    fn unknown_subscripts_conflict_conservatively() {
        assert_eq!(
            subscript_overlap(
                Unknown,
                Affine {
                    coeff: 1,
                    offset: 0
                }
            ),
            Overlap::CrossIteration
        );
    }

    #[test]
    fn constant_cell_behind_the_loop_start_never_overlaps() {
        // A[0] vs A[i+1]: cell 0 is reached only at i = −1, which the
        // virtual counter (starting at 0) never executes
        let next = Affine {
            coeff: 1,
            offset: 1,
        };
        assert_eq!(subscript_overlap(Const(0), next), Overlap::Never);
        assert_eq!(subscript_overlap(next, Const(0)), Overlap::Never);
        // A[4] vs A[2i+6] → i = −1: unreachable
        let stride2 = Affine {
            coeff: 2,
            offset: 6,
        };
        assert_eq!(subscript_overlap(Const(4), stride2), Overlap::Never);
        // A[6] vs A[2i+6] → i = 0: a real conflict
        assert_eq!(
            subscript_overlap(Const(6), stride2),
            Overlap::CrossIteration
        );
    }

    #[test]
    fn zero_stride_affine_needs_a_reachable_iteration() {
        let inv = Affine {
            coeff: 0,
            offset: 3,
        };
        // i + 5 = 3 → i = −2: unreachable
        assert_eq!(
            subscript_overlap(
                inv,
                Affine {
                    coeff: 1,
                    offset: 5
                }
            ),
            Overlap::Never
        );
        // i + 1 = 3 → i = 2: conflict
        assert_eq!(
            subscript_overlap(
                inv,
                Affine {
                    coeff: 1,
                    offset: 1
                }
            ),
            Overlap::CrossIteration
        );
        // −i + 3 = 3 → i = 0: conflict at the first iteration
        assert_eq!(
            subscript_overlap(
                Affine {
                    coeff: -1,
                    offset: 3
                },
                inv
            ),
            Overlap::CrossIteration
        );
    }

    #[test]
    fn figure5a_has_no_carried_array_dependence() {
        let g = dep_graph(&examples::figure5a_independent());
        // the A[i] read/write conflicts only within an iteration
        assert!(
            !g.edges.iter().any(|e| e.loop_carried),
            "edges: {:?}",
            g.edges
        );
    }

    #[test]
    fn figure5c_has_a_carried_flow_dependence() {
        let g = dep_graph(&examples::figure5c_recurrence());
        assert!(g
            .edges
            .iter()
            .any(|e| e.kind == DepKind::Flow && e.loop_carried && e.from == e.to));
    }

    #[test]
    fn pointer_update_is_a_self_recurrence() {
        let g = dep_graph(&examples::figure1b_list_traversal());
        // tmp = next(tmp): carried flow self-edge on statement 2
        assert!(g
            .edges
            .iter()
            .any(|e| e.from == 2 && e.to == 2 && e.loop_carried));
    }

    #[test]
    fn scalar_conflicts_are_detected_across_statements() {
        let mut l = LoopIr::new();
        let x = VarId(0);
        l.push(Stmt::assign(vec![WRef::Scalar(x)], vec![]));
        l.push(Stmt::assign(vec![], vec![WRef::Scalar(x)]));
        let g = dep_graph(&l);
        assert!(g
            .edges
            .iter()
            .any(|e| e.from == 0 && e.to == 1 && e.kind == DepKind::Flow));
    }

    #[test]
    fn distinct_arrays_never_conflict() {
        let mut l = LoopIr::new();
        l.push(Stmt::assign(
            vec![WRef::Element(ArrayId(0), Unknown)],
            vec![],
        ));
        l.push(Stmt::assign(
            vec![],
            vec![WRef::Element(ArrayId(1), Unknown)],
        ));
        let g = dep_graph(&l);
        // the Unknown write gets a conservative self output-dependence,
        // but no edge may connect the two statements
        assert!(g.edges.iter().all(|e| e.from == e.to));
    }

    #[test]
    fn dot_export_lists_every_statement_and_edge() {
        let g = dep_graph(&examples::figure1b_list_traversal());
        let dot = g.to_dot();
        assert!(dot.starts_with("digraph"));
        for s in 0..g.n {
            assert!(dot.contains(&format!("s{s} [label")), "node {s}");
        }
        assert_eq!(dot.matches(" -> ").count(), g.edges.len());
    }

    #[test]
    fn constant_cell_written_every_iteration_is_output_dep() {
        let mut l = LoopIr::new();
        l.push(Stmt::assign(
            vec![WRef::Element(ArrayId(0), Const(5))],
            vec![],
        ));
        let g = dep_graph(&l);
        assert!(g
            .edges
            .iter()
            .any(|e| e.kind == DepKind::Output && e.loop_carried));
    }

    #[test]
    fn head_tests_see_inputs_unless_another_iteration_writes_them() {
        let sees = |src: &str| {
            let ir = crate::frontend::parse_loop(src).expect("valid source");
            heads_see_inputs(&ir.remainder_view())
        };
        // the exit is hoisted to the head: its own iteration's store
        // comes after it, and no other iteration writes A[i]
        assert!(sees(
            "integer i = 0\nwhile (i < n) {\n    A[i] = g(A[i])\n    exit if (A[i] > limit)\n    i = i + 1\n}"
        ));
        assert!(sees(
            "integer i = 0\nwhile (i < n) {\n    exit if (stop[i] == 1)\n    A[i] = 7\n    i = i + 1\n}"
        ));
        // iteration i + 1 stores the cell iteration i's exit reads
        assert!(!sees(
            "integer i = 0\nwhile (i < n) {\n    A[i] = g(A[i])\n    exit if (A[i + 1] > limit)\n    i = i + 1\n}"
        ));
        // a scalar the body assigns is carried into the next head
        assert!(!sees(
            "integer i = 0\nwhile (i < n) {\n    exit if (t > 3)\n    t = A[i]\n    i = i + 1\n}"
        ));
    }
}
