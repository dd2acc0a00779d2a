//! The top-level analysis pass: findings, refined plan, certificate.

use crate::certificate::{count_writes, CertVerdict, SafetyCertificate};
use crate::diag::{Diagnostic, Severity};
use crate::fission::{fission_plan, FissionPlan};
use crate::privatize::{privatization, privatized_body, Privatization};
use crate::reduction::{recurrences, Recurrence, RecurrenceRole};
use crate::terminator::{classify_terminator, RvWitness};
use std::collections::BTreeSet;
use wlp_core::taxonomy::TerminatorClass;
use wlp_ir::dependence::dep_graph;
use wlp_ir::interp::{CompiledLoop, ExecPlan};
use wlp_ir::plan::{plan, Plan, StrategyKind};
use wlp_ir::{heads_see_inputs, refs_conflict_cross_iteration, ArrayId, LoopIr, Subscript, WRef};

/// Everything the analysis produced for one loop.
#[derive(Debug)]
pub struct Analysis {
    /// The analyzed body, as lowered (array names included).
    pub body: LoopIr,
    /// The plan the pipeline produces *without* this analysis.
    pub baseline: Plan,
    /// The plan after privatization-refined dependence information.
    pub refined: Plan,
    /// Privatization results.
    pub privatization: Privatization,
    /// Recognized recurrences and their roles.
    pub recurrences: Vec<Recurrence>,
    /// Dataflow terminator class.
    pub terminator: TerminatorClass,
    /// The speculation-safety certificate.
    pub certificate: SafetyCertificate,
    /// The Section 6 fission plan: fused work blocks, each with its own
    /// certificate, plus the cross-block DOACROSS edges.
    pub fission: FissionPlan,
    /// Structured findings, in statement order.
    pub diagnostics: Vec<Diagnostic>,
}

impl Analysis {
    /// The worst severity among the findings ([`Severity::Note`] when
    /// there are none).
    pub fn max_severity(&self) -> Severity {
        self.diagnostics
            .iter()
            .map(|d| d.severity)
            .max()
            .unwrap_or(Severity::Note)
    }

    /// The one-or-two-line plan summary `wlp-lint` (and the golden corpus)
    /// prints after the findings: the whole-loop plan/verdict line, plus
    /// the fission line when distribution actually split the remainder.
    pub fn plan_summary(&self) -> String {
        let mut out = format!(
            "plan: {:?} → {:?}; verdict {:?}; write bound {}/iter ({} uncertain)",
            self.baseline.strategy,
            self.refined.strategy,
            self.certificate.verdict,
            self.certificate.writes_per_iter,
            self.certificate.uncertain_writes_per_iter,
        );
        if let Some(f) = self.fission.summary() {
            out.push('\n');
            out.push_str(&f);
        }
        out
    }

    /// The executor this analysis licenses for `compiled`, the program
    /// [`Self::body`] was lowered from — the one plan value the runtime
    /// dispatches on.
    ///
    /// * `CertifiedSequential` → [`ExecPlan::Sequential`].
    /// * A remainder-invariant terminator → the §5 two-pass scheme with
    ///   PD marks only where the certificate found uncertainty: the
    ///   `uncertain_arrays` plus every array an `uncertain_stmts`
    ///   statement writes (a carried edge on an affine array leaves
    ///   `uncertain_arrays` empty). A `CertifiedDoall` marks nothing and
    ///   runs as a plain DOALL.
    /// * A remainder-variant terminator → [`ExecPlan::Speculate`] over
    ///   every array the body writes: the exit can depend on any write,
    ///   so even an empty `uncertain_arrays` does not excuse the PD test.
    ///
    /// The terminator class is the certificate's, except that exit tests
    /// run at the head of the iteration, before its own body: an exit
    /// that reads only locations no *other* iteration writes (guarded
    /// update's `exit if (A[i] > limit)` after `A[i] = g(A[i])`) sees the
    /// inputs alone, so the two-pass scheme applies to it too.
    ///
    /// A privatized array is marked too when its accesses conflict
    /// across iterations: the certificate dropped those edges assuming
    /// per-worker copies, but pass 2 shares the machine's buffer. And
    /// when a subscript reads a counter after the counter's update, the
    /// subscript facts are off by one stride, so the plan falls back to
    /// speculation.
    ///
    /// Marks reach the compiled loop through [`LoopIr::array_names`]; a
    /// body without names (built by hand) marks every array instead.
    pub fn exec_plan(&self, compiled: &CompiledLoop) -> ExecPlan {
        let cert = &self.certificate;
        if cert.verdict == CertVerdict::CertifiedSequential || !compiled.is_parallel() {
            return ExecPlan::Sequential;
        }
        let ir = &self.body;
        let rem = ir.remainder_view();
        let invariant =
            cert.terminator == TerminatorClass::RemainderInvariant || heads_see_inputs(&rem);
        if !(invariant && compiled.subscripts_precede_updates()) {
            return ExecPlan::Speculate;
        }
        let carried = |a: ArrayId| {
            // (reference, is a write) for every access to `a`
            let refs: Vec<(&WRef, bool)> = rem
                .stmts
                .iter()
                .flat_map(|s| {
                    let writes = s.writes.iter().map(|w| (w, true));
                    writes.chain(s.reads.iter().map(|r| (r, false)))
                })
                .filter(|(r, _)| matches!(r, WRef::Element(x, _) if *x == a))
                .collect();
            let conflicts = |w| {
                refs.iter()
                    .any(|(r, _)| refs_conflict_cross_iteration(w, r))
            };
            refs.iter().any(|&(w, write)| write && conflicts(w))
        };
        let privatized = self.privatization.arrays.iter().copied();
        let mut to_mark: Vec<ArrayId> = privatized.filter(|&a| carried(a)).collect();
        let mut marked = vec![false; compiled.arrays().len()];
        if cert.verdict == CertVerdict::SpeculateBounded {
            let written = cert
                .uncertain_stmts
                .iter()
                .flat_map(|&s| &ir.stmts[s].writes);
            let uncertain = written
                .filter_map(|w| match w {
                    WRef::Element(a, _) => Some(*a),
                    WRef::Scalar(_) => None,
                })
                .chain(cert.uncertain_arrays.iter().copied());
            let before = to_mark.len();
            to_mark.extend(uncertain);
            if to_mark.len() == before {
                // uncertainty the marks cannot place: test everything
                marked.fill(true);
            }
        }
        for a in to_mark {
            let name = ir.array_names.get(a.0 as usize);
            match name.and_then(|n| compiled.array_slot(n)) {
                Some(slot) => marked[slot] = true,
                None => marked.fill(true),
            }
        }
        ExecPlan::TwoPass { marked }
    }
}

fn describe(r: &WRef) -> String {
    match r {
        WRef::Scalar(v) => format!("scalar v{}", v.0),
        WRef::Element(a, Subscript::Const(k)) => format!("A{}[{k}]", a.0),
        WRef::Element(a, Subscript::Affine { coeff, offset }) => {
            format!("A{}[{coeff}·i{offset:+}]", a.0)
        }
        WRef::Element(a, Subscript::Unknown) => format!("A{}[?]", a.0),
    }
}

/// The certificate pipeline shared by the whole-loop analysis and the
/// per-block fission certifier: plan → privatize → refined plan →
/// recurrences → terminator → carried-edge census → verdict. Keeping it
/// in one place guarantees a fused block masked down to its own
/// statements is judged by exactly the rules the whole loop is.
pub(crate) struct CertCore {
    pub baseline: Plan,
    pub refined: Plan,
    pub priv_info: Privatization,
    pub refined_body: LoopIr,
    pub recs: Vec<Recurrence>,
    pub terminator: TerminatorClass,
    pub rv_witness: Option<RvWitness>,
    pub certificate: SafetyCertificate,
}

pub(crate) fn certify_core(body: &LoopIr) -> CertCore {
    let baseline = plan(body);
    let priv_info = privatization(body);
    let refined_body = privatized_body(body, &priv_info);
    let refined = plan(&refined_body);
    let recs = recurrences(body);
    let (terminator, rv_witness) = classify_terminator(body);

    // The planner reasons per fused block (fission sequencing), but the
    // executors run the remainder as one fused DOALL under the PD test —
    // so a budget-0 certificate additionally requires that *no*
    // loop-carried edge survives anywhere in the dispatcher-censored
    // remainder, SCC boundaries notwithstanding.
    let rem_view = refined_body.remainder_view();
    let rem_graph = dep_graph(&rem_view);
    let carried_stmts: BTreeSet<usize> = rem_graph
        .edges
        .iter()
        .filter(|e| e.loop_carried)
        .flat_map(|e| [e.from, e.to])
        .collect();
    let (writes_per_iter, uncertain, uncertain_arrays, uncertain_stmts) =
        count_writes(body, &refined_body, &priv_info, &recs, &carried_stmts);
    let verdict = if refined.strategy == StrategyKind::Sequential {
        CertVerdict::CertifiedSequential
    } else if !refined.needs_pd_test && carried_stmts.is_empty() {
        CertVerdict::CertifiedDoall
    } else {
        CertVerdict::SpeculateBounded
    };
    let (uncertain, uncertain_stmts) = match verdict {
        CertVerdict::SpeculateBounded => (uncertain, uncertain_stmts),
        // certified loops shadow nothing
        CertVerdict::CertifiedDoall | CertVerdict::CertifiedSequential => (0, Vec::new()),
    };

    let certificate = SafetyCertificate {
        verdict,
        terminator,
        parallelism: refined.cell.parallelism,
        writes_per_iter,
        uncertain_writes_per_iter: uncertain,
        uncertain_arrays,
        uncertain_stmts,
    };

    CertCore {
        baseline,
        refined,
        priv_info,
        refined_body,
        recs,
        terminator,
        rv_witness,
        certificate,
    }
}

/// Runs the full analysis over one loop body.
pub fn analyze(body: &LoopIr) -> Analysis {
    let CertCore {
        baseline,
        refined,
        priv_info,
        refined_body,
        recs,
        terminator,
        rv_witness,
        certificate,
    } = certify_core(body);
    let fission = fission_plan(body);

    let mut diagnostics = Vec::new();
    let span_of = |stmt: usize| body.stmts.get(stmt).and_then(|s| s.span);

    // privatization findings
    for v in &priv_info.scalars {
        let def = body
            .stmts
            .iter()
            .position(|s| s.writes.contains(&WRef::Scalar(*v)));
        diagnostics.push(
            Diagnostic::new(
                "W-PRIV01",
                Severity::Note,
                format!(
                    "scalar v{} is defined before use in every iteration: privatizable",
                    v.0
                ),
            )
            .with_span(def.and_then(span_of))
            .with_hint("give each worker a private copy; its carried dependences drop"),
        );
    }
    for a in &priv_info.arrays {
        let def = body.stmts.iter().position(|s| {
            s.writes
                .iter()
                .any(|w| matches!(w, WRef::Element(wa, _) if wa == a))
        });
        diagnostics.push(
            Diagnostic::new(
                "W-PRIV02",
                Severity::Note,
                format!(
                    "array A{} is a per-iteration workspace (every read covered): privatizable",
                    a.0
                ),
            )
            .with_span(def.and_then(span_of))
            .with_hint("privatize with last-value copy-out if live after the loop"),
        );
    }

    // recurrence findings
    for r in &recs {
        let (code, sev, msg, hint): (_, _, String, &str) = match r.role {
            RecurrenceRole::Reduction => (
                "W-RED01",
                Severity::Note,
                format!(
                    "v{} is an associative reduction ({:?}) read nowhere else",
                    r.var.0, r.op
                ),
                "evaluate by parallel prefix; its carried dependence is benign",
            ),
            RecurrenceRole::Dispatcher => (
                "W-RED02",
                Severity::Note,
                format!(
                    "v{} is the loop's dispatcher recurrence ({:?})",
                    r.var.0, r.op
                ),
                "its value pattern is produced up front (closed form or prefix)",
            ),
            RecurrenceRole::General => (
                "W-RED03",
                Severity::Warning,
                format!(
                    "v{} is a general recurrence ({:?}): dispatcher must run sequentially",
                    r.var.0, r.op
                ),
                "general-* strategies pipeline the remainder against it",
            ),
        };
        diagnostics.push(
            Diagnostic::new(code, sev, msg)
                .with_span(span_of(r.stmt))
                .with_hint(hint),
        );
    }

    // terminator findings
    match (&terminator, rv_witness) {
        (TerminatorClass::RemainderVariant, Some(w)) => diagnostics.push(
            Diagnostic::new(
                "W-TERM01",
                Severity::Warning,
                format!(
                    "terminator is remainder-variant: the exit predicate reads {} which statement {} may write ({})",
                    describe(&w.read),
                    w.write_stmt,
                    describe(&w.write)
                ),
            )
            .with_span(span_of(w.exit_stmt))
            .with_hint("overshoot is possible: backups + time-stamps, or a window bound"),
        ),
        _ => {
            // note when dataflow *downgraded* the baseline's coarse RV
            if baseline.terminator == TerminatorClass::RemainderVariant {
                diagnostics.push(
                    Diagnostic::new(
                        "W-TERM02",
                        Severity::Note,
                        "exit predicate provably never reads a remainder-written location: remainder-invariant",
                    )
                    .with_hint("no backups needed; overshot iterations are harmless"),
                );
            }
        }
    }

    // unanalyzable accesses (in the refined body: privatized ones are gone)
    for (si, s) in refined_body.stmts.iter().enumerate() {
        let unknowns: Vec<&WRef> = s
            .writes
            .iter()
            .chain(s.reads.iter())
            .filter(|r| matches!(r, WRef::Element(_, Subscript::Unknown)))
            .collect();
        if let Some(first) = unknowns.first() {
            diagnostics.push(
                Diagnostic::new(
                    "W-SPEC01",
                    Severity::Warning,
                    format!(
                        "statement {si} accesses {} through an unanalyzable subscript",
                        describe(first)
                    ),
                )
                .with_span(span_of(si))
                .with_hint("the run-time PD test will shadow this access"),
            );
        }
    }

    // fission findings: when distribution actually split the remainder
    // into several work blocks, report each block's verdict at its span,
    // and each cross-block DOACROSS edge with its synchronization
    // distance.
    if fission.is_fissioned() {
        for b in &fission.blocks {
            diagnostics.push(
                Diagnostic::new(
                    "W-FIS01",
                    Severity::Note,
                    format!(
                        "fused block {} ({}): {}",
                        b.index,
                        b.describe_stmts(),
                        b.certificate.verdict.name()
                    ),
                )
                .with_span(b.span)
                .with_hint(match b.certificate.verdict {
                    CertVerdict::CertifiedDoall => {
                        "this block runs fully parallel as one DOACROSS stage"
                    }
                    CertVerdict::CertifiedSequential => {
                        "this block pipelines sequentially as one DOACROSS stage"
                    }
                    CertVerdict::SpeculateBounded => {
                        "this block's stage keeps the PD shadow; siblings run unshadowed"
                    }
                }),
            );
        }
        for e in &fission.edges {
            diagnostics.push(
                Diagnostic::new(
                    "W-FIS02",
                    Severity::Note,
                    format!(
                        "doacross: block {} → block {} carries a {:?} dependence at distance {}",
                        e.from_block, e.to_block, e.kind, e.distance
                    ),
                )
                .with_span(fission.blocks.get(e.to_block).and_then(|b| b.span))
                .with_hint(
                    "stage order synchronizes: the sink stage of iteration i waits for the \
                     source stage of iteration i−distance",
                ),
            );
        }
    }

    let verdict = certificate.verdict;
    let writes_per_iter = certificate.writes_per_iter;
    let uncertain = certificate.uncertain_writes_per_iter;

    match verdict {
        CertVerdict::CertifiedSequential => {
            // a provable recurrence forces the *whole-loop* plan
            // sequential, but when fission confines it to its own
            // block(s) with parallel sibling work, the block plan still
            // extracts parallelism — that must not read as a hard error.
            let recovered = fission.is_fissioned()
                && fission
                    .blocks
                    .iter()
                    .any(|b| b.certificate.verdict != CertVerdict::CertifiedSequential);
            if recovered {
                diagnostics.push(
                    Diagnostic::new(
                        "W-SEQ02",
                        Severity::Warning,
                        format!(
                            "a provable loop-carried recurrence confines {} of {} fused blocks: \
                             fission + DOACROSS recovers the parallel siblings",
                            fission
                                .blocks
                                .iter()
                                .filter(|b| {
                                    b.certificate.verdict == CertVerdict::CertifiedSequential
                                })
                                .count(),
                            fission.blocks.len(),
                        ),
                    )
                    .with_hint("schedule the block plan DOACROSS instead of running sequentially"),
                );
            } else {
                diagnostics.push(
                    Diagnostic::new(
                        "W-SEQ01",
                        Severity::Error,
                        "a loop-carried dependence is provable even after privatization: parallel execution would abort deterministically",
                    )
                    .with_hint("run sequentially (or distribute the independent statements out)"),
                );
            }
        }
        CertVerdict::CertifiedDoall => {
            let upgraded = baseline.strategy == StrategyKind::Sequential
                || baseline.needs_pd_test;
            diagnostics.push(
                Diagnostic::new(
                    "W-DOALL01",
                    Severity::Note,
                    if upgraded {
                        "certified DOALL after refinement: no run-time test needed"
                    } else {
                        "certified DOALL: no run-time test needed"
                    },
                )
                .with_hint("execute fully parallel; undo budget 0"),
            );
        }
        CertVerdict::SpeculateBounded => diagnostics.push(
            Diagnostic::new(
                "W-SPEC02",
                Severity::Warning,
                format!(
                    "speculation required; certified may-write bound: {uncertain} uncertain of {writes_per_iter} writes per iteration"
                ),
            )
            .with_hint("shadow only the uncertain arrays; budget = bound × iterations"),
        ),
    }

    diagnostics.sort_by_key(|d| (d.span.map(|s| s.start), d.code));

    Analysis {
        body: body.clone(),
        baseline,
        refined,
        privatization: priv_info,
        recurrences: recs,
        terminator,
        certificate,
        fission,
        diagnostics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wlp_ir::ir::examples;

    #[test]
    fn figure5b_upgrades_sequential_to_doall() {
        let body = examples::figure5b_swap();
        let a = analyze(&body);
        assert_eq!(
            a.baseline.strategy,
            StrategyKind::Sequential,
            "{:?}",
            a.baseline
        );
        assert_eq!(
            a.refined.strategy,
            StrategyKind::InductionDoall,
            "{:?}",
            a.refined
        );
        assert_eq!(a.certificate.verdict, CertVerdict::CertifiedDoall);
        assert_eq!(a.certificate.uncertain_writes_per_iter, 0);
        assert!(a.diagnostics.iter().any(|d| d.code == "W-PRIV01"));
        assert!(a.diagnostics.iter().any(|d| d.code == "W-DOALL01"));
    }

    #[test]
    fn figure5c_is_certified_sequential() {
        let a = analyze(&examples::figure5c_recurrence());
        assert_eq!(a.certificate.verdict, CertVerdict::CertifiedSequential);
        assert_eq!(a.max_severity(), Severity::Error);
    }

    #[test]
    fn track_style_keeps_speculation_with_a_bound() {
        let a = analyze(&examples::track_style_unknown());
        assert_eq!(a.certificate.verdict, CertVerdict::SpeculateBounded);
        assert!(a.certificate.needs_pd());
        assert!(a.certificate.write_budget(100) <= a.certificate.naive_write_budget(100));
    }

    #[test]
    fn figure5a_is_certified_doall() {
        let a = analyze(&examples::figure5a_independent());
        assert_eq!(a.certificate.verdict, CertVerdict::CertifiedDoall);
        assert!(!a.certificate.needs_pd());
    }

    #[test]
    fn diagnostics_carry_stable_codes() {
        let a = analyze(&examples::figure1b_list_traversal());
        for d in &a.diagnostics {
            assert!(d.code.starts_with("W-"), "{d:?}");
        }
    }
}
