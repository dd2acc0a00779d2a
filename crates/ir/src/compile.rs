//! Compilation of a parsed loop into its slot-resolved executable form.
//!
//! [`compile`] turns a [`Program`] into a [`CompiledLoop`] once; the
//! executors in [`interp`](crate::interp) then run it any number of times
//! against different machines. Compilation
//!
//! * resolves every array, scalar and host function to an index (a
//!   *slot*), so execution never looks a name up;
//! * folds constant subtrees with the same wrapping arithmetic evaluation
//!   uses (a division by a constant zero stays unfolded, so it still
//!   fails when — and only if — it is evaluated);
//! * recognizes every `s = s + c` update as a *counter*, whose value at
//!   the head of iteration `k` is the closed form `s₀ + c·k`;
//! * recognizes every scalar written before it is read in each iteration
//!   (swap's `tmp`) as *private* to the iteration;
//! * marks each scalar read that an earlier write of the same iteration
//!   covers, so only uncovered reads ever check that the scalar is bound.
//!
//! A loop whose assigned scalars are all counters or privates has a
//! *parallel form*: any iteration can be run from the loop's starting
//! scalars and its iteration number alone.

use crate::frontend::lexer::CmpOp;
use crate::frontend::{BinOp, Decl, Expr, Program, Stmt};

/// A compiled expression: names resolved to slots, constants folded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Op {
    Const(i64),
    /// A scalar read. `covered` when an earlier write in the same
    /// iteration guarantees the scalar is bound.
    Scalar {
        slot: u32,
        covered: bool,
    },
    /// `mul·scalar + add`: a linear form of one scalar, folded from any
    /// arrangement of `+`, `-`, `*` and constants (subscripts like
    /// `2 * i - 1` evaluate in one step).
    Lin {
        slot: u32,
        covered: bool,
        mul: i64,
        add: i64,
    },
    /// `array[subscript]`.
    Load(u32, Box<Op>),
    /// `f(args…)`.
    Call(u32, Box<[Op]>),
    Neg(Box<Op>),
    Bin(BinOp, Box<Op>, Box<Op>),
    Cmp(CmpOp, Box<Op>, Box<Op>),
}

/// A compiled body statement (exit tests are hoisted to the head).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Action {
    /// `scalar = expr`.
    Set(u32, Op),
    /// The counter update `scalar = scalar + stride`. `covered` as for
    /// [`Op::Scalar`]: the read of the old value is covered.
    Count {
        slot: u32,
        stride: i64,
        covered: bool,
    },
    /// `array[subscript] = expr`.
    Store(u32, Op, Op),
}

/// A loop compiled once into slot-resolved form; see the module docs.
#[derive(Debug, Clone)]
pub struct CompiledLoop {
    pub(crate) arrays: Vec<String>,
    pub(crate) scalars: Vec<String>,
    pub(crate) funcs: Vec<String>,
    /// Pre-loop declarations, in order: slot and initializer.
    pub(crate) decls: Vec<(u32, Option<Op>)>,
    /// The WHILE condition: the loop continues while it is non-zero.
    pub(crate) cond: Op,
    /// The `exit if` conditions, evaluated at the head of each iteration.
    pub(crate) exits: Vec<Op>,
    pub(crate) body: Vec<Action>,
    /// Per array slot: whether the body stores to it.
    pub(crate) written: Vec<bool>,
    /// Counters as `(slot, stride)`; empty unless `parallel`.
    pub(crate) counters: Vec<(u32, i64)>,
    /// Iteration-private scalar slots; empty unless `parallel`.
    pub(crate) privates: Vec<u32>,
    parallel: bool,
    /// No subscript reads a counter after the counter's update.
    subscripts_precede_updates: bool,
}

impl CompiledLoop {
    /// Array names, indexed by slot.
    pub fn arrays(&self) -> &[String] {
        &self.arrays
    }

    /// The slot of array `name`, if the loop references it.
    pub fn array_slot(&self, name: &str) -> Option<usize> {
        self.arrays.iter().position(|a| a == name)
    }

    /// Whether the loop has a parallel form: every scalar the body
    /// assigns is a counter or iteration-private.
    pub fn is_parallel(&self) -> bool {
        self.parallel
    }

    /// Whether every subscript that reads a counter precedes the
    /// counter's update in the body. Static analysis gives an induction
    /// variable its value before the update, so its subscript facts
    /// describe the loop exactly only in that shape.
    pub fn subscripts_precede_updates(&self) -> bool {
        self.subscripts_precede_updates
    }
}

/// Name tables built while compiling.
#[derive(Default)]
struct Names {
    arrays: Vec<String>,
    scalars: Vec<String>,
    funcs: Vec<String>,
}

fn slot_of(table: &mut Vec<String>, name: &str) -> u32 {
    match table.iter().position(|n| n == name) {
        Some(i) => i as u32,
        None => {
            table.push(name.to_string());
            (table.len() - 1) as u32
        }
    }
}

/// `a op b` with the interpreter's wrapping semantics; `None` for a
/// division by zero.
pub(crate) fn arith(op: BinOp, a: i64, b: i64) -> Option<i64> {
    Some(match op {
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Mul => a.wrapping_mul(b),
        BinOp::Div => {
            if b == 0 {
                return None;
            }
            a.wrapping_div(b)
        }
    })
}

pub(crate) fn compare(op: CmpOp, a: i64, b: i64) -> i64 {
    i64::from(match op {
        CmpOp::Lt => a < b,
        CmpOp::Gt => a > b,
        CmpOp::Le => a <= b,
        CmpOp::Ge => a >= b,
        CmpOp::Eq => a == b,
        CmpOp::Ne => a != b,
    })
}

struct Compiler {
    names: Names,
    /// Per scalar slot: written earlier in the current iteration.
    written: Vec<bool>,
    /// Per scalar slot: read somewhere no earlier write covers.
    exposed: Vec<bool>,
    /// Counter updates compiled so far, as `(slot, stride)`.
    counted: Vec<(u32, i64)>,
    /// Nesting depth of subscripts being compiled.
    in_subscript: usize,
    /// A subscript read a counter after its update.
    subscript_after_update: bool,
}

impl Compiler {
    fn scalar(&mut self, name: &str) -> u32 {
        let s = slot_of(&mut self.names.scalars, name);
        if self.written.len() <= s as usize {
            self.written.resize(s as usize + 1, false);
            self.exposed.resize(s as usize + 1, false);
        }
        s
    }

    fn expr(&mut self, e: &Expr) -> Op {
        match e {
            Expr::Int(v) => Op::Const(*v),
            Expr::Null => Op::Const(0),
            Expr::Var(v) => {
                let slot = self.scalar(v);
                let covered = self.written[slot as usize];
                self.exposed[slot as usize] |= !covered;
                self.subscript_after_update |=
                    self.in_subscript > 0 && self.counted.iter().any(|c| c.0 == slot);
                Op::Scalar { slot, covered }
            }
            Expr::Index(arr, sub) => {
                let sub = self.subscript(sub);
                let a = slot_of(&mut self.names.arrays, arr);
                Op::Load(a, Box::new(sub))
            }
            Expr::Call(f, args) => {
                let f = slot_of(&mut self.names.funcs, f);
                Op::Call(f, args.iter().map(|a| self.expr(a)).collect())
            }
            Expr::Neg(inner) => {
                let x = self.expr(inner);
                match linear(&x) {
                    Some((term, m, a)) => fold(term, m.wrapping_neg(), a.wrapping_neg()),
                    None => Op::Neg(Box::new(x)),
                }
            }
            Expr::Bin(op, a, b) => {
                let (x, y) = (self.expr(a), self.expr(b));
                // wrapping +, -, * form a ring, so folding them into one
                // linear step evaluates to exactly the same value; two
                // reads of one scalar in one expression read one value
                let one_term = |t: Term, u: Term| t.is_none() || u.is_none() || t == u;
                let folded = match (op, linear(&x), linear(&y)) {
                    (_, Some((None, _, p)), Some((None, _, q))) => arith(*op, p, q).map(Op::Const),
                    (BinOp::Add, Some((t, m, a)), Some((u, n, b))) if one_term(t, u) => {
                        Some(fold(t.or(u), m.wrapping_add(n), a.wrapping_add(b)))
                    }
                    (BinOp::Sub, Some((t, m, a)), Some((u, n, b))) if one_term(t, u) => {
                        Some(fold(t.or(u), m.wrapping_sub(n), a.wrapping_sub(b)))
                    }
                    // one factor is constant, so one of m, n is 0
                    (BinOp::Mul, Some((t, m, a)), Some((u, n, b)))
                        if t.is_none() || u.is_none() =>
                    {
                        let mul = m.wrapping_mul(b).wrapping_add(n.wrapping_mul(a));
                        Some(fold(t.or(u), mul, a.wrapping_mul(b)))
                    }
                    _ => None,
                };
                folded.unwrap_or_else(|| Op::Bin(*op, Box::new(x), Box::new(y)))
            }
            Expr::Cmp(op, a, b) => match (self.expr(a), self.expr(b)) {
                (Op::Const(x), Op::Const(y)) => Op::Const(compare(*op, x, y)),
                (x, y) => Op::Cmp(*op, Box::new(x), Box::new(y)),
            },
        }
    }

    fn subscript(&mut self, e: &Expr) -> Op {
        self.in_subscript += 1;
        let op = self.expr(e);
        self.in_subscript -= 1;
        op
    }
}

/// A scalar read as `(slot, covered)`, or `None` for a constant.
type Term = Option<(u32, bool)>;

/// `op` as `(term, mul, add)`, meaning `mul·term + add`.
fn linear(op: &Op) -> Option<(Term, i64, i64)> {
    match *op {
        Op::Const(v) => Some((None, 0, v)),
        Op::Scalar { slot, covered } => Some((Some((slot, covered)), 1, 0)),
        Op::Lin {
            slot,
            covered,
            mul,
            add,
        } => Some((Some((slot, covered)), mul, add)),
        _ => None,
    }
}

/// The op for `mul·term + add`.
fn fold(term: Term, mul: i64, add: i64) -> Op {
    match term {
        None => Op::Const(add),
        Some((slot, covered)) if mul == 1 && add == 0 => Op::Scalar { slot, covered },
        Some((slot, covered)) => Op::Lin {
            slot,
            covered,
            mul,
            add,
        },
    }
}

/// Compiles `p` into its slot-resolved executable form.
pub fn compile(p: &Program) -> CompiledLoop {
    let mut c = Compiler {
        names: Names::default(),
        written: Vec::new(),
        exposed: Vec::new(),
        counted: Vec::new(),
        in_subscript: 0,
        subscript_after_update: false,
    };
    let decls = p
        .decls
        .iter()
        .map(|Decl { name, init, .. }| {
            // decls run once, before the loop: their reads always check
            let init = init.as_ref().map(|e| c.expr(e));
            (c.scalar(name), init)
        })
        .collect();
    // decl reads are not iteration reads
    c.exposed.iter_mut().for_each(|x| *x = false);

    // iteration order: the condition, the hoisted exits, then the body
    let cond = c.expr(&p.cond);
    let exits: Vec<Op> = p
        .body
        .iter()
        .filter_map(|st| match st {
            Stmt::ExitIf(e) => Some(c.expr(e)),
            _ => None,
        })
        .collect();

    let mut body = Vec::new();
    let mut assigned: Vec<u32> = Vec::new();
    let mut store_targets: Vec<u32> = Vec::new();
    for st in &p.body {
        match st {
            Stmt::ExitIf(_) => {}
            Stmt::AssignVar(name, rhs) => {
                let op = c.expr(rhs);
                let slot = c.scalar(name);
                // `s = s + c` in any linear arrangement folds to this
                let action = match linear(&op) {
                    Some((Some((s, covered)), 1, stride)) if s == slot => {
                        c.counted.push((slot, stride));
                        Action::Count {
                            slot,
                            stride,
                            covered,
                        }
                    }
                    _ => Action::Set(slot, op),
                };
                c.written[slot as usize] = true;
                assigned.push(slot);
                body.push(action);
            }
            Stmt::AssignElem(arr, sub, rhs) => {
                let sub = c.subscript(sub);
                let rhs = c.expr(rhs);
                let a = slot_of(&mut c.names.arrays, arr);
                store_targets.push(a);
                body.push(Action::Store(a, sub, rhs));
            }
        }
    }

    let mut written = vec![false; c.names.arrays.len()];
    for &a in &store_targets {
        written[a as usize] = true;
    }

    // the parallel form: each assigned scalar is a counter assigned once,
    // or a private whose every read is covered
    let times = |s: u32| assigned.iter().filter(|&&x| x == s).count();
    let mut slots: Vec<u32> = assigned.clone();
    slots.sort_unstable();
    slots.dedup();
    let mut counters = Vec::new();
    let mut privates = Vec::new();
    let mut parallel = true;
    for &s in &slots {
        let count = c.counted.iter().find(|c| c.0 == s);
        if let (Some(&count), 1) = (count, times(s)) {
            counters.push(count);
        } else if !c.exposed[s as usize] {
            privates.push(s);
        } else {
            parallel = false;
        }
    }
    if !parallel {
        counters.clear();
        privates.clear();
    }

    CompiledLoop {
        arrays: c.names.arrays,
        scalars: c.names.scalars,
        funcs: c.names.funcs,
        decls,
        cond,
        exits,
        body,
        written,
        counters,
        privates,
        parallel,
        subscripts_precede_updates: !c.subscript_after_update,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontend::parse_program;

    fn compiled(src: &str) -> CompiledLoop {
        compile(&parse_program(src).unwrap())
    }

    #[test]
    fn swap_has_a_counter_and_a_private() {
        let c = compiled(
            "integer i = 1\ninteger tmp = 0\nwhile (i < n) {\n    tmp = A[2 * i]\n    \
             A[2 * i] = A[2 * i - 1]\n    A[2 * i - 1] = tmp\n    i = i + 1\n}",
        );
        assert!(c.is_parallel());
        let slot = |n: &str| c.scalars.iter().position(|s| s == n).unwrap() as u32;
        assert_eq!(c.counters, vec![(slot("i"), 1)]);
        assert_eq!(c.privates, vec![slot("tmp")]);
        assert!(c.subscripts_precede_updates());
    }

    #[test]
    fn constants_fold_with_wrapping_arithmetic() {
        let c =
            compiled("integer i = 9223372036854775807 + 1\nwhile (i < 0 - -3 * 2) { i = i + 1 }");
        assert_eq!(c.decls[0].1, Some(Op::Const(i64::MIN)));
        let Op::Cmp(_, _, rhs) = &c.cond else {
            panic!("{:?}", c.cond)
        };
        assert_eq!(**rhs, Op::Const(6));
        // a constant division by zero is left for evaluation to report
        let c = compiled("while (1 / 0 == 1) { x = 1 }");
        assert!(matches!(c.cond, Op::Cmp(..)));
    }

    #[test]
    fn counters_are_recognized_in_any_linear_arrangement() {
        let count = |rhs: &str| {
            let c = compiled(&format!("while (q < 1) {{ s = {rhs} }}"));
            match c.body[0] {
                Action::Count { stride, .. } => Some(stride),
                _ => None,
            }
        };
        assert_eq!(count("2 * s - s + 3"), Some(3));
        assert_eq!(count("(s + 1) * 1 - 4"), Some(-3));
        assert_eq!(count("s + k"), None);
        assert_eq!(count("s * s"), None);
        assert_eq!(count("2 * s"), None);
    }

    #[test]
    fn carried_scalars_have_no_parallel_form() {
        // x is read before it is written: a loop-carried scalar
        let c = compiled(
            "integer i = 0\nwhile (i < n) {\n    A[i] = x\n    x = A[i] + 1\n    i = i + 1\n}",
        );
        assert!(!c.is_parallel());
        // a counter updated twice is not a closed form either
        let c = compiled("integer i = 0\nwhile (i < n) {\n    i = i + 1\n    i = i + 1\n}");
        assert!(!c.is_parallel());
        // an exit reading a body-written scalar is an exposed read
        let c = compiled(
            "integer i = 0\nwhile (i < n) {\n    exit if (t > 3)\n    t = A[i]\n    i = i + 1\n}",
        );
        assert!(!c.is_parallel());
    }

    #[test]
    fn a_subscript_after_its_counter_update_is_flagged() {
        let c = compiled("integer i = 0\nwhile (i < n) {\n    i = i + 1\n    A[i] = 1\n}");
        assert!(c.is_parallel());
        assert!(!c.subscripts_precede_updates());
        // a counter no subscript reads may be updated anywhere
        let c = compiled(
            "integer i = 0\nwhile (i < n) {\n    s = s + 3\n    A[i] = s\n    i = i + 1\n}",
        );
        assert!(c.subscripts_precede_updates());
    }
}
