//! Executors for compiled WHILE loops: the executable end of the
//! pipeline.
//!
//! A [`Program`] is [`compile`]d once into a [`CompiledLoop`] and run
//! through an [`ExecPlan`]:
//!
//! * [`ExecPlan::Sequential`] interprets the loop in order — the
//!   reference semantics every other executor must reproduce exactly:
//!   final arrays and scalars, `iterations`, `exited_at` and error text.
//! * [`ExecPlan::TwoPass`] is the paper's §5 two-pass scheme for a
//!   remainder-invariant terminator. Pass 1 runs the head tests of every
//!   iteration as a read-only DOALL to find the trip count; pass 2 runs
//!   the bodies as a chunked DOALL over exactly `[0, trip)`, writing the
//!   machine's own buffers through a relaxed-atomic view. A known trip
//!   count cannot overshoot, so nothing is stamped or copied; only the
//!   marked arrays are shadowed for the PD test. With none marked (a
//!   certified DOALL) pass 2 is a plain DOALL.
//! * [`ExecPlan::Speculate`] speculates on copies, with shadow marks,
//!   time-stamps and undo on every array the body writes, for
//!   terminators the body can change.
//!
//! Whatever the plan, a parallel attempt that faults (an evaluation
//! error, a panic, a timeout) or fails its PD test is thrown away and
//! the loop re-runs sequentially from untouched inputs — restored by the
//! caller when the attempt wrote in place — so every result is the
//! sequential one. [`run_sequential`] and [`run_parallel`] are
//! compile-then-run wrappers; the latter picks its plan without a
//! certificate, putting every array under the PD test.
//!
//! Semantics shared by all executors: `exit if` conditions are evaluated
//! at the **head** of each iteration (test-then-work, the paper's
//! canonical WHILE form), and all arithmetic wraps.
//!
//! Parallel plans need the loop's parallel form (see [`compile`]):
//! counters run in closed form and private scalars live in a
//! per-iteration frame, whose last value is copied out. A loop without
//! one runs sequentially whatever the plan.

pub use crate::compile::{compile, CompiledLoop};

use crate::compile::{arith, compare, Action, Op};
use crate::dependence::heads_see_inputs;
use crate::frontend::{lower, Program};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicUsize, Ordering};
use std::sync::Arc;
use wlp_core::speculate::{speculative_while_group, GroupAccess, SpeculativeArray};
use wlp_core::{AbortReason, IterMarkers, Shadow};
use wlp_runtime::{doall_dynamic, ChunkPolicy, NoopRecorder, Pool, Step};

/// A callable the loop may invoke (uninterpreted functions like `f(…)`).
pub type HostFn = Arc<dyn Fn(&[i64]) -> i64 + Send + Sync>;

/// The state a loop runs against: named arrays, named scalars, and host
/// functions.
#[derive(Clone, Default)]
pub struct Machine {
    /// Named integer arrays.
    pub arrays: HashMap<String, Vec<i64>>,
    /// Named scalars (loop-invariant inputs and declared variables).
    pub scalars: HashMap<String, i64>,
    /// Host functions callable from expressions.
    pub funcs: HashMap<String, HostFn>,
}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("arrays", &self.arrays.keys().collect::<Vec<_>>())
            .field("scalars", &self.scalars)
            .field("funcs", &self.funcs.keys().collect::<Vec<_>>())
            .finish()
    }
}

impl Machine {
    /// Registers a host function.
    pub fn define_fn(&mut self, name: &str, f: impl Fn(&[i64]) -> i64 + Send + Sync + 'static) {
        self.funcs.insert(name.to_string(), Arc::new(f));
    }
}

/// An interpretation failure (unbound name, out-of-bounds access, …).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecError {
    /// Description.
    pub msg: String,
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.msg)
    }
}

/// How a loop finished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecOutcome {
    /// Bodies executed.
    pub iterations: usize,
    /// `Some(i)` if an exit fired at iteration `i` (while-condition failing
    /// or `exit if`); `None` if the `max_iters` bound stopped the run.
    pub exited_at: Option<usize>,
    /// Whether the parallel path was actually taken (and committed).
    pub ran_parallel: bool,
    /// Why a parallel attempt was thrown away, when one ran and was. A run
    /// with neither `ran_parallel` nor `abort` never attempted parallel
    /// execution (a sequential plan, or a loop without a parallel form).
    pub abort: Option<AbortReason>,
}

/// Which executor runs a [`CompiledLoop`]; derived once per program,
/// from its safety certificate or, without one, by [`run_parallel`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecPlan {
    /// Interpret in order.
    Sequential,
    /// The §5 two-pass scheme for a remainder-invariant terminator.
    /// `marked[a]` puts array slot `a` under the PD test; with none
    /// marked, pass 2 is a plain DOALL writing the machine in place.
    TwoPass {
        /// Per array slot of the compiled loop.
        marked: Vec<bool>,
    },
    /// Speculation on copies of the arrays, with undo of overshot
    /// iterations.
    Speculate,
}

impl ExecPlan {
    /// Whether the plan puts any array under the PD test — the only kind
    /// of parallel run a dependence can abort.
    pub fn pd_tested(&self) -> bool {
        match self {
            ExecPlan::Sequential => false,
            ExecPlan::TwoPass { marked } => marked.contains(&true),
            ExecPlan::Speculate => true,
        }
    }
}

/// Why an evaluation failed; names are resolved only when reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fault {
    UnknownArray(u32),
    OutOfBounds(u32, i64),
    Unbound(u32),
    UnknownFn(u32),
    DivZero,
}

impl CompiledLoop {
    fn error(&self, f: Fault) -> ExecError {
        let msg = match f {
            Fault::UnknownArray(a) => format!("unknown array `{}`", self.arrays[a as usize]),
            Fault::OutOfBounds(a, i) => format!("`{}[{i}]` out of bounds", self.arrays[a as usize]),
            Fault::Unbound(s) => format!("unbound scalar `{}`", self.scalars[s as usize]),
            Fault::UnknownFn(f) => format!("unknown function `{}`", self.funcs[f as usize]),
            Fault::DivZero => "division by zero".to_string(),
        };
        ExecError { msg }
    }
}

/// Array storage an evaluation reads and writes.
trait Mem {
    fn load(&mut self, a: u32, i: i64) -> Result<i64, Fault>;
    fn store(&mut self, a: u32, i: i64, v: i64) -> Result<(), Fault>;
}

/// One array as the executors see it: the machine's buffer behind a
/// relaxed-atomic view (empty when the machine lacks the array).
#[derive(Clone, Copy)]
struct View<'a> {
    data: &'a [AtomicI64],
    missing: bool,
}

impl View<'_> {
    #[inline]
    fn fault(&self, a: u32, i: i64) -> Fault {
        if self.missing {
            Fault::UnknownArray(a)
        } else {
            Fault::OutOfBounds(a, i)
        }
    }
}

const _: () = assert!(
    std::mem::size_of::<AtomicI64>() == std::mem::size_of::<i64>()
        && std::mem::align_of::<AtomicI64>() == std::mem::align_of::<i64>()
);

/// Views a buffer as relaxed atomics, so iterations running on several
/// workers may share it without a data race.
fn atomic_view(v: &mut [i64]) -> &[AtomicI64] {
    // SAFETY: `AtomicI64` has the size and alignment of `i64` (asserted
    // above), and the exclusive borrow rules out any non-atomic access to
    // the buffer while the view lives.
    unsafe { &*(v as *mut [i64] as *const [AtomicI64]) }
}

/// The machine's buffers, accessed in place.
#[derive(Clone, Copy)]
struct Direct<'v, 'a> {
    views: &'v [View<'a>],
}

impl Mem for Direct<'_, '_> {
    #[inline]
    fn load(&mut self, a: u32, i: i64) -> Result<i64, Fault> {
        let view = &self.views[a as usize];
        match usize::try_from(i).ok().and_then(|u| view.data.get(u)) {
            Some(x) => Ok(x.load(Ordering::Relaxed)),
            None => Err(view.fault(a, i)),
        }
    }

    #[inline]
    fn store(&mut self, a: u32, i: i64, v: i64) -> Result<(), Fault> {
        let view = &self.views[a as usize];
        match usize::try_from(i).ok().and_then(|u| view.data.get(u)) {
            Some(x) => {
                x.store(v, Ordering::Relaxed);
                Ok(())
            }
            None => Err(view.fault(a, i)),
        }
    }
}

/// The machine's buffers in place, with the accesses of marked arrays
/// recorded on one iteration's PD markers.
struct Marked<'v, 'a, 'k, 's> {
    views: &'v [View<'a>],
    marks: &'k mut IterMarkers<'s>,
}

impl Mem for Marked<'_, '_, '_, '_> {
    #[inline]
    fn load(&mut self, a: u32, i: i64) -> Result<i64, Fault> {
        let view = &self.views[a as usize];
        match usize::try_from(i).ok().filter(|&u| u < view.data.len()) {
            Some(u) => {
                if let Some(m) = self.marks.get(a as usize) {
                    m.mark_read(u);
                }
                Ok(view.data[u].load(Ordering::Relaxed))
            }
            None => Err(view.fault(a, i)),
        }
    }

    #[inline]
    fn store(&mut self, a: u32, i: i64, v: i64) -> Result<(), Fault> {
        let view = &self.views[a as usize];
        match usize::try_from(i).ok().filter(|&u| u < view.data.len()) {
            Some(u) => {
                if let Some(m) = self.marks.get(a as usize) {
                    m.mark_write(u);
                }
                view.data[u].store(v, Ordering::Relaxed);
                Ok(())
            }
            None => Err(view.fault(a, i)),
        }
    }
}

/// Speculative copies, accessed through one iteration's group handle.
struct Spec<'g, 'h, 'a> {
    g: &'g mut GroupAccess<'h, i64>,
    views: &'g [View<'a>],
}

impl Mem for Spec<'_, '_, '_> {
    #[inline]
    fn load(&mut self, a: u32, i: i64) -> Result<i64, Fault> {
        let view = &self.views[a as usize];
        match usize::try_from(i).ok().filter(|&u| u < view.data.len()) {
            Some(u) => Ok(self.g.read(a as usize, u)),
            None => Err(view.fault(a, i)),
        }
    }

    #[inline]
    fn store(&mut self, a: u32, i: i64, v: i64) -> Result<(), Fault> {
        let view = &self.views[a as usize];
        match usize::try_from(i).ok().filter(|&u| u < view.data.len()) {
            Some(u) => {
                self.g.write(a as usize, u, v);
                Ok(())
            }
            None => Err(view.fault(a, i)),
        }
    }
}

/// Scalar values by slot. `bound` is tracked only when some scalar may be
/// read before anything binds it; covered reads never consult it.
struct Frame<'f> {
    vals: &'f mut [i64],
    bound: Option<&'f mut [bool]>,
}

impl Frame<'_> {
    #[inline]
    fn get(&self, slot: u32, covered: bool) -> Result<i64, Fault> {
        if !covered {
            if let Some(b) = &self.bound {
                if !b[slot as usize] {
                    return Err(Fault::Unbound(slot));
                }
            }
        }
        Ok(self.vals[slot as usize])
    }

    #[inline]
    fn set(&mut self, slot: u32, v: i64) {
        self.vals[slot as usize] = v;
        if let Some(b) = &mut self.bound {
            b[slot as usize] = true;
        }
    }
}

/// Host functions by slot (`None` when the machine lacks one).
type Funcs<'m> = [Option<&'m HostFn>];

/// Arguments up to this count are passed from the stack; longer calls
/// (rare) collect them on the heap.
const INLINE_ARGS: usize = 8;

/// Evaluation context: the host functions and the slot where a failing
/// evaluation leaves its fault. Keeping the fault out of the return value
/// lets every recursive step return a register-sized `Option`.
struct Ctx<'c, 'm> {
    funcs: &'c Funcs<'m>,
    fault: Cell<Option<Fault>>,
}

impl<'c, 'm> Ctx<'c, 'm> {
    fn new(funcs: &'c Funcs<'m>) -> Self {
        Ctx {
            funcs,
            fault: Cell::new(None),
        }
    }

    #[cold]
    fn fail(&self, f: Fault) -> Option<i64> {
        self.fault.set(Some(f));
        None
    }

    #[cold]
    fn take(&self) -> Fault {
        self.fault.take().unwrap_or(Fault::DivZero)
    }

    /// `op`'s value, or the fault that stopped it.
    #[inline]
    fn eval<M: Mem>(&self, op: &Op, fr: &Frame, mem: &mut M) -> Result<i64, Fault> {
        eval(op, fr, mem, self).ok_or_else(|| self.take())
    }
}

fn eval<M: Mem>(op: &Op, fr: &Frame, mem: &mut M, cx: &Ctx) -> Option<i64> {
    Some(match op {
        Op::Const(v) => *v,
        Op::Scalar { slot, covered } => match fr.get(*slot, *covered) {
            Ok(v) => v,
            Err(f) => return cx.fail(f),
        },
        Op::Lin {
            slot,
            covered,
            mul,
            add,
        } => match fr.get(*slot, *covered) {
            Ok(v) => v.wrapping_mul(*mul).wrapping_add(*add),
            Err(f) => return cx.fail(f),
        },
        Op::Load(a, sub) => {
            let i = eval(sub, fr, mem, cx)?;
            match mem.load(*a, i) {
                Ok(v) => v,
                Err(f) => return cx.fail(f),
            }
        }
        Op::Call(f, args) => {
            let Some(func) = cx.funcs[*f as usize] else {
                return cx.fail(Fault::UnknownFn(*f));
            };
            if args.len() <= INLINE_ARGS {
                let mut buf = [0i64; INLINE_ARGS];
                for (slot, a) in buf.iter_mut().zip(args.iter()) {
                    *slot = eval(a, fr, mem, cx)?;
                }
                func(&buf[..args.len()])
            } else {
                let vals = args
                    .iter()
                    .map(|a| eval(a, fr, mem, cx))
                    .collect::<Option<Vec<_>>>()?;
                func(&vals)
            }
        }
        Op::Neg(inner) => eval(inner, fr, mem, cx)?.wrapping_neg(),
        Op::Bin(op, a, b) => {
            let x = eval(a, fr, mem, cx)?;
            let y = eval(b, fr, mem, cx)?;
            match arith(*op, x, y) {
                Some(v) => v,
                None => return cx.fail(Fault::DivZero),
            }
        }
        Op::Cmp(op, a, b) => {
            let x = eval(a, fr, mem, cx)?;
            let y = eval(b, fr, mem, cx)?;
            compare(*op, x, y)
        }
    })
}

impl CompiledLoop {
    /// The head tests of one iteration: `Ok(true)` when the loop exits.
    #[inline]
    fn head<M: Mem>(&self, fr: &Frame, mem: &mut M, funcs: &Funcs) -> Result<bool, Fault> {
        let cx = Ctx::new(funcs);
        if cx.eval(&self.cond, fr, mem)? == 0 {
            return Ok(true);
        }
        for e in &self.exits {
            if cx.eval(e, fr, mem)? != 0 {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// The body statements of one iteration.
    #[inline]
    fn body<M: Mem>(&self, fr: &mut Frame, mem: &mut M, funcs: &Funcs) -> Result<(), Fault> {
        let cx = Ctx::new(funcs);
        for action in &self.body {
            match action {
                Action::Set(slot, op) => {
                    let v = cx.eval(op, fr, mem)?;
                    fr.set(*slot, v);
                }
                Action::Count {
                    slot,
                    stride,
                    covered,
                } => {
                    let v = fr.get(*slot, *covered)?.wrapping_add(*stride);
                    fr.set(*slot, v);
                }
                Action::Store(a, sub, rhs) => {
                    let i = cx.eval(sub, fr, mem)?;
                    let v = cx.eval(rhs, fr, mem)?;
                    mem.store(*a, i, v)?;
                }
            }
        }
        Ok(())
    }
}

/// A machine bound to a compiled loop for one run: array views and host
/// functions resolved by slot, scalars loaded into a frame.
struct Bound<'m> {
    views: Vec<View<'m>>,
    funcs: Vec<Option<&'m HostFn>>,
    vals: Vec<i64>,
    bound: Vec<bool>,
}

impl CompiledLoop {
    fn bind<'m>(
        &self,
        arrays: &'m mut HashMap<String, Vec<i64>>,
        scalars: &HashMap<String, i64>,
        funcs: &'m HashMap<String, HostFn>,
    ) -> Bound<'m> {
        let mut views = vec![
            View {
                data: &[],
                missing: true,
            };
            self.arrays.len()
        ];
        for (name, data) in arrays.iter_mut() {
            if let Some(a) = self.array_slot(name) {
                views[a] = View {
                    data: atomic_view(data),
                    missing: false,
                };
            }
        }
        let scalar = |name: &String| scalars.get(name).copied();
        Bound {
            views,
            funcs: self.funcs.iter().map(|f| funcs.get(f)).collect(),
            vals: self
                .scalars
                .iter()
                .map(|n| scalar(n).unwrap_or(0))
                .collect(),
            bound: self.scalars.iter().map(|n| scalar(n).is_some()).collect(),
        }
    }

    /// Evaluates the declarations into the frame, in order.
    fn apply_decls(&self, b: &mut Bound) -> Result<(), Fault> {
        let mut fr = Frame {
            vals: &mut b.vals,
            bound: Some(&mut b.bound),
        };
        let mut mem = Direct { views: &b.views };
        for (slot, init) in &self.decls {
            let v = match init {
                Some(e) => Ctx::new(&b.funcs).eval(e, &fr, &mut mem)?,
                None => 0,
            };
            fr.set(*slot, v);
        }
        Ok(())
    }

    /// Writes every bound scalar slot back into `scalars`.
    fn store_scalars(&self, scalars: &mut HashMap<String, i64>, vals: &[i64], bound: &[bool]) {
        for (s, name) in self.scalars.iter().enumerate() {
            if !bound[s] {
                continue;
            }
            match scalars.get_mut(name) {
                Some(v) => *v = vals[s],
                None => {
                    scalars.insert(name.clone(), vals[s]);
                }
            }
        }
    }

    /// Interprets the loop in order against `machine`, updated in place;
    /// `max_iters` bounds runaway loops. The reference semantics.
    pub fn run_sequential(
        &self,
        machine: &mut Machine,
        max_iters: usize,
    ) -> Result<ExecOutcome, ExecError> {
        let Machine {
            arrays,
            scalars,
            funcs,
        } = machine;
        let mut b = self.bind(arrays, scalars, funcs);
        let result = self.apply_decls(&mut b).and_then(|()| {
            // bound-checking is needed only while some scalar is unbound
            let checked = b.bound.contains(&false);
            let mut fr = Frame {
                vals: &mut b.vals,
                bound: checked.then_some(&mut b.bound[..]),
            };
            let mut mem = Direct { views: &b.views };
            for i in 0..max_iters {
                if self.head(&fr, &mut mem, &b.funcs)? {
                    return Ok((i, Some(i)));
                }
                self.body(&mut fr, &mut mem, &b.funcs)?;
            }
            Ok((max_iters, None))
        });
        self.store_scalars(scalars, &b.vals, &b.bound);
        match result {
            Ok((iterations, exited_at)) => Ok(ExecOutcome {
                iterations,
                exited_at,
                ran_parallel: false,
                abort: None,
            }),
            Err(f) => Err(self.error(f)),
        }
    }

    /// Runs the loop through `plan` against `machine`, updated in place.
    ///
    /// `restore` puts the run's input arrays back into a machine. A
    /// [`ExecPlan::TwoPass`] attempt writes the machine in place, so when
    /// its pass 2 faults or fails the PD test, `restore` runs before the
    /// sequential re-run; speculation works on copies and leaves the
    /// machine untouched until it commits.
    pub fn run(
        &self,
        plan: &ExecPlan,
        machine: &mut Machine,
        pool: &Pool,
        max_iters: usize,
        restore: &dyn Fn(&mut Machine),
    ) -> Result<ExecOutcome, ExecError> {
        let attempt = match plan {
            ExecPlan::Sequential => Attempt::NotTried,
            _ if !self.is_parallel() => Attempt::NotTried,
            ExecPlan::TwoPass { marked } => self.two_pass(marked, machine, pool, max_iters),
            ExecPlan::Speculate => self.speculate(machine, pool, max_iters),
        };
        match attempt {
            Attempt::Committed(out) => Ok(out),
            Attempt::NotTried => self.run_sequential(machine, max_iters),
            Attempt::Aborted { reason, in_place } => {
                if in_place {
                    restore(machine);
                }
                let out = self.run_sequential(machine, max_iters)?;
                Ok(ExecOutcome {
                    abort: Some(reason),
                    ..out
                })
            }
        }
    }
}

/// The result of one parallel attempt.
enum Attempt {
    /// The parallel result stands; the machine holds it.
    Committed(ExecOutcome),
    /// No parallel attempt was made.
    NotTried,
    /// The attempt was thrown away. `in_place`: it wrote the machine's
    /// buffers, which must be restored before the sequential re-run.
    Aborted { reason: AbortReason, in_place: bool },
}

thread_local! {
    /// Each worker's scalar frame, reused across iterations and runs.
    static FRAME: RefCell<Vec<i64>> = const { RefCell::new(Vec::new()) };
}

/// How many iterations one claim grants while the exit is unknown
/// (pass 1, speculation): small enough that the workers share the valid
/// iterations instead of one of them drawing them all in a first grant.
const SEARCH: ChunkPolicy = ChunkPolicy::Fixed(32);

/// How many iterations one claim grants over a known range (pass 2).
const RANGE: ChunkPolicy = ChunkPolicy::Guided { min: 16 };

/// The most per-iteration private values a speculative run buffers (the
/// copy-out of an exit found only after the fact); longer runs of loops
/// with private scalars are not speculated.
const MAX_CAPTURE: usize = 1 << 20;

/// What every parallel iteration starts from: the scalars after the
/// declarations, and the counters' closed forms.
struct Start<'c> {
    vals: &'c [i64],
    counters: &'c [(u32, i64)],
}

impl Start<'_> {
    /// Runs `f` on iteration `i`'s frame (this worker's, reinitialized).
    #[inline]
    fn frame<R>(&self, i: usize, f: impl FnOnce(&mut Frame) -> R) -> R {
        FRAME.with_borrow_mut(|vals| {
            vals.clear();
            vals.extend_from_slice(self.vals);
            let k = i as i64;
            for &(slot, stride) in self.counters {
                let s = slot as usize;
                vals[s] = self.vals[s].wrapping_add(stride.wrapping_mul(k));
            }
            f(&mut Frame { vals, bound: None })
        })
    }

    /// The scalars after `trip` iterations, given the privates' values
    /// in the last one.
    fn finish(&self, trip: usize, privates: &[u32], last: &[i64], bound: &mut [bool]) -> Vec<i64> {
        let mut vals = self.vals.to_vec();
        for &(slot, stride) in self.counters {
            let s = slot as usize;
            vals[s] = vals[s].wrapping_add(stride.wrapping_mul(trip as i64));
        }
        if trip > 0 {
            for (&slot, &v) in privates.iter().zip(last) {
                vals[slot as usize] = v;
                bound[slot as usize] = true;
            }
        }
        vals
    }
}

impl CompiledLoop {
    /// Binds the machine and evaluates the declarations; `None` when the
    /// run cannot go parallel (a declaration fails, or a scalar other
    /// than a private could be read unbound) — the sequential run then
    /// reproduces whatever happens.
    fn parallel_start<'m>(
        &self,
        arrays: &'m mut HashMap<String, Vec<i64>>,
        scalars: &HashMap<String, i64>,
        funcs: &'m HashMap<String, HostFn>,
    ) -> Option<Bound<'m>> {
        let mut b = self.bind(arrays, scalars, funcs);
        self.apply_decls(&mut b).ok()?;
        let unbound_ok = |s: usize| b.bound[s] || self.privates.contains(&(s as u32));
        (0..self.scalars.len()).all(unbound_ok).then_some(b)
    }

    /// `op` at iteration `k` as the exact line `c₀ + d·k`, when `op` is a
    /// constant or a linear form of a counter or loop invariant and its
    /// wrapping evaluation cannot wrap for any `k ≤ last`.
    fn line(&self, op: &Op, start: &[i64], last: usize) -> Option<(i128, i128)> {
        let (slot, mul, add) = match *op {
            Op::Const(v) => return Some((i128::from(v), 0)),
            Op::Scalar { slot, .. } => (slot, 1, 0),
            Op::Lin { slot, mul, add, .. } => (slot, mul, add),
            _ => return None,
        };
        let stride = self
            .counters
            .iter()
            .find(|c| c.0 == slot)
            .map_or(0, |c| c.1);
        let (x0, s, m, a) = (
            i128::from(start[slot as usize]),
            i128::from(stride),
            i128::from(mul),
            i128::from(add),
        );
        // linear in k: no step wraps anywhere if none wraps at the ends
        let fits = |v: i128| i64::try_from(v).is_ok();
        for k in [0, last as i128] {
            // s·k itself can exceed i128 for a huge `last`
            let x = s.checked_mul(k)?.checked_add(x0)?;
            if !(fits(x) && fits(m * x) && fits(m * x + a)) {
                return None;
            }
        }
        Some((m * x0 + a, m * s))
    }

    /// The trip count in closed form, when the only head test compares
    /// two such lines: the first iteration whose comparison fails.
    fn closed_trip(&self, start: &[i64], max_iters: usize) -> Option<(usize, Option<usize>)> {
        use crate::frontend::lexer::CmpOp;
        let Op::Cmp(op, a, b) = &self.cond else {
            return None;
        };
        if !self.exits.is_empty() {
            return None;
        }
        let (a0, da) = self.line(a, start, max_iters)?;
        let (b0, db) = self.line(b, start, max_iters)?;
        // the loop runs while D(k) = d0 + d·k satisfies `op` against 0
        let (d0, d) = (a0 - b0, da - db);
        // first k ≥ 0 with c + e·k ≥ 0, i.e. where `c + e·k < 0` fails
        let first_nonneg = |c: i128, e: i128| match (c >= 0, e > 0) {
            (true, _) => Some(0),
            (false, false) => None,
            (false, true) => Some((-c + e - 1) / e),
        };
        let exit = match op {
            CmpOp::Lt => first_nonneg(d0, d),
            CmpOp::Le => first_nonneg(d0 - 1, d),
            CmpOp::Gt => first_nonneg(-d0, -d),
            CmpOp::Ge => first_nonneg(-d0 - 1, -d),
            CmpOp::Ne if d == 0 => (d0 == 0).then_some(0),
            CmpOp::Ne => ((-d0) % d == 0 && -d0 / d >= 0).then(|| -d0 / d),
            CmpOp::Eq if d0 != 0 => Some(0),
            CmpOp::Eq => (d != 0).then_some(1),
        };
        Some(match exit {
            Some(k) if k < max_iters as i128 => (k as usize, Some(k as usize)),
            _ => (max_iters, None),
        })
    }

    /// Pass 1 of the two-pass scheme: the head tests of every iteration,
    /// read-only, as a DOALL — or, for a lone comparison of counters and
    /// invariants, the closed form. Returns the trip count and whether
    /// the loop exited, or the abort when the pass faulted or the exit
    /// itself faults.
    fn trip_count(
        &self,
        pool: &Pool,
        max_iters: usize,
        start: &Start,
        b: &Bound,
    ) -> Result<(usize, Option<usize>), AbortReason> {
        if let Some(trip) = self.closed_trip(start.vals, max_iters) {
            return Ok(trip);
        }
        let first_error = AtomicUsize::new(usize::MAX);
        let pass1 = doall_dynamic(pool, max_iters, SEARCH, &NoopRecorder, |i, _| {
            start.frame(i, |fr| {
                let mut mem = Direct { views: &b.views };
                match self.head(fr, &mut mem, &b.funcs) {
                    Ok(false) => Step::Continue,
                    Ok(true) => Step::Quit,
                    Err(_) => {
                        first_error.fetch_min(i, Ordering::Relaxed);
                        Step::Quit
                    }
                }
            })
        });
        if pass1.timeout.is_some() {
            return Err(AbortReason::Timeout);
        }
        // an error at the exit iteration is real; later ones are overshoot
        if pass1.panic.is_some() || pass1.quit == Some(first_error.into_inner()) {
            return Err(AbortReason::Exception);
        }
        Ok((pass1.quit.unwrap_or(max_iters), pass1.quit))
    }

    fn two_pass(
        &self,
        marked: &[bool],
        machine: &mut Machine,
        pool: &Pool,
        max_iters: usize,
    ) -> Attempt {
        let Machine {
            arrays,
            scalars,
            funcs,
        } = machine;
        let Some(mut b) = self.parallel_start(arrays, scalars, funcs) else {
            return Attempt::NotTried;
        };
        let start_vals = b.vals.clone();
        let start = Start {
            vals: &start_vals,
            counters: &self.counters,
        };
        let (trip, exited_at) = match self.trip_count(pool, max_iters, &start, &b) {
            Ok(t) => t,
            Err(reason) => {
                return Attempt::Aborted {
                    reason,
                    in_place: false,
                }
            }
        };

        // pass 2: the bodies of exactly [0, trip), writing in place; the
        // marked arrays' accesses are shadowed for the PD test
        let shadows: Vec<Option<Shadow>> = b
            .views
            .iter()
            .zip(marked)
            .map(|(v, &m)| m.then(|| Shadow::new(v.data.len())))
            .collect();
        let tested = shadows.iter().any(Option::is_some);
        let last = parking_lot::Mutex::new(Vec::new());
        let faulted = AtomicBool::new(false);
        let pass2 = doall_dynamic(pool, trip, RANGE, &NoopRecorder, |i, _| {
            start.frame(i, |fr| {
                let ran = if tested {
                    let mut marks = IterMarkers::new(shadows.iter().map(Option::as_ref), i);
                    let mut mem = Marked {
                        views: &b.views,
                        marks: &mut marks,
                    };
                    self.body(fr, &mut mem, &b.funcs)
                } else {
                    self.body(fr, &mut Direct { views: &b.views }, &b.funcs)
                };
                if ran.is_err() {
                    faulted.store(true, Ordering::Relaxed);
                    return Step::Quit;
                }
                if i + 1 == trip && !self.privates.is_empty() {
                    *last.lock() = self.privates.iter().map(|&s| fr.vals[s as usize]).collect();
                }
                Step::Continue
            })
        });
        let reason = if pass2.timeout.is_some() {
            Some(AbortReason::Timeout)
        } else if pass2.panic.is_some() || faulted.into_inner() {
            Some(AbortReason::Exception)
        } else if shadows
            .iter()
            .flatten()
            .any(|s| !s.analyze(pool, None, 16).doall)
        {
            Some(AbortReason::Dependence)
        } else {
            None
        };
        if let Some(reason) = reason {
            return Attempt::Aborted {
                reason,
                in_place: true,
            };
        }
        let vals = start.finish(trip, &self.privates, &last.into_inner(), &mut b.bound);
        self.store_scalars(scalars, &vals, &b.bound);
        Attempt::Committed(ExecOutcome {
            iterations: trip,
            exited_at,
            ran_parallel: true,
            abort: None,
        })
    }

    fn speculate(&self, machine: &mut Machine, pool: &Pool, max_iters: usize) -> Attempt {
        let np = self.privates.len();
        if np > 0 && max_iters.saturating_mul(np) > MAX_CAPTURE {
            return Attempt::NotTried;
        }
        let Machine {
            arrays,
            scalars,
            funcs,
        } = machine;
        let Some(mut b) = self.parallel_start(arrays, scalars, funcs) else {
            return Attempt::NotTried;
        };
        let start_vals = b.vals.clone();
        let start = Start {
            vals: &start_vals,
            counters: &self.counters,
        };
        let spec: Vec<SpeculativeArray<i64>> = b
            .views
            .iter()
            .map(|v| {
                SpeculativeArray::new(v.data.iter().map(|x| x.load(Ordering::Relaxed)).collect())
            })
            .collect();
        // arrays the body only reads cannot conflict: no marks, no stamps
        let marked = &self.written;
        // private values of every iteration: the exit is known only after
        let captured: Vec<AtomicI64> = (0..max_iters * np).map(|_| AtomicI64::new(0)).collect();
        let (head_error, body_error) = (AtomicUsize::new(usize::MAX), AtomicUsize::new(usize::MAX));
        let out = speculative_while_group(
            pool,
            max_iters,
            SEARCH,
            &spec,
            marked,
            |i, g| {
                start.frame(i, |fr| {
                    let mut mem = Spec { g, views: &b.views };
                    self.head(fr, &mut mem, &b.funcs).unwrap_or_else(|_| {
                        head_error.fetch_min(i, Ordering::Relaxed);
                        true
                    })
                })
            },
            |i, g| {
                start.frame(i, |fr| {
                    let mut mem = Spec { g, views: &b.views };
                    match self.body(fr, &mut mem, &b.funcs) {
                        Ok(()) => {
                            for (k, &s) in self.privates.iter().enumerate() {
                                captured[i * np + k].store(fr.vals[s as usize], Ordering::Relaxed);
                            }
                        }
                        Err(_) => {
                            body_error.fetch_min(i, Ordering::Relaxed);
                        }
                    }
                })
            },
        );
        if let Some(reason) = out.abort {
            return Attempt::Aborted {
                reason,
                in_place: false,
            };
        }
        // errors below the exit (or at its head test) are real; the
        // sequential re-run reports the first of them
        let trip = out.last_valid.unwrap_or(max_iters);
        if body_error.into_inner() < trip || out.last_valid == Some(head_error.into_inner()) {
            return Attempt::Aborted {
                reason: AbortReason::Exception,
                in_place: false,
            };
        }
        for (a, arr) in spec.iter().enumerate() {
            if self.written[a] && !b.views[a].missing {
                for (x, v) in b.views[a].data.iter().zip(arr.snapshot()) {
                    x.store(v, Ordering::Relaxed);
                }
            }
        }
        let last: Vec<i64> = match trip.checked_sub(1) {
            Some(l) => (0..np)
                .map(|k| captured[l * np + k].load(Ordering::Relaxed))
                .collect(),
            None => Vec::new(),
        };
        let vals = start.finish(trip, &self.privates, &last, &mut b.bound);
        self.store_scalars(scalars, &vals, &b.bound);
        Attempt::Committed(ExecOutcome {
            iterations: trip,
            exited_at: out.last_valid,
            ran_parallel: true,
            abort: None,
        })
    }

    /// The plan a run without a certificate uses: every array under the
    /// PD test — two-pass when the head tests see only the inputs
    /// (`heads_see_inputs`, by [`crate::heads_see_inputs`]) and no
    /// subscript reads a counter after its update, full speculation
    /// otherwise.
    fn uncertified_plan(&self, heads_see_inputs: bool) -> ExecPlan {
        if !self.is_parallel() {
            ExecPlan::Sequential
        } else if heads_see_inputs && self.subscripts_precede_updates() {
            ExecPlan::TwoPass {
                marked: vec![true; self.arrays.len()],
            }
        } else {
            ExecPlan::Speculate
        }
    }
}

/// Interprets the loop sequentially against `machine` (which is updated in
/// place). `max_iters` bounds runaway loops.
pub fn run_sequential(
    p: &Program,
    machine: &mut Machine,
    max_iters: usize,
) -> Result<ExecOutcome, ExecError> {
    compile(p).run_sequential(machine, max_iters)
}

/// Runs the loop in parallel without a certificate: every array goes
/// under the PD test, and anything the parallel attempt cannot vouch for
/// re-runs sequentially — either way, the final machine equals the
/// sequential semantics.
pub fn run_parallel(
    p: &Program,
    machine: &mut Machine,
    pool: &Pool,
    max_iters: usize,
) -> Result<ExecOutcome, ExecError> {
    let compiled = compile(p);
    let invariant = lower(p).is_ok_and(|ir| heads_see_inputs(&ir.remainder_view()));
    let plan = compiled.uncertified_plan(invariant);
    // a two-pass attempt writes in place: keep what it may overwrite
    let saved: Vec<(String, Vec<i64>)> = match plan {
        ExecPlan::TwoPass { .. } => compiled
            .arrays
            .iter()
            .zip(&compiled.written)
            .filter(|(_, &w)| w)
            .filter_map(|(n, _)| Some((n.clone(), machine.arrays.get(n)?.clone())))
            .collect(),
        _ => Vec::new(),
    };
    let restore = |m: &mut Machine| {
        for (name, data) in &saved {
            m.arrays.insert(name.clone(), data.clone());
        }
    };
    compiled.run(&plan, machine, pool, max_iters, &restore)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontend::parse_program;

    fn pool() -> Pool {
        Pool::new(4)
    }

    fn machine_with(arrays: &[(&str, Vec<i64>)]) -> Machine {
        let mut m = Machine::default();
        for (n, v) in arrays {
            m.arrays.insert(n.to_string(), v.clone());
        }
        m
    }

    const DOUBLING: &str = "integer i = 0\n\
                            while (i < 50) {\n\
                                A[i] = 2 * A[i]\n\
                                i = i + 1\n\
                            }";

    #[test]
    fn sequential_interpretation_runs_the_loop() {
        let p = parse_program(DOUBLING).unwrap();
        let mut m = machine_with(&[("A", (0..100).collect())]);
        let out = run_sequential(&p, &mut m, 1000).unwrap();
        assert_eq!(out.iterations, 50);
        assert_eq!(out.exited_at, Some(50));
        assert_eq!(m.arrays["A"][10], 20);
        assert_eq!(m.arrays["A"][60], 60, "untouched past the bound");
        assert_eq!(m.scalars["i"], 50);
    }

    #[test]
    fn parallel_interpretation_matches_sequential() {
        let p = parse_program(DOUBLING).unwrap();
        let mut seq = machine_with(&[("A", (0..100).collect())]);
        run_sequential(&p, &mut seq, 1000).unwrap();
        let mut par = machine_with(&[("A", (0..100).collect())]);
        let out = run_parallel(&p, &mut par, &pool(), 1000).unwrap();
        assert!(
            out.ran_parallel,
            "an independent DO loop must commit in parallel"
        );
        assert_eq!(par.arrays, seq.arrays);
        assert_eq!(par.scalars["i"], seq.scalars["i"]);
    }

    #[test]
    fn indirect_subscripts_speculate_and_match() {
        let src = "integer i = 0\n\
                   while (i < 64) {\n\
                       A[idx[i]] = A[idx[i]] + 100\n\
                       i = i + 1\n\
                   }";
        let p = parse_program(src).unwrap();
        let idx: Vec<i64> = (0..64).map(|i| (i * 29) % 64).collect(); // permutation
        let build = || machine_with(&[("A", (0..64).collect()), ("idx", idx.clone())]);
        let mut seq = build();
        run_sequential(&p, &mut seq, 1000).unwrap();
        let mut par = build();
        let out = run_parallel(&p, &mut par, &pool(), 64).unwrap();
        assert!(
            out.ran_parallel,
            "a permutation subscript passes the PD test"
        );
        assert_eq!(par.arrays["A"], seq.arrays["A"]);
    }

    #[test]
    fn colliding_subscripts_fall_back_and_still_match() {
        let src = "integer i = 0\n\
                   while (i < 32) {\n\
                       A[idx[i]] = A[idx[i]] + 1\n\
                       i = i + 1\n\
                   }";
        let p = parse_program(src).unwrap();
        let idx = vec![0i64; 32]; // every iteration hits A[0]
        let build = || machine_with(&[("A", vec![0; 4]), ("idx", idx.clone())]);
        let mut seq = build();
        run_sequential(&p, &mut seq, 1000).unwrap();
        let mut par = build();
        let out = run_parallel(&p, &mut par, &pool(), 32).unwrap();
        assert!(!out.ran_parallel, "a shared cell must fail the PD test");
        assert_eq!(out.abort, Some(AbortReason::Dependence));
        assert_eq!(par.arrays["A"], seq.arrays["A"]);
        assert_eq!(par.arrays["A"][0], 32);
    }

    #[test]
    fn exit_if_is_honoured_in_both_modes() {
        let src = "integer i = 0\n\
                   while (i < 1000) {\n\
                       exit if (stop[i] == 1)\n\
                       A[i] = 7\n\
                       i = i + 1\n\
                   }";
        let p = parse_program(src).unwrap();
        let mut stop = vec![0i64; 1000];
        stop[123] = 1;
        let build = || machine_with(&[("A", vec![0; 1000]), ("stop", stop.clone())]);
        let mut seq = build();
        let so = run_sequential(&p, &mut seq, 2000).unwrap();
        assert_eq!(so.exited_at, Some(123));
        let mut par = build();
        let po = run_parallel(&p, &mut par, &pool(), 2000).unwrap();
        assert_eq!(po.exited_at, Some(123));
        assert_eq!(par.arrays["A"], seq.arrays["A"]);
        assert_eq!(seq.arrays["A"].iter().filter(|&&v| v == 7).count(), 123);
    }

    #[test]
    fn host_functions_are_callable() {
        let src = "integer i = 0\n\
                   while (i < 10) {\n\
                       A[i] = square(i) + 1\n\
                       i = i + 1\n\
                   }";
        let p = parse_program(src).unwrap();
        let mut m = machine_with(&[("A", vec![0; 10])]);
        m.define_fn("square", |args| args[0] * args[0]);
        run_sequential(&p, &mut m, 100).unwrap();
        assert_eq!(m.arrays["A"][3], 10);
    }

    #[test]
    fn pointer_loops_fall_back_to_sequential() {
        // p = step(p) is neither a counter nor private: no parallel form,
        // so the run is sequential and no attempt is reported
        let src = "integer p = 0\n\
                   while (p != -1) {\n\
                       A[p] = A[p] + 1\n\
                       p = step(p)\n\
                   }";
        let prog = parse_program(src).unwrap();
        let mut m = machine_with(&[("A", vec![0; 8])]);
        m.define_fn("step", |args| if args[0] >= 7 { -1 } else { args[0] + 1 });
        let out = run_parallel(&prog, &mut m, &pool(), 100).unwrap();
        assert!(!out.ran_parallel);
        assert_eq!(out.abort, None, "nothing was attempted");
        assert!(m.arrays["A"].iter().all(|&v| v == 1));
    }

    #[test]
    fn out_of_bounds_is_reported() {
        let src = "integer i = 0\nwhile (i < 10) { A[i] = 1; i = i + 1 }";
        let p = parse_program(src).unwrap();
        let mut m = machine_with(&[("A", vec![0; 3])]);
        let e = run_sequential(&p, &mut m, 100).unwrap_err();
        assert!(e.msg.contains("out of bounds"), "{e}");
    }

    #[test]
    fn runaway_loops_hit_the_bound() {
        let src = "while (1 == 1) { A[0] = A[0] + 1 }";
        let p = parse_program(src).unwrap();
        let mut m = machine_with(&[("A", vec![0; 1])]);
        let out = run_sequential(&p, &mut m, 50).unwrap();
        assert_eq!(out.exited_at, None);
        assert_eq!(m.arrays["A"][0], 50);
    }

    /// Every parallel plan against the sequential run, on one input.
    fn assert_plans_match(src: &str, m: &Machine, max_iters: usize) {
        let c = compile(&parse_program(src).unwrap());
        let mut seq = m.clone();
        let want = c.run_sequential(&mut seq, max_iters);
        let n = c.arrays.len();
        let plans = [
            ExecPlan::TwoPass {
                marked: vec![false; n],
            },
            ExecPlan::TwoPass {
                marked: vec![true; n],
            },
            ExecPlan::Speculate,
        ];
        for plan in plans {
            let mut par = m.clone();
            let inputs = m.arrays.clone();
            let got = c.run(&plan, &mut par, &pool(), max_iters, &|m| {
                m.arrays.clone_from(&inputs)
            });
            assert_eq!(
                got.map(|o| (o.iterations, o.exited_at)),
                want.clone().map(|o| (o.iterations, o.exited_at)),
                "{plan:?}\n{src}"
            );
            assert_eq!(par.arrays, seq.arrays, "{plan:?}\n{src}");
            assert_eq!(par.scalars, seq.scalars, "{plan:?}\n{src}");
        }
    }

    #[test]
    fn closed_form_trip_counts_match_the_head_tests() {
        let m = machine_with(&[("A", vec![0; 64])]);
        for head in [
            "i < 40",
            "i <= 40",
            "40 > i",
            "i >= -3",
            "i != 39",
            "i == 2",
            "2 * i + 1 < 30",
            "i < 1000",
        ] {
            for (init, step) in [(0, 1), (2, 3), (50, -1)] {
                let src = format!(
                    "integer i = {init}\nwhile ({head}) {{\n    A[i - {init} + 8] = i\n    i = i + {step}\n}}"
                );
                assert_plans_match(&src, &m, 48);
            }
        }
        // an unbounded run: the closed form must not overflow
        let src = "integer i = 0\nwhile (i < 40) {\n    A[i] = i\n    i = i + 1\n}";
        assert_plans_match(src, &m, usize::MAX);
        // a counter next to i64::MAX: the closed form declines, pass 1 runs
        let src =
            "integer i = 9223372036854775800\nwhile (i > 0) {\n    A[0] = i\n    i = i + 3\n}";
        assert_plans_match(src, &m, 16);
    }

    #[test]
    fn private_scalars_and_counters_leave_their_sequential_values() {
        let src =
            "integer i = 0\nwhile (i < n) {\n    exit if (stop[i] == 1)\n    t = A[i] * 2\n    \
                   s = s + 5\n    A[i] = t + s\n    i = i + 1\n}";
        let mut stop = vec![0; 100];
        stop[70] = 1;
        let mut m = machine_with(&[("A", (0..100).collect()), ("stop", stop)]);
        m.scalars.insert("n".into(), 100);
        m.scalars.insert("s".into(), 7);
        assert_plans_match(src, &m, 200);
        // no iteration runs: the private stays unbound
        m.scalars.insert("n".into(), 0);
        assert_plans_match(src, &m, 200);
    }

    #[test]
    fn faults_in_parallel_plans_report_the_sequential_error() {
        // iterations 30.. run out of bounds, and 17 divides by zero
        let src = "integer i = 0\nwhile (i < 40) {\n    A[i] = 10 / (i - 17)\n    i = i + 1\n}";
        assert_plans_match(src, &machine_with(&[("A", vec![0; 30])]), 100);
        let src = "integer i = 0\nwhile (i < 40) {\n    A[i] = B[i]\n    i = i + 1\n}";
        assert_plans_match(src, &machine_with(&[("A", vec![0; 40])]), 100);
    }
}
