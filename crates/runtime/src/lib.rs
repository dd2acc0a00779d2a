//! Threaded parallel substrate for WHILE-loop parallelization.
//!
//! The paper targets an Alliant FX/80: an 8-processor machine whose compiler
//! and hardware provide DOALL loops with *virtual processor numbers* (vpn),
//! in-order iteration issue, and a `QUIT` operation that prevents iterations
//! with larger loop counters from starting once some iteration requests
//! termination. None of those primitives exist in off-the-shelf Rust task
//! libraries (rayon has no vpn, no QUIT, no ordered issue, no sliding-window
//! scheduling), so this crate builds them from scratch on `std::thread`,
//! `crossbeam` utilities and `parking_lot` locks:
//!
//! * [`Pool`] — a fixed-width worker group exposing vpn to each worker.
//! * [`doall`] — dynamic self-scheduled (ordered-issue, optionally
//!   chunked), static-cyclic and work-stealing DOALL loops with a software
//!   `QUIT` protocol, all on one region harness.
//! * [`scan`] — parallel prefix computations (the Section 3.2 method for
//!   associative dispatchers), including affine linear recurrences.
//! * [`reduce`] — parallel folds/reductions (used by the post-execution
//!   minimum of Induction-1 and by the PD test's analysis phase).
//! * [`window`] — the resource-controlled self-scheduler of Section 8.2: a
//!   sliding iteration window bounding the span of in-flight iterations.
//! * [`strip`] — strip-mined execution with inter-strip barriers
//!   (Sections 4 and 8.1).
//! * [`doacross`](mod@doacross) — pipelined execution of loops with cross-iteration
//!   dependences (the Section 6 schedule for sequential distributed
//!   loops, and the Wu & Lewis pipelining baseline).
//! * [`barrier`] — a reusable centralized barrier.
//! * [`scheduler`] — the multi-region layer: fixed-width resident worker
//!   lanes multiplexing many concurrent loop regions onto one shared
//!   worker budget, with FIFO queuing and queue-pressure reporting for
//!   admission control (the substrate of the `wlp-serve` daemon).
//!
//! Fault containment (the paper's Section 5 exception rule): every
//! construct catches body panics at iteration boundaries, broadcasts a
//! [`CancelFlag`] so in-flight peers drain, and reports the first panic
//! through its outcome (`DoallOutcome::panic`, `DoacrossOutcome::panic`)
//! instead of aborting the process — the strategies above restore their
//! checkpoint and re-execute sequentially.
//!
//! Every construct takes its loop body, and where it records, a
//! [`wlp_obs::Recorder`] (`&NoopRecorder` compiles the probes away), as
//! ordinary parameters: there is one entry point per construct.
//!
//! Robustness governance: [`pool::Deadline`] arms a per-region watchdog
//! (timeouts surface as [`pool::WorkerTimeout`] instead of hangs), and
//! [`governor`] turns the stream of per-attempt outcomes into strategy
//! demotions and backoff-gated re-promotions.

pub mod barrier;
pub mod chunk;
pub mod deque;
pub mod doacross;
pub mod doall;
pub mod governor;
pub mod pool;
pub mod reduce;
pub mod scan;
pub mod scheduler;
pub mod strip;
pub mod window;

pub use barrier::CentralBarrier;
pub use chunk::ChunkPolicy;
pub use deque::{Steal, StealDeque};
pub use doacross::{doacross, DoacrossOutcome};
pub use doall::{doall_dynamic, doall_static_cyclic, doall_worksteal, DoallOutcome, Step};
pub use governor::{FailureCounts, Governor, GovernorPolicy, Transition};
pub use pool::{
    payload_message, CancelFlag, Deadline, Pool, PoolOutcome, WorkerPanic, WorkerTimeout,
};
pub use reduce::{parallel_fold, parallel_min, parallel_min_index};
pub use scan::{geometric_recurrence_terms, linear_recurrence_terms, parallel_scan_inclusive};
pub use scheduler::{Lane, RegionScheduler, SchedulerConfig};
pub use strip::{strip_mined, StripOutcome};
pub use window::{doall_windowed, WindowController, WindowScheduler};
/// The recorder to pass a construct when nothing is traced: its probes
/// compile away.
pub use wlp_obs::NoopRecorder;
