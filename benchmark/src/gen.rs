//! Seeded workload generator.
//!
//! Everything the service receives is produced here from the run's seed:
//! the program variants (template plus a seeded constant), the input
//! arrays (including permutation or colliding `idx` arrays), the Zipf
//! popularity draws and the request order. The same seed gives a
//! byte-identical request stream; the service sees only the lines.

use crate::oracle::{self, Expected};
use serde::json;

/// SplitMix64: a small, seedable generator whose output is identical on
/// every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// An independent generator for sub-stream `stream`.
    pub fn fork(&mut self, stream: u64) -> Rng {
        Rng(self.next_u64() ^ stream.wrapping_mul(0xd6e8_feb8_6659_fd93))
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// Zipf(`s`) over `0..n`: rank `r` is drawn with weight `1 / (r + 1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|r| {
                acc += 1.0 / ((r + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// The seven corpus templates of `wlp_workloads::sources`, each with one
/// constant a variant may change without changing the loop's shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Template {
    Swap,
    GatherScatter,
    CountedFill,
    GuardedUpdate,
    PartialSums,
    Wavefront,
    McsparsePair,
}

impl Template {
    pub const ALL: [Template; 7] = [
        Template::Swap,
        Template::GatherScatter,
        Template::CountedFill,
        Template::GuardedUpdate,
        Template::PartialSums,
        Template::Wavefront,
        Template::McsparsePair,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Template::Swap => "swap",
            Template::GatherScatter => "gather_scatter",
            Template::CountedFill => "counted_fill",
            Template::GuardedUpdate => "guarded_update",
            Template::PartialSums => "partial_sums",
            Template::Wavefront => "wavefront",
            Template::McsparsePair => "mcsparse_pair",
        }
    }

    pub fn from_name(name: &str) -> Option<Template> {
        Template::ALL.into_iter().find(|t| t.name() == name)
    }

    /// The constant that reproduces the corpus source exactly.
    pub fn canonical_constant(self) -> i64 {
        match self {
            Template::GatherScatter | Template::McsparsePair => 2,
            Template::CountedFill | Template::Wavefront => 3,
            Template::Swap | Template::GuardedUpdate | Template::PartialSums => 0,
        }
    }

    /// The template's WHILE source with variant constant `k`.
    pub fn source(self, k: i64) -> String {
        // templates whose corpus form has no constant gain a `+ k` term
        let plus = |k: i64| {
            if k == 0 {
                String::new()
            } else {
                format!(" + {k}")
            }
        };
        match self {
            Template::Swap => format!(
                "integer i = 1\ninteger tmp = {k}\nwhile (i < n) {{\ntmp = A[2 * i]\nA[2 * i] = A[2 * i - 1]\nA[2 * i - 1] = tmp\ni = i + 1\n}}"
            ),
            Template::GatherScatter => format!(
                "integer i = 0\nwhile (i < n) {{\nB[i] = {k} * w[i]\nA[idx[i]] = A[idx[i]] + B[i]\ni = i + 1\n}}"
            ),
            Template::CountedFill => format!(
                "integer i = 0\ninteger s = 0\nwhile (i < n) {{\ns = s + {k}\nA[i] = w[i]\ni = i + 1\n}}"
            ),
            Template::GuardedUpdate => format!(
                "integer i = 0\nwhile (i < n) {{\nA[i] = g(A[i]){}\nexit if (A[i] > limit)\ni = i + 1\n}}",
                plus(k)
            ),
            Template::PartialSums => format!(
                "integer i = 1\nwhile (i < n) {{\nA[i] = A[i] + A[i - 1]{}\ni = i + 1\n}}",
                plus(k)
            ),
            Template::Wavefront => format!(
                "integer i = 1\nwhile (i < n) {{\nB[i] = B[i - 1] + w[i]\nC[i] = B[i - 1] + {k}\ni = i + 1\n}}"
            ),
            Template::McsparsePair => format!(
                "integer i = 1\nwhile (i < n) {{\nA[i] = A[i - 1] + w[i]\nB[i] = B[i - 1] * {k}\nC[i] = A[i - 1] + w[i]\ni = i + 1\n}}"
            ),
        }
    }
}

/// How a gather/scatter request's `idx` array is drawn.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Idx {
    /// A seeded permutation: conflict-free, the PD test passes.
    Permutation,
    /// Seeded draws from `0..n/8`: the PD test fails, the speculative
    /// attempt is undone and the loop re-runs sequentially.
    Colliding,
}

/// One distinct `run` request and the response the oracle expects.
#[derive(Debug, Clone)]
pub struct Case {
    pub template: Template,
    pub constant: i64,
    pub n: usize,
    pub source: String,
    pub arrays: Vec<(String, Vec<i64>)>,
    pub scalars: Vec<(String, i64)>,
    pub max_iters: usize,
    /// The NDJSON request line the service receives.
    pub line: String,
    pub expect: Expected,
}

impl Case {
    fn new(
        template: Template,
        constant: i64,
        tenant: &str,
        n: usize,
        idx: Idx,
        rng: &mut Rng,
    ) -> Case {
        let (arrays, scalars) = inputs(template, n, idx, rng);
        let source = template.source(constant);
        let max_iters = 2 * n + 4;
        let expect = oracle::expected(template, constant, &arrays, &scalars);
        let line = request_line(template, tenant, &source, &arrays, &scalars, max_iters);
        Case {
            template,
            constant,
            n,
            source,
            arrays,
            scalars,
            max_iters,
            line,
            expect,
        }
    }
}

fn values(rng: &mut Rng, len: usize, below: u64) -> Vec<i64> {
    (0..len).map(|_| rng.below(below) as i64).collect()
}

/// Named input arrays and named scalars of one request.
type MachineInputs = (Vec<(String, Vec<i64>)>, Vec<(String, i64)>);

/// Seeded machine inputs for `template` at problem size `n`.
fn inputs(template: Template, n: usize, idx: Idx, rng: &mut Rng) -> MachineInputs {
    let ni = n as i64;
    let arrays: Vec<(&str, Vec<i64>)> = match template {
        Template::Swap => vec![("A", values(rng, 2 * n + 1, 1000))],
        Template::GatherScatter => {
            let idx = match idx {
                Idx::Permutation => {
                    let mut p: Vec<i64> = (0..ni).collect();
                    rng.shuffle(&mut p);
                    p
                }
                Idx::Colliding => values(rng, n, (n as u64 / 8).max(1)),
            };
            vec![
                ("A", values(rng, n, 1000)),
                ("B", vec![0; n]),
                ("w", values(rng, n, 100)),
                ("idx", idx),
            ]
        }
        Template::CountedFill => vec![("A", vec![0; n]), ("w", values(rng, n, 1000))],
        Template::GuardedUpdate => {
            // the exit fires at a seeded iteration in the last quarter, so
            // a parallel run overshoots and undoes the iterations past it
            let mut a = values(rng, n, 500);
            let at = n - 1 - rng.below((n as u64 / 4).max(1)) as usize;
            a[at] = 2000;
            vec![("A", a)]
        }
        Template::PartialSums => vec![("A", values(rng, n, 100))],
        Template::Wavefront => vec![
            ("B", vec![0; n]),
            ("C", vec![0; n]),
            ("w", values(rng, n, 100)),
        ],
        Template::McsparsePair => vec![
            ("A", vec![0; n]),
            ("B", vec![1; n]),
            ("C", vec![0; n]),
            ("w", values(rng, n, 100)),
        ],
    };
    let mut scalars = vec![("n".to_string(), ni)];
    if template == Template::GuardedUpdate {
        scalars.push(("limit".to_string(), 1000));
    }
    (
        arrays
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
        scalars,
    )
}

fn request_line(
    template: Template,
    tenant: &str,
    source: &str,
    arrays: &[(String, Vec<i64>)],
    scalars: &[(String, i64)],
    max_iters: usize,
) -> String {
    let arrays_json: Vec<String> = arrays
        .iter()
        .map(|(k, v)| {
            let items: Vec<String> = v.iter().map(i64::to_string).collect();
            format!("{}:[{}]", json::to_string(k), items.join(","))
        })
        .collect();
    let scalars_json: Vec<String> = scalars
        .iter()
        .map(|(k, v)| format!("{}:{v}", json::to_string(k)))
        .collect();
    format!(
        r#"{{"op":"run","id":{},"tenant":{},"program":{},"arrays":{{{}}},"scalars":{{{}}},"max_iters":{},"reply":"digest"}}"#,
        json::to_string(template.name()),
        json::to_string(tenant),
        json::to_string(source),
        arrays_json.join(","),
        scalars_json.join(","),
        max_iters,
    )
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    DoallHot,
    RecurrenceMixed,
    SmallChurn,
    PaperKernels,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::DoallHot,
        Workload::RecurrenceMixed,
        Workload::SmallChurn,
        Workload::PaperKernels,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::DoallHot => "doall-hot",
            Workload::RecurrenceMixed => "recurrence-mixed",
            Workload::SmallChurn => "small-churn",
            Workload::PaperKernels => "paper-kernels",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Problem size of the two closed-loop service workloads.
pub const HOT_N: usize = 4096;
/// Input variants generated per template on the closed-loop workloads
/// (same program, different arrays: every lookup after warm-up hits).
pub const HOT_INPUTS: usize = 4;
/// Problem size of `small-churn`.
pub const CHURN_N: usize = 64;
/// Distinct program variants `small-churn` draws from (4× the cache).
pub const CHURN_VARIANTS: usize = 512;
/// Zipf exponent of `small-churn` popularity.
pub const CHURN_ZIPF_S: f64 = 1.0;
/// Offered load of `small-churn`, requests per second.
pub const CHURN_RATE: f64 = 1000.0;
/// Sender threads of `small-churn`.
pub const CHURN_SENDERS: usize = 2;
/// Length of the closed-loop request order before it repeats.
const ORDER_LEN: usize = 4096;

/// How requests arrive.
#[derive(Debug, Clone)]
pub enum Arrival {
    /// One client sends the next request when the previous one answered.
    Closed,
    /// Requests are due at a fixed rate regardless of completions,
    /// request `j` going to sender `j % senders`.
    Open { rate: f64, senders: usize },
}

/// A generated service workload: the distinct requests, the order they
/// are sent in, and how they arrive.
#[derive(Debug, Clone)]
pub struct ServiceLoad {
    pub cases: Vec<Case>,
    /// Case index of request `j` is `order[j % order.len()]`.
    pub order: Vec<usize>,
    /// Requests per round: every `round` consecutive requests from a
    /// multiple of it carry the workload's exact template mix.
    pub round: usize,
    pub arrival: Arrival,
}

impl ServiceLoad {
    /// Generates `workload` (a service workload) from `seed`.
    ///
    /// # Panics
    /// On [`Workload::PaperKernels`], which sends no requests.
    pub fn generate(workload: Workload, seed: u64) -> ServiceLoad {
        let mut rng = Rng::new(seed);
        let mut cases = Vec::new();
        // closed loops: HOT_INPUTS cases per template, sent in balanced
        // rounds where template `t` fills `weight` slots
        let closed = |templates: &[(Template, Idx, usize)],
                      tenant: &dyn Fn(Template) -> String,
                      rng: &mut Rng,
                      cases: &mut Vec<Case>| {
            let mut groups = Vec::new();
            for &(t, idx, weight) in templates {
                let first = cases.len();
                for _ in 0..HOT_INPUTS {
                    let mut r = rng.fork(cases.len() as u64);
                    cases.push(Case::new(
                        t,
                        t.canonical_constant(),
                        &tenant(t),
                        HOT_N,
                        idx,
                        &mut r,
                    ));
                }
                groups.push(((first..cases.len()).collect::<Vec<_>>(), weight));
            }
            let round = groups.iter().map(|(_, weight)| weight).sum::<usize>();
            (balanced_order(rng, &groups), round)
        };
        let (order, round, arrival) = match workload {
            Workload::DoallHot => {
                let templates = [
                    (Template::Swap, Idx::Permutation, 1),
                    (Template::GatherScatter, Idx::Permutation, 2),
                    (Template::CountedFill, Idx::Permutation, 1),
                    (Template::GuardedUpdate, Idx::Permutation, 1),
                ];
                let (order, round) = closed(
                    &templates,
                    &|t| format!("hot-{}", t.name()),
                    &mut rng,
                    &mut cases,
                );
                (order, round, Arrival::Closed)
            }
            Workload::RecurrenceMixed => {
                let templates = [
                    (Template::PartialSums, Idx::Permutation, 1),
                    (Template::Wavefront, Idx::Permutation, 1),
                    (Template::McsparsePair, Idx::Permutation, 1),
                    (Template::GatherScatter, Idx::Colliding, 1),
                    (Template::GuardedUpdate, Idx::Permutation, 1),
                ];
                let (order, round) =
                    closed(&templates, &|_| "shared".to_string(), &mut rng, &mut cases);
                (order, round, Arrival::Closed)
            }
            Workload::SmallChurn => {
                // per template, distinct seeded constants in 1..=1000
                let per = CHURN_VARIANTS.div_ceil(Template::ALL.len());
                let constants: Vec<Vec<i64>> = Template::ALL
                    .iter()
                    .map(|_| {
                        let mut ks: Vec<i64> = (1..=1000).collect();
                        rng.shuffle(&mut ks);
                        ks.truncate(per);
                        ks
                    })
                    .collect();
                for v in 0..CHURN_VARIANTS {
                    let ti = v % Template::ALL.len();
                    let t = Template::ALL[ti];
                    let k = constants[ti][v / Template::ALL.len()];
                    let mut r = rng.fork(v as u64);
                    let tenant = format!("churn-{}", t.name());
                    cases.push(Case::new(t, k, &tenant, CHURN_N, Idx::Permutation, &mut r));
                }
                // popularity rank -> variant, then Zipf draws over ranks
                let mut by_rank: Vec<usize> = (0..cases.len()).collect();
                rng.shuffle(&mut by_rank);
                let zipf = Zipf::new(cases.len(), CHURN_ZIPF_S);
                let order = (0..ORDER_LEN * 16)
                    .map(|_| by_rank[zipf.sample(&mut rng)])
                    .collect();
                (
                    order,
                    1,
                    Arrival::Open {
                        rate: CHURN_RATE,
                        senders: CHURN_SENDERS,
                    },
                )
            }
            Workload::PaperKernels => panic!("paper-kernels sends no service requests"),
        };
        ServiceLoad {
            cases,
            order,
            round,
            arrival,
        }
    }

    /// The case of request `j`.
    pub fn case_of(&self, j: usize) -> &Case {
        &self.cases[self.order[j % self.order.len()]]
    }

    /// The first `count` request lines, in send order.
    #[cfg(test)]
    pub fn stream(&self, count: usize) -> impl Iterator<Item = &str> {
        (0..count).map(|j| self.case_of(j).line.as_str())
    }
}

/// Whole rounds, each a seeded shuffle of every group's `weight` slots;
/// a group's slots cycle through its cases. The mix is exact in every
/// round. With five slots a round, the latency median sits at least a
/// tenth of the requests away from every boundary between two groups,
/// so a small shift in the mix cannot move it across a gap.
fn balanced_order(rng: &mut Rng, groups: &[(Vec<usize>, usize)]) -> Vec<usize> {
    let round: Vec<usize> = groups
        .iter()
        .enumerate()
        .flat_map(|(g, (_, weight))| std::iter::repeat_n(g, *weight))
        .collect();
    let mut next = vec![0usize; groups.len()];
    let mut order = Vec::with_capacity(ORDER_LEN);
    for _ in 0..ORDER_LEN / round.len() {
        let mut slots = round.clone();
        rng.shuffle(&mut slots);
        for g in slots {
            order.push(groups[g].0[next[g] % groups[g].0.len()]);
            next[g] += 1;
        }
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use wlp_serve::{ServeConfig, Service};

    fn stream_bytes(w: Workload, seed: u64) -> Vec<u8> {
        let load = ServiceLoad::generate(w, seed);
        let mut out = Vec::new();
        for line in load.stream(2 * load.order.len()) {
            out.extend_from_slice(line.as_bytes());
            out.push(b'\n');
        }
        out
    }

    #[test]
    fn same_seed_gives_a_byte_identical_stream() {
        for w in [
            Workload::DoallHot,
            Workload::RecurrenceMixed,
            Workload::SmallChurn,
        ] {
            assert_eq!(stream_bytes(w, 7), stream_bytes(w, 7), "{}", w.name());
        }
    }

    #[test]
    fn different_seeds_give_different_streams() {
        for w in [
            Workload::DoallHot,
            Workload::RecurrenceMixed,
            Workload::SmallChurn,
        ] {
            assert_ne!(stream_bytes(w, 7), stream_bytes(w, 8), "{}", w.name());
        }
    }

    #[test]
    fn canonical_constants_reproduce_the_corpus() {
        for (name, src) in wlp_workloads::sources::corpus() {
            let t = Template::from_name(name).expect("every corpus program is a template");
            assert_eq!(t.source(t.canonical_constant()), src, "{name}");
        }
    }

    #[test]
    fn small_churn_has_distinct_programs_over_every_template() {
        let load = ServiceLoad::generate(Workload::SmallChurn, 3);
        let mut sources: Vec<&str> = load.cases.iter().map(|c| c.source.as_str()).collect();
        sources.sort_unstable();
        sources.dedup();
        assert_eq!(sources.len(), CHURN_VARIANTS);
        for t in Template::ALL {
            assert!(load.cases.iter().any(|c| c.template == t), "{}", t.name());
        }
    }

    #[test]
    fn every_variant_keeps_its_template_verdict() {
        for w in [
            Workload::DoallHot,
            Workload::RecurrenceMixed,
            Workload::SmallChurn,
        ] {
            let load = ServiceLoad::generate(w, 11);
            let svc = Service::new(ServeConfig {
                workers: 2,
                lane_width: 2,
                ..ServeConfig::default()
            });
            let verdicts = crate::drive::canonical_verdicts();
            for case in &load.cases {
                let reply = crate::drive::check_reply(&svc.handle_line(&case.line), case);
                let verdict = reply.expect("warm-up reply is correct").verdict;
                assert_eq!(
                    verdict,
                    verdicts[&case.template],
                    "{} variant k={} changed its verdict",
                    case.template.name(),
                    case.constant
                );
            }
        }
    }
}
