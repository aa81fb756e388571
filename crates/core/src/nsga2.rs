//! Multi-objective flow-parameter exploration with NSGA-II (§III-D).
//!
//! The Table-I parameter space is encoded as a 13-gene chromosome
//! (`op_select`, `LDA::N`, `LDA::n_iter`, ten `RWS::scale_M[i]` genes).
//! Fitness follows the paper: solutions must first satisfy the hard DRC and
//! power constraints of §II-C (constrained domination à la Deb), then
//! better `(Security, −TNS)` prevails under Pareto domination with
//! crowding-distance diversity. Evaluations are cached per chromosome and
//! run in parallel across worker threads, mirroring the paper's
//! process-level parallelism.
//!
//! The loop is the [`Exploration`] state machine, advanced one generation
//! per [`Exploration::step`]; its state between generations is exactly a
//! [`Checkpoint`], which is how the `ggd serve` explore step pauses,
//! persists and resumes a run.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tech::{RouteRule, Technology, NUM_METAL_LAYERS};

use crate::checkpoint::{fingerprint, hex64, Checkpoint};
use crate::error::Error;
use crate::flow::{FlowConfig, FlowMetrics, OpSelect};
use crate::lda::LdaParams;
use crate::pipeline::{EvalEngine, Snapshot};
use crate::sandbox::{evaluate_candidate, EvalStatus, SandboxPolicy};

/// Chromosome over the Table-I space, stored as candidate indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Genome {
    /// 0 = Cell Shift, 1 = LDA.
    pub op: u8,
    /// Index into [`LdaParams::N_CANDIDATES`].
    pub n_idx: u8,
    /// Index into [`LdaParams::ITER_CANDIDATES`].
    pub iter_idx: u8,
    /// Index into [`RouteRule::CANDIDATES`] per metal layer.
    pub scale_idx: [u8; NUM_METAL_LAYERS],
}

impl Genome {
    /// Decodes the chromosome into a flow configuration.
    pub fn to_config(self) -> FlowConfig {
        let op = if self.op == 0 {
            OpSelect::CellShift
        } else {
            OpSelect::Lda {
                n: LdaParams::N_CANDIDATES[self.n_idx as usize],
                n_iter: LdaParams::ITER_CANDIDATES[self.iter_idx as usize],
            }
        };
        let mut scales = [1.0; NUM_METAL_LAYERS];
        for (i, s) in scales.iter_mut().enumerate() {
            *s = RouteRule::CANDIDATES[self.scale_idx[i] as usize];
        }
        FlowConfig { op, scales }
    }

    /// Uniformly random chromosome.
    pub fn random(rng: &mut StdRng) -> Self {
        let mut scale_idx = [0u8; NUM_METAL_LAYERS];
        for s in &mut scale_idx {
            *s = rng.gen_range(0..RouteRule::CANDIDATES.len() as u8);
        }
        Self {
            op: rng.gen_range(0..2),
            n_idx: rng.gen_range(0..LdaParams::N_CANDIDATES.len() as u8),
            iter_idx: rng.gen_range(0..LdaParams::ITER_CANDIDATES.len() as u8),
            scale_idx,
        }
    }

    /// Uniform crossover.
    pub fn crossover(a: &Genome, b: &Genome, rng: &mut StdRng) -> Genome {
        let pick = |rng: &mut StdRng, x: u8, y: u8| if rng.gen_bool(0.5) { x } else { y };
        let mut scale_idx = [0u8; NUM_METAL_LAYERS];
        for (i, s) in scale_idx.iter_mut().enumerate() {
            *s = pick(rng, a.scale_idx[i], b.scale_idx[i]);
        }
        Genome {
            op: pick(rng, a.op, b.op),
            n_idx: pick(rng, a.n_idx, b.n_idx),
            iter_idx: pick(rng, a.iter_idx, b.iter_idx),
            scale_idx,
        }
    }

    /// Per-gene categorical mutation with probability `p`.
    pub fn mutate(&mut self, rng: &mut StdRng, p: f64) {
        if rng.gen_bool(p) {
            self.op = rng.gen_range(0..2);
        }
        if rng.gen_bool(p) {
            self.n_idx = rng.gen_range(0..LdaParams::N_CANDIDATES.len() as u8);
        }
        if rng.gen_bool(p) {
            self.iter_idx = rng.gen_range(0..LdaParams::ITER_CANDIDATES.len() as u8);
        }
        for s in &mut self.scale_idx {
            if rng.gen_bool(p) {
                *s = rng.gen_range(0..RouteRule::CANDIDATES.len() as u8);
            }
        }
    }

    /// A deterministic seed for the flow's internal RNG, derived from the
    /// *operator* genes only. The seed feeds the ECO placement operator,
    /// which runs before width scaling — deriving it from the scale genes
    /// too would make a scale-only mutation re-roll the placement edit,
    /// entangling the two halves of the search space (and defeating the
    /// [`crate::pipeline::EvalEngine`] operator memoization).
    pub fn flow_seed(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        (self.op, self.n_idx, self.iter_idx).hash(&mut h);
        h.finish()
    }

    /// A total-order sort key over the full chromosome, used to
    /// deterministically order and deduplicate genome lists ([`flow_seed`]
    /// collides for genomes sharing operator genes, so it cannot serve).
    fn sort_key(&self) -> (u8, u8, u8, [u8; NUM_METAL_LAYERS]) {
        (self.op, self.n_idx, self.iter_idx, self.scale_idx)
    }
}

ggjson::json_struct!(Genome {
    op,
    n_idx,
    iter_idx,
    scale_idx
});

/// NSGA-II hyper-parameters.
///
/// Construct with [`Nsga2Params::builder`] — the builder is `const`, so
/// shared presets can live in `const` items without spelling out every
/// field (and without breaking when a field is added).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Nsga2Params {
    /// Population size.
    pub population: usize,
    /// Number of generations after the initial population.
    pub generations: usize,
    /// Crossover probability (else clone a parent).
    pub crossover_p: f64,
    /// Per-gene mutation probability.
    pub mutation_p: f64,
    /// RNG seed.
    pub seed: u64,
    /// Worker threads for parallel flow evaluation; 0 means "one per
    /// available hardware thread", resolved at [`explore`] time.
    pub threads: usize,
}

impl Nsga2Params {
    /// Starts a builder pre-loaded with the default parameters
    /// (population 16, 6 generations, crossover 0.9, mutation 0.15,
    /// seed `0x65A2`, auto thread count).
    pub const fn builder() -> Nsga2ParamsBuilder {
        Nsga2ParamsBuilder {
            params: Nsga2Params {
                population: 16,
                generations: 6,
                crossover_p: 0.9,
                mutation_p: 0.15,
                seed: 0x65A2,
                threads: 0,
            },
        }
    }

    /// The worker count [`explore`] will actually use: an explicit
    /// `threads`, or the machine's available parallelism when 0.
    pub fn resolved_threads(&self) -> usize {
        if self.threads == 0 {
            std::thread::available_parallelism().map_or(4, |n| n.get())
        } else {
            self.threads
        }
    }
}

/// The [`Nsga2Params::builder`] defaults, threads on auto: a checkpoint
/// written under them resumes on a host with any core count.
impl Default for Nsga2Params {
    fn default() -> Self {
        Nsga2Params::builder().build()
    }
}

/// `const`-friendly builder for [`Nsga2Params`].
///
/// ```
/// use gdsii_guard::Nsga2Params;
/// const PRESET: Nsga2Params = Nsga2Params::builder()
///     .population(24)
///     .generations(128)
///     .seed(0x6D51)
///     .build();
/// assert_eq!(PRESET.crossover_p, 0.9);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Nsga2ParamsBuilder {
    params: Nsga2Params,
}

impl Nsga2ParamsBuilder {
    /// Sets the population size.
    pub const fn population(mut self, population: usize) -> Self {
        self.params.population = population;
        self
    }

    /// Sets the number of generations after the initial population.
    pub const fn generations(mut self, generations: usize) -> Self {
        self.params.generations = generations;
        self
    }

    /// Sets the crossover probability.
    pub const fn crossover_p(mut self, p: f64) -> Self {
        self.params.crossover_p = p;
        self
    }

    /// Sets the per-gene mutation probability.
    pub const fn mutation_p(mut self, p: f64) -> Self {
        self.params.mutation_p = p;
        self
    }

    /// Sets the RNG seed.
    pub const fn seed(mut self, seed: u64) -> Self {
        self.params.seed = seed;
        self
    }

    /// Sets the evaluation worker count (0 = auto).
    pub const fn threads(mut self, threads: usize) -> Self {
        self.params.threads = threads;
        self
    }

    /// Finalizes the parameters.
    pub const fn build(self) -> Nsga2Params {
        self.params
    }
}

ggjson::json_struct!(Nsga2Params {
    population,
    generations,
    crossover_p,
    mutation_p,
    seed,
    threads
});

/// One evaluated design point.
#[derive(Debug, Clone)]
pub struct EvalPoint {
    /// The chromosome.
    pub genome: Genome,
    /// Decoded configuration.
    pub config: FlowConfig,
    /// Measured metrics.
    pub metrics: FlowMetrics,
    /// Generation at which the point was first evaluated (0 = initial).
    pub generation: usize,
}

ggjson::json_struct!(EvalPoint {
    genome,
    config,
    metrics,
    generation
});

/// One quarantined candidate: it failed both the incremental and the full
/// re-eval stage of the degrade chain and carries penalty metrics in the
/// archive (see [`crate::sandbox`]).
#[derive(Debug, Clone, PartialEq)]
pub struct QuarantineEntry {
    /// The offending chromosome.
    pub genome: Genome,
    /// The generation whose evaluation quarantined it.
    pub generation: usize,
    /// The rendered stage-0 (incremental) failure.
    pub incremental: String,
    /// The rendered stage-1 (full re-eval) failure.
    pub full: String,
}

ggjson::json_struct!(QuarantineEntry {
    genome,
    generation,
    incremental,
    full
});

/// Full exploration trace plus the data needed to judge feasibility.
#[derive(Debug, Clone)]
pub struct ExploreResult {
    /// Every unique evaluated point, in evaluation order.
    pub points: Vec<EvalPoint>,
    /// Baseline power, the reference for the power constraint.
    pub base_power_mw: f64,
    /// Baseline DRC count, the reference for the DRC constraint.
    pub base_drc: u32,
    /// Baseline TNS in ps, for plotting the trade-off origin.
    pub base_tns_ps: f64,
    /// Candidates that exhausted the degrade chain (empty on healthy runs;
    /// their penalty-metric points are infeasible and never reach the
    /// Pareto front).
    pub quarantined: Vec<QuarantineEntry>,
}

ggjson::json_struct!(ExploreResult {
    points,
    base_power_mw,
    base_drc,
    base_tns_ps,
    quarantined
});

impl ExploreResult {
    /// The feasible, non-dominated subset of all evaluated points
    /// (the explored Pareto front of Fig. 5).
    pub fn pareto_front(&self) -> Vec<&EvalPoint> {
        self.front_through(usize::MAX)
    }

    /// The Pareto front of the points first evaluated at or before
    /// `generation`: the front as the run stood after that generation.
    pub(crate) fn front_through(&self, generation: usize) -> Vec<&EvalPoint> {
        let feasible: Vec<&EvalPoint> = self
            .points
            .iter()
            .filter(|p| {
                p.generation <= generation && p.metrics.feasible(self.base_power_mw, self.base_drc)
            })
            .collect();
        feasible
            .iter()
            .filter(|a| {
                !feasible
                    .iter()
                    .any(|b| dominates(&b.metrics.objectives(), &a.metrics.objectives()))
            })
            .copied()
            .collect()
    }

    /// Dominated 2-D hypervolume of the explored Pareto front with
    /// respect to a reference point, on the minimization objectives
    /// `(Security, −TNS)`. Points not strictly better than the reference
    /// in both objectives contribute nothing; an empty front scores 0.
    /// Bigger is better — more of the trade-off plane is dominated.
    pub fn hypervolume(&self, reference: [f64; 2]) -> f64 {
        hypervolume_2d(
            self.pareto_front()
                .iter()
                .map(|p| p.metrics.objectives())
                .collect(),
            reference,
        )
    }
}

/// The 2-D sweep behind [`ExploreResult::hypervolume`]: sort the
/// (mutually non-dominated) points ascending in the first objective, then
/// stack one slab per point — width to the next point's first coordinate
/// (the reference for the last), height up to the reference.
fn hypervolume_2d(points: Vec<[f64; 2]>, r: [f64; 2]) -> f64 {
    let mut pts: Vec<[f64; 2]> = points
        .into_iter()
        .filter(|o| o[0] < r[0] && o[1] < r[1])
        .collect();
    pts.sort_by(|a, b| a[0].total_cmp(&b[0]).then(a[1].total_cmp(&b[1])));
    let mut hv = 0.0;
    for (i, p) in pts.iter().enumerate() {
        let next0 = pts.get(i + 1).map_or(r[0], |q| q[0]);
        hv += (r[1] - p[1]) * (next0 - p[0]);
    }
    hv
}

/// Plain Pareto domination on minimization objectives.
fn dominates(a: &[f64; 2], b: &[f64; 2]) -> bool {
    a[0] <= b[0] && a[1] <= b[1] && (a[0] < b[0] || a[1] < b[1])
}

/// Constrained domination (Deb): feasibility first, then violation, then
/// Pareto domination.
fn constrained_dominates(a: &FlowMetrics, b: &FlowMetrics, base_power: f64, base_drc: u32) -> bool {
    let (cva, cvb) = (
        a.constraint_violation(base_power, base_drc),
        b.constraint_violation(base_power, base_drc),
    );
    match (cva == 0.0, cvb == 0.0) {
        (true, false) => true,
        (false, true) => false,
        (false, false) => cva < cvb,
        (true, true) => dominates(&a.objectives(), &b.objectives()),
    }
}

/// Fast non-dominated sort; returns the front index of each individual.
fn non_dominated_sort(metrics: &[FlowMetrics], base_power: f64, base_drc: u32) -> Vec<usize> {
    let n = metrics.len();
    let mut dominated_by = vec![0usize; n];
    let mut dominates_list: Vec<Vec<usize>> = vec![Vec::new(); n];
    for i in 0..n {
        for j in 0..n {
            if i != j && constrained_dominates(&metrics[i], &metrics[j], base_power, base_drc) {
                dominates_list[i].push(j);
                dominated_by[j] += 1;
            }
        }
    }
    let mut rank = vec![usize::MAX; n];
    let mut current: Vec<usize> = (0..n).filter(|&i| dominated_by[i] == 0).collect();
    let mut r = 0;
    while !current.is_empty() {
        let mut next = Vec::new();
        for &i in &current {
            rank[i] = r;
            for &j in &dominates_list[i] {
                dominated_by[j] -= 1;
                if dominated_by[j] == 0 {
                    next.push(j);
                }
            }
        }
        current = next;
        r += 1;
    }
    rank
}

/// Crowding distance within one front (indices into `metrics`).
fn crowding_distance(front: &[usize], metrics: &[FlowMetrics]) -> HashMap<usize, f64> {
    let mut dist: HashMap<usize, f64> = front.iter().map(|&i| (i, 0.0)).collect();
    for obj in 0..2 {
        let mut sorted: Vec<usize> = front.to_vec();
        // total_cmp: objectives are finite by construction (quarantined
        // candidates get finite penalty values), but a total order costs
        // nothing and removes the panic edge entirely.
        sorted.sort_by(|&a, &b| {
            metrics[a].objectives()[obj].total_cmp(&metrics[b].objectives()[obj])
        });
        let lo = metrics[sorted[0]].objectives()[obj];
        let hi = metrics[*sorted.last().expect("front non-empty")].objectives()[obj];
        *dist.get_mut(&sorted[0]).expect("present") = f64::INFINITY;
        *dist
            .get_mut(sorted.last().expect("non-empty"))
            .expect("present") = f64::INFINITY;
        if hi - lo <= f64::EPSILON {
            continue;
        }
        for w in sorted.windows(3) {
            let d = (metrics[w[2]].objectives()[obj] - metrics[w[0]].objectives()[obj]) / (hi - lo);
            *dist.get_mut(&w[1]).expect("present") += d;
        }
    }
    dist
}

/// Distinct genomes sent to the sandboxed evaluator.
static EVALUATIONS: obs::Counter = obs::Counter::new("nsga2.evaluations");
/// Genomes answered from the run's own metrics cache.
static GENOME_CACHE_HITS: obs::Counter = obs::Counter::new("nsga2.genome_cache_hits");
/// Candidates that recovered through the full re-eval.
static DEGRADED: obs::Counter = obs::Counter::new("eval.degraded");
/// Candidates that exhausted the chain and carry penalty metrics.
static QUARANTINED: obs::Counter = obs::Counter::new("eval.quarantined");
/// Generation 0 in [`Exploration::start`], every later one in
/// [`Exploration::step`].
static GENERATION: obs::Span = obs::Span::new("nsga2.generation");
/// One generation's candidate evaluations, across every worker.
static EVALUATE: obs::Span = obs::Span::new("nsga2.evaluate");

/// Binary tournament by `(rank, crowding)`.
fn tournament(
    rng: &mut StdRng,
    pop: &[Genome],
    rank: &[usize],
    crowd: &HashMap<usize, f64>,
) -> Genome {
    let a = rng.gen_range(0..pop.len());
    let b = rng.gen_range(0..pop.len());
    let better = if rank[a] != rank[b] {
        if rank[a] < rank[b] {
            a
        } else {
            b
        }
    } else {
        let (ca, cb) = (
            crowd.get(&a).copied().unwrap_or(0.0),
            crowd.get(&b).copied().unwrap_or(0.0),
        );
        if ca >= cb {
            a
        } else {
            b
        }
    };
    pop[better]
}

/// The options of [`explore_with_engine`]: the sandbox policy every
/// candidate evaluation runs under.
pub type ExploreOptions = SandboxPolicy;

/// Runs the NSGA-II exploration over the flow parameter space.
///
/// Returns every evaluated point; use [`ExploreResult::pareto_front`] for
/// the final trade-off set. Equivalent to [`explore_with_engine`] on a
/// fresh [`EvalEngine`] with no candidate deadline.
pub fn explore(base: &Snapshot, tech: &Technology, params: &Nsga2Params) -> ExploreResult {
    // One incremental-evaluation engine, shared read-only by all workers:
    // the baseline route plan, levelized timing graph, and power model are
    // built once here instead of once per candidate.
    let engine = EvalEngine::new(base, tech);
    explore_with_engine(&engine, tech, params, &ExploreOptions::default())
        .expect("explore has no error path")
}

/// [`explore`] against a caller-owned [`EvalEngine`], each candidate under
/// `policy`: [`Exploration::start`], then [`Exploration::step`] until the
/// last generation, then [`Exploration::result`].
///
/// Reusing one engine across runs shares its `(operator, seed)` edit and
/// metrics memos between them. That is safe for bit-identity: a memo hit
/// returns the provably identical result of recomputing (pinned by the
/// incremental-equivalence suite), so results never depend on which runs
/// warmed the cache. The baseline snapshot is [`EvalEngine::base`]. Never
/// returns `Err`: a failing candidate is quarantined, not propagated (see
/// [`crate::sandbox`]).
pub fn explore_with_engine(
    engine: &EvalEngine,
    tech: &Technology,
    params: &Nsga2Params,
    policy: &ExploreOptions,
) -> Result<ExploreResult, Error> {
    let mut run = Exploration::start(engine, tech, params, policy);
    while run.generation() < params.generations {
        run.step(engine, tech, policy);
    }
    Ok(run.result(engine.base()))
}

/// One NSGA-II run as a state machine, advanced one generation at a time.
///
/// [`Exploration::start`] evaluates the initial population (generation
/// 0) and every [`Exploration::step`] runs one more generation. The state
/// between generations is exactly what a [`Checkpoint`] holds, so
/// [`Exploration::checkpoint`] and [`Exploration::resume`] carry a run
/// across processes: a resumed run continues bit-identically to an
/// uninterrupted one (quarantine decisions are keyed on `(genome, seed)`,
/// so this holds under armed fault specs too, but not under wall-clock
/// deadlines). Persisting is the caller's business; the `ggd serve`
/// explore step ([`crate::serve`]) is the code that does it.
#[derive(Debug)]
pub struct Exploration {
    params: Nsga2Params,
    /// Completed generations (0 = the initial population is evaluated).
    generation: usize,
    rng: StdRng,
    /// Current population, in population order.
    pop: Vec<Genome>,
    /// Metrics of every evaluated genome.
    cache: HashMap<Genome, FlowMetrics>,
    /// Every unique evaluated genome with its first-seen generation, in
    /// evaluation order: the archive [`ExploreResult::points`] lists.
    order: Vec<(Genome, usize)>,
    /// Candidates that exhausted the degrade chain.
    ledger: Vec<QuarantineEntry>,
}

impl Exploration {
    /// Seeds the initial population, the two canonical operators plus
    /// random samples, and evaluates it as generation 0.
    pub fn start(
        engine: &EvalEngine,
        tech: &Technology,
        params: &Nsga2Params,
        policy: &SandboxPolicy,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(params.seed);
        let mut pop = Vec::with_capacity(params.population);
        pop.push(Genome {
            op: 0,
            n_idx: 0,
            iter_idx: 0,
            scale_idx: [0; NUM_METAL_LAYERS],
        });
        pop.push(Genome {
            op: 1,
            n_idx: 2,
            iter_idx: 0,
            scale_idx: [0; NUM_METAL_LAYERS],
        });
        while pop.len() < params.population {
            pop.push(Genome::random(&mut rng));
        }
        let mut run = Self {
            params: *params,
            generation: 0,
            rng,
            pop: Vec::new(),
            cache: HashMap::new(),
            order: Vec::new(),
            ledger: Vec::new(),
        };
        GENERATION.time(|_| {
            run.evaluate(&pop, engine, tech, policy);
        });
        run.pop = pop;
        run
    }

    /// Restores the run `cp` holds, after [`Checkpoint::verify`] checks
    /// that it belongs to `base` and `params` and holds state this loop
    /// could have written.
    pub fn resume(cp: &Checkpoint, base: &Snapshot, params: &Nsga2Params) -> Result<Self, Error> {
        cp.verify(base, params)?;
        Ok(Self {
            params: *params,
            generation: cp.generation,
            rng: StdRng::from_state(cp.rng_state()?),
            pop: cp.pop.clone(),
            cache: cp.cache.iter().copied().collect(),
            order: cp.order.clone(),
            ledger: cp.quarantine.clone(),
        })
    }

    /// Completed generations (0 = the initial population is evaluated).
    pub fn generation(&self) -> usize {
        self.generation
    }

    /// Runs generation [`Self::generation`]` + 1`: tournament selection,
    /// crossover and mutation breed the offspring, then constrained
    /// non-dominated sorting with crowding distance selects the next
    /// population from parents and offspring. Callers stop at
    /// `params.generations`; a checkpoint of a later generation does not
    /// resume.
    pub fn step(&mut self, engine: &EvalEngine, tech: &Technology, policy: &SandboxPolicy) {
        let base = engine.base();
        let population = self.params.population;
        self.generation += 1;
        GENERATION.time(|_| {
            // Parent selection state.
            let metrics: Vec<FlowMetrics> = self.pop.iter().map(|g| self.cache[g]).collect();
            let rank = non_dominated_sort(&metrics, base.power_mw(), base.drc);
            let all: Vec<usize> = (0..self.pop.len()).collect();
            let crowd = crowding_distance(&all, &metrics);

            // Offspring.
            let mut offspring: Vec<Genome> = Vec::with_capacity(population);
            while offspring.len() < population {
                let p1 = tournament(&mut self.rng, &self.pop, &rank, &crowd);
                let p2 = tournament(&mut self.rng, &self.pop, &rank, &crowd);
                let mut child = if self.rng.gen_bool(self.params.crossover_p) {
                    Genome::crossover(&p1, &p2, &mut self.rng)
                } else {
                    p1
                };
                child.mutate(&mut self.rng, self.params.mutation_p);
                offspring.push(child);
            }
            self.evaluate(&offspring, engine, tech, policy);

            // Environmental selection over the union.
            let mut union: Vec<Genome> = self.pop.iter().chain(&offspring).copied().collect();
            union.sort_by_key(Genome::sort_key);
            union.dedup();
            let union_metrics: Vec<FlowMetrics> = union.iter().map(|g| self.cache[g]).collect();
            let union_rank = non_dominated_sort(&union_metrics, base.power_mw(), base.drc);
            let max_rank = union_rank.iter().copied().max().unwrap_or(0);
            let mut next: Vec<Genome> = Vec::with_capacity(population);
            for r in 0..=max_rank {
                let front: Vec<usize> = (0..union.len()).filter(|&i| union_rank[i] == r).collect();
                if next.len() + front.len() <= population {
                    next.extend(front.iter().map(|&i| union[i]));
                } else {
                    let crowd = crowding_distance(&front, &union_metrics);
                    let mut by_crowd = front.clone();
                    by_crowd.sort_by(|a, b| crowd[b].total_cmp(&crowd[a]));
                    for &i in by_crowd.iter().take(population - next.len()) {
                        next.push(union[i]);
                    }
                    break;
                }
                if next.len() == population {
                    break;
                }
            }
            // Top up if deduplication shrank the union below the population.
            while next.len() < population {
                next.push(Genome::random(&mut self.rng));
            }
            self.evaluate(&next, engine, tech, policy);
            self.pop = next;
        });
    }

    /// The run's state as a [`Checkpoint`] of `base`, ready to
    /// [`Checkpoint::save`].
    pub fn checkpoint(&self, base: &Snapshot) -> Checkpoint {
        let mut cache: Vec<(Genome, FlowMetrics)> =
            self.cache.iter().map(|(g, m)| (*g, *m)).collect();
        // HashMap iteration order is nondeterministic; sort so the checkpoint
        // bytes are a pure function of the run state.
        cache.sort_by_key(|(g, _)| g.sort_key());
        Checkpoint {
            base_fingerprint: fingerprint(base),
            params: self.params,
            generation: self.generation,
            rng: self.rng.state().iter().map(|&w| hex64(w)).collect(),
            pop: self.pop.clone(),
            order: self.order.clone(),
            cache,
            quarantine: self.ledger.clone(),
        }
    }

    /// The evaluation archive so far, judged against `base`.
    pub fn result(&self, base: &Snapshot) -> ExploreResult {
        let points = self
            .order
            .iter()
            .map(|&(genome, generation)| EvalPoint {
                genome,
                config: genome.to_config(),
                metrics: self.cache[&genome],
                generation,
            })
            .collect();
        ExploreResult {
            points,
            base_power_mw: base.power_mw(),
            base_drc: base.drc,
            base_tns_ps: base.tns_ps(),
            quarantined: self.ledger.clone(),
        }
    }

    /// Archives the genomes not seen before under the current generation,
    /// then evaluates `genomes` against the cache, running misses in
    /// parallel, each inside the evaluation sandbox (see
    /// [`crate::sandbox`]).
    ///
    /// Work distribution is a shared atomic-index queue rather than static
    /// chunks: each worker repeatedly claims the next un-evaluated genome,
    /// so a handful of slow candidates (deep rip-up-and-reroute, many LDA
    /// iterations) cannot idle the rest of the pool. A worker that panics
    /// does not poison the join: the sandbox catches the unwind, attaches
    /// the offending genome, and walks the degrade chain, so the scope
    /// always exits cleanly and the cache gains an entry for every
    /// requested genome.
    ///
    /// Candidate indices for the fault-trigger context are positions in
    /// the sorted-deduplicated miss list — deterministic at any thread
    /// count.
    fn evaluate(
        &mut self,
        genomes: &[Genome],
        engine: &EvalEngine,
        tech: &Technology,
        policy: &SandboxPolicy,
    ) {
        let generation = self.generation;
        for g in genomes {
            if !self.order.iter().any(|(og, _)| og == g) {
                self.order.push((*g, generation));
            }
        }
        let mut missing: Vec<Genome> = genomes
            .iter()
            .copied()
            .filter(|g| !self.cache.contains_key(g))
            .collect();
        missing.sort_by_key(Genome::sort_key);
        missing.dedup();
        GENOME_CACHE_HITS.add((genomes.len() - missing.len()) as u64);
        if missing.is_empty() {
            return;
        }
        EVALUATIONS.add(missing.len() as u64);
        let threads = self.params.resolved_threads().min(missing.len());
        EVALUATE.time(|_| {
            let next = AtomicUsize::new(0);
            type Outcome = (usize, Genome, FlowMetrics, EvalStatus);
            let done: Mutex<Vec<Outcome>> = Mutex::new(Vec::with_capacity(missing.len()));
            let missing = &missing;
            let worker = || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(g) = missing.get(i) else { break };
                let (m, status) = evaluate_candidate(engine, tech, g, generation, i, policy);
                // Sandboxed workers cannot panic while holding this
                // lock, but recover from poison anyway: the data is a
                // plain Vec push, valid at every intermediate state.
                done.lock()
                    .unwrap_or_else(|p| p.into_inner())
                    .push((i, *g, m, status));
            };
            if threads == 1 {
                // Single-worker generations run on the calling thread: the
                // maze and STA scratch areas are thread-locals, so spawning a
                // fresh scope thread per generation would start every
                // generation with cold scratch (and abandon the warm one) —
                // measured at ~10% of the serial evaluation wall.
                worker();
            } else {
                std::thread::scope(|scope| {
                    for _ in 0..threads {
                        scope.spawn(worker);
                    }
                });
            }
            let mut results = done.into_inner().unwrap_or_else(|p| p.into_inner());
            // Candidate order, so the quarantine ledger (and therefore the
            // checkpoint bytes) never depend on thread scheduling.
            results.sort_by_key(|(i, ..)| *i);
            for (_, g, m, status) in results {
                match status {
                    EvalStatus::Ok => {}
                    EvalStatus::Degraded(failure) => {
                        DEGRADED.incr();
                        obs::diagln!(
                            "nsga2: candidate {g:?} (gen {generation}) degraded to full re-eval: \
                             {failure}"
                        );
                    }
                    EvalStatus::Quarantined { incremental, full } => {
                        QUARANTINED.incr();
                        obs::diagln!(
                            "nsga2: candidate {g:?} (gen {generation}) quarantined: \
                             incremental eval {incremental}; full re-eval {full}"
                        );
                        self.ledger.push(QuarantineEntry {
                            genome: g,
                            generation,
                            incremental: incremental.to_string(),
                            full: full.to_string(),
                        });
                    }
                }
                self.cache.insert(g, m);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::implement_baseline;
    use netlist::bench;

    fn m(sec: f64, tns: f64, drc: u32, power: f64) -> FlowMetrics {
        FlowMetrics {
            security: sec,
            er_sites: 0,
            er_tracks: 0.0,
            tns_ps: tns,
            power_mw: power,
            drc,
        }
    }

    #[test]
    fn domination_rules() {
        assert!(dominates(&[0.1, 5.0], &[0.2, 6.0]));
        assert!(dominates(&[0.1, 5.0], &[0.1, 6.0]));
        assert!(!dominates(&[0.1, 5.0], &[0.1, 5.0]));
        assert!(!dominates(&[0.1, 7.0], &[0.2, 6.0]));
    }

    #[test]
    fn constrained_domination_prefers_feasible() {
        let feas = m(0.9, -100.0, 0, 1.0);
        let infeas = m(0.01, 0.0, 100, 1.0);
        assert!(constrained_dominates(&feas, &infeas, 1.0, 0));
        assert!(!constrained_dominates(&infeas, &feas, 1.0, 0));
        // Between two infeasible points the lesser violation wins.
        let worse = m(0.01, 0.0, 200, 1.0);
        assert!(constrained_dominates(&infeas, &worse, 1.0, 0));
    }

    #[test]
    fn sort_ranks_are_consistent() {
        let ms = vec![
            m(0.1, -10.0, 0, 1.0),
            m(0.2, -20.0, 0, 1.0), // dominated by the first
            m(0.05, -30.0, 0, 1.0),
        ];
        let rank = non_dominated_sort(&ms, 1.0, 0);
        assert_eq!(rank[0], 0);
        assert_eq!(rank[2], 0);
        assert_eq!(rank[1], 1);
    }

    #[test]
    fn crowding_boundary_points_are_infinite() {
        // The extremes of every objective must carry infinite crowding
        // distance so truncation can never drop the front's boundary
        // solutions (Deb et al. 2002, §III-C).
        let ms = vec![
            m(0.1, -10.0, 0, 1.0),
            m(0.4, -40.0, 0, 1.0),
            m(0.6, -60.0, 0, 1.0),
            m(0.9, -90.0, 0, 1.0),
        ];
        let front: Vec<usize> = (0..ms.len()).collect();
        let d = crowding_distance(&front, &ms);
        assert_eq!(d[&0], f64::INFINITY);
        assert_eq!(d[&3], f64::INFINITY);
        for i in [1usize, 2] {
            assert!(d[&i].is_finite(), "interior point {i} got {}", d[&i]);
            assert!(d[&i] > 0.0);
        }
        // Degenerate fronts (one or two points) are all boundary.
        let d2 = crowding_distance(&[0, 1], &ms);
        assert_eq!(d2[&0], f64::INFINITY);
        assert_eq!(d2[&1], f64::INFINITY);
        let d1 = crowding_distance(&[2], &ms);
        assert_eq!(d1[&2], f64::INFINITY);
    }

    #[test]
    fn genome_round_trip_and_mutation_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..200 {
            let mut g = Genome::random(&mut rng);
            g.mutate(&mut rng, 0.5);
            let cfg = g.to_config();
            for s in cfg.scales {
                assert!(RouteRule::CANDIDATES.contains(&s));
            }
            if let OpSelect::Lda { n, n_iter } = cfg.op {
                assert!(LdaParams::N_CANDIDATES.contains(&n));
                assert!(LdaParams::ITER_CANDIDATES.contains(&n_iter));
            }
        }
    }

    /// The operator seeds of three genomes, as computed by the build that
    /// introduced this test: every LDA edit's seed and every
    /// probabilistic fault trigger derive from `flow_seed`, and a resumed
    /// checkpoint re-derives them, so any change here is a checkpoint
    /// format change (bump [`crate::checkpoint::FORMAT_VERSION`]).
    #[test]
    fn flow_seeds_are_pinned() {
        let genome = |op, n_idx, iter_idx| Genome {
            op,
            n_idx,
            iter_idx,
            scale_idx: [0; NUM_METAL_LAYERS],
        };
        for (g, seed) in [
            (genome(0, 0, 0), 0xd506_738d_5400_b538),
            (genome(1, 2, 0), 0x6b1c_fe27_4045_3cce),
            (genome(1, 4, 2), 0xedc5_0be0_99c8_cc38),
        ] {
            assert_eq!(g.flow_seed(), seed, "{g:?}");
        }
    }

    #[test]
    fn builder_matches_defaults_and_resolves_threads() {
        const P: Nsga2Params = Nsga2Params::builder().population(24).build();
        assert_eq!(P.population, 24);
        assert_eq!(P.threads, 0, "builder leaves threads on auto");
        assert!(P.resolved_threads() >= 1);
        assert_eq!(Nsga2Params::default(), Nsga2Params::builder().build());
    }

    #[test]
    fn explore_finds_a_nonempty_pareto_front() {
        let tech = Technology::nangate45_like();
        let base = implement_baseline(&bench::tiny_spec(), &tech).unwrap();
        let params = Nsga2Params {
            population: 6,
            generations: 2,
            threads: 2,
            ..Nsga2Params::default()
        };
        let result = explore(&base, &tech, &params);
        assert!(result.points.len() >= params.population);
        let front = result.pareto_front();
        assert!(!front.is_empty(), "no feasible point found");
        // Every front point improves security over baseline.
        for p in &front {
            assert!(p.metrics.security < 1.0, "security {}", p.metrics.security);
        }
        // Front members must not dominate each other.
        for a in &front {
            for b in &front {
                assert!(!dominates(&a.metrics.objectives(), &b.metrics.objectives()));
            }
        }
        // The hypervolume against the fixed per-design reference
        // (security 1.0, a TNS bound of 2 clock periods) is positive, and
        // pushing the reference further out only grows it.
        let r = [1.0, 2.0 * bench::tiny_spec().clock_period()];
        let hv = result.hypervolume(r);
        assert!(hv > 0.0, "hypervolume {hv}");
        assert!(result.hypervolume([r[0] + 100.0, r[1] + 100.0]) > hv);
    }

    #[test]
    fn hypervolume_sweep_matches_hand_computed_rectangles() {
        let r = [10.0, 10.0];
        // One point: a single rectangle to the reference corner.
        assert_eq!(hypervolume_2d(vec![[1.0, 5.0]], r), 9.0 * 5.0);
        // Two staircase points: inclusion-exclusion gives 45 + 56 − 35.
        let hv = hypervolume_2d(vec![[3.0, 2.0], [1.0, 5.0]], r);
        assert!((hv - 66.0).abs() < 1e-12, "hv {hv}");
        // Duplicates collapse to one rectangle's worth of volume.
        let dup = hypervolume_2d(vec![[1.0, 5.0], [1.0, 5.0]], r);
        assert_eq!(dup, 45.0);
        // Points at or beyond the reference contribute nothing.
        assert_eq!(hypervolume_2d(vec![[10.0, 1.0], [2.0, 12.0]], r), 0.0);
        assert_eq!(hypervolume_2d(vec![], r), 0.0);
    }

    #[test]
    fn explore_is_deterministic_per_seed() {
        let tech = Technology::nangate45_like();
        let base = implement_baseline(&bench::tiny_spec(), &tech).unwrap();
        let params = Nsga2Params {
            population: 4,
            generations: 1,
            threads: 2,
            ..Nsga2Params::default()
        };
        let a = explore(&base, &tech, &params);
        let b = explore(&base, &tech, &params);
        assert_eq!(a.points.len(), b.points.len());
        for (pa, pb) in a.points.iter().zip(&b.points) {
            assert_eq!(pa.genome, pb.genome);
            assert_eq!(pa.metrics.security, pb.metrics.security);
        }
    }
}
