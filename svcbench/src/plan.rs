//! The three workloads: which data the service serves, which seasons it
//! holds, what set-up submits, and the request stream each closed-loop
//! client sends in the timed phase. Everything here is a pure function of
//! the workload, `--seed` and `--seconds`; the service only ever sees the
//! generated submissions.

use eree_core::definitions::PrivacyParams;
use eree_core::engine::RequestKind;
use eree_core::mechanisms::MechanismKind;
use eree_service::ReleaseSubmission;
use lodes::{
    AgeGroup, Education, Ethnicity, GeneratorConfig, NaicsSector, Ownership, PanelConfig, Race,
    Sex, StateId,
};
use tabulate::{ranking2_expr, workload1, workload3, FilterExpr, MarginalSpec};
use tabulate::{WorkerAttr, WorkplaceAttr};

/// α of every request and season.
pub const ALPHA: f64 = 0.1;
/// Seed of the served universe. The database is the agency's fixed
/// confidential snapshot; `--seed` varies the request stream only.
pub const DATA_SEED: u64 = 0xEEE5_2017;
/// Seed of the quarterly panel's evolution (distinct_tabulations).
pub const PANEL_SEED: u64 = 7;

/// Closed-loop requests per client per second of `--seconds`, per
/// workload. Fixed constants, so a run's request count depends only on
/// `--seconds` — never on how fast the build under test is (latency on
/// `repeat_hits` grows with registry history, so a time-bounded run would
/// compare different amounts of history).
const HIT_RATE: usize = 32;
const FRESH_RATE: usize = 24;
const DISTINCT_RATE: usize = 20;

/// Which traffic mix to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Zero-ε public read path: re-submissions of already released keys.
    RepeatHits,
    /// Admission/write path: every request a new release of a small spec
    /// mix, one season per client.
    FreshReleases,
    /// Tabulation path: never-seen (spec, filter) pairs on a two-quarter
    /// panel, levels and flows.
    DistinctTabulations,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::RepeatHits,
        Workload::FreshReleases,
        Workload::DistinctTabulations,
    ];

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::RepeatHits => "repeat_hits",
            Workload::FreshReleases => "fresh_releases",
            Workload::DistinctTabulations => "distinct_tabulations",
        }
    }

    /// Whether the service serves a quarterly panel.
    pub fn panel(self) -> bool {
        self == Workload::DistinctTabulations
    }

    /// Restarts per run; `restart_s` is their trimmed mean. A repeat_hits
    /// restart re-reads an artifact per registry record and takes about
    /// twice as long as the others, so it gets fewer samples to keep the
    /// run under a minute.
    pub fn restarts(self) -> usize {
        match self {
            Workload::RepeatHits => 9,
            Workload::FreshReleases | Workload::DistinctTabulations => 11,
        }
    }
}

/// The served universe: Default scale (≈60 k establishments, ≈1.2 M
/// jobs) for every workload.
pub fn generator_config() -> GeneratorConfig {
    GeneratorConfig {
        seed: DATA_SEED,
        ..GeneratorConfig::default()
    }
}

/// The two-quarter panel of distinct_tabulations.
pub fn panel_config() -> PanelConfig {
    PanelConfig {
        quarters: 2,
        growth_sigma: 0.08,
        death_rate: 0.02,
        seed: PANEL_SEED,
    }
}

/// One release submission addressed to a season.
#[derive(Debug, Clone)]
pub struct Req {
    pub season: String,
    /// The panel quarter the season is bound to (0 on single snapshots).
    pub quarter: usize,
    pub sub: ReleaseSubmission,
    /// repeat_hits: index of the set-up release this re-submits.
    pub repeat_of: Option<usize>,
}

/// One season and the budget reserved for it.
#[derive(Debug, Clone)]
pub struct SeasonDef {
    pub name: String,
    pub budget: PrivacyParams,
    pub quarter: Option<u64>,
}

/// Everything one run submits.
#[derive(Debug, Clone)]
pub struct Plan {
    pub workload: Workload,
    pub cap: PrivacyParams,
    pub seasons: Vec<SeasonDef>,
    /// Submitted one at a time during set-up (warming), not timed.
    pub setup: Vec<Req>,
    /// The timed phase: one closed-loop stream per client.
    pub clients: Vec<Vec<Req>>,
}

impl Plan {
    pub fn timed_len(&self) -> usize {
        self.clients.iter().map(Vec::len).sum()
    }

    /// Every request in stream order: set-up first, then each client's
    /// stream in turn. Stream indices used across the benchmark refer to
    /// this order.
    pub fn stream(&self) -> impl Iterator<Item = &Req> {
        self.setup.iter().chain(self.clients.iter().flatten())
    }
}

/// splitmix64: a small seeded generator, so streams repeat exactly.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x5851_f42d_4c95_7f2d)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

fn submission(
    kind: RequestKind,
    spec: MarginalSpec,
    filter: Option<FilterExpr>,
    mechanism: MechanismKind,
    seed: u64,
) -> ReleaseSubmission {
    // Per-cell budgets keep every mechanism's parameters valid whatever
    // the spec's composition multiplier is.
    let budget = match mechanism {
        MechanismKind::LogLaplace => PrivacyParams::pure(ALPHA, 1.0),
        MechanismKind::SmoothGamma => PrivacyParams::pure(ALPHA, 2.0),
        MechanismKind::SmoothLaplace => PrivacyParams::approximate(ALPHA, 3.0, 1e-5),
    };
    ReleaseSubmission {
        kind,
        spec,
        mechanism,
        budget,
        budget_is_per_cell: true,
        filter,
        integerize: false,
        seed,
        description: None,
    }
}

fn spec(workplace: &[WorkplaceAttr], worker: &[WorkerAttr]) -> MarginalSpec {
    MarginalSpec::new(workplace.to_vec(), worker.to_vec())
}

/// Build the plan of `workload` for `seed`, sized for `seconds` of timed
/// phase with `clients` closed-loop tenants.
pub fn build(workload: Workload, seed: u64, seconds: u64, clients: usize) -> Plan {
    let seconds = seconds.max(1) as usize;
    let mut rng = Rng::new(seed);
    let (seasons, setup, streams) = match workload {
        Workload::RepeatHits => repeat_hits(&mut rng, HIT_RATE * seconds, clients),
        Workload::FreshReleases => fresh_releases(&mut rng, FRESH_RATE * seconds, clients),
        Workload::DistinctTabulations => {
            distinct_tabulations(&mut rng, DISTINCT_RATE * seconds, clients)
        }
    };
    size_budgets(workload, seasons, setup, streams)
}

/// repeat_hits: set-up releases eight distinct artifacts into one season;
/// the timed phase re-submits them with Zipf(1.1) popularity.
fn repeat_hits(
    rng: &mut Rng,
    per_client: usize,
    clients: usize,
) -> (Vec<String>, Vec<Req>, Vec<Vec<Req>>) {
    use MechanismKind::*;
    use WorkerAttr::{Education, Sex as SexAttr};
    use WorkplaceAttr::*;
    let base = rng.next_u64() % 1_000_000;
    // Hottest first.
    let artifacts = vec![
        (
            spec(&[County, Naics], &[]),
            Some(ranking2_expr()),
            SmoothGamma,
        ),
        (workload1(), None, LogLaplace),
        (spec(&[Place], &[SexAttr, Education]), None, LogLaplace),
        (workload1(), Some(ranking2_expr()), LogLaplace),
        (
            spec(&[County, Ownership], &[SexAttr]),
            Some(ranking2_expr()),
            SmoothLaplace,
        ),
        (workload1(), None, SmoothGamma),
        (workload3(), None, LogLaplace),
        (workload3(), None, SmoothLaplace),
    ];
    let season = "archive".to_string();
    let setup: Vec<Req> = artifacts
        .into_iter()
        .enumerate()
        .map(|(i, (spec, filter, mechanism))| Req {
            season: season.clone(),
            quarter: 0,
            sub: submission(
                RequestKind::Marginal,
                spec,
                filter,
                mechanism,
                base + i as u64,
            ),
            repeat_of: None,
        })
        .collect();
    // Zipf(1.1) popularity over the artifact set, hottest first in the
    // order listed above. Each client's stream holds every key in its
    // Zipf share of the requests (largest remainder rounding), in a seeded
    // order: every seed does the same work, in a different sequence.
    let weights: Vec<f64> = (0..setup.len())
        .map(|rank| 1.0 / ((rank + 1) as f64).powf(1.1))
        .collect();
    let total: f64 = weights.iter().sum();
    let exact: Vec<f64> = weights
        .iter()
        .map(|w| w / total * per_client as f64)
        .collect();
    let mut counts: Vec<usize> = exact.iter().map(|x| x.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..counts.len()).collect();
    by_remainder
        .sort_by(|&a, &b| (exact[b] - exact[b].floor()).total_cmp(&(exact[a] - exact[a].floor())));
    let short = per_client - counts.iter().sum::<usize>();
    for &k in by_remainder.iter().take(short) {
        counts[k] += 1;
    }
    let streams = (0..clients)
        .map(|_| {
            let mut keys: Vec<usize> = counts
                .iter()
                .enumerate()
                .flat_map(|(k, &n)| std::iter::repeat_n(k, n))
                .collect();
            rng.shuffle(&mut keys);
            keys.into_iter()
                .map(|k| Req {
                    repeat_of: Some(k),
                    ..setup[k].clone()
                })
                .collect()
        })
        .collect();
    (vec![season], setup, streams)
}

/// The fixed spec mix of fresh_releases: one spec per mechanism.
fn fresh_mix() -> Vec<(MarginalSpec, Option<FilterExpr>, MechanismKind)> {
    use WorkerAttr::Sex as SexAttr;
    use WorkplaceAttr::*;
    // Small specs (a few hundred cells each), so a release's cost is the
    // admission path's own — noise, ledger, fsync'd records, registry —
    // rather than the size of its payload.
    vec![
        (spec(&[County, Naics], &[]), None, MechanismKind::LogLaplace),
        (
            spec(&[State, Naics], &[SexAttr]),
            None,
            MechanismKind::SmoothGamma,
        ),
        (
            spec(&[County, Ownership], &[]),
            Some(ranking2_expr()),
            MechanismKind::SmoothLaplace,
        ),
    ]
}

/// fresh_releases: one season per client; set-up releases each mix spec
/// once per season (warming the index and the truths), then every timed
/// request is a new release under a fresh seed.
fn fresh_releases(
    rng: &mut Rng,
    per_client: usize,
    clients: usize,
) -> (Vec<String>, Vec<Req>, Vec<Vec<Req>>) {
    let mix = fresh_mix();
    let seasons: Vec<String> = (0..clients).map(|c| format!("tenant{c}")).collect();
    let mut seed = rng.next_u64() % 1_000_000_000;
    let mut next = |season: &str, i: usize| {
        let (spec, filter, mechanism) = mix[i % mix.len()].clone();
        seed += 1;
        Req {
            season: season.to_string(),
            quarter: 0,
            sub: submission(RequestKind::Marginal, spec, filter, mechanism, seed),
            repeat_of: None,
        }
    };
    let setup = seasons
        .iter()
        .flat_map(|s| (0..mix.len()).map(move |i| (s.clone(), i)))
        .map(|(s, i)| next(&s, i))
        .collect();
    let streams = seasons
        .iter()
        .enumerate()
        .map(|(c, s)| (0..per_client).map(|i| next(s, i + c)).collect())
        .collect();
    (seasons, setup, streams)
}

/// Population filters the distinct (spec, filter) pairs draw from.
fn filter_pool() -> Vec<Option<FilterExpr>> {
    let mut pool = vec![None, Some(ranking2_expr())];
    pool.extend(Sex::ALL.into_iter().map(|s| Some(FilterExpr::sex(s))));
    pool.extend(AgeGroup::ALL.into_iter().map(|a| Some(FilterExpr::age(a))));
    pool.extend(Race::ALL.into_iter().map(|r| Some(FilterExpr::race(r))));
    pool.extend(
        Ethnicity::ALL
            .into_iter()
            .map(|e| Some(FilterExpr::ethnicity(e))),
    );
    pool.extend(
        Education::ALL
            .into_iter()
            .map(|e| Some(FilterExpr::education_at_least(e))),
    );
    pool.extend((0..3).map(|s| Some(FilterExpr::in_state(StateId(s)))));
    pool.extend(
        NaicsSector::ALL
            .into_iter()
            .map(|s| Some(FilterExpr::sector(s))),
    );
    pool.extend(
        Ownership::ALL
            .into_iter()
            .map(|o| Some(FilterExpr::ownership(o))),
    );
    pool.push(Some(
        FilterExpr::sex(Sex::Female).and(FilterExpr::in_state(StateId(1))),
    ));
    pool
}

/// Every non-empty subset of `items` with at most `max` members.
fn subsets<T: Copy>(items: &[T], max: usize) -> Vec<Vec<T>> {
    (1u32..(1 << items.len()))
        .filter(|mask| mask.count_ones() as usize <= max)
        .map(|mask| {
            (0..items.len())
                .filter(|i| mask & (1 << i) != 0)
                .map(|i| items[i])
                .collect()
        })
        .collect()
}

/// Cells in a spec's domain on the served universe (3 states, 24
/// counties, 576 places), used only to sort specs into size classes.
fn domain(spec: &MarginalSpec) -> usize {
    use tabulate::Attr;
    spec.attrs()
        .map(|attr| match attr {
            Attr::Workplace(WorkplaceAttr::State) => 3,
            Attr::Workplace(WorkplaceAttr::County) => 24,
            Attr::Workplace(WorkplaceAttr::Place) => 576,
            Attr::Workplace(WorkplaceAttr::Block) => 2304,
            Attr::Workplace(WorkplaceAttr::Naics) => 20,
            Attr::Workplace(WorkplaceAttr::Ownership) => 4,
            Attr::Worker(w) => w.cardinality(),
        })
        .product()
}

/// Domain-size classes of distinct_tabulations. Every client cycles
/// through them in order, so each run tabulates the same mix of small,
/// medium and large specs whatever the seed draws inside a class.
const SIZE_CLASSES: [usize; 3] = [1_000, 40_000, 400_000];

fn size_class(spec: &MarginalSpec) -> Option<usize> {
    let cells = domain(spec);
    SIZE_CLASSES.iter().position(|&limit| cells <= limit)
}

/// distinct_tabulations: a two-quarter panel with one season per quarter.
/// Set-up warms both quarters' indexes (and the before-quarter flow
/// index) with county releases that the timed stream never repeats; every
/// timed request is a (kind, spec, filter) never seen before: level
/// marginals of up to three establishment and two worker attributes —
/// up to the full `place × naics × ownership × sex × education` spec —
/// and, on the second quarter, flows over (q0, q1).
fn distinct_tabulations(
    rng: &mut Rng,
    per_client: usize,
    clients: usize,
) -> (Vec<String>, Vec<Req>, Vec<Vec<Req>>) {
    use WorkplaceAttr::*;
    let workplace = subsets(&[State, County, Place, Naics, Ownership], 3);
    let worker = subsets(
        &[
            WorkerAttr::Sex,
            WorkerAttr::Age,
            WorkerAttr::Race,
            WorkerAttr::Ethnicity,
            WorkerAttr::Education,
        ],
        2,
    );
    let filters = filter_pool();
    let county = spec(&[County], &[]);
    // Per size class, a seeded shuffle of every (spec, filter) pair; the
    // set-up's unfiltered county spec is left out.
    let mut levels: Vec<Vec<(MarginalSpec, Option<FilterExpr>)>> = vec![Vec::new(); 3];
    let mut flows: Vec<Vec<(MarginalSpec, Option<FilterExpr>)>> = vec![Vec::new(); 3];
    for wp in &workplace {
        for wk in std::iter::once(&Vec::new()).chain(&worker) {
            let s = spec(wp, wk);
            let Some(class) = size_class(&s) else {
                continue;
            };
            for f in &filters {
                if s != county || f.is_some() {
                    levels[class].push((s.clone(), f.clone()));
                    if wk.is_empty() {
                        flows[class].push((s.clone(), f.clone()));
                    }
                }
            }
        }
    }
    // Which pairs a run tabulates is fixed; `--seed` orders them and
    // seeds their noise. Every seed therefore does the same work, and the
    // seeds differ only in sequence.
    let mut fixed = Rng::new(DATA_SEED);
    for pool in levels.iter_mut().chain(flows.iter_mut()) {
        fixed.shuffle(pool);
    }
    let mut seed = rng.next_u64() % 1_000_000_000;
    let mut make = |quarter: usize, kind, spec, filter| {
        seed += 1;
        Req {
            season: format!("quarter{quarter}"),
            quarter,
            sub: submission(kind, spec, filter, MechanismKind::LogLaplace, seed),
            repeat_of: None,
        }
    };
    let setup = vec![
        make(0, RequestKind::Marginal, county.clone(), None),
        make(1, RequestKind::Marginal, county.clone(), None),
        make(1, RequestKind::Flows, county.clone(), None),
    ];
    // Clients alternate between the quarters; a quarter-1 client
    // alternates levels and flows. Pools are drawn without replacement,
    // so no pair repeats anywhere in the run.
    let streams = (0..clients)
        .map(|c| {
            let quarter = c % 2;
            let mut picks: Vec<_> = (0..per_client)
                .map(|i| {
                    let class = (i + c) % SIZE_CLASSES.len();
                    let (kind, pool) = if quarter == 1 && i % 2 == 1 {
                        (RequestKind::Flows, &mut flows[class])
                    } else {
                        (RequestKind::Marginal, &mut levels[class])
                    };
                    let (s, f) = pool.pop().expect("spec pool outlasts the stream");
                    (kind, s, f)
                })
                .collect();
            rng.shuffle(&mut picks);
            picks
                .into_iter()
                .map(|(kind, s, f)| make(quarter, kind, s, f))
                .collect()
        })
        .collect();
    let seasons = vec!["quarter0".to_string(), "quarter1".to_string()];
    (seasons, setup, streams)
}

/// Reserve each season exactly what its requests cost, with headroom, and
/// cap the agency at the sum: nothing is ever refused for budget.
fn size_budgets(
    workload: Workload,
    names: Vec<String>,
    setup: Vec<Req>,
    clients: Vec<Vec<Req>>,
) -> Plan {
    let mut seasons = Vec::new();
    let (mut cap_eps, mut cap_delta) = (0.0, 0.0);
    for name in names {
        let (mut eps, mut delta) = (0.0, 0.0);
        let mut quarter = None;
        for req in setup.iter().chain(clients.iter().flatten()) {
            if req.season != name {
                continue;
            }
            let plan = req
                .sub
                .to_request()
                .plan()
                .unwrap_or_else(|e| panic!("workload request is invalid: {e}"));
            eps += plan.cost.epsilon;
            delta += plan.cost.delta;
            quarter = Some(req.quarter as u64);
        }
        let budget = PrivacyParams {
            alpha: ALPHA,
            epsilon: eps * 1.01 + 1.0,
            delta: if delta > 0.0 {
                delta * 1.01 + 1e-9
            } else {
                0.0
            },
        };
        cap_eps += budget.epsilon;
        cap_delta += budget.delta;
        seasons.push(SeasonDef {
            name,
            budget,
            quarter: if workload.panel() { quarter } else { None },
        });
    }
    assert!(cap_delta < 1.0, "season δ budgets must stay below 1");
    let cap = PrivacyParams {
        alpha: ALPHA,
        epsilon: cap_eps + 1.0,
        delta: if cap_delta > 0.0 {
            cap_delta * 1.01
        } else {
            0.0
        },
    };
    Plan {
        workload,
        cap,
        seasons,
        setup,
        clients,
    }
}
