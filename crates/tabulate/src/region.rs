//! Region-sharded tabulation: one independent [`TabulationIndex`] per
//! state, tabulated in parallel and combined by the engine's
//! deterministic k-way merge.
//!
//! National-scale production (10–100 M job records) does not fit the
//! "one flat CSR index" model forever: the index build is a serial pass,
//! the columns become multi-gigabyte allocations, and a future
//! multi-machine deployment needs a partition unit that can live on
//! different nodes. The natural unit is the **state**: LODES/QWI
//! processing is state-partitioned in real life, every establishment
//! belongs to exactly one state, and a state never straddles two shards —
//! so each shard's `(cell key, contribution)` runs are *disjoint by
//! establishment* and the existing commutative merge
//! (`crate::engine::merge_runs` / `crate::flows::merge_flow_runs`)
//! combines them into a [`Marginal`]/[`FlowMarginal`] **bit-identical**
//! to what one flat index over the whole country would produce.
//!
//! Two invariants make that identity hold by construction:
//!
//! * Every shard snapshots the **universe** geography's attribute
//!   cardinalities (not its own subset), so all shards — and the flat
//!   index — derive the same [`CellSchema`], strides and all. Workplace
//!   codes are global ids (a state-3 county keeps its global county
//!   code in the state-3 shard), so keys agree across shards.
//! * Each establishment is tabulated exactly once, by its home shard, so
//!   the merged multiset of per-establishment contributions is the same
//!   multiset the flat evaluator emits; all merge aggregates are
//!   commutative.
//!
//! **Worker ids are shard-local.** Each shard's index rebases worker ids
//! dense-per-shard (see [`IndexBuilder`]); declarative [`FilterExpr`]
//! filters are unaffected, because they are compiled per shard and read
//! attributes only.
//!
//! [`DatasetIndex`] is the one evaluator surface: a flat index for
//! ordinary datasets, a [`RegionShardedIndex`] above a size threshold. A
//! flat index is the one-shard case of a region index, so both go through
//! the same marginal and flow drivers, which run worker-balanced
//! establishment windows of every shard on at most `threads` workers.

use crate::attr::MarginalSpec;
use crate::cell::CellSchema;
use crate::engine::{tabulate_marginal, MIN_SHARD_WORKERS};
use crate::filter::FilterExpr;
use crate::flows::{tabulate_flows, FlowMarginal};
use crate::index::{cards_from_geography, schema_from_cards, IndexBuilder, TabulationIndex};
use crate::kernel::Kernel;
use crate::marginal::Marginal;
use lodes::{Dataset, Geography, Worker, WorkerId, Workplace};
use std::ops::Range;
use std::sync::Arc;

/// One state's slice of the universe: its home-state id plus a flat
/// [`TabulationIndex`] over exactly its establishments.
#[derive(Debug, Clone)]
struct RegionShard {
    /// Global state id this shard owns.
    state: u32,
    index: TabulationIndex,
}

/// A national dataset partitioned by state into independent
/// [`TabulationIndex`]es — the multi-machine partition unit — whose
/// tabulations merge bit-identically to a single flat index.
///
/// See the [module docs](self) for the identity argument. Built either
/// from a materialized [`Dataset`] ([`RegionShardedIndex::build`]) or
/// streamed establishment-at-a-time through [`RegionIndexBuilder`]
/// without ever materializing the dataset.
#[derive(Debug, Clone)]
pub struct RegionShardedIndex {
    /// Shards in ascending state order; states with no establishments
    /// have no shard.
    shards: Vec<RegionShard>,
    /// Universe workplace-attribute cardinalities (every shard snapshots
    /// these same values).
    workplace_cards: [u64; 6],
    num_workers: usize,
    num_establishments: usize,
}

impl RegionShardedIndex {
    /// Partition `dataset` by state and index each partition. One
    /// counting-sort pass over the job table, then one streaming append
    /// per establishment — `O(workers + establishments)` like the flat
    /// build.
    pub fn build(dataset: &Dataset) -> Self {
        let mut builder = RegionIndexBuilder::new(dataset.geography());
        let (offsets, order) = dataset.workers_by_employer();
        let mut buf: Vec<Worker> = Vec::new();
        for (e, wp) in dataset.workplaces().iter().enumerate() {
            buf.clear();
            buf.extend(
                order[offsets[e] as usize..offsets[e + 1] as usize]
                    .iter()
                    .map(|&w| *dataset.worker(WorkerId(w))),
            );
            builder.push_establishment(wp, &buf);
        }
        builder.finish()
    }

    /// Number of state shards (states with at least one establishment).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Global state ids with a shard, ascending.
    pub fn shard_states(&self) -> impl Iterator<Item = u32> + '_ {
        self.shards.iter().map(|s| s.state)
    }

    /// Total workers across all shards.
    pub fn num_workers(&self) -> usize {
        self.num_workers
    }

    /// Total establishments across all shards.
    pub fn num_establishments(&self) -> usize {
        self.num_establishments
    }

    /// The key schema `spec` induces — identical to the flat index's
    /// [`TabulationIndex::schema`] over the same universe.
    pub fn schema(&self, spec: &MarginalSpec) -> CellSchema {
        schema_from_cards(&self.workplace_cards, spec)
    }
}

/// Streaming [`RegionShardedIndex`] construction: establishments arrive
/// in any order and are routed to their home state's [`IndexBuilder`].
///
/// The national-scale path: the generator streams establishments (see
/// `lodes::Generator::for_each_establishment`) straight into this
/// builder, so peak memory is the finished shards themselves — no flat
/// [`Dataset`], no counting-sort scratch.
#[derive(Debug, Clone)]
pub struct RegionIndexBuilder {
    cards: [u64; 6],
    /// Lazily created per-state builders, indexed by global state id.
    builders: Vec<Option<IndexBuilder>>,
}

impl RegionIndexBuilder {
    /// Start an empty sharded index over `geography` (the universe — its
    /// cardinalities are snapshotted into every shard so all shards share
    /// one schema).
    pub fn new(geography: &Geography) -> Self {
        Self {
            cards: cards_from_geography(geography),
            builders: vec![None; geography.num_states() as usize],
        }
    }

    /// Route one establishment (and its whole workforce) to its home
    /// state's shard.
    ///
    /// # Panics
    /// Panics if the workplace's state id is outside the geography.
    pub fn push_establishment(&mut self, workplace: &Workplace, workers: &[Worker]) {
        let cards = self.cards;
        self.builders[workplace.state.0 as usize]
            .get_or_insert_with(|| IndexBuilder::with_cards(cards))
            .push_establishment(workplace, workers);
    }

    /// Establishments pushed so far, across all shards.
    pub fn num_establishments(&self) -> usize {
        self.builders
            .iter()
            .flatten()
            .map(IndexBuilder::num_establishments)
            .sum()
    }

    /// Workers pushed so far, across all shards.
    pub fn num_workers(&self) -> usize {
        self.builders
            .iter()
            .flatten()
            .map(IndexBuilder::num_workers)
            .sum()
    }

    /// Seal every shard. States that never saw an establishment get no
    /// shard (their cells would be empty anyway).
    pub fn finish(self) -> RegionShardedIndex {
        let cards = self.cards;
        let shards: Vec<RegionShard> = self
            .builders
            .into_iter()
            .enumerate()
            .filter_map(|(state, b)| {
                b.map(|b| RegionShard {
                    state: state as u32,
                    index: b.finish(),
                })
            })
            .collect();
        let num_workers = shards.iter().map(|s| s.index.num_workers()).sum();
        let num_establishments = shards.iter().map(|s| s.index.num_establishments()).sum();
        RegionShardedIndex {
            shards,
            workplace_cards: cards,
            num_workers,
            num_establishments,
        }
    }
}

/// Size threshold above which [`DatasetIndex::build_auto`] switches to
/// the region-sharded representation (4 M jobs — well past the point
/// where the flat build's serial counting sort and monolithic columns
/// start to dominate).
pub const SHARD_JOB_THRESHOLD: usize = 4_000_000;

/// An indexed dataset and the crate's only tabulation evaluator: one flat
/// [`TabulationIndex`] for ordinary datasets, a [`RegionShardedIndex`] at
/// national scale. [`marginal`](Self::marginal) and [`flows`](Self::flows)
/// take the filter, thread count and kernel as data; every result is
/// bit-identical between the two representations.
#[derive(Debug, Clone)]
pub enum DatasetIndex {
    /// A single flat CSR index (the default).
    Single(Arc<TabulationIndex>),
    /// State-partitioned shards (national scale).
    Sharded(Arc<RegionShardedIndex>),
}

impl DatasetIndex {
    /// Index `dataset`, choosing the representation automatically: region
    /// shards when the dataset has at least [`SHARD_JOB_THRESHOLD`] jobs
    /// *and* more than one state (a single-state universe has exactly one
    /// shard — the flat index, without the dispatch layer).
    pub fn build_auto(dataset: &Dataset) -> Self {
        Self::build_with_threshold(dataset, SHARD_JOB_THRESHOLD)
    }

    /// [`build_auto`](Self::build_auto) with an explicit job-count
    /// threshold (tests force both representations on small data).
    pub fn build_with_threshold(dataset: &Dataset, threshold: usize) -> Self {
        if dataset.num_jobs() >= threshold && dataset.geography().num_states() > 1 {
            Self::Sharded(Arc::new(RegionShardedIndex::build(dataset)))
        } else {
            Self::Single(Arc::new(TabulationIndex::build(dataset)))
        }
    }

    /// Whether this is the region-sharded representation.
    pub fn is_sharded(&self) -> bool {
        matches!(self, Self::Sharded(_))
    }

    /// Total workers indexed.
    pub fn num_workers(&self) -> usize {
        match self {
            Self::Single(i) => i.num_workers(),
            Self::Sharded(s) => s.num_workers(),
        }
    }

    /// Total establishments indexed.
    pub fn num_establishments(&self) -> usize {
        match self {
            Self::Single(i) => i.num_establishments(),
            Self::Sharded(s) => s.num_establishments(),
        }
    }

    /// The key schema `spec` induces — the same for both representations.
    pub fn schema(&self, spec: &MarginalSpec) -> CellSchema {
        match self {
            Self::Single(i) => i.schema(spec),
            Self::Sharded(s) => s.schema(spec),
        }
    }

    /// The flat indexes the drivers tabulate: the index itself, or one
    /// per state shard.
    fn shards(&self) -> Vec<&TabulationIndex> {
        match self {
            Self::Single(i) => vec![i.as_ref()],
            Self::Sharded(s) => s.shards.iter().map(|shard| &shard.index).collect(),
        }
    }

    /// Advisory shard-count heuristic: the number of workers `threads`
    /// should actually be cut down to on this index so that parallel
    /// tabulation never loses to single-threaded.
    ///
    /// Every window costs a sorted run plus a k-way-merge cursor, and a
    /// window scanning only a few thousand workers finishes faster than
    /// its thread spawns — on small datasets the fixed per-window overhead
    /// made the recorded multithreaded full-attribute workload *slower*
    /// than 1T. The heuristic caps the count so each worker scans at least
    /// `MIN_SHARD_WORKERS` (2¹⁶) workers, collapsing to one (the 1T code
    /// path, bit-identical by the merge guarantee) whenever the dataset is
    /// too small to amortize fan-out. The release engine and the benchmark
    /// apply it before tabulating; direct evaluator calls keep the
    /// caller's count so tests can force any layout.
    pub fn effective_shards(&self, threads: usize) -> usize {
        threads
            .max(1)
            .min((self.num_workers() / MIN_SHARD_WORKERS).max(1))
            .min(self.num_establishments().max(1))
    }

    /// Evaluate `q_V` over the records matching `filter` (all records when
    /// `None`), tabulating on at most `threads` scoped workers with the
    /// given key [`Kernel`]. The filter is compiled once per shard; the
    /// result is bit-identical at any thread count, for either kernel and
    /// either representation.
    pub fn marginal(
        &self,
        spec: &MarginalSpec,
        filter: Option<&FilterExpr>,
        threads: usize,
        kernel: Kernel,
    ) -> Marginal {
        let shards = self.shards();
        let filters: Vec<_> = shards
            .iter()
            .map(|&shard| filter.map(|expr| expr.compile(shard)))
            .collect();
        tabulate_marginal(&shards, &filters, spec, self.schema(spec), threads, kernel)
    }

    /// Tabulate job flows from this quarter (`t`) to `after` (`t+1`) over
    /// the records matching `filter` on *both* sides of the pair (all
    /// records when `None`). The filter is compiled against each quarter's
    /// shards separately (worker-domain truth tables agree; workplace
    /// leaves resolve against each quarter's own establishment columns).
    /// Bit-identical at any thread count, for either kernel and either
    /// representation.
    ///
    /// # Panics
    /// Panics if the spec has worker attributes, if the two quarters use
    /// different representations (the release engine derives the before
    /// index's representation from the after index's), or if their
    /// establishment frames disagree shard by shard.
    pub fn flows(
        &self,
        after: &DatasetIndex,
        spec: &MarginalSpec,
        filter: Option<&FilterExpr>,
        threads: usize,
        kernel: Kernel,
    ) -> FlowMarginal {
        match (self, after) {
            (Self::Single(_), Self::Single(_)) => {}
            (Self::Sharded(b), Self::Sharded(a)) => assert!(
                b.shard_states().eq(a.shard_states()),
                "flow tabulation requires matching region shard structures"
            ),
            _ => panic!("flow tabulation requires both quarters in the same index representation"),
        }
        let pairs: Vec<_> = self.shards().into_iter().zip(after.shards()).collect();
        let filters: Vec<_> = pairs
            .iter()
            .map(|&(b, a)| filter.map(|expr| (expr.compile(b), expr.compile(a))))
            .collect();
        tabulate_flows(&pairs, &filters, spec, self.schema(spec), threads, kernel)
    }

    /// Evaluate the unfiltered `q_V`; see [`marginal`](Self::marginal).
    pub fn marginal_sharded(&self, spec: &MarginalSpec, threads: usize) -> Marginal {
        self.marginal(spec, None, threads, Kernel::Auto)
    }

    /// Evaluate a declaratively filtered `q_V`; see
    /// [`marginal`](Self::marginal).
    pub fn marginal_expr_sharded(
        &self,
        spec: &MarginalSpec,
        expr: &FilterExpr,
        threads: usize,
    ) -> Marginal {
        self.marginal(spec, Some(expr), threads, Kernel::Auto)
    }

    /// Tabulate unfiltered job flows to `after`; see
    /// [`flows`](Self::flows).
    pub fn flows_sharded(
        &self,
        after: &DatasetIndex,
        spec: &MarginalSpec,
        threads: usize,
    ) -> FlowMarginal {
        self.flows(after, spec, None, threads, Kernel::Auto)
    }

    /// Tabulate declaratively filtered job flows to `after`; see
    /// [`flows`](Self::flows).
    pub fn flows_expr_sharded(
        &self,
        after: &DatasetIndex,
        spec: &MarginalSpec,
        expr: &FilterExpr,
        threads: usize,
    ) -> FlowMarginal {
        self.flows(after, spec, Some(expr), threads, Kernel::Auto)
    }
}

/// One unit of tabulation work: establishments `lo..hi` of shard `shard`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Task {
    pub(crate) shard: usize,
    pub(crate) lo: usize,
    pub(crate) hi: usize,
}

/// Split `threads` across shards in proportion to worker counts (every
/// shard gets at least one window) and expand each budget into
/// worker-balanced establishment windows. With one shard this is exactly
/// [`TabulationIndex::shard_bounds`]`(threads)`. A pure function of the
/// shards and `threads`, but determinism never depends on it — the merge
/// does that.
fn plan_tasks(shards: &[&TabulationIndex], threads: usize) -> Vec<Task> {
    let threads = threads.max(1);
    let total = shards.iter().map(|s| s.num_workers()).sum::<usize>().max(1);
    let mut tasks = Vec::new();
    for (shard, index) in shards.iter().enumerate() {
        let budget = (threads * index.num_workers() / total).max(1);
        for w in index.shard_bounds(budget).windows(2) {
            tasks.push(Task {
                shard,
                lo: w[0],
                hi: w[1],
            });
        }
    }
    tasks
}

/// Group tasks of the given worker `weights` into at most `workers`
/// contiguous, nonempty ranges of roughly equal total weight. Every shard
/// gets at least one window, so a national index has more tasks than a
/// small thread cap — this grouping is what keeps the thread count at the
/// cap.
fn assign_tasks(weights: &[usize], workers: usize) -> Vec<Range<usize>> {
    let n = weights.len();
    let workers = workers.clamp(1, n.max(1));
    let total = weights.iter().sum::<usize>().max(1);
    let mut groups = Vec::with_capacity(workers);
    let (mut start, mut sum) = (0, 0);
    for (i, &w) in weights.iter().enumerate() {
        sum += w;
        let closing = groups.len() + 1;
        if closing == workers {
            break;
        }
        // Close the group once it holds its share of the weight — or when
        // every remaining task is needed to give each later group one —
        // but never leave a later group without a task.
        let left = n - i - 1;
        let later = workers - closing;
        if left >= later && (sum * workers >= total * closing || left == later) {
            groups.push(start..i + 1);
            start = i + 1;
        }
    }
    groups.push(start..n);
    groups
}

/// Run every task of `shards`' plan on at most `threads` scoped workers
/// (inline when `threads <= 1`), returning one result per task.
pub(crate) fn run_sharded<R: Send>(
    shards: &[&TabulationIndex],
    threads: usize,
    tabulate: impl Fn(&Task) -> R + Sync,
) -> Vec<R> {
    let tasks = plan_tasks(shards, threads);
    if threads <= 1 || tasks.len() <= 1 {
        return tasks.iter().map(tabulate).collect();
    }
    let weights: Vec<usize> = tasks
        .iter()
        .map(|t| shards[t.shard].workers_between(t.lo, t.hi))
        .collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = assign_tasks(&weights, threads)
            .into_iter()
            .map(|group| {
                let (tasks, tabulate) = (&tasks[group], &tabulate);
                scope.spawn(move || tasks.iter().map(tabulate).collect::<Vec<R>>())
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("tabulation worker panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::{WorkerAttr, WorkplaceAttr};
    use lodes::{DatasetPanel, Generator, GeneratorConfig, PanelConfig, Sex};

    fn dataset() -> Dataset {
        // Multi-state universe so the partition is non-trivial.
        Generator::new(GeneratorConfig::test_small(11)).generate()
    }

    fn flat(d: &Dataset) -> DatasetIndex {
        DatasetIndex::build_with_threshold(d, usize::MAX)
    }

    fn sharded(d: &Dataset) -> DatasetIndex {
        DatasetIndex::build_with_threshold(d, 1)
    }

    fn specs() -> Vec<MarginalSpec> {
        vec![
            MarginalSpec::new(vec![], vec![]),
            MarginalSpec::new(vec![WorkplaceAttr::State], vec![]),
            MarginalSpec::new(
                vec![WorkplaceAttr::County, WorkplaceAttr::Naics],
                vec![WorkerAttr::Sex, WorkerAttr::Education],
            ),
            MarginalSpec::new(
                vec![WorkplaceAttr::Place, WorkplaceAttr::Ownership],
                vec![
                    WorkerAttr::Sex,
                    WorkerAttr::Age,
                    WorkerAttr::Race,
                    WorkerAttr::Ethnicity,
                    WorkerAttr::Education,
                ],
            ),
        ]
    }

    fn assert_marginals_identical(a: &Marginal, b: &Marginal) {
        assert_eq!(a.num_cells(), b.num_cells());
        for ((ka, sa), (kb, sb)) in a.iter().zip(b.iter()) {
            assert_eq!(ka, kb);
            assert_eq!(sa, sb);
        }
        assert_eq!(a.content_digest(), b.content_digest());
    }

    #[test]
    fn sharded_marginals_are_bit_identical_to_flat_index() {
        let d = dataset();
        let flat = flat(&d);
        let region = RegionShardedIndex::build(&d);
        assert!(region.num_shards() > 1, "universe must span states");
        let sharded = DatasetIndex::Sharded(Arc::new(region));
        assert_eq!(sharded.num_workers(), flat.num_workers());
        assert_eq!(sharded.num_establishments(), flat.num_establishments());
        for spec in &specs() {
            for threads in [1, 2, 7] {
                assert_marginals_identical(
                    &sharded.marginal_sharded(spec, threads),
                    &flat.marginal_sharded(spec, 1),
                );
            }
        }
    }

    #[test]
    fn sharded_expr_marginals_match_flat_index() {
        let d = dataset();
        let spec = MarginalSpec::new(
            vec![WorkplaceAttr::Naics],
            vec![WorkerAttr::Age, WorkerAttr::Education],
        );
        // A workplace leaf resolves against each shard's own columns.
        let expr = FilterExpr::sex(Sex::Female).and(FilterExpr::in_state(lodes::StateId(1)));
        let reference = flat(&d).marginal_expr_sharded(&spec, &expr, 1);
        assert!(reference.total() > 0);
        for threads in [1, 3] {
            let e = sharded(&d).marginal_expr_sharded(&spec, &expr, threads);
            assert_marginals_identical(&e, &reference);
        }
    }

    #[test]
    fn streaming_build_equals_dataset_build() {
        let d = dataset();
        // Stream establishments in dataset order through the builder …
        let built = sharded(&d);
        // … and again by hand in *reverse* order: the per-shard CSR
        // layout changes, but tabulations must not.
        let (offsets, order) = d.workers_by_employer();
        let mut builder = RegionIndexBuilder::new(d.geography());
        for (e, wp) in d.workplaces().iter().enumerate().rev() {
            let buf: Vec<Worker> = order[offsets[e] as usize..offsets[e + 1] as usize]
                .iter()
                .map(|&w| *d.worker(WorkerId(w)))
                .collect();
            builder.push_establishment(wp, &buf);
        }
        assert_eq!(builder.num_workers(), d.num_workers());
        assert_eq!(builder.num_establishments(), d.num_workplaces());
        let reversed = DatasetIndex::Sharded(Arc::new(builder.finish()));
        let spec = MarginalSpec::new(
            vec![WorkplaceAttr::County, WorkplaceAttr::Naics],
            vec![WorkerAttr::Sex],
        );
        assert_marginals_identical(
            &built.marginal_sharded(&spec, 2),
            &reversed.marginal_sharded(&spec, 2),
        );
    }

    #[test]
    fn sharded_flows_are_bit_identical_to_flat_pair() {
        let p = DatasetPanel::generate(
            &GeneratorConfig::test_small(23),
            &PanelConfig {
                quarters: 2,
                growth_sigma: 0.1,
                death_rate: 0.05,
                seed: 7,
            },
        );
        let (flat_b, flat_a) = (flat(p.quarter(0)), flat(p.quarter(1)));
        let (shard_b, shard_a) = (sharded(p.quarter(0)), sharded(p.quarter(1)));
        let spec = MarginalSpec::new(vec![WorkplaceAttr::County, WorkplaceAttr::Naics], vec![]);
        let flat = flat_b.flows_sharded(&flat_a, &spec, 1);
        for threads in [1, 2, 5] {
            let sharded = shard_b.flows_sharded(&shard_a, &spec, threads);
            assert_eq!(sharded, flat);
            assert_eq!(sharded.content_digest(), flat.content_digest());
        }
        // The filtered path agrees too.
        let expr = FilterExpr::sex(Sex::Male);
        let filtered_flat = flat_b.flows_expr_sharded(&flat_a, &spec, &expr, 1);
        let filtered_sharded = shard_b.flows_expr_sharded(&shard_a, &spec, &expr, 2);
        assert_eq!(filtered_sharded, filtered_flat);
    }

    #[test]
    #[should_panic(expected = "same index representation")]
    fn flows_refuse_mixed_representations() {
        let d = dataset();
        let spec = MarginalSpec::new(vec![WorkplaceAttr::Naics], vec![]);
        flat(&d).flows_sharded(&sharded(&d), &spec, 1);
    }

    #[test]
    fn dataset_index_dispatch_chooses_representation_and_agrees() {
        let d = dataset();
        let single = flat(&d);
        assert!(!single.is_sharded());
        let sharded = sharded(&d);
        assert!(sharded.is_sharded());
        assert_eq!(single.num_workers(), sharded.num_workers());
        let spec = MarginalSpec::new(vec![WorkplaceAttr::Place], vec![WorkerAttr::Sex]);
        assert_marginals_identical(
            &single.marginal_sharded(&spec, 2),
            &sharded.marginal_sharded(&spec, 2),
        );
    }

    #[test]
    fn single_state_universe_never_auto_shards() {
        let d = Generator::new(GeneratorConfig {
            states: 1,
            ..GeneratorConfig::test_small(3)
        })
        .generate();
        // Even a zero threshold keeps the flat index for one state.
        let idx = DatasetIndex::build_with_threshold(&d, 0);
        assert!(!idx.is_sharded());
    }

    #[test]
    fn one_shard_plan_is_the_flat_shard_bounds() {
        let d = dataset();
        let index = TabulationIndex::build(&d);
        for threads in [1, 2, 5, 64] {
            let windows: Vec<(usize, usize)> = plan_tasks(&[&index], threads)
                .iter()
                .map(|t| (t.lo, t.hi))
                .collect();
            let bounds = index.shard_bounds(threads);
            let expected: Vec<(usize, usize)> = bounds.windows(2).map(|w| (w[0], w[1])).collect();
            assert_eq!(windows, expected);
        }
    }

    /// Every state shard gets at least one window, so a many-state index
    /// has more tasks than a small thread cap; the grouping must still
    /// run them on at most `threads` workers, each task exactly once.
    #[test]
    fn tasks_run_on_at_most_the_thread_cap() {
        let d = Generator::new(GeneratorConfig {
            states: 6,
            ..GeneratorConfig::test_small(11)
        })
        .generate();
        let DatasetIndex::Sharded(region) = sharded(&d) else {
            panic!("test universe must shard");
        };
        let shards: Vec<&TabulationIndex> = region.shards.iter().map(|s| &s.index).collect();
        let tasks = plan_tasks(&shards, 2);
        assert!(tasks.len() > 2, "every shard gets a window");
        let weights: Vec<usize> = tasks
            .iter()
            .map(|t| shards[t.shard].workers_between(t.lo, t.hi))
            .collect();
        for workers in 1..=tasks.len() + 2 {
            let groups = assign_tasks(&weights, workers);
            assert_eq!(groups.len(), workers.min(tasks.len()));
            assert!(groups.iter().all(|g| !g.is_empty()));
            // Contiguous cover of every task, in order.
            assert_eq!(groups[0].start, 0);
            assert_eq!(groups.last().unwrap().end, tasks.len());
            assert!(groups.windows(2).all(|w| w[0].end == w[1].start));
        }
        // Weight balance: no group of two carries more than the heaviest
        // task over an even split.
        let total: usize = weights.iter().sum();
        let heaviest = *weights.iter().max().unwrap();
        for g in assign_tasks(&weights, 2) {
            let w: usize = weights[g].iter().sum();
            assert!(w <= total / 2 + heaviest, "group weight {w} of {total}");
        }
        // Degenerate inputs.
        assert_eq!(assign_tasks(&[], 4), vec![0..0]);
        assert_eq!(assign_tasks(&[5, 0, 7], 8), vec![0..1, 1..2, 2..3]);
        assert_eq!(assign_tasks(&[5, 0, 7], 1), vec![0..3]);
    }
}
