//! Marginal (GROUP BY) query engine over linked ER-EE data.
//!
//! Definition 2.1 of the paper: the marginal query `q_V(D)` returns one
//! count per cell of the cross-product domain of the grouping attributes
//! `V = V_I ∪ V_W` (worker attributes and workplace attributes), evaluated
//! over the joined `WorkerFull` relation —
//! `SELECT COUNT(*) FROM D GROUP BY V`.
//!
//! Beyond raw counts, every released cell carries the metadata the privacy
//! mechanisms need:
//!
//! * `max_establishment` — `x_v`, the largest contribution of any single
//!   establishment to the cell. Lemma 8.5 shows the smooth sensitivity of a
//!   count under (α,ε)-ER-EE privacy is `max(x_v·α, 1)`, so the Smooth
//!   Gamma and Smooth Laplace mechanisms consume this value directly.
//! * `establishments` — the number of contributing establishments (used by
//!   the SDL attack demonstrations, which need singleton-establishment
//!   cells).
//!
//! Evaluation runs on a columnar, employer-grouped [`TabulationIndex`]
//! (CSR worker ranges + pre-extracted attribute code columns), built once
//! per dataset — or once per state at national scale — and shared across
//! every tabulation of it. [`DatasetIndex`] is the one evaluator over both
//! representations: the establishment loop of every shard splits into
//! windows on at most `threads` scoped workers, and the sorted per-window
//! runs merge deterministically. The engine is deterministic: cells
//! live in a `Vec` sorted by packed key, so iteration order (and
//! therefore experiment output) is stable across runs *and* bit-identical
//! at any thread count.
//!
//! Sub-population workloads (Ranking 2, OnTheMap-style extracts) restrict
//! the tabulated population with a declarative [`FilterExpr`] — a
//! serializable AST over worker and workplace attributes with a stable
//! content digest ([`FilterId`]) — compiled against each index shard into
//! a [`CompiledFilter`] of per-establishment truth tables; see [`filter`].

// Marginals, specs, filters, and the index are agency-facing API surface;
// undocumented additions fail `cargo doc -D warnings` in CI.
#![warn(missing_docs)]

pub mod area;
pub mod attr;
pub mod cell;
pub mod engine;
pub mod filter;
pub mod flows;
pub mod index;
pub mod kernel;
pub mod marginal;
pub mod region;
pub mod strata;
pub mod workload;

pub use area::{area_comparison, validate_disjoint, AreaSelection, OverlapError};
pub use attr::{Attr, MarginalSpec, WorkerAttr, WorkplaceAttr};
pub use cell::{CellKey, CellSchema};
pub use engine::compute_marginal;
#[cfg(feature = "reference")]
pub use engine::{compute_marginal_filtered_legacy, compute_marginal_legacy};
pub use filter::{Cmp, CompiledFilter, FilterExpr, FilterId};
#[cfg(feature = "reference")]
pub use flows::compute_flows_legacy;
pub use flows::{compute_flows, FlowMarginal, FlowStats};
pub use index::{IndexBuilder, TabulationIndex};
pub use kernel::{simd_available, Kernel};
pub use marginal::{CellStats, Marginal};
pub use region::{DatasetIndex, RegionIndexBuilder, RegionShardedIndex};
pub use strata::stratify_by_place_size;
pub use workload::{ranking2_expr, ranking2_filter, workload1, workload2, workload3};
