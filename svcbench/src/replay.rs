//! The traced layer replay and the reference tabulation.
//!
//! The replay re-runs the request stream of the HTTP run against a fresh
//! agency directory by calling each layer's public functions itself, in
//! the order a season worker does, with one span per call. The reference
//! tabulates each distinct (spec, filter) directly on a `DatasetIndex` of
//! the benchmark's own copy of the data; both the HTTP run's and the
//! replay's artifacts are checked against it.

use crate::drive::{keys_digest, summarize, ArtSummary, Served};
use crate::plan::Plan;
use crate::trace::{Ctx, Tracer};
use eree_core::agency::AgencyStore;
use eree_core::engine::{ReleaseArtifact, ReleaseRequest, RequestKind, TabulationCache};
use eree_core::store::{dataset_pair_digest, panel_digest, SeasonStore};
use eree_core::truths::TruthStore;
use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use tabulate::{DatasetIndex, FlowMarginal, Marginal};

/// A directly tabulated truth.
pub enum Truth {
    Levels(Marginal),
    Flows(FlowMarginal),
}

impl Truth {
    fn keys(&self) -> Vec<u64> {
        match self {
            Truth::Levels(m) => m.iter().map(|(k, _)| k.0).collect(),
            Truth::Flows(f) => f.iter().map(|(k, _)| k.0).collect(),
        }
    }
}

/// Direct tabulations of the benchmark's copy of the data.
pub struct Reference {
    indexes: Vec<DatasetIndex>,
    threads: usize,
    /// Cell-key digest per distinct tabulation.
    keys: HashMap<String, u64>,
}

/// The identity of a tabulation: kind, quarter, spec and normalized
/// filter.
fn tabulation_id(req: &crate::plan::Req) -> String {
    format!(
        "{}|{}|{}|{}",
        req.sub.kind.label(),
        req.quarter,
        serde_json::to_string(&req.sub.spec).expect("spec encodes"),
        serde_json::to_string(&req.sub.filter.as_ref().map(|f| f.normalized()))
            .expect("filter encodes"),
    )
}

impl Reference {
    /// Index every quarter (one `tabulate.index_build` span each).
    pub fn build(served: &Served, tracer: &Tracer) -> Self {
        let indexes = served
            .data
            .quarters()
            .iter()
            .map(|q| {
                tracer.span("tabulate.index_build", Ctx::default(), |_| {
                    DatasetIndex::build_auto(q)
                })
            })
            .collect();
        Self {
            indexes,
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            keys: HashMap::new(),
        }
    }

    pub fn index(&self, quarter: usize) -> &DatasetIndex {
        &self.indexes[quarter]
    }

    pub fn seen(&self, req: &crate::plan::Req) -> bool {
        self.keys.contains_key(&tabulation_id(req))
    }

    /// Tabulate `req`'s truth directly: `tabulate.filter_compile` (the
    /// declarative filter specialized against the index) and
    /// `tabulate.marginal` or `tabulate.flows`.
    pub fn tabulate(&mut self, req: &crate::plan::Req, tracer: &Tracer, ctx: Ctx) -> Truth {
        let q = req.quarter;
        let (spec, filter) = (&req.sub.spec, req.sub.filter.as_ref());
        if let (Some(expr), DatasetIndex::Single(index)) = (filter, &self.indexes[q]) {
            let compiled = tracer.span("tabulate.filter_compile", ctx, |_| expr.compile(index));
            std::hint::black_box(compiled.num_patterns());
        }
        let threads = self.threads;
        let truth = if req.sub.kind == RequestKind::Flows {
            let (before, after) = (&self.indexes[q - 1], &self.indexes[q]);
            Truth::Flows(tracer.span("tabulate.flows", ctx, |_| match filter {
                Some(expr) => before.flows_expr_sharded(after, spec, expr, threads),
                None => before.flows_sharded(after, spec, threads),
            }))
        } else {
            let index = &self.indexes[q];
            Truth::Levels(tracer.span("tabulate.marginal", ctx, |_| match filter {
                Some(expr) => index.marginal_expr_sharded(spec, expr, threads),
                None => index.marginal_sharded(spec, threads),
            }))
        };
        self.keys
            .insert(tabulation_id(req), keys_digest(truth.keys()));
        truth
    }

    /// Digest of the cell keys `req` must publish: one per nonzero (or,
    /// for flows, active) cell of its truth.
    pub fn keys_of(&mut self, req: &crate::plan::Req, tracer: &Tracer) -> u64 {
        if let Some(&digest) = self.keys.get(&tabulation_id(req)) {
            return digest;
        }
        self.tabulate(req, tracer, Ctx::default());
        self.keys[&tabulation_id(req)]
    }
}

/// One season of the replay agency, as a season worker holds it.
struct Season {
    store: SeasonStore,
    plan: Vec<ReleaseRequest>,
    cache: TabulationCache,
}

/// What the replay leaves for the report and the checks.
pub struct ReplayOut {
    /// Per stream index: the replay's artifact summary.
    pub summaries: Vec<ArtSummary>,
    pub agency_open_ms: f64,
    pub store_open_ms: f64,
}

/// Replay `plan`'s stream on a fresh agency under `dir`.
pub fn replay(
    dir: &Path,
    plan: &Plan,
    served: &Served,
    reference: &mut Reference,
    tracer: &Tracer,
) -> Result<ReplayOut, String> {
    let err = |what: &str| {
        let what = what.to_string();
        move |e: eree_core::StoreError| format!("replay: {what}: {e}")
    };
    let root = dir.join("agency");
    let panel = plan.workload.panel();
    let quarters = served.data.quarters();
    let mut agency = tracer
        .span("agency.create", Ctx::default(), |_| {
            if panel {
                AgencyStore::create_panel(&root, plan.cap)
            } else {
                AgencyStore::create(&root, plan.cap)
            }
        })
        .map_err(err("create agency"))?;
    let bound = if panel {
        panel_digest(&served.digests)
    } else {
        served.digests[0]
    };
    agency.bind_dataset(bound).map_err(err("bind dataset"))?;
    let truths: Vec<TruthStore> = served
        .digests
        .iter()
        .map(|&d| agency.truth_store_pinned(d))
        .collect::<Result<_, _>>()
        .map_err(err("open truths"))?;
    // Saves of directly tabulated truths go to a separate directory, so
    // they time a real write without touching the agency's truths.
    let scratch: Vec<TruthStore> = served
        .digests
        .iter()
        .map(|&d| TruthStore::open(dir.join("truths-direct"), d))
        .collect::<Result<_, _>>()
        .map_err(err("open direct truths"))?;
    let cache = agency.release_cache().map_err(err("open public cache"))?;
    let mut seasons: BTreeMap<String, (Season, usize)> = BTreeMap::new();
    for def in &plan.seasons {
        let store = agency
            .create_season(&def.name, def.budget)
            .map_err(err("create season"))?;
        let q = def.quarter.unwrap_or(0) as usize;
        let tabulations = TabulationCache::with_store(truths[q].clone())
            .with_shared_index(reference.index(q).clone());
        let season = Season {
            store,
            plan: Vec::new(),
            cache: tabulations,
        };
        seasons.insert(def.name.clone(), (season, q));
    }
    let mut out = ReplayOut {
        summaries: Vec::with_capacity(plan.setup.len() + plan.timed_len()),
        agency_open_ms: 0.0,
        store_open_ms: 0.0,
    };
    for (index, req) in plan.stream().enumerate() {
        let ctx = Ctx::request(index);
        let artifact = tracer.span("replay", ctx, |ctx| -> Result<ReleaseArtifact, String> {
            let key = served.expected_key(req);
            let hit = tracer.span("public_cache.load", ctx, |_| cache.load(&key));
            if let Some(artifact) = hit {
                return Ok(artifact);
            }
            let (season, q) = seasons
                .get_mut(&req.season)
                .ok_or_else(|| format!("replay: no season {}", req.season))?;
            let q = *q;
            let request = req.sub.to_request().seed(served.effective_seed(req));
            let before = (q > 0).then(|| (&quarters[q - 1], served.digests[q - 1]));
            // The run path's own work beyond engine and record: dataset
            // pins and verification of the persisted prefix against the
            // plan (which is fully persisted here, so nothing executes).
            tracer
                .span("store.run", ctx, |_| {
                    season.store.run_panel_cached_with_digest(
                        before,
                        &quarters[q],
                        served.digests[q],
                        &season.plan,
                        &mut season.cache,
                    )
                })
                .map_err(err("verify season prefix"))?;
            let mut engine = tracer.span("store.engine", ctx, |_| season.store.engine());
            let artifact = tracer
                .span("engine.execute", ctx, |_| match before {
                    Some((before, _)) if req.sub.kind == RequestKind::Flows => engine
                        .execute_flows_cached(before, &quarters[q], &request, &mut season.cache),
                    _ => engine.execute_cached(&quarters[q], &request, &mut season.cache),
                })
                .map_err(|e| format!("replay: engine refused: {e}"))?;
            tracer
                .span("store.record", ctx, |_| {
                    season.store.record(engine.ledger(), &artifact)
                })
                .map_err(err("record"))?;
            season.plan.push(request);
            let last = season.store.completed() - 1;
            let loaded = tracer
                .span("store.load_artifact", ctx, |_| {
                    season.store.load_artifact(last)
                })
                .map_err(err("load artifact"))?;
            tracer
                .span("public_cache.save", ctx, |_| cache.save(&key, &loaded))
                .map_err(err("public cache save"))?;
            if !reference.seen(req) {
                truth_layer(served, req, reference, &truths[q], &scratch[q], tracer, ctx)?;
            }
            Ok(loaded)
        })?;
        let json = tracer.span("json.artifact_encode", ctx, |_| {
            serde_json::to_string(&artifact).expect("artifact encodes")
        });
        let decoded: ReleaseArtifact = tracer
            .span("json.artifact_decode", ctx, |_| serde_json::from_str(&json))
            .map_err(|e| format!("replay: artifact does not decode: {e}"))?;
        if decoded != artifact {
            return Err("replay: artifact changes across a JSON round trip".to_string());
        }
        out.summaries.push(summarize(&artifact)?);
    }
    // Re-open what was written, as a restart does.
    let busiest = seasons
        .iter()
        .max_by_key(|(_, (s, _))| s.store.completed())
        .map(|(name, _)| name.clone())
        .expect("every plan has a season");
    drop(seasons);
    drop(agency);
    let t = std::time::Instant::now();
    let agency = tracer
        .span("agency.open", Ctx::default(), |_| AgencyStore::open(&root))
        .map_err(err("reopen agency"))?;
    out.agency_open_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = std::time::Instant::now();
    let store = tracer
        .span("store.open", Ctx::default(), |_| {
            agency.open_season(&busiest)
        })
        .map_err(err("reopen season"))?;
    out.store_open_ms = t.elapsed().as_secs_f64() * 1e3;
    drop(store);
    Ok(out)
}

/// The truth layer for a tabulation the replay has not seen: load the
/// truth the engine persisted, tabulate it directly, encode it, and save
/// it to the direct-truths store.
fn truth_layer(
    served: &Served,
    req: &crate::plan::Req,
    reference: &mut Reference,
    truths: &TruthStore,
    scratch: &TruthStore,
    tracer: &Tracer,
    ctx: Ctx,
) -> Result<(), String> {
    let (spec, filter) = (&req.sub.spec, req.sub.filter.as_ref());
    let q = req.quarter;
    let pair = (q > 0).then(|| dataset_pair_digest(served.digests[q - 1], served.digests[q]));
    let flows = req.sub.kind == RequestKind::Flows;
    let loaded = tracer.span("truths.load", ctx, |_| {
        if flows {
            truths
                .load_flows(pair.expect("flows have a pair"), spec, filter)
                .is_some()
        } else {
            truths.load(spec, filter).is_some()
        }
    });
    if !loaded {
        return Err(format!(
            "replay: the engine's persisted truth for {} did not load",
            spec.name()
        ));
    }
    let truth = reference.tabulate(req, tracer, ctx);
    let saved = match &truth {
        Truth::Levels(m) => {
            let json = tracer.span("json.truth_encode", ctx, |_| serde_json::to_string(m));
            std::hint::black_box(json.map(|j| j.len()).unwrap_or(0));
            tracer.span("truths.save", ctx, |_| scratch.save(spec, filter, m))
        }
        Truth::Flows(f) => {
            let json = tracer.span("json.truth_encode", ctx, |_| serde_json::to_string(f));
            std::hint::black_box(json.map(|j| j.len()).unwrap_or(0));
            let pair = pair.expect("flows have a pair");
            tracer.span("truths.save", ctx, |_| {
                scratch.save_flows(pair, spec, filter, f)
            })
        }
    };
    saved.map_err(|e| format!("replay: saving a direct truth failed: {e}"))
}
