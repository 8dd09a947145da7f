//! Driving the real service over loopback through `eree_service::Client`:
//! start-up, set-up, the closed-loop timed phase, and the per-release
//! output checks that need the response in hand.

use crate::plan::{generator_config, panel_config, Plan, Req};
use crate::trace::{Ctx, Fnv, Tracer};
use eree_core::accountant::ReleaseCost;
use eree_core::agency::panel_quarter_seed;
use eree_core::engine::{ArtifactPayload, ReleaseArtifact, RequestKind, RequestProvenance};
use eree_core::public_cache::ReleaseKey;
use eree_core::store::{dataset_digest, dataset_pair_digest};
use eree_service::{Client, ClientError, ReleaseService, ReleaseStatusView, ServiceConfig};
use lodes::{Dataset, DatasetPanel, Generator};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};
use tabulate::FilterExpr;

/// Poll schedule for queued releases: first poll 1 ms after the submit
/// returns, doubling to a 4 ms ceiling. The benchmark's own bounded
/// backoff — `Client::wait_for` sleeps a fixed 10 ms, which would
/// quantize every fresh-release latency.
const POLL_FIRST: Duration = Duration::from_millis(1);
const POLL_MAX: Duration = Duration::from_millis(4);
/// A release still queued this long after its submit counts as failed
/// (timed out).
const POLL_DEADLINE: Duration = Duration::from_secs(60);

/// The data a service serves: one snapshot or a quarterly panel.
#[derive(Clone)]
pub enum Data {
    Single(Dataset),
    Panel(DatasetPanel),
}

impl Data {
    /// Generate the served universe of a plan (a pure function of the
    /// workload).
    pub fn generate(panel: bool) -> Self {
        if panel {
            Data::Panel(DatasetPanel::generate(&generator_config(), &panel_config()))
        } else {
            Data::Single(Generator::new(generator_config()).generate())
        }
    }

    pub fn quarters(&self) -> &[Dataset] {
        match self {
            Data::Single(d) => std::slice::from_ref(d),
            Data::Panel(p) => p.snapshots(),
        }
    }

    pub fn jobs(&self) -> usize {
        self.quarters().iter().map(Dataset::num_jobs).sum()
    }

    /// Start a service on `dir` serving this data.
    pub fn start(self, dir: &Path, plan: &Plan) -> ReleaseService {
        let config = ServiceConfig::new(plan.cap);
        match self {
            Data::Single(d) => ReleaseService::start(dir, d, config),
            Data::Panel(p) => ReleaseService::start_panel(dir, p, config),
        }
        .unwrap_or_else(|e| panic!("service failed to start on {}: {e}", dir.display()))
    }
}

/// The benchmark's own copy of the served data, with the digests the
/// service keys releases by.
pub struct Served {
    pub data: Data,
    pub digests: Vec<u64>,
}

impl Served {
    pub fn new(data: Data) -> Self {
        let digests = data.quarters().iter().map(dataset_digest).collect();
        Self { data, digests }
    }

    /// The digest that keys `req`: its quarter's, or the `(q-1, q)` pair's
    /// for flows.
    pub fn key_digest(&self, req: &Req) -> u64 {
        if req.sub.kind == RequestKind::Flows {
            dataset_pair_digest(self.digests[req.quarter - 1], self.digests[req.quarter])
        } else {
            self.digests[req.quarter]
        }
    }

    /// The seed the service actually uses (panel services rewrite it per
    /// quarter before anything is keyed).
    pub fn effective_seed(&self, req: &Req) -> u64 {
        match self.data {
            Data::Panel(_) => panel_quarter_seed(req.sub.seed, req.quarter),
            Data::Single(_) => req.sub.seed,
        }
    }

    /// The `ReleaseKey` the submission `req` must produce.
    pub fn expected_key(&self, req: &Req) -> ReleaseKey {
        let sub = &req.sub;
        ReleaseKey {
            dataset_digest: self.key_digest(req),
            kind: sub.kind,
            spec: sub.spec.clone(),
            mechanism: sub.mechanism,
            budget: sub.budget,
            budget_is_per_cell: sub.budget_is_per_cell,
            filter: sub.filter.as_ref().map(FilterExpr::normalized),
            integerized: sub.integerize,
            seed: self.effective_seed(req),
        }
    }
}

/// What the checks keep of one artifact (the payload stays out of
/// memory).
#[derive(Debug, Clone, PartialEq)]
pub struct ArtSummary {
    /// Digest of the whole payload, cost and provenance.
    pub fingerprint: u64,
    /// Digest of the sorted published cell keys.
    pub keys: u64,
    pub cells: usize,
    pub cost: ReleaseCost,
    pub provenance: RequestProvenance,
}

/// Digest of a sorted key list.
pub fn keys_digest(mut keys: Vec<u64>) -> u64 {
    keys.sort_unstable();
    let mut h = Fnv::default();
    h.word(keys.len() as u64);
    for k in keys {
        h.word(k);
    }
    h.finish()
}

/// Summarize `artifact`; the `Err` names a violated flow identity.
pub fn summarize(artifact: &ReleaseArtifact) -> Result<ArtSummary, String> {
    let mut h = Fnv::default();
    let keys: Vec<u64> = match &artifact.payload {
        ArtifactPayload::Cells(cells) => {
            for (k, v) in cells {
                h.word(k.0);
                h.word(v.to_bits());
            }
            cells.keys().map(|k| k.0).collect()
        }
        ArtifactPayload::Flows(flows) => {
            for (k, f) in flows {
                // Published flows satisfy E = B + JC − JD exactly: the
                // ending value is derived, never separately noised.
                if f.ending != f.beginning + f.job_creation - f.job_destruction {
                    return Err(format!(
                        "flow cell {} breaks E = B + JC - JD: {} != {} + {} - {}",
                        k.0, f.ending, f.beginning, f.job_creation, f.job_destruction
                    ));
                }
                for w in [k.0, f.beginning.to_bits(), f.job_creation.to_bits()] {
                    h.word(w);
                }
                h.word(f.job_destruction.to_bits());
            }
            flows.keys().map(|k| k.0).collect()
        }
        ArtifactPayload::Shapes(shapes) => {
            h.word(shapes.len() as u64);
            Vec::new()
        }
    };
    h.word(artifact.cost.epsilon.to_bits());
    h.word(artifact.cost.delta.to_bits());
    h.word(artifact.request.seed);
    Ok(ArtSummary {
        fingerprint: h.finish(),
        cells: keys.len(),
        keys: keys_digest(keys),
        cost: artifact.cost,
        provenance: artifact.request.clone(),
    })
}

/// How one attempted release ended.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Stream index (see [`Plan::stream`]).
    pub index: usize,
    pub id: Option<u64>,
    pub cached: bool,
    /// `complete`, `failed`, `refused`, `timeout` or `transport`.
    pub status: String,
    pub error: Option<String>,
    /// Submit → `complete` (or the submit round trip of a cache hit).
    pub latency_ms: f64,
    pub submit_ms: f64,
    pub polls: usize,
    /// Bytes of the receipt and of every `queued` poll body, re-encoded
    /// (measured only when tracing; the final body, which carries the
    /// artifact, is measured after the timed phase).
    pub response_bytes: u64,
    pub art: Option<ArtSummary>,
}

impl Outcome {
    pub fn complete(&self) -> bool {
        self.status == "complete"
    }
}

pub fn encoded_len<T: serde::Serialize>(value: &T) -> u64 {
    serde_json::to_string(value).map_or(0, |s| s.len() as u64)
}

/// Submit one release and follow it to a terminal state.
///
/// A cache hit answers `complete` on the submit; its artifact is then
/// fetched by id (the fetch is not part of its latency). A queued release
/// is polled on the benchmark's backoff schedule; its latency ends at the
/// poll that observes `complete`. `reference` is the artifact a
/// re-submission must return byte for byte.
pub fn run_one(
    client: &Client,
    served: &Served,
    req: &Req,
    index: usize,
    reference: Option<&ReleaseArtifact>,
    tracer: &Tracer,
) -> (Outcome, Option<ReleaseArtifact>) {
    let ctx = Ctx::request(index);
    tracer.span("release", ctx, |ctx| {
        let mut out = Outcome {
            index,
            id: None,
            cached: false,
            status: String::new(),
            error: None,
            latency_ms: 0.0,
            submit_ms: 0.0,
            polls: 0,
            response_bytes: 0,
            art: None,
        };
        let start = Instant::now();
        let receipt = tracer.span("http.submit", ctx, |_| client.submit(&req.season, &req.sub));
        out.submit_ms = start.elapsed().as_secs_f64() * 1e3;
        let receipt = match receipt {
            Ok(r) => r,
            Err(e) => {
                out.status = match e {
                    ClientError::Api { .. } => "refused",
                    _ => "transport",
                }
                .to_string();
                out.error = Some(e.to_string());
                return (out, None);
            }
        };
        if tracer.enabled() {
            out.response_bytes += encoded_len(&receipt);
        }
        out.id = Some(receipt.id);
        out.cached = receipt.cached;
        let view: Result<ReleaseStatusView, String> = if receipt.status == "complete" {
            out.latency_ms = out.submit_ms;
            tracer
                .span("http.fetch", ctx, |_| client.release(receipt.id))
                .map_err(|e| e.to_string())
        } else {
            poll(client, receipt.id, start, &mut out, tracer, ctx)
        };
        let view = match view {
            Ok(v) => v,
            Err(e) => {
                out.status = if e == "timeout" {
                    "timeout"
                } else {
                    "transport"
                }
                .to_string();
                out.error = Some(e);
                return (out, None);
            }
        };
        out.status = view.status.clone();
        out.error = view.error.clone();
        let Some(artifact) = view.artifact else {
            if out.complete() {
                out.status = "failed".to_string();
                out.error = Some("complete release carried no artifact".to_string());
            }
            return (out, None);
        };
        if let Err(why) = check_artifact(served, req, &artifact, reference) {
            out.status = "failed".to_string();
            out.error = Some(why);
            return (out, None);
        }
        match summarize(&artifact) {
            Ok(summary) => out.art = Some(summary),
            Err(why) => {
                out.status = "failed".to_string();
                out.error = Some(why);
            }
        }
        (out, Some(artifact))
    })
}

fn poll(
    client: &Client,
    id: u64,
    start: Instant,
    out: &mut Outcome,
    tracer: &Tracer,
    ctx: Ctx,
) -> Result<ReleaseStatusView, String> {
    let mut wait = POLL_FIRST;
    loop {
        std::thread::sleep(wait);
        let view = tracer
            .span("http.poll", ctx, |_| client.release(id))
            .map_err(|e| e.to_string())?;
        out.polls += 1;
        if view.status != "queued" {
            out.latency_ms = start.elapsed().as_secs_f64() * 1e3;
            return Ok(view);
        }
        if tracer.enabled() {
            out.response_bytes += encoded_len(&view);
        }
        if start.elapsed() > POLL_DEADLINE {
            return Err("timeout".to_string());
        }
        wait = (wait * 2).min(POLL_MAX);
    }
}

/// Checks that need the artifact itself: its provenance reproduces the
/// submission's `ReleaseKey`, and a re-submission returns the original
/// artifact's exact bytes.
fn check_artifact(
    served: &Served,
    req: &Req,
    artifact: &ReleaseArtifact,
    reference: Option<&ReleaseArtifact>,
) -> Result<(), String> {
    let expected = served.expected_key(req);
    if ReleaseKey::of(&artifact.request, expected.dataset_digest).as_ref() != Some(&expected) {
        return Err(format!(
            "artifact provenance ({}) does not reproduce its submission's key",
            artifact.request.description
        ));
    }
    if let Some(reference) = reference {
        // Equal artifacts encode to equal bytes (the encoder is a pure
        // function of the value); the bytes are compared explicitly once
        // per key after the run.
        if artifact != reference {
            return Err("cache hit returned a different artifact".to_string());
        }
    }
    Ok(())
}

/// Create every season of the plan.
pub fn create_seasons(client: &Client, plan: &Plan) {
    for season in &plan.seasons {
        let created = match season.quarter {
            Some(q) => client.create_panel_season(&season.name, season.budget, q),
            None => client.create_season(&season.name, season.budget),
        };
        if let Err(e) = created {
            panic!("creating season {} failed: {e}", season.name);
        }
    }
}

/// The timed phase: one closed-loop thread per client stream. Returns the
/// outcomes in stream order and the wall time of the phase.
pub fn timed_phase(
    client: &Client,
    served: &Served,
    plan: &Plan,
    references: &[ReleaseArtifact],
    tracer: &Tracer,
    sample_queues: bool,
) -> (Vec<Outcome>, f64, u64) {
    let offsets: Vec<usize> = plan
        .clients
        .iter()
        .scan(plan.setup.len(), |next, stream| {
            let at = *next;
            *next += stream.len();
            Some(at)
        })
        .collect();
    let done = AtomicBool::new(false);
    let max_depth = AtomicU64::new(0);
    let start = Instant::now();
    let (outcomes, wall) = std::thread::scope(|scope| {
        // Queue depth sampled from GET /metrics while the clients run
        // (traced runs only: the sampler is load of its own).
        let sampler = sample_queues.then(|| {
            scope.spawn(|| {
                while !done.load(Ordering::Relaxed) {
                    let sampled = tracer.span("http.metrics", Ctx::default(), |_| client.metrics());
                    if let Ok(snapshot) = sampled {
                        let depth = snapshot
                            .service
                            .season_queues
                            .iter()
                            .map(|q| q.depth)
                            .max()
                            .unwrap_or(0);
                        max_depth.fetch_max(depth, Ordering::Relaxed);
                    }
                    std::thread::sleep(Duration::from_millis(100));
                }
            })
        });
        let workers: Vec<_> = plan
            .clients
            .iter()
            .zip(&offsets)
            .map(|(stream, &offset)| {
                scope.spawn(move || {
                    stream
                        .iter()
                        .enumerate()
                        .map(|(i, req)| {
                            let reference = req.repeat_of.map(|r| &references[r]);
                            run_one(client, served, req, offset + i, reference, tracer).0
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let outcomes: Vec<Outcome> = workers
            .into_iter()
            .flat_map(|w| w.join().expect("client thread panicked"))
            .collect();
        let wall = start.elapsed().as_secs_f64();
        done.store(true, Ordering::Relaxed);
        if let Some(s) = sampler {
            s.join().expect("queue sampler panicked");
        }
        (outcomes, wall)
    });
    (outcomes, wall, max_depth.load(Ordering::Relaxed))
}
