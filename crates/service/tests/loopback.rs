//! Loopback integration test for the release service: concurrent tenants
//! over one agency, cap enforcement end to end, the public cache's
//! zero-ε repeat path, the agency write lease, durable replay across a
//! stop/start cycle, served artifacts against the season store, seasons
//! holding pre-AST artifacts, and counted best-effort write failures.

use eree_core::agency::AgencyStore;
use eree_core::definitions::PrivacyParams;
use eree_core::engine::{ReleaseRequest, RequestKind};
use eree_core::mechanisms::MechanismKind;
use eree_core::store::write_json_atomic;
use eree_core::StoreError;
use eree_service::{Client, ReleaseService, ReleaseSubmission, ServiceConfig};
use lodes::{Dataset, Generator, GeneratorConfig};
use std::fs;
use std::path::PathBuf;
use std::time::Duration;
use tabulate::{ranking2_expr, MarginalSpec, WorkerAttr, WorkplaceAttr};

const ALPHA: f64 = 0.1;
const WAIT: Duration = Duration::from_secs(60);

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("eree-service-it-{name}"));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn dataset() -> Dataset {
    Generator::new(GeneratorConfig::test_small(55)).generate()
}

fn county() -> MarginalSpec {
    MarginalSpec::new(vec![WorkplaceAttr::County], vec![])
}

fn county_by_sector() -> MarginalSpec {
    MarginalSpec::new(vec![WorkplaceAttr::County], vec![WorkerAttr::Age])
}

fn submission(spec: MarginalSpec, epsilon: f64, seed: u64) -> ReleaseSubmission {
    ReleaseSubmission {
        kind: RequestKind::Marginal,
        spec,
        mechanism: MechanismKind::LogLaplace,
        budget: PrivacyParams::pure(ALPHA, epsilon),
        budget_is_per_cell: false,
        filter: None,
        integerize: false,
        seed,
        description: None,
    }
}

#[test]
fn concurrent_tenants_share_one_agency_under_the_cap() {
    let dir = tmp_dir("concurrent");
    let cap = PrivacyParams::pure(ALPHA, 2.0);
    let service =
        ReleaseService::start(&dir, dataset(), ServiceConfig::new(cap)).expect("service starts");
    let client = Client::new(service.addr());

    // While the service runs, the agency directory is write-leased: a
    // second writer (library or service) is refused with a clear error.
    match AgencyStore::open(&dir) {
        Err(StoreError::Locked { holder_pid, .. }) => {
            assert_eq!(holder_pid, std::process::id(), "lease names the holder")
        }
        other => panic!("second writer must be refused, got {other:?}"),
    }

    // Two tenants reserve their seasons up front; a third that would
    // overdraw the agency cap is refused before anything exists.
    client
        .create_season("tenant-a", PrivacyParams::pure(ALPHA, 1.0))
        .expect("tenant-a fits under the cap");
    client
        .create_season("tenant-b", PrivacyParams::pure(ALPHA, 0.8))
        .expect("tenant-b fits under the cap");
    let refused = client.create_season("tenant-c", PrivacyParams::pure(ALPHA, 5.0));
    match refused {
        Err(eree_service::ClientError::Api { status, .. }) => assert_eq!(status, 409),
        other => panic!("over-cap season must 409, got {other:?}"),
    }

    // Both tenants submit concurrently from their own threads. Within a
    // season the worker serializes; across seasons they run in parallel.
    std::thread::scope(|scope| {
        for (season, base_seed) in [("tenant-a", 0xA0u64), ("tenant-b", 0xB0u64)] {
            scope.spawn(move || {
                for i in 0..3u64 {
                    let spec = if i % 2 == 0 {
                        county()
                    } else {
                        county_by_sector()
                    };
                    let receipt = client
                        .submit(season, &submission(spec, 0.25, base_seed + i))
                        .expect("submit accepted");
                    assert!(!receipt.cached, "first-time requests are not cache hits");
                    let done = client.wait_for(receipt.id, WAIT).expect("release finishes");
                    assert_eq!(done.status, "complete", "error: {:?}", done.error);
                    assert_eq!(done.season, season);
                    assert!(
                        done.artifact.is_some(),
                        "completed releases carry artifacts"
                    );
                }
            });
        }
    });

    // The audit view proves the budget hierarchy held under concurrency.
    let audit = client.audit().expect("audit");
    assert!(audit.reserved_epsilon <= cap.epsilon + 1e-9);
    assert_eq!(audit.seasons.len(), 2);
    for season in &audit.seasons {
        assert!(
            season.spent_epsilon <= season.budget.epsilon + 1e-9,
            "season {} spent {} over its {}",
            season.name,
            season.spent_epsilon,
            season.budget.epsilon
        );
        assert_eq!(season.completed, 3);
    }
    let spent_before = audit.spent_epsilon;
    let tabulations_before = audit.tabulations;
    assert!(tabulations_before.computed > 0, "real tabulation happened");
    assert_eq!(audit.cache_hits, 0);
    assert!(audit.cache_entries >= 6, "every release was published");

    // A release over the season's remaining budget fails cleanly — the
    // refusal is an answer, not a crash, and nothing is charged.
    let over = client
        .submit("tenant-a", &submission(county(), 0.9, 0xFF))
        .expect("submission is accepted for queuing");
    let failed = client.wait_for(over.id, WAIT).expect("refusal comes back");
    assert_eq!(failed.status, "failed");
    assert!(failed.error.is_some());

    // Repeat an identical request: answered from the public cache with
    // zero additional ε and zero tabulation — TabulationStats unchanged.
    let repeat = client
        .submit("tenant-a", &submission(county(), 0.25, 0xA0))
        .expect("repeat accepted");
    assert!(repeat.cached, "identical request must be a cache hit");
    assert_eq!(repeat.status, "complete");
    let cached_view = client.release(repeat.id).expect("cached release view");
    assert!(cached_view.cached);
    assert_eq!(cached_view.season, "", "cache hits never resolve a season");
    assert!(
        cached_view.artifact.is_some(),
        "hits carry the full artifact"
    );

    // The cache key ignores the submitting season entirely: the same
    // request "via tenant-b" is also a hit and charges tenant-b nothing.
    let cross = client
        .submit("tenant-b", &submission(county(), 0.25, 0xA0))
        .expect("cross-tenant repeat accepted");
    assert!(cross.cached);

    let audit_after = client.audit().expect("audit after repeats");
    assert_eq!(
        audit_after.spent_epsilon, spent_before,
        "repeats spent zero ε"
    );
    assert_eq!(audit_after.cache_hits, 2);
    assert_eq!(
        audit_after.tabulations.computed, tabulations_before.computed,
        "repeats tabulated nothing"
    );
    assert_eq!(audit_after.tabulations.hits, tabulations_before.hits);
    assert_eq!(
        audit_after.tabulations.disk_hits,
        tabulations_before.disk_hits
    );

    service.shutdown();

    // Shutdown released everything: the agency directory opens first try.
    drop(AgencyStore::open(&dir).expect("lease released on shutdown"));

    // Restart on the same directory: every admission was durable. The
    // meta-ledger, per-season spend, and the public cache all replay.
    let service = ReleaseService::start(&dir, dataset(), ServiceConfig::new(cap))
        .expect("service reopens the same agency");
    let client = Client::new(service.addr());
    let replayed = client.audit().expect("audit after restart");
    assert_eq!(replayed.spent_epsilon, spent_before);
    assert_eq!(replayed.seasons.len(), 2);
    for season in &replayed.seasons {
        assert_eq!(season.completed, 3, "persisted releases replayed");
    }
    let hit = client
        .submit("tenant-a", &submission(county(), 0.25, 0xA0))
        .expect("repeat after restart");
    assert!(hit.cached, "the public cache is durable too");

    // A season resumes: the respawned worker appends release #4 on top
    // of the three its reopened season store verified.
    let fresh = client
        .submit("tenant-a", &submission(county_by_sector(), 0.2, 0xA9))
        .expect("new release after restart");
    assert!(!fresh.cached);
    let done = client
        .wait_for(fresh.id, WAIT)
        .expect("resumed season runs");
    assert_eq!(done.status, "complete", "error: {:?}", done.error);
    let final_audit = client.audit().expect("final audit");
    let tenant_a = final_audit
        .seasons
        .iter()
        .find(|s| s.name == "tenant-a")
        .expect("tenant-a summary");
    assert_eq!(tenant_a.completed, 4);
    assert!(tenant_a.spent_epsilon <= tenant_a.budget.epsilon + 1e-9);
    service.shutdown();

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn bad_requests_never_reach_the_ledger() {
    let dir = tmp_dir("bad-requests");
    let cap = PrivacyParams::pure(ALPHA, 1.0);
    let service =
        ReleaseService::start(&dir, dataset(), ServiceConfig::new(cap)).expect("service starts");
    let client = Client::new(service.addr());

    // Unknown season → 404.
    match client.submit("nope", &submission(county(), 0.1, 1)) {
        Err(eree_service::ClientError::Api { status, .. }) => assert_eq!(status, 404),
        other => panic!("unknown season must 404, got {other:?}"),
    }
    // Duplicate season → 409.
    client
        .create_season("s", PrivacyParams::pure(ALPHA, 0.5))
        .expect("first create");
    match client.create_season("s", PrivacyParams::pure(ALPHA, 0.1)) {
        Err(eree_service::ClientError::Api { status, .. }) => assert_eq!(status, 409),
        other => panic!("duplicate season must 409, got {other:?}"),
    }
    // Unpriceable parameters → 400 before any queue. A zero-ε budget is
    // constructible over the wire (typed constructors refuse it), so it
    // must be refused at the service boundary, not panic a worker.
    let mut bad = submission(county(), 0.1, 1);
    bad.budget = serde_json::from_str(r#"{"alpha":0.1,"epsilon":0.0,"delta":0.0}"#)
        .expect("wire budgets bypass constructor validation");
    match client.submit("s", &bad) {
        Err(eree_service::ClientError::Api { status, .. }) => assert_eq!(status, 400),
        other => panic!("zero-budget must 400, got {other:?}"),
    }
    // Unknown release id → 404.
    match client.release(999) {
        Err(eree_service::ClientError::Api { status, .. }) => assert_eq!(status, 404),
        other => panic!("unknown release must 404, got {other:?}"),
    }

    let audit = client.audit().expect("audit");
    assert_eq!(audit.spent_epsilon, 0.0, "nothing was ever charged");
    service.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn served_artifacts_are_the_persisted_artifacts() {
    let dir = tmp_dir("served-artifacts");
    let cap = PrivacyParams::pure(ALPHA, 2.0);
    let service =
        ReleaseService::start(&dir, dataset(), ServiceConfig::new(cap)).expect("service starts");
    let client = Client::new(service.addr());
    client
        .create_season("s", PrivacyParams::pure(ALPHA, 1.0))
        .expect("season");
    let mut served = Vec::new();
    for (spec, seed) in [(county(), 1), (county_by_sector(), 2)] {
        let receipt = client
            .submit("s", &submission(spec, 0.25, seed))
            .expect("submit");
        let done = client.wait_for(receipt.id, WAIT).expect("release runs");
        assert_eq!(done.status, "complete", "error: {:?}", done.error);
        served.push(done.artifact.expect("completed releases carry artifacts"));
    }
    // A later identical submission is a cache hit serving the same bits.
    let repeat = client
        .submit("s", &submission(county(), 0.25, 1))
        .expect("repeat");
    assert!(repeat.cached);
    let hit = client.release(repeat.id).expect("cache-hit view");
    assert_eq!(hit.artifact.as_ref(), Some(&served[0]));
    service.shutdown();

    // What the worker served is exactly what the season store persisted.
    let agency = AgencyStore::open(&dir).expect("agency reopens");
    let season = agency.open_season("s").expect("season reopens");
    assert_eq!(season.completed(), served.len());
    for (i, artifact) in served.iter().enumerate() {
        assert_eq!(&season.load_artifact(i).expect("persisted"), artifact);
    }
    drop((season, agency));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn seasons_holding_pre_ast_artifacts_are_served() {
    let dir = tmp_dir("pre-ast");
    let cap = PrivacyParams::pure(ALPHA, 2.0);
    {
        let mut agency = AgencyStore::create(&dir, cap).expect("agency");
        drop(
            agency
                .create_season("legacy", PrivacyParams::pure(ALPHA, 1.0))
                .expect("season"),
        );
        let filtered = ReleaseRequest::marginal(county())
            .mechanism(MechanismKind::LogLaplace)
            .budget(PrivacyParams::pure(ALPHA, 0.25))
            .filter_expr(ranking2_expr())
            .seed(1);
        agency
            .run_season("legacy", &dataset(), &[filtered])
            .expect("filtered release");
        // Rewrite the artifact as a store from before the filter AST
        // holds it: flagged filtered, with no expression.
        let season = agency.open_season("legacy").expect("season");
        let mut legacy = season.load_artifact(0).expect("artifact");
        drop(season);
        legacy.request.filter = None;
        let path = dir.join("seasons/legacy/artifacts/000000.json");
        write_json_atomic(&path, &legacy).expect("legacy fixture");
    }

    let service =
        ReleaseService::start(&dir, dataset(), ServiceConfig::new(cap)).expect("service starts");
    let client = Client::new(service.addr());
    let receipt = client
        .submit("legacy", &submission(county(), 0.25, 2))
        .expect("a legacy season accepts submissions");
    let done = client.wait_for(receipt.id, WAIT).expect("release runs");
    assert_eq!(done.status, "complete", "error: {:?}", done.error);
    let audit = client.audit().expect("audit");
    assert_eq!(audit.seasons[0].completed, 2);
    assert!((audit.seasons[0].spent_epsilon - 0.5).abs() < 1e-9);
    assert!(audit.spent_epsilon <= cap.epsilon + 1e-9);
    service.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn failed_registry_writes_are_counted_and_releases_still_complete() {
    let dir = tmp_dir("persist-failures");
    // A directory where the registry file belongs: every rewrite fails.
    fs::create_dir_all(dir.join("releases.json")).expect("blocker");
    let cap = PrivacyParams::pure(ALPHA, 2.0);
    let service =
        ReleaseService::start(&dir, dataset(), ServiceConfig::new(cap)).expect("service starts");
    let client = Client::new(service.addr());
    client
        .create_season("s", PrivacyParams::pure(ALPHA, 1.0))
        .expect("season");
    let receipt = client
        .submit("s", &submission(county(), 0.25, 1))
        .expect("submit");
    let done = client.wait_for(receipt.id, WAIT).expect("release runs");
    assert_eq!(done.status, "complete", "error: {:?}", done.error);
    let failures = client.metrics().expect("metrics").service.persist_failures;
    assert!(failures > 0, "registry write failures went uncounted");
    let text = client.metrics_text().expect("openmetrics");
    assert!(text.contains(&format!("eree_persist_failures_total {failures}\n")));
    service.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

/// Send `request` raw and return the status line of the reply.
fn raw_status(addr: std::net::SocketAddr, request: &[u8]) -> String {
    use std::io::{BufRead as _, BufReader, Write as _};
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    stream.write_all(request).expect("write");
    let mut status = String::new();
    BufReader::new(stream)
        .read_line(&mut status)
        .expect("status line");
    status.trim_end().to_string()
}

#[test]
fn oversized_request_heads_are_refused_with_413() {
    let dir = tmp_dir("head-cap");
    let cap = PrivacyParams::pure(ALPHA, 1.0);
    let service =
        ReleaseService::start(&dir, dataset(), ServiceConfig::new(cap)).expect("service starts");
    let long_path = format!("/{}", "a".repeat(20 * 1024));
    // A request line over the head cap, with or without its line end.
    let request = format!("GET {long_path} HTTP/1.1\r\nHost: s\r\n\r\n");
    assert_eq!(
        raw_status(service.addr(), request.as_bytes()),
        "HTTP/1.1 413 Payload Too Large"
    );
    // The refusal does not wait for the line to end: the client below
    // keeps its connection open and never sends a newline.
    let unterminated = format!("GET {long_path}");
    assert_eq!(
        raw_status(service.addr(), unterminated.as_bytes()),
        "HTTP/1.1 413 Payload Too Large"
    );
    // Headers that overrun the cap together are refused the same way.
    let many_headers = format!(
        "GET /audit HTTP/1.1\r\n{}\r\n",
        "X-Pad: 0123456789abcdef0123456789abcdef\r\n".repeat(500)
    );
    assert_eq!(
        raw_status(service.addr(), many_headers.as_bytes()),
        "HTTP/1.1 413 Payload Too Large"
    );
    // A head under the cap is still served.
    let ok = format!(
        "GET /audit HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
        "b".repeat(8 * 1024)
    );
    assert_eq!(raw_status(service.addr(), ok.as_bytes()), "HTTP/1.1 200 OK");
    service.shutdown();
    let _ = fs::remove_dir_all(&dir);
}
