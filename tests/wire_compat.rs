//! Wire-compatibility fixtures: JSON written before a field existed must
//! keep reading, with the field at its documented default.
//!
//! Ledgers, manifests, provenance, audit views and metrics snapshots are
//! long-lived: a publisher reopens directories written by older builds,
//! and tenants send bodies shaped by older clients. Each fixture below
//! drops (or nulls) one optional field and checks what it reads as. The
//! two golden strings pin the byte layout of a serialized
//! [`RequestProvenance`] and [`MetricsSnapshot`], so key names and key
//! order cannot drift unnoticed.
//!
//! The private season and agency manifests have the same fixtures as unit
//! tests next to their definitions.

use eree_core::definitions::PrivacyParams;
use eree_core::engine::{RequestKind, RequestProvenance, TabulationStats};
use eree_core::mechanisms::MechanismKind;
use eree_core::metrics::{
    CacheSnapshot, FamilySnapshot, LatencySnapshot, MetricsSnapshot, ReasonCount, SeasonQueue,
    ServiceSnapshot,
};
use eree_core::SeasonSummary;
use eree_service::{AuditView, ReleaseSubmission, SeasonCreate};
use serde::{Serialize, Value};
use tabulate::{MarginalSpec, WorkerAttr, WorkplaceAttr};

/// `value` as compact JSON with the top-level key `key` removed.
fn without(value: &impl Serialize, key: &str) -> String {
    match value.to_value() {
        Value::Map(mut entries) => {
            let before = entries.len();
            entries.retain(|(k, _)| k != key);
            assert_eq!(entries.len() + 1, before, "fixture has no key `{key}`");
            serde_json::to_string(&Value::Map(entries)).unwrap()
        }
        other => panic!("expected an object, got {other:?}"),
    }
}

/// `value` as compact JSON with the top-level key `key` set to `null`.
fn with_null(value: &impl Serialize, key: &str) -> String {
    match value.to_value() {
        Value::Map(mut entries) => {
            let slot = entries
                .iter_mut()
                .find(|(k, _)| k == key)
                .unwrap_or_else(|| panic!("fixture has no key `{key}`"));
            slot.1 = Value::Null;
            serde_json::to_string(&Value::Map(entries)).unwrap()
        }
        other => panic!("expected an object, got {other:?}"),
    }
}

fn budget() -> PrivacyParams {
    PrivacyParams::pure(0.1, 0.5)
}

fn spec() -> MarginalSpec {
    MarginalSpec::new(vec![WorkplaceAttr::County], vec![WorkerAttr::Sex])
}

fn summary(closed: bool) -> SeasonSummary {
    SeasonSummary {
        name: "q1".to_string(),
        budget: budget(),
        spent_epsilon: 0.25,
        spent_delta: 0.0,
        completed: 2,
        materialized: true,
        closed,
    }
}

fn provenance() -> RequestProvenance {
    RequestProvenance {
        kind: RequestKind::Marginal,
        spec: spec(),
        mechanism: MechanismKind::LogLaplace,
        budget: budget(),
        budget_is_per_cell: false,
        seed: 7,
        filtered: false,
        filter: None,
        integerized: true,
        description: "county x sex".to_string(),
    }
}

/// A small snapshot with every nested type populated at least once.
fn snapshot() -> MetricsSnapshot {
    MetricsSnapshot {
        format: 1,
        epsilon_cap: 2.0,
        epsilon_reserved: 1.5,
        epsilon_spent: 0.25,
        epsilon_remaining: 0.5,
        epsilon_refunded: 0.0,
        families: vec![FamilySnapshot {
            family: "marginal".to_string(),
            accepted_total: 3,
            denied_total: 1,
            denied_by_reason: vec![ReasonCount {
                reason: "epsilon_exhausted".to_string(),
                denied: 1,
            }],
            epsilon_spent: 0.25,
            delta_spent: 0.0,
            epsilon_remaining: 0.5,
            latency: LatencySnapshot {
                count: 3,
                sum_micros: 1200,
                le_micros: vec![100, 1000],
                counts: vec![1, 2, 0],
            },
        }],
        caches: CacheSnapshot {
            truth_memory_hits: 1,
            truth_disk_hits: 2,
            truth_computed: 3,
            truth_self_heals: 0,
            public_hits: 4,
            public_misses: 5,
            public_self_heals: 0,
        },
        service: ServiceSnapshot {
            http_2xx: 9,
            http_4xx: 1,
            http_5xx: 0,
            worker_spawns: 1,
            worker_retirements: 0,
            releases_enqueued: 4,
            releases_executed: 4,
            queue_depth: 0,
            persist_failures: 0,
            season_queues: vec![SeasonQueue {
                season: "q1".to_string(),
                depth: 0,
            }],
        },
        flushes: 2,
    }
}

#[test]
fn season_summary_without_closed_reads_open() {
    let back: SeasonSummary = serde_json::from_str(&without(&summary(true), "closed")).unwrap();
    assert_eq!(back, summary(false));
    // Every other field stays required.
    assert!(serde_json::from_str::<SeasonSummary>(&without(&summary(false), "completed")).is_err());
    // A present value must still have the right type.
    assert!(serde_json::from_str::<SeasonSummary>(
        &serde_json::to_string(&summary(false))
            .unwrap()
            .replace("\"closed\":false", "\"closed\":\"no\"")
    )
    .is_err());
}

#[test]
fn audit_without_metrics_reads_a_default_snapshot() {
    let audit = AuditView {
        cap: PrivacyParams::pure(0.1, 2.0),
        reserved_epsilon: 0.5,
        remaining_epsilon: 1.5,
        refunded_epsilon: 0.0,
        spent_epsilon: 0.25,
        seasons: vec![summary(false)],
        releases: 3,
        cache_hits: 1,
        cache_entries: 2,
        tabulations: TabulationStats {
            computed: 1,
            hits: 1,
            disk_hits: 0,
        },
        metrics: snapshot(),
    };
    for json in [without(&audit, "metrics"), with_null(&audit, "metrics")] {
        let back: AuditView = serde_json::from_str(&json).unwrap();
        assert_eq!(back.metrics, MetricsSnapshot::default());
        assert_eq!(back.seasons, audit.seasons);
        assert_eq!(back.releases, 3);
    }
    assert!(serde_json::from_str::<AuditView>(&without(&audit, "releases")).is_err());
}

#[test]
fn season_create_without_quarter_is_single_snapshot() {
    let create: SeasonCreate =
        serde_json::from_str(r#"{"name":"q1","budget":{"alpha":0.1,"epsilon":0.5,"delta":0.0}}"#)
            .unwrap();
    assert_eq!(create.name, "q1");
    assert_eq!(create.budget, budget());
    assert_eq!(create.quarter, None);
    let nulled: SeasonCreate = serde_json::from_str(
        r#"{"name":"q1","budget":{"alpha":0.1,"epsilon":0.5,"delta":0.0},"quarter":null}"#,
    )
    .unwrap();
    assert_eq!(nulled.quarter, None);
    let bound: SeasonCreate = serde_json::from_str(
        r#"{"name":"q1","budget":{"alpha":0.1,"epsilon":0.5,"delta":0.0},"quarter":3}"#,
    )
    .unwrap();
    assert_eq!(bound.quarter, Some(3));
    assert!(serde_json::from_str::<SeasonCreate>(r#"{"name":"q1"}"#).is_err());
}

fn minimal_submission() -> String {
    let spec = serde_json::to_string(&spec()).unwrap();
    let mechanism = serde_json::to_string(&MechanismKind::LogLaplace).unwrap();
    let budget = serde_json::to_string(&budget()).unwrap();
    format!(r#"{{"spec":{spec},"mechanism":{mechanism},"budget":{budget}}}"#)
}

#[test]
fn minimal_submission_takes_every_documented_default() {
    let submission: ReleaseSubmission = serde_json::from_str(&minimal_submission()).unwrap();
    assert_eq!(submission.kind, RequestKind::Marginal);
    assert_eq!(submission.spec, spec());
    assert_eq!(submission.mechanism, MechanismKind::LogLaplace);
    assert_eq!(submission.budget, budget());
    assert!(!submission.budget_is_per_cell);
    assert_eq!(submission.filter, None);
    assert!(!submission.integerize);
    assert_eq!(submission.seed, 0);
    assert_eq!(submission.description, None);
    // The three identity fields stay required.
    for key in ["spec", "mechanism", "budget"] {
        let full: Value = serde_json::from_str(&minimal_submission()).unwrap();
        let json = without(&full, key);
        assert!(
            serde_json::from_str::<ReleaseSubmission>(&json).is_err(),
            "a submission without `{key}` must be refused"
        );
    }
}

#[test]
fn null_optional_submission_fields_read_as_their_defaults() {
    let base = minimal_submission();
    let body = |extra: &str| format!("{},{extra}}}", &base[..base.len() - 1]);
    let seeded: ReleaseSubmission = serde_json::from_str(&body(r#""seed":null"#)).unwrap();
    assert_eq!(seeded.seed, 0);
    let all_null: ReleaseSubmission = serde_json::from_str(&body(
        r#""kind":null,"budget_is_per_cell":null,"filter":null,"integerize":null,"description":null"#,
    ))
    .unwrap();
    assert_eq!(all_null.kind, RequestKind::Marginal);
    assert!(!all_null.budget_is_per_cell);
    assert_eq!(all_null.filter, None);
    assert!(!all_null.integerize);
    assert_eq!(all_null.description, None);
    // Present values land.
    let explicit: ReleaseSubmission =
        serde_json::from_str(&body(r#""kind":"Shapes","seed":9,"integerize":true"#)).unwrap();
    assert_eq!(explicit.kind, RequestKind::Shapes);
    assert_eq!(explicit.seed, 9);
    assert!(explicit.integerize);
    // A present value of the wrong type is still refused.
    assert!(serde_json::from_str::<ReleaseSubmission>(&body(r#""seed":"7""#)).is_err());
}

#[test]
fn provenance_without_filter_reads_unfiltered_expression() {
    let back: RequestProvenance = serde_json::from_str(&without(&provenance(), "filter")).unwrap();
    assert_eq!(back, provenance());
    // Pre-AST filtered artifacts: the boolean survives, the expression is
    // unknown.
    let mut filtered = provenance();
    filtered.filtered = true;
    let back: RequestProvenance = serde_json::from_str(&without(&filtered, "filter")).unwrap();
    assert!(back.filtered);
    assert_eq!(back.filter, None);
    // Every other provenance field stays required.
    assert!(serde_json::from_str::<RequestProvenance>(&without(&provenance(), "seed")).is_err());
}

#[test]
fn metrics_snapshot_reads_empty_and_partial_objects() {
    let empty: MetricsSnapshot = serde_json::from_str("{}").unwrap();
    assert_eq!(empty, MetricsSnapshot::default());
    let partial: MetricsSnapshot = serde_json::from_str(
        r#"{"epsilon_cap":4.0,"flushes":null,
            "families":[{"family":"marginal","accepted_total":7,"latency":{"count":2}}],
            "caches":{"public_hits":3},
            "service":{"http_2xx":5,"season_queues":[{"season":"q1"}]}}"#,
    )
    .unwrap();
    let default = MetricsSnapshot::default();
    assert_eq!(partial.format, default.format);
    assert_eq!(partial.epsilon_cap, 4.0);
    assert_eq!(partial.flushes, 0);
    assert_eq!(partial.families.len(), 1);
    let family = &partial.families[0];
    assert_eq!(family.family, "marginal");
    assert_eq!(family.accepted_total, 7);
    assert_eq!(family.denied_total, 0);
    assert!(family.denied_by_reason.is_empty());
    assert_eq!(family.latency.count, 2);
    assert!(family.latency.le_micros.is_empty());
    assert_eq!(
        partial.caches,
        CacheSnapshot {
            public_hits: 3,
            ..CacheSnapshot::default()
        }
    );
    assert_eq!(partial.service.http_2xx, 5);
    assert_eq!(partial.service.persist_failures, 0);
    assert_eq!(
        partial.service.season_queues,
        vec![SeasonQueue {
            season: "q1".to_string(),
            depth: 0
        }]
    );
    // A present value of the wrong type is still refused.
    assert!(serde_json::from_str::<MetricsSnapshot>(r#"{"flushes":"two"}"#).is_err());
}

#[test]
fn provenance_byte_layout_is_pinned() {
    let mut filtered = provenance();
    filtered.filtered = true;
    filtered.filter = Some(tabulate::FilterExpr::WorkerCmp(
        WorkerAttr::Sex,
        tabulate::Cmp::Eq,
        1,
    ));
    assert_eq!(
        serde_json::to_string(&provenance()).unwrap(),
        PROVENANCE_GOLDEN,
    );
    assert_eq!(
        serde_json::to_string(&filtered).unwrap(),
        FILTERED_PROVENANCE_GOLDEN,
    );
    let back: RequestProvenance = serde_json::from_str(FILTERED_PROVENANCE_GOLDEN).unwrap();
    assert_eq!(back, filtered);
}

#[test]
fn metrics_snapshot_byte_layout_is_pinned() {
    assert_eq!(serde_json::to_string(&snapshot()).unwrap(), METRICS_GOLDEN);
    let back: MetricsSnapshot = serde_json::from_str(METRICS_GOLDEN).unwrap();
    assert_eq!(back, snapshot());
}

const PROVENANCE_GOLDEN: &str = concat!(
    r#"{"kind":"Marginal","spec":{"workplace_attrs":["County"],"worker_attrs":["Sex"]},"#,
    r#""mechanism":"LogLaplace","budget":{"alpha":0.1,"epsilon":0.5,"delta":0.0},"#,
    r#""budget_is_per_cell":false,"seed":7,"filtered":false,"filter":null,"#,
    r#""integerized":true,"description":"county x sex"}"#,
);
const FILTERED_PROVENANCE_GOLDEN: &str = concat!(
    r#"{"kind":"Marginal","spec":{"workplace_attrs":["County"],"worker_attrs":["Sex"]},"#,
    r#""mechanism":"LogLaplace","budget":{"alpha":0.1,"epsilon":0.5,"delta":0.0},"#,
    r#""budget_is_per_cell":false,"seed":7,"filtered":true,"#,
    r#""filter":{"WorkerCmp":["Sex","Eq",1]},"#,
    r#""integerized":true,"description":"county x sex"}"#,
);
const METRICS_GOLDEN: &str = concat!(
    r#"{"format":1,"epsilon_cap":2.0,"epsilon_reserved":1.5,"epsilon_spent":0.25,"#,
    r#""epsilon_remaining":0.5,"epsilon_refunded":0.0,"#,
    r#""families":[{"family":"marginal","accepted_total":3,"denied_total":1,"#,
    r#""denied_by_reason":[{"reason":"epsilon_exhausted","denied":1}],"#,
    r#""epsilon_spent":0.25,"delta_spent":0.0,"epsilon_remaining":0.5,"#,
    r#""latency":{"count":3,"sum_micros":1200,"le_micros":[100,1000],"counts":[1,2,0]}}],"#,
    r#""caches":{"truth_memory_hits":1,"truth_disk_hits":2,"truth_computed":3,"#,
    r#""truth_self_heals":0,"public_hits":4,"public_misses":5,"public_self_heals":0},"#,
    r#""service":{"http_2xx":9,"http_4xx":1,"http_5xx":0,"worker_spawns":1,"#,
    r#""worker_retirements":0,"releases_enqueued":4,"releases_executed":4,"#,
    r#""queue_depth":0,"persist_failures":0,"season_queues":[{"season":"q1","depth":0}]},"#,
    r#""flushes":2}"#,
);
