//! Integration tests for the publication-season store: kill/resume
//! bit-identity, crash-window repair, and refusal of corrupted,
//! tampered, inconsistent, or re-planned stores.

use eree::prelude::*;
use lodes::Dataset;
use std::fs;
use std::path::{Path, PathBuf};

fn test_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("store-resume-{name}"));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn dataset() -> Dataset {
    Generator::new(GeneratorConfig::test_small(41)).generate()
}

fn budget() -> PrivacyParams {
    PrivacyParams::pure(0.1, 11.0)
}

/// A three-release season; the first two share the Workload 1 tabulation.
fn plan() -> Vec<ReleaseRequest> {
    vec![
        ReleaseRequest::marginal(workload1())
            .mechanism(MechanismKind::SmoothGamma)
            .budget(PrivacyParams::pure(0.1, 2.0))
            .describe("R0: workload1 smooth-gamma")
            .seed(1),
        ReleaseRequest::marginal(workload1())
            .mechanism(MechanismKind::LogLaplace)
            .budget(PrivacyParams::pure(0.1, 1.0))
            .describe("R1: workload1 log-laplace")
            .seed(2),
        ReleaseRequest::marginal(workload3())
            .mechanism(MechanismKind::LogLaplace)
            .budget(PrivacyParams::pure(0.1, 8.0))
            .describe("R2: workload3 log-laplace")
            .seed(3),
    ]
}

fn sorted_files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut paths: Vec<_> = fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    paths.sort();
    paths
        .into_iter()
        .map(|p| {
            (
                p.file_name().unwrap().to_string_lossy().into_owned(),
                fs::read(&p).unwrap(),
            )
        })
        .collect()
}

#[test]
fn interrupted_season_resumes_bit_identically() {
    let d = dataset();
    let plan = plan();

    // Reference: uninterrupted season.
    let full_dir = test_dir("bitident-full");
    let mut full = SeasonStore::create(&full_dir, budget()).unwrap();
    let report = full.run(&d, &plan).unwrap();
    assert_eq!(report.executed, 3);
    assert_eq!(report.tabulations_computed, 2, "W1 shared, W3 computed");
    assert_eq!(report.tabulation_hits, 1);

    // Killed after one release, then resumed by a fresh process.
    let cut_dir = test_dir("bitident-cut");
    let mut cut = SeasonStore::create(&cut_dir, budget()).unwrap();
    cut.run(&d, &plan[..1]).unwrap();
    assert_eq!(cut.completed(), 1);
    drop(cut); // the kill

    let mut resumed = SeasonStore::open(&cut_dir).unwrap();
    assert_eq!(resumed.completed(), 1);
    let report = resumed.run(&d, &plan).unwrap();
    assert_eq!(report.resumed_from, 1);
    assert_eq!(report.executed, 2);

    // Bit-identical artifacts and ledger, identical remaining budget.
    assert_eq!(
        sorted_files(&full_dir.join("artifacts")),
        sorted_files(&cut_dir.join("artifacts"))
    );
    assert_eq!(
        fs::read(full_dir.join("ledger.json")).unwrap(),
        fs::read(cut_dir.join("ledger.json")).unwrap()
    );
    assert_eq!(
        resumed.ledger().remaining_epsilon(),
        full.ledger().remaining_epsilon()
    );
    assert_eq!(resumed.ledger().spent_epsilon(), 11.0);

    fs::remove_dir_all(full_dir).unwrap();
    fs::remove_dir_all(cut_dir).unwrap();
}

#[test]
fn corrupted_or_tampered_stores_refuse_to_open() {
    let d = dataset();
    let plan = plan();
    let dir = test_dir("tampered");
    let mut store = SeasonStore::create(&dir, budget()).unwrap();
    store.run(&d, &plan[..2]).unwrap();
    drop(store);
    let ledger_path = dir.join("ledger.json");
    let pristine = fs::read_to_string(&ledger_path).unwrap();

    // Unparseable ledger: refused as corrupt.
    fs::write(&ledger_path, &pristine[..pristine.len() / 2]).unwrap();
    assert!(matches!(
        SeasonStore::open(&dir),
        Err(StoreError::Corrupt { .. })
    ));

    // Understated spend (trying to resume with more budget than is left):
    // the replay cross-check inside ledger deserialization refuses.
    let tampered = pristine.replace("\"spent_epsilon\": 3.0", "\"spent_epsilon\": 1.0");
    assert_ne!(tampered, pristine);
    fs::write(&ledger_path, &tampered).unwrap();
    assert!(matches!(
        SeasonStore::open(&dir),
        Err(StoreError::Corrupt { .. })
    ));

    // Inflated budget: the ledger no longer matches the season manifest.
    let tampered = pristine.replacen("\"epsilon\": 11.0", "\"epsilon\": 100.0", 1);
    assert_ne!(tampered, pristine);
    fs::write(&ledger_path, &tampered).unwrap();
    assert!(matches!(
        SeasonStore::open(&dir),
        Err(StoreError::Inconsistent { .. })
    ));

    // Restored pristine state opens again.
    fs::write(&ledger_path, &pristine).unwrap();
    let store = SeasonStore::open(&dir).unwrap();
    assert_eq!(store.completed(), 2);
    fs::remove_dir_all(dir).unwrap();
}

#[test]
fn artifact_gaps_and_strays_are_refused() {
    let d = dataset();
    let dir = test_dir("gaps");
    let mut store = SeasonStore::create(&dir, budget()).unwrap();
    store.run(&d, &plan()[..2]).unwrap();
    drop(store);

    // Deleting the first artifact leaves a gap: 000001.json without
    // 000000.json can never be trusted as a contiguous season.
    fs::remove_file(dir.join("artifacts").join("000000.json")).unwrap();
    assert!(matches!(
        SeasonStore::open(&dir),
        Err(StoreError::Inconsistent { .. })
    ));

    // A stray non-artifact file is refused as corrupt, not ignored.
    fs::write(dir.join("artifacts").join("notes.json"), "{}").unwrap();
    assert!(matches!(
        SeasonStore::open(&dir),
        Err(StoreError::Corrupt { .. })
    ));
    fs::remove_file(dir.join("artifacts").join("notes.json")).unwrap();

    // A non-zero-padded name is refused even when its index would parse.
    fs::copy(
        dir.join("artifacts").join("000001.json"),
        dir.join("artifacts").join("0.json"),
    )
    .unwrap();
    assert!(matches!(
        SeasonStore::open(&dir),
        Err(StoreError::Corrupt { .. })
    ));
    fs::remove_dir_all(dir).unwrap();
}

#[test]
fn crash_between_artifact_and_ledger_snapshot_rolls_forward() {
    let d = dataset();
    let plan = plan();

    // Reference store: both releases fully recorded.
    let ref_dir = test_dir("crashwin-ref");
    let mut reference = SeasonStore::create(&ref_dir, budget()).unwrap();
    reference.run(&d, &plan[..2]).unwrap();

    // Crashed store: artifact 1 landed but its ledger snapshot did not
    // (the artifact-first write protocol's only in-between state).
    let crash_dir = test_dir("crashwin");
    let mut crashed = SeasonStore::create(&crash_dir, budget()).unwrap();
    crashed.run(&d, &plan[..1]).unwrap();
    drop(crashed);
    fs::copy(
        ref_dir.join("artifacts").join("000001.json"),
        crash_dir.join("artifacts").join("000001.json"),
    )
    .unwrap();

    // Open rolls the ledger forward from the artifact's recorded cost…
    let mut repaired = SeasonStore::open(&crash_dir).unwrap();
    assert_eq!(repaired.completed(), 2);
    assert_eq!(
        repaired.ledger().spent_epsilon(),
        reference.ledger().spent_epsilon()
    );
    // …persisting the repaired snapshot bit-identically to the reference.
    assert_eq!(
        fs::read(crash_dir.join("ledger.json")).unwrap(),
        fs::read(ref_dir.join("ledger.json")).unwrap()
    );
    // The season then resumes as if the crash never happened.
    let report = repaired.run(&d, &plan).unwrap();
    assert_eq!(report.resumed_from, 2);
    assert_eq!(report.executed, 1);
    fs::remove_dir_all(ref_dir).unwrap();
    fs::remove_dir_all(crash_dir).unwrap();

    // A crash-window store whose artifacts ALSO disagree with the ledger
    // is refused — and the refused open leaves every byte untouched (no
    // half-applied roll-forward).
    let bad_dir = test_dir("crashwin-bad");
    let mut bad = SeasonStore::create(&bad_dir, budget()).unwrap();
    bad.run(&d, &plan[..2]).unwrap();
    drop(bad);
    // Simulate the crash window (delete the newest ledger entry by
    // restoring the 1-release snapshot)…
    let one_dir = test_dir("crashwin-bad-one");
    let mut one = SeasonStore::create(&one_dir, budget()).unwrap();
    one.run(&d, &plan[..1]).unwrap();
    drop(one);
    fs::copy(one_dir.join("ledger.json"), bad_dir.join("ledger.json")).unwrap();
    // …and corrupt artifact 0's recorded cost so verification must fail.
    let artifact0 = bad_dir.join("artifacts").join("000000.json");
    let text = fs::read_to_string(&artifact0).unwrap();
    let tampered = text.replace("\"epsilon\": 2.0", "\"epsilon\": 0.25");
    assert_ne!(tampered, text);
    fs::write(&artifact0, tampered).unwrap();
    let ledger_before = fs::read(bad_dir.join("ledger.json")).unwrap();
    assert!(matches!(
        SeasonStore::open(&bad_dir),
        Err(StoreError::Inconsistent { .. })
    ));
    assert_eq!(
        fs::read(bad_dir.join("ledger.json")).unwrap(),
        ledger_before,
        "a refused open must not modify the store"
    );
    fs::remove_dir_all(one_dir).unwrap();
    fs::remove_dir_all(bad_dir).unwrap();
}

#[test]
fn resuming_under_a_different_plan_is_refused() {
    let d = dataset();
    let plan = plan();
    let dir = test_dir("replanned");
    let mut store = SeasonStore::create(&dir, budget()).unwrap();
    store.run(&d, &plan[..1]).unwrap();

    // Same description, different seed: the persisted artifact's
    // provenance no longer matches the plan's first request.
    let mut reseeded = plan.clone();
    reseeded[0] = ReleaseRequest::marginal(workload1())
        .mechanism(MechanismKind::SmoothGamma)
        .budget(PrivacyParams::pure(0.1, 2.0))
        .describe("R0: workload1 smooth-gamma")
        .seed(999);
    assert!(matches!(
        store.run(&d, &reseeded),
        Err(StoreError::Inconsistent { .. })
    ));

    // A plan shorter than what is already persisted is refused too.
    assert!(matches!(
        store.run(&d, &[]),
        Err(StoreError::Inconsistent { .. })
    ));

    // The original plan still resumes.
    let report = store.run(&d, &plan).unwrap();
    assert_eq!(report.resumed_from, 1);
    assert_eq!(report.executed, 2);
    fs::remove_dir_all(dir).unwrap();
}

/// A filtered two-release plan whose sub-population is the declarative
/// `expr` (the S-prefixed canonical style: shared workload1 tabulation,
/// then the filtered county release).
fn filtered_plan(expr: FilterExpr) -> Vec<ReleaseRequest> {
    vec![
        ReleaseRequest::marginal(workload1())
            .mechanism(MechanismKind::SmoothGamma)
            .budget(PrivacyParams::pure(0.1, 2.0))
            .describe("F0: workload1 smooth-gamma")
            .seed(1),
        ReleaseRequest::marginal(workload1())
            .mechanism(MechanismKind::LogLaplace)
            .budget(PrivacyParams::pure(0.1, 1.0))
            .filter_expr(expr)
            .describe("F1: workload1 sub-population")
            .seed(2),
    ]
}

#[test]
fn ast_filtered_season_resumes_bit_identically() {
    let d = dataset();
    let plan = filtered_plan(ranking2_expr());

    // Reference: uninterrupted season.
    let full_dir = test_dir("ast-full");
    let mut full = SeasonStore::create(&full_dir, budget()).unwrap();
    full.run(&d, &plan).unwrap();
    drop(full);

    // Killed after the unfiltered release, resumed by a fresh process
    // with a *separately constructed* (but structurally equal) filter.
    let cut_dir = test_dir("ast-cut");
    let mut cut = SeasonStore::create(&cut_dir, budget()).unwrap();
    cut.run(&d, &plan[..1]).unwrap();
    drop(cut);
    let mut cut = SeasonStore::open(&cut_dir).unwrap();
    let report = cut.run(&d, &filtered_plan(ranking2_expr())).unwrap();
    assert_eq!((report.resumed_from, report.executed), (1, 1));

    // Every persisted byte agrees with the uninterrupted run.
    assert_eq!(
        sorted_files(&full_dir.join("artifacts")),
        sorted_files(&cut_dir.join("artifacts"))
    );
    // And the filter expression is part of the persisted provenance.
    let stored = cut.load_artifact(1).unwrap();
    assert_eq!(stored.request.filter_id(), Some(ranking2_expr().id()));
    fs::remove_dir_all(full_dir).unwrap();
    fs::remove_dir_all(cut_dir).unwrap();
}

#[test]
fn resuming_with_a_changed_filter_digest_is_refused() {
    let d = dataset();
    let dir = test_dir("refiltered");
    let mut store = SeasonStore::create(&dir, budget()).unwrap();
    store.run(&d, &filtered_plan(ranking2_expr())).unwrap();
    drop(store);

    // Same plan shape, same descriptions and seeds — but the filter now
    // names a different population. The pre-AST `filtered` boolean could
    // not see this; the digest comparison must.
    let changed = FilterExpr::sex(lodes::Sex::Female);
    assert_ne!(changed.id(), ranking2_expr().id());
    let mut store = SeasonStore::open(&dir).unwrap();
    match store.run(&d, &filtered_plan(changed)) {
        Err(StoreError::Inconsistent { detail }) => {
            assert!(detail.contains("digest"), "unexpected detail: {detail}");
        }
        other => panic!("expected Inconsistent, got {other:?}"),
    }

    // Dropping the filter from the plan entirely is a plan change too.
    let mut unfiltered = filtered_plan(ranking2_expr());
    unfiltered[1] = ReleaseRequest::marginal(workload1())
        .mechanism(MechanismKind::LogLaplace)
        .budget(PrivacyParams::pure(0.1, 1.0))
        .describe("F1: workload1 sub-population")
        .seed(2);
    assert!(matches!(
        store.run(&d, &unfiltered),
        Err(StoreError::Inconsistent { .. })
    ));

    // The original filter still resumes.
    let report = store.run(&d, &filtered_plan(ranking2_expr())).unwrap();
    assert_eq!((report.resumed_from, report.executed), (2, 0));
    fs::remove_dir_all(dir).unwrap();
}

#[test]
fn pre_ast_closure_store_resumes_under_ast_plan() {
    // A store persisted before the AST existed recorded `filtered: true`
    // with no expression — as did the since-removed closure filters.
    // Re-expressing the same plan with a FilterExpr must be accepted (the
    // digest is unverifiable; the flag and every other field still are),
    // because the alternative is stranding every pre-AST season. The
    // legacy artifact is written as a fixture: the filtered release's
    // provenance with its expression stripped.
    let d = dataset();
    let dir = test_dir("pre-ast");
    let mut store = SeasonStore::create(&dir, budget()).unwrap();
    store.run(&d, &filtered_plan(ranking2_expr())).unwrap();
    let mut legacy = store.load_artifact(1).unwrap();
    legacy.request.filter = None;
    eree_core::store::write_json_atomic(&dir.join("artifacts").join("000001.json"), &legacy)
        .unwrap();
    drop(store);
    let store = SeasonStore::open(&dir).unwrap();
    let stored = store.load_artifact(1).unwrap();
    assert!(stored.request.filtered && stored.request.filter.is_none());
    drop(store);

    // Resume under the AST-ified plan: accepted, nothing re-executed.
    let mut store = SeasonStore::open(&dir).unwrap();
    let report = store.run(&d, &filtered_plan(ranking2_expr())).unwrap();
    assert_eq!((report.resumed_from, report.executed), (2, 0));

    // The compatibility path is one-directional: an *unfiltered* stored
    // artifact never matches a filtered request.
    let unf_dir = test_dir("pre-ast-unf");
    let mut unfiltered_store = SeasonStore::create(&unf_dir, budget()).unwrap();
    let mut plain = filtered_plan(ranking2_expr());
    plain[1] = ReleaseRequest::marginal(workload1())
        .mechanism(MechanismKind::LogLaplace)
        .budget(PrivacyParams::pure(0.1, 1.0))
        .describe("F1: workload1 sub-population")
        .seed(2);
    unfiltered_store.run(&d, &plain).unwrap();
    assert!(matches!(
        unfiltered_store.run(&d, &filtered_plan(ranking2_expr())),
        Err(StoreError::Inconsistent { .. })
    ));
    fs::remove_dir_all(dir).unwrap();
    fs::remove_dir_all(unf_dir).unwrap();
}

#[test]
fn resuming_against_a_different_dataset_is_refused() {
    let d = dataset();
    let plan = plan();
    let dir = test_dir("redatasetted");
    let mut store = SeasonStore::create(&dir, budget()).unwrap();
    store.run(&d, &plan[..1]).unwrap();
    drop(store);

    // Same plan, different confidential database: the digest bound by the
    // first run no longer matches, in-session and across reopen alike.
    let other = Generator::new(GeneratorConfig::test_small(42)).generate();
    let mut store = SeasonStore::open(&dir).unwrap();
    assert!(matches!(
        store.run(&other, &plan),
        Err(StoreError::Inconsistent { .. })
    ));
    assert_eq!(store.completed(), 1, "refusal must not execute anything");

    // The original dataset still resumes.
    let report = store.run(&d, &plan).unwrap();
    assert_eq!(report.resumed_from, 1);
    assert_eq!(report.executed, 2);
    fs::remove_dir_all(dir).unwrap();
}

#[test]
fn overdrawn_plans_abort_cleanly_and_stay_resumable() {
    let d = dataset();
    let plan = plan(); // needs eps 11
    let dir = test_dir("overdrawn");
    let tight = PrivacyParams::pure(0.1, 3.5);
    let mut store = SeasonStore::create(&dir, tight).unwrap();

    // R0 (2.0) and R1 (1.0) fit; R2 (8.0) overdraws and aborts the run.
    let err = store.run(&d, &plan).unwrap_err();
    match err {
        StoreError::Refused { index, .. } => assert_eq!(index, 2),
        other => panic!("expected Refused, got {other}"),
    }
    assert_eq!(store.completed(), 2);
    assert!((store.ledger().spent_epsilon() - 3.0).abs() < 1e-12);
    drop(store);

    // The aborted store reopens consistently, and a re-planned tail that
    // fits the remaining budget completes the season.
    let mut store = SeasonStore::open(&dir).unwrap();
    assert_eq!(store.completed(), 2);
    let mut replanned = plan[..2].to_vec();
    replanned.push(
        ReleaseRequest::marginal(workload3())
            .mechanism(MechanismKind::LogLaplace)
            .budget(PrivacyParams::pure(0.1, 0.5))
            .describe("R2: workload3 at the remaining eps")
            .seed(3),
    );
    let report = store.run(&d, &replanned).unwrap();
    assert_eq!(report.executed, 1);
    assert!(store.ledger().remaining_epsilon() < 1e-9);
    fs::remove_dir_all(dir).unwrap();
}
