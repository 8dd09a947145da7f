//! Property: a season plan run in one `run_panel_cached_with_digest` call
//! and the same plan run one `SeasonStore::release` step at a time
//! persist bit-identical artifacts — levels and flows alike — and report
//! the same tabulation work.

use eree::prelude::*;
use eree_core::store::dataset_digest;
use lodes::{DatasetPanel, PanelConfig};
use proptest::prelude::*;
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

static CASE: AtomicUsize = AtomicUsize::new(0);

fn tmp_dir(prefix: &str) -> PathBuf {
    let id = CASE.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "eree-release-prop-{prefix}-{}-{id}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn panel() -> &'static DatasetPanel {
    static PANEL: OnceLock<DatasetPanel> = OnceLock::new();
    PANEL.get_or_init(|| {
        DatasetPanel::generate(
            &GeneratorConfig::test_small(23),
            &PanelConfig {
                quarters: 2,
                growth_sigma: 0.1,
                death_rate: 0.03,
                seed: 4,
            },
        )
    })
}

/// One plan entry from a packed draw `v`: kind (`v % 2`), spec
/// (`v / 2 % 2`), filter (`v / 4 % 2`), ε (`v / 8 % 10`) and seed
/// (`v / 80`).
fn request(v: u32) -> ReleaseRequest {
    let bit = |shift: u32| (v >> shift) & 1 == 1;
    let (flows, county, filtered) = (bit(0), bit(1), bit(2));
    let epsilon = 0.05 + 0.045 * f64::from(v / 8 % 10);
    let seed = u64::from(v / 80);
    let spec = if county {
        MarginalSpec::new(vec![WorkplaceAttr::County], vec![])
    } else {
        workload1()
    };
    let request = if flows {
        ReleaseRequest::flows(spec)
    } else {
        ReleaseRequest::marginal(spec)
    }
    .mechanism(MechanismKind::LogLaplace)
    .budget(PrivacyParams::pure(0.1, epsilon))
    .seed(seed);
    if filtered {
        request.filter_expr(ranking2_expr())
    } else {
        request
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn one_run_equals_one_release_per_request(
        draws in prop::collection::vec(0u32..8000, 1..6),
    ) {
        let plan: Vec<ReleaseRequest> = draws.iter().map(|&v| request(v)).collect();
        let panel = panel();
        let (q0, q1) = (panel.quarter(0), panel.quarter(1));
        let (d0, d1) = (dataset_digest(q0), dataset_digest(q1));
        let budget = PrivacyParams::pure(0.1, 10.0);

        let run_dir = tmp_dir("run");
        let mut run = SeasonStore::create(&run_dir, budget).unwrap();
        let report = run
            .run_panel_cached_with_digest(Some((q0, d0)), q1, d1, &plan, &mut TabulationCache::new())
            .unwrap();
        prop_assert_eq!((report.resumed_from, report.executed), (0, plan.len()));

        let step_dir = tmp_dir("step");
        let mut stepped = SeasonStore::create(&step_dir, budget).unwrap();
        let mut cache = TabulationCache::new();
        let mut stats = TabulationStats::default();
        for (i, request) in plan.iter().enumerate() {
            let (artifact, step) = stepped
                .release(Some((q0, d0)), q1, d1, request, &mut cache)
                .unwrap();
            stats.computed += step.computed;
            stats.hits += step.hits;
            stats.disk_hits += step.disk_hits;
            prop_assert_eq!(&artifact, &stepped.load_artifact(i).unwrap());
            prop_assert_eq!(&artifact, &run.load_artifact(i).unwrap());
        }
        prop_assert_eq!(
            (stats.computed, stats.hits, stats.disk_hits),
            (report.tabulations_computed, report.tabulation_hits, report.tabulation_disk_hits)
        );
        let spent = |s: &SeasonStore| s.ledger().spent_epsilon().to_bits();
        prop_assert_eq!(spent(&stepped), spent(&run));
        drop((run, stepped));
        fs::remove_dir_all(&run_dir).unwrap();
        fs::remove_dir_all(&step_dir).unwrap();
    }
}
