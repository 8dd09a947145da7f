//! End-to-end benchmark of the release service.
//!
//! ```text
//! cargo run --release --offline --manifest-path svcbench/Cargo.toml -- \
//!     --workload <repeat_hits|fresh_releases|distinct_tabulations|all> \
//!     --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Starts the real `ReleaseService` on loopback in this process and
//! drives it through `eree_service::Client` with one closed-loop tenant
//! thread per core. `--trace 0` prints the end-to-end metrics; `--trace 1`
//! records spans around every client call, replays the same request
//! stream through the layers' public functions, and prints the per-layer
//! metrics. The last line of standard output is one JSON object; the
//! exit code is non-zero when any output check fails. See README.md for
//! the workloads and what each metric means.

mod drive;
mod plan;
mod replay;
mod trace;

use drive::{create_seasons, run_one, timed_phase, Data, Outcome, Served};
use eree_core::engine::{ReleaseArtifact, TabulationStats};
use eree_service::{Client, ReleaseService};
use plan::{Plan, Workload};
use replay::{Reference, ReplayOut};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;
use trace::{dir_bytes, dir_files, median, quantile, sorted, tail_q, trimmed_mean, Tracer};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Where runs keep their agency directories and span files, relative to
/// the working directory (the checkout root).
const WORK_DIR: &str = ".bench_work";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|e| format!("{flag}: {e}"));
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?,
            "--trace" => args.trace = number()? != 0,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if args.workload != "all" && Workload::parse(&args.workload).is_none() {
        return Err(format!(
            "--workload must be one of repeat_hits, fresh_releases, distinct_tabulations, all \
             (got {:?})",
            args.workload
        ));
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("svcbench: {e}");
            std::process::exit(2);
        }
    };
    let ok = if args.workload == "all" {
        run_all(&args)
    } else {
        let workload = Workload::parse(&args.workload).expect("validated above");
        match run(workload, &args) {
            Ok(report) => report.print(),
            Err(e) => {
                eprintln!("svcbench: {e}");
                false
            }
        }
    };
    std::process::exit(if ok { 0 } else { 1 });
}

/// `--workload all`: run every workload in its own process (so each
/// reports its own peak RSS), echo their reports, and fail if any did.
fn run_all(args: &Args) -> bool {
    let exe = std::env::current_exe().expect("own executable path");
    let mut ok = true;
    let mut merged = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    for workload in Workload::ALL {
        let output = std::process::Command::new(&exe)
            .args(["--workload", workload.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(std::process::Stdio::inherit())
            .output()
            .expect("benchmark child runs");
        let stdout = String::from_utf8_lossy(&output.stdout);
        print!("{stdout}");
        ok &= output.status.success();
        let Some(last) = stdout.lines().last() else {
            ok = false;
            continue;
        };
        let Ok(serde_json::Value::Map(fields)) = serde_json::from_str::<serde_json::Value>(last)
        else {
            ok = false;
            continue;
        };
        for (key, value) in fields {
            match (key.as_str(), value) {
                ("attempted", serde_json::Value::U64(n)) => attempted += n,
                ("failed", serde_json::Value::U64(n)) => failed += n,
                ("metrics", serde_json::Value::Map(metrics)) => {
                    for (name, metric) in metrics {
                        let json = serde_json::to_string(&metric).expect("metric re-encodes");
                        merged.push(format!("\"{}.{name}\": {json}", workload.name()));
                    }
                }
                _ => {}
            }
        }
    }
    println!(
        "{{\"correct\": {ok}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        merged.join(", ")
    );
    ok
}

/// One metric of the report.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    /// Sample count and percentile notes for the human-readable line.
    note: String,
}

struct Report {
    workload: Workload,
    problems: Vec<String>,
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
}

impl Report {
    /// Print the human-readable lines and the final JSON line; `true`
    /// when every check passed.
    fn print(&self) -> bool {
        for problem in &self.problems {
            println!("CHECK FAILED [{}]: {problem}", self.workload.name());
        }
        for m in &self.metrics {
            println!("{:<36} {:>16.4} {:<6} {}", m.name, m.value, m.unit, m.note);
        }
        let correct = self.problems.is_empty() && self.failed == 0;
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
        correct
    }
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// Directory sizes the report compares across the timed phase.
struct DiskSnapshot {
    total: u64,
    seasons: u64,
    public: u64,
    public_files: u64,
    truths: u64,
    truth_files: u64,
    registry: u64,
}

fn disk(dir: &Path) -> DiskSnapshot {
    DiskSnapshot {
        total: dir_bytes(dir),
        seasons: dir_bytes(&dir.join("seasons")),
        public: dir_bytes(&dir.join("public")),
        public_files: dir_files(&dir.join("public")),
        truths: dir_bytes(&dir.join("truths")),
        truth_files: dir_files(&dir.join("truths")),
        registry: std::fs::metadata(dir.join("releases.json")).map_or(0, |m| m.len()),
    }
}

/// Service counters the report compares across the timed phase.
struct Counters {
    tabulations: TabulationStats,
    flushes: u64,
}

fn counters(client: &Client) -> Result<Counters, String> {
    let audit = client
        .audit()
        .map_err(|e| format!("GET /audit failed: {e}"))?;
    let metrics = client
        .metrics()
        .map_err(|e| format!("GET /metrics failed: {e}"))?;
    Ok(Counters {
        tabulations: audit.tabulations,
        flushes: metrics.flushes,
    })
}

/// A started, seasoned and warmed service.
struct Ready {
    service: ReleaseService,
    client: Client,
    dir: PathBuf,
    setup: Vec<Outcome>,
    /// repeat_hits: the artifact of each set-up release.
    references: Vec<ReleaseArtifact>,
}

/// Set up once: generate the data, start the service, create the seasons
/// and submit the set-up releases (warming the per-quarter index, the
/// flow index and, on repeat_hits, the artifact set).
fn set_up(
    plan: &Plan,
    served: &Served,
    dir: PathBuf,
    generate_ms: &mut Vec<f64>,
    tracer: &Tracer,
) -> Ready {
    let _ = std::fs::remove_dir_all(&dir);
    let t = Instant::now();
    let data = Data::generate(plan.workload.panel());
    generate_ms.push(t.elapsed().as_secs_f64() * 1e3);
    let service = data.start(&dir, plan);
    let client = Client::new(service.addr());
    create_seasons(&client, plan);
    let mut setup = Vec::new();
    let mut references = Vec::new();
    for (i, req) in plan.setup.iter().enumerate() {
        let (outcome, artifact) = run_one(&client, served, req, i, None, tracer);
        if let Some(a) = artifact {
            references.push(a);
        }
        setup.push(outcome);
    }
    Ready {
        service,
        client,
        dir,
        setup,
        references,
    }
}

fn throughput(outcomes: &[Outcome], wall: f64) -> f64 {
    outcomes.iter().filter(|o| o.complete()).count() as f64 / wall
}

fn p50_latency(outcomes: &[Outcome]) -> f64 {
    let lat: Vec<f64> = outcomes
        .iter()
        .filter(|o| o.complete())
        .map(|o| o.latency_ms)
        .collect();
    median(&lat)
}

fn run(workload: Workload, args: &Args) -> Result<Report, String> {
    let clients = std::thread::available_parallelism().map_or(1, |n| n.get());
    let plan = plan::build(workload, args.seed, args.seconds, clients);
    let work = PathBuf::from(WORK_DIR).join(workload.name());
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).map_err(|e| format!("creating {}: {e}", work.display()))?;
    eprintln!(
        "svcbench {}: seed {}, {} clients, {} set-up + {} timed releases, {} seasons",
        workload.name(),
        args.seed,
        clients,
        plan.setup.len(),
        plan.timed_len(),
        plan.seasons.len()
    );
    // The benchmark's own copy of the data (untimed): reference
    // tabulations, expected keys, and the restarted service's input.
    let served = Served::new(Data::generate(workload.panel()));
    eprintln!(
        "svcbench {}: {} quarter(s), {} jobs served",
        workload.name(),
        served.data.quarters().len(),
        served.data.jobs()
    );
    let tracer = Tracer::new(args.trace);
    let off = Tracer::new(false);

    let mut setup_s = Vec::new();
    let mut generate_ms = Vec::new();
    let mut untraced = None;
    let mut ready = None;
    for rep in 0..SETUP_REPS {
        let t = Instant::now();
        // Only the kept set-up is traced: its polls and submits belong to
        // the traced run.
        let kept = rep + 1 == SETUP_REPS;
        let r = set_up(
            &plan,
            &served,
            work.join(format!("service{rep}")),
            &mut generate_ms,
            if kept { &tracer } else { &off },
        );
        setup_s.push(t.elapsed().as_secs_f64());
        if kept {
            ready = Some(r);
            break;
        }
        if args.trace && rep == 0 {
            // An untraced pass on an identically set-up service: the
            // baseline of the tracing overhead.
            let (outcomes, wall, _) =
                timed_phase(&r.client, &served, &plan, &r.references, &off, false);
            untraced = Some((p50_latency(&outcomes), throughput(&outcomes, wall)));
        }
        r.service.shutdown();
        let _ = std::fs::remove_dir_all(&r.dir);
    }
    let Ready {
        service,
        client,
        dir,
        setup,
        references,
    } = ready.expect("at least one set-up");
    if let Some(o) = setup.iter().find(|o| !o.complete()) {
        service.shutdown();
        return Err(format!(
            "set-up release {} ended {}: {:?}",
            o.index, o.status, o.error
        ));
    }
    let mut problems = Vec::new();

    // Timed phase.
    let disk_before = disk(&dir);
    let counters_before = counters(&client)?;
    let (timed, wall, queue_max) =
        timed_phase(&client, &served, &plan, &references, &tracer, args.trace);
    let disk_after = disk(&dir);
    let counters_after = counters(&client)?;
    // Peak memory of serving the workload, read before the checks and the
    // restarts: both run in this process, and the benchmark's reference
    // tabulations and repeated in-process restarts would otherwise set it.
    let peak_rss_mb = trace::peak_rss_mb();

    let attempted = timed.len();
    let completed: Vec<&Outcome> = timed.iter().filter(|o| o.complete()).collect();
    let failed = attempted - completed.len();
    for o in timed.iter().filter(|o| !o.complete()) {
        problems.push(format!(
            "release {} ended {}: {:?}",
            o.index, o.status, o.error
        ));
    }
    let all: Vec<&Outcome> = setup.iter().chain(&timed).collect();
    let stream: Vec<&plan::Req> = plan.stream().collect();

    // Checks against the service's own accounts and on the bytes of hits.
    problems.extend(check_audit(&client, &plan, &stream, &all));
    problems.extend(check_hit_bytes(&client, &stream, &timed, &references));

    // Traced run: the layer replay (which also builds the reference).
    let mut reference = Reference::build(&served, &tracer);
    let replayed = if args.trace {
        match replay::replay(
            &work.join("replay"),
            &plan,
            &served,
            &mut reference,
            &tracer,
        ) {
            Ok(out) => {
                problems.extend(check_replay(&all, &out));
                Some(out)
            }
            Err(e) => {
                problems.push(e);
                None
            }
        }
    } else {
        None
    };
    // Every artifact publishes exactly its truth's nonzero cells.
    for o in &all {
        if let Some(art) = &o.art {
            if reference.keys_of(stream[o.index], &off) != art.keys {
                problems.push(format!(
                    "release {}: cell keys differ from a direct DatasetIndex tabulation",
                    o.index
                ));
            }
        }
    }

    // Restart on the same directory, `Workload::restarts` times. Each is
    // followed by verifying its share of the acknowledged ids, which
    // spreads the restarts over the run: the host's speed drifts over
    // seconds, and back-to-back restarts would all sample one moment.
    // Restarts are memory-bound, and on a shared host their samples spread
    // evenly over about ±15 %; the trimmed mean of many of them is about
    // twice as steady between runs as their median.
    let mut service = service;
    let mut restarts = Vec::new();
    let mut restart_notes = Vec::new();
    let mut final_bytes = BTreeMap::new();
    let share = all.len().div_ceil(workload.restarts());
    for chunk in all.chunks(share.max(1)) {
        let data = served.data.clone();
        let t = Instant::now();
        service.shutdown();
        let stopped = t.elapsed().as_secs_f64();
        service = data.start(&dir, &plan);
        let started = t.elapsed().as_secs_f64();
        let client = Client::new(service.addr());
        let first_audit = client.audit();
        let total = t.elapsed().as_secs_f64();
        if let Err(e) = first_audit {
            problems.push(format!("GET /audit after restart failed: {e}"));
        }
        restarts.push(total);
        restart_notes.push(format!(
            "{stopped:.3}+{:.3}+{:.3}",
            started - stopped,
            total - started
        ));
        let (restart_problems, bytes) = check_restart(&client, chunk, args.trace);
        problems.extend(restart_problems);
        final_bytes.extend(bytes);
    }
    let restart_s = trimmed_mean(&restarts);
    let restart_note = format!(
        "trimmed mean of {}; shutdown+start+first audit s: {}",
        restarts.len(),
        restart_notes.join(", ")
    );
    service.shutdown();

    let mut metrics = Vec::new();
    if args.trace {
        // Tracing overhead: how far the traced run's latency and
        // throughput sit from the untraced pass's, in percent.
        let (base_p50, base_rps) = untraced.unwrap_or((0.0, 0.0));
        let pct = |traced: f64, base: f64| {
            if base > 0.0 {
                (traced - base) / base * 100.0
            } else {
                0.0
            }
        };
        let overhead = (
            pct(p50_latency(&timed), base_p50),
            pct(throughput(&timed, wall), base_rps),
        );
        metrics = per_layer(
            &tracer,
            &timed,
            wall,
            queue_max,
            (&disk_before, &disk_after),
            (&counters_before, &counters_after),
            replayed.as_ref(),
            &generate_ms,
            &final_bytes,
            overhead,
        );
        let spans_path = work.join("spans.jsonl");
        tracer
            .write(&spans_path)
            .map_err(|e| format!("writing {}: {e}", spans_path.display()))?;
        print_self_times(&tracer);
    } else {
        let latencies = sorted(completed.iter().map(|o| o.latency_ms).collect());
        let n = latencies.len();
        let tail = tail_q(n);
        metrics.push(metric(
            "setup_s",
            median(&setup_s),
            "s",
            format!("median of {SETUP_REPS} set-ups"),
        ));
        metrics.push(metric(
            "throughput_rps",
            throughput(&timed, wall),
            "1/s",
            format!(
                "{} releases in {wall:.2} s, {clients} closed-loop clients",
                completed.len()
            ),
        ));
        metrics.push(metric(
            "latency_p50_ms",
            quantile(&latencies, 0.5),
            "ms",
            format!("n={n}"),
        ));
        metrics.push(metric(
            "latency_p99_ms",
            quantile(&latencies, tail),
            "ms",
            format!("p{:.1} of n={n}", tail * 100.0),
        ));
        metrics.push(metric(
            "completed_frac",
            completed.len() as f64 / attempted.max(1) as f64,
            "ratio",
            format!("{} of {attempted} attempted", completed.len()),
        ));
        metrics.push(metric("restart_s", restart_s, "s", restart_note));
        metrics.push(metric(
            "disk_bytes_per_release",
            disk_after.total.saturating_sub(disk_before.total) as f64
                / completed.len().max(1) as f64,
            "bytes",
            format!(
                "{} bytes over the timed phase",
                disk_after.total.saturating_sub(disk_before.total)
            ),
        ));
        metrics.push(metric(
            "peak_rss_mb",
            peak_rss_mb,
            "MiB",
            "VmHWM at the end of the timed phase".into(),
        ));
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(work.join("replay"));
    Ok(Report {
        workload,
        problems,
        attempted,
        failed,
        metrics,
    })
}

fn metric(name: &'static str, value: f64, unit: &'static str, note: String) -> Metric {
    Metric {
        name,
        value,
        unit,
        note,
    }
}

/// `GET /audit`: each season's spent ε equals the sum of its artifacts'
/// costs, and the total stays within the cap.
fn check_audit(
    client: &Client,
    plan: &Plan,
    stream: &[&plan::Req],
    all: &[&Outcome],
) -> Vec<String> {
    let audit = match client.audit() {
        Ok(a) => a,
        Err(e) => return vec![format!("GET /audit failed: {e}")],
    };
    let mut spent: BTreeMap<&str, f64> = BTreeMap::new();
    for o in all.iter().filter(|o| o.complete() && !o.cached) {
        if let Some(art) = &o.art {
            *spent.entry(stream[o.index].season.as_str()).or_default() += art.cost.epsilon;
        }
    }
    let mut problems = Vec::new();
    for season in &audit.seasons {
        let expected = spent.get(season.name.as_str()).copied().unwrap_or(0.0);
        if (season.spent_epsilon - expected).abs() > 1e-9 * expected.max(1.0) {
            problems.push(format!(
                "season {} audit spent ε {} but its artifacts cost {expected}",
                season.name, season.spent_epsilon
            ));
        }
        if season.spent_epsilon > season.budget.epsilon + 1e-9 {
            problems.push(format!("season {} overspent its budget", season.name));
        }
    }
    if audit.seasons.len() != plan.seasons.len() {
        problems.push(format!(
            "audit lists {} seasons, the plan created {}",
            audit.seasons.len(),
            plan.seasons.len()
        ));
    }
    if audit.spent_epsilon > audit.cap.epsilon + 1e-9 {
        problems.push(format!(
            "agency spent ε {} beyond its cap {}",
            audit.spent_epsilon, audit.cap.epsilon
        ));
    }
    problems
}

/// Cache hits return the original artifact's exact JSON: fetched once per
/// re-submitted key after the timed phase and compared byte for byte.
fn check_hit_bytes(
    client: &Client,
    stream: &[&plan::Req],
    timed: &[Outcome],
    references: &[ReleaseArtifact],
) -> Vec<String> {
    let mut checked = std::collections::BTreeSet::new();
    let mut problems = Vec::new();
    for o in timed {
        let (Some(target), Some(id)) = (stream[o.index].repeat_of, o.id) else {
            continue;
        };
        if !o.cached {
            problems.push(format!("re-submission {} missed the public cache", o.index));
        }
        if !checked.insert(target) {
            continue;
        }
        let fetched = client.release(id).map(|v| v.artifact);
        let expected = serde_json::to_string(&references[target]).expect("encodes");
        match fetched {
            Ok(Some(a)) if serde_json::to_string(&a).expect("encodes") == expected => {}
            Ok(_) => problems.push(format!("cache hit {} is not byte-identical", o.index)),
            Err(e) => problems.push(format!("fetching cache hit {} failed: {e}", o.index)),
        }
    }
    problems
}

/// After a restart every acknowledged id resolves with the same status
/// and artifact. With `measure` set, also returns each release's final
/// response body size (the same view the timed phase received), by
/// stream index.
fn check_restart(
    client: &Client,
    all: &[&Outcome],
    measure: bool,
) -> (Vec<String>, BTreeMap<usize, u64>) {
    let mut problems = Vec::new();
    let mut bytes = BTreeMap::new();
    for o in all {
        let Some(id) = o.id else { continue };
        match client.release(id) {
            Ok(view) => {
                if measure {
                    bytes.insert(o.index, drive::encoded_len(&view));
                }
                let same = view.status == o.status
                    && match (&o.art, &view.artifact) {
                        (Some(before), Some(after)) => drive::summarize(after)
                            .is_ok_and(|s| s.fingerprint == before.fingerprint),
                        (None, None) => true,
                        _ => false,
                    };
                if !same {
                    problems.push(format!("release {id} changed across the restart"));
                }
            }
            Err(e) => problems.push(format!("release {id} unreadable after restart: {e}")),
        }
    }
    (problems, bytes)
}

/// The replay describes the same work: equal cell keys, cost and
/// provenance for every release.
fn check_replay(all: &[&Outcome], out: &ReplayOut) -> Vec<String> {
    let mut problems = Vec::new();
    for o in all {
        let (Some(http), Some(replayed)) = (&o.art, out.summaries.get(o.index)) else {
            continue;
        };
        if http.keys != replayed.keys
            || http.cost != replayed.cost
            || http.provenance != replayed.provenance
        {
            problems.push(format!(
                "replayed release {} differs from the HTTP run's",
                o.index
            ));
        }
    }
    problems
}

/// Per-span-name summary on standard error: count, median duration and
/// total self time.
fn print_self_times(tracer: &Tracer) {
    let spans = tracer.spans();
    let self_ms = trace::self_times(&spans);
    let mut by_name: BTreeMap<&str, (Vec<f64>, f64)> = BTreeMap::new();
    for s in &spans {
        let entry = by_name.entry(s.name).or_default();
        entry.0.push(s.ms());
        entry.1 += self_ms[&s.id];
    }
    eprintln!(
        "{:<28} {:>7} {:>12} {:>14}",
        "span", "count", "p50 ms", "self total ms"
    );
    for (name, (durations, self_total)) in by_name {
        eprintln!(
            "{name:<28} {:>7} {:>12.3} {:>14.1}",
            durations.len(),
            median(&durations),
            self_total
        );
    }
}

/// The per-layer metrics of a traced run.
#[allow(clippy::too_many_arguments)]
fn per_layer(
    tracer: &Tracer,
    timed: &[Outcome],
    wall: f64,
    queue_max: u64,
    (disk_before, disk_after): (&DiskSnapshot, &DiskSnapshot),
    (before, after): (&Counters, &Counters),
    replayed: Option<&ReplayOut>,
    generate_ms: &[f64],
    final_bytes: &BTreeMap<usize, u64>,
    (latency_overhead, throughput_overhead): (f64, f64),
) -> Vec<Metric> {
    let spans = tracer.spans();
    let durations = |name: &str| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ms())
            .collect()
    };
    let p50 = |name: &'static str, metric_name: &'static str| {
        let d = durations(name);
        let n = d.len();
        metric(metric_name, median(&d), "ms", format!("n={n} {name} spans"))
    };
    let completed: Vec<&Outcome> = timed.iter().filter(|o| o.complete()).collect();
    let done = completed.len().max(1) as f64;
    let fresh = completed.iter().filter(|o| !o.cached).count();
    let submit: Vec<f64> = completed.iter().map(|o| o.submit_ms).collect();
    let polls: usize = completed.iter().map(|o| o.polls).sum();
    let bytes: u64 = completed
        .iter()
        .map(|o| o.response_bytes + final_bytes.get(&o.index).copied().unwrap_or(0))
        .sum();
    let mut m = vec![
        metric(
            "http.submit_rtt_p50_ms",
            median(&submit),
            "ms",
            format!("n={}", submit.len()),
        ),
        // Every traced poll, set-up included: repeat_hits polls only
        // while releasing its artifact set.
        p50("http.poll", "http.poll_rtt_p50_ms"),
        metric(
            "http.polls_per_release",
            polls as f64 / done,
            "count",
            format!("{polls} timed-phase polls"),
        ),
        metric(
            "http.response_bytes_per_release",
            bytes as f64 / done,
            "bytes",
            "re-encoded JSON bodies".into(),
        ),
    ];
    // HTTP latency minus the replay's service-path stage sum, per release.
    const STAGES: [&str; 7] = [
        "public_cache.load",
        "store.run",
        "store.engine",
        "engine.execute",
        "store.record",
        "store.load_artifact",
        "public_cache.save",
    ];
    let mut stage_sum: BTreeMap<u64, f64> = BTreeMap::new();
    for s in spans.iter().filter(|s| STAGES.contains(&s.name)) {
        if let Some(r) = s.request {
            *stage_sum.entry(r).or_default() += s.ms();
        }
    }
    let overhead: Vec<f64> = completed
        .iter()
        .filter_map(|o| stage_sum.get(&(o.index as u64)).map(|st| o.latency_ms - st))
        .collect();
    m.push(metric(
        "service.overhead_p50_ms",
        median(&overhead),
        "ms",
        format!("n={}", overhead.len()),
    ));
    m.push(metric(
        "service.registry_bytes",
        disk_after.registry as f64,
        "bytes",
        "releases.json".into(),
    ));
    m.push(metric(
        "service.queue_depth_max",
        queue_max as f64,
        "count",
        "sampled from GET /metrics".into(),
    ));
    m.push(p50("public_cache.load", "public_cache.load_p50_ms"));
    m.push(metric(
        "public_cache.hit_ratio",
        timed.iter().filter(|o| o.cached).count() as f64 / timed.len().max(1) as f64,
        "ratio",
        format!("of {} timed submissions", timed.len()),
    ));
    m.push(p50("public_cache.save", "public_cache.save_p50_ms"));
    m.push(metric(
        "public_cache.entry_bytes",
        disk_after.public as f64 / disk_after.public_files.max(1) as f64,
        "bytes",
        format!("{} entries", disk_after.public_files),
    ));
    m.push(p50("store.run", "store.run_p50_ms"));
    m.push(p50("store.record", "store.record_p50_ms"));
    m.push(p50("store.load_artifact", "store.load_artifact_p50_ms"));
    m.push(metric(
        "store.bytes_per_release",
        disk_after.seasons.saturating_sub(disk_before.seasons) as f64 / fresh.max(1) as f64,
        "bytes",
        format!("{fresh} admitted releases"),
    ));
    m.push(metric(
        "store.open_ms",
        replayed.map_or(0.0, |r| r.store_open_ms),
        "ms",
        "busiest season".into(),
    ));
    m.push(metric(
        "agency.open_ms",
        replayed.map_or(0.0, |r| r.agency_open_ms),
        "ms",
        "full verification".into(),
    ));
    m.push(p50("engine.execute", "engine.execute_p50_ms"));
    let executed_cells: usize = replayed.map_or(0, |r| {
        spans
            .iter()
            .filter(|s| s.name == "engine.execute")
            .filter_map(|s| s.request.and_then(|i| r.summaries.get(i as usize)))
            .map(|a| a.cells)
            .sum()
    });
    let engine_ns: f64 = durations("engine.execute").iter().sum::<f64>() * 1e6;
    m.push(metric(
        "engine.ns_per_cell",
        engine_ns / executed_cells.max(1) as f64,
        "ns",
        format!("{executed_cells} published cells"),
    ));
    let tab = |t: &TabulationStats| (t.computed, t.hits + t.disk_hits);
    let (computed, hits) = (
        tab(&after.tabulations).0 - tab(&before.tabulations).0,
        tab(&after.tabulations).1 - tab(&before.tabulations).1,
    );
    m.push(metric(
        "engine.tabulation_hit_ratio",
        hits as f64 / (computed + hits).max(1) as f64,
        "ratio",
        format!(
            "{hits} reused of {} tabulations (GET /audit)",
            computed + hits
        ),
    ));
    m.push(p50("truths.save", "truths.save_p50_ms"));
    m.push(p50("truths.load", "truths.load_p50_ms"));
    m.push(metric(
        "truths.bytes_per_truth",
        disk_after.truths as f64 / disk_after.truth_files.max(1) as f64,
        "bytes",
        format!("{} truth files", disk_after.truth_files),
    ));
    m.push(p50("tabulate.marginal", "tabulate.marginal_p50_ms"));
    m.push(p50("tabulate.flows", "tabulate.flows_p50_ms"));
    m.push(p50(
        "tabulate.filter_compile",
        "tabulate.filter_compile_p50_ms",
    ));
    m.push(p50("tabulate.index_build", "tabulate.index_build_ms"));
    m.push(p50("json.artifact_encode", "json.artifact_encode_p50_ms"));
    m.push(p50("json.artifact_decode", "json.artifact_decode_p50_ms"));
    m.push(p50("json.truth_encode", "json.truth_encode_p50_ms"));
    m.push(metric(
        "lodes.generate_ms",
        median(generate_ms),
        "ms",
        format!("median of {}", generate_ms.len()),
    ));
    m.push(metric(
        "metrics.flushes_per_release",
        after.flushes.saturating_sub(before.flushes) as f64 / done,
        "count",
        format!("{} flushes", after.flushes.saturating_sub(before.flushes)),
    ));
    m.push(metric(
        "trace.latency_delta_pct",
        latency_overhead,
        "%",
        format!("traced vs untraced latency p50, {wall:.2} s traced phase"),
    ));
    m.push(metric(
        "trace.throughput_delta_pct",
        throughput_overhead,
        "%",
        "traced vs untraced throughput".into(),
    ));
    m
}
