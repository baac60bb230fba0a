//! One run of one workload: the unit `BENCHMARK.json`'s command executes.
//!
//! pin to one CPU → model fit → set-up (several times; the median is
//! `setup_s`) → untimed warm-up pass → equal timed passes over the same
//! input until `--seconds` have elapsed → every operation's latency and
//! every slot of the pass's wall time reduced to the quiet value of its
//! repetitions (`shared::quiet`) → reference check → one JSON line.
//! With `--trace 1` the timed passes give way to the traced probes and the
//! line carries the per-layer metrics instead.

use crate::cold;
use crate::follow;
use crate::host;
use crate::inputs::{self, Inputs, Scale, Workload, PROBE_ADDRS};
use crate::metrics::{Values, END_TO_END, PER_LAYER};
use crate::serve::{self, Latencies, Serve};
use crate::shared::{
    median, percentile, quiet, quiet_columns, self_time_table, self_times, Json, Tracer, MIN_PASSES,
};
use baclassifier::{BaClassifier, ModelArtifact};
use bstream::Follower;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

/// Outcome of one timed pass of any workload.
pub struct Pass {
    /// Operations completed (addresses, requests or blocks).
    pub ops: u64,
    /// Wall time the throughput is computed over, cut into slots by a
    /// `SlotClock`: the same operations fall in the same slot in every pass.
    pub slot_ns: Vec<u64>,
    pub failed: u64,
    /// Hash of every output in order; equal across passes or the run fails.
    pub digest: u64,
}

/// The system under test, built by set-up.
enum System {
    Cold(Box<BaClassifier>),
    Serve(Box<Serve>),
    /// A follower is built per pass; the last one is kept for the
    /// reference check at the tip.
    Follow(Option<Box<Follower>>),
}

struct Stage {
    workload: Workload,
    inputs: Inputs,
    artifact: Arc<ModelArtifact>,
    artifact_load_ms: f64,
    system: System,
}

impl Stage {
    fn set_up(args: &RunArgs, scale: &Scale, model: &Path) -> Stage {
        let inputs = inputs::generate(args.workload, args.seed, scale, args.trace);
        let start = Instant::now();
        let artifact = Arc::new(inputs::load_model(model));
        let artifact_load_ms = start.elapsed().as_secs_f64() * 1e3;
        let system = match args.workload {
            Workload::ColdThin | Workload::ColdDense => {
                let clf = BaClassifier::from_artifact(&artifact).expect("artifact loads");
                System::Cold(Box::new(clf))
            }
            Workload::ServeHot | Workload::ServeWire => System::Serve(Box::new(Serve::start(
                &artifact,
                Arc::clone(&inputs.records),
                args.workload == Workload::ServeWire,
                scale.solo_requests,
                scale.loaded_requests,
                args.seed,
            ))),
            Workload::FollowReclass | Workload::FollowIngest => System::Follow(None),
        };
        Stage {
            workload: args.workload,
            inputs,
            artifact,
            artifact_load_ms,
            system,
        }
    }

    /// Untimed work that must precede the first pass. Returns failures.
    fn warm(&mut self) -> u64 {
        match &mut self.system {
            System::Serve(s) => s.warm(&self.artifact),
            _ => 0,
        }
    }

    fn pass(&mut self, lat: &mut Latencies) -> Pass {
        match &mut self.system {
            System::Cold(clf) => cold::pass(clf, &self.inputs.records, &mut lat.loaded),
            System::Serve(s) => s.pass(lat),
            System::Follow(tip) => {
                // Before the pass, not after: two followers at once would
                // double the peak this workload reports.
                *tip = None;
                let (pass, f) = follow::pass(
                    &self.artifact,
                    self.inputs.blocks(),
                    self.inputs.tracked.as_ref().expect("follow inputs"),
                    self.workload == Workload::FollowReclass,
                    &mut lat.loaded,
                );
                *tip = Some(Box::new(f));
                pass
            }
        }
    }

    /// Outputs against an independent reference, outside any timing.
    /// Returns (checked, failed).
    fn reference_check(&self, scale: &Scale) -> (u64, u64) {
        match &self.system {
            System::Cold(clf) => {
                let sample =
                    &self.inputs.records[..scale.reference_addrs.min(self.inputs.records.len())];
                (
                    sample.len() as u64,
                    cold::reference_mismatches(&self.artifact, clf, sample),
                )
            }
            // Every reply was already compared with `predict`; what is left
            // is what the engines and lanes themselves counted as unserved.
            System::Serve(s) => (0, s.target.unserved()),
            System::Follow(tip) => {
                let tip = tip.as_ref().expect("a pass ran");
                println!(
                    "follower at the tip: height {} tracked {} labeled {} txs {}",
                    tip.next_height(),
                    tip.num_tracked(),
                    tip.labels().len(),
                    tip.metrics().txs_ingested,
                );
                (
                    self.inputs.records.len() as u64,
                    follow::reference_mismatches(
                        &self.artifact,
                        tip,
                        &self.inputs.records,
                        self.workload == Workload::FollowReclass,
                    ),
                )
            }
        }
    }

    /// Stop whatever set-up started; the inputs outlive it.
    fn stop(self) -> Inputs {
        if let System::Serve(s) = self.system {
            s.target.stop();
        }
        self.inputs
    }
}

/// One timed pass with what is reported from it.
struct Timed {
    pass: Pass,
    /// Wall time of the whole pass (for the serve workloads: both phases).
    wall_ns: u64,
    /// Latency of every operation, in the order issued.
    lat: Latencies,
}

/// Timed passes until `seconds` have elapsed and there are enough of them
/// to take a quiet value over. Also returns the resident-set high-water
/// mark after the first of them: every pass repeats the same work, so what
/// grows later is this function's own store of samples, not the system.
fn timed_passes(stage: &mut Stage, seconds: f64) -> (Vec<Timed>, f64) {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut passes = Vec::new();
    let mut peak_rss_mb = 0.0;
    while Instant::now() < deadline || passes.len() < MIN_PASSES {
        let mut lat = Latencies::default();
        let start = Instant::now();
        let pass = stage.pass(&mut lat);
        let wall_ns = start.elapsed().as_nanos() as u64;
        if passes.is_empty() {
            peak_rss_mb = host::peak_rss_mb();
        }
        passes.push(Timed { pass, wall_ns, lat });
    }
    (passes, peak_rss_mb)
}

/// Ascending quiet values of one column set: `pick` names the per-pass
/// vector (slot times or latencies) the columns are taken from.
fn quiet_sorted(passes: &[Timed], pick: impl Fn(&Timed) -> &[u64]) -> Vec<u64> {
    let rows: Vec<&[u64]> = passes.iter().map(pick).collect();
    let mut q = quiet_columns(&rows);
    q.sort_unstable();
    q
}

/// Run one workload and print its result line. Returns whether the run's
/// outputs were correct.
pub fn run(args: &RunArgs) -> bool {
    let scale = if args.smoke {
        Scale::smoke()
    } else {
        Scale::full()
    };
    let cpu = host::pin_to_one_cpu();
    let out_dir = host::out_dir();
    let model = inputs::fit_model(&out_dir);
    if args.trace {
        crate::alloc::enable();
    }

    // `setup_s` is the median of several set-ups: `setup_reps` of them, and
    // more (up to five times as many) while they add up to under a second —
    // a 30 ms set-up needs more repeats than a 1 s one to read steadily.
    // A traced run reports no `setup_s`, so it sets up once.
    let (min_reps, max_reps) = if args.trace {
        (1, 1)
    } else {
        (scale.setup_reps, 5 * scale.setup_reps)
    };
    let mut setup_secs = Vec::with_capacity(max_reps);
    let mut stage: Option<Stage> = None;
    while setup_secs.len() < min_reps
        || (setup_secs.len() < max_reps && setup_secs.iter().sum::<f64>() < 1.0)
    {
        if let Some(previous) = stage.take() {
            previous.stop();
        }
        let start = Instant::now();
        stage = Some(Stage::set_up(args, &scale, &model));
        setup_secs.push(start.elapsed().as_secs_f64());
    }
    let mut stage = stage.expect("at least one set-up");
    std::fs::remove_file(&model).ok();
    let peak_reset = host::reset_peak_rss();
    println!(
        "workload {} seed {} input_fingerprint {:016x} addresses {} setups {:?} pinned_cpu {:?} peak_rss_reset {}",
        args.workload.name(),
        args.seed,
        stage.inputs.fingerprint,
        stage.inputs.records.len(),
        setup_secs,
        cpu,
        peak_reset,
    );

    let mut failed = stage.warm();
    let warm_up = stage.pass(&mut Latencies::default());
    failed += warm_up.failed;
    let mut attempted = warm_up.ops;

    let seconds = if args.trace {
        // Three passes give the untraced wall the overhead ratio needs.
        0.0
    } else {
        args.seconds
    };
    let (passes, peak_rss_mb) = timed_passes(&mut stage, seconds);
    for Timed { pass, .. } in &passes {
        attempted += pass.ops;
        failed += pass.failed;
        // Same input, same program: any pass that answers differently
        // from the warm-up pass is wrong, whichever of them is right.
        failed += u64::from(pass.digest != warm_up.digest);
    }
    let (checked, mismatched) = stage.reference_check(&scale);
    attempted += checked;
    failed += mismatched;

    let pass_secs = |t: &Timed| t.pass.slot_ns.iter().sum::<u64>() as f64 / 1e9;
    println!(
        "passes {} (1 warm-up + {} timed), per-pass 1/s {:?}",
        passes.len() + 1,
        passes.len(),
        passes
            .iter()
            .map(|t| (t.pass.ops as f64 / pass_secs(t)).round())
            .collect::<Vec<_>>()
    );

    let (table, values) = if args.trace {
        let pass_wall = quiet(passes.iter().map(|t| t.wall_ns)) as f64 / 1e9;
        let (values, probe_failed) = trace(args, &scale, stage, pass_wall, &out_dir);
        failed += probe_failed;
        (PER_LAYER, values)
    } else {
        // One caller at a time is the only mode the cold and follow
        // workloads have; the serve workloads sample it in their solo phase.
        let has_solo = !passes[0].lat.solo.is_empty();
        let slots = quiet_sorted(&passes, |t| &t.pass.slot_ns);
        let loaded = quiet_sorted(&passes, |t| &t.lat.loaded);
        let solo = if has_solo {
            quiet_sorted(&passes, |t| &t.lat.solo)
        } else {
            loaded.clone()
        };
        println!(
            "quiet values over {} passes: {} slots, p50 over {} operations, p95 over {}",
            passes.len(),
            slots.len(),
            solo.len(),
            loaded.len()
        );
        let ops = passes[0].pass.ops as f64;
        let mut v = Values::default();
        v.set_ratio("ops_per_s", ops, slots.iter().sum::<u64>() as f64 / 1e9);
        // What coarser reductions of the same passes would have reported.
        let mut secs: Vec<f64> = passes.iter().map(pass_secs).collect();
        secs.sort_by(f64::total_cmp);
        println!(
            "ops_per_s by reduction: median pass {:.1}, fastest pass {:.1}, fastest slots {:.1}",
            ops / median(&secs),
            ops / secs[0],
            v.get("ops_per_s"),
        );
        v.set("p50_us", percentile(&solo, 0.5) as f64 / 1e3);
        v.set("p95_us", percentile(&loaded, 0.95) as f64 / 1e3);
        v.set("peak_rss_mb", peak_rss_mb);
        v.set("setup_s", median(&setup_secs));
        stage.stop();
        (END_TO_END, v)
    };

    let correct = failed == 0;
    let metrics = values.render(table);
    for (name, m) in metrics.as_obj().expect("metrics object") {
        println!(
            "  {name:<36} {:>16.4} {}",
            m.get("value").and_then(Json::as_f64).expect("value"),
            m.get("unit").and_then(Json::as_str).expect("unit"),
        );
    }
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Num(attempted as f64)),
            ("failed", Json::Num(failed as f64)),
            ("metrics", metrics),
        ])
    );
    correct
}

/// The traced part of a `--trace 1` run: every layer's probe over this
/// workload's inputs — full size for the workload's own path, a
/// `PROBE_ADDRS` sample for the others — then the trace file and the
/// self-time tables. Returns the per-layer values and the failures seen.
fn trace(
    args: &RunArgs,
    scale: &Scale,
    stage: Stage,
    untraced_pass_wall: f64,
    out_dir: &Path,
) -> (Values, u64) {
    let w = args.workload;
    let mut out = Values::default();
    let mut failed = 0;
    let artifact = Arc::clone(&stage.artifact);
    let artifact_load_ms = stage.artifact_load_ms;
    let inputs = stage.stop();
    let records = &inputs.records;
    let sample: Arc<[_]> = records[..PROBE_ADDRS.min(records.len())].into();

    out.set_ratio(
        "btcsim.sim_blocks_per_s",
        inputs.blocks().len() as f64,
        inputs.sim_secs,
    );
    out.set("btcsim.dataset_extract_ms", inputs.extract_secs * 1e3);
    out.set("core.artifact_load_ms", artifact_load_ms);
    out.set("numnet.matmul_gflops", cold::matmul_gflops());

    let clf = BaClassifier::from_artifact(&artifact).expect("artifact loads");
    let own_cold = matches!(w, Workload::ColdThin | Workload::ColdDense);
    let mut cold_t = Tracer::new();
    let cold_records = if own_cold { records } else { &sample };
    let (cold_secs, mismatches) = cold::probe(&artifact, &clf, cold_records, &mut cold_t, &mut out);
    failed += mismatches;
    if own_cold && out.get("core.trace_coverage") < 0.95 {
        println!(
            "FAIL core.trace_coverage {:.4} < 0.95: time is hiding between the layer spans",
            out.get("core.trace_coverage")
        );
        failed += 1;
    }

    let own_serve = matches!(w, Workload::ServeHot | Workload::ServeWire);
    let mut serve_t = Tracer::new();
    let (serve_records, solo, loaded) = if own_serve {
        (records, scale.solo_requests, scale.loaded_requests)
    } else {
        (&sample, scale.solo_requests / 3, scale.loaded_requests / 3)
    };
    let served = serve::probe(
        &artifact,
        serve_records,
        solo,
        loaded,
        args.seed,
        &mut serve_t,
        &mut out,
    );
    failed += served.failed;

    let mut follow_t = Tracer::new();
    let blocks = inputs.blocks();
    let plan = match w {
        Workload::FollowReclass | Workload::FollowIngest => follow::ProbePlan::own(
            inputs.tracked.as_ref().expect("follow inputs"),
            // The ingest chain is too long to reclassify within a run.
            blocks.len().min(scale.reclass_blocks as usize),
        ),
        _ => follow::ProbePlan::sample(&sample, blocks.len()),
    };
    let (ingest_secs, reclass_secs) =
        follow::probe(&artifact, blocks, plan, out_dir, &mut follow_t, &mut out);

    let traced_wall = match w {
        Workload::ColdThin | Workload::ColdDense => cold_secs,
        Workload::ServeHot => served.hot_secs,
        Workload::ServeWire => served.wire_secs,
        Workload::FollowReclass => reclass_secs,
        Workload::FollowIngest => ingest_secs,
    };
    out.set_ratio("trace.overhead_ratio", traced_wall, untraced_pass_wall);

    let traces = [("cold", cold_t), ("serve", serve_t), ("follow", follow_t)];
    for (path, tracer) in &traces {
        println!(
            "self time, {path} path ({} spans):\n{}",
            tracer.spans().len(),
            self_time_table(&self_times(tracer.spans()))
        );
    }
    let file = out_dir.join(format!("trace_{}.json", w.name()));
    write_trace(&file, args, &traces);
    println!("spans written to {}", file.display());
    (out, failed)
}

/// `{"workload", "seed", "span_fields", "paths": {path: [[name, start_ns,
/// end_ns, parent, id], …]}}` — rows, not objects: `cold_thin` records
/// over a hundred thousand spans.
fn write_trace(file: &Path, args: &RunArgs, traces: &[(&str, Tracer)]) {
    let rows = |t: &Tracer| {
        Json::Arr(
            t.spans()
                .iter()
                .map(|s| {
                    Json::Arr(vec![
                        Json::str(s.name),
                        Json::Num(s.start_ns as f64),
                        Json::Num(s.end_ns as f64),
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        Json::Num(s.id as f64),
                    ])
                })
                .collect(),
        )
    };
    let doc = Json::obj([
        ("workload", Json::str(args.workload.name())),
        ("seed", Json::Num(args.seed as f64)),
        (
            "span_fields",
            Json::Arr(
                ["name", "start_ns", "end_ns", "parent", "id"]
                    .map(Json::str)
                    .to_vec(),
            ),
        ),
        (
            "paths",
            Json::obj(traces.iter().map(|(path, t)| (*path, rows(t)))),
        ),
    ]);
    std::fs::write(file, format!("{doc}\n")).expect("write trace file");
}
