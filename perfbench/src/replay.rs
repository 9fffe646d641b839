//! In-process replay of `rtic check`'s default path.
//!
//! The loop makes the same public calls the CLI makes, in the same order:
//! `parse_file`, `CompiledConstraint::compile` and
//! `IncrementalChecker::from_compiled` per constraint, then per log line
//! `LogReader::next`, `observe::step_all` (observed by a
//! `MetricsRegistry`), `SpaceSampler::after_step` and the `Display` of
//! every violating `StepReport`, and at the end the space / plan samples
//! and the summary line. Its report text must therefore be byte-identical
//! to the CLI's standard output.
//!
//! Three modes share the loop:
//! * `reference` records nothing; its text is the oracle for the timed
//!   `rtic check` runs.
//! * `traced` records a span around every layer call and after the timed
//!   part writes one end-of-run checkpoint of the final state (as
//!   `rtic check --checkpoint` would) to time that layer.
//! * `count` turns on `EncodingOptions::profile_plans` and reads the exact
//!   plan row and memo counts, and applies each update once more to a
//!   database of its own to time `Database::apply`; its other timings are
//!   not used. Timing the apply here keeps it out of the traced wall
//!   time, which then holds only the check path's calls.

use std::fmt::Write as _;
use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use rtic_core::{
    checkpoint, observe, BackendId, Checker, CompiledConstraint, EncodingOptions,
    IncrementalChecker, SpaceStats, StepReport,
};
use rtic_history::log::LogReader;
use rtic_obs::{MetricsRegistry, MultiObserver, SpaceSampler};
use rtic_relation::Database;
use rtic_resilience::{container, FailPlan, Rotation};
use rtic_temporal::parser::parse_file;
use rtic_temporal::TimePoint;

use crate::gen::ScenarioSpec;
use crate::stats::{self, Report};
use crate::trace::{Recorder, TimedObserver};

/// Which pass to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Untraced; the oracle text.
    Reference,
    /// Spans around every layer call.
    Traced,
    /// Plan-profile counters and `Database::apply` time.
    Count,
}

/// Where the replay reads and writes.
pub struct ReplayArgs {
    /// The workload (to recover the injected violations).
    pub spec: ScenarioSpec,
    /// Constraint file.
    pub constraints: PathBuf,
    /// Log file.
    pub log: PathBuf,
    /// Where the rendered report text goes.
    pub report_out: PathBuf,
    /// Scratch directory for spans and the checkpoint probe.
    pub work: PathBuf,
}

/// Runs one pass and returns its measurements.
pub fn run(args: &ReplayArgs, mode: Mode) -> Result<Report, String> {
    let expected = args.spec.expected()?;
    let traced = mode == Mode::Traced;
    let counting = mode == Mode::Count;
    let text = std::fs::read_to_string(&args.constraints)
        .map_err(|e| format!("cannot read {}: {e}", args.constraints.display()))?;
    let log_name = args.log.display().to_string();
    let log_file =
        std::fs::File::open(&args.log).map_err(|e| format!("cannot read {log_name}: {e}"))?;
    let log_bytes = log_file.metadata().map(|m| m.len()).unwrap_or(0);

    let wall_start = Instant::now();
    let mut rec = Recorder::new();
    let file = parse_file(&text).map_err(|e| e.to_string())?;
    let catalog = Arc::new(file.catalog.clone());
    let options = EncodingOptions {
        profile_plans: counting,
        ..Default::default()
    };
    let mut checkers: Vec<Box<dyn Checker>> = Vec::new();
    for c in &file.constraints {
        let compiled = CompiledConstraint::compile(c.clone(), Arc::clone(&catalog))
            .map_err(|e| format!("constraint `{}`: {e}", c.name))?;
        checkers.push(Box::new(IncrementalChecker::from_compiled(
            compiled, options,
        )));
    }
    let mut registry = MetricsRegistry::new();
    let mut sampler = SpaceSampler::new(0);
    let mut reader = LogReader::new(BufReader::new(log_file));
    let mut db = Database::new(Arc::clone(&catalog));

    let mut out = String::new();
    let mut kept: Vec<StepReport> = Vec::new();
    let mut service_ms: Vec<f64> = Vec::new();
    let (mut transitions, mut tuples, mut witnesses, mut violated_states) = (0u32, 0u64, 0, 0);
    let mut last_time = None;
    loop {
        let u = transitions;
        let t0 = rec.now();
        let item = reader.next();
        let t1 = rec.now();
        let Some(item) = item else { break };
        if traced {
            rec.record("history.parse", t0, t1, None, u);
        }
        let tr = item.map_err(|e| format!("{log_name}:{e}"))?;
        let step_index = u64::from(transitions);
        transitions += 1;
        tuples += tr.update.len() as u64;
        last_time = Some(tr.time);
        if counting {
            let span = rec.open("relation.apply", None, u);
            db.apply(&tr.update)
                .map_err(|e| format!("{log_name}: at {}: {e}", tr.time))?;
            rec.close(span);
        }
        let s0 = rec.now();
        let reports = if traced {
            let span = rec.open("core.step", None, u);
            let mut obs = TimedObserver {
                registry: &mut registry,
                recorder: &mut rec,
                parent: Some(span),
                update: u,
            };
            let reports = observe::step_all(&mut checkers, tr.time, &tr.update, &mut obs);
            sampler.after_step(&checkers, tr.time, step_index, &mut obs);
            rec.close(span);
            reports
        } else {
            let mut obs = MultiObserver::new().with(&mut registry);
            let reports = observe::step_all(&mut checkers, tr.time, &tr.update, &mut obs);
            sampler.after_step(&checkers, tr.time, step_index, &mut obs);
            reports
        }
        .map_err(|e| format!("{log_name}: at {}: {e}", tr.time))?;
        let r0 = rec.now();
        let mut state_bad = false;
        for report in reports {
            if !report.ok() {
                witnesses += report.violation_count();
                state_bad = true;
                let _ = writeln!(out, "{report}");
                kept.push(report);
            }
        }
        if state_bad {
            violated_states += 1;
        }
        let r1 = rec.now();
        if traced {
            rec.record("report.render", r0, r1, None, u);
        }
        service_ms.push((r1 - s0) as f64 / 1e6);
    }
    {
        let span = rec.open("core.sample", None, transitions);
        let mut obs = TimedObserver {
            registry: &mut registry,
            recorder: &mut rec,
            parent: Some(span),
            update: transitions,
        };
        observe::sample_space(
            &checkers,
            last_time.unwrap_or(TimePoint(0)),
            u64::from(transitions),
            &mut obs,
        );
        observe::sample_plan_stats(&checkers, &mut obs);
        observe::sample_plan_profiles(&checkers, &mut obs);
        rec.close(span);
    }
    let _ = writeln!(
        out,
        "checked {} transitions against {} constraint(s) [{}]: {} violation witness(es) over {} state(s)",
        transitions,
        checkers.len(),
        BackendId::Incremental,
        witnesses,
        violated_states,
    );
    let wall_s = wall_start.elapsed().as_secs_f64();

    std::fs::write(&args.report_out, &out)
        .map_err(|e| format!("cannot write {}: {e}", args.report_out.display()))?;
    let found = expected
        .iter()
        .filter(|e| kept.iter().any(|r| e.found_in(r)))
        .count();

    let mut report = Report::default();
    report
        .num("wall_s", wall_s)
        .int("transitions", u64::from(transitions))
        .int("tuples", tuples)
        .int("expected", expected.len() as u64)
        .int("expected_found", found as u64);
    match mode {
        Mode::Reference => {}
        Mode::Traced => {
            let space = checkers
                .iter()
                .map(|c| c.space())
                .fold(SpaceStats::default(), |acc, s| SpaceStats {
                    aux_keys: acc.aux_keys + s.aux_keys,
                    aux_timestamps: acc.aux_timestamps + s.aux_timestamps,
                    ..acc
                });
            let layers = layer_report(&mut report, &rec, space);
            let parse_s = rec.total_s("history.parse");
            report
                .num("trace.wall_s", wall_s)
                .num("history.parse_s", parse_s)
                .num("unattributed_s", wall_s - parse_s - layers)
                .int("history.lines", u64::from(transitions))
                .int("history.bytes", log_bytes)
                .int("relation.tuples", tuples)
                .int("report.witnesses", witnesses as u64)
                .int("report.bytes", out.len() as u64);
            let service = stats::sorted(service_ms);
            let (tail_p, tail) = stats::tail(&service).unwrap_or((50.0, 0.0));
            report
                .num("server.service_p50_ms", stats::percentile(&service, 50.0))
                .num("server.service_tail_ms", tail)
                .num("server.service_tail_pct", tail_p);
            checkpoint_probe(&mut report, &checkers, &args.work)?;
            rec.write_jsonl(&args.work.join("spans.jsonl"))
                .map_err(|e| format!("cannot write spans: {e}"))?;
        }
        Mode::Count => {
            let profiles = checkers.iter().filter_map(|c| c.plan_profile());
            plan_counts(&mut report, profiles);
            apply_report(&mut report, &rec, &db);
        }
    }
    Ok(report)
}

/// Layer times of a traced pass, shared by the check and serve replays:
/// engine step, the observer calls inside it (from which `run.py` derives
/// `core.eval_s` with the counting pass's apply time), report rendering
/// and all observer calls, plus the end-of-run auxiliary state. Returns
/// the seconds these top-level layers cover.
pub fn layer_report(report: &mut Report, rec: &Recorder, space: SpaceStats) -> f64 {
    let step_s = rec.total_s("core.step");
    let render_s = rec.total_s("report.render");
    report
        .num("core.step_s", step_s)
        .num(
            "core.step_observe_s",
            rec.nested_s("obs.observe", "core.step"),
        )
        .int("core.aux_keys", space.aux_keys as u64)
        .int("core.aux_timestamps", space.aux_timestamps as u64)
        .num("report.render_s", render_s)
        .num("obs.observe_s", rec.total_s("obs.observe"))
        .int("obs.events", rec.count("obs.observe") as u64);
    step_s + render_s
}

/// `Database::apply` time of a counting pass and the size of the
/// database it built.
pub fn apply_report(report: &mut Report, rec: &Recorder, db: &Database) {
    report
        .num("relation.apply_s", rec.total_s("relation.apply"))
        .int("relation.db_tuples", db.total_tuples() as u64);
}

/// Row and memo counts summed over every plan node.
pub fn plan_counts(report: &mut Report, profiles: impl Iterator<Item = rtic_core::PlanProfile>) {
    let (mut rows_in, mut rows_out, mut hits, mut misses) = (0u64, 0u64, 0u64, 0u64);
    for profile in profiles {
        for node in &profile.nodes {
            rows_in += node.counts.rows_in;
            rows_out += node.counts.rows_out;
            hits += node.counts.cache_hits;
            misses += node.counts.cache_misses;
        }
    }
    let touches = hits + misses;
    report
        .int("core.plan_rows_in", rows_in)
        .int("core.plan_rows_out", rows_out)
        .num(
            "core.memo_hit_ratio",
            if touches == 0 {
                0.0
            } else {
                hits as f64 / touches as f64
            },
        );
}

/// Times one checkpoint of the final state through the CLI's calls:
/// `checkpoint::save` per constraint, `container::seal`, `Rotation::write`.
fn checkpoint_probe(
    report: &mut Report,
    checkers: &[Box<dyn Checker>],
    work: &Path,
) -> Result<(), String> {
    let t0 = Instant::now();
    let mut sections = Vec::with_capacity(checkers.len());
    for checker in checkers {
        let inc = checker
            .as_any()
            .downcast_ref::<IncrementalChecker>()
            .ok_or("the replay builds incremental checkers only")?;
        sections.push(checkpoint::save(inc));
    }
    let t1 = Instant::now();
    let sealed = container::seal(sections.iter().map(String::as_str));
    let t2 = Instant::now();
    Rotation::new(work.join("probe.ckpt"), 3)
        .write(&sealed, &FailPlan::default(), "checkpoint.write")
        .map_err(|e| format!("cannot write checkpoint: {e}"))?;
    let t3 = Instant::now();
    report
        .num("checkpoint.save_s", (t1 - t0).as_secs_f64())
        .num("checkpoint.seal_s", (t2 - t1).as_secs_f64())
        .num("checkpoint.write_s", (t3 - t2).as_secs_f64())
        .int("checkpoint.bytes", sealed.len() as u64)
        .int("checkpoint.writes", 1);
    Ok(())
}
