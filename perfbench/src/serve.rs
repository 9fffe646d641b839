//! In-process replay of `rtic serve`'s request path on an accepted stream.
//!
//! Per request line the loop makes the calls a connection thread and the
//! engine loop make for one update with `--batch 1`:
//! `protocol::parse_command`, `ConstraintSet::step_observed` (observed by
//! a `MetricsRegistry`), the `Display` of each violating report,
//! `ServeReport::record_step`, the reply lines, and when the checkpoint
//! ticker fires `checkpoint::save_set`, `container::seal` of the engine
//! sections plus the report section, and `Rotation::write`; then the
//! per-step serve sample. The drain writes a final checkpoint. Queueing,
//! sockets and threads are left out: what remains is the engine's
//! service time per update.
//!
//! Modes as in [`crate::replay`]: `plain` (untraced wall time), `traced`
//! (spans), and `count` (plan-profile counters, plus one extra
//! `Database::apply` per update on a database of its own).

use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use rtic_core::{checkpoint, ConstraintSet, EncodingOptions, StepEvent, StepObserver};
use rtic_obs::MetricsRegistry;
use rtic_relation::Database;
use rtic_resilience::{container, CheckpointPolicy, CheckpointTicker, FailPlan, Rotation};
use rtic_server::protocol::{self, Command};
use rtic_server::{Listen, ServeConfig, ServeReport};
use rtic_temporal::parser::parse_file;

use crate::replay::{apply_report, layer_report, plan_counts, Mode};
use crate::stats::{self, Report};
use crate::trace::{Recorder, SpanId, TimedObserver};

/// Where the serve replay reads and writes.
pub struct ServeArgs {
    /// Constraint file.
    pub constraints: PathBuf,
    /// The accepted request lines, in the order the daemon acked them.
    pub stream: PathBuf,
    /// Measured ack latency per accepted line (`index latency_ms`), if
    /// known; yields the derived queue wait.
    pub acks: Option<PathBuf>,
    /// `--checkpoint-every` of the daemon.
    pub checkpoint_every: u64,
    /// Where the report text goes.
    pub report_out: PathBuf,
    /// Scratch directory for the checkpoint rotation and spans.
    pub work: PathBuf,
}

/// The daemon's default ingest queue capacity, which the benchmark's
/// daemon runs with.
pub fn queue_capacity() -> usize {
    ServeConfig::new(Listen::Tcp(String::new())).queue_capacity
}

/// Runs one pass and returns its measurements.
pub fn run(args: &ServeArgs, mode: Mode) -> Result<Report, String> {
    let traced = mode == Mode::Traced;
    let counting = mode == Mode::Count;
    let text = std::fs::read_to_string(&args.constraints)
        .map_err(|e| format!("cannot read {}: {e}", args.constraints.display()))?;
    let stream = std::fs::read_to_string(&args.stream)
        .map_err(|e| format!("cannot read {}: {e}", args.stream.display()))?;
    let rotation = Rotation::new(args.work.join("serve.ckpt"), 3);
    let faults = FailPlan::default();

    let wall_start = Instant::now();
    let mut rec = Recorder::new();
    let file = parse_file(&text).map_err(|e| e.to_string())?;
    let catalog = Arc::new(file.catalog.clone());
    let options = EncodingOptions {
        profile_plans: counting,
        ..Default::default()
    };
    let mut set = ConstraintSet::with_options(
        file.constraints.iter().cloned(),
        Arc::clone(&catalog),
        options,
    )
    .map_err(|(c, e)| format!("constraint `{}`: {e}", c.name))?
    .with_sharding(false);
    let mut registry = MetricsRegistry::new();
    let mut ticker = CheckpointTicker::new(CheckpointPolicy {
        every_steps: Some(args.checkpoint_every),
        every: None,
    });
    let mut report = ServeReport::default();
    let mut db = Database::new(Arc::clone(&catalog));
    let mut service_ms: Vec<f64> = Vec::new();
    let mut checkpoint_bytes = 0u64;
    let mut checkpoint_writes = 0u64;
    let mut reply_bytes = 0usize;
    let mut tuples = 0u64;
    let mut last_checkpoint: Option<Instant> = None;

    for (i, line) in stream.lines().enumerate() {
        let u = u32::try_from(i).map_err(|_| "stream too long")?;
        let p0 = rec.now();
        let command = protocol::parse_command(line);
        let p1 = rec.now();
        if traced {
            rec.record("server.parse", p0, p1, None, u);
        }
        let tr = match command {
            Ok(Some(Command::Update(tr))) => tr,
            other => return Err(format!("line {}: not an update: {other:?}", i + 1)),
        };
        tuples += tr.update.len() as u64;
        let e0 = rec.now();
        let _ = faults.check("serve.step");
        if counting {
            let span = rec.open("relation.apply", None, u);
            db.apply(&tr.update)
                .map_err(|e| format!("at {}: {e}", tr.time))?;
            rec.close(span);
        }
        let reports = if traced {
            let span = rec.open("core.step", None, u);
            let mut obs = TimedObserver {
                registry: &mut registry,
                recorder: &mut rec,
                parent: Some(span),
                update: u,
            };
            let reports = set.step_observed(tr.time, &tr.update, &mut obs);
            rec.close(span);
            reports
        } else {
            set.step_observed(tr.time, &tr.update, &mut registry)
        }
        .map_err(|e| format!("at {}: {e}", tr.time))?;
        let r0 = rec.now();
        let mut violations = Vec::new();
        let mut witnesses = 0usize;
        for step_report in &reports {
            if !step_report.ok() {
                witnesses += step_report.violation_count();
                violations.push(step_report.to_string());
            }
        }
        report.record_step(&violations, witnesses);
        let mut lines: Vec<String> = violations
            .iter()
            .map(|line| format!("{}{line}", protocol::VIOL_PREFIX))
            .collect();
        lines.push(format!("{} {witnesses}", protocol::OK_PREFIX));
        reply_bytes += lines.iter().map(|l| l.len() + 1).sum::<usize>();
        let r1 = rec.now();
        if traced {
            rec.record("report.render", r0, r1, None, u);
        }
        if ticker.step_completed() {
            checkpoint_bytes += write_checkpoint(
                &set,
                &report,
                &rotation,
                &faults,
                &mut registry,
                &mut rec,
                traced,
                u,
            )? as u64;
            checkpoint_writes += 1;
            last_checkpoint = Some(Instant::now());
        }
        // The engine's per-step gauge sample; the values are what a
        // single-client daemon with an idle queue reports.
        let sample = StepEvent::ServeSample {
            queue_depth: 0,
            queue_capacity: queue_capacity(),
            queue_peak: 1,
            shed: 0,
            connections: 1,
            disconnected: 0,
            last_checkpoint_age_ms: last_checkpoint.map(|t| t.elapsed().as_millis() as u64),
            drain_ms: None,
        };
        if traced {
            TimedObserver {
                registry: &mut registry,
                recorder: &mut rec,
                parent: None,
                update: u,
            }
            .observe(&sample);
        } else {
            registry.observe(&sample);
        }
        service_ms.push((rec.now() - e0) as f64 / 1e6);
    }
    let n = u32::try_from(service_ms.len()).map_err(|_| "stream too long")?;
    checkpoint_bytes += write_checkpoint(
        &set,
        &report,
        &rotation,
        &faults,
        &mut registry,
        &mut rec,
        traced,
        n,
    )? as u64;
    checkpoint_writes += 1;
    let wall_s = wall_start.elapsed().as_secs_f64();

    let mut text = String::new();
    for line in &report.violations {
        let _ = writeln!(text, "{line}");
    }
    std::fs::write(&args.report_out, &text)
        .map_err(|e| format!("cannot write {}: {e}", args.report_out.display()))?;

    let mut out = Report::default();
    out.num("wall_s", wall_s)
        .int("transitions", report.transitions)
        .int("tuples", tuples);
    match mode {
        Mode::Reference => {}
        Mode::Traced => {
            let layers = layer_report(&mut out, &rec, set.space());
            let parse_s = rec.total_s("server.parse");
            let save_s = rec.total_s("checkpoint.save");
            let seal_s = rec.total_s("checkpoint.seal");
            let write_s = rec.total_s("checkpoint.write");
            let observe_root = rec.root_s("obs.observe");
            let dispatch = set.dispatch_stats();
            let service = stats::sorted(service_ms.clone());
            let (tail_p, tail) = stats::tail(&service).unwrap_or((50.0, 0.0));
            out.num("trace.wall_s", wall_s)
                .num("history.parse_s", parse_s)
                .int("history.lines", report.transitions)
                .int("history.bytes", stream.len() as u64)
                .int("relation.tuples", tuples)
                .num(
                    "core.dispatch_skip_ratio",
                    dispatch.skipped as f64 / dispatch.total().max(1) as f64,
                )
                .int("report.witnesses", report.witnesses)
                .int("report.bytes", reply_bytes as u64)
                .num("checkpoint.save_s", save_s)
                .num("checkpoint.seal_s", seal_s)
                .num("checkpoint.write_s", write_s)
                .int("checkpoint.bytes", checkpoint_bytes)
                .int("checkpoint.writes", checkpoint_writes)
                .num("server.parse_s", parse_s)
                .num("server.service_p50_ms", stats::percentile(&service, 50.0))
                .num("server.service_tail_ms", tail)
                .num("server.service_tail_pct", tail_p)
                .num(
                    "unattributed_s",
                    wall_s - layers - parse_s - save_s - seal_s - write_s - observe_root,
                );
            if let Some(acks) = &args.acks {
                let (p, wait) = queue_wait(acks, &service_ms)?;
                out.num("server.queue_wait_ms", wait)
                    .num("server.queue_wait_pct", p);
            }
            rec.write_jsonl(&args.work.join("spans.jsonl"))
                .map_err(|e| format!("cannot write spans: {e}"))?;
        }
        Mode::Count => {
            plan_counts(&mut out, set.plan_profiles().into_iter().map(|(_, p)| p));
            apply_report(&mut out, &rec, &db);
        }
    }
    Ok(out)
}

/// Tail of each acked update's latency minus that update's service time.
fn queue_wait(acks: &std::path::Path, service_ms: &[f64]) -> Result<(f64, f64), String> {
    let text = std::fs::read_to_string(acks)
        .map_err(|e| format!("cannot read {}: {e}", acks.display()))?;
    let mut waits = Vec::new();
    for line in text.lines() {
        let mut parts = line.split_whitespace();
        let (Some(index), Some(latency)) = (parts.next(), parts.next()) else {
            return Err(format!("bad ack line `{line}`"));
        };
        let index: usize = index.parse().map_err(|e| format!("bad ack index: {e}"))?;
        let latency: f64 = latency
            .parse()
            .map_err(|e| format!("bad ack latency: {e}"))?;
        let service = service_ms
            .get(index)
            .ok_or_else(|| format!("ack for line {index} beyond the stream"))?;
        waits.push(latency - service);
    }
    Ok(stats::tail(&stats::sorted(waits)).unwrap_or((50.0, 0.0)))
}

/// The engine loop's checkpoint: engine sections plus the report section,
/// sealed together and written through the rotation. Returns its size.
#[allow(clippy::too_many_arguments)]
fn write_checkpoint(
    set: &ConstraintSet,
    report: &ServeReport,
    rotation: &Rotation,
    faults: &FailPlan,
    registry: &mut MetricsRegistry,
    rec: &mut Recorder,
    traced: bool,
    update: u32,
) -> Result<usize, String> {
    let span = |rec: &mut Recorder, name, start| -> Option<SpanId> {
        traced.then(|| {
            let end = rec.now();
            rec.record(name, start, end, None, update)
        })
    };
    let t0 = rec.now();
    let sections = checkpoint::save_set(set);
    span(rec, "checkpoint.save", t0);
    for (name, text) in &sections {
        let event = StepEvent::CheckpointSave {
            constraint: *name,
            bytes: text.len(),
        };
        if traced {
            TimedObserver {
                registry: &mut *registry,
                recorder: &mut *rec,
                parent: None,
                update,
            }
            .observe(&event);
        } else {
            registry.observe(&event);
        }
    }
    let t1 = rec.now();
    let report_section = report.to_section();
    let sealed = container::seal(
        sections
            .iter()
            .map(|(_, text)| text.as_str())
            .chain(std::iter::once(report_section.as_str())),
    );
    span(rec, "checkpoint.seal", t1);
    let t2 = rec.now();
    rotation
        .write(&sealed, faults, "serve.checkpoint")
        .map_err(|e| format!("cannot write checkpoint: {e}"))?;
    span(rec, "checkpoint.write", t2);
    Ok(sealed.len())
}
