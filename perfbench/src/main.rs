//! `perfbench-probe`: the in-process half of the end-to-end benchmark.
//!
//! ```text
//! perfbench-probe gen <scenario> --entities N --steps N --seed N --out DIR
//! perfbench-probe check-replay reference|traced|count <scenario> --entities N --steps N
//!                 --seed N --dir DIR --work DIR --report-out FILE
//! perfbench-probe serve-replay plain|traced|count --constraints FILE --stream FILE
//!                 [--acks FILE] --checkpoint-every N --work DIR --report-out FILE
//! perfbench-probe load --socket PATH --stream FILE --rate R --warmup-s S --fixed-s S
//!                 --daemon-pid PID --search-s S --probe-s S --limit-ms MS --out DIR
//! perfbench-probe quantiles FILE
//! perfbench-probe spawn [--stdout FILE] [--cwd DIR] -- PROGRAM ARGS…
//! ```
//!
//! Every command prints one JSON object on standard output;
//! `perfbench/run.py` drives them and the `rtic` binary.

mod gen;
mod load;
mod replay;
mod serve;
mod spawn;
mod stats;
mod trace;

use std::path::PathBuf;

use rtic_workload::ScenarioParams;

use gen::ScenarioSpec;
use replay::Mode;

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parsed<T: std::str::FromStr>(args: &[String], name: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    let value = flag(args, name).ok_or_else(|| format!("missing {name}"))?;
    value
        .parse()
        .map_err(|e| format!("bad {name} `{value}`: {e}"))
}

fn path(args: &[String], name: &str) -> Result<PathBuf, String> {
    flag(args, name)
        .map(PathBuf::from)
        .ok_or_else(|| format!("missing {name}"))
}

fn positional(args: &[String], i: usize, what: &str) -> Result<String, String> {
    args.get(i)
        .filter(|a| !a.starts_with("--"))
        .cloned()
        .ok_or_else(|| format!("missing {what}"))
}

fn scenario(args: &[String], name: String) -> Result<ScenarioSpec, String> {
    let defaults = ScenarioParams::default();
    Ok(ScenarioSpec {
        name,
        params: ScenarioParams {
            steps: parsed(args, "--steps")?,
            entities: parsed(args, "--entities")?,
            events_per_step: defaults.events_per_step,
            violation_rate: defaults.violation_rate,
            seed: parsed(args, "--seed")?,
        },
    })
}

fn mode(name: &str) -> Result<Mode, String> {
    match name {
        "reference" | "plain" => Ok(Mode::Reference),
        "traced" => Ok(Mode::Traced),
        "count" => Ok(Mode::Count),
        other => Err(format!("unknown mode `{other}`")),
    }
}

fn run(args: &[String]) -> Result<String, String> {
    let report = match args.first().map(String::as_str) {
        Some("gen") => {
            let spec = scenario(args, positional(args, 1, "<scenario>")?)?;
            gen::write_inputs(&spec, &path(args, "--out")?)?
        }
        Some("check-replay") => {
            let mode = mode(&positional(args, 1, "<mode>")?)?;
            let spec = scenario(args, positional(args, 2, "<scenario>")?)?;
            let dir = path(args, "--dir")?;
            replay::run(
                &replay::ReplayArgs {
                    spec,
                    constraints: dir.join("constraints.rtic"),
                    log: dir.join("log.rticlog"),
                    report_out: path(args, "--report-out")?,
                    work: path(args, "--work")?,
                },
                mode,
            )?
        }
        Some("serve-replay") => {
            let mode = mode(&positional(args, 1, "<mode>")?)?;
            serve::run(
                &serve::ServeArgs {
                    constraints: path(args, "--constraints")?,
                    stream: path(args, "--stream")?,
                    acks: flag(args, "--acks").map(PathBuf::from),
                    checkpoint_every: parsed(args, "--checkpoint-every")?,
                    report_out: path(args, "--report-out")?,
                    work: path(args, "--work")?,
                },
                mode,
            )?
        }
        Some("load") => load::run(&load::LoadArgs {
            socket: path(args, "--socket")?,
            stream: path(args, "--stream")?,
            rate: parsed(args, "--rate")?,
            warmup_s: parsed(args, "--warmup-s")?,
            fixed_s: parsed(args, "--fixed-s")?,
            daemon_pid: parsed(args, "--daemon-pid")?,
            search_s: parsed(args, "--search-s")?,
            probe_s: parsed(args, "--probe-s")?,
            limit_ms: parsed(args, "--limit-ms")?,
            out: path(args, "--out")?,
        })?,
        Some("spawn") => {
            let split = args
                .iter()
                .position(|a| a == "--")
                .ok_or("spawn: missing `--` before the command")?;
            let (own, command) = args.split_at(split);
            spawn::run(
                &spawn::SpawnArgs {
                    command: command[1..].to_vec(),
                    stdout: flag(own, "--stdout").map(PathBuf::from),
                    cwd: flag(own, "--cwd").map(PathBuf::from),
                },
                &mut std::io::stdout(),
            )?
        }
        Some("quantiles") => stats::quantiles_of(&PathBuf::from(positional(args, 1, "<file>")?))?,
        _ => {
            return Err(
                "usage: perfbench-probe gen|check-replay|serve-replay|load|quantiles|spawn …"
                    .into(),
            )
        }
    };
    Ok(report.render())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(json) => println!("{json}"),
        Err(message) => {
            eprintln!("perfbench-probe: {message}");
            std::process::exit(2);
        }
    }
}
