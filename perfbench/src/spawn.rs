//! `perfbench-probe spawn`: starts the process under test and reports
//! its exit code, wall time and peak resident memory, read from outside
//! with `wait4`.
//!
//! A child's `ru_maxrss` also counts the memory of the process that
//! spawned it: exec records the peak of the address space it replaces,
//! and a vfork child replaces its parent's. `run.py` holds whole logs in
//! memory, so it starts the process under test through this small
//! program, whose own resident set is a few MB.
//!
//! `{"pid":N}` is written to `announce` as soon as the child runs; the
//! report, once it has ended, is `{"code":C,"wall_s":S,"maxrss_mb":M}`.
//! Wall time runs from before the spawn to the return of `wait4`.

use std::fs::File;
use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Instant;

use crate::stats::Report;

/// `struct rusage` of 64-bit Linux: two `timeval`s, then 14 longs, the
/// first of which is `ru_maxrss` (KiB).
#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// What to start.
pub struct SpawnArgs {
    /// Program and arguments.
    pub command: Vec<String>,
    /// Where the child's standard output goes (discarded if `None`).
    pub stdout: Option<PathBuf>,
    /// Working directory of the child.
    pub cwd: Option<PathBuf>,
}

/// Starts the child, announces its pid, waits for it and reports.
pub fn run(args: &SpawnArgs, announce: &mut dyn Write) -> Result<Report, String> {
    let (program, rest) = args.command.split_first().ok_or("nothing to spawn")?;
    let stdout = match &args.stdout {
        Some(path) => Stdio::from(
            File::create(path).map_err(|e| format!("cannot create {}: {e}", path.display()))?,
        ),
        None => Stdio::null(),
    };
    let mut command = Command::new(program);
    command.args(rest).stdout(stdout).stderr(Stdio::null());
    if let Some(dir) = &args.cwd {
        command.current_dir(dir);
    }
    let start = Instant::now();
    let child = command
        .spawn()
        .map_err(|e| format!("cannot start {program}: {e}"))?;
    let pid = child.id() as i32;
    let mut started = Report::default();
    started.int("pid", u64::from(child.id()));
    writeln!(announce, "{}", started.render())
        .and_then(|()| announce.flush())
        .map_err(|e| format!("cannot announce the pid: {e}"))?;

    let mut status = 0i32;
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    loop {
        // SAFETY: `status` and `usage` are valid for writes and `usage`
        // has the layout of the platform's `struct rusage`; `pid` is our
        // own child, which `Child` never waits for on its own.
        let got = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if got == pid {
            break;
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(format!("wait4 on {pid}: {err}"));
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    let mut report = Report::default();
    report
        .num("code", f64::from(exit_code(status)))
        .num("wall_s", wall_s)
        .num("maxrss_mb", usage.maxrss as f64 / 1024.0);
    Ok(report)
}

/// The exit code of a `wait` status, or minus the signal that ended it.
fn exit_code(status: i32) -> i32 {
    let signal = status & 0x7f;
    if signal == 0 {
        (status >> 8) & 0xff
    } else {
        -signal
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wait_statuses_decode_to_codes_and_signals() {
        assert_eq!(exit_code(0), 0);
        assert_eq!(exit_code(1 << 8), 1);
        assert_eq!(exit_code(2 << 8), 2);
        assert_eq!(exit_code(9), -9);
    }

    #[test]
    fn reports_code_and_memory_of_the_child() {
        let mut announced = Vec::new();
        let report = run(
            &SpawnArgs {
                command: vec!["sh".into(), "-c".into(), "exit 3".into()],
                stdout: None,
                cwd: None,
            },
            &mut announced,
        )
        .unwrap()
        .render();
        assert!(String::from_utf8(announced)
            .unwrap()
            .starts_with("{\"pid\":"));
        assert!(report.starts_with("{\"code\":3,\"wall_s\":"), "{report}");
        assert!(!report.ends_with("\"maxrss_mb\":0}"), "{report}");
    }
}
