//! Open-loop load generator for a live `rtic serve` daemon.
//!
//! One process, one connection, two threads: the sender writes each
//! update when it is due, the reader reads replies and pairs them with
//! updates. Latency is measured from the time an update was **due**, so
//! a stall also charges the wait it imposes on the updates behind it;
//! how late the sender itself ran is reported separately.
//!
//! Phases run back to back on the same stream (timestamps keep rising):
//! an untimed warm-up at the fixed rate, the measured fixed-rate phase,
//! then a search for the highest rate that keeps the tail latency within
//! the limit with no failure and no growing backlog. The backlog is
//! capped one below the daemon's queue capacity: at the cap the sender
//! waits (fixed phase) or gives the rate step up (search), so a single
//! client never overflows the queue into `BUSY`.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::stats::{self, Report};

/// One update on the wire.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sent {
    /// Position in the stream.
    pub index: usize,
    /// Phase number (0 warm-up, 1 fixed, 2.. search probes).
    pub phase: usize,
    /// When it was due, ns since the run's clock origin.
    pub due_ns: u64,
    /// When it was written.
    pub sent_ns: u64,
}

/// How an update ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// `OK <n>`: checked, with `n` witnesses (the `VIOL` payloads).
    Ok(Vec<String>),
    /// `BUSY`: shed by the full queue.
    Busy,
    /// `ERR …`.
    Err(String),
}

/// What one reply line meant.
#[derive(Debug, PartialEq)]
pub enum Reply {
    /// A `VIOL` line: held until its update's terminal line.
    Pending,
    /// An update's terminal line.
    Resolved(Sent, Outcome),
    /// The answer to `DRAIN`.
    Drained,
    /// A line no outstanding request explains.
    Unexpected(String),
}

/// Pairs reply lines with the updates they answer.
///
/// The engine thread answers accepted updates in the order they were
/// queued, so `OK`/`ERR` go to the oldest outstanding update. The
/// connection thread writes `BUSY` the moment it reads the rejected
/// update, ahead of any `OK` still owed to earlier updates, so replies
/// are not paired by position: a `BUSY` goes to the newest outstanding
/// update (the one the connection thread has just read, unless the
/// sender got another out in the meantime — a `BUSY` fails the run
/// either way).
#[derive(Default)]
pub struct Pairing {
    outstanding: VecDeque<Sent>,
    viol: Vec<String>,
}

impl Pairing {
    /// Registers an update before it is written.
    pub fn sent(&mut self, sent: Sent) {
        self.outstanding.push_back(sent);
    }

    /// Updates written but not yet answered.
    pub fn outstanding(&self) -> impl Iterator<Item = &Sent> {
        self.outstanding.iter()
    }

    /// Interprets one reply line.
    pub fn on_line(&mut self, line: &str) -> Reply {
        if let Some(payload) = line.strip_prefix("VIOL ") {
            self.viol.push(payload.to_string());
            return Reply::Pending;
        }
        if line.starts_with("OK drained") {
            return Reply::Drained;
        }
        let (sent, outcome) = if line.starts_with("BUSY") {
            (self.outstanding.pop_back(), Outcome::Busy)
        } else if line.starts_with("OK") {
            (
                self.outstanding.pop_front(),
                Outcome::Ok(std::mem::take(&mut self.viol)),
            )
        } else if let Some(detail) = line.strip_prefix("ERR") {
            self.viol.clear();
            (
                self.outstanding.pop_front(),
                Outcome::Err(detail.trim().to_string()),
            )
        } else {
            (None, Outcome::Busy)
        };
        match sent {
            Some(sent) => Reply::Resolved(sent, outcome),
            None => Reply::Unexpected(line.to_string()),
        }
    }
}

/// Bracketing search for the highest passing rate: grow geometrically
/// from the last pass until a step fails, then bisect (geometric mean)
/// until the bracket is within `resolution`.
#[derive(Clone, Debug)]
pub struct RateSearch {
    lo: Option<f64>,
    hi: Option<f64>,
    resolution: f64,
    growth: f64,
}

impl RateSearch {
    /// A search seeded with one measured step.
    pub fn new(rate: f64, passed: bool, resolution: f64, growth: f64) -> RateSearch {
        let mut search = RateSearch {
            lo: None,
            hi: None,
            resolution,
            growth,
        };
        search.record(rate, passed);
        search
    }

    /// Records one step's outcome.
    pub fn record(&mut self, rate: f64, passed: bool) {
        if passed {
            self.lo = Some(self.lo.map_or(rate, |lo| lo.max(rate)));
        } else {
            self.hi = Some(self.hi.map_or(rate, |hi| hi.min(rate)));
        }
    }

    /// The next rate to try, or `None` once the bracket is tight.
    pub fn next(&self) -> Option<f64> {
        match (self.lo, self.hi) {
            (Some(lo), Some(hi)) if hi <= lo * (1.0 + self.resolution) => None,
            (Some(lo), Some(hi)) => Some((lo * hi).sqrt()),
            (Some(lo), None) => Some(lo * self.growth),
            (None, Some(hi)) => Some(hi / self.growth),
            (None, None) => None,
        }
    }

    /// The highest rate that passed (0 if none did).
    pub fn best(&self) -> f64 {
        self.lo.unwrap_or(0.0)
    }

    /// Whether the bracket closed to the resolution.
    pub fn converged(&self) -> bool {
        self.lo.is_some() && self.hi.is_some() && self.next().is_none()
    }
}

/// Schedule slot `k` of a phase that starts at `start_ns` with `rate`
/// updates per second.
pub fn due_ns(start_ns: u64, rate: f64, k: usize) -> u64 {
    start_ns + (k as f64 * 1e9 / rate) as u64
}

/// Milliseconds an update was sent after it was due (0 if early).
pub fn lateness_ms(sent: &Sent) -> f64 {
    sent.sent_ns.saturating_sub(sent.due_ns) as f64 / 1e6
}

/// Milliseconds from when an update was due to its terminal reply.
pub fn latency_ms(sent: &Sent, reply_ns: u64) -> f64 {
    reply_ns.saturating_sub(sent.due_ns) as f64 / 1e6
}

/// Knobs of one load run.
pub struct LoadArgs {
    /// Daemon socket.
    pub socket: PathBuf,
    /// Update lines to send, in order.
    pub stream: PathBuf,
    /// Fixed offered rate (updates/s).
    pub rate: f64,
    /// Untimed warm-up at the fixed rate, seconds.
    pub warmup_s: f64,
    /// Measured fixed-rate phase, seconds.
    pub fixed_s: f64,
    /// The daemon's pid, to read its CPU time around the fixed phase.
    pub daemon_pid: u32,
    /// Time budget of the rate search, seconds.
    pub search_s: f64,
    /// Length of one search step, seconds.
    pub probe_s: f64,
    /// Tail-latency limit, ms.
    pub limit_ms: f64,
    /// Output directory (accepted stream, acks, received witnesses).
    pub out: PathBuf,
}

/// One answered (or lost) update.
struct Resolved {
    sent: Sent,
    outcome: Option<Outcome>,
    reply_ns: u64,
}

/// Phase number of the measured fixed-rate phase (the warm-up is 0,
/// search steps follow).
const FIXED: usize = 1;

/// What a phase produced.
struct PhaseStats {
    sent: usize,
    failed: usize,
    /// Latency per update from its due time, ascending; a failed update
    /// counts as infinite.
    latency: Vec<f64>,
    /// The same latencies with their due times, in send order.
    timed: Vec<(u64, f64)>,
    /// How late each update was sent, ascending.
    lateness: Vec<f64>,
    capped: bool,
}

impl PhaseStats {
    fn passes(&self, limit_ms: f64) -> bool {
        let tail = stats::tail(&self.latency).map_or(f64::INFINITY, |(_, v)| v);
        self.failed == 0 && !self.capped && tail <= limit_ms
    }
}

struct Shared {
    origin: Instant,
    /// Updates answered so far; changed only under `gate`.
    resolved: AtomicU64,
    gate: Mutex<()>,
    answered: Condvar,
    results: Mutex<Vec<Resolved>>,
}

impl Shared {
    fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn resolved(&self) -> u64 {
        self.resolved.load(Ordering::SeqCst)
    }

    /// Counts one answer and wakes a waiting sender.
    fn note_answered(&self) {
        {
            let _gate = self.gate.lock().expect("no panics while holding the gate");
            self.resolved.fetch_add(1, Ordering::SeqCst);
        }
        self.answered.notify_one();
    }

    /// Blocks until at most `limit` of `sent` updates are unanswered.
    fn wait_until_outstanding(&self, sent: u64, limit: u64) -> Result<(), String> {
        let deadline = Instant::now() + Duration::from_secs(20);
        let mut gate = self.gate.lock().expect("no panics while holding the gate");
        while sent - self.resolved() > limit {
            if Instant::now() > deadline {
                return Err("replies stopped arriving".into());
            }
            gate = self
                .answered
                .wait_timeout(gate, Duration::from_millis(50))
                .expect("no panics while holding the gate")
                .0;
        }
        Ok(())
    }
}

/// Drives the daemon through all phases, then drains it.
pub fn run(args: &LoadArgs) -> Result<Report, String> {
    let text = std::fs::read_to_string(&args.stream)
        .map_err(|e| format!("cannot read {}: {e}", args.stream.display()))?;
    let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
    let conn = UnixStream::connect(&args.socket)
        .map_err(|e| format!("cannot connect to {}: {e}", args.socket.display()))?;
    let read_half = conn
        .try_clone()
        .map_err(|e| format!("cannot clone the connection: {e}"))?;
    let shared = Arc::new(Shared {
        origin: Instant::now(),
        resolved: AtomicU64::new(0),
        gate: Mutex::new(()),
        answered: Condvar::new(),
        results: Mutex::new(Vec::new()),
    });
    let (tx, rx) = mpsc::channel::<Sent>();

    std::thread::scope(|scope| {
        let reader_shared = Arc::clone(&shared);
        let reader = scope.spawn(move || read_replies(read_half, rx, &reader_shared));
        let mut sender = Sender {
            conn,
            lines: &lines,
            tx,
            shared: &shared,
            cap: crate::serve::queue_capacity() as u64 - 1,
            next_line: 0,
            sent_total: 0,
            phase_no: 0,
        };
        let driven = drive(args, &mut sender);
        let sent_total = sender.next_line;
        drop(sender);
        let read = reader
            .join()
            .map_err(|_| "the reply reader panicked".to_string())?;
        let report = driven?;
        let unexpected = read?;
        finish(args, &lines, &shared, report, sent_total, unexpected)
    })
}

/// The sending side of the connection.
struct Sender<'a> {
    conn: UnixStream,
    lines: &'a [&'a str],
    tx: mpsc::Sender<Sent>,
    shared: &'a Shared,
    cap: u64,
    next_line: usize,
    sent_total: u64,
    phase_no: usize,
}

impl Sender<'_> {
    fn outstanding(&self) -> u64 {
        self.sent_total - self.shared.resolved()
    }

    fn send(&mut self, phase: usize, due_ns: u64) -> Result<(), String> {
        let Some(line) = self.lines.get(self.next_line) else {
            return Err(format!(
                "the stream ran out after {} updates",
                self.next_line
            ));
        };
        let sent = Sent {
            index: self.next_line,
            phase,
            due_ns,
            sent_ns: self.shared.now(),
        };
        // Registered before the write, so the reader knows every update
        // a reply can answer.
        self.tx
            .send(sent)
            .map_err(|_| "the reply reader stopped early".to_string())?;
        self.conn
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("send failed: {e}"))?;
        self.next_line += 1;
        self.sent_total += 1;
        Ok(())
    }

    /// Waits until every update sent so far is answered.
    fn quiesce(&self) -> Result<(), String> {
        self.shared.wait_until_outstanding(self.sent_total, 0)
    }

    /// One open-loop phase at `rate` for `seconds`. At the backlog cap
    /// the sender waits (the wait counts against latency, which is timed
    /// from the due time) or, with `abort_at_cap`, ends the phase.
    /// Returns the phase number and whether the cap was hit.
    fn open_loop(
        &mut self,
        rate: f64,
        seconds: f64,
        abort_at_cap: bool,
    ) -> Result<(usize, bool), String> {
        let phase = self.phase_no;
        self.phase_no += 1;
        let n = ((rate * seconds).ceil() as usize).max(1);
        let start = self.shared.now();
        let mut capped = false;
        for k in 0..n {
            let due = due_ns(start, rate, k);
            let now = self.shared.now();
            if due > now {
                std::thread::sleep(Duration::from_nanos(due - now));
            }
            if self.outstanding() >= self.cap {
                capped = true;
                if abort_at_cap {
                    break;
                }
                self.shared
                    .wait_until_outstanding(self.sent_total, self.cap - 1)?;
            }
            self.send(phase, due)?;
        }
        self.quiesce()?;
        Ok((phase, capped))
    }
}

/// The sender: every phase in order, then `DRAIN`.
fn drive(args: &LoadArgs, sender: &mut Sender<'_>) -> Result<Report, String> {
    let shared = sender.shared;
    sender.open_loop(args.rate, args.warmup_s, false)?;
    let cpu_before = cpu_ns(args.daemon_pid)?;
    let (fixed_phase, fixed_capped) = sender.open_loop(args.rate, args.fixed_s, false)?;
    let daemon_cpu_s = (cpu_ns(args.daemon_pid)? - cpu_before) as f64 / 1e9;
    let fixed = phase_stats(shared, fixed_phase, fixed_capped);
    let mut search = RateSearch::new(args.rate, fixed.passes(args.limit_ms), 0.05, 1.5);
    let mut probes = String::new();
    let search_start = Instant::now();
    let mut steps = 0u64;
    while let Some(rate) = search.next() {
        if search_start.elapsed().as_secs_f64() >= args.search_s {
            break;
        }
        let seconds = args.probe_s.max(1000.0 / rate);
        let (phase, capped) = sender.open_loop(rate, seconds, true)?;
        let passed = phase_stats(shared, phase, capped).passes(args.limit_ms);
        let _ = write!(
            probes,
            "{}{:.0}:{}",
            if probes.is_empty() { "" } else { "," },
            rate,
            if passed { "pass" } else { "fail" }
        );
        search.record(rate, passed);
        steps += 1;
    }
    sender
        .conn
        .write_all(b"DRAIN\n")
        .map_err(|e| format!("cannot send DRAIN: {e}"))?;

    let (latency, late) = (&fixed.latency, &fixed.lateness);
    let (tail_pct, tail) = stats::tail(latency).unwrap_or((50.0, f64::INFINITY));
    let mut report = Report::default();
    report
        .num("rate", args.rate)
        .int("fixed_sent", fixed.sent as u64)
        .int("fixed_failed", fixed.failed as u64)
        .int("fixed_capped", u64::from(fixed.capped))
        .num("p50_ms", stats::percentile(latency, 50.0))
        .num("p90_ms", stats::percentile(latency, 90.0))
        .num(
            "p90_sliced_ms",
            stats::sliced_percentile(&fixed.timed, 1_000_000_000, 90.0),
        )
        .num("tail_ms", tail)
        .num("tail_pct", tail_pct)
        .num("late_p50_ms", stats::percentile(late, 50.0))
        .num("late_tail_ms", stats::tail(late).map_or(0.0, |(_, v)| v))
        .num("daemon_cpu_s", daemon_cpu_s)
        .num("max_rate", search.best())
        .int("search_converged", u64::from(search.converged()))
        .int("search_steps", steps)
        .text("search_log", &probes);
    Ok(report)
}

/// CPU time (ns) the process `pid` has run so far: the sum over its
/// threads of the first field of `/proc/<pid>/task/<tid>/schedstat`.
fn cpu_ns(pid: u32) -> Result<u64, String> {
    let dir = format!("/proc/{pid}/task");
    let tasks = std::fs::read_dir(&dir).map_err(|e| format!("cannot read {dir}: {e}"))?;
    let mut total = 0u64;
    for task in tasks {
        let path = task
            .map_err(|e| format!("{dir}: {e}"))?
            .path()
            .join("schedstat");
        // A thread may exit between listing and reading.
        let Ok(text) = std::fs::read_to_string(&path) else {
            continue;
        };
        let ns = text.split_whitespace().next().unwrap_or("0");
        total += ns
            .parse::<u64>()
            .map_err(|e| format!("bad {}: {e}", path.display()))?;
    }
    Ok(total)
}

/// Outcome counts and latency/lateness samples of one phase.
fn phase_stats(shared: &Shared, phase: usize, capped: bool) -> PhaseStats {
    let results = shared
        .results
        .lock()
        .expect("reader holds no lock across a panic");
    let mut stats = PhaseStats {
        sent: 0,
        failed: 0,
        latency: Vec::new(),
        timed: Vec::new(),
        lateness: Vec::new(),
        capped,
    };
    for r in results.iter().filter(|r| r.sent.phase == phase) {
        stats.sent += 1;
        stats.lateness.push(lateness_ms(&r.sent));
        // A failed update misses every latency limit.
        let latency = match &r.outcome {
            Some(Outcome::Ok(_)) => latency_ms(&r.sent, r.reply_ns),
            _ => {
                stats.failed += 1;
                f64::INFINITY
            }
        };
        stats.timed.push((r.sent.due_ns, latency));
    }
    stats.latency = stats::sorted(stats.timed.iter().map(|&(_, v)| v).collect());
    stats.lateness = stats::sorted(std::mem::take(&mut stats.lateness));
    stats
}

/// The reader: pairs every reply line until `OK drained` or EOF. Returns
/// how many lines no request explained.
fn read_replies(
    conn: UnixStream,
    rx: mpsc::Receiver<Sent>,
    shared: &Shared,
) -> Result<u64, String> {
    let mut reader = BufReader::new(conn);
    let mut pairing = Pairing::default();
    let mut line = String::new();
    let mut unexpected = 0u64;
    loop {
        line.clear();
        let n = reader
            .read_line(&mut line)
            .map_err(|e| format!("reading replies: {e}"))?;
        let now = shared.now();
        if n == 0 {
            break;
        }
        while let Ok(sent) = rx.try_recv() {
            pairing.sent(sent);
        }
        match pairing.on_line(line.trim_end()) {
            Reply::Pending => {}
            Reply::Drained => break,
            Reply::Resolved(sent, outcome) => {
                shared
                    .results
                    .lock()
                    .expect("sender holds no lock across a panic")
                    .push(Resolved {
                        sent,
                        outcome: Some(outcome),
                        reply_ns: now,
                    });
                shared.note_answered();
            }
            Reply::Unexpected(_) => unexpected += 1,
        }
    }
    // Whatever is still outstanding never got an answer.
    while let Ok(sent) = rx.try_recv() {
        pairing.sent(sent);
    }
    let mut results = shared
        .results
        .lock()
        .expect("sender holds no lock across a panic");
    for sent in pairing.outstanding() {
        results.push(Resolved {
            sent: *sent,
            outcome: None,
            reply_ns: 0,
        });
    }
    Ok(unexpected)
}

/// Writes the accepted stream, the fixed phase's acks and the received
/// witnesses, and totals the outcomes.
fn finish(
    args: &LoadArgs,
    lines: &[&str],
    shared: &Shared,
    mut report: Report,
    sent_total: usize,
    unexpected: u64,
) -> Result<Report, String> {
    let mut results = shared.results.lock().expect("reader has finished");
    results.sort_by_key(|r| r.sent.index);
    let (mut accepted, mut acks, mut viol) = (String::new(), String::new(), String::new());
    let (mut ok, mut busy, mut err, mut missing) = (0u64, 0u64, 0u64, 0u64);
    for r in results.iter() {
        match &r.outcome {
            Some(Outcome::Ok(witnesses)) => {
                if r.sent.phase == FIXED {
                    let _ = writeln!(acks, "{ok} {}", latency_ms(&r.sent, r.reply_ns));
                }
                let _ = writeln!(accepted, "{}", lines[r.sent.index]);
                for w in witnesses {
                    let _ = writeln!(viol, "{w}");
                }
                ok += 1;
            }
            Some(Outcome::Busy) => busy += 1,
            Some(Outcome::Err(_)) => err += 1,
            None => missing += 1,
        }
    }
    let io = |e: std::io::Error| format!("cannot write into {}: {e}", args.out.display());
    std::fs::write(args.out.join("accepted.rticlog"), accepted).map_err(io)?;
    std::fs::write(args.out.join("acks.txt"), acks).map_err(io)?;
    std::fs::write(args.out.join("received.txt"), viol).map_err(io)?;
    report
        .int("sent", sent_total as u64)
        .int("ok", ok)
        .int("busy", busy)
        .int("err", err)
        .int("missing", missing)
        .int("unexpected", unexpected);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sent(index: usize) -> Sent {
        Sent {
            index,
            phase: 1,
            due_ns: 0,
            sent_ns: 0,
        }
    }

    #[test]
    fn busy_overtaking_earlier_oks_is_paired_with_the_newest_update() {
        let mut p = Pairing::default();
        for i in 0..3 {
            p.sent(sent(i));
        }
        // Update 2 is shed while 0 and 1 still wait in the queue: its
        // BUSY arrives first.
        assert_eq!(
            p.on_line("BUSY 50"),
            Reply::Resolved(sent(2), Outcome::Busy)
        );
        assert_eq!(p.on_line("VIOL @1 VIOLATION c x1: {[a=x]}"), Reply::Pending);
        assert_eq!(
            p.on_line("OK 1"),
            Reply::Resolved(
                sent(0),
                Outcome::Ok(vec!["@1 VIOLATION c x1: {[a=x]}".into()])
            )
        );
        assert_eq!(
            p.on_line("OK 0"),
            Reply::Resolved(sent(1), Outcome::Ok(vec![]))
        );
        assert_eq!(p.on_line("OK 0"), Reply::Unexpected("OK 0".into()));
        assert_eq!(p.on_line("OK drained steps=2"), Reply::Drained);
    }

    #[test]
    fn a_busy_between_viol_lines_keeps_them_with_their_update() {
        let mut p = Pairing::default();
        p.sent(sent(0));
        p.sent(sent(1));
        assert_eq!(p.on_line("VIOL a"), Reply::Pending);
        assert_eq!(
            p.on_line("BUSY 50"),
            Reply::Resolved(sent(1), Outcome::Busy)
        );
        assert_eq!(p.on_line("VIOL b"), Reply::Pending);
        assert_eq!(
            p.on_line("OK 2"),
            Reply::Resolved(sent(0), Outcome::Ok(vec!["a".into(), "b".into()]))
        );
        assert_eq!(p.outstanding().count(), 0);
    }

    #[test]
    fn errors_pair_in_queue_order() {
        let mut p = Pairing::default();
        p.sent(sent(0));
        p.sent(sent(1));
        assert_eq!(
            p.on_line("ERR at @3: time went backwards"),
            Reply::Resolved(sent(0), Outcome::Err("at @3: time went backwards".into()))
        );
        assert_eq!(p.outstanding().count(), 1);
    }

    #[test]
    fn lateness_and_latency_count_from_the_due_time() {
        let start = 1_000_000_000;
        let due = due_ns(start, 1000.0, 3);
        assert_eq!(due, start + 3_000_000);
        let s = Sent {
            index: 3,
            phase: 1,
            due_ns: due,
            sent_ns: due + 2_500_000,
        };
        assert_eq!(lateness_ms(&s), 2.5);
        // The reply came 1 ms after the (late) send: 3.5 ms from due.
        assert_eq!(latency_ms(&s, s.sent_ns + 1_000_000), 3.5);
        // Sent early (clock granularity): not negative.
        let early = Sent {
            sent_ns: due - 10,
            ..s
        };
        assert_eq!(lateness_ms(&early), 0.0);
    }

    #[test]
    fn search_grows_then_bisects_to_the_resolution() {
        // A daemon that passes every rate up to 10 000/s.
        let capacity = 10_000.0;
        let mut search = RateSearch::new(4000.0, true, 0.05, 1.5);
        let mut tried = Vec::new();
        while let Some(rate) = search.next() {
            tried.push(rate);
            search.record(rate, rate <= capacity);
            assert!(tried.len() < 20, "search must terminate");
        }
        assert!(search.converged());
        let best = search.best();
        assert!(best <= capacity && best >= capacity / 1.05, "best {best}");
        // First it grows by the factor.
        assert_eq!(tried[0], 6000.0);
        assert_eq!(tried[1], 9000.0);
    }

    #[test]
    fn search_descends_when_the_seed_fails() {
        let mut search = RateSearch::new(8000.0, false, 0.05, 2.0);
        assert_eq!(search.next(), Some(4000.0));
        search.record(4000.0, true);
        let mid = search.next().expect("bracket still wide");
        assert!(mid > 4000.0 && mid < 8000.0);
        assert_eq!(search.best(), 4000.0);
    }

    #[test]
    fn failing_everything_reports_zero() {
        let mut search = RateSearch::new(100.0, false, 0.05, 2.0);
        for _ in 0..5 {
            let r = search.next().expect("keeps descending");
            search.record(r, false);
        }
        assert_eq!(search.best(), 0.0);
        assert!(!search.converged());
    }
}
