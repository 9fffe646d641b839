#!/usr/bin/env python3
"""End-to-end benchmark of rtic: log replay and online serving.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload replay-monitor --seed 42 --seconds 10 --trace 0

It builds `rtic` and the in-process probe (`perfbench/`, a cargo package of
its own) into $CARGO_TARGET_DIR (default `.bench_build`), generates the
workload from the scenario registry with the given seed, runs the real user
path (`rtic check`, or a live `rtic serve` fed by the open-loop generator;
each process under test is started through `perfbench-probe spawn`, which
reads its wall time and peak memory from outside), checks every output, prints each metric by name with its unit, and ends
with one JSON line: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics; --trace 1 repeats the workload
in-process, timing each layer call from outside, and reports the per-layer
metrics. Workload knobs, metric definitions and the layer-to-metric map
live in perfbench/workloads.json. An output mismatch prints the result with
"correct": false and exits 1; a failed build or run exits 2 without a
result.
"""

import argparse
import contextlib
import json
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
CONFIG = os.path.join(BENCH_DIR, "workloads.json")
# Wall-clock limit for any single child process.
CHILD_TIMEOUT_S = 150
# Set-up is timed in batches of SETUP_BATCH, SETUP_GAP_S apart, at three
# or more points of a run, and the median reported. One batch falls into
# one of the host's CPU states (see below); batches spread over the run
# sample both.
SETUP_BATCH = 21
SETUP_GAP_S = 0.01
# Gated end-to-end metrics (BENCHMARK.json) are the ones that stay steady
# on a shared 2-vCPU host that switches between a fast and a slow CPU
# state every 0.5-3 s: p90 per-update latency reads the slow state, which
# every run contains, while throughput and median latency mix the two
# states and spread 0.15-0.4. Those, and the other metrics the benchmark
# defines, are printed with their units.


class BenchError(Exception):
    """A failure that must end the run without a result."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_checked(cmd, cwd=None, env=None):
    """Runs a helper command; its failure ends the benchmark."""
    proc = subprocess.run(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S * 4)
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd)} failed ({proc.returncode}):\n"
                         f"{proc.stderr[-4000:]}")
    return proc.stdout


def build(root):
    """Builds rtic and the probe; returns their paths."""
    if not os.path.isfile(os.path.join(root, "Cargo.toml")):
        raise BenchError("run from the root of an rtic source checkout")
    env = dict(os.environ)
    target = os.path.abspath(os.path.join(root, env.get("CARGO_TARGET_DIR", ".bench_build")))
    env["CARGO_TARGET_DIR"] = target
    run_checked(["cargo", "build", "--release", "--offline", "--quiet", "--bin", "rtic"],
                cwd=root, env=env)
    run_checked(["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path",
                 os.path.join(BENCH_DIR, "Cargo.toml")], cwd=root, env=env)
    rtic = os.path.join(target, "release", "rtic")
    probe = os.path.join(target, "release", "perfbench-probe")
    for exe in (rtic, probe):
        if not os.access(exe, os.X_OK):
            raise BenchError(f"build produced no {exe}")
    return rtic, probe


def probe_json(probe, *args):
    out = run_checked([probe, *map(str, args)])
    return json.loads(out.strip().splitlines()[-1])


@contextlib.contextmanager
def killed_after(target, seconds=CHILD_TIMEOUT_S):
    """Kills `target` and fails the run if the block takes over `seconds`."""

    def on_alarm(_signum, _frame):
        target.kill()
        raise BenchError(f"{target.name} did not finish in {seconds} s")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class Spawned:
    """A process under test, started through `perfbench-probe spawn`.

    The spawner reads the child's exit code, wall time (spawn to the return
    of wait4) and peak RSS (ru_maxrss) from outside. Started from this
    script instead, whose resident set holds whole logs, the child's
    ru_maxrss would count this script's memory too (see src/spawn.rs).
    """

    def __init__(self, probe, cmd, stdout_path=None, cwd=None):
        opts = (["--stdout", stdout_path] if stdout_path else []) + (["--cwd", cwd] if cwd else [])
        self.name = os.path.basename(cmd[0])
        self.spawner = subprocess.Popen([probe, "spawn", *opts, "--", *map(str, cmd)],
                                        stdout=subprocess.PIPE, text=True)
        first = self.spawner.stdout.readline()
        # The child runs from here on, give or take a pipe wake-up.
        self.started = time.perf_counter()
        if not first:
            self.spawner.wait()
            raise BenchError(f"could not start {cmd[0]}")
        self.pid = json.loads(first)["pid"]

    def result(self):
        """Waits for the child; returns (exit code, wall seconds, peak RSS MB).

        Callers bound the wait with `killed_after`.
        """
        last = self.spawner.stdout.readline()
        self.spawner.wait()
        self.spawner.stdout.close()
        if not last:
            raise BenchError(f"lost track of {self.name}")
        res = json.loads(last)
        return int(res["code"]), res["wall_s"], res["maxrss_mb"]

    def kill(self):
        """Kills the child; the spawner then reaps it and exits."""
        with contextlib.suppress(ProcessLookupError):
            os.kill(self.pid, signal.SIGKILL)
        try:
            self.spawner.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.spawner.kill()
            self.spawner.wait()


def spawn_measured(probe, cmd, stdout_path=None):
    """Runs `cmd` to completion; returns (exit code, wall seconds, peak RSS MB)."""
    proc = Spawned(probe, cmd, stdout_path)
    with killed_after(proc):
        return proc.result()


def feed_check(probe, rtic, constraints, log_lines, work, stdout_path):
    """Runs `rtic check` on the log streamed to it through a FIFO.

    Returns (exit code, wall seconds, peak RSS MB, per-update seconds).
    The pipe holds at most 64 KiB ahead of its reader, so the moment the
    last byte of a log line enters it is when `rtic check` takes that line
    up; the gap to the next line is the time the process spent on that
    update (parse, step, render), read from outside. The last update runs
    until the process exits.
    """
    fifo = os.path.join(work, "log.fifo")
    if os.path.exists(fifo):
        os.remove(fifo)
    os.mkfifo(fifo)
    taken = []
    proc = Spawned(probe, [rtic, "check", constraints, fifo], stdout_path)
    try:
        with killed_after(proc):
            fd = os.open(fifo, os.O_WRONLY)
            try:
                for line in log_lines:
                    view = memoryview(line)
                    while view:
                        view = view[os.write(fd, view):]
                    taken.append(time.perf_counter())
            finally:
                os.close(fd)
            code, wall, rss_mb = proc.result()
    except BaseException:
        proc.kill()
        raise
    taken.append(time.perf_counter())
    return code, wall, rss_mb, [b - a for a, b in zip(taken, taken[1:])]


def quantiles(probe, samples_ms, path):
    """p50, p90 and tail of `samples_ms`, by the probe's nearest rank."""
    with open(path, "w") as f:
        f.write("\n".join(f"{v:.6f}" for v in samples_ms))
    return probe_json(probe, "quantiles", path)


class SetupTimes:
    """Set-up times, taken in batches; `once(i)` times the i-th set-up."""

    def __init__(self, once):
        self.once = once
        self.times = []

    def batch(self):
        for _ in range(SETUP_BATCH):
            self.times.append(self.once(len(self.times)))
            time.sleep(SETUP_GAP_S)

    def median(self):
        return statistics.median(self.times)


def same_bytes(a, b):
    with open(a, "rb") as fa, open(b, "rb") as fb:
        return fa.read() == fb.read()


def scenario_args(w, seed):
    return [w["scenario"], "--entities", w["entities"], "--steps", w["steps"], "--seed", seed]


# --------------------------------------------------------------------------
# Replay workloads: `rtic check` over a generated log.


def replay(w, seed, seconds, traced, rtic, probe, work):
    inputs = os.path.join(work, "inputs")
    gen = probe_json(probe, "gen", *scenario_args(w, seed), "--out", inputs)
    constraints = os.path.join(inputs, "constraints.rtic")
    log_path = os.path.join(inputs, "log.rticlog")
    with open(log_path, "rb") as f:
        log_lines = f.read().splitlines(keepends=True)
    cli_out = os.path.join(work, "check.out")
    attempted = failed = 0

    def check_run():
        nonlocal attempted, failed
        code, wall, rss, per_update = feed_check(probe, rtic, constraints, log_lines, work,
                                                 cli_out)
        if code not in (0, 1):
            raise BenchError(f"rtic check exited {code}")
        attempted += 1
        if not same_bytes(cli_out, ref_out):
            failed += 1
            log(f"MISMATCH: rtic check output differs from the in-process replay ({cli_out})")
        return wall, rss, per_update

    def replay_pass(mode):
        nonlocal attempted, failed
        out = os.path.join(work, f"{mode}.out")
        res = probe_json(probe, "check-replay", mode, *scenario_args(w, seed),
                         "--dir", inputs, "--work", work, "--report-out", out)
        attempted += res["expected"]
        failed += res["expected"] - res["expected_found"]
        return res, out

    if traced:
        # The traced pass's text is the oracle of this run.
        tr, ref_out = replay_pass("traced")
    else:
        empty = os.path.join(work, "empty.rticlog")
        open(empty, "w").close()

        def setup_once(_):
            code, wall, _ = spawn_measured(probe, [rtic, "check", constraints, empty])
            if code != 0:
                raise BenchError(f"rtic check on an empty log exited {code}")
            return wall

        setup = SetupTimes(setup_once)
        setup.batch()
        ref, ref_out = replay_pass("reference")
        # The measured window: timed rtic check runs, each followed by a
        # set-up batch, until about `seconds` (another run starts only if
        # it should end by 1.25 x `seconds`), and at least min_check_runs.
        start = time.perf_counter()
        setup.batch()
        walls, rss, per_update_ms = [], [], []
        while len(walls) < w["min_check_runs"] or (
                time.perf_counter() - start + statistics.median(walls) <= 1.25 * seconds):
            wall, peak, per_update = check_run()
            setup.batch()
            walls.append(wall)
            rss.append(peak)
            per_update_ms += [v * 1e3 for v in per_update]
        setup_s = setup.median()
        q = quantiles(probe, per_update_ms, os.path.join(work, "per_update_ms.txt"))
        lines = [
            ("setup_s", setup_s, "s"),
            ("replay_tuples_per_s", gen["tuples"] / statistics.median(walls), "1/s"),
            ("peak_rss_mb", statistics.median(rss), "MB"),
            ("update_p50_ms", q["p50"], "ms"),
            ("update_p90_ms", q["p90"], "ms"),
            (f"update_p{int(q['tail_pct'])}_ms", q["tail"], "ms"),
        ]
        metrics = {
            "setup_s": (setup_s, "s"),
            "p90_ms": (q["p90"], "ms"),
            "peak_rss_mb": (statistics.median(rss), "MB"),
        }
        info = (f"{len(walls)} rtic check run(s) of {gen['transitions']} updates / "
                f"{gen['tuples']} tuples / {gen['bytes']} bytes; "
                f"{ref['expected_found']}/{ref['expected']} injected witnesses found")
        return lines, metrics, attempted, failed, info

    wall, _, _ = check_run()
    cnt, cnt_out = replay_pass("count")
    attempted += 1
    if not same_bytes(cnt_out, ref_out):
        failed += 1
        log("MISMATCH: the counting replay differs from the traced replay")
    # The check path applies each update once per constraint.
    layers = layer_metrics(tr, cnt, applies_per_step=gen["constraints"])
    layers["trace.overhead_ratio"] = tr["trace.wall_s"] / wall
    for key in ("server.parse_s", "server.queue_wait_ms", "server.queue_peak", "server.busy",
                "gen.late_ms", "core.dispatch_skip_ratio"):
        layers[key] = 0
    # Which layer the workload exercises, as shares of traced wall time.
    traced_wall = tr["trace.wall_s"]
    ingest = tr["history.parse_s"] + gen["constraints"] * layers["relation.apply_s"]
    info = (f"traced {gen['transitions']} updates; {tr['expected_found']}/{tr['expected']} "
            f"injected witnesses found; service tail is p{int(tr['server.service_tail_pct'])}; "
            f"shares of traced wall: ingest (parse + {gen['constraints']} x apply) "
            f"{ingest / traced_wall:.3f}, core.eval {layers['core.eval_s'] / traced_wall:.3f}, "
            f"unattributed {tr['unattributed_s'] / traced_wall:.3f}")
    return layers, attempted, failed, info


# --------------------------------------------------------------------------
# Serve workload: a live `rtic serve` daemon fed open loop.


def connect(path, deadline):
    while True:
        s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            s.connect(path)
            return s
        except OSError:
            s.close()
            if time.perf_counter() > deadline:
                raise BenchError("the daemon never started listening")
            time.sleep(0.0002)


def request(sock_file, sock, line):
    sock.sendall((line + "\n").encode())
    reply = sock_file.readline()
    if not reply:
        raise BenchError(f"no reply to {line}")
    return reply.strip()


def start_daemon(probe, rtic, constraints, extra, cwd):
    """Spawns `rtic serve` and waits for its first PING; returns (daemon, seconds)."""
    sock_name = "s.sock"
    if os.path.exists(os.path.join(cwd, sock_name)):
        os.remove(os.path.join(cwd, sock_name))
    daemon = Spawned(probe, [rtic, "serve", constraints, "--listen", f"unix:{sock_name}", *extra],
                     cwd=cwd)
    try:
        sock = connect(os.path.join(cwd, sock_name), daemon.started + 30)
        with sock, sock.makefile("r") as f:
            if request(f, sock, "PING") != "OK pong":
                raise BenchError("the daemon did not answer PING")
        return daemon, time.perf_counter() - daemon.started
    except BaseException:
        daemon.kill()
        raise


def stop_daemon(daemon):
    """Waits for a draining daemon to exit; returns its peak RSS MB."""
    try:
        with killed_after(daemon):
            code, _, rss = daemon.result()
    except BaseException:
        daemon.kill()
        raise
    if code != 0:
        raise BenchError(f"the daemon exited {code}")
    return rss


def drain(daemon, cwd):
    try:
        sock = connect(os.path.join(cwd, "s.sock"), time.perf_counter() + 5)
        with sock, sock.makefile("r") as f:
            if not request(f, sock, "DRAIN").startswith("OK drained"):
                raise BenchError("the daemon did not drain")
    except BaseException:
        daemon.kill()
        raise
    stop_daemon(daemon)


def serve(w, seed, seconds, traced, rtic, probe, work):
    rate = float(w["rate"])
    fixed_s = seconds * w["fixed_share"]
    search_s = seconds * w["search_share"]
    # Enough stream for warm-up, the fixed phase, and a search that runs
    # at up to four times the fixed rate.
    steps = int(rate * (w["warmup_s"] + fixed_s + 4 * search_s)) + 10000
    inputs = os.path.join(work, "inputs")
    gen = probe_json(probe, "gen", w["scenario"], "--entities", w["entities"], "--steps", steps,
                     "--seed", seed, "--out", inputs)
    constraints = os.path.join(inputs, "constraints.rtic")
    stream = os.path.join(inputs, "log.rticlog")
    tuples_per_update = gen["tuples"] / gen["transitions"]

    def setup_once(i):
        d = os.path.join(work, f"setup{i}")
        os.makedirs(d, exist_ok=True)
        daemon, secs = start_daemon(probe, rtic, constraints, [], d)
        drain(daemon, d)
        return secs

    setup = SetupTimes(setup_once)
    if not traced:
        setup.batch()

    live = os.path.join(work, "live")
    os.makedirs(live, exist_ok=True)
    daemon, _ = start_daemon(probe, rtic, constraints, [
        "--checkpoint", "serve.ckpt",
        "--checkpoint-every", str(w["checkpoint_every"]),
        "--report", "report.txt", "--metrics", "metrics.json"], live)
    try:
        load = probe_json(probe, "load", "--socket", os.path.join(live, "s.sock"),
                          "--stream", stream, "--rate", rate, "--warmup-s", w["warmup_s"],
                          "--fixed-s", fixed_s,
                          "--daemon-pid", daemon.pid,
                          # The traced run needs the acks, not the rate search.
                          "--search-s", 0 if traced else search_s,
                          "--probe-s", w["probe_s"], "--limit-ms", w["latency_limit_ms"],
                          "--out", live)
    except BaseException:
        daemon.kill()
        raise
    rss = stop_daemon(daemon)
    if not traced:
        setup.batch()

    attempted = load["sent"] + 2
    failed = load["busy"] + load["err"] + load["missing"] + load["unexpected"]
    # docs/SERVING.md: the drained report is byte-identical to rtic check on
    # the same accepted stream; the witnesses streamed back must match too.
    accepted = os.path.join(live, "accepted.rticlog")
    batch = os.path.join(work, "batch.out")
    bcode, _, _ = spawn_measured(probe, [rtic, "check", constraints, accepted], batch)
    if bcode not in (0, 1):
        raise BenchError(f"rtic check on the accepted stream exited {bcode}")
    if not traced:
        setup.batch()
        setup_s = setup.median()
    with open(batch, "rb") as f:
        batch_lines = f.read().splitlines(keepends=True)
    with open(os.path.join(live, "report.txt"), "rb") as f:
        report = f.read()
    if b"".join(batch_lines[:-1]) != report:
        failed += 1
        log("MISMATCH: the daemon's report differs from rtic check on the accepted stream")
    with open(os.path.join(live, "received.txt"), "rb") as f:
        if f.read() != report:
            failed += 1
            log("MISMATCH: the witnesses streamed to the client differ from the report")

    if not traced:
        lines = [
            ("setup_s", setup_s, "s"),
            ("serve_p50_ms", load["p50_ms"], "ms"),
            ("serve_p90_ms", load["p90_ms"], "ms"),
            ("serve_p90_sliced_ms", load["p90_sliced_ms"], "ms"),
            (f"serve_p{int(load['tail_pct'])}_ms", load["tail_ms"], "ms"),
            ("serve_max_rate", load["max_rate"], "1/s"),
            # Tuples the daemon checks per second of its own CPU time (all
            # threads, from /proc around the fixed phase): capacity per core.
            ("serve_tuples_per_cpu_s",
             load["fixed_sent"] * tuples_per_update / load["daemon_cpu_s"], "1/s"),
            ("peak_rss_mb", rss, "MB"),
            ("gen.late_ms", load["late_tail_ms"], "ms"),
        ]
        metrics = {
            "setup_s": (setup_s, "s"),
            "p90_ms": (load["p90_sliced_ms"], "ms"),
            "peak_rss_mb": (rss, "MB"),
        }
        info = (f"offered {rate:.0f}/s for {fixed_s:.1f} s ({load['fixed_sent']} updates, "
                f"{load['fixed_failed']} failed); search steps {load['search_log']} "
                f"(converged={load['search_converged']}); {load['sent']} updates sent, "
                f"{load['ok']} acked, {tuples_per_update:.1f} tuples/update")
        return lines, metrics, attempted, failed, info

    replay_args = ["--constraints", constraints, "--stream", accepted,
                   "--checkpoint-every", w["checkpoint_every"], "--work", work]
    plain = probe_json(probe, "serve-replay", "plain", *replay_args,
                       "--report-out", os.path.join(work, "plain.out"))
    tr = probe_json(probe, "serve-replay", "traced", *replay_args,
                    "--acks", os.path.join(live, "acks.txt"),
                    "--report-out", os.path.join(work, "traced.out"))
    cnt = probe_json(probe, "serve-replay", "count", *replay_args,
                     "--report-out", os.path.join(work, "count.out"))
    attempted += 3
    for mode in ("plain", "traced", "count"):
        with open(os.path.join(work, f"{mode}.out"), "rb") as f:
            if f.read() != report:
                failed += 1
                log(f"MISMATCH: the {mode} serve replay differs from the daemon's report")
    layers = layer_metrics(tr, cnt, applies_per_step=1)
    with open(os.path.join(live, "metrics.json")) as f:
        daemon = json.load(f)["serve"]
    layers.update({
        "server.queue_peak": daemon["queue_peak"],
        "server.busy": daemon["shed"],
        "gen.late_ms": load["late_tail_ms"],
        "trace.overhead_ratio": tr["trace.wall_s"] / plain["wall_s"],
    })
    info = (f"replayed {tr['transitions']} accepted updates in-process; service tail is "
            f"p{int(tr['server.service_tail_pct'])}, queue wait tail "
            f"p{int(tr['server.queue_wait_pct'])}")
    return layers, attempted, failed, info


# --------------------------------------------------------------------------


LAYER_KEYS = [
    "history.parse_s", "history.lines", "history.bytes",
    "relation.apply_s", "relation.tuples", "relation.db_tuples",
    "core.step_s", "core.eval_s", "core.plan_rows_in", "core.plan_rows_out",
    "core.memo_hit_ratio", "core.aux_keys", "core.aux_timestamps", "core.dispatch_skip_ratio",
    "report.render_s", "report.witnesses", "report.bytes",
    "obs.observe_s", "obs.events",
    "checkpoint.save_s", "checkpoint.seal_s", "checkpoint.write_s", "checkpoint.bytes",
    "checkpoint.writes",
    "server.parse_s", "server.service_p50_ms", "server.service_tail_ms",
    "server.queue_wait_ms", "server.queue_peak", "server.busy",
    "gen.late_ms", "trace.wall_s", "unattributed_s", "trace.overhead_ratio",
]


def layer_metrics(traced, counted, applies_per_step):
    """Per-layer metrics from a traced pass and a counting pass.

    `core.eval_s` is derived: traced step time minus the applies it
    contains (the counting pass's `Database::apply` time, times
    `applies_per_step`) minus the observer calls inside the step.
    """
    out = {k: traced[k] for k in LAYER_KEYS if k in traced}
    for k in ("core.plan_rows_in", "core.plan_rows_out", "core.memo_hit_ratio",
              "relation.apply_s", "relation.db_tuples"):
        out[k] = counted[k]
    out["core.eval_s"] = (traced["core.step_s"] - applies_per_step * counted["relation.apply_s"]
                          - traced["core.step_observe_s"])
    return out


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    with open(CONFIG) as f:
        config = json.load(f)
    w = config["workloads"].get(args.workload)
    if w is None:
        raise BenchError(f"unknown workload {args.workload} "
                         f"(known: {', '.join(config['workloads'])})")
    root = os.getcwd()
    rtic, probe = build(root)
    work = os.path.join(root, ".bench_work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    runner = replay if w["kind"] == "replay" else serve
    result = runner(w, args.seed, args.seconds, bool(args.trace),
                    rtic, probe, work)
    if args.trace:
        layers, attempted, failed, info = result
        metrics = {k: (layers[k], unit_of(k)) for k in LAYER_KEYS}
        lines = [(k, v, u) for k, (v, u) in metrics.items()]
    else:
        lines, metrics, attempted, failed, info = result
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: {info}")
    for k, v, u in lines:
        print(f"{k} = {v:.6g} {u}")
    print(f"error_share = {failed / attempted:.6g} ({failed} of {attempted})")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as e:
        log(f"perfbench: {e}")
        sys.exit(2)
