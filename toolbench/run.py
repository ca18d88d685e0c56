#!/usr/bin/env python3
"""Tool-path benchmark for LEAPS: log bytes on disk to printed verdicts.

    python3 toolbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The benchmark builds the tools and
its in-process ledger (toolbench/CMakeLists.txt, Release) into .bench_build/,
generates every input from --seed with leaps-sim, builds the workload's
detectors with leaps-train (timed as setup_s), then runs the workload as
child processes of the real tools for --seconds, checking every output
against an oracle. Training has no workload of its own: its cost is
setup_s on every workload, and every set-up must rebuild the same bytes.

  --trace 0  prints the end-to-end metrics: wall_s, cpu_s and peak_rss_mb of
             the tool children (median over the iterations), setup_s (median
             over five set-ups) and detect_acc (held-out window accuracy of
             the workload's vim detector).
  --trace 1  runs the workload's tools the same way, then repeats the work
             in-process with toolbench-ledger, untraced and traced, and
             prints the per-layer ledger.

Workloads (closed loop: every producer blocks on a full queue):
  scan-text     leaps-scan over three 50k-event text logs of derived seeds
  serve-replay  leaps-serve, four apps' 30k-event binary logs, each scored by
                its own detector (trained on 4k + 3k events), 8 replays
  serve-learn   leaps-serve --online --durable, four 12k-event benign binary
                vim logs of derived seeds, one per session, 4 replays, shadow
                gates open

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. One operation is one window verdict. Exit status 1 means
no result: the build failed, the build is Debug or sanitized, or a named
metric could not be computed.
"""

import argparse
import collections
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "cmake")
TOOLS = os.path.join(BUILD, "leaps", "tools")
LEDGER = os.path.join(BUILD, "toolbench-ledger")
TARGETS = ["leaps-sim", "leaps-train", "leaps-scan", "leaps-serve",
           "toolbench-ledger"]

SETUP_REPEATS = 5          # set-ups per --trace 0 run; setup_s is the median
CHILD_TIMEOUT_S = 120      # a tool child running longer is killed
SCAN_THRESHOLD = 0.25      # leaps-scan / leaps-serve default verdict threshold
LATENCY_MIN_BEYOND = 10    # samples a percentile needs beyond it

APPS = [("vim", "vim_reverse_tcp_online", "vim.exe"),
        ("putty", "putty_reverse_tcp_online", "putty.exe"),
        ("winscp", "winscp_reverse_tcp_online", "winscp.exe"),
        ("notepadpp", "notepad++_reverse_tcp_online", "notepad++.exe")]

TRAIN_EVENTS = 8000        # set-up detectors: 8k benign + 6k mixed events,
REPLAY_TRAIN_EVENTS = 4000  # but 4k + 3k for serve-replay's four
HELDOUT_SETS = 8           # held-out log pairs, each of its own seed,
HELDOUT_EVENTS = 4000      # of 4k benign + 2k malicious events
SCAN_LOGS = 3              # scan-text: three logs of their own seeds,
SCAN_EVENTS = 66667        # mixed = 3/4 of it = 50k events each
REPLAY_EVENTS = 40000      # mixed logs of 30k events
REPLAY_ROUNDS = 8
LEARN_EVENTS = 12000       # serve-learn: one benign log of its own seed per
                           # session (the online path folds in the windows
                           # judged benign, so with mixed logs its work swung
                           # with each seed's verdicts)
LEARN_ROUNDS = 4
SESSIONS = 4
WORKERS = 4

E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
             "setup_s": "s", "detect_acc": "ratio"}

# Per-layer metric -> (unit, the end-to-end metric and workload it should
# move). Every traced run prints all of them; a layer a workload does not
# exercise reads 0 and is marked idle.
LAYERS = {
    "trace.decode_s": ("s", "wall_s, peak_rss_mb on scan-text; ~1/R on serve-replay"),
    "trace.symbolize_s": ("s", "wall_s, peak_rss_mb on scan-text; ~1/R on serve-replay"),
    "trace.partition_s": ("s", "wall_s, peak_rss_mb on scan-text; ~1/R on serve-replay"),
    "trace.ingest_share": ("ratio", "wall_s, peak_rss_mb on scan-text; ~1/R on serve-replay"),
    "trace.token_hit_ratio": ("ratio", "cpu_s on serve-replay"),
    "trace.token_bytes_retained": ("bytes", "cpu_s on serve-replay; peak_rss_mb on serve-learn"),
    "core.load_detector_s": ("s", "cpu_s on serve-replay (major), scan-text (minor)"),
    "core.scan_s": ("s", "cpu_s on serve-replay (major), scan-text (minor)"),
    "ml.support_vectors": ("count", "cpu_s on serve-replay (major), scan-text (minor)"),
    "core.prepare_s": ("s", "setup_s on every workload"),
    "core.preprocess_fit_s": ("s", "setup_s on every workload"),
    "core.make_windows_s": ("s", "setup_s on every workload"),
    "ml.jaccard_s": ("s", "setup_s on every workload"),
    "ml.upgma_s": ("s", "setup_s on every workload"),
    "cfg.infer_s": ("s", "setup_s on every workload"),
    "cfg.assess_s": ("s", "setup_s on every workload"),
    "core.prepare_unexplained_share": ("ratio", "setup_s on every workload"),
    "ml.tune_s": ("s", "setup_s on every workload (most of it)"),
    "ml.train_s": ("s", "setup_s on every workload"),
    "ml.smo_iterations": ("count", "setup_s on every workload"),
    "core.save_detector_s": ("s", "setup_s on every workload"),
    "serve.replay_s": ("s", "wall_s on serve-replay, serve-learn"),
    "serve.submit_ns_per_event": ("ns/event", "wall_s, cpu_s on serve-replay, serve-learn"),
    "serve.producer_cpu_ns_per_event": ("ns/event", "wall_s, cpu_s on serve-replay, serve-learn"),
    "serve.worker_cpu_ns_per_event": ("ns/event", "wall_s, cpu_s on serve-replay, serve-learn"),
    "serve.drain_s": ("s", "wall_s, cpu_s on serve-replay, serve-learn"),
    "serve.verdict_latency_p50_us": ("us", "wall_s, cpu_s on serve-replay, serve-learn"),
    "serve.verdict_latency_p99_us": ("us", "wall_s, cpu_s on serve-replay, serve-learn"),
    "serve.verdict_latency_samples": ("count", "sample count of the two percentiles"),
    "online.poll_s": ("s", "wall_s on serve-learn"),
    "online.tap_overhead_s": ("s", "wall_s on serve-learn"),
    "durable.state_bytes": ("bytes", "wall_s, peak_rss_mb on serve-learn"),
    "bench.tool_overhead_s": ("s", "tool wall_s minus untraced in-process wall"),
    "bench.tracing_overhead": ("ratio", "traced / untraced in-process wall - 1"),
    "bench.unattributed_share": ("ratio", "1 - top-level layers / traced wall"),
}
UNATTRIBUTED_FLAG = 0.10   # ROADMAP 1(a): flag more than 10% unattributed


class Gap(Exception):
    """A named metric could not be computed: the run prints no result."""


def log(msg):
    print(msg, flush=True)


# --- build and stamp --------------------------------------------------------

def source_fingerprint():
    """Path, size and mtime of every file the build reads."""
    entries = []
    for top, dirs, files in os.walk(ROOT):
        dirs[:] = sorted(d for d in dirs if d not in (".bench_build", ".git", "build", "__pycache__"))
        for name in sorted(files):
            st = os.stat(os.path.join(top, name))
            entries.append(f"{os.path.relpath(os.path.join(top, name), ROOT)} "
                           f"{st.st_size} {st.st_mtime_ns}")
    return "\n".join(entries)


def build():
    """Builds the targets, unless nothing changed since the last build (a
    no-op make over the tree costs seconds per run)."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise Gap("no LEAPS source tree next to toolbench/")
    os.makedirs(BUILD_ROOT, exist_ok=True)
    stamp_path = os.path.join(BUILD_ROOT, "built-from")
    fingerprint = source_fingerprint()
    if os.path.isfile(stamp_path) and open(stamp_path).read() == fingerprint:
        return
    build_log = os.path.join(BUILD_ROOT, "build.log")
    # The compiler's temporary files stay inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(BUILD_ROOT, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    with open(build_log, "ab") as out:
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1),
                      "--target"] + TARGETS)
        for step in steps:
            if subprocess.call(step, stdout=out, stderr=subprocess.STDOUT,
                               cwd=ROOT, env=env) != 0:
                raise Gap("build failed: " + " ".join(step) + " (see "
                          + os.path.relpath(build_log, ROOT) + ")")
    with open(stamp_path, "w") as f:
        f.write(fingerprint)


def git_sha():
    """HEAD of the checkout, with -dirty for uncommitted changes; read here
    rather than from --version, whose SHA is fixed when CMake configures."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none (not a git checkout)"
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                             capture_output=True, text=True).stdout.strip()
        dirty = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT, check=True,
                               capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "none (not a git checkout)"
    return sha + ("-dirty" if dirty else "")


def stamp(args):
    out = subprocess.run([tool("leaps-scan"), "--version"], capture_output=True,
                         text=True, check=True).stdout
    m = re.search(r"build: (\S*)\s+sanitizer: (\S+)", out)
    if m is None:
        raise Gap("leaps-scan --version did not parse: " + out.strip())
    build_type, sanitizer = m.groups()
    sha = git_sha()
    log(f"stamp: workload={args.workload} seed={args.seed} nproc={os.cpu_count()} "
        f"git={sha} build={build_type} sanitizer={sanitizer}")
    if build_type.lower() not in ("release", "relwithdebinfo"):
        raise Gap(f"refusing to measure a {build_type or 'untyped'} build")
    if sanitizer != "none":
        raise Gap(f"refusing to measure a {sanitizer}-sanitized build")


def tool(name):
    return os.path.join(TOOLS, name)


# --- children ---------------------------------------------------------------

# One finished child: exit code, wall, CPU, peak RSS and its stdout.
Child = collections.namedtuple("Child", "rc wall_s cpu_s rss_mb out")


def run_child(argv, work, name):
    """Runs argv to completion; times exec to exit and reads wait4 rusage."""
    out_path = os.path.join(work, name + ".out")
    err_path = os.path.join(work, name + ".err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=work)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.send_signal, [signal.SIGKILL])
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8", errors="replace") as f:
        text = f.read()
    return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                 usage.ru_maxrss / 1024.0, text)


def must(child, what, ok=(0,)):
    if child.rc not in ok:
        raise Gap(f"{what} exited {child.rc}")
    return child


def ledger(work, name, argv):
    child = must(run_child([LEDGER] + argv, work, name), "toolbench-ledger " + name)
    lines = child.out.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        raise Gap(f"toolbench-ledger {name} printed no result")


# --- output parsers and checks ----------------------------------------------
#
# Each check takes a tool's exit code and stdout plus what the oracle
# expects, and returns (attempted, failed, problems): windows the invocation
# should have judged, how many of them it got wrong, and why.

SCAN_RE = re.compile(r": (\d+) windows scanned, (\d+) benign, (\d+) malicious")
SESSION_RE = re.compile(r"^session .* windows=(\d+) malicious=(\d+)", re.M)
ONLINE_RE = re.compile(r"^online: cycles=(\d+) failures=(\d+) promotions=(\d+) "
                       r"rollbacks=(\d+)", re.M)


def parse_scan(text):
    m = SCAN_RE.search(text)
    return None if m is None else tuple(int(g) for g in m.groups())


def scan_rc(windows, malicious):
    return 3 if windows and malicious / windows > SCAN_THRESHOLD else 0


def check_scan(rc, text, expect):
    """expect = (windows, benign, malicious) from the in-process scan."""
    windows = expect[0]
    got = parse_scan(text)
    if got is None:
        return windows, windows, ["scan line did not parse"]
    if rc != scan_rc(windows, expect[2]):
        return windows, windows, [f"exit {rc}"]
    wrong = max(abs(g - e) for g, e in zip(got, expect))
    return windows, min(windows, wrong), ([] if wrong == 0 else
                                          [f"counts {got} != {expect}"])


def parse_serve(text):
    sessions = [(int(m.group(1)), int(m.group(2))) for m in SESSION_RE.finditer(text)]
    report = None
    for line in text.splitlines():
        if line.startswith('{"events"'):
            report = json.loads(line)
    online = ONLINE_RE.search(text)
    return sessions, report, (None if online is None
                              else tuple(int(g) for g in online.groups()))


def check_serve(rc, text, expect, learn):
    """expect = [(windows, malicious or None)] per session. A learn run must
    also show 2 cycles, 2 promotions, 0 rollbacks and 0 failures."""
    attempted = sum(w for w, _ in expect)
    try:
        sessions, report, online = parse_serve(text)
        ev = report["events"]
        ev = {k: int(ev[k]) for k in ("ingested", "processed", "dropped", "quarantined")}
    except (ValueError, KeyError, TypeError):
        return attempted, attempted, ["--json report missing or did not parse"]
    if len(sessions) != len(expect):
        return attempted, attempted, ["session lines missing"]
    if ev["ingested"] != ev["processed"] + ev["dropped"] + ev["quarantined"]:
        return attempted, attempted, ["ingested != processed + dropped + quarantined"]
    if ev["dropped"] or ev["quarantined"]:
        return attempted, attempted, ["events dropped or quarantined under block"]
    if learn and online != (2, 0, 2, 0):
        return attempted, attempted, [f"online cycles/failures/promotions/"
                                      f"rollbacks = {online}, want (2, 0, 2, 0)"]
    want_rc = 3 if any(m / w > SCAN_THRESHOLD for w, m in sessions if w) else 0
    if rc != want_rc:
        return attempted, attempted, [f"exit {rc}, want {want_rc}"]
    failed, problems = 0, []
    for i, ((windows, malicious), (ew, em)) in enumerate(zip(sessions, expect)):
        wrong = abs(windows - ew) + (0 if em is None else abs(malicious - em))
        if wrong:
            problems.append(f"session {i}: windows={windows} malicious={malicious}, "
                            f"want {ew}/{em}")
        failed += wrong
    return attempted, min(attempted, failed), problems


# --- inputs and set-up ------------------------------------------------------

def train_argv(benign, mixed, out):
    return [tool("leaps-train"), benign, mixed, out]


def sim(work, scenario, subdir, events, seed, binary=False):
    path = os.path.join(work, subdir)
    os.makedirs(path, exist_ok=True)
    argv = [tool("leaps-sim"), scenario, path, "--events", str(events),
            "--seed", str(seed)] + (["--binary"] if binary else [])
    must(run_child(argv, work, "sim-" + subdir), "leaps-sim " + subdir)
    return path


def derive(seed, stream, i):
    """A seed for input `i` of `stream`, fixed by --seed. Inputs whose cost
    or accuracy swings from seed to seed are drawn from several derived
    seeds, so one run averages over them."""
    return (seed * 2654435761 + stream * 40503 + 97 * (i + 1)) % (2 ** 32)


class Plan:
    """What one workload runs: its set-up trainings, its timed invocation,
    and the oracle its outputs are checked against."""

    def __init__(self, name, work, seed):
        self.name, self.work, self.seed = name, work, seed
        self.trainings = []   # (benign, mixed, detector path)
        self.heldout = []     # (benign log, malicious log) per held-out set
        self.detectors = {}   # process name -> detector path
        self.logs = []        # the logs the timed invocations read
        self.reference = {}   # detector path -> bytes the set-up built
        self.expect = None    # the oracle's verdicts (see oracle())
        self.plain_scans = []  # scan-text: untraced in-process scans
        self.state_bytes = 0  # serve-learn: durable state the last run left


def make_plan(name, work, seed):
    plan = Plan(name, work, seed)
    apps = APPS if name == "serve-replay" else APPS[:1]
    events = REPLAY_TRAIN_EVENTS if name == "serve-replay" else TRAIN_EVENTS
    for short, scenario, process in apps:
        tdir = sim(work, scenario, "train-" + short, events, seed)
        det = os.path.join(work, short + ".detector")
        plan.trainings.append((os.path.join(tdir, "benign.log"),
                               os.path.join(tdir, "mixed.log"), det))
        plan.detectors[process] = det
    # detect_acc: the workload's vim detector on held-out logs of other
    # seeds (every workload scores vim; the other apps' detectors swing too
    # far from seed to seed to make a steady figure).
    for i in range(HELDOUT_SETS):
        hdir = sim(work, APPS[0][1], f"heldout-{i}", HELDOUT_EVENTS, derive(seed, 1, i))
        plan.heldout.append((os.path.join(hdir, "benign.log"),
                             os.path.join(hdir, "malicious.log")))
    if name == "scan-text":
        plan.logs = [os.path.join(sim(work, APPS[0][1], f"scan-{i}", SCAN_EVENTS,
                                      derive(seed, 2, i)), "mixed.log")
                     for i in range(SCAN_LOGS)]
    elif name == "serve-replay":
        plan.logs = [os.path.join(sim(work, scenario, "replay-" + short,
                                      REPLAY_EVENTS, seed, binary=True), "mixed.log")
                     for short, scenario, _ in APPS]
    elif name == "serve-learn":
        plan.logs = [os.path.join(sim(work, APPS[0][1], f"learn-{i}", LEARN_EVENTS,
                                      derive(seed, 3, i), binary=True), "benign.log")
                     for i in range(SESSIONS)]
    return plan


def set_up(plan, repeats):
    """Builds the workload's detectors `repeats` times with leaps-train;
    returns the wall time of each set-up and the failures it found (every
    repeat must rebuild the same bytes)."""
    times, problems = [], []
    reference = plan.reference
    for rep in range(repeats):
        total = 0.0
        for benign, mixed, det in plan.trainings:
            out = det if rep == 0 else f"{det}.rep{rep}"
            child = run_child(train_argv(benign, mixed, out), plan.work,
                              f"setup{rep}-" + os.path.basename(det))
            must(child, "set-up leaps-train")
            total += child.wall_s
            with open(out, "rb") as f:
                data = f.read()
            if rep == 0:
                reference[det] = data
            elif data != reference[det]:
                problems.append(f"set-up {rep} rebuilt {os.path.basename(det)} "
                                "with other bytes")
        times.append(total)
    return times, problems


def detect_acc(plan):
    """Held-out window accuracy of the set-up vim detector, via leaps-scan:
    benign windows called benign plus malicious windows called malicious."""
    right = total = 0
    for i, pair in enumerate(plan.heldout):
        for kind, path in zip(("benign", "malicious"), pair):
            child = must(run_child([tool("leaps-scan"), plan.detectors["vim.exe"], path],
                                   plan.work, f"heldout-{i}-{kind}"),
                         "held-out leaps-scan", (0, 3))
            got = parse_scan(child.out)
            if got is None:
                raise Gap("held-out leaps-scan line did not parse")
            windows, ben, mal = got
            right += ben if kind == "benign" else mal
            total += windows
    if total == 0:
        raise Gap("held-out logs gave no windows")
    return right / total, total


# --- the workloads' timed invocations ----------------------------------------

def serve_argv(plan, durable=None):
    if plan.name == "serve-replay":
        argv = [tool("leaps-serve"), plan.detectors["vim.exe"]] + plan.logs
        for process, det in plan.detectors.items():
            argv += ["--detector", f"{process}={det}"]
        argv += ["--online-replays", str(REPLAY_ROUNDS)]
    else:
        argv = [tool("leaps-serve"), plan.detectors["vim.exe"]] + plan.logs + [
                "--online", "--durable", durable,
                "--online-replays", str(LEARN_ROUNDS),
                "--shadow-max-disagree", "1", "--shadow-max-latency", "1e9"]
    return argv + ["--workers", str(WORKERS), "--policy", "block", "--json"]


def ledger_serve_argv(plan, traced, durable=None, online=True):
    argv = ["serve", plan.detectors["vim.exe"]]
    if plan.name == "serve-replay":
        argv += plan.logs + ["--replays", str(REPLAY_ROUNDS)]
        for process, det in plan.detectors.items():
            argv += ["--detector", f"{process}={det}"]
    else:
        argv += plan.logs + ["--replays", str(LEARN_ROUNDS)]
        if online:
            argv += ["--online", "--durable", durable]
    return argv + (["--trace"] if traced else [])


def oracle(plan):
    """What every timed invocation must print, computed without the tool
    under test where possible: an in-process scan for scan-text, leaps-scan
    per log for the serve workloads."""
    work = plan.work
    if plan.name == "scan-text":
        plan.plain_scans = [ledger(work, f"oracle-scan-{i}",
                                   ["scan", plan.detectors["vim.exe"], path])["values"]
                            for i, path in enumerate(plan.logs)]
        return [tuple(int(v[k]) for k in ("windows", "benign", "malicious"))
                for v in plan.plain_scans]
    expect = []
    for i, path in enumerate(plan.logs):
        process = APPS[i][2] if plan.name == "serve-replay" else "vim.exe"
        child = must(run_child([tool("leaps-scan"), plan.detectors[process], path],
                               work, f"oracle-scan-{i}"), "oracle leaps-scan", (0, 3))
        got = parse_scan(child.out)
        if got is None:
            raise Gap("oracle leaps-scan line did not parse")
        windows, _, malicious = got
        if plan.name == "serve-replay":
            expect.append((REPLAY_ROUNDS * windows, REPLAY_ROUNDS * malicious))
        else:
            # Verdicts change with each promotion; the window count cannot.
            expect.append((LEARN_ROUNDS * windows, None))
    return expect


def measure(plan, expect, seconds):
    """Runs the workload's invocations until `seconds` have passed (at least
    once); returns one (wall_s, cpu_s, peak_rss_mb) sample per iteration and
    the check tally."""
    samples, attempted, failed, problems = [], 0, 0, []
    first_verdicts = None
    start = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - start < seconds:
        name = f"{plan.name}-{i}"
        if plan.name == "scan-text":
            children = []
            a = f = 0
            p = []
            for j, (path, want) in enumerate(zip(plan.logs, expect)):
                child = run_child([tool("leaps-scan"), plan.detectors["vim.exe"],
                                   path], plan.work, f"{name}-{j}")
                aj, fj, pj = check_scan(child.rc, child.out, want)
                a, f, p = a + aj, f + fj, p + pj
                children.append(child)
        else:
            durable = None
            if plan.name == "serve-learn":
                durable = os.path.join(plan.work, "durable")
                shutil.rmtree(durable, ignore_errors=True)
            child = run_child(serve_argv(plan, durable), plan.work, name)
            a, f, p = check_serve(child.rc, child.out, expect,
                                  plan.name == "serve-learn")
            if plan.name == "serve-learn" and f == 0:
                # The same seed must give the same verdicts every iteration.
                verdicts = [m for _, m in parse_serve(child.out)[0]]
                if first_verdicts is None:
                    first_verdicts = verdicts
                elif verdicts != first_verdicts:
                    f = min(a, sum(abs(x - y) for x, y in
                                   zip(verdicts, first_verdicts)))
                    p = [f"verdicts {verdicts} != first iteration's {first_verdicts}"]
            if durable is not None:
                plan.state_bytes = dir_bytes(durable)
            children = [child]
        attempted += a
        failed += f
        problems += [f"{name}: {x}" for x in p]
        samples.append((sum(c.wall_s for c in children), sum(c.cpu_s for c in children),
                        max(c.rss_mb for c in children)))
        i += 1
    return samples, attempted, failed, problems


def dir_bytes(path):
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


# --- the per-layer ledger -----------------------------------------------------

def layer_ledger(plan, tool_wall_s):
    """Repeats the workload in-process, untraced then traced, and the set-up
    trainings traced; returns the per-layer metrics and check problems."""
    work, problems = plan.work, []
    values = {name: 0.0 for name in LAYERS}
    if plan.name == "scan-text":
        det = plan.detectors["vim.exe"]
        plain = summed(plan.plain_scans)
        main = summed([ledger(work, f"traced-scan-{i}", ["scan", det, path, "--trace"])
                       ["values"] for i, path in enumerate(plan.logs)])
        top = ["core.load_detector_s", "trace.decode_s", "trace.symbolize_s",
               "trace.partition_s", "core.scan_s"]
    else:
        learn = plan.name == "serve-learn"
        plain_run = ledger(work, "plain-serve", ledger_serve_argv(
            plan, False, os.path.join(work, "durable-plain")))
        main_run = ledger(work, "traced-serve", ledger_serve_argv(
            plan, True, os.path.join(work, "durable-traced")))
        plain, main = plain_run["values"], main_run["values"]
        for tag, result in (("untraced", plain_run), ("traced", main_run)):
            if learn and any(result["values"][k] != want for k, want in
                             (("online.cycles", 2), ("online.promotions", 2),
                              ("online.rollbacks", 0), ("online.failures", 0))):
                problems.append(f"in-process {tag} serve-learn cycle counts differ")
            for s, (ew, em) in zip(result["sessions"], plan.expect):
                if s["windows"] != ew or (em is not None and s["malicious"] != em):
                    problems.append(f"in-process {tag} session {s} != {ew}/{em}")
        if learn:
            bare = ledger(work, "bare-serve",
                          ledger_serve_argv(plan, False, online=False))["values"]
            values["online.tap_overhead_s"] = plain["serve.replay_s"] - bare["serve.replay_s"]
            values["online.poll_s"] = main["online.poll_s"]
            values["durable.state_bytes"] = plan.state_bytes
        samples = main["serve.verdict_latency_samples"]
        if samples * 0.01 < LATENCY_MIN_BEYOND:
            raise Gap(f"verdict latency p99 from {samples:.0f} samples: fewer "
                      f"than {LATENCY_MIN_BEYOND} beyond it")
        hits, interned = main["trace.token_hits"], main["trace.token_interned"]
        if hits + interned == 0:
            raise Gap("the token table saw no events")
        values["trace.token_hit_ratio"] = hits / (hits + interned)
        for k in ("serve.replay_s", "serve.submit_ns_per_event",
                  "serve.producer_cpu_ns_per_event", "serve.worker_cpu_ns_per_event",
                  "serve.drain_s", "serve.verdict_latency_p50_us",
                  "serve.verdict_latency_p99_us", "serve.verdict_latency_samples",
                  "trace.token_bytes_retained"):
            values[k] = main[k]
        top = ["core.load_detector_s", "trace.decode_s", "trace.symbolize_s",
               "trace.partition_s", "serve.replay_s"] + (["online.poll_s"] if learn else [])

    for k in ("trace.decode_s", "trace.symbolize_s", "trace.partition_s",
              "core.load_detector_s", "core.scan_s", "ml.support_vectors"):
        values[k] = main.get(k, 0.0)
    ingest = sum(main.get(k, 0.0) for k in
                 ("trace.decode_s", "trace.symbolize_s", "trace.partition_s"))
    values["trace.ingest_share"] = ingest / main["wall_s"]

    # Training layers: a traced repeat of the set-up, summed over its
    # detectors.
    trains = []
    for i, (benign, mixed, det) in enumerate(plan.trainings):
        out = os.path.join(work, f"traced-setup-{i}.det")
        trains.append(ledger(work, f"traced-setup-{i}",
                             ["train", benign, mixed, out, "--trace"])["values"])
        with open(out, "rb") as f:
            if f.read() != plan.reference[det]:
                problems.append(f"in-process set-up {i} differs from leaps-train's")
    for k in ("core.prepare_s", "core.preprocess_fit_s", "core.make_windows_s",
              "ml.jaccard_s", "ml.upgma_s", "cfg.infer_s", "cfg.assess_s",
              "ml.tune_s", "ml.train_s", "ml.smo_iterations", "core.save_detector_s"):
        values[k] = sum(t[k] for t in trains)
    explained = sum(values[k] for k in ("core.preprocess_fit_s", "core.make_windows_s",
                                        "cfg.infer_s", "cfg.assess_s"))
    values["core.prepare_unexplained_share"] = 1.0 - explained / values["core.prepare_s"]

    values["bench.tool_overhead_s"] = tool_wall_s - plain["wall_s"]
    values["bench.tracing_overhead"] = main["wall_s"] / plain["wall_s"] - 1.0
    values["bench.unattributed_share"] = 1.0 - sum(main.get(k, 0.0) for k in top) / main["wall_s"]
    return values, problems


def summed(runs):
    """Ledger values of several in-process runs, added up; counts that are
    the same in every run (support vectors of one detector) are kept."""
    out = {}
    for run_values in runs:
        for k, v in run_values.items():
            out[k] = v if k == "ml.support_vectors" else out.get(k, 0.0) + v
    return out


# Layers a workload never calls; their metrics read 0.
IDLE = {
    "scan-text": ("serve.", "online.", "durable.", "trace.token_"),
    "serve-replay": ("online.", "durable.", "core.scan_s"),
    "serve-learn": ("core.scan_s",),
}


def print_ledger(plan, values):
    idle = {k for k in LAYERS if k.startswith(IDLE[plan.name])}
    log(f"per-layer ledger ({plan.name}, seed {plan.seed}):")
    for name, (unit, moves) in LAYERS.items():
        tag = "idle" if name in idle else ""
        log(f"  {name:34s} {values[name]:>14.6g} {unit:9s} {tag:4s}  -> {moves}")
    share = values["bench.unattributed_share"]
    if share > UNATTRIBUTED_FLAG:
        log(f"  FLAG: {share:.1%} of the traced wall time is unattributed "
            f"(> {UNATTRIBUTED_FLAG:.0%})")


# --- main -------------------------------------------------------------------

def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["scan-text", "serve-replay", "serve-learn"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    try:
        build()
        stamp(args)
        work = os.path.join(BUILD_ROOT, "work", f"{args.workload}-{args.seed}-{os.getpid()}")
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        try:
            result = run(args, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    except (Gap, OSError, subprocess.CalledProcessError) as gap:
        print(f"toolbench: no result: {gap}", file=sys.stderr, flush=True)
        return 1
    print(json.dumps(result), flush=True)
    return 0


def run(args, work):
    plan = make_plan(args.workload, work, args.seed)
    setup_times, problems = set_up(plan, SETUP_REPEATS if args.trace == 0 else 1)
    acc, held_windows = detect_acc(plan)
    plan.expect = oracle(plan)
    samples, attempted, failed, found = measure(plan, plan.expect, args.seconds)
    problems += found
    wall, cpu, rss = (statistics.median(column) for column in zip(*samples))
    if args.trace == 0:
        n = f"median of {len(samples)} samples"
        metrics = {
            "wall_s": (wall, n),
            "cpu_s": (cpu, n),
            "peak_rss_mb": (rss, n),
            "setup_s": (statistics.median(setup_times),
                        f"median of {len(setup_times)} set-ups"),
            "detect_acc": (acc, f"over {held_windows} held-out windows"),
        }
        for name, (value, how) in metrics.items():
            log(f"{args.workload}: {name} = {value:.6g} {E2E_UNITS[name]} ({how})")
        out = {k: {"value": v, "unit": E2E_UNITS[k]} for k, (v, _) in metrics.items()}
    else:
        values, found = layer_ledger(plan, wall)
        problems += found
        print_ledger(plan, values)
        out = {k: {"value": values[k], "unit": LAYERS[k][0]} for k in LAYERS}
    for p in problems:
        log("CHECK FAILED: " + p)
    return {"correct": not problems and failed == 0, "attempted": attempted,
            "failed": failed, "metrics": out}


if __name__ == "__main__":
    sys.exit(main())
