#!/usr/bin/env python3
"""End-to-end benchmark of the SCALD Timing Verifier.

One run measures one workload:

    python3 perfbench/run.py --workload cli-20k --seed 1 --seconds 20 --trace 0

It builds `scald_tv` and the companion `perfbench/tvbench.exe` from the
checkout with dune, generates the seeded inputs, drives the real entry
points (`scald_tv -q` and the `scald_tv serve` JSONL daemon) as
subprocesses, checks every verdict against the known answer, prints a
human-readable table and, as the last line of standard output, one JSON
object with the keys correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics, with no tracing anywhere.
--trace 1 reports the per-layer metrics of a separate traced
in-process run (tvbench verdict, session and serve) plus
whole-process GC figures.

    python3 perfbench/run.py --suite --seed 1 --seconds 20

runs every workload both ways and prints every metric by name with its
unit, one row per workload, with the layer shares of each workload.
See perfbench/README.md for why each workload exists.
"""

import argparse
import json
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
WORK = os.path.join(HERE, "_work")
TV = os.path.join(REPO, "_build", "default", "bin", "scald_tv.exe")
TB = os.path.join(REPO, "_build", "default", "perfbench", "tvbench.exe")

# pool: the design's edit pool, in (set, revert) pairs.  A run's edit
# figures cover whole passes over the pool, so every run times the same
# edits; the pool is sized so one pass fits the run's edit time.
# cli_share: the part of the measuring time spent on cold verdicts (the
# rest goes to the edit loop).  trace_reps: verdicts per kind in the
# traced run, which makes one pass over the pool.  setups: daemon
# set-ups per run, setup_s being their median.
WORKLOADS = {
    "cli-20k": {"cases": False, "pool": 48, "cli_share": 0.5, "setups": 5, "trace_reps": 3},
    "sweep-256": {"cases": True, "pool": 4, "cli_share": 0.5, "setups": 5, "trace_reps": 2},
    "serve-edit": {"cases": False, "pool": 64, "cli_share": 0.25, "setups": 11, "trace_reps": 5},
}

# Host-speed probe.  On a shared host the speed of the machine drifts
# by 10-50% over tens of seconds, and a run's median drifts with it
# however many samples it takes.  A fixed pure-Python loop, run between
# samples for PROBE_SHARE of the run's wall time, slows down in step: on
# the 2-core reference host, over 5 minutes in which 25 s medians of
# scald_tv verdicts spread 14% (quartile distance over median), their
# ratio to the probe spread 1.6%.  End-to-end times are reported at
# reference speed: raw time x PROBE_REF_S / the run's median probe time.
PROBE_REF_S = 0.0200  # median probe time on the reference host
PROBE_SHARE = 0.1

E2E = [
    ("verdict_s", "s"),
    ("edit_ms.p50", "ms"),
    ("edit_ms.p90", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("serve_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
]

LAYERS = [
    ("read.ms", "ms"),
    ("parser.ms", "ms"),
    ("expander.ms", "ms"),
    ("expander.alloc_mb", "MB"),
    ("flow.ms", "ms"),
    ("window.ms", "ms"),
    ("window.proven_ratio", "ratio"),
    ("check.static_verdicts", "count"),
    ("eval.ms", "ms"),
    ("eval.evaluations", "count"),
    ("eval.events", "count"),
    ("eval.cache_hit_ratio", "ratio"),
    ("check.ms", "ms"),
    ("verifier.self_ms", "ms"),
    ("report.ms", "ms"),
    ("gc.alloc_mb", "MB"),
    ("gc.major_collections", "count"),
    ("gc.top_heap_mb", "MB"),
    ("session.load_ms", "ms"),
    ("session.reverify_ms", "ms"),
    ("reverify.apply_ms", "ms"),
    ("reverify.cone_ms", "ms"),
    ("reverify.evaluate_ms", "ms"),
    ("reverify.check_ms", "ms"),
    ("reverify.fingerprint_ms", "ms"),
    ("reverify.self_ms", "ms"),
    ("fingerprint.digest_ms", "ms"),
    ("serve.protocol_ms", "ms"),
    ("session.dirtied_ratio", "ratio"),
    ("session.evaluations_per_edit", "count"),
    ("session.warm_hits_per_edit", "count"),
    ("trace.overhead_pct", "%"),
    ("ledger.verdict_covered_pct", "%"),
    ("ledger.edit_covered_pct", "%"),
]

# Counts that must repeat exactly for a fixed design seed; drift is a
# workload-generation bug, not noise.
EXACT = [
    "eval.evaluations",
    "eval.events",
    "session.dirtied_ratio",
    "window.proven_ratio",
    "gc.alloc_mb",
]

SETUP_RE = re.compile(r"SETUP TIME VIOLATED  SIGNAL = (.*?)  CLOCK = ")
SLOW_RE = re.compile(r"P\d+ SLOW(\d+)(<\d+(:\d+)?>)?")


def probe_loop():
    t0 = time.perf_counter()
    x = 0
    for i in range(300_000):
        x += i * i
    return time.perf_counter() - t0


class Probe:
    def __init__(self):
        self.times = []
        self.start = time.perf_counter()

    def catch_up(self):
        """Probe until probing has taken PROBE_SHARE of the time so far."""
        while sum(self.times) < PROBE_SHARE * (time.perf_counter() - self.start):
            self.times.append(probe_loop())

    def factor(self):
        return PROBE_REF_S / statistics.median(self.times)


class Tally:
    """Operations attempted and failed, and why the first few failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def op(self, ok, why=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 10:
                self.notes.append(why)
        return ok


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(REPO, "dune-project")) or not os.path.isfile(
        os.path.join(REPO, "bin", "scald_tv.ml")
    ):
        die("no scald_tv sources next to perfbench/; run from a full checkout")
    dune = shutil.which("dune")
    if dune is None:
        die("dune not found on PATH")
    p = subprocess.run(
        # no shared cache: the build writes inside the checkout only
        [dune, "build", "--root", REPO, "--cache=disabled", "./bin/scald_tv.exe", "./perfbench/tvbench.exe"],
        cwd=REPO,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        timeout=850,
    )
    if p.returncode != 0:
        sys.stderr.write(p.stdout.decode(errors="replace"))
        die("build failed")


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[1], q[2]


def p90(xs):
    if len(xs) == 1:
        return xs[0]
    return statistics.quantiles(xs, n=10, method="inclusive")[8]


# ---- inputs -----------------------------------------------------------------


def generate(workload, design_seed, seed):
    wdir = os.path.join(WORK, "%s-d%d" % (workload, design_seed))
    os.makedirs(wdir, exist_ok=True)
    t0 = time.perf_counter()
    pool = WORKLOADS[workload]["pool"]
    subprocess.run([TB, "gen", workload, str(design_seed), str(pool), wdir], check=True, timeout=120)
    # the run's seed orders the pool
    with open(os.path.join(wdir, "edits.tsv")) as f:
        lines = f.readlines()
    random.Random(seed).shuffle(lines)
    with open(os.path.join(wdir, "order.tsv"), "w") as f:
        f.writelines(lines)
    return wdir, time.perf_counter() - t0


def expected_slow(wdir):
    """The known answer: netgen injects a 38-42 ns SLOW CHIP in front of
    a register for each broken register, SLOW0..SLOW3.  Each is a set-up
    violation unless its source is a latch output: a latch opens at
    phase 3-4, so its slow path wraps to 8-14 ns, long before the
    42.8 ns clock edge."""
    with open(os.path.join(wdir, "design.sdl")) as f:
        src = f.read()
    latches = set(re.findall(r"^LATCH (?:RS )?CHIP \(.*\) -> (.*);$", src, re.M))
    slow = re.findall(r"^SLOW CHIP \((.*)\) -> P\d+ SLOW(\d+)", src, re.M)
    return {k for s, k in slow if s not in latches}


def edit_pool(wdir):
    pool = []
    with open(os.path.join(wdir, "order.tsv")) as f:
        for line in f:
            sig, d = line.rstrip("\n").split("\t")
            pool.append((sig, float(d)))
    return pool


def edit_obj(pool, i):
    sig, d = pool[(i // 2) % len(pool)]
    e = {"edit": "wire_delay", "signal": sig}
    if i % 2 == 0:
        e.update(min_ns=0.0, max_ns=d)
    else:
        e["delay"] = None
    return e


# ---- the CLI ------------------------------------------------------------------


def cli_args(wdir, cfg):
    args = [TV, "-q"]
    if cfg["cases"]:
        args += ["-c", os.path.join(wdir, "cases.txt")]
    return args + [os.path.join(wdir, "design.sdl")]


def run_cli(wdir, cfg, env=None):
    """One `scald_tv -q` invocation: wall time from spawn to exit, exit
    code, peak RSS (MB), stdout and stderr."""
    out_p = os.path.join(wdir, "cli.out")
    err_p = os.path.join(wdir, "cli.err")
    with open(out_p, "wb") as fo, open(err_p, "wb") as fe:
        t0 = time.perf_counter()
        p = subprocess.Popen(cli_args(wdir, cfg), stdout=fo, stderr=fe, env=env)
        _, status, ru = os.wait4(p.pid, 0)
        dt = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    with open(out_p, "rb") as f:
        out = f.read()
    with open(err_p, "rb") as f:
        err = f.read()
    return dt, p.returncode, ru.ru_maxrss / 1024.0, out, err


def same_file(path, data):
    with open(path, "rb") as f:
        return f.read() == data


def listing_problem(rc, out, expected):
    """Exit 2, and the signals named in SETUP TIME VIOLATED lines are
    exactly the expected injected SLOWk."""
    if rc != 2:
        return "exit code %d, expected 2" % rc
    sigs = SETUP_RE.findall(out.decode(errors="replace"))
    found = set()
    for s in sigs:
        m = SLOW_RE.fullmatch(s)
        if m is None:
            return "unexpected set-up violation on %s" % s
        found.add(m.group(1))
    if found != expected:
        return "set-up violations on SLOW%s, expected SLOW%s" % (sorted(found), sorted(expected))
    return None


def n_violations(out):
    return sum(1 for line in out.decode(errors="replace").splitlines() if " VIOLATED " in line)


# ---- the daemon -------------------------------------------------------------


class Daemon:
    """One `scald_tv serve` process driven by a single closed-loop client."""

    def __init__(self, wdir):
        self.p = subprocess.Popen(
            [TV, "serve"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            bufsize=1,
        )
        self.hello = json.loads(self.p.stdout.readline() or "{}")
        self.rss_mb = None

    def req(self, obj):
        self.p.stdin.write(json.dumps(obj) + "\n")
        self.p.stdin.flush()
        line = self.p.stdout.readline()
        try:
            return json.loads(line)
        except ValueError:
            return {"ok": False, "error": "no response: %r" % line[:200]}

    def close(self):
        if self.p.returncode is not None:
            return
        try:
            self.req({"op": "shutdown"})
            self.p.stdin.close()
        except (BrokenPipeError, OSError):
            self.p.kill()
        _, status, ru = os.wait4(self.p.pid, 0)
        self.p.returncode = os.waitstatus_to_exitcode(status)
        self.p.stdout.close()
        self.rss_mb = ru.ru_maxrss / 1024.0


def load_req(wdir, cfg):
    r = {"op": "load", "file": os.path.join(wdir, "design.sdl")}
    if cfg["cases"]:
        r["cases_file"] = os.path.join(wdir, "cases.txt")
    return r


def start_daemon(wdir, cfg, tally):
    """Spawn, hello, load: returns the daemon and the set-up time."""
    t0 = time.perf_counter()
    d = Daemon(wdir)
    r = d.req(load_req(wdir, cfg))
    dt = time.perf_counter() - t0
    tally.op("version" in d.hello, "no hello banner")
    tally.op(r.get("ok") is True, "load: %s" % r.get("error"))
    return d, dt


def edit_pair(d, pool, i, base, tally, samples):
    """Edit i (set a wire delay) and its revert, each a delta + verify.
    Each sample is the time from sending delta to the verify response."""
    for k in (i, i + 1):
        t0 = time.perf_counter()
        a = d.req({"op": "delta", "edits": [edit_obj(pool, k)]})
        b = d.req({"op": "verify"})
        samples.append((time.perf_counter() - t0) * 1000.0)
        tally.op(a.get("ok") is True, "delta: %s" % a.get("error"))
        tally.op(b.get("ok") is True, "verify: %s" % b.get("error"))
    tally.op(b.get("violations") == base, "revert left %s violations, expected %s" % (b.get("violations"), base))


# ---- --trace 0 ----------------------------------------------------------------


def measure(workload, design_seed, seed, seconds):
    cfg = WORKLOADS[workload]
    tally = Tally()
    wdir, gen_s = generate(workload, design_seed, seed)
    expected = expected_slow(wdir)
    pool = edit_pool(wdir)

    # set-up: spawn the daemon through hello to the load response
    probe = Probe()
    setups = []
    d = None
    try:
        for k in range(cfg["setups"]):
            if d is not None:
                d.close()
            probe.catch_up()
            d, dt = start_daemon(wdir, cfg, tally)
            setups.append(dt)
        base = d.req({"op": "verify"}).get("violations")

        # warm-up, discarded: one invocation, one edit pair
        _, rc, _, cold, _ = run_cli(wdir, cfg)
        problem = listing_problem(rc, cold, expected)
        tally.op(problem is None, "cold verdict: %s" % problem)
        tally.op(base == n_violations(cold), "daemon reports %s violations, CLI %d" % (base, n_violations(cold)))
        edit_pair(d, pool, 0, base, tally, [])

        # Verdicts and edit pairs interleave, so a change of host speed
        # hits both alike.  Edit samples count only in whole passes over
        # the pool; the run goes on past the deadline to finish its first.
        verdicts, rss, edits, this_pass = [], [], [], []
        cli_t = edit_t = 0.0
        i = 0
        deadline = time.perf_counter() + seconds
        while True:
            past = time.perf_counter() >= deadline
            if past and verdicts and edits:
                break
            probe.catch_up()
            if not verdicts or (not past and cli_t <= cfg["cli_share"] * (cli_t + edit_t)):
                dt, rc, mb, out, _ = run_cli(wdir, cfg)
                problem = listing_problem(rc, out, expected) or (None if out == cold else "listing changed between invocations")
                tally.op(problem is None, "verdict: %s" % problem)
                verdicts.append(dt)
                rss.append(mb)
                cli_t += dt
            else:
                n = len(this_pass)
                edit_pair(d, pool, i, base, tally, this_pass)
                i += 2
                edit_t += sum(this_pass[n:]) / 1000.0
                if i == 2 * len(pool):
                    edits += this_pass
                    this_pass = []
                    i = 0

        # the final listing after all reverts equals a cold scald_tv -q
        path = os.path.join(wdir, "serve_listing.txt")
        r = d.req({"op": "verify", "listing": path})
        same = r.get("ok") is True and same_file(path, cold)
        tally.op(same, "final serve listing differs from the cold CLI listing")
    finally:
        if d is not None:
            d.close()

    with open(os.path.join(wdir, "samples-%d.json" % seed), "w") as f:
        json.dump({"verdict_s": verdicts, "edit_ms": edits, "setup_s": setups, "rss": rss, "probe": probe.times}, f)
    f = probe.factor()
    table = [
        ("inputs generated", "s", [gen_s]),
        ("host probe", "ms", [t * 1000.0 for t in probe.times]),
        ("raw verdict_s", "s", verdicts),
        ("raw edit_ms", "ms", edits),
        ("raw setup_s", "s", setups),
        ("peak_rss_mb", "MB", rss),
    ]
    if this_pass:
        table.append(("raw edit_ms, partial", "ms", this_pass))
    table.append(("reference/probe", "x", [f]))
    metrics = {
        "verdict_s": statistics.median(verdicts) * f,
        "edit_ms.p50": statistics.median(edits) * f,
        "edit_ms.p90": p90(edits) * f,
        "setup_s": statistics.median(setups) * f,
        "peak_rss_mb": statistics.median(rss),
        "serve_rss_mb": d.rss_mb,
        "ok_ratio": 1.0 - tally.failed / tally.attempted,
    }
    return metrics, tally, table


# ---- --trace 1 ----------------------------------------------------------------


def gc_stats(wdir, cfg):
    env = dict(os.environ, OCAMLRUNPARAM="v=0x400")
    _, rc, _, out, err = run_cli(wdir, cfg, env=env)
    stats = {}
    for line in err.decode(errors="replace").splitlines():
        k, _, v = line.partition(":")
        if v.strip():
            stats[k.strip()] = float(v)
    return rc, out, stats


def tvbench(*args):
    """One tvbench process: its summary and its wall time (s)."""
    t0 = time.perf_counter()
    p = subprocess.run([TB] + list(args), stdout=subprocess.PIPE, timeout=170)
    wall = time.perf_counter() - t0
    if p.returncode != 0:
        die("tvbench %s failed (exit %d)" % (args[0], p.returncode))
    return json.loads(p.stdout.decode().strip().splitlines()[-1]), wall


def traced(workload, design_seed, seed):
    cfg = WORKLOADS[workload]
    tally = Tally()
    wdir, _ = generate(workload, design_seed, seed)
    expected = expected_slow(wdir)
    pool = edit_pool(wdir)
    inproc = os.path.join(wdir, "inproc_listing.txt")

    # verdicts: the binary, the in-process calls untraced, the same traced;
    # each in a fresh process
    cli_s, untraced, untraced_wall, runs = [], [], [], []
    for _ in range(cfg["trace_reps"]):
        dt, rc, _, cold, _ = run_cli(wdir, cfg)
        problem = listing_problem(rc, cold, expected)
        tally.op(problem is None, "verdict: %s" % problem)
        cli_s.append(dt)
        u, wall = tvbench("verdict", workload, wdir, "untraced")
        tally.op(same_file(inproc, cold), "untraced in-process listing differs from the binary's")
        untraced.append(u["total_ms"])
        untraced_wall.append(wall * 1000.0)
        t, _ = tvbench("verdict", workload, wdir, "traced")
        tally.op(same_file(inproc, cold), "traced in-process listing differs from the binary's")
        runs.append(t)
    m = {k: statistics.median(r[k] for r in runs) for k in runs[0] if k != "total_ms"}
    tally.op(
        all((r["eval.evaluations"], r["eval.events"]) == (m["eval.evaluations"], m["eval.events"]) for r in runs),
        "evaluation/event counts differ between repetitions",
    )

    # edits: an untraced daemon, then the same edits through Session and
    # through Serve.handle_line
    n = 2 * cfg["pool"]
    d, _ = start_daemon(wdir, cfg, tally)
    try:
        base = d.req({"op": "verify"}).get("violations")
        daemon_edits = []
        for i in range(0, n, 2):
            edit_pair(d, pool, i, base, tally, daemon_edits)
    finally:
        d.close()
    sess, _ = tvbench("session", workload, wdir, str(n))
    serve, _ = tvbench("serve", workload, wdir, str(n))
    for t in (sess, serve):
        tally.attempted += t["attempted"]
        tally.failed += t["failed"]
    tally.op(sess["base_violations"] == base, "in-process base violations differ from the daemon's")
    tally.op(same_file(os.path.join(wdir, "session_listing.txt"), cold), "Session.listing differs from the binary's")
    m.update({k: v for k, v in sess.items() if k in dict(LAYERS)})
    m["serve.protocol_ms"] = serve["serve.protocol_ms"]

    rc, out, gc = gc_stats(wdir, cfg)
    tally.op(rc == 2 and out == cold, "GC-stats invocation changed the verdict")
    mb = 8.0 / (1 << 20)
    m["gc.alloc_mb"] = gc["allocated_words"] * mb
    m["gc.major_collections"] = gc["major_collections"]
    m["gc.top_heap_mb"] = gc["top_heap_words"] * mb

    traced_ms = statistics.median(r["total_ms"] for r in runs)
    m["trace.overhead_pct"] = 100.0 * (traced_ms / statistics.median(untraced) - 1.0)
    verdict_ms = statistics.median(cli_s) * 1000.0
    m["ledger.verdict_covered_pct"] = 100.0 * m["self_sum_ms"] / verdict_ms
    edit_parts = sess["session.stage_ms"] + sess["session.reverify_ms"] + sess["fingerprint.digest_ms"]
    edit_parts += serve["serve.protocol_ms"]
    daemon_ms = statistics.mean(daemon_edits)
    m["ledger.edit_covered_pct"] = 100.0 * edit_parts / daemon_ms

    # exact counts, across runs of the same design in this checkout: the
    # edit seed only orders the pool, which leaves every count unchanged
    ref_path = os.path.join(WORK, "exact-%s-d%d.json" % (workload, design_seed))
    exact = {k: m[k] for k in EXACT}
    if os.path.exists(ref_path):
        with open(ref_path) as f:
            ref = json.load(f)
        drift = [k for k in EXACT if ref.get(k) != exact[k]]
        tally.op(not drift, "exact counts drifted (workload-generation bug): %s" % drift)
    else:
        with open(ref_path, "w") as f:
            json.dump(exact, f)

    ledger = {
        "verdict_ms": verdict_ms,
        "self_sum_ms": m["self_sum_ms"],
        "process_overhead_ms": statistics.median(untraced_wall) - statistics.median(untraced),
        "untraced_inproc_ms": statistics.median(untraced),
        "traced_inproc_ms": traced_ms,
        "daemon_edit_mean_ms": daemon_ms,
        "inproc_edit_mean_ms": sess["edit_mean_ms"],
        "edit_parts_ms": edit_parts,
    }
    return m, tally, ledger


# ---- output -------------------------------------------------------------------


def fmt(x):
    return ("%.4g" % x) if isinstance(x, float) else str(x)


def print_table(table):
    print("%-22s %-5s %10s %10s %10s %5s" % ("metric", "unit", "median", "q1", "q3", "n"))
    for name, unit, xs in table:
        q1, med, q3 = quartiles(xs)
        print("%-22s %-5s %10s %10s %10s %5d" % (name, unit, fmt(med), fmt(q1), fmt(q3), len(xs)))


def shares(m):
    """Each layer group's share of the traced verdict, and incr's share of
    an edit: the figures that say which layers a workload stresses."""
    total = sum(
        m[k]
        for k in ("read.ms", "parser.ms", "expander.ms", "flow.ms", "window.ms", "eval.ms", "check.ms",
                  "verifier.self_ms", "report.ms")
    )
    edit = m["session.reverify_ms"] + m["fingerprint.digest_ms"] + m["serve.protocol_ms"]
    return {
        "front_end": (m["read.ms"] + m["parser.ms"] + m["expander.ms"]) / total,
        "static": (m["flow.ms"] + m["window.ms"]) / total,
        "eval_check": (m["eval.ms"] + m["check.ms"]) / total,
        "rest": (m["verifier.self_ms"] + m["report.ms"]) / total,
        "edit_incr": (m["session.reverify_ms"] + m["fingerprint.digest_ms"]) / edit,
    }


def result_line(tally, metrics, units):
    return json.dumps(
        {
            "correct": tally.failed == 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units},
        }
    )


def report_failures(tally):
    print("fail_ratio %d/%d" % (tally.failed, tally.attempted))
    for n in tally.notes:
        print("  FAILED: " + n)


def suite(design_seed, seed, seconds):
    rows = []
    for w in WORKLOADS:
        e2e, t0, _ = measure(w, design_seed, seed, seconds)
        layers, t1, ledger = traced(w, design_seed, seed)
        rows.append((w, e2e, layers, ledger, t0, t1))
    print("design seed %d, edit seed %d, %d s per workload, -j 1" % (design_seed, seed, seconds))
    print()
    print("%-11s" % "workload" + "".join(" %17s" % ("%s[%s]" % (k, u)) for k, u in E2E) + "  fail_ratio")
    for w, e2e, _, _, t0, t1 in rows:
        fails = t0.failed + t1.failed
        tries = t0.attempted + t1.attempted
        print("%-11s" % w + "".join(" %17s" % fmt(e2e[k]) for k, _ in E2E) + "  %d/%d" % (fails, tries))
    print()
    print("%-30s %-6s" % ("per-layer metric", "unit") + "".join(" %12s" % r[0] for r in rows))
    for k, u in LAYERS:
        print("%-30s %-6s" % (k, u) + "".join(" %12s" % fmt(r[2][k]) for r in rows))
    print()
    print("%-30s %-6s" % ("layer share", "") + "".join(" %12s" % r[0] for r in rows))
    for k in ("front_end", "static", "eval_check", "rest", "edit_incr"):
        print("%-30s %-6s" % (k, "ratio") + "".join(" %12s" % ("%.3f" % shares(r[2])[k]) for r in rows))
    print()
    print("%-30s %-6s" % ("ledger", "") + "".join(" %12s" % r[0] for r in rows))
    for k in rows[0][3]:
        print("%-30s %-6s" % (k, "ms") + "".join(" %12s" % fmt(r[3][k]) for r in rows))
    for r in rows:
        for t in (r[4], r[5]):
            for n in t.notes:
                print("  FAILED %s: %s" % (r[0], n))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1, help="seeds the edit stream")
    ap.add_argument(
        "--design-seed", type=int, default=1, help="netgen seed; 1 gives the designs the workloads are named after"
    )
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--suite", action="store_true", help="run every workload, both ways, and print one row each")
    a = ap.parse_args()
    if not a.suite and a.workload is None:
        ap.error("give --workload or --suite")
    build()
    os.makedirs(WORK, exist_ok=True)
    if a.suite:
        suite(a.design_seed, a.seed, a.seconds)
        return
    print("workload %s, design seed %d, seed %d, trace %d" % (a.workload, a.design_seed, a.seed, a.trace))
    if a.trace == 0:
        metrics, tally, table = measure(a.workload, a.design_seed, a.seed, a.seconds)
        print_table(table)
        units = E2E
    else:
        metrics, tally, ledger = traced(a.workload, a.design_seed, a.seed)
        units = LAYERS
        for k, u in LAYERS:
            print("%-30s %-6s %s" % (k, u, fmt(metrics[k])))
        for k, v in ledger.items():
            print("%-30s %-6s %s" % ("ledger." + k, "ms", fmt(v)))
    report_failures(tally)
    print(result_line(tally, metrics, units))


if __name__ == "__main__":
    main()
