"""evoalg benchmark.

    python3 perfbench/run.py --workload census|queries|large_field|cli|all \
        [--seed N] [--seconds S] [--trace 0|1]

Prints one line per metric ("name value unit"), the input properties of the
workload, and as its last line a JSON object with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are the end-to-end
metrics of BENCHMARK.json; with --trace 1 they are its per-layer metrics,
taken from a run in which the public functions of each evoalg module are
wrapped in timing spans (see spans.py). Exits with status 2, printing no
result, when the library or the recorded outputs it checks against are
missing.

Each workload runs a fixed number of timed passes, so a seed always attempts
the same ops; the passes are sized to take about 20 s on 2 cores. --seconds
names that budget and is accepted for harnesses that pass it, but does not
stop a run.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import statistics
import subprocess
import sys
import time

import large
import queries
from common import (
    BENCH_DIR,
    OUT_DIR,
    ROOT,
    BenchError,
    child_env,
    import_library,
    SetupProbes,
    interpreter_ms,
    latency_metrics,
    load_expected,
    peak_rss_mb,
)
from spans import CLI_SUBCOMMANDS, Tracer, layer_metrics, write_spans

DEFAULT_SECONDS = 20  # what a run's fixed passes take, roughly, on 2 cores

# ---------------------------------------------------------------------------
# workloads and the timed-pass loop
# ---------------------------------------------------------------------------

# k = 1, 2; characteristics 2, 3, 5; GF(4) has the cube roots of unity, GF(3)
# and GF(5) do not. Every census takes under a second on 2 cores, so that an
# op's best over the passes escapes the host's interference (see NOTES.md).
CENSUS_FIELDS = (
    ("GF3", {"kind": "GF", "p": 3, "k": 1}, 1),
    ("GF4", {"kind": "GF", "p": 2, "k": 2}, 1),
    ("GF5", {"kind": "GF", "p": 5, "k": 1}, 1),
    ("GF5", {"kind": "GF", "p": 5, "k": 1}, 2),  # same census with jobs=2
)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Workload:
    """A pass runs `ops` in order through run_op. check() judges one output
    (None when right, else a one-line reason); known_defect() marks failures
    of the open ROADMAP defects, which count as failed ops but leave the run
    correct; summary() is what later passes must reproduce."""

    name = ""
    warmup = False  # an untimed, checked pass first; else the first timed pass is cold
    # rounds of timed passes in an untraced and in a traced run; fixed, so that
    # a seed always attempts the same ops
    rounds = 3
    traced_rounds = 2
    # an op's latency is its best over the timed passes (ops that repeat in
    # one warm process); else every timed call is a latency sample
    best_of_passes = False
    field_descs: list = []  # fields the set-up probes build

    def run_op(self, op):
        raise NotImplementedError

    def check(self, op, out, outs_so_far):
        raise NotImplementedError

    def known_defect(self, op, out, reason) -> bool:
        return False

    def summary(self, op, out):
        return out

    def what(self, op) -> str:
        return f"{self.name} op"

    def properties(self, outs, facts, lat) -> dict:
        return {}


class Census(Workload):
    """census() over GF(3), GF(4) and GF(5) with jobs=1, then GF(5) again
    with jobs=2. The inputs are whole fields, so the seed does not change
    them. A pass takes ~1.2 s; the first also builds the extension fields the
    witnesses need, which the best-of-passes figures leave out."""

    name = "census"
    rounds, traced_rounds = 15, 5
    best_of_passes = True
    field_descs = list({n: d for n, d, _ in CENSUS_FIELDS}.values())

    def __init__(self, ev, expected, seed):
        self.ev = ev
        self.expected = expected["census"]
        self.ops = [{"field": n, "desc": d, "jobs": j} for n, d, j in CENSUS_FIELDS]

    def run_op(self, op):
        ev = self.ev
        report = ev.census(ev.field_make(op["desc"]), jobs=op["jobs"])
        return report.flags, ev.serialize.dumps(ev.serialize.census_to_json(report))

    def check(self, op, out, outs_so_far):
        flags, text = out
        if not all(flags.values()):
            return f"census flags {flags}"
        if _digest(text) != self.expected[op["field"]]:
            return "census_to_json differs from the recorded output"
        if op["jobs"] > 1:
            same = [o for p, o in outs_so_far if p["field"] == op["field"] and p["jobs"] == 1]
            if same and same[0][1] != text:
                return "jobs=2 output differs from jobs=1"
        return None

    def what(self, op):
        return f"census {op['field']} jobs={op['jobs']}"

    def properties(self, outs, facts, lat):
        return {
            "fields": [f"{op['field']} jobs={op['jobs']}" for op in self.ops],
            "op_s": lat,
            "keys_per_field": [len(json.loads(o[1])["records"]) for o in outs if not isinstance(o, Exception)],
        }


class Queries(Workload):
    """Seeded library calls over Q and small finite fields (queries.py)."""

    name = "queries"
    warmup = True
    rounds = 6
    best_of_passes = True
    field_descs = [d for _, d in queries.FIELDS]

    def __init__(self, ev, expected, seed):
        self.ev = ev
        self.ops = queries.generate(ev, seed)

    def run_op(self, op):
        return queries.run_op(self.ev, op)

    def check(self, op, out, outs_so_far):
        return queries.check(self.ev, op, out)

    def known_defect(self, op, out, reason):
        return queries.known_defect(op, out, reason)

    def summary(self, op, out):
        return queries.summary(op, out)

    def what(self, op):
        return f"queries {op['kind']} {op['field']} {op['tag']}"

    def properties(self, outs, facts, lat):
        return queries.properties(self.ops, outs, facts)


class LargeField(Workload):
    """One large_field pass, run inside the fresh interpreter of large_child."""

    name = "large_field"

    def __init__(self, ev, expected, ops):
        self.ev, self.expected, self.ops = ev, expected, ops

    def run_op(self, op):
        return large.run_op(self.ev, op)

    def check(self, op, out, outs_so_far):
        return large.check(self.ev, op, out, self.expected)

    def what(self, op):
        return f"large_field {op['kind']} p={op['p']}"


def run_pass(wl, tracer=None, label="pass"):
    """One timed pass over wl.ops, with the tracer installed when given.
    Returns (wall seconds, per-op latencies, outputs); an op that raises
    yields its exception as output."""
    lat, outs = [], []
    run_op = wl.run_op
    clock = time.perf_counter
    if tracer is not None:
        tracer.install()
    try:
        t0 = clock()
        for i, op in enumerate(wl.ops):
            if tracer is not None:
                tracer.op = f"{label}.{i}"
            s = clock()
            try:
                out = run_op(op)
            except Exception as e:  # an op that raises is a failed op, not a crash
                # without its traceback, whose frames would hold this pass's
                # outputs in a cycle until the next full garbage collection
                out = e.with_traceback(None)
            lat.append(clock() - s)
            outs.append(out)
        wall = clock() - t0
    finally:
        if tracer is not None:
            tracer.op = None
            tracer.uninstall()
    return wall, lat, outs


def check_pass(wl, outs):
    """(reason, known defect) for every op of a pass; reason None when right."""
    res, done = [], []
    for op, out in zip(wl.ops, outs):
        if isinstance(out, Exception):
            reason = f"raised {type(out).__name__}: {str(out)[:120]}"
        else:
            reason = wl.check(op, out, done)
        res.append((reason, reason is not None and wl.known_defect(op, out, reason)))
        done.append((op, out))
    return res


def compare_pass(wl, ref, checked, outs):
    """Later passes: an op fails as in the checked pass, or when its output
    differs from the checked output."""
    res = []
    for op, r_out, (reason, known), out in zip(wl.ops, ref, checked, outs):
        if reason is None and (isinstance(out, Exception) or wl.summary(op, out) != wl.summary(op, r_out)):
            reason, known = "output differs from the checked pass", False
        res.append((reason, known))
    return res


class Tally:
    """Failed ops against attempted ops; unexpected failures make the run
    incorrect, the known Q cube-root defects do not."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.unexpected: list[str] = []
        self.known: dict = {}

    def add(self, what, reason, known):
        self.attempted += 1
        if reason is None:
            return
        self.failed += 1
        if known:
            self.known[reason] = self.known.get(reason, 0) + 1
        else:
            self.note(f"{what}: {reason}")

    def add_pass(self, wl, results):
        for op, (reason, known) in zip(wl.ops, results):
            self.add(wl.what(op), reason, known)

    def note(self, line):
        if len(self.unexpected) < 20:
            self.unexpected.append(line)
        elif self.unexpected[-1] != "...":
            self.unexpected.append("...")


class InProcess:
    """Passes of a workload in this process. The first pass (the warm-up
    pass, where the workload has one) is checked op by op; the timed passes
    are tallied against it."""

    def __init__(self, wl, tally):
        self.wl, self.tally = wl, tally
        self.ref = self.checked = self.first_lat = self.spans = None
        self.facts: list = []
        self.rounds, self.traced_rounds = wl.rounds, wl.traced_rounds
        self.best_of_passes = wl.best_of_passes
        if wl.warmup:
            tracer = Tracer()  # untimed: records the find_root facts of the inputs
            _, _, self.ref = run_pass(wl, tracer, "warmup")
            self.checked = check_pass(wl, self.ref)
            self.facts = [s[5] for s in tracer.spans if s[0] == "fields.find_root" and s[5]]

    def __call__(self, traced):
        tracer = Tracer() if traced else None
        wall, lat, outs = run_pass(self.wl, tracer)
        if traced and self.spans is None:
            self.spans = tracer.spans
        if self.checked is None:
            self.ref, self.checked, self.first_lat = outs, check_pass(self.wl, outs), lat
            results = self.checked
        else:
            results = compare_pass(self.wl, self.ref, self.checked, outs)
        self.tally.add_pass(self.wl, results)
        return wall, lat

    def properties(self):
        return self.wl.properties(self.ref, self.facts, self.first_lat)


def timed_passes(one_pass, traced, rounds, probes):
    """`rounds` rounds of timed passes: one untraced pass, or in a traced run
    one untraced and one traced pass, alternating which goes first. The
    set-up probes run between rounds, spread over the run. one_pass(traced)
    -> (wall, latencies). Returns ((walls, latencies) of the untraced passes,
    the same of the traced passes)."""
    untraced, traced_out = ([], []), ([], [])
    while len(untraced[0]) < rounds:
        for use_trace in ((False, True), (True, False))[len(untraced[0]) % 2] if traced else (False,):
            wall, lat = one_pass(use_trace)
            walls, lats = traced_out if use_trace else untraced
            walls.append(wall)
            lats.append(lat)
        probes.catch_up(len(untraced[0]) / rounds)
    return untraced, traced_out


def summarize(passes, best_of_passes):
    """(wall seconds, latency samples) of some timed passes. With
    best_of_passes, each op's latency is its best over the passes and the
    wall time is their sum; else the median pass and every op's latency."""
    walls, lats = passes
    if best_of_passes:
        best = [min(op_lat) for op_lat in zip(*lats)]
        return sum(best), best
    return statistics.median(walls), [x for lat in lats for x in lat]


# ---------------------------------------------------------------------------
# large_field: one fresh interpreter per pass
# ---------------------------------------------------------------------------

def large_child() -> int:
    """Run one large_field pass from the op list on stdin; print one JSON line."""
    job = json.load(sys.stdin)
    ev = import_library()
    wl = LargeField(ev, load_expected(), job["ops"])
    tracer = Tracer() if job["trace"] else None
    wall, lat, outs = run_pass(wl, tracer)
    print(json.dumps({
        "wall": wall, "lat": lat, "checked": check_pass(wl, outs),
        "spans": tracer.spans if tracer is not None else None,
    }))
    return 0


class LargeChildren:
    """large_field passes, each in a fresh interpreter (see large.py); a pass
    takes ~2 s on 2 cores."""

    rounds, traced_rounds = 10, Workload.traced_rounds
    best_of_passes = True

    def __init__(self, seed, tally):
        self.wl = LargeField(None, None, large.generate(seed))
        self.tally = tally
        self.spans = None

    def __call__(self, traced):
        out = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--large-pass"],
            input=json.dumps({"ops": self.wl.ops, "trace": traced}),
            env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=170,
        )
        if out.returncode != 0:
            raise BenchError(f"large_field pass failed: {out.stderr.strip()[-600:]}")
        res = json.loads(out.stdout.strip().splitlines()[-1])
        self.tally.add_pass(self.wl, res["checked"])
        if traced and self.spans is None:
            self.spans = res["spans"]
        return res["wall"], res["lat"]

    def properties(self):
        ops = self.wl.ops
        props = {
            "ops": {k: sum(op["kind"] == k for op in ops) for k in ("e4", "e3", "descriptor", "bigp")},
            "e4_primes": sorted(op["p"] for op in ops if op["kind"] == "e4"),
            "e3_primes": sorted(op["p"] for op in ops if op["kind"] == "e3"),
            "bigp_primes": sorted(op["p"] for op in ops if op["kind"] == "bigp"),
            "root_index_share_of_extension": {
                f"{op['kind']} p={op['p']}": round(op["root_index"] / op["p"] ** op["k"], 4)
                for op in ops if "root_index" in op
            },
            "scan_share_of_random_radicand_mean": large.scan_share_of_mean(ops),
            "needs_extension_share": sum("root_index" in op for op in ops) / len(ops),
        }
        if self.spans is not None:
            props["scan_candidates_sorted"] = sorted(
                s[5]["cand"] for s in self.spans if s[0] == "fields.find_root" and s[5]
            )
        return props


# ---------------------------------------------------------------------------
# cli: python -m evoalg subprocess calls
# ---------------------------------------------------------------------------

def _alg(field, entries):
    return json.dumps({"field": field, "msc": entries}, separators=(",", ":"))


def _mat(rows):
    return json.dumps({"matrix": rows}, separators=(",", ":"))


_Q = {"kind": "Q"}
_GF3 = {"kind": "GF", "p": 3, "k": 1}
_GF5 = {"kind": "GF", "p": 5, "k": 1}
_GF7 = {"kind": "GF", "p": 7, "k": 1}
_GF4 = {"kind": "GF", "p": 2, "k": 2}

# (subcommand, argv): the recorded stdout of each is in expected.json
CLI_CALLS = (
    ("classify", ["classify", "-a", _alg(_Q, ["3", "5/2", "-7", "2"])]),
    ("classify", ["classify", "-a", _alg(_GF7, [0, 3, 1, 0])]),
    ("classify", ["classify", "-a", _alg(_Q, ["0", "2", "1", "0"])]),
    ("aut", ["aut", "-a", _alg(_Q, ["1", "-1", "-1", "1"])]),
    ("aut", ["aut", "--enumerate", "-a", _alg(_GF5, [0, 1, 0, 0])]),
    ("aut", ["aut", "--enumerate", "-a", _alg(_GF4, [0, 1, 1, 0])]),
    ("der", ["der", "-a", _alg(_Q, ["0", "1", "0", "0"])]),
    ("der", ["der", "-a", _alg(_GF3, [0, 1, 1, 0])]),
    ("der", ["der", "-a", _alg(_Q, ["4/3", "-2", "2/3", "-1"])]),
    ("iso", ["iso", "-a", _alg(_Q, ["2", "3", "0", "0"]), "-b", _alg(_Q, ["1", "6", "0", "0"])]),
    ("iso", ["iso", "-a", _alg(_GF7, [1, 2, 3, 4]), "-b", _alg(_GF7, [4, 3, 2, 1])]),
    ("iso", ["iso", "-a", _alg(_Q, ["1", "2", "0", "1"]), "-b", _alg(_Q, ["0", "1", "0", "0"])]),
    ("verify", ["verify", "-a", _alg(_Q, ["0", "1", "1", "0"]), "-g", _mat([["0", "1"], ["1", "0"]]), "--mode", "aut"]),
    ("verify", ["verify", "-a", _alg(_Q, ["0", "1", "0", "0"]), "-g", _mat([["2", "5"], ["0", "1"]]), "--mode", "der"]),
    ("verify", ["verify", "-a", _alg(_GF5, [2, 3, 0, 0]), "-g", _mat([[3, 0], [0, 1]]), "--mode",
                "iso:" + _alg(_GF5, [1, 4, 0, 0])]),
    ("t2map", ["t2map", "--label", "E5ab", "--param", "2", "--param", "3"]),
    ("t2map", ["t2map", "--label", "E6c", "--param", "5", "--field", json.dumps(_GF7)]),
    ("t2map", ["t2map", "--label", "E3"]),
    # three of 21 calls: p90 of a run (105 calls) falls inside the census
    # calls rather than on the edge between them and the rest
    ("census", ["census", "--field", json.dumps(_GF3)]),
    ("census", ["census", "--field", json.dumps(_GF3), "--max-ext", "2"]),
    ("census", ["census", "--field", json.dumps(_GF3), "--jobs", "2"]),
)


def _cli_subprocess(argv):
    out = subprocess.run(
        [sys.executable, "-m", "evoalg", *argv],
        env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    return out.returncode, out.stdout


def _cli_reason(i, code, stdout, expected):
    want = expected["cli"][i]
    if code != want["exit"]:
        return f"exit {code}, recorded {want['exit']}"
    if _digest(stdout) != want["stdout_sha256"]:
        return "stdout differs from the recorded output"
    return None


class CliCalls(Workload):
    """The CLI_CALLS catalog in a seeded order, `repeats` times per pass: as
    `python -m evoalg` subprocesses, or in_process through evoalg.cli.run."""

    name = "cli"
    field_descs = [{"kind": "Q"}, _GF3, _GF5, _GF7, _GF4]

    def __init__(self, ev, expected, seed, in_process=False, repeats=1):
        self.ev, self.expected, self.in_process = ev, expected, in_process
        self.warmup = in_process  # the first in-process pass builds interned fields
        # five subprocess cycles (105 calls, ~20-25 s), so that p90 has ten
        # calls above it; in-process passes take ~0.2 s
        self.rounds = self.traced_rounds = 20 if in_process else 5
        order = list(range(len(CLI_CALLS)))
        random.Random(seed).shuffle(order)
        self.ops = order * repeats

    def run_op(self, i):
        argv = CLI_CALLS[i][1]
        if not self.in_process:
            return _cli_subprocess(argv)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.ev.cli.run(argv)
        return code, buf.getvalue()

    def check(self, i, out, outs_so_far):
        return _cli_reason(i, *out, self.expected)

    def what(self, i):
        return f"cli {CLI_CALLS[i][0]}"

    def properties(self, outs, facts, lat):
        return {
            "calls_per_pass": len(self.ops),
            "subcommand_mix": {s: sum(1 for c, _ in CLI_CALLS if c == s) for s in CLI_SUBCOMMANDS},
        }


# ---------------------------------------------------------------------------
# per-layer extras of the traced run
# ---------------------------------------------------------------------------

def cli_probe(ev, expected, seed, tally, repeats=3):
    """evoalg.cli.run(argv) in-process, traced, for every call of CLI_CALLS;
    its spans reach every module, so every per-layer figure is measured in
    every traced run. Returns the spans."""
    wl = CliCalls(ev, expected, seed, in_process=True, repeats=repeats)
    tracer = Tracer()
    _, _, outs = run_pass(wl, tracer, "probe")
    for i, (reason, _) in zip(wl.ops, check_pass(wl, outs)):
        if reason is not None:
            tally.note(f"in-process {wl.what(i)}: {reason}")
    return tracer.spans


def field_loops(ev, seed, n=2000, repeats=5):
    """ns per add/mul call from tight loops over seeded operands."""
    from fractions import Fraction

    rng = random.Random(seed)
    fields = {
        "Q": ev.field_make({"kind": "Q"}),
        "gfp": ev.field_make({"kind": "GF", "p": 7, "k": 1}),
        "gfpk_table": ev.field_make({"kind": "GF", "p": 3, "k": 2}),
        "gfpk_slow": ev.field_make({"kind": "GF", "p": 211, "k": 2}),
    }
    out = {}
    for name, F in fields.items():
        if F.order is None:
            def draw():
                return Fraction(rng.randrange(-10**20, 10**20), rng.randrange(1, 10**20))
        else:
            def draw():
                return rng.randrange(F.order)
        pairs = [(draw(), draw()) for _ in range(n)]
        F.mul(F.one, F.one)  # tables, where the field has them, exist before timing
        for op in ("add", "mul"):
            fn = getattr(F, op)
            ts = []
            for _ in range(repeats):
                t0 = time.perf_counter_ns()
                for a, b in pairs:
                    fn(a, b)
                ts.append(time.perf_counter_ns() - t0)
            out[f"fields.{op}_ns.{name}"] = statistics.median(ts) / n
    return out


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

WORKLOADS = ("census", "queries", "large_field", "cli")


def make_runner(ev, expected, name, seed, traced, tally):
    """(pass runner, fields the set-up probes build)."""
    if name == "large_field":
        return LargeChildren(seed, tally), []
    if name == "census":
        wl = Census(ev, expected, seed)
    elif name == "queries":
        wl = Queries(ev, expected, seed)
    else:
        # a traced cli run times the calls in-process, where tracing reaches
        wl = CliCalls(ev, expected, seed, in_process=traced)
    return InProcess(wl, tally), wl.field_descs


def run_workload(ev, expected, name, seed, traced):
    tally = Tally()
    runner, descs = make_runner(ev, expected, name, seed, traced, tally)
    probes = SetupProbes(descs)
    rounds = runner.traced_rounds if traced else runner.rounds
    untraced, traced_passes = timed_passes(runner, traced, rounds, probes)
    import_s, setup_s = probes.medians()
    wall, lats = summarize(untraced, runner.best_of_passes)
    metrics = {
        "wall_s": wall,
        **latency_metrics(lats, name),
        "peak_rss_mb": peak_rss_mb(),
        "setup_s": setup_s,
    }
    props = runner.properties()
    props["timed_passes"] = len(untraced[0])
    props["latency_samples"] = len(lats)

    if traced:
        spans = runner.spans
        spans = spans + _reindex(cli_probe(ev, expected, seed, tally), len(spans))
        metrics = layer_metrics(spans)
        metrics.update(field_loops(ev, seed))
        metrics["cli.interp_ms"] = interpreter_ms()
        metrics["cli.import_ms"] = import_s * 1e3
        metrics["trace.overhead_share"] = summarize(traced_passes, runner.best_of_passes)[0] / wall - 1
        write_spans(spans, os.path.join(OUT_DIR, f"spans-{name}-seed{seed}.jsonl"))
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"properties-{name}-seed{seed}.json"), "w", encoding="utf-8") as fh:
        json.dump(props, fh, indent=1, default=str)
    return metrics, props, tally


def _reindex(spans, offset):
    return [[n, t0, t1, p + offset if p >= 0 else -1, op, f] for n, t0, t1, p, op, f in spans]


def _emit(name, metrics, props, tally, wanted):
    missing = [m for m in wanted if m not in metrics]
    if missing:
        raise BenchError(f"metrics not produced: {missing}")
    for k, unit in wanted.items():
        print(f"{name}.{k} {metrics[k]!r} {unit}")
    print(f"{name}.failed_share {tally.failed / max(1, tally.attempted)!r} share "
          f"({tally.failed} of {tally.attempted} ops)")
    for reason, n in sorted(tally.known.items()):
        print(f"{name}.known_defect {n} x {reason}")
    for u in tally.unexpected:
        print(f"{name}.UNEXPECTED {u}")
    print(f"{name}.properties {json.dumps(props, default=str, sort_keys=True)}")


def _bench_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                    help="the run budget the fixed passes are sized to (not enforced)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--large-pass", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    try:
        if args.large_pass:
            return large_child()
        ev = import_library()
        expected = load_expected()
        spec = _bench_spec()
        if args.workload == "all":
            return run_all(args)
        wanted = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
        metrics, props, tally = run_workload(ev, expected, args.workload, args.seed, bool(args.trace))
        _emit(args.workload, metrics, props, tally, wanted)
    except (BenchError, OSError, ValueError, KeyError) as e:
        print(f"perfbench: {type(e).__name__}: {e}", file=sys.stderr)
        return 2
    result = {
        "correct": not tally.unexpected,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in wanted.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own interpreter."""
    ok = True
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True,
            )
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode != 0 or not lines:
                print(proc.stderr, file=sys.stderr)
                ok = False
                continue
            res = json.loads(lines[-1])
            combined["correct"] &= res["correct"]
            if trace == 0:
                combined["attempted"] += res["attempted"]
                combined["failed"] += res["failed"]
            for k, v in res["metrics"].items():
                combined["metrics"][f"{name}.{k}"] = v
    if not ok:
        return 2
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
