"""Span tracing from outside the library.

The traced run rebinds the public entry points of each evoalg module, in every
evoalg module that holds a reference to them, to timing wrappers defined here.
Each call records a span (name, start, end, parent span, op id) plus a few
facts read off its arguments and result. Nothing in src/ is changed; the
original functions are restored afterwards.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import sys
import time

# (module, function): the layer boundaries the per-layer metrics are built on
TRACED = (
    ("fields", "field_make"),
    ("fields", "find_root"),
    ("fields", "embed"),
    ("msc", "transform"),
    ("classify", "classify"),
    ("classify", "iso_test"),
    ("autgroup", "aut_closed_form"),
    ("autgroup", "aut_instantiate"),
    ("derivations", "der_solve"),
    ("oracle", "census"),
    ("oracle", "brute_aut"),
    ("oracle", "brute_der"),
    ("serialize", "census_to_json"),
    ("cli", "run"),
)

TAGS = ("zero", "1.1", "1.2", "1.3", "1.4", "2.1.1", "2.1.2", "2.2.1", "2.2.2", "2.3")
CLI_SUBCOMMANDS = ("classify", "aut", "der", "iso", "verify", "t2map", "census")


def _find_root_facts(args, kwargs, res):
    field = args[0] if args else kwargs["field"]
    ext_field, root, _ = res
    if field.order is None:
        return {"ext": False, "cand": 0}
    ext = ext_field is not field
    # the scan stops at the returned root; an extension scan follows a full base scan
    cand = root.raw + 1 + (field.order if ext else 0)
    return {"ext": ext, "cand": cand}


def _classify_facts(args, kwargs, res):
    return {"tag": res.trace[0]}


def _census_facts(args, kwargs, res):
    q = res.field.order
    orbits = sum(len(r.orbit_representatives) for r in res.records)
    keys = len(res.records)
    jobs = kwargs.get("jobs", args[2] if len(args) > 2 else 1)
    return {
        "gl2_elements": (orbits + keys) * res.gl2_order,  # partition + one Aut scan per key
        "der_scan_matrices": keys * q**4,
        "jobs": jobs,
    }


def _cli_facts(args, kwargs, res):
    argv = list(args[0] if args else kwargs["argv"])
    return {"sub": argv[0], "call": hashlib.sha256(json.dumps(argv).encode()).hexdigest()[:16]}


_FACTS = {
    "fields.find_root": _find_root_facts,
    "classify.classify": _classify_facts,
    "oracle.census": _census_facts,
    "cli.run": _cli_facts,
}


class Tracer:
    def __init__(self):
        self.spans: list = []  # [name, start_ns, end_ns, parent, op, facts]
        self.op = None
        self._stack: list[int] = []
        self._rebound: list = []

    def _wrap(self, name, fn):
        spans, stack, facts_of = self.spans, self._stack, _FACTS.get(name)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0, 0, stack[-1] if stack else -1, self.op, None]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                res = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if facts_of is not None:
                span[5] = facts_of(args, kwargs, res)
            return res

        traced.__wrapped__ = fn
        return traced

    def install(self):
        mods = [m for n, m in list(sys.modules.items()) if n == "evoalg" or n.startswith("evoalg.")]
        for mod_name, fn_name in TRACED:
            orig = getattr(sys.modules["evoalg." + mod_name], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", orig)
            for m in mods:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, attr, wrapper)
                        self._rebound.append((m, attr, orig))

    def uninstall(self):
        for m, attr, orig in reversed(self._rebound):
            setattr(m, attr, orig)
        self._rebound.clear()


def write_spans(spans, path: str):
    """One JSON object per span: name, start, end, parent index, op id, facts."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for name, t0, t1, parent, op, facts in spans:
            fh.write(json.dumps(
                {"name": name, "start_ns": t0, "end_ns": t1, "parent": parent,
                 "op": op, "facts": facts}) + "\n")


def layer_metrics(spans) -> dict:
    """Per-layer totals from a list of spans (parents precede their children).

    The oracle.* breakdown covers censuses run with jobs=1 only: with jobs>1
    the classify and transform calls of phase 1 run in forked workers, whose
    spans never reach this process. Those censuses count only towards
    oracle.census_jobs2.s."""
    n = len(spans)
    child_ns = [0] * n
    census_of = [-1] * n  # nearest enclosing oracle.census span
    for i, (name, t0, t1, parent, _op, _f) in enumerate(spans):
        if parent >= 0:
            child_ns[parent] += t1 - t0
            census_of[i] = parent if spans[parent][0] == "oracle.census" else census_of[parent]

    def jobs1(i):
        """Span i is a jobs=1 census, or lies under one."""
        j = i if spans[i][0] == "oracle.census" else census_of[i]
        return j >= 0 and spans[j][5] is not None and spans[j][5]["jobs"] == 1

    calls: dict = {}
    total_ns: dict = {}
    self_ns: dict = {}
    tag_ns = {t: [0, 0] for t in TAGS}
    phase1_ns = ext_calls = cand = gl2 = der_mats = jobs2_ns = 0
    run_ns: dict = {}  # (subcommand, call) -> durations of cli.run
    for i, (name, t0, t1, parent, op, facts) in enumerate(spans):
        dur = t1 - t0
        own = dur - child_ns[i]
        if name.startswith("oracle.") and not jobs1(i):
            if name == "oracle.census":
                jobs2_ns += dur
            continue
        calls[name] = calls.get(name, 0) + 1
        total_ns[name] = total_ns.get(name, 0) + dur
        self_ns[name] = self_ns.get(name, 0) + own
        if name == "classify.classify" and facts:
            tag_ns[facts["tag"]][0] += own
            tag_ns[facts["tag"]][1] += 1
        if name in ("classify.classify", "msc.transform") and census_of[i] >= 0 and jobs1(i):
            phase1_ns += dur
        if name == "fields.find_root" and facts:
            ext_calls += facts["ext"]
            cand += facts["cand"]
        if name == "oracle.census" and facts:
            gl2 += facts["gl2_elements"]
            der_mats += facts["der_scan_matrices"]
        if name == "cli.run" and facts:
            run_ns.setdefault((facts["sub"], facts["call"]), []).append(dur)

    def c(name):
        return calls.get(name, 0)

    def s(name, table=total_ns):
        return table.get(name, 0) / 1e9

    m = {
        "fields.field_make.calls": c("fields.field_make"),
        "fields.field_make.s": s("fields.field_make"),
        "fields.find_root.calls": c("fields.find_root"),
        "fields.find_root.s": s("fields.find_root"),
        "fields.find_root.ext_calls": ext_calls,
        "fields.find_root.scan_candidates": cand,
        "fields.embed.calls": c("fields.embed"),
        "fields.embed.s": s("fields.embed"),
        "msc.transform.calls": c("msc.transform"),
        "msc.transform.s": s("msc.transform"),
        "classify.classify.calls": c("classify.classify"),
        "classify.classify.self_s": s("classify.classify", self_ns),
        "classify.iso_test.calls": c("classify.iso_test"),
        "classify.iso_test.s": s("classify.iso_test"),
        "autgroup.aut_closed_form.calls": c("autgroup.aut_closed_form"),
        "autgroup.aut_closed_form.s": s("autgroup.aut_closed_form"),
        "autgroup.aut_instantiate.calls": c("autgroup.aut_instantiate"),
        "autgroup.aut_instantiate.s": s("autgroup.aut_instantiate"),
        "derivations.der_solve.calls": c("derivations.der_solve"),
        "derivations.der_solve.s": s("derivations.der_solve"),
        "oracle.census.calls": c("oracle.census"),
        "oracle.census.self_s": s("oracle.census", self_ns),
        "oracle.census_jobs2.s": jobs2_ns / 1e9,
        "oracle.phase1_s": phase1_ns / 1e9,
        "oracle.brute_aut.s": s("oracle.brute_aut"),
        "oracle.brute_der.s": s("oracle.brute_der"),
        "oracle.gl2_elements": gl2,
        "oracle.der_scan_matrices": der_mats,
        "serialize.census_to_json.s": s("serialize.census_to_json"),
    }
    for tag, (ns, k) in tag_ns.items():
        m[f"classify.tag_us.{tag}"] = ns / k / 1e3 if k else 0.0
    for sub in CLI_SUBCOMMANDS:  # mean over the subcommand's calls of each call's median
        meds = [statistics.median(d) for (s_, _), d in run_ns.items() if s_ == sub]
        m[f"cli.run_ms.{sub}"] = statistics.mean(meds) / 1e6 if meds else 0.0
    return m
