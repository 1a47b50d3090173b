"""The process that runs the ops: one client, one op after another.

Usage: python3 perfbench/worker.py PLAN.json RESULT.json

The plan (written by run.py) holds the rounds of ops, the measuring time
and the mode.  CLI ops call ``assoform.cli.main`` in this process with
stdout and stderr captured; hull ops call
``assoform.stability.torus_destabilizer``.  Each op runs under an interval
timer that raises ``OpTimeout``, a ``BaseException`` the program cannot
mistake for one of its own errors (the builtin ``TimeoutError`` is an
``OSError``, which ``cli.main`` turns into exit 1).

Between ops the worker times a fixed kernel (calibrate.py), so that
run.py can turn wall times into reference seconds; the kernel's own time
is left out of every op and loop time.

Modes:
  timed  as many whole rounds as fit in ``seconds`` reference seconds
         (judged by the first round, at least one); the result holds each
         op's outcome, wall time and span on the clock, the kernel samples
         and the process's peak RSS.
  trace  round 0 untraced, then round 0 again with every layer wrapped
         (tracing.py); the result holds both outcomes and the layer
         figures, in reference seconds.
"""

from __future__ import annotations

import io
import json
import os
import resource
import signal
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout

from calibrate import NEAREST, Speedometer

LOOP_BUDGET = 140.0  # seconds; the run must end within 180 s whatever happens


class OpTimeout(BaseException):
    """Raised by the interval timer when an op overruns its limit."""


def _alarm(_signum, _frame):
    raise OpTimeout


class Runner:
    def __init__(self, plan):
        from assoform import cli, poly, stability
        self.cli, self.stability = cli, stability
        self.forms = {}
        for rnd in plan["rounds"]:
            for op in rnd:
                if op["kind"] == "hull":
                    form = op["form"]
                    self.forms[op["id"]] = poly.Polynomial(
                        form["nvars"], poly.Space.DUAL,
                        {tuple(m): c for m, c in form["terms"]})
        self.deadline = None
        self.speed = None  # a Speedometer sampled between ops, when set
        signal.signal(signal.SIGALRM, _alarm)

    def _call(self, op):
        if op["kind"] == "cli":
            return self.cli.main(op["argv"]), None
        return 0, self.stability.torus_destabilizer(self.forms[op["id"]])

    def run(self, op) -> dict:
        limit = op["limit"]
        if self.deadline is not None:
            limit = min(limit, self.deadline - time.perf_counter())
            if limit <= 0:
                now = time.perf_counter()
                return {"id": op["id"], "status": "deadline", "exit": None,
                        "stdout": "", "stderr": "", "seconds": 0.0,
                        "start": now, "end": now}
        out, err = io.StringIO(), io.StringIO()
        status, code, value, detail = "ok", None, None, ""
        start = end = time.perf_counter()
        try:
            try:
                signal.setitimer(signal.ITIMER_REAL, limit)
                with redirect_stdout(out), redirect_stderr(err):
                    code, value = self._call(op)
                end = time.perf_counter()
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except OpTimeout:
            end = time.perf_counter()
            status, detail = "timeout", f"over the {limit:.2f} s limit"
        except (Exception, SystemExit) as exc:  # an escaped error is a failed op
            end = time.perf_counter()
            status = "exception"
            detail = "".join(traceback.format_exception_only(type(exc), exc)).strip()
        stdout = out.getvalue()
        if op["kind"] == "hull" and status == "ok":
            stdout = json.dumps(list(value.weights) if value is not None else None)
        return {"id": op["id"], "status": status, "detail": detail, "exit": code,
                "stdout": stdout, "stderr": err.getvalue()[-2000:],
                "seconds": end - start, "start": start, "end": end}

    def run_round(self, ops) -> list[dict]:
        """Run ops in order; a chained op reads the form its source returned."""
        chains = {op["chain"]["from"]: op["chain"] for op in ops if "chain" in op}
        outcomes = []
        for op in ops:
            chain = chains.get(op["id"])
            if chain and os.path.exists(chain["path"]):
                os.remove(chain["path"])
            if self.speed is not None:
                self.speed.maybe_sample()
            outcome = self.run(op)
            outcomes.append(outcome)
            if chain and outcome["exit"] == 0:
                form = json.loads(outcome["stdout"])["result"]["form"]
                names = " ".join(f"z{i + 1}" for i in range(chain["nvars"]))
                with open(chain["path"], "w", encoding="utf-8") as handle:
                    handle.write(f"vars: {names}\n{form}\n")
        return outcomes


def _pass(runner, ops):
    """Run one round; return its outcomes, its loop time in reference seconds
    and the factor that turned wall into reference seconds."""
    speed = runner.speed
    start = time.perf_counter()
    outcomes = runner.run_round(ops)
    end = time.perf_counter()
    wall = end - start - speed.spent_since(start)
    for _ in range(NEAREST):
        speed.sample()
    factor = speed.factor(start, end)
    return outcomes, wall * factor, factor


def main(plan_path, result_path):
    with open(plan_path, encoding="utf-8") as handle:
        plan = json.load(handle)
    sys.path.insert(0, plan["src"])
    runner = Runner(plan)
    runner.run_round(plan["warmup"])
    rounds = plan["rounds"]
    result = {}
    speed = runner.speed = Speedometer()
    for _ in range(NEAREST):
        speed.sample()
    start = time.perf_counter()
    runner.deadline = start + LOOP_BUDGET
    if plan["mode"] == "timed":
        # The first round fixes the count: as many whole rounds as fit in
        # the measuring time, in reference seconds, at least one.  So a host
        # running faster or slower for a while does not change the number
        # of ops, and with it the percentiles, of a run.
        outcomes, cycles, total = [], 0, plan["rounds_min"]
        while cycles < total and time.perf_counter() < runner.deadline:
            for outcome in runner.run_round(rounds[cycles % len(rounds)]):
                outcome["cycle"] = cycles
                outcomes.append(outcome)
            cycles += 1
            if cycles == 1:
                now = time.perf_counter()
                first = (now - start - speed.spent_since(start)) * speed.factor(start, now)
                total = max(total, int(plan["seconds"] // max(first, 1e-9)))
        result["wall_s"] = time.perf_counter() - start - speed.spent_since(start)
        for _ in range(NEAREST):
            speed.sample()
        result["samples"] = speed.samples
        result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result["outcomes"] = outcomes
        result["cycles"] = cycles
    else:
        from tracing import Tracer
        result["untraced"], untraced_s, _ = _pass(runner, rounds[0])
        tracer = Tracer()
        tracer.install()
        result["traced"], traced_s, factor = _pass(runner, rounds[0])
        tracer.write(plan["spans"])
        result["layers"] = tracer.aggregate(scale=factor)
        result["layers"]["trace.overhead_ratio"] = traced_s / untraced_s - 1
    runner.speed = None
    runner.deadline = None
    result["defects"] = runner.run_round(plan["defects"])
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main(*sys.argv[1:3])
