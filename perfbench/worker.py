"""Replays one workload's jobs in process and times each verdict.

Usage: ``python3 perfbench/worker.py MANIFEST RESULT --seconds S --trace 0|1``
with ``src`` on ``PYTHONPATH``.  ``run.py`` starts it with a pinned
``PYTHONHASHSEED`` and reads RESULT back.

One client runs one job at a time (a closed loop).  A CLI job calls
``ordtop.cli.main(argv)`` with stdout and stderr captured; the replay job
makes the library calls the README documents.  Job time runs from the call
to the verdict (exit code plus output).  The corpus is replayed in whole
passes while another pass fits in the time budget.  Each verdict is
checked against its known answer; a byte-identical repeat of an already
checked verdict is not parsed again.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import resource
import sys
import traceback
from time import perf_counter

from checks import verdict_error
from reference import time_reference
from tracing import Tracer


class Runner:
    def __init__(self, jobs: list[dict], ordtop) -> None:
        self.jobs = jobs
        self.ordtop = ordtop
        self.tracer: Tracer | None = None
        self.verified: dict[int, bytes] = {}
        self.refs: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []

    def _cli(self, argv: list[str]) -> tuple[float, int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = perf_counter()
            try:
                code = self.ordtop.cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # a leaked traceback is a failed verdict, not a crash
                traceback.print_exc()
                code = 1
            elapsed = perf_counter() - start
        return elapsed, code, out.getvalue(), err.getvalue()

    def _replay(self, job: dict) -> tuple[float, int, str, str]:
        ordtop = self.ordtop
        err = io.StringIO()
        start = perf_counter()
        try:
            poset, points = ordtop.truncate_domain(job["width"], job["depth"], job["mode"])
            family = ordtop.family_from_json(job["family"])
            result = []
            for j in family.indices():
                members = ordtop.truncation_members(family.member(j), points)
                result.append((len(members), ordtop.is_upper_set(poset, members)))
            code = 0
        except Exception:  # reported as a leaked traceback
            traceback.print_exc(file=err)
            result, code = [], 1
        elapsed = perf_counter() - start
        return elapsed, code, json.dumps(result), err.getvalue()

    def run(self, k: int) -> tuple[float, int]:
        """Run job ``k`` once; return its time and stdout size."""
        job = self.jobs[k]
        gc.collect()
        self.refs.append(time_reference())
        tracer = self.tracer
        if tracer is not None:
            tracer.job += 1
            root = tracer.open(job["id"], "cli")
        try:
            if job["kind"] == "cli":
                elapsed, code, stdout, stderr = self._cli(job["argv"])
            else:
                elapsed, code, stdout, stderr = self._replay(job)
        finally:
            if tracer is not None:
                tracer.close(root)
        self.attempted += 1
        digest = hashlib.sha1(f"{code}\0{stdout}\0{stderr}".encode()).digest()
        if self.verified.get(k) != digest:
            reason = verdict_error(job["expect"], code, stdout, stderr)
            if reason is None:
                self.verified[k] = digest
            else:
                self.failures.append(f"{job['id']}: {reason}")
        return elapsed, len(stdout) if job["kind"] == "cli" else 0

    def passes(self, budget: float) -> dict:
        """Whole passes over the corpus while another one fits in ``budget`` seconds.

        ``refs`` holds one reference-slice timing before each job and one
        after the last, so job g lies between ``refs[g]`` and ``refs[g + 1]``.
        """
        times, stdout_bytes = [], 0
        self.refs = []
        start, pass_s = perf_counter(), 0.0
        while not times or perf_counter() - start + pass_s <= budget:
            begin = perf_counter()
            row = []
            for k in range(len(self.jobs)):
                elapsed, size = self.run(k)
                row.append(elapsed)
                stdout_bytes += size
            times.append(row)
            pass_s = perf_counter() - begin
        self.refs.append(time_reference())
        return {"times": times, "refs": self.refs, "stdout_bytes": stdout_bytes // len(times)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("manifest")
    parser.add_argument("result")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    import ordtop
    import ordtop.cli

    with open(args.manifest, encoding="utf-8") as handle:
        manifest = json.load(handle)
    runner = Runner(manifest["jobs"], ordtop)
    budget = args.seconds / 2 if args.trace else args.seconds
    result = {"untraced": runner.passes(budget)}
    if args.trace:
        tracer = Tracer()
        runner.tracer = tracer
        tracer.install()
        try:
            result["traced"] = runner.passes(budget)
        finally:
            tracer.uninstall()
            runner.tracer = None
        tracer.dump(manifest["trace_path"])
        result["layers"] = tracer.summarize(len(result["traced"]["times"]))
    result.update(attempted=runner.attempted, failed=len(runner.failures),
                  failures=runner.failures[:10],
                  peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
