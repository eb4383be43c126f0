"""One checked pass over the benchmark's verdicts (``perfbench/run.py``, untimed).

The three workload corpora are built at seed 101 under a temporary
directory.  Every CLI job runs through ``ordtop.cli.main`` and every replay
job makes the library calls ``perfbench/worker.py`` makes; each verdict must
match its known answer by ``perfbench/checks.py``.  A verdict the benchmark
would count as failed is a failing test here.  The corpus then runs a
second time in the same process, shuffled by the seed as ``run.py``
shuffles it, and every job must give the same exit code, stdout and stderr
as in the first pass: the benchmark's worker calls ``main`` pass after pass,
so state one call leaves behind (the shared parser, cached properties,
module-level caches) would show there.  ``corpus.py`` and ``checks.py`` are
compiled from their text, so nothing is written next to them.
"""

import hashlib
import io
import json
import random
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import ModuleType

import pytest

import ordtop
import ordtop.cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str) -> ModuleType:
    path = PERFBENCH / f"{name}.py"
    module = ModuleType(f"perfbench_{name}")
    module.__file__ = str(path)
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), vars(module))
    return module


def _cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = ordtop.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a leaked traceback is a failed verdict
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


def _replay(job: dict) -> tuple[int, str, str]:
    """Truncate, then the size and upper-set test of every family member's trace."""
    try:
        poset, points = ordtop.truncate_domain(job["width"], job["depth"], job["mode"])
        family = ordtop.family_from_json(job["family"])
        result = []
        for j in family.indices():
            members = ordtop.truncation_members(family.member(j), points)
            result.append((len(members), ordtop.is_upper_set(poset, members)))
    except Exception:
        return 1, "[]", traceback.format_exc()
    return 0, json.dumps(result), ""


def _outcome(job: dict) -> tuple[int, str, str]:
    return _cli(job["argv"]) if job["kind"] == "cli" else _replay(job)


def _digest(code: int, stdout: str, stderr: str) -> str:
    return hashlib.sha256(json.dumps([code, stdout, stderr]).encode()).hexdigest()


@pytest.mark.parametrize("workload", ["poset-verbs", "factor-models", "symbolic-certs"])
def test_every_benchmark_verdict_matches_its_known_answer(tmp_path, workload):
    corpus, checks = _load("corpus"), _load("checks")
    assert workload in corpus.WORKLOADS
    jobs = corpus.build(workload, str(tmp_path), 101)
    failures, digests = [], []
    for job in jobs:
        code, stdout, stderr = _outcome(job)
        reason = checks.verdict_error(job["expect"], code, stdout, stderr)
        if reason is not None:
            failures.append(f"{job['id']}: {reason}")
        digests.append(_digest(code, stdout, stderr))
    assert jobs and not failures

    order = list(range(len(jobs)))
    random.Random(101).shuffle(order)
    changed = [jobs[i]["id"] for i in order if _digest(*_outcome(jobs[i])) != digests[i]]
    assert not changed
