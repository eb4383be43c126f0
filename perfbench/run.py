"""The ordtop benchmark: time to verdict on three verifier workloads.

Usage, from the repository root:

    python3 perfbench/run.py --workload poset-verbs --seed 1 --seconds 30 --trace 0

The command generates the workload's inputs from the seed (not timed),
measures the set-up cost of a fresh ``import ordtop`` several times, then
starts one worker process that replays the jobs for ``--seconds`` and checks
every verdict against its known answer.  With ``--trace 0`` it prints the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a separate
traced run.  Every metric is printed by name with its unit; the last line
of stdout is one JSON object with the result.  See README.md in this
directory for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict

import corpus
from reference import scale

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")

HASH_SEED = "0"
SETUP_SAMPLES = 9
WORKER_TIMEOUT_S = 170

VERBS = ("check", "topology", "maxspace", "idl", "factor", "lower-model",
         "diagonal", "lhat-cert", "truncate-l", "hasse")
PER_LAYER_UNITS = {
    "cli.self_s": "s", "cli.stdout_bytes": "bytes",
    "poset.self_s": "s", "poset.build_s": "s", "poset.elements_built": "count",
    "poset.iso_s": "s", "poset.covers_s": "s",
    "topology.self_s": "s", "topology.scott_opens_s": "s", "topology.relative_s": "s",
    "topology.bounded_complete_s": "s", "topology.classify_s": "s",
    "topology.subsets_swept": "count", "topology.opens_materialized": "count",
    "topology.opens_per_subset": "ratio",
    "ideals.self_s": "s", "ideals.idl_poset_s": "s", "ideals.ideals_found": "count",
    "ideals.ideals_per_subset": "ratio",
    "factorization.self_s": "s", "factorization.model_init_s": "s",
    "factorization.split_s": "s", "factorization.build_q_s": "s",
    "factorization.q_triples": "count", "factorization.verify_claims_s": "s",
    "factorization.lower_set_s": "s",
    "symbolic.self_s": "s", "symbolic.lhat_cert_s": "s", "symbolic.diagonal_s": "s",
    "symbolic.truncate_s": "s", "symbolic.member_calls": "count", "symbolic.member_s": "s",
    "trace.job_s": "s", "trace.overhead_share": "share",
}


def worker_env() -> dict:
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return env


def setup_seconds(env: dict) -> list[tuple[float, float]]:
    """(measured, reference-speed) import times of ``ordtop`` in fresh interpreters.

    One warm-up import first, so that every timed one finds compiled bytecode.
    """
    samples = []
    for k in range(SETUP_SAMPLES + 1):
        done = subprocess.run([sys.executable, os.path.join(HERE, "probe.py")], env=env,
                              cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
        probe = json.loads(done.stdout)
        if k:
            samples.append((probe["import_s"], probe["import_s"] * scale(probe["refs"])))
    return samples


def reference_speed(phase: dict) -> list[list[float]]:
    """Job times scaled by the reference slices timed just before and after each job."""
    refs, width = phase["refs"], len(phase["times"][0])
    return [[elapsed * scale(refs[max(0, g - 1):g + 3])
             for g, elapsed in enumerate(row, start=p * width)]
            for p, row in enumerate(phase["times"])]


def tail(values: list[float]) -> tuple[int, float]:
    """The highest whole percentile with at least ten values beyond it, by nearest rank."""
    n = len(values)
    p = max(0, 100 * (n - 10) // n)
    rank = max(1, math.ceil(p * n / 100))
    return p, sorted(values)[rank - 1]


def latency(times: list[list[float]]) -> tuple[float, float, int, float, float]:
    """jobs/s, p50, tail percentile and value, and total, over per-job medians."""
    per_job = [statistics.median(col) for col in zip(*times)]
    p, tail_s = tail(per_job)
    return len(per_job) / sum(per_job), statistics.median(per_job), p, tail_s, sum(per_job)


def end_to_end(result: dict, setup: list[tuple[float, float]]) -> tuple[dict, list[str]]:
    phase = result["untraced"]
    n, passes = len(phase["times"][0]), len(phase["times"])
    rate, p50, p, tail_s, total = latency(reference_speed(phase))
    raw_rate, raw_p50, _, raw_tail, _ = latency(phase["times"])
    raw_setup = statistics.median(raw for raw, _ in setup)
    attempted, failed = result["attempted"], result["failed"]
    metrics = {
        "jobs_per_s": (rate, "1/s", raw_rate,
                       f"{n} corpus jobs over the sum of their medians, {total:.4g} s; "
                       f"each job's median is over {passes} passes"),
        "verdict_p50_ms": (1000 * p50, "ms", 1000 * raw_p50,
                           f"median over the {n} corpus jobs"),
        "verdict_tail_ms": (1000 * tail_s, "ms", 1000 * raw_tail,
                            f"p{p}: the highest percentile with at least 10 of the "
                            f"{n} corpus jobs beyond it"),
        "setup_s": (statistics.median(ref for _, ref in setup), "s", raw_setup,
                    f"median of {len(setup)} fresh imports"),
    }
    lines = [f"{name}: {value:.6g} {unit} (measured {raw:.6g}; {note})"
             for name, (value, unit, raw, note) in metrics.items()]
    rss = result["peak_rss_kb"] / 1024
    lines.append(f"peak_rss_mb: {rss:.6g} MB (peak resident memory of the worker process)")
    lines.append(f"failed_share: {failed / attempted:.6g} ({failed} of {attempted} "
                 f"jobs attempted)")
    out = {name: {"value": value, "unit": unit} for name, (value, unit, _, _) in metrics.items()}
    out["peak_rss_mb"] = {"value": rss, "unit": "MB"}
    return out, lines


def per_layer(result: dict, jobs: list[dict]) -> tuple[dict, list[str]]:
    untraced = result["untraced"]
    by_verb = defaultdict(list)
    for row in untraced["times"]:
        for job, elapsed in zip(jobs, row):
            by_verb[job["verb"]].append(elapsed)
    values = {f"cli.{verb}.p50_ms": 1000 * statistics.median(by_verb[verb])
              if by_verb[verb] else 0.0 for verb in VERBS}
    units = {f"cli.{verb}.p50_ms": "ms" for verb in VERBS} | PER_LAYER_UNITS
    layers = dict(result["layers"])
    bases = layers.pop("bases")
    values.update(layers)
    values["cli.stdout_bytes"] = untraced["stdout_bytes"]
    plain = latency(reference_speed(untraced))[4]
    traced = latency(reference_speed(result["traced"]))[4]
    values["trace.overhead_share"] = traced / plain - 1
    lines = []
    for name, unit in units.items():
        note = ""
        if name in bases:
            note = f" (base: {bases[name]:.6g} subsets per pass)"
        elif unit != "ms" and name != "trace.overhead_share":
            note = " per corpus pass"
        lines.append(f"{name}: {values[name]:.6g} {unit}{note}")
    accounted = sum(values[f"{layer}.self_s"] for layer in
                    ("cli", "poset", "topology", "ideals", "factorization", "symbolic"))
    lines.append(f"trace.accounted: layer self times sum to {accounted:.6g} s of "
                 f"{values['trace.job_s']:.6g} s traced job time per pass")
    lines.append(f"trace.passes: {len(untraced['times'])} untraced, "
                 f"{len(result['traced']['times'])} traced")
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}, lines


def main() -> int:
    parser = argparse.ArgumentParser(description="time to verdict on ordtop workloads")
    parser.add_argument("--workload", choices=corpus.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "ordtop", "cli.py")):
        print(f"perfbench: no ordtop sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2

    work = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        jobs = corpus.build(args.workload, work, args.seed)
        random.Random(args.seed).shuffle(jobs)
        manifest = os.path.join(work, "manifest.json")
        result_path = os.path.join(work, "result.json")
        trace_path = os.path.join(WORK, f"trace-{args.workload}-{args.seed}.jsonl")
        with open(manifest, "w", encoding="utf-8") as handle:
            json.dump({"jobs": jobs, "trace_path": trace_path}, handle)
        env = worker_env()
        setup = [] if args.trace else setup_seconds(env)
        subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), manifest, result_path,
                        "--seconds", str(args.seconds), "--trace", str(args.trace)],
                       env=env, cwd=ROOT, timeout=WORKER_TIMEOUT_S, check=True)
        with open(result_path, encoding="utf-8") as handle:
            result = json.load(handle)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload: {args.workload} seed: {args.seed} corpus: {len(jobs)} jobs "
          f"passes: {len(result['untraced']['times'])} client: 1 (closed loop)")
    if args.trace:
        metrics, lines = per_layer(result, jobs)
    else:
        metrics, lines = end_to_end(result, setup)
    print("\n".join(lines))
    for failure in result["failures"]:
        print(f"failed: {failure}", file=sys.stderr)
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
