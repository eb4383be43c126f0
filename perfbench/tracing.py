"""Spans around the public functions of each ``ordtop`` layer, for the traced run.

A layer is a module of ``ordtop``.  ``Tracer.install`` replaces each target
function by a wrapper, both on its own module and wherever another
``ordtop`` module imported the name (``cli.factor_model``,
``factorization.relative_topology``, the package root).  Methods are
replaced on their class.  Nothing under ``src/ordtop`` is edited, and
``uninstall`` puts every original back.

A span is (name, layer, start, end, parent, job, n, out): ``n`` is the size
of the input poset for the sweeping calls and ``out`` the size of the
returned object, so counters come from outside the program.  Hot leaf calls
record a call count and summed time instead of a span; their time stays in
the self time of the span that called them.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter

SPAN, LEAF = "span", "leaf"

# (layer, attribute path in the layer module, mode)
TARGETS = [
    ("poset", "build_poset", SPAN),
    ("poset", "FinitePoset.from_covers", SPAN),
    ("poset", "FinitePoset.from_relation", SPAN),
    ("poset", "FinitePoset.restrict", SPAN),
    ("poset", "FinitePoset.covers", SPAN),
    ("poset", "product", SPAN),
    ("poset", "find_order_isomorphism", SPAN),
    ("poset", "load_poset", SPAN),
    ("poset", "poset_from_json", SPAN),
    ("poset", "poset_to_json", SPAN),
    ("poset", "to_dot", SPAN),
    ("topology", "scott_opens", SPAN),
    ("topology", "relative_topology", SPAN),
    ("topology", "is_bounded_complete", SPAN),
    ("topology", "is_continuous", SPAN),
    ("topology", "is_algebraic", SPAN),
    ("topology", "is_ideal_domain", SPAN),
    ("topology", "compact_elements", SPAN),
    ("topology", "is_scott_open", SPAN),
    ("topology", "is_scott_closed", SPAN),
    ("topology", "is_upper_set", SPAN),
    ("topology", "is_gdelta", SPAN),
    ("topology", "Topology.sorted_opens", SPAN),
    ("topology", "way_below", LEAF),
    ("ideals", "all_ideals", SPAN),
    ("ideals", "idl_poset", SPAN),
    ("ideals", "principal_ideal", SPAN),
    ("factorization", "model_from_json", SPAN),
    ("factorization", "ProductModel.__init__", SPAN),
    ("factorization", "ProductModel.transported_max_topology", SPAN),
    ("factorization", "split_product_topology", SPAN),
    ("factorization", "build_Q", SPAN),
    ("factorization", "ideal_J", SPAN),
    ("factorization", "verify_claims", SPAN),
    ("factorization", "factor_model", SPAN),
    ("factorization", "lower_set_model", SPAN),
    ("factorization", "algebraic_model", SPAN),
    ("symbolic", "family_from_json", SPAN),
    ("symbolic", "diagonal_witness", SPAN),
    ("symbolic", "gdelta_certificate_lhat", SPAN),
    ("symbolic", "truncate_domain", SPAN),
    ("symbolic", "truncation_members", SPAN),
    ("symbolic", "symbolic_member", LEAF),
]

LAYERS = ("cli", "poset", "topology", "ideals", "factorization", "symbolic")

# Calls that sweep all 2^n subsets of their input poset.
SWEEPS = {"topology.scott_opens", "topology.relative_topology",
          "topology.is_bounded_complete", "ideals.all_ideals"}
OPENS = {"topology.scott_opens", "topology.relative_topology"}
BUILDS = {"poset.build_poset", "poset.FinitePoset.from_covers",
          "poset.FinitePoset.from_relation"}


def _poset_size(args) -> int:
    return len(args[0])


def _opens_count(result) -> int:
    return len(result.opens)


IN_SIZE = {name: _poset_size for name in SWEEPS}
OUT_SIZE = {"topology.scott_opens": _opens_count, "topology.relative_topology": _opens_count,
            "ideals.all_ideals": len, "factorization.build_Q": len}
OUT_SIZE.update({name: len for name in BUILDS})

# Per-layer metric -> span names whose outermost inclusive time it sums.
TIMED = {
    "poset.build_s": BUILDS,
    "poset.iso_s": {"poset.find_order_isomorphism"},
    "poset.covers_s": {"poset.FinitePoset.covers"},
    "topology.scott_opens_s": {"topology.scott_opens"},
    "topology.relative_s": {"topology.relative_topology"},
    "topology.bounded_complete_s": {"topology.is_bounded_complete"},
    "topology.classify_s": {"topology.is_continuous", "topology.is_algebraic",
                            "topology.is_ideal_domain", "topology.compact_elements"},
    "ideals.idl_poset_s": {"ideals.idl_poset"},
    "factorization.model_init_s": {"factorization.ProductModel.__init__"},
    "factorization.split_s": {"factorization.split_product_topology"},
    "factorization.build_q_s": {"factorization.build_Q"},
    "factorization.verify_claims_s": {"factorization.verify_claims"},
    "factorization.lower_set_s": {"factorization.lower_set_model"},
    "symbolic.lhat_cert_s": {"symbolic.gdelta_certificate_lhat"},
    "symbolic.diagonal_s": {"symbolic.diagonal_witness"},
    "symbolic.truncate_s": {"symbolic.truncate_domain"},
}


class Tracer:
    """Spans kept in memory while installed; ``summarize`` turns them into metrics."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.leaf_calls: dict[str, int] = defaultdict(int)
        self.leaf_time: dict[str, float] = defaultdict(float)
        self.job = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def open(self, name: str, layer: str, n: int | None = None) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, layer, perf_counter(), None, parent, self.job, n, None])
        self._stack.append(index)
        return index

    def close(self, index: int, out: int | None = None) -> None:
        span = self.spans[index]
        span[3] = perf_counter()
        span[7] = out
        self._stack.pop()

    def _span(self, name: str, layer: str, fn):
        size_in, size_out = IN_SIZE.get(name), OUT_SIZE.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.open(name, layer, size_in(args) if size_in else None)
            out = None
            try:
                result = fn(*args, **kwargs)
                out = size_out(result) if size_out else None
                return result
            finally:
                self.close(index, out)
        return wrapper

    def _leaf(self, name: str, fn):
        calls, times = self.leaf_calls, self.leaf_time

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                times[name] += perf_counter() - start
                calls[name] += 1
        return wrapper

    # -- patching -------------------------------------------------------------

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "ordtop" or key.startswith("ordtop."))]
        for layer, path, mode in TARGETS:
            module = sys.modules[f"ordtop.{layer}"]
            name = f"{layer}.{path}"
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                raw = owner.__dict__[attr]
                fn = raw.__func__ if isinstance(raw, classmethod) else raw
                new = self._span(name, layer, fn) if mode == SPAN else self._leaf(name, fn)
                setattr(owner, attr, classmethod(new) if isinstance(raw, classmethod) else new)
                self._undo.append((owner, attr, raw))
                continue
            original = getattr(module, attr)
            new = self._span(name, layer, original) if mode == SPAN else self._leaf(name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, new)
                        self._undo.append((m, key, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, layer, start, end, parent, job, n, out in self.spans:
                handle.write(json.dumps({"name": name, "layer": layer, "start": start,
                                         "end": end, "parent": parent, "job": job,
                                         "n": n, "out": out}) + "\n")
            handle.write(json.dumps({"leaf_calls": self.leaf_calls,
                                     "leaf_time": self.leaf_time}) + "\n")

    # -- aggregation ------------------------------------------------------------

    def _outermost(self, index: int, group: set) -> bool:
        parent = self.spans[index][4]
        while parent is not None:
            if self.spans[parent][0] in group:
                return False
            parent = self.spans[parent][4]
        return True

    def summarize(self, passes: int) -> dict[str, float]:
        """Per-layer metrics, each summed over the traced spans and divided by ``passes``."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, layer, start, end, parent, *_ in spans:
            if parent is not None:
                child[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for index, (name, layer, start, end, parent, job, n, out) in enumerate(spans):
            totals[f"{layer}.self_s"] += end - start - child[index]
            if parent is None:
                totals["trace.job_s"] += end - start
            for metric, group in TIMED.items():
                if name in group and self._outermost(index, group):
                    totals[metric] += end - start
            if name in SWEEPS and self._outermost(index, SWEEPS):
                totals["topology.subsets_swept"] += 2 ** n
            if name in OPENS and self._outermost(index, OPENS):
                totals["topology.opens_materialized"] += out or 0
                totals["opens_base"] += 2 ** n
            if name == "ideals.all_ideals":
                totals["ideals.ideals_found"] += out or 0
                totals["ideals_base"] += 2 ** n
            if name == "factorization.build_Q":
                totals["factorization.q_triples"] += out or 0
            if name in BUILDS and self._outermost(index, BUILDS):
                totals["poset.elements_built"] += out or 0
        totals["symbolic.member_calls"] = self.leaf_calls["symbolic.symbolic_member"]
        totals["symbolic.member_s"] = self.leaf_time["symbolic.symbolic_member"]

        metrics = {f"{layer}.self_s": totals[f"{layer}.self_s"] / passes for layer in LAYERS}
        for metric in list(TIMED) + ["trace.job_s", "topology.subsets_swept",
                                     "topology.opens_materialized", "ideals.ideals_found",
                                     "factorization.q_triples", "poset.elements_built",
                                     "symbolic.member_calls", "symbolic.member_s"]:
            metrics[metric] = totals[metric] / passes
        metrics["topology.opens_per_subset"] = _ratio(totals["topology.opens_materialized"],
                                                      totals["opens_base"])
        metrics["ideals.ideals_per_subset"] = _ratio(totals["ideals.ideals_found"],
                                                     totals["ideals_base"])
        metrics["bases"] = {"topology.opens_per_subset": totals["opens_base"] / passes,
                            "ideals.ideals_per_subset": totals["ideals_base"] / passes}
        return metrics


def _ratio(part: float, base: float) -> float:
    return part / base if base else 0.0
