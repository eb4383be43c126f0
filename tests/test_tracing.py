"""The traced benchmark run (``perfbench/run.py --trace 1``) finds every function it wraps.

``perfbench/tracing.py`` looks its targets up by name, so a renamed or moved
function would break the traced run without any other test noticing.  The
module is compiled from its text, so nothing is written next to it.
"""

import sys
from pathlib import Path
from types import ModuleType

import ordtop.cli  # noqa: F401  (the traced run installs after this import)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing() -> ModuleType:
    module = ModuleType("perfbench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), vars(module))
    return module


def _resolve(layer: str, path: str):
    """The raw attribute a target names: a module function, or a class dict entry."""
    module = sys.modules[f"ordtop.{layer}"]
    owner_name, _, attr = path.rpartition(".")
    if owner_name:
        return vars(getattr(module, owner_name))[attr]
    return vars(module)[attr]


def _function(raw):
    return raw.__func__ if isinstance(raw, classmethod) else raw


def _ordtop_modules():
    return [m for key, m in sys.modules.items()
            if m is not None and (key == "ordtop" or key.startswith("ordtop."))]


def test_every_traced_target_is_wrapped_and_restored():
    tracing = _load_tracing()
    originals, unresolved = {}, []
    for layer, path, _mode in tracing.TARGETS:
        try:
            originals[layer, path] = _resolve(layer, path)
        except (KeyError, AttributeError):
            unresolved.append(f"{layer}.{path}")
    assert not unresolved
    assert all(callable(_function(raw)) for raw in originals.values())

    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (layer, path), original in originals.items():
            wrapped = _resolve(layer, path)
            assert wrapped is not original, f"{layer}.{path}"
            assert _function(wrapped).__wrapped__ is _function(original), f"{layer}.{path}"
            if "." not in path:
                # every module that imported the name calls the wrapper too
                assert not any(value is original for m in _ordtop_modules()
                               for value in vars(m).values()), f"{layer}.{path}"
    finally:
        tracer.uninstall()

    for (layer, path), original in originals.items():
        assert _resolve(layer, path) is original, f"{layer}.{path}"
