"""Spans around dvqkd's public entry points, installed from outside the package.

Each wrapper is set at the name its caller looks up, not only at its
definition: ``boundary`` binds ``bisect_predicate``, ``is_nonclassical`` and
``is_nongaussian`` by name, its predicate lambdas reach ``delta_i`` and
``model_clicks`` through its own globals, the model modules bind the
``security`` functions by name, and ``montecarlo`` holds
``scipy.stats.poisson`` as ``_poisson``.  One wrapper serves every site of a
function, so a call yields exactly one span.

Spans live in flat arrays while the run lasts (name, parent, start, end) and
are written out when it ends.  Self time is a span's duration minus the time
its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from array import array
from pathlib import Path
from typing import Callable, Iterator, Optional

import numpy as np

MODELS = ("thermal_bath", "noise_before", "spdc")

# (module, attribute, span name): every site a traced function is looked up at
SITES = (
    [
        ("boundary", "sweep", "boundary.sweep"),
        ("boundary", "mu_max_numeric", "boundary.mu_max_numeric"),
        ("boundary", "t_min_numeric", "boundary.t_min_numeric"),
        ("boundary", "delta_i", "boundary.delta_i"),
        ("boundary", "model_clicks", "boundary.model_clicks"),
        ("roots", "bisect_predicate", "roots.bisect_predicate"),
        ("boundary", "bisect_predicate", "roots.bisect_predicate"),
        ("photon_stats", "prob_at_least", "photon_stats.prob_at_least"),
        ("security", "binary_entropy", "security.binary_entropy"),
        ("security", "secret_fraction_ideal", "security.secret_fraction_ideal"),
        ("thermal_bath", "secret_fraction_ideal", "security.secret_fraction_ideal"),
        ("noise_before", "secret_fraction_ideal", "security.secret_fraction_ideal"),
        ("security", "secret_fraction_multiphoton", "security.secret_fraction_multiphoton"),
        ("spdc", "secret_fraction_multiphoton", "security.secret_fraction_multiphoton"),
        ("witness", "nc_boundary", "witness.nc_boundary"),
        ("witness", "ng_boundary", "witness.ng_boundary"),
        ("witness", "is_nonclassical", "witness.is_nonclassical"),
        ("boundary", "is_nonclassical", "witness.is_nonclassical"),
        ("witness", "is_nongaussian", "witness.is_nongaussian"),
        ("boundary", "is_nongaussian", "witness.is_nongaussian"),
    ]
    + [(m, f, f"{m}.{f}") for m in MODELS for f in ("key_rate", "click_stats", "omega")]
)


def _model_label(params, *args, **kwargs) -> str:
    return type(params).__module__.rsplit(".", 1)[-1]


def _command_label(argv=None, *args, **kwargs) -> str:
    return argv[0] if argv else "none"


# sites whose span name gets a per-call suffix
LABELLED_SITES = (
    ("montecarlo", "simulate", "montecarlo.simulate", _model_label),
    ("cli", "main", "cli.main", _command_label),
)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn: Callable, name: str, label: Optional[Callable] = None) -> Callable:
        name_id, parent, start, end, stack = (
            self.name_id, self.parent, self.start, self.end, self._stack,
        )
        clock = time.perf_counter
        fixed = self.intern(name)
        intern = self.intern

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(fixed if label is None else intern(f"{name}.{label(*args, **kwargs)}"))
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return traced

    @contextlib.contextmanager
    def installed(self) -> Iterator[None]:
        """Patch every site for the duration of the block, then restore the originals."""
        saved = []
        wrappers: dict[int, Callable] = {}
        sites = [(m, a, n, None) for m, a, n in SITES] + list(LABELLED_SITES)
        for module_name, attr, name, label in sites:
            module = importlib.import_module(f"dvqkd.{module_name}")
            original = getattr(module, attr)
            if id(original) not in wrappers:
                wrappers[id(original)] = self.wrap(original, name, label)
            saved.append((module, attr, original))
            setattr(module, attr, wrappers[id(original)])
        montecarlo = importlib.import_module("dvqkd.montecarlo")
        poisson = montecarlo._poisson
        saved.append((montecarlo, "_poisson", poisson))
        montecarlo._poisson = _PpfProxy(poisson, self.wrap(poisson.ppf, "montecarlo.poisson_ppf"))
        try:
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.names),
            "name_id": np.frombuffer(self.name_id, dtype=np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, **self.arrays())

    def summary(self) -> "SpanSummary":
        return SpanSummary(**self.arrays())


class _PpfProxy:
    """Stands in for ``scipy.stats.poisson`` with a traced ``ppf``."""

    def __init__(self, dist, ppf: Callable) -> None:
        self._dist = dist
        self.ppf = ppf

    def __getattr__(self, attr: str):
        return getattr(self._dist, attr)


class SpanSummary:
    """Calls, self time and total time per span name."""

    def __init__(self, names, name_id, parent, start, end) -> None:
        self.names = list(names)
        self.name_id = name_id
        self.parent = parent
        dur = end - start
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        k = len(self.names)
        self.calls = np.bincount(name_id, minlength=k)
        self.self_s = np.bincount(name_id, weights=dur - covered, minlength=k)
        self.total_s = np.bincount(name_id, weights=dur, minlength=k)
        self.spans = len(dur)

    def _index(self, name: str) -> Optional[int]:
        return self.names.index(name) if name in self.names else None

    def get(self, name: str) -> tuple[int, float, float]:
        """(calls, self seconds, total seconds) of one span name; zeros if never called."""
        i = self._index(name)
        if i is None:
            return 0, 0.0, 0.0
        return int(self.calls[i]), float(self.self_s[i]), float(self.total_s[i])

    def calls_under(self, names: tuple[str, ...], ancestor: str) -> int:
        """Spans named in ``names`` that run inside a span named ``ancestor``."""
        a = self._index(ancestor)
        wanted = [i for i in map(self._index, names) if i is not None]
        if a is None or not wanted:
            return 0
        hit = np.isin(self.name_id, wanted)
        inside = np.zeros(len(self.name_id), dtype=bool)
        up = self.parent.copy()
        while True:
            live = up >= 0
            if not live.any():
                break
            inside[live] |= self.name_id[up[live]] == a
            up[live] = self.parent[up[live]]
        return int((hit & inside).sum())
