"""Span tracer that wraps geoflow's public functions from outside the package.

The package modules import names from each other (``from .geodesics import
propagate``), so a function is wrapped at every module attribute bound to it,
not only in the module defining it.  Chart methods are wrapped on each
``Chart`` subclass that defines them, model methods on ``ManifoldModel``.
:meth:`Tracer.install` patches, :meth:`Tracer.uninstall` puts every original
back; spans accumulate across installs and are written out once.

A span is (layer, job, parent span, start, end).  A call into a layer that is
already the innermost open span (a product chart evaluating its factor
charts, say) belongs to that span and opens none.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array

import numpy as np

PACKAGE_MODULES = ("geoflow", "geoflow.cli", "geoflow.entropy", "geoflow.geodesics",
                   "geoflow.bounds", "geoflow.manifolds", "geoflow.charts",
                   "geoflow.topology")

#: layer -> (defining module, function name); wrapped wherever it is bound
FUNCTIONS = {
    "cli.main": ("geoflow.cli", "main"),
    "entropy.mane": ("geoflow.entropy", "mane_series"),
    "entropy.count": ("geoflow.entropy", "counting_series"),
    "entropy.slope": ("geoflow.entropy", "slope"),
    "geodesics.propagate": ("geoflow.geodesics", "propagate"),
    "geodesics.expansion": ("geoflow.geodesics", "expansion"),
    "charts.christoffel": ("geoflow.charts", "christoffel"),
    "topology.certify": ("geoflow.topology", "certify"),
    "topology.roots": ("geoflow.topology", "poincare_roots"),
    "topology.gromov": ("geoflow.topology", "gromov_log10_c"),
}

#: layer -> method names on every Chart subclass
CHART_METHODS = {
    "charts.metric": ("metric", "d_metric", "metric_inverse"),
    "charts.switch": ("margin", "transfer_ok", "wrap", "embed", "from_embedding",
                      "tangent_to_ambient", "tangent_from_ambient"),
}

#: layer -> method names on ManifoldModel
MODEL_METHODS = {
    "manifolds.curvature": ("curvature_frame_matrix",),
    "manifolds.frame": ("orthonormal_frame",),
    "manifolds.sampling": ("sample_sphere_bundle",),
    "manifolds.extremes": ("extremal_curvatures",),
}

#: chart switching is counted only where it is switching: under propagate
ONLY_UNDER = {"charts.switch": "geodesics.propagate"}

LAYERS = tuple(FUNCTIONS) + tuple(CHART_METHODS) + tuple(MODEL_METHODS)

#: marks a wrapper and points at the function it replaced
ORIGINAL = "__bench_original__"


def _christoffel_rows(chart, x, *args, **kwargs):
    shape = np.shape(x)
    return int(np.prod(shape[:-1])) if len(shape) > 1 else 1


#: layer -> function of the call's arguments giving the batch rows it evaluates
ROWS = {"charts.christoffel": _christoffel_rows}


def binding_sites():
    """Every (owner, attribute, layer) the tracer patches, with the original."""
    mods = [importlib.import_module(m) for m in PACKAGE_MODULES]
    sites = []
    for layer, (mod_name, attr) in FUNCTIONS.items():
        original = getattr(importlib.import_module(mod_name), attr)
        for mod in mods:
            for name, value in vars(mod).items():
                if value is original:
                    sites.append((mod, name, layer, original))
    charts = importlib.import_module("geoflow.charts")
    chart_classes = [c for c in vars(charts).values()
                     if isinstance(c, type) and issubclass(c, charts.Chart)]
    model_class = importlib.import_module("geoflow.manifolds").ManifoldModel
    for classes, table in ((chart_classes, CHART_METHODS), ([model_class], MODEL_METHODS)):
        for cls in classes:
            for layer, names in table.items():
                for name in names:
                    if callable(cls.__dict__.get(name)):
                        sites.append((cls, name, layer, cls.__dict__[name]))
    return sites


class Tracer:
    """Records spans of geoflow layers while installed."""

    def __init__(self):
        self.layer_ids = {name: i for i, name in enumerate(LAYERS)}
        self.layer = array("i")
        self.job = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.rows = dict.fromkeys(ROWS, 0)
        self.current_job = -1
        self._stack = []
        self._patched = []

    def _wrap(self, layer, fn):
        lid = self.layer_ids[layer]
        under = self.layer_ids.get(ONLY_UNDER.get(layer))
        rows = ROWS.get(layer)
        stack, layers = self._stack, self.layer
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and layers[stack[-1]] == lid:
                return fn(*args, **kwargs)
            if under is not None and not any(layers[s] == under for s in stack):
                return fn(*args, **kwargs)
            if rows is not None:
                self.rows[layer] += rows(*args, **kwargs)
            idx = len(self.start)
            self.layer.append(lid)
            self.job.append(self.current_job)
            self.parent.append(stack[-1] if stack else -1)
            self.start.append(clock())
            self.end.append(0.0)
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()

        setattr(wrapper, ORIGINAL, fn)
        return wrapper

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        try:
            for owner, name, layer, original in binding_sites():
                setattr(owner, name, self._wrap(layer, original))
                self._patched.append((owner, name, original))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self):
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)
        self._stack.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def columns(self):
        return {
            "layer": np.frombuffer(self.layer, dtype=np.int32).copy(),
            "job": np.frombuffer(self.job, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def totals(self):
        """Per layer: call count and self seconds (span time not covered by
        its child spans)."""
        col = self.columns()
        dur = col["end"] - col["start"]
        has_parent = col["parent"] >= 0
        covered = np.bincount(col["parent"][has_parent], weights=dur[has_parent],
                              minlength=len(dur))
        self_s = dur - covered
        n = len(LAYERS)
        calls = np.bincount(col["layer"], minlength=n)
        busy = np.bincount(col["layer"], weights=self_s, minlength=n)
        return {name: (int(calls[i]), float(busy[i])) for i, name in enumerate(LAYERS)}

    def write(self, path):
        """Write every span, with the layer names, as one ``.npz`` file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, layers=np.array(LAYERS), **self.columns())
