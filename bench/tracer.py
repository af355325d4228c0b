"""Spans around bicov's public layer functions, installed from outside.

The tracer replaces a function at every bicov module attribute that holds it
(``bicov.field.max_rho_stable`` is the same object as
``bicov.validity.max_rho_stable``), so callers inside the package reach the
wrapper exactly as they reached the original.  LAPACK entry points are
wrapped where ``field`` reaches them: ``bicov.field.cho_factor``,
``bicov.field.cho_solve`` and ``numpy.linalg.cholesky``, the last recorded
only while a field span is open so the benchmark's own factorisations never
count.

Spans live in memory as [name, start_ns, end_ns, parent, op] lists and are
written out once, when the run ends.
"""

from __future__ import annotations

import functools
import json
import time

import numpy as np

_MODULES = ("bicov", "bicov.corrfn", "bicov.bimodels", "bicov.validity",
            "bicov.spectral", "bicov.field", "bicov.cli")

# (module that defines it, attribute, span name or namer)
_TARGETS = (
    ("bicov.corrfn", "evaluate", "corrfn.evaluate"),
    ("bicov.corrfn", "derivative", "corrfn.derivative"),
    ("bicov.bimodels", "model_from_text", "bimodels.model_from_text"),
    ("bicov.validity", "max_rho_stable", "validity.max_rho"),
    ("bicov.validity", "max_rho_cauchy", "validity.max_rho"),
    ("bicov.validity", "generic_sufficient_check", "validity.generic"),
    ("bicov.validity", "spherical_triviality", "validity.spherical_triviality"),
    ("bicov.spectral", "cross_spectral_profile", "spectral.profile"),
    ("bicov.field", "gram", "field.gram"),
    ("bicov.field", "simulate", "field.simulate"),
    ("bicov.field", "nll", "field.nll"),
    ("bicov.field", "fit_ml", "field.fit_ml"),
    ("bicov.field", "cokrige", "field.cokrige"),
    ("bicov.field", "loo_rmse", "field.loo_rmse"),
    ("bicov.field", "cho_factor", "field.linalg.cho_factor"),
    ("bicov.field", "cho_solve", "field.linalg.cho_solve"),
    ("bicov.cli", "main", "cli.main"),
)

LAYERS = ("corrfn", "bimodels", "validity", "spectral", "field", "field.linalg", "cli")


def layer_of(name: str) -> str:
    return "field.linalg" if name.startswith("field.linalg.") else name.split(".")[0]


def _max_rho_name(args, kwargs):
    # the fit loop asks for refine_brackets=0 (coarse); every other caller
    # takes the default eight brackets (fine)
    coarse = kwargs.get("refine_brackets", args[3] if len(args) > 3 else 8) == 0
    return "validity.max_rho_coarse" if coarse else "validity.max_rho_fine"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op: int | None = None
        self.enabled = False
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn, name, only_inside=None):
        namer = _max_rho_name if name == "validity.max_rho" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled or (only_inside is not None and not (
                    self.stack and self.spans[self.stack[-1]][0].startswith(only_inside))):
                return fn(*args, **kwargs)
            idx = len(self.spans)
            parent = self.stack[-1] if self.stack else -1
            span = [namer(args, kwargs) if namer else name, time.perf_counter_ns(),
                    0, parent, self.op]
            self.spans.append(span)
            self.stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                self.stack.pop()
                span[2] = time.perf_counter_ns()
        return wrapper

    def install(self):
        import importlib
        modules = [importlib.import_module(m) for m in _MODULES]
        for home, attr, name in _TARGETS:
            original = getattr(importlib.import_module(home), attr)
            wrapper = self._wrap(original, name)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
        original = np.linalg.cholesky
        self._patched.append((np.linalg, "cholesky", original))
        np.linalg.cholesky = self._wrap(original, "field.linalg.cholesky",
                                        only_inside="field.")
        self.enabled = True

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()
        self.enabled = False

    def write(self, path: str, extra: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "op"],
                       "spans": self.spans, **extra}, fh)


# ---------------------------------------------------------------------------
# Aggregation.

def self_times(spans) -> list[int]:
    """Per-span duration minus the time its direct children cover."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def ancestors_named(spans, idx, name) -> bool:
    p = spans[idx][3]
    while p >= 0:
        if spans[p][0] == name:
            return True
        p = spans[p][3]
    return False


def summarize(spans, rounds: int, fit_evals: int, op_labels: dict,
              import_s: float, import_scipy_stats_s: float) -> tuple[dict, dict]:
    """(per-layer metrics per round, self seconds per layer per round)."""
    calls: dict[str, int] = {}
    total_ns: dict[str, int] = {}
    for s in spans:
        calls[s[0]] = calls.get(s[0], 0) + 1
        total_ns[s[0]] = total_ns.get(s[0], 0) + s[2] - s[1]
    selfs = self_times(spans)
    layer_self = {layer: 0 for layer in LAYERS}
    for s, st in zip(spans, selfs):
        layer_self[layer_of(s[0])] += st
    cli_main_self = sum(st for s, st in zip(spans, selfs) if s[0] == "cli.main")

    krige_ops = {op for op, label in op_labels.items() if label == "cli.krige"}
    gram_in_krige = sum(1 for s in spans if s[0] == "field.gram" and s[4] in krige_ops)
    loo_calls = calls.get("field.loo_rmse", 0)
    factor_in_loo = sum(1 for i, s in enumerate(spans)
                        if s[0] == "field.linalg.cho_factor"
                        and ancestors_named(spans, i, "field.loo_rmse"))
    fit_ns = total_ns.get("field.fit_ml", 0)

    r = max(rounds, 1)
    c = lambda name: calls.get(name, 0) / r
    sec = lambda name: total_ns.get(name, 0) / 1e9 / r
    metrics = {
        "validity.max_rho_fine.calls": (c("validity.max_rho_fine"), "count"),
        "validity.max_rho_fine.ms": (1e3 * sec("validity.max_rho_fine"), "ms"),
        "validity.max_rho_coarse.calls": (c("validity.max_rho_coarse"), "count"),
        "validity.max_rho_coarse.s": (sec("validity.max_rho_coarse"), "s"),
        "validity.generic.ms": (1e3 * sec("validity.generic"), "ms"),
        "validity.spherical_triviality.ms": (1e3 * sec("validity.spherical_triviality"), "ms"),
        "spectral.profile.calls": (c("spectral.profile"), "count"),
        "spectral.profile.ms": (1e3 * sec("spectral.profile"), "ms"),
        "corrfn.derivative.calls": (c("corrfn.derivative"), "count"),
        "corrfn.derivative.s": (sec("corrfn.derivative"), "s"),
        "corrfn.evaluate.calls": (c("corrfn.evaluate"), "count"),
        "corrfn.evaluate.s": (sec("corrfn.evaluate"), "s"),
        "bimodels.model_from_text.calls": (c("bimodels.model_from_text"), "count"),
        "bimodels.model_from_text.ms": (1e3 * sec("bimodels.model_from_text"), "ms"),
        "field.gram.calls": (c("field.gram"), "count"),
        "field.gram.s": (sec("field.gram"), "s"),
        "field.gram.per_krige_cmd": (gram_in_krige / len(krige_ops) if krige_ops else 0, "count"),
        "field.fit_ml.evals": (fit_evals / r, "count"),
        "field.fit_ml.ms_per_eval": (fit_ns / 1e6 / fit_evals if fit_evals else 0.0, "ms"),
        "field.linalg.cho_factor.calls": (c("field.linalg.cho_factor"), "count"),
        "field.linalg.cho_factor.s": (sec("field.linalg.cho_factor"), "s"),
        "field.linalg.cho_solve.s": (sec("field.linalg.cho_solve"), "s"),
        "field.linalg.cho_factor.per_loo": (factor_in_loo / loo_calls if loo_calls else 0, "count"),
        "field.linalg.cholesky.s": (sec("field.linalg.cholesky"), "s"),
        "field.self.s": (layer_self["field"] / 1e9 / r, "s"),
        "cli.import.s": (import_s, "s"),
        "cli.import.scipy_stats.s": (import_scipy_stats_s, "s"),
        "cli.main.self.ms": (cli_main_self / 1e6 / calls["cli.main"] if calls.get("cli.main") else 0.0, "ms"),
    }
    return metrics, {layer: ns / 1e9 / r for layer, ns in layer_self.items()}


def calls_by_op(spans, op_labels: dict) -> dict:
    """Span counts under each operation label, summed over rounds."""
    out: dict[str, dict[str, int]] = {}
    for s in spans:
        per = out.setdefault(op_labels.get(s[4], "?"), {})
        per[s[0]] = per.get(s[0], 0) + 1
    return out
