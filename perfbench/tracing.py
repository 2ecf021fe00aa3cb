"""Spans and counters around chebflag's public functions, for the traced run.

``Tracer.install`` replaces each named function in every ``chebflag.*``
namespace that holds it (the defining module, the package, and each module
that imported it by name), so internal calls are seen too: the
``poly_mul`` that ``IntPolynomial.__mul__`` reaches is ``chebflag.series``'s
global, and the ``series_div_unit`` that ``expand`` calls is
``chebflag.quotient``'s.  Spans are kept in memory, one row per call with a
parent link and the request it belongs to; a layer's self time is its span
minus the spans of its direct children.  Counters are computed from
argument and result sizes, outside the span, so they repeat exactly.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter

_ENUMERATE = "pathcomb.enumerate"


def _div_madds(args, result) -> int:
    # sum over n = 0..order of min(n, deg den)
    _, den, order = args
    d = max(den.degree, 0)
    if order <= d:
        return order * (order + 1) // 2
    return d * (d + 1) // 2 + (order - d) * d


def _bits(args, result) -> int:
    return max((abs(c).bit_length() for c in result.coeffs), default=0)


# (module, function, span name) and the counters taken after each call:
# name suffix -> ("sum" | "max", fn(args, result) -> int)
TRACED = [
    ("series", "series_div_unit", None, {
        "madds": ("sum", _div_madds),
        "out_bits_max": ("max", _bits)}),
    ("series", "poly_mul", None, {
        "madds": ("sum", lambda a, r: len(a[0].coeffs) * len(a[1].coeffs))}),
    ("series", "poly_pow", None, {}),
    ("chebpoly", "p_poly", None, {"max_r": ("max", lambda a, r: a[0])}),
    ("quotient", "make_spec", None, {}),
    ("quotient", "expand", None, {}),
    ("quotient", "multiplicity", None, {}),
    ("quotient", "classify", None, {}),
    ("quotient", "signed_coefficient", None, {}),
    ("pathcomb", "strip_walk_count", None, {}),
    ("pathcomb", "strip_walk_count_dfs", None, {}),
    ("pathcomb", "dyck_count", None, {}),
    ("pathcomb", "continuant_det", None, {}),
    ("pathcomb", "enumerate_matchings", _ENUMERATE, {}),
    ("pathcomb", "enumerate_strip_walks", _ENUMERATE, {}),
    ("pathcomb", "enumerate_dyck", _ENUMERATE, {}),
    ("families", "find_pair_decomposition", None, {
        "found": ("sum", lambda a, r: r is not None)}),
    ("families", "product_model_coeff", None, {}),
    ("families", "family_multiplicity", None, {}),
    ("verify", "run_all", None, {
        "checks": ("sum", lambda a, r: sum(s.checks for s in r))}),
    ("cli", "main", None, {"nonzero_exits": ("sum", lambda a, r: r != 0)}),
]


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.parent = array("q")
        self.name = array("H")
        self.request = array("q")
        self.t0 = array("d")
        self.t1 = array("d")
        self.stack: list[int] = []
        self.current_request = -1
        self.counters: Counter[str] = Counter()
        self.expand_len: dict[int, int] = {}  # expand span -> order + 1
        self.out_bytes = 0
        self._full_height = None

    def install(self) -> None:
        mods = [m for k, m in list(sys.modules.items())
                if k == "chebflag" or k.startswith("chebflag.")]
        for module, func, span, counters in TRACED:
            orig = getattr(sys.modules[f"chebflag.{module}"], func)
            wrapper = self._wrap(span or f"{module}.{func}", orig, counters)
            for mod in mods:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapper)
        self._full_height = sys.modules["chebflag.pathcomb"].full_height_count

    def _wrap(self, name: str, fn, counters: dict):
        idx = len(self.names)
        self.names.append(name)
        perf = time.perf_counter
        record_len = name == "quotient.expand"
        for suffix in counters:
            self.counters[f"{name}.{suffix}"] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(self.t0)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.name.append(idx)
            self.request.append(self.current_request)
            self.t1.append(0.0)
            self.stack.append(sid)
            self.t0.append(perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.t1[sid] = perf()
                self.stack.pop()
            for suffix, (how, f) in counters.items():
                key = f"{name}.{suffix}"
                value = int(f(args, result))
                if how == "sum":
                    self.counters[key] += value
                elif value > self.counters[key]:
                    self.counters[key] = value
            if record_len:
                self.expand_len[sid] = args[1] + 1
            return result

        return wrapper

    def metrics(self) -> dict[str, float]:
        """Per-layer calls, self time and counters, plus the ratios."""
        n = len(self.t0)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.t1[i] - self.t0[i]
        calls: Counter[str] = Counter()
        self_s: Counter[str] = Counter()
        for i in range(n):
            name = self.names[self.name[i]]
            calls[name] += 1
            self_s[name] += self.t1[i] - self.t0[i] - child[i]
        out: dict[str, float] = {}
        for name in dict.fromkeys(self.names):
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        out.update(self.counters)
        found = out.pop("families.find_pair_decomposition.found", 0)
        searches = calls["families.find_pair_decomposition"]
        out["families.find_pair_decomposition.found_ratio"] = (
            found / searches if searches else 0.0)
        out["quotient.multiplicity.coeff_yield"] = self._coeff_yield()
        info = self._full_height.cache_info()
        out["pathcomb.full_height_count.hits"] = info.hits
        out["pathcomb.full_height_count.misses"] = info.misses
        out["cli.out_bytes"] = self.out_bytes
        return out

    def _coeff_yield(self) -> float:
        """Coefficients returned by multiplicity calls that expanded,
        over the coefficients expanded beneath them."""
        mult = self.names.index("quotient.multiplicity")
        returned, expanded = set(), 0
        for sid, length in self.expand_len.items():
            p = self.parent[sid]
            while p >= 0 and self.name[p] != mult:
                p = self.parent[p]
            if p >= 0:
                returned.add(p)
                expanded += length
        return len(returned) / expanded if expanded else 0.0
