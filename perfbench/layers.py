"""Per-layer tracing from outside the library.

Every public function of a polyfourier module is wrapped at each binding its
callers look up (``polyfourier.series_limit.legendre_p`` as well as
``polyfourier.legendre.legendre_p``; methods on their class).  Each call
records one span (name, start, end, parent) in flat in-memory arrays, and
some calls feed a counter or a distinct-argument set.  The spans are written
out when the traced pass ends; self time is a span's duration minus the time
covered by its direct children.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

# (module, attribute, span group).  A group's first dotted part is its layer.
# Private helpers are listed only where they are the binding another layer
# calls (_kernel_samples carries the quadrature node count).
TARGETS = (
    ("scalars", "harmonic", "scalars"),
    ("scalars", "digamma_diff", "scalars"),
    ("scalars", "pochhammer", "scalars"),
    ("scalars", "beta_pd", "scalars"),
    ("scalars", "eta_from_chi", "scalars"),
    ("scalars", "neumann", "scalars"),
    ("legendre", "legendre_p", "legendre.p"),
    ("legendre", "legendre_p_exact", "legendre.p_exact"),
    ("legendre", "legendre_deg_deriv", "legendre.deg_deriv"),
    ("legendre", "neg_order_sum", "legendre.neg_order_sum"),
    ("logpoly", "logpoly_recurrence", "logpoly.recurrence"),
    ("logpoly", "logpoly_eval", "logpoly.eval"),
    ("logpoly", "LogPolynomial.eval_exact", "logpoly.eval_exact"),
    ("series_algebraic", "r_frak", "series_algebraic.r_frak"),
    ("series_algebraic", "re_frak", "series_algebraic.re_frak"),
    ("series_algebraic", "p_frak", "series_algebraic.p_frak"),
    ("series_algebraic", "q_frak", "series_algebraic.q_frak"),
    ("series_algebraic", "log_series_algebraic", "series_algebraic.tables"),
    ("series_limit", "power_coefficient", "series_limit.power_coefficient"),
    ("series_limit", "power_series", "series_limit.power"),
    ("series_limit", "inverse_power_series", "series_limit.inverse"),
    ("series_limit", "log_tail_coefficient", "series_limit.log_tail"),
    ("series_limit", "log_series_limit", "series_limit.tables"),
    ("tables", "FourierCoeffTable.reconstruct", "tables.reconstruct"),
    ("tables", "default_nmax", "tables.default_nmax"),
    ("greens", "li_expansion", "greens.li_expansion"),
    ("greens", "hii_expansion", "greens.hii_expansion"),
    ("greens", "li_direct", "greens.li_direct"),
    ("greens", "greens_eval", "greens.greens_eval"),
    ("greens", "axisym_component", "greens.axisym"),
    ("validation", "verify_identity_n0", "validation.identity"),
    ("validation", "verify_identity_mid", "validation.identity"),
    ("validation", "verify_identity_np", "validation.identity"),
    ("validation", "verify_identity_tail", "validation.identity"),
    ("validation", "verify_re_closed_form", "validation.identity"),
    ("validation", "compare_log_routes", "validation.cross_route"),
    ("validation", "oracle_reports", "validation.oracle"),
    ("validation", "quad_fourier_coeff", "validation.oracle"),
    ("validation", "kernel_scale", "validation.oracle"),
    ("validation", "_kernel_samples", "validation.oracle"),
    ("validation", "verify_axisym_dual", "validation.axisym_dual"),
    ("validation", "run_validation_suite", "validation.suite"),
    ("cli", "main", "cli"),
)

# (name, unit, better) of every per-layer metric, in report order.
METRICS = (
    ("logpoly.eval.calls", "count", "lower"),
    ("logpoly.eval.distinct", "count", "lower"),
    ("logpoly.eval.self_s", "s", "lower"),
    ("series_algebraic.tables", "count", "lower"),
    ("series_algebraic.r_frak.calls", "count", "lower"),
    ("series_algebraic.self_s", "s", "lower"),
    ("series_limit.tables", "count", "lower"),
    ("series_limit.inverse.tables", "count", "lower"),
    ("series_limit.coeffs", "count", "lower"),
    ("series_limit.self_s", "s", "lower"),
    ("legendre.p.calls", "count", "lower"),
    ("legendre.p.self_s", "s", "lower"),
    ("greens.li_expansion.calls", "count", "lower"),
    ("greens.hii_expansion.calls", "count", "lower"),
    ("greens.self_s", "s", "lower"),
    ("legendre.p_exact.calls", "count", "lower"),
    ("legendre.p_exact.distinct", "count", "lower"),
    ("legendre.p_exact.self_s", "s", "lower"),
    ("logpoly.eval_exact.calls", "count", "lower"),
    ("logpoly.eval_exact.distinct", "count", "lower"),
    ("logpoly.eval_exact.self_s", "s", "lower"),
    ("validation.identity.checks", "count", "lower"),
    ("validation.identity.self_s", "s", "lower"),
    ("validation.oracle.self_s", "s", "lower"),
    ("validation.quad.nodes", "count", "lower"),
    ("validation.cross_route.self_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.bytes_out", "B", "lower"),
    ("tables.reconstruct.calls", "count", "lower"),
    ("tables.reconstruct.points", "count", "lower"),
    ("tables.reconstruct.cos_evals", "count", "lower"),
    ("tables.reconstruct.bytes_computed", "B", "lower"),
    ("tables.reconstruct.self_s", "s", "lower"),
    ("tables.terms_per_table", "count", "lower"),
    ("tables.default_nmax.self_s", "s", "lower"),
    ("scalars.calls", "count", "lower"),
    ("scalars.self_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.untraced_s", "s", "lower"),
    ("trace.traced_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


class Tracer:
    """Span recorder.  Create one, `install()` it, run the traced pass,
    then `uninstall()` and read `metrics()`.  `paused()` lets the benchmark
    run its own correctness checks without recording them."""

    def __init__(self):
        self.groups: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: Counter = Counter()
        self.distinct: defaultdict = defaultdict(set)
        self.table_terms: list[int] = []
        self.enabled = True
        self._swaps: list[tuple[object, str, object, object]] | None = None

    # -- recording -------------------------------------------------------

    def _hook(self, group: str, attr: str):
        """Counter/distinct bookkeeping for one call, run after its span ends."""
        counts, distinct = self.counts, self.distinct
        if group in ("logpoly.eval", "logpoly.eval_exact"):
            # (polynomial, x): R_p^k is identified by (p, k)
            return lambda res, a, kw: distinct[group].add((a[0].p, a[0].k, a[1]))
        if group == "legendre.p_exact":
            return lambda res, a, kw: distinct[group].add(a[:3])
        if group in ("series_limit.power", "series_limit.inverse", "series_limit.tables"):
            def coeffs(res, a, kw):
                counts["series_limit.coeffs"] += len(res.coeffs)
            return coeffs
        if group == "tables.reconstruct":
            def recon(res, a, kw):
                m = int(np.asarray(a[1]).size)
                n = len(a[0].coeffs)
                counts["tables.reconstruct.points"] += m
                counts["tables.reconstruct.cos_evals"] += m * n
            return recon
        if group in ("greens.li_expansion", "greens.hii_expansion"):
            return lambda res, a, kw: self.table_terms.append(len(res.coeffs))
        if attr == "_kernel_samples":
            def nodes(res, a, kw):
                counts["validation.quad.nodes"] += a[3]
            return nodes
        return None

    def _wrap(self, fn, group: str, attr: str):
        gid = len(self.groups)
        self.groups.append(group)
        hook = self._hook(group, attr)
        name, parent, start, end, stack = self.name, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter

        def traced(*a, **kw):
            if not self.enabled:
                return fn(*a, **kw)
            i = len(start)
            name.append(gid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                res = fn(*a, **kw)
            finally:
                end[i] = clock()
                stack.pop()
            if hook is not None:
                hook(res, a, kw)
            return res

        traced.__wrapped__ = fn
        return traced

    # -- installation ----------------------------------------------------

    def _bindings(self):
        """(owner, key, original, wrapper) for every polyfourier binding of
        each target; built once, so install/uninstall only swap attributes."""
        if self._swaps is not None:
            return self._swaps
        homes = {m: importlib.import_module(f"polyfourier.{m}") for m, _, _ in TARGETS}
        modules = [m for n, m in list(sys.modules.items())
                   if n == "polyfourier" or n.startswith("polyfourier.")]
        swaps = []
        for mod_name, attr, group in TARGETS:
            home = homes[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                fn = cls.__dict__[meth]
                swaps.append((cls, meth, fn, self._wrap(fn, group, meth)))
                continue
            fn = getattr(home, attr)
            wrapper = self._wrap(fn, group, attr)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        swaps.append((mod, key, fn, wrapper))
        self._swaps = swaps
        return swaps

    def install(self):
        """Replace every polyfourier binding of each target with its wrapper."""
        for owner, key, _, wrapper in self._bindings():
            setattr(owner, key, wrapper)

    def uninstall(self):
        for owner, key, original, _ in self._bindings():
            setattr(owner, key, original)

    @contextmanager
    def paused(self):
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    # -- results ---------------------------------------------------------

    def span_arrays(self):
        return (
            np.frombuffer(self.name, dtype=np.int32),
            np.frombuffer(self.parent, dtype=np.int32),
            np.frombuffer(self.start, dtype=np.float64),
            np.frombuffer(self.end, dtype=np.float64),
        )

    def write_spans(self, path):
        """Write the spans as one .npz: group names, name id, parent, start, end."""
        name, parent, start, end = self.span_arrays()
        np.savez(path, groups=np.array(self.groups), name=name, parent=parent,
                 start=start, end=end)

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the recorded spans (trace.* timings excluded)."""
        name, parent, start, end = self.span_arrays()
        self_s = self_times(parent, start, end)
        gids = np.arange(len(self.groups))
        calls = np.bincount(name, minlength=len(gids))
        self_by_gid = np.bincount(name, weights=self_s, minlength=len(gids))
        by_group_calls: Counter = Counter()
        by_group_self: defaultdict = defaultdict(float)
        by_layer_self: defaultdict = defaultdict(float)
        for gid, group in enumerate(self.groups):
            by_group_calls[group] += int(calls[gid])
            by_group_self[group] += float(self_by_gid[gid])
            by_layer_self[group.split(".")[0]] += float(self_by_gid[gid])
        c = self.counts
        terms = self.table_terms
        out = {
            "logpoly.eval.calls": by_group_calls["logpoly.eval"],
            "logpoly.eval.distinct": len(self.distinct["logpoly.eval"]),
            "logpoly.eval.self_s": by_group_self["logpoly.eval"],
            "series_algebraic.tables": by_group_calls["series_algebraic.tables"],
            "series_algebraic.r_frak.calls": by_group_calls["series_algebraic.r_frak"],
            "series_algebraic.self_s": by_layer_self["series_algebraic"],
            "series_limit.tables": by_group_calls["series_limit.tables"],
            "series_limit.inverse.tables": by_group_calls["series_limit.inverse"],
            "series_limit.coeffs": c["series_limit.coeffs"],
            "series_limit.self_s": by_layer_self["series_limit"],
            "legendre.p.calls": by_group_calls["legendre.p"],
            "legendre.p.self_s": by_group_self["legendre.p"],
            "greens.li_expansion.calls": by_group_calls["greens.li_expansion"],
            "greens.hii_expansion.calls": by_group_calls["greens.hii_expansion"],
            "greens.self_s": by_layer_self["greens"],
            "legendre.p_exact.calls": by_group_calls["legendre.p_exact"],
            "legendre.p_exact.distinct": len(self.distinct["legendre.p_exact"]),
            "legendre.p_exact.self_s": by_group_self["legendre.p_exact"],
            "logpoly.eval_exact.calls": by_group_calls["logpoly.eval_exact"],
            "logpoly.eval_exact.distinct": len(self.distinct["logpoly.eval_exact"]),
            "logpoly.eval_exact.self_s": by_group_self["logpoly.eval_exact"],
            "validation.identity.checks": by_group_calls["validation.identity"],
            "validation.identity.self_s": by_group_self["validation.identity"],
            "validation.oracle.self_s": by_group_self["validation.oracle"],
            "validation.quad.nodes": c["validation.quad.nodes"],
            "validation.cross_route.self_s": by_group_self["validation.cross_route"],
            "cli.self_s": by_layer_self["cli"],
            "cli.bytes_out": c["cli.bytes_out"],
            "tables.reconstruct.calls": by_group_calls["tables.reconstruct"],
            "tables.reconstruct.points": c["tables.reconstruct.points"],
            "tables.reconstruct.cos_evals": c["tables.reconstruct.cos_evals"],
            # one float64 M x N cosine matrix per call, computed from the sizes
            "tables.reconstruct.bytes_computed": 8 * c["tables.reconstruct.cos_evals"],
            "tables.reconstruct.self_s": by_group_self["tables.reconstruct"],
            "tables.terms_per_table": sum(terms) / len(terms) if terms else 0.0,
            "tables.default_nmax.self_s": by_group_self["tables.default_nmax"],
            "scalars.calls": by_group_calls["scalars"],
            "scalars.self_s": by_layer_self["scalars"],
            "trace.spans": len(name),
        }
        return out


def self_times(parent, start, end):
    """Self time of each span: its duration minus its direct children's.

    Spans are recorded in call order, so a child's index is always greater
    than its parent's; parent -1 marks a root.
    """
    dur = np.asarray(end) - np.asarray(start)
    parent = np.asarray(parent)
    child = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    return dur - child
