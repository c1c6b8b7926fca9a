"""Span tracing from outside the package.

`install` replaces each traced function of `mahonian` with a wrapper,
everywhere the function is bound: in its own module and in every module
that imported it by name (for example `cli` and `oracle` both bind
`i_colored_row` and `gf_colored`). A wrapper records a span (id, name,
parent, start, end) and folds its duration into per-layer totals:

- `s`: time inside the layer, counting only entries from outside it, so
  nested calls within one layer are not counted twice;
- `calls`: entries from outside the layer;
- `self_s`: time inside the layer minus the time of the traced calls it
  makes.

Functions called once per group element (`lehmer`, `stats`) update the
totals but keep no span record, which would hold millions of spans.
Arithmetic helpers (`binomial`, `com_bounded`, `max_inv_c`, `q_integer`,
`group_size`) are not wrapped: a wrapper costs more than their bodies,
and their time stays with the caller.
"""

from __future__ import annotations

import math
import sys
from collections import defaultdict
from time import perf_counter_ns

ENGINES = (
    "gen_func", "recurrence", "summation", "knuth_netto",
    "partition_conv", "composition_split", "lattice_path",
)


class Tracer:
    """Spans and per-layer totals of one traced run."""

    def __init__(self, cover: tuple[str, ...] = ()):
        self.spans: list[tuple[int, str, int, int, int]] = []
        self.ns = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self._depth = defaultdict(int)
        self._stack: list[list[int]] = []  # [child ns, span id] per open call
        self._next_id = 1
        # layers whose union of span time is reported against wall time
        self.cover = cover
        self._cover_depth = 0
        self.cover_ns = 0
        # (layer, args) of every keyed call of the current query; run.py
        # collects one set per query for its sharing report
        self.keys: set | None = None

    def wrap(self, fn, layer, record=True, keyed=False, on_return=None):
        """Wrapper timing `fn` under `layer`, a name or a function of the
        call's arguments that returns one."""
        depth, stack = self._depth, self._stack
        ns, self_ns, calls = self.ns, self.self_ns, self.calls

        def traced(*args, **kwargs):
            name = layer(*args, **kwargs) if callable(layer) else layer
            outer = depth[name] == 0
            depth[name] += 1
            covered = name.startswith(self.cover)
            if covered:
                self._cover_depth += 1
            parent = stack[-1][1] if stack else 0
            span_id = parent
            if record:
                span_id = self._next_id
                self._next_id += 1
            frame = [0, span_id]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                took = end - start
                depth[name] -= 1
                if outer:
                    ns[name] += took
                    calls[name] += 1
                self_ns[name] += took - frame[0]
                if stack:
                    stack[-1][0] += took
                if covered:
                    self._cover_depth -= 1
                    if self._cover_depth == 0:
                        self.cover_ns += took
                if record:
                    self.spans.append((span_id, name, parent, start, end))
            if keyed and self.keys is not None:
                self.keys.add((name, args))
            if on_return is not None:
                on_return(self.counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def counter(self, fn, key):
        """Wrapper that only counts calls: for per-object constructors."""
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted


def _rebind(modules, owner, attr, wrapped):
    original = getattr(owner, attr)
    setattr(owner, attr, wrapped)
    for module in modules:
        for name, value in list(vars(module).items()):
            if value is original:
                setattr(module, name, wrapped)


def _row_layer(n, c, method="gen_func"):
    return "counting.row." + getattr(method, "value", method)


def _scan_elements(counts, args, result):
    counts["oracle.scan_group.elements"] += result.size


def _distribution_elements(counts, args, result):
    counts["oracle.distribution.elements"] += result.c**result.n * math.factorial(result.n)


def _coeff_products(counts, args, result):
    a, b = args
    counts["qpoly.mul.coeff_products"] += len(a.coefficients) * len(b.coefficients)


def install(tracer: Tracer) -> None:
    """Wrap the traced functions of every imported `mahonian` module."""
    from mahonian import cli, counting, lehmer, oracle, perm, qpoly, special, stats, tables

    modules = [
        module
        for name, module in sys.modules.items()
        if name == "mahonian" or name.startswith("mahonian.")
    ]

    def wrap(owner, attr, layer, **kw):
        _rebind(modules, owner, attr, tracer.wrap(getattr(owner, attr), layer, **kw))

    wrap(cli, "main", "cli.main")
    wrap(oracle, "verify_suite", "oracle.verify_suite")
    wrap(oracle, "scan_group", "oracle.scan_group", on_return=_scan_elements)
    wrap(oracle, "code_sum_histogram", "oracle.code_sum_histogram")
    wrap(oracle, "distribution", "oracle.distribution", on_return=_distribution_elements)
    for attr in (
        "encode", "decode", "complement", "split_color", "join_color",
        "split_radix", "code_to_colored_perm", "perm_to_code",
    ):
        wrap(lehmer, attr, "lehmer", record=False)
    for attr in ("inv", "maj", "col", "cross_term", "inv_c", "tilde_inv_c", "statistic_value"):
        wrap(stats, attr, "stats", record=False)
    wrap(counting, "i_colored_row", _row_layer, keyed=True)
    wrap(counting, "gf_colored", "counting.gf_colored", keyed=True)
    qpoly.QPolynomial.__mul__ = tracer.wrap(
        qpoly.QPolynomial.__mul__, "qpoly.mul", on_return=_coeff_products
    )
    perm.ColoredPermutation.__init__ = tracer.counter(
        perm.ColoredPermutation.__init__, "perm.objects"
    )
    for attr in ("t_colored", "t_colored_terms"):
        wrap(special, attr, "special.t_colored", keyed=True)
    for attr in (
        "derangement_count", "derangement_count_recurrence", "t_classical",
        "involution_count", "involution_count_recurrence",
        "involution_inv_total", "involution_inv_total_classical",
    ):
        wrap(special, attr, "special.other", keyed=True)
    for attr in ("table1_sets", "table2", "table3", "table4", "table3_alignment"):
        wrap(tables, attr, "tables")


def layer_metrics(tracer: Tracer, stdout_bytes: int) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, by name, as (value, unit)."""
    s = lambda name: tracer.ns[name] / 1e9  # noqa: E731
    scan_elements = tracer.counts["oracle.scan_group.elements"]
    out = {
        "oracle.scan_group.s": (s("oracle.scan_group"), "s"),
        "oracle.scan_group.calls": (tracer.calls["oracle.scan_group"], "count"),
        "oracle.scan_group.elements": (scan_elements, "count"),
        "oracle.scan_group.ns_per_element": (
            tracer.ns["oracle.scan_group"] / max(scan_elements, 1), "ns"
        ),
        "oracle.code_sum_histogram.s": (s("oracle.code_sum_histogram"), "s"),
        "oracle.verify_suite.self_s": (tracer.self_ns["oracle.verify_suite"] / 1e9, "s"),
        "lehmer.s": (s("lehmer"), "s"),
        "lehmer.calls": (tracer.calls["lehmer"], "count"),
        "oracle.distribution.s": (s("oracle.distribution"), "s"),
        "oracle.distribution.calls": (tracer.calls["oracle.distribution"], "count"),
        "oracle.distribution.elements": (tracer.counts["oracle.distribution.elements"], "count"),
        "perm.objects": (tracer.counts["perm.objects"], "count"),
        "stats.calls": (tracer.calls["stats"], "count"),
        "stats.s": (s("stats"), "s"),
    }
    for engine in ENGINES:
        out[f"counting.row.{engine}.s"] = (s(f"counting.row.{engine}"), "s")
    out.update({
        "counting.gf_colored.s": (s("counting.gf_colored"), "s"),
        "counting.gf_colored.calls": (tracer.calls["counting.gf_colored"], "count"),
        "qpoly.mul.s": (s("qpoly.mul"), "s"),
        "qpoly.mul.calls": (tracer.calls["qpoly.mul"], "count"),
        "qpoly.mul.coeff_products": (tracer.counts["qpoly.mul.coeff_products"], "count"),
        "special.t_colored.s": (s("special.t_colored"), "s"),
        "special.t_colored.calls": (tracer.calls["special.t_colored"], "count"),
        "special.other.s": (s("special.other"), "s"),
        "cli.main.self_s": (tracer.self_ns["cli.main"] / 1e9, "s"),
        "cli.main.calls": (tracer.calls["cli.main"], "count"),
        "cli.stdout_bytes": (stdout_bytes, "bytes"),
        "tables.s": (s("tables"), "s"),
    })
    return out

