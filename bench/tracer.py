"""Spans around calls into the program's public functions.

The package binds functions with ``from .x import f``, so one function can be
reachable under several module namespaces.  ``Tracer`` replaces the function
object in every loaded ``vanishingcycles.*`` namespace that holds it and puts
the originals back on exit.  Spans live in memory as
``[name, start, end, parent, item, size]`` rows; ``parent`` is the index of
the enclosing span or -1, ``size`` a work count read off the arguments or the
result (``None`` where the function has none).
"""

from __future__ import annotations

import importlib
import json
import sys
import time

# module -> public functions wrapped, as named by the per-layer metrics
TRACED = {
    "verify": ("check_networkgenset",),
    "lattice": ("canonical_form", "adjoint"),
    "network": ("build_network", "dn_configuration", "intersection_graph"),
    "surface": ("inflate", "is_filling", "homology_basis", "curve_class",
                "complement_regions", "relative_filling"),
    "spin": ("canonical_spin",),
    "intlinalg": ("symplectic_gram_schmidt", "smith_normal_form",
                  "elementary_divisors"),
    "symp": ("verify_dn", "verify_chain", "sp_q_stabilizer_bruteforce",
             "quadratic_form_orbits"),
    "wedge": ("lemma_next_closure",),
}


def _matrix_dim(args, result):
    mat = args[0]
    return max(len(mat), len(mat[0]) if mat else 0)


SIZES = {
    "network.build_network": lambda args, result: len(result),
    "surface.inflate": lambda args, result: len(result.arcs),
    "surface.homology_basis": lambda args, result: len(result.chords),
    "intlinalg.smith_normal_form": _matrix_dim,
}

NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)


class Tracer:
    """Context manager that wraps the functions in ``TRACED`` while active.

    The bindings to replace are found once, so the tracer can be entered
    around each traced item; spans accumulate over all entries.
    """

    def __init__(self):
        self.spans = []
        self.item = None
        self._open = -1
        self._bindings = []  # (namespace, attribute, original, wrapper)
        for mod, fns in TRACED.items():
            home = importlib.import_module(f"vanishingcycles.{mod}")
            for fn_name in fns:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{mod}.{fn_name}", original)
                for key, m in list(sys.modules.items()):
                    if key == "vanishingcycles" or key.startswith("vanishingcycles."):
                        self._bindings += [(m, attr, original, wrapper)
                                           for attr, value in vars(m).items()
                                           if value is original]

    def _wrap(self, name, fn):
        size_of = SIZES.get(name)
        spans = self.spans

        def traced(*args, **kwargs):
            index = len(spans)
            row = [name, time.perf_counter(), None, self._open, self.item, None]
            spans.append(row)
            self._open = index
            try:
                result = fn(*args, **kwargs)
                if size_of is not None:
                    row[5] = size_of(args, result)
                return result
            finally:
                row[2] = time.perf_counter()
                self._open = row[3]

        traced.__wrapped__ = fn
        return traced

    def __enter__(self):
        for m, attr, original, wrapper in self._bindings:
            setattr(m, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for m, attr, original, wrapper in self._bindings:
            setattr(m, attr, original)
        return False

    def dump(self, path) -> None:
        """Write the spans as JSON lines: name, start, end, parent, item, size."""
        with open(path, "w") as out:
            for name, start, end, parent, item, size in self.spans:
                out.write(json.dumps({"name": name, "start": start, "end": end,
                                      "parent": parent, "item": item,
                                      "size": size}) + "\n")


# the per-layer metrics in the order BENCHMARK.json lists them; a name
# "<module>.<function>.<field>" is that field of summarize()
PER_LAYER = (
    "surface.homology_basis.calls", "surface.homology_basis.self_s",
    "surface.curve_class.calls", "surface.curve_class.total_s",
    "surface.chords", "surface.arcs",
    "surface.inflate.calls", "surface.inflate.total_s", "surface.inflate.per_verdict",
    "surface.is_filling.calls", "surface.complement_regions.total_s",
    "surface.relative_filling.total_s",
    "intlinalg.symplectic_gram_schmidt.total_s",
    "intlinalg.smith_normal_form.calls", "intlinalg.smith_normal_form.total_s",
    "intlinalg.smith_normal_form.max_dim",
    "intlinalg.elementary_divisors.total_s",
    "spin.canonical_spin.calls", "spin.canonical_spin.self_s",
    "lattice.canonical_form.calls", "lattice.canonical_form.total_s",
    "lattice.adjoint.total_s",
    "network.build_network.total_s", "network.dn_configuration.total_s",
    "network.intersection_graph.total_s", "network.curves",
    "verify.check_networkgenset.calls", "verify.check_networkgenset.self_s",
    "symp.verify_dn.total_s", "symp.verify_chain.total_s",
    "symp.sp_q_stabilizer_bruteforce.total_s", "symp.quadratic_form_orbits.total_s",
    "wedge.lemma_next_closure.total_s",
)

# size metrics: the mean over items of the largest size a function saw
ITEM_SIZES = {"surface.chords": "surface.homology_basis",
              "surface.arcs": "surface.inflate",
              "network.curves": "network.build_network"}


def summarize(spans, verdict_items) -> dict:
    """Per-function figures from span rows: ``calls``; ``total_s``, over the
    outermost spans of the name only, so a function that reaches itself
    through another traced call is not counted twice; ``self_s``, spans
    minus their traced children; ``max_dim``, the largest size; ``item_size``,
    the mean over items of the largest size; ``per_verdict``, calls inside
    the classified items ``verdict_items`` per such item."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, item, size in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "max_dim": 0,
                  "sizes": {}, "verdict_calls": 0} for name in NAMES}
    for i, (name, start, end, parent, item, size) in enumerate(spans):
        rec = out[name]
        rec["calls"] += 1
        rec["self_s"] += end - start - child_time[i]
        if not _has_ancestor(spans, parent, name):
            rec["total_s"] += end - start
        if item in verdict_items:
            rec["verdict_calls"] += 1
        if size is not None:
            rec["max_dim"] = max(rec["max_dim"], size)
            rec["sizes"][item] = max(rec["sizes"].get(item, 0), size)
    for rec in out.values():
        sizes = rec.pop("sizes")
        rec["item_size"] = sum(sizes.values()) / len(sizes) if sizes else 0
        rec["per_verdict"] = (rec.pop("verdict_calls") / len(verdict_items)
                              if verdict_items else 0)
    return out


def _has_ancestor(spans, parent, name) -> bool:
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def per_layer_metrics(spans, verdict_items, exceptions, overhead_pct) -> dict:
    """The per-layer metrics named in BENCHMARK.json, with their units.

    Exceptions are counted by type: ``NoUnimodularNormalization``, the one
    the census raises, by name, every other type under ``other``.
    """
    s = summarize(spans, verdict_items)
    values = {}
    for name in PER_LAYER:
        if name in ITEM_SIZES:
            value = s[ITEM_SIZES[name]]["item_size"]
        else:
            function, field = name.rsplit(".", 1)
            value = s[function][field]
        values[name] = (value, "s" if name.endswith("_s") else "count")
    known = exceptions.get("NoUnimodularNormalization", 0)
    values.update({
        "verify.exceptions.NoUnimodularNormalization": (known, "count"),
        "verify.exceptions.other": (sum(exceptions.values()) - known, "count"),
        "trace.overhead_pct": (overhead_pct, "%"),
    })
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
