"""Per-layer tracing of dhankel from outside the library.

``Tracer.install`` replaces every public function (and every public method
of a public class) of every loaded ``dhankel`` module with a timing wrapper,
at every name it is bound to: ``titchmarsh`` imports ``forward`` and friends
with ``from .transform import ...``, so patching only ``transform.forward``
would miss those calls.  Library code stays untouched; ``uninstall`` puts the
originals back.

Spans (id, parent id, op index, name, start, end) are kept in memory and
written out when the run ends.  A span's self time is its duration minus the
time its child spans cover; the wrapper's own bookkeeping is counted as child
time, so it lands in no layer's self time.  A few wrappers also record counts
computed from argument and result array sizes (kernel entries, grid nodes,
matrix bytes).
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

LAYERS = ("specfun", "quadrature", "transform", "modulus", "titchmarsh", "cli")


def _ours(obj) -> bool:
    mod = getattr(obj, "__module__", None) or ""
    return mod == "dhankel" or mod.startswith("dhankel.")


def _public_callables(namespace):
    """(owner, attribute, function) for the public functions a namespace binds,
    and the public methods of the public classes it defines."""
    for attr, obj in list(vars(namespace).items()):
        if attr.startswith("_") or not _ours(obj):
            continue
        if inspect.isfunction(obj):
            yield namespace, attr, obj
        elif inspect.isclass(obj) and obj.__module__ == getattr(namespace, "__name__", None):
            for mattr, meth in list(vars(obj).items()):
                if not mattr.startswith("_") and inspect.isfunction(meth):
                    yield obj, mattr, meth


def _dhankel_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "dhankel" or n.startswith("dhankel."))]


class _Frame:
    __slots__ = ("sid", "child_s", "kids")

    def __init__(self, sid: int):
        self.sid = sid
        self.child_s = 0.0
        self.kids = set()


# Count hooks: (counts, bound arguments, result, self seconds, frame).
def _kernel_B(c, a, result, self_s, frame):
    c["specfun.kernel_B.entries"] += np.size(a["u"])


def _bessel(c, a, result, self_s, frame):
    x = np.abs(np.asarray(a["x"], dtype=float))
    c["specfun.bessel_j_normalized.entries"] += x.size
    c["specfun.bessel_j_normalized.series_entries"] += np.count_nonzero(
        x <= a.get("asymptotic_switch", 9.0))
    order = "integer_order" if float(a["nu"]).is_integer() else "fractional_order"
    c[f"specfun.bessel_j_normalized.self_s.{order}"] += self_s


def _kernel_matrix(c, a, result, self_s, frame):
    c["transform.kernel_matrix.bytes_read"] += result.nbytes
    c["transform.kernel_matrix.entries_read"] += result.size
    if "specfun" in frame.kids:
        c["transform.kernel_matrix.builds"] += 1
        c["transform.kernel_matrix.bytes_built"] += result.nbytes


def _forward(c, a, result, self_s, frame):
    c["transform.forward.bytes_read"] += 8 * a["xgrid"].nodes.size * a["lgrid"].nodes.size


def _diff_norm(c, a, result, self_s, frame):
    c[f"transform.diff_norm.calls.{a.get('route', 'physical')}"] += 1


def _grid(c, a, result, self_s, frame):
    c["quadrature.grid_build.nodes"] += result.nodes.size


HOOKS = {
    "specfun.kernel_B": _kernel_B,
    "specfun.bessel_j_normalized": _bessel,
    "transform.kernel_matrix": _kernel_matrix,
    "transform.forward": _forward,
    "transform.diff_norm": _diff_norm,
    "quadrature.build_weighted_grid": _grid,
    "quadrature.build_graded_grid": _grid,
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])   # name -> calls, total_s, self_s
        self.counts = defaultdict(float)
        self.op_index = -1
        self._stack: list[_Frame] = []
        self._ids = itertools.count()
        self._wrappers: dict[int, tuple] = {}
        self._patches: list[tuple] = []

    # ------------------------------------------------------------ spans
    def _wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        sig = inspect.signature(fn) if hook else None
        layer = name.split(".", 1)[0]
        stack, spans, stat, counts = self._stack, self.spans, self.stats[name], self.counts
        ids, clock, tracer = self._ids, time.perf_counter, self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            enter = clock()
            parent = stack[-1] if stack else None
            frame = _Frame(next(ids))
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self_s = end - start - frame.child_s
                stat[0] += 1
                stat[1] += end - start
                stat[2] += self_s
                spans.append((frame.sid, parent.sid if parent else -1,
                              tracer.op_index, name, start, end))
            if hook is not None:
                hook(counts, sig.bind(*args, **kwargs).arguments, result, self_s, frame)
            if parent is not None:
                parent.kids.add(layer)
                parent.child_s += clock() - enter
            return result

        traced.__bench_traced__ = True
        return traced

    def op(self, index: int, fn, *args):
        """Run one benchmark op as a root span named "op"."""
        self.op_index = index
        return self._wrap("op", fn)(*args)

    # ------------------------------------------------------------ patching
    def install(self) -> None:
        for module in _dhankel_modules():
            for owner, attr, fn in _public_callables(module):
                if getattr(fn, "__bench_traced__", False):
                    continue
                if id(fn) not in self._wrappers:
                    name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"
                    self._wrappers[id(fn)] = (fn, self._wrap(name, fn))
                self._patches.append((owner, attr, fn))
                setattr(owner, attr, self._wrappers[id(fn)][1])

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()

    @staticmethod
    def uncovered() -> list[str]:
        """Public dhankel callables that are bound somewhere without a wrapper."""
        return sorted({f"{getattr(owner, '__name__', owner)}.{attr}"
                       for module in _dhankel_modules()
                       for owner, attr, fn in _public_callables(module)
                       if not getattr(fn, "__bench_traced__", False)})

    def write_spans(self, path: Path) -> None:
        with path.open("w") as fh:
            for sid, parent, op, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "op": op,
                                     "name": name, "start": start, "end": end}) + "\n")

    # ------------------------------------------------------------ metrics
    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Per-layer metrics per traced pass (counts, self seconds, computed sizes)."""
        st, c = self.stats, self.counts

        def calls(*names):
            return sum(st[n][0] for n in names if n in st) / passes

        def self_s(*names):
            return sum(st[n][2] for n in names if n in st) / passes

        def count(key):
            return c.get(key, 0.0) / passes

        def prefixed(prefix):
            return [n for n in st if n.startswith(prefix)]

        def ratio(num, den):
            return num / den if den else 0.0

        kb = st["specfun.kernel_B"] if "specfun.kernel_B" in st else [0, 0.0, 0.0]
        op_total = st["op"][1] if "op" in st else 0.0
        kb_entries = c.get("specfun.kernel_B.entries", 0.0)
        km_calls = calls("transform.kernel_matrix")
        km_builds = count("transform.kernel_matrix.builds")
        bessel_entries = c.get("specfun.bessel_j_normalized.entries", 0.0)
        grids = ("quadrature.build_weighted_grid", "quadrature.build_graded_grid")
        zygmund = ("modulus.zygmund_Z0_constant", "modulus.zygmund_Z1_constant")
        serialize = ("titchmarsh.VerificationReport.to_json",
                     "titchmarsh.VerificationReport.to_csv")
        verify = prefixed("titchmarsh.verify_")
        return {
            "specfun.kernel_B.calls": calls("specfun.kernel_B"),
            "specfun.kernel_B.entries": kb_entries / passes,
            "specfun.kernel_B.self_s": self_s("specfun.kernel_B"),
            "specfun.kernel_B.total_s": kb[1] / passes,
            "specfun.kernel_B.op_share": ratio(kb[1], op_total),
            "specfun.kernel_B.ns_per_entry": ratio(kb[1] * 1e9, kb_entries),
            "specfun.bessel_j_normalized.entries": bessel_entries / passes,
            "specfun.bessel_j_normalized.series_share": ratio(
                c.get("specfun.bessel_j_normalized.series_entries", 0.0), bessel_entries),
            "specfun.bessel_j_normalized.self_s.integer_order":
                count("specfun.bessel_j_normalized.self_s.integer_order"),
            "specfun.bessel_j_normalized.self_s.fractional_order":
                count("specfun.bessel_j_normalized.self_s.fractional_order"),
            "transform.kernel_matrix.calls": km_calls,
            "transform.kernel_matrix.builds": km_builds,
            "transform.kernel_matrix.hit_ratio": ratio(km_calls - km_builds, km_calls),
            "transform.kernel_matrix.self_s": self_s("transform.kernel_matrix"),
            "transform.kernel_matrix.bytes_built": count("transform.kernel_matrix.bytes_built"),
            "transform.matvec.bytes_read": count("transform.kernel_matrix.bytes_read"),
            "transform.matvec.flop_per_byte": ratio(
                2.0 * c.get("transform.kernel_matrix.entries_read", 0.0),
                c.get("transform.kernel_matrix.bytes_read", 0.0)),
            "transform.forward.calls": calls("transform.forward"),
            "transform.forward.self_s": self_s("transform.forward"),
            "transform.forward.bytes_read": count("transform.forward.bytes_read"),
            "transform.diff_norm.calls.physical": count("transform.diff_norm.calls.physical"),
            "transform.diff_norm.calls.fast": count("transform.diff_norm.calls.fast"),
            "transform.diff_norm.self_s": self_s("transform.diff_norm"),
            "transform.diff_norm_spectral.calls": calls("transform.diff_norm_spectral"),
            "transform.diff_norm_spectral.self_s": self_s("transform.diff_norm_spectral"),
            "transform.tail_energy.calls": calls("transform.tail_energy"),
            "transform.tail_energy.self_s": self_s("transform.tail_energy"),
            "titchmarsh.dlip_seminorm.calls": calls("titchmarsh.dlip_seminorm"),
            "quadrature.grid_build.calls": calls(*grids),
            "quadrature.grid_build.self_s": self_s(*grids),
            "quadrature.grid_build.nodes": count("quadrature.grid_build.nodes"),
            "quadrature.weighted_norm.calls": calls("quadrature.weighted_norm"),
            "quadrature.weighted_norm.self_s": self_s("quadrature.weighted_norm"),
            "modulus.zygmund.calls": calls(*zygmund),
            "modulus.zygmund.self_s": self_s(*zygmund),
            "modulus.build_W_omega.calls": calls("modulus.build_W_omega"),
            "modulus.build_W_omega.self_s": self_s("modulus.build_W_omega"),
            "modulus.check_almost_monotone.calls": calls("modulus.check_almost_monotone"),
            "modulus.check_almost_monotone.self_s": self_s("modulus.check_almost_monotone"),
            "modulus.parse_family.calls": calls("modulus.parse_family"),
            "modulus.parse_family.self_s": self_s("modulus.parse_family"),
            "titchmarsh.synthesize_from_tail.calls": calls("titchmarsh.synthesize_from_tail"),
            "titchmarsh.synthesize_from_tail.self_s": self_s("titchmarsh.synthesize_from_tail"),
            "titchmarsh.verify.calls": calls(*verify),
            "titchmarsh.verify.self_s": self_s(*verify),
            "titchmarsh.report_serialize.calls": calls(*serialize),
            "titchmarsh.report_serialize.self_s": self_s(*serialize),
            "cli.main.calls": calls("cli.main"),
            "cli.main.self_s": self_s("cli.main"),
            "trace.spans": len(self.spans) / passes,
            **{f"{layer}.self_s": self_s(*prefixed(layer + ".")) for layer in LAYERS},
        }
