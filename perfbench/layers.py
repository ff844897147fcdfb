"""Per-layer spans for htsolve, recorded from outside the package.

:class:`Tracer` wraps the public functions of ``htsolve.solver``, ``ops``,
``hsvd``, ``softthresh``, ``htree`` and ``problems`` at every module
attribute their callers look them up through (``solver`` imports
``apply_certified`` by name, so wrapping ``htsolve.ops.apply_certified``
alone would miss the solver's calls), the traversal members of
``DimensionTree``, and the LAPACK and einsum calls ``hsvd`` makes through its
``np`` global.  Each call records a span (name, start, end, parent span,
repetition id) in memory; :meth:`Tracer.uninstall` restores every original.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import sys
import time
import types

import numpy as np

MODULES = ("solver", "ops", "hsvd", "softthresh", "htree", "problems")
TREE_MEMBERS = ("nodes", "bottom_up", "interior_nodes")
LAPACK = ("qr", "svd", "eigh", "eigvalsh")
# hsvd functions whose calls and times are reported one by one
HSVD_KERNELS = ("recompress", "coarsen", "orthogonalize", "norm", "inner",
                "contractions", "edge_spectra", "add")


def _qr_flops(args, kwargs, out):
    """Householder QR plus forming the thin Q factor (computed, not counted)."""
    m, n = args[0].shape[-2:]
    k = min(m, n)
    return {"flops": 2 * (2.0 * k * k * (max(m, n) - k / 3.0)), "rows": m}


def _svd_flops(args, kwargs, out):
    """Thin SVD with vectors via bidiagonalisation (computed, not counted)."""
    m, n = args[0].shape[-2:]
    k = min(m, n)
    return {"flops": 6.0 * max(m, n) * k * k + 20.0 * k**3}


def _eigh_flops(args, kwargs, out):
    """Symmetric eigensolver with vectors (computed, not counted)."""
    return {"flops": 9.0 * args[0].shape[-1] ** 3}


def _eigvalsh_flops(args, kwargs, out):
    """Symmetric eigenvalues only (computed, not counted)."""
    return {"flops": 4.0 * args[0].shape[-1] ** 3 / 3.0}


def _stored_ranks(h) -> list[int]:
    """Ranks of every non-root node, read from array shapes only (calling
    ``h.ranks`` would itself record tree-traversal spans)."""
    return ([f.shape[1] for f in h.frames.values()]
            + [b.shape[2] for b in h.transfer.values()])


def _recompress_ranks(args, kwargs, out):
    before, after = _stored_ranks(args[0]), _stored_ranks(out)
    return {"rank_in_max": max(before, default=0), "rank_in": sum(before),
            "rank_out": sum(after)}


def _table_size(args, kwargs, out):
    return {"m": out.m}


OBSERVERS = {
    "hsvd.recompress": _recompress_ranks,
    "ops.build_scaling": _table_size,
    "numpy.qr": _qr_flops,
    "numpy.svd": _svd_flops,
    "numpy.eigh": _eigh_flops,
    "numpy.eigvalsh": _eigvalsh_flops,
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "rep", "info")

    def __init__(self, name, parent, rep):
        self.name, self.parent, self.rep, self.info = name, parent, rep, None


class Tracer:
    """Records spans while installed; ``rep`` tags spans of one repetition."""

    def __init__(self):
        self.spans: list[Span] = []
        self.rep = 0
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        spans, stack, observe = self.spans, self._stack, OBSERVERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1, self.rep)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if observe is not None:
                span.info = observe(args, kwargs, out)
            return out

        return traced

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        mods = {m: importlib.import_module(f"htsolve.{m}") for m in MODULES}
        wrappers = {}
        for short, mod in mods.items():
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[fn] = self._wrap(f"{short}.{attr}", fn)
        # rebind at every import site, not only the defining module
        for modname, mod in list(sys.modules.items()):
            if modname == "htsolve" or not modname.startswith("htsolve."):
                continue
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._set(mod, attr, wrappers[value])

        tree_cls = mods["htree"].DimensionTree
        for member in TREE_MEMBERS:
            raw = tree_cls.__dict__[member]
            name = f"htree.DimensionTree.{member}"
            if isinstance(raw, property):
                self._set(tree_cls, member, property(self._wrap(name, raw.fget)))
            else:
                self._set(tree_cls, member, self._wrap(name, raw))

        # hsvd reaches LAPACK and einsum through its module global ``np``;
        # a private copy of the namespace confines the wrappers to hsvd
        linalg = types.ModuleType("numpy.linalg")
        linalg.__dict__.update(np.linalg.__dict__)
        for fn in LAPACK:
            setattr(linalg, fn, self._wrap(f"numpy.{fn}", getattr(np.linalg, fn)))
        proxy = types.ModuleType("numpy")
        proxy.__dict__.update(np.__dict__)
        proxy.linalg = linalg
        proxy.einsum = self._wrap("numpy.einsum", np.einsum)
        self._set(mods["hsvd"], "np", proxy)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} spans still open")

    def write_csv(self, path, rep: int) -> None:
        """Gzipped CSV of the spans of repetition ``rep`` (the others have the
        same structure): index, name, parent index, start and end in seconds
        from the repetition's first span."""
        spans = [(i, s) for i, s in enumerate(self.spans) if s.rep == rep]
        t0 = spans[0][1].start if spans else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("rep,index,name,parent,start_s,end_s\n")
            fh.writelines(f"{rep},{i},{s.name},{s.parent},{s.start - t0:.9f},"
                          f"{s.end - t0:.9f}\n" for i, s in spans)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def summarize(spans: list[Span], root: int) -> dict:
    """Per-function calls, inclusive and self seconds for the subtree under
    span ``root``, plus each call's annotation with its parent's layer.

    Spans are appended in call order, so a root's descendants are the
    contiguous run of spans after it up to the next span with no parent.
    """
    end = root + 1
    while end < len(spans) and spans[end].parent != -1:
        end += 1
    child = [0.0] * (end - root)
    for i in range(root + 1, end):
        s = spans[i]
        child[s.parent - root] += s.end - s.start
    funcs: dict[str, dict] = {}
    for i in range(root, end):
        s = spans[i]
        dur = s.end - s.start
        f = funcs.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                      "info": []})
        f["calls"] += 1
        f["total_s"] += dur
        f["self_s"] += dur - child[i - root]
        if s.info is not None:
            parent = spans[s.parent].name if s.parent >= 0 else ""
            f["info"].append((layer_of(parent), s.info, dur))
    return funcs
