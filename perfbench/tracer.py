"""Spans and counts around calls into each quivalg layer, installed from outside.

A traced run wraps the public functions each layer exports.  Every wrapped call
records a span (name, start, end, parent span) in compact in-memory arrays;
self time is a span's duration minus the durations of its direct children,
which, in one thread, are exactly the time its children cover.  Counts and
ratios are read from arguments, return values and registry state at the same
wrappers, never from inside the package.

Wrapping replaces the function object at every binding site inside the
package (``from .x import f`` copies it into other modules and into the
package's ``__init__``), and methods are wrapped on their classes.  install()
checks afterwards that no module still holds an unwrapped original.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

RREF_BUCKETS = ((1, "r0-1"), (4, "r2-4"), (8, "r5-8"), (16, "r9-16"), (64, "r17-64"))
FACTOR_BUCKETS = ((1, "d1"), (2, "d2"), (4, "d3-4"))

ISO_METHODS = {
    "structural equality": "structural_equality",
    "random invertible hom": "random_invertible_hom",
    "exhaustive search": "exhaustive_search",
    "both zero": "both_zero",
    "dimension vectors differ": "dimension_vectors_differ",
    "fingerprints differ": "fingerprints_differ",
    "hom space is zero": "hom_space_zero",
    "hom dimension mismatch": "hom_dimension_mismatch",
}


def rref_bucket(rows: int) -> str:
    for top, label in RREF_BUCKETS:
        if rows <= top:
            return label
    return "r65up"


def factor_bucket(degree: int) -> str:
    for top, label in FACTOR_BUCKETS:
        if degree <= top:
            return label
    return "d5up"


def self_times(names, starts, ends, parents) -> dict:
    """Total self time per span name; parents[i] is a span index or -1."""
    dur = np.asarray(ends, dtype=float) - np.asarray(starts, dtype=float)
    own = dur.copy()
    par = np.asarray(parents, dtype=np.int64)
    nested = par >= 0
    np.subtract.at(own, par[nested], dur[nested])
    out: dict = {}
    for name, t in zip(names, own):
        out[name] = out.get(name, 0.0) + float(t)
    return out


class Tracer:
    """Records spans and counts for one traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.registries: dict[int, object] = {}
        self._originals: dict[int, object] = {}
        self._restore: list[tuple] = []

    # -- recording ----------------------------------------------------------

    def _nid(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def spanned(self, name, fn, pre=None, post=None):
        """Wrap fn in a span; name may be a callable of the call's arguments.

        pre(args, kwargs) runs before the call and its value reaches
        post(args, kwargs, result, before), which runs after a normal return.
        """
        fixed = None if callable(name) else self._nid(name)
        stack, sname, sparent = self._stack, self.span_name, self.span_parent
        sstart, send, nid_of = self.span_start, self.span_end, self._nid

        def wrapper(*args, **kwargs):
            before = pre(args, kwargs) if pre else None
            idx = len(sstart)
            sname.append(fixed if fixed is not None else nid_of(name(args, kwargs)))
            sparent.append(stack[-1] if stack else -1)
            send.append(0.0)
            stack.append(idx)
            sstart.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                send[idx] = perf_counter()
                stack.pop()
            if post:
                post(args, kwargs, out, before)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name, fn):
        """Wrap fn with a call counter only (for functions called millions of times)."""
        counts = self.counts
        counts[name] = 0

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation -------------------------------------------------------

    def wrap_function(self, module, attr: str, make):
        """Replace module.attr, and every other binding of it in the package."""
        orig = getattr(module, attr)
        new = make(orig)
        self._originals[id(orig)] = orig
        for mod in _package_modules():
            for key, value in list(vars(mod).items()):
                if value is orig:
                    self._restore.append((mod, key, orig))
                    setattr(mod, key, new)

    def wrap_method(self, cls, attr: str, make):
        orig = cls.__dict__[attr]
        self._originals[id(orig)] = orig
        self._restore.append((cls, attr, orig))
        setattr(cls, attr, make(orig))

    def check_complete(self):
        """Raise if any package module still binds an unwrapped original."""
        left = []
        for mod in _package_modules():
            for key, value in vars(mod).items():
                if id(value) in self._originals and value is self._originals[id(value)]:
                    left.append(f"{mod.__name__}.{key}")
            for cls in (v for v in vars(mod).values() if isinstance(v, type)):
                for key, value in vars(cls).items():
                    if id(value) in self._originals and value is self._originals[id(value)]:
                        left.append(f"{cls.__qualname__}.{key}")
        if left:
            raise RuntimeError(f"unwrapped binding sites: {sorted(set(left))}")

    def uninstall(self):
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()

    # -- results ------------------------------------------------------------

    def span_totals(self) -> tuple[Counter, dict]:
        """(calls per span name, self seconds per span name)."""
        calls = Counter()
        for nid in self.span_name:
            calls[self.names[nid]] += 1
        own = self_times([self.names[i] for i in self.span_name], self.span_start,
                         self.span_end, self.span_parent)
        return calls, own

    def write_spans(self, path: str):
        np.savez_compressed(path, names=np.array(self.names),
                            name=np.frombuffer(self.span_name, dtype=np.int32),
                            parent=np.frombuffer(self.span_parent, dtype=np.int32),
                            start=np.frombuffer(self.span_start, dtype=np.float64),
                            end=np.frombuffer(self.span_end, dtype=np.float64))


def _package_modules():
    return [m for k, m in list(sys.modules.items())
            if m is not None and (k == "quivalg" or k.startswith("quivalg."))]


# ---------------------------------------------------------------------------
# what to wrap, layer by layer


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every quivalg layer."""
    from quivalg import (analysis, cli, decomp, exactfield, fppoly, grothendieck,
                         homology, morita, pathalgebra, repmod)

    t, c = tracer, tracer.counts
    fn, meth = t.wrap_function, t.wrap_method

    def spanned(name, **kw):
        return lambda f: t.spanned(name, f, **kw)

    def counted(name):
        return lambda f: t.counted(name, f)

    # exactfield
    def rref_name(args, kwargs):
        rows, cols = (np.shape(args[0]) + (1, 1))[:2]
        c["exactfield.rref.cells"] += int(rows) * int(cols)
        return "exactfield.rref." + rref_bucket(int(rows))

    fn(exactfield, "rref", spanned(rref_name))
    fn(exactfield, "matmul", spanned("exactfield.matmul"))
    fn(exactfield, "as_matrix", counted("exactfield.as_matrix.calls"))
    for name in ("lattice_rank", "hermite_basis", "in_lattice"):
        fn(exactfield, name, spanned("exactfield.lattice"))

    # fppoly
    def factor_name(args, kwargs):
        nz = np.nonzero(np.asarray(args[0]))[0]
        return "fppoly.factor." + factor_bucket(int(nz[-1]) if nz.size else 0)

    fn(fppoly, "factor", spanned(factor_name))
    fn(fppoly, "min_poly_matrix", spanned("fppoly.min_poly_matrix"))
    fn(fppoly, "is_irreducible", counted("fppoly.is_irreducible.calls"))
    fn(fppoly, "trim", counted("fppoly.trim.calls"))

    # pathalgebra
    BA = pathalgebra.BoundAlgebra
    meth(BA, "__init__", spanned("pathalgebra.build"))
    meth(BA, "normal_form", counted("pathalgebra.normal_form.calls"))
    meth(BA, "opposite", counted("pathalgebra.opposite.calls"))

    # repmod
    def hom_vars(args, kwargs):
        m, n = args[0], args[1]
        c["repmod.hom_basis.vars"] += sum(m.dims[v] * n.dims[v] for v in m.dims)

    fn(repmod, "hom_basis", spanned("repmod.hom_basis", pre=hom_vars))
    fn(repmod, "submodule", spanned("repmod.submodule"))
    fn(repmod, "quotient", spanned("repmod.quotient"))
    for name in ("radical", "socle", "top"):
        fn(repmod, name, spanned("repmod.series"))
    fn(repmod, "random_module", spanned("repmod.random_module"))
    meth(repmod.RepMap, "is_invertible", counted("repmod.is_invertible.calls"))

    # decomp
    def end_dim(args, kwargs, out, before):
        c["decomp.end_algebra.dim_total"] += args[0].dim

    def iso_outcome(args, kwargs, res, before):
        if res.verdict == "inconclusive":
            c["decomp.iso.inconclusive"] += 1
        else:
            c[f"decomp.iso.{res.verdict}.{ISO_METHODS.get(res.method, 'other')}"] += 1

    def register_pre(args, kwargs):
        reg = args[0]
        t.registries[id(reg)] = reg
        return len(reg.entries)

    def register_post(args, kwargs, out, before):
        if len(args[0].entries) == before:
            c["decomp.register.hits"] += 1

    fn(decomp, "decompose", spanned("decomp.decompose"))
    fn(decomp, "indecomposable_pieces", spanned("decomp.indecomposable_pieces"))
    meth(decomp.EndAlgebra, "__init__", spanned("decomp.end_algebra", post=end_dim))
    fn(decomp, "fingerprint", spanned("decomp.fingerprint"))
    fn(decomp, "is_isomorphic", spanned("decomp.iso", post=iso_outcome))
    meth(decomp.IsoRegistry, "register",
         spanned("decomp.register", pre=register_pre, post=register_post))

    # homology
    def syz_hit(args, kwargs):
        reg = args[0]._registry
        if reg is not None and reg.entries[args[1]].syzygy is not None:
            c["homology.syzygy_class.hits"] += 1

    def pd_status(args, kwargs, res, before):
        c[f"homology.pd.{res.status}"] += 1

    fn(homology, "syzygy", spanned("homology.syzygy"))
    fn(homology, "projective_cover", spanned("homology.projective_cover"))
    fn(homology, "syzygy_class", spanned("homology.syzygy_class", pre=syz_hit))
    fn(homology, "pd", spanned("homology.pd", post=pd_status))
    fn(homology, "selfinjectivity", spanned("homology.selfinjectivity"))

    # grothendieck
    def phi_cert(args, kwargs, res, before):
        c[f"grothendieck.phi.cert.{res.certificate}"] += 1

    fn(grothendieck, "phi", spanned("grothendieck.phi", post=phi_cert))
    fn(grothendieck, "class_vector", spanned("grothendieck.class_vector"))
    fn(grothendieck, "omega_bar", spanned("grothendieck.omega_bar"))

    # morita
    fn(morita, "verify_syzygy_split", spanned("morita.verify_syzygy_split"))
    for name in ("g_a", "g_b", "g_a_map", "g_b_map"):
        fn(morita, name, spanned("morita.functors"))
    fn(morita, "check_h4", spanned("morita.check_h4"))
    fn(morita, "classify_gluing", spanned("morita.classify_gluing"))
    fn(morita, "glue", spanned("morita.glue"))

    # analysis
    fn(analysis, "phi_zero_probe", spanned("analysis.phi_zero_probe"))
    fn(analysis, "zero_it_check", spanned("analysis.zero_it_check"))
    fn(analysis, "global_dimension", spanned("analysis.global_dimension"))

    # cli
    for name in ("load_any", "load_algebra_file", "load_glue_file"):
        fn(cli, name, spanned("cli.load"))

    tracer.check_complete()


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer counts, self seconds and ratios, keyed layer.function.kind."""
    calls, own = tracer.span_totals()
    c = tracer.counts
    out: dict = {}

    def group(prefix: str, labels):
        total_calls = total_self = 0
        for label in labels:
            k = f"{prefix}.{label}"
            out[f"{prefix}.calls.{label}"] = calls[k]
            out[f"{prefix}.self_s.{label}"] = own.get(k, 0.0)
            total_calls += calls[k]
            total_self += own.get(k, 0.0)
        out[f"{prefix}.calls"] = total_calls
        out[f"{prefix}.self_s"] = total_self

    group("exactfield.rref", [b for _, b in RREF_BUCKETS] + ["r65up"])
    group("fppoly.factor", [b for _, b in FACTOR_BUCKETS] + ["d5up"])
    for k in [n for n in tracer.names if not n.startswith(("exactfield.rref.",
                                                             "fppoly.factor."))]:
        out[f"{k}.calls"] = calls[k]
        out[f"{k}.self_s"] = own.get(k, 0.0)
    for k, v in c.items():
        out[k] = v
    reg_calls = calls["decomp.register"]
    out["decomp.register.hit_ratio"] = c["decomp.register.hits"] / reg_calls if reg_calls else 0.0
    syz_calls = calls["homology.syzygy_class"]
    out["homology.syzygy_class.hit_ratio"] = (c["homology.syzygy_class.hits"] / syz_calls
                                              if syz_calls else 0.0)
    out["decomp.registry.classes"] = sum(len(r.entries) for r in tracer.registries.values())
    return out
