"""Spans and counters around klrwcb's public functions, installed at run time.

The tracer replaces chosen functions and methods with wrappers from the
benchmark's own files; nothing in the library changes.  A span records
name, start, end and parent.  Self time is a span's duration minus the
durations of its direct child spans, accumulated while the spans close.
Scalar operations are counted, not spanned: a span per scalar operation
would cost more than the operation.
"""

from __future__ import annotations

import json
import os
import sys
import time
from array import array

# Spanned targets: (metric prefix, module, attribute path).
SPANNED = [
    ("scalars.real_compare", "scalars", "real_compare"),
    ("poly.mul", "poly", "Polynomial.__mul__"),
    ("poly.add", "poly", "Polynomial.__add__"),
    ("poly.divide_exact", "poly", "Polynomial.divide_exact"),
    ("poly.swap_vars", "poly", "Polynomial.swap_vars"),
    ("poly.substitute", "poly", "Polynomial.substitute"),
    ("poly.ratfunc.new", "poly", "RationalFunction.__init__"),
    ("poly.ratfunc.eq", "poly", "RationalFunction.__eq__"),
    ("poly.ratfunc.add", "poly", "RationalFunction.__add__"),
    ("poly.ratfunc.mul", "poly", "RationalFunction.__mul__"),
    ("coulomb.mul", "coulomb", "mul"),
    ("coulomb.relation_coefficient", "coulomb", "relation_coefficient"),
    ("coulomb.rxi_pairing", "coulomb", "rxi_pairing"),
    ("coulomb.inv_monopole", "coulomb", "inv_monopole"),
    ("coulomb.forget_matter", "coulomb", "forget_matter"),
    ("coulomb.fourier", "coulomb", "fourier"),
    ("coulomb.elprime_identity_holds", "coulomb", "elprime_identity_holds"),
    ("coulomb.monopole_eq", "coulomb", "MonopoleElement.__eq__"),
    ("coulomb.res_support", "coulomb", "res_support"),
    ("coulomb.hamiltonian_reduce", "coulomb", "hamiltonian_reduce"),
    ("diagrams.pair_kind", "diagrams", "Engine.pair_kind"),
    ("diagrams.act", "diagrams", "Engine.act"),
    ("diagrams.straight_line", "diagrams", "Engine.straight_line"),
    ("relations.apply", "relations", "Scenario.apply"),
    ("relations.equal", "relations", "Scenario.equal"),
    ("sequences.enumerate_orders", "sequences", "enumerate_orders"),
    ("sequences.validate", "sequences", "validate"),
    ("sequences.equivalent", "sequences", "equivalent"),
    ("sequences.from_weight", "sequences", "from_weight"),
    ("cover.build_cover", "cover", "build_cover"),
    ("kacmoody.weight_multiplicity", "kacmoody", "weight_multiplicity"),
    ("kacmoody.kostant_multiplicity", "kacmoody", "kostant_multiplicity"),
]

# Counted scalar operations: (counter, attribute of ExactScalar).
SCALAR_COUNTED = [("scalars.constructed", "__init__")] + [
    ("scalars.arith_calls", name) for name in
    ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
     "__neg__", "__truediv__")]

# Spans kept in memory and written out; later spans still count in the totals.
SPAN_CAP = 1_000_000


def _terms(p):
    return len(getattr(p, "terms", ()) or ())


class Tracer:
    def __init__(self):
        self.names = []
        self.index = {}
        self.calls = []
        self.incl = []
        self.self_ = []
        self.counters = {}
        self.maxima = {}
        self.stack = []            # child-time accumulators of open spans
        self.parents = []          # span ids of open spans
        self.span_name = array("H")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.spans_total = 0
        self.active = False
        self._restore = []

    # -- bookkeeping ---------------------------------------------------------

    def _name_id(self, name):
        if name not in self.index:
            self.index[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.incl.append(0.0)
            self.self_.append(0.0)
        return self.index[name]

    def count(self, name, n=1):
        self.counters[name] = self.counters.get(name, 0) + n

    def observe_max(self, name, value):
        if value > self.maxima.get(name, 0):
            self.maxima[name] = value

    # -- wrappers ------------------------------------------------------------

    def _span(self, name, fn, observe=None):
        nid = self._name_id(name)
        clock = time.perf_counter
        tracer = self

        def wrapped(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer.stack
            sid = tracer.spans_total
            tracer.spans_total += 1
            parent = tracer.parents[-1] if tracer.parents else -1
            tracer.parents.append(sid)
            stack.append(0.0)
            error = None
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                t1 = clock()
                dur = t1 - t0
                child = stack.pop()
                tracer.parents.pop()
                if stack:
                    stack[-1] += dur
                tracer.calls[nid] += 1
                tracer.incl[nid] += dur
                tracer.self_[nid] += dur - child
                if sid < SPAN_CAP:
                    tracer.span_name.append(nid)
                    tracer.span_parent.append(parent)
                    tracer.span_start.append(t0)
                    tracer.span_end.append(t1)
                if observe is not None:
                    observe(tracer, args, result, error)

        wrapped.__wrapped__ = fn
        return wrapped

    def _counted(self, name, fn):
        tracer = self

        def wrapped(*args, **kwargs):
            if tracer.active:
                tracer.counters[name] = tracer.counters.get(name, 0) + 1
            return fn(*args, **kwargs)

        wrapped.__wrapped__ = fn
        return wrapped

    # -- installation --------------------------------------------------------

    def _replace_everywhere(self, original, replacement, modules):
        """Rebind every module-level name in klrwcb bound to original, since
        modules that imported the function by name hold their own binding."""
        for mod in modules:
            for key, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, key, replacement)
                    self._restore.append((mod, key, original))

    def _replace_in_class(self, cls, original, replacement):
        for key, val in list(vars(cls).items()):
            if val is original:
                setattr(cls, key, replacement)
                self._restore.append((cls, key, original))

    def install(self):
        import klrwcb.coulomb
        import klrwcb.cover
        import klrwcb.diagrams
        import klrwcb.kacmoody
        import klrwcb.poly
        import klrwcb.relations
        import klrwcb.scalars
        import klrwcb.sequences
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "klrwcb" or name.startswith("klrwcb.")]
        observers = {
            "poly.mul": _observe_mul,
            "poly.divide_exact": _observe_divide,
            "sequences.validate": _observe_validate,
            "coulomb.relation_coefficient": _observe_relcoef,
            "relations.equal": _observe_equal,
        }
        for metric, modname, path in SPANNED:
            mod = sys.modules["klrwcb." + modname]
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(mod, owner_name)
                original = vars(owner)[attr]
                self._replace_in_class(owner, original,
                                       self._span(metric, original,
                                                  observers.get(metric)))
            else:
                original = getattr(mod, attr)
                self._replace_everywhere(original,
                                         self._span(metric, original,
                                                    observers.get(metric)),
                                         modules)
        scalar_cls = klrwcb.scalars.ExactScalar
        for counter, attr in SCALAR_COUNTED:
            original = vars(scalar_cls)[attr]
            setattr(scalar_cls, attr, self._counted(counter, original))
            self._restore.append((scalar_cls, attr, original))

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore = []

    # -- results -------------------------------------------------------------

    def totals(self):
        out = {}
        for nid, name in enumerate(self.names):
            out[name + ".calls"] = self.calls[nid]
            out[name + ".incl_s"] = self.incl[nid]
            out[name + ".self_s"] = self.self_[nid]
        out.update(self.counters)
        out.update(self.maxima)
        return out

    def write(self, path_prefix):
        """Write the recorded spans (binary columns) and an index file."""
        os.makedirs(os.path.dirname(path_prefix), exist_ok=True)
        with open(path_prefix + ".spans", "wb") as fh:
            for col in (self.span_name, self.span_parent, self.span_start,
                        self.span_end):
                col.tofile(fh)
        index = {
            "names": self.names,
            "spans_recorded": len(self.span_name),
            "spans_total": self.spans_total,
            "columns": [["name", self.span_name.typecode],
                        ["parent", self.span_parent.typecode],
                        ["start", self.span_start.typecode],
                        ["end", self.span_end.typecode]],
            "aggregates": self.totals(),
        }
        with open(path_prefix + ".json", "w") as fh:
            json.dump(index, fh, indent=1, sort_keys=True)


def _observe_mul(tracer, args, result, error):
    if error is None:
        a, b = args
        tracer.count("poly.mul.term_pairs", _terms(a) * max(_terms(b), 1))
        tracer.observe_max("poly.max_terms", _terms(result))


def _observe_divide(tracer, args, result, error):
    if error is None:
        tracer.count("poly.divide_exact.hits")


def _observe_validate(tracer, args, result, error):
    if error is None and not result:
        tracer.count("sequences.validate.accepted")


def _observe_relcoef(tracer, args, result, error):
    theory, xi, nu = args
    n = 0
    for mu in theory.matter:
        a = sum(g * x for g, x in zip(mu.gauge, xi))
        b = sum(g * x for g, x in zip(mu.gauge, nu))
        if (a > 0 > b) or (a < 0 < b):
            n += min(abs(a), abs(b))
    tracer.count("coulomb.relation_coefficient.linear_factors", n)


def _observe_equal(tracer, args, result, error):
    tracer.count("relations.instances")
    tracer.count("relations.test_polys", len(args[3]))
