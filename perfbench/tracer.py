"""Call spans around tracedcat's public functions, installed from outside.

``Tracer.install`` replaces module functions and class methods of the
``tracedcat`` package with timing wrappers and ``uninstall`` puts the
originals back; no file under ``src/`` is edited.  A module-level
``from .x import f`` binds a second name for ``f``, so every binding of a
wrapped function in every loaded ``tracedcat`` module is replaced.

Primitive calls run into the millions per pass, so each call only updates
an aggregate keyed by (span name, parent span name).  Individual spans are
kept only for scenario- and checker-level calls.  A span's self time is its
duration minus the time covered by the wrapped calls made inside it.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# Stats a span records beyond calls and self time:
#   cases    -- the returned CheckReport's cases_run
#   homs     -- the length of the returned list; a None result is "declined"
#   accepted -- the number of calls returning a true value
#
# (span name, "Class.method", "*.method" for every class of the module that
# defines it, or a module function name; extra stat or None; stats reported)
SPANS = [
    ("core.trace", "Model.trace", None, ("calls", "self_s")),
    ("core.compose", "Model.compose", None, ("calls", "self_s")),
    ("core.tensor", "Model.tensor", None, ("calls", "self_s")),
    ("core.tensor_obj", "Model.tensor_obj", None, ("calls", "self_s")),
    ("core.mor_eq", "Model.mor_eq", None, ("calls", "self_s")),
    ("model_order.enumerate_hom", "*.enumerate_hom", "homs",
     ("calls", "self_s", "homs", "declined")),
    ("model_order.fix", "*.fix", None, ("calls", "self_s")),
    ("model_iter.enumerate_hom", "*.enumerate_hom", "homs",
     ("calls", "self_s", "homs", "declined")),
    ("model_linear.smat_mul", "smat_mul", None, ("calls", "self_s")),
    ("model_linear.smat_kron", "smat_kron", None, ("calls", "self_s")),
    ("model_linear.smat_inverse", "smat_inverse", None, ("calls", "self_s")),
    ("model_linear.dense_mul", "dense_mul", None, ("calls", "self_s")),
    ("model_linear.trace_by_cups", "MatModel.trace_by_cups", None,
     ("calls", "self_s")),
    ("laws.check_trace_axioms", "check_trace_axioms", "cases",
     ("self_s", "cases")),
    ("laws.check_monoidal_laws", "check_monoidal_laws", "cases",
     ("self_s", "cases")),
    ("laws.check_snake", "check_snake", "cases", ("self_s", "cases")),
    ("laws.check_conway_axioms", "check_conway_axioms", "cases",
     ("self_s", "cases")),
    ("laws.check_conway_trace_roundtrip", "check_conway_trace_roundtrip",
     "cases", ("self_s", "cases")),
    ("monads.check_monad_laws", "check_monad_laws", "cases",
     ("self_s", "cases")),
    ("monads.check_bimonad_laws", "check_bimonad_laws", "cases",
     ("self_s", "cases")),
    ("monads.check_hopf", "check_hopf", "cases", ("self_s", "cases")),
    ("monads.idempotence_suite", "idempotence_suite", "cases",
     ("self_s", "cases")),
    ("monads.trace_meta_check", "trace_meta_check", "cases",
     ("self_s", "cases")),
    ("monads.fusion_left", "fusion_left", None, ("calls", "self_s")),
    ("eilenberg_moore.check_traced_monad", "check_traced_monad", "cases",
     ("self_s", "cases")),
    ("eilenberg_moore.check_trace_coherence", "check_trace_coherence",
     "cases", ("self_s", "cases")),
    ("eilenberg_moore.check_traced_via_fix", "check_traced_via_fix", "cases",
     ("self_s", "cases")),
    ("eilenberg_moore.crosscheck_main_theorem", "crosscheck_main_theorem",
     "cases", ("self_s", "cases")),
    ("eilenberg_moore.cocartesian_corollary_check",
     "cocartesian_corollary_check", "cases", ("self_s", "cases")),
    ("eilenberg_moore.enumerate_algebra_morphisms",
     "enumerate_algebra_morphisms", "homs", ("calls", "self_s", "homs")),
    ("eilenberg_moore.algebra_pool", "algebra_pool", None,
     ("calls", "self_s")),
    ("eilenberg_moore.algebra_tensor", "algebra_tensor", None,
     ("calls", "self_s")),
    ("eilenberg_moore.is_algebra_morphism", "is_algebra_morphism",
     "accepted", ("calls", "accept_ratio")),
    ("hopf_monoid.verify_representable_coherence",
     "verify_representable_coherence", "cases", ("self_s", "cases")),
    ("hopf_monoid.validate_hopf_monoid", "validate_hopf_monoid", None,
     ("self_s",)),
    ("hopf_monoid.antipode_search", "antipode_search", None, ("self_s",)),
    ("hopf_monoid.group_hopf_bundle", "group_hopf_bundle", None, ("self_s",)),
    ("hopf_monoid.sweedler_fusion_inverse", "sweedler_fusion_inverse", None,
     ("calls", "self_s")),
    ("cli.run_scenario", "run_scenario", None, ("calls", "self_s")),
    ("cli.serialize_report", "serialize_report", None, ("calls", "self_s")),
]

MODULES = ("core", "model_order", "model_iter", "model_linear", "laws",
           "monads", "eilenberg_moore", "hopf_monoid", "cli")

# spans recorded one by one, not only in the aggregate
KEPT = frozenset(["cli.run_scenario"] + [name for name, _, extra, _ in SPANS
                                         if extra == "cases"])


def metric_names():
    """Every per-layer metric name the traced run reports, in order."""
    names = [f"{name}.{stat}" for name, _, _, stats in SPANS for stat in stats]
    return names + [f"{module}.self_s" for module in MODULES]


class InstallError(RuntimeError):
    """A wrapper could not be installed where a span expects it."""


class Tracer:
    """Aggregated call spans; see the module docstring."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        # frame: [span name, time covered by child spans, kept-span id]
        self._stack = [["<root>", 0.0, None]]
        self.aggregate = {}          # (name, parent name) -> [calls, total, self]
        # per span: [cases, homs or accepted calls; declined calls]
        self.extra = {name: [0, 0] for name, _, _, _ in SPANS}
        self.spans = []              # (id, parent id, name, start, end)
        self._patches = []           # (owner, attribute, original)

    # ------------------------------------------------------------- wrapping

    def wrap(self, name, fn, extra=None, keep=False):
        """Return ``fn`` wrapped to record spans under ``name``."""
        stack, clock, aggregate = self._stack, self.clock, self.aggregate
        spans = self.spans
        counters = self.extra.setdefault(name, [0, 0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            span_id = parent[2]
            if keep:
                span_id = len(spans)
                spans.append(None)
            frame = [name, 0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                parent[1] += elapsed
                key = (name, parent[0])
                record = aggregate.get(key)
                if record is None:
                    record = aggregate[key] = [0, 0.0, 0.0]
                record[0] += 1
                record[1] += elapsed
                record[2] += elapsed - frame[1]
                if keep:
                    spans[span_id] = (span_id, parent[2], name, start, end)
            if extra == "cases":
                counters[0] += result.cases_run
            elif extra == "homs":
                if result is None:
                    counters[1] += 1
                else:
                    counters[0] += len(result)
            elif extra == "accepted" and result:
                counters[0] += 1
            return result

        return wrapper

    def install(self):
        """Wrap every span in ``SPANS``; raise InstallError if one is missing."""
        if self._patches:
            raise InstallError("tracer is already installed")
        package = [m for n, m in sorted(sys.modules.items())
                   if n == "tracedcat" or n.startswith("tracedcat.")]
        try:
            for name, target, extra, _ in SPANS:
                module = importlib.import_module(f"tracedcat.{name.split('.')[0]}")
                for owner, attr in _targets(module, target):
                    original = owner.__dict__[attr]
                    wrapped = self.wrap(name, original, extra, name in KEPT)
                    if isinstance(owner, type):
                        self._patch(owner, attr, wrapped)
                        continue
                    for mod in package:
                        for alias, value in list(vars(mod).items()):
                            if value is original:
                                self._patch(mod, alias, wrapped)
        except BaseException:
            self.uninstall()
            raise

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # ------------------------------------------------------------ reporting

    def totals(self):
        """name -> [calls, total seconds, self seconds], over all parents."""
        out = {}
        for (name, _), (calls, total, self_s) in self.aggregate.items():
            acc = out.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += self_s
        return out

    def metrics(self):
        """Every name of ``metric_names()`` mapped to its value."""
        totals = self.totals()
        out, module_self = {}, dict.fromkeys(MODULES, 0.0)
        for name, _, _, stats in SPANS:
            calls, _, self_s = totals.get(name, (0, 0.0, 0.0))
            first, second = self.extra[name]
            module_self[name.split(".")[0]] += self_s
            values = {"calls": calls, "self_s": self_s, "cases": first,
                      "homs": first, "declined": second,
                      "accept_ratio": first / calls if calls else 0.0}
            for stat in stats:
                out[f"{name}.{stat}"] = values[stat]
        for module, self_s in module_self.items():
            out[f"{module}.self_s"] = self_s
        return out

    def dump(self):
        """JSON-ready aggregate table and kept spans."""
        return {
            "aggregate": [{"name": name, "parent": parent, "calls": calls,
                           "total_s": total, "self_s": self_s}
                          for (name, parent), (calls, total, self_s)
                          in sorted(self.aggregate.items())],
            "spans": [{"id": i, "parent": parent, "name": name,
                       "start": start, "end": end}
                      for (i, parent, name, start, end) in self.spans],
        }


def _targets(module, target):
    """(owner, attribute) pairs a SPANS target names in ``module``."""
    owner_name, _, attr = target.rpartition(".")
    if not owner_name:
        if not callable(vars(module).get(attr)):
            raise InstallError(f"{module.__name__} has no function {attr}")
        return [(module, attr)]
    if owner_name != "*":
        cls = vars(module).get(owner_name)
        if not isinstance(cls, type) or attr not in cls.__dict__:
            raise InstallError(f"{module.__name__}.{owner_name} defines no {attr}")
        for sub in _subclasses(cls):
            if attr in sub.__dict__:
                raise InstallError(f"{sub.__module__}.{sub.__qualname__} "
                                   f"overrides {attr}; wrap it too")
        return [(cls, attr)]
    owners = [(cls, attr) for cls in vars(module).values()
              if isinstance(cls, type) and cls.__module__ == module.__name__
              and attr in cls.__dict__]
    if not owners:
        raise InstallError(f"no class of {module.__name__} defines {attr}")
    return owners


def _subclasses(cls):
    seen, todo = [], list(cls.__subclasses__())
    while todo:
        sub = todo.pop()
        if sub not in seen:
            seen.append(sub)
            todo.extend(sub.__subclasses__())
    return seen
