"""Command-line driver: scenario registry, loaders, report emission.

Each scenario is one row of ``SCENARIOS``: a ``_run_*`` body and an
``expect`` that holds every suite verdict that is not ``"pass"`` -- expected
failures are the separating counterexamples -- and every fact, such as a
pinned witness, that its run must reproduce.  ``tracedcat run <scenario>``
exits 0 iff all of them match; ``tracedcat list`` prints the registry.
Reports serialize deterministically (byte-for-byte per scenario and config).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field, replace
from fractions import Fraction

from .core import Morphism, UsageError
from .laws import (CaseBudget, CheckReport, check_conway_axioms,
                   check_conway_trace_roundtrip, check_monoidal_laws,
                   check_snake, check_trace_axioms)
from .model_iter import (UNDEF, FinLabelSet, exception_bimonad, label_set,
                         pfn_model)
from .model_linear import dense_rows, mat_model
from .model_order import (SIGMA_JOIN, SIGMA_MEET, FinPoset, PairOb,
                          bounded_poset_two_traces,
                          diagonal_preservation_check, fincppo_model,
                          int_poset_model, n_monad, poset_from_pairs,
                          poset_product, sierpinski, sigma_join_bimonad,
                          sigma_meet_bimonad, strictness_property,
                          two_trace_distinctness_witness)
from .monads import (check_bimonad_laws, check_hopf, check_monad_laws,
                     fusion_left, hopf_from_bimonad, identity_hopf_bundle,
                     idempotence_suite, trace_meta_check, try_invert_fusion)
from .eilenberg_moore import (check_trace_coherence, check_traced_monad,
                              check_traced_via_fix,
                              cocartesian_corollary_check,
                              crosscheck_main_theorem)
from .hopf_monoid import (GroupTable, antipode_search, group_hopf_bundle,
                          group_table_c2, group_table_s3,
                          verify_representable_coherence)


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    cases: int = 100
    max_size: int = 3

    def budget(self, max_size=None):
        return CaseBudget(seed=self.seed, cases=self.cases,
                          max_object_size=max_size or self.max_size)


@dataclass(frozen=True)
class Scenario:
    """``run(config) -> ([(suite, CheckReport)], facts, detail)``; a key of
    ``expect`` that names a suite is its verdict, any other key a fact."""
    name: str
    note: str
    run: object
    expect: dict = field(default_factory=dict)


# ------------------------------------------------------------ serialization


def serialize_value(v):
    if isinstance(v, Morphism):
        return serialize_morphism(v)
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    if isinstance(v, FinPoset):
        return {"elements": [str(e) for e in v.elements],
                "le": sorted([i, j] for (i, j) in v.le if i != j)}
    if isinstance(v, FinLabelSet):
        return {"labels": [str(x) for x in v.labels]}
    if isinstance(v, PairOb):
        return {"left": serialize_value(v.left), "right": serialize_value(v.right)}
    if isinstance(v, (list, tuple)):
        return [serialize_value(x) for x in v]
    if isinstance(v, dict):
        return {str(k): serialize_value(x) for k, x in v.items()}
    if isinstance(v, (int, str, bool)) or v is None:
        return v
    return repr(v)


def serialize_morphism(f: Morphism):
    out = {"model": f.model,
           "dom": serialize_value(f.dom), "cod": serialize_value(f.cod)}
    if f.model == "mat":
        out["matrix"] = [[serialize_value(x) if isinstance(x, Fraction) else x
                          for x in row] for row in dense_rows(f)]
    elif f.model == "int_poset":
        out["arrow"] = [f.dom, f.cod]
    elif isinstance(f.payload, tuple) and all(
            isinstance(x, Morphism) for x in f.payload):
        out["components"] = [serialize_morphism(x) for x in f.payload]
    elif f.model == "pfn":
        out["table"] = [None if v == UNDEF else v for v in f.payload]
    else:
        out["table"] = list(f.payload)
    return out


def serialize_report(report: CheckReport):
    return {
        "name": report.suite,
        "model": report.model,
        "verdict": report.verdict,
        "cases_run": report.cases_run,
        "failures": [{"law": fl.law,
                      "witness": serialize_value(fl.inputs),
                      "lhs": serialize_value(fl.lhs),
                      "rhs": serialize_value(fl.rhs)}
                     for fl in report.failures[:5]],
        "findings": serialize_value(report.findings),
    }


# ------------------------------------------------------------------ loaders


def _read_table_file(path, key, arity):
    """The 'elements:' labels and the 'key:' lines of a text table file.

    Returns ``(elements, [(lineno, labels), ...])``; '#' starts a comment.
    Raises :class:`UsageError`, naming the path and the line, on a file that
    cannot be read as UTF-8 text, an unrecognized line, a 'key:' line
    without ``arity`` labels, and a missing or a second 'elements:' line.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as err:
        raise UsageError(
            f"{path}: cannot read: {err.strerror or err}") from err
    except UnicodeDecodeError as err:
        raise UsageError(f"{path}: not UTF-8 text: {err.reason}") from err
    elements, elements_line, entries = None, None, []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("elements:"):
            if elements_line is not None:
                raise UsageError(f"{path}:{lineno}: second 'elements:' line "
                                 f"(the first is line {elements_line})")
            elements, elements_line = line[len("elements:"):].split(), lineno
        elif line.startswith(f"{key}:"):
            labels = line[len(key) + 1:].split()
            if len(labels) != arity:
                raise UsageError(
                    f"{path}:{lineno}: '{key}:' wants {arity} labels")
            entries.append((lineno, labels))
        else:
            raise UsageError(f"{path}:{lineno}: unrecognized line {line!r}")
    if elements is None:
        raise UsageError(f"{path}: missing 'elements:' line")
    return elements, entries


def load_poset(path) -> FinPoset:
    """Text format: 'elements: a b ...' then 'le: x y' lines."""
    elements, entries = _read_table_file(path, "le", 2)
    try:
        return poset_from_pairs(elements, [(x, y) for _, (x, y) in entries])
    except UsageError as err:
        raise UsageError(f"{path}: {err}") from err


def load_group(path) -> GroupTable:
    """Text format: 'elements: e g ...' then 'mul: x y z' meaning x*y = z.

    Each product is given once, and only of declared elements: a second
    'mul: x y' line, or a label missing from 'elements:', is an error.
    """
    elements, entries = _read_table_file(path, "mul", 3)
    mul, given_at, declared = {}, {}, set(elements)
    for lineno, (x, y, z) in entries:
        for label in (x, y, z):
            if label not in declared:
                raise UsageError(f"{path}:{lineno}: '{label}' is not in the "
                                 f"'elements:' line")
        if (x, y) in given_at:
            raise UsageError(f"{path}:{lineno}: product {x}*{y} is already "
                             f"given at line {given_at[(x, y)]}")
        given_at[(x, y)] = lineno
        mul[(x, y)] = z
    try:
        return GroupTable(tuple(elements), mul)
    except UsageError as err:
        raise UsageError(f"{path}: {err}") from err


# ---------------------------------------------------------------- scenarios


def _run_z_not_hopf(config: RunConfig):
    bundle = n_monad()
    budget = config.budget(max_size=max(config.max_size, 6))
    suites = [
        ("monad_laws", check_monad_laws(bundle, budget)),
        ("bimonad_laws", check_bimonad_laws(bundle, budget)),
        ("traced_monad", check_traced_monad(bundle, budget)),
        ("idempotence", idempotence_suite(bundle, budget)),
        ("trace_meta", trace_meta_check(bundle)),
    ]
    # the text's non-invertible instance; the search finds a smaller one
    paper_pair = fusion_left(bundle, -2, 1)
    _, witness = hopf_from_bimonad(bundle, budget)
    smallest = witness and (witness["A"], witness["B"])
    facts = {"paper_pair_objects": (paper_pair.dom, paper_pair.cod),
             "paper_pair_inverts": try_invert_fusion(bundle, -2, 1) is not None,
             "smallest_failing_pair": smallest,
             "idempotent": suites[3][1].findings.get("idempotent")}
    detail = (f"fusion not invertible: pinned pair (-2, 1) gives objects "
              f"{paper_pair.dom} vs {paper_pair.cod}; smallest failing pair "
              f"{smallest}")
    return suites, facts, detail


def _run_sierpinski_meet(config: RunConfig):
    budget = config.budget(max_size=min(config.max_size, 3))
    model, sig = fincppo_model(), sierpinski()
    meet = sigma_meet_bimonad(model)
    suites = [("traced_monad", check_traced_monad(meet, budget)),
              ("traced_via_fix", check_traced_via_fix(meet, budget)),
              ("strictness", strictness_property(model, budget))]
    # no antipode among all monotone endomaps, so meet is not Hopf
    table, unit_index = SIGMA_MEET
    antipodes = antipode_search(
        model, sig, model.table(poset_product(sig, sig), sig, table),
        model.table(model.unit_obj(), sig, (unit_index,)),
        model.pair(model.identity(sig), model.identity(sig)),
        model.terminal_map(sig))
    return suites, {"antipodes": antipodes}, (
        f"antipode search over all monotone endomaps: {len(antipodes)} found")


def _run_sierpinski_join(config: RunConfig):
    # the separating witness needs posets of size 2
    budget = config.budget(max_size=min(max(config.max_size, 2), 3))
    model, sig = fincppo_model(), sierpinski()
    join = sigma_join_bimonad(model)
    suites = [("traced_monad", check_traced_monad(join, budget)),
              ("traced_via_fix", check_traced_via_fix(join, budget))]
    # the pinned instance: carrier and feedback both the join module on the
    # lattice itself, f the projection onto the feedback coordinate
    act = model.table(poset_product(sig, sig), sig, SIGMA_JOIN[0])
    fx = model.fix(sig, sig, model.proj1(sig, sig))   # everything to bottom
    lhs = model.compose(fx, act)                      # Fix(f) after the action
    rhs = model.compose(act, model.tensor(model.identity(sig), fx))
    top_top = sig.size + 1                            # the pair (top, top)
    pinned = {"fix_is_constant_bottom": fx.payload == (0, 0),
              "lhs_at_top_top": sig.elements[lhs.payload[top_top]],
              "rhs_at_top_top": sig.elements[rhs.payload[top_top]],
              "violated": lhs.payload[top_top] != rhs.payload[top_top]}
    return suites, pinned, (f"fixed point of the feedback projection at "
                            f"(top, top): {pinned['lhs_at_top_top']} vs "
                            f"{pinned['rhs_at_top_top']}")


def _group_bundle(group_name):
    """The group table, the report of its group algebra's Hopf-monoid
    validation, and its Hopf bundle."""
    if group_name == "c2":
        table = group_table_c2()
    elif group_name == "s3":
        table = group_table_s3()
    else:
        table = load_group(group_name)
    return (table, *group_hopf_bundle(mat_model(), table,
                                      name=f"q[{group_name}]"))


def _run_group_algebra(config: RunConfig, group_name):
    table, hopf_monoid_laws, bundle = _group_bundle(group_name)
    size = min(config.max_size, 2 if len(table.elements) > 2 else 3)
    budget = config.budget(max_size=size)
    suites = [
        ("hopf_monoid_laws", hopf_monoid_laws),
        ("monad_laws", check_monad_laws(bundle, budget)),
        ("bimonad_laws", check_bimonad_laws(bundle, budget)),
        ("hopf_laws", check_hopf(bundle, budget)),
        ("trace_coherence", check_trace_coherence(bundle, budget)),
        ("traced_monad", check_traced_monad(bundle, budget)),
        ("module_traces", verify_representable_coherence(bundle, budget)),
    ]
    return suites, {}, f"group of order {len(table.elements)}"


def _run_two_traces(config: RunConfig):
    bundle = bounded_poset_two_traces()
    budget = config.budget()
    wit = two_trace_distinctness_witness(bundle)
    suites = [
        ("trace_axioms_lfp", check_trace_axioms(bundle.lfp, budget)),
        ("trace_axioms_gfp", check_trace_axioms(bundle.gfp, budget)),
        ("trace_axioms_pair", check_trace_axioms(bundle.product, budget)),
    ]
    facts = {"distinct": wit["distinct"],
             "lfp_trace": wit["lfp_trace"].payload,
             "gfp_trace": wit["gfp_trace"].payload}
    detail = ("feedback of the diagonal map: ascending trace lands on bot, "
              "descending on top")
    return suites, facts, detail


def _run_diagonal(config: RunConfig):
    report = diagonal_preservation_check(config.budget())
    canonical = two_trace_distinctness_witness(bounded_poset_two_traces())
    facts = dict(report.findings, first_failure_at_canonical_witness=bool(
        report.failures) and report.failures[0].inputs["f"] == canonical["f"])
    return ([("diagonal_preservation", report)], facts,
            "the diagonal cannot preserve both traces at once")


def _run_pfn_exception(config: RunConfig):
    model = pfn_model()
    budget = config.budget(max_size=min(config.max_size, 2))
    small = config.budget(max_size=1)
    err = exception_bimonad(model, label_set("err"))
    suites = [
        ("bimonad_laws_empty",
         check_bimonad_laws(exception_bimonad(model, label_set()), budget)),
        ("corollary_identity",
         cocartesian_corollary_check(identity_hopf_bundle(model), small)),
        ("bimonad_laws_err", check_bimonad_laws(err, budget)),
        ("corollary_err",
         cocartesian_corollary_check(hopf_from_bimonad(err, small)[0], small)),
    ]
    identity, pseudo = suites[1][1].findings, suites[3][1].findings
    facts = {"identity_corollary_agrees": identity.get("corollary_agrees"),
             "err_corollary_applicable": pseudo.get("corollary_applicable"),
             "err_idempotent": pseudo.get("idempotent")}
    detail = ("the nonempty exception wrapper fails the comonoidal counit "
              "law on its error element, so the initial-unit biconditional "
              "does not apply to it")
    return suites, facts, detail


def _mutate_hl_inv(bundle):
    """Perturb one entry of the fusion inverse (a deliberately broken bundle)."""
    model = bundle.model

    def bad_hl_inv(A, B):
        good = bundle.hl_inv(A, B)
        rows = [list(r) for r in dense_rows(good)]
        if rows and rows[0]:
            rows[0][0] = rows[0][0] + 1
        return model.morphism(good.dom, good.cod, rows)

    return replace(bundle, hl_inv=bad_hl_inv)


# bundle constructors; a run builds only the bundle it names
_BUNDLES = {
    "identity:mat": lambda: identity_hopf_bundle(mat_model()),
    "identity:fincppo": lambda: identity_hopf_bundle(fincppo_model()),
    "identity:pfn": lambda: identity_hopf_bundle(pfn_model()),
    "n": n_monad,
    "qc2": lambda: _group_bundle("c2")[-1],
    "qs3": lambda: _group_bundle("s3")[-1],
    "qc2-mutated": lambda: _mutate_hl_inv(_group_bundle("c2")[-1]),
}


def _run_mainthm(config: RunConfig, bundle_name):
    bundle = _BUNDLES[bundle_name]()
    size = min(config.max_size, 2 if bundle_name.startswith("qs3") else 3)
    if bundle.model.name in ("fin_cppo", "pfn"):
        size = min(size, 2)
    report = crosscheck_main_theorem(bundle, config.budget(max_size=size))
    detail = (f"traced side {report.findings['traced_side']}, "
              f"coherent side {report.findings['coherent_side']}")
    return [("mainthm_crosscheck", report)], report.findings, detail


def _run_trace_meta(bundle_name, want):
    report = trace_meta_check(_BUNDLES[bundle_name]())
    return ([("trace_meta", report)], report.findings,
            f"equation holds: {report.findings['holds']} (expected {want})")


_LAW_MODELS = {
    "mat": lambda: mat_model(crosscheck_trace=True),
    "zle": int_poset_model,
    "fincppo": fincppo_model,
    "bposet-lfp": lambda: bounded_poset_two_traces().lfp,
    "bposet-gfp": lambda: bounded_poset_two_traces().gfp,
    "bposet-pair": lambda: bounded_poset_two_traces().product,
    "pfn": pfn_model,
}


def _run_laws(config: RunConfig, model_name):
    model = _LAW_MODELS[model_name]()
    exhaustive = model_name in ("zle",)
    budget = config.budget()
    suites = [("monoidal_laws",
               check_monoidal_laws(model, budget, exhaustive=exhaustive))]
    if model.traced:
        suites.append(("trace_axioms",
                       check_trace_axioms(model, budget, exhaustive=exhaustive)))
    if model.compact:
        suites.append(("snake_equations", check_snake(model, budget)))
    if model.cartesian and model.has_conway:
        suites.append(("conway_axioms", check_conway_axioms(model, budget)))
        suites.append(("conway_trace_roundtrip",
                       check_conway_trace_roundtrip(model, budget)))
    return suites, {}, f"capabilities of {model.name}"


def _group_row(group, note):
    return Scenario(f"group-algebra:{group}", note,
                    lambda cfg: _run_group_algebra(cfg, group))


SCENARIOS = {row.name: row for row in [
    Scenario("z-not-hopf",
             "integer truncation monad: traced and idempotent, fusion "
             "operator not invertible (pinned pair (-2, 1): objects 0 vs 1)",
             _run_z_not_hopf,
             {"paper_pair_objects": (0, 1), "paper_pair_inverts": False,
              "smallest_failing_pair": (-1, 1), "idempotent": True}),
    Scenario("sierpinski-meet",
             "two-point lattice with meet: traced monad both ways, yet no "
             "antipode exists, so it is not a Hopf monad",
             _run_sierpinski_meet, {"antipodes": []}),
    Scenario("sierpinski-join",
             "two-point lattice with join: fine symmetric bimonad whose fixed "
             "point of the feedback projection breaks the module law (bot vs "
             "top)",
             _run_sierpinski_join,
             {"traced_monad": "fail", "traced_via_fix": "fail",
              "fix_is_constant_bottom": True, "violated": True,
              "lhs_at_top_top": "bot", "rhs_at_top_top": "top"}),
    _group_row("c2", "rational group algebra of the 2-element group: "
                     "trace-coherent Hopf monad; module traces stay module "
                     "maps"),
    _group_row("s3", "rational group algebra of the permutation group on 3 "
                     "letters: same conclusions in a noncommutative case"),
    Scenario("two-traces",
             "bounded posets carry both an ascending and a descending trace; "
             "both satisfy every axiom, and they disagree on the diagonal map",
             _run_two_traces,
             {"distinct": True, "lfp_trace": (0,), "gfp_trace": (1,)}),
    Scenario("diagonal-nonpreservation",
             "the pointwise pair of the two traces is a trace the diagonal "
             "functor cannot preserve",
             _run_diagonal,
             {"diagonal_preservation": "fail",
              "canonical_witness_separates": True,
              "first_failure_at_canonical_witness": True}),
    Scenario("pfn-exception",
             "exception wrapper on partial functions: computed verdicts; the "
             "nonempty case is not even a bimonad, the empty case is the "
             "identity monad and satisfies the initial-unit biconditional",
             _run_pfn_exception,
             {"bimonad_laws_err": "fail", "identity_corollary_agrees": True,
              "err_corollary_applicable": False, "err_idempotent": False}),
    *(Scenario(f"mainthm-crosscheck:{bn}",
               "both characterisations of trace lifting must agree"
               + (" (deliberately broken fusion inverse: both fail)"
                  if side == "fail" else ""),
               lambda cfg, bn=bn: _run_mainthm(cfg, bn),
               {"agree": True, "traced_side": side, "coherent_side": side})
      for bn, side in (("identity:mat", "pass"), ("identity:fincppo", "pass"),
                       ("identity:pfn", "pass"), ("qc2", "pass"),
                       ("qs3", "pass"), ("qc2-mutated", "fail"))),
    *(Scenario(f"trace-meta:{bn}",
               "the traced comultiplication loop at the unit equals the unit "
               "map exactly for the idempotent bundles",
               lambda cfg, bn=bn, holds=holds: _run_trace_meta(bn, holds),
               {"trace_meta": "pass" if holds else "fail", "holds": holds})
      for bn, holds in (("identity:mat", True), ("identity:fincppo", True),
                        ("n", True), ("qc2", False), ("qs3", False))),
    *(Scenario(f"laws:{mn}", "all law suites the model's capabilities admit",
               lambda cfg, mn=mn: _run_laws(cfg, mn))
      for mn in sorted(_LAW_MODELS)),
]}


def run_scenario(name, config: RunConfig):
    """Run one scenario; ``group-algebra:<path>`` runs a group table file,
    every suite expected to pass."""
    scenario = SCENARIOS.get(name)
    if scenario is None and name.startswith("group-algebra:"):
        scenario = _group_row(name.split(":", 1)[1], "a group table file")
    if scenario is None:
        raise UsageError(f"unknown scenario {name!r}; see 'tracedcat list'")
    suites, facts, detail = scenario.run(config)
    verdicts = {n: rep.verdict for n, rep in suites}
    observed = {**facts, **verdicts}
    expect = scenario.expect
    ok = (all(v == expect.get(n, "pass") for n, v in verdicts.items())
          and all(k in observed and observed[k] == v
                  for k, v in expect.items()))
    return {
        "scenario": name,
        "config": {"seed": config.seed, "cases": config.cases,
                   "max_size": config.max_size},
        "suites": [serialize_report(rep) for _, rep in suites],
        "suite_names": [n for n, _ in suites],
        "detail": detail,
        "expected_match": ok,
    }


def format_report(payload, fmt):
    if fmt == "json":
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    lines = [f"scenario: {payload['scenario']}",
             f"config: seed={payload['config']['seed']} "
             f"cases={payload['config']['cases']} "
             f"max-size={payload['config']['max_size']}"]
    for name, rep in zip(payload["suite_names"], payload["suites"]):
        lines.append(f"  [{rep['verdict']:^12}] {name} "
                     f"({rep['cases_run']} cases)")
        for fl in rep["failures"]:
            lines.append(f"      witness[{fl['law']}]: {fl['witness']}")
        if rep["findings"]:
            lines.append(f"      findings: {rep['findings']}")
    lines.append(f"detail: {payload['detail']}")
    lines.append("expected_match: " + ("yes" if payload["expected_match"]
                                       else "NO"))
    return "\n".join(lines) + "\n"


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="tracedcat",
        description="replay the traced-monad scenarios and law suites")
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run one scenario")
    runp.add_argument("scenario")
    runp.add_argument("--seed", type=int, default=0)
    runp.add_argument("--cases", type=_positive_int, default=100)
    runp.add_argument("--max-size", type=_positive_int, default=3)
    runp.add_argument("--out", default=None)
    runp.add_argument("--format", choices=("json", "text"), default="text")
    sub.add_parser("list", help="list scenarios with their notes")

    args = parser.parse_args(argv)
    if args.command == "list":
        for name in sorted(SCENARIOS):
            print(f"{name:36s} {SCENARIOS[name].note}")
        return 0

    config = RunConfig(seed=args.seed, cases=args.cases,
                       max_size=args.max_size)
    try:
        payload = run_scenario(args.scenario, config)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    text = format_report(payload, args.format)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as err:
            print(f"error: cannot write {args.out}: {err.strerror or err}",
                  file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0 if payload["expected_match"] else 1


if __name__ == "__main__":
    sys.exit(main())
