"""The benchmark's workloads: what one pass runs, and why it was chosen.

A pass returns one record per suite verdict:
``[label, suite, verdict, cases_run, expected_match]``.  Only the run
configuration depends on the workload seed; it reaches the program through
``RunConfig`` and ``CaseBudget`` and nowhere else.
"""

from __future__ import annotations

CASES = 60       # the same defaults as scripts/run_all_scenarios.py
MAX_SIZE = 3

HEAVY_SCENARIOS = ("sierpinski-meet", "group-algebra:s3")

WHY = {
    "poset-exhaustive":
        "exhaustive traced-monad check of sierpinski-meet: 1.9M algebra "
        "morphisms traced, monotone-table and module-morphism enumerators",
    "exact-linear":
        "group-algebra:s3: exact Fraction matrix work in model_linear under "
        "verify_representable_coherence, no exhaustive enumeration",
    "law-exhaustive":
        "exhaustive trace-axiom and monoidal-law drivers on pfn (size 2) and "
        "int_poset (size 6): 3.0M tensor_obj calls, no bundles",
    "scenario-sweep":
        "the other 24 registered scenarios, sampled law and Eilenberg-Moore "
        "checks: the bypass workload for every exhaustive hot path",
}

# Spans the traced run must see called at least once on each workload: the
# layers the benchmark's interaction list says each workload moves.
EXPECTED_SPANS = {
    "poset-exhaustive": (
        "cli.run_scenario", "cli.serialize_report", "core.trace",
        "core.tensor_obj", "model_order.enumerate_hom", "model_order.fix",
        "eilenberg_moore.check_traced_monad",
        "eilenberg_moore.check_traced_via_fix",
        "eilenberg_moore.enumerate_algebra_morphisms",
        "eilenberg_moore.algebra_pool", "eilenberg_moore.algebra_tensor",
        "hopf_monoid.antipode_search", "hopf_monoid.validate_hopf_monoid"),
    "exact-linear": (
        "cli.run_scenario", "cli.serialize_report", "core.trace",
        "model_linear.smat_mul", "model_linear.smat_kron",
        "model_linear.dense_mul",
        "hopf_monoid.verify_representable_coherence",
        "hopf_monoid.validate_hopf_monoid", "hopf_monoid.group_hopf_bundle",
        "monads.check_hopf", "eilenberg_moore.check_trace_coherence",
        "eilenberg_moore.check_traced_monad"),
    "law-exhaustive": (
        "core.trace", "core.tensor_obj", "core.compose", "core.tensor",
        "core.mor_eq", "model_iter.enumerate_hom", "model_order.enumerate_hom",
        "laws.check_trace_axioms", "laws.check_monoidal_laws"),
    "scenario-sweep": (
        "cli.run_scenario", "cli.serialize_report", "laws.check_trace_axioms",
        "laws.check_monoidal_laws", "laws.check_snake",
        "laws.check_conway_axioms", "laws.check_conway_trace_roundtrip",
        "model_linear.smat_mul", "model_linear.trace_by_cups",
        "hopf_monoid.verify_representable_coherence",
        "hopf_monoid.group_hopf_bundle",
        "eilenberg_moore.is_algebra_morphism",
        "eilenberg_moore.crosscheck_main_theorem",
        "eilenberg_moore.cocartesian_corollary_check",
        "monads.idempotence_suite", "monads.trace_meta_check"),
}


def scenario_names(workload):
    """Registered scenarios a scenario workload runs, in order."""
    from tracedcat.cli import SCENARIOS
    if workload == "scenario-sweep":
        return [n for n in sorted(SCENARIOS) if n not in HEAVY_SCENARIOS]
    return {"poset-exhaustive": ["sierpinski-meet"],
            "exact-linear": ["group-algebra:s3"]}[workload]


def run_pass(workload, seed):
    """One closed-loop pass: each call starts after the previous verdict."""
    from tracedcat.cli import RunConfig, run_scenario
    config = RunConfig(seed=seed, cases=CASES, max_size=MAX_SIZE)
    if workload == "law-exhaustive":
        return _law_pass(config)
    records = []
    for name in scenario_names(workload):
        payload = run_scenario(name, config)
        for suite_name, rep in zip(payload["suite_names"], payload["suites"]):
            records.append([name, suite_name, rep["verdict"],
                            rep["cases_run"], payload["expected_match"]])
    return records


def _law_pass(config):
    from tracedcat import laws
    from tracedcat.model_iter import pfn_model
    from tracedcat.model_order import int_poset_model
    pfn, zle = pfn_model(), int_poset_model()
    calls = [
        ("pfn:2", "trace_axioms", laws.check_trace_axioms, pfn, 2),
        ("pfn:2", "monoidal_laws", laws.check_monoidal_laws, pfn, 2),
        ("int_poset:6", "trace_axioms", laws.check_trace_axioms, zle, 6),
    ]
    records = []
    for label, suite, check, model, size in calls:
        rep = check(model, config.budget(max_size=size), exhaustive=True)
        # every law holds in these models, so pass is the expectation
        records.append([label, suite, rep.verdict, rep.cases_run,
                        rep.verdict == "pass"])
    return records
