import hashlib
import itertools
import json
import operator
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from tracedcat import eilenberg_moore
from tracedcat.cli import (SCENARIOS, RunConfig, format_report, load_group,
                           main, run_scenario, serialize_morphism,
                           serialize_report)
from tracedcat.core import UsageError
from tracedcat.hopf_monoid import group_algebra, group_representations
from tracedcat.laws import (CaseBudget, CheckReport, Recorder,
                            check_trace_axioms)
from tracedcat.model_iter import pfn_model
from tracedcat.monads import identity_hopf_bundle
from tracedcat.model_linear import mat_model

ROOT = Path(__file__).resolve().parent.parent


def test_list_scenarios(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in ("z-not-hopf", "sierpinski-join", "two-traces",
                 "diagonal-nonpreservation", "pfn-exception",
                 "group-algebra:c2", "mainthm-crosscheck:qc2",
                 "trace-meta:n", "laws:mat"):
        assert name in out


def test_run_z_not_hopf_json(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = main(["run", "z-not-hopf", "--seed", "1", "--cases", "25",
               "--max-size", "6", "--format", "json", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["scenario"] == "z-not-hopf"
    assert payload["config"] == {"seed": 1, "cases": 25, "max_size": 6}
    assert payload["expected_match"] is True
    assert {s["verdict"] for s in payload["suites"]} == {"pass"}


def test_reports_byte_identical(tmp_path):
    cfg = RunConfig(seed=4, cases=20, max_size=3)
    one = format_report(run_scenario("two-traces", cfg), "json")
    two = format_report(run_scenario("two-traces", cfg), "json")
    assert one == two


def test_repeated_passes_are_byte_identical():
    # finite objects are interned process-wide and shared by every model
    # instance, so a second pass with fresh models must see the same bytes
    def law_pass():
        report = check_trace_axioms(pfn_model(), CaseBudget(0, 60, 2),
                                    exhaustive=True)
        return json.dumps(serialize_report(report))

    def scenario_pass():
        return format_report(run_scenario("sierpinski-join",
                                          RunConfig(0, 60, 3)), "json")

    for one_pass in (law_pass, scenario_pass):
        assert one_pass() == one_pass()


# sha256 of each JSON report at RunConfig(seed=0, cases=20, max_size=2);
# a change that alters any of these reports must re-pin it deliberately.
# Every scenario is pinned except group-algebra:s3, which takes about 3 s.
PINNED_REPORTS = {
    "diagonal-nonpreservation": "eb598fb51d9b62c2dc75bfd7de66362da798df1494b005445d35465f60615f4f",
    "group-algebra:c2": "61cf893de2584abc3b7246bafc52a5326b7ecb3cca9f9b4ee3a654994589d297",
    "laws:bposet-gfp": "5d47d762d55bab0c24dd9c8c77a4782a88fa5558ce9ecbaaead35cc738900e8c",
    "laws:bposet-lfp": "03d03ce57d81d4aac35ef5b85deb200ef926003716b6d21035ccab7e8c2c4872",
    "laws:bposet-pair": "6fb5b6825303934f25e84de40dff35e6d2787d9f586f1f92f141cae93f2e8ec4",
    "laws:fincppo": "63259ee47484cce98fcf5f473797e25d1ac86a85287f8f13280434a6a250cf4c",
    "laws:mat": "f3f6b61ef488b1eef6fd037c5d6df68d643441737943decd9f55ea4c93c54ba9",
    "laws:pfn": "23d461ca84fb80472978ace29d27d2c51c93d51ab76320eef278f71ea30bef31",
    "laws:zle": "ea446c61f45550ef5bbd8989617d0c48ea4296ad71f66dcdf6b0e9f081993e31",
    "mainthm-crosscheck:identity:fincppo": "8c40241077318390f0ea591e9bb5a8a34826acd4f8a4fa59b6d21ba076bca541",
    "mainthm-crosscheck:identity:mat": "79d276627e7a878f4a975fe4ee5e97f7aa3845130948194101f8dab944741780",
    "mainthm-crosscheck:identity:pfn": "1488932762a61b9e08a0a32bccd3e21c535d3024fb1a696217f110dab6f3f8ba",
    "mainthm-crosscheck:qc2": "63d9769ba1efb28cf9568dea8f1211afd63819046164738319ea4e75cff95db8",
    "mainthm-crosscheck:qc2-mutated": "2c617991204e55aecc9a0a77e90f87ccaeae73d4f984ce99e6e5d5f042f4fb6e",
    "mainthm-crosscheck:qs3": "ebb5652a37216742a1af39bb74612310e643e6015f61b7577d22719f3ee01d4f",
    "pfn-exception": "6876236e461d5cf90c7bd1c19c7386dc376684de70e87b84cb641d392fced8b5",
    "sierpinski-join": "f95ec80f5da81a788540f47aee76d80615fda8bee6ef83e54c669d874e49038f",
    "sierpinski-meet": "70aafab37bbe3626e4faaaad2d20241b35c2cc6952cda746b13b97d0fa7f47a0",
    "trace-meta:identity:fincppo": "6308f4a5673440b18eacbcf18437422e576706e988c5f0296a267ad2c728c99d",
    "trace-meta:identity:mat": "4c582481cf5c2e1040b0c12888eb0127b8a61a9d74fcef4aaf4abd73fe82ffd9",
    "trace-meta:n": "b4cf286c93f032a83700cb02dbf6ac56689126e4167613fd22c5fa4a169173bc",
    "trace-meta:qc2": "6466c1fd14a8ecf3cc0ccfc0e124e30c12a6493b2f7650309f4c36ba25196969",
    "trace-meta:qs3": "8ad0cf30b247007a98fa40ad3d2210108d1a57cf373b7471bc6c29030cfc17a1",
    "two-traces": "f047f11373b7f1558ea7cdf91e44e72f0fb94f64f385fa5e0b46802d613695ad",
    "z-not-hopf": "e6e750f3e53ec57a9acc828330975a7b7f4691cddbc02dc229dac31df423668e",
}


def test_reports_match_pinned_digests():
    assert set(PINNED_REPORTS) | {"group-algebra:s3"} == set(SCENARIOS)
    cfg = RunConfig(seed=0, cases=20, max_size=2)
    digests = {name: hashlib.sha256(
                   format_report(run_scenario(name, cfg), "json").encode()
               ).hexdigest() for name in PINNED_REPORTS}
    assert digests == PINNED_REPORTS


def test_a_nested_failure_serialises_as_a_failure(monkeypatch, fincppo):
    # a cross-check disagreement keeps each side's first Failure in its
    # witness; it serialises with the keys of a report's own failures
    bundle = identity_hopf_bundle(fincppo)
    A = fincppo.enumerate_objects(2)[-1]
    hom = fincppo.enumerate_hom(A, A)
    f, g = hom[0], hom[1]
    rec = Recorder(fincppo)
    assert not rec.check("trace_coherence", {"f": f}, f, g)

    def failing(hopf, budget):
        return CheckReport(f"trace_coherence[{hopf.name}]", fincppo.name, 1,
                           "fail", rec.failures)

    monkeypatch.setattr(eilenberg_moore, "check_trace_coherence", failing)
    report = eilenberg_moore.crosscheck_main_theorem(bundle,
                                                     CaseBudget(0, 10, 2))
    assert report.verdict == "fail"
    payload = json.loads(json.dumps(serialize_report(report)))
    nested = payload["failures"][0]["witness"]["coherence_failures"][0]
    assert nested == {"law": "trace_coherence",
                      "witness": {"f": serialize_morphism(f)},
                      "lhs": serialize_morphism(f),
                      "rhs": serialize_morphism(g)}
    assert set(payload["failures"][0]) == set(nested)


def test_run_config_budget_rejects_size_zero():
    # 0 is a size, not "none given": it fails as CaseBudget's does
    with pytest.raises(ValueError):
        CaseBudget(seed=0, max_object_size=0)
    with pytest.raises(ValueError):
        RunConfig().budget(max_size=0)
    assert RunConfig().budget(max_size=2).max_object_size == 2


def test_unknown_scenario_exit_code(tmp_path, capsys):
    assert main(["run", "does-not-exist"]) == 2
    assert "unknown scenario" in capsys.readouterr().err
    # unreadable input files and an unwritable --out are usage errors too,
    # not verdict mismatches
    latin1 = tmp_path / "latin1.group"
    latin1.write_bytes(b"elements: \xe9\n")
    missing = tmp_path / "missing.group"
    for argv, named in (
            (["run", f"group-algebra:{missing}"], missing),
            (["run", f"group-algebra:{tmp_path}"], tmp_path),
            (["run", f"group-algebra:{latin1}"], latin1),
            (["run", "trace-meta:n", "--out", str(missing / "report.txt")],
             missing)):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(named) in err


def test_out_of_range_budget_exit_code(capsys):
    for option in ("--max-size", "--cases"):
        with pytest.raises(SystemExit) as exc:
            main(["run", "laws:fincppo", option, "0"])
        assert exc.value.code == 2
        assert f"argument {option}: must be >= 1" in capsys.readouterr().err


def test_scenario_table_rejects_empty_budgets(monkeypatch, capsys):
    # the script's exit status counts mismatches, so a bad option is not one
    monkeypatch.setattr("sys.argv",
                        ["run_all_scenarios.py", "--max-size", "0"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(ROOT / "scripts" / "run_all_scenarios.py"),
                       run_name="__main__")
    assert exc.value.code == 2
    assert "argument --max-size: must be >= 1" in capsys.readouterr().err


def test_scenario_table_reproduces_at_size_one(monkeypatch, capsys):
    # sierpinski-join floors its size at 2, where its witness lives
    monkeypatch.setattr("sys.argv", ["run_all_scenarios.py", "--max-size",
                                     "1", "--cases", "20"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(ROOT / "scripts" / "run_all_scenarios.py"),
                       run_name="__main__")
    assert exc.value.code == 0, capsys.readouterr().out
    # and mainthm-crosscheck:qs3 runs at the size asked for, up to 2
    cases = [run_scenario("mainthm-crosscheck:qs3",
                          RunConfig(seed=5, cases=5, max_size=size))
             ["suites"][0]["cases_run"] for size in (1, 2, 3)]
    assert cases == [56, 112, 112]


def test_ab_passes_compares_the_repo_with_itself():
    # one round of the smallest workload: both sides give the same records
    # (the script asserts it) and one JSON line with each side's numbers
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "ab_passes.py"), str(ROOT),
         str(ROOT), "poset-exhaustive", "1"], capture_output=True, text=True,
        check=True, timeout=300)
    summary = json.loads(done.stdout)
    assert (summary["workload"], summary["rounds"]) == ("poset-exhaustive", 1)
    for side in ("parent", "change"):
        assert len(summary[side]["cpu_s"]) == 1
        assert summary[side]["median_cpu_s"] > 0
    assert summary["parent"]["won"] + summary["change"]["won"] <= 1
    # one profiled pass per process: the same code makes the same calls
    assert summary["parent"]["calls"] == summary["change"]["calls"] > 0
    assert summary["calls_change_vs_parent"] == 0


_AB_METRICS = [{"name": "verdict_s", "better": "lower", "bound": 0.25},
               {"name": "cases_per_s", "better": "higher", "bound": 0.25}]
_AB_PARENT = [1.0, 1.1, 0.9, 1.0, 1.05, 0.95, 1.0, 1.0, 1.02, 0.98]


@pytest.mark.parametrize("verdict_s, claim", [
    ([1.2] + [0.6 * t for t in _AB_PARENT[1:]], True),   # won 9 of 10
    ([1.2, 1.2] + [0.6 * t for t in _AB_PARENT[2:]], False),  # won 8
    ([t - 0.02 for t in _AB_PARENT], False),   # won 10, gain < IQR 0.03
    ([t - 0.04 for t in _AB_PARENT], True)],
    ids=["won-9", "won-8", "inside-iqr", "beyond-iqr"])
def test_ab_bench_summary_applies_the_claim_rule(verdict_s, claim):
    summarize = runpy.run_path(
        str(ROOT / "scripts" / "ab_bench.py"))["summarize"]
    parent = [{"verdict_s": t, "cases_per_s": 100.0} for t in _AB_PARENT]
    change = [{"verdict_s": t, "cases_per_s": 100.0} for t in verdict_s]
    s = summarize(parent, change, _AB_METRICS)["verdict_s"]
    assert s["claim"] is claim and s["within_bound"]
    assert (s["parent"]["median"], s["parent"]["q1"]) == (1.0, 0.985)
    assert s["parent"]["won"] + s["change"]["won"] <= len(_AB_PARENT)
    # cases_per_s tied in every pair: no win, no claim, no change
    s = summarize(parent, change, _AB_METRICS)["cases_per_s"]
    assert (s["parent"]["won"], s["change"]["won"], s["claim"],
            s["change_vs_parent"], s["within_bound"]) == (0, 0, False, 0,
                                                          True)


@pytest.mark.parametrize("factor, within", [(1.24, True), (1.26, False)])
def test_ab_bench_summary_applies_each_bound_in_its_direction(factor,
                                                              within):
    summarize = runpy.run_path(
        str(ROOT / "scripts" / "ab_bench.py"))["summarize"]
    parent = [{"verdict_s": 1.0, "cases_per_s": 100.0}] * 3
    change = [{"verdict_s": factor, "cases_per_s": 100.0 * (2 - factor)}] * 3
    out = summarize(parent, change, _AB_METRICS)
    for name in ("verdict_s", "cases_per_s"):
        assert out[name]["within_bound"] is within
        assert (out[name]["parent"]["won"], out[name]["change"]["won"]) == (
            3, 0)
        assert not out[name]["claim"]
    assert out["verdict_s"]["change_vs_parent"] == pytest.approx(factor - 1)


@pytest.mark.parametrize("verdict, facts", [("fail", {"answer": 42}),
                                             ("pass", {"answer": 41})],
                         ids=["suite-verdict-differs", "fact-differs"])
def test_verdict_mismatch_exits_nonzero(monkeypatch, capsys, verdict, facts):
    import tracedcat.cli as cli
    from tracedcat.laws import CheckReport

    def fake(config):
        return [("stub", CheckReport("stub", "mat", 1, verdict))], facts, "forced"

    monkeypatch.setitem(cli.SCENARIOS, "stub",
                        cli.Scenario("stub", "synthetic mismatch", fake,
                                     {"answer": 42}))
    assert main(["run", "stub"]) == 1
    assert "expected_match: NO" in capsys.readouterr().out


def test_expected_failure_scenarios_report_cleanly():
    cfg = RunConfig(seed=0, cases=15, max_size=3)
    payload = run_scenario("sierpinski-join", cfg)
    assert payload["expected_match"] is True
    verdicts = {n: s["verdict"]
                for n, s in zip(payload["suite_names"], payload["suites"])}
    assert verdicts["traced_via_fix"] == "fail"
    payload = run_scenario("diagonal-nonpreservation", cfg)
    assert payload["expected_match"] is True


def test_load_group(tmp_path):
    path = tmp_path / "c2.group"
    path.write_text("elements: e s  # the group of order two\n"
                    "mul: e e e\nmul: e s s\nmul: s e s\nmul: s s e  # s*s\n")
    table = load_group(str(path))
    assert table.identity_label == "e"
    assert table.inverse("s") == "s"

    junk = tmp_path / "junk.group"
    for text, error in (
            (b"elements: e\nmull e e e\n", "junk.group:2: unrecognized line"),
            (b"elements: e\nmul: e e\n", "junk.group:2: 'mul:' wants 3"),
            (b"# no elements\nmul: e e e\n", "junk.group: missing"),
            (b"elements: \xff\n", "junk.group: not UTF-8 text")):
        junk.write_bytes(text)
        with pytest.raises(UsageError, match=error):
            load_group(str(junk))
    with pytest.raises(UsageError, match="absent.group: cannot read"):
        load_group(str(tmp_path / "absent.group"))

    bad = tmp_path / "noassoc.group"
    els = "eabcd"
    square = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3],
              [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]
    lines = ["elements: " + " ".join(els)]
    for i in range(5):
        for j in range(5):
            lines.append(f"mul: {els[i]} {els[j]} {els[square[i][j]]}")
    bad.write_text("\n".join(lines) + "\n")
    with pytest.raises(UsageError, match="associativity fails on triple"):
        load_group(str(bad))

    # a product given twice is an error in either order, naming both lines
    for first, second in (("s s s", "s s e"), ("s s e", "s s s")):
        dup = tmp_path / "dup.group"
        dup.write_text(f"elements: e s\nmul: e e e\nmul: e s s\n"
                       f"mul: s e s\nmul: {first}\nmul: {second}\n")
        with pytest.raises(UsageError, match=r"dup.group:6: product s\*s is "
                                             r"already given at line 5"):
            load_group(str(dup))
    dup.write_text("elements: e s\nelements: e s\n")
    with pytest.raises(UsageError, match="dup.group:2: second 'elements:'"):
        load_group(str(dup))

    # a product of labels missing from 'elements:' is an error too
    extra = tmp_path / "extra.group"
    extra.write_text(path.read_text() + "mul: q q q\n")
    with pytest.raises(UsageError, match="extra.group:6: 'q' is not in the "
                                         "'elements:' line"):
        load_group(str(extra))


def test_group_algebra_scenario_accepts_file(tmp_path):
    path = tmp_path / "c2.group"
    path.write_text("elements: e s\n"
                    "mul: e e e\nmul: e s s\nmul: s e s\nmul: s s e\n")
    cfg = RunConfig(seed=5, cases=20, max_size=2)
    payload = run_scenario(f"group-algebra:{path}", cfg)
    assert payload["expected_match"] is True


_PERMS = list(itertools.permutations(range(3)))

# every group of order at most 6: (order, product of element indices), with
# index 0 the identity
SMALL_GROUPS = {
    **{f"c{n}": (n, lambda i, j, n=n: (i + j) % n) for n in range(1, 7)},
    "v4": (4, operator.xor),
    "s3": (6, lambda i, j: _PERMS.index(tuple(_PERMS[i][k]
                                              for k in _PERMS[j]))),
}


@pytest.mark.parametrize("labels", ["letters", "digits"])
@pytest.mark.parametrize("group", sorted(SMALL_GROUPS))
def test_group_files_of_small_groups(tmp_path, group, labels):
    # labels are names only: letters list the identity last, and one-hot
    # digit strings make it 10..0 (for c2, the file 'elements: 10 01')
    n, product = SMALL_GROUPS[group]
    if labels == "letters":
        label = [chr(ord("z") - k) for k in range(n)]
        order = label[::-1]
    else:
        label = ["".join("1" if i == k else "0" for i in range(n))
                 for k in range(n)]
        order = label
    path = tmp_path / f"{group}.group"
    path.write_text("\n".join(
        [f"elements: {' '.join(order)}"]
        + [f"mul: {label[i]} {label[j]} {label[product(i, j)]}"
           for i, j in itertools.product(range(n), repeat=2)]) + "\n")
    table = load_group(str(path))
    assert table.identity_label == label[0]
    assert all(table.mul[(g, table.inverse(g))] == label[0]
               for g in table.elements)
    assert group_algebra(mat_model(), table)[1].passed
    # the sign of h |-> gh is trivial exactly when that permutation is even
    # for every g
    assert ("sign" in group_representations(table)) == (
        group in ("c2", "c4", "c6", "s3"))
    payload = run_scenario(f"group-algebra:{path}", RunConfig(0, 5, 1))
    assert payload["expected_match"] is True


def test_shipped_sample_inputs_and_scripts(monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    cfg = RunConfig(seed=0, cases=20, max_size=2)
    payload = run_scenario("group-algebra:scripts/sample_inputs/c2.group", cfg)
    assert payload["expected_match"] is True

    monkeypatch.setattr("sys.argv", ["explore_fusion_witnesses.py",
                                     "--window", "2"])
    runpy.run_path("scripts/explore_fusion_witnesses.py",
                   run_name="__main__")
    assert "smallest failing pair by size: (-1, 1)" in capsys.readouterr().out
