"""Smoke test of the benchmark harness at tiny sizes (about half a minute):

    python3 -m pytest -q bench/tests

It runs every workload name with a small stand-in input, traced and
untraced, and checks that every workload and metric that BENCHMARK.json
declares is emitted, and that a corrupted output counts as a failure.
"""

import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

import run  # noqa: E402
import tracer  # noqa: E402

Q3 = "356d2a42b87a923a9f2b091a9ab2a9adc512dab0a05c50fc04e4dbcc51bd7a61"
TINY = {w.name: w for w in (
    run.Workload("scan", ("verify", "--q", "3", "--depth-bound", "3"), Q3,
                 round_trips=5),
    run.Workload("roundtrip", ("verify", "--q", "3", "--round-trips", "5"),
                 Q3, round_trips=5, seeded=True),
    run.Workload("spectral", ("verify", "--q", "3", "--degree-bound", "1"),
                 "fc184fa4942a4d4c7d36b82bcb4bdca34b281bdef2690cc53b982b51be675bb2",
                 round_trips=5),
    run.Workload("census", ("census", *run.census_grid(63, max_q=3)),
                 "5fe6dc880aaac71e6ed9810487d1aa7da2675f6b81f455c07966a027270e0781"),
)}


@pytest.fixture
def declared():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(run, "WORKLOADS", TINY)


def last_line(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_declarations_match_the_harness(declared):
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)
    assert [m["name"] for m in declared["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in declared["per_layer"]] == list(run.PER_LAYER)
    for m in declared["end_to_end"]:
        assert m["unit"] == run.END_TO_END[m["name"]]
    for m in declared["per_layer"]:
        assert (m["unit"], m["better"]) == run.PER_LAYER[m["name"]][:2]


def test_every_declared_metric_is_emitted(declared, tiny, capsys):
    assert run.main(["--workload", "all", "--seed", "3", "--seconds", "0"]) == 0
    line = last_line(capsys)
    assert line["correct"] and line["failed"] == 0
    for w in declared["workloads"]:
        for m in declared["end_to_end"] + declared["per_layer"]:
            key = f"{w['name']}.{m['name']}"
            assert key in line["metrics"], key
            assert line["metrics"][key]["unit"] == m["unit"]
    for w in declared["workloads"]:
        assert line["metrics"][f"{w['name']}.wall_s"]["value"] > 0
        assert line["metrics"][f"{w['name']}.fail_frac"]["value"] == 0


def test_corrupted_output_counts_as_failed(tiny, monkeypatch, capsys):
    spawn = run.spawn

    def corrupting(*args, **kwargs):
        sample = spawn(*args, **kwargs)
        sample["stdout"] = sample["stdout"].replace(
            b'"all_claims_ok":true', b'"all_claims_ok":false')
        return sample

    monkeypatch.setattr(run, "spawn", corrupting)
    assert run.main(["--workload", "scan", "--seconds", "0",
                     "--trace", "1"]) == 1
    line = last_line(capsys)
    assert not line["correct"]
    assert line["attempted"] == 2 and line["failed"] == 2
    assert line["metrics"]["fail_frac"]["value"] == 1.0


def test_check_output_names_each_broken_claim():
    assert run.check_output(TINY["scan"], b"not json\n")
    report = {"all_claims_ok": False, "round_trips": {"count": 4, "seed": 1},
              "witness_uniqueness": [{"place": "t+1", "cosets": 4,
                                      "witnesses": 3}]}
    problems = run.check_output(TINY["scan"], json.dumps(report).encode())
    assert problems == [
        "all_claims_ok is not true",
        "3 witnesses for 4 cosets at t+1",
        "4 round trips, want 5",
        "output differs from the reference",
    ]
    assert "0 lines, want irreps/chi pairs" in run.check_output(
        TINY["census"], b"")


def test_slowdown_is_the_harmonic_mean_over_the_reference():
    ref = run.PROBE_REF_S
    probes = [[0.0, ref], [1.0, 2 * ref], [2.0, 4 * ref]]
    assert run.slowdown(probes) == pytest.approx(3 / (1 + 1 / 2 + 1 / 4))
    assert run.slowdown(probes, until=1.5) == pytest.approx(4 / 3)
    assert run.slowdown(probes, until=0.0) is None


def test_self_time_subtracts_child_spans():
    dump = {"spans": [["a", 0.0, 10.0, None], ["b", 1.0, 4.0, 0],
                      ["c", 5.0, 6.0, 0], ["b", 7.0, 8.0, None]],
            "counts": {}, "missing": []}
    summary = tracer.summarize(dump)
    assert summary["self_s"] == {"a": 6.0, "b": 4.0, "c": 1.0}
    assert summary["total_s"] == {"a": 10.0, "b": 4.0, "c": 1.0}
    assert [(n["name"], n["calls"]) for n in summary["tree"]] == [
        ("a", 1), ("b", 1)]


def test_tracer_lists_targets_that_are_gone():
    sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
    import tjl.cli  # noqa: F401

    t = tracer.Tracer()
    t._patch("adelic", "no_such_function", lambda fn: fn)
    t._patch("funcfield", "Poly.no_such_method", lambda fn: fn)
    assert t.missing == ["tjl.adelic.no_such_function",
                         "tjl.funcfield.Poly.no_such_method"]
