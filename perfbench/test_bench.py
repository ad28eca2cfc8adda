"""Tests of the benchmark itself (not part of the library's tier-1 suite).

    PYTHONPATH=src python3 -m pytest -q perfbench/test_bench.py

Run from the root of the checkout.
"""

import json
import os
import sys
import warnings

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import pace  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from fflv import polytope, roots, tiling  # noqa: E402
from fflv.polytope import BoxEscalationWarning  # noqa: E402


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_spec()
    better = {name: b for name, _, b, _ in tracer.COUNTERS}
    for m in spec["per_layer"]:
        assert m["better"] == better.get(m["name"], m["better"])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_two_traced_passes_give_identical_counts(workload):
    one_pass = run.pass_runner(workload, workloads.DEFAULT_SEED)
    counts = []
    for _ in range(2):
        p = one_pass(True)
        assert p.attempted > 0 and p.failures == []
        values, absent = tracer.layer_metrics(p.summary)
        assert absent == []
        counts.append({k: v for k, v in values.items() if not k.endswith("self_s")})
    assert counts[0] == counts[1]
    assert set(tracer.DETERMINISTIC) <= set(counts[0])


def _case(name, fn, want):
    return workloads.Case(name, fn, workloads._expect(name, want))


def _warns():
    warnings.warn(BoxEscalationWarning("touches the box"))
    return 1


def test_raising_warning_and_wrong_cases_fail():
    def boom():
        raise ValueError("bad input")

    cases = [
        _case("right", lambda: 1, 1),
        _case("wrong", lambda: 2, 1),
        _case("raises", boom, 1),
        _case("warns", _warns, 1),
    ]
    _, _, spans, failures = run.run_cases(cases, pace.Pace())
    assert len(spans) == 4
    assert [f.split(":")[0] for f in failures] == ["wrong", "raises", "warns"]
    assert "BoxEscalationWarning" in failures[2]


def test_suite_check_catches_a_changed_report():
    reference = run.load_suite_reference()
    reports = [dict(r, seconds=0.001) for r in reference]
    good = json.dumps(reports)
    assert run.check_suite_output(0, good, "", reference)[1] == []
    reports[3] = dict(reports[3], witnesses=[{"point": [0]}])
    times, failures = run.check_suite_output(0, json.dumps(reports), "", reference)
    assert len(times) == len(reference) and len(failures) == 1
    assert len(run.check_suite_output(1, good, "", reference)[1]) == len(reference)
    assert len(run.check_suite_output(0, good, "warning", reference)[1]) == len(reference)
    assert len(run.check_suite_output(0, good[:-1], "", reference)[1]) == len(reference)


def test_paced_suite_pass_times_every_claim():
    reference = run.load_suite_reference()
    gauge = pace.Pace()
    p = run.suite_pass(reference, False, gauge)
    assert p.failures == []
    assert len(p.spans) == len(reference)
    assert len(gauge.starts) > 2  # samples from inside the command were merged
    assert 0 < gauge.scaled(p.start, p.end)


def test_pace_scales_each_gap_by_its_samples():
    ref = pace.CAL_REF_S
    gauge = pace.Pace()
    gauge.starts, gauge.ends = [0.0, 3.0, 10.0], [1.0, 5.0, 11.0]  # durations 1, 2, 1
    assert gauge.scaled(1.0, 3.0) == pytest.approx(2 * ref / 1.5)
    assert gauge.scaled(0.0, 11.0) == pytest.approx(7 * ref / 1.5)  # samples left out
    assert gauge.scaled(2.0, 4.0) == pytest.approx(ref / 1.5)
    assert gauge.scaled(-2.0, 0.0) == pytest.approx(2 * ref)
    assert gauge.scaled(11.0, 13.0) == pytest.approx(2 * ref)
    assert gauge.merge([(6.0, 7.0), (20.0, 21.0)], 5.0, 10.0) == 1
    assert gauge.starts == [0.0, 3.0, 6.0, 10.0]
    assert gauge.scaled(5.0, 10.0) == pytest.approx(ref / 1.5 + 3 * ref / 1.0)


def test_words_pins_hold_only_for_the_default_seed():
    cases = workloads.words(workloads.DEFAULT_SEED)
    hrep = next(c for c in cases if c.name.startswith("hrep"))
    P = hrep.run()
    assert hrep.check(P) is None
    fewer = polytope.HPolytope(dim=P.dim, rows=P.rows[:-1])
    assert "pinned" in hrep.check(fewer)
    other = next(c for c in workloads.words(7) if c.name.startswith("hrep"))
    assert other.check(other.run()) is None


def test_a_renamed_function_is_reported_absent(monkeypatch):
    original = tiling.lusztig_points
    monkeypatch.delattr(polytope, "lattice_points_auto")
    spans = tracer.Tracer()
    spans.install()
    try:
        assert len(tiling.lusztig_points(roots.ik_word(2, 1), (1, 0))) == 3
    finally:
        spans.uninstall()
    assert tiling.lusztig_points is original
    values, absent = tracer.layer_metrics(spans.summary())
    assert values["tiling.lusztig_points.calls"] == 1
    assert values["polytope.lattice_points_auto.calls"] == 0
    assert "polytope.lattice_points_auto.calls" in absent
    assert "polytope.escalation_rounds" in absent
