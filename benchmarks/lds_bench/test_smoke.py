"""Tier-1 smoke test of lds_bench: every workload at 1/40 of its operation
count, in-process, through the runner's own code path.  Prints to stdout
only; writes nothing inside the repository."""

import importlib
import json

import pytest

from lds_bench import run
from lds_bench.repetition import run_repetition
from lds_bench.trace import SCHEDULE_POINTS, WRAP_POINTS
from lds_bench.workloads import BY_NAME, SPECS

SEED = 7


def spawn_scaled(workload, seed, mode):
    return run_repetition(BY_NAME[workload].scaled(1 / 40), seed, mode)


@pytest.fixture(scope="module")
def contract():
    return run.load_contract()


@pytest.mark.parametrize("name", [spec.name for spec in SPECS])
def test_workload_runs_correct_and_matches_the_contract(name, contract,
                                                        capsys):
    timed = run.run_workload(name, SEED, 0.0, 2, False, spawn=spawn_scaled)
    traced = run.run_workload(name, SEED, 0.0, None, True, spawn=spawn_scaled)
    for result, section in ((timed, "end_to_end"), (traced, "per_layer")):
        assert result["correct"], result["problems"]
        assert result["failed"] == 0 < result["attempted"]
        declared = {metric["name"]: metric["unit"]
                    for metric in contract[section]}
        assert {metric: unit for metric, (_value, unit, _note)
                in result["metrics"].items()} == declared
        run.print_run(result)
        printed = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert set(printed) == {"correct", "attempted", "failed", "metrics"}
        assert set(printed["metrics"]) == set(declared)
    # Two separate runs agree exactly (within the traced run,
    # check_repetitions already compared the timed, traced and telemetry
    # repetitions), and a second traced repetition repeats every span
    # count and size.
    assert traced["repetitions"][0]["exact"] \
        == timed["repetitions"][0]["exact"]
    first = traced["repetitions"][1]["trace"]["points"]
    again = spawn_scaled(name, SEED, "traced")["trace"]["points"]
    assert {point: (totals["calls"], totals["size"])
            for point, totals in first.items()} \
        == {point: (totals["calls"], totals["size"])
            for point, totals in again.items()}
    assert traced["metrics"]["trace.missing_wrap_points"][0] == 0


def test_contract_names_the_workloads(contract):
    assert [(w["name"], w["why"]) for w in contract["workloads"]] \
        == [(spec.name, spec.why) for spec in SPECS]


def test_every_wrap_point_resolves():
    for _layer, module, owner, method, _size in WRAP_POINTS:
        assert method in vars(getattr(importlib.import_module(module), owner))
    for module, owner in SCHEDULE_POINTS:
        assert "schedule_at" in vars(
            getattr(importlib.import_module(module), owner))


def test_different_seeds_give_different_inputs_same_seed_the_same():
    from lds_bench.workloads import generate_inputs

    spec = BY_NAME["write_heavy"]
    assert generate_inputs(spec, 1) == generate_inputs(spec, 1)
    assert generate_inputs(spec, 1) != generate_inputs(spec, 2)
    kinds = [kind for kind, *_ in generate_inputs(spec, 2)[0]]
    assert kinds.count("write") == round(spec.ops * spec.write_fraction)
    assert len(kinds) == spec.ops


def test_compare_classifies_against_the_bound():
    parent = [10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.1, 9.9, 10.05, 9.95]
    half = [x * 0.5 for x in parent]
    assert run.classify(parent, [x * 1.5 for x in parent], "lower", 0.25) \
        == "worse"
    assert run.classify(parent, half, "lower", 0.25) == "better"
    assert run.classify(parent, half, "higher", 0.25) == "worse"
    # Fewer than ten pairs are never a claim.
    assert run.classify(parent[:3], half[:3], "lower", 0.25) == "within-bound"
    assert run.classify(parent, parent[::-1], "lower", 0.25) == "within-bound"
    assert run.classify([10, 20, 30, 40], [12, 22, 28, 41], "lower", 0.08) \
        == "unresolved"
