"""Tests of the benchmark itself (not part of the tier-1 suite):

    python -m pytest bench/test_bench.py -q

They check that the reference agrees with the oracles, that a seed always
yields the same inputs, that a wrong answer is counted as failed, and that
the traced run's counts repeat exactly.
"""

import random
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "bench")]

import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def test_reference_matches_oracles():
    from afkit import AF
    from oracles import ORACLES, all_afs, plus, random_af

    rng = random.Random(2024)
    frameworks = list(all_afs("ab")) + [
        random_af(rng, "abcde", p) for p in (0.1, 0.2, 0.3, 0.45) for _ in range(25)
    ]
    frameworks.append(AF("abcde", [("a", "a"), ("b", "c"), ("c", "d"), ("d", "b"), ("e", "e")]))
    for f in frameworks:
        frame = reference.Frame(f)
        for sigma in workloads.SEMANTICS:
            want = ORACLES[sigma](f)
            assert frame.extensions(sigma) == want, (sigma, f)
            if sigma in workloads.LABELLING_SEMANTICS:
                labs = {(e, plus(f, e), f.args - e - plus(f, e)) for e in want}
                assert frame.labellings(sigma) == labs, (sigma, f)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_gives_same_inputs(name):
    digests = [run.setup(name, seed)[1].digest() for seed in (7, 7, 8)]
    assert digests[0] == digests[1]
    assert digests[0] != digests[2]


def test_corrupted_answer_is_failed():
    clean, _ = run.run("equiv-witness", 3, 0.01, trace=False)
    assert clean["failed"] == 0 and clean["correct"]

    def corrupt(i, answer):
        return ("corrupted",) if i == 0 else answer

    bad, info = run.run("equiv-witness", 3, 0.01, trace=False, corrupt=corrupt)
    assert bad["failed"] > 0 and not bad["correct"]
    assert info["failed_frac"] > 0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_counts_repeat(name):
    counts = [key for key, unit in run.PER_LAYER if unit == "count"] + ["kernels.witness.found_frac"]
    first, _ = run.run(name, 5, 0.01, trace=True)
    second, _ = run.run(name, 5, 0.01, trace=True)
    assert set(first["metrics"]) == {key for key, _ in run.PER_LAYER}
    for key in counts:
        assert first["metrics"][key] == second["metrics"][key], key
    assert first["failed"] == 0 and second["failed"] == 0
