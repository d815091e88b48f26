"""The mid-size arbiter: the benchmark's reference enumerator against
`extensions` and `labellings` on frameworks of 8-17 arguments, where the
oracles of `oracles.py` (at most 7 arguments) do not reach.

`bench/reference.py` computes all fourteen semantics from the definitions,
on bitmasks of its own, and reads only `f.args` and `f.attacks`. It is read
from `bench/`, not copied, and `bench/test_bench.py`'s check of it against
the oracles runs here too, so the arbiter is itself checked on every run.
"""

import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import reference  # noqa: E402
import test_bench  # noqa: E402

from afkit.core import AF  # noqa: E402
from afkit.semantics import LABELLING_SEMANTICS, SEMANTICS, extensions, labellings  # noqa: E402


def assert_matches_reference(f: AF) -> None:
    """Every σ's extensions, in extension order, and the labellings of the
    one-to-one family, in the order of their extensions."""
    frame = reference.Frame(f)
    for sigma in SEMANTICS:
        assert list(extensions(f, sigma)) == reference.ordered(frame.extensions(sigma)), (sigma, f)
    for sigma in LABELLING_SEMANTICS:
        got = [(lab.in_set, lab.out_set, lab.undec_set) for lab in labellings(f, sigma)]
        want = sorted(frame.labellings(sigma), key=lambda t: reference.extension_key(t[0]))
        assert got == want, (sigma, f)


@st.composite
def midsize_afs(draw):
    """n = 8-17 arguments a00, a01, …; each ordered pair, self-attacks
    included, attacked with probability p ∈ {.08, .12, .2}."""
    n = draw(st.integers(8, 17))
    p = draw(st.sampled_from((0.08, 0.12, 0.2)))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    names = [f"a{i:02d}" for i in range(n)]
    return AF(names, [(x, y) for x in names for y in names if rng.random() < p])


def two_cycles(k: int, three_cycle: bool) -> AF:
    """k disjoint 2-cycles x_i <-> y_i, and optionally one 3-cycle t0 -> t1 -> t2 -> t0."""
    names = [f"{c}{i}" for i in range(k) for c in "xy"]
    attacks = [(f"{a}{i}", f"{b}{i}") for i in range(k) for a, b in ("xy", "yx")]
    if three_cycle:
        names += ["t0", "t1", "t2"]
        attacks += [("t0", "t1"), ("t1", "t2"), ("t2", "t0")]
    return AF(names, attacks)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(f=midsize_afs())
def test_random_midsize_frameworks(f):
    assert_matches_reference(f)


@pytest.mark.parametrize("k", [6, 7])
@pytest.mark.parametrize("three_cycle", [False, True])
def test_two_cycle_family(k, three_cycle):
    assert_matches_reference(two_cycles(k, three_cycle))


def test_reference_matches_oracles():
    test_bench.test_reference_matches_oracles()
