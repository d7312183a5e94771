"""Scale invariance of the stopping rules: solving (sA, sB) takes the same
steps as (A, B), up to rounding, because every stop is relative to the
solve's scale and none to max(1, |f|)."""

import numpy as np
import pytest

from inropt import gallery
from inropt.levelset import levelset_minimize
from inropt.param import ParamHermitian
from inropt.subspace import subspace_minimize
from inropt.support import eigopt_minimize

from oracles import crossing_pair, random_trig_pair

SCALES = (1e-8, 1.0, 1e8)


def solve(method, A, B):
    if method == "levelset":
        return levelset_minimize(A + 1j * B)[0]
    P = ParamHermitian.trig(A, B)
    if method == "support":
        return eigopt_minimize(P)
    return subspace_minimize(P)[0]


def recipe_pairs():
    """12 pairs, n from 4 to 29, alternating crossing and random pairs."""
    rng = np.random.default_rng(11)
    pairs = []
    for i in range(12):
        n = int(rng.integers(4, 30))
        if i % 2 == 0:
            A, B, _, _ = crossing_pair(n, rng)
        else:
            A, B = random_trig_pair(n, rng)
        pairs.append((A, B))
    return pairs


@pytest.mark.parametrize("method", ["support", "levelset", "subspace"])
def test_scaled_pairs_agree(method):
    # Below 1, max(1, |f|) made tol absolute: support stopped 1e-6 off at
    # s = 1e-8, and subspace's doubly scaled floor was as far off at 1e8.
    for i, (A, B) in enumerate(recipe_pairs()):
        runs = [solve(method, s * A, s * B) for s in SCALES]
        base = runs[1].f_star
        for s, res in zip(SCALES, runs):
            assert res.converged, (i, s, res.note)
            assert abs(res.f_star / s - base) <= 1e-10 * abs(base), (i, s)
        if method == "support":
            assert len({res.iterations for res in runs}) == 1, i


@pytest.fixture(scope="module")
def grcar256():
    A, B = gallery.grcar_pair(256)
    return A, B, levelset_minimize(A + 1j * B, tol=0.0)[0].f_star


@pytest.mark.parametrize("s", [1e-9, 1.0, 1e9])
@pytest.mark.parametrize("method", ["support", "subspace"])
def test_grcar_bracket_holds_the_minimum_at_every_scale(grcar256, method, s):
    # At s = 1e-9 support stopped 3e-4 above the minimum; with the tie
    # gate still clamped to max(1, |lambda|), a near tie took the block
    # slope and the certified lower bound rose above the minimum.
    A, B, f_min = grcar256
    res = solve(method, s * A, s * B)
    assert res.converged
    assert res.lower_bound / s <= f_min + 1e-13 * abs(f_min)
    assert abs(res.f_star / s - f_min) <= 1e-10 * abs(f_min)
