import random

import pytest

from superprolong.superspace import (
    EVEN,
    ODD,
    BasisVector,
    GradedSuperSpace,
    exterior_power_basis,
    parity_from_str,
    sort_with_sign,
)

from oracles import exterior_dim, koszul_sign


def make_space(p, q, degree=-1):
    basis = [BasisVector("e%d" % i, degree, EVEN) for i in range(p)]
    basis += [BasisVector("o%d" % i, degree, ODD) for i in range(q)]
    return GradedSuperSpace(basis)


def test_koszul_sign_basic():
    # swap of two evens and even/odd: -1; two odds: +1; identity: +1
    assert koszul_sign([EVEN, EVEN], [1, 0]) == -1
    assert koszul_sign([ODD, ODD], [1, 0]) == 1
    assert koszul_sign([EVEN, ODD], [1, 0]) == -1
    assert koszul_sign([EVEN, ODD, ODD], [0, 1, 2]) == 1


def test_koszul_sign_is_multiplicative():
    rng = random.Random(2)
    for _ in range(100):
        n = rng.randint(2, 6)
        pars = [rng.randint(0, 1) for _ in range(n)]
        s = list(range(n))
        rng.shuffle(s)
        t = list(range(n))
        rng.shuffle(t)
        # composition (s then t): item at slot i of the composite comes from
        # s[t[i]]; the parities seen by t are the permuted ones
        comp = [s[t[i]] for i in range(n)]
        sign_s = koszul_sign(pars, s)
        pars_after_s = [pars[s[i]] for i in range(n)]
        sign_t = koszul_sign(pars_after_s, t)
        assert koszul_sign(pars, comp) == sign_s * sign_t


def test_sort_with_sign_matches_koszul():
    # distinct items, so the sign is the oracle's sign of the sorting
    # permutation; a key reorders the items and the permutation with them
    rng = random.Random(4)
    for key in (None, lambda s: -s):
        order = key or (lambda s: s)
        for _ in range(100):
            n = rng.randint(1, 6)
            items = rng.sample(range(10), n)
            pars = [rng.randint(0, 1) for _ in range(n)]
            perm = sorted(range(n), key=lambda p: order(items[p]))
            srt, sign = sort_with_sign(items, pars, key)
            assert srt == tuple(items[p] for p in perm)
            assert sign == koszul_sign(pars, perm), (items, pars)


def test_sort_with_sign_kills_repeated_even_items():
    rng = random.Random(5)
    for _ in range(100):
        n = rng.randint(1, 6)
        idx = [rng.randint(0, 3) for _ in range(n)]
        pars = [idx[k] % 2 for k in range(n)]  # one parity per symbol
        srt, sign = sort_with_sign(idx, pars)
        assert srt == tuple(sorted(idx))
        even_repeat = any(idx.count(i) > 1 for i in idx if i % 2 == EVEN)
        assert (sign == 0) == even_repeat, (idx, pars)


def test_extraction_sign():
    # pulling slot 1 of (even, odd, odd) to the front passes one even symbol
    assert koszul_sign((EVEN, ODD, ODD), (1, 0, 2)) == -1
    # pulling two odd slots over each other costs nothing
    assert koszul_sign((ODD, ODD), (1, 0)) == 1
    assert koszul_sign((EVEN, EVEN), (1, 0)) == -1


def test_exterior_dimension_formula_exhaustive():
    for p in range(5):
        for q in range(5):
            S = make_space(p, q)
            for k in range(7):
                assert len(exterior_power_basis(S, k)) == exterior_dim(p, q, k)


def test_exterior_monomial_shapes():
    # one even, one odd: Lambda^2 = {e^o, o^o}
    S = make_space(1, 1)
    monos = exterior_power_basis(S, 2)
    assert [m.indices for m in monos] == [(0, 1), (1, 1)]
    assert len(exterior_power_basis(S, 0)) == 1
    # purely even truncates at k = n
    S = make_space(3, 0)
    assert exterior_power_basis(S, 4) == []


def test_parity_is_read_from_the_ints_and_names_only():
    for s in (0, "even", "0"):
        assert parity_from_str(s) == EVEN
    for s in (1, "odd", "1"):
        assert parity_from_str(s) == ODD
    # a JSON boolean or float equals 0 or 1 but names no parity
    for s in (False, True, 0.0, 1.0, 2, "2", None):
        with pytest.raises(ValueError, match="bad parity"):
            parity_from_str(s)
