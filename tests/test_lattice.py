import pytest

from wallcross.lattice import (
    angular_sort,
    dirac_pairing,
    pairing,
    primitive_decompose,
    primitive_normal,
)


def test_pairing_values():
    assert pairing((1, 0), (0, 1)) == 0
    assert pairing((1, 0), (1, 0)) == 1
    assert pairing((2, 3), (-1, 4)) == 10


def test_primitive_normal_convention():
    assert primitive_normal((0, 1)) == (-1, 0)
    assert primitive_normal((1, 0)) == (0, 1)
    assert primitive_normal((2, 4)) == (-2, 1)
    with pytest.raises(ValueError):
        primitive_normal((0, 0))


def test_primitive_normal_orthogonal_and_primitive_exhaustive():
    from math import gcd

    for a in range(-20, 21):
        for b in range(-20, 21):
            if (a, b) == (0, 0):
                continue
            n = primitive_normal((a, b))
            assert pairing((a, b), n) == 0
            assert gcd(abs(n[0]), abs(n[1])) == 1


def test_dirac_pairing_values():
    assert dirac_pairing((1, 0), (0, 1)) == 1
    assert dirac_pairing((0, 1), (1, 0)) == -1
    # the Example-1 normalisation: <m(gamma_ij), n_gamma> = -1
    assert pairing((1, 0), primitive_normal((0, 1))) == -1


def test_dirac_pairing_matches_normal_for_primitive():
    import random

    rng = random.Random(0)
    from math import gcd

    for _ in range(200):
        g = (rng.randint(-6, 6), rng.randint(-6, 6))
        if g == (0, 0) or gcd(abs(g[0]), abs(g[1])) != 1:
            continue
        g2 = (rng.randint(-6, 6), rng.randint(-6, 6))
        assert dirac_pairing(g, g2) == pairing(g2, primitive_normal(g))


def test_dirac_bilinear_antisymmetric():
    import random

    rng = random.Random(1)
    for _ in range(100):
        a = (rng.randint(-5, 5), rng.randint(-5, 5))
        b = (rng.randint(-5, 5), rng.randint(-5, 5))
        c = (rng.randint(-5, 5), rng.randint(-5, 5))
        assert dirac_pairing(a, b) == -dirac_pairing(b, a)
        ab = (a[0] + b[0], a[1] + b[1])
        assert dirac_pairing(ab, c) == dirac_pairing(a, c) + dirac_pairing(b, c)


def test_primitive_decompose():
    assert primitive_decompose((2, 4)) == (2, (1, 2))
    assert primitive_decompose((1, 1)) == (1, (1, 1))
    assert primitive_decompose((-3, 0)) == (3, (-1, 0))
    with pytest.raises(ValueError):
        primitive_decompose((0, 0))


def test_angular_sort_examples():
    assert angular_sort([(0, 1), (1, 1), (1, 0)]) == [(1, 0), (1, 1), (0, 1)]
    assert angular_sort([(2, 1)]) == [(2, 1)]
    assert angular_sort([(-1, 0), (1, 0)]) == [(1, 0), (-1, 0)]
    # the positive x-axis opens the order and the ray just below it closes it
    assert angular_sort([(5, -1), (0, -1), (1, 0), (-1, 0)]) == [(1, 0), (-1, 0), (0, -1), (5, -1)]


def test_angular_sort_full_circle_and_permutation():
    dirs = [(1, 0), (2, 1), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1)]
    for shift in range(len(dirs)):
        shuffled = dirs[shift:] + dirs[:shift]
        assert angular_sort(list(reversed(shuffled))) == dirs
        assert angular_sort(shuffled) == dirs


def test_angular_sort_rejects_coincident():
    with pytest.raises(ValueError, match="coincident"):
        angular_sort([(1, 1), (1, 1)])
    with pytest.raises(ValueError, match="coincident"):
        angular_sort([(1, 0), (0, -1), (1, 0)])
