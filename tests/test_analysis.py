import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from agglab import analysis as A


SUM = A.BasicAggregator("SUM")
MEAN = A.BasicAggregator("MEAN")
MAX = A.BasicAggregator("MAX")
GRID = [-1.0, 0.0, 1.0, 2.0]


def test_numerical_rank_basics():
    assert A.numerical_rank(np.ones((1, 5))) == 1
    assert A.numerical_rank(np.eye(3)) == 3
    assert A.numerical_rank(np.array([[1.0, 2.0], [2.0, 4.0]])) == 1
    assert A.numerical_rank(np.zeros((2, 3))) == 0


def test_apply_agg_permutation_invariance_exact():
    # f_M reads the canonical element order, so every presentation order
    # of the same elements gives the same bits
    rng = np.random.default_rng(0)
    for n in range(1, 5):  # exhaustive over all n! orderings
        f = A.MatrixAggregator(rng.standard_normal((2, n)))
        X = rng.standard_normal((n, 3))
        ref = f(A.MultisetSample(X))
        for perm in itertools.permutations(range(n)):
            assert np.array_equal(f(A.MultisetSample(X[list(perm)])), ref)
    with pytest.raises(ValueError, match="size"):
        A.MatrixAggregator(np.ones((1, 3)))(A.MultisetSample([1.0, 2.0]))


def test_strictly_stronger_by_stack():
    assert A.strictly_stronger_by_stack([[1.0, 1.0]], [[1.0, -1.0]])
    assert not A.strictly_stronger_by_stack([[1.0, 1.0]], [[2.0, 2.0]])
    with pytest.raises(ValueError, match="column"):
        A.strictly_stronger_by_stack(np.ones((1, 2)), np.ones((1, 3)))


def test_stack_no_rank_growth_means_no_new_separations():
    # whenever the stack does not raise rank, the oracle finds no pair
    # separated by the stack but merged by the base
    rng = np.random.default_rng(1)
    for _ in range(20):
        n = int(rng.integers(2, 4))
        M = rng.standard_normal((2, n))
        L = rng.standard_normal((1, 2))
        M_extra = L @ M  # dependent row
        assert not A.strictly_stronger_by_stack(M, M_extra)
        base = A.MatrixAggregator(M)
        stack = A.MatrixAggregator(np.vstack([M, M_extra]))
        multisets = list(A.enumerate_multisets(GRID, n))
        extra = A.separation_set(stack, multisets) - A.separation_set(base, multisets)
        assert extra == set()


def test_is_injective_examples():
    assert A.is_injective_for_size(np.eye(3))
    ones = np.ones((1, 2))
    assert not A.is_injective_for_size(ones)
    f = A.MatrixAggregator(ones)
    w = A.collision_oracle(f, f, [0.0, 1.0, 2.0], max_size=2)
    assert w == (A.MultisetSample([0.0, 2.0]), A.MultisetSample([1.0, 1.0]))


def test_vandermonde_is_injective():
    # rows 1, a_i, a_i^2, ...: the power-sum style coefficient matrix
    nodes = np.array([0.5, 1.5, -2.0, 3.0])
    V = np.vander(nodes, 4, increasing=True).T
    assert A.is_injective_for_size(V)


def test_ranges_disjoint_examples():
    M1 = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    M2 = np.array([[0.0], [0.0], [1.0]])
    assert A.ranges_disjoint_certificate(M1, M2)
    assert not A.ranges_disjoint_certificate(np.eye(2), np.eye(2))
    with pytest.raises(ValueError, match="row"):
        A.ranges_disjoint_certificate(np.eye(2), np.eye(3))


def test_ranges_disjoint_blocks_have_no_cross_collision():
    M1 = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    M2 = np.array([[0.0], [0.0], [1.0]])
    f1, f2 = A.MatrixAggregator(M1), A.MatrixAggregator(M2)
    assert A.collision_oracle(f1, f2, GRID, max_size=2) is None


def test_random_gaussian_pairs_generically_disjoint():
    rng = np.random.default_rng(3)
    hits = 0
    for _ in range(20):
        M1, M2 = rng.standard_normal((4, 2)), rng.standard_normal((4, 2))
        if A.ranges_disjoint_certificate(M1, M2):
            hits += 1
            f1, f2 = A.MatrixAggregator(M1), A.MatrixAggregator(M2)
            grid9 = np.linspace(-2, 2, 9)
            assert A.collision_oracle(f1, f2, grid9, max_size=2) is None
    assert hits == 20  # full rank almost surely


def test_collision_oracle_injective_matrix_finds_nothing():
    f = A.MatrixAggregator(np.eye(2))
    assert A.collision_oracle(f, f, GRID, max_size=2) is None


def test_collision_oracle_guard():
    with pytest.raises(ValueError, match="explosion"):
        A.collision_oracle(SUM, SUM, GRID, max_size=6)
    with pytest.raises(ValueError, match="nonempty"):
        A.collision_oracle(SUM, SUM, [], max_size=2)


def test_compare_strength_sum_vs_mean():
    res = A.compare_strength(SUM, MEAN, [1.0, 2.0], max_size=4)
    assert res["verdict"] == "incomparable"
    assert res["only_first"] is not None and res["only_second"] is not None
    # the stated witnesses demonstrate both directions
    m1, m2 = A.MultisetSample([1.0, 1.0]), A.MultisetSample([2.0])
    assert A.output_distance(SUM(m1), SUM(m2)) < 1e-9
    assert A.output_distance(MEAN(m1), MEAN(m2)) > 1e-9
    m3, m4 = A.MultisetSample([1.0, 2.0]), A.MultisetSample([1.0, 1.0, 2.0, 2.0])
    assert A.output_distance(SUM(m3), SUM(m4)) > 1e-9
    assert A.output_distance(MEAN(m3), MEAN(m4)) < 1e-9


def test_compare_strength_combined_beats_parts():
    both = A.combined(SUM, MEAN)
    assert A.compare_strength(both, SUM, [1.0, 2.0], max_size=4)["verdict"] == "stronger"
    assert A.compare_strength(both, MEAN, [1.0, 2.0], max_size=4)["verdict"] == "stronger"


def test_compare_strength_injective_postcomposition_is_equal():
    g = A.compose(lambda y: 2.0 * y + 1.0, SUM, name="affine∘SUM")
    assert A.compare_strength(g, SUM, GRID, max_size=3)["verdict"] == "equal"


def test_postcomposition_never_enlarges_separations():
    # projection to the first coordinate is not injective on R^2 outputs
    proj = A.compose(lambda y: y[:1], A.combined(SUM, MEAN), name="proj")
    multisets = [m for k in (1, 2, 3) for m in A.enumerate_multisets(GRID, k)]
    full = A.separation_set(A.combined(SUM, MEAN), multisets)
    reduced = A.separation_set(proj, multisets)
    assert reduced <= full


def test_premap_never_enlarges_separations_for_equivariant():
    rng = np.random.default_rng(7)
    multisets = [m for k in (1, 2) for m in A.enumerate_multisets([-1.0, 0.0, 1.0], k, width=2)]
    for agg in (SUM, MEAN):
        base = A.separation_set(agg, multisets)
        for _ in range(5):
            T = np.outer(rng.standard_normal(2), rng.standard_normal(2))  # rank 1
            mapped = A.separation_set(A.premap(agg, T), multisets)
            assert mapped <= base


def test_rank_preservation_report():
    rng = np.random.default_rng(9)
    H = rng.standard_normal((3, 3))
    assert A.rank_preservation_report(np.ones((1, 3)), H) == (1, 3, 1)
    H2 = np.vstack([H[:2], H[0] + H[1]])  # rank 2
    assert A.rank_preservation_report(np.eye(3), H2) == (3, 2, 2)
    M = rng.standard_normal((8, 5))
    H3 = rng.standard_normal((5, 5))
    assert A.rank_preservation_report(M, H3) == (5, 5, 5)


def test_rank_product_bounded_by_min():
    rng = np.random.default_rng(11)
    for _ in range(20):
        M = rng.standard_normal((rng.integers(1, 5), 4))
        H = rng.standard_normal((4, rng.integers(1, 5)))
        rm, rh, rp = A.rank_preservation_report(M, H)
        assert rp <= min(rm, rh)


def test_output_distance_of_aggregated_multisets():
    m = A.MultisetSample([1.0, 2.0])
    assert A.output_distance(SUM(m), SUM(A.MultisetSample([2.0, 1.0]))) == 0.0
    assert A.output_distance(SUM(A.MultisetSample([0.0, 2.0])),
                             SUM(A.MultisetSample([1.0, 1.0]))) == 0.0
    assert A.output_distance(MEAN(A.MultisetSample([1.0, 1.0])),
                             MEAN(A.MultisetSample([2.0]))) == 1.0


def test_kernel_collision_construction():
    rng = np.random.default_rng(13)
    for _ in range(30):
        n = int(rng.integers(2, 4))
        M = rng.standard_normal((n, n))
        M[:, 0] = M[:, -1]  # force deficiency
        pair = A.kernel_collision(M)
        assert pair is not None
        x1, x2 = pair
        assert x1 != x2
        f = A.MatrixAggregator(M)
        assert A.output_distance(f(x1), f(x2)) < 1e-9
    assert A.kernel_collision(np.eye(3)) is None


def test_cross_kernel_collision_trivial_kernel_is_none():
    M1 = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    M2 = np.array([[0.0], [0.0], [1.0]])
    assert A.cross_kernel_collision(M1, M2) is None


def test_multiset_sample_canonical_order():
    a = A.MultisetSample([3.0, 1.0, 2.0])
    b = A.MultisetSample([2.0, 3.0, 1.0])
    assert a == b
    assert a.elements[:, 0].tolist() == [1.0, 2.0, 3.0]
    with pytest.raises(ValueError, match="nonempty"):
        A.MultisetSample(np.empty((0, 2)))


def test_nmean_and_std_definitions():
    nmean = A.BasicAggregator("NMEAN")
    x = A.MultisetSample([3.0, 6.0, 9.0])
    assert abs(nmean(x)[0] - 6.0) < 1e-12  # uniform weights reduce to the mean
    std = A.BasicAggregator("STD")
    assert abs(std(A.MultisetSample([1.0, 3.0]))[0] - 1.0) < 1e-15  # population
    vec = A.MultisetSample([[1.0, 5.0], [2.0, -1.0]])
    assert A.BasicAggregator("MAX")(vec).tolist() == [2.0, 5.0]
    assert A.BasicAggregator("MIN")(vec).tolist() == [1.0, -1.0]
    with pytest.raises(ValueError, match="unknown aggregator"):
        A.BasicAggregator("MEDIAN")


def test_constant_row_extension_strictly_stronger_than_sum():
    # appending an all-ones row keeps every SUM separation and adds more
    rng = np.random.default_rng(17)
    n = 2
    for _ in range(10):
        M = np.tanh(rng.standard_normal((2, n)))
        ext = A.MatrixAggregator(np.vstack([M, np.ones((1, n))]))
        multisets = list(A.enumerate_multisets(GRID, n))
        sum_sep = A.separation_set(SUM, multisets)
        ext_sep = A.separation_set(ext, multisets)
        assert sum_sep <= ext_sep
        assert len(ext_sep - sum_sep) > 0  # e.g. {0,2} vs {1,1}


def test_output_distance():
    assert A.output_distance(np.array([0.0, 3.0]), np.array([4.0, 0.0])) == 5.0
    assert A.output_distance(np.zeros(2), np.zeros(3)) == float("inf")


def _compare_strength_pairwise(agg1, agg2, grid, max_size, tol=A.COLLISION_TOL):
    """The row-major pairwise scan compare_strength replaced, kept as its oracle."""
    sizes = sorted(set(A._size_options(agg1, max_size)) & set(A._size_options(agg2, max_size)))
    multisets = [m for k in sizes for m in A.enumerate_multisets(grid, k)]
    outs1 = [agg1(m) for m in multisets]
    outs2 = [agg2(m) for m in multisets]

    def sep(outs, i, j):
        return outs[i].shape != outs[j].shape or np.linalg.norm(outs[i] - outs[j]) >= tol

    only_first = only_second = None
    for i in range(len(multisets)):
        for j in range(i + 1, len(multisets)):
            s1, s2 = sep(outs1, i, j), sep(outs2, i, j)
            if s1 and not s2 and only_first is None:
                only_first = (multisets[i], multisets[j])
            elif s2 and not s1 and only_second is None:
                only_second = (multisets[i], multisets[j])
    return only_first, only_second


def test_compare_strength_matches_the_pairwise_scan():
    rng = np.random.default_rng(19)
    basics = [A.BasicAggregator(k) for k in ("SUM", "MEAN", "NMEAN", "MAX", "MIN", "STD")]
    cases = [(a, b, [0.0, 1.0, 2.0], 3) for a in basics for b in basics]
    for _ in range(30):
        n = int(rng.integers(1, 4))
        # small integer entries, so some pairs collide on the grid
        f1 = A.MatrixAggregator(rng.integers(-1, 2, size=(int(rng.integers(1, 3)), n)))
        f2 = A.MatrixAggregator(rng.integers(-1, 2, size=(int(rng.integers(1, 3)), n)))
        cases.append((f1, f2, GRID, n))
        cases.append((f1, SUM, GRID, n))
    expected = {(True, True): "incomparable", (True, False): "stronger",
                (False, True): "weaker", (False, False): "equal"}
    verdicts = set()
    for agg1, agg2, grid, max_size in cases:
        res = A.compare_strength(agg1, agg2, grid, max_size=max_size)
        first, second = _compare_strength_pairwise(agg1, agg2, grid, max_size)
        assert (res["only_first"], res["only_second"]) == (first, second)
        assert res["verdict"] == expected[(first is not None, second is not None)]
        verdicts.add(res["verdict"])
    assert verdicts == {"incomparable", "stronger", "weaker", "equal"}


# The pair-at-a-time loops the array passes replaced, kept as their oracles.

def _separation_set_loop(agg, multisets, tol=A.COLLISION_TOL):
    outs = [agg(m) for m in multisets]
    return {(i, j) for i in range(len(outs)) for j in range(i + 1, len(outs))
            if A.output_distance(outs[i], outs[j]) >= tol}


def _collision_pairs_loop(agg1, ms1, agg2, ms2, tol=A.COLLISION_TOL):
    """verify's prop2 double loop."""
    pairs = set()
    for i, x1 in enumerate(ms1):
        for j, x2 in enumerate(ms2):
            if x1.size == x2.size and x1 == x2:
                continue
            if A.output_distance(agg1(x1), agg2(x2)) < tol:
                pairs.add((i, j))
    return pairs


def _collision_oracle_loop(agg1, agg2, grid, max_size=3, width=1, tol=A.COLLISION_TOL):
    same = agg1 is agg2
    cache = {}

    def candidates(size):
        if size not in cache:
            cache[size] = [m for m in A.enumerate_multisets(grid, size, width)
                           if not m.is_all_zero()]
        return cache[size]

    for k1, k2 in A._size_pairs(A._size_options(agg1, max_size),
                                A._size_options(agg2, max_size)):
        ms1, ms2 = candidates(k1), candidates(k2)
        for i, x1 in enumerate(ms1):
            out1 = agg1(x1)
            start = i + 1 if (same and k1 == k2) else 0
            for x2 in ms2[start:]:
                if k1 == k2 and x1 == x2:
                    continue
                if A.output_distance(out1, agg2(x2)) < tol:
                    return x1, x2
    return None


def _enumerate_multisets_loop(grid, size, width=1):
    pool = [tuple(float(c) for c in combo) for combo in itertools.product(grid, repeat=width)]
    for combo in itertools.combinations_with_replacement(pool, size):
        yield A.MultisetSample(np.array(combo))


def _near_tol_matrix(draw, n):
    """A small-integer matrix (so grid multisets collide) plus a perturbation
    that puts one colliding pair, if any, at a distance within 1e-3 (relative)
    of COLLISION_TOL, on either side."""
    s = draw(st.integers(1, 3))
    M0 = np.array(draw(st.lists(st.integers(-1, 1), min_size=s * n, max_size=s * n)),
                  dtype=np.float64).reshape(s, n)
    R = np.random.default_rng(draw(st.integers(0, 2**16))).standard_normal((s, n))
    ms = list(A.enumerate_multisets(GRID, n))
    f0 = A.MatrixAggregator(M0)
    collided = [(x1, x2) for x1, x2 in itertools.combinations(ms, 2)
                if A.output_distance(f0(x1), f0(x2)) == 0.0]
    if not collided:
        return M0, ms
    x1, x2 = collided[draw(st.integers(0, len(collided) - 1))]
    gap = np.linalg.norm(R @ (x1.elements - x2.elements))
    if gap == 0.0:
        return M0, ms
    rel = draw(st.floats(-1e-3, 1e-3))
    return M0 + R * (A.COLLISION_TOL * (1.0 + rel) / gap), ms


@st.composite
def matrix_cases(draw):
    n = draw(st.integers(1, 3))
    return _near_tol_matrix(draw, n)


# Pairs (0, 2) and (1, 3) of GRID's one-element multisets sit at
# output_distance 9.999999999999999e-10, a collision, while the blocked
# distance of the same rows rounds to exactly COLLISION_TOL.
AT_THE_TOLERANCE = np.array([[4.4185556792371134e-10], [-2.340163607417535e-10]])


@settings(max_examples=150, deadline=None)
@given(matrix_cases(), st.sampled_from([A.BLOCK_ELEMS, 1, 7, 40]))
@example((AT_THE_TOLERANCE, list(A.enumerate_multisets(GRID, 1))), A.BLOCK_ELEMS)
def test_separation_set_matches_the_pair_loop_on_matrices(case, block):
    M, ms = case
    f = A.MatrixAggregator(M)
    with mock.patch.object(A, "BLOCK_ELEMS", block):  # 1, 7, 40: many row blocks
        assert A.separation_set(f, ms) == _separation_set_loop(f, ms)
        assert A.collision_set(f, ms, f, ms) == _collision_pairs_loop(f, ms, f, ms)


def test_a_pair_at_the_tolerance_is_decided_by_output_distance():
    f = A.MatrixAggregator(AT_THE_TOLERANCE)
    ms = list(A.enumerate_multisets(GRID, 1))
    assert A.separation_set(f, ms) == {(0, 3)}
    collided = {(0, 1), (1, 2), (2, 3), (0, 2), (1, 3)}
    assert A.collision_set(f, ms, f, ms) == collided | {(j, i) for i, j in collided}
    other = A.MatrixAggregator(AT_THE_TOLERANCE.copy())  # not the same list: no mirroring
    assert A.collision_set(f, ms, other, list(ms)) == _collision_pairs_loop(f, ms, other, ms)
    assert A.collision_oracle(f, f, GRID, max_size=1) == \
        _collision_oracle_loop(f, f, GRID, max_size=1)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 24), st.integers(0, 2**31 - 1))
def test_outputs_a_few_ulps_from_the_tolerance_split_as_output_distance_does(width, seed):
    # wider outputs add more squares, and the two summation orders part further
    rng = np.random.default_rng(seed)
    unit = rng.standard_normal(width)
    unit /= np.linalg.norm(unit)
    outs = [unit * A.COLLISION_TOL * (1 + k * 2.0**-52) for k in rng.integers(-8, 9, size=6)]
    f = A.FunctionAggregator(lambda e: outs[int(e[0, 0])], arity=1, name="near")
    ms = [A.MultisetSample([float(i)]) for i in range(len(outs))] + [A.MultisetSample([-1.0])]
    outs.append(np.zeros(width))
    assert A.separation_set(f, ms) == _separation_set_loop(f, ms)
    assert A.collision_set(f, ms, f, ms) == _collision_pairs_loop(f, ms, f, ms)


def test_a_pair_just_over_or_under_the_tolerance_keeps_its_side():
    ms = [A.MultisetSample([0.0]), A.MultisetSample([1.0])]
    for rel, separated in ((1e-3, True), (-1e-3, False), (1e-12, True), (-1e-12, False)):
        f = A.MatrixAggregator([[A.COLLISION_TOL * (1.0 + rel)]])
        assert A.separation_set(f, ms) == _separation_set_loop(f, ms) == (
            {(0, 1)} if separated else set())


def _mixed_shape_aggregator(scale):
    # output width 1, 2 or 3 set by the elements' sum: pairs across widths
    # are separated, pairs of one width collide when their sums match
    return A.FunctionAggregator(
        lambda e: np.full(1 + int(abs(e.sum())) % 3, scale * e.sum()), name="mixed")


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0]), min_size=1, max_size=4, unique=True),
       st.integers(1, 3), st.sampled_from([1.0, 1e-10, 3e-10]),
       st.sampled_from([A.BLOCK_ELEMS, 1, 5]))
def test_oracles_match_the_loops_on_mixed_output_shapes(grid, max_size, scale, block):
    agg = _mixed_shape_aggregator(scale)
    ms = [m for k in range(1, max_size + 1) for m in A.enumerate_multisets(grid, k)]
    with mock.patch.object(A, "BLOCK_ELEMS", block):
        assert A.separation_set(agg, ms) == _separation_set_loop(agg, ms)
        assert A.collision_set(agg, ms, A.BasicAggregator("SUM"), ms) == \
            _collision_pairs_loop(agg, ms, A.BasicAggregator("SUM"), ms)
        assert A.collision_oracle(agg, agg, grid, max_size=max_size) == \
            _collision_oracle_loop(agg, agg, grid, max_size=max_size)
        assert A.collision_oracle(agg, SUM, grid, max_size=max_size) == \
            _collision_oracle_loop(agg, SUM, grid, max_size=max_size)


def test_empty_and_one_element_lists():
    f = A.MatrixAggregator(np.ones((1, 2)))
    one = [A.MultisetSample([1.0, 2.0])]
    for agg in (f, SUM, _mixed_shape_aggregator(1.0)):
        assert A.separation_set(agg, []) == set()
        assert A.collision_set(agg, [], agg, []) == set()
        assert A.collision_set(agg, one, agg, []) == set()
        assert A.separation_set(agg, one) == set()
        assert A.collision_set(agg, one, agg, one) == set()  # a multiset never collides with itself


@st.composite
def prop2_cases(draw):
    n1, n2 = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    s = draw(st.integers(1, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    entries = (-1.0, 0.0, 1.0)
    return rng.choice(entries, size=(s, n1)), rng.choice(entries, size=(s, n2))


@settings(max_examples=100, deadline=None)
@given(prop2_cases())
def test_collision_set_matches_the_prop2_loop(case):
    M1, M2 = case
    f1, f2 = A.MatrixAggregator(M1), A.MatrixAggregator(M2)
    ms1 = list(A.enumerate_multisets(GRID, M1.shape[1]))
    ms2 = list(A.enumerate_multisets(GRID, M2.shape[1]))
    assert A.collision_set(f1, ms1, f2, ms2) == _collision_pairs_loop(f1, ms1, f2, ms2)


@settings(max_examples=100, deadline=None)
@given(matrix_cases(), st.booleans())
def test_collision_oracle_matches_the_loop_on_matrices(case, same):
    M, _ = case
    f = A.MatrixAggregator(M)
    other = f if same else A.MatrixAggregator(M[:, ::-1])
    n = M.shape[1]
    assert A.collision_oracle(f, other, GRID, max_size=n) == \
        _collision_oracle_loop(f, other, GRID, max_size=n)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4), st.integers(1, 3), st.integers(1, 2), st.integers(0, 2**16))
def test_matrix_batch_carries_the_per_call_bits(n, s, width, seed):
    rng = np.random.default_rng(seed)
    f = A.MatrixAggregator(rng.standard_normal((s, n)) * 10.0 ** rng.uniform(-3, 3))
    ms = list(A.enumerate_multisets(rng.standard_normal(3), n, width))
    rows = f.batch(np.stack([m.elements for m in ms]))
    assert [r.tobytes() for r in rows] == [f(m).tobytes() for m in ms]
    with pytest.raises(ValueError, match="size"):
        f.batch(np.zeros((2, n + 1, width)))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from([-1.0, 0.0, -0.0, 0.5, 2.0, 2.0]), min_size=0, max_size=4),
       st.integers(1, 3), st.integers(1, 2))
def test_enumerate_multisets_matches_the_per_combination_sort(grid, size, width):
    # unsorted grids and repeated values keep the order and bits of the loop
    new = [m.elements.tobytes() for m in A.enumerate_multisets(grid, size, width)]
    old = [m.elements.tobytes() for m in _enumerate_multisets_loop(grid, size, width)]
    assert new == old
    with pytest.raises(ValueError, match="at least 1"):
        next(A.enumerate_multisets(grid or [1.0], 0))
