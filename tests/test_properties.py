"""Property tests for the core invariants that hold on arbitrary inputs."""

import numpy as np
from hypothesis import given, settings, strategies as st

from agglab import analysis as A
from agglab import graphs as G
from agglab import tensor as T

floats = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False,
                   width=64)


@st.composite
def matrix_and_multiset(draw):
    n = draw(st.integers(1, 4))
    d = draw(st.integers(1, 3))
    s = draw(st.integers(1, 3))
    M = np.array(draw(st.lists(st.lists(floats, min_size=n, max_size=n),
                               min_size=s, max_size=s)))
    X = np.array(draw(st.lists(st.lists(floats, min_size=d, max_size=d),
                               min_size=n, max_size=n)))
    perm = draw(st.permutations(range(n)))
    return M, X, list(perm)


@given(matrix_and_multiset())
@settings(max_examples=200, deadline=None)
def test_apply_agg_bitwise_permutation_invariant(case):
    M, X, perm = case
    f = A.MatrixAggregator(M)
    assert np.array_equal(f(A.MultisetSample(X[perm])), f(A.MultisetSample(X)))


@given(st.integers(1, 4), st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**31 - 1))
@settings(max_examples=100, deadline=None)
def test_expand_outer_is_the_column_major_vec_of_each_outer_product(k, s, d, seed):
    rng = np.random.default_rng(seed)
    m, h = rng.standard_normal((k, s)), rng.standard_normal((k, d))
    out = T.expand_outer(T.Tensor(m), T.Tensor(h)).data
    for e in range(k):
        assert out[e].tobytes() == np.outer(m[e], h[e]).reshape(-1, order="F").tobytes()


@given(st.lists(st.lists(floats.filter(lambda v: abs(v) <= 1e3),
                         min_size=2, max_size=5),
                min_size=1, max_size=4).filter(
                    lambda rows: len({len(r) for r in rows}) == 1))
@settings(max_examples=200, deadline=None)
def test_softmax_rows_always_normalized(rows):
    out = T.softmax_rows(T.Tensor(np.array(rows)))
    assert np.all(np.abs(out.data.sum(axis=1) - 1.0) < 1e-12)


@given(st.integers(3, 8), st.integers(0, 2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_triangle_count_relabel_invariant(n, seed):
    rng = np.random.default_rng(seed)
    g = G.gen_er_triangle_dataset(1, n_nodes=n, p=0.5, seed=seed).graphs[0]
    perm = rng.permutation(n)
    assert G.count_triangles(G.relabel(g, perm)) == G.count_triangles(g)


@given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 2**31 - 1))
@settings(max_examples=100, deadline=None)
def test_rank_product_never_exceeds_factors(s, n, seed):
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((s, n))
    H = rng.standard_normal((n, int(rng.integers(1, 5))))
    rm, rh, rp = A.rank_preservation_report(M, H)
    assert rp <= min(rm, rh)
