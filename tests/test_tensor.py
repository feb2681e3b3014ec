import contextlib
import gc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from agglab import graphs as G
from agglab import layers as L
from agglab import tensor as T
from agglab import train as TR


def test_matmul_identity():
    a = T.Tensor(np.eye(2))
    b = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
    out = T.matmul(a, b)
    assert np.array_equal(out.data, [[1.0, 2.0], [3.0, 4.0]])


def test_matmul_sum_as_rank_one():
    ones = T.Tensor([[1.0, 1.0]])
    col = T.Tensor([[1.0], [2.0]])
    assert T.matmul(ones, col).data[0, 0] == 3.0


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ValueError, match=r"\(2, 3\).*\(2, 3\)"):
        T.matmul(T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((2, 3))))


def test_matmul_gradient_vs_finite_differences():
    rng = np.random.default_rng(0)
    tape = T.Tape()
    a = tape.param(rng.standard_normal((3, 4)))
    b = T.Tensor(rng.standard_normal((4, 2)))

    def f():
        t = T.Tape()
        t.watch(a)
        return T.sum_all(T.matmul(a, b))

    assert T.finite_diff_check(f, a) < 1e-6


def test_activations_values():
    x = T.Tensor([[-1.0, 0.0, 2.0]])
    assert np.array_equal(T.activation(x, "relu").data, [[0.0, 0.0, 2.0]])
    assert T.activation(T.Tensor([[0.0]]), "tanh").data[0, 0] == 0.0
    lk = T.activation(x, "leakyrelu")
    assert np.allclose(lk.data, [[-0.2, 0.0, 2.0]])


def test_activation_unknown_kind():
    with pytest.raises(ValueError, match="unknown activation"):
        T.activation(T.Tensor([[1.0]]), "swish")


@pytest.mark.parametrize("kind", ["tanh", "leakyrelu"])
def test_activation_gradients(kind):
    rng = np.random.default_rng(7)
    x = T.Tensor(rng.standard_normal((1, 5)) + 0.1)  # nudge off relu-family kinks

    def f():
        t = T.Tape()
        t.watch(x)
        return T.sum_all(T.activation(x, kind))

    assert T.finite_diff_check(f, x) < 1e-6


def test_softmax_rows_symmetry_and_stability():
    out = T.softmax_rows(T.Tensor([[0.0, 0.0]]))
    assert np.allclose(out.data, [[0.5, 0.5]])
    big = T.softmax_rows(T.Tensor([[1000.0, 0.0]]))
    assert np.isfinite(big.data).all()
    assert big.data[0, 0] > 1.0 - 1e-12


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = rng.uniform(-1e3, 1e3, size=(4, 7))
        out = T.softmax_rows(T.Tensor(x))
        assert np.all(np.abs(out.data.sum(axis=1) - 1.0) < 1e-12)


def test_softmax_rows_gradient():
    rng = np.random.default_rng(11)
    x = T.Tensor(rng.standard_normal((3, 4)))
    w = rng.standard_normal((3, 4))  # non-uniform weighting to exercise the jacobian

    def f():
        t = T.Tape()
        t.watch(x)
        return T.sum_all(T.elementwise_mul(T.softmax_rows(x), T.Tensor(w)))

    assert T.finite_diff_check(f, x) < 1e-6


def test_combinators():
    out = T.concat([T.Tensor([[1.0]]), T.Tensor([[2.0], [3.0]])], axis=0)
    assert np.array_equal(out.data.ravel(), [1.0, 2.0, 3.0])
    em = T.elementwise_mul(T.Tensor([[1.0, 2.0]]), T.Tensor([[3.0, 4.0]]))
    assert np.array_equal(em.data, [[3.0, 8.0]])


def test_backward_linear_loss():
    tape = T.Tape()
    w = tape.param(np.array([[1.0, 2.0], [3.0, 4.0]]))
    x = T.Tensor([[5.0], [6.0]])
    loss = T.sum_all(T.matmul(w, x))
    tape.backward(loss)
    # d(sum Wx)/dW = 1-vector outer x
    assert np.array_equal(w.grad, [[5.0, 6.0], [5.0, 6.0]])


def test_backward_tanh_analytic():
    tape = T.Tape()
    x = tape.param(np.array([[0.3, -0.7, 1.1]]))
    loss = T.sum_all(T.activation(x, "tanh"))
    tape.backward(loss)
    assert np.allclose(x.grad, 1.0 - np.tanh(x.data) ** 2, atol=1e-15)


def test_backward_requires_scalar():
    tape = T.Tape()
    x = tape.param(np.ones((2, 2)))
    y = T.scale(x, 2.0)
    with pytest.raises(ValueError, match="scalar"):
        tape.backward(y)


def test_backward_deterministic_after_zeroing():
    rng = np.random.default_rng(9)
    tape = T.Tape()
    w = tape.param(rng.standard_normal((3, 3)))
    x = T.Tensor(rng.standard_normal((3, 1)))

    def run():
        w.zero_grad()
        t = T.Tape()
        t.watch(w)
        loss = T.sum_all(T.activation(T.matmul(w, x), "tanh"))
        t.backward(loss)
        return w.grad.copy()

    g1, g2 = run(), run()
    assert np.array_equal(g1, g2)


def test_mixing_tapes_rejected():
    t1, t2 = T.Tape(), T.Tape()
    a = t1.param(np.ones((2, 2)))
    b = t2.param(np.ones((2, 2)))
    with pytest.raises(ValueError, match="different tapes"):
        T.add(a, b)


_SEGS = T.Segments([0, 1, 2], 3)
# Each public op with one operand an ndarray, the other a Tensor.
NDARRAY_OPERANDS = {
    "add": lambda a, t: T.add(t, a),
    "sub": lambda a, t: T.sub(a, t),
    "scale": lambda a, t: T.scale(a, 2.0),
    "elementwise_mul": lambda a, t: T.elementwise_mul(t, a),
    "matmul": lambda a, t: T.matmul(t, a.T),
    "activation": lambda a, t: T.activation(a, "tanh"),
    "softmax_rows": lambda a, t: T.softmax_rows(a),
    "concat": lambda a, t: T.concat([t, a]),
    "sum_all": lambda a, t: T.sum_all(a),
    "abs_": lambda a, t: T.abs_(a),
    "log": lambda a, t: T.log(a),
    "gather_rows": lambda a, t: T.gather_rows(a, _SEGS),
    "scatter_add_rows": lambda a, t: T.scatter_add_rows(a, _SEGS),
    "segment_softmax": lambda a, t: T.segment_softmax(a, _SEGS),
    "expand_outer": lambda a, t: T.expand_outer(t, a),
    "transpose": lambda a, t: T.transpose(a),
    "slice_rows": lambda a, t: T.slice_rows(a, 0, 1),
}


@pytest.mark.parametrize("op", sorted(NDARRAY_OPERANDS))
def test_an_ndarray_operand_raises(op):
    # Nothing converts operands: _make reads .tape, which an ndarray lacks,
    # unless the op first trips over ndarray.data, a memoryview.
    a = np.ones((3, 2))
    with pytest.raises((AttributeError, TypeError)):
        NDARRAY_OPERANDS[op](a, T.Tensor(a))


def test_gather_scatter_roundtrip_gradients():
    rng = np.random.default_rng(13)
    h = T.Tensor(rng.standard_normal((5, 3)))
    idx = T.Segments([0, 0, 2, 4, 4, 4], 5)

    def f():
        t = T.Tape()
        t.watch(h)
        g = T.gather_rows(h, idx)
        s = T.scatter_add_rows(g, T.Segments([0, 1, 1, 2, 0, 2], 3))
        return T.sum_all(T.activation(s, "tanh"))

    assert T.finite_diff_check(f, h) < 1e-6


def test_segment_softmax_normalizes_per_segment():
    logits = T.Tensor(np.array([[1.0], [2.0], [3.0], [0.5]]))
    seg = T.Segments([0, 0, 1, 1], 2)
    y = T.segment_softmax(logits, seg)
    assert abs(y.data[0, 0] + y.data[1, 0] - 1.0) < 1e-12
    assert abs(y.data[2, 0] + y.data[3, 0] - 1.0) < 1e-12


def test_segment_softmax_gradient():
    rng = np.random.default_rng(17)
    logits = T.Tensor(rng.standard_normal((6, 2)))
    seg = T.Segments([0, 0, 0, 1, 1, 2], 3)
    w = rng.standard_normal((6, 2))

    def f():
        t = T.Tape()
        t.watch(logits)
        y = T.segment_softmax(logits, seg)
        return T.sum_all(T.elementwise_mul(y, T.Tensor(w)))

    assert T.finite_diff_check(f, logits) < 1e-6


def test_expand_outer_matches_per_row_vec_of_outer():
    rng = np.random.default_rng(19)
    c = rng.standard_normal((4, 3))
    h = rng.standard_normal((4, 5))
    out = T.expand_outer(T.Tensor(c), T.Tensor(h))
    for e in range(4):
        expected = np.outer(c[e], h[e]).reshape(-1, order="F")
        assert np.array_equal(out.data[e], expected)


def test_expand_outer_gradient():
    rng = np.random.default_rng(23)
    c = T.Tensor(rng.standard_normal((3, 2)))
    h = rng.standard_normal((3, 4))
    w = rng.standard_normal((3, 8))

    def f():
        t = T.Tape()
        t.watch(c)
        return T.sum_all(T.elementwise_mul(T.expand_outer(c, T.Tensor(h)), T.Tensor(w)))

    assert T.finite_diff_check(f, c) < 1e-6


def test_matmul_associativity():
    rng = np.random.default_rng(29)
    for _ in range(10):
        a, b, c = (rng.standard_normal(s) for s in [(3, 4), (4, 5), (5, 2)])
        left = (a @ b) @ c
        right = a @ (b @ c)
        assert np.max(np.abs(left - right)) < 1e-10


def test_finite_diff_check_quadratic_is_tight():
    rng = np.random.default_rng(31)
    theta = T.Tensor(rng.standard_normal((4, 1)))

    def f():
        t = T.Tape()
        t.watch(theta)
        return T.sum_all(T.elementwise_mul(theta, theta))

    assert T.finite_diff_check(f, theta) < 1e-9


def test_finite_diff_check_mlp():
    rng = np.random.default_rng(37)
    w1 = T.Tensor(rng.standard_normal((4, 3)))
    w2 = T.Tensor(rng.standard_normal((1, 4)))
    x = rng.standard_normal((3, 1))

    def f():
        t = T.Tape()
        t.watch(w1)
        t.watch(w2)
        hidden = T.activation(T.matmul(w1, T.Tensor(x)), "tanh")
        return T.sum_all(T.matmul(w2, hidden))

    assert T.finite_diff_check(f, w1) < 1e-6
    assert T.finite_diff_check(f, w2) < 1e-6


def test_no_nan_on_finite_inputs():
    rng = np.random.default_rng(41)
    for _ in range(50):
        x = T.Tensor(rng.uniform(-100, 100, size=(3, 4)))
        for kind in ["tanh", "relu", "leakyrelu"]:
            assert np.isfinite(T.activation(x, kind).data).all()
        assert np.isfinite(T.softmax_rows(x).data).all()


def _random_differentiable_graph(rng, x):
    """Random composite expression exercising every differentiable op."""
    m, n = x.data.shape
    w = T.Tensor(rng.standard_normal((n, 3)))
    idx = T.Segments(rng.integers(0, m, size=m + 2), m)
    seg = T.Segments(np.sort(rng.integers(0, 2, size=m + 2)), 2)
    parts = [
        T.matmul(x, w),
        T.activation(x, "tanh"),
        T.activation(T.add(x, T.Tensor(np.full((m, n), 0.05))), "leakyrelu"),
        T.softmax_rows(x),
        T.elementwise_mul(x, x),
        T.add(x, T.Tensor(rng.standard_normal((1, n)))),
        T.scatter_add_rows(T.gather_rows(x, idx), seg),
        T.segment_softmax(T.gather_rows(x, idx), seg),
        T.expand_outer(x, x),
        T.transpose(x),
        T.slice_rows(x, 0, m - 1),
        T.sub(T.scale(x, 1.7), x),
        T.concat([x, x], axis=1),
        T.abs_(T.add(x, T.Tensor(np.full((m, n), 0.11)))),
        T.log(T.add(T.elementwise_mul(x, x), T.Tensor(np.full((m, n), 1.0)))),
    ]
    pick = rng.integers(0, len(parts), size=3)
    total = None
    for i in pick:
        s = T.sum_all(parts[i])
        total = s if total is None else T.add(total, s)
    return total


def test_gradients_match_finite_differences_100_trials():
    # every differentiable op, random compositions, rel err < 1e-6
    rng = np.random.default_rng(1234)
    worst = 0.0
    for _ in range(100):
        m, n = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        data = rng.standard_normal((m, n))
        data[np.abs(data) < 0.05] += 0.2  # keep off relu/abs kinks
        x = T.Tensor(data)
        seed = int(rng.integers(0, 2**31))  # freeze the expression per trial

        def f():
            tape = T.Tape()
            tape.watch(x)
            return _random_differentiable_graph(np.random.default_rng(seed), x)

        worst = max(worst, T.finite_diff_check(f, x))
    assert worst < 1e-6, worst


# ---- segment reductions against the np.add.at route they replace -----------

def _add_at(index, rows, num_segments):
    out = np.zeros((num_segments,) + rows.shape[1:])
    np.add.at(out, index, rows)
    return out


def _assert_close(got, want, magnitude=None):
    """|got - want| <= 1e-12 of the largest magnitude. A sum taken in another
    order is only as exact as the sum of its terms' absolute values, so a
    sum passes that as magnitude; where terms cancel, |want| understates it."""
    magnitude = np.abs(want) if magnitude is None else magnitude
    scale = max(float(np.max(magnitude, initial=0.0)), 1e-300)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want), initial=0.0) <= 1e-12 * scale


class _TwoPathSegments:
    """Segments before it had one reduction path, kept as the oracle: one
    reduceat over CSR starts when the index, in the given order, is sorted
    and leaves no segment empty, ufunc.at otherwise."""

    def __init__(self, index, num_segments, order=None):
        self.index = np.asarray(index, dtype=np.intp)
        self.num_segments = int(num_segments)
        self.order = order
        self.starts = None
        ordered = self.index if order is None else self.index[order]
        if (ordered.size and 0 <= ordered[0] and ordered[-1] < self.num_segments
                and (ordered[1:] >= ordered[:-1]).all()):
            counts = np.bincount(ordered, minlength=self.num_segments)
            if counts.all():
                self.starts = np.concatenate(([0], np.cumsum(counts[:-1])))

    def reduce(self, ufunc, rows, identity):
        if self.starts is None:
            out = np.full((self.num_segments,) + rows.shape[1:], identity)
            ufunc.at(out, self.index, rows)
            return out
        if self.order is not None:
            rows = rows[self.order]
        return ufunc.reduceat(rows, self.starts, axis=0)


@st.composite
def segment_cases(draw):
    """(index, num_segments, rows): sorted or not, empty segments or not."""
    num_segments = draw(st.integers(1, 6))
    k = draw(st.integers(0, 14))
    index = np.array(draw(st.lists(st.integers(0, num_segments - 1), min_size=k, max_size=k)),
                     dtype=np.intp)
    if draw(st.booleans()):
        index = np.sort(index)
    if draw(st.booleans()):  # every segment non-empty, in segment order
        index = np.sort(np.concatenate([np.arange(num_segments), index]))
    cols = draw(st.integers(1, 3))
    rows = np.random.default_rng(draw(st.integers(0, 2**31 - 1))).standard_normal(
        (index.size, cols))
    return index, num_segments, rows


@given(segment_cases())
@settings(max_examples=300, deadline=None)
def test_segment_sums_match_add_at(case):
    """Bit for bit the two-path oracle wherever it reduced the same way:
    where it took reduceat, for max, and where no segment holds three rows.
    Elsewhere ufunc.at added left to right and reduceat associates
    r0 + ((r1 + r2) + ...), so the sums agree to rounding."""
    index, n, rows = case
    short = np.bincount(index, minlength=n).max(initial=0) <= 2
    magnitude = _add_at(index, np.abs(rows), n)
    order = np.argsort(index, kind="stable")
    for given_order in (None, order):
        segs, old = T.Segments(index, n, given_order), _TwoPathSegments(index, n, given_order)
        for ufunc, identity in ((np.add, 0.0), (np.maximum, -np.inf)):
            got, want = segs.reduce(ufunc, rows, identity), old.reduce(ufunc, rows, identity)
            if old.starts is not None or ufunc is np.maximum or short:
                assert np.array_equal(got, want)
            else:
                _assert_close(got, want, magnitude)
        _assert_close(segs.sum(rows), _add_at(index, rows, n), magnitude)


@given(segment_cases(), st.data())
@settings(max_examples=200, deadline=None)
def test_segments_reject_an_index_outside_their_range(case, data):
    index, n, _ = case
    bad = data.draw(st.one_of(st.integers(-3, -1), st.integers(n, n + 3)))
    index = np.insert(index, data.draw(st.integers(0, index.size)), bad)
    with pytest.raises(ValueError, match=rf"outside \[0, {n}\)"):
        T.Segments(index, n)


def _value_and_vjp(op, x, g):
    """op(x) and the gradient of sum(op(x) * g) with respect to x."""
    tape = T.Tape()
    xt = tape.param(x.copy())
    out = op(xt)
    tape.backward(T.sum_all(T.elementwise_mul(out, T.Tensor(g))))
    return out.data, xt.grad


# nine rows whose sum cancels to 1.7e-4, where reduceat and ufunc.at round
# apart by more than 1e-12 of the sum
_CANCELLING_SUM = (np.zeros(9, dtype=np.intp), 1,
                   np.random.default_rng(46285).standard_normal((9, 1)))


@given(segment_cases())
@example(_CANCELLING_SUM)
@settings(max_examples=200, deadline=None)
def test_segment_ops_and_their_vjps_match_add_at(case):
    index, n, rows = case
    g_out = np.random.default_rng(index.size).standard_normal((n, rows.shape[1]))
    g_rows = np.random.default_rng(n).standard_normal(rows.shape)
    seg_max = np.full((n, rows.shape[1]), -np.inf)
    np.maximum.at(seg_max, index, rows)
    e = np.exp(rows - seg_max[index])
    softmax = e / _add_at(index, e, n)[index]
    for segs in (T.Segments(index, n), T.Segments(index, n, np.argsort(index, kind="stable"))):
        out, grad = _value_and_vjp(lambda x: T.scatter_add_rows(x, segs), rows, g_out)
        _assert_close(out, _add_at(index, rows, n), _add_at(index, np.abs(rows), n))
        assert np.array_equal(grad, g_out[index])

        out, grad = _value_and_vjp(lambda x: T.gather_rows(x, segs), g_out, g_rows)
        assert np.array_equal(out, g_out[index])
        _assert_close(grad, _add_at(index, g_rows, n), _add_at(index, np.abs(g_rows), n))

        out, grad = _value_and_vjp(lambda x: T.segment_softmax(x, segs), rows, g_rows)
        _assert_close(out, softmax)
        _assert_close(grad, softmax * (g_rows - _add_at(index, g_rows * softmax, n)[index]),
                      softmax * (np.abs(g_rows) + _add_at(index, np.abs(g_rows * softmax), n)[index]))


def test_segments_sort_an_unsorted_index_once():
    assert T.Segments(np.array([0, 0, 1, 2]), 3).order is None
    assert T.Segments(np.array([0, 0, 2]), 3).order is None             # segment 1 empty
    assert T.Segments(np.array([], dtype=np.intp), 2).order is None     # no rows
    index = np.array([2, 0, 1, 0])
    assert np.array_equal(T.Segments(index, 3).order, np.argsort(index, kind="stable"))
    given_order = np.array([1, 3, 2, 0])
    assert T.Segments(index, 3, order=given_order).order is given_order
    with pytest.raises(ValueError, match="order does not sort"):
        T.Segments(index, 3, order=np.arange(4))


def test_segments_reject_a_mismatched_count():
    x = T.Tensor(np.arange(6.0).reshape(3, 2))
    with pytest.raises(ValueError, match="2 segments for 3 rows"):
        T.gather_rows(x, T.Segments([0, 1], 2))
    with pytest.raises(ValueError, match=r"outside \[0, 2\)"):
        T.scatter_add_rows(x, T.Segments([-1, 0, 0], 2))
    with pytest.raises(ValueError, match=r"outside \[0, 3\)"):
        T.gather_rows(x, T.Segments([-1, 0], 3))
    with pytest.raises(ValueError, match=r"outside \[0, 3\)"):
        T.Segments([0, 5, 1], 3)


# ---- broadcasting against the single-purpose ops it replaces ----------------

def _add_bias(x, b):
    return T._make(x.data + b.data, [(x, lambda g: g),
                                     (b, lambda g: g.sum(axis=0, keepdims=True))])


def _row_scale(x, weights):
    w = np.asarray(weights, dtype=np.float64).reshape(-1, 1)
    return T._make(x.data * w, [(x, lambda g: g * w)])


def _colvec_mul(x, c):
    xd, cd = x.data, c.data
    return T._make(xd * cd, [(x, lambda g: g * cd),
                             (c, lambda g: (g * xd).sum(axis=1, keepdims=True))])


def _values_and_grads(op, a, b, g):
    """op(a, b) and the gradients of sum(op(a, b) * g) with respect to a and b."""
    tape = T.Tape()
    at, bt = tape.param(a.copy()), tape.param(b.copy())
    out = op(at, bt)
    tape.backward(T.sum_all(T.elementwise_mul(out, T.Tensor(g))))
    return out.data, at.grad, bt.grad


@given(st.integers(0, 5), st.integers(1, 4), st.integers(0, 2**31 - 1))
@settings(max_examples=200, deadline=None)
def test_broadcasting_ops_match_the_ops_they_replace(m, n, seed):
    rng = np.random.default_rng(seed)
    x, g = rng.standard_normal((m, n)), rng.standard_normal((m, n))
    row, col = rng.standard_normal((1, n)), rng.standard_normal((m, 1))
    pairs = [
        (T.add, _add_bias, x, row),
        (lambda a, b: T.add(b, a), _add_bias, x, row),
        (lambda a, b: T.elementwise_mul(a, T.Tensor(b.data)),
         lambda a, b: _row_scale(a, b.data[:, 0]), x, col),
        (T.elementwise_mul, _colvec_mul, x, col),
        (lambda a, b: T.elementwise_mul(b, a), _colvec_mul, x, col),
    ]
    for new, old, a, b in pairs:
        got, want = _values_and_grads(new, a, b, g), _values_and_grads(old, a, b, g)
        for u, v in zip(got, want):
            assert (u is None and v is None) or np.array_equal(u, v)
    out, ga, gb = _values_and_grads(T.sub, x, row, g)
    assert np.array_equal(out, x - row) and np.array_equal(ga, g)
    assert np.array_equal(gb, -g.sum(axis=0, keepdims=True))


def test_broadcasting_rejects_other_shapes():
    for a, b in [((2, 3), (3, 2)), ((2, 3), (3,)), ((2, 3), (2, 2))]:
        for op in (T.add, T.sub, T.elementwise_mul):
            with pytest.raises(ValueError, match="shape mismatch"):
                op(T.Tensor(np.ones(a)), T.Tensor(np.ones(b)))


# ---- tape lifetime, against the tensor-record tape ---------------------------

class TensorRecordTape(T.Tape):
    """The tape before gradient holders, kept as the oracle: its record holds
    each op's output tensor and its taped input tensors, and backward walks
    them and writes each tensor's gradient (through its holder, where
    .grad reads it). Every such tape is a reference cycle (tensor -> tape
    -> record -> tensor), freed only by the cycle collector."""

    def record(self, out, pairs):
        self._ops.append((out, [(t, vjp) for t, vjp in pairs if t.tape is not None]))

    def backward(self, loss):
        loss._cell.grad = np.ones_like(loss.data) if loss.grad is None else loss.grad + 1.0
        for out, pairs in reversed(self._ops):
            g = out.grad
            if g is None:
                continue
            for tensor, vjp in pairs:
                contrib = vjp(g)
                shape, broadcast = tensor.data.shape, contrib.shape
                if broadcast != shape:
                    axes = tuple([i for i, n in enumerate(shape) if n != broadcast[i]])
                    contrib = contrib.sum(axis=axes, keepdims=True)
                if tensor.grad is None:
                    tensor._cell.grad = np.array(contrib)
                else:
                    tensor._cell.grad += contrib


TRAINABLE_KINDS = [k for k in L.LAYER_KINDS if k not in L.INSPECTION_KINDS]


def featured_dataset(seed):
    """12 graphs of 6 nodes with 3 features (so attention kinds keep d_in ==
    d_out), their triangle counts as targets; 10 train, 1 valid, 1 test."""
    rng = np.random.default_rng(seed)
    graphs = [G.random_featured_graph(rng, 6, 0.5, 3) for _ in range(12)]
    for g in graphs:
        g.target = float(G.count_triangles(g))
    return G.Dataset(graphs, {"train": list(range(10)), "valid": [10], "test": [11]})


def kind_specs(kind):
    return [L.LayerSpec(kind, 3, 3, s=2), L.LayerSpec(kind, 3, 3, s=2)]


def new_tapes(before):
    """The Tape objects the collector tracks now and did not in before."""
    seen = {id(t) for t in before}
    return [o for o in gc.get_objects() if isinstance(o, T.Tape) and id(o) not in seen]


@contextlib.contextmanager
def collector_off():
    """Run the body with the cycle collector off; yields the Tapes alive at
    the start, after one collection."""
    gc.collect()
    before = [o for o in gc.get_objects() if isinstance(o, T.Tape)]
    gc.disable()
    try:
        yield before
    finally:
        gc.enable()


@pytest.mark.parametrize("kind", TRAINABLE_KINDS)
def test_train_leaves_no_tape_for_the_collector(kind, monkeypatch):
    monkeypatch.setattr(TR, "MESSAGE_BUDGET", 40)  # several groups per batch
    config = TR.TrainConfig(epochs=2, batch_size=4, lr=0.01, loss="MSE")
    with collector_off() as before:
        model, _ = TR.train(kind_specs(kind), featured_dataset(0), config)
        assert new_tapes(before) == []
        assert all(p.tape is None for p in model.params())


def test_a_dropped_loss_leaves_no_tape_for_the_collector():
    rng = np.random.default_rng(0)
    w = T.Tensor(rng.standard_normal((3, 4)))
    x = T.Tensor(rng.standard_normal((5, 3)))

    def step(backward):
        tape = T.Tape()
        tape.watch(w)
        h = T.activation(T.matmul(x, w), "tanh")
        loss = T.sum_all(T.slice_rows(h, 1, 4))  # a slice of an intermediate
        if backward:
            tape.backward(loss)
        w.tape = None

    def composite(seed):
        x = T.Tape().param(rng.standard_normal((3, 3)))
        x.tape.backward(_random_differentiable_graph(np.random.default_rng(seed), x))

    with collector_off() as before:
        step(True)
        step(False)
        for seed in range(20):
            composite(seed)
        assert new_tapes(before) == []
    assert w.grad is not None


def test_every_composition_has_the_tensor_record_gradients():
    rng = np.random.default_rng(1234)
    for _ in range(100):
        m, n = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        data = rng.standard_normal((m, n))
        seed = int(rng.integers(0, 2**31))
        grads, ops = [], []
        for tape in (T.Tape(), TensorRecordTape()):
            x = tape.param(data.copy())
            tape.backward(_random_differentiable_graph(np.random.default_rng(seed), x))
            grads.append(x.grad.tobytes())
            ops.append(len(tape._ops))
        assert grads[0] == grads[1] and ops[0] == ops[1]


def _one_step_grads(kind, seed):
    ds = featured_dataset(seed)
    model = L.Model(kind_specs(kind), seed=seed)
    model.zero_grad()
    for group in TR.message_groups(ds.subset("train")[:4]):
        TR._accumulate_gradients(model, group, "MSE")
    return [p.grad.tobytes() for p in model.params()]


@pytest.mark.parametrize("kind", TRAINABLE_KINDS)
def test_training_has_the_tensor_record_gradients_and_parameters(kind, monkeypatch):
    monkeypatch.setattr(TR, "MESSAGE_BUDGET", 40)
    for seed in range(5):
        config = TR.TrainConfig(epochs=3, batch_size=4, lr=0.01, loss="MSE", seed=seed)
        runs = []
        for tape in (T.Tape, TensorRecordTape):
            monkeypatch.setattr(T, "Tape", tape)
            model, metrics = TR.train(kind_specs(kind), featured_dataset(seed), config)
            runs.append((_one_step_grads(kind, seed),
                         [p.data.tobytes() for p in model.params()],
                         metrics.train_loss, metrics.valid_loss, metrics.test_metric))
        assert runs[0] == runs[1], (kind, seed)
