"""Dense float64 tensors with reverse-mode automatic differentiation.

A Tape records every operation in execution order (inputs always precede
outputs, so the record is already topologically sorted). backward() walks
the record once in reverse and accumulates vector-Jacobian products into
the .grad buffers of the tensors that participated.

The record holds no Tensor: each taped tensor owns a small gradient holder
(its shape and its .grad), and the record keeps the holders and the VJP
closures, which capture arrays, never tensors. A tape is therefore no
reference cycle. Dropping its last reference frees it at once, and an
intermediate's array is freed as soon as neither a tensor nor a VJP reads
it.

Tensors created without a tape are constants: they can appear in any
expression but never receive gradients. The ops take Tensor operands
only; wrap an ndarray in Tensor to use it as a constant.

The elementwise binary ops (add, sub, elementwise_mul) share one
broadcasting rule: both operands have the same ndim, and an operand may
have length 1 on an axis that the other spans. Their VJPs return the
gradient at the broadcast shape, and backward() sums it back over the
axes the operand was broadcast along, with keepdims.

Row reductions over a segment index (scatter, segment softmax, the
backward of a gather) go through Segments, which takes the rows in the
index's stable sorted order and sums the non-empty segments with one
np.add.reduceat over their CSR start offsets; an empty segment gets the
identity.
"""

import numpy as np

__all__ = [
    "Tape", "Tensor", "Segments", "add", "sub", "scale", "elementwise_mul", "matmul",
    "activation", "softmax_rows", "concat", "sum_all", "abs_", "log",
    "gather_rows", "scatter_add_rows", "segment_softmax", "expand_outer",
    "transpose", "slice_rows", "finite_diff_check",
]


class Tensor:
    """A dense float64 array, optionally attached to an autodiff tape.

    A taped tensor's gradient lives in a _Grad holder, which the tape's
    record points to in place of the tensor; .grad reads it.
    """

    __slots__ = ("data", "tape", "_cell")

    def __init__(self, data, tape=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.tape = tape
        self._cell = None if tape is None else _Grad(self.data.shape)

    @property
    def shape(self):
        return self.data.shape

    @property
    def grad(self):
        return None if self._cell is None else self._cell.grad

    def zero_grad(self):
        if self._cell is not None:
            self._cell.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, taped={self.tape is not None})"


class _Grad:
    """The gradient of one taped tensor: the tensor's shape and its .grad."""

    __slots__ = ("shape", "grad")

    def __init__(self, shape):
        self.shape = shape
        self.grad = None


class Tape:
    """Ordered record of operations for one forward/backward pass.

    Not thread-safe: a tape and the tensors on it belong to a single
    owner. Constants (tensors without a tape) are immutable by convention
    and may be shared freely.
    """

    def __init__(self):
        self._ops = []      # (out _Grad, [(in _Grad, vjp), ...]) in execution order

    def param(self, data):
        """Create a trainable tensor on this tape."""
        return Tensor(data, tape=self)

    def watch(self, tensor):
        """Attach an existing tensor (e.g. a persistent parameter) to this tape.

        A watched tensor keeps its gradient holder across tapes, so the
        gradients of successive tapes add up in .grad until zero_grad().
        Training loops build a fresh tape per group and watch the model
        parameters on it; they detach the parameters after the group's
        backward, or every later expression that reads them is recorded
        onto this tape and keeps it alive.
        """
        tensor.tape = self
        if tensor._cell is None:
            tensor._cell = _Grad(tensor.data.shape)
        return tensor

    def record(self, out, pairs):
        """Record the op that made out from its (input, vjp) pairs: the
        holders of out and of its taped inputs, with their VJPs."""
        self._ops.append((out._cell, [(t._cell, vjp) for t, vjp in pairs if t.tape is not None]))

    def backward(self, loss):
        """Fill .grad on every tensor reachable from the scalar loss.

        Gradients accumulate: call zero_grad() on parameters between
        passes. Repeated backward after zeroing reproduces identical
        gradients (the traversal order is the fixed op record).
        """
        if loss.data.size != 1:
            raise ValueError(f"backward needs a scalar loss, got shape {loss.data.shape}")
        if loss.tape is not self:
            raise ValueError("loss does not belong to this tape")
        loss._cell.grad = np.ones_like(loss.data) if loss.grad is None else loss.grad + 1.0
        for out, pairs in reversed(self._ops):
            g = out.grad
            if g is None:
                continue
            for cell, vjp in pairs:
                contrib = vjp(g)
                shape, broadcast = cell.shape, contrib.shape
                if broadcast != shape:  # the input was broadcast: sum over those axes
                    axes = tuple([i for i, n in enumerate(shape) if n != broadcast[i]])
                    contrib = contrib.sum(axis=axes, keepdims=True)
                if cell.grad is None:
                    cell.grad = np.array(contrib)  # copy: vjp may return a view
                else:
                    cell.grad += contrib


def _make(data, pairs):
    """Build the result tensor from its (input, vjp) pairs, one per input;
    record it if any input is on a tape. A vjp captures arrays, never a
    Tensor: through its .tape, a captured tensor would make the tape a
    reference cycle again."""
    tape = None
    for t, _ in pairs:
        if t.tape is not None:
            if tape is None:
                tape = t.tape
            elif tape is not t.tape:
                raise ValueError("operands belong to different tapes")
    out = Tensor(data, tape=tape)
    if tape is not None:
        tape.record(out, pairs)
    return out


def _elementwise(name, op, a, b, vjp_a, vjp_b):
    """op(a, b) under the broadcasting rule."""
    try:
        y = op(a.data, b.data) if a.data.ndim == b.data.ndim else None
    except ValueError:  # lengths that differ and are not 1
        y = None
    if y is None:
        raise ValueError(f"{name}: shape mismatch {a.data.shape} vs {b.data.shape}")
    return _make(y, [(a, vjp_a), (b, vjp_b)])


def add(a, b):
    return _elementwise("add", np.add, a, b, lambda g: g, lambda g: g)


def sub(a, b):
    return _elementwise("sub", np.subtract, a, b, lambda g: g, lambda g: -g)


def scale(a, c):
    """Multiply by a python float constant."""
    c = float(c)
    return _make(a.data * c, [(a, lambda g: g * c)])


def elementwise_mul(a, b):
    ad, bd = a.data, b.data
    return _elementwise("elementwise_mul", np.multiply, a, b,
                        lambda g: g * bd, lambda g: g * ad)


def matmul(a, b):
    """Matrix product of 2-D tensors; backward is G·Bᵀ and Aᵀ·G."""
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ValueError(f"matmul: shape mismatch {a.data.shape} vs {b.data.shape}")
    ad, bd = a.data, b.data
    return _make(ad @ bd, [(a, lambda g: g @ bd.T), (b, lambda g: ad.T @ g)])


_ACTIVATIONS = ("tanh", "relu", "leakyrelu")


def activation(x, kind):
    """Elementwise nonlinearity. relu subgradient at 0 is taken as 0;
    leakyrelu's negative-side slope is 0.2, the common attention-layer
    choice."""
    xd = x.data
    if kind == "tanh":
        y = np.tanh(xd)
        return _make(y, [(x, lambda g: g * (1.0 - y * y))])
    if kind == "relu":
        mask = (xd > 0).astype(np.float64)
        return _make(xd * mask, [(x, lambda g: g * mask)])
    if kind == "leakyrelu":
        slope = np.where(xd > 0, 1.0, 0.2)
        return _make(xd * slope, [(x, lambda g: g * slope)])
    raise ValueError(f"unknown activation kind {kind!r}, expected one of {_ACTIVATIONS}")


def softmax_rows(x):
    """Row-wise softmax with max subtraction; each row sums to 1."""
    if x.data.ndim != 2:
        raise ValueError(f"softmax_rows: need 2-D input, got shape {x.data.shape}")
    shifted = x.data - x.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=1, keepdims=True)

    def vjp(g):
        dot = (g * y).sum(axis=1, keepdims=True)
        return y * (g - dot)

    return _make(y, [(x, vjp)])


def concat(tensors, axis=0):
    """Concatenate 2-D tensors along the given axis."""
    tensors = list(tensors)
    if not tensors:
        raise ValueError("concat: empty input list")
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)
    pairs = []
    for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
        if axis == 0:
            pairs.append((t, lambda g, lo=lo, hi=hi: g[lo:hi]))
        else:
            pairs.append((t, lambda g, lo=lo, hi=hi: g[:, lo:hi]))
    return _make(data, pairs)


def sum_all(x):
    """Sum every entry into a (1, 1) scalar."""
    shape = x.data.shape
    y = np.array([[x.data.sum()]])
    return _make(y, [(x, lambda g: np.full(shape, g[0, 0]))])


def abs_(x):
    """Elementwise absolute value; subgradient at 0 is 0."""
    sign = np.sign(x.data)
    return _make(np.abs(x.data), [(x, lambda g: g * sign)])


def log(x):
    """Elementwise natural log; caller guarantees positive entries."""
    xd = x.data
    return _make(np.log(xd), [(x, lambda g: g / xd)])


class Segments:
    """A segment index over rows, with the plan to reduce rows by segment.

    index[i] is the segment of row i, in [0, num_segments); an index
    outside that range raises ValueError. order is a stable sorting
    permutation of index: None for a sorted index, computed here for an
    unsorted one unless the caller has it (GraphBatch does). Reductions
    run on the rows in that order (see the module docstring). The plan is
    computed once, so build one Segments per index and reuse it.
    """

    __slots__ = ("index", "num_segments", "order", "_starts", "_filled")

    def __init__(self, index, num_segments, order=None):
        self.index = index = np.asarray(index, dtype=np.intp)
        self.num_segments = int(num_segments)
        if order is None and (index[1:] < index[:-1]).any():
            order = np.argsort(index, kind="stable")
        ordered = index if order is None else index[order]
        if order is not None and (ordered[1:] < ordered[:-1]).any():
            raise ValueError("segments: order does not sort the index")
        if ordered.size and not (0 <= ordered[0] and ordered[-1] < self.num_segments):
            raise ValueError(f"segments: index outside [0, {self.num_segments})")
        self.order = order
        counts = np.bincount(index, minlength=self.num_segments)
        starts = np.cumsum(counts) - counts
        self._filled = None if counts.all() else counts.nonzero()[0]
        self._starts = starts if self._filled is None else starts[self._filled]

    def reduce(self, ufunc, rows, identity):
        """ufunc-reduce the rows of each segment: (k, ...) -> (num_segments, ...)."""
        if self.order is not None:
            rows = rows[self.order]
        if self._filled is None:
            return ufunc.reduceat(rows, self._starts, axis=0)
        out = np.full((self.num_segments,) + rows.shape[1:], identity)
        out[self._filled] = ufunc.reduceat(rows, self._starts, axis=0)
        return out

    def sum(self, rows):
        return self.reduce(np.add, rows, 0.0)


def gather_rows(x, segs):
    """Select rows x[segs.index] through a Segments over the rows of x;
    backward sums the gradients of each source row."""
    if segs.num_segments != x.data.shape[0]:
        raise ValueError(f"gather_rows: {segs.num_segments} segments for {x.data.shape[0]} rows")
    return _make(x.data[segs.index], [(x, segs.sum)])


def scatter_add_rows(x, segs):
    """Sum the rows of x into one output row per segment of a Segments."""
    return _make(segs.sum(x.data), [(x, lambda g: g[segs.index])])


def segment_softmax(logits, segs):
    """Softmax of a (k, c) logit matrix within the row groups of a Segments.

    Each column is normalized independently over the rows of its segment,
    with per-segment max subtraction for stability.
    """
    idx = segs.index
    ld = logits.data
    if ld.ndim != 2:
        raise ValueError(f"segment_softmax: need 2-D logits, got shape {ld.shape}")
    e = np.exp(ld - segs.reduce(np.maximum, ld, -np.inf)[idx])
    y = e / segs.sum(e)[idx]

    def vjp(g):
        return y * (g - segs.sum(g * y)[idx])

    return _make(y, [(logits, vjp)])


def expand_outer(coeff, feats):
    """Batched vec(m·hᵀ): rows (k, s) x (k, d) -> (k, s·d).

    Output column j·s + i holds coeff[:, i] * feats[:, j], the column-major
    flattening of each per-row outer product.
    """
    cd, fd = coeff.data, feats.data
    if cd.ndim != 2 or fd.ndim != 2 or cd.shape[0] != fd.shape[0]:
        raise ValueError(f"expand_outer: shape mismatch {cd.shape} vs {fd.shape}")
    k, s = cd.shape
    d = fd.shape[1]
    y = (fd[:, :, None] * cd[:, None, :]).reshape(k, d * s)

    def vjp_coeff(g):
        return (g.reshape(k, d, s) * fd[:, :, None]).sum(axis=1)

    def vjp_feats(g):
        return (g.reshape(k, d, s) * cd[:, None, :]).sum(axis=2)

    return _make(y, [(coeff, vjp_coeff), (feats, vjp_feats)])


def transpose(x):
    if x.data.ndim != 2:
        raise ValueError(f"transpose: need 2-D input, got shape {x.data.shape}")
    return _make(x.data.T.copy(), [(x, lambda g: g.T)])


def slice_rows(x, lo, hi):
    """Rows [lo, hi) of a 2-D tensor; backward pads the complement with zeros."""
    shape = x.data.shape
    if not 0 <= lo <= hi <= shape[0]:
        raise ValueError(f"slice_rows: [{lo}, {hi}) out of range for {shape[0]} rows")

    def vjp(g):
        out = np.zeros(shape)
        out[lo:hi] = g
        return out

    return _make(x.data[lo:hi].copy(), [(x, vjp)])


FD_STEP = 1e-6  # central-difference step of finite_diff_check


def finite_diff_check(f, theta):
    """Max relative error between autodiff and central differences with
    the fixed step FD_STEP.

    f() must rebuild its graph each call (typically on a fresh tape that
    watches theta), read theta.data, and return a scalar Tensor. The
    relative error per coordinate uses a max(1, |analytic|) denominator.
    """
    theta.zero_grad()
    loss = f()
    loss.tape.backward(loss)
    analytic = theta.grad.copy()

    flat = theta.data.ravel()
    worst = 0.0
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + FD_STEP
        f_plus = f().data.item()
        flat[i] = orig - FD_STEP
        f_minus = f().data.item()
        flat[i] = orig
        fd = (f_plus - f_minus) / (2.0 * FD_STEP)
        an = analytic.ravel()[i]
        err = abs(fd - an) / max(1.0, abs(an))
        if err > worst:
            worst = err
    return worst
