"""Aggregation-coefficient matrices and multiset distinguishing strength.

An aggregation coefficient matrix M (shape s x n) turns a size-n multiset
of d-vectors into the fixed-width vector vec(M X), where X stacks the
elements in canonical order. The rank of M certifies how much the
aggregation can distinguish: full column rank means injective on size-n
multisets, and stacking extra rows strictly helps iff it raises the rank.

Everything here is a pure function over immutable inputs. Certificates
(rank conditions) are exact up to the numerical tolerance; refutations are
witness pairs found by exhaustive search over small grids.

The multiset oracles (separation_set, collision_set and the
collision_oracle and compare_strength built on them) work on whole
candidate lists as array passes. An aggregator's outputs are stacked once,
grouped by output shape: a MatrixAggregator maps a list of one multiset
size through one batched matmul. Outputs of different shapes are at
distance inf (output_distance), so such a pair is always separated and
never collides. Within a shape group the Euclidean distances are computed
in blocks of rows holding at most BLOCK_ELEMS output differences, so a
list of n candidates never allocates n^2 * width numbers at once; a pair
separates iff its distance is >= COLLISION_TOL and collides iff it is
below it: every oracle uses this one tolerance.
"""

import itertools

import numpy as np

__all__ = [
    "MultisetSample", "BasicAggregator", "MatrixAggregator", "FunctionAggregator",
    "combined", "compose", "premap", "numerical_rank", "output_distance",
    "strictly_stronger_by_stack", "is_injective_for_size",
    "ranges_disjoint_certificate", "enumerate_multisets", "collision_oracle",
    "compare_strength", "rank_preservation_report",
    "kernel_collision", "cross_kernel_collision",
    "separation_set", "collision_set",
]

COLLISION_TOL = 1e-9
MAX_ORACLE_SIZE = 5
BLOCK_ELEMS = 1 << 18  # output differences one distance block may hold


class MultisetSample:
    """Unordered collection of equal-width vectors.

    Elements are stored in canonical (lexicographic) order so two samples
    with the same content compare equal regardless of construction order.
    Scalars are promoted to width-1 vectors.
    """

    def __init__(self, elements):
        arr = np.asarray(elements, dtype=np.float64)
        if arr.ndim == 1:
            arr = arr[:, None]
        if arr.ndim != 2 or arr.shape[0] == 0:
            raise ValueError(f"need a nonempty 2-D element array, got shape {arr.shape}")
        order = sorted(range(arr.shape[0]), key=lambda i: tuple(arr[i]))
        self.elements = arr[order]

    @classmethod
    def _canonical(cls, elements):
        """A sample over a 2-D float64 array already in canonical order."""
        sample = cls.__new__(cls)
        sample.elements = elements
        return sample

    @property
    def size(self):
        return self.elements.shape[0]

    @property
    def width(self):
        return self.elements.shape[1]

    def is_all_zero(self):
        return bool(np.all(self.elements == 0.0))

    def __eq__(self, other):
        if not isinstance(other, MultisetSample):
            return NotImplemented
        return self.elements.shape == other.elements.shape and np.array_equal(
            self.elements, other.elements)

    def __repr__(self):
        if self.width == 1:
            inner = ", ".join(repr(float(x)) for x in self.elements[:, 0])
        else:
            inner = ", ".join(repr(tuple(row)) for row in self.elements)
        return "{{" + inner + "}}"


class Aggregator:
    """Callable from a MultisetSample (or raw element array) to a 1-D vector.

    arity is None for size-insensitive aggregators, or the fixed multiset
    size for matrix-backed ones.
    """

    arity = None
    name = "aggregator"

    def __call__(self, x):
        raise NotImplementedError

    @staticmethod
    def _elements(x):
        if isinstance(x, MultisetSample):
            return x.elements
        arr = np.asarray(x, dtype=np.float64)
        return arr[:, None] if arr.ndim == 1 else arr

    def __repr__(self):
        return self.name


_BASIC_KINDS = ("SUM", "MEAN", "NMEAN", "MAX", "MIN", "STD")


class BasicAggregator(Aggregator):
    """SUM / MEAN / NMEAN / MAX / MIN / STD over element coordinates.

    NMEAN uses the uniform 1/sqrt(n) weights a bare multiset supports;
    degree-aware normalization belongs to the graph layers. STD is the
    population standard deviation.
    """

    def __init__(self, kind):
        kind = kind.upper()
        if kind not in _BASIC_KINDS:
            raise ValueError(f"unknown aggregator kind {kind!r}")
        self.kind = kind
        self.name = kind

    def __call__(self, x):
        e = self._elements(x)
        n = e.shape[0]
        if self.kind == "SUM":
            return e.sum(axis=0)
        if self.kind == "MEAN":
            return e.mean(axis=0)
        if self.kind == "NMEAN":
            return (e / np.sqrt(n)).sum(axis=0) / np.sqrt(n)
        if self.kind == "MAX":
            return e.max(axis=0)
        if self.kind == "MIN":
            return e.min(axis=0)
        return e.std(axis=0)  # STD, ddof=0


class FunctionAggregator(Aggregator):
    def __init__(self, fn, arity=None, name="custom"):
        self._fn = fn
        self.arity = arity
        self.name = name

    def __call__(self, x):
        return np.asarray(self._fn(self._elements(x)), dtype=np.float64).ravel()


def combined(*aggs):
    """Concatenate aggregator outputs: the strength-preserving combination."""
    arities = {a.arity for a in aggs if a.arity is not None}
    if len(arities) > 1:
        raise ValueError("combined aggregators must agree on arity")
    arity = arities.pop() if arities else None
    name = "(" + "||".join(a.name for a in aggs) + ")"
    return FunctionAggregator(
        lambda e: np.concatenate([a(e) for a in aggs]), arity=arity, name=name)


def compose(fn, agg, name=None):
    """Post-compose a plain function with an aggregator: x -> fn(agg(x))."""
    return FunctionAggregator(
        lambda e: np.asarray(fn(agg(e)), dtype=np.float64).ravel(),
        arity=agg.arity, name=name or f"g∘{agg.name}")


def premap(agg, T):
    """Pre-multiply every element by T before aggregating."""
    T = np.asarray(T, dtype=np.float64)
    return FunctionAggregator(
        lambda e: agg(e @ T.T), arity=agg.arity, name=f"{agg.name}∘T")


class MatrixAggregator(Aggregator):
    """f_M: the aggregator a coefficient matrix induces on size-n multisets."""

    def __init__(self, M):
        self.M = np.asarray(M, dtype=np.float64)
        if self.M.ndim != 2:
            raise ValueError(f"coefficient matrix must be 2-D, got shape {self.M.shape}")
        self.arity = self.M.shape[1]
        self.name = f"f_M[{self.M.shape[0]}x{self.M.shape[1]}]"

    def __call__(self, x):
        e = self._elements(x)
        if e.shape[0] != self.arity:
            raise ValueError(f"multiset size {e.shape[0]} != coefficient columns {self.arity}")
        return (self.M @ e).reshape(-1, order="F")

    def batch(self, elements):
        """Rows self(x) for a stack of element arrays, shape (N, n, d), from
        one matmul: numpy runs the product of each item as __call__ does,
        so the rows carry __call__'s bits."""
        if elements.shape[1] != self.arity:
            raise ValueError(f"multiset size {elements.shape[1]} != coefficient columns {self.arity}")
        return np.matmul(self.M, elements).transpose(0, 2, 1).reshape(len(elements), -1)


def _svd_rank(sv, shape):
    """numerical_rank's rule, on the singular values of a matrix of this shape."""
    return int(np.sum(sv > 1e-9 * max(shape) * (sv[0] if sv.size else 0.0)))


def numerical_rank(M):
    """Singular values above 1e-9 * max(s, n) * sigma_max."""
    M = np.asarray(M, dtype=np.float64)
    if M.size == 0:
        return 0
    return _svd_rank(np.linalg.svd(M, compute_uv=False), M.shape)


def output_distance(o1, o2):
    """Euclidean distance between two aggregator outputs, inf when their
    shapes differ. Two outputs separate iff it is >= the tolerance."""
    if o1.shape != o2.shape:
        return float("inf")
    return float(np.linalg.norm(o1 - o2))


def strictly_stronger_by_stack(M, M_extra):
    """True iff stacking M_extra under M strictly raises the rank."""
    M = np.asarray(M, dtype=np.float64)
    M_extra = np.asarray(M_extra, dtype=np.float64)
    if M.shape[1] != M_extra.shape[1]:
        raise ValueError(f"column counts differ: {M.shape} vs {M_extra.shape}")
    return numerical_rank(np.vstack([M, M_extra])) > numerical_rank(M)


def is_injective_for_size(M):
    """True iff f_M distinguishes every size-n multiset: rank(M) == n."""
    M = np.asarray(M, dtype=np.float64)
    return numerical_rank(M) == M.shape[1]


def ranges_disjoint_certificate(M1, M2):
    """rank([M1 M2]) == n1 + n2: both injective and (for nonzero inputs)
    their output ranges cannot intersect."""
    M1 = np.asarray(M1, dtype=np.float64)
    M2 = np.asarray(M2, dtype=np.float64)
    if M1.shape[0] != M2.shape[0]:
        raise ValueError(f"row counts differ: {M1.shape} vs {M2.shape}")
    return numerical_rank(np.hstack([M1, M2])) == M1.shape[1] + M2.shape[1]


def enumerate_multisets(grid, size, width=1):
    """All multisets of `size` elements drawn from grid^width, in the order
    combinations_with_replacement takes the pool (lexicographic for a
    sorted grid). Each combination is put in canonical order through its
    elements' ranks in the sorted pool, by one array sort for them all."""
    if size < 1:
        raise ValueError(f"multiset size must be at least 1, got {size}")
    pool = [tuple(float(c) for c in combo) for combo in itertools.product(grid, repeat=width)]
    order = sorted(range(len(pool)), key=pool.__getitem__)
    rank = np.empty(len(pool), dtype=np.intp)
    rank[order] = np.arange(len(pool))
    sorted_pool = np.array([pool[p] for p in order], dtype=np.float64).reshape(len(pool), width)
    combos = np.array(list(itertools.combinations_with_replacement(range(len(pool)), size)),
                      dtype=np.intp).reshape(-1, size)
    for elements in sorted_pool[np.sort(rank[combos], axis=1)]:
        yield MultisetSample._canonical(elements)


def _size_options(agg, max_size):
    if agg.arity is not None:
        return [agg.arity]
    return list(range(1, max_size + 1))


def _size_pairs(sizes1, sizes2):
    # Same-size pairs first, then widening gaps: the equal-size regime is
    # where single-aggregator injectivity questions live.
    pairs = {(k1, k2) for k1 in sizes1 for k2 in sizes2}
    return sorted(pairs, key=lambda p: (max(p), abs(p[0] - p[1]), p))


def collision_oracle(agg1, agg2, grid, max_size=3):
    """First pair of distinct multisets with (near-)equal images, or None.

    Exhaustive over multisets of scalars from grid, up to max_size
    elements. All-zero multisets are skipped: every weighted
    aggregator maps them to zero, so they say nothing about injectivity
    or range overlap (see ranges_disjoint_certificate).
    """
    if max_size > MAX_ORACLE_SIZE:
        raise ValueError(f"max_size {max_size} > {MAX_ORACLE_SIZE} (explosion guard)")
    if len(grid) == 0:
        raise ValueError("grid must be nonempty")
    cache = {}

    def candidates(size):
        if size not in cache:
            cache[size] = [m for m in enumerate_multisets(grid, size)
                           if not m.is_all_zero()]
        return cache[size]

    for k1, k2 in _size_pairs(_size_options(agg1, max_size), _size_options(agg2, max_size)):
        ms1, ms2 = candidates(k1), candidates(k2)
        hits = collision_set(agg1, ms1, agg2, ms2)
        if hits:
            i, j = min(hits)  # the first pair a row-major scan meets
            return ms1[i], ms2[j]
    return None


def _output_groups(agg, multisets):
    """agg's outputs on the candidates, grouped by output shape:
    {shape: (indices, rows)}, rows[k] the raveled output on
    multisets[indices[k]], indices ascending."""
    if hasattr(agg, "batch") and multisets:  # a MatrixAggregator
        elements = [agg._elements(m) for m in multisets]
        if all(e.shape == elements[0].shape for e in elements):
            rows = agg.batch(np.stack(elements))
            return {rows.shape[1:]: (np.arange(len(rows)), rows)}
    groups = {}
    for i, m in enumerate(multisets):
        out = np.asarray(agg(m), dtype=np.float64)
        idx, rows = groups.setdefault(out.shape, ([], []))
        idx.append(i)
        rows.append(out.ravel())
    return {shape: (np.array(idx), np.array(rows).reshape(len(idx), -1))
            for shape, (idx, rows) in groups.items()}


def _hit_pairs(X, Y, test, upper):
    """Index arrays (i, j) of the rows of X (at least one) and Y whose
    Euclidean distance d has test(d, COLLISION_TOL); upper keeps j > i only (for Y
    the same rows as X). Rows go in blocks holding at most BLOCK_ELEMS
    differences (one row at least).

    A block compares squared distances with COLLISION_TOL squared. They add
    the squares in another order than output_distance, so the two can
    differ by a few ulps per column; a pair that close to the threshold is
    decided by output_distance of its two rows (each row is a 1-D output).
    """
    m = len(Y)
    step = max(1, BLOCK_ELEMS // max(1, m * X.shape[1]))
    tol2 = COLLISION_TOL * COLLISION_TOL
    band = 4 * (X.shape[1] + 1) * np.spacing(tol2)
    found_i, found_j = [], []
    for a in range(0, len(X), step):
        b = min(len(X), a + step)
        lo = a + 1 if upper else 0
        diff = X[a:b, None, :] - Y[None, lo:, :]
        gap = np.einsum("ijk,ijk->ij", diff, diff)
        gap -= tol2
        hit = test(gap, 0.0)
        near = np.abs(gap, out=gap) <= band
        if near.any():  # rare, and np.nonzero costs as much as the distances
            for p, q in zip(*np.nonzero(near)):
                hit[p, q] = test(output_distance(X[a + p], Y[lo + q]), COLLISION_TOL)
        if upper:
            hit &= np.arange(lo, m) > np.arange(a, b)[:, None]
        i, j = np.nonzero(hit)
        found_i.append(i + a)
        found_j.append(j + lo)
    return np.concatenate(found_i), np.concatenate(found_j)


def separation_set(agg, multisets):
    """Index pairs (i, j), i < j, the aggregator separates over a fixed
    candidate list: output_distance(agg(multisets[i]), agg(multisets[j]))
    >= COLLISION_TOL.

    The outputs are stacked once and grouped by shape. Every pair across
    two groups is separated (distance inf); within a group the distances
    are thresholded in blocks of rows holding at most BLOCK_ELEMS output
    differences.
    """
    groups = list(_output_groups(agg, multisets).values())
    pairs = set()
    for g, (idx, rows) in enumerate(groups):
        i, j = _hit_pairs(rows, rows, np.greater_equal, upper=True)
        pairs.update(zip(idx[i].tolist(), idx[j].tolist()))
        for other, _ in groups[g + 1:]:
            a, b = np.meshgrid(idx, other, indexing="ij")
            pairs.update(zip(np.minimum(a, b).ravel().tolist(),
                             np.maximum(a, b).ravel().tolist()))
    return pairs


def collision_set(agg1, ms1, agg2, ms2):
    """Index pairs (i, j) of two lists of MultisetSamples with
    output_distance(agg1(ms1[i]), agg2(ms2[j])) < COLLISION_TOL and
    ms1[i] != ms2[j].

    Outputs are grouped by shape as in separation_set; only groups of one
    shape can collide. With the same aggregator and the same list on both
    sides, the pairs j > i are computed and mirrored.
    """
    same = agg1 is agg2 and ms1 is ms2
    groups1 = _output_groups(agg1, ms1)
    groups2 = groups1 if same else _output_groups(agg2, ms2)
    hits = set()
    for shape, (idx1, rows1) in groups1.items():
        if shape not in groups2:
            continue
        idx2, rows2 = groups2[shape]
        i, j = _hit_pairs(rows1, rows2, np.less, upper=same)
        a, b = idx1[i].tolist(), idx2[j].tolist()
        hits.update(zip(a, b))
        if same:
            hits.update(zip(b, a))
    return {(i, j) for i, j in hits if not ms1[i] == ms2[j]}


def compare_strength(agg1, agg2, grid, max_size=3):
    """Classify the grid-restricted distinguishing-strength order over
    multisets of scalars from grid.

    Returns a dict with 'verdict' in {stronger, weaker, equal,
    incomparable} plus a witness pair for each one-sided separation
    ('only_first' where agg1 separates and agg2 does not, and
    'only_second' for the reverse).
    """
    if max_size > MAX_ORACLE_SIZE:
        raise ValueError(f"max_size {max_size} > {MAX_ORACLE_SIZE} (explosion guard)")
    sizes = sorted(set(_size_options(agg1, max_size)) & set(_size_options(agg2, max_size)))
    if not sizes:
        return {"verdict": "incomparable", "only_first": None, "only_second": None}
    multisets = [m for k in sizes for m in enumerate_multisets(grid, k)]
    sep1 = separation_set(agg1, multisets)
    sep2 = separation_set(agg2, multisets)

    def first(pairs):
        # the least index pair is the first one a row-major scan meets
        if not pairs:
            return None
        i, j = min(pairs)
        return multisets[i], multisets[j]

    only_first, only_second = first(sep1 - sep2), first(sep2 - sep1)
    if only_first and only_second:
        verdict = "incomparable"
    elif only_first:
        verdict = "stronger"
    elif only_second:
        verdict = "weaker"
    else:
        verdict = "equal"
    return {"verdict": verdict, "only_first": only_first, "only_second": only_second}


def rank_preservation_report(M, H):
    """(rank M, rank H, rank M H): the product never exceeds the min."""
    M = np.asarray(M, dtype=np.float64)
    H = np.asarray(H, dtype=np.float64)
    if M.shape[1] != H.shape[0]:
        raise ValueError(f"shape mismatch {M.shape} vs {H.shape}")
    return numerical_rank(M), numerical_rank(H), numerical_rank(M @ H)


def _null_space(M):
    M = np.asarray(M, dtype=np.float64)
    _, sv, vh = np.linalg.svd(M)
    return vh[_svd_rank(sv, M.shape):].T  # columns span the kernel


def kernel_collision(M):
    """A colliding multiset pair built from ker(M), or None if injective.

    f_M applies M to the canonically sorted element vector, so the kernel
    vector z is laid over a strictly increasing base b with spacing wide
    enough that b - z stays sorted. Then f_M({{b}}) == f_M({{b - z}})
    while the two multisets differ.
    """
    M = np.asarray(M, dtype=np.float64)
    ker = _null_space(M)
    if ker.shape[1] == 0:
        return None
    z = ker[:, 0]
    z = z / np.max(np.abs(z))
    n = M.shape[1]
    base = 3.0 * np.arange(n, dtype=np.float64)  # spacing 3 > max possible z step
    return MultisetSample(base), MultisetSample(base - z)


def _is_sorted(v):
    return bool(np.all(np.diff(v) >= 0.0))


def cross_kernel_collision(M1, M2):
    """Multisets x1 != x2 with f_M1(x1) == f_M2(x2), from ker([M1 -M2]).

    Returns None when the stacked system has a trivial kernel (the
    disjoint-ranges certificate holds). A kernel vector yields a valid
    witness only when both of its pieces are already sorted (multiset
    aggregation reads elements in canonical order), so the kernel basis
    and its negations are scanned for sorted pieces and the collision is
    verified before returning.
    """
    M1 = np.asarray(M1, dtype=np.float64)
    M2 = np.asarray(M2, dtype=np.float64)
    n1 = M1.shape[1]
    ker = _null_space(np.hstack([M1, -M2]))
    if ker.shape[1] == 0:
        return None
    candidates = []
    for i in range(ker.shape[1]):
        candidates.extend([ker[:, i], -ker[:, i]])
    if ker.shape[1] >= 2:
        mix = ker[:, 0] + 0.5 * ker[:, 1]
        candidates.extend([mix, -mix])
    f1, f2 = MatrixAggregator(M1), MatrixAggregator(M2)
    for z in candidates:
        if np.linalg.norm(z) < 1e-12 or not (_is_sorted(z[:n1]) and _is_sorted(z[n1:])):
            continue
        x1 = MultisetSample(z[:n1])
        x2 = MultisetSample(z[n1:])
        if (x1.size != x2.size or x1 != x2) and output_distance(f1(x1), f2(x2)) < COLLISION_TOL:
            return x1, x2
    return None
