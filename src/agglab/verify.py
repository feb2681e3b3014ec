"""Executable certificates for the aggregation theory.

Each suite returns a JSON-serializable dict:
  {"property": <id>, "verdict": bool, "detail": {...}, "witness": ...}
witness is None on success; on failure it carries the counterexample.
Suites are deterministic under the given seed.
"""

import itertools

import numpy as np

from . import analysis as A
from . import layers as L
from . import tensor as T
from .graphs import random_featured_graph

__all__ = ["run_suite", "SUITES", "verify_attention_two_routes"]

GRID = (-1.0, 0.0, 1.0, 2.0)


def _ser(obj):
    """Make witnesses JSON-friendly."""
    if isinstance(obj, A.MultisetSample):
        return obj.elements.tolist()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, tuple):
        return [_ser(o) for o in obj]
    return obj


def _result(prop, verdict, detail, witness=None):
    return {"property": prop, "verdict": bool(verdict), "detail": detail,
            "witness": _ser(witness)}


def verify_attention_two_routes(trials=20, seed=0, heads=(1, 2, 4), widths=(4, 8)):
    """The per-head attention layer and its expanded-coefficient rewrite
    compute identical outputs for shared parameters (suite 'prop4');
    detail["deviations"] has [heads, width, max abs deviation] per config.
    trials and every head count and width must be at least 1, so that no
    run passes checking nothing."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    for flag, values in (("heads", heads), ("widths", widths)):
        if not values or min(values) < 1:
            raise ValueError(f"{flag} must be at least 1, got {list(values)}")
    rng = np.random.default_rng(seed)
    deviations = []
    for K in heads:
        for d in widths:
            dev = 0.0
            for _ in range(trials):
                g = random_featured_graph(rng, 10, 0.4, d)
                spec = L.LayerSpec("GAT_DEFAULT", d, d, heads=K)
                params = L.init_layer_params(spec, rng)
                H = T.Tensor(g.node_features)
                out1 = L.gat_default_forward(params, g, H, K)
                out2 = L.gat_expanding_forward(params, g, H, K)
                dev = max(dev, float(np.max(np.abs(out1.data - out2.data))))
            deviations.append([K, d, dev])
    worst = max(dev for _, _, dev in deviations)
    return _result("prop4", worst < 1e-10,
                   {"trials_per_config": trials, "heads": list(heads),
                    "widths": list(widths), "max_abs_deviation": worst,
                    "deviations": deviations})


def verify_dimensionwise_rearrangement(trials=20, seed=0):
    """The per-neighbor-MLP sum (1-layer MLP) equals the dimension-wise
    staged route, and the staged active sets match the ReLU signs
    (suite 'eq5')."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    subset_mismatches = 0
    for _ in range(trials):
        d_in, d_out, s = 3, 4, int(rng.integers(1, 4))
        g = random_featured_graph(rng, 8, 0.4, d_in)
        spec = L.LayerSpec("EXPC", d_in, d_out, s=s, re_sum=True, mlp_depth=1)
        params = L.init_layer_params(spec, rng)
        H = T.Tensor(g.node_features)
        direct = L.expc_forward(params, g, H, spec)
        staged, report = L.expc_three_stage_forward(params, g, H)
        worst = max(worst, float(np.max(np.abs(direct.data - staged))))
        src, dst = g.message_index()
        pair = np.concatenate([H.data[dst], H.data[src]], axis=1)
        C = np.tanh(pair @ params["Wc"].data.T + params["bc"].data.T)
        E = (H.data[src][:, :, None] * C[:, None, :]).reshape(len(src), d_in * s)
        pre = E @ params["W1"].data.T + params["b1"].data.T
        for v in range(g.num_nodes):
            idx = np.where(dst == v)[0]
            for i in range(d_out):
                expected = tuple(int(src[e]) for e in idx if pre[e, i] > 0)
                if report["active"][(v, i)] != expected:
                    subset_mismatches += 1
    verdict = worst < 1e-10 and subset_mismatches == 0
    return _result("eq5", verdict,
                   {"trials": trials, "max_abs_deviation": worst,
                    "active_subset_mismatches": subset_mismatches})


def _integer_rows(n):
    return [np.array(row, dtype=np.float64).reshape(1, n)
            for row in itertools.product((-1.0, 0.0, 1.0), repeat=n)]


def verify_stacking_order(trials=100, seed=0):
    """Stacking rows onto a coefficient matrix (suite 'prop1').

    (i) grid-exhaustive: stacked separations always contain the base's;
    (ii) rank growth <=> the oracle finds a pair the base merges and the
         stack separates, exhaustive over single-row integer bases;
    (iii) injectivity <=> no same-size grid collision, over deficient
         constructions and random full-rank matrices, with kernel-built
         collision pairs verified for every deficient case.
    """
    rng = np.random.default_rng(seed)
    detail = {}
    witness = None

    # (i) separations only grow under stacking
    violations_i = 0
    for _ in range(20):
        n = int(rng.integers(1, 4))
        M = rng.standard_normal((int(rng.integers(1, 3)), n))
        M_extra = rng.standard_normal((1, n))
        multisets = list(A.enumerate_multisets(GRID, n))
        base = A.separation_set(A.MatrixAggregator(M), multisets)
        stacked = A.separation_set(A.MatrixAggregator(np.vstack([M, M_extra])), multisets)
        if not base <= stacked:
            violations_i += 1
    detail["i_violations"] = violations_i

    # (ii) both directions, exhaustive single-row integer family
    mismatches_ii = 0
    cases_ii = 0
    for n in (2, 3):
        rows = _integer_rows(n)
        multisets = list(A.enumerate_multisets(GRID, n))
        for M in rows:
            f_base = A.MatrixAggregator(M)
            base_sep = A.separation_set(f_base, multisets)
            for M_extra in rows:
                cases_ii += 1
                rank_grew = A.strictly_stronger_by_stack(M, M_extra)
                stack_sep = A.separation_set(
                    A.MatrixAggregator(np.vstack([M, M_extra])), multisets)
                found = len(stack_sep - base_sep) > 0
                if found != rank_grew:
                    mismatches_ii += 1
                    if witness is None:
                        witness = (M, M_extra)
    detail["ii_cases"] = cases_ii
    detail["ii_mismatches"] = mismatches_ii

    # (iii) injectivity against exhaustive same-size collision search
    agree = 0
    kernel_ok = 0
    deficient = 0
    for case in range(trials):
        n = int(rng.integers(1, 4))
        if case % 2 == 0:
            M = _deficient_matrix(rng, n)
        else:
            M = rng.standard_normal((n + int(rng.integers(0, 2)), n))
        inj = A.is_injective_for_size(M)
        f = A.MatrixAggregator(M)
        coll = A.collision_oracle(f, f, GRID, max_size=n)
        if inj == (coll is None):
            agree += 1
        if not inj:
            deficient += 1
            pair = A.kernel_collision(M)
            if (pair is not None and pair[0] != pair[1]
                    and A.output_distance(f(pair[0]), f(pair[1])) < A.COLLISION_TOL):
                kernel_ok += 1
    detail["iii_cases"] = trials
    detail["iii_agreements"] = agree
    detail["iii_deficient"] = deficient
    detail["iii_kernel_collisions_verified"] = kernel_ok

    verdict = (violations_i == 0 and mismatches_ii == 0 and agree == trials
               and kernel_ok == deficient)
    return _result("prop1", verdict, detail, witness)


def _deficient_matrix(rng, n):
    """Random matrix with a small-integer column dependency, so the induced
    collisions land on the verification grid."""
    s = int(rng.integers(n, n + 2))
    M = rng.standard_normal((s, n))
    mode = int(rng.integers(0, 3))
    cols = rng.permutation(n)
    if mode == 0 and n >= 2:
        M[:, cols[0]] = M[:, cols[1]]
    elif mode == 1:
        M[:, cols[0]] = 0.0
    elif n >= 3:
        M[:, cols[0]] = M[:, cols[1]] + M[:, cols[2]]
    elif n == 2:
        M[:, cols[0]] = -M[:, cols[1]]
    else:
        M[:, 0] = 0.0
    return M


def verify_stacked_intersections(trials=40, seed=0):
    """Range intersections of stacked aggregators (suite 'prop2').

    (i) every stacked cross-collision is also a base cross-collision;
    (ii) whenever some base collision breaks under stacking, the stacked
         wide matrix has strictly larger rank than [M1 M2].
    """
    rng = np.random.default_rng(seed)
    entries = (-1.0, 0.0, 1.0)
    bad_i = bad_ii = strict_cases = 0
    witness = None
    for _ in range(trials):
        n1, n2 = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        s, s2 = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        M1 = rng.choice(entries, size=(s, n1))
        M2 = rng.choice(entries, size=(s, n2))
        M1p = rng.choice(entries, size=(s2, n1))
        M2p = rng.choice(entries, size=(s2, n2))
        f1, f2 = A.MatrixAggregator(M1), A.MatrixAggregator(M2)
        g1 = A.MatrixAggregator(np.vstack([M1, M1p]))
        g2 = A.MatrixAggregator(np.vstack([M2, M2p]))
        ms1 = list(A.enumerate_multisets(GRID, n1))
        ms2 = list(A.enumerate_multisets(GRID, n2))
        base_pairs = A.collision_set(f1, ms1, f2, ms2)
        stacked_pairs = A.collision_set(g1, ms1, g2, ms2)
        if not stacked_pairs <= base_pairs:
            bad_i += 1
            witness = witness or (M1, M2)
        if stacked_pairs < base_pairs:
            strict_cases += 1
            wide_base = np.hstack([M1, M2])
            wide_stacked = np.vstack([wide_base, np.hstack([M1p, M2p])])
            if not A.numerical_rank(wide_stacked) > A.numerical_rank(wide_base):
                bad_ii += 1
                witness = witness or (M1, M2)
    verdict = bad_i == 0 and bad_ii == 0
    return _result("prop2", verdict,
                   {"trials": trials, "i_violations": bad_i,
                    "ii_violations": bad_ii, "strict_shrink_cases": strict_cases},
                   witness)


def verify_disjoint_ranges(trials=50, seed=0):
    """Injectivity-plus-disjoint-ranges certificate (suite 'prop3').

    Random full-column-rank pairs: the certificate holds and cross-
    collision search over nonzero grid multisets finds nothing; the
    stacked system [M1 -M2] has a trivial kernel. Deliberately deficient
    pairs: a cross-collision witness comes out of the kernel.
    """
    rng = np.random.default_rng(seed)
    certified = searched_clean = trivial_kernel = 0
    deficient_found = 0
    witness = None
    for _ in range(trials):
        n1, n2 = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        s = n1 + n2 + int(rng.integers(0, 2))
        M1, M2 = rng.standard_normal((s, n1)), rng.standard_normal((s, n2))
        if A.ranges_disjoint_certificate(M1, M2):
            certified += 1
            f1, f2 = A.MatrixAggregator(M1), A.MatrixAggregator(M2)
            coll = A.collision_oracle(f1, f2, GRID, max_size=max(n1, n2))
            if coll is None:
                searched_clean += 1
            else:
                witness = witness or coll
            if A.numerical_rank(np.hstack([M1, -M2])) == n1 + n2:
                trivial_kernel += 1
    deficient_trials = 10
    for k in range(deficient_trials):
        n1 = 1 + k % 2
        n2 = 1 + (k // 2) % 2
        s = n1 + n2
        t1 = np.sort(rng.uniform(-2.0, 2.0, n1)) + 0.6 * np.arange(n1)
        t2 = np.sort(rng.uniform(-2.0, 2.0, n2)) + 0.6 * np.arange(n2)
        if abs(t2[-1]) < 0.3:
            t2[-1] += 1.0
        M1 = rng.standard_normal((s, n1))
        M2 = rng.standard_normal((s, n2))
        M2[:, -1] = (M1 @ t1 - M2[:, :-1] @ t2[:-1]) / t2[-1]
        pair = A.cross_kernel_collision(M1, M2)
        if pair is not None and A.output_distance(
                A.MatrixAggregator(M1)(pair[0]),
                A.MatrixAggregator(M2)(pair[1])) < A.COLLISION_TOL:
            deficient_found += 1
    verdict = (searched_clean == certified and trivial_kernel == certified
               and deficient_found == deficient_trials)
    return _result("prop3", verdict,
                   {"random_pairs": trials, "certified": certified,
                    "search_clean": searched_clean,
                    "trivial_kernel": trivial_kernel,
                    "deficient_pairs": deficient_trials,
                    "kernel_witnesses": deficient_found},
                   witness)


def verify_composition_bounds(trials=20, seed=0):
    """Post/pre-composition can only lose separations (suite 'lemma1').

    (i) projecting the output never separates more, grid-exhaustive;
    (ii) SUM||MEAN is strictly stronger than SUM and than MEAN, with the
         standard witness pairs checked explicitly;
    (iii) premultiplying elements of an equivariant aggregator by a
         rank-deficient matrix never separates more.
    """
    rng = np.random.default_rng(seed)
    SUM, MEAN = A.BasicAggregator("SUM"), A.BasicAggregator("MEAN")
    both = A.combined(SUM, MEAN)
    detail = {}
    witness = None

    multisets = [m for k in (1, 2, 3) for m in A.enumerate_multisets(GRID, k)]
    full = A.separation_set(both, multisets)
    bad_i = 0
    for idx in range(2):
        proj = A.compose(lambda y, idx=idx: y[idx:idx + 1], both, name=f"proj{idx}")
        if not A.separation_set(proj, multisets) <= full:
            bad_i += 1
    for _ in range(trials):
        n = int(rng.integers(1, 4))
        M = rng.standard_normal((2, n))
        f = A.MatrixAggregator(M)
        ms = list(A.enumerate_multisets(GRID, n))
        if not A.separation_set(
                A.compose(lambda y: y[:1], f, name="row0"), ms) <= A.separation_set(f, ms):
            bad_i += 1
    detail["i_violations"] = bad_i

    verdict_sum = A.compare_strength(both, SUM, [1.0, 2.0], max_size=4)["verdict"]
    verdict_mean = A.compare_strength(both, MEAN, [1.0, 2.0], max_size=4)["verdict"]
    w1 = (A.MultisetSample([1.0, 1.0]), A.MultisetSample([2.0]))
    w2 = (A.MultisetSample([1.0, 2.0]), A.MultisetSample([1.0, 1.0, 2.0, 2.0]))
    witnesses_hold = (
        A.output_distance(SUM(w1[0]), SUM(w1[1])) < A.COLLISION_TOL
        and A.output_distance(both(w1[0]), both(w1[1])) >= A.COLLISION_TOL
        and A.output_distance(MEAN(w2[0]), MEAN(w2[1])) < A.COLLISION_TOL
        and A.output_distance(both(w2[0]), both(w2[1])) >= A.COLLISION_TOL)
    detail["ii_verdicts"] = [verdict_sum, verdict_mean]
    detail["ii_witnesses_hold"] = witnesses_hold

    bad_iii = 0
    vec_ms = [m for k in (1, 2, 3)
              for m in A.enumerate_multisets((-1.0, 0.0, 1.0), k, width=2)]
    for agg in (SUM, MEAN):
        base = A.separation_set(agg, vec_ms)
        for _ in range(5):
            Tmat = np.outer(rng.standard_normal(2), rng.standard_normal(2))
            if not A.separation_set(A.premap(agg, Tmat), vec_ms) <= base:
                bad_iii += 1
    detail["iii_violations"] = bad_iii

    verdict = (bad_i == 0 and verdict_sum == "stronger" and verdict_mean == "stronger"
               and witnesses_hold and bad_iii == 0)
    return _result("lemma1", verdict, detail, witness)


def verify_constant_row_variants(trials=20, seed=0):
    """Appending an all-ones coefficient row beats plain SUM (suite
    'appendixG'): it keeps every SUM separation and strictly adds some;
    detail["strict_gain_example"] is the first pair only the extension separates."""
    rng = np.random.default_rng(seed)
    SUM = A.BasicAggregator("SUM")
    strict = 0
    example = witness = None
    for _ in range(trials):
        n = int(rng.integers(2, 4))
        M = np.tanh(rng.standard_normal((int(rng.integers(1, 3)), n)))
        ext = A.MatrixAggregator(np.vstack([M, np.ones((1, n))]))
        multisets = list(A.enumerate_multisets(GRID, n))
        sum_sep = A.separation_set(SUM, multisets)
        ext_sep = A.separation_set(ext, multisets)
        if not sum_sep <= ext_sep:
            return _result("appendixG", False, {"trials": trials}, (M,))
        gained = ext_sep - sum_sep
        if not gained:
            witness = witness or (M,)
        else:
            strict += 1
            if example is None:
                i, j = min(gained)
                example = (multisets[i], multisets[j])
    return _result("appendixG", strict == trials,
                   {"trials": trials, "strictly_stronger_cases": strict,
                    "strict_gain_example": _ser(example)}, witness)


SUITES = {
    "lemma1": verify_composition_bounds,
    "prop1": verify_stacking_order,
    "prop2": verify_stacked_intersections,
    "prop3": verify_disjoint_ranges,
    "prop4": verify_attention_two_routes,
    "eq5": verify_dimensionwise_rearrangement,
    "appendixG": verify_constant_row_variants,
}


def run_suite(name, trials=None, seed=0):
    """Run one named suite (or 'all') at each suite's default trials, or at
    trials, which must be at least 1 so that no run passes checking
    nothing; returns a list of result dicts."""
    if name != "all" and name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from "
                         f"{sorted(SUITES) + ['all']}")
    if trials is not None and trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if name == "all":
        return [run_suite(n, trials=trials, seed=seed)[0] for n in SUITES]
    kwargs = {} if trials is None else {"trials": trials}
    return [SUITES[name](seed=seed, **kwargs)]
