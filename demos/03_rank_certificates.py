"""Rank conditions as executable certificates: injectivity on fixed-size
multisets, strictly-stronger stacking, and disjoint output ranges.
"""

import numpy as np

from agglab import analysis as A

rng = np.random.default_rng(0)

# Injectivity: full column rank distinguishes every size-n multiset.
V = np.vander(np.array([0.5, 1.5, -2.0]), 3, increasing=True).T
print("power-style 3x3 matrix injective:", A.is_injective_for_size(V))

ones = np.ones((1, 3))
print("SUM row injective on triples:", A.is_injective_for_size(ones))
pair = A.kernel_collision(ones)
f_ones = A.MatrixAggregator(ones)
print("  kernel-built collision:", pair[0], "vs", pair[1],
      "| image distance:", A.output_distance(f_ones(pair[0]), f_ones(pair[1])))

# Stacking strictly helps iff the rank grows.
M = np.array([[1.0, 1.0, 1.0]])
print("stack mean row on sum row helps:",
      A.strictly_stronger_by_stack(M, [[1 / 3, 1 / 3, 1 / 3]]))
print("stack alternating row on sum row helps:",
      A.strictly_stronger_by_stack(M, [[1.0, -1.0, 0.0]]))

# Disjoint ranges: a wide full-rank concatenation certifies that two
# aggregators can never produce the same output on nonzero inputs.
M1, M2 = rng.standard_normal((4, 2)), rng.standard_normal((4, 2))
cert = A.ranges_disjoint_certificate(M1, M2)
print("random 4x2 pair ranges disjoint:", cert)
search = A.collision_oracle(A.MatrixAggregator(M1), A.MatrixAggregator(M2),
                            np.linspace(-2, 2, 9), max_size=2)
print("  exhaustive 9-point cross-collision search found:", search)

# The product with a feature block never exceeds either rank.
H = rng.standard_normal((3, 5))
print("rank report (sum row, random features):",
      A.rank_preservation_report(np.ones((1, 3)), H))
print("rank report (identity, random features):",
      A.rank_preservation_report(np.eye(3), H))
