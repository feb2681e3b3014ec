"""How much can an aggregator tell apart? Compare SUM, MEAN, and their
concatenation on small multisets, and watch the partial order emerge.
"""

from agglab import analysis as A

SUM = A.BasicAggregator("SUM")
MEAN = A.BasicAggregator("MEAN")
both = A.combined(SUM, MEAN)

m1, m2 = A.MultisetSample([1.0, 1.0]), A.MultisetSample([2.0])
print(f"{m1} vs {m2}: SUM distance {A.output_distance(SUM(m1), SUM(m2))}, "
      f"MEAN distance {A.output_distance(MEAN(m1), MEAN(m2))}")

m3, m4 = A.MultisetSample([1.0, 2.0]), A.MultisetSample([1.0, 1.0, 2.0, 2.0])
print(f"{m3} vs {m4}: SUM distance {A.output_distance(SUM(m3), SUM(m4))}, "
      f"MEAN distance {A.output_distance(MEAN(m3), MEAN(m4))}")

res = A.compare_strength(SUM, MEAN, [1.0, 2.0], max_size=4)
print("SUM vs MEAN:", res["verdict"])
print("SUM||MEAN vs SUM:",
      A.compare_strength(both, SUM, [1.0, 2.0], max_size=4)["verdict"])
print("SUM||MEAN vs MEAN:",
      A.compare_strength(both, MEAN, [1.0, 2.0], max_size=4)["verdict"])

# Post-composing with an injective map changes nothing; a projection
# can only lose separations.
affine = A.compose(lambda y: 3.0 * y - 1.0, SUM, name="affine_of_sum")
print("affine(SUM) vs SUM:",
      A.compare_strength(affine, SUM, [-1.0, 0.0, 1.0, 2.0], max_size=3)["verdict"])

# Every weighted aggregator collides somewhere once its matrix loses rank:
f = A.MatrixAggregator([[1.0, 1.0]])   # SUM on pairs, rank 1 < 2
witness = A.collision_oracle(f, f, [0.0, 1.0, 2.0], max_size=2)
print("rank-1 pair aggregator collision:", witness[0], "vs", witness[1])
