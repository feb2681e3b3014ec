"""Dense-tensor autodiff in a few strokes: build a tape, run a forward
pass, pull gradients back, and cross-check them with finite differences.
"""

import numpy as np

from agglab import tensor as T

rng = np.random.default_rng(0)

# A two-layer perceptron on a fixed input, loss = sum of outputs.
W1 = T.Tensor(rng.standard_normal((4, 3)))
W2 = T.Tensor(rng.standard_normal((2, 4)))
x = rng.standard_normal((3, 1))

def loss_fn():
    tape = T.Tape()
    tape.watch(W1)
    tape.watch(W2)
    hidden = T.activation(T.matmul(W1, T.Tensor(x)), "tanh")
    return T.sum_all(T.matmul(W2, hidden))

loss = loss_fn()
loss.tape.backward(loss)
print("loss:", loss.data.item())
print("dL/dW2 (analytic):\n", W2.grad)

err1 = T.finite_diff_check(loss_fn, W1)
err2 = T.finite_diff_check(loss_fn, W2)
print(f"max rel. error vs central differences: W1 {err1:.2e}, W2 {err2:.2e}")

# The expanding convolution's layout: expand_outer turns each row pair
# (m, h) into vec(m h^T), the outer product flattened column-major.
m = T.Tensor([[1.0, 2.0]])
h = T.Tensor([[3.0, 4.0, 5.0]])
row = T.expand_outer(m, h).data.ravel()
print("vec(m h^T) for m=[1,2], h=[3,4,5]:", row, "(column-major)")
print("equals np.outer(m, h) flattened in F order:",
      bool(np.array_equal(row, np.outer(m.data, h.data).reshape(-1, order="F"))))
