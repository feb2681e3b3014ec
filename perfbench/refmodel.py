"""Plain-numpy references the benchmark checks agglab's outputs against.

Nothing here calls agglab: graphs are read through their public fields
(num_nodes, edges, node_features, target) and models through a
{name: array} parameter map in Model.named_params() naming. Every layer is
computed over the dense adjacency with self-loops, A + I, so neither the
message index nor the scatter kernels of the program are involved.
"""

import numpy as np


def adjacency(graph):
    A = np.zeros((graph.num_nodes, graph.num_nodes))
    for u, v in graph.edges:
        A[u, v] = A[v, u] = 1.0
    return A


def triangle_count(graph):
    """trace(A^3) / 6, exact in float64 for any graph the benchmark makes."""
    A = adjacency(graph)
    return float(np.trace(A @ A @ A)) / 6.0


def _mlp(p, x, relu_pre):
    pre = x @ p["W1"].T + p["b1"].T
    relu_pre.append(pre)
    h = np.maximum(pre, 0.0)
    if "W2" not in p:
        return h
    return h @ p["W2"].T + p["b2"].T


def _coefficients(p, H):
    """tanh(Wc [h_v ; h_u] + bc) for every ordered pair (v, u): (n, n, s)."""
    d = H.shape[1]
    own = H @ p["Wc"][:, :d].T
    nbr = H @ p["Wc"][:, d:].T
    return np.tanh(own[:, None, :] + nbr[None, :, :] + p["bc"][:, 0])


def _aggregate(spec, p, A_hat, msgs, relu_pre):
    """msgs is (n, n, k): row v, column u is the message u sends to v."""
    n = A_hat.shape[0]
    if spec.re_sum:
        pre_list = []
        out = _mlp(p, msgs.reshape(n * n, -1), pre_list)
        relu_pre.append(pre_list[0][A_hat.reshape(-1) > 0])
        return np.einsum("vu,vuo->vo", A_hat, out.reshape(n, n, -1))
    return _mlp(p, np.einsum("vu,vuk->vk", A_hat, msgs), relu_pre)


def layer(spec, p, A, H, relu_pre):
    n = A.shape[0]
    A_hat = A + np.eye(n)
    if spec.kind == "GCN":
        dhat = A_hat.sum(axis=1)
        norm = A_hat / np.sqrt(np.outer(dhat, dhat))
        pre = norm @ H @ p["W"] + p["b"]
        relu_pre.append(pre)
        return np.maximum(pre, 0.0)
    C = _coefficients(p, H)
    if spec.kind == "EXPC":
        # vec(m h_u^T), column-major: entry j*s + i is m[i] * h_u[j]
        msgs = (H[None, :, :, None] * C[:, :, None, :]).reshape(n, n, -1)
    elif spec.kind == "COMBC":
        msgs = C * H[None, :, :]
    else:
        raise ValueError(f"no reference for layer kind {spec.kind!r}")
    return _aggregate(spec, p, A_hat, msgs, relu_pre)


def forward(specs, params, graph, A=None):
    """(prediction, scale, relu pre-activations) of a SUM-readout model.

    scale is the sum of the magnitudes of the terms the head adds up; a
    rounding difference between two correct routes stays far below
    1e-9 * scale.
    """
    A = adjacency(graph) if A is None else A
    H = graph.node_features
    outs, relu_pre = [], []
    for i, spec in enumerate(specs):
        p = {k[len(f"layer{i}."):]: v for k, v in params.items()
             if k.startswith(f"layer{i}.")}
        H = layer(spec, p, A, H, relu_pre)
        outs.append(H)
    pooled = np.concatenate(outs, axis=1).sum(axis=0)
    W, b = params["head.W"][:, 0], params["head.b"][0, 0]
    terms = pooled * W
    return float(terms.sum() + b), float(np.abs(terms).sum() + abs(b)), relu_pre


def batch_loss(specs, params, graphs, adjs):
    """Mean squared error over graphs, and the sign pattern of every ReLU input."""
    total, signs = 0.0, []
    for g, A in zip(graphs, adjs):
        pred, _, pre = forward(specs, params, g, A)
        total += (pred - float(g.target)) ** 2
        signs.extend(x > 0.0 for x in pre)
    return total / len(graphs), signs


def central_difference(specs, params, graphs, adjs, base_signs, name, index, eps):
    """d(batch loss)/d params[name].flat[index], or None when a +-eps step
    changes the sign of some ReLU input from base_signs (a kink in between)."""
    values = []
    array = params[name]
    at = np.unravel_index(index, array.shape)
    orig = array[at]
    try:
        for step in (eps, -eps):
            array[at] = orig + step
            value, signs = batch_loss(specs, params, graphs, adjs)
            if any(not np.array_equal(a, b) for a, b in zip(signs, base_signs)):
                return None
            values.append(value)
    finally:
        array[at] = orig
    return (values[0] - values[1]) / (2.0 * eps)
