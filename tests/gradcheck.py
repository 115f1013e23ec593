"""Finite-difference gradient checking shared by the unit and acceptance tests.

Strategy: project the layer output onto a fixed random direction to get a
scalar loss, backprop that projection analytically, then compare against
central differences on a random sample of coordinates. Comparison is the
relative L2 error over the sampled coordinate vector.

The layer builders at the end make the layers these checks run on.
"""

import numpy as np

from qat8.layers import (EncoderBlock, LayerNorm, MultiHeadAttention, QuantizedEmbedding,
                         QuantizedLinear)


def projection_loss(forward_fn, proj) -> float:
    return float(np.sum(forward_fn().astype(np.float64) * proj))


def numeric_grads(forward_fn, proj, array, coords, h: float):
    grads = []
    for idx in coords:
        old = float(array[idx])
        array[idx] = old + h
        lp = projection_loss(forward_fn, proj)
        array[idx] = old - h
        lm = projection_loss(forward_fn, proj)
        array[idx] = old
        grads.append((lp - lm) / (2.0 * h))
    return np.array(grads)


def relative_l2(a, b) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = max(np.linalg.norm(a), np.linalg.norm(b), 1e-10)
    return float(np.linalg.norm(a - b) / denom)


def sample_coords(rng, shape, count):
    total = int(np.prod(shape))
    flat = rng.choice(total, size=min(count, total), replace=False)
    return [np.unravel_index(i, shape) for i in flat]


def named_params(layer):
    """A layer's parameters by name. A leaf lists its own; an attention or
    encoder-block container lists its sublayers', in the order they were
    assigned, prefixed by the attribute name."""
    if hasattr(layer, "named_params"):
        return layer.named_params()
    return [(f"{name}.{p}", param) for name, sub in vars(layer).items()
            if hasattr(sub, "forward") for p, param in named_params(sub)]


def check_param_grads(forward_fn, backward_fn, named_params, rng, *,
                      out_shape, coords_per_tensor=6, h=1e-2):
    """One analytic backward pass vs central differences.

    Returns (overall, per_param) relative L2 errors. The overall error is
    computed over the concatenation of all sampled coordinates so that
    parameters with structurally zero gradients (e.g. a key-projection bias,
    which cancels inside softmax) do not divide by a noise-level norm.
    """
    proj = rng.normal(size=out_shape)
    for _, p in named_params:
        p.grad.fill(0.0)
    forward_fn(training=True)
    backward_fn(proj.astype(np.float32))

    per_param = {}
    all_num, all_ana = [], []
    for name, p in named_params:
        coords = sample_coords(rng, p.value.shape, coords_per_tensor)
        num = numeric_grads(lambda: forward_fn(training=False), proj,
                            p.value, coords, h)
        ana = np.array([p.grad[idx] for idx in coords])
        per_param[name] = relative_l2(num, ana)
        all_num.append(num)
        all_ana.append(ana)
    overall = relative_l2(np.concatenate(all_num), np.concatenate(all_ana))
    return overall, per_param


def check_input_grad(forward_fn, backward_fn, x, rng, *,
                     out_shape, coords=8, h=1e-2):
    """Relative L2 error of the gradient with respect to the input tensor."""
    proj = rng.normal(size=out_shape)
    forward_fn(training=True)
    grad_x = backward_fn(proj.astype(np.float32))
    picked = sample_coords(rng, x.shape, coords)
    num = numeric_grads(lambda: forward_fn(training=False), proj, x, picked, h)
    ana = np.array([grad_x[idx] for idx in picked])
    return relative_l2(num, ana)


# Layers drawn as a new model draws them: N(0, 0.02) weights and tables,
# zero biases, unit gains, in construction order.


def linear(rng, n_in, n_out, m=None):
    return QuantizedLinear(rng.normal(0.0, 0.02, size=(n_out, n_in)), np.zeros(n_out), m=m)


def embedding(rng, entries, dim, m=None):
    return QuantizedEmbedding(rng.normal(0.0, 0.02, size=(entries, dim)), m=m)


def layer_norm(dim):
    return LayerNorm(np.ones(dim), np.zeros(dim))


def attention(rng, dim, heads):
    return MultiHeadAttention(heads, *(linear(rng, dim, dim) for _ in range(4)))


def encoder_block(rng, dim, heads, ffn):
    return EncoderBlock(attention(rng, dim, heads), layer_norm(dim), linear(rng, dim, ffn),
                        linear(rng, ffn, dim), layer_norm(dim))
