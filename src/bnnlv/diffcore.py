"""Reverse-mode automatic differentiation over numpy arrays.

Every forward pass builds a fresh tape of ``Node`` objects; ``backward``
walks the tape once in reverse topological order and accumulates exact
gradients into ``Node.grad``. All operations also accept plain arrays or
scalars, in which case they compute with numpy directly and return an
array, so the same model code serves both the differentiable training
path and fast plain-numpy evaluation. These functions are the only way
to build a graph: a ``Node`` has no arithmetic operators and no indexing,
so a Python expression such as ``node + 1.0`` or ``node[0]`` raises
TypeError.

An op computes ``out`` from its operands' values and returns
``_op(name, out, (operand, vjp), ...)`` with one pair per operand, where
``vjp`` maps the gradient of ``out`` to that operand's gradient. ``_op``
puts only the Node operands on the tape, and returns ``out`` itself when
there are none. Besides the elementwise ops, reductions and ``matmul``,
the whole network is one op: ``mlp_forward`` over Node weights or latents
is a single ``"mlp"`` node that keeps each layer's input, and one backward
pass over its layers serves the VJPs of both operands.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .exceptions import ConfigError


def _val(x):
    return x.value if isinstance(x, Node) else np.asarray(x, dtype=np.float64)


def _unbroadcast(grad, shape):
    """Sum a gradient down to the shape the operand had before broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Node:
    """One array value in a computation graph, with links to its parents."""

    __slots__ = ("value", "grad", "op", "_parents", "_vjps")
    __array_ufunc__ = None  # numpy operators raise TypeError on a Node too

    def __init__(self, value, parents=(), vjps=(), op="leaf"):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self.op = op
        self._parents = tuple(parents)
        self._vjps = tuple(vjps)

    @property
    def shape(self):
        return self.value.shape

    @property
    def ndim(self):
        return self.value.ndim

    @property
    def size(self):
        return self.value.size

    def __repr__(self):
        return f"Node(op={self.op!r}, shape={self.value.shape})"


def leaf(value):
    """Wrap an array as a graph leaf (a parameter to differentiate against)."""
    return Node(value)


def _op(name, out, *pairs):
    """Put ``out`` on the tape as op ``name`` over (operand, vjp) pairs.

    Only Node operands become parents, in the order given; with none,
    ``out`` is returned as it is.
    """
    pairs = [(p, vjp) for p, vjp in pairs if isinstance(p, Node)]
    if not pairs:
        return out
    parents, vjps = zip(*pairs)
    return Node(out, parents, vjps, name)


def add(a, b):
    av, bv = _val(a), _val(b)
    return _op("add", av + bv, (a, lambda g, s=av.shape: _unbroadcast(g, s)),
               (b, lambda g, s=bv.shape: _unbroadcast(g, s)))


def neg(a):
    return _op("neg", -_val(a), (a, lambda g: -g))


def mul(a, b):
    av, bv = _val(a), _val(b)
    return _op("mul", av * bv, (a, lambda g, o=bv, s=av.shape: _unbroadcast(g * o, s)),
               (b, lambda g, o=av, s=bv.shape: _unbroadcast(g * o, s)))


def div(a, b):
    av, bv = _val(a), _val(b)
    return _op("div", av / bv, (a, lambda g, d=bv, s=av.shape: _unbroadcast(g / d, s)),
               (b, lambda g, n=av, d=bv, s=bv.shape: _unbroadcast(-g * n / (d * d), s)))


def log(a):
    av = _val(a)
    return _op("log", np.log(av), (a, lambda g, x=av: g / x))


def sqrt(a):
    out = np.sqrt(_val(a))

    def vjp(g, o=out):
        # convention: zero subgradient where the argument is exactly zero,
        # so penalties built on sqrt stay finite at degenerate starts
        safe = np.where(o == 0.0, 1.0, o)
        return np.where(o == 0.0, 0.0, g * 0.5 / safe)

    return _op("sqrt", out, (a, vjp))


def softplus(a):
    """softplus(x) = log(1 + exp(x)), computed stably.

    Its gradient, the sigmoid 1 / (1 + exp(-x)), is 1 - exp(-softplus(x)):
    the VJP reuses the output and takes no second exp of x.
    """
    out = np.logaddexp(0.0, _val(a))
    return _op("softplus", out, (a, lambda g, o=out: g * -np.expm1(-o)))


def _matmul(a, b):
    """``np.matmul(a, b)``; over a contracted dimension of 1 the
    product is an outer product, which a broadcast multiply computes faster
    with equal values (numpy's matmul does not call BLAS there)."""
    if a.shape[-1] == 1 and b.shape[-2] == 1:
        return np.multiply(a, b)
    return np.matmul(a, b)


def matmul(a, b):
    """Matrix product of 2-D operands or of stacks of them, numpy-broadcast
    over the leading axes; a shared operand's gradient sums over the stack."""
    av, bv = _val(a), _val(b)
    if av.ndim < 2 or bv.ndim < 2:
        raise ValueError("matmul expects operands of at least 2 dimensions")
    return _op(
        "matmul", _matmul(av, bv),
        (a, lambda g, o=bv, s=av.shape: _unbroadcast(_matmul(g, np.swapaxes(o, -1, -2)), s)),
        (b, lambda g, o=av, s=bv.shape: _unbroadcast(_matmul(np.swapaxes(o, -1, -2), g), s)),
    )


def transpose(a):
    return _op("transpose", _val(a).T, (a, lambda g: g.T))


def sum_(a, axis=None, keepdims=False):
    av = _val(a)

    def vjp(g, shape=av.shape):
        if axis is None:
            return np.broadcast_to(g, shape)
        gg = g if keepdims else np.expand_dims(g, axis)
        return np.broadcast_to(gg, shape)

    return _op("sum", av.sum(axis=axis, keepdims=keepdims), (a, vjp))


def mean_(a, axis=None, keepdims=False):
    av = _val(a)
    count = av.size if axis is None else np.prod([av.shape[i] for i in np.atleast_1d(axis)])
    return div(sum_(a, axis=axis, keepdims=keepdims), float(count))


def backward(loss):
    """Run reverse-mode accumulation from a scalar root.

    Populates ``grad`` on every node reachable from ``loss`` and returns a
    dict mapping each leaf node to its gradient array. Gradients are never
    updated in place: a node's first contribution is stored as it is, so a
    gradient may share memory with another node's or be a read-only
    broadcast view. Copy one before writing to it.
    """
    if not isinstance(loss, Node):
        raise TypeError("backward expects a Node")
    if loss.value.size != 1:
        raise ValueError("backward requires a scalar root")

    topo = []
    visited = set()
    stack = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))

    loss.grad = np.ones_like(loss.value)
    for node in reversed(topo):
        g = node.grad
        if g is None:
            continue
        for parent, vjp in zip(node._parents, node._vjps):
            c = vjp(g)
            parent.grad = c if parent.grad is None else parent.grad + c
    return {n: n.grad for n in topo if not n._parents and n.op == "leaf"}


def _whole(name, value):
    """``value`` as an int; a bool, a float or any other non-integer is a ConfigError."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)  # an int or a numpy integer
        except TypeError:
            pass
    raise ConfigError(f"{name}: {value!r} is not an integer")


@dataclass(frozen=True)
class Architecture:
    """Shape of a fully connected net taking (x, z) and emitting y.

    ``input_dim_z = 0`` describes a plain network without latent inputs.
    Weights live in one flat vector, laid out layer by layer as the
    (in_dim, out_dim) weight matrix in row-major order followed by the
    out_dim bias entries.
    """

    input_dim_x: int
    input_dim_z: int = 0
    hidden_layers: tuple[int, ...] = (50,)
    output_dim: int = 1
    leaky_slope: float = 0.01

    def __post_init__(self):
        for name in ("input_dim_x", "input_dim_z", "output_dim"):
            object.__setattr__(self, name, _whole(name, getattr(self, name)))
        object.__setattr__(self, "hidden_layers",
                           tuple(_whole("hidden_layers", h) for h in self.hidden_layers))
        if self.input_dim_x < 1:
            raise ConfigError("input_dim_x must be >= 1")
        if self.input_dim_z < 0:
            raise ConfigError("input_dim_z must be >= 0")
        if self.output_dim < 1:
            raise ConfigError("output_dim must be >= 1")
        if any(h < 1 for h in self.hidden_layers):
            raise ConfigError("hidden widths must be >= 1")
        if not 0.0 < self.leaky_slope < 1.0:
            raise ConfigError("leaky_slope must lie in (0, 1)")

    @property
    def input_dim(self):
        return self.input_dim_x + self.input_dim_z

    @property
    def layer_dims(self):
        return [self.input_dim, *self.hidden_layers, self.output_dim]

    @property
    def param_count(self):
        dims = self.layer_dims
        return sum((din + 1) * dout for din, dout in zip(dims[:-1], dims[1:]))

    def layer_slices(self):
        """Per layer: (weight slice, bias slice, in_dim, out_dim) into the flat vector."""
        out = []
        offset = 0
        dims = self.layer_dims
        for din, dout in zip(dims[:-1], dims[1:]):
            w_sl = slice(offset, offset + din * dout)
            offset += din * dout
            b_sl = slice(offset, offset + dout)
            offset += dout
            out.append((w_sl, b_sl, din, dout))
        return out

    def z_weight_mask(self):
        """Boolean mask over the flat vector marking first-layer weights fed by z."""
        mask = np.zeros(self.param_count, dtype=bool)
        if self.input_dim_z == 0:
            return mask
        w_sl, _, din, dout = self.layer_slices()[0]
        rows = np.zeros((din, dout), dtype=bool)
        rows[self.input_dim_x :, :] = True
        mask[w_sl] = rows.ravel()
        return mask


def xavier_std(fan_in, fan_out):
    return np.sqrt(2.0 / (fan_in + fan_out))


def xavier_normal_weights(arch, rng):
    """Flat weight vector with layer-wise zero-mean normal entries.

    Each layer's weights and biases use std sqrt(2 / (fan_in + fan_out)).
    """
    w = np.empty(arch.param_count)
    for w_sl, b_sl, din, dout in arch.layer_slices():
        std = xavier_std(din, dout)
        w[w_sl] = rng.normal(0.0, std, din * dout)
        w[b_sl] = rng.normal(0.0, std, dout)
    return w


def _prep_inputs(arch, x, z, lead):
    """Check the shapes of an (N, D) array x and of z against ``arch`` and a
    weight block of leading shape ``lead``."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != arch.input_dim_x:
        raise ValueError(f"x must have {arch.input_dim_x} columns, got shape {x.shape}")
    if arch.input_dim_z == 0:
        if z is not None and _val(z).size != 0:
            raise ValueError("architecture takes no latent inputs but z was given")
        z = None
    else:
        if z is None:
            raise ValueError("architecture requires latent inputs z")
        zv = _val(z)
        want = (*lead, x.shape[0], arch.input_dim_z)
        if zv.shape != want:
            raise ValueError(f"z must have shape {want}, got {zv.shape}")
    return x, z


def _mlp_backward(arch, wv, inputs, g, need_w, need_z):
    """Gradients of the "mlp" op for the upstream gradient ``g``, in one pass
    over the layers: (flat weight gradient or None, z gradient or None).

    ``inputs`` holds each layer's input. A hidden activation is > 0 exactly
    where its pre-activation is (also at -0.0 and NaN), so it gives the
    slope mask. The upstream ``g`` is never written: it may be a read-only
    broadcast view. A hidden layer's gradient is the product array of the
    layer above, so the mask multiplies into it in place.
    """
    slices = arch.layer_slices()
    lead = wv.shape[:-1]
    gw = np.empty_like(wv) if need_w else None
    for i in reversed(range(len(slices))):
        w_sl, b_sl, din, dout = slices[i]
        if i < len(slices) - 1:
            np.multiply(g, np.maximum(inputs[i + 1] > 0.0, arch.leaky_slope), out=g)
        if need_w:
            gl = _matmul(np.swapaxes(inputs[i], -1, -2), g)
            gw[..., w_sl] = gl.reshape(*lead, din * dout)
            gw[..., b_sl] = g.sum(axis=-2)
        if i > 0 or need_z:
            g = _matmul(g, np.swapaxes(wv[..., w_sl].reshape(*lead, din, dout), -1, -2))
    return gw, g[..., arch.input_dim_x :] if need_z else None


def mlp_forward(arch, w, x, z=None):
    """Forward pass through the network described by ``arch``.

    ``w`` is the flat weight vector (P,), with ``x`` (N, D) and ``z``
    (N, K); the output is (N, L). ``w`` may instead be a block of C weight
    draws (C, P), with ``x`` shared by every draw and ``z`` (C, N, K): each
    layer is then one stacked matmul over the C draws and the output is
    (C, N, L), draw c equal to the pass on ``w[c]`` and ``z[c]`` alone.
    ``z`` is needed only when the architecture has latent inputs. ``x`` is
    a plain array; ``w`` and ``z`` may be Nodes, in which case the result
    is one ``"mlp"`` tape node over them with a hand-derived gradient. Each
    layer is computed in place in its own product array (matmul, ``+=``
    bias, leaky ReLU); the tape node keeps only each layer's input, x
    beside z and then each hidden activation. ``x``, ``w`` and ``z`` are
    never written.
    """
    wv = _val(w)
    if wv.ndim not in (1, 2) or wv.shape[-1] != arch.param_count:
        raise ValueError(
            f"weights must have shape ({arch.param_count},) or (C, {arch.param_count}), "
            f"got {wv.shape}"
        )
    lead = wv.shape[:-1]
    x, z = _prep_inputs(arch, x, z, lead)

    if z is None:
        h = x  # a shared (N, D) operand broadcasts over the draws in matmul
    else:
        h = np.concatenate([np.broadcast_to(x, (*lead, *x.shape)), _val(z)], axis=-1)
    slices = arch.layer_slices()
    tape = isinstance(w, Node) or isinstance(z, Node)
    product = _matmul if tape else np.matmul
    inputs = []  # the tape node's record for the backward pass
    for i, (w_sl, b_sl, din, dout) in enumerate(slices):
        if tape:
            inputs.append(h)
        h = product(h, wv[..., w_sl].reshape(*lead, din, dout))
        h += wv[..., None, b_sl]
        if i < len(slices) - 1:
            # max(x, slope * x): equal, also at -0.0 and NaN, to
            # where(x > 0, x, slope * x), and several times faster
            np.maximum(h, h * arch.leaky_slope, out=h)
    if not tape:
        return h
    cache = [None, None]  # the last upstream gradient and its (w, z) gradients

    def grads(g):
        if cache[0] is not g:
            cache[:] = g, _mlp_backward(arch, wv, inputs, g, isinstance(w, Node),
                                        isinstance(z, Node))
        return cache[1]

    return _op("mlp", h, (w, lambda g: grads(g)[0]), (z, lambda g: grads(g)[1]))
