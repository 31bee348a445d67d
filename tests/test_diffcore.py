import numpy as np
import pytest
from hypothesis import given
from scipy.special import expit as scipy_expit
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from bnnlv import diffcore as dc
from oracles import finite_diff_grad, naive_mlp_forward, rel_err


class TestLeakyRelu:
    def test_positive_passthrough(self):
        assert dc.leaky_relu(np.array(2.0), 0.01) == 2.0

    def test_negative_scaled(self):
        assert dc.leaky_relu(np.array(-1.0), 0.01) == pytest.approx(-0.01)

    def test_gradient_negative_branch(self):
        x = dc.leaf(np.array(-1.0))
        y = dc.leaky_relu(x, 0.01)
        dc.backward(y)
        assert x.grad == pytest.approx(0.01)

    def test_gradient_at_zero_uses_negative_branch(self):
        x = dc.leaf(np.array(0.0))
        y = dc.leaky_relu(x, 0.01)
        dc.backward(y)
        assert x.grad == pytest.approx(0.01)

    def test_identity_on_positives(self):
        rng = np.random.default_rng(0)
        v = np.abs(rng.normal(size=100)) + 1e-12
        np.testing.assert_array_equal(dc.leaky_relu(v, 0.01), v)

    def test_equals_where_forms_at_signed_zero_and_nan(self):
        alpha = 0.01
        x = np.array([0.0, -0.0, np.nan, 1.5, -2.0, np.inf, -np.inf, 5e-324, -5e-324])
        g = np.array([1.0, -1.0, 0.5, -0.0, 2.0, np.nan, 3.0, 1.0, -4.0])
        leaf = dc.leaf(x)
        out = dc.leaky_relu(leaf, alpha)
        dc.backward(dc.sum_(dc.mul(out, g)))
        for got, want in (
            (out.value, np.where(x > 0.0, x, alpha * x)),
            (leaf.grad, g * np.where(x > 0.0, 1.0, alpha)),
        ):
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(np.signbit(got), np.signbit(want))

    def test_bad_slope_rejected(self):
        for alpha in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                dc.leaky_relu(np.array(1.0), alpha)


class TestNode:
    def test_python_operators_raise_type_error(self):
        # graphs are built only through the dc functions
        leaf = dc.leaf(np.ones(2))
        for expr in (
            lambda: dc.leaf(1.0) + 1.0,
            lambda: 2.0 * leaf,
            lambda: np.float64(2.0) * leaf,
            lambda: np.ones(2) - leaf,
            lambda: leaf / 2.0,
            lambda: -leaf,
            lambda: leaf**2,
            lambda: np.ones((2, 2)) @ leaf,
            lambda: leaf[0],
        ):
            with pytest.raises(TypeError):
                expr()


class TestBackward:
    def test_linear_product(self):
        w = dc.leaf(np.array(2.0))
        loss = dc.mul(w, 3.0)
        grads = dc.backward(loss)
        assert grads[w] == pytest.approx(3.0)

    def test_fanout_accumulates(self):
        w = dc.leaf(np.array(1.5))
        loss = dc.add(dc.mul(w, w), dc.mul(w, 2.0))
        dc.backward(loss)
        assert w.grad == pytest.approx(2 * 1.5 + 2.0)

    def test_shared_first_contributions_are_not_updated_in_place(self):
        # add hands both operands the same gradient array; a's second
        # contribution must not leak into b's gradient
        a = dc.leaf(np.ones(3))
        b = dc.leaf(np.ones(3))
        loss = dc.add(dc.sum_(dc.add(a, b)), dc.sum_(dc.mul(a, 3.0)))
        dc.backward(loss)
        np.testing.assert_array_equal(a.grad, np.full(3, 4.0))
        np.testing.assert_array_equal(b.grad, np.ones(3))

    def test_nonscalar_root_rejected(self):
        v = dc.leaf(np.ones(3))
        with pytest.raises(ValueError):
            dc.backward(dc.mul(v, 2.0))

    def test_composite_expression_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        x0 = rng.normal(size=6)

        def f(x):
            a = dc.take(x, slice(None, 3))
            b = dc.take(x, slice(3, None))
            bb = dc.mul(b, b)
            n = dc.add(dc.sum_(dc.mul(dc.exp(a), b)), dc.sum_(dc.log(dc.add(bb, 1.0))))
            n = dc.add(n, dc.sum_(dc.mul(dc.softplus(a), dc.sqrt(dc.add(bb, 0.5)))))
            m = dc.reshape(x, (2, 3))
            # a Node denominator of shape (1, 3), broadcast over the rows
            denom = dc.add(dc.mean_(dc.mul(m, m), axis=0, keepdims=True), 1.0)
            return dc.add(n, dc.sum_(dc.div(m, denom)))

        leaf = dc.leaf(x0)
        out = f(leaf)
        dc.backward(out)
        fd = finite_diff_grad(lambda v: float(dc._val(f(dc.leaf(v)))), x0)
        np.testing.assert_allclose(leaf.grad, fd, rtol=1e-6, atol=1e-8)

    def test_matmul_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        m0 = rng.normal(size=9)

        def f(flat):
            M = dc.reshape(flat, (3, 3)) if isinstance(flat, dc.Node) else flat.reshape(3, 3)
            A = dc.add(dc.matmul(dc.transpose(M), M), np.eye(3) * 2.0)
            return dc.add(dc.sum_(dc.mul(A, A)), dc.sum_(dc.absolute(M)))

        leaf = dc.leaf(m0)
        dc.backward(f(leaf))
        fd = finite_diff_grad(lambda v: float(dc._val(f(dc.leaf(v)))), m0, h=1e-6)
        np.testing.assert_allclose(leaf.grad, fd, rtol=1e-5, atol=1e-7)

    def test_take_and_concat_gradients(self):
        v0 = np.arange(6.0)
        leaf = dc.leaf(v0)
        a = dc.take(leaf, slice(0, 3))
        b = dc.take(leaf, slice(3, 6))
        both = dc.concat([dc.mul(a, 2.0), dc.mul(b, 3.0)], axis=0)
        out = dc.sum_(dc.mul(both, np.arange(6.0)))
        dc.backward(out)
        expected = np.concatenate([2.0 * np.arange(3.0), 3.0 * np.arange(3.0, 6.0)])
        np.testing.assert_allclose(leaf.grad, expected)


class TestGaussianReparam:
    def test_zero_eps_returns_mu(self):
        mu = np.array([1.0, -2.0])
        out = dc.gaussian_reparam(mu, np.array([0.3, 0.5]), np.zeros(2))
        np.testing.assert_array_equal(out, mu)

    def test_unit_grad_wrt_mu(self):
        mu = dc.leaf(np.array(0.7))
        out = dc.gaussian_reparam(mu, np.array(0.1), np.array(1.3))
        dc.backward(out)
        assert mu.grad == pytest.approx(1.0)

    def test_softplus_at_zero(self):
        out = dc.gaussian_reparam(np.array(0.0), np.array(0.0), np.array(1.0))
        assert float(out) == pytest.approx(np.log(2.0))


class TestExpit:
    """softplus's gradient against scipy's expit, bit for bit: both take exp
    from libm, so the package needs no scipy to train."""

    @staticmethod
    def _assert_bitwise_equal(x):
        got, want = dc.expit(x), scipy_expit(x)
        assert got.shape == want.shape and got.dtype == want.dtype
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan)
        assert np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))

    @pytest.mark.filterwarnings("error")
    def test_edge_values(self):
        edges = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
                 709.782712893384, -709.782712893384, -745.2, 745.2, -710.0, 1e308, -1e308]
        self._assert_bitwise_equal(np.array(edges))
        self._assert_bitwise_equal(np.array(edges).reshape(2, 7))
        for v in edges:  # a 0-d operand, and the overflow path on its own
            self._assert_bitwise_equal(np.array(v))
        self._assert_bitwise_equal(np.empty((0, 3)))

    @pytest.mark.filterwarnings("error")
    @given(x=hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=2), elements=st.floats()))
    def test_matches_scipy_bitwise(self, x):
        self._assert_bitwise_equal(x)

    def test_softplus_gradient_is_expit(self):
        x = np.random.default_rng(3).normal(0.0, 20.0, 751)
        leaf = dc.leaf(x)
        dc.backward(dc.sum_(dc.softplus(leaf)))
        assert np.array_equal(leaf.grad.view(np.uint64), scipy_expit(x).view(np.uint64))


# A product over a contracted dimension of 1 is computed as a broadcast
# multiply. Its values equal matmul's (== below). The one difference in bits
# is the sign of an exact zero: a zero product comes out -0.0 where matmul's
# sum gives +0.0. Neither place can see it. Every entry of an HZ chunk goes
# through exp, and exp(-0.0) == exp(+0.0) == 1.0. In the tape a product entry
# reaches the loss only through sums, products, leaky_relu and squares, which
# keep every nonzero result and every magnitude whatever a zero's sign; and
# Adam's moments start at +0.0, so a -0.0 gradient entry takes the same step.
_OUTER_SHAPES = [((256, 1), (1, 750)), ((256, 1), (1, 3000)), ((16, 300, 1), (16, 1, 50)),
                 ((750, 1), (1, 50)), ((300, 1), (16, 1, 50))]


class TestOuterProducts:
    # (256, 2) @ (2, 750) stays on matmul: a broadcast multiply of it would raise
    @pytest.mark.parametrize("a_shape, b_shape", _OUTER_SHAPES + [((256, 2), (2, 750))])
    def test_product_equals_matmul(self, a_shape, b_shape):
        rng = np.random.default_rng(7)
        a, b = rng.standard_normal(a_shape), rng.standard_normal(b_shape)
        want = np.matmul(a, b)
        assert np.array_equal(dc._matmul(a, b), want)
        out = np.empty_like(want)
        assert dc._matmul(a, b, out=out) is out and np.array_equal(out, want)

    # an outer-product forward, and the BBB output layer, whose input VJP is one
    @pytest.mark.parametrize("a_shape, b_shape", [((16, 300, 1), (16, 1, 50)),
                                                  ((750, 1), (1, 50)), ((16, 300, 50), (16, 50, 1)),
                                                  ((750, 50), (50, 1))])
    def test_tape_matmul_equals_matmul_form(self, monkeypatch, a_shape, b_shape):
        rng = np.random.default_rng(8)
        a, b = rng.standard_normal(a_shape), rng.standard_normal(b_shape)
        w = rng.standard_normal(np.matmul(a, b).shape)

        def run():
            la, lb = dc.leaf(a), dc.leaf(b)
            out = dc.matmul(la, lb)
            dc.backward(dc.sum_(dc.mul(out, w)))
            return out.value, la.grad, lb.grad

        got = run()
        monkeypatch.setattr(dc, "_matmul", lambda x, y, out=None: np.matmul(x, y, out=out))
        want = run()
        for g, m in zip(got, want):
            assert g.shape == m.shape and np.array_equal(g, m)


class TestArchitecture:
    def test_param_count_formula(self):
        arch = dc.Architecture(input_dim_x=1, input_dim_z=1, hidden_layers=(50,), output_dim=1)
        assert arch.param_count == (2 + 1) * 50 + (50 + 1) * 1

    def test_param_count_two_layers(self):
        arch = dc.Architecture(input_dim_x=3, input_dim_z=2, hidden_layers=(20, 10), output_dim=2)
        assert arch.param_count == 6 * 20 + 21 * 10 + 11 * 2

    def test_validation(self):
        with pytest.raises(ValueError):
            dc.Architecture(input_dim_x=0)
        with pytest.raises(ValueError):
            dc.Architecture(input_dim_x=1, hidden_layers=(0,))
        with pytest.raises(ValueError):
            dc.Architecture(input_dim_x=1, leaky_slope=1.5)
        with pytest.raises(ValueError):
            dc.Architecture(input_dim_x=1, input_dim_z=-1)

    def test_z_weight_mask_counts(self):
        arch = dc.Architecture(input_dim_x=2, input_dim_z=3, hidden_layers=(7,))
        mask = arch.z_weight_mask()
        assert mask.sum() == 3 * 7
        assert mask.shape == (arch.param_count,)

    def test_no_hidden_layers_is_linear(self):
        arch = dc.Architecture(input_dim_x=2, input_dim_z=0, hidden_layers=(), output_dim=1)
        w = np.array([1.0, -1.0, 0.5])
        out = dc.mlp_forward(arch, w, np.array([[2.0, 3.0]]))
        assert out[0, 0] == pytest.approx(2.0 - 3.0 + 0.5)


class TestMlpForward:
    def test_zero_weights_give_zero(self):
        arch = dc.Architecture(input_dim_x=2, input_dim_z=1, hidden_layers=(4,))
        out = dc.mlp_forward(arch, np.zeros(arch.param_count), np.ones((1, 2)), np.ones((1, 1)))
        np.testing.assert_array_equal(out, np.zeros((1, 1)))

    def test_single_node_example(self):
        # one hidden unit, unit input weights, zero biases, output weight 2:
        # x=1, z=0.5 -> activation(1.5) = 1.5 -> 3.0
        arch = dc.Architecture(input_dim_x=1, input_dim_z=1, hidden_layers=(1,))
        w = np.array([1.0, 1.0, 0.0, 2.0, 0.0])
        out = dc.mlp_forward(arch, w, np.array([[1.0]]), np.array([[0.5]]))
        assert out[0, 0] == pytest.approx(3.0)

    def test_batched_matches_single(self):
        rng = np.random.default_rng(5)
        arch = dc.Architecture(input_dim_x=2, input_dim_z=1, hidden_layers=(5, 3))
        w = rng.normal(size=arch.param_count)
        X = rng.normal(size=(10, 2))
        Z = rng.normal(size=(10, 1))
        batched = dc.mlp_forward(arch, w, X, Z)
        for i in range(10):
            row = dc.mlp_forward(arch, w, X[i : i + 1], Z[i : i + 1])
            np.testing.assert_allclose(batched[i : i + 1], row)

    def test_single_row_vector_rejected(self):
        # x is always an (N, D) matrix; one row is a (1, D) matrix
        arch = dc.Architecture(input_dim_x=2, input_dim_z=1, hidden_layers=(3,))
        w = np.zeros(arch.param_count)
        with pytest.raises(ValueError, match="x must have 2 columns"):
            dc.mlp_forward(arch, w, np.ones(2), np.ones((1, 1)))
        with pytest.raises(ValueError, match="x must have 2 columns"):
            dc.mlp_forward(arch, w, np.ones(2), np.ones(1))

    def test_graph_forward_equals_numpy_forward(self):
        rng = np.random.default_rng(11)
        arch = dc.Architecture(input_dim_x=2, input_dim_z=2, hidden_layers=(6,))
        w = rng.normal(size=arch.param_count)
        X = rng.normal(size=(8, 2))
        Z = rng.normal(size=(8, 2))
        node = dc.mlp_forward(arch, dc.leaf(w), X, Z)
        np.testing.assert_array_equal(node.value, dc.mlp_forward(arch, w, X, Z))

    def test_matches_naive_loop_oracle(self):
        rng = np.random.default_rng(13)
        arch = dc.Architecture(input_dim_x=2, input_dim_z=1, hidden_layers=(4, 3), output_dim=2)
        w = rng.normal(size=arch.param_count)
        x = rng.normal(size=2)
        z = rng.normal(size=1)
        got = dc.mlp_forward(arch, w, x[None, :], z[None, :])[0]
        want = naive_mlp_forward(arch.layer_dims, arch.leaky_slope, w, np.concatenate([x, z]))
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_weight_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(17)
        arch = dc.Architecture(input_dim_x=2, input_dim_z=1, hidden_layers=(5,))
        w0 = rng.normal(size=arch.param_count)
        X = rng.normal(size=(6, 2))
        Z = rng.normal(size=(6, 1))
        y = rng.normal(size=(6, 1))

        def loss_value(w):
            pred = dc.mlp_forward(arch, w, X, Z)
            return float(np.sum((pred - y) ** 2))

        leaf = dc.leaf(w0)
        pred = dc.mlp_forward(arch, leaf, X, Z)
        resid = dc.add(pred, -y)
        loss = dc.sum_(dc.mul(resid, resid))
        dc.backward(loss)
        fd = finite_diff_grad(loss_value, w0)
        bad = sum(rel_err(a, e) > 1e-4 for a, e in zip(leaf.grad, fd))
        assert bad == 0

    def test_deterministic_forward(self):
        rng = np.random.default_rng(19)
        arch = dc.Architecture(input_dim_x=1, input_dim_z=1, hidden_layers=(8,))
        w = rng.normal(size=arch.param_count)
        x = rng.normal(size=(20, 1))
        z = rng.normal(size=(20, 1))
        a = dc.mlp_forward(arch, w, x, z)
        b = dc.mlp_forward(arch, w, x, z)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("k", [0, 2])
    def test_weight_block_equals_per_draw_passes(self, k):
        rng = np.random.default_rng(23)
        arch = dc.Architecture(input_dim_x=2, input_dim_z=k, hidden_layers=(5, 3), output_dim=2)
        W = rng.normal(size=(4, arch.param_count))
        X = rng.normal(size=(7, 2))
        Z = rng.normal(size=(4, 7, k)) if k else None
        out = dc.mlp_forward(arch, W, X, Z)
        assert out.shape == (4, 7, 2)
        for c in range(4):
            np.testing.assert_array_equal(out[c], dc.mlp_forward(arch, W[c], X, Z[c] if k else None))
        node = dc.mlp_forward(arch, dc.leaf(W), X, None if Z is None else dc.leaf(Z))
        np.testing.assert_array_equal(node.value, out)

    @given(data=st.data())
    def test_plain_forward_equals_tape_forward(self, data):
        # the in-place plain path against the tape ops, also on NaN, +-inf
        # and -0.0 entries, and without writing into any operand
        arch = dc.Architecture(
            input_dim_x=data.draw(st.integers(1, 2)),
            input_dim_z=data.draw(st.integers(0, 2)),
            hidden_layers=data.draw(st.lists(st.integers(1, 4), max_size=2)),
            output_dim=data.draw(st.integers(1, 2)),
            leaky_slope=0.2,
        )
        lead = data.draw(st.sampled_from([(), (2,), (3,)]))
        n = data.draw(st.integers(1, 4))
        entries = st.floats(-3.0, 3.0) | st.sampled_from([np.nan, np.inf, -np.inf, -0.0])
        w = data.draw(hnp.arrays(np.float64, (*lead, arch.param_count), elements=entries))
        x = data.draw(hnp.arrays(np.float64, (n, arch.input_dim_x), elements=entries))
        z = (data.draw(hnp.arrays(np.float64, (*lead, n, arch.input_dim_z), elements=entries))
             if arch.input_dim_z else None)
        before = [a.tobytes() for a in (w, x, z) if a is not None]
        with np.errstate(all="ignore"):
            plain = dc.mlp_forward(arch, w, x, z)
            tape = dc.mlp_forward(arch, dc.leaf(w), x, z).value
        assert np.array_equal(plain, tape, equal_nan=True)
        assert [a.tobytes() for a in (w, x, z) if a is not None] == before

    def test_weight_block_gradients_match_finite_differences(self):
        rng = np.random.default_rng(29)
        arch = dc.Architecture(input_dim_x=2, input_dim_z=1, hidden_layers=(4,), output_dim=2)
        W = rng.normal(size=(3, arch.param_count))
        X = rng.normal(size=(5, 2))
        Z = rng.normal(size=(3, 5, 1))
        _assert_grads_match_fd(lambda w, z: dc.mlp_forward(arch, w, X, z), W, Z)

    def test_shape_errors(self):
        arch = dc.Architecture(input_dim_x=2, input_dim_z=1, hidden_layers=(3,))
        w = np.zeros(arch.param_count)
        with pytest.raises(ValueError, match="weights must have shape"):
            dc.mlp_forward(arch, np.zeros(3), np.ones((1, 2)), np.ones((1, 1)))
        with pytest.raises(ValueError, match="x must have"):
            dc.mlp_forward(arch, w, np.ones((1, 3)), np.ones((1, 1)))
        with pytest.raises(ValueError, match="requires latent inputs"):
            dc.mlp_forward(arch, w, np.ones((1, 2)), None)
        # a weight block takes an (N, D) x and latents stacked per draw
        block = np.zeros((2, arch.param_count))
        with pytest.raises(ValueError, match="z must have shape"):
            dc.mlp_forward(arch, block, np.ones((4, 2)), np.ones((4, 1)))
        with pytest.raises(ValueError, match="x must have"):
            dc.mlp_forward(arch, block, np.ones(2), np.ones((2, 1, 1)))
        with pytest.raises(ValueError, match="weights must have shape"):
            dc.mlp_forward(arch, np.zeros((2, 2, arch.param_count)), np.ones((4, 2)), None)


# Every tape op against central finite differences, over drawn shapes and
# broadcasts. Operands of kinked or singular ops stay at least 0.25 from the
# kink or pole, far beyond the difference step.
_SHAPES = hnp.array_shapes(min_dims=0, max_dims=3, min_side=1, max_side=4)
_ANY = st.floats(-2.0, 2.0)
_AWAY = st.floats(-2.0, -0.25) | st.floats(0.25, 2.0)
_POS = st.floats(0.25, 2.0)


def _arrays(shape, elements=_ANY):
    return hnp.arrays(np.float64, shape, elements=elements)


def _assert_grads_match_fd(f, *arrays):
    """Backward through sum(w * f(...)) against central differences, per operand."""
    w = np.random.default_rng(0).uniform(0.5, 1.5, np.shape(f(*arrays)))

    def loss(*args):
        return dc.sum_(dc.mul(f(*args), w))

    leaves = [dc.leaf(a) for a in arrays]
    dc.backward(loss(*leaves))
    for i, (lf, a) in enumerate(zip(leaves, arrays)):
        assert np.shape(lf.grad) == a.shape

        def at(flat, i=i, shape=a.shape):
            args = list(arrays)
            args[i] = flat.reshape(shape)
            return float(loss(*args))

        fd = finite_diff_grad(at, a.ravel(), h=1e-6)
        np.testing.assert_allclose(np.ravel(lf.grad), fd, rtol=1e-6, atol=1e-6)


_BINARY = {"add": dc.add, "sub": lambda a, b: dc.add(a, dc.neg(b)), "mul": dc.mul, "div": dc.div}
_UNARY = {
    "neg": (dc.neg, _ANY), "exp": (dc.exp, _ANY), "log": (dc.log, _POS),
    "sqrt": (dc.sqrt, _POS), "absolute": (dc.absolute, _AWAY),
    "softplus": (dc.softplus, _ANY), "transpose": (dc.transpose, _ANY),
}


class TestOpsMatchFiniteDifferences:
    @pytest.mark.parametrize("name", sorted(_BINARY))
    @given(data=st.data())
    def test_broadcasting_binary_ops(self, name, data):
        shapes = data.draw(hnp.mutually_broadcastable_shapes(num_shapes=2, max_side=4)).input_shapes
        a = data.draw(_arrays(shapes[0]))
        b = data.draw(_arrays(shapes[1], _AWAY))
        _assert_grads_match_fd(_BINARY[name], a, b)

    @pytest.mark.parametrize("name", sorted(_UNARY))
    @given(data=st.data())
    def test_unary_ops(self, name, data):
        op, elements = _UNARY[name]
        _assert_grads_match_fd(op, data.draw(_arrays(data.draw(_SHAPES), elements)))

    @given(data=st.data())
    def test_leaky_relu(self, data):
        alpha = data.draw(st.floats(0.01, 0.99))
        a = data.draw(_arrays(data.draw(_SHAPES), _AWAY))
        _assert_grads_match_fd(lambda v: dc.leaky_relu(v, alpha), a)

    @pytest.mark.parametrize("name", ["sum_", "mean_"])
    @given(data=st.data())
    def test_reductions(self, name, data):
        a = data.draw(_arrays(data.draw(_SHAPES)))
        axes = st.none()
        if a.ndim:
            axes = axes | st.integers(-a.ndim, a.ndim - 1) | hnp.valid_tuple_axes(a.ndim, min_size=1)
        axis, keepdims = data.draw(axes), data.draw(st.booleans())
        op = getattr(dc, name)
        _assert_grads_match_fd(lambda v: op(v, axis=axis, keepdims=keepdims), a)

    @given(data=st.data())
    def test_matmul(self, data):
        n, k, m = (data.draw(st.integers(1, 4)) for _ in range(3))
        _assert_grads_match_fd(dc.matmul, data.draw(_arrays((n, k))), data.draw(_arrays((k, m))))

    @pytest.mark.parametrize("stacked", ["both", "left", "right"])
    @given(data=st.data())
    def test_stacked_matmul(self, stacked, data):
        # stacks of draws on both sides, or one side a 2-D operand shared by the stack
        c, n, k, m = (data.draw(st.integers(1, 4)) for _ in range(4))
        a = data.draw(_arrays((n, k) if stacked == "right" else (c, n, k)))
        b = data.draw(_arrays((k, m) if stacked == "left" else (c, k, m)))
        _assert_grads_match_fd(dc.matmul, a, b)

    @given(data=st.data())
    def test_take(self, data):
        a = data.draw(_arrays(data.draw(hnp.array_shapes(min_dims=1, max_dims=3, max_side=4))))
        rows = st.lists(st.integers(0, a.shape[0] - 1), min_size=1, max_size=6).map(np.array)
        key = data.draw(hnp.basic_indices(a.shape) | rows)  # repeated rows scatter-add
        _assert_grads_match_fd(lambda v: dc.take(v, key), a)

    @given(data=st.data())
    def test_reshape(self, data):
        a = data.draw(_arrays(data.draw(_SHAPES)))
        shape = data.draw(st.sampled_from([(-1,), a.shape[::-1], (1, a.size), (a.size, 1, 1)]))
        _assert_grads_match_fd(lambda v: dc.reshape(v, shape), a)

    @given(data=st.data())
    def test_concat(self, data):
        shape = data.draw(hnp.array_shapes(min_dims=1, max_dims=3, max_side=3))
        axis = data.draw(st.integers(-len(shape), len(shape) - 1))
        widths = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
        cut = axis % len(shape)
        parts = [data.draw(_arrays(shape[:cut] + (w,) + shape[cut + 1 :])) for w in widths]
        _assert_grads_match_fd(lambda *ps: dc.concat(list(ps), axis=axis), *parts)

    @given(data=st.data())
    def test_gaussian_reparam(self, data):
        shapes = data.draw(hnp.mutually_broadcastable_shapes(num_shapes=3, max_side=4)).input_shapes
        mu, rho, eps = (data.draw(_arrays(s)) for s in shapes)
        _assert_grads_match_fd(dc.gaussian_reparam, mu, rho, eps)
