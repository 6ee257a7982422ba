"""Tensor engine tests: op semantics, tape backward, finite-difference oracle."""

import numpy as np
import pytest

from fassl import autodiff as ad
from fassl.autodiff import Graph, Tensor, backward
from fassl.errors import ContractError
from fassl.model import ParamTree, finite_diff_grad, sgd_step

from conftest import gradclose


class TestTensor:
    def test_rejects_nan_and_inf(self):
        with pytest.raises(ContractError):
            Tensor([1.0, float("nan")])
        with pytest.raises(ContractError):
            Tensor([float("inf")])

    def test_data_is_float64_row_major(self):
        t = Tensor([[1, 2], [3, 4]])
        assert t.data.dtype == np.float64
        assert t.data.flags["C_CONTIGUOUS"]
        assert t.shape == (2, 2)


class TestMatmul:
    def test_identity(self):
        out = ad.matmul(Tensor([[1, 0], [0, 1]]), Tensor([[3, 4], [5, 6]]))
        np.testing.assert_array_equal(out.data, [[3, 4], [5, 6]])

    def test_hand_arithmetic(self):
        out = ad.matmul(Tensor([[1, 2]]), Tensor([[3], [4]]))
        np.testing.assert_array_equal(out.data, [[11]])

    def test_against_triple_loop_oracle(self, rng):
        a = rng.normal(size=(4, 3))
        b = rng.normal(size=(3, 2))
        expected = np.zeros((4, 2))
        for i in range(4):
            for j in range(2):
                for t in range(3):
                    expected[i, j] += a[i, t] * b[t, j]
        out = ad.matmul(Tensor(a), Tensor(b))
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ContractError, match=r"\(2, 3\).*\(2, 2\)"):
            ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 2))))


class TestRelu:
    def test_values(self):
        np.testing.assert_array_equal(ad.relu(Tensor([-1.0, 0.0, 2.0])).data, [0.0, 0.0, 2.0])

    def test_all_negative_gives_zero_output_and_gradient(self):
        x = Tensor([-3.0, -1.0], requires_grad=True)
        with Graph() as g:
            loss = ad.sum_all(ad.relu(x))
        grads = backward(g, loss, {"x": x})
        np.testing.assert_array_equal(grads["x"].data, [0.0, 0.0])

    def test_subgradient_at_zero_is_zero(self):
        x = Tensor([-1.0, 3.0], requires_grad=True)
        with Graph() as g:
            loss = ad.sum_all(ad.relu(x))
        grads = backward(g, loss, {"x": x})
        np.testing.assert_array_equal(grads["x"].data, [0.0, 1.0])
        x0 = Tensor([0.0], requires_grad=True)
        with Graph() as g:
            loss = ad.sum_all(ad.relu(x0))
        np.testing.assert_array_equal(backward(g, loss, {"x": x0})["x"].data, [0.0])


class TestL2NormalizeRows:
    def test_three_four_five(self):
        out = ad.l2_normalize_rows(Tensor([[3.0, 4.0]]), eps=1e-12)
        np.testing.assert_allclose(out.data, [[0.6, 0.8]], atol=1e-15)

    def test_zero_row_guard(self):
        out = ad.l2_normalize_rows(Tensor([[0.0, 0.0]]), eps=1e-12)
        np.testing.assert_array_equal(out.data, [[0.0, 0.0]])

    def test_output_row_norms(self, rng):
        x = rng.normal(size=(5, 8))
        out = ad.l2_normalize_rows(Tensor(x), eps=1e-12)
        norms = np.linalg.norm(out.data, axis=1)
        assert np.all((np.abs(norms - 1.0) < 1e-10) | (norms == 0.0))

    def test_eps_must_be_positive(self):
        with pytest.raises(ContractError):
            ad.l2_normalize_rows(Tensor([[1.0]]), eps=0.0)


class TestBackward:
    def test_grad_of_sum_is_ones(self):
        x = Tensor([2.0, 5.0], requires_grad=True)
        with Graph() as g:
            loss = ad.sum_all(x)
        np.testing.assert_array_equal(backward(g, loss, {"x": x})["x"].data, [1.0, 1.0])

    def test_grad_of_square(self):
        x = Tensor([3.0], requires_grad=True)
        with Graph() as g:
            loss = ad.sum_all(ad.mul(x, x))
        np.testing.assert_allclose(backward(g, loss, {"x": x})["x"].data, [6.0])

    def test_non_scalar_loss_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Graph() as g:
            y = ad.mul(x, x)
        with pytest.raises(ContractError):
            backward(g, y, {"x": x})

    def test_unreached_leaf_gets_zero_gradient(self):
        x = Tensor([1.0], requires_grad=True)
        other = Tensor([[1.0, 2.0]], requires_grad=True)
        with Graph() as g:
            loss = ad.sum_all(ad.mul(x, x))
        grads = backward(g, loss, {"x": x, "other": other})
        np.testing.assert_array_equal(grads["other"].data, [[0.0, 0.0]])

    def test_deterministic_bit_identical(self, rng):
        x = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 3)), requires_grad=True)

        def grads_once():
            with Graph() as g:
                loss = ad.mean_all(ad.relu(ad.matmul(x, w)))
            return backward(g, loss, {"x": x, "w": w})

        g1, g2 = grads_once(), grads_once()
        assert g1["x"].data.tobytes() == g2["x"].data.tobytes()
        assert g1["w"].data.tobytes() == g2["w"].data.tobytes()

    def test_reused_input_accumulates(self):
        x = Tensor([2.0], requires_grad=True)
        with Graph() as g:
            loss = ad.sum_all(ad.add(ad.mul(x, x), x))  # x^2 + x -> 2x + 1
        np.testing.assert_allclose(backward(g, loss, {"x": x})["x"].data, [5.0])


class TestOpGradientsAgainstFiniteDifferences:
    """Every differentiable op composed into a scalar must match central differences."""

    @pytest.mark.parametrize("seed", range(100))
    def test_random_compositions(self, seed):
        rng = np.random.default_rng(seed)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        c = Tensor(rng.uniform(0.5, 2.0, size=(3, 2)), requires_grad=True)
        params = ParamTree([("a", a), ("b", b), ("c", c)])

        def forward(p):
            m = ad.matmul(p.get("a"), p.get("b"))
            r = ad.relu(m)
            q = ad.div(ad.exp(ad.mul(r, Tensor(np.full((3, 2), 0.3)))), p.get("c"))
            s = ad.log(ad.maximum_const(ad.sum_axis(ad.mul(q, q), axis=1), 1e-8))
            t = ad.sqrt(ad.maximum_const(ad.sum_all(ad.add(s, ad.sub(q, ad.transpose(ad.transpose(q))))), 1e-6))
            n = ad.l2_normalize_rows(ad.gather_rows(q, np.array([0, 0, 2])), 1e-9)
            return ad.add(ad.mean_all(n), t)

        def f(p):
            with Graph():
                return forward(p).item()

        with Graph() as g:
            loss = forward(params)
        analytic = backward(g, loss, params.as_dict())
        numeric = finite_diff_grad(f, params, step=1e-5)
        assert gradclose(analytic, numeric)


class TestFiniteDiffGrad:
    def test_sum_of_squares(self):
        p = ParamTree([("x", Tensor([1.0, 2.0], requires_grad=True))])
        grads = finite_diff_grad(lambda t: float(np.sum(t.get("x").data ** 2)), p, step=1e-5)
        np.testing.assert_allclose(grads["x"].data, [2.0, 4.0], atol=1e-8)

    def test_constant_function_gives_zero(self):
        p = ParamTree([("x", Tensor([1.0, 2.0], requires_grad=True))])
        grads = finite_diff_grad(lambda t: 7.5, p, step=1e-5)
        np.testing.assert_array_equal(grads["x"].data, [0.0, 0.0])

    def test_matches_backward_on_two_layer_mlp_with_mse(self, rng):
        w1 = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        b1 = Tensor(rng.normal(size=5), requires_grad=True)
        w2 = Tensor(rng.normal(size=(5, 2)), requires_grad=True)
        b2 = Tensor(rng.normal(size=2), requires_grad=True)
        params = ParamTree([("w1", w1), ("b1", b1), ("w2", w2), ("b2", b2)])
        x = Tensor(rng.normal(size=(6, 4)))
        y = Tensor(rng.normal(size=(6, 2)))

        def forward(p):
            h = ad.relu(ad.add(ad.matmul(x, p.get("w1")), p.get("b1")))
            pred = ad.add(ad.matmul(h, p.get("w2")), p.get("b2"))
            err = ad.sub(pred, y)
            return ad.mean_all(ad.mul(err, err))

        with Graph() as g:
            loss = forward(params)
        analytic = backward(g, loss, params.as_dict())

        def f(p):
            with Graph():
                return forward(p).item()

        numeric = finite_diff_grad(f, params, step=1e-5)
        assert gradclose(analytic, numeric)


class TestSgdStep:
    def test_hand_arithmetic(self):
        p = ParamTree([("x", Tensor([5.0], requires_grad=True))])
        out = sgd_step(p, {"x": Tensor([2.0])}, lr=0.1)
        np.testing.assert_allclose(out.get("x").data, [4.8])

    def test_missing_grad_leaves_parameter_unchanged(self):
        p = ParamTree([
            ("x", Tensor([5.0], requires_grad=True)),
            ("y", Tensor([1.0], requires_grad=True)),
        ])
        out = sgd_step(p, {"x": Tensor([2.0])}, lr=0.1)
        np.testing.assert_array_equal(out.get("y").data, [1.0])

    def test_two_steps_on_square(self):
        # f = x^2, grad 2x; x0 = 1, lr = 0.1 -> 0.8 -> 0.64
        p = ParamTree([("x", Tensor([1.0], requires_grad=True))])
        for _ in range(2):
            x = p.get("x")
            with Graph() as g:
                loss = ad.sum_all(ad.mul(x, x))
            p = sgd_step(p, backward(g, loss, p.as_dict()), lr=0.1)
        np.testing.assert_allclose(p.get("x").data, [0.64])

    def test_shape_mismatch_rejected(self):
        p = ParamTree([("x", Tensor([5.0, 1.0], requires_grad=True))])
        with pytest.raises(ContractError):
            sgd_step(p, {"x": Tensor([[2.0]])}, lr=0.1)

    def test_unknown_grad_key_rejected(self):
        p = ParamTree([("x", Tensor([5.0], requires_grad=True))])
        with pytest.raises(ContractError):
            sgd_step(p, {"zz": Tensor([2.0])}, lr=0.1)


class TestNoGraphMode:
    def test_ops_work_without_active_graph(self):
        out = ad.relu(ad.matmul(Tensor([[1.0, -2.0]]), Tensor([[1.0], [1.0]])))
        np.testing.assert_array_equal(out.data, [[0.0]])

    def test_finite_guard_holds_through_ops(self, rng):
        x = Tensor(rng.normal(size=(4, 4)))
        out = ad.exp(ad.l2_normalize_rows(x, eps=1e-12))
        assert np.all(np.isfinite(out.data))
