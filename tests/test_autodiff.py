"""Tensor engine tests: op semantics, tape backward, finite-difference oracle."""

import numpy as np
import pytest

from fassl import autodiff as ad
from fassl.autodiff import Graph, Tensor, backward
from fassl.errors import ContractError
from fassl.data import synth_dataset
from fassl.model import ParamTree, encode, init_encoder, project, sgd_step
from fassl.orchestrator import RunConfig, initial_state, local_train
from fassl.seeding import rng_for
from fassl.ssl_tasks import (
    acop_loss,
    acop_make_batch,
    barlow_twins_loss,
    nt_xent_loss,
    two_view_batch,
)

from conftest import finite_diff_grad, gradclose


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_contiguous_float64_array(self, rng, bad):
        for shape, at in [((7,), (6,)), ((3, 4), (0, 0)), ((3, 4), (2, 1)), ((2, 3, 2), (1, 2, 1))]:
            arr = rng.normal(size=shape)
            arr[at] = bad
            assert arr.dtype == np.float64 and arr.flags["C_CONTIGUOUS"]
            with pytest.raises(ContractError, match="finite"):
                Tensor(arr)

    def test_intermediate_values_still_checked(self):
        x = Tensor([1000.0])
        with np.errstate(over="ignore"), pytest.raises(ContractError, match="finite"):
            with Graph({"x": x}):
                ad.exp(x)

    def test_contiguous_float64_array_is_stored_as_is(self, rng):
        arr = rng.normal(size=(3, 4))
        assert Tensor(arr).data is arr

    def test_non_contiguous_input_is_stored_c_contiguous(self, rng):
        x = rng.normal(size=(3, 5))
        for view in (x.T, x[:, ::2]):
            t = Tensor(view)
            assert t.data.flags["C_CONTIGUOUS"]
            assert t.shape == view.shape
            np.testing.assert_array_equal(t.data, view)

    def test_zero_d_input_becomes_shape_one(self):
        for value in (np.array(2.5), np.float64(2.5), 2.5):
            t = Tensor(value)
            assert t.shape == (1,)
            assert t.data.tolist() == [2.5]
        assert ad.sum_all(Tensor([1.0, 2.0])).shape == (1,)

    def test_other_dtypes_are_converted(self):
        for arr in (np.array([1, 2]), np.array([1.0, 2.0], dtype=np.float32), np.array([1.0, 2.0], dtype=">f8")):
            t = Tensor(arr)
            assert t.data.dtype == np.dtype(np.float64) and t.data.dtype.isnative
            assert t.data.tolist() == [1.0, 2.0]


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
        x = Tensor([-3.0, -1.0])
        with Graph({"x": x}) as g:
            loss = ad.sum_all(ad.relu(x))
        grads = backward(g, loss)
        np.testing.assert_array_equal(grads["x"].data, [0.0, 0.0])

    def test_subgradient_at_zero_is_zero(self):
        x = Tensor([-1.0, 3.0])
        with Graph({"x": x}) as g:
            loss = ad.sum_all(ad.relu(x))
        grads = backward(g, loss)
        np.testing.assert_array_equal(grads["x"].data, [0.0, 1.0])
        x0 = Tensor([0.0])
        with Graph({"x": x0}) as g:
            loss = ad.sum_all(ad.relu(x0))
        np.testing.assert_array_equal(backward(g, loss)["x"].data, [0.0])


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
        x = Tensor([2.0, 5.0])
        with Graph({"x": x}) as g:
            loss = ad.sum_all(x)
        np.testing.assert_array_equal(backward(g, loss)["x"].data, [1.0, 1.0])

    def test_grad_of_square(self):
        x = Tensor([3.0])
        with Graph({"x": x}) as g:
            loss = ad.sum_all(ad.mul(x, x))
        np.testing.assert_allclose(backward(g, loss)["x"].data, [6.0])

    def test_non_scalar_loss_rejected(self):
        x = Tensor([1.0, 2.0])
        with Graph({"x": x}) as g:
            y = ad.mul(x, x)
        with pytest.raises(ContractError):
            backward(g, y)

    def test_unreached_leaf_gets_no_gradient(self):
        x = Tensor([1.0])
        other = Tensor([[1.0, 2.0]])
        with Graph({"x": x, "other": other}) as g:
            loss = ad.sum_all(ad.mul(x, x))
        assert list(backward(g, loss)) == ["x"]

    def test_backward_names_exactly_the_leaves_the_loss_reaches(self):
        x = Tensor([1.0])
        w = Tensor([2.0])
        frozen = Tensor([3.0])  # an operand, not a leaf
        unread = Tensor([[1.0, 2.0]])
        dead_end = Tensor([4.0])  # read by an op whose output the loss never uses
        with Graph({"w": w, "unread": unread, "dead_end": dead_end, "x": x}) as g:
            ad.mul(dead_end, dead_end)
            loss = ad.sum_all(ad.mul(ad.add(x, frozen), w))
        grads = backward(g, loss)
        assert list(grads) == ["w", "x"]
        assert grads["w"].data.tolist() == [4.0] and grads["x"].data.tolist() == [2.0]

    def test_deterministic_bit_identical(self, rng):
        x = Tensor(rng.normal(size=(6, 4)))
        w = Tensor(rng.normal(size=(4, 3)))

        def grads_once():
            with Graph({"x": x, "w": w}) as g:
                loss = ad.mean_all(ad.relu(ad.matmul(x, w)))
            return backward(g, loss)

        g1, g2 = grads_once(), grads_once()
        assert g1["x"].data.tobytes() == g2["x"].data.tobytes()
        assert g1["w"].data.tobytes() == g2["w"].data.tobytes()

    def test_reused_input_accumulates(self):
        x = Tensor([2.0])
        with Graph({"x": x}) as g:
            loss = ad.sum_all(ad.add(ad.mul(x, x), x))  # x^2 + x -> 2x + 1
        np.testing.assert_allclose(backward(g, loss)["x"].data, [5.0])


class TestRecordingGraph:
    def test_entering_a_second_graph_raises_and_the_first_still_records(self):
        x = Tensor([3.0])
        with Graph({"x": x}) as g:
            with pytest.raises(ContractError, match="another graph is recording"):
                with Graph({}):
                    pass
            loss = ad.sum_all(ad.mul(x, x))
        np.testing.assert_allclose(backward(g, loss)["x"].data, [6.0])

    def test_exiting_a_graph_that_is_not_recording_raises(self):
        with pytest.raises(ContractError, match="not recording"):
            Graph({}).__exit__(None, None, None)
        x = Tensor([3.0])
        with Graph({"x": x}) as g:
            with pytest.raises(ContractError, match="not recording"):
                Graph({}).__exit__(None, None, None)
            loss = ad.sum_all(ad.mul(x, x))
        np.testing.assert_allclose(backward(g, loss)["x"].data, [6.0])

    def test_only_the_named_leaves_are_tracked(self):
        x, w = Tensor([1.0]), Tensor([2.0])
        with Graph({"x": x}) as g:
            ad.mul(w, w)
            loss = ad.sum_all(ad.mul(x, w))
        assert len(g.nodes) == 2
        assert list(backward(g, loss)) == ["x"]


class TestTrackedInputsOnly:
    """A tape node keeps a vjp only for inputs that are tracked when it is recorded."""

    BINARY_OPS = {"add": ad.add, "sub": ad.sub, "mul": ad.mul, "div": ad.div, "matmul": ad.matmul}

    def operands(self, rng, op):
        if op == "matmul":
            return rng.normal(size=(5, 4)), rng.normal(size=(4, 3))
        return rng.normal(size=(5, 3)), rng.uniform(1.0, 2.0, size=(1, 3))

    def test_untracked_matmul_input_has_no_vjp(self, rng):
        x = Tensor(rng.normal(size=(6, 4)))
        w = Tensor(rng.normal(size=(4, 3)))
        with Graph({"w": w}) as g:
            loss = ad.sum_all(ad.matmul(x, w))
        node = g.nodes[0]
        assert node.inputs == (x, w)
        assert node.vjps[0] is None and node.vjps[1] is not None
        grads = backward(g, loss)
        assert set(grads) == {"w"}
        assert grads["w"].data.tobytes() == (x.data.T @ np.ones((6, 3))).tobytes()

    @pytest.mark.parametrize("op", BINARY_OPS)
    @pytest.mark.parametrize("tracked_side", [0, 1])
    def test_one_tracked_side_gives_the_same_bytes_as_both_tracked(self, rng, op, tracked_side):
        fn = self.BINARY_OPS[op]
        arrays = self.operands(rng, op)

        def grad_of(tracked):
            ts = [Tensor(a) for a in arrays]
            with Graph({str(i): ts[i] for i in tracked}) as g:
                loss = ad.sum_all(ad.mul(fn(*ts), fn(*ts)))
            assert all(
                (vjp is None) == (i not in tracked)
                for node in g.nodes[:2]
                for i, vjp in enumerate(node.vjps)
            )
            return backward(g, loss)[str(tracked_side)].data

        assert grad_of({tracked_side}).tobytes() == grad_of({0, 1}).tobytes()

    def test_untracked_vjp_never_runs(self, rng):
        x = Tensor(rng.normal(size=(4, 3)))
        w = Tensor(rng.normal(size=(3, 2)))
        with Graph({"w": w}) as g:
            loss = ad.sum_all(ad.matmul(x, w))
        calls = []
        for node in g.nodes:
            node.vjps = tuple(
                None if vjp is None else (lambda gr, vjp=vjp, i=i: calls.append(i) or vjp(gr))
                for i, vjp in enumerate(node.vjps)
            )
        backward(g, loss)
        assert calls == [0, 1]  # sum_all's only input, then matmul's w; never matmul's x

    def test_step_tape_node_counts(self):
        """Nodes per step, as recorded before vjps were pruned (perfbench's autodiff.tape_nodes)."""
        ds = synth_dataset(2, 4, 12, 4, seed=0)
        params = init_encoder(48, 7, 6, 5, seed=1)
        clips = ds.clip_array()[:4]
        with Graph(params.as_dict()) as g:
            z = project(params, encode(params, two_view_batch(clips, rng_for(0, "v"))))
            nt_xent_loss(z, 0.5)
        assert len(g.nodes) == 33
        assert g.nodes[0].vjps[0] is None  # the view batch is never differentiated
        with Graph(params.as_dict()) as g:
            z = project(params, encode(params, two_view_batch(clips, rng_for(0, "v"))))
            barlow_twins_loss(z)
        assert len(g.nodes) == 43
        with Graph(params.as_dict()) as g:
            acop_loss(params, acop_make_batch(clips, rng_for(0, "a")))
        assert len(g.nodes) == 18

    @pytest.mark.parametrize("ssl_task, constructions", [("simclr", 51), ("barlow_twins", 60), ("acop", 33)])
    def test_step_tensor_constructions(self, monkeypatch, ssl_task, constructions):
        """Tensors one client step builds (views, forward, backward, sgd_step) once its batch shape was seen.

        The same fixture as the node counts: a 4-clip batch and every
        parameter a leaf. Each count is the batch tensor, one per tape node,
        the untracked row max (the pair losses and acop) and acop's one-hot
        labels, then one gradient and one SGD result per parameter the loss
        reaches (8 of 10 under the pair losses, 6 under acop). A per-step
        constant (a mask, an identity, a scalar operand) built again would
        raise it.
        """
        cfg = RunConfig(ssl_task=ssl_task, batch_size=4, frames=12, bands=4, hidden_dim=7, embed_dim=6, projection_dim=5)
        shard = synth_dataset(2, 4, 12, 4, seed=0).clip_array()[:4]
        params = initial_state(cfg).global_params
        local_train(shard, params, ParamTree.empty(), cfg, 0, 1)  # sees the batch shape
        built = []
        init = Tensor.__init__
        monkeypatch.setattr(Tensor, "__init__", lambda self, data: built.append(1) or init(self, data))
        _, _, steps = local_train(shard, params, ParamTree.empty(), cfg, 0, 1)
        assert steps == 1
        assert len(built) == constructions


class TestOpGradientsAgainstFiniteDifferences:
    """Every differentiable op composed into a scalar must match central differences."""

    @pytest.mark.parametrize("seed", range(100))
    def test_random_compositions(self, seed):
        rng = np.random.default_rng(seed)
        a = Tensor(rng.normal(size=(3, 4)))
        b = Tensor(rng.normal(size=(4, 2)))
        c = Tensor(rng.uniform(0.5, 2.0, size=(3, 2)))
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
            return forward(p).item()

        with Graph(params.as_dict()) as g:
            loss = forward(params)
        analytic = backward(g, loss)
        numeric = finite_diff_grad(f, params, step=1e-5)
        assert gradclose(analytic, numeric)


class TestFiniteDiffGrad:
    def test_sum_of_squares(self):
        p = ParamTree([("x", Tensor([1.0, 2.0]))])
        grads = finite_diff_grad(lambda t: float(np.sum(t.get("x").data ** 2)), p, step=1e-5)
        np.testing.assert_allclose(grads["x"].data, [2.0, 4.0], atol=1e-8)

    def test_constant_function_gives_zero(self):
        p = ParamTree([("x", Tensor([1.0, 2.0]))])
        grads = finite_diff_grad(lambda t: 7.5, p, step=1e-5)
        np.testing.assert_array_equal(grads["x"].data, [0.0, 0.0])

    def test_gradclose_compares_a_missing_name_as_zeros(self):
        numeric = {"x": Tensor([1.0]), "head": Tensor([0.0, 1e-9])}
        assert gradclose({"x": Tensor([1.0])}, numeric)
        assert not gradclose({"x": Tensor([1.0])}, {**numeric, "head": Tensor([0.0, 1e-3])})

    def test_matches_backward_on_two_layer_mlp_with_mse(self, rng):
        w1 = Tensor(rng.normal(size=(4, 5)))
        b1 = Tensor(rng.normal(size=5))
        w2 = Tensor(rng.normal(size=(5, 2)))
        b2 = Tensor(rng.normal(size=2))
        params = ParamTree([("w1", w1), ("b1", b1), ("w2", w2), ("b2", b2)])
        x = Tensor(rng.normal(size=(6, 4)))
        y = Tensor(rng.normal(size=(6, 2)))

        def forward(p):
            h = ad.relu(ad.add(ad.matmul(x, p.get("w1")), p.get("b1")))
            pred = ad.add(ad.matmul(h, p.get("w2")), p.get("b2"))
            err = ad.sub(pred, y)
            return ad.mean_all(ad.mul(err, err))

        with Graph(params.as_dict()) as g:
            loss = forward(params)
        analytic = backward(g, loss)

        def f(p):
            return forward(p).item()

        numeric = finite_diff_grad(f, params, step=1e-5)
        assert gradclose(analytic, numeric)


class TestSgdStep:
    def test_hand_arithmetic(self):
        p = ParamTree([("x", Tensor([5.0]))])
        out = sgd_step(p, {"x": Tensor([2.0])}, lr=0.1)
        np.testing.assert_allclose(out.get("x").data, [4.8])

    def test_missing_grad_leaves_parameter_unchanged(self):
        p = ParamTree([
            ("x", Tensor([5.0])),
            ("y", Tensor([1.0])),
        ])
        out = sgd_step(p, {"x": Tensor([2.0])}, lr=0.1)
        np.testing.assert_array_equal(out.get("y").data, [1.0])

    def test_two_steps_on_square(self):
        # f = x^2, grad 2x; x0 = 1, lr = 0.1 -> 0.8 -> 0.64
        p = ParamTree([("x", Tensor([1.0]))])
        for _ in range(2):
            x = p.get("x")
            with Graph(p.as_dict()) as g:
                loss = ad.sum_all(ad.mul(x, x))
            p = sgd_step(p, backward(g, loss), lr=0.1)
        np.testing.assert_allclose(p.get("x").data, [0.64])

    def test_shape_mismatch_rejected(self):
        p = ParamTree([("x", Tensor([5.0, 1.0]))])
        with pytest.raises(ContractError):
            sgd_step(p, {"x": Tensor([[2.0]])}, lr=0.1)

    def test_unknown_grad_key_rejected(self):
        p = ParamTree([("x", Tensor([5.0]))])
        with pytest.raises(ContractError):
            sgd_step(p, {"zz": Tensor([2.0])}, lr=0.1)


    @pytest.mark.parametrize("lr", [0.05, 0.1, 1e-3, 0.3, 1, 2.5e-7])
    def test_bytes_match_reference_and_inputs_untouched(self, rng, lr):
        shapes = {"a.bias": (5,), "a.weight": (4, 5), "b.weight": (5, 3), "c": (1,)}
        p = ParamTree([(n, Tensor(rng.normal(size=s))) for n, s in shapes.items()])
        grads = {n: Tensor(rng.normal(scale=10.0, size=s)) for n, s in shapes.items() if n != "b.weight"}
        p_before = [t.data.tobytes() for _, t in p.items()]
        g_before = {n: g.data.tobytes() for n, g in grads.items()}
        out = sgd_step(p, grads, lr=lr)
        for name, t in out.items():
            old = p.get(name)
            if name in grads:
                assert t.data.tobytes() == (old.data - lr * grads[name].data).tobytes()
                assert not np.shares_memory(t.data, old.data)
                assert not np.shares_memory(t.data, grads[name].data)
            else:
                assert t is old
        assert [t.data.tobytes() for _, t in p.items()] == p_before
        assert {n: g.data.tobytes() for n, g in grads.items()} == g_before


class TestScalarOperands:
    """A Python float/int on the right of mul/div takes the fast path with the bytes of a wrapped operand."""

    @pytest.mark.parametrize(
        "op, scalar",
        [(ad.div, 0.5), (ad.mul, 3), (ad.div, float(64)), (ad.mul, 5e-3), (ad.mul, -7), (ad.div, 2**60)],
        ids=["div-half", "mul-int", "div-float-n", "mul-lambda", "mul-negative-int", "div-large-int"],
    )
    def test_same_bytes_as_tensor_wrapped(self, rng, op, scalar):
        x = Tensor(rng.normal(size=(6, 4)))

        def run(operand):
            with Graph({"x": x}) as g:
                y = op(x, operand)
                loss = ad.sum_all(ad.mul(y, y))
            return y, len(g.nodes), backward(g, loss)["x"]

        y_fast, nodes_fast, g_fast = run(scalar)
        y_ref, nodes_ref, g_ref = run(Tensor(np.asarray(scalar, dtype=np.float64)))
        assert y_fast.shape == y_ref.shape
        assert y_fast.data.tobytes() == y_ref.data.tobytes()
        assert g_fast.data.tobytes() == g_ref.data.tobytes()
        assert nodes_fast == nodes_ref

    def test_nonfinite_scalar_rejected(self):
        with pytest.raises(ContractError, match="finite"):
            ad.div(Tensor([1.0]), float("nan"))


_PARAMS_4 = init_encoder(4, 3, 2, 2, seed=0)


@pytest.mark.parametrize("call, type_name", [
    (lambda x: ad.add(x, x.data), "ndarray"),
    (lambda x: ad.relu(x.data.tolist()), "list"),
    (lambda x: ad.mul(x, np.float64(2.0)), "float64"),
    (lambda x: ad.add(x, 2), "int"),
    (lambda x: ad.sub(x, 1.25), "float"),
    (lambda x: ad.matmul(x, 3.0), "float"),
    (lambda x: ad.mul(2.0, x), "float"),
    (lambda x: ad.div(1, x), "int"),
    (lambda x: ad.detached_rowmax(x.data), "ndarray"),
    (lambda x: encode(_PARAMS_4, x.data), "ndarray"),
], ids=["ndarray", "list", "numpy-scalar", "add-number", "sub-number", "matmul-number", "mul-left-number",
        "div-numerator-number", "rowmax-ndarray", "encode-ndarray"])
def test_non_tensor_operand_raises_naming_its_type(rng, call, type_name):
    """Ops take Tensors, plus a Python float/int on the right of mul/div; any other operand is refused."""
    with pytest.raises(ContractError, match=rf"got {type_name}$"):
        call(Tensor(rng.normal(size=(3, 4))))


class TestNoGraphMode:
    def test_ops_work_without_active_graph(self):
        out = ad.relu(ad.matmul(Tensor([[1.0, -2.0]]), Tensor([[1.0], [1.0]])))
        np.testing.assert_array_equal(out.data, [[0.0]])

    def test_finite_guard_holds_through_ops(self, rng):
        x = Tensor(rng.normal(size=(4, 4)))
        out = ad.exp(ad.l2_normalize_rows(x, eps=1e-12))
        assert np.all(np.isfinite(out.data))
