"""Aggregation strategy tests: beta formulas, algebraic properties, oracles."""

import numpy as np
import pytest

from fassl.aggregation import (
    ClientUpdate,
    Strategy,
    aggregate,
    beta_fairavg,
    beta_fedavg,
    beta_loss,
    scope_apply,
)
from fassl.autodiff import Tensor
from fassl.errors import ContractError
from fassl.model import BACKBONE_PREFIX, ParamTree, layer_names, split

from conftest import flatten_layer, params_bytes

ALL_STRATEGIES = [
    Strategy("fedavg"),
    Strategy("fairavg"),
    Strategy("loss"),
    Strategy("fedu", fedu_mu=0.5),
    Strategy("ldawa"),
]


def tree_from(rng_or_values, shapes=None) -> ParamTree:
    if shapes is None:
        shapes = {
            "backbone.fc1.weight": (2, 3),
            "backbone.fc1.bias": (3,),
            "head.proj.fc1.weight": (3, 2),
            "head.proj.fc1.bias": (2,),
        }
    if isinstance(rng_or_values, np.random.Generator):
        return ParamTree([(n, Tensor(rng_or_values.normal(size=s))) for n, s in shapes.items()])
    return ParamTree([(n, Tensor(np.full(s, rng_or_values))) for n, s in shapes.items()])


def update(client_id, tree, n_samples=1, mean_loss=1.0) -> ClientUpdate:
    return ClientUpdate(client_id=client_id, params=tree, n_samples=n_samples, mean_loss=mean_loss)


def random_updates(rng, count, equal_sizes=False):
    return [
        update(
            client_id=int(cid),
            tree=tree_from(rng),
            n_samples=4 if equal_sizes else int(rng.integers(1, 50)),
            mean_loss=float(rng.uniform(0.0, 3.0)),
        )
        for cid in rng.permutation(100)[:count]
    ]


class TestBetaFormulas:
    def test_fedavg_examples(self):
        ups = [update(0, tree_from(0.0), n_samples=1), update(1, tree_from(1.0), n_samples=1)]
        np.testing.assert_array_equal(beta_fedavg(ups), [0.5, 0.5])
        ups = [update(0, tree_from(0.0), n_samples=1), update(1, tree_from(1.0), n_samples=3)]
        np.testing.assert_array_equal(beta_fedavg(ups), [0.25, 0.75])

    def test_fedavg_sums_to_one(self, rng):
        for _ in range(100):
            ups = random_updates(rng, int(rng.integers(1, 12)))
            betas = beta_fedavg(ups)
            assert abs(betas.sum() - 1.0) <= 1e-12
            assert np.all(betas >= 0)

    def test_fairavg(self):
        ups = [update(i, tree_from(0.0)) for i in range(4)]
        np.testing.assert_array_equal(beta_fairavg(ups), [0.25] * 4)
        assert beta_fairavg(ups[:1]).tolist() == [1.0]

    def test_fairavg_equals_fedavg_on_equal_sizes(self):
        ups = [update(i, tree_from(0.0), n_samples=7) for i in range(3)]
        np.testing.assert_array_equal(beta_fairavg(ups), beta_fedavg(ups))

    def test_loss_examples(self):
        ups = [update(0, tree_from(0.0), mean_loss=1.0), update(1, tree_from(0.0), mean_loss=1.0)]
        np.testing.assert_array_equal(beta_loss(ups), [0.5, 0.5])
        ups = [update(0, tree_from(0.0), mean_loss=1.0), update(1, tree_from(0.0), mean_loss=3.0)]
        np.testing.assert_array_equal(beta_loss(ups), [0.25, 0.75])

    def test_loss_zero_total_falls_back_to_uniform(self):
        ups = [update(0, tree_from(0.0), mean_loss=0.0), update(1, tree_from(0.0), mean_loss=0.0)]
        np.testing.assert_array_equal(beta_loss(ups), [0.5, 0.5])

    def test_negative_loss_rejected(self):
        ups = [update(0, tree_from(0.0), mean_loss=-1.0)]
        with pytest.raises(ContractError):
            beta_loss(ups)


class TestAggregateBasics:
    @pytest.mark.parametrize("strategy", ALL_STRATEGIES, ids=lambda s: s.kind)
    def test_unanimity_idempotence_exact(self, strategy, rng):
        g = tree_from(rng)
        # fedu's head gate only admits clients within mu of the global, so the
        # unanimous tree must sit inside the gate (criterion: gated-out heads
        # intentionally break raw unanimity; that case is tested separately).
        shared = g.map_values(lambda _, t: Tensor(t.data + rng.normal(0, 0.01, t.shape)))
        ups = [update(cid, shared, n_samples=int(rng.integers(1, 9))) for cid in (3, 1, 7)]
        out = aggregate(strategy, g, ups)
        assert out.equal_bytes(shared)

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES, ids=lambda s: s.kind)
    def test_single_client_identity(self, strategy, rng):
        g = tree_from(rng)
        tree = g.map_values(lambda _, t: Tensor(t.data + rng.normal(0, 0.01, t.shape)))
        out = aggregate(strategy, g, [update(5, tree, n_samples=3)])
        assert out.equal_bytes(tree)

    def test_fedavg_weighted_scalar_example(self):
        shapes = {"backbone.w": (1,)}
        ups = [
            update(0, tree_from(0.0, shapes), n_samples=1),
            update(1, tree_from(4.0, shapes), n_samples=3),
        ]
        out = aggregate(Strategy("fedavg"), tree_from(0.0, shapes), ups)
        np.testing.assert_allclose(out.get("backbone.w").data, [3.0])

    def test_empty_updates_rejected(self):
        with pytest.raises(ContractError):
            aggregate(Strategy("fedavg"), tree_from(0.0), [])

    def test_incongruent_updates_rejected(self, rng):
        a = update(0, tree_from(rng))
        b = update(1, tree_from(rng, {"backbone.other": (2,)}))
        with pytest.raises(ContractError):
            aggregate(Strategy("fedavg"), tree_from(0.0), [a, b])

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES, ids=lambda s: s.kind)
    def test_update_order_invariance(self, strategy, rng):
        g = tree_from(rng)
        ups = random_updates(rng, 5)
        out1 = aggregate(strategy, g, ups)
        shuffled = [ups[i] for i in rng.permutation(5)]
        out2 = aggregate(strategy, g, shuffled)
        assert out1.equal_bytes(out2)

    def test_convex_combination_bounds(self, rng):
        for strategy in (Strategy("fedavg"), Strategy("fairavg"), Strategy("loss")):
            for _ in range(30):
                ups = random_updates(rng, int(rng.integers(2, 7)))
                out = aggregate(strategy, tree_from(rng), ups)
                for name, t in out.items():
                    stack = np.stack([u.params.get(name).data for u in ups])
                    assert np.all(t.data >= stack.min(axis=0) - 1e-12)
                    assert np.all(t.data <= stack.max(axis=0) + 1e-12)

    def test_fedavg_equals_fairavg_bitwise_on_equal_sizes(self, rng):
        ups = random_updates(rng, 6, equal_sizes=True)
        g = tree_from(rng)
        a = aggregate(Strategy("fedavg"), g, ups)
        b = aggregate(Strategy("fairavg"), g, ups)
        assert a.equal_bytes(b)


def ldawa_oracle(global_prev: ParamTree, updates) -> dict[str, np.ndarray]:
    """Independent direct-formula implementation (plain weighted sums)."""
    ups = sorted(updates, key=lambda u: u.client_id)
    names = ups[0].params.names()
    layers: dict[str, list[str]] = {}
    for n in names:
        layers.setdefault(n.rsplit(".", 1)[0], []).append(n)
    out = {}
    for layer, lnames in layers.items():
        gvec = np.concatenate([global_prev.get(n).data.reshape(-1) for n in sorted(lnames)])
        betas = []
        for u in ups:
            uvec = np.concatenate([u.params.get(n).data.reshape(-1) for n in sorted(lnames)])
            denom = np.linalg.norm(uvec) * np.linalg.norm(gvec)
            cos = 0.0 if denom == 0 else float(uvec @ gvec) / denom
            betas.append(min(max(cos, 0.0), 1.0))
        total = sum(betas)
        ws = [1.0 / len(ups)] * len(ups) if total < 1e-12 else [b / total for b in betas]
        for n in lnames:
            out[n] = sum(w * u.params.get(n).data for w, u in zip(ws, ups))
    return out


class TestLdawa:
    def test_all_clients_equal_to_global(self, rng):
        g = tree_from(rng)
        ups = [update(i, g) for i in range(3)]
        out = aggregate(Strategy("ldawa"), g, ups)
        assert out.equal_bytes(g)

    def test_orthogonal_client_gets_zero_weight(self):
        shapes = {"backbone.w": (2,)}
        g = ParamTree([("backbone.w", Tensor([1.0, 0.0]))])
        parallel = update(0, ParamTree([("backbone.w", Tensor([2.0, 0.0]))]))
        orthogonal = update(1, ParamTree([("backbone.w", Tensor([0.0, 5.0]))]))
        out = aggregate(Strategy("ldawa"), g, [parallel, orthogonal])
        np.testing.assert_allclose(out.get("backbone.w").data, [2.0, 0.0], atol=1e-12)

    def test_matches_direct_formula_oracle(self, rng):
        for _ in range(25):
            g = tree_from(rng)
            ups = [update(int(cid), tree_from(rng)) for cid in rng.permutation(50)[:3]]
            out = aggregate(Strategy("ldawa"), g, ups)
            oracle = ldawa_oracle(g, ups)
            for name, t in out.items():
                np.testing.assert_allclose(t.data, oracle[name], atol=1e-10)

    def test_all_cosines_equal_reduces_to_fairavg(self, rng):
        # clients at distinct positive scalings of the global direction: cos = 1 for all
        g = tree_from(rng)
        ups = [
            update(i, g.map_values(lambda _, t, s=s: Tensor(t.data * s)))
            for i, s in enumerate((0.5, 1.5, 2.0))
        ]
        out = aggregate(Strategy("ldawa"), g, ups)
        fair = aggregate(Strategy("fairavg"), g, ups)
        for name, t in out.items():
            np.testing.assert_allclose(t.data, fair.get(name).data, rtol=1e-12)


class TestFedU:
    def test_huge_mu_equals_fedavg_bitwise(self, rng):
        g = tree_from(rng)
        ups = random_updates(rng, 4)
        out = aggregate(Strategy("fedu", fedu_mu=1e12), g, ups)
        ref = aggregate(Strategy("fedavg"), g, ups)
        assert out.equal_bytes(ref)

    def test_tiny_mu_keeps_global_heads(self, rng):
        g = tree_from(rng)
        ups = random_updates(rng, 3)  # diverged by construction (random trees)
        out = aggregate(Strategy("fedu", fedu_mu=1e-9), g, ups)
        for name in g.names():
            if not name.startswith("backbone."):
                assert out.get(name).data.tobytes() == g.get(name).data.tobytes()

    def test_mixed_fixture_hand_gated_oracle(self, rng):
        g = tree_from(rng)
        inside = update(0, g.map_values(lambda _, t: Tensor(t.data + 1e-6)), n_samples=2)
        far = g.map_values(lambda n, t: Tensor(t.data + (10.0 if n.startswith("backbone.") else 0.5)))
        outside = update(1, far, n_samples=6)
        out = aggregate(Strategy("fedu", fedu_mu=0.5), g, [inside, outside])
        # heads: only the inside client passes the gate
        for name in g.names():
            if not name.startswith("backbone."):
                np.testing.assert_allclose(out.get(name).data, inside.params.get(name).data, atol=1e-15)
        # backbone: plain sample-weighted mean of both
        for name in g.names():
            if name.startswith("backbone."):
                expected = 0.25 * inside.params.get(name).data + 0.75 * outside.params.get(name).data
                np.testing.assert_allclose(out.get(name).data, expected, atol=1e-12)

    def test_mu_validation(self):
        with pytest.raises(ContractError):
            Strategy("fedu", fedu_mu=0.0)

    @pytest.mark.parametrize("kind", ["fedu", "fedavg"])
    @pytest.mark.parametrize("mu", [float("nan"), float("inf"), -float("inf")])
    def test_nonfinite_mu_rejected_for_every_kind(self, kind, mu):
        with pytest.raises(ContractError, match="finite"):
            Strategy(kind, fedu_mu=mu)


class TestScopeApply:
    def test_full_returns_aggregated(self, rng):
        g, agg = tree_from(rng), tree_from(rng)
        assert scope_apply("full", g, agg).equal_bytes(agg)

    def test_backbone_keeps_global_heads_and_new_backbone(self, rng):
        g, other = tree_from(rng), tree_from(rng)
        agg, _ = split(other, "backbone")
        out = scope_apply("backbone", g, agg)
        for name, t in out.items():
            src = agg if name.startswith("backbone.") else g
            assert t.data.tobytes() == src.get(name).data.tobytes()

    def test_scope_mismatch_rejected(self, rng):
        g = tree_from(rng)
        backbone_only, _ = split(g, "backbone")
        with pytest.raises(ContractError):
            scope_apply("full", g, backbone_only)
        with pytest.raises(ContractError):
            scope_apply("backbone", g, g)


class TestClientUpdateValidation:
    def test_bad_sample_count(self, rng):
        with pytest.raises(ContractError):
            ClientUpdate(client_id=0, params=tree_from(rng), n_samples=0, mean_loss=1.0)

    def test_nonfinite_loss(self, rng):
        with pytest.raises(ContractError):
            ClientUpdate(client_id=0, params=tree_from(rng), n_samples=1, mean_loss=float("nan"))


# Reference copies of the aggregation arithmetic as it was before the
# scratch-array accumulation: a fresh temporary per client and entry, and
# the cosine recomputing the global layer's norm for every client.
def reference_combine(trees, weights) -> ParamTree:
    ref = trees[0]
    out = []
    for name, ref_t in ref.items():
        acc = ref_t.data.copy()
        for tree, w in zip(trees, weights):
            acc += w * (tree.get(name).data - ref_t.data)
        out.append((name, Tensor(acc)))
    return ParamTree(out)


def reference_cosine(a, b) -> float:
    denom = float(np.linalg.norm(a)) * float(np.linalg.norm(b))
    if denom == 0.0:
        return 0.0
    return float(np.dot(a, b)) / denom


def reference_aggregate(strategy: Strategy, global_prev: ParamTree, updates) -> ParamTree:
    ups = sorted(updates, key=lambda u: u.client_id)
    scope = ParamTree([(n, global_prev.get(n)) for n in ups[0].params.names()])
    if strategy.kind == "ldawa":
        entries = []
        for layer in layer_names(scope):
            g_flat = flatten_layer(scope, layer)
            betas = np.array([
                min(max(reference_cosine(flatten_layer(u.params, layer), g_flat), 0.0), 1.0) for u in ups
            ])
            total = betas.sum()
            weights = np.full(len(ups), 1.0 / len(ups)) if total < 1e-12 else betas / total
            layer_trees = [
                ParamTree([(n, t) for n, t in u.params.items() if n.rsplit(".", 1)[0] == layer]) for u in ups
            ]
            entries.extend(reference_combine(layer_trees, weights).items())
        return ParamTree(entries)
    if strategy.kind == "fedu":
        bb_names = [n for n in scope.names() if n.startswith(BACKBONE_PREFIX)]
        head_names = [n for n in scope.names() if not n.startswith(BACKBONE_PREFIX)]
        bb_trees = [ParamTree([(n, u.params.get(n)) for n in bb_names]) for u in ups]
        out = list(reference_combine(bb_trees, beta_fedavg(ups)).items())
        if head_names:
            def divergence(tree):
                bb_u = np.concatenate([tree.get(n).data.reshape(-1) for n in bb_names])
                bb_g = np.concatenate([scope.get(n).data.reshape(-1) for n in bb_names])
                denom = float(np.linalg.norm(bb_g))
                diff = float(np.linalg.norm(bb_u - bb_g))
                if denom == 0.0:
                    return 0.0 if diff == 0.0 else float("inf")
                return diff / denom

            passing = [u for u in ups if divergence(u.params) < strategy.fedu_mu]
            if not passing:
                out.extend((n, scope.get(n)) for n in head_names)
            else:
                head_trees = [ParamTree([(n, u.params.get(n)) for n in head_names]) for u in passing]
                out.extend(reference_combine(head_trees, beta_fedavg(passing)).items())
        return ParamTree(out)
    if strategy.kind == "fedavg":
        weights = beta_fedavg(ups)
    elif strategy.kind == "fairavg":
        weights = beta_fairavg(ups)
    else:
        weights = beta_loss(ups, strategy.loss_direction)
    return reference_combine([u.params for u in ups], weights)


WIDE_SHAPES = {
    "backbone.fc1.weight": (5, 4),
    "backbone.fc1.bias": (4,),
    "backbone.fc2.weight": (4, 3),
    "backbone.fc2.bias": (3,),
    "head.proj.fc1.weight": (3, 2),
    "head.proj.fc1.bias": (2,),
}


def mixed_round(rng, scope: str):
    """A global tree and client updates with identical clients and all-zero layers.

    The global's backbone.fc2 layer is all zeros (every ldawa cosine 0 there),
    one client equals the global, two clients are equal to each other, one
    has an all-zero head, one points against the global, and the rest sit
    at near and far distances, so fedu's gate both passes and rejects.
    """
    g = tree_from(rng, WIDE_SHAPES)
    g = g.map_values(lambda n, t: Tensor(np.zeros(t.shape)) if n.startswith("backbone.fc2.") else t)
    if scope == "backbone":
        g_scope, _ = split(g, "backbone")
    else:
        g_scope = g

    def near(scale):
        return g_scope.map_values(lambda _, t: Tensor(t.data + rng.normal(0.0, scale, size=t.shape)))

    twin = near(0.05)
    trees = [
        g_scope,
        twin,
        twin,
        g_scope.map_values(lambda n, t: Tensor(np.zeros(t.shape)) if n.startswith("head.") else t),
        g_scope.map_values(lambda _, t: Tensor(-t.data)),
        near(0.01),
        near(0.3),
        near(3.0),
    ]
    ids = rng.permutation(1000)[: len(trees)]
    ups = [
        update(int(cid), tree, n_samples=int(rng.integers(1, 40)), mean_loss=float(rng.uniform(0.1, 3.0)))
        for cid, tree in zip(ids, trees)
    ]
    return g, ups


BYTE_IDENTITY_STRATEGIES = [
    Strategy("fedavg"),
    Strategy("fairavg"),
    Strategy("loss"),
    Strategy("loss", loss_direction="low"),
    Strategy("ldawa"),
    Strategy("fedu", fedu_mu=0.5),
    Strategy("fedu", fedu_mu=0.05),
    Strategy("fedu", fedu_mu=1e-12),
]


class TestMatchesReferenceArithmetic:
    @pytest.mark.parametrize("scope", ["full", "backbone"])
    @pytest.mark.parametrize("strategy", BYTE_IDENTITY_STRATEGIES, ids=lambda s: f"{s.kind}-{s.fedu_mu}-{s.loss_direction}")
    @pytest.mark.parametrize("seed", range(4))
    def test_aggregate_bytes_match_reference(self, strategy, scope, seed):
        g, ups = mixed_round(np.random.default_rng(seed), scope)
        before = [params_bytes(u.params) for u in ups] + [params_bytes(g)]
        out = aggregate(strategy, g, list(reversed(ups)))
        assert params_bytes(out) == params_bytes(reference_aggregate(strategy, g, ups))
        assert [params_bytes(u.params) for u in ups] + [params_bytes(g)] == before

    def test_random_trees_match_reference(self, rng):
        for _ in range(20):
            g = tree_from(rng)
            ups = random_updates(rng, int(rng.integers(1, 9)))
            for strategy in ALL_STRATEGIES:
                assert params_bytes(aggregate(strategy, g, ups)) == params_bytes(reference_aggregate(strategy, g, ups))
