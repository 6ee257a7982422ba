"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Every check is fully seeded; a green run stays green.
"""

import time
from dataclasses import replace

import numpy as np

from fassl.aggregation import Strategy, aggregate
from fassl.autodiff import Graph, Tensor, backward
from fassl.checkpoint import load_params
from fassl.cli import main as cli_main
from fassl.data import dirichlet_partition, downstream_suite, partition_label_entropies, synth_dataset
from fassl.evaluator import OptimaTracker, TaskAccuracy, evaluate_global, knn_retrieval_accuracy, update_optima
from fassl.model import encode, project, split
from fassl.orchestrator import RunConfig, initial_state, read_results_csv, run
from fassl.seeding import derive_seed, rng_for
from fassl.ssl_tasks import acop_loss, acop_make_batch, barlow_twins_loss, nt_xent_loss

from conftest import fd_fixture_ok, finite_diff_grad, gradclose, map_values, perturbed_params, tiny_sizes
from test_aggregation import ldawa_oracle, random_updates, tree_from, update
from test_evaluator import brute_force_accuracy


def _report(num: int, desc: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[ACCEPTANCE {num:02d}] {status} - {desc}{suffix}")
    assert ok, f"criterion {num} failed: {desc}{suffix}"


# --------------------------------------------------------------------------
# 1. Gradient correctness of the three losses on >= 20 screened fixtures each
# --------------------------------------------------------------------------


def test_criterion_01_loss_gradients():
    t0 = time.perf_counter()
    sizes = tiny_sizes()
    checked = {"nt_xent": 0, "barlow": 0, "acop": 0}
    target = 20

    seed = 0
    while min(checked["nt_xent"], checked["barlow"]) < target and seed < 200:
        rng = np.random.default_rng(seed)
        params = perturbed_params(sizes, seed=seed)
        xb = Tensor(rng.uniform(0.05, 1.5, size=(8, sizes[0])))
        seed += 1
        if not fd_fixture_ok(params, xb.data):
            continue
        if checked["nt_xent"] < target:
            def f_nt(p):
                return nt_xent_loss(project(p, encode(p, xb)), tau=0.5).item()

            with Graph(params.as_dict()) as g:
                loss = nt_xent_loss(project(params, encode(params, xb)), tau=0.5)
            assert gradclose(backward(g, loss), finite_diff_grad(f_nt, params, 1e-5))
            checked["nt_xent"] += 1
        if checked["barlow"] < target:
            def f_bt(p):
                return barlow_twins_loss(project(p, encode(p, xb))).item()

            with Graph(params.as_dict()) as g:
                loss = barlow_twins_loss(project(params, encode(params, xb)))
            assert gradclose(backward(g, loss), finite_diff_grad(f_bt, params, 1e-5))
            checked["barlow"] += 1

    seed = 1000
    while checked["acop"] < target and seed < 1200:
        rng = np.random.default_rng(seed)
        params = perturbed_params(sizes, seed=seed)
        clips = np.stack([rng.uniform(0.0, 1.5, size=(10, 1)) for _ in range(4)])
        batch = acop_make_batch(clips, rng_for(seed, "acop-fixture"))
        seed += 1
        # kink-margin screen on the segment batch
        x = batch.segments.data
        pre1 = x @ params.get("backbone.fc1.weight").data + params.get("backbone.fc1.bias").data
        pre2 = np.maximum(pre1, 0) @ params.get("backbone.fc2.weight").data + params.get("backbone.fc2.bias").data
        if min(np.abs(pre1).min(), np.abs(pre2).min()) < 1e-4:
            continue

        def f_ac(p):
            return acop_loss(p, batch).item()

        with Graph(params.as_dict()) as g:
            loss = acop_loss(params, batch)
        assert gradclose(backward(g, loss), finite_diff_grad(f_ac, params, 1e-5))
        checked["acop"] += 1

    elapsed = time.perf_counter() - t0
    ok = all(v >= target for v in checked.values()) and elapsed < 30.0
    _report(1, "loss gradients match central finite differences (rel err < 1e-4)", ok,
            f"fixtures {checked}, {elapsed:.1f}s")


# --------------------------------------------------------------------------
# 2. Aggregation algebra property suite, >= 1000 cases
# --------------------------------------------------------------------------


def test_criterion_02_aggregation_algebra():
    t0 = time.perf_counter()
    strategies = [
        Strategy("fedavg"),
        Strategy("fairavg"),
        Strategy("loss"),
        Strategy("fedu", fedu_mu=0.5),
        Strategy("ldawa"),
    ]
    rng = np.random.default_rng(2024)
    cases = 0
    for strategy in strategies:
        for _ in range(210):
            g = tree_from(rng)
            s = int(rng.integers(1, 7))
            # unanimity (fedu: the gate only admits near-global clients; the
            # gated-out branch is criterion 10's subject)
            shared = map_values(g, lambda _, t: Tensor(t.data + rng.normal(0, 0.01, t.shape)))
            ups = [
                update(int(cid), shared, n_samples=int(rng.integers(1, 40)),
                       mean_loss=float(rng.uniform(0, 2)))
                for cid in rng.permutation(60)[:s]
            ]
            assert aggregate(strategy, g, ups).equal_bytes(shared)
            # single-client identity
            solo = map_values(g, lambda _, t: Tensor(t.data + rng.normal(0, 0.01, t.shape)))
            assert aggregate(strategy, g, [update(3, solo, n_samples=5)]).equal_bytes(solo)
            # order invariance on heterogeneous updates
            mixed = [
                update(int(cid), map_values(g, lambda _, t: Tensor(t.data + rng.normal(0, 0.01, t.shape))),
                       n_samples=int(rng.integers(1, 40)), mean_loss=float(rng.uniform(0, 2)))
                for cid in rng.permutation(60)[:max(s, 2)]
            ]
            out1 = aggregate(strategy, g, mixed)
            out2 = aggregate(strategy, g, [mixed[i] for i in rng.permutation(len(mixed))])
            assert out1.equal_bytes(out2)
            # convex-combination bounds for the linear-weight family
            if strategy.kind in ("fedavg", "fairavg", "loss"):
                for name, t in out1.items():
                    stack = np.stack([u.params.get(name).data for u in mixed])
                    assert np.all(t.data >= stack.min(axis=0) - 1e-12)
                    assert np.all(t.data <= stack.max(axis=0) + 1e-12)
            cases += 1
    # FedAvg == FairAvg bit-exactly on equal sample counts
    for _ in range(100):
        g = tree_from(rng)
        ups = random_updates(rng, int(rng.integers(1, 8)), equal_sizes=True)
        assert aggregate(Strategy("fedavg"), g, ups).equal_bytes(
            aggregate(Strategy("fairavg"), g, ups)
        )
        cases += 1
    elapsed = time.perf_counter() - t0
    ok = cases >= 1000 and elapsed < 60.0
    _report(2, "aggregation algebra properties hold", ok, f"{cases} cases, {elapsed:.1f}s")


# --------------------------------------------------------------------------
# 3. L-DAWA equals an independent direct-formula oracle
# --------------------------------------------------------------------------


def test_criterion_03_ldawa_oracle():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(50):
        g = tree_from(rng)
        ups = [update(int(cid), tree_from(rng)) for cid in rng.permutation(40)[:3]]
        out = aggregate(Strategy("ldawa"), g, ups)
        oracle = ldawa_oracle(g, ups)
        for name, t in out.items():
            worst = max(worst, float(np.max(np.abs(t.data - oracle[name]))))
    ok = worst <= 1e-10
    _report(3, "ldawa matches the direct-formula oracle on 50 fixtures", ok, f"max dev {worst:.2e}")


# --------------------------------------------------------------------------
# 4. Dirichlet heterogeneity ordering over 20 seeds
# --------------------------------------------------------------------------


def test_criterion_04_dirichlet_heterogeneity():
    ds = synth_dataset(8, 25, 8, 4, seed=40)
    means = {}
    for alpha in (0.1, 1.0, 100.0):
        vals = [
            np.mean(partition_label_entropies(ds, dirichlet_partition(ds, 20, alpha, seed)))
            for seed in range(20)
        ]
        means[alpha] = float(np.mean(vals))
    ok = means[0.1] < means[1.0] < means[100.0]
    _report(4, "mean per-client label entropy strictly ordered in alpha", ok,
            f"0.1: {means[0.1]:.3f} < 1: {means[1.0]:.3f} < 100: {means[100.0]:.3f}")


# --------------------------------------------------------------------------
# 5. kNN retrieval equals the exhaustive brute-force oracle on 100 fixtures
# --------------------------------------------------------------------------


def test_criterion_05_knn_oracle():
    rng = np.random.default_rng(5)
    mismatches = 0
    for case in range(100):
        n, q, d = int(rng.integers(4, 30)), int(rng.integers(1, 12)), int(rng.integers(2, 8))
        train = rng.normal(size=(n, d))
        test = rng.normal(size=(q, d))
        if case % 3 == 0:  # exercise the tie rule with duplicated rows
            train[1] = train[0]
            test[0] = train[0]
        train_labels = rng.integers(0, 4, size=n)
        test_labels = rng.integers(0, 4, size=q)
        k = int(rng.integers(1, n + 1))
        ours = knn_retrieval_accuracy(train, train_labels, test, test_labels, k)
        oracle = brute_force_accuracy(train, train_labels, test, test_labels, k)
        mismatches += int(ours != oracle)
    ok = mismatches == 0
    _report(5, "knn retrieval matches the brute-force scan exactly on 100 fixtures", ok)


# --------------------------------------------------------------------------
# 6. Tracker equals max-with-earliest-argmax; strict ties keep earlier round
# --------------------------------------------------------------------------


def test_criterion_06_tracker_oracle():
    rng = np.random.default_rng(6)
    ok = True
    for _ in range(200):
        length = int(rng.integers(1, 40))
        traj = np.round(rng.uniform(0, 1, size=length), 2)  # rounding forces ties
        tracker = OptimaTracker()
        for i, v in enumerate(traj, start=1):
            update_optima(tracker, i, [TaskAccuracy(task="t", round=i, accuracy=float(v), k=1)])
        best = tracker.best["t"]
        ok &= best.accuracy == float(traj.max())
        ok &= best.round == int(np.argmax(traj)) + 1  # earliest argmax
    # explicit strict-tie check
    tracker = OptimaTracker()
    for i, v in enumerate([0.4, 0.4, 0.4], start=1):
        update_optima(tracker, i, [TaskAccuracy(task="t", round=i, accuracy=v, k=1)])
    ok &= tracker.best["t"].round == 1
    _report(6, "tracker equals max-with-earliest-argmax oracle; ties keep earlier", ok)


# --------------------------------------------------------------------------
# 7. End-to-end determinism through the CLI with matrix cells in parallel
# --------------------------------------------------------------------------


def test_criterion_07_end_to_end_determinism(tmp_path):
    flags = [
        "run", "--rounds", "6", "--clients", "10", "--clients-per-round", "4",
        "--eval-every", "2", "--pretext-classes", "4", "--pretext-per-class", "15",
        "--frames", "16", "--bands", "8", "--hidden-dim", "12", "--embed-dim", "8",
        "--projection-dim", "8", "--workers", "4", "--strategy", "fedavg,ldawa",
    ]
    outputs = []
    for sub in ("first", "second"):
        assert cli_main([*flags, "--out-dir", str(tmp_path / sub)]) == 0
        outputs.append({
            (cell.name, artifact): (cell / artifact).read_bytes()
            for cell in sorted((tmp_path / sub).iterdir())
            for artifact in ("results.csv", "final.ckpt")
        })
    ok = len(outputs[0]) == 4 and outputs[0] == outputs[1]
    _report(7, "two runs of 2 cells on up to 4 processes give byte-identical CSVs and checkpoints", ok)


# --------------------------------------------------------------------------
# 8. Learning improvement at desk scale vs random init and centralized
# --------------------------------------------------------------------------


def test_criterion_08_learning_improvement(tmp_path):
    t0 = time.perf_counter()
    cfg = RunConfig(rounds=30, n_clients=20, clients_per_round=5, eval_every=10, master_seed=7)
    # the baseline scores on the suite run derives from the config
    tasks = downstream_suite(derive_seed(cfg.master_seed, "downstream-data"), cfg.frames, cfg.bands)

    baseline = {
        a.task: a.accuracy
        for a in evaluate_global(
            initial_state(cfg).global_params, tasks, cfg.k, round_idx=0, feature_layer=cfg.feature_layer
        )
    }
    fed = run(cfg, tmp_path / "fed")
    fed_rows = read_results_csv(tmp_path / "fed" / "results.csv")
    fed_acc = {a["task"]: a["accuracy"] for a in fed_rows if a["round"] == cfg.rounds}

    # centralized twin: N = s = 1, matched total gradient steps, on the same pretext set and suite
    probe = run(replace(cfg, n_clients=1, clients_per_round=1, rounds=1, eval_every=10**6), tmp_path / "probe")
    cent_rounds = max(1, round(fed.total_steps / probe.total_steps))
    run(replace(cfg, n_clients=1, clients_per_round=1, rounds=cent_rounds, eval_every=cent_rounds), tmp_path / "cent")
    cent_rows = read_results_csv(tmp_path / "cent" / "results.csv")
    cent_acc = {a["task"]: a["accuracy"] for a in cent_rows if a["round"] == cent_rounds}

    gain = fed_acc["bandprofile"] - baseline["bandprofile"]
    gap = abs(fed_acc["bandprofile"] - cent_acc["bandprofile"])
    elapsed = time.perf_counter() - t0
    ok = gain >= 0.10 and gap <= 0.05 and elapsed < 300.0
    _report(8, "federated pretraining beats random init by >= 10 pts and is on par with centralized",
            ok, f"gain {gain:+.3f}, |fed-cent| {gap:.3f}, {elapsed:.1f}s")


# --------------------------------------------------------------------------
# 9. Backbone-only scoping: frozen server heads, per-client local heads
# --------------------------------------------------------------------------


def test_criterion_09_backbone_scoping(tmp_path):
    cfg = RunConfig(
        rounds=6, n_clients=6, clients_per_round=3, eval_every=1, scope="backbone",
        ssl_task="simclr", pretext_classes=4, pretext_per_class=12, frames=16, bands=8,
        hidden_dim=12, embed_dim=8, projection_dim=8, master_seed=33,
    )
    result = run(cfg, tmp_path)

    init_heads = split(initial_state(cfg).global_params, "backbone")[1]
    heads_frozen = True
    for ckpt in sorted(tmp_path.glob("round_*.ckpt")):
        _, heads = split(load_params(ckpt), "backbone")
        heads_frozen &= heads.equal_bytes(init_heads)

    sampled_twice = [cid for cid, h in result.state.retained_heads.items()]
    heads_differ = False
    for i in range(len(sampled_twice)):
        for j in range(i + 1, len(sampled_twice)):
            a = result.state.retained_heads[sampled_twice[i]]
            b = result.state.retained_heads[sampled_twice[j]]
            if not a.equal_bytes(b):
                heads_differ = True
    ok = heads_frozen and len(sampled_twice) >= 2 and heads_differ
    _report(9, "server heads byte-frozen across rounds; sampled clients' heads diverge", ok,
            f"{len(sampled_twice)} clients trained")


# --------------------------------------------------------------------------
# 10. FedU gate: open == FedAvg bitwise, closed == previous global heads
# --------------------------------------------------------------------------


def test_criterion_10_fedu_gating():
    rng = np.random.default_rng(10)
    ok = True
    for _ in range(20):
        g = tree_from(rng)
        ups = random_updates(rng, int(rng.integers(2, 6)))
        open_gate = aggregate(Strategy("fedu", fedu_mu=1e12), g, ups)
        ok &= open_gate.equal_bytes(aggregate(Strategy("fedavg"), g, ups))
        closed = aggregate(Strategy("fedu", fedu_mu=1e-12), g, ups)
        for name in g.names():
            if not name.startswith("backbone."):
                ok &= closed.get(name).data.tobytes() == g.get(name).data.tobytes()
    _report(10, "fedu: huge mu bit-equals fedavg; closed gate keeps previous global heads", ok)
