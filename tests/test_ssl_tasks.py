"""Pretext task tests: augmentation statistics, loss values, loss gradients."""

import hashlib

import numpy as np
import pytest

from fassl import autodiff as ad
from fassl.autodiff import Graph, Tensor, backward
from fassl.data import Clip, resample_frames, synth_dataset
from fassl.errors import ContractError
from fassl.model import EncoderConfig, encode, init_encoder, project, sgd_step
from fassl.seeding import rng_for
from fassl.ssl_tasks import (
    ACOP_SEGMENTS,
    AcopBatch,
    AugmentPolicy,
    acop_loss,
    acop_make_batch,
    barlow_twins_loss,
    canonical_permutations,
    nt_xent_loss,
    two_view_batch,
)

from conftest import fd_fixture_ok, finite_diff_grad, gradclose, perturbed_params, tiny_encoder_config


def make_clip(rng, frames=12, bands=4, clip_id=0) -> Clip:
    return Clip(features=rng.uniform(0.0, 1.5, size=(frames, bands)), label=0, clip_id=clip_id)


class TestAugment:
    def test_identity_policy_returns_original(self, rng):
        clip = make_clip(rng)
        views = two_view_batch([clip], AugmentPolicy(1.0, 0.0, 0.0), rng_for(0, "aug"))
        np.testing.assert_array_equal(views.data, np.tile(clip.features.reshape(-1), (2, 1)))

    def test_same_rng_state_same_view(self, rng):
        clip = make_clip(rng)
        policy = AugmentPolicy(0.6, 0.1, 0.2)
        a = two_view_batch([clip], policy, rng_for(3, "aug"))
        b = two_view_batch([clip], policy, rng_for(3, "aug"))
        np.testing.assert_array_equal(a.data, b.data)

    def test_noise_magnitude_monte_carlo(self, rng):
        """|view - clean| has half-normal mean std*sqrt(2/pi) ~ 0.0798 at std 0.1."""
        clip = make_clip(rng)
        clean = clip.features.reshape(-1)
        policy = AugmentPolicy(1.0, 0.1, 0.0)
        stream = rng_for(4, "aug-mc")
        devs = [np.mean(np.abs(two_view_batch([clip], policy, stream).data - clean)) for _ in range(500)]
        assert 0.05 < np.mean(devs) < 0.15

    def test_band_mask_zeroes_columns(self, rng):
        clip = make_clip(rng)
        views = two_view_batch([clip], AugmentPolicy(1.0, 0.0, 1.0), rng_for(5, "aug"))
        np.testing.assert_array_equal(views.data, np.zeros((2, clip.features.size)))

    def test_policy_validation(self):
        with pytest.raises(ContractError):
            AugmentPolicy(crop_fraction=0.0)
        with pytest.raises(ContractError):
            AugmentPolicy(noise_std=-0.1)
        with pytest.raises(ContractError):
            AugmentPolicy(band_mask_prob=1.5)

    @pytest.mark.parametrize("field", ["crop_fraction", "noise_std", "band_mask_prob"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_policy_rejects_nonfinite(self, field, value):
        with pytest.raises(ContractError):
            AugmentPolicy(**{field: value})


class TestNtXentLoss:
    def test_all_identical_embeddings_gives_log3(self):
        z = Tensor(np.tile([[1.0, 0.0]], (4, 1)))
        loss = nt_xent_loss(z, tau=1.0)
        np.testing.assert_allclose(loss.item(), np.log(3.0), rtol=1e-12)

    def test_identical_positives_orthogonal_negatives(self):
        # direct evaluation of the definition: -log(e / (e + 2))
        z = Tensor(np.array([[1, 0, 0], [1, 0, 0], [0, 1, 0], [0, 1, 0]], dtype=float))
        loss = nt_xent_loss(z, tau=1.0)
        np.testing.assert_allclose(loss.item(), -np.log(np.e / (np.e + 2.0)), rtol=1e-12)

    def test_scale_invariance(self, rng):
        z = rng.normal(size=(8, 5)) + 0.5
        a = nt_xent_loss(Tensor(z), tau=0.5).item()
        b = nt_xent_loss(Tensor(3.7 * z), tau=0.5).item()
        np.testing.assert_allclose(a, b, rtol=1e-12)

    def test_batch_permutation_equivariance(self, rng):
        z = rng.normal(size=(10, 6))
        base = nt_xent_loss(Tensor(z), tau=0.5).item()
        pair_order = rng.permutation(5)
        rows = np.concatenate([[2 * p, 2 * p + 1] for p in pair_order])
        shuffled = nt_xent_loss(Tensor(z[rows]), tau=0.5).item()
        np.testing.assert_allclose(base, shuffled, rtol=1e-12)

    def test_too_few_pairs_rejected(self):
        with pytest.raises(ContractError):
            nt_xent_loss(Tensor(np.ones((2, 3))), tau=0.5)
        with pytest.raises(ContractError):
            nt_xent_loss(Tensor(np.ones((5, 3))), tau=0.5)

    def test_tau_positive(self):
        with pytest.raises(ContractError):
            nt_xent_loss(Tensor(np.ones((4, 3))), tau=0.0)


class TestBarlowTwinsLoss:
    def test_identity_cross_correlation_gives_zero(self, rng):
        # orthonormal columns standardized to mean 0 / population std 1 -> C = I
        raw = rng.normal(size=(16, 4))
        q, _ = np.linalg.qr(raw - raw.mean(axis=0))
        z = (q - q.mean(axis=0)) / q.std(axis=0)
        loss = barlow_twins_loss(Tensor(z), Tensor(z), lam=0.005)
        assert loss.item() < 1e-20

    def test_lambda_zero_uses_only_diagonal(self, rng):
        za = Tensor(rng.normal(size=(8, 4)))
        zb = Tensor(rng.normal(size=(8, 4)))
        loss_value = barlow_twins_loss(za, zb, lam=0.0).item()
        # direct-formula oracle, diagonal part only
        a = (za.data - za.data.mean(0)) / np.maximum(za.data.std(0), 1e-9)
        b = (zb.data - zb.data.mean(0)) / np.maximum(zb.data.std(0), 1e-9)
        c = a.T @ b / 8.0
        np.testing.assert_allclose(loss_value, ((1 - np.diag(c)) ** 2).sum(), rtol=1e-10)

    def test_matches_direct_formula_oracle(self, rng):
        za = rng.normal(size=(8, 4))
        zb = rng.normal(size=(8, 4))
        lam = 0.005
        a = (za - za.mean(0)) / np.maximum(za.std(0), 1e-9)
        b = (zb - zb.mean(0)) / np.maximum(zb.std(0), 1e-9)
        c = a.T @ b / 8.0
        expected = ((1 - np.diag(c)) ** 2).sum() + lam * (c**2 * (1 - np.eye(4))).sum()
        loss = barlow_twins_loss(Tensor(za), Tensor(zb), lam=lam)
        np.testing.assert_allclose(loss.item(), expected, atol=1e-10)

    def test_always_nonnegative(self, rng):
        for _ in range(50):
            za = Tensor(rng.normal(size=(6, 3)))
            zb = Tensor(rng.normal(size=(6, 3)))
            assert barlow_twins_loss(za, zb, lam=0.01).item() >= 0.0

    def test_pair_permutation_equivariance(self, rng):
        za, zb = rng.normal(size=(8, 4)), rng.normal(size=(8, 4))
        base = barlow_twins_loss(Tensor(za), Tensor(zb), lam=0.005).item()
        perm = rng.permutation(8)
        shuffled = barlow_twins_loss(Tensor(za[perm]), Tensor(zb[perm]), lam=0.005).item()
        np.testing.assert_allclose(base, shuffled, rtol=1e-10)


class TestAcopBatch:
    def test_identity_permutation_keeps_order(self, rng):
        perms = canonical_permutations(3)
        assert perms[0] == (0, 1, 2)
        clip = make_clip(rng, frames=12, bands=2)
        # find a stream whose first draw picks the identity permutation
        seed = next(
            s for s in range(100) if rng_for(s, "acop-identity").integers(0, len(perms)) == 0
        )
        batch = acop_make_batch([clip], 3, perms, rng_for(seed, "acop-identity"))
        assert batch.labels.tolist() == [0]
        for i in range(3):
            seg = clip.features[i * 4:(i + 1) * 4]
            np.testing.assert_array_equal(
                batch.segments.data[i], resample_frames(seg, 12).reshape(-1)
            )

    def test_label_distribution_approximately_uniform(self, rng):
        """Frequency-count oracle over 10000 draws, generous chi-square bound."""
        clips = [make_clip(rng, clip_id=i) for i in range(10)]
        perms = canonical_permutations(3)
        stream = rng_for(1, "acop-freq")
        counts = np.zeros(6)
        for _ in range(1000):
            batch = acop_make_batch(clips, 3, perms, stream)
            for lab in batch.labels:
                counts[lab] += 1
        total = counts.sum()
        assert total == 10000
        expected = total / 6
        chi2 = ((counts - expected) ** 2 / expected).sum()
        assert chi2 < 30.0  # df=5; p ~ 1e-5 cutoff, generous

    def test_same_rng_state_same_batch(self, rng):
        clips = [make_clip(rng, clip_id=i) for i in range(4)]
        perms = canonical_permutations(3)
        a = acop_make_batch(clips, 3, perms, rng_for(2, "acop"))
        b = acop_make_batch(clips, 3, perms, rng_for(2, "acop"))
        np.testing.assert_array_equal(a.segments.data, b.segments.data)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_short_clip_rejected(self, rng):
        clip = make_clip(rng, frames=5)  # 5 // 3 = 1 frame per segment
        with pytest.raises(ContractError, match="too short"):
            acop_make_batch([clip], 3, canonical_permutations(3), rng_for(0, "x"))

    def test_segments_shape(self, rng):
        clips = [make_clip(rng, clip_id=i) for i in range(4)]
        batch = acop_make_batch(clips, 3, canonical_permutations(3), rng_for(0, "x"))
        assert batch.segments.shape == (12, 12 * 4)
        assert batch.labels.shape == (4,)


class TestAcopLoss:
    def test_uniform_logits_give_log_p(self, rng):
        cfg = tiny_encoder_config()
        params = init_encoder(cfg, seed=1).map_values(
            lambda n, t: Tensor(np.zeros_like(t.data))
            if n.startswith("head.acop")
            else t
        )
        clips = [make_clip(rng, frames=10, bands=1, clip_id=i) for i in range(3)]
        batch = acop_make_batch(clips, 3, canonical_permutations(3), rng_for(0, "x"))
        loss = acop_loss(params, batch)
        np.testing.assert_allclose(loss.item(), np.log(6.0), rtol=1e-12)

    def test_gradient_matches_finite_differences(self, rng):
        cfg = tiny_encoder_config()
        params = perturbed_params(cfg, seed=5)
        clips = [make_clip(rng, frames=10, bands=1, clip_id=i) for i in range(4)]
        batch = acop_make_batch(clips, 3, canonical_permutations(3), rng_for(1, "x"))

        def f(p):
            return acop_loss(p, batch).item()

        with Graph(params.as_dict()) as g:
            loss = acop_loss(params, batch)
        analytic = backward(g, loss)
        numeric = finite_diff_grad(f, params, step=1e-5)
        assert gradclose(analytic, numeric)

    def test_loss_decreases_over_sgd_steps(self):
        """Training smoke oracle: 50 steps on a fixed 32-clip fixture."""
        data_rng = np.random.default_rng(77)
        cfg = tiny_encoder_config()
        params = init_encoder(cfg, seed=7)
        clips = [make_clip(data_rng, frames=10, bands=1, clip_id=i) for i in range(32)]
        perms = canonical_permutations(3)
        stream = rng_for(9, "acop-train")
        first = None
        last = None
        for step in range(50):
            batch = acop_make_batch(clips, 3, perms, stream)
            with Graph(params.as_dict()) as g:
                loss = acop_loss(params, batch)
            params = sgd_step(params, backward(g, loss), lr=0.1)
            if first is None:
                first = loss.item()
            last = loss.item()
        assert last < first


class TestLossGradientsThroughEncoder:
    """Full-pipeline checks mirroring how local training wires the losses."""

    @pytest.mark.parametrize("seed", [0, 2, 3, 5])
    def test_nt_xent_and_barlow(self, seed):
        rng = np.random.default_rng(seed)
        cfg = tiny_encoder_config()
        params = perturbed_params(cfg, seed=seed)
        xb = Tensor(rng.uniform(0.05, 1.5, size=(8, cfg.input_dim)))
        assert fd_fixture_ok(params, xb.data), "fixture seeds are pre-screened; regenerate if this trips"

        def f_nt(p):
            return nt_xent_loss(project(p, encode(p, xb)), tau=0.5).item()

        with Graph(params.as_dict()) as g:
            loss = nt_xent_loss(project(params, encode(params, xb)), tau=0.5)
        assert gradclose(backward(g, loss), finite_diff_grad(f_nt, params, 1e-5))

        even, odd = np.arange(0, 8, 2), np.arange(1, 8, 2)

        def f_bt(p):
            zz = project(p, encode(p, xb))
            return barlow_twins_loss(
                ad.gather_rows(zz, even), ad.gather_rows(zz, odd), lam=0.005
            ).item()

        with Graph(params.as_dict()) as g:
            zz = project(params, encode(params, xb))
            loss = barlow_twins_loss(ad.gather_rows(zz, even), ad.gather_rows(zz, odd), lam=0.005)
        assert gradclose(backward(g, loss), finite_diff_grad(f_bt, params, 1e-5))


class TestSeparableFixtureTraining:
    def test_nt_xent_decreases_under_gradient_steps(self):
        """The pair loss has no floor claim; instead it must train down."""
        ds = synth_dataset(4, 8, 16, 8, seed=13)
        cfg = EncoderConfig(input_dim=128, hidden_dim=12, embed_dim=8, projection_dim=8, acop_classes=6)
        params = init_encoder(cfg, seed=13)
        policy = AugmentPolicy(0.8, 0.05, 0.1)
        probe = two_view_batch(ds.clips, policy, rng_for(14, "nt-probe"))

        def probe_loss(p):
            return nt_xent_loss(project(p, encode(p, probe)), tau=0.5).item()

        before = probe_loss(params)
        stream = rng_for(13, "nt-train")
        for _ in range(60):
            batch = two_view_batch(ds.clips, policy, stream)
            with Graph(params.as_dict()) as g:
                loss = nt_xent_loss(project(params, encode(params, batch)), tau=0.5)
            params = sgd_step(params, backward(g, loss), lr=0.01)
        assert probe_loss(params) < before


class TestAcopLossBatchOrder:
    def test_loss_invariant_to_consistent_clip_reshuffle(self, rng):
        clips = [make_clip(rng, frames=9, bands=2, clip_id=i) for i in range(5)]
        batch = acop_make_batch(clips, 3, canonical_permutations(3), rng_for(3, "x"))
        cfg = tiny_encoder_config(input_dim=18)
        params = perturbed_params(cfg, seed=3)
        base = acop_loss(params, batch).item()
        order = rng.permutation(5)
        seg_rows = np.concatenate([np.arange(3 * c, 3 * c + 3) for c in order])
        shuffled = AcopBatch(
            segments=Tensor(batch.segments.data[seg_rows]),
            labels=batch.labels[order],
            m=3,
            n_perms=6,
        )
        np.testing.assert_allclose(acop_loss(params, shuffled).item(), base, rtol=1e-12)


class TestTwoViewBatch:
    def test_interleaved_rows(self, rng):
        ds = synth_dataset(2, 3, 12, 4, seed=0)
        batch = two_view_batch(ds.clips[:3], AugmentPolicy(1.0, 0.0, 0.0), rng_for(0, "v"))
        assert batch.shape == (6, 48)
        for i, clip in enumerate(ds.clips[:3]):
            flat = clip.features.reshape(-1)
            np.testing.assert_array_equal(batch.data[2 * i], flat)
            np.testing.assert_array_equal(batch.data[2 * i + 1], flat)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
class TestNonFiniteClipRejectedByBatch:
    """A clip is not checked at construction; the batch Tensor rejects its values."""

    def clips(self, rng, bad):
        clips = [make_clip(rng, clip_id=i) for i in range(3)]
        features = clips[1].features.copy()
        features[0, 0] = bad  # frame 0 is in every uncropped view and in acop's first segment
        clips[1] = Clip(features=features, label=0, clip_id=1)
        return clips

    def test_two_view_batch(self, rng, bad):
        with pytest.raises(ContractError, match="finite"):
            two_view_batch(self.clips(rng, bad), AugmentPolicy(1.0, 0.05, 0.0), rng_for(0, "v"))

    def test_acop_make_batch(self, rng, bad):
        with pytest.raises(ContractError, match="finite"):
            acop_make_batch(self.clips(rng, bad), 3, canonical_permutations(3), rng_for(0, "x"))


def reference_two_view_batch(clips, policy, rng) -> np.ndarray:
    """Loop oracle: the batched draws in documented order, then one view at a time.

    Draws all 2n crop starts, then the (2n, frames, bands) noise, then the
    (2n, bands) band-dropout coins, each only when the policy uses it; view
    v is clip v // 2 cropped, resampled, noised and band-masked.
    """
    frames, bands = clips[0].features.shape
    n_views = 2 * len(clips)
    crop_len = max(1, int(round(policy.crop_fraction * frames)))
    starts = rng.integers(0, frames - crop_len + 1, size=n_views) if crop_len < frames else None
    noise = rng.normal(0.0, policy.noise_std, size=(n_views, frames, bands)) if policy.noise_std > 0 else None
    coins = rng.uniform(size=(n_views, bands)) if policy.band_mask_prob > 0 else None
    rows = []
    for v in range(n_views):
        feats = clips[v // 2].features
        crop = feats if starts is None else feats[starts[v]:starts[v] + crop_len]
        view = resample_frames(crop, frames).copy()
        if noise is not None:
            view = view + noise[v]
        if coins is not None:
            view[:, coins[v] < policy.band_mask_prob] = 0.0
        rows.append(view.reshape(-1))
    return np.stack(rows)


def reference_acop_make_batch(clips, m, perm_table, rng) -> tuple[np.ndarray, np.ndarray]:
    """Per-segment oracle: one permutation draw per clip, one resample per segment."""
    rows, labels = [], []
    for clip in clips:
        frames = clip.features.shape[0]
        seg_len = frames // m
        feats = clip.features
        segs = [feats[i * seg_len:(i + 1) * seg_len] for i in range(m)]
        p = int(rng.integers(0, len(perm_table)))
        labels.append(p)
        for j in perm_table[p]:
            rows.append(resample_frames(segs[j], frames).reshape(-1))
    return np.stack(rows), np.array(labels, dtype=np.int64)


ORACLE_POLICIES = {
    "identity": AugmentPolicy(1.0, 0.0, 0.0),
    "crop_only": AugmentPolicy(0.7, 0.0, 0.0),
    "noise_only": AugmentPolicy(1.0, 0.05, 0.0),
    "band_mask_0": AugmentPolicy(0.6, 0.05, 0.0),
    "band_mask_1": AugmentPolicy(0.6, 0.05, 1.0),
    "default": AugmentPolicy(),
}
ORACLE_SHAPES = [(32, 16), (31, 5), (14, 3)]  # none has a frame count divisible by 3


def oracle_clips(n, frames, bands, seed=0) -> list[Clip]:
    src = rng_for(seed, "oracle-clips", frames, bands)
    return [
        Clip(features=src.normal(0.0, 1.0, size=(frames, bands)), label=i % 3, clip_id=i)
        for i in range(n)
    ]


def assert_same_bytes(ours: np.ndarray, ref: np.ndarray) -> None:
    assert ours.dtype == ref.dtype and ours.shape == ref.shape
    assert ours.tobytes() == ref.tobytes()


class TestBatchedViewDraw:
    """Distribution of the batched draw over many seeded batches."""

    FRAMES, BANDS, N = 32, 16, 64

    def clips(self, fill) -> list[Clip]:
        """N identical clips whose features are fill(element index)."""
        features = fill(np.arange(self.FRAMES * self.BANDS, dtype=float).reshape(self.FRAMES, self.BANDS))
        return [Clip(features=features, label=0, clip_id=i) for i in range(self.N)]

    def batches(self, clips, policy, count, purpose):
        stream = rng_for(11, purpose)
        for _ in range(count):
            yield two_view_batch(clips, policy, stream).data.reshape(2 * self.N, self.FRAMES, self.BANDS)

    def test_every_crop_start_occurs(self):
        # frame f of every clip holds f, so a view's first frame is its crop start
        clips = self.clips(lambda x: x // self.BANDS)
        policy = AugmentPolicy(0.7, 0.0, 0.0)
        crop_len = round(0.7 * self.FRAMES)
        seen = set()
        for views in self.batches(clips, policy, 20, "starts"):
            seen.update(views[:, 0, 0].astype(int).tolist())
        assert seen == set(range(self.FRAMES - crop_len + 1))

    def test_dropped_band_rate_within_binomial_bound(self):
        p = 0.3
        clips = self.clips(lambda x: np.ones_like(x))
        dropped = trials = 0
        for views in self.batches(clips, AugmentPolicy(1.0, 0.0, p), 50, "rate"):
            dropped += int((views[:, 0, :] == 0.0).sum())
            trials += views.shape[0] * self.BANDS
        assert abs(dropped / trials - p) <= 5 * np.sqrt(p * (1 - p) / trials)

    def test_band_dropout_is_per_view_and_spans_every_frame(self):
        p = 0.3
        clips = self.clips(lambda x: 1.0 + x)  # positive; noise of std 0.05 never reaches 0
        both = pairs = 0
        for views in self.batches(clips, AugmentPolicy(0.7, 0.05, p), 50, "spans"):
            zero = views == 0.0
            band_dropped = zero.all(axis=1)  # (2n, bands)
            assert (zero.any(axis=1) == band_dropped).all(), "a band is zeroed in only some frames"
            both += int((band_dropped[0::2] & band_dropped[1::2]).sum())
            pairs += self.N * self.BANDS
        # independent coins per view: both siblings drop a band at rate p^2, not p
        assert abs(both / pairs - p * p) <= 5 * np.sqrt(p * p * (1 - p * p) / pairs)

    def test_default_policy_views_of_one_clip_differ(self):
        clips = self.clips(lambda x: 1.0 + x)
        for views in self.batches(clips, AugmentPolicy(), 5, "differ"):
            assert all(not np.array_equal(views[2 * i], views[2 * i + 1]) for i in range(self.N))

    def test_identity_policy_bit_exact_at_full_batch(self):
        clips = oracle_clips(self.N, self.FRAMES, self.BANDS)
        batch = two_view_batch(clips, AugmentPolicy(1.0, 0.0, 0.0), rng_for(0, "identity"))
        expected = np.stack([clip.features.reshape(-1) for clip in clips]).repeat(2, axis=0)
        assert_same_bytes(batch.data, expected)


class TestBatchBuildersMatchPerViewOracle:
    """The batch builders draw the loop oracles' streams and write their bytes."""

    @pytest.mark.parametrize("policy", ORACLE_POLICIES.values(), ids=ORACLE_POLICIES.keys())
    @pytest.mark.parametrize("n", [1, 64])
    @pytest.mark.parametrize("shape", ORACLE_SHAPES)
    def test_two_view_batch(self, policy, n, shape):
        clips = oracle_clips(n, *shape)
        ours_rng, ref_rng = rng_for(9, "oracle-views", n), rng_for(9, "oracle-views", n)
        batch = two_view_batch(clips, policy, ours_rng)
        assert_same_bytes(batch.data, reference_two_view_batch(clips, policy, ref_rng))
        assert ours_rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("n", [1, 64])
    @pytest.mark.parametrize("shape", ORACLE_SHAPES)
    def test_acop_make_batch(self, n, shape):
        clips = oracle_clips(n, *shape)
        perms = canonical_permutations(ACOP_SEGMENTS)
        ours_rng, ref_rng = rng_for(8, "oracle-acop", n), rng_for(8, "oracle-acop", n)
        batch = acop_make_batch(clips, ACOP_SEGMENTS, perms, ours_rng)
        ref_segments, ref_labels = reference_acop_make_batch(clips, ACOP_SEGMENTS, perms, ref_rng)
        assert_same_bytes(batch.segments.data, ref_segments)
        assert_same_bytes(batch.labels, ref_labels)
        assert ours_rng.bit_generator.state == ref_rng.bit_generator.state

    def test_acop_two_segments(self):
        clips = oracle_clips(5, 31, 5)
        perms = canonical_permutations(2)
        batch = acop_make_batch(clips, 2, perms, rng_for(1, "oracle-acop-2"))
        ref_segments, ref_labels = reference_acop_make_batch(clips, 2, perms, rng_for(1, "oracle-acop-2"))
        assert_same_bytes(batch.segments.data, ref_segments)
        assert_same_bytes(batch.labels, ref_labels)


def pinned_clips() -> list[Clip]:
    src = rng_for(0, "pinned-clips")
    return [Clip(features=src.uniform(0.0, 1.5, size=(32, 16)), label=0, clip_id=i) for i in range(8)]


class TestPinnedBatchDigests:
    """SHA-256 of batch bytes: the batched view draw and the per-clip acop draw.

    Batch assembly uses no BLAS (draws, gathers, adds, comparisons), so the
    digests hold on every platform numpy's Generator streams are stable on.
    """

    def test_two_view_batch_default_policy(self):
        batch = two_view_batch(pinned_clips(), AugmentPolicy(), rng_for(1, "pinned-views"))
        assert batch.shape == (16, 512)
        assert hashlib.sha256(batch.data.tobytes()).hexdigest() == (
            "e7ba38fde58c417fc1cbb189a0a5cb850b3e9b50869f6e2af7e28a4299894e49"
        )

    def test_acop_make_batch(self):
        batch = acop_make_batch(pinned_clips(), 3, canonical_permutations(3), rng_for(2, "pinned-acop"))
        assert batch.segments.shape == (24, 512)
        assert batch.labels.tolist() == [2, 0, 5, 5, 4, 5, 1, 0]
        assert hashlib.sha256(batch.segments.data.tobytes()).hexdigest() == (
            "94d2b660c57cf5b4d4c24706db0db2593116ae6b7d35940007f56009f6c6d06d"
        )


class TestBatchShapeContract:
    def test_empty_batch_rejected(self):
        with pytest.raises(ContractError, match="at least one clip"):
            two_view_batch([], AugmentPolicy(), rng_for(0, "x"))
        with pytest.raises(ContractError, match="at least one clip"):
            acop_make_batch([], 3, canonical_permutations(3), rng_for(0, "x"))

    def test_mixed_clip_shapes_rejected(self, rng):
        clips = [make_clip(rng, frames=12, bands=4), make_clip(rng, frames=8, bands=6, clip_id=1)]
        with pytest.raises(ContractError, match="one shape"):
            two_view_batch(clips, AugmentPolicy(), rng_for(0, "x"))
        with pytest.raises(ContractError, match="one shape"):
            acop_make_batch(clips, 3, canonical_permutations(3), rng_for(0, "x"))
