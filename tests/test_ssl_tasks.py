"""Pretext task tests: augmentation statistics, loss values, loss gradients."""

import hashlib
import itertools
import re

import numpy as np
import pytest

from fassl import autodiff as ad
from fassl import ssl_tasks
from fassl.autodiff import Graph, Tensor, backward
from fassl.data import synth_dataset
from fassl.errors import ContractError
from fassl.model import ACOP_ORDERS, encode, init_encoder, project, sgd_step
from fassl.seeding import rng_for
from fassl.ssl_tasks import (
    AcopBatch,
    AugmentPolicy,
    acop_loss,
    acop_make_batch,
    barlow_twins_loss,
    nt_xent_loss,
    two_view_batch,
)

from conftest import (
    BAD_BATCH_MESSAGE,
    BAD_BATCHES,
    fd_fixture_ok,
    finite_diff_grad,
    gradclose,
    interleave,
    map_values,
    oracle_crop_rows,
    oracle_eye_constants,
    oracle_order_rows,
    oracle_pair_layout,
    perturbed_params,
    resample_frames,
    tiny_sizes,
)


def make_clip(rng, frames=12, bands=4) -> np.ndarray:
    return rng.uniform(0.0, 1.5, size=(frames, bands))


def make_clips(rng, n, frames=12, bands=4) -> np.ndarray:
    """n clips drawn one after another, stacked into an (n, frames, bands) batch."""
    return np.stack([make_clip(rng, frames, bands) for _ in range(n)])


class TestAugment:
    def test_identity_policy_returns_original(self, rng):
        clip = make_clip(rng)
        views = two_view_batch(clip[None], AugmentPolicy(1.0, 0.0, 0.0), rng_for(0, "aug"))
        np.testing.assert_array_equal(views.data, np.tile(clip.reshape(-1), (2, 1)))

    def test_same_rng_state_same_view(self, rng):
        clip = make_clip(rng)
        policy = AugmentPolicy(0.6, 0.1, 0.2)
        a = two_view_batch(clip[None], policy, rng_for(3, "aug"))
        b = two_view_batch(clip[None], policy, rng_for(3, "aug"))
        np.testing.assert_array_equal(a.data, b.data)

    def test_noise_magnitude_monte_carlo(self, rng):
        """|view - clean| has half-normal mean std*sqrt(2/pi) ~ 0.0798 at std 0.1."""
        clip = make_clip(rng)
        clean = clip.reshape(-1)
        policy = AugmentPolicy(1.0, 0.1, 0.0)
        stream = rng_for(4, "aug-mc")
        devs = [np.mean(np.abs(two_view_batch(clip[None], policy, stream).data - clean)) for _ in range(500)]
        assert 0.05 < np.mean(devs) < 0.15

    def test_band_mask_zeroes_columns(self, rng):
        clip = make_clip(rng)
        views = two_view_batch(clip[None], AugmentPolicy(1.0, 0.0, 1.0), rng_for(5, "aug"))
        np.testing.assert_array_equal(views.data, np.zeros((2, clip.size)))

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


@pytest.mark.parametrize("shape", [(8,), (4, 2, 3)])
@pytest.mark.parametrize("loss", [
    lambda z: nt_xent_loss(z, tau=0.5), lambda z: barlow_twins_loss(z, lam=0.005, eps=1e-9),
], ids=["nt_xent", "barlow_twins"])
def test_pair_losses_refuse_a_z_that_is_not_a_matrix(loss, shape):
    message = rf"^view embeddings must be a \(2n, d\) matrix with n >= 2, got shape {re.escape(str(shape))}$"
    with pytest.raises(ContractError, match=message):
        loss(Tensor(np.ones(shape)))


def reference_barlow_twins_loss(z: Tensor, lam: float, eps: float) -> Tensor:
    """Two-matrix oracle: the even and odd rows gathered first, then the loss on those two n x d matrices."""
    two_n, d = z.shape
    za, zb = ad.gather_rows(z, np.arange(0, two_n, 2)), ad.gather_rows(z, np.arange(1, two_n, 2))
    n = two_n // 2

    def standardize(v):
        mu = ad.div(ad.sum_axis(v, axis=0), float(n))
        centered = ad.sub(v, mu)
        var = ad.div(ad.sum_axis(ad.mul(centered, centered), axis=0), float(n))
        return ad.div(centered, ad.sqrt(ad.maximum_const(var, eps * eps)))

    c = ad.div(ad.matmul(ad.transpose(standardize(za)), standardize(zb)), float(n))
    eye, off_mask = Tensor(np.eye(d)), Tensor(1.0 - np.eye(d))
    diag_err = ad.sub(eye, c)
    on_diag = ad.sum_all(ad.mul(ad.mul(diag_err, diag_err), eye))
    off_diag = ad.sum_all(ad.mul(ad.mul(c, c), off_mask))
    return ad.add(on_diag, ad.mul(off_diag, lam))


class TestBarlowTwinsLoss:
    def test_identity_cross_correlation_gives_zero(self, rng):
        # orthonormal columns standardized to mean 0 / population std 1 -> C = I
        raw = rng.normal(size=(16, 4))
        q, _ = np.linalg.qr(raw - raw.mean(axis=0))
        z = (q - q.mean(axis=0)) / q.std(axis=0)
        loss = barlow_twins_loss(Tensor(interleave(z, z)), lam=0.005, eps=1e-9)
        assert loss.item() < 1e-20

    def test_lambda_zero_uses_only_diagonal(self, rng):
        za = rng.normal(size=(8, 4))
        zb = rng.normal(size=(8, 4))
        loss_value = barlow_twins_loss(Tensor(interleave(za, zb)), lam=0.0, eps=1e-9).item()
        # direct-formula oracle, diagonal part only
        a = (za - za.mean(0)) / np.maximum(za.std(0), 1e-9)
        b = (zb - zb.mean(0)) / np.maximum(zb.std(0), 1e-9)
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
        loss = barlow_twins_loss(Tensor(interleave(za, zb)), lam=lam, eps=1e-9)
        np.testing.assert_allclose(loss.item(), expected, atol=1e-10)

    def test_always_nonnegative(self, rng):
        for _ in range(50):
            za = rng.normal(size=(6, 3))
            zb = rng.normal(size=(6, 3))
            assert barlow_twins_loss(Tensor(interleave(za, zb)), lam=0.01, eps=1e-9).item() >= 0.0

    def test_pair_permutation_equivariance(self, rng):
        za, zb = rng.normal(size=(8, 4)), rng.normal(size=(8, 4))
        base = barlow_twins_loss(Tensor(interleave(za, zb)), lam=0.005, eps=1e-9).item()
        perm = rng.permutation(8)
        shuffled = barlow_twins_loss(Tensor(interleave(za[perm], zb[perm])), lam=0.005, eps=1e-9).item()
        np.testing.assert_allclose(base, shuffled, rtol=1e-10)

    @pytest.mark.parametrize("shape", [(6,), (2, 3), (5, 3)])
    def test_too_few_pairs_rejected(self, shape):
        with pytest.raises(ContractError):
            barlow_twins_loss(Tensor(np.ones(shape)), lam=0.005, eps=1e-9)

    @pytest.mark.parametrize("n, d, lam", [(2, 3, 0.005), (4, 5, 0.0), (7, 4, 0.5), (64, 16, 0.005)])
    def test_same_bytes_as_the_two_matrix_form(self, n, d, lam):
        """On the interleaved matrix, the loss and its gradient are those of the loss on its gathered halves."""
        z = np.random.default_rng(n * d).normal(size=(2 * n, d))
        ours = loss_and_grad_bytes(lambda z: barlow_twins_loss(z, lam, 1e-9), z)
        assert ours == loss_and_grad_bytes(lambda z: reference_barlow_twins_loss(z, lam, 1e-9), z)


class TestAcopBatch:
    def test_identity_permutation_keeps_order(self, rng):
        assert ACOP_ORDERS[0] == (0, 1, 2)
        clip = make_clip(rng, frames=12, bands=2)
        # find a stream whose first draw picks the identity permutation
        seed = next(
            s for s in range(100) if rng_for(s, "acop-identity").integers(0, len(ACOP_ORDERS)) == 0
        )
        batch = acop_make_batch(clip[None], rng_for(seed, "acop-identity"))
        assert batch.labels.tolist() == [0]
        for i in range(3):
            seg = clip[i * 4:(i + 1) * 4]
            np.testing.assert_array_equal(
                batch.segments.data[i], resample_frames(seg, 12).reshape(-1)
            )

    def test_label_distribution_approximately_uniform(self, rng):
        """Frequency-count oracle over 10000 draws, generous chi-square bound."""
        clips = make_clips(rng, 10)
        stream = rng_for(1, "acop-freq")
        counts = np.zeros(6)
        for _ in range(1000):
            batch = acop_make_batch(clips, stream)
            for lab in batch.labels:
                counts[lab] += 1
        total = counts.sum()
        assert total == 10000
        expected = total / 6
        chi2 = ((counts - expected) ** 2 / expected).sum()
        assert chi2 < 30.0  # df=5; p ~ 1e-5 cutoff, generous

    def test_same_rng_state_same_batch(self, rng):
        clips = make_clips(rng, 4)
        a = acop_make_batch(clips, rng_for(2, "acop"))
        b = acop_make_batch(clips, rng_for(2, "acop"))
        np.testing.assert_array_equal(a.segments.data, b.segments.data)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_short_clip_rejected(self, rng):
        clip = make_clip(rng, frames=5)  # 5 // 3 = 1 frame per segment
        with pytest.raises(ContractError, match="too short"):
            acop_make_batch(clip[None], rng_for(0, "x"))

    def test_segments_shape(self, rng):
        clips = make_clips(rng, 4)
        batch = acop_make_batch(clips, rng_for(0, "x"))
        assert batch.segments.shape == (12, 12 * 4)
        assert batch.labels.shape == (4,)


class TestAcopLoss:
    def test_uniform_logits_give_log_p(self, rng):
        sizes = tiny_sizes()
        params = map_values(
            init_encoder(*sizes, seed=1),
            lambda n, t: Tensor(np.zeros_like(t.data))
            if n.startswith("head.acop")
            else t
        )
        clips = make_clips(rng, 3, frames=10, bands=1)
        batch = acop_make_batch(clips, rng_for(0, "x"))
        loss = acop_loss(params, batch)
        np.testing.assert_allclose(loss.item(), np.log(6.0), rtol=1e-12)

    def test_gradient_matches_finite_differences(self, rng):
        sizes = tiny_sizes()
        params = perturbed_params(sizes, seed=5)
        clips = make_clips(rng, 4, frames=10, bands=1)
        batch = acop_make_batch(clips, rng_for(1, "x"))

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
        sizes = tiny_sizes()
        params = init_encoder(*sizes, seed=7)
        clips = make_clips(data_rng, 32, frames=10, bands=1)
        stream = rng_for(9, "acop-train")
        first = None
        last = None
        for step in range(50):
            batch = acop_make_batch(clips, stream)
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
        sizes = tiny_sizes()
        params = perturbed_params(sizes, seed=seed)
        xb = Tensor(rng.uniform(0.05, 1.5, size=(8, sizes[0])))
        assert fd_fixture_ok(params, xb.data), "fixture seeds are pre-screened; regenerate if this trips"

        def f_nt(p):
            return nt_xent_loss(project(p, encode(p, xb)), tau=0.5).item()

        with Graph(params.as_dict()) as g:
            loss = nt_xent_loss(project(params, encode(params, xb)), tau=0.5)
        assert gradclose(backward(g, loss), finite_diff_grad(f_nt, params, 1e-5))

        def f_bt(p):
            return barlow_twins_loss(project(p, encode(p, xb)), lam=0.005, eps=1e-9).item()

        with Graph(params.as_dict()) as g:
            loss = barlow_twins_loss(project(params, encode(params, xb)), lam=0.005, eps=1e-9)
        assert gradclose(backward(g, loss), finite_diff_grad(f_bt, params, 1e-5))


class TestSeparableFixtureTraining:
    def test_nt_xent_decreases_under_gradient_steps(self):
        """The pair loss has no floor claim; instead it must train down."""
        ds = synth_dataset(4, 8, 16, 8, seed=13)
        params = init_encoder(128, 12, 8, 8, seed=13)
        policy = AugmentPolicy(0.8, 0.05, 0.1)
        probe = two_view_batch(ds.clip_array(), policy, rng_for(14, "nt-probe"))

        def probe_loss(p):
            return nt_xent_loss(project(p, encode(p, probe)), tau=0.5).item()

        before = probe_loss(params)
        stream = rng_for(13, "nt-train")
        for _ in range(60):
            batch = two_view_batch(ds.clip_array(), policy, stream)
            with Graph(params.as_dict()) as g:
                loss = nt_xent_loss(project(params, encode(params, batch)), tau=0.5)
            params = sgd_step(params, backward(g, loss), lr=0.01)
        assert probe_loss(params) < before


class TestAcopLossBatchOrder:
    def test_loss_invariant_to_consistent_clip_reshuffle(self, rng):
        clips = make_clips(rng, 5, frames=9, bands=2)
        batch = acop_make_batch(clips, rng_for(3, "x"))
        sizes = tiny_sizes(input_dim=18)
        params = perturbed_params(sizes, seed=3)
        base = acop_loss(params, batch).item()
        order = rng.permutation(5)
        seg_rows = np.concatenate([np.arange(3 * c, 3 * c + 3) for c in order])
        shuffled = AcopBatch(
            segments=Tensor(batch.segments.data[seg_rows]),
            labels=batch.labels[order],
        )
        np.testing.assert_allclose(acop_loss(params, shuffled).item(), base, rtol=1e-12)


class TestTwoViewBatch:
    def test_interleaved_rows(self, rng):
        ds = synth_dataset(2, 3, 12, 4, seed=0)
        batch = two_view_batch(ds.clip_array()[:3], AugmentPolicy(1.0, 0.0, 0.0), rng_for(0, "v"))
        assert batch.shape == (6, 48)
        for i, clip in enumerate(ds.clip_array()[:3]):
            flat = clip.reshape(-1)
            np.testing.assert_array_equal(batch.data[2 * i], flat)
            np.testing.assert_array_equal(batch.data[2 * i + 1], flat)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
class TestNonFiniteClipRejectedByBatch:
    """A batch's values are not checked before its Tensor, which rejects them."""

    def clips(self, rng, bad):
        clips = make_clips(rng, 3)
        clips[1, 0, 0] = bad  # frame 0 is in every uncropped view and in acop's first segment
        return clips

    def test_two_view_batch(self, rng, bad):
        with pytest.raises(ContractError, match="finite"):
            two_view_batch(self.clips(rng, bad), AugmentPolicy(1.0, 0.05, 0.0), rng_for(0, "v"))

    def test_acop_make_batch(self, rng, bad):
        with pytest.raises(ContractError, match="finite"):
            acop_make_batch(self.clips(rng, bad), rng_for(0, "x"))


def reference_two_view_batch(clips, policy, rng) -> np.ndarray:
    """Loop oracle: the batched draws in documented order, then one view at a time.

    Draws all 2n crop starts, then the (2n, frames, bands) noise, then the
    (2n, bands) band-dropout coins, each only when the policy uses it; view
    v is clip v // 2 cropped, resampled, noised and band-masked.
    """
    frames, bands = clips.shape[1:]
    n_views = 2 * len(clips)
    crop_len = max(1, int(round(policy.crop_fraction * frames)))
    starts = rng.integers(0, frames - crop_len + 1, size=n_views) if crop_len < frames else None
    noise = rng.normal(0.0, policy.noise_std, size=(n_views, frames, bands)) if policy.noise_std > 0 else None
    coins = rng.uniform(size=(n_views, bands)) if policy.band_mask_prob > 0 else None
    rows = []
    for v in range(n_views):
        feats = clips[v // 2]
        crop = feats if starts is None else feats[starts[v]:starts[v] + crop_len]
        view = resample_frames(crop, frames).copy()
        if noise is not None:
            view = view + noise[v]
        if coins is not None:
            view[:, coins[v] < policy.band_mask_prob] = 0.0
        rows.append(view.reshape(-1))
    return np.stack(rows)


def reference_acop_make_batch(clips, rng) -> tuple[np.ndarray, np.ndarray]:
    """Per-segment oracle over 3 segments: one lexicographic-order draw per clip, one resample per segment."""
    m = 3
    perm_table = list(itertools.permutations(range(m)))
    rows, labels = [], []
    for feats in clips:
        frames = feats.shape[0]
        seg_len = frames // m
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


def oracle_clips(n, frames, bands, seed=0) -> np.ndarray:
    src = rng_for(seed, "oracle-clips", frames, bands)
    return np.stack([src.normal(0.0, 1.0, size=(frames, bands)) for _ in range(n)])


def assert_same_bytes(ours: np.ndarray, ref: np.ndarray) -> None:
    assert ours.dtype == ref.dtype and ours.shape == ref.shape
    assert ours.tobytes() == ref.tobytes()


class TestBatchedViewDraw:
    """Distribution of the batched draw over many seeded batches."""

    FRAMES, BANDS, N = 32, 16, 64

    def clips(self, fill) -> np.ndarray:
        """N identical clips whose features are fill(element index)."""
        features = fill(np.arange(self.FRAMES * self.BANDS, dtype=float).reshape(self.FRAMES, self.BANDS))
        return np.tile(features, (self.N, 1, 1))

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
        expected = clips.reshape(self.N, -1).repeat(2, axis=0)
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
        ours_rng, ref_rng = rng_for(8, "oracle-acop", n), rng_for(8, "oracle-acop", n)
        batch = acop_make_batch(clips, ours_rng)
        ref_segments, ref_labels = reference_acop_make_batch(clips, ref_rng)
        assert_same_bytes(batch.segments.data, ref_segments)
        assert_same_bytes(batch.labels, ref_labels)
        assert ours_rng.bit_generator.state == ref_rng.bit_generator.state


def pinned_clips() -> np.ndarray:
    src = rng_for(0, "pinned-clips")
    return np.stack([src.uniform(0.0, 1.5, size=(32, 16)) for _ in range(8)])


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
        batch = acop_make_batch(pinned_clips(), rng_for(2, "pinned-acop"))
        assert batch.segments.shape == (24, 512)
        assert batch.labels.tolist() == [2, 0, 5, 5, 4, 5, 1, 0]
        assert hashlib.sha256(batch.segments.data.tobytes()).hexdigest() == (
            "94d2b660c57cf5b4d4c24706db0db2593116ae6b7d35940007f56009f6c6d06d"
        )


@pytest.mark.parametrize("batch", BAD_BATCHES.values(), ids=BAD_BATCHES.keys())
class TestBatchInputContract:
    def test_two_view_batch_rejects(self, batch):
        with pytest.raises(ContractError, match="^two_view_batch " + BAD_BATCH_MESSAGE):
            two_view_batch(batch, AugmentPolicy(), rng_for(0, "x"))

    def test_acop_make_batch_rejects(self, batch):
        with pytest.raises(ContractError, match="^acop_make_batch " + BAD_BATCH_MESSAGE):
            acop_make_batch(batch, rng_for(0, "x"))


def loss_and_grad_bytes(loss_fn, *arrays) -> bytes:
    """The loss and the gradient of every input, as bytes, with each input a leaf."""
    leaves = {str(i): Tensor(a) for i, a in enumerate(arrays)}
    with Graph(leaves) as g:
        loss = loss_fn(*leaves.values())
    grads = backward(g, loss)
    return loss.data.tobytes() + b"".join(grads[name].data.tobytes() for name in leaves)


class TestShapeConstantCaches:
    """What a step reads per batch shape is built once, kept read-only and keyed by the whole shape."""

    POLICIES = (AugmentPolicy(), AugmentPolicy(0.5, 0.05, 0.2))
    # 2n = 4, 6, 4 for the pair losses; frame counts and policies alternate under them
    SEQUENCE = [(2, 16, POLICIES[0]), (3, 31, POLICIES[1]), (2, 31, POLICIES[0]), (3, 16, POLICIES[1]), (2, 16, POLICIES[1])]

    def cached_arrays(self) -> list[np.ndarray]:
        even, odd, partner, mask = ssl_tasks._pair_layout(8)
        eye, off_mask = ssl_tasks._eye_constants(5)
        return [even, odd, partner, mask.data, eye.data, off_mask.data, ssl_tasks._crop_rows(16, 0.7), ssl_tasks._order_rows(16)]

    def test_every_cached_array_is_read_only(self):
        for a in self.cached_arrays():
            with pytest.raises(ValueError, match="read-only"):
                a[(0,) * a.ndim] = 1

    def test_shape_sequence_gives_the_uncached_oracle_bytes(self, monkeypatch):
        for n, frames, policy in self.SEQUENCE:
            clips = oracle_clips(n, frames, 4, seed=n)
            even, odd, partner, mask = ssl_tasks._pair_layout(2 * n)
            for ours, ref in zip((even, odd, partner, mask.data), oracle_pair_layout(2 * n)):
                assert_same_bytes(ours, ref)
            for ours, ref in zip(ssl_tasks._eye_constants(n + 3), oracle_eye_constants(n + 3)):
                assert_same_bytes(ours.data, ref)
            assert_same_bytes(ssl_tasks._crop_rows(frames, policy.crop_fraction), oracle_crop_rows(frames, policy.crop_fraction))
            assert_same_bytes(ssl_tasks._order_rows(frames), oracle_order_rows(frames))

            views = two_view_batch(clips, policy, rng_for(1, "cache-views", n, frames))
            assert_same_bytes(views.data, reference_two_view_batch(clips, policy, rng_for(1, "cache-views", n, frames)))
            segments = acop_make_batch(clips, rng_for(1, "cache-acop", n, frames)).segments
            assert_same_bytes(segments.data, reference_acop_make_batch(clips, rng_for(1, "cache-acop", n, frames))[0])

            z = views.data[:, : n + 3]
            pair_losses = [lambda z: nt_xent_loss(z, 0.5), lambda z: barlow_twins_loss(z, 5e-3, 1e-9)]
            cached = [loss_and_grad_bytes(fn, z) for fn in pair_losses]
            with monkeypatch.context() as m:
                m.setattr(ssl_tasks, "_pair_layout", lambda two_n: ssl_tasks._PairLayout(*oracle_pair_layout(two_n)[:3], Tensor(oracle_pair_layout(two_n)[3])))
                m.setattr(ssl_tasks, "_eye_constants", lambda d: tuple(Tensor(a) for a in oracle_eye_constants(d)))
                assert cached == [loss_and_grad_bytes(fn, z) for fn in pair_losses]

    def test_caches_stay_small_at_a_64_clip_batch(self):
        """Every contrastive shape of a batch of up to 64 clips stays cached, in under 4 MB with the rest."""
        ssl_tasks._pair_layout.cache_clear()
        layouts = {two_n: ssl_tasks._pair_layout(two_n) for two_n in range(4, 129, 2)}
        assert all(ssl_tasks._pair_layout(two_n) is kept for two_n, kept in layouts.items())
        assert max(kept.self_mask.data.nbytes for kept in layouts.values()) <= 128 * 1024
        arrays = [a.data if isinstance(a, Tensor) else a for kept in layouts.values() for a in kept]
        arrays += [t.data for t in ssl_tasks._eye_constants(16)]
        arrays += [ssl_tasks._crop_rows(32, AugmentPolicy().crop_fraction), ssl_tasks._order_rows(32)]
        assert sum(a.nbytes for a in arrays) < 4 * 2**20

