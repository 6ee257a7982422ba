"""Pretext tasks: view augmentation, batch assembly, and the three losses.

Feature-matching tasks (contrastive pairs and cross-correlation matching)
consume two augmented views per clip; the predictive task shuffles clip
segments and classifies which permutation was applied. All losses are built
from the autodiff primitives so their gradients come from the tape, and all
use max-subtraction where a log-sum-exp appears.

Batch assembly gathers every view (or presented segment) of a batch from the
clips' feature arrays through a crop/resample index table built once per
batch and wraps the batch in a single ``Tensor``; that construction is
where clip values are checked for finiteness on their way to the model. A
two-view batch of n clips makes three batched draws, in this order and each
only when the policy uses it: all 2n crop starts, then the noise of every
view, then the band-dropout coins of every view. The predictive task makes
one permutation draw per clip.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import model
from .autodiff import Tensor
from .data import Clip, resample_frames
from .errors import ContractError

ACOP_SEGMENTS = 3
# Fewest frames a view's source clip and an acop segment may have.
MIN_FRAMES = 2

# Additive mask that zeroes self-similarity terms after exp(); finite so it
# survives tensor validation, small enough that exp underflows to exactly 0.
_NEG_MASK = -1e30

# Row-norm guard for the contrastive loss. ReLU-terminated encoders can emit
# exactly-zero rows; the guard bounds the normalization gradient at 1/eps.
_NORM_EPS = 1e-6


@dataclass(frozen=True)
class AugmentPolicy:
    """Stochastic view policy: time-crop fraction, additive noise, band dropout."""

    crop_fraction: float = 0.7
    noise_std: float = 0.05
    band_mask_prob: float = 0.1

    def __post_init__(self):
        if not 0.0 < self.crop_fraction <= 1.0:
            raise ContractError(f"crop_fraction must be in (0, 1], got {self.crop_fraction}")
        if not 0.0 <= self.noise_std < math.inf:  # also false for NaN
            raise ContractError(f"noise_std must be finite and >= 0, got {self.noise_std}")
        if not 0.0 <= self.band_mask_prob <= 1.0:
            raise ContractError(f"band_mask_prob must be in [0, 1], got {self.band_mask_prob}")


def _clip_shape(clips: list[Clip], what: str) -> tuple[int, int]:
    """The (frames, bands) every clip of a batch shares."""
    if not clips:
        raise ContractError(f"{what} needs at least one clip")
    shape = clips[0].features.shape
    for clip in clips:
        if clip.features.shape != shape:
            raise ContractError(f"{what} needs clips of one shape, got {shape} and {clip.features.shape}")
    return shape


def _crop_rows(frames: int, policy: AugmentPolicy) -> np.ndarray | None:
    """Source rows of every possible crop, resampled to frames; None when uncropped.

    Row s of the table is what cropping at start s and nearest-frame
    resampling back to frames picks, so a batch of views is one gather.
    """
    if frames < MIN_FRAMES:
        raise ContractError(f"view augmentation needs clips with >= {MIN_FRAMES} frames")
    crop_len = max(1, int(round(policy.crop_fraction * frames)))
    if crop_len >= frames:
        return None
    return np.arange(frames - crop_len + 1)[:, None] + resample_frames(np.arange(crop_len), frames)


def two_view_batch(clips: list[Clip], policy: AugmentPolicy, rng: np.random.Generator) -> Tensor:
    """Interleaved view matrix: rows (2i, 2i+1) are the two views of clip i.

    Each view is crop + nearest-frame resample, noise and band dropout. The
    draws are batched, in order and each only when the policy uses it:
    ``integers`` for the 2n crop starts, ``normal`` for the (2n, frames,
    bands) noise, ``uniform`` for the (2n, bands) band-dropout coins, a
    dropped band zeroed across every frame of its one view. Pure in (clips,
    policy, rng state); the identity policy (1.0, 0, 0) repeats each clip's
    features bit-exactly.
    """
    frames, bands = _clip_shape(clips, "two_view_batch")
    crop_rows = _crop_rows(frames, policy)
    n_views = 2 * len(clips)
    # stacked clip rows; view v reads clip v // 2, whose first row is first[v]
    feats = np.concatenate([clip.features for clip in clips])
    first = np.arange(0, len(feats), frames).repeat(2)[:, None]
    if crop_rows is None:
        rows = np.arange(frames)
    else:
        rows = crop_rows[rng.integers(0, len(crop_rows), size=n_views)]
    views = feats.take(first + rows, axis=0)  # (2n, frames, bands)
    if policy.noise_std > 0:
        views += rng.normal(0.0, policy.noise_std, size=views.shape)
    if policy.band_mask_prob > 0:
        dropped = rng.uniform(size=(n_views, bands)) < policy.band_mask_prob
        views.transpose(0, 2, 1)[dropped] = 0.0
    return Tensor(views.reshape(n_views, frames * bands))


def nt_xent_loss(z: Tensor, tau: float) -> Tensor:
    """Contrastive pair loss over an interleaved 2n x d embedding matrix.

    Rows are row-normalized; each anchor's positive is its pair partner and
    every other row is a negative. Returns the mean over all 2n anchors.
    """
    if tau <= 0:
        raise ContractError(f"tau must be positive, got {tau}")
    two_n = z.shape[0]
    if two_n % 2 != 0 or two_n < 4:
        raise ContractError(f"need an even number >= 4 of rows (pairs), got {two_n}")
    zn = ad.l2_normalize_rows(z, eps=_NORM_EPS)
    sims = ad.div(ad.matmul(zn, ad.transpose(zn)), tau)
    mask = Tensor(np.diag(np.full(two_n, _NEG_MASK)))
    masked = ad.add(sims, mask)
    mx = ad.detached_rowmax(masked)
    lse = ad.add(ad.log(ad.sum_axis(ad.exp(ad.sub(masked, mx)), axis=1)), mx)
    even = ad.gather_rows(zn, np.arange(0, two_n, 2))
    odd = ad.gather_rows(zn, np.arange(1, two_n, 2))
    pos = ad.sum_axis(ad.mul(even, odd), axis=1)
    pos_per_anchor = ad.gather_rows(pos, np.repeat(np.arange(two_n // 2), 2))
    return ad.mean_all(ad.sub(lse, ad.div(pos_per_anchor, tau)))


def barlow_twins_loss(za: Tensor, zb: Tensor, lam: float, eps: float = 1e-9) -> Tensor:
    """Cross-correlation redundancy loss between two view embeddings.

    Columns are standardized to mean 0 / std 1 (population std, guarded by
    eps); the n x d inputs give C = (1/n) za_std^T zb_std and the loss
    sum_i (1 - C_ii)^2 + lam * sum_{i != j} C_ij^2.
    """
    if za.shape != zb.shape or za.data.ndim != 2:
        raise ContractError(f"view embeddings must share an (n, d) shape, got {za.shape} and {zb.shape}")
    n, d = za.shape
    if n < 2:
        raise ContractError(f"need >= 2 samples to standardize columns, got {n}")
    if lam < 0:
        raise ContractError(f"lambda must be >= 0, got {lam}")
    if eps <= 0:
        raise ContractError(f"eps must be positive, got {eps}")

    def standardize(z):
        mu = ad.div(ad.sum_axis(z, axis=0), float(n))
        centered = ad.sub(z, mu)
        var = ad.div(ad.sum_axis(ad.mul(centered, centered), axis=0), float(n))
        return ad.div(centered, ad.sqrt(ad.maximum_const(var, eps * eps)))

    c = ad.div(ad.matmul(ad.transpose(standardize(za)), standardize(zb)), float(n))
    eye = Tensor(np.eye(d))
    off_mask = Tensor(1.0 - np.eye(d))
    diag_err = ad.sub(eye, c)
    on_diag = ad.sum_all(ad.mul(ad.mul(diag_err, diag_err), eye))
    off_diag = ad.sum_all(ad.mul(ad.mul(c, c), off_mask))
    return ad.add(on_diag, ad.mul(off_diag, lam))


def canonical_permutations(m: int) -> tuple[tuple[int, ...], ...]:
    """All permutations of range(m) in lexicographic order; index = class label."""
    return tuple(itertools.permutations(range(m)))


@dataclass
class AcopBatch:
    """Segment rows grouped per clip in presented order, plus permutation labels."""

    segments: Tensor  # (n*m, frames*bands)
    labels: np.ndarray  # (n,) ints in [0, n_perms)
    m: int
    n_perms: int


def acop_make_batch(
    clips: list[Clip],
    m: int,
    perm_table: tuple[tuple[int, ...], ...],
    rng: np.random.Generator,
) -> AcopBatch:
    """Split each clip into m equal segments and present them shuffled.

    The permutation index is sampled uniformly and becomes the class label.
    Segments are nearest-frame resampled back to the clip's frame count so
    the shared backbone sees its usual input width.
    """
    if m < 2:
        raise ContractError(f"need m >= 2 segments, got {m}")
    frames, bands = _clip_shape(clips, "acop_make_batch")
    seg_len = frames // m
    if seg_len < MIN_FRAMES:
        raise ContractError(f"clip {clips[0].clip_id} too short for {m} segments ({frames} frames)")
    n_perms = len(perm_table)
    # perm_rows[p, k] = source frames of the k-th presented segment under permutation p
    seg_rows = np.arange(m)[:, None] * seg_len + resample_frames(np.arange(seg_len), frames)
    perm_rows = seg_rows[np.asarray(perm_table, dtype=np.intp)]
    segments = np.empty((len(clips), m, frames, bands))
    labels = np.empty(len(clips), dtype=np.int64)
    for i, clip in enumerate(clips):
        p = int(rng.integers(0, n_perms))
        labels[i] = p
        clip.features.take(perm_rows[p], axis=0, out=segments[i])
    return AcopBatch(
        segments=Tensor(segments.reshape(len(clips) * m, frames * bands)),
        labels=labels,
        m=m,
        n_perms=n_perms,
    )


def acop_loss(params: model.ParamTree, batch: AcopBatch) -> Tensor:
    """Softmax cross-entropy of the order classifier over shared-backbone features."""
    emb = model.encode(params, batch.segments)
    n = len(batch.labels)
    embed_dim = emb.shape[1]
    concat = ad.reshape(emb, (n, batch.m * embed_dim))
    logits = model.acop_logits(params, concat)
    mx = ad.detached_rowmax(logits)
    lse = ad.add(ad.log(ad.sum_axis(ad.exp(ad.sub(logits, mx)), axis=1)), mx)
    onehot = np.zeros((n, batch.n_perms))
    onehot[np.arange(n), batch.labels] = 1.0
    picked = ad.sum_axis(ad.mul(logits, Tensor(onehot)), axis=1)
    return ad.mean_all(ad.sub(lse, picked))
