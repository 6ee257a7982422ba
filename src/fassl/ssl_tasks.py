"""Pretext tasks: view augmentation, batch assembly, and the three losses.

Feature-matching tasks (contrastive pairs and cross-correlation matching)
consume two augmented views per clip; the predictive task shuffles clip
segments and classifies which permutation was applied. All losses are built
from the autodiff primitives so their gradients come from the tape, and all
use max-subtraction where a log-sum-exp appears.

A batch of n clips is one (n, frames, bands) float64 array, the rows its
client took from the pretext matrix. Batch assembly gathers every view (or
presented segment) from it through a crop/resample index table built once
per batch and wraps the batch in a single ``Tensor``; that construction is
where clip values are checked for finiteness on their way to the model. A
two-view batch of n clips makes three batched draws, in this order and each
only when the policy uses it: all 2n crop starts, then the noise of every
view, then the band-dropout coins of every view. The predictive task makes
one permutation draw per clip.

What a batch reads that depends only on its shape (the crop table, the
acop order rows, the pair layout both pair losses read, barlow_twins' masks)
is built once per shape and kept read-only, so a step shares it without
copying and nothing can write to it. Each cache holds at most ``_SHAPES_KEPT`` shapes: at a batch
of up to 64 clips every contrastive shape fits (2n = 4, 6, ..., 128), about
2.9 MB in all, and at larger batches the bound keeps it from growing with
every tail batch.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from . import model
from .autodiff import Tensor
from .errors import NON_NEGATIVE, ContractError, check, check_fields

# Fewest frames a view's source clip and an acop segment may have.
MIN_FRAMES = 2


class TaskNeeds(NamedTuple):
    min_clips: int  # fewest clips a batch trains on: the pair losses need two
    min_frames: int  # fewest frames a clip may have: acop cuts it into segments of MIN_FRAMES each
    head: str  # the head the task's loss reads, so the one its steps train


# What each pretext task needs of a batch and a clip, and the head it trains;
# RunConfig's rules and local_train's drop threshold read it.
TASKS = {
    "acop": TaskNeeds(1, MIN_FRAMES * model.ACOP_SEGMENTS, "head.acop"),
    "simclr": TaskNeeds(2, MIN_FRAMES, "head.proj"),
    "barlow_twins": TaskNeeds(2, MIN_FRAMES, "head.proj"),
}

# Additive mask that zeroes self-similarity terms after exp(); finite so it
# survives tensor validation, small enough that exp underflows to exactly 0.
_NEG_MASK = -1e30

# Row-norm guard for the contrastive loss. ReLU-terminated encoders can emit
# exactly-zero rows; the guard bounds the normalization gradient at 1/eps.
_NORM_EPS = 1e-6

# Column-std guard for barlow_twins' standardization: a constant column divides by it, not by zero.
_STD_EPS = 1e-9

_SHAPES_KEPT = 64

# nt_xent's logits are cosines / tau, and at 1e-40 and below round 2 or 3 overflowed to inf. The floor guards against
# that only: on the default config a run at 1e-3 or below has equal accuracies at rounds 1 and 10
TEMPERATURE = (float, lambda v: v >= 1e-6, "{name} must be at least 1e-06, got {value}")


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class AugmentPolicy:
    """Stochastic view policy: time-crop fraction, additive noise, band dropout."""

    crop_fraction: float = 0.7
    noise_std: float = 0.05
    band_mask_prob: float = 0.1

    RULES = {
        "crop_fraction": (float, lambda v: 0.0 < v <= 1.0, "{name} must be in (0, 1], got {value}"),
        "noise_std": NON_NEGATIVE,
        "band_mask_prob": (float, lambda v: 0.0 <= v <= 1.0, "{name} must be in [0, 1], got {value}"),
    }

    def __post_init__(self):
        check_fields(self)


def clips_shape(clips: np.ndarray, what: str) -> tuple[int, int, int]:
    """The (n, frames, bands) of a batch of clips, which must be a non-empty 3-d float64 ndarray."""
    if not (isinstance(clips, np.ndarray) and clips.ndim == 3 and clips.dtype == np.float64 and len(clips)):
        got = f"{clips.shape} {clips.dtype} array" if isinstance(clips, np.ndarray) else type(clips).__name__
        raise ContractError(f"{what} needs a non-empty (n, frames, bands) float64 array, got a {got}")
    return clips.shape


@functools.lru_cache(maxsize=_SHAPES_KEPT)
def _crop_rows(frames: int, crop_fraction: float) -> np.ndarray | None:
    """Source rows of every possible crop, resampled to frames; None when uncropped.

    Row s of the table is what cropping at start s and nearest-frame
    resampling back to frames picks, so a batch of views is one gather:
    output frame f of a crop of c frames reads crop frame (f * c) // frames.
    """
    if frames < MIN_FRAMES:
        raise ContractError(f"view augmentation needs clips with >= {MIN_FRAMES} frames")
    crop_len = max(1, int(round(crop_fraction * frames)))
    if crop_len >= frames:
        return None
    return _read_only(np.arange(frames - crop_len + 1)[:, None] + (np.arange(frames) * crop_len) // frames)


def two_view_batch(clips: np.ndarray, policy: AugmentPolicy, rng: np.random.Generator) -> Tensor:
    """Interleaved view matrix: rows (2i, 2i+1) are the two views of clip i.

    Each view is crop + nearest-frame resample, noise and band dropout. The
    draws are batched, in order and each only when the policy uses it:
    ``integers`` for the 2n crop starts, ``standard_normal`` scaled in place
    by noise_std for the (2n, frames, bands) noise (the bytes of ``normal``),
    ``uniform`` for the (2n, bands) band-dropout coins, a dropped band zeroed
    across every frame of its one view. Pure in (clips, policy, rng state);
    the identity policy (1.0, 0, 0) repeats each clip's features bit-exactly.
    """
    n, frames, bands = clips_shape(clips, "two_view_batch")
    crop_rows = _crop_rows(frames, policy.crop_fraction)
    n_views = 2 * n
    # the clips' frames stacked; view v reads clip v // 2, whose first frame is first[v]
    first = np.arange(0, n * frames, frames).repeat(2)[:, None]
    if crop_rows is None:
        rows = np.arange(frames)
    else:
        rows = crop_rows[rng.integers(0, len(crop_rows), size=n_views)]
    views = clips.reshape(n * frames, bands).take(first + rows, axis=0)  # (2n, frames, bands)
    if policy.noise_std > 0:
        noise = rng.standard_normal(views.shape)
        noise *= policy.noise_std
        views += noise
    if policy.band_mask_prob > 0:
        dropped = rng.uniform(size=(n_views, bands)) < policy.band_mask_prob
        views.transpose(0, 2, 1)[dropped] = 0.0
    return Tensor(views.reshape(n_views, frames * bands))


def _row_logsumexp(x: Tensor) -> Tensor:
    """Per-row log-sum-exp of a 2-d tensor, the row max subtracted before exp()."""
    mx = ad.detached_rowmax(x)
    return ad.add(ad.log(ad.sum_axis(ad.exp(ad.sub(x, mx)), axis=1)), mx)


class _PairLayout(NamedTuple):
    even: np.ndarray  # every clip's first view
    odd: np.ndarray  # every clip's second view
    partner: np.ndarray  # row r's pair, i.e. its clip: r // 2
    self_mask: Tensor  # nt_xent's self-similarity mask


def _pairs(z: Tensor) -> _PairLayout:
    """The pair layout of a (2n, d) view matrix z, which must have n >= 2."""
    if z.data.ndim != 2 or z.shape[0] % 2 != 0 or z.shape[0] < 4:
        raise ContractError(f"view embeddings must be a (2n, d) matrix with n >= 2, got shape {z.shape}")
    return _pair_layout(z.shape[0])


@functools.lru_cache(maxsize=_SHAPES_KEPT)
def _pair_layout(two_n: int) -> _PairLayout:
    """The pair layout of a 2n-row view matrix, rows (2i, 2i+1) being clip i's two views."""
    return _PairLayout(
        _read_only(np.arange(0, two_n, 2)), _read_only(np.arange(1, two_n, 2)),
        _read_only(np.arange(two_n) // 2), Tensor(_read_only(np.diag(np.full(two_n, _NEG_MASK)))),
    )


def nt_xent_loss(z: Tensor, tau: float) -> Tensor:
    """Contrastive pair loss over an interleaved 2n x d embedding matrix.

    Rows are row-normalized; each anchor's positive is its pair partner and
    every other row is a negative. Returns the mean over all 2n anchors.
    """
    check("tau", tau, TEMPERATURE)
    pairs = _pairs(z)
    zn = ad.l2_normalize_rows(z, eps=_NORM_EPS)
    sims = ad.div(ad.matmul(zn, ad.transpose(zn)), tau)
    lse = _row_logsumexp(ad.add(sims, pairs.self_mask))
    even = ad.gather_rows(zn, pairs.even)
    odd = ad.gather_rows(zn, pairs.odd)
    pos = ad.sum_axis(ad.mul(even, odd), axis=1)
    pos_per_anchor = ad.gather_rows(pos, pairs.partner)
    return ad.mean_all(ad.sub(lse, ad.div(pos_per_anchor, tau)))


@functools.lru_cache(maxsize=_SHAPES_KEPT)
def _eye_constants(d: int) -> tuple[Tensor, Tensor]:
    """barlow_twins' (d, d) identity and off-diagonal mask."""
    return Tensor(_read_only(np.eye(d))), Tensor(_read_only(1.0 - np.eye(d)))


def barlow_twins_loss(z: Tensor, lam: float) -> Tensor:
    """Cross-correlation redundancy loss between the two views of an interleaved 2n x d embedding matrix.

    The even rows give za and the odd rows zb, each n x d. Their columns are
    standardized to mean 0 / std 1 (population std, floored at ``_STD_EPS``), giving
    C = (1/n) za_std^T zb_std and the loss sum_i (1 - C_ii)^2 + lam * sum_{i != j} C_ij^2.
    """
    check("lam", lam, NON_NEGATIVE)
    pairs = _pairs(z)
    n, d = len(pairs.even), z.shape[1]

    def standardize(view):
        mu = ad.div(ad.sum_axis(view, axis=0), float(n))
        centered = ad.sub(view, mu)
        var = ad.div(ad.sum_axis(ad.mul(centered, centered), axis=0), float(n))
        return ad.div(centered, ad.sqrt(ad.maximum_const(var, _STD_EPS * _STD_EPS)))

    za, zb = ad.gather_rows(z, pairs.even), ad.gather_rows(z, pairs.odd)
    c = ad.div(ad.matmul(ad.transpose(standardize(za)), standardize(zb)), float(n))
    eye, off_mask = _eye_constants(d)
    diag_err = ad.sub(eye, c)
    on_diag = ad.sum_all(ad.mul(ad.mul(diag_err, diag_err), eye))
    off_diag = ad.sum_all(ad.mul(ad.mul(c, c), off_mask))
    return ad.add(on_diag, ad.mul(off_diag, lam))


@dataclass
class AcopBatch:
    """Segment rows grouped per clip in presented order, plus order labels."""

    segments: Tensor  # (n * model.ACOP_SEGMENTS, frames*bands)
    labels: np.ndarray  # (n,) indices into model.ACOP_ORDERS


@functools.lru_cache(maxsize=_SHAPES_KEPT)
def _order_rows(frames: int) -> np.ndarray:
    """order_rows[p, k] = source frames of the k-th presented segment under order p.

    Output frame f of a segment of s frames reads segment frame (f * s) // frames.
    """
    m = model.ACOP_SEGMENTS
    seg_len = frames // m
    if seg_len < MIN_FRAMES:
        raise ContractError(f"clips of {frames} frames are too short for {m} segments")
    seg_rows = np.arange(m)[:, None] * seg_len + (np.arange(frames) * seg_len) // frames
    return _read_only(seg_rows[np.asarray(model.ACOP_ORDERS, dtype=np.intp)])


def acop_make_batch(clips: np.ndarray, rng: np.random.Generator) -> AcopBatch:
    """Split each clip into ``model.ACOP_SEGMENTS`` equal segments and present them shuffled.

    The order's index in ``model.ACOP_ORDERS`` is sampled uniformly and
    becomes the class label. Segments are nearest-frame resampled back to
    the clip's frame count so the shared backbone sees its usual input width.
    """
    n, frames, bands = clips_shape(clips, "acop_make_batch")
    order_rows = _order_rows(frames)
    labels = np.array([rng.integers(0, len(order_rows)) for _ in range(n)], dtype=np.int64)
    first = np.arange(0, n * frames, frames)[:, None, None]
    segments = clips.reshape(n * frames, bands).take(first + order_rows[labels], axis=0)  # (n, m, frames, bands)
    return AcopBatch(segments=Tensor(segments.reshape(n * model.ACOP_SEGMENTS, frames * bands)), labels=labels)


def acop_loss(params: model.ParamTree, batch: AcopBatch) -> Tensor:
    """Softmax cross-entropy of the order classifier over shared-backbone features."""
    emb = model.encode(params, batch.segments)
    n = len(batch.labels)
    embed_dim = emb.shape[1]
    concat = ad.reshape(emb, (n, model.ACOP_SEGMENTS * embed_dim))
    logits = model.acop_logits(params, concat)
    lse = _row_logsumexp(logits)
    onehot = np.zeros((n, len(model.ACOP_ORDERS)))
    onehot[np.arange(n), batch.labels] = 1.0
    picked = ad.sum_axis(ad.mul(logits, Tensor(onehot)), axis=1)
    return ad.mean_all(ad.sub(lse, picked))
