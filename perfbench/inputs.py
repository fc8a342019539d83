"""Seeded workload inputs, generated before any timing starts.

Everything a workload feeds the program comes from here: the blob
corpus (218-bin colour histograms grouped into images), the query
streams, the request sizes and the write order.  The same seed always
gives the same arrays.  Nothing here imports the program: the one thing
taken from it, the L*a*b* centres of its colour bins, comes in as data.
So input generation is never part of a measured phase, and a change to
the program's own corpus synthesis cannot move the benchmark's inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: blobs, images and histogram bins of every workload's corpus.
NUM_BLOBS = 20_000
NUM_IMAGES = 3_333
NUM_BINS = 218
NUM_THEMES = 120
#: Dirichlet concentration of a blob around its theme's prototype.
CONCENTRATION = 500.0
#: Gaussian kernel width, in L*a*b* units, of a theme colour's splat
#: into the histogram bins
SPREAD = 14.0
#: seed of the theme palette, fixed so that every workload seed samples
#: the same population: seeds then differ by sampling noise alone, not
#: by how clustered their corpus happens to be
PALETTE_SEED = 2000

# sRGB (linear) to XYZ under the D65 white point, and that white point
_RGB_TO_XYZ = np.array([[0.4124564, 0.3575761, 0.1804375],
                        [0.2126729, 0.7151522, 0.0721750],
                        [0.0193339, 0.1191920, 0.9503041]])
_WHITE = np.array([0.95047, 1.0, 1.08883])


def srgb_to_lab(rgb: np.ndarray) -> np.ndarray:
    """CIE L*a*b* of sRGB colours in [0, 1] (the standard D65 formulas)."""
    rgb = np.clip(np.asarray(rgb, dtype=np.float64), 0.0, 1.0)
    linear = np.where(rgb <= 0.04045, rgb / 12.92,
                      ((rgb + 0.055) / 1.055) ** 2.4)
    t = (linear @ _RGB_TO_XYZ.T) / _WHITE
    delta = 6.0 / 29.0
    f = np.where(t > delta ** 3, np.cbrt(t), t / (3 * delta ** 2) + 4 / 29)
    return np.stack([116.0 * f[..., 1] - 16.0,
                     500.0 * (f[..., 0] - f[..., 1]),
                     200.0 * (f[..., 1] - f[..., 2])], axis=-1)


def theme_prototypes(bin_centres: np.ndarray) -> np.ndarray:
    """The fixed palette's prototype histograms, one row per theme.

    A theme is 1-3 dominant sRGB colours with Dirichlet(2) weights; its
    prototype splats each colour onto the bins whose L*a*b* centres lie
    near it, with a Gaussian kernel of SPREAD units.
    """
    palette = np.random.default_rng(PALETTE_SEED)
    protos = np.zeros((NUM_THEMES, len(bin_centres)))
    for t in range(NUM_THEMES):
        count = int(palette.integers(1, 4))
        colours = srgb_to_lab(palette.uniform(0.03, 0.97, size=(count, 3)))
        weights = palette.dirichlet(np.full(count, 2.0))
        for colour, weight in zip(colours, weights):
            d2 = ((bin_centres - colour) ** 2).sum(axis=1)
            protos[t] += weight * np.exp(-d2 / (2 * SPREAD ** 2))
    protos += 1e-4
    return protos / protos.sum(axis=1, keepdims=True)


@dataclass(frozen=True)
class Corpus:
    """Raw corpus arrays: what the program receives as input."""

    histograms: np.ndarray  # (NUM_BLOBS, NUM_BINS) float64, rows sum to 1
    image_ids: np.ndarray   # (NUM_BLOBS,) int64


def make_corpus(seed: int, bin_centres: np.ndarray) -> Corpus:
    """A clustered corpus from the program's generative theme model.

    ``bin_centres`` are the L*a*b* centres of the program's 218 colour
    bins, passed in as data so that a theme's colours land on the bins
    the program's quadratic-form distance treats as near.  The theme
    palette is the same for every seed; the seed draws each image's 2-4
    themes (Zipf-like popularity), the blob-to-image map, and each
    blob's Dirichlet histogram around one of its image's themes.
    """
    bin_centres = np.asarray(bin_centres, dtype=np.float64)
    if bin_centres.shape != (NUM_BINS, 3):
        raise ValueError(f"expected {NUM_BINS} L*a*b* bin centres, "
                         f"got shape {bin_centres.shape}")
    protos = theme_prototypes(bin_centres)
    popularity = 1.0 / np.arange(1, NUM_THEMES + 1) ** 0.8
    popularity /= popularity.sum()
    rng = np.random.default_rng([seed, 0])
    image_ids = np.concatenate([
        np.arange(NUM_IMAGES),
        rng.integers(0, NUM_IMAGES, size=NUM_BLOBS - NUM_IMAGES)])
    rng.shuffle(image_ids)
    theme_counts = rng.integers(2, 5, size=NUM_IMAGES)
    image_themes = rng.choice(NUM_THEMES, size=(NUM_IMAGES, 4),
                              p=popularity)
    pick = (rng.random(NUM_BLOBS) * theme_counts[image_ids]).astype(np.int64)
    themes = image_themes[image_ids, pick]
    gammas = rng.standard_gamma(protos[themes] * CONCENTRATION)
    histograms = gammas / gammas.sum(axis=1, keepdims=True)
    return Corpus(histograms=histograms, image_ids=image_ids.astype(np.int64))


def distinct_stream(seed: int, stream_id: int, length: int) -> np.ndarray:
    """``length`` query blobs: one seeded permutation of the corpus,
    repeated as needed, so a blob comes back exactly NUM_BLOBS queries
    after its last use.

    A result cache smaller than NUM_BLOBS therefore never hits.
    """
    rng = np.random.default_rng([seed, 1, stream_id])
    reps = -(-length // NUM_BLOBS)
    return np.tile(rng.permutation(NUM_BLOBS), reps)[:length]


def request_sizes(seed: int, pattern, rounds: int) -> np.ndarray:
    """``rounds`` shuffled copies of ``pattern``, one round after another.

    Every round holds exactly the sizes in ``pattern``, so any whole
    number of rounds has the same mix of request sizes whatever the
    seed; only their order is seeded.
    """
    rng = np.random.default_rng([seed, 2])
    pattern = np.asarray(pattern, dtype=np.int64)
    return np.concatenate([rng.permutation(pattern) for _ in range(rounds)])


@dataclass(frozen=True)
class IngestPlan:
    """Which blobs start in the index and the order of later writes."""

    loaded: np.ndarray   # rids bulk-loaded before the first request
    spare: np.ndarray    # rids not loaded, the first insert candidates


def make_ingest_plan(seed: int, loaded_fraction: float) -> IngestPlan:
    rng = np.random.default_rng([seed, 3])
    order = rng.permutation(NUM_BLOBS)
    cut = int(NUM_BLOBS * loaded_fraction)
    return IngestPlan(loaded=np.sort(order[:cut]), spare=order[cut:])
