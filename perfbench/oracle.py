"""Answers computed apart from the program, to check every answer it gives.

The oracle shares no code with ``repro``.  It takes the program's 5-D
SVD keys and its 218-D quadratic-form embedding as given data and
recomputes, with plain numpy, what a two-stage Blobworld query must
return:

1. the exact top ``num_blobs`` blobs by 5-D Euclidean distance, over
   the live blobs only (brute force, no index);
2. those candidates re-ranked by squared 218-D distance;
3. images ranked by their best blob, first ``top_images`` kept.

Stage 1 can have a tie at its boundary: two blobs at (nearly) the same
distance from the query, of which only one fits.  Any choice among
them is a correct answer, so the check accepts every such choice.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, List, Sequence

import numpy as np

#: relative distance band treated as a tie at the top-k boundary
TIE_BAND = 1e-9
#: query rows per brute-force distance block (bounds temporary memory)
BLOCK = 32
#: most tied blobs at a boundary the check will enumerate choices over
MAX_TIED = 8


class Oracle:
    """Brute-force two-stage answers over a live subset of the corpus."""

    def __init__(self, keys: np.ndarray, embedded: np.ndarray,
                 image_ids: np.ndarray, num_blobs: int, top_images: int):
        # Read-only views, no copies: the oracle must not inflate the
        # measured process's resident set.
        self.keys = np.asarray(keys, dtype=np.float64)
        self.embedded = np.asarray(embedded, dtype=np.float64)
        self.image_ids = np.asarray(image_ids, dtype=np.int64)
        self.num_blobs = num_blobs
        self.top_images = top_images
        self.set_live(np.arange(len(self.keys)))

    def set_live(self, rids: Iterable[int]) -> None:
        """Restrict stage 1 to ``rids`` (the live set of a mutable index)."""
        self.live = np.sort(np.fromiter(rids, dtype=np.int64))
        self._live_keys = self.keys[self.live]
        self._live_sq = (self._live_keys ** 2).sum(axis=1)

    # -- stage 1 ------------------------------------------------------------

    def _candidates(self, blobs: np.ndarray):
        """Per query: (sure rids, tied rids, how many tied rids fit)."""
        k = min(self.num_blobs, len(self.live))
        margin = min(len(self.live), k + 16)
        q = self.keys[blobs]
        approx = (self._live_sq[None, :] - 2.0 * q @ self._live_keys.T
                  + (q ** 2).sum(axis=1)[:, None])
        if margin < len(self.live):
            near = np.argpartition(approx, margin - 1, axis=1)[:, :margin]
        else:
            near = np.broadcast_to(np.arange(len(self.live)),
                                   (len(blobs), len(self.live)))
        out = []
        for row, idx in enumerate(near):
            diff = self._live_keys[idx] - q[row]
            d = (diff * diff).sum(axis=1)
            order = np.argsort(d, kind="stable")
            d, idx = d[order], idx[order]
            if margin < len(self.live) and d[-1] <= d[k - 1] * (1 + TIE_BAND):
                # The margin did not clear the boundary band: widen to
                # an exact pass over every live blob for this query.
                diff = self._live_keys - q[row]
                d = (diff * diff).sum(axis=1)
                idx = np.argsort(d, kind="stable")
                d = d[idx]
            bound = d[k - 1]
            lo, hi = bound * (1 - TIE_BAND), bound * (1 + TIE_BAND)
            sure = idx[d < lo]
            tied = idx[(d >= lo) & (d <= hi)]
            out.append((self.live[sure], self.live[tied], k - len(sure)))
        return out

    # -- stage 2 and 3 ------------------------------------------------------

    def _images(self, blob: int, candidates: np.ndarray) -> List[int]:
        diff = self.embedded[candidates] - self.embedded[blob]
        d = (diff * diff).sum(axis=1)
        ranked = candidates[np.argsort(d, kind="stable")]
        images = self.image_ids[ranked]
        _, first = np.unique(images, return_index=True)
        return [int(i) for i in images[np.sort(first)][:self.top_images]]

    def answers(self, blobs: Sequence[int]) -> List[List[List[int]]]:
        """Every correct image list for each query blob.

        Almost always one list per query; more only where stage 1 has
        a tie at its boundary.
        """
        blobs = np.asarray(blobs, dtype=np.int64)
        out: List[List[List[int]]] = []
        for start in range(0, len(blobs), BLOCK):
            chunk = blobs[start:start + BLOCK]
            for blob, (sure, tied, need) in zip(chunk,
                                                self._candidates(chunk)):
                if len(tied) == need:
                    out.append([self._images(blob, np.concatenate(
                        [sure, tied]))])
                    continue
                if len(tied) > MAX_TIED:
                    raise ValueError(
                        f"query blob {blob}: {len(tied)} blobs tie at the "
                        f"top-{self.num_blobs} boundary; inputs need "
                        f"distinct keys")
                out.append([self._images(blob, np.concatenate(
                    [sure, np.asarray(pick, dtype=np.int64)]))
                    for pick in combinations(tied, need)])
        return out

    def check(self, blobs: Sequence[int], got: Sequence[Sequence[int]]
              ) -> List[bool]:
        """One verdict per query: is ``got[i]`` a correct answer?"""
        if len(got) != len(blobs):
            return [False] * len(blobs)
        return [list(map(int, g)) in accepted
                for g, accepted in zip(got, self.answers(blobs))]


class LiveSetModel:
    """The rids a mutable index must hold after each committed write."""

    def __init__(self, rids: Iterable[int]):
        self.rids = set(int(r) for r in rids)

    def insert(self, rid: int) -> None:
        self.rids.add(int(rid))

    def delete(self, rid: int) -> bool:
        if rid in self.rids:
            self.rids.remove(rid)
            return True
        return False

    def matches(self, rids: Iterable[int]) -> bool:
        """Does ``rids`` hold exactly the live set, each rid once?"""
        got = list(int(r) for r in rids)
        return len(got) == len(self.rids) and set(got) == self.rids
