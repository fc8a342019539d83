"""The oracle accepts the program's answers and catches altered ones.

Run from the root of the repository::

    python3 -m pytest perfbench/test_oracle.py -q
"""

import os
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import inputs  # noqa: E402
from perfbench.oracle import LiveSetModel, Oracle  # noqa: E402
from perfbench.workloads import (DIMS, NUM_CANDIDATES, PAGE_SIZE,  # noqa: E402
                                 TOP_IMAGES, bin_centres, program_corpus)

QUERIES = [3, 141, 592, 653, 1589]


@pytest.fixture(scope="module")
def served():
    """A small corpus, an R-tree over it, and the program's answers."""
    from repro.blobworld.query import BlobworldEngine
    from repro.bulk import bulk_load
    from repro.core.api import make_extension
    full = inputs.make_corpus(7, bin_centres())
    raw = inputs.Corpus(histograms=full.histograms[:2000],
                        image_ids=full.image_ids[:2000])
    corpus = program_corpus(raw)
    keys = corpus.reduced(DIMS)
    tree = bulk_load(make_extension("rtree", DIMS), keys,
                     page_size=PAGE_SIZE)
    answers = BlobworldEngine(corpus).am_query_batch(
        tree, QUERIES, NUM_CANDIDATES, DIMS, top_images=TOP_IMAGES)
    oracle = Oracle(keys, corpus.embedded, raw.image_ids,
                    NUM_CANDIDATES, TOP_IMAGES)
    return oracle, answers


def test_accepts_the_programs_answers(served):
    oracle, answers = served
    assert oracle.check(QUERIES, answers) == [True] * len(QUERIES)


def test_catches_one_altered_answer(served):
    oracle, answers = served
    altered = [list(a) for a in answers]
    altered[2][5], altered[2][6] = altered[2][6], altered[2][5]
    assert oracle.check(QUERIES, altered) == [True, True, False, True, True]


def test_catches_stale_answers_after_deletes(served):
    """Answers computed before the query blobs themselves were deleted
    are wrong for the live set that follows the deletes: each query's
    own image loses its distance-0 blob."""
    oracle, answers = served
    try:
        oracle.set_live(r for r in range(2000) if r not in QUERIES)
        assert oracle.check(QUERIES, answers) == [False] * len(QUERIES)
    finally:
        oracle.set_live(range(2000))


def test_live_set_model():
    model = LiveSetModel([1, 2, 3])
    model.insert(9)
    assert model.delete(2)
    assert not model.delete(2)
    assert model.matches([9, 3, 1])
    assert not model.matches([1, 3])          # a rid lost
    assert not model.matches([1, 3, 9, 9])    # a rid held twice
    assert not model.matches([1, 2, 3, 9])    # a deleted rid kept
