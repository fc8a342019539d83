"""The benchmark's workloads and the measurements taken on them.

``BENCHMARK.json`` gates serve-cold, serve-warm and ingest-mixed;
serve-sharded runs by name (see README.md for why it is not gated).

Every workload is a single client in a closed loop: the next request is
sent only when the previous one has returned.  Every query uses the
paper's configuration: 5-D SVD keys, 200 candidate blobs from the index,
a full 218-D rerank and 40 result images.  Inputs come from
:mod:`perfbench.inputs` before the clock starts; every answer is checked
against :mod:`perfbench.oracle` after the timed phase (or, for
ingest-mixed, against the live-set model right after each request).

A run attempts whole rounds of the same operations, so every run has
the same mix of request sizes and writes whatever its length.
"""

from __future__ import annotations

import gc
import os
import resource
import shutil
import statistics
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from perfbench import inputs
from perfbench.oracle import LiveSetModel, Oracle
from perfbench.trace import Tracer, outside_share

DIMS = 5
NUM_CANDIDATES = 200
TOP_IMAGES = 40
PAGE_SIZE = 8192
#: QuadraticFormDistance bandwidth used for every corpus
SIGMA = 35.0
#: set-ups per run; ``setup_s`` is their median
SETUPS = 3
#: queries generated per stream (far more than any run consumes)
STREAM_LEN = 3 * inputs.NUM_BLOBS
#: rounds of request sizes generated per run
MAX_ROUNDS = 5_000
#: fewest requests a timed phase serves, so its 90th percentile has at
#: least ten samples beyond it
MIN_REQUESTS = 100

#: per-layer metrics in the order they are reported, with units.
#: Times are totals over the traced phase's fixed rounds of requests.
#: serve-sharded's serving.* metrics, like any metric not listed here,
#: go to the run's information line instead.
PER_LAYER = {
    "storage.read_s": "s",
    "storage.read_ms_per_page": "ms",
    "storage.pages_read_per_query": "count",
    "storage.pool_hit_rate": "ratio",
    "storage.commit_s": "s",
    "storage.wal_bytes_per_write": "B",
    "storage.checkpoint_s": "s",
    "gist.knn_s": "s",
    "gist.leaf_pages_per_query": "count",
    "gist.inner_pages_per_query": "count",
    "gist.mutate_s": "s",
    "gist.open_s": "s",
    "planner.tree_plans": "count",
    "planner.scan_plans": "count",
    "planner.regret": "ratio",
    "flatfile.scan_s": "s",
    "blobworld.unattributed_s": "s",
    "blobworld.rerank_s": "s",
    "blobworld.cache_hit_rate": "ratio",
    "bulk.load_s": "s",
    "write_ops_s": "1/s",
    "commit_p50_ms": "ms",
    "commit_p90_ms": "ms",
    "trace.overhead_qps": "1/s",
    "trace.outside_spans_share": "ratio",
    "trace.unattributed_share": "ratio",
}

END_TO_END = {
    "setup_s": "s",
    "query_qps": "1/s",
    "request_p50_ms": "ms",
    "request_p90_ms": "ms",
    "peak_rss_mib": "MiB",
    "index_mib": "MiB",
}


class Failure(Exception):
    """The benchmark cannot produce a result (not a failed operation)."""


# -- shared helpers ------------------------------------------------------------

def bin_centres() -> np.ndarray:
    """L*a*b* centres of the program's 218 colour bins, read before any
    set-up: input data for :func:`inputs.make_corpus`.  The binning is a
    fixed constant of the colour space, so it is not part of set-up."""
    from repro.blobworld.binning import default_binning
    return np.array(default_binning().centers, dtype=np.float64)


def program_corpus(raw: inputs.Corpus):
    """Hand the generated arrays to the program and let it derive its
    218-D embedding and 5-D SVD keys (program work, timed in set-up)."""
    from repro.blobworld.binning import default_binning
    from repro.blobworld.dataset import BlobCorpus
    from repro.blobworld.distance import QuadraticFormDistance
    binning = default_binning()
    corpus = BlobCorpus(
        histograms=raw.histograms, image_ids=raw.image_ids,
        binning=binning,
        distance=QuadraticFormDistance(binning.bin_distances(),
                                       sigma=SIGMA))
    corpus.reduced(DIMS)
    return corpus


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` in [0, 100]."""
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def request_figures(lat: Sequence[float], queries: int
                    ) -> Dict[str, float]:
    """``query_qps``, ``request_p50_ms`` and ``request_p90_ms`` of a
    timed phase that sent ``queries`` queries in requests that took
    ``lat`` seconds each."""
    return {"query_qps": queries / sum(lat),
            "request_p50_ms": 1e3 * percentile(lat, 50),
            "request_p90_ms": 1e3 * percentile(lat, 90)}


def peak_rss_mib() -> float:
    """This process's resident-set high-water mark (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def rss_now_mib() -> float:
    """This process's resident set right now."""
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024.0
    raise Failure("no VmRSS for this process")


def proc_peak_rss_mib(pid: int) -> float:
    """A live child's resident-set high-water mark, from its status."""
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise Failure(f"no VmHWM for pid {pid}")


def file_mib(paths: Sequence[str]) -> float:
    return sum(os.path.getsize(p) for p in paths if os.path.exists(p)) \
        / (1024.0 * 1024.0)


class RequestFeed:
    """Hands out whole rounds of requests from a distinct-blob stream."""

    def __init__(self, seed: int, pattern: Sequence[int]):
        self.pattern = list(pattern)
        self.stream = inputs.distinct_stream(seed, 0, STREAM_LEN)
        self.sizes = inputs.request_sizes(seed, self.pattern, MAX_ROUNDS)
        self.cursor = 0
        self.rounds = 0

    def next_round(self) -> List[np.ndarray]:
        if self.rounds >= MAX_ROUNDS:
            raise Failure("request feed exhausted; raise MAX_ROUNDS")
        n = len(self.pattern)
        sizes = self.sizes[self.rounds * n:(self.rounds + 1) * n]
        self.rounds += 1
        out = []
        for size in sizes:
            if self.cursor + size > len(self.stream):
                raise Failure("query stream exhausted; raise STREAM_LEN")
            out.append(self.stream[self.cursor:self.cursor + size])
            self.cursor += int(size)
        return out


# -- serving workloads ---------------------------------------------------------

class ServingWorkload:
    """One read-only serving configuration of the program."""

    name = ""
    #: request sizes of one round (shuffled per round by the seed)
    pattern: Sequence[int] = ()
    #: rounds in the traced phase (fixed, so counts repeat exactly)
    trace_rounds = 0

    def __init__(self) -> None:
        self.corpus: Any = None
        self.workdir = ""
        self.problems: List[str] = []

    def setup(self, raw: inputs.Corpus, workdir: str) -> None:
        raise NotImplementedError

    def serve(self, blobs: np.ndarray) -> List[List[int]]:
        raise NotImplementedError

    def close(self) -> None:
        """Release what :meth:`setup` built; leftovers go to problems."""

    def index_files(self) -> List[str]:
        raise NotImplementedError

    def extra_rss_mib(self) -> float:
        return 0.0

    def degraded(self) -> bool:
        """Did the last request return a degraded answer?"""
        return False

    def instrument(self, tracer: Tracer, probe: Dict[str, Any]) -> None:
        raise NotImplementedError

    def layer_metrics(self, tracer: Tracer, probe: Dict[str, Any],
                      queries: int) -> Dict[str, float]:
        raise NotImplementedError


def _instrument_store(tracer: Tracer, store, probe: Dict[str, Any]) -> None:
    """Span every physical page read and count the pages decoded."""
    probe.setdefault("pages_read", 0)

    def one(result, *args, **kwargs):
        probe["pages_read"] += 1

    def many(result, page_ids, *args, **kwargs):
        probe["pages_read"] += len(set(int(p) for p in page_ids))

    tracer.wrap(store, "read", "storage.read", after=one)
    tracer.wrap(store, "read_many", "storage.read", after=many)


def _instrument_knn(tracer: Tracer, probe: Dict[str, Any]) -> None:
    """Span the batched kNN engine and count its logical page accesses
    by level (the paper's Figure 15/16 count)."""
    import repro.gist.batch as batch_mod
    original = batch_mod.knn_search_batch
    probe.update(tree_queries=0, leaf_pages=0, inner_pages=0,
                 knn_original=original)

    def traced(tree, queries, k, block_size=None, on_access=None):
        def counted(qid, page_id, level):
            probe["leaf_pages" if level == 0 else "inner_pages"] += 1
            if on_access is not None:
                on_access(qid, page_id, level)

        with tracer.span("gist.knn"):
            probe["tree_queries"] += len(queries)
            return original(tree, queries, k, block_size=block_size,
                            on_access=counted)

    tracer.replace(batch_mod, "knn_search_batch", traced)


def _tree_metrics(tracer: Tracer, probe: Dict[str, Any],
                  queries: int) -> Dict[str, float]:
    """Storage-read and kNN metrics of one traced phase."""
    totals = tracer.totals()
    pages = probe["pages_read"]
    read_s = totals.get("storage.read", 0.0)
    tree_queries = probe["tree_queries"]
    return {
        "storage.read_s": read_s,
        "storage.read_ms_per_page": 1e3 * read_s / pages if pages else 0.0,
        "storage.pages_read_per_query": pages / queries,
        "gist.knn_s": tracer.self_times().get("gist.knn", 0.0),
        "gist.leaf_pages_per_query":
            probe["leaf_pages"] / tree_queries if tree_queries else 0.0,
        "gist.inner_pages_per_query":
            probe["inner_pages"] / tree_queries if tree_queries else 0.0,
    }


def _hit_rate(before: Tuple[int, int], stats) -> float:
    """Hit rate of ``stats`` since the ``(hits, misses)`` snapshot."""
    hits = stats.hits - before[0]
    misses = stats.misses - before[1]
    return hits / (hits + misses) if hits + misses else 0.0


class SingleTreeWorkload(ServingWorkload):
    """One index in a pread page file behind a BufferPool, queried
    through a BlobworldEngine in this process."""

    method = ""
    filename = ""

    def build(self, raw, workdir: str) -> None:
        from repro.bulk import bulk_load
        from repro.core.api import make_extension
        from repro.storage.diskfile import FilePageFile
        self.workdir = workdir
        self.corpus = program_corpus(raw)
        self.path = os.path.join(workdir, self.filename)
        ext = make_extension(self.method, DIMS)
        self.store = FilePageFile.for_extension(self.path, ext,
                                                page_size=PAGE_SIZE)
        self.tree = bulk_load(ext, self.corpus.reduced(DIMS),
                              page_size=PAGE_SIZE, store=self.store)

    def close(self):
        self.store.close()

    def index_files(self):
        return [self.path]

    def instrument(self, tracer, probe):
        _instrument_store(tracer, self.store, probe)
        _instrument_knn(tracer, probe)
        tracer.wrap(self.engine, "am_query_batch", "blobworld.query")
        tracer.wrap(self.engine, "rerank_batch", "blobworld.rerank")
        probe["pool0"] = (self.pool.stats.hits, self.pool.stats.misses)

    def layer_metrics(self, tracer, probe, queries):
        selfs = tracer.self_times()
        out = _tree_metrics(tracer, probe, queries)
        out.update({
            "storage.pool_hit_rate": _hit_rate(probe["pool0"],
                                               self.pool.stats),
            "blobworld.unattributed_s": selfs.get("blobworld.query", 0.0),
            "blobworld.rerank_s": selfs.get("blobworld.rerank", 0.0),
        })
        return out


class ServeCold(SingleTreeWorkload):
    """XJB over a pread page file behind a pool half the index's size."""

    name = "serve-cold"
    method = "xjb"
    filename = "cold.pages"
    pool_pages = 64
    # Two-query blocks: about 1,300 requests per 30 s run, and a smooth
    # latency tail.  Four-query blocks gave half the requests and a knee
    # just above the 88th percentile, which put the 90th percentile on a
    # cliff: its spread over ten seeds was 0.19 against 0.04 for p50.
    pattern = (2,)
    trace_rounds = 120

    def setup(self, raw, workdir):
        from repro.blobworld.query import BlobworldEngine
        from repro.storage.buffer import BufferPool
        self.build(raw, workdir)
        self.pool = BufferPool(self.store, self.pool_pages)
        self.tree.store = self.pool
        self.engine = BlobworldEngine(self.corpus)

    def serve(self, blobs):
        return self.engine.am_query_batch(
            self.tree, blobs, NUM_CANDIDATES, DIMS, top_images=TOP_IMAGES)


class ServeWarm(SingleTreeWorkload):
    """R-tree fully resident in the pool, with the planner and the
    result cache; requests of mixed sizes from 1 to 64 queries."""

    name = "serve-warm"
    method = "rtree"
    filename = "warm.pages"
    cache_size = 4096
    # Nine requests per round put the median inside the 16-query group
    # and the 90th percentile inside the 64-query group, never on a
    # boundary between two sizes.
    pattern = (1, 2, 4, 8, 16, 32, 64, 64, 64)
    trace_rounds = 10

    def setup(self, raw, workdir):
        from repro.ams.flatfile import FlatFile
        from repro.blobworld.cache import QueryResultCache
        from repro.blobworld.query import BlobworldEngine
        from repro.gist.planner import QueryPlanner
        from repro.storage.buffer import BufferPool
        self.build(raw, workdir)
        page_ids = self.store.page_ids()
        self.pool = BufferPool(self.store, len(page_ids) + 16)
        self.pool.counting = False
        self.pool.read_many(page_ids)
        self.pool.counting = True
        self.tree.store = self.pool
        self.flat = FlatFile(self.corpus.reduced(DIMS), page_size=PAGE_SIZE)
        self.planner = QueryPlanner(self.tree, self.flat)
        self.cache = QueryResultCache(self.cache_size)
        self.engine = BlobworldEngine(self.corpus, cache=self.cache)

    def serve(self, blobs):
        return self.engine.am_query_batch(
            self.tree, blobs, NUM_CANDIDATES, DIMS, top_images=TOP_IMAGES,
            planner=self.planner)

    def instrument(self, tracer, probe):
        super().instrument(tracer, probe)
        probe["scan_original"] = tracer.wrap(self.flat, "knn_batch",
                                             "flatfile.scan")
        probe.update(plans=[], chosen_s=0.0, best_s=0.0)
        plan_batch = self.planner.plan_batch

        def noted(*args, **kwargs):
            plan = plan_batch(*args, **kwargs)
            probe["plans"].append(plan.choice)
            return plan

        tracer.replace(self.planner, "plan_batch", noted)
        probe["cache0"] = (self.cache.stats.hits, self.cache.stats.misses)

    def after_request(self, tracer, probe, blobs, plans_before) -> None:
        """Time both plans for the block the planner just routed, with
        tracing off, so regret compares like with like."""
        if len(probe["plans"]) == plans_before:
            return
        choice = probe["plans"][-1]
        vecs = self.corpus.reduced(DIMS)[np.asarray(blobs)]
        tracer.enabled = False
        self.pool.counting = False
        try:
            t0 = time.perf_counter()
            probe["knn_original"](self.tree, vecs, NUM_CANDIDATES)
            t1 = time.perf_counter()
            probe["scan_original"](vecs, NUM_CANDIDATES)
            t2 = time.perf_counter()
        finally:
            self.pool.counting = True
            tracer.enabled = True
        tree_s, scan_s = t1 - t0, t2 - t1
        probe["chosen_s"] += tree_s if choice == "tree" else scan_s
        probe["best_s"] += min(tree_s, scan_s)

    def layer_metrics(self, tracer, probe, queries):
        out = super().layer_metrics(tracer, probe, queries)
        out.update({
            "planner.tree_plans": probe["plans"].count("tree"),
            "planner.scan_plans": probe["plans"].count("scan"),
            "planner.regret": (probe["chosen_s"] / probe["best_s"]
                               if probe["best_s"] else 0.0),
            "flatfile.scan_s": tracer.self_times().get("flatfile.scan", 0.0),
            "blobworld.cache_hit_rate": _hit_rate(probe["cache0"],
                                                  self.cache.stats),
        })
        return out


class ServeSharded(ServingWorkload):
    """The serve-warm stream and request sizes through a 2-shard
    ShardedService with its default transport and window."""

    name = "serve-sharded"
    method = "rtree"
    num_shards = 2
    pattern = ServeWarm.pattern
    trace_rounds = 10

    def setup(self, raw, workdir):
        from repro.serving.coordinator import ShardedService
        self.workdir = workdir
        self.corpus = program_corpus(raw)
        self.service = ShardedService.build(
            self.corpus, self.num_shards, method=self.method, dims=DIMS,
            page_size=PAGE_SIZE, workdir=workdir)
        self.service.start()
        self.pids = [h.process.pid for h in self.service.handles
                     if getattr(h, "process", None) is not None]
        if len(self.pids) != self.num_shards:
            raise Failure(f"{self.name}: expected {self.num_shards} forked "
                          f"workers, got {len(self.pids)}")
        self.degraded_seen = 0

    def serve(self, blobs):
        return self.service.am_query_batch(blobs, NUM_CANDIDATES,
                                           top_images=TOP_IMAGES)

    def degraded(self):
        now = self.service.degraded_requests
        seen, self.degraded_seen = self.degraded_seen, now
        return now != seen

    def extra_rss_mib(self):
        return sum(proc_peak_rss_mib(pid) for pid in self.pids)

    def index_files(self):
        return [os.path.join(self.workdir, name)
                for name in sorted(os.listdir(self.workdir))
                if name.endswith(".pages")]

    def close(self):
        from repro.serving.shm import segment_prefix
        processes = [h.process for h in self.service.handles
                     if getattr(h, "process", None) is not None]
        self.service.close()
        for proc in processes:
            if proc.is_alive() or proc.exitcode is None:
                self.problems.append(f"worker {proc.pid} still running")
        prefix = segment_prefix().lstrip("/")
        if os.path.isdir("/dev/shm"):
            leaked = [n for n in os.listdir("/dev/shm")
                      if n.startswith(prefix)]
            if leaked:
                self.problems.append(f"leaked shm segments {leaked}")

    def _worker_totals(self) -> Dict[str, int]:
        out = {"pool_hits": 0, "pool_misses": 0, "tree": 0, "scan": 0}
        for blob in self.service.gather_stats().values():
            pool = blob.get("pool", {})
            out["pool_hits"] += pool.get("hits", 0)
            out["pool_misses"] += pool.get("misses", 0)
            out["tree"] += blob["plans"]["tree"]
            out["scan"] += blob["plans"]["scan"]
        return out

    def instrument(self, tracer, probe):
        tracer.wrap(self.service, "am_query_batch", "serving.request")
        tracer.wrap(self.service.engine, "rerank_batch", "serving.rerank")
        probe["workers0"] = self._worker_totals()
        cache = self.service.cache
        probe["cache0"] = (cache.stats.hits, cache.stats.misses)

    def layer_metrics(self, tracer, probe, queries):
        selfs = tracer.self_times()
        after = self._worker_totals()
        before = probe["workers0"]
        hits = after["pool_hits"] - before["pool_hits"]
        misses = after["pool_misses"] - before["pool_misses"]
        return {
            "planner.tree_plans": after["tree"] - before["tree"],
            "planner.scan_plans": after["scan"] - before["scan"],
            "blobworld.cache_hit_rate": _hit_rate(
                probe["cache0"], self.service.cache.stats),
            "serving.shard_wait_s": selfs.get("serving.request", 0.0),
            "serving.rerank_s": selfs.get("serving.rerank", 0.0),
            "serving.worker_pool_hit_rate":
                hits / (hits + misses) if hits + misses else 0.0,
        }


def _trace_setup(tracer: Tracer) -> None:
    """Span the set-up calls whose time is reported per layer: bulk-load
    (the single-tree workloads import it from repro.bulk at call time,
    the coordinator at module import) and MutableTree.open."""
    import repro.bulk as bulk_pkg
    import repro.serving.coordinator as coord_mod
    from repro.gist.mutable import MutableTree
    for mod in (bulk_pkg, coord_mod):
        tracer.wrap(mod, "bulk_load", "bulk.load")
    tracer.wrap(MutableTree, "open", "gist.open")


def _setup_layer_times(tracer: Tracer) -> Dict[str, float]:
    """Per-set-up seconds of the spans :func:`_trace_setup` opened; the
    wrappers are removed and the spans dropped."""
    totals = tracer.totals(requests=False)
    tracer.restore()
    tracer.spans.clear()
    return {"bulk.load_s": totals.get("bulk.load", 0.0) / SETUPS,
            "gist.open_s": totals.get("gist.open", 0.0) / SETUPS}


def _setups(factory: Callable[[], Any], raw: inputs.Corpus, workdir: str
            ) -> Tuple[List[float], Any, List[str]]:
    """Set up SETUPS fresh workloads from ``factory``, one after another,
    each in a directory of its own.

    Each but the last is closed, dropped and garbage-collected before
    the next one starts, so at most one configured program is alive at
    a time and ``peak_rss_mib`` is the peak of one.  Returns the set-up
    times, the last workload (still up) and what the closed ones left
    behind.
    """
    times: List[float] = []
    problems: List[str] = []
    workload = None
    for i in range(SETUPS):
        if workload is not None:
            workload.close()
            problems.extend(workload.problems)
            workload = None
            gc.collect()
            shutil.rmtree(os.path.join(workdir, f"setup{i - 1}"))
        d = os.path.join(workdir, f"setup{i}")
        os.makedirs(d)
        workload = factory()
        t0 = time.perf_counter()
        workload.setup(raw, d)
        times.append(time.perf_counter() - t0)
    return times, workload, problems


def _timed(call: Callable[[], Any], lat: List[float],
           tracer: Optional[Tracer] = None) -> Tuple[Any, Optional[str]]:
    """Send one request and wait for it: its wall time goes to ``lat``,
    and its spans get request id ``len(lat)``.  Returns (result, error);
    an exception is a failed operation, not a crash."""
    if tracer is not None:
        tracer.request = len(lat)
    t0 = time.perf_counter()
    try:
        out, error = call(), None
    except Exception as exc:
        out, error = None, f"{type(exc).__name__}: {exc}"
    lat.append(time.perf_counter() - t0)
    if tracer is not None:
        tracer.request = -1
    return out, error


def _run_rounds(one_round: Callable[[], None], rounds: Optional[int] = None,
                deadline: Optional[float] = None,
                enough: Callable[[], bool] = lambda: True) -> None:
    """Whole rounds until ``rounds`` are done, or until ``deadline`` has
    passed and ``enough()`` holds."""
    done = 0
    while True:
        one_round()
        done += 1
        if rounds is not None and done >= rounds:
            return
        if deadline is not None and time.perf_counter() >= deadline \
                and enough():
            return


def _serve_rounds(workload, feed: RequestFeed, log: list, lat: list,
                  rounds: Optional[int] = None,
                  deadline: Optional[float] = None,
                  tracer: Optional[Tracer] = None,
                  probe: Optional[Dict[str, Any]] = None) -> int:
    """Serve whole rounds until ``rounds`` are done, or until
    ``deadline`` has passed and MIN_REQUESTS requests were served;
    returns queries sent.  Answers go to ``log``."""
    sent = 0
    after = getattr(workload, "after_request", None) \
        if tracer is not None else None

    def one_round() -> None:
        nonlocal sent
        for blobs in feed.next_round():
            plans_before = len(probe.get("plans", ())) if probe else 0
            answers, error = _timed(lambda: workload.serve(blobs), lat,
                                    tracer)
            if after is not None and error is None:
                after(tracer, probe, blobs, plans_before)
            log.append((blobs, answers, error or
                        ("degraded answer" if workload.degraded() else None)))
            sent += len(blobs)

    _run_rounds(one_round, rounds, deadline,
                enough=lambda: len(lat) >= MIN_REQUESTS)
    return sent


def _verify(oracle: Oracle, log: list) -> Tuple[int, int, List[str]]:
    """Check every logged answer; returns (attempted, failed, notes)."""
    attempted = failed = 0
    notes: List[str] = []
    blobs_ok: List[int] = []
    answers_ok: List[List[int]] = []
    for blobs, answers, error in log:
        attempted += len(blobs)
        if error is not None or answers is None or len(answers) != len(blobs):
            failed += len(blobs)
            if len(notes) < 5:
                notes.append(error or "wrong number of answers")
            continue
        blobs_ok.extend(int(b) for b in blobs)
        answers_ok.extend(answers)
    verdicts = oracle.check(blobs_ok, answers_ok) if blobs_ok else []
    for blob, ok in zip(blobs_ok, verdicts):
        if not ok:
            failed += 1
            if len(notes) < 5:
                notes.append(f"wrong answer for query blob {blob}")
    return attempted, failed, notes


def run_serving(factory, seed: int, seconds: float, trace: bool,
                workdir: str) -> Dict[str, Any]:
    raw = inputs.make_corpus(seed, bin_centres())
    feed = RequestFeed(seed, factory.pattern)
    tracer = Tracer() if trace else None
    probe: Dict[str, Any] = {}
    if tracer is not None:
        _trace_setup(tracer)
    setup_times, workload, problems = _setups(factory, raw, workdir)
    if tracer is not None:
        setup_layers = _setup_layer_times(tracer)
    try:
        oracle = Oracle(workload.corpus.reduced(DIMS),
                        workload.corpus.embedded, raw.image_ids,
                        NUM_CANDIDATES, TOP_IMAGES)
        log: list = []
        lat: list = []
        # One untimed round first: lazy state settles before timing.
        _serve_rounds(workload, feed, log, [], rounds=1)
        result: Dict[str, Any] = {}
        if tracer is None:
            start = time.perf_counter()
            queries = _serve_rounds(workload, feed, log, lat,
                                    deadline=start + seconds)
            rss = peak_rss_mib() + workload.extra_rss_mib()
            result["serving_rss_mib"] = rss_now_mib()
            result["metrics"] = {
                "setup_s": statistics.median(setup_times),
                **request_figures(lat, queries),
                "peak_rss_mib": rss,
                "index_mib": file_mib(workload.index_files()),
            }
            result["requests"] = len(lat)
        else:
            workload.instrument(tracer, probe)
            try:
                traced_q = _serve_rounds(workload, feed, log, lat,
                                         rounds=workload.trace_rounds,
                                         tracer=tracer, probe=probe)
                layer = workload.layer_metrics(tracer, probe, traced_q)
            finally:
                tracer.restore()
            traced_wall = sum(lat)
            selfs = tracer.self_times()
            untraced_lat: list = []
            start = time.perf_counter()
            untraced_q = _serve_rounds(workload, feed, log, untraced_lat,
                                       deadline=start + seconds / 2)
            layer["bulk.load_s"] = setup_layers["bulk.load_s"]
            layer["trace.overhead_qps"] = (traced_q / traced_wall
                                           - untraced_q / sum(untraced_lat))
            layer["trace.outside_spans_share"] = outside_share(selfs,
                                                               traced_wall)
            layer["trace.unattributed_share"] = \
                layer.get("blobworld.unattributed_s", 0.0) / traced_wall
            result["metrics"] = layer
            result["requests"] = len(lat)
            result["self_times_s"] = selfs
            result["tracer"] = tracer
    finally:
        workload.close()
    t_verify = time.perf_counter()
    attempted, failed, notes = _verify(oracle, log)
    result["verify_s"] = time.perf_counter() - t_verify
    attempted += 1  # the teardown check, over every set-up
    problems.extend(workload.problems)
    if problems:
        failed += 1
        notes.extend(problems)
    result.update(attempted=attempted, failed=failed, notes=notes)
    return result


# -- ingest-mixed ----------------------------------------------------------------

class IngestMixed:
    """MutableTree over 75% of the corpus, with a result cache attached:
    the program as ingest-mixed sets it up.  :class:`IngestSession`
    drives it."""

    name = "ingest-mixed"
    method = "rtree"
    loaded_fraction = 0.75
    buffer_pages = 512
    cache_size = 1024

    def __init__(self, plan: inputs.IngestPlan):
        self.plan = plan
        self.problems: List[str] = []
        self.mt: Any = None

    def setup(self, raw: inputs.Corpus, workdir: str) -> None:
        """Build, save and open the index."""
        from repro.blobworld.cache import QueryResultCache
        from repro.blobworld.query import BlobworldEngine
        from repro.bulk import bulk_load
        from repro.core.api import make_extension
        from repro.gist.mutable import MutableTree
        from repro.gist.persist import save_tree
        self.corpus = program_corpus(raw)
        self.keys = self.corpus.reduced(DIMS)
        ext = make_extension(self.method, DIMS)
        tree = bulk_load(ext, self.keys[self.plan.loaded],
                         rids=self.plan.loaded, page_size=PAGE_SIZE)
        self.path = os.path.join(workdir, "ingest.gist")
        save_tree(tree, self.path)
        self.mt = MutableTree.open(self.path,
                                   buffer_pages=self.buffer_pages)
        self.cache = QueryResultCache(self.cache_size)
        self.mt.attach_cache(self.cache)
        self.engine = BlobworldEngine(self.corpus, cache=self.cache)

    def close(self) -> None:
        if self.mt is not None:
            self.mt.close()
            self.mt = None

    def index_files(self) -> List[str]:
        from repro.storage.wal import default_wal_path
        return [self.path, default_wal_path(self.path)]


class IngestSession:
    """Durable inserts and deletes of the blobs not loaded, interleaved
    with queries, each checked against the live-set model as it returns.

    One round is ``writes_per_round`` steps.  A step sends one request,
    then one write.  A request of ``n`` queries holds the blob the
    previous write touched, the blob the coming write touches, fresh
    blobs, and the first ``n // 4`` fresh blobs again, which the cache
    answers.  The written blob is thus queried just before and just
    after its write, so a cache that kept a pre-write answer gives a
    wrong answer.  A round's request sizes are ``size_pattern`` in a
    seeded order.  The round's last write is followed by
    ``checkpoint()``, so every round is one whole checkpoint cycle.
    Every write commits with an fsync, the program's flush policy.
    """

    writes_per_round = 32
    #: request sizes of one round: a quarter are 16-query requests, so
    #: the 90th percentile of request latency lies inside their mode and
    #: the median inside the 4-query requests', not in the gap
    size_pattern = (4,) * 24 + (16,) * 8
    trace_rounds = 3
    #: timed rounds after which ``index_mib`` is read
    size_rounds = 3

    def __init__(self, index: IngestMixed, raw: inputs.Corpus, seed: int):
        self.index = index
        self.keys = index.keys
        self.rng = np.random.default_rng([seed, 4])
        self.stream = inputs.distinct_stream(seed, 5, STREAM_LEN)
        self.sizes = inputs.request_sizes(seed, self.size_pattern,
                                          MAX_ROUNDS)
        self.size_cursor = 0
        self.cursor = 0
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []
        self.tracer: Optional[Tracer] = None
        self.oracle = Oracle(self.keys, index.corpus.embedded,
                             raw.image_ids, NUM_CANDIDATES, TOP_IMAGES)
        self.model = LiveSetModel(index.plan.loaded)
        self.live = [int(r) for r in index.plan.loaded]
        self.spare = [int(r) for r in index.plan.spare]
        self.oracle.set_live(self.live)
        self.last_written = self.fresh(1)[0]
        self.reset_timings()

    def reset_timings(self) -> None:
        self.query_lat: List[float] = []
        self.write_lat: List[float] = []
        self.request_lat: List[float] = []
        self.queries = 0
        self.rounds_done = 0

    def note(self, msg: str) -> None:
        if len(self.notes) < 5:
            self.notes.append(msg)

    # -- operations -----------------------------------------------------------

    def fresh(self, n: int) -> List[int]:
        out = self.stream[self.cursor:self.cursor + n]
        self.cursor += n
        if len(out) < n:
            raise Failure("ingest query stream exhausted")
        return [int(b) for b in out]

    def query(self, blobs: List[int]) -> None:
        index = self.index
        answers, error = _timed(lambda: index.engine.am_query_batch(
            index.mt.tree, blobs, NUM_CANDIDATES, DIMS,
            top_images=TOP_IMAGES), self.request_lat, self.tracer)
        self.query_lat.append(self.request_lat[-1])
        self.queries += len(blobs)
        self.attempted += len(blobs)
        if error is not None or answers is None \
                or len(answers) != len(blobs):
            self.failed += len(blobs)
            self.note(error or "wrong number of answers")
            return
        for blob, ok in zip(blobs, self.oracle.check(blobs, answers)):
            if not ok:
                self.failed += 1
                self.note(f"wrong or stale answer for query blob {blob}")

    def write(self, op: str, rid: int, checkpoint: bool) -> None:
        key = self.keys[rid]
        mt = self.index.mt

        def call():
            ok = (mt.insert(key, rid) is None if op == "insert"
                  else mt.delete(key, rid))
            if checkpoint:
                mt.checkpoint()
            return ok

        ok, error = _timed(call, self.request_lat, self.tracer)
        self.write_lat.append(self.request_lat[-1])
        self.attempted += 1
        # The model follows what was asked for: a write that failed also
        # shows later as wrong answers and a wrong final live set.
        if op == "insert":
            self.model.insert(rid)
            self.live.append(rid)
        else:
            self.model.delete(rid)
            self.live.remove(rid)
            self.spare.append(rid)
        self.oracle.set_live(self.live)
        if error is not None or not ok:
            self.failed += 1
            self.note(error or f"{op} of rid {rid} found nothing")

    def round(self) -> None:
        sizes = self.sizes[self.size_cursor:
                           self.size_cursor + self.writes_per_round]
        self.size_cursor += self.writes_per_round
        if len(sizes) < self.writes_per_round:
            raise Failure("request sizes exhausted; raise MAX_ROUNDS")
        for i in range(self.writes_per_round):
            if i % 2 == 0:
                op = "insert"
                rid = self.spare.pop(int(self.rng.integers(len(self.spare))))
            else:
                op = "delete"
                rid = self.live[int(self.rng.integers(len(self.live)))]
            n = int(sizes[i])
            fresh = self.fresh(n - 2 - n // 4)
            self.query([self.last_written, rid] + fresh + fresh[:n // 4])
            self.write(op, rid, checkpoint=i == self.writes_per_round - 1)
            self.last_written = rid
        self.rounds_done += 1
        # Read after a fixed number of rounds, so the index size does
        # not depend on how many rounds fit in the run.
        if self.rounds_done == self.size_rounds:
            self.index_mib = file_mib(self.index.index_files())

    def write_metrics(self) -> Dict[str, float]:
        """Write throughput and latency, checkpoints included.  They are
        kept out of ``request_p50_ms``/``request_p90_ms``: each write
        waits on the disk (page writes and an fsync per commit), which
        the host shares with other tenants."""
        return {
            "write_ops_s": len(self.write_lat) / sum(self.write_lat),
            "commit_p50_ms": 1e3 * percentile(self.write_lat, 50),
            "commit_p90_ms": 1e3 * percentile(self.write_lat, 90),
        }

    def rounds_for(self, seconds: float) -> None:
        """Whole rounds until ``seconds`` have passed, at least
        ``size_rounds`` of them and MIN_REQUESTS query requests."""
        _run_rounds(self.round, deadline=time.perf_counter() + seconds,
                    enough=lambda: self.rounds_done >= self.size_rounds
                    and len(self.query_lat) >= MIN_REQUESTS)

    # -- tracing --------------------------------------------------------------

    def instrument(self, tracer: Tracer) -> Dict[str, Any]:
        probe: Dict[str, Any] = {"wal_bytes": 0}
        index = self.index
        wpf = index.mt.wpf
        _instrument_store(tracer, wpf.base, probe)
        _instrument_knn(tracer, probe)
        tracer.wrap(index.engine, "am_query_batch", "blobworld.query")
        tracer.wrap(index.engine, "rerank_batch", "blobworld.rerank")
        tracer.wrap(index.mt, "insert", "gist.mutate")
        tracer.wrap(index.mt, "delete", "gist.mutate")
        tracer.wrap(index.mt, "checkpoint", "storage.checkpoint")
        tracer.wrap(wpf, "commit", "storage.commit")
        wal = wpf.wal
        append = wal.append_transaction

        def counted_append(*args, **kwargs):
            size0 = wal.size_bytes()
            out = append(*args, **kwargs)
            probe["wal_bytes"] += wal.size_bytes() - size0
            return out

        tracer.replace(wal, "append_transaction", counted_append)
        probe["cache0"] = (index.cache.stats.hits, index.cache.stats.misses)
        self.tracer = tracer
        return probe

    def final_check(self) -> None:
        """Reopen through recovery: the index must hold exactly the
        model's live rids."""
        from repro.gist.mutable import MutableTree
        self.index.close()
        self.attempted += 1
        try:
            with MutableTree.open(self.index.path) as reopened:
                rids = [int(r) for node in reopened.tree.leaf_nodes()
                        for r in node.rid_array()]
        except Exception as exc:
            self.failed += 1
            self.note(f"reopen failed: {type(exc).__name__}: {exc}")
            return
        if not self.model.matches(rids):
            self.failed += 1
            self.note(f"reopened index holds {len(rids)} rids, "
                      f"the model {len(self.model.rids)}")


def run_ingest(seed: int, seconds: float, trace: bool,
               workdir: str) -> Dict[str, Any]:
    raw = inputs.make_corpus(seed, bin_centres())
    plan = inputs.make_ingest_plan(seed, IngestMixed.loaded_fraction)
    tracer = Tracer() if trace else None
    if tracer is not None:
        _trace_setup(tracer)
    setup_times, index, problems = _setups(lambda: IngestMixed(plan), raw,
                                           workdir)
    if tracer is not None:
        setup_layers = _setup_layer_times(tracer)
    result: Dict[str, Any] = {}
    session = IngestSession(index, raw, seed)
    try:
        session.round()  # untimed: lazy state settles before timing
        session.reset_timings()
        if tracer is None:
            session.rounds_for(seconds)
            result["serving_rss_mib"] = rss_now_mib()
            result["metrics"] = {
                "setup_s": statistics.median(setup_times),
                **request_figures(session.query_lat, session.queries),
                "peak_rss_mib": peak_rss_mib(),
                "index_mib": session.index_mib,
            }
            result["metrics"].update(session.write_metrics())
            result["requests"] = len(session.request_lat)
        else:
            probe = session.instrument(tracer)
            try:
                _run_rounds(session.round, rounds=session.trace_rounds)
            finally:
                tracer.restore()
                session.tracer = None
            selfs = tracer.self_times()
            totals = tracer.totals()
            layer = _tree_metrics(tracer, probe, session.queries)
            writes = len(session.write_lat)
            traced_qps = session.queries / sum(session.query_lat)
            traced_wall = sum(session.request_lat)
            unattributed = selfs.get("blobworld.query", 0.0)
            layer.update(setup_layers)
            layer.update({
                "storage.commit_s": totals.get("storage.commit", 0.0),
                "storage.wal_bytes_per_write": probe["wal_bytes"] / writes,
                "storage.checkpoint_s":
                    totals.get("storage.checkpoint", 0.0),
                "gist.mutate_s": selfs.get("gist.mutate", 0.0),
                "blobworld.unattributed_s": unattributed,
                "blobworld.rerank_s": selfs.get("blobworld.rerank", 0.0),
                "blobworld.cache_hit_rate": _hit_rate(
                    probe["cache0"], index.cache.stats),
                "trace.outside_spans_share":
                    outside_share(selfs, traced_wall),
                "trace.unattributed_share": unattributed / traced_wall,
            })
            layer.update(session.write_metrics())
            result.update(requests=len(session.request_lat),
                          self_times_s=selfs, tracer=tracer)
            session.reset_timings()
            session.rounds_for(seconds / 2)
            layer["trace.overhead_qps"] = \
                traced_qps - session.queries / sum(session.query_lat)
            result["metrics"] = layer
    finally:
        session.final_check()
    failed = session.failed
    if problems:
        failed += 1
        session.notes.extend(problems)
    result.update(attempted=session.attempted, failed=failed,
                  notes=session.notes)
    return result
