"""Real-thread execution backend of the threaded sampler.

The simulated schedulers answer the paper's *performance* questions; this
backend runs the threaded sampler (``SamplerOptions(n_workers=k)``): it
updates disjoint items concurrently, which is race-free because the
conditional of item ``i`` never reads another item of the same entity
class, only the other class's factors, which are frozen during the phase.
It runs item (or degree-bucket) updates on a
:class:`concurrent.futures.ThreadPoolExecutor`; NumPy's stacked LAPACK
calls release the GIL, so on several cores the batched engine's buckets
really overlap, while on one core this only proves the decomposition.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, List, Sequence

from repro.utils.validation import check_positive

__all__ = ["ThreadPoolBackend"]


class ThreadPoolBackend:
    """Execute a per-item callable over an index set with real threads.

    Parameters
    ----------
    n_threads:
        Number of worker threads.  ``1`` degenerates to a plain loop (and
        is the default used by the test-suite for determinism).
    chunk_size:
        Indices are submitted in chunks of this size to bound executor
        overhead on large item counts.
    """

    def __init__(self, n_threads: int = 1, chunk_size: int = 64):
        check_positive("n_threads", n_threads)
        check_positive("chunk_size", chunk_size)
        self.n_threads = n_threads
        self.chunk_size = chunk_size

    def map_items(self, func: Callable[[int], None], items: Sequence[int] | Iterable[int]) -> int:
        """Call ``func(item)`` for every item; returns the number processed.

        Exceptions raised by ``func`` propagate to the caller (after all
        submitted chunks finish), matching the fail-fast behaviour the
        samplers expect.
        """
        items = list(items)
        if self.n_threads == 1:
            for item in items:
                func(int(item))
            return len(items)

        def run_chunk(chunk: List[int]) -> None:
            for item in chunk:
                func(int(item))

        chunks = [items[i:i + self.chunk_size]
                  for i in range(0, len(items), self.chunk_size)]
        with ThreadPoolExecutor(max_workers=self.n_threads) as pool:
            futures = [pool.submit(run_chunk, chunk) for chunk in chunks]
            for future in futures:
                future.result()
        return len(items)
