"""Two lanes of work: the calling thread, and one persistent worker thread.

When the process may run on two CPUs, a call splits its work between the
caller and the worker, which numpy lets run at once: it releases the GIL
inside ufunc loops and BLAS calls. `two_lanes` runs two given parts;
`claim_chunks` runs a list of independent chunks, each lane taking the next
chunk not yet taken. The convolution forward and backward, the dense
backward, the RMSprop step, and CSV formatting and parsing all go through
these two. The lane count is read at each call, so setting `_LANES` to 1
runs every caller inline.
"""

from __future__ import annotations

import contextvars
import itertools
import os
from concurrent.futures import ThreadPoolExecutor, wait

# Lanes: the calling thread, and a second core's worker when the process may
# run on two CPUs.
_LANES = min(2, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)


def _new_worker() -> None:
    # A forked child has no copy of the parent's worker thread, so it gets its
    # own executor; the parent's would queue the child's work forever.
    global _WORKER
    _WORKER = ThreadPoolExecutor(max_workers=1, thread_name_prefix="lanecast-lane")


_new_worker()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_new_worker)


def two_lanes(on_caller, on_worker):
    """Run `on_worker()` on the worker while the calling thread runs
    `on_caller()`, or both inline, in that order, with one lane; return what
    `on_caller()` returns.

    The worker runs in a copy of the caller's context, so the caller's
    np.errstate and ufunc buffer size hold there too. This returns, or raises
    the first error of either lane, only once the worker has stopped, so the
    arrays both lanes write outlive it. Callers allocate the outputs and
    buffers the worker writes, so its malloc arena holds only temporaries."""
    if _LANES == 1:
        result = on_caller()
        on_worker()
        return result
    worker = _WORKER.submit(contextvars.copy_context().run, on_worker)
    try:
        result = on_caller()
    finally:
        wait((worker,))
    worker.result()
    return result


def even_chunks(items: int, most: int) -> list[tuple[int, int]]:
    """(start, stop) of chunks of at most `most` of `items` items: the fewest
    that hold them, at least one, rounded up to an even count when there are
    several (but at most one chunk an item), sizes within one item of each
    other. An even count gives each lane as many chunks when neither is
    slowed."""
    count = max(1, -(-items // most))
    if count > 1:
        count = min(items, count + count % 2)
    bounds = [items * i // count for i in range(count + 1)]
    return list(zip(bounds[:-1], bounds[1:]))


def claim_chunks(chunks, work, buffers) -> list:
    """What `work(chunk, *lane_buffers)` returns for each of `chunks`, in
    their order, the calls spread over the lanes.

    Each lane works through its own buffers, from one call of `buffers()`
    on the calling thread before either lane starts. With two lanes the
    caller takes the first chunk and the worker the second; then each takes
    the next chunk not yet taken until none is left, so a lane whose core is
    slowed (by another process, or by the host) leaves more of the chunks
    to the other. Once a call raises, neither lane takes another chunk (a
    lane's first chunk always runs), and the error reaches the caller after
    both lanes have stopped."""
    lanes = min(_LANES, len(chunks))
    sets = [buffers() for _ in range(lanes)]
    results = [None] * len(chunks)
    # one iterator for both lanes: taking its next item holds the GIL
    unclaimed = iter(range(lanes, len(chunks)))
    failed = False

    def run(lane):
        nonlocal failed
        try:
            for i in itertools.chain((lane,), unclaimed):
                results[i] = work(chunks[i], *sets[lane])
                if failed:
                    return
        except BaseException:
            failed = True
            raise

    if lanes == 2:
        two_lanes(lambda: run(0), lambda: run(1))
    elif lanes == 1:
        run(0)
    return results
