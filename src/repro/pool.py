"""The one process-pool fan-out (DESIGN.md §8).

Batches of a simulation, batches of a sharded run and blocks of a
Monte-Carlo estimate are independent by construction, so all three fan
out the same way: :func:`fan_out`. Nothing else under ``src/`` starts a
process, and callers import this module only when ``n_workers > 1``, so
a serial run never loads :mod:`multiprocessing`.

Results come back through the pool's own pickle pipe. A result here is
a few hundred KB of ``float64`` per 0.7-12.5 CPU seconds of batch, or
one summed ``(n_sites, T+1)`` count matrix per worker for a Monte-Carlo
estimate (its blocks go out as one contiguous run per worker), and a
pickle round trip of that costs about as much as a copy (DESIGN.md §8
has the measurements), so there is no second transport to choose.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Iterable, List, Optional, Tuple

from repro.errors import FanOutError

__all__ = ["fan_out"]

# Per-worker-process state, installed by the pool initializer: the
# (task, shared) pair crosses once per worker instead of once per item.
_WORKER: Optional[Tuple[Callable[[Any, Any], Any], Any]] = None


def _init_worker(task: Callable[[Any, Any], Any], shared: Any) -> None:
    global _WORKER
    _WORKER = (task, shared)


def _run_item(item: Any) -> Any:
    task, shared = _WORKER  # type: ignore[misc]
    return task(shared, item)


def fan_out(
    task: Callable[[Any, Any], Any],
    shared: Any,
    items: Iterable[Any],
    n_workers: int,
) -> List[Any]:
    """``[task(shared, item) for item in items]``, computed in worker processes.

    ``task`` must be a module-level function and ``shared``, every item
    and every result picklable. ``shared`` reaches each worker once,
    through the pool initializer, never once per item; results are
    returned in item order whatever order the workers finish in. An
    exception raised by ``task`` is re-raised here with its type. A
    worker that dies (killed, out of memory, ``os._exit``) raises
    :class:`~repro.errors.FanOutError`.

    Workers start the way the platform's default :mod:`multiprocessing`
    context starts them, as the three pools this replaced did; a task
    must therefore rely on nothing but ``shared`` and its item.
    """
    items = list(items)
    if not items:
        return []
    workers = min(n_workers, len(items))
    try:
        with ProcessPoolExecutor(
            max_workers=workers,
            initializer=_init_worker,
            initargs=(task, shared),
        ) as pool:
            return list(pool.map(_run_item, items))
    except BrokenProcessPool as exc:
        raise FanOutError(
            f"fan-out of {len(items)} {task.__module__}.{task.__qualname__} "
            f"items over {workers} workers lost a worker "
            f"process before its result arrived; nothing is returned"
        ) from exc
