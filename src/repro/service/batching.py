"""Micro-batching: coalesce concurrent requests into one processing pass.

Ranking one candidate set is a single small matrix-vector product, so the
dominant serving cost is per-request overhead — the Python round trip.
Micro-batching amortizes it with a work-conserving rule: whenever the
worker is free it takes everything already queued (up to
``max_batch_size``) as one batch and processes it at once — there is no
timer and no wait for stragglers.  Requests that arrive while a batch is
being processed queue up and form the next batch, so under load batches
fill on their own, while a lone request is processed on the next
event-loop turn.

:class:`MicroBatcher` is policy-free plumbing: it neither knows what an
item is nor what processing means — the tuning service hands it a
``process(batch)`` callable.  That keeps the coalescing logic independently
testable.
"""

from __future__ import annotations

import asyncio
from typing import Any, Awaitable, Callable, Sequence

__all__ = ["MicroBatcher"]

Processor = Callable[[Sequence[Any]], "Awaitable[None] | None"]


class MicroBatcher:
    """Queue + worker turning a stream of items into micro-batches."""

    def __init__(self, process: Processor, max_batch_size: int = 64) -> None:
        if max_batch_size < 1:
            raise ValueError(f"max_batch_size must be >= 1, got {max_batch_size}")
        self._process = process
        self.max_batch_size = max_batch_size
        self._queue: "asyncio.Queue[Any]" = asyncio.Queue()
        self._worker: "asyncio.Task | None" = None
        self._stopping = False
        #: last exception that escaped the process callback (worker survives)
        self.last_error: "BaseException | None" = None

    @property
    def running(self) -> bool:
        """Whether the worker task is active and accepting submissions."""
        return (
            self._worker is not None
            and not self._worker.done()
            and not self._stopping
        )

    async def start(self) -> None:
        """Start the worker loop (idempotent)."""
        if self._worker is None or self._worker.done():
            self._stopping = False
            self._worker = asyncio.get_running_loop().create_task(self._run())

    async def stop(self) -> None:
        """Drain already-queued items, then stop the worker.

        Submissions are refused *before* the drain starts — otherwise an
        item slipping in between the drain finishing and the worker being
        cancelled would never be processed and its caller would hang.
        """
        if self._worker is None:
            return
        self._stopping = True
        await self._queue.join()
        self._worker.cancel()
        try:
            await self._worker
        except asyncio.CancelledError:
            pass
        self._worker = None

    async def submit(self, item: Any) -> None:
        """Enqueue one item for the next micro-batch."""
        if not self.running:
            raise RuntimeError("MicroBatcher is not running; call start() first")
        await self._queue.put(item)

    # -- worker ----------------------------------------------------------------

    async def _run(self) -> None:
        while True:
            batch = [await self._queue.get()]
            while len(batch) < self.max_batch_size and not self._queue.empty():
                batch.append(self._queue.get_nowait())
            try:
                result = self._process(batch)
                if asyncio.iscoroutine(result):
                    await result
            except Exception as exc:
                # the callback owns item-level error handling; a stray
                # exception must not kill the worker and strand every
                # queued request behind a dead loop
                self.last_error = exc
            finally:
                for _ in batch:
                    self._queue.task_done()
