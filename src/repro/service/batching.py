"""Micro-batching: coalesce concurrent requests into one processing pass.

Ranking one candidate set is a single small matrix-vector product, so the
dominant serving cost is per-request overhead — the Python round trip.  Micro-batching amortizes it: requests that arrive while a
batch is in flight are queued, and the worker drains everything immediately
available (up to ``max_batch_size``), waiting at most ``max_delay_s`` after
the first item to let stragglers join.  Under heavy concurrency batches run
full and throughput approaches the per-query scoring limit; a lone request pays at
most the configured delay.

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

    def __init__(
        self,
        process: Processor,
        max_batch_size: int = 64,
        max_delay_s: float = 0.002,
    ) -> None:
        if max_batch_size < 1:
            raise ValueError(f"max_batch_size must be >= 1, got {max_batch_size}")
        if max_delay_s < 0:
            raise ValueError(f"max_delay_s must be >= 0, got {max_delay_s}")
        self._process = process
        self.max_batch_size = max_batch_size
        self.max_delay_s = max_delay_s
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
            self._drain_ready(batch)
            if len(batch) < self.max_batch_size and self.max_delay_s > 0:
                await self._wait_for_stragglers(batch)
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

    def _drain_ready(self, batch: list) -> None:
        """Pull every immediately available item, up to the batch cap."""
        while len(batch) < self.max_batch_size:
            try:
                batch.append(self._queue.get_nowait())
            except asyncio.QueueEmpty:
                return

    async def _wait_for_stragglers(self, batch: list) -> None:
        """Give late arrivals up to ``max_delay_s`` to join the batch."""
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.max_delay_s
        while len(batch) < self.max_batch_size:
            remaining = deadline - loop.time()
            if remaining <= 0:
                return
            try:
                batch.append(await asyncio.wait_for(self._queue.get(), remaining))
            except asyncio.TimeoutError:
                return
            self._drain_ready(batch)
