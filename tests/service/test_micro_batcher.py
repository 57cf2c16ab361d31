"""Tests for the request coalescer."""

import asyncio

import pytest

from repro.service.batching import MicroBatcher


def run(coro):
    return asyncio.run(coro)


class TestCoalescing:
    def test_concurrent_submits_form_one_batch(self):
        batches = []

        async def main():
            batcher = MicroBatcher(batches.append, max_batch_size=64)
            await batcher.start()
            await asyncio.gather(*(batcher.submit(i) for i in range(10)))
            await batcher.stop()

        run(main())
        assert sum(len(b) for b in batches) == 10
        # concurrency actually coalesced: far fewer batches than items
        assert len(batches) <= 3

    def test_max_batch_size_honored(self):
        batches = []

        async def main():
            batcher = MicroBatcher(batches.append, max_batch_size=4)
            await batcher.start()
            await asyncio.gather(*(batcher.submit(i) for i in range(10)))
            await batcher.stop()

        run(main())
        assert max(len(b) for b in batches) <= 4
        assert sorted(i for b in batches for i in b) == list(range(10))

    def test_zero_delay_still_batches_ready_items(self):
        batches = []

        async def main():
            batcher = MicroBatcher(batches.append, max_batch_size=64)
            await batcher.start()
            await asyncio.gather(*(batcher.submit(i) for i in range(8)))
            await batcher.stop()

        run(main())
        assert sum(len(b) for b in batches) == 8

    def test_lone_submit_processed_without_waiting(self):
        """A lone item is processed within a few loop turns, not on a timer."""
        batches = []

        async def main():
            batcher = MicroBatcher(batches.append, max_batch_size=64)
            await batcher.start()
            await batcher.submit("only")
            for _ in range(5):
                if batches:
                    break
                await asyncio.sleep(0)
            assert batches == [["only"]]
            await batcher.stop()

        run(main())

    def test_arrivals_during_a_batch_form_the_next_batch(self):
        """Work-conserving: everything queued while a batch runs is the next batch."""
        batches = []

        async def main():
            release = asyncio.Event()

            async def process(batch):
                batches.append(list(batch))
                if batch == ["first"]:
                    await release.wait()

            batcher = MicroBatcher(process, max_batch_size=64)
            await batcher.start()
            await batcher.submit("first")
            for _ in range(5):
                if batches:
                    break
                await asyncio.sleep(0)
            assert batches == [["first"]]
            # the processor is mid-batch: these queue behind it
            for i in range(5):
                await batcher.submit(i)
            release.set()
            await batcher.stop()

        run(main())
        assert batches == [["first"], [0, 1, 2, 3, 4]]

    def test_async_processor_supported(self):
        seen = []

        async def process(batch):
            await asyncio.sleep(0)
            seen.extend(batch)

        async def main():
            batcher = MicroBatcher(process, max_batch_size=8)
            await batcher.start()
            await asyncio.gather(*(batcher.submit(i) for i in range(5)))
            await batcher.stop()

        run(main())
        assert sorted(seen) == list(range(5))


class TestLifecycle:
    def test_submit_before_start_raises(self):
        async def main():
            batcher = MicroBatcher(lambda b: None)
            with pytest.raises(RuntimeError, match="not running"):
                await batcher.submit(1)

        run(main())

    def test_stop_drains_queue(self):
        seen = []

        async def main():
            batcher = MicroBatcher(seen.extend, max_batch_size=2)
            await batcher.start()
            for i in range(7):
                await batcher.submit(i)
            await batcher.stop()  # must process everything already queued
            assert not batcher.running

        run(main())
        assert sorted(seen) == list(range(7))

    def test_restart_after_stop(self):
        seen = []

        async def main():
            batcher = MicroBatcher(seen.extend)
            await batcher.start()
            await batcher.submit("a")
            await batcher.stop()
            await batcher.start()
            await batcher.submit("b")
            await batcher.stop()

        run(main())
        assert seen == ["a", "b"]

    def test_submit_during_stop_rejected(self):
        """No item may slip in between the drain and the worker cancel."""

        async def slow(batch):
            await asyncio.sleep(0.01)

        async def main():
            batcher = MicroBatcher(slow, max_batch_size=1)
            await batcher.start()
            await batcher.submit("a")
            stopping = asyncio.ensure_future(batcher.stop())
            await asyncio.sleep(0)  # let stop() flip the accepting flag
            with pytest.raises(RuntimeError, match="not running"):
                await batcher.submit("late")
            await stopping

        run(main())

    def test_worker_survives_processor_exception(self):
        seen = []

        def process(batch):
            if "boom" in batch:
                raise RuntimeError("processor bug")
            seen.extend(batch)

        async def main():
            batcher = MicroBatcher(process, max_batch_size=1)
            await batcher.start()
            await batcher.submit("a")
            await batcher.submit("boom")
            await batcher.submit("b")
            await batcher.stop()
            assert isinstance(batcher.last_error, RuntimeError)

        run(main())
        assert seen == ["a", "b"]

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError, match="max_batch_size"):
            MicroBatcher(lambda b: None, max_batch_size=0)
