"""Additional kernel coverage: queue/resource interplay and stress."""

import pytest

from repro.sim import FCFSQueue, Resource, Simulator


class TestQueueStress:
    def test_many_jobs_complete_in_order(self):
        sim = Simulator()
        q = FCFSQueue(sim, "q")
        completions = []

        def submitter():
            events = [q.submit(0.5) for _ in range(200)]
            values = yield sim.all_of(events)
            completions.extend(values)

        sim.process(submitter())
        sim.run()
        assert completions == sorted(completions)
        assert completions[-1] == pytest.approx(100.0)

    def test_interleaved_producers(self):
        sim = Simulator()
        q = FCFSQueue(sim, "q")
        done = []

        def producer(tag, delay, svc):
            yield sim.timeout(delay)
            yield q.submit(svc)
            done.append((sim.now, tag))

        sim.process(producer("slowstart", 10.0, 1.0))
        sim.process(producer("early", 0.0, 3.0))
        sim.process(producer("mid", 1.0, 2.0))
        sim.run()
        # early runs [0,3), mid queues [3,5), slowstart [10,11).
        assert done == [(3.0, "early"), (5.0, "mid"), (11.0, "slowstart")]


class TestResourceStoreInterplay:
    def test_pipeline_of_resource_and_store(self):
        """A bounded worker pool feeding a results list."""
        sim = Simulator()
        pool = Resource(sim, capacity=2)
        results = []

        def worker(item):
            yield pool.acquire()
            try:
                yield sim.timeout(1.0)
                results.append(item * 2)
            finally:
                pool.release()

        for i in range(6):
            sim.process(worker(i))
        sim.run()
        assert sorted(results) == [0, 2, 4, 6, 8, 10]
        # Pool of 2, 6 one-second jobs: exactly 3 seconds.
        assert sim.now == pytest.approx(3.0)
