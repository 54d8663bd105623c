"""``JobResult.duration`` is the virtual time at which the job finished.

``Kernel.run(until=...)`` leaves the clock at the horizon, so the clock at
the end of a run is not when the job finished: a job of 20 records at
1000/s finishes near 0.02 s whatever horizon it ran under, and a fabric
tenant finishes at its own last end-of-stream, not at the fabric's horizon.
"""

from repro.core.datastream import StreamExecutionEnvironment
from repro.fabric import FabricConfig, JobFabric
from repro.io import CollectSink, CollectionWorkload
from repro.runtime.config import EngineConfig


def _job(name="job"):
    env = StreamExecutionEnvironment(EngineConfig(), name=name)
    sink = CollectSink("out")
    env.from_workload(CollectionWorkload(range(20), rate=1000.0), name="src").map(
        lambda v: v + 1, name="map"
    ).sink(sink)
    return env, sink


class TestJobDuration:
    def test_standalone_job_reports_its_finish_not_the_horizon(self):
        env, sink = _job()
        result = env.execute(until=60.0)
        assert result.finished
        assert len(sink.results) == 20
        assert env.engine.kernel.now() == 60.0
        # the 20th record leaves the source at 0.019 s; its end-of-stream
        # reaches the sink one hop and a few service times later
        assert round(result.duration, 6) == 0.02024
        assert result.duration == env.engine.finished_at

    def test_fabric_tenant_reports_its_own_finish(self):
        fabric = JobFabric(FabricConfig(slots=1))
        env, sink = _job("solo")
        handle = fabric.submit(env)
        fabric.run()
        assert handle.state == "done"
        assert len(sink.results) == 20
        assert fabric.kernel.now() == FabricConfig().horizon
        assert round(handle.result.duration, 6) == 0.02024
        assert handle.result.duration == handle.engine.finished_at
