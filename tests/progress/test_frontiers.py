"""Oracle watermarks: the frontier ideal for a replayable workload."""

from repro.io.sources import CollectionWorkload
from repro.progress.frontiers import OracleWatermarks


class TestOracleWatermarks:
    def test_oracle_tracks_min_outstanding(self):
        # Event times: 3, 1, 2 — after emitting "3", "1" is outstanding.
        workload = CollectionWorkload([0, 1, 2], timestamps=[3.0, 1.0, 2.0])
        oracle = OracleWatermarks(workload, epsilon=0.0)
        wm1 = oracle.on_event(0, 3.0, now=0.0)
        assert wm1.timestamp == 1.0
        wm2 = oracle.on_event(1, 1.0, now=0.1)
        assert wm2.timestamp == 2.0
        wm3 = oracle.on_event(2, 2.0, now=0.2)
        assert wm3.timestamp == float("inf")

    def test_oracle_never_causes_late_records(self):
        times = [5.0, 2.0, 8.0, 3.0, 9.0, 7.0]
        workload = CollectionWorkload(range(len(times)), timestamps=times)
        oracle = OracleWatermarks(workload)
        current = float("-inf")
        for i, t in enumerate(times):
            assert t >= current, "record arrived below the oracle watermark"
            wm = oracle.on_event(i, t, now=0.0)
            if wm is not None:
                current = wm.timestamp
