"""E15 — §4.2: NVRAM shifts fault tolerance from fail-stop to fast recovery.

Two measurements:

1. the recovery-time model swept over state sizes: redeploy + snapshot
   restore (DRAM) vs redeploy + heap re-mapping (NVRAM);
2. an end-to-end pipeline failure where the NVRAM-backed task resumes with
   its state intact while the DRAM-backed one restores from a checkpoint.

Expected shape: NVRAM recovery time is ~flat in state size, DRAM+checkpoint
grows linearly; the speedup crosses 10x within a few GB.
"""

from conftest import fmt, print_table

from repro.core.datastream import StreamExecutionEnvironment
from repro.core.keys import field_selector
from repro.hardware.nvram import RecoveryTimeModel
from repro.io import CollectSink, SensorWorkload
from repro.runtime.config import CheckpointConfig, EngineConfig
from repro.state import PersistentMemoryBackend

GB = 1024**3
SIZES = [64 * 1024**2, 1 * GB, 10 * GB, 100 * GB]


def model_sweep():
    model = RecoveryTimeModel()
    rows = []
    for size in SIZES:
        dram = model.dram_checkpoint_recovery(size, churn_bytes=size // 100)
        nvram = model.nvram_recovery(size)
        rows.append(
            {
                "size_gb": size / GB,
                "dram": dram.recovery_seconds,
                "nvram": nvram.recovery_seconds,
                "speedup": dram.recovery_seconds / nvram.recovery_seconds,
            }
        )
    return rows


def end_to_end(nvram: bool):
    env = StreamExecutionEnvironment(
        EngineConfig(seed=10, checkpoints=CheckpointConfig(interval=0.1), default_channel_capacity=64),
        name="nvram" if nvram else "dram",
    )
    device = {}
    factory = (lambda: device.setdefault("d", PersistentMemoryBackend())) if nvram else None
    sink = CollectSink("out")
    (
        env.from_workload(SensorWorkload(count=3000, rate=6000.0, key_count=64, seed=83))
        .key_by(field_selector("sensor"))
        .aggregate(
            create=lambda: 0, add=lambda a, _v: a + 1, name="count",
            state_backend_factory=factory,
        )
        .sink(sink)
    )
    engine = env.build()
    report = {}

    def fail():
        failed_at = engine.kernel.now()
        engine.kill_task("count[0]")
        if nvram:
            engine.recover_without_replay()
            report["resume"] = engine.kernel.now() - failed_at
        else:
            resumed = engine.recover_from_checkpoint()
            report["resume"] = resumed - failed_at

    engine.kernel.call_at(0.25, fail)
    env.execute(until=60.0)
    per_key = {}
    for r in sink.results:
        per_key[r.key] = max(per_key.get(r.key, 0), r.value)
    return {"resume": report["resume"], "counted": sum(per_key.values())}


def run_all():
    return model_sweep(), end_to_end(nvram=False), end_to_end(nvram=True)


def test_nvram_recovery(benchmark):
    sweep, dram_run, nvram_run = benchmark.pedantic(run_all, rounds=1, iterations=1)
    print_table(
        "E15 — recovery time vs state size",
        ["state (GB)", "DRAM+checkpoint (s)", "NVRAM (s)", "speedup"],
        [
            [fmt(r["size_gb"], 2), fmt(r["dram"], 3), fmt(r["nvram"], 4), fmt(r["speedup"], 1) + "x"]
            for r in sweep
        ],
    )
    print(f"end-to-end failure: DRAM restore+replay resumed in {dram_run['resume']*1e3:.1f}ms, "
          f"NVRAM re-attach in {nvram_run['resume']*1e3:.1f}ms")

    # DRAM recovery grows with state; NVRAM stays ~flat.
    assert sweep[-1]["dram"] > sweep[0]["dram"] * 100
    assert sweep[-1]["nvram"] < sweep[0]["nvram"] * 20
    assert sweep[-1]["speedup"] > 100
    # End to end: the NVRAM task resumes faster and nothing is lost in
    # either configuration (replay vs surviving state).
    assert nvram_run["resume"] <= dram_run["resume"]
    assert dram_run["counted"] == 3000
    assert nvram_run["counted"] >= 2900
