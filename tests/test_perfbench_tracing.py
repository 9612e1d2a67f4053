"""The benchmark's tracer must find every package attribute it wraps, so a
refactor that renames or stops importing one shows here and not only in a
traced benchmark run."""

import sys
from collections import Counter
from pathlib import Path

from relaycap import DetNetwork, cutset, scheduler

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_and_restores_every_span(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        import tracing

        tracer = tracing.Tracer()
        try:
            missing = tracer.install()
            wrapped = len(tracer.installed)
        finally:
            left = tracer.restore()
        assert missing == []
        assert wrapped == len(tracing.WRAPPED)
        assert left == []
        assert scheduler.in_det_cutset is cutset.in_det_cutset
    finally:
        for name in ("tracing", "workloads"):
            sys.modules.pop(name, None)


def test_one_traced_op_records_each_layer_it_crosses(monkeypatch):
    # The per-layer metrics read these spans; a speed-up that stops calling
    # a wrapped name through its module would leave a layer with no span.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        import tracing

        tracer = tracing.Tracer()
        net = DetNetwork((3, 2), (2, 1), (2, 1), (3, 2))
        try:
            assert tracer.install() == []
            sched = scheduler.divide_and_conquer(net, (2, 1, 1, 1))
            msgs = {(0, "A"): (1, 0), (0, "B"): (1,), (1, "A"): (0,), (1, "B"): (1,)}
            assert scheduler.simulate_schedule(sched, msgs).ok
        finally:
            assert tracer.restore() == []
        names = Counter(span[0] for span in tracer.spans)
        for name in (
            "cutset.in_det_cutset",
            "scheduler.validate_schedule",
            "detnet.relay_uplink_receive",
            "detnet.node_downlink_receive",
        ):
            assert names[name] >= 1, (name, names)
    finally:
        for name in ("tracing", "workloads"):
            sys.modules.pop(name, None)
