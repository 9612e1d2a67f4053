"""The benchmark's tracer must find every package attribute it wraps, so a
refactor that renames or stops importing one shows here and not only in a
traced benchmark run."""

import sys
from pathlib import Path

from relaycap import cutset, scheduler

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
