"""The benchmark's traced runs wrap named library callables; each one must
exist, or every ``--trace 1`` run fails when the tracer is installed."""

import pathlib

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def test_trace_layers_installs_every_hook_and_uninstall_restores_it(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    tracer = spans.Tracer()
    try:
        spans.trace_layers(tracer)
        hooks = list(tracer._undo)
        assert hooks
        for owner, attr, original in hooks:
            assert getattr(owner, attr) is not original, (owner, attr)
    finally:
        tracer.uninstall()
    for owner, attr, original in hooks:
        assert getattr(owner, attr) is original, (owner, attr)
