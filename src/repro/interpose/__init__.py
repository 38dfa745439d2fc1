"""Live interposition: the Python analogue of the paper's LD_PRELOAD shim.

The C++ prototype interposes 42 POSIX symbols; the closest faithful
mechanism in pure Python is patching the interpreter's I/O entry points
(``builtins.open`` and the ``os`` module functions) so that every file
operation a Python application performs is classified and throttled by a
real PADLL stage *before* reaching the kernel.  Token buckets here run on
the wall clock and block the calling thread for exactly the computed
wait, which is what the preload shim does to the calling application
thread.

Usage::

    stage = LiveStage(StageIdentity("s0", "job0"), pfs_mounts=("/mnt/pfs",))
    stage.create_channel("metadata", rate=500.0)
    stage.add_classifier_rule(ClassifierRule(
        "md", "metadata", op_classes=frozenset({OperationClass.METADATA})))
    with Interposer(stage):
        open("/mnt/pfs/file", "w").close()   # throttled
        open("/tmp/other", "w").close()      # passthrough (non-PFS mount)

Import cost: like every package, this one re-exports lazily, and
``LiveStage`` / ``Interposer`` import only the stage core, the classifier,
the request model and the token bucket -- 12 ``repro`` modules and no
numpy, which the preload shim's host process does not need.  Only
``LiveControlLoop`` brings in the control plane (and with it numpy).
``tests/test_runtime_closure.py`` pins the closure.
"""

from repro import lazy_exports

_EXPORTS = {
    "Interposer": "repro.interpose.monkeypatch",
    "LiveControlLoop": "repro.interpose.loop",
    "LiveStage": "repro.interpose.live_stage",
    "LiveTokenBucket": "repro.interpose.live_bucket",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
