"""Start-up hook of the traced run's service processes.

On the traced run's ``PYTHONPATH`` only.  When ``E2EBENCH_SPANS_DIR``
is set, wraps the layers' entry points (``spans.install``) before the
program starts and writes this process's spans to
``<dir>/<pid>.spans`` when it exits, normally or on SIGTERM (the fleet
supervisor terminates workers that are still shutting down).
"""

import os

_SPANS_DIR = os.environ.get("E2EBENCH_SPANS_DIR")

if _SPANS_DIR:
    import atexit
    import signal
    import sys

    sys.path.append(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    import spans

    _recorder = spans.Recorder()
    spans.install(_recorder)

    def _dump() -> None:
        _recorder.dump(os.path.join(_SPANS_DIR, f"{os.getpid()}.spans"))

    def _on_sigterm(signum, frame) -> None:
        _dump()
        os._exit(128 + signum)

    atexit.register(_dump)
    signal.signal(signal.SIGTERM, _on_sigterm)
