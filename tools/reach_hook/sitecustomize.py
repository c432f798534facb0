"""Function-entry hook for ``tools/reachability.py``.

Put this directory first on ``PYTHONPATH`` and every Python process
started under it records ``(co_filename, co_firstlineno)`` of each
function it enters, in every thread, and writes the pairs whose file
lies under ``$REACH_SRC`` to a fresh file in ``$REACH_OUT`` when it
exits or replaces itself with ``os.exec*``.  Without ``$REACH_OUT``
the hook does nothing.
"""

import atexit
import os
import sys
import tempfile
import threading

_OUT = os.environ.get("REACH_OUT")
_SRC = os.path.realpath(os.environ.get("REACH_SRC", "src")) + os.sep
_seen = set()


def _profile(frame, event, arg):
    if event == "call":
        code = frame.f_code
        _seen.add((code.co_filename, code.co_firstlineno))


def _dump():
    real = {}
    lines = []
    for filename, line in list(_seen):
        if filename not in real:
            real[filename] = os.path.realpath(filename)
        if real[filename].startswith(_SRC):
            lines.append(f"{real[filename]}\t{line}\n")
    fd, _ = tempfile.mkstemp(dir=_OUT, suffix=".reach")
    with os.fdopen(fd, "w") as out:
        out.writelines(lines)


def _dumping(call):
    def wrapper(*args, **kwargs):
        sys.setprofile(None)
        _dump()
        return call(*args, **kwargs)

    return wrapper


if _OUT:
    atexit.register(_dump)
    os.execv = _dumping(os.execv)
    os.execve = _dumping(os.execve)
    threading.setprofile(_profile)
    sys.setprofile(_profile)
