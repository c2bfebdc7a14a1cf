"""One fresh benchmark process: set up, run the program's stages, report.

Run by ``run.py``, never by hand:

    python3 perfbench/worker.py SPEC.json SPAWNED_AT

``SPEC.json`` names the stages (each an argument list for
``replyrank.cli.main``), whether to trace, and where to write the result.
``SPAWNED_AT`` is the ``time.time()`` at which the parent started this
process, so ``setup_s`` covers interpreter start, imports and the
``build-vocab`` stage.  Stages after ``build-vocab`` are timed one by one.
After the timed part, output files are hashed for the replay check.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS numpy loaded, or None if not found."""
    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*.so*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _span_cost(tracer_class, calls: int = 20000) -> float:
    """Seconds one wrapped call adds, from timing a wrapped no-op."""
    noop = tracer_class().wrap(int, "noop")
    start = time.perf_counter()
    for _ in range(calls):
        noop()
    return (time.perf_counter() - start) / calls


def _digest(path: Path) -> str:
    """Content hash: CSV bytes, or the named arrays inside an .npz."""
    digest = hashlib.sha256()
    if path.suffix == ".npz":
        import numpy as np

        with np.load(path, allow_pickle=False) as archive:
            for name in sorted(archive.files):
                array = archive[name]
                digest.update(("%s|%s|%s|" % (name, array.dtype.str, array.shape)).encode())
                digest.update(array.tobytes())
    else:
        digest.update(path.read_bytes())
    return digest.hexdigest()


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    spawned_at = float(sys.argv[2])
    sys.path.insert(0, str(Path("src").resolve()))
    from replyrank import cli

    tracer = None
    if spec["trace"]:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    stages = []
    setup_s = None
    for stage in spec["stages"]:
        sink = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink):
                if tracer is None:
                    code = cli.main(stage["argv"])
                else:
                    code = tracer.run("cli.stage", cli.main, stage["argv"], label=stage["name"])
        except Exception:  # a crash is a failed stage, reported like a non-zero exit
            traceback.print_exc()
            code = -1
        seconds = time.perf_counter() - start
        if stage["name"] == "build-vocab":
            setup_s = time.time() - spawned_at
        stages.append({"name": stage["name"], "exit": code, "seconds": seconds})
        if code != 0:
            break

    result = {
        "setup_s": setup_s,
        "stages": stages,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "blas_threads": _blas_threads(),
        "digests": {
            name: _digest(Path(path)) if Path(path).exists() else None
            for name, path in spec["artifacts"].items()
        },
    }
    if tracer is not None:
        tracer.remove()
        tracer.dump(Path(spec["spans_out"]))
        result["missing_boundaries"] = tracer.missing
        result["wrapper_cost_s"] = len(tracer.spans) * _span_cost(Tracer)
    Path(spec["result_out"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
