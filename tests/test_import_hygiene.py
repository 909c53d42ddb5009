"""The discrete-event import path loads only the code a DES run uses.

``asyncio`` (with ``ssl``, ``socket`` and ``subprocess`` behind it) belongs
to the realtime backend, and ``concurrent.futures``/``multiprocessing`` to
the parallel sweep and the sharded backend.  Importing the package, the cell
config and the protocol registry must load none of them; the backends that
need them must still load on first use.  Each check runs in a fresh
interpreter, because ``sys.modules`` in the test process is shared with
every test that ran before.
"""

import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

UNUSED_BY_DES = ("asyncio", "ssl", "concurrent.futures", "multiprocessing")


def _run_fresh(body: str) -> dict:
    code = f"import json, sys\nsys.path.insert(0, {SRC!r})\n{body}"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_des_import_path_loads_no_unused_backend():
    loaded = _run_fresh(
        "import repro, repro.bench.config, repro.protocols.registry\n"
        f"print(json.dumps([m for m in {UNUSED_BY_DES!r} if m in sys.modules]))"
    )
    assert loaded == []


def test_realtime_backend_loads_on_first_use():
    row = _run_fresh(
        "from repro.runtime import RealtimeRuntime, Runtime, build_runtime\n"
        "runtime = build_runtime('realtime')\n"
        "print(json.dumps({\n"
        "    'type': type(runtime) is RealtimeRuntime,\n"
        "    'runtime': isinstance(runtime, Runtime),\n"
        "    'asyncio': 'asyncio' in sys.modules,\n"
        "}))"
    )
    assert row == {"type": True, "runtime": True, "asyncio": True}


def test_sweep_process_pool_still_runs_cells():
    # The parent's copy of the worker entry point refuses to run, so rows
    # can only come from pool workers (forked children inherit the wrapper
    # but run under another pid; spawned ones import the original).
    row = _run_fresh(
        "import functools, os\n"
        "import repro.bench.sweep as sweep\n"
        "from repro.bench.sweep import SweepRunner, expand_grid\n"
        "parent = os.getpid()\n"
        "original = sweep._run_cell_row\n"
        "@functools.wraps(original)\n"
        "def pool_only(cell):\n"
        "    if os.getpid() == parent:\n"
        "        raise RuntimeError('cell ran in the parent process')\n"
        "    return original(cell)\n"
        "cells = expand_grid({'protocol': ('iss-pbft', 'ladon-pbft'), 'n': (8, 16)},\n"
        "                    defaults=dict(duration=30.0, engine='analytical', seed=0))\n"
        "sequential = [original(cell) for cell in cells]\n"
        "sweep._run_cell_row = pool_only\n"
        "parallel = SweepRunner(workers=2).run(cells)\n"
        "print(json.dumps({\n"
        "    'identical': json.dumps(parallel, sort_keys=True)\n"
        "    == json.dumps(sequential, sort_keys=True),\n"
        "    'rows': len(parallel),\n"
        "}))"
    )
    assert row == {"identical": True, "rows": 4}
