"""One benchmark process: set up a workload, run it, check it.

    python3 perfbench/worker.py WORKLOAD MODE SEED SECONDS

``run.py`` starts this script; every run of the program happens in a
fresh process like this one.  MODE is

* ``setup``    -- set up the workload and exit (a set-up time sample);
* ``measure``  -- set up, run the untraced pass for SECONDS, check;
* ``traced``   -- set up, run the pass with the layer wrappers
  installed, remove them, check.

The last line of standard output is one JSON object.  Set-up time runs
from the first statement of this script, before the program is
imported.
"""

import time

START = time.perf_counter()

import importlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from common import counter_delta, peak_rss_mb  # noqa: E402

MODES = ("setup", "measure", "traced")
SETUP_CALIBRATIONS = 5


def main(argv: list[str]) -> int:
    workload, mode, seed, seconds = argv
    if mode not in MODES:
        raise SystemExit(f"unknown mode {mode!r}")
    module = importlib.import_module(workload)
    from repro.runtime import STATS

    state = module.setup(int(seed))
    result = {"setup_s": time.perf_counter() - START,
              "setup_counters": counter_delta({}, STATS.snapshot())}
    # The host's speed right after set-up, to normalise ``setup_s``;
    # imported only now so that building its arrays is not set-up time.
    from calibration import Calibration
    host = Calibration()
    host.sample(SETUP_CALIBRATIONS)
    result["setup_calibration_s"] = host.samples
    if mode == "setup":
        teardown = getattr(module, "teardown", None)
        if teardown is not None:
            teardown(state)
        print(json.dumps(result))
        return 0

    if mode == "traced":
        from layers import LayerTracer, Patches
        tracer = LayerTracer()
        before = STATS.snapshot()
        with Patches(tracer):
            op_s = module.run_pass(state, float(seconds))
        result["traced"] = {"self_s": tracer.self_s,
                            "calls": tracer.calls,
                            "counters": counter_delta(before,
                                                      STATS.snapshot())}
    else:
        op_s = module.run_pass(state, float(seconds))
    result["op_s"] = op_s
    result["calibration_s"] = state.calibration.samples
    result["rss_mb"] = peak_rss_mb()
    result["checks"], result["failures"] = module.check(state)
    result.update(module.extras(state))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
