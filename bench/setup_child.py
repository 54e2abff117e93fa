"""Times `import fproot.cli` in a fresh interpreter, between two calibrations
of import-like work.

  PYTHONPATH=src python3 bench/setup_child.py

Prints the import's wall time and the calibration time: the mean of the
median of five exec units run just before the import and five run just after
it.  An exec unit unmarshals and runs a fixed module body (150 functions and
classes), as an import does.  It uses only modules every interpreter has
loaded at start-up, so it loads nothing that would shorten the import it
brackets, and nothing in fproot can change it.  run.py scales the import time
by calib.REF_EXEC_S over the calibration time.
"""

import marshal
import time

UNITS = 5
SOURCE = "\n".join(
    f"def f{k}(a, b=1):\n"
    f"    x = [a * i + b for i in range({k % 7 + 2})]\n"
    f"    return {{'k': {k}, 's': sum(x)}}\n"
    f"class C{k}:\n"
    f"    v = f{k}({k})\n"
    f"    def m(self):\n"
    f"        return self.v\n"
    for k in range(150))
CODE = marshal.dumps(compile(SOURCE, "calibration_module", "exec"))


def exec_unit():
    start = time.perf_counter()
    for _ in range(3):
        exec(marshal.loads(CODE), {"__name__": "calibration_module"})
    return time.perf_counter() - start


def median_unit():
    return sorted(exec_unit() for _ in range(UNITS))[UNITS // 2]


before = median_unit()
start = time.perf_counter()
import fproot.cli  # noqa: E402,F401
import_s = time.perf_counter() - start
print(import_s, (before + median_unit()) / 2)
