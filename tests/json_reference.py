"""A test-only reference for fproot's JSON output: every non-finite float
replaced by None, then the stdlib's json.dumps with two-space indent, sorted
keys and allow_nan=False, independent of the writer `fproot.exactlin.dump_json`."""

import json
import math


def _strict(x):
    """x with every non-finite float replaced by None, so that it serializes
    as strict JSON (null instead of a bare Infinity or NaN)."""
    if isinstance(x, float) and not math.isfinite(x):
        return None
    if isinstance(x, dict):
        return {k: _strict(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_strict(v) for v in x]
    return x


def reference_json(x):
    """x as sorted, strict JSON with two-space indent (no final newline)."""
    return json.dumps(_strict(x), indent=2, sort_keys=True, allow_nan=False)
