"""The result line: one JSON object with exactly the keys correct,
attempted, failed and metrics, where every metric is {"value", "unit"}."""
import json
import math

KEYS = ("correct", "attempted", "failed", "metrics")


def build(correct, attempted, failed, metrics):
    """metrics: {name: (value, unit)} -> result dict."""
    return {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(v), "unit": unit} for name, (v, unit) in metrics.items()},
    }


def emit(result):
    """One line, full float precision (repr round-trips)."""
    return json.dumps(result, separators=(", ", ": "), allow_nan=False)


def parse(line):
    result = json.loads(line)
    if not isinstance(result, dict) or tuple(sorted(result)) != tuple(sorted(KEYS)):
        raise ValueError("result must have exactly the keys %s" % (KEYS,))
    if not isinstance(result["correct"], bool):
        raise ValueError("correct must be a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            raise ValueError("%s must be a whole number" % key)
    if result["attempted"] < 1:
        raise ValueError("attempted must be at least 1")
    for name, m in result["metrics"].items():
        if set(m) != {"value", "unit"} or not isinstance(m["value"], (int, float)):
            raise ValueError("metric %s must be {value, unit}" % name)
        if not math.isfinite(m["value"]):
            raise ValueError("metric %s is not finite" % name)
    return result
