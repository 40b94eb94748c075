"""Sample statistics and the simulated-result digest."""

import hashlib
import json
import statistics


def median(values):
    return statistics.median(values)


def quartiles(values):
    """First and third quartile, as ``statistics.quantiles(n=4)`` gives
    them (its default "exclusive" method); one value is its own
    quartiles."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def spread(values):
    """Distance between the quartiles as a share of the median."""
    q1, q3 = quartiles(values)
    mid = median(values)
    return (q3 - q1) / mid if mid else float("inf")


def describe(values):
    q1, q3 = quartiles(values)
    return {"median": median(values), "q1": q1, "q3": q3,
            "min": min(values), "max": max(values), "n": len(values),
            "spread": spread(values)}


def result_digest(payload, events):
    """SHA-256 over a full-precision ``RunResult.to_payload()`` plus the
    number of events the loop dispatched.

    Keys are sorted and floats keep their shortest round-trip ``repr``,
    so two runs agree exactly when every simulated number does.
    """
    text = json.dumps({"result": payload, "events": events},
                      sort_keys=True, allow_nan=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()

