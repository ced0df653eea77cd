"""Statistics shared by run.py and ab.py: medians, quartiles, regression
bounds, the A/B win rule, and the FNV-1a digest."""

import statistics


def median(values):
    return statistics.median(values)


def quartiles(values):
    """First and third quartile, as statistics.quantiles(n=4) gives them.

    A single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def spread(values):
    """Distance between the quartiles as a share of the median."""
    q1, q3 = quartiles(values)
    m = median(values)
    return (q3 - q1) / m if m else float("inf")


def worsening(parent, change, better):
    """How much worse `change` is than `parent`, as a share of `parent`.

    Negative when the change is better."""
    if parent == 0:
        return 0.0 if change == parent else float("inf")
    delta = (change - parent) / parent
    return delta if better == "lower" else -delta


def wins(parent_runs, change_runs, better):
    """Pairs in which the change beats the parent; ties count for neither."""
    if better == "lower":
        return sum(1 for p, c in zip(parent_runs, change_runs) if c < p)
    return sum(1 for p, c in zip(parent_runs, change_runs) if c > p)


def verdict(parent_runs, change_runs, better, bound):
    """Classifies one metric on one workload from paired runs.

    - "win": the change wins at least nine tenths of the pairs and the
      medians differ by more than the parent's own quartile distance;
    - "regression": the change's median is worse than the parent's by more
      than `bound` (a share of the parent's median);
    - "unresolved": the parent's spread is wider than `bound`, unless every
      change run reads better than every parent run ("better");
    - "no regression" otherwise.
    """
    pm, cm = median(parent_runs), median(change_runs)
    q1, q3 = quartiles(parent_runs)
    n = min(len(parent_runs), len(change_runs))
    if (wins(parent_runs, change_runs, better) * 10 >= 9 * n
            and abs(cm - pm) > q3 - q1 and worsening(pm, cm, better) < 0):
        return "win"
    if worsening(pm, cm, better) > bound:
        return "regression"
    if spread(parent_runs) > bound:
        if better == "lower" and max(change_runs) < min(parent_runs):
            return "better"
        if better == "higher" and min(change_runs) > max(parent_runs):
            return "better"
        return "unresolved"
    return "no regression"


def fnv1a(text):
    """64-bit FNV-1a of a string's UTF-8 bytes, as 16 hex digits."""
    h = 14695981039346656037
    for b in text.encode():
        h = ((h ^ b) * 1099511628211) & 0xFFFFFFFFFFFFFFFF
    return "%016x" % h
