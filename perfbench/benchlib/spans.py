"""Span self times.

A span is [name, layer, start_ns, end_ns, parent, op, rank, bytes]; parent
is the index of the enclosing span or -1.  A span's self time is its
duration minus the part of its interval that its children cover (children
may overlap one another, e.g. per-rank spans recorded from rank threads).
"""
from collections import defaultdict, namedtuple

Span = namedtuple("Span", "name layer start end parent op rank bytes")


def load(rows):
    return [Span(*row) for row in rows]


def covered(interval, children):
    """Length of the union of `children` intervals clipped to `interval`."""
    lo, hi = interval
    clipped = sorted((max(lo, a), min(hi, b)) for a, b in children if min(hi, b) > max(lo, a))
    total = 0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans):
    """Self time (ns) of every span, in input order."""
    children = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    return [
        (s.end - s.start) - covered((s.start, s.end), children.get(i, ()))
        for i, s in enumerate(spans)
    ]


def layer_self_ns(spans):
    """Total self time per layer."""
    totals = defaultdict(int)
    for s, t in zip(spans, self_times(spans)):
        totals[s.layer] += t
    return dict(totals)
