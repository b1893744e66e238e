"""Verification report records shared by the catalog, engine, and CLI.

``json`` and ``decimal`` are imported by the functions that use them, so a
run that prints text pays for neither.
"""

import time

from ._record import Record

PASS = "pass"
FAIL = "fail"
REPORT_ONLY_PASS = "report-only-pass"
REPORT_ONLY_FAIL = "report-only-fail"


class VerificationReport(Record):
    """Outcome of one verification item.

    ``first_violation`` is a (index, value) pair and must be present
    exactly when the item failed.  ``detail`` carries item-specific extras
    (e.g. the minimal consistent prefix of a periodicity check).
    """

    __slots__ = ()
    _fields = ("name", "status", "certified_order", "first_violation", "elapsed", "detail")

    def __new__(cls, name, status, certified_order, first_violation=None, elapsed=0.0,
                detail=None):
        return Record.__new__(cls, name, status, certified_order, first_violation, elapsed,
                              {} if detail is None else detail)

    @property
    def ok(self):
        """True unless this item is a hard failure (report-only never fails a run)."""
        return self.status != FAIL

    def to_dict(self):
        violation = None
        if self.first_violation is not None:
            index, value = self.first_violation
            violation = {"index": index, "value": value}
        d = {
            "name": self.name,
            "status": self.status,
            "certified_order": self.certified_order,
            "first_violation": violation,
            "elapsed_ms": round(self.elapsed * 1000.0, 3),
        }
        if self.detail:
            d["detail"] = self.detail
        return d


def make_report(name, violation, certified_order, start, report_only=False, detail=None):
    """Report of one item, timed from ``start`` (a ``perf_counter`` reading).

    The item passes when ``violation`` is None.  Every status is chosen here.
    """
    if report_only:
        status = REPORT_ONLY_PASS if violation is None else REPORT_ONLY_FAIL
    else:
        status = PASS if violation is None else FAIL
    return VerificationReport(
        name=name,
        status=status,
        certified_order=certified_order,
        first_violation=violation,
        elapsed=time.perf_counter() - start,
        detail=detail,
    )


def first_violation(pairs):
    """``(n, got - expected)`` for the first of the (got, expected) pairs that differ, or None."""
    for n, (got, expected) in enumerate(pairs):
        if got != expected:
            return (n, got - expected)
    return None


def int_text(n):
    """Decimal digits of ``n``, exact at any size.

    ``str`` refuses integers past the interpreter's digit limit (4300 by
    default), and that limit is process-wide, so it is left alone: such an
    integer is written through ``decimal``.
    """
    try:
        return str(n)
    except ValueError:
        import decimal

        return str(decimal.Decimal(n))


def _json_text(value, level=0):
    """``json.dumps(value, indent=2)``, with integers of any size written exactly."""
    import json

    if isinstance(value, int) and not isinstance(value, bool):
        return int_text(value)
    if isinstance(value, dict) and value:
        items = [f"{json.dumps(k)}: {_json_text(v, level + 1)}" for k, v in value.items()]
        brackets = "{}"
    elif isinstance(value, list) and value:
        items = [_json_text(v, level + 1) for v in value]
        brackets = "[]"
    else:
        return json.dumps(value)
    indent = "\n" + "  " * (level + 1)
    return f"{brackets[0]}{indent}{(',' + indent).join(items)}\n{'  ' * level}{brackets[1]}"


def reports_to_json(reports):
    return _json_text([r.to_dict() for r in reports])


def reports_to_text(reports):
    """Fixed-width summary table; deliberately excludes timing for determinism.

    The note is an item's evaluation error, else its first violation,
    else its other details."""
    name_width = max([len(r.name) for r in reports] + [4])
    status_width = max([len(r.status) for r in reports] + [6])
    lines = [f"{'name':<{name_width}}  {'status':<{status_width}}  {'order':>6}  note"]
    lines.append("-" * (name_width + status_width + 16))
    for r in reports:
        note = ""
        if "error" in r.detail:
            note = f"error: {r.detail['error']}"
        elif r.first_violation is not None:
            index, value = r.first_violation
            note = f"first violation at n={index}: {int_text(value)}"
        elif r.detail:
            note = ", ".join(f"{k}={v}" for k, v in sorted(r.detail.items()))
        lines.append(
            f"{r.name:<{name_width}}  {r.status:<{status_width}}  "
            f"{r.certified_order:>6}  {note}".rstrip()
        )
    counts = {}
    for r in reports:
        counts[r.status] = counts.get(r.status, 0) + 1
    summary = ", ".join(f"{v} {k}" for k, v in sorted(counts.items()))
    lines.append(f"total: {len(reports)} items ({summary})")
    return "\n".join(lines)
