"""Outcome checks shared by the in-process worker and the CLI harness."""

from __future__ import annotations

import math


def judge(rows, tols) -> dict:
    """Summarise verification outcomes against each case's default tolerance.

    ``rows`` yields ``(case_id, lhs, rhs, abs_error, passed, work)``; ``tols``
    maps a case id to its default ``(abs_tol, rel_tol)``. ``passed`` is read by
    truthiness: the JSON report writes ``"pass":1`` where the comparison
    returned ``numpy.bool_``. The margin of an outcome is
    ``abs_error / (abs_tol + rel_tol * max(|lhs|, |rhs|))``. A passing outcome
    whose margin exceeds 1, or is not finite, is counted as inconsistent.
    """
    n = failed = inconsistent = 0
    max_margin = 0.0
    work: dict[str, int] = {}
    failures = []
    for case_id, lhs, rhs, abs_error, passed, case_work in rows:
        n += 1
        work[case_id] = work.get(case_id, 0) + case_work
        finite = all(isinstance(v, (int, float)) and math.isfinite(v)
                     for v in (lhs, rhs, abs_error))
        margin = math.inf
        if finite:
            abs_tol, rel_tol = tols[case_id]
            margin = abs_error / (abs_tol + rel_tol * max(abs(lhs), abs(rhs)))
            max_margin = max(max_margin, margin)
        if not passed:
            failed += 1
            failures.append(case_id)
        elif not margin <= 1.0:
            inconsistent += 1
            failures.append(case_id)
    return {"outcomes": n, "failed": failed, "inconsistent": inconsistent,
            "max_margin": max_margin, "work": work, "failures": failures[:5]}
