"""Reference values for the output checks, computed without cvwl's
``partitions`` and ``witnesses`` modules.

The separability bound is the minimum over bipartitions A|B (mode 0 in A)
of 2 (|sum_A h g| + |sum_B h g|).  With s the subset sums of the products
over modes 1..N-1 (one per bitmask of B) and T the total, that is
2 min(|s| + |T - s|) over every nonempty mask, built here by N-1 doubling
steps instead of by enumerating partition objects.
"""

from __future__ import annotations

import csv
import io
import math
import re

import numpy as np

# quadrature forms (h, g) with free gain slots, as in the paper's B_I..B_III
# and the C10 pair; a slot holds the index of the gain it takes
C1_FORMS = (
    ((1.0, -1.0, 0.0), (1.0, 1.0, ("g", 2))),
    ((0.0, 1.0, -1.0), (("g", 0), 1.0, 1.0)),
    ((1.0, 0.0, -1.0), (1.0, ("g", 1), 1.0)),
)
C10_FORMS = (
    ((1.0, -1.0, -1.0, -1.0), (1.0, 1.0, 1.0, -1.0)),
    ((0.0, 1.0, -1.0, 0.0), (("g", 0), 1.0, 1.0, ("g", 1))),
)


def subset_sum_bounds(products: np.ndarray) -> np.ndarray:
    """Genuine-entanglement sum bound for each row of a (B, N) products array."""
    products = np.atleast_2d(np.asarray(products, dtype=float))
    total = products.sum(axis=1, keepdims=True)
    sums = np.zeros((products.shape[0], 1))
    for k in range(1, products.shape[1]):
        sums = np.concatenate((sums, sums + products[:, k:k + 1]), axis=1)
    sums = sums[:, 1:]
    return 2.0 * np.min(np.abs(sums) + np.abs(total - sums), axis=1)


def quad(block: np.ndarray, coeffs) -> float:
    v = np.asarray(coeffs, dtype=float)
    return float(v @ block @ v)


def _fill(form, gains):
    return tuple(gains[c[1]] if isinstance(c, tuple) else c for c in form)


def expected_report(cov: np.ndarray, criterion: str, gains):
    """(lhs, ent_bound, steer_bound) of a criterion at the given gains."""
    n = cov.shape[0] // 2
    cxx, cpp = cov[:n, :n], cov[n:, n:]
    if criterion in ("c5", "c6", "c8"):
        h, g = np.asarray(gains.h), np.asarray(gains.g)
        var_u, var_v = quad(cxx, h), quad(cpp, g)
        bound = float(subset_sum_bounds(h * g)[0])
        steer = 2.0 * float(np.min(np.abs(h * g))) if n == 3 else None
        if criterion == "c6":
            return math.sqrt(var_u * var_v), bound / 2.0, steer / 2.0
        return var_u + var_v, bound, steer
    forms, ent, steer = {"c1": (C1_FORMS, 8.0, 4.0), "c10": (C10_FORMS, 4.0, None)}[criterion]
    gains = tuple(float(v) for v in gains)
    lhs = sum(quad(cxx, h) + quad(cpp, _fill(g, gains)) for h, g in forms)
    return lhs, ent, steer


def close(a, b, rel: float) -> bool:
    if a is None or b is None:
        return a is None and b is None
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= rel * abs(b)


def report_matches(report, expected, rel: float = 1e-9) -> bool:
    lhs, ent, steer = expected
    return (close(report.lhs, lhs, rel) and close(report.ent_bound, ent, rel)
            and close(report.steer_bound, steer, rel))


# -- reproduce CSVs -----------------------------------------------------------

GAIN_COLUMN = re.compile(r"(^|_)[gh]\d*$")
RATIO_REL = 1e-6
GAIN_TOL = 1e-4


def _last_digit(value: float) -> float:
    """One unit in the sixth significant digit, the CSV's printed precision."""
    return 0.0 if value == 0.0 else 10.0 ** (math.floor(math.log10(abs(value))) - 5)


def csv_mismatches(text: str, reference: str):
    """Differences between a reproduce CSV and its reference.

    Headers and text cells must match exactly.  Gain columns (``*_g``,
    ``*_h``, ``*_g1`` ...) may differ by GAIN_TOL * max(1, |ref|); every
    other number by RATIO_REL relative plus one unit in the sixth
    significant digit, since the CSV rounds to six digits and a change in
    the seventh can flip the last printed one.
    """
    got = list(csv.reader(io.StringIO(text)))
    ref = list(csv.reader(io.StringIO(reference)))
    if not got or got[0] != ref[0]:
        return [f"header {got[:1]} != {ref[0]}"]
    if len(got) != len(ref):
        return [f"{len(got) - 1} rows, expected {len(ref) - 1}"]
    bad = []
    header = ref[0]
    for i, (row, want) in enumerate(zip(got[1:], ref[1:]), start=1):
        if len(row) != len(want):
            bad.append(f"row {i}: {len(row)} cells, expected {len(want)}")
            continue
        for col, a, b in zip(header, row, want):
            try:
                x, y = float(a), float(b)
            except ValueError:
                if a != b:
                    bad.append(f"row {i} {col}: {a!r} != {b!r}")
                continue
            if math.isinf(y) or math.isnan(y):
                ok = a == b
            elif GAIN_COLUMN.search(col):
                ok = abs(x - y) <= GAIN_TOL * max(1.0, abs(y))
            else:
                ok = abs(x - y) <= RATIO_REL * abs(y) + _last_digit(y)
            if not ok:
                bad.append(f"row {i} {col}: {a} != {b}")
    return bad
