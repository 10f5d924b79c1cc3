"""Exact output checks that do not trust negbound's own arithmetic.

The benchmark builds its own copy of each model's lattice (Gram matrix,
canonical class, polarization, chi, c2) from the textbook construction,
pairs classes as a^T G b in exact integers and rationals, lists the
(-1)-classes of the plane blown up at n <= 8 points from their classical
types instead of by search, and decides negative definiteness by an
LDL^T factorisation rather than by minors.  Every check returns a list of
problems; an empty list means the output is correct.
"""

from __future__ import annotations

import csv
import io
import json
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations
from math import lcm

# Number of (-1)-classes on the plane blown up at n general points.
CLASSICAL_MINUS_ONE_COUNTS = {1: 1, 2: 3, 3: 6, 4: 10, 5: 16, 6: 27, 7: 56, 8: 240}

# Types (degree d, multiplicities) of the (-1)-classes dH - sum m_i E_i
# with d >= 1 on the plane blown up at up to 8 points (Manin, Cubic Forms).
_MINUS_ONE_TYPES = (
    (1, (1, 1)),
    (2, (1,) * 5),
    (3, (2,) + (1,) * 6),
    (4, (2,) * 3 + (1,) * 5),
    (5, (2,) * 6 + (1,) * 2),
    (6, (3,) + (2,) * 7),
)


@dataclass(frozen=True)
class Lattice:
    """A surface model as the benchmark sees it: integer data only."""

    labels: tuple[str, ...]
    gram: tuple[tuple[int, ...], ...]
    canonical: tuple[int, ...]
    polarization: tuple[int, ...]
    chi: int
    c2: int
    n: int
    k2_base: int

    @property
    def rank(self) -> int:
        return len(self.labels)

    def covector(self, v) -> tuple:
        """G v, with the entries of v taken as given (int or Fraction)."""
        return tuple(sum(g * x for g, x in zip(row, v) if g and x) for row in self.gram)

    def dot(self, a, b) -> Fraction:
        return Fraction(sum(x * y for x, y in zip(a, self.covector(b)) if x))

    def genus(self, c) -> Fraction:
        return (self.dot(c, c) + self.dot(self.canonical, c)) / 2 + 1

    def parse_label(self, label: str) -> tuple[int, ...]:
        """Coordinates of a class written like ``2H-E1-E2`` or ``C0+3f``."""
        coords = [0] * self.rank
        if label == "0":
            return tuple(coords)
        index = {name: i for i, name in enumerate(self.labels)}
        pos = 0
        for m in _TERM.finditer(label):
            if m.start() != pos or m.group(3) not in index:
                raise ValueError(f"unreadable class label {label!r}")
            coeff = int(m.group(2) or 1)
            coords[index[m.group(3)]] = -coeff if m.group(1) == "-" else coeff
            pos = m.end()
        if pos != len(label):
            raise ValueError(f"unreadable class label {label!r}")
        return tuple(coords)


_TERM = re.compile(r"([+-]?)(\d*)([A-Za-z][A-Za-z0-9]*)")


def _blown_up(labels, base_gram, canonical, polarization, chi, c2, n) -> Lattice:
    r = len(labels)
    gram = tuple(
        tuple(
            base_gram[i][j] if i < r and j < r else (-1 if i == j else 0)
            for j in range(r + n)
        )
        for i in range(r + n)
    )
    base = Lattice(labels, tuple(map(tuple, base_gram)), canonical, polarization, chi, c2, 0, 0)
    k2_base = int(base.dot(canonical, canonical))
    return Lattice(
        labels=tuple(labels) + tuple(f"E{i + 1}" for i in range(n)),
        gram=gram,
        canonical=tuple(canonical) + (1,) * n,
        polarization=tuple(polarization) + (0,) * n,
        chi=chi,
        c2=c2 + n,
        n=n,
        k2_base=k2_base,
    )


def lattice_for(surface_cfg: dict) -> Lattice:
    """The model a job config describes (built-in kinds only)."""
    n = surface_cfg.get("n_blowups", 0)
    kind = surface_cfg["kind"]
    if kind == "projective_plane":
        return _blown_up(("H",), ((1,),), (-3,), (1,), 1, 3, n)
    if kind == "hirzebruch":
        e = surface_cfg["e"]
        return _blown_up(("C0", "f"), ((-e, 1), (1, 0)), (-2, -(2 + e)), (1, e + 1), 1, 4, n)
    if kind == "ruled":
        g, t = surface_cfg["genus"], surface_cfg["twist_degree"]
        return _blown_up(
            ("C0", "f"), ((t, 1), (1, 0)), (-2, 2 * g - 2 + t), (1, 2 * g + 1 - t),
            1 - g, 4 * (1 - g), n,
        )
    raise ValueError(f"no benchmark model for surface kind {kind!r}")


def plane_blowup(n: int) -> Lattice:
    return lattice_for({"kind": "projective_plane", "n_blowups": n})


def classical_minus_one(n: int) -> tuple[tuple[int, ...], ...]:
    """The (-1)-classes on the plane blown up at n <= 8 points, sorted."""
    found = set()
    for i in range(n):
        found.add((0,) + tuple(int(j == i) for j in range(n)))
    for d, mults in _MINUS_ONE_TYPES:
        if len(mults) > n:
            continue
        for points in combinations(range(n), len(mults)):
            # every distinct assignment of the multiplicities to the points
            for perm in set(permutations(mults)):
                coords = [0] * n
                for p, m in zip(points, perm):
                    coords[p] = -m
                found.add((d,) + tuple(coords))
    return tuple(sorted(found))


def minus_one_chain(n: int) -> tuple[tuple[int, ...], ...]:
    """Candidates on the plane blown up at n infinitely near points of a
    chain: E_i - E_{i+1}, E_n, and the line H - E_1 - E_2."""

    def unit(i: int) -> list[int]:
        return [int(j == i) for j in range(n + 1)]

    curves = [tuple(a - b for a, b in zip(unit(i), unit(i + 1))) for i in range(1, n)]
    curves.append(tuple(unit(n)))
    curves.append(tuple(a - b - c for a, b, c in zip(unit(0), unit(1), unit(2))))
    return tuple(curves)


def is_negative_definite(gram) -> bool:
    """-G positive definite, decided by an LDL^T factorisation without
    pivoting: every pivot of -G must be positive."""
    a = [[-Fraction(x) for x in row] for row in gram]
    k = len(a)
    for i in range(k):
        d = a[i][i]
        if d <= 0:
            return False
        for r in range(i + 1, k):
            f = a[r][i] / d
            if f:
                for c in range(i + 1, k):
                    a[r][c] -= f * a[i][c]
    return True


def _scaled(v) -> tuple[int, ...]:
    """A positive integer multiple of the rational vector v."""
    den = lcm(*(Fraction(x).denominator for x in v))
    return tuple(int(Fraction(x) * den) for x in v)


def check_zariski(lat: Lattice, divisor, candidates, covectors, nef, support, coeffs) -> list[str]:
    """The defining properties of D = P + sum a_i E_i relative to
    ``candidates``, whose covectors G c are passed in precomputed."""
    problems = []
    recombined = list(nef)
    for a, e in zip(coeffs, support):
        recombined = [x + a * y for x, y in zip(recombined, e)]
    if tuple(recombined) != tuple(Fraction(x) for x in divisor):
        problems.append("P + N does not recombine to D")
    if any(a <= 0 for a in coeffs):
        problems.append("non-positive coefficient in N")
    if any(tuple(e) not in candidates for e in support):
        problems.append("support curve outside the candidate set")
    if not is_negative_definite([[lat.dot(a, b) for b in support] for a in support]):
        problems.append("support Gram matrix is not negative definite")
    if any(lat.dot(nef, e) != 0 for e in support):
        problems.append("P is not orthogonal to the support")
    p = _scaled(nef)
    if any(sum(x * y for x, y in zip(p, cov)) < 0 for cov in covectors):
        problems.append("P is negative against a candidate curve")
    if lat.dot(nef, nef) < 0:
        problems.append("P has negative self-intersection")
    return problems


# --- CLI reports ----------------------------------------------------------

_ANNOTATED = re.compile(r"^(-?\d+/\d+) \(~?[^)]*\)$")


def report_rows(text: str, fmt: str) -> list[dict]:
    """Rows of a CLI report in any format, as str-or-None cells: lists
    space-joined, booleans ``true``/``false``, absent values None."""
    if fmt == "json":
        return [{k: _cell(v) for k, v in row.items()} for row in json.loads(text)["rows"]]
    if fmt == "csv":
        return [
            {k: (v if v != "" else None) for k, v in row.items()}
            for row in csv.DictReader(io.StringIO(text))
        ]
    lines = text.splitlines()
    if not (lines[0].startswith("surface: ") and lines[2].startswith("task: ")):
        raise ValueError("table report lacks its surface/task header")
    if lines[3] == "(no rows)":
        return []
    columns = [(m.group(), m.start()) for m in re.finditer(r"\S+", lines[3])]
    rows = []
    for line in lines[4:]:
        if line.startswith("discrepancy "):
            break
        row = {}
        for i, (name, start) in enumerate(columns):
            end = columns[i + 1][1] if i + 1 < len(columns) else None
            raw = line[start:end].rstrip()
            m = _ANNOTATED.match(raw)
            row[name] = None if raw == "-" else (m.group(1) if m else raw)
        rows.append(row)
    return rows


def _cell(value) -> str | None:
    if value is None:
        return None
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        return " ".join(str(v) for v in value)
    return str(value)


def _coords(cell: str) -> tuple[Fraction, ...]:
    return tuple(Fraction(x) for x in cell.split())


def _rule_case(lat: Lattice) -> tuple[str, str]:
    rule = "blowup_chi_ge1" if lat.chi >= 1 else "blowup_chi_lt1"
    return rule, ("k2_le_n" if lat.k2_base <= lat.n else "k2_gt_n")


def _check_bound_row(lat: Lattice, row: dict, degree: int) -> list[str]:
    problems = []
    if (row["rule"], row["case"]) != _rule_case(lat):
        problems.append(f"rule/case {row['rule']}/{row['case']} fired for chi={lat.chi}, "
                        f"K^2={lat.k2_base}, n={lat.n}")
    if int(row["n"]) != lat.n or int(row["degree"]) != degree:
        problems.append("row n or degree does not match the job")
    terms = [Fraction(row[k]) for k in ("term_pivot_upper", "term_pivot_lower", "term_unit_pivot") if row[k]]
    if not terms or Fraction(row["bound"]) != min(terms):
        problems.append("bound is not the minimum of its populated terms")
    return problems


def check_cli_report(config: dict, text: str, fmt: str) -> list[str]:
    """Check one CLI report against the job that produced it."""
    lat = lattice_for(config["surface"])
    params = config.get("params", {})
    rows = report_rows(text, fmt)
    task = config["task"]
    problems: list[str] = []
    if task == "bound":
        if len(rows) != 1:
            return [f"bound report has {len(rows)} rows"]
        return _check_bound_row(lat, rows[0], params["degree"])
    if task == "family":
        if len(rows) != 1:
            return [f"family report has {len(rows)} rows"]
        row = rows[0]
        k2 = int(lat.dot(lat.canonical, lat.canonical))
        if (int(row["chi"]), int(row["k2"]), int(row["c2"])) != (lat.chi, k2, lat.c2):
            problems.append("family fiber invariants do not match the model")
        terms = [Fraction(v) for k, v in row.items() if k.startswith("term_")]
        if len(terms) != 4 or Fraction(row["bound"]) != min(terms):
            problems.append("family bound is not the minimum of its four terms")
        return problems
    if task in ("enumerate", "verify"):
        classes = [lat.parse_label(row["label"]) for row in rows]
        if "curves" in params:
            expected = [tuple(c) for c in params["curves"]]
            if classes != expected:
                problems.append("verify rows do not list the requested curves in order")
        else:
            n = lat.n
            if len(rows) != CLASSICAL_MINUS_ONE_COUNTS[n]:
                problems.append(f"{len(rows)} (-1)-classes for n={n}, expected "
                                f"{CLASSICAL_MINUS_ONE_COUNTS[n]}")
            if set(classes) != set(classical_minus_one(n)):
                problems.append(f"(-1)-classes for n={n} differ from the classical list")
        for c, row in zip(classes, rows):
            c2 = lat.dot(c, c)
            degree = lat.dot(c, lat.polarization)
            if task == "enumerate":
                if _coords(row["coords"]) != c:
                    problems.append(f"coords of {row['label']} do not match its label")
                got = tuple(Fraction(row[k]) for k in ("degree", "self_intersection", "canonical_degree", "genus"))
                if got != (degree, c2, lat.dot(lat.canonical, c), lat.genus(c)):
                    problems.append(f"numbers for {row['label']} are wrong")
            else:
                problems += _check_bound_row(lat, row, int(degree))
                if Fraction(row["witnessed_c2"]) != c2:
                    problems.append(f"witnessed_c2 of {row['label']} is not C^2 = {c2}")
                if row["satisfied"] != ("true" if c2 >= Fraction(row["bound"]) else "false"):
                    problems.append(f"satisfied flag of {row['label']} is wrong")
        return problems
    if task == "zariski":
        if params.get("candidates", "minus_one") == "minus_one":
            candidates = classical_minus_one(lat.n)
        else:
            candidates = tuple(tuple(c) for c in params["candidates"])
        nef = _coords(rows[0]["coords"])
        support = [tuple(int(x) for x in _coords(r["coords"])) for r in rows[1:]]
        coeffs = [Fraction(r["coefficient"]) for r in rows[1:]]
        if rows[0]["component"] != "nef_part":
            problems.append("first zariski row is not the nef part")
        return problems + check_zariski(
            lat, params["divisor"], set(candidates),
            [lat.covector(c) for c in candidates], nef, support, coeffs,
        )
    return [f"unknown task {task!r}"]
