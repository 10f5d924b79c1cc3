"""Command-line front end.

Subcommands: ``bound``, ``zariski``, ``enumerate``, ``verify``, ``family``.
Each reads a JSON job configuration (``--config``), checks it against the
``JOB``, ``SURFACES`` and ``TASKS`` tables below, runs the task, and emits
a deterministic report as a table, CSV, or JSON (``--format``, ``--out``).

Exit codes: 0 success; 2 configuration or input error, or an unwritable
``--out`` file; 3 a verify run found a bound violation; 4 an internal
invariant breach.

Each task runner returns its report rows with exact values: ``Fraction``
cells (coordinate cells are lists of them), ``int`` cells where a report
prints an integer, strings and booleans.  Only the renderers write text:
one helper, ``_ratio``, prints every rational as canonical ``p/q`` in CSV
and JSON, and as ``p/q`` plus its integer or decimal approximation in table
cells.  JSON reports are a single object with the keys ``surface``,
``task``, ``rows``, and ``discrepancies``; CSV carries the rows with
identical numeric content.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction
from typing import Any, Callable, Iterable, NoReturn, Sequence

from .bounds import (
    RULE_BLOWUP_CHI_LT1,
    BoundReport,
    blowup_bound,
    family_bound_terms,
    inputs_for_degree,
)
from .enumeration import (
    CurveClassQuery,
    enumerate_classes,
    minus_one_candidates,
    verify_bounds,
)
from .lattice import (
    DivisorClass,
    LatticeError,
    SurfaceModel,
    blow_up,
    custom_surface,
    format_class,
    hirzebruch,
    projective_plane,
    ruled_surface,
)
from .riemann_roch import arithmetic_genus, curve_genus
from .zariski import (
    CandidateCurveSet,
    DecompositionError,
    InvariantError,
    zariski_decompose,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VERIFY = 3
EXIT_INTERNAL = 4


class ConfigError(ValueError):
    """Configuration file is malformed or incomplete for the chosen task."""


def load_config(path: str) -> dict:
    """Read a job config, check it against ``JOB`` and against the tables of
    its surface kind and task, and return it with absent defaults filled in."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    try:
        config = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    job = _fields(config, "$", JOB, "every job")
    kind, task, params = job["surface"]["kind"], job["task"], job["params"]
    job["surface"] = _fields(job["surface"], "$.surface", SURFACES[kind][1], kind)
    job["params"] = _fields(params, "$.params", TASKS[task][1], f"the {task} task")
    if task == "verify" and "curves" in params and params.keys() & _QUERY:
        _fail("$.params.curves", f"excludes the query fields {', '.join(_QUERY)}")
    return job


def _fail(path: str, message: str) -> NoReturn:
    raise ConfigError(f"config field {path}: {message}")


# A field check: called with the value and its path, raises ConfigError.
Check = Callable[[Any, str], None]

# The default of a field that has none: the section must give it.
REQUIRED = object()

# A section's table: each field the section allows -> (its check, its default).
Table = dict[str, tuple[Check, Any]]


def _fields(value: Any, path: str, table: Table, owner: str) -> dict:
    """``value`` checked against ``table``: an object that gives only fields
    the table lists, each passing its check, and every required one.  Returns
    it with each absent optional field set to its default."""
    _object(value, path)
    for key, item in value.items():
        if key not in table:
            _fail(f"{path}.{key}", f"not an allowed field for {owner}")
        table[key][0](item, f"{path}.{key}")
    for key, (_, default) in table.items():
        if default is REQUIRED and key not in value:
            _fail(f"{path}.{key}", f"required for {owner}")
    return {key: value.get(key, default) for key, (_, default) in table.items()}


def _object(value: Any, path: str) -> None:
    if type(value) is not dict:
        _fail(path, f"expected an object, got {value!r}")


def _integer(minimum: int | None = None) -> Check:
    def check(value: Any, path: str) -> None:
        if type(value) is not int:
            _fail(path, f"expected an integer, got {value!r}")
        if minimum is not None and value < minimum:
            _fail(path, f"{value} is less than the minimum of {minimum}")
    return check


def _list_of(item: Check, non_empty: bool = False) -> Check:
    def check(value: Any, path: str) -> None:
        if type(value) is not list or (non_empty and not value):
            _fail(path, f"expected a{' non-empty' if non_empty else ''} list, got {value!r}")
        for i, entry in enumerate(value):
            item(entry, f"{path}[{i}]")
    return check


def _choice(names: Iterable[str]) -> Check:
    def check(value: Any, path: str) -> None:
        if type(value) is not str or value not in names:
            _fail(path, f"{value!r} is not one of {', '.join(names)}")
    return check


def _label(value: Any, path: str) -> None:
    if type(value) is not str:
        _fail(path, f"expected a string, got {value!r}")


def _coordinate(value: Any, path: str) -> None:
    """An integer, or a string that parses as a rational, such as ``"p/q"``."""
    try:
        Fraction(value if type(value) in (int, str) else "")
    except (ValueError, ZeroDivisionError):
        _fail(path, f'expected an integer or a "p/q" string, got {value!r}')


_integers = _list_of(_integer())
_coordinates = _list_of(_coordinate, non_empty=True)
_coordinate_lists = _list_of(_coordinates)


def _candidates(value: Any, path: str) -> None:
    """``"minus_one"`` or a list of coordinate lists."""
    if value != "minus_one":
        _coordinate_lists(value, path)


def _blown_up(base: Callable[..., SurfaceModel]) -> Callable[..., SurfaceModel]:
    def build(*fields: Any, n_blowups: int) -> SurfaceModel:
        surface = base(*fields)
        return blow_up(surface, n_blowups) if n_blowups else surface
    return build


# The fields of every surface kind.  ``kind`` was checked at $.surface, where
# it picked the table.  The plane, Hirzebruch and ruled kinds are blown up at
# n_blowups further points; a custom basis lists its exceptional classes
# already, so there n_blowups only says how many trailing classes they are.
_EVERY_SURFACE: Table = {"kind": (_label, REQUIRED), "n_blowups": (_integer(0), 0)}


def _kind(
    make: Callable[..., SurfaceModel], **own: Check
) -> tuple[Callable[..., SurfaceModel], Table]:
    """A kind's constructor, which takes its own fields in table order plus
    n_blowups, and its $.surface table, in which its own fields are required."""
    return make, {**_EVERY_SURFACE, **{field: (check, REQUIRED) for field, check in own.items()}}


# Surface kind -> (constructor, $.surface table).
SURFACES = {
    "projective_plane": _kind(_blown_up(projective_plane)),
    "hirzebruch": _kind(_blown_up(hirzebruch), e=_integer(0)),
    "ruled": _kind(_blown_up(ruled_surface), genus=_integer(1), twist_degree=_integer()),
    "custom": _kind(
        custom_surface,
        basis=_list_of(_label, non_empty=True),
        gram=_list_of(_integers),
        canonical=_integers,
        polarization=_integers,
        chi=_integer(),
        c2=_integer(),
    ),
}


def _surface(value: Any, path: str) -> None:
    """An object whose ``kind`` names a ``SURFACES`` table."""
    _object(value, path)
    if "kind" not in value:
        _fail(f"{path}.kind", "required for every surface")
    _choice(SURFACES)(value["kind"], f"{path}.kind")


def build_surface(surface_cfg: dict) -> SurfaceModel:
    make, table = SURFACES[surface_cfg["kind"]]
    fields = (surface_cfg[field] for field in table if field not in _EVERY_SURFACE)
    try:
        return make(*fields, n_blowups=surface_cfg["n_blowups"])
    except LatticeError as exc:  # fields no smooth surface of the kind has
        _fail("$.surface", str(exc))


def describe_surface(surface: SurfaceModel) -> dict:
    return {
        "kind": surface.kind,
        "params": dict(surface.params),
        "n_blowups": surface.n_blowups,
        "rank": surface.rank,
        "basis": list(surface.lattice.basis_labels),
        "chi": surface.chi,
        "c2": surface.c2,
        "k2": surface.k2,
        "a0": surface.a0,
        "h2": surface.h2,
        "canonical": list(surface.canonical.coords),
        "polarization": list(surface.polarization.coords),
    }


def _discrepancies(surface: SurfaceModel, rows: list[dict]) -> list[dict]:
    """Known stated-vs-computed mismatches relevant to this run, so reports
    surface them instead of silently picking a side."""
    out: list[dict] = []
    if surface.kind == "hirzebruch":
        e = dict(surface.params)["e"]
        out.append(
            {
                "id": "hirzebruch-polarization-square",
                "computed": Fraction(e + 2),
                "stated": Fraction(e + 1),
                "note": (
                    "the intersection form [[-e,1],[1,0]] forces "
                    "(C0+(e+1)f)^2 = e+2; the value e+1 is sometimes stated "
                    "for this polarization"
                ),
            }
        )
    if any(row.get("rule") == RULE_BLOWUP_CHI_LT1 for row in rows):
        out.append(
            {
                "id": "chi-lt1-unit-pivot-constant",
                "computed": Fraction(-3),
                "stated": Fraction(-4),
                "note": (
                    "the unit-pivot term of the chi<1 bound uses constant -3, "
                    "which the general derivation gives; a worked "
                    "ruled-surface specialization states -4"
                ),
            }
        )
    return out


def _bound_row(report: BoundReport, degree: int, n: int) -> dict:
    return {
        "rule": report.rule,
        "case": report.case,
        "n": n,
        "degree": degree,
        "term_pivot_upper": report.term_pivot_upper,
        "term_pivot_lower": report.term_pivot_lower,
        "term_unit_pivot": report.term_unit_pivot,
        "bound": report.bound,
        "hypotheses": " ".join(report.hypotheses),
    }


def run_bound(surface: SurfaceModel, params: dict) -> list[dict]:
    inputs = inputs_for_degree(surface, params["degree"])
    return [_bound_row(blowup_bound(inputs), inputs.degree, inputs.n)]


def _parse_coords(raw: Sequence[int | str], rank: int, where: str) -> DivisorClass:
    if len(raw) != rank:
        _fail(where, f"expected {rank} coordinates, got {len(raw)}")
    return DivisorClass(tuple(raw))


def _curves(surface: SurfaceModel, params: dict, field: str) -> tuple[DivisorClass, ...]:
    """The curve classes in ``params[field]``; a non-curve or a repeated candidate exits 2."""
    curves, first = [], {}
    for i, raw in enumerate(params[field]):
        where = f"$.params.{field}[{i}]"
        curve = _parse_coords(raw, surface.rank, where)
        try:
            curve_genus(surface, curve)
        except LatticeError as exc:
            _fail(where, str(exc))
        j = first.setdefault(curve.coords, i)
        if field == "candidates" and j != i:
            _fail(where, f"duplicate of {field}[{j}]")
        curves.append(curve)
    return tuple(curves)


def run_zariski(surface: SurfaceModel, params: dict) -> list[dict]:
    divisor = _parse_coords(params["divisor"], surface.rank, "$.params.divisor")
    if params["candidates"] == "minus_one":
        candidates = minus_one_candidates(surface)
    else:
        candidates = CandidateCurveSet(curves=_curves(surface, params, "candidates"))
    dec = zariski_decompose(surface, divisor, candidates)
    rows = [{"component": "nef_part", "coefficient": None, "coords": list(dec.nef_part.coords)}]
    by_coords = sorted(
        zip(dec.support, dec.coefficients), key=lambda pair: pair[0].coords
    )
    for curve, coeff in by_coords:
        rows.append(
            {
                "component": format_class(surface.lattice, curve),
                "coefficient": coeff,
                "coords": list(curve.coords),
            }
        )
    return rows


def _enumerate(surface: SurfaceModel, params: dict) -> tuple[DivisorClass, ...]:
    """The classes the query in ``params`` asks for on ``surface``."""
    try:
        query = CurveClassQuery(surface, *(params[field] for field in _QUERY))
    except ValueError as exc:  # the table already checked max_degree
        _fail("$.params.self_intersection", str(exc))
    try:
        return enumerate_classes(query)
    except LatticeError as exc:  # a surface enumeration does not cover
        _fail("$.surface", str(exc))


def run_enumerate(surface: SurfaceModel, params: dict) -> list[dict]:
    return [
        {
            "label": format_class(surface.lattice, curve),
            "coords": list(curve.coords),
            "degree": surface.dot(curve, surface.polarization),
            "self_intersection": surface.dot(curve, curve),
            "canonical_degree": surface.dot(surface.canonical, curve),
            "genus": arithmetic_genus(surface, curve),
        }
        for curve in _enumerate(surface, params)
    ]


def run_verify(surface: SurfaceModel, params: dict) -> list[dict]:
    if params["curves"] is None:
        curves: Sequence[DivisorClass] = _enumerate(surface, params)
    else:
        curves = _curves(surface, params, "curves")
    rows = []
    for curve, report in zip(curves, verify_bounds(surface, curves)):
        row = _bound_row(report, int(surface.dot(curve, surface.polarization)), surface.n_blowups)
        row["label"] = format_class(surface.lattice, curve)
        row["witnessed_c2"] = Fraction(report.witnessed_c2)
        row["satisfied"] = bool(report.satisfied)
        rows.append(row)
    return rows


def run_family(surface: SurfaceModel, params: dict) -> list[dict]:
    chi = surface.chi
    k2 = int(surface.k2)
    l, pg = params["l"], params["pg"]
    terms = family_bound_terms(chi, k2, surface.c2, l, pg)
    row: dict[str, Any] = {"chi": chi, "k2": k2, "c2": surface.c2, "l": l, "pg": pg}
    for name, value in terms:
        row[f"term_{name}"] = value
    row["bound"] = min(value for _, value in terms)
    return [row]


# The query of ``enumerate``, and of ``verify`` when it lists no curves, in
# CurveClassQuery's order; without max_degree it runs to the degree cutoff.
_QUERY: Table = {
    "self_intersection": (_integer(), -1),
    "canonical_degree": (_integer(), -1),
    "max_degree": (_integer(1), None),
}

# Subcommand -> (help text, $.params table, runner), in --help order.  The
# bound task accepts pg, but pg does not enter the blow-up bound.
TASKS: dict[str, tuple[str, Table, Callable[[SurfaceModel, dict], list[dict]]]] = {
    "bound": (
        "evaluate the blow-up bound for a curve degree",
        {"degree": (_integer(0), REQUIRED), "pg": (_integer(0), 0)},
        run_bound,
    ),
    "zariski": (
        "decompose a pseudoeffective divisor",
        {"divisor": (_coordinates, REQUIRED), "candidates": (_candidates, "minus_one")},
        run_zariski,
    ),
    "enumerate": ("list negative curve classes on a plane blow-up", _QUERY, run_enumerate),
    "verify": (
        "check the bounds against a batch of curve classes",
        {"curves": (_coordinate_lists, None), **_QUERY},
        run_verify,
    ),
    "family": (
        "evaluate the fibered-family bound",
        {"l": (_integer(1), REQUIRED), "pg": (_integer(0), 0)},
        run_family,
    ),
}

# The top level of every job.
JOB: Table = {
    "surface": (_surface, REQUIRED),
    "task": (_choice(TASKS), REQUIRED),
    "params": (_object, {}),
}


def _ratio(value: Fraction) -> str:
    """An exact rational as canonical ``p/q``: lowest terms, q > 0, and q
    written even when it is 1, so reports compare bit-exactly."""
    return f"{value.numerator}/{value.denominator}"


def _csv_cell(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        return " ".join(_ratio(v) for v in value)
    if isinstance(value, Fraction):
        return _ratio(value)
    return str(value)


def render_csv(rows: list[dict]) -> str:
    buffer = io.StringIO()
    if rows:
        writer = csv.writer(buffer, lineterminator="\n")
        header = list(rows[0].keys())
        writer.writerow(header)
        for row in rows:
            writer.writerow([_csv_cell(row.get(key)) for key in header])
    return buffer.getvalue()


def render_json(report: dict) -> str:
    return json.dumps(report, indent=2, default=_ratio) + "\n"


def _table_cell(value: Any) -> str:
    """A rational as ``p/q (n)`` when integral, else ``p/q (~x)`` with a
    4-digit decimal; any other value as in CSV, with ``-`` for none."""
    if value is None:
        return "-"
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return f"{_ratio(value)} ({value.numerator})"
        return f"{_ratio(value)} (~{float(value):.4g})"
    return _csv_cell(value)


def render_table(report: dict) -> str:
    lines = []
    surface = report["surface"]
    params = ", ".join(f"{k}={v}" for k, v in surface["params"].items())
    lines.append(
        f"surface: {surface['kind']}"
        + (f" ({params})" if params else "")
        + f", n_blowups={surface['n_blowups']}, basis={' '.join(surface['basis'])}"
    )
    lines.append(
        f"invariants: chi={surface['chi']} c2={surface['c2']} "
        f"K^2={_ratio(surface['k2'])} a0={_ratio(surface['a0'])} H^2={_ratio(surface['h2'])}"
    )
    lines.append(f"task: {report['task']}")
    rows = report["rows"]
    if rows:
        header = list(rows[0].keys())
        cells = [[_table_cell(row.get(key)) for key in header] for row in rows]
        widths = [
            max(len(header[i]), *(len(row[i]) for row in cells))
            for i in range(len(header))
        ]
        lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
        for row in cells:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    else:
        lines.append("(no rows)")
    for disc in report["discrepancies"]:
        lines.append(
            f"discrepancy {disc['id']}: computed {_ratio(disc['computed'])} vs "
            f"stated {_ratio(disc['stated'])} ({disc['note']})"
        )
    return "\n".join(lines) + "\n"


def run(config: dict, task: str) -> tuple[dict, int]:
    """Execute a validated job config; returns the report and the number of
    its rows whose ``satisfied`` is false (failed verifications)."""
    if config["task"] != task:
        _fail("$.task", f"{config['task']!r} does not match the {task!r} subcommand")
    surface = build_surface(config["surface"])
    rows = TASKS[task][2](surface, config["params"])
    report = {
        "surface": describe_surface(surface),
        "task": task,
        "rows": rows,
        "discrepancies": _discrepancies(surface, rows),
    }
    return report, sum(row.get("satisfied") is False for row in rows)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write report file {out!r}: {exc}") from exc


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="negbound",
        description=(
            "Exact lattice models of blown-up surfaces: evaluate curve "
            "negativity bounds, compute Zariski decompositions, enumerate "
            "and verify negative classes."
        ),
    )
    sub = parser.add_subparsers(dest="task", required=True)
    for task, (help_text, _, _) in TASKS.items():
        p = sub.add_parser(task, help=help_text)
        p.add_argument("--config", required=True, help="path to a JSON job config")
        p.add_argument(
            "--format",
            choices=("table", "csv", "json"),
            default="table",
            help="output format (default: table)",
        )
        p.add_argument("--out", default=None, help="write output to a file")
    args = parser.parse_args(argv)

    try:
        config = load_config(args.config)
        report, failures = run(config, args.task)
        if args.format == "json":
            text = render_json(report)
        elif args.format == "csv":
            text = render_csv(report["rows"])
        else:
            text = render_table(report)
        _emit(text, args.out)
    except (ConfigError, LatticeError, DecompositionError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InvariantError as exc:
        print(f"internal invariant breach: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # a bug: one line and exit 4, never a traceback
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    if failures:
        print(f"verification failed for {failures} class(es)", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
