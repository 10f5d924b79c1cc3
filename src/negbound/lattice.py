"""Exact Neron-Severi lattice models of projective surfaces and their blow-ups.

A surface lives here as pure lattice data: a labelled basis of divisor
classes with an integer Gram matrix, the canonical class K, a fixed
polarization H, and the invariants chi(O_X) and c2(X).  Blown-up points
carry no geometry, so proper and infinitely-near points are
indistinguishable at this level; every quantity served by this package
depends only on the lattice and the blow-up count n.

All arithmetic is exact.  Coordinates are `fractions.Fraction`, the Gram
matrix has integer entries, and no floating point is used anywhere.  A
pairing walks each Gram row's stored nonzero entries only, and a surface
computes K^2, -K.H and H^2 once.  The one elimination kernel lives here: a
bordered LDL^T factor (``_border``) that grows by one row at a time.  It
decides negative definiteness, backs the Hodge index check of
``custom_surface``, and serves the Zariski decomposition's support Gram.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

from .values import value


class LatticeError(ValueError):
    """Malformed lattice data or mismatched dimensions."""


# Small integer coordinates share one Fraction each, so classes kept in bulk
# (decomposition outputs, enumerated curves) hold no copies of them.
_SMALL = {i: Fraction(i) for i in range(-64, 65)}


@value
class DivisorClass:
    """A divisor class as a coordinate vector in a fixed lattice basis.

    Coordinates are rational; integral divisors have integer coordinates,
    and rational coordinates only arise as outputs of Zariski decomposition.
    """

    coords: tuple[Fraction, ...]

    # its own __init__, cheaper than the generic one: built thousands of times per decomposition
    def __init__(self, coords: Iterable[int | Fraction]) -> None:
        coords = tuple(_SMALL[c] if c in _SMALL else Fraction(c) for c in coords)
        object.__setattr__(self, "coords", coords)

    @property
    def rank(self) -> int:
        return len(self.coords)

    def _check_match(self, other: "DivisorClass") -> None:
        if len(self.coords) != len(other.coords):
            raise LatticeError(
                f"divisor classes live in different lattices: "
                f"rank {len(self.coords)} vs rank {len(other.coords)}"
            )

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        self._check_match(other)
        return DivisorClass(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        self._check_match(other)
        return DivisorClass(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "DivisorClass":
        return DivisorClass(tuple(-a for a in self.coords))

    def __mul__(self, scalar: int | Fraction) -> "DivisorClass":
        return DivisorClass(tuple(a * scalar for a in self.coords))

    __rmul__ = __mul__


@value
class IntersectionForm:
    """A labelled basis together with the symmetric integer Gram matrix."""

    basis_labels: tuple[str, ...]
    gram: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        labels = tuple(str(name) for name in self.basis_labels)
        rows = tuple(tuple(int(x) for x in row) for row in self.gram)
        object.__setattr__(self, "basis_labels", labels)
        object.__setattr__(self, "gram", rows)
        n = len(labels)
        if len(rows) != n or any(len(row) != n for row in rows):
            raise LatticeError(f"Gram matrix must be {n}x{n} to match {n} basis labels")
        for i in range(n):
            for j in range(i + 1, n):
                if rows[i][j] != rows[j][i]:
                    raise LatticeError(
                        f"Gram matrix is not symmetric at ({i},{j}): "
                        f"{rows[i][j]} != {rows[j][i]}"
                    )
        # per row, its nonzero (j, g_ij); not a field, so eq, hash and repr ignore it
        sparse = tuple(tuple((j, x) for j, x in enumerate(row) if x) for row in rows)
        object.__setattr__(self, "_sparse", sparse)

    @property
    def rank(self) -> int:
        return len(self.basis_labels)

    def basis_class(self, index: int) -> DivisorClass:
        if not 0 <= index < self.rank:
            raise LatticeError(f"basis index {index} out of range for rank {self.rank}")
        return DivisorClass(tuple(Fraction(int(i == index)) for i in range(self.rank)))


def intersect(form: IntersectionForm, a: DivisorClass, b: DivisorClass) -> Fraction:
    """Exact intersection pairing a . b = a^T G b.  Symmetric and bilinear;
    each nonzero a_i meets only the nonzero entries of Gram row i."""
    if a.rank != form.rank or b.rank != form.rank:
        raise LatticeError(
            f"coordinate length mismatch: lattice rank {form.rank}, "
            f"got vectors of rank {a.rank} and {b.rank}"
        )
    bc = b.coords
    pairs = zip(a.coords, form._sparse)
    return Fraction(sum(ai * g * bc[j] for ai, row in pairs if ai for j, g in row))


# LDL^T factor of symmetric M: per row, (L left of the unit diagonal, nonzero pivot)
Factor = tuple[tuple[tuple[Fraction, ...], Fraction], ...]


def _border(factor: Factor, column: Sequence[Fraction], diagonal: Fraction) -> Factor:
    """The factor of M bordered by the row (``column``, ``diagonal``): the new
    row of L is D^-1 L^-1 column and the new pivot the Schur complement, so a
    negative-definite M stays so exactly when that pivot is negative."""
    y: list[Fraction] = []  # L^-1 column, by forward substitution
    for (row, _), b in zip(factor, column):
        y.append(b - sum(l * yi for l, yi in zip(row, y) if l and yi))
    row = tuple(yi / d for yi, (_, d) in zip(y, factor))
    return factor + ((row, Fraction(diagonal) - sum(l * yi for l, yi in zip(row, y) if yi)),)


def is_negative_definite(gram: Sequence[Sequence[int | Fraction]]) -> bool:
    """Exact test: border the LDL^T factor row by row and stop at the first
    pivot >= 0.  By Sylvester's law of inertia, all pivots negative is
    negative definiteness.  The empty matrix counts as negative definite."""
    n = len(gram)
    rows = [[Fraction(x) for x in row] for row in gram]
    if any(len(row) != n for row in rows):
        raise LatticeError("negative-definiteness needs a square matrix")
    for i in range(n):
        for j in range(i + 1, n):
            if rows[i][j] != rows[j][i]:
                raise LatticeError(
                    f"negative-definiteness needs a symmetric matrix; "
                    f"entry ({i},{j}) = {rows[i][j]} but ({j},{i}) = {rows[j][i]}"
                )
    factor: Factor = ()
    for i, row in enumerate(rows):
        factor = _border(factor, row[:i], row[i])
        if factor[-1][1] >= 0:
            return False
    return True


@value
class SurfaceModel:
    """A smooth projective surface as lattice data plus numerical invariants.

    Construction enforces Noether's identity 12*chi = K^2 + c2.  The last
    ``n_blowups`` basis classes are the exceptional classes of blow-ups.
    ``k2``, ``a0`` and ``h2`` are computed on first use and then kept.
    """

    lattice: IntersectionForm
    canonical: DivisorClass
    polarization: DivisorClass
    chi: int
    c2: int
    n_blowups: int = 0
    kind: str = "custom"
    params: tuple[tuple[str, int], ...] = ()

    def __post_init__(self) -> None:
        rank = self.lattice.rank
        if self.canonical.rank != rank or self.polarization.rank != rank:
            raise LatticeError(
                f"canonical/polarization classes must have rank {rank}, got "
                f"{self.canonical.rank} and {self.polarization.rank}"
            )
        if self.n_blowups < 0:
            raise LatticeError("n_blowups must be non-negative")
        if self.n_blowups > rank:
            raise LatticeError(
                f"n_blowups = {self.n_blowups} exceeds lattice rank {rank}"
            )
        if 12 * self.chi != self.k2 + self.c2:
            raise LatticeError(
                f"Noether identity violated: 12*chi = {12 * self.chi} but "
                f"K^2 + c2 = {self.k2 + self.c2}"
            )

    @property
    def rank(self) -> int:
        return self.lattice.rank

    def dot(self, a: DivisorClass, b: DivisorClass) -> Fraction:
        return intersect(self.lattice, a, b)

    @cached_property
    def k2(self) -> Fraction:
        """Self-intersection of the canonical class (of this model, post blow-up)."""
        return self.dot(self.canonical, self.canonical)

    @property
    def k2_base(self) -> Fraction:
        """K^2 of the un-blown-up base: each blow-up lowers K^2 by exactly 1."""
        return self.k2 + self.n_blowups

    @cached_property
    def a0(self) -> Fraction:
        """The degree -K.H of the polarization against the anticanonical class."""
        return -self.dot(self.canonical, self.polarization)

    @cached_property
    def h2(self) -> Fraction:
        """Self-intersection of the polarization, computed from the form."""
        return self.dot(self.polarization, self.polarization)

    def exceptional_classes(self) -> tuple[DivisorClass, ...]:
        """The basis classes created by blow-ups, in blow-up order."""
        first = self.rank - self.n_blowups
        return tuple(self.lattice.basis_class(i) for i in range(first, self.rank))


def projective_plane() -> SurfaceModel:
    """The plane: rank-1 lattice <1> with basis (H), K = -3H, chi = 1, c2 = 3."""
    form = IntersectionForm(("H",), ((1,),))
    return SurfaceModel(
        lattice=form,
        canonical=DivisorClass((Fraction(-3),)),
        polarization=DivisorClass((Fraction(1),)),
        chi=1,
        c2=3,
        kind="projective_plane",
    )


def hirzebruch(e: int) -> SurfaceModel:
    """The ruled surface over the line with a section of self-intersection -e.

    Basis (C0, f) with Gram [[-e, 1], [1, 0]], K = -2*C0 - (2+e)*f, and the
    polarization C0 + (e+1)*f.  The form makes the polarization square e+2;
    the value e+1 is sometimes stated for this model, and reports flag the
    difference.
    """
    e = int(e)
    if e < 0:
        raise LatticeError(f"hirzebruch parameter must be non-negative, got {e}")
    form = IntersectionForm(("C0", "f"), ((-e, 1), (1, 0)))
    return SurfaceModel(
        lattice=form,
        canonical=DivisorClass((Fraction(-2), Fraction(-(2 + e)))),
        polarization=DivisorClass((Fraction(1), Fraction(e + 1))),
        chi=1,
        c2=4,
        kind="hirzebruch",
        params=(("e", e),),
    )


def ruled_surface(genus: int, twist_degree: int) -> SurfaceModel:
    """A ruled surface over a genus-g curve, g >= 1, twisted by a line bundle
    of degree < 3 - 3g (which makes the anticanonical class effective).

    Basis (C0, f) with Gram [[deg, 1], [1, 0]], K = -2*C0 + (2g-2+deg)*f,
    polarization C0 + (2g+1-deg)*f, chi = 1-g, c2 = 4(1-g).
    """
    genus = int(genus)
    twist_degree = int(twist_degree)
    if genus < 1:
        raise LatticeError(f"ruled surface needs genus >= 1, got {genus}")
    if twist_degree >= 3 - 3 * genus:
        raise LatticeError(
            f"ruled surface needs twist degree < {3 - 3 * genus}, got {twist_degree}"
        )
    form = IntersectionForm(("C0", "f"), ((twist_degree, 1), (1, 0)))
    return SurfaceModel(
        lattice=form,
        canonical=DivisorClass((Fraction(-2), Fraction(2 * genus - 2 + twist_degree))),
        polarization=DivisorClass((Fraction(1), Fraction(2 * genus + 1 - twist_degree))),
        chi=1 - genus,
        c2=4 * (1 - genus),
        kind="ruled",
        params=(("genus", genus), ("twist_degree", twist_degree)),
    )


def custom_surface(
    basis_labels: Sequence[str],
    gram: Sequence[Sequence[int]],
    canonical: Iterable[int | Fraction],
    polarization: Iterable[int | Fraction],
    chi: int,
    c2: int,
    n_blowups: int = 0,
) -> SurfaceModel:
    """A user-supplied model.  Besides Noether's identity, the lattice must
    be one that a smooth projective surface with ample polarization H can
    carry.  The Hodge index theorem gives the form signature (1, r-1, 0);
    by Sylvester's law of inertia that is H^2 > 0 and H^perp negative
    definite, checked on the integer Gram H^2 (e_i.e_j) - (e_i.H)(e_j.H)
    over the basis without one index where H is nonzero.  Adjunction makes
    D^2 + K.D even for every integral class D (Wu's formula).  The trailing
    ``n_blowups`` basis classes are the exceptional classes: E^2 = K.E = -1,
    mutually orthogonal."""
    form = IntersectionForm(tuple(basis_labels), tuple(tuple(row) for row in gram))
    surface = SurfaceModel(
        lattice=form,
        canonical=DivisorClass(tuple(canonical)),
        polarization=DivisorClass(tuple(polarization)),
        chi=int(chi),
        c2=int(c2),
        n_blowups=int(n_blowups),
        kind="custom",
    )
    g, h, h2 = form.gram, surface.polarization, surface.h2
    if h2 <= 0:
        raise LatticeError(
            f"polarization {format_class(form, h)} has H^2 = {h2}; Hodge index needs H^2 > 0"
        )
    basis = [form.basis_class(i) for i in range(form.rank)]
    eh = [surface.dot(e, h) for e in basis]
    k = next(i for i, c in enumerate(h.coords) if c)  # H != 0 since H^2 > 0
    rest = [i for i in range(form.rank) if i != k]
    if not is_negative_definite([[h2 * g[i][j] - eh[i] * eh[j] for j in rest] for i in rest]):
        raise LatticeError(
            f"Hodge index needs signature (1, {form.rank - 1}, 0), but the complement "
            f"of the polarization {format_class(form, h)} is not negative definite"
        )
    first = form.rank - surface.n_blowups
    for i, (label, e) in enumerate(zip(form.basis_labels, basis)):
        ke = surface.dot(surface.canonical, e)
        if (g[i][i] + ke) % 2:
            raise LatticeError(f"{label}^2 + K.{label} = {g[i][i] + ke}, but adjunction needs it even")
        if i >= first and (g[i][i], ke) != (-1, -1):
            raise LatticeError(
                f"exceptional class {label} has E^2 = {g[i][i]} and K.E = {ke}; "
                f"a blow-up needs both -1"
            )
        for j in range(first, i):
            if g[i][j]:
                raise LatticeError(
                    f"exceptional classes {form.basis_labels[j]} and {label} meet "
                    f"with E.E' = {g[i][j]}; blow-ups need them orthogonal"
                )
    return surface


def blow_up(surface: SurfaceModel, k: int = 1) -> SurfaceModel:
    """Blow up k further points: the lattice gains k orthogonal (-1)-classes,
    K gains +E_i for each, the polarization pulls back unchanged, chi is
    fixed, and c2 grows by k."""
    k = int(k)
    if k < 1:
        raise LatticeError(f"blow_up needs k >= 1, got {k}")
    n0 = surface.n_blowups
    rank = surface.rank
    labels = surface.lattice.basis_labels + tuple(f"E{n0 + i + 1}" for i in range(k))
    old = surface.lattice.gram
    gram = tuple(
        tuple(old[i][j] if i < rank and j < rank else (-1 if i == j else 0) for j in range(rank + k))
        for i in range(rank + k)
    )
    form = IntersectionForm(labels, gram)
    canonical = DivisorClass(surface.canonical.coords + (Fraction(1),) * k)
    polarization = DivisorClass(surface.polarization.coords + (Fraction(0),) * k)
    return SurfaceModel(
        lattice=form,
        canonical=canonical,
        polarization=polarization,
        chi=surface.chi,
        c2=surface.c2 + k,
        n_blowups=n0 + k,
        kind=surface.kind,
        params=surface.params,
    )


def format_class(form: IntersectionForm, cls: DivisorClass) -> str:
    """Readable form of a class, e.g. ``2H-E1-E2-E3-E4-E5``."""
    if cls.rank != form.rank:
        raise LatticeError(
            f"coordinate length mismatch: lattice rank {form.rank}, got {cls.rank}"
        )
    parts: list[str] = []
    for coeff, label in zip(cls.coords, form.basis_labels):
        if coeff == 0:
            continue
        sign = "-" if coeff < 0 else ("+" if parts else "")
        mag = abs(coeff)
        body = label if mag == 1 else f"{mag}{label}"
        parts.append(sign + body)
    return "".join(parts) if parts else "0"
