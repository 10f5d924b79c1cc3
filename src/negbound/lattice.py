"""Exact Neron-Severi lattice models of projective surfaces and their blow-ups.

A surface lives here as pure lattice data: a labelled basis of divisor
classes with an integer Gram matrix, the canonical class K, a fixed
polarization H, and the invariants chi(O_X) and c2(X).  Blown-up points
carry no geometry, so proper and infinitely-near points are
indistinguishable at this level; every quantity served by this package
depends only on the lattice and the blow-up count n.

All arithmetic is exact.  Coordinates are `fractions.Fraction`, the Gram
matrix has integer entries, and no floating point is used anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence


class LatticeError(ValueError):
    """Malformed lattice data or mismatched dimensions."""


@dataclass(frozen=True)
class DivisorClass:
    """A divisor class as a coordinate vector in a fixed lattice basis.

    Coordinates are rational; integral divisors have integer coordinates,
    and rational coordinates only arise as outputs of Zariski decomposition.
    """

    coords: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coords", tuple(Fraction(c) for c in self.coords))

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


@dataclass(frozen=True)
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

    @property
    def rank(self) -> int:
        return len(self.basis_labels)

    def basis_class(self, index: int) -> DivisorClass:
        if not 0 <= index < self.rank:
            raise LatticeError(f"basis index {index} out of range for rank {self.rank}")
        return DivisorClass(tuple(Fraction(int(i == index)) for i in range(self.rank)))


def intersect(form: IntersectionForm, a: DivisorClass, b: DivisorClass) -> Fraction:
    """Exact intersection pairing a . b = a^T G b.  Symmetric and bilinear."""
    if a.rank != form.rank or b.rank != form.rank:
        raise LatticeError(
            f"coordinate length mismatch: lattice rank {form.rank}, "
            f"got vectors of rank {a.rank} and {b.rank}"
        )
    total = Fraction(0)
    for i, ai in enumerate(a.coords):
        if ai == 0:
            continue
        row = form.gram[i]
        acc = Fraction(0)
        for j, bj in enumerate(b.coords):
            if bj != 0 and row[j] != 0:
                acc += row[j] * bj
        total += ai * acc
    return total


def pivots(matrix: Sequence[Sequence[int | Fraction]]) -> list[Fraction]:
    """Pivots of an exact congruence reduction of a symmetric matrix.

    Indices are eliminated in natural order, each time at the first
    remaining index with a nonzero diagonal entry.  When every remaining
    diagonal entry is zero, the hyperbolic substitution e_i -> e_i + e_j
    (which leaves the inertia unchanged) creates one; a null remainder
    contributes zero pivots.  There is one pivot per row, and by Sylvester's
    law of inertia their signs count the signature.  While the leading
    minors are nonzero the k-th pivot is the ratio of the k-th to the
    (k-1)-th leading minor.
    """
    m = [[Fraction(x) for x in row] for row in matrix]
    active = list(range(len(m)))
    out: list[Fraction] = []
    while active:
        p = next((i for i in active if m[i][i] != 0), None)
        if p is None:
            pairs = ((i, j) for i in active for j in active if i != j and m[i][j])
            i, j = next(pairs, (None, None))
            if i is None:
                out.extend(Fraction(0) for _ in active)
                break
            # e_i -> e_i + e_j makes the (i,i) entry 2*m[i][j] != 0
            for k in active:
                m[i][k] += m[j][k]
            for k in active:
                m[k][i] += m[k][j]
            continue
        out.append(m[p][p])
        active.remove(p)
        for i in active:
            if m[i][p] != 0:
                f = m[i][p] / m[p][p]
                for k in active:
                    m[i][k] -= f * m[p][k]
    return out


def signature(form: IntersectionForm) -> tuple[int, int, int]:
    """Inertia (n_plus, n_minus, n_zero) of the pairing, exactly."""
    signs = [(p > 0) - (p < 0) for p in pivots(form.gram)]
    return signs.count(1), signs.count(-1), signs.count(0)


@dataclass(frozen=True)
class SurfaceModel:
    """A smooth projective surface as lattice data plus numerical invariants.

    Construction enforces Noether's identity 12*chi = K^2 + c2.  The last
    ``n_blowups`` basis classes are the exceptional classes of blow-ups.
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

    @property
    def k2(self) -> Fraction:
        """Self-intersection of the canonical class (of this model, post blow-up)."""
        return self.dot(self.canonical, self.canonical)

    @property
    def k2_base(self) -> Fraction:
        """K^2 of the un-blown-up base: each blow-up lowers K^2 by exactly 1."""
        return self.k2 + self.n_blowups

    @property
    def a0(self) -> Fraction:
        """The degree -K.H of the polarization against the anticanonical class."""
        return -self.dot(self.canonical, self.polarization)

    @property
    def h2(self) -> Fraction:
        """Self-intersection of the polarization, computed from the form."""
        return self.dot(self.polarization, self.polarization)

    def param(self, name: str) -> int | None:
        for key, value in self.params:
            if key == name:
                return value
        return None

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
    be one that a smooth projective surface can carry: the Hodge index
    theorem gives the form signature (1, r-1, 0), and adjunction makes
    D^2 + K.D even for every integral class D (Wu's formula)."""
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
    hodge = (1, form.rank - 1, 0)
    if signature(form) != hodge:
        raise LatticeError(f"Gram matrix has signature {signature(form)}; Hodge index needs {hodge}")
    for i, label in enumerate(form.basis_labels):
        parity = form.gram[i][i] + surface.dot(surface.canonical, form.basis_class(i))
        if parity % 2:
            raise LatticeError(f"{label}^2 + K.{label} = {parity}, but adjunction needs it even")
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
