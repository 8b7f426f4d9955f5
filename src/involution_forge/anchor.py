"""Nondegenerate reference structures and the maps they induce.

Even geometric dimension 2n carries a symplectic pair (omega, Lambda); odd
dimension 2n+1 carries a cosymplectic structure (vartheta, Theta) whose
contravariant side (Lambda, E) is recovered by one exact matrix inversion on
the table extended by the coordinate s.  The sharp/codifferential chain
follows the conventions fixed in the exterior module; the remaining global
sign (omega = -(inverse of the Lambda component matrix)) is pinned by the
volume form of the rigid body fixture, Omega = -dx1^dx2^dx3^dy1^dy2^dy3 for
the canonical bivector on R^6.

The odd-case identities i_E vartheta = 1, i_E Theta = 0 and
Lambda#(vartheta) = 0 hold by construction: with W the matrix of
omega' = Theta + ds^vartheta and L = -W^-1 that of Lambda' = Lambda + Ds^E,
they are the (s,s), (s,j) and (i,s) entries of L W = -I.  The builder does
not re-check them; the tests do.  Volumes are divided powers,
omega^n/n! and vartheta^Theta^n/n!.

The codifferential delta = *d* is computed as the Koszul bracket
(-1)^p [i_Lambda, d] of the package's own interior product and exterior
derivative.  It needs no Hodge star; the tests keep the star as the
independent oracle for it, which agrees where d omega = 0.  No other
package module calls it (an ``ast`` test pins that): assembly decides the
sigma conditions as Schouten brackets, and the codifferential stays a
root export and the tests' oracle for them.

``anchor.lifted`` is the anchor the sigma forms live on: the symplectic
cover of a cosymplectic anchor, and a symplectic anchor itself, so code
reads it for either parity.  ``decompose_prime`` is the one split of the
lifted table.  There is one sharp, ``_sharp_extend``; ``bivector_sharp``
is it on a 1-form.
"""

from __future__ import annotations

from itertools import combinations, product
from math import prod

from .errors import (
    DegenerateVolume,
    DegreeError,
    NotReducible,
    NotSemiBasic,
    OddDimension,
)
from .exterior import (
    Form,
    MultiVector,
    differential,
    divided_power,
    exterior_derivative,
    interior,
    pairing,
    wedge,
)
from .linalg import invert
from .symexpr import (
    RationalFunction,
    Record,
    VarKind,
    VarTable,
    migrate_ratfun,
    sum_of_products,
)

APPENDED_NAME = "s"


# --- component matrices ------------------------------------------------------


def full_matrix(obj) -> list:
    """Full antisymmetric matrix of a degree-2 object, rows and columns in
    geometric variable order."""
    if obj.degree != 2:
        raise DegreeError("component matrix needs degree 2")
    table = obj.table
    geo = table.geometric_indices
    pos = {v: k for k, v in enumerate(geo)}
    zero = RationalFunction.zero(table)
    out = [[zero] * len(geo) for _ in geo]
    for (i, j), c in obj.comps.items():
        a, b = pos[i], pos[j]
        out[a][b] = c
        out[b][a] = -c
    return out


def from_matrix(table: VarTable, rows: list, kind):
    """Degree-2 object from a full antisymmetric matrix (upper triangle)."""
    geo = table.geometric_indices
    comps = {}
    for a in range(len(geo)):
        for b in range(a + 1, len(geo)):
            if not rows[a][b].is_zero():
                comps[(geo[a], geo[b])] = rows[a][b]
    return kind(table, 2, comps)


def migrate_alternating(obj, new_table: VarTable):
    """Move a form or multivector between tables differing by trailing
    variables; component indices are stable because extension appends."""
    for idx in obj.comps:
        for i in idx:
            if i >= new_table.size:
                raise NotReducible(
                    f"component {idx} indexes {obj.table.names[i]!r}, "
                    "absent from the target table"
                )
    comps = {
        idx: migrate_ratfun(c, new_table) for idx, c in obj.comps.items()
    }
    return type(obj)(new_table, obj.degree, comps)


# --- bivector action ---------------------------------------------------------


def bivector_sharp(Pi: MultiVector, alpha: Form) -> MultiVector:
    """Pi#(alpha) on a 1-form: component j is sum_i Pi^{ij} alpha_i."""
    if Pi.degree != 2 or alpha.degree != 1:
        raise DegreeError("bivector_sharp pairs a bivector with a 1-form")
    return _sharp_extend(Pi, alpha)


def hamiltonian_vf(Pi: MultiVector, f) -> MultiVector:
    """X_f = Pi#(df)."""
    return bivector_sharp(Pi, differential(f, Pi.table))


def poisson_bracket(Pi: MultiVector, f, g) -> RationalFunction:
    """{f, g} = Pi(df, dg)."""
    return pairing(
        wedge(differential(f, Pi.table), differential(g, Pi.table)), Pi
    )


def _sharp_extend(Pi: MultiVector, a: Form) -> MultiVector:
    """Degree-p extension of Pi#, multiplicative over the wedge: with
    X_i = Pi#(dx_i), component J of the image of sum c_I dx_I is one sum of
    products c_I X_{i1}^{j1} ... X_{ip}^{jp}, (j1, ..., jp) permuting J.
    Row i of Pi is read off its components with their signs: X_i^j is
    Pi^{ij}, and -Pi^{ji} below the diagonal."""
    table = a.table
    Pi.table.require_same(table)
    rows: dict = {i: [] for i in table.geometric_indices}
    for (i, j), w in Pi.comps.items():
        rows[i].append((j, 1, w))
        rows[j].append((i, -1, w))
    products: dict = {}
    for idx, c in a.comps.items():
        for legs in product(*(rows[i] for i in idx)):
            targets = [j for j, _, _ in legs]
            if len(set(targets)) < len(targets):
                continue
            weight = legs[0][2] if legs else RationalFunction.one(table)
            for _, _, w in legs[1:]:
                weight = weight * w
            flips = sum(x > y for x, y in combinations(targets, 2))
            products.setdefault(tuple(sorted(targets)), []).append(
                ((-1) ** flips * prod(s for _, s, _ in legs), c, weight))
    return MultiVector(table, a.degree, {
        idx: sum_of_products(table, terms) for idx, terms in products.items()
    })


# --- anchors -----------------------------------------------------------------


class SymplecticAnchor(Record):
    """Nondegenerate bivector with its inverse 2-form and volume."""

    __slots__ = _fields = ("table", "lambda_bi", "omega", "volume")

    @property
    def lifted(self) -> "SymplecticAnchor":
        """The symplectic anchor the sigma pair lives on: this one."""
        return self


class CosymplecticAnchor(Record):
    """Odd-dimensional structure (vartheta, Theta) with its contravariant
    side (Lambda, E), volume vartheta^Theta^n/n!, and in ``lifted`` the
    symplectic anchor of omega' = Theta + ds^vartheta on the table
    extended by s."""

    __slots__ = _fields = ("table", "vartheta", "theta", "lambda_bi", "reeb",
                           "volume", "lifted")


def build_symplectic(given) -> SymplecticAnchor:
    """Anchor from a nondegenerate bivector Lambda or 2-form omega; the
    other side is minus the inverse of its component matrix.  The pivots of
    that one inversion are the exact nondegeneracy test."""
    if given.degree != 2:
        raise DegreeError("a symplectic anchor needs a bivector or a 2-form")
    table = given.table
    if table.dim % 2:
        raise OddDimension(
            f"geometric dimension {table.dim} is odd; no symplectic anchor"
        )
    table.require_pencil_free(given.comps.values(), "the anchor")
    given_bivector = isinstance(given, MultiVector)
    inverse = invert(full_matrix(given), table)
    other = from_matrix(
        table, [[-v for v in row] for row in inverse],
        Form if given_bivector else MultiVector,
    )
    lambda_bi, omega = (given, other) if given_bivector else (other, given)
    n = table.dim // 2
    volume = divided_power(omega, n)
    return SymplecticAnchor(table, lambda_bi, omega, volume)


def build_cosymplectic(vartheta: Form, theta: Form) -> CosymplecticAnchor:
    """Anchor from (vartheta, Theta); (Lambda, E) by inverting the
    symplectization omega' once and splitting Lambda' = Lambda + Ds^E."""
    if vartheta.degree != 1 or theta.degree != 2:
        raise DegreeError("a cosymplectic anchor needs a 1-form and a 2-form")
    vartheta.table.require_same(theta.table)
    table = vartheta.table
    if table.dim % 2 == 0:
        raise OddDimension(
            f"geometric dimension {table.dim} is even; no cosymplectic anchor"
        )
    n = (table.dim - 1) // 2
    volume = wedge(vartheta, divided_power(theta, n))
    if volume.is_zero():
        raise DegenerateVolume("vartheta^Theta^n vanishes identically")

    ext = table.extend(APPENDED_NAME, VarKind.APPENDED)
    ds = Form(ext, 1, {(ext.appended_index,): 1})
    omega_prime = migrate_alternating(theta, ext) + wedge(
        ds, migrate_alternating(vartheta, ext)
    )
    # omega'^(n+1)/(n+1)! = Theta^n/n! ^ ds ^ vartheta, nonzero with the
    # volume, so this inversion cannot fail
    lifted = build_symplectic(omega_prime)

    # Lambda' = Lambda + Ds^E = Lambda - E^Ds
    rest, tail = decompose_prime(lifted.lambda_bi)
    lambda_bi = migrate_alternating(rest, table)
    reeb = -migrate_alternating(tail, table)
    return CosymplecticAnchor(
        table, vartheta, theta, lambda_bi, reeb, volume, lifted
    )


# --- induced maps ------------------------------------------------------------


def sharp(anchor, a: Form) -> MultiVector:
    """Degree-p sharp; semi-basic required past degree 1 on odd anchors."""
    if isinstance(anchor, CosymplecticAnchor) and a.degree >= 2:
        residue = interior(anchor.reeb, a)
        if not residue.is_zero():
            raise NotSemiBasic(
                f"i_E leaves {residue.render()}; the degree-{a.degree} "
                "extension needs a semi-basic form"
            )
    return _sharp_extend(anchor.lambda_bi, a)


def codifferential(anchor: SymplecticAnchor, a: Form) -> Form:
    """delta = *d*, degree p-1 (zero on functions), as the Koszul bracket
    (-1)^p (i_Lambda da - d i_Lambda a) (Koszul 1985; Brylinski 1988,
    J. Diff. Geom. 28); d i_Lambda a vanishes for p = 1."""
    p = a.degree
    if p == 0:
        return Form.zero(a.table, 0)
    out = interior(anchor.lambda_bi, exterior_derivative(a))
    if p > 1:
        out = out - exterior_derivative(interior(anchor.lambda_bi, a))
    return -out if p % 2 else out


# --- odd/even traffic --------------------------------------------------------


def decompose_prime(a):
    """Split a form or multivector on a lifted table as a = rest + tail^ds
    (tail^Ds for a multivector).  The appended coordinate s is the last
    variable, so it closes every component index it enters and the split
    takes no sign."""
    table = a.table
    s_idx = table.appended_index
    if s_idx is None:
        raise NotReducible("the table carries no appended coordinate")
    if s_idx != table.size - 1:
        raise NotReducible(
            "the appended coordinate must be the most recently declared "
            "variable"
        )
    rest = {}
    tail = {}
    for idx, c in a.comps.items():
        if s_idx in idx:
            tail[idx[:-1]] = c
        else:
            rest[idx] = c
    kind = type(a)
    return kind(table, a.degree, rest), kind(table, a.degree - 1, tail)


def reduce_bivector(Pi_prime: MultiVector, base: VarTable) -> MultiVector:
    """Forget s onto ``base``, the table the lifted one extends by s, so
    the reduced bivectors of one pencil share their table object: requires
    no Ds legs and s-independent components."""
    rest, tail = decompose_prime(Pi_prime)
    s_idx = Pi_prime.table.appended_index
    if not tail.is_zero():
        raise NotReducible(f"Ds legs remain: ({tail.render()})^Ds")
    for idx, c in rest.comps.items():
        if c.involves(s_idx):
            raise NotReducible(f"component {idx} depends on s: {c.render()}")
    return migrate_alternating(rest, base)
