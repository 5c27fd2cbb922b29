"""Weight functionals on tropical Plücker vectors.

Two routes to the same number are kept deliberately separate: the sum of
tropical cross-ratios over noncyclic subsets (the planar-kinematics
weight) and the alternating cyclic/gap-interval sum (the bridge
functional, over a per-(k, n) table of rank pairs), plus the ladder-side
closed form of the latter.  The noncrossing weight comes from the fan
decomposition, an independent path.  `weight_report` reads all three
from the vector's scaled form (`pi.scaled()`, integers over one scale).
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from . import ladder, ncfan, planar
from .combinat import (
    KSubset,
    compatibility_rows,
    noncyclic_subsets,
    weakly_separated,
)
from .exact import InvariantError, format_fraction, record
from .ladder import LadderPoint
from .pluecker import PlueckerVector, PositivityCertificate, _first_violation, _gap_ranks


def pk_weight(pi: PlueckerVector) -> Fraction:
    """Sum of the tropical cross-ratios over all noncyclic subsets (one
    scaled-integer expansion)."""
    us, scale = planar._scaled_expansion(pi)
    return Fraction(sum(us), scale)


def bridge(pi: PlueckerVector) -> Fraction:
    """Alternating sum over the cycle of (cyclic - gap) entries, read off
    the scaled form."""
    vals, scale = pi.scaled()
    return Fraction(sum([vals[c] - vals[g] for c, g in _gap_ranks(pi.k, pi.n)]), scale)


def p_factor_tropical(y: LadderPoint, i: int) -> Fraction:
    """Row minimum at level i (tropicalized full-row sum)."""
    return min(y.rows[i - 1])


def q_factor_terms(k: int, n: int, j: int) -> list[tuple[tuple[int, int], ...]]:
    """Supports of the k monomials of the j-th two-column factor: term r
    uses rows 1..k-1-r at column j and rows k-r..k-1 at column j+1."""
    if not 1 <= j <= n - k - 1:
        raise ValueError(f"column index out of range: {j}")
    terms = []
    for r in range(k):
        support = tuple((i, j) for i in range(1, k - r)) + tuple(
            (i, j + 1) for i in range(k - r, k)
        )
        terms.append(support)
    return terms


def q_factor_tropical(y: LadderPoint, j: int) -> Fraction:
    """Tropicalized two-column factor: min over its k monomial supports."""
    return min(
        sum((y.weight(l, t) for l, t in term), Fraction(0))
        for term in q_factor_terms(y.k, y.n, j)
    )


def closed_form_tropical(y: LadderPoint) -> Fraction:
    """Grid-side evaluation of the bridge functional:
    sum of all weights minus the row minima minus the two-column factors."""
    k, n = y.k, y.n
    total = sum((v for row in y.rows for v in row), Fraction(0))
    total -= sum((p_factor_tropical(y, i) for i in range(1, k)), Fraction(0))
    total -= sum((q_factor_tropical(y, j) for j in range(1, n - k)), Fraction(0))
    return total


@record
class WeightReport:
    """The three weight computations and their agreement flag."""

    pk_weight: Fraction
    nc_weight: Fraction
    bridge_value: Fraction
    agree: bool

    def to_json_dict(self) -> dict:
        return {
            "pk_weight": format_fraction(self.pk_weight),
            "nc_weight": format_fraction(self.nc_weight),
            "bridge": format_fraction(self.bridge_value),
            "agree": self.agree,
        }


def weight_report(pi: PlueckerVector) -> WeightReport:
    """All three weights from pi's scaled form: pk by the planar
    expansion, bridge by `bridge`, nc by the flip walk (which checks its
    positive support noncrossing) to the lattice point of psi's closed-form
    rows (`ncfan._psi_grid`).  Only the three results are `Fraction`s."""
    k, n = pi.k, pi.n
    vals, scale = pi.scaled()
    coll, mu = ncfan._walk(k, n, ncfan._lattice(ncfan._psi_grid(k, n, vals)))
    pk = Fraction(sum(planar._expand(k, n, vals)), scale)
    nc = Fraction(sum([m for m in mu if m > 0]), scale)
    br = bridge(pi)
    return WeightReport(pk, nc, br, pk == nc == br)


def weight_two_candidates(k: int, n: int) -> list[tuple[KSubset, KSubset, PlueckerVector]]:
    """All unordered noncyclic pairs that are noncrossing but not weakly
    separated, with the parametrized vector of the ray-candidate sum
    attached.  Positivity is verified; no ray-extremality claim is made."""
    out = []
    rows = compatibility_rows(k, n)
    for (i, I), (j, J) in itertools.combinations(enumerate(noncyclic_subsets(k, n)), 2):
        if rows[i] >> j & 1 and not weakly_separated(I, J):
            vec = ladder.rho(ncfan.t_vector(I) + ncfan.t_vector(J))
            # the full scan: the certificate only replays the steps rho applied
            violation = _first_violation(vec)
            if violation is not None:
                raise InvariantError(f"candidate {I.elems},{J.elems} failed positivity: "
                                     f"{PositivityCertificate(False, violation).describe()}")
            out.append((I, J, vec))
    return out
