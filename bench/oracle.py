"""Answers the benchmark checks matrep against, computed without matrep.

Every matroid the benchmark hands to matrep is described here by its rank
function on the ground set {1..n}, tabulated over bitmasks (bit i-1 stands
for element i).  Ranks come from a matrix over GF(q) or from the uniform
formula min(|S|, r), never from matrep, and everything else (flats,
Whitney numbers, the Betti numbers of T, the size of the Grothendieck
poset) is derived from that table.
"""

from __future__ import annotations

from fractions import Fraction


class RankTable:
    """The rank function of a matroid on {1..n}, one entry per subset."""

    def __init__(self, n: int, ranks: list[int]):
        if len(ranks) != 1 << n:
            raise ValueError("need one rank per subset")
        self.n = n
        self.ranks = ranks
        self.rank = ranks[-1]

    @classmethod
    def from_columns(cls, columns, q: int) -> "RankTable":
        """Ranks of the column sets of a matrix over GF(q), q prime."""
        n = len(columns)
        ranks = [0] * (1 << n)
        bases = [()] * (1 << n)  # echelon rows (pivot, vector) per subset
        for mask in range(1, 1 << n):
            high = mask.bit_length() - 1
            rest = mask ^ (1 << high)
            basis = bases[rest]
            residual = _reduce(list(columns[high]), basis, q)
            if residual is None:
                bases[mask] = basis
                ranks[mask] = ranks[rest]
            else:
                bases[mask] = basis + (residual,)
                ranks[mask] = ranks[rest] + 1
        return cls(n, ranks)

    @classmethod
    def uniform(cls, r: int, n: int) -> "RankTable":
        return cls(n, [min(m.bit_count(), r) for m in range(1 << n)])

    def truncation(self, k: int) -> "RankTable":
        cap = self.rank - k
        return RankTable(self.n, [min(r, cap) for r in self.ranks])

    def elements(self, mask: int) -> tuple:
        return tuple(i + 1 for i in range(self.n) if mask >> i & 1)

    def independents(self) -> list[tuple]:
        return [
            self.elements(m) for m in range(1 << self.n) if self.ranks[m] == m.bit_count()
        ]

    def flats(self) -> list[int]:
        """Masks of the closed sets."""
        out = []
        for m in range(1 << self.n):
            r = self.ranks[m]
            if all(
                self.ranks[m | 1 << i] > r for i in range(self.n) if not m >> i & 1
            ):
                out.append(m)
        return out

    def closure(self, mask: int) -> int:
        r = self.ranks[mask]
        for i in range(self.n):
            if self.ranks[mask | 1 << i] == r:
                mask |= 1 << i
        return mask

    def flats_per_rank(self) -> tuple:
        counts = [0] * (self.rank + 1)
        for f in self.flats():
            counts[self.ranks[f]] += 1
        return tuple(counts)

    def whitney(self) -> tuple:
        """Whitney numbers of the first kind, as the absolute coefficients of
        the characteristic polynomial sum_S (-1)^|S| t^(r - r(S)).

        Valid for loopless matroids, the only ones the benchmark builds.
        """
        coeff = [0] * (self.rank + 1)
        for m, r in enumerate(self.ranks):
            coeff[r] += -1 if m.bit_count() & 1 else 1
        return tuple(abs(c) for c in coeff)


def _reduce(vec, basis, q):
    for pivot, row in basis:
        c = vec[pivot]
        if c:
            vec = [(a - c * b) % q for a, b in zip(vec, row)]
    lead = next((i for i, a in enumerate(vec) if a), None)
    if lead is None:
        return None
    inv = pow(vec[lead], q - 2, q)
    return lead, [a * inv % q for a in vec]


def sphere_faces(k: int) -> int:
    """Nonempty faces of S^k, the boundary of the (k+1)-simplex."""
    return 2 ** (k + 2) - 2


def betti_closed_form(whitney, rho: int, k: int) -> dict:
    """Reduced Betti numbers of T for X = S^k at immersion size rho.

    Layer i contributes w_i spheres of dimension (rho-i)(k+1) - 1 + (i-1).
    """
    out: dict[int, int] = {}
    for i in range(1, len(whitney)):
        if whitney[i]:
            d = (rho - i) * (k + 1) - 1 + (i - 1)
            out[d] = out.get(d, 0) + whitney[i]
    return out


def join_power_betti(rho: int, k: int) -> dict:
    """The rho-fold join of S^k is S^(rho(k+1) - 1)."""
    return {rho * (k + 1) - 1: 1}


def grothendieck_size(table: RankTable, rho: int, k: int, with_bottom: bool) -> int:
    """Elements of the Grothendieck poset: sum over flats p of
    (1 + F)^|l(p)| - 1 with |l(p)| = rho - rank(p) and F the face count of X."""
    f = sphere_faces(k)
    bottom = table.closure(0)
    return sum(
        (1 + f) ** (rho - table.ranks[p]) - 1
        for p in table.flats()
        if with_bottom or p != bottom
    )


def fraction_rank(matrix) -> int:
    """Exact rank of a dense matrix of rationals by plain elimination."""
    rows = [[Fraction(v) for v in row] for row in matrix]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(rank + 1, len(rows)):
            if rows[i][c]:
                f = rows[i][c] / rows[rank][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank
