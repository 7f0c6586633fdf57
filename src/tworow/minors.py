"""
The polynomial realization of the web model.

Work in the ring of integer polynomials in the entries x[r, j] of a
2 x 2n matrix of variables.  For columns a < b the 2 x 2 minor

    D(a, b) = x[1,a] * x[2,b] - x[1,b] * x[2,a]

and, for a perfect matching M, the product D(M) of the minors of its
pairs.  For a < b < c < d the minors satisfy the three-term identity

    D(a,c) * D(b,d) = D(a,b) * D(c,d) + D(a,d) * D(b,c),

which is what makes the crossing rewrite of the web module work; the
products D(N) over noncrossing N are linearly independent, so expanding a
polynomial in them (an exact linear solve over the monomial supports)
gives an independent check of that rewrite.  Permuting the columns of the
variable matrix sends D(M) to +/- D(sigma(M)), the sign counting the
pairs of M that sigma inverts.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, reduce
from typing import Iterable, Mapping

from .combinat import Matching, Permutation, adjacent_transposition, enumerate_webs
from .linalg import Echelon
from .webs import generator_action

# a monomial is a sorted tuple of (row, column, exponent) triples
Monomial = tuple[tuple[int, int, int], ...]


def _mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
    exps: dict[tuple[int, int], int] = {}
    for r, j, e in m1 + m2:
        exps[(r, j)] = exps.get((r, j), 0) + e
    return tuple(sorted((r, j, e) for (r, j), e in exps.items()))


def _mono_degree(mono: Monomial) -> int:
    return sum(e for _, _, e in mono)


class Polynomial:
    """Sparse integer polynomial in the variables x[r, j]."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Monomial, int] | None = None):
        self._terms: dict[Monomial, int] = {
            m: c for m, c in (terms or {}).items() if c
        }

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls()

    @classmethod
    def constant(cls, c: int) -> "Polynomial":
        return cls({(): c})

    @classmethod
    def variable(cls, row: int, col: int) -> "Polynomial":
        if row not in (1, 2) or col < 1:
            raise ValueError(f"no variable x[{row},{col}] in a 2 x 2n matrix")
        return cls({((row, col, 1),): 1})

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __neg__(self) -> "Polynomial":
        return Polynomial({m: -c for m, c in self._terms.items()})

    def __add__(self, other: "Polynomial") -> "Polynomial":
        out = dict(self._terms)
        for m, c in other._terms.items():
            new = out.get(m, 0) + c
            if new:
                out[m] = new
            else:
                del out[m]
        return Polynomial(out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, int):
            return Polynomial({m: c * other for m, c in self._terms.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        out: dict[Monomial, int] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                key = _mono_mul(m1, m2)
                new = out.get(key, 0) + c1 * c2
                if new:
                    out[key] = new
                else:
                    del out[key]
        return Polynomial(out)

    __rmul__ = __mul__

    def coefficient(self, mono: Monomial) -> int:
        return self._terms.get(mono, 0)

    def monomials(self) -> Iterable[Monomial]:
        return self._terms.keys()

    def term_count(self) -> int:
        return len(self._terms)

    def total_degree(self) -> int:
        return max((_mono_degree(m) for m in self._terms), default=0)

    def sorted_terms(self) -> list[tuple[Monomial, int]]:
        """Terms in graded lexicographic order (degree descending, then
        the triple tuple ascending); the serialization order."""
        return sorted(self._terms.items(), key=lambda mc: (-_mono_degree(mc[0]), mc[0]))

    def evaluate(self, values: Mapping[tuple[int, int], int]) -> int:
        """Substitute integers for the variables; unlisted variables are 0."""
        total = 0
        for mono, coeff in self._terms.items():
            v = coeff
            for r, j, e in mono:
                v *= values.get((r, j), 0) ** e
            total += v
        return total

    def __repr__(self) -> str:
        if not self._terms:
            return "0"
        bits = []
        for mono, coeff in self.sorted_terms():
            factors = [
                f"x[{r},{j}]" + (f"^{e}" if e > 1 else "") for r, j, e in mono
            ]
            body = "*".join(factors) if factors else "1"
            if coeff == 1 and factors:
                term = body
            elif coeff == -1 and factors:
                term = f"-{body}"
            else:
                term = f"{coeff}*{body}" if factors else str(coeff)
            bits.append(term)
        out = " + ".join(bits)
        return out.replace("+ -", "- ")


def minor(a: int, b: int) -> Polynomial:
    """The 2 x 2 minor with column set {a, b}, a < b.

    >>> minor(1, 2)
    x[1,1]*x[2,2] - x[1,2]*x[2,1]
    """
    if not 1 <= a < b:
        raise ValueError(f"need 1 <= a < b, got a={a}, b={b}")
    return Polynomial(
        {((1, a, 1), (2, b, 1)): 1, ((1, b, 1), (2, a, 1)): -1}
    )


def minor_product(m: Matching) -> Polynomial:
    """The product of the pair minors of a perfect matching.

    The pairs have disjoint column sets, so the product has exactly
    2^n monomials, each multilinear.
    """
    return reduce(Polynomial.__mul__, (minor(a, b) for a, b in m.pairs()))


def syzygy_holds(a: int, b: int, c: int, d: int) -> bool:
    """Whether D(a,c) D(b,d) = D(a,b) D(c,d) + D(a,d) D(b,c), exactly."""
    if not a < b < c < d:
        raise ValueError("columns must satisfy a < b < c < d")
    return minor(a, c) * minor(b, d) == minor(a, b) * minor(c, d) + minor(a, d) * minor(b, c)


def permute_columns(sigma: Permutation, p: Polynomial) -> Polynomial:
    """Substitute x[r, j] -> x[r, sigma(j)] in every monomial."""
    out: dict[Monomial, int] = {}
    for mono, coeff in p._terms.items():
        key = tuple(sorted((r, sigma(j), e) for r, j, e in mono))
        out[key] = out.get(key, 0) + coeff
    return Polynomial(out)


def sign_rule_holds(sigma: Permutation, m: Matching) -> bool:
    """Whether permuting columns of D(m) equals sign * D(sigma(m)) with the
    inversion-pair sign computed by combinat.permute_matching."""
    from .combinat import permute_matching

    sign, moved = permute_matching(sigma, m)
    return permute_columns(sigma, minor_product(m)) == sign * minor_product(moved)


@cache
def _web_system(n: int):
    """Cached exact solver for coordinates in the span of the minor
    products of noncrossing matchings: (webs, monomial index, echelon)."""
    webs = enumerate_webs(n)
    polys = [minor_product(w) for w in webs]
    monos = sorted(set().union(*(p.monomials() for p in polys)))
    index = {mono: i for i, mono in enumerate(monos)}
    matrix = [[p.coefficient(mono) for p in polys] for mono in monos]
    ech = Echelon(matrix)
    if not ech.unique:
        raise RuntimeError(f"the minor products of the n={n} webs are linearly dependent")
    return webs, index, ech


def web_polynomials_independent(n: int) -> bool:
    """Whether the minor products of the Catalan(n) noncrossing matchings
    have full rank as vectors of monomial coefficients."""
    _, _, ech = _web_system(n)
    return ech.rank == len(enumerate_webs(n))


def expand_in_web_basis(p: Polynomial, n: int) -> dict[Matching, Fraction]:
    """Exact coordinates of p in the span of the noncrossing minor
    products; the independent check for the crossing rewrite.

    Raises ValueError when p is outside the span.

    >>> from .combinat import consecutive_matching
    >>> m0 = consecutive_matching(2)
    >>> expand_in_web_basis(minor_product(m0), 2) == {m0: 1}
    True
    """
    webs, index, ech = _web_system(n)
    rhs = [0] * len(index)
    for mono in p.monomials():
        if mono not in index:
            raise ValueError("polynomial is not in the span of the web products")
        rhs[index[mono]] = p.coefficient(mono)
    coords = ech.solve(rhs)
    if coords is None:
        raise ValueError("polynomial is not in the span of the web products")
    return {w: c for w, c in zip(webs, coords) if c}


def column_action_matches_web_action(n: int) -> bool:
    """Whether, for every generator s_i and every noncrossing matching M,
    permuting the columns of D(M) expands to exactly the web-model action
    of s_i on M.  This is the compatibility that makes the two models the
    same representation."""
    for i in range(1, 2 * n):
        sigma = adjacent_transposition(2 * n, i)
        for m in enumerate_webs(n):
            lhs = expand_in_web_basis(permute_columns(sigma, minor_product(m)), n)
            rhs = generator_action(i, {m: 1})
            if lhs != {k: Fraction(v) for k, v in rhs.items()}:
                return False
    return True


def serialize_polynomial(p: Polynomial) -> list[dict]:
    """JSON-ready term list [{"exponents": [[r, j, e], ...], "coeff": c}],
    in the stable graded-lex order of Polynomial.sorted_terms."""
    return [
        {"exponents": [[r, j, e] for r, j, e in mono], "coeff": coeff}
        for mono, coeff in p.sorted_terms()
    ]


def deserialize_polynomial(terms: list[dict]) -> Polynomial:
    return Polynomial(
        {
            tuple(sorted((r, j, e) for r, j, e in t["exponents"])): t["coeff"]
            for t in terms
        }
    )
