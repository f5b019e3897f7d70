"""Finite-dimensional local algebras with ranked bases.

An algebra is described by its characteristic, the grades of the nilpotent
basis vectors e_1..e_m, and the structure constants alpha_i^{pq} giving the
coefficient of e_i in e_p * e_q (p, q >= 1). e_0 = 1 is the unit; the residue
map is projection to coordinate 0.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from .scalars import CodedError, FieldSpec, SpecError, spec_int, spec_json


class AlgebraError(CodedError):
    """Validation failure; `code` in {NOT_LOCAL, COMM_FAIL, ASSOC_FAIL, RANK_FAIL}."""


class NotUnit(ZeroDivisionError):
    """Inversion of an element with zero residue."""


_NO_ROW: dict = {}  # the row of a zero product; never written


def accumulate(out: dict, c, terms) -> dict:
    """out += c * terms, in place: `out` is a sparse vector {key: value} and
    `terms` an iterable of (key, value) pairs. An entry that cancels is
    dropped, so `out` holds only nonzero values. Returns `out`."""
    if c:
        for key, v in terms:
            add = c * v
            cur = out.get(key)
            cur = add if cur is None else cur + add
            if cur:
                out[key] = cur
            elif key in out:
                del out[key]
    return out


class LocalAlgebra:
    """Validated local algebra; construct through `validate` or `from_table`."""

    __slots__ = ("field", "m", "grades", "table", "d", "rows", "by_target")

    def __init__(self, field: FieldSpec, m: int, grades, table, d: int):
        self.field = field
        self.m = m
        self.grades = tuple(grades)
        self.table = tuple(table)  # ((p, q, i, coeff) ...) sparse, p <= q
        self.d = d
        # e_p * e_q as {i: coeff}, nonzero entries only, under (p, q) and (q, p)
        self.rows: dict[tuple[int, int], dict] = {}
        for (p, q, i, c) in self.table:
            row = self.rows.setdefault((p, q), {})
            row[i] = c
            self.rows[(q, p)] = row
        # the same constants by target: {i: [(p, q, alpha_i^{pq}), ...]}, with
        # (p, q) ascending over the keys of `rows`
        self.by_target: dict[int, list] = {}
        for (p, q), row in sorted(self.rows.items()):
            for i, c in row.items():
                self.by_target.setdefault(i, []).append((p, q, c))

    def __eq__(self, other):
        if not isinstance(other, LocalAlgebra):
            return NotImplemented
        return (
            self.field == other.field
            and self.m == other.m
            and self.grades == other.grades
            and self.table == other.table
        )

    def __hash__(self):
        return hash((self.field, self.m, self.grades, self.table))

    def alpha(self, i: int, p: int, q: int):
        """Coefficient of e_i in e_p * e_q for 1 <= p,q <= m, 0 <= i <= m."""
        return self.rows.get((p, q), _NO_ROW).get(i, self.field.zero)

    @property
    def dim(self) -> int:
        return self.m + 1

    def sigma(self, p: int) -> int:
        if p == 0:
            return 0
        return self.grades[p - 1]

    def unit(self) -> "DVector":
        return DVector(self, (self.field.one,) + (self.field.zero,) * self.m)

    def vector(self, coords) -> "DVector":
        return DVector(self, tuple(coords))

    def basis_vector(self, p: int) -> "DVector":
        zero = (self.field.zero,)
        return self.vector(zero * p + (self.field.one,) + zero * (self.m - p))

    def __repr__(self):
        return f"LocalAlgebra(char={self.field.char}, dim={self.dim}, grades={list(self.grades)})"


def trivial_algebra(char: int = 0) -> LocalAlgebra:
    """The base field itself (m = 0)."""
    return LocalAlgebra(FieldSpec(char=char), 0, (), (), 0)


def derivation_algebra(m: int, char: int = 0) -> LocalAlgebra:
    """k[e_1..e_m]/(e_1..e_m)^2: rings over it carry m derivations."""
    return from_table(FieldSpec(char=char), m + 1, [1] * m, {})


def truncation_algebra(order: int, char: int = 0) -> LocalAlgebra:
    """k[e]/(e^order): rings over it carry an (order-1)-truncated HS derivation."""
    fs = FieldSpec(char=char)
    table = {(p, q, p + q): fs.one for p in range(1, order) for q in range(p, order - p)}
    return from_table(fs, order, range(1, order), table)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def validate(spec: dict) -> LocalAlgebra:
    """Check a raw algebra description and return a LocalAlgebra.

    The JSON shape is checked here, and the table it gives in `from_table`.
    Raises AlgebraError with codes NOT_LOCAL / COMM_FAIL / ASSOC_FAIL /
    RANK_FAIL, or SpecError for shape problems.
    """
    if "dim" not in spec:
        raise SpecError("algebra spec missing field 'dim'")
    fs = FieldSpec(char=spec_int(spec.get("char", 0), "char"))
    dim = spec_int(spec["dim"], "dim")
    grades = [spec_int(g, "grade") for g in spec_json(spec.get("grades", ()), "list", "grades")]
    table: dict[tuple[int, int, int], object] = {}
    for entry in spec_json(spec.get("products", ()), "list", "products"):
        entry = spec_json(entry, "object", "product entry")
        p, q = (spec_int(entry.get(k), f"product entry {k!r}") for k in ("p", "q"))
        if not (1 <= p < dim and 1 <= q < dim):
            raise SpecError(f"product indices ({p},{q}) out of range")
        for i_str, lit in spec_json(entry.get("coeffs", {}), "object", "coeffs").items():
            try:
                i = int(i_str)
            except (TypeError, ValueError):
                raise SpecError(f"coefficient key must be an integer, got {i_str!r}") from None
            if not (0 <= i < dim):
                raise SpecError(f"target index {i} out of range")
            c = fs.coerce(lit)
            if table.get((p, q, i), c) != c:
                raise SpecError(f"conflicting entries for product ({p},{q}) target {i}")
            table[(p, q, i)] = c
    return from_table(fs, dim, grades, table)


def from_table(fs: FieldSpec, dim: int, grades, table: dict) -> LocalAlgebra:
    """The algebra of dimension `dim` over `fs` with these grades and the
    structure constants {(p, q, i): alpha_i^{pq}}, each a scalar of `fs`.

    A (q, p, i) entry beside a (p, q, i) one must agree with it. Raises
    AlgebraError as `validate` does, or SpecError for bad sizes or grades.
    """
    if dim < 1:
        raise SpecError("dimension must be at least 1")
    m = dim - 1
    grades = tuple(grades)
    if len(grades) != m:
        raise SpecError(f"expected {m} grades, got {len(grades)}")
    if any(g < 1 for g in grades):
        raise SpecError("grades must be positive")
    if any(grades[i] > grades[i + 1] for i in range(m - 1)):
        raise SpecError("grades must be non-decreasing")

    # commutativity: mirrored entries, when both given, must agree
    nonzero: dict[tuple[int, int, int], object] = {}
    for (p, q, i), c in table.items():
        mirror = table.get((q, p, i))
        if mirror is not None and mirror != c:
            raise AlgebraError("COMM_FAIL", witness=(i, p, q))
        if c:
            nonzero[(min(p, q), max(p, q), i)] = c

    alg = LocalAlgebra(
        fs, m, grades, tuple((p, q, i, c) for (p, q, i), c in sorted(nonzero.items())),
        grades[-1] if m else 0,
    )

    # span of e_1..e_m must be an ideal: no unit component in products
    # (the table is sorted by (p, q, i), so the first hit is the first (p, q))
    for (p, q, i, _) in alg.table:
        if i == 0:
            raise AlgebraError("NOT_LOCAL", witness=(p, q), detail="product has a unit component")

    # associativity: (e_p e_q) e_r == e_p (e_q e_r). The left side is 0
    # unless some e_i of e_p e_q has a product with e_r, the right side unless
    # some e_j of e_q e_r has one with e_p (`rows` is symmetric). So only
    # those triples can fail, and visiting them in ascending order finds the
    # witness of the loop over all m^3 triples.
    rows = alg.rows
    partners: dict = {}
    for p, q in rows:
        partners.setdefault(p, []).append(q)
    triples = set()
    for (p, q), row in rows.items():
        for i in row:
            for r in partners.get(i, ()):
                triples.update(((p, q, r), (r, p, q)))
    for p, q, r in sorted(triples):
        pq, qr = rows.get((p, q), _NO_ROW), rows.get((q, r), _NO_ROW)
        if _times_basis(alg, pq, r) != _times_basis(alg, qr, p):
            raise AlgebraError("ASSOC_FAIL", witness=(p, q, r))

    # ranked-basis vanishing condition, first violation in (p, q, i) order.
    # It is reported only if the span of e_1..e_m is nilpotent, as that
    # failure comes first; passing it makes the span nilpotent (below).
    bad = next(((i, p, q) for (p, q, i, _) in alg.table if alg.sigma(p) + alg.sigma(q) > alg.sigma(i)), None)
    if bad:
        if _ideal_filtration(alg, sorted(partners))[-1]:
            raise AlgebraError("NOT_LOCAL", detail=f"span of e_1..e_{m} is not nilpotent")
        raise AlgebraError("RANK_FAIL", witness=bad)

    # declared grades must reproduce the ideal powers. Passing RANK_FAIL puts
    # m^j inside F_j, the span of the e_p of grade >= j: a product of j basis
    # vectors lands on grades summing to at least j. So m is nilpotent, and
    # m^j = F_j exactly when dim m^j is the number of grades >= j (they are
    # sorted). If m^{j-1} = F_{j-1}, then m^j = m F_{j-1} is spanned by the
    # rows e_p e_q, p <= q, with grade(q) >= j - 1; fed to one elimination by
    # descending grade of q, they give that rank for every j, and up to the
    # first mismatch it is dim m^j. Passing at j = d + 1 and at j = d makes d
    # the nilpotency degree. As m^{m+1} = 0, a grade above m fails by j = m + 1.
    top = min(alg.d, m)
    by_grade: dict = {}
    for (p, q), row in rows.items():
        if p <= q:
            by_grade.setdefault(min(alg.sigma(q), top), []).append(row)
    basis, rank = {}, {}
    for g in range(top, 0, -1):
        rank[g] = len(_echelon(basis, by_grade.get(g, ())))
    for j in range(2, top + 2):
        if rank[j - 1] != m - bisect_left(grades, j):
            raise AlgebraError(
                "RANK_FAIL",
                witness=("grade-filtration", j),
                detail="declared grades disagree with computed ideal powers",
            )

    return alg


def _mul_coords(alg: LocalAlgebra, a: list, b: list) -> list:
    """Product of coordinate vectors with entries supporting + and *.

    Each coordinate i sums its terms alpha_i^{pq} a_p b_q in (p, q) order."""
    a0, b0 = a[0], b[0]
    out = [a0 * b0] + [a0 * bi + ai * b0 for ai, bi in zip(a[1:], b[1:])]
    nonzero_b = [(q, bq) for q, bq in enumerate(b) if q and bq]
    for p in range(1, alg.m + 1):
        ap = a[p]
        if not ap:
            continue
        for q, bq in nonzero_b:
            row = alg.rows.get((p, q))
            if row:
                prod = ap * bq
                for i, c in row.items():
                    out[i] = out[i] + c * prod
    return out


def _times_basis(alg: LocalAlgebra, vec: dict, r: int) -> dict:
    """(sum_i vec[i] e_i) * e_r for i, r >= 1, as sparse coordinates {j: c}."""
    out: dict = {}
    for i, c in vec.items():
        accumulate(out, c, alg.rows.get((i, r), _NO_ROW).items())
    return out


def _echelon(basis: dict, vectors) -> dict:
    """Extend `basis`, {pivot: member} in echelon form (each member is 0 at
    the least index, its pivot, of every member before it), by sparse vectors
    {i: c} so that it spans them too; returns `basis`."""
    for vec in vectors:
        vec = dict(vec)
        for col in sorted(basis):
            if col in vec:
                accumulate(vec, -vec[col] / basis[col][col], basis[col].items())
        if vec:
            basis[min(vec)] = vec
    return basis


def _ideal_filtration(alg: LocalAlgebra, factors) -> list:
    """Powers of span(e_1..e_m), each as a basis of sparse vectors, up to the
    first zero power or to the (m+1)-th. `factors` are the indices with a
    nonzero product; a product by any other e_q is 0."""
    powers = [[{p: alg.field.one} for p in range(1, alg.m + 1)]]
    for _ in range(alg.m):
        powers.append(list(_echelon({}, (prod for vec in powers[-1] for q in factors
                                         if (prod := _times_basis(alg, vec, q)))).values()))
        if not powers[-1]:
            break
    return powers


# ---------------------------------------------------------------------------
# vectors over the algebra
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DVector:
    """Element of D(R): coordinates over any commutative ring with +, *."""

    algebra: LocalAlgebra
    coords: tuple

    def __post_init__(self):
        if len(self.coords) != self.algebra.m + 1:
            raise SpecError("coordinate arity mismatch")

    def _check(self, other):
        if self.algebra is not other.algebra and self.algebra != other.algebra:
            raise SpecError("vectors from different algebras")

    def __add__(self, other: "DVector") -> "DVector":
        self._check(other)
        return DVector(self.algebra, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "DVector") -> "DVector":
        self._check(other)
        return DVector(self.algebra, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __mul__(self, other: "DVector") -> "DVector":
        self._check(other)
        return DVector(
            self.algebra,
            tuple(_mul_coords(self.algebra, list(self.coords), list(other.coords))),
        )

    def scale(self, c) -> "DVector":
        return DVector(self.algebra, tuple(c * x for x in self.coords))

    def __pow__(self, n: int) -> "DVector":
        if n < 1:
            raise ValueError("power must be positive")
        result = None
        base = self
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def is_zero(self) -> bool:
        return not any(self.coords)

    def invert(self) -> "DVector":
        """Inverse via the nilpotent geometric series; residue must be a unit."""
        a0 = self.coords[0]
        if not a0:
            raise NotUnit("residue is zero")
        one = a0 / a0
        inv0 = one / a0
        zero = a0 - a0
        m = self.algebra.m
        n = DVector(self.algebra, (zero,) + tuple(-(x * inv0) for x in self.coords[1:]))
        unit = DVector(self.algebra, (one,) + (zero,) * m)
        acc = unit
        power = unit
        for _ in range(self.algebra.d):
            power = power * n
            acc = acc + power
        return acc.scale(inv0)


# ---------------------------------------------------------------------------
# derived structure
# ---------------------------------------------------------------------------

def null_set(alg: LocalAlgebra) -> set[int]:
    """Indices q >= 1 with e_q * m = 0."""
    return set(range(1, alg.m + 1)) - {q for (_, q) in alg.rows}


def support(alg: LocalAlgebra, i: int) -> set[int]:
    """Union of the iterated one-step supports of index i."""
    if not (1 <= i <= alg.m):
        raise SpecError(f"index {i} out of range")

    def one_step(j):
        return {q for _, q, _ in alg.by_target.get(j, ())}

    level = one_step(i)
    out = set(level)
    for _ in range(alg.sigma(i)):
        level = {q2 for q in level for q2 in one_step(q)}
        if not level:
            break
        out |= level
    return out


def frobenius_assumption(*algebras) -> tuple[bool, tuple | None]:
    """PASS iff char 0, dim of the first algebra is 1, or m_u lies in ker(Fr_u) for all u.

    Returns (True, None) or (False, (which_algebra, basis_index)).
    """
    algebras = tuple(a for a in algebras if a is not None)
    if not algebras:
        return True, None
    char = algebras[0].field.char
    if any(a.field.char != char for a in algebras):
        raise SpecError("mixed characteristics")
    if char == 0 or algebras[0].m == 0:
        return True, None
    for u, alg in enumerate(algebras, start=1):
        for q in range(1, alg.m + 1):
            power = alg.basis_vector(q) ** char
            if not power.is_zero():
                return False, (u, q)
    return True, None


def tensor_basis_pairs(a: LocalAlgebra, b: LocalAlgebra) -> list[tuple[int, int]]:
    """The (i, j) pair carried by each tensor basis index 1..(dim-1), in order."""
    pairs = [(i, j) for i in range(a.m + 1) for j in range(b.m + 1) if (i, j) != (0, 0)]
    pairs.sort(key=lambda ij: (a.sigma(ij[0]) + b.sigma(ij[1]), ij))
    return pairs


def ext_row(alg: LocalAlgebra, p: int, q: int) -> dict:
    """Nonzero coordinates {i: c} of e_p * e_q for any 0 <= p,q <= m (e_0 = 1)."""
    if p == 0 or q == 0:
        return {p + q: alg.field.one}
    return alg.rows.get((p, q), _NO_ROW)


def tensor(a: LocalAlgebra, b: LocalAlgebra) -> LocalAlgebra:
    """Tensor product with grade-lex ordered basis e_{1,i} (x) e_{2,j}."""
    if a.field != b.field:
        raise SpecError("tensor factors over different base fields")
    pairs = tensor_basis_pairs(a, b)
    index = {ij: k + 1 for k, ij in enumerate(pairs)}

    # Each entry is a product of nonzero constants, so it is nonzero. Its
    # target (i1, i2) is never (0, 0): a row has no unit component, and
    # ext_row(p, q) with p or q = 0 targets p + q, so that would need the
    # pair (0, 0), which is no basis index.
    table = {}
    for p, (p1, p2) in enumerate(pairs, start=1):
        for q, (q1, q2) in enumerate(pairs[p - 1 :], start=p):
            row2 = ext_row(b, p2, q2)
            for i1, c1 in ext_row(a, p1, q1).items():
                for i2, c2 in row2.items():
                    table[(p, q, index[(i1, i2)])] = c1 * c2
    grades = [a.sigma(i) + b.sigma(j) for (i, j) in pairs]
    return from_table(a.field, (a.m + 1) * (b.m + 1), grades, table)
