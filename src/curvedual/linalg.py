"""Sparse exact linear algebra over the coefficient fields.

Vectors are dicts mapping hashable keys to nonzero scalars; the zero
vector is the empty dict.  Keys are arbitrary (branch/exponent pairs,
module slots, tagged copies) and are ordered by a caller-supplied sort
key, so the same routines serve series windows, quotient modules and
hom spaces.
"""

from __future__ import annotations

from bisect import bisect_left


def vec_iaddmul(out, c, b):
    """In-place out += c*b, dropping keys that cancel to zero."""
    if not c:
        return out
    for k, x in b.items():
        y = out.get(k)
        if y is None:
            out[k] = c * x
        else:
            y = y + c * x
            if y:
                out[k] = y
            else:
                del out[k]
    return out


def vec_addmul(a, c, b):
    return vec_iaddmul(dict(a), c, b)


class Echelon:
    """Row-reduced spanning set, maintained fully reduced.

    Rows are sorted by the sort key of their pivot, each row is scaled
    to pivot coefficient one, and no row's support meets another row's
    pivot.  Inserting a vector either grows the span by one or reduces
    to zero and is dropped.  The sort key must be injective on keys.
    A residual whose pivot coefficient is already one is stored as it
    is; any other is scaled by `field.inverse` of it through
    `field.scaled`, which over Q keeps integral entries as ints.

    `_row_at` maps each pivot to its row.  Because the echelon is fully
    reduced, subtracting a row never brings another pivot into a
    vector, so eliminating a vector only needs the pivots already in
    its support; they are visited in pivot order, which gives the same
    residual, key order included, as a scan over every pivot.

    A new row only rewrites the rows pivoted below its own pivot: a
    row's support starts at its pivot.  `extend` therefore brings a
    batch to distinct leading keys and inserts it highest leading key
    first.  Then each vector becomes a row below every existing one and
    rewrites none, where the given order could rewrite a row with every
    insert, and over Q swell its entries on the way.  A fully reduced
    echelon is unique, so the order changes no row, only the work.
    `FracIdeal` builds every module through `extend`.  `span`, `kernel`
    and `intersect_spans` insert in the given order: measured on the
    benchmark workloads and at (17,19), the batch order saved `span`
    and `kernel` no time and made `kernel` rewrite more rows, and
    `intersect_spans` runs in none of them.
    """

    def __init__(self, field, sort_key=None):
        self.field = field
        self.sort_key = sort_key if sort_key is not None else (lambda k: k)
        self.rows = []
        self.pivots = []
        self._pivot_keys = []
        self._row_at = {}

    def _hits(self, vec):
        """The pivots in vec's support, in pivot order."""
        row_at = self._row_at
        hits = [k for k in vec if k in row_at]
        if len(hits) > 1:
            hits.sort(key=self.sort_key)
        return hits

    def reduce(self, vec):
        """Residual of vec after eliminating every pivot; a new dict."""
        out = {k: x for k, x in vec.items() if x}
        row_at = self._row_at
        for p in self._hits(out):
            vec_iaddmul(out, -out[p], row_at[p])
        return out

    def insert(self, vec):
        """Add vec to the span; returns the new pivot key, or None."""
        r = self.reduce(vec)
        if not r:
            return None
        p = min(r, key=self.sort_key)
        field = self.field
        c = r[p]
        if c != field.one:
            r = field.scaled(field.inverse(c), r)
        key = self.sort_key(p)
        pos = bisect_left(self._pivot_keys, key)
        rows = self.rows
        row_at = self._row_at
        for i in range(pos):
            c = rows[i].get(p)
            if c is not None:
                row = rows[i] = vec_addmul(rows[i], -c, r)
                row_at[self.pivots[i]] = row
        rows.insert(pos, r)
        self.pivots.insert(pos, p)
        self._pivot_keys.insert(pos, key)
        row_at[p] = r
        return p

    def discard(self, pivot):
        """Drop the row pivoted at `pivot`.  The other rows stay fully
        reduced, so they are an echelon of a span one smaller."""
        pos = bisect_left(self._pivot_keys, self.sort_key(pivot))
        if pos == len(self.pivots) or self.pivots[pos] != pivot:
            raise KeyError(pivot)
        del self.rows[pos], self.pivots[pos], self._pivot_keys[pos]
        del self._row_at[pivot]

    def extend(self, vecs):
        """Insert a batch, highest leading key first (see the class
        docstring).  First the batch is brought to distinct leading
        keys: a vector whose leading key an earlier one holds has that
        term eliminated by it, on a copy, until its leading key is new
        or it vanishes.  So on an empty echelon no row is rewritten,
        whatever the batch."""
        sk = self.sort_key
        inverse = self.field.inverse
        heads = {}
        for v in vecs:
            while v:
                p = min(v, key=sk)
                if p not in heads:
                    heads[p] = v
                    break
                head = heads[p]
                v = vec_iaddmul(dict(v), -v[p] * inverse(head[p]), head)
        for p in sorted(heads, key=sk, reverse=True):
            self.insert(heads[p])

    def contains(self, vec) -> bool:
        return not self.reduce(vec)

    @property
    def dim(self) -> int:
        return len(self.rows)

    # kept without a caller in the library: perfbench/spans.py wraps it
    def coords(self, vec):
        """Coefficients of vec on self.rows, or None if outside the span."""
        out = {k: x for k, x in vec.items() if x}
        cs = [self.field.zero] * len(self.rows)
        keys = self._pivot_keys
        sort_key = self.sort_key
        row_at = self._row_at
        for p in self._hits(out):
            c = out[p]
            cs[bisect_left(keys, sort_key(p))] = c
            vec_iaddmul(out, -c, row_at[p])
        return None if out else cs


def span(field, vecs, sort_key=None) -> Echelon:
    """Echelon of vecs, inserted in the given order (see `Echelon`)."""
    ech = Echelon(field, sort_key=sort_key)
    for v in vecs:
        ech.insert(v)
    return ech


class _Tag:
    """The extra coordinate of a `TrackedEchelon` row that stands for
    one inserted vector; compared by identity, sorted by `serial`."""

    __slots__ = ("tag", "serial")

    def __init__(self, tag, serial):
        self.tag = tag
        self.serial = serial


class TrackedEchelon:
    """Echelon that remembers how each row combines the inserted
    vectors, so span members can be rewritten over the original tags.

    Each vector goes into a plain `Echelon` with one extra coordinate,
    its tag, at coefficient one.  Tag coordinates sort after every real
    key, and only vectors that grow the real span are inserted, so
    every pivot is a real key and a row's tag part is its combination
    of the inserted vectors.  Reducing a span member then leaves only
    tag coordinates: minus that residual writes it over the tags.
    Tags must be unique per insert.
    """

    def __init__(self, field, sort_key=None):
        sk = sort_key if sort_key is not None else (lambda k: k)
        self.ech = Echelon(field, sort_key=lambda k: (
            (1, k.serial) if k.__class__ is _Tag else (0, sk(k))))

    def insert(self, vec, tag) -> bool:
        """Insert under a fresh tag; True if the span grew."""
        ech = self.ech
        aug = dict(vec)
        aug[_Tag(tag, ech.dim)] = ech.field.one
        r = ech.reduce(aug)
        if all(k.__class__ is _Tag for k in r):
            return False
        ech.insert(r)
        return True

    def express(self, vec):
        """vec as a tag combination (dict), or None if outside the span."""
        r = self.ech.reduce(vec)
        if any(k.__class__ is not _Tag for k in r):
            return None
        return {k.tag: -c for k, c in r.items()}

    @property
    def dim(self) -> int:
        return self.ech.dim


def kernel(field, constraints, unknowns):
    """Basis of {x : sum_k row[k]*x[k] = 0 for every constraint row}.

    `unknowns` fixes the coordinate order.  The constraints are reduced
    to a fully reduced echelon pivoted at the earliest unknown each row
    touches; every other unknown is free.  One basis vector is emitted
    per free unknown, in the order of `unknowns`: that unknown at one,
    and minus its coefficient in each row at the row's pivot, in pivot
    order.  Each row is scattered once into the vectors of the free
    unknowns it touches.

    Basis-order contract: a basis vector's support is its free unknown
    and pivots earlier in `unknowns`, and no vector meets another's
    free unknown.  So when `unknowns` is given in decreasing order of a
    sort key, the basis is exactly the rows of the fully reduced
    echelon of its span under that key, each pivoted at its free
    unknown with coefficient one: inserting it into an `Echelon` with
    that key eliminates nothing.
    """
    pos = {u: i for i, u in enumerate(unknowns)}
    ech = Echelon(field, sort_key=pos.__getitem__)
    for row in constraints:
        ech.insert(row)
    pivots = ech._row_at
    one = field.one
    basis = {f: {f: one} for f in unknowns if f not in pivots}
    # a fully reduced row meets no other pivot: its other keys are free
    for row, p in zip(ech.rows, ech.pivots):
        for k, c in row.items():
            if k != p:
                basis[k][p] = -c
    return list(basis.values())


def intersect_spans(field, avecs, bvecs, sort_key=None):
    """Basis of span(avecs) ∩ span(bvecs), by the two-block trick:
    echelonize rows (a,a) and (b,0); rows pivoted in the second block
    have zero first block, and their second blocks span the meet."""
    sk = sort_key if sort_key is not None else (lambda k: k)
    ech = Echelon(field, sort_key=lambda t: (t[0], sk(t[1])))
    for v in avecs:
        row = {(0, k): x for k, x in v.items()}
        row.update({(1, k): x for k, x in v.items()})
        ech.insert(row)
    for v in bvecs:
        ech.insert({(0, k): x for k, x in v.items()})
    out = []
    for row, p in zip(ech.rows, ech.pivots):
        if p[0] == 1:
            out.append({k: x for (_, k), x in row.items()})
    return out


# kept without a caller in the library: perfbench/spans.py wraps it by name
def dense_rank(field, mat) -> int:
    """Rank of a dense matrix given as a list of rows of scalars."""
    ech = Echelon(field)
    for row in mat:
        ech.insert({j: x for j, x in enumerate(row) if x})
    return ech.dim
