"""Finite Laurent vectors over a tuple of branches.

An `Element` is a tuple of Laurent polynomials, one per branch, with
exact coefficients, optionally carrying a differential marker (each
branch component is then read as g_i(t) dt).  All module arithmetic in
this package happens inside finite exponent windows, so finite support
is not a restriction; ring elements with infinite tails are always
handled through their window image plus a conductor tail at the module
layer.

The window arithmetic of every layer lives here, on coefficient dicts:
the cut `clip_window`, the clipped branchwise product `clip_product`
and the slab scan `shed_slab`, which lowers per-branch tails.

Text form: a single branch is a sum of terms like "3*t^-2 + t + 5/2";
several branches are tuple-wrapped, "(t^2 + t^5, 0)".  A differential
carries the suffix "dt": "(t^-1, -t^-1) dt", "t^-2 dt", or bare "dt"
for the unit form on one branch.
"""

from __future__ import annotations

import math
import re

from .errors import (BranchMismatch, BranchOutOfRange,
                     DifferentialDegreeError, ParseError)
from .linalg import vec_iaddmul

INF = math.inf


def window_key(key):
    """Sort key of a (branch, exponent) slot: exponent first, branch
    second, so the lowest order terms lead."""
    return (key[1], key[0])


def clip_window(coeffs, tail):
    """The terms of a coefficient dict strictly below each branch's
    tail, zero coefficients dropped."""
    return {(i, j): c for (i, j), c in coeffs.items() if j < tail[i] and c}


def clip_product(a, b, tail=None):
    """Branchwise product of two coefficient dicts, keeping only the
    terms below each branch's tail (every term when tail is None);
    sums that cancel are dropped."""
    out = {}
    for (i, ja), ca in a.items():
        top = INF if tail is None else tail[i] - ja
        for (ib, jb), cb in b.items():
            if ib != i or jb >= top:
                continue
            key = (i, ja + jb)
            s = out.get(key)
            s = ca * cb if s is None else s + ca * cb
            if s:
                out[key] = s
            else:
                del out[key]
    return out


def shed_slab(ech, floor, tail):
    """Lower each branch's tail, not below floor, while the monomial
    just below it is in the span of `ech`, discarding its row; returns
    the new tails.  A fully reduced echelon containing e_k has e_k as
    the row pivoted at k and no other row touches k, so the rows left
    are an echelon of the shorter window."""
    one = ech.field.one
    tail = list(tail)
    for i in range(len(tail)):
        while tail[i] > floor[i]:
            key = (i, tail[i] - 1)
            if not ech.contains({key: one}):
                break
            ech.discard(key)
            tail[i] -= 1
    return tail


class Element:
    """One Laurent vector: coeffs maps (branch, exponent) to a nonzero
    scalar; degree is 0 for functions and 1 for differentials."""

    __slots__ = ("field", "nbranches", "coeffs", "degree")

    def __init__(self, field, nbranches, coeffs, degree=0):
        if degree not in (0, 1):
            raise DifferentialDegreeError(f"unsupported degree {degree}")
        clean = {}
        for (i, j), c in coeffs.items():
            if not (0 <= i < nbranches):
                raise BranchOutOfRange(
                    f"branch {i} out of range for {nbranches} branches")
            if c:
                clean[(i, int(j))] = c
        self.field = field
        self.nbranches = nbranches
        self.coeffs = clean
        self.degree = degree

    # -- construction -----------------------------------------------------

    @classmethod
    def zero(cls, field, nbranches, degree=0):
        return cls(field, nbranches, {}, degree)

    @classmethod
    def one(cls, field, nbranches):
        return cls(field, nbranches,
                   {(i, 0): field.one for i in range(nbranches)})

    @classmethod
    def monomial(cls, field, nbranches, branch, exp, coef=None, degree=0):
        c = field.one if coef is None else field.coerce(coef)
        return cls(field, nbranches, {(branch, exp): c}, degree)

    @classmethod
    def diag_monomial(cls, field, nbranches, exp, degree=0):
        """t^exp on every branch at once."""
        return cls(field, nbranches,
                   {(i, exp): field.one for i in range(nbranches)}, degree)

    # -- arithmetic --------------------------------------------------------

    def _compat(self, other):
        if not isinstance(other, Element):
            raise TypeError(f"cannot combine Element with {other!r}")
        if other.nbranches != self.nbranches or other.field != self.field:
            raise BranchMismatch("elements live over different branch tuples")

    def __add__(self, other):
        self._compat(other)
        if other.degree != self.degree:
            raise DifferentialDegreeError("cannot add a function to a form")
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            s = out.get(k)
            s = c if s is None else s + c
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return Element(self.field, self.nbranches, out, self.degree)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Element(self.field, self.nbranches,
                       {k: -c for k, c in self.coeffs.items()}, self.degree)

    def __mul__(self, other):
        if not isinstance(other, Element):
            try:
                c = self.field.coerce(other)
            except TypeError:
                return NotImplemented
            return self.scale(c)
        self._compat(other)
        deg = self.degree + other.degree
        if deg > 1:
            raise DifferentialDegreeError("product of two forms")
        return Element(self.field, self.nbranches,
                       clip_product(self.coeffs, other.coeffs), deg)

    # a left operand that is not an Element is a scalar
    __rmul__ = __mul__

    def scale(self, c):
        if not c:
            return Element.zero(self.field, self.nbranches, self.degree)
        return Element(self.field, self.nbranches,
                       {k: c * x for k, x in self.coeffs.items()}, self.degree)

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative powers are not defined here")
        if n * self.degree > 1:
            raise DifferentialDegreeError("power of a form")
        result = Element.one(self.field, self.nbranches)
        base = self
        while n:
            if n & 1:
                result = result * base
            base0 = base
            if n > 1:
                base = base0 * base0
            n >>= 1
        return result

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return (isinstance(other, Element)
                and other.field == self.field
                and other.nbranches == self.nbranches
                and other.degree == self.degree
                and other.coeffs == self.coeffs)

    def __hash__(self):
        return hash((self.nbranches, self.degree,
                     frozenset(self.coeffs.items())))

    # -- inspection ---------------------------------------------------------

    def coefficient(self, branch, exp):
        return self.coeffs.get((branch, exp), self.field.zero)

    def valuation(self, branch):
        """Order of vanishing on one branch; INF on a zero component."""
        exps = [j for (i, j) in self.coeffs if i == branch]
        return min(exps) if exps else INF

    def valuations(self):
        return tuple(self.valuation(i) for i in range(self.nbranches))

    def residue(self, branch):
        """Coefficient of t^-1 dt on one branch; forms only."""
        if self.degree != 1:
            raise DifferentialDegreeError("residue of a non-form")
        if not 0 <= branch < self.nbranches:
            raise BranchOutOfRange(
                f"branch {branch} out of range for {self.nbranches} branches")
        return self.coeffs.get((branch, -1), self.field.zero)

    def map_coefficients(self, fn, new_field):
        """Push coefficients through fn into another field (base change)."""
        return Element(new_field, self.nbranches,
                       {k: fn(c) for k, c in self.coeffs.items()}, self.degree)

    # -- text ----------------------------------------------------------------

    def __repr__(self):
        return format_element(self)

    def __str__(self):
        return format_element(self)


def linear_combination(field, nbranches, weights, vecs, degree=0):
    """The Element sum of w * v over paired weights and coefficient
    dicts, accumulated in one dict."""
    out = {}
    for w, v in zip(weights, vecs):
        vec_iaddmul(out, w, v)
    return Element(field, nbranches, out, degree)


_TERM_RE = re.compile(
    r"\s*(?P<sign>[+-])?\s*"
    r"(?:(?P<coef>[0-9]+(?:/[0-9]+)?)\s*\*?\s*)?"
    r"(?P<var>t(?:\^(?P<exp>-?[0-9]+))?)?\s*")


def _parse_branch_poly(field, text, branch, out):
    pos = 0
    n = len(text)
    first = True
    while pos < n:
        m = _TERM_RE.match(text, pos)
        if not m or m.end() == pos:
            raise ParseError(f"bad term at {text[pos:]!r}")
        sign, coef, var, exp = (m.group("sign"), m.group("coef"),
                                m.group("var"), m.group("exp"))
        if coef is None and var is None:
            raise ParseError(f"bad term at {text[pos:]!r}")
        if sign is None and not first:
            raise ParseError(f"missing +/- before {text[m.start():]!r}")
        c = field.one if coef is None else field.parse(coef)
        if sign == "-":
            c = -c
        j = 0
        if var is not None:
            j = 1 if exp is None else int(exp)
        key = (branch, j)
        s = out.get(key)
        s = c if s is None else s + c
        if s:
            out[key] = s
        else:
            out.pop(key, None)
        pos = m.end()
        first = False


def parse_element(field, text, nbranches=None):
    """Inverse of format_element.

    Branch components are comma-separated inside one pair of parens,
    "(t^2 + t^5, 0)"; a single branch may drop the parens.  A trailing
    "dt" marks a differential and applies to the whole tuple; bare "dt"
    is the unit form on one branch.
    """
    s = text.strip()
    degree = 0
    if s == "dt":
        s = "1"
        degree = 1
    elif s.endswith("dt") and re.search(r"[\s)]dt$", s):
        s = s[:-2].rstrip()
        degree = 1
    if not s:
        raise ParseError("empty element text")
    if s.startswith("(") and s.endswith(")"):
        inner = s[1:-1]
        if "(" in inner or ")" in inner:
            raise ParseError(f"nested parentheses in {text!r}")
        parts = [p.strip() for p in inner.split(",")]
    else:
        if "," in s or "(" in s or ")" in s:
            raise ParseError(f"branch tuple must be parenthesised: {text!r}")
        parts = [s]
    if nbranches is not None and len(parts) != nbranches:
        raise BranchMismatch(
            f"expected {nbranches} branch parts, got {len(parts)}")
    coeffs = {}
    for i, part in enumerate(parts):
        if not part:
            raise ParseError("empty branch part")
        if part == "0":
            continue
        _parse_branch_poly(field, part, i, coeffs)
    return Element(field, len(parts), coeffs, degree)


def _format_branch(field, items):
    if not items:
        return "0"
    pieces = []
    for j, c in sorted(items):
        if j == 0:
            body = field.format(c)
        else:
            var = "t" if j == 1 else f"t^{j}"
            if c == field.one:
                body = var
            elif c == -field.one:
                body = "-" + var
            else:
                body = f"{field.format(c)}*{var}"
        pieces.append(body)
    text = pieces[0]
    for body in pieces[1:]:
        if body.startswith("-"):
            text += " - " + body[1:]
        else:
            text += " + " + body
    return text


def format_element(elem: Element) -> str:
    parts = []
    for i in range(elem.nbranches):
        items = [(j, c) for (b, j), c in elem.coeffs.items() if b == i]
        parts.append(_format_branch(elem.field, items))
    if elem.nbranches == 1:
        body = parts[0]
        if elem.degree == 0:
            return body
        if body == "1":
            return "dt"
        return f"{body} dt" if " " not in body else f"({body}) dt"
    body = "(" + ", ".join(parts) + ")"
    return body if elem.degree == 0 else f"{body} dt"
