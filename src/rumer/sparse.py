"""Sparse integer linear combinations, shared by bracket and coordinate polynomials.

A combination maps hashable keys to nonzero integer coefficients on a fixed
number n of vertices.  `combine` is the one place where terms are summed and
cancelled terms dropped; the subclasses add only their key check and their
product.
"""
from __future__ import annotations

import operator
from itertools import chain
from typing import Hashable, Iterable, Mapping, Union

from .counting import _vertices


def combine(items: Iterable[tuple[Hashable, int]]) -> dict:
    """Sum the coefficients of equal keys; a key whose sum is 0 is dropped.

    Keys are dropped as soon as they cancel, which keeps the map small while
    products like determinant expansions cancel most of their terms.
    """
    out: dict = {}
    get = out.get
    for key, coeff in items:
        new = get(key, 0) + coeff
        if new:
            out[key] = new
        else:
            out.pop(key, None)
    return out


class SparseCombination:
    """Integer-coefficient linear combination of keys on n vertices.

    Zero coefficients are never stored; two combinations are equal iff they
    have the same type, the same n and the same term maps.  Subclasses
    implement `_check_key`, which validates a key against n and returns it in
    canonical form, and `_multiply`, the term map of the product of two
    combinations on the same n.
    """

    __slots__ = ("n", "terms")

    def __init__(
        self,
        n: int,
        terms: Union[Mapping[Hashable, int], Iterable[tuple[Hashable, int]]] = (),
    ):
        self.n = _vertices(n)
        items = terms.items() if isinstance(terms, Mapping) else terms
        self.terms = combine(
            (self._check_key(key), operator.index(coeff)) for key, coeff in items
        )

    def _check_key(self, key):
        raise NotImplementedError

    def _multiply(self, other: "SparseCombination") -> dict:
        raise NotImplementedError

    @classmethod
    def _of(cls, n: int, terms: dict) -> "SparseCombination":
        """Wrap an already checked, zero-free term map without copying it."""
        out = cls.__new__(cls)
        out.n = n
        out.terms = terms
        return out

    @classmethod
    def zero(cls, n: int) -> "SparseCombination":
        return cls(n)

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def _require_same_n(self, other: "SparseCombination") -> None:
        if type(other) is not type(self):
            raise TypeError(f"cannot combine {type(self).__name__} with {type(other).__name__}")
        if self.n != other.n:
            raise ValueError(f"vertex counts differ: {self.n} vs {other.n}")

    def __add__(self, other: "SparseCombination") -> "SparseCombination":
        self._require_same_n(other)
        return self._of(self.n, combine(chain(self.terms.items(), other.terms.items())))

    def __neg__(self) -> "SparseCombination":
        return self._of(self.n, {key: -c for key, c in self.terms.items()})

    def __sub__(self, other: "SparseCombination") -> "SparseCombination":
        return self + (-other)

    def __rmul__(self, scalar: int) -> "SparseCombination":
        scalar = operator.index(scalar)
        if not scalar:
            return self._of(self.n, {})
        return self._of(self.n, {key: scalar * c for key, c in self.terms.items()})

    def __mul__(self, other: Union[int, "SparseCombination"]) -> "SparseCombination":
        if type(other) is not type(self):
            return self.__rmul__(other)
        self._require_same_n(other)
        return self._of(self.n, self._multiply(other))
