"""Discrete group models with exact conjugacy and covering machinery.

Every model exposes multiplication, inversion, and a shrinking base of
identity neighborhoods, each a normal subgroup; lattice models also
carry a norm.  The shipped models are all discrete: each neighborhood is the
whole group, the identity, or a product of those, and the base
stabilizes at the identity singleton.  So the covering number of a
conjugacy class by neighborhood translates is the number of cosets of
the neighborhood that the class meets.

Elements are plain hashable Python values (ints for table groups, int
tuples for lattice groups); models never wrap them, so step-function
tables stay cheap and deterministic to sort via :meth:`GroupModel.key`.
"""
from __future__ import annotations

import csv
import io
from abc import ABC, abstractmethod
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Iterable, Optional, Sequence

from .errors import ConfigError, MalformedInput, UnboundedClass
from .measure import kept

Element = Any

ZERO = Fraction(0)

CLASS_BUDGET = 4096  # most elements a conjugacy class or closure may list


class GroupModel(ABC):
    """Abstract interface shared by all group models."""

    name: str

    @abstractmethod
    def mul(self, a: Element, b: Element) -> Element: ...

    @abstractmethod
    def inv(self, a: Element) -> Element: ...

    @abstractmethod
    def identity(self) -> Element: ...

    @abstractmethod
    def key(self, a: Element) -> tuple:
        """Canonical sortable form of an element (also its CSV id)."""

    @abstractmethod
    def neighborhood(self, k: int) -> frozenset:
        """The identity neighborhood U_k: a normal subgroup (closed under
        multiplication, inversion and conjugation), nonincreasing in k
        with intersection the identity singleton."""

    def norm(self, a: Element) -> Optional[Fraction]:
        """Group norm when the model carries one, else None."""
        return None

    def elements(self) -> Optional[list]:
        """Full element list for finite models, None when infinite."""
        return None

    def format(self, a: Element) -> str:
        return "/".join(str(x) for x in self.key(a))

    def parse(self, text: str) -> Element:
        """Inverse of :meth:`format` (models override as needed)."""
        raise ValueError(f"{self.name} cannot parse element ids")

    def conjugate(self, g: Element, x: Element) -> Element:
        """x g x^-1."""
        return self.mul(self.mul(x, g), self.inv(x))

    @abstractmethod
    def conjugacy_class(self, g: Element) -> tuple:
        """The class of g, the members x g x^-1, sorted by key; raises
        :class:`UnboundedClass` beyond ``CLASS_BUDGET`` members."""

    @kept
    def covering(self, g: Element, u_index: int) -> "Cover":
        """:func:`covering_number` of g and U, kept per (element,
        neighborhood) pair."""
        return covering_number(self, g, u_index)


class FiniteTableGroup(GroupModel):
    """Finite group given by its multiplication table; elements are the
    indices 0..n-1 with 0 the identity."""

    def __init__(self, name: str, table: Sequence[Sequence[int]],
                 labels: Optional[Sequence[str]] = None):
        self.name = name
        self.table = tuple(tuple(row) for row in table)
        n = len(self.table)
        if any(len(row) != n for row in self.table):
            raise ValueError("multiplication table must be square")
        if any(self.table[0][j] != j or self.table[j][0] != j for j in range(n)):
            raise ValueError("element 0 must be the identity")
        self._inv = [0] * n
        for a in range(n):
            hits = [b for b in range(n) if self.table[a][b] == 0]
            if len(hits) != 1:
                raise ValueError(f"element {a} has no unique inverse")
            self._inv[a] = hits[0]
        self.labels = tuple(labels) if labels else tuple(str(i) for i in range(n))

    def mul(self, a, b):
        return self.table[a][b]

    def inv(self, a):
        return self._inv[a]

    def identity(self):
        return 0

    def key(self, a):
        return (a,)

    def format(self, a):
        return self.labels[a]

    def parse(self, text):
        """An element by its label or its index 0..n-1."""
        if text in self.labels:
            return self.labels.index(text)
        try:
            a = int(text)
        except (TypeError, ValueError):
            a = -1
        if not 0 <= a < len(self.table):
            raise MalformedInput(f"{self.name} has no element {text!r}")
        return a

    def elements(self):
        return list(range(len(self.table)))

    def neighborhood(self, k: int) -> frozenset:
        if k <= 0:
            return frozenset(range(len(self.table)))
        return frozenset({0})

    def conjugacy_class(self, g) -> tuple:
        members = {g}
        for x in range(len(self.table)):
            members.add(self.conjugate(g, x))
            if len(members) > CLASS_BUDGET:
                raise UnboundedClass(
                    f"class of {self.format(g)} exceeds budget {CLASS_BUDGET}")
        return tuple(sorted(members))

    @staticmethod
    def from_csv(name: str, text: str, labels: Optional[Sequence[str]] = None) -> "FiniteTableGroup":
        rows = [[int(x) for x in row] for row in csv.reader(io.StringIO(text)) if row]
        return FiniteTableGroup(name, rows, labels)


def cyclic_group(n: int) -> FiniteTableGroup:
    """Integers mod n under addition; labels 0..n-1."""
    if n < 1:
        raise ValueError("order must be >= 1")
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    return FiniteTableGroup(f"Z{n}", table)


def _perm_group(name: str, perms: list[tuple[int, ...]], labels: list[str]) -> FiniteTableGroup:
    index = {p: i for i, p in enumerate(perms)}
    compose = lambda p, q: tuple(p[q[i]] for i in range(len(q)))
    table = [[index[compose(p, q)] for q in perms] for p in perms]
    return FiniteTableGroup(name, table, labels)


def symmetric_group_3() -> FiniteTableGroup:
    """S3 as permutations of {0,1,2}; identity first, then 3-cycles, then
    transpositions, so conjugacy classes are index ranges."""
    perms = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (1, 0, 2), (0, 2, 1), (2, 1, 0)]
    labels = ["e", "r", "r2", "t01", "t12", "t02"]
    return _perm_group("S3", perms, labels)


def dihedral_group_4() -> FiniteTableGroup:
    """D4, the symmetries of a square, as permutations of its corners."""
    r = (1, 2, 3, 0)
    s = (1, 0, 3, 2)     # reflection through an edge axis
    compose = lambda p, q: tuple(p[q[i]] for i in range(4))
    e = (0, 1, 2, 3)
    r2, r3 = compose(r, r), compose(r, compose(r, r))
    perms = [e, r, r2, r3, s, compose(r, s), compose(r2, s), compose(r3, s)]
    labels = ["e", "r", "r2", "r3", "s", "rs", "r2s", "r3s"]
    return _perm_group("D4", perms, labels)


def _integers(name: str, text: str) -> tuple:
    """The integers of a "/"-separated element id."""
    try:
        return tuple(int(x) for x in text.split("/"))
    except ValueError:
        raise MalformedInput(f"{name} has no element {text!r}") from None


class FreeAbelianGroup(GroupModel):
    """Z^d with componentwise addition; elements are int d-tuples."""

    def __init__(self, rank: int):
        if rank < 1:
            raise ValueError("rank must be >= 1")
        self.rank = rank
        self.name = f"Z^{rank}"

    def mul(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def inv(self, a):
        return tuple(-x for x in a)

    def identity(self):
        return (0,) * self.rank

    def key(self, a):
        return tuple(a)

    def parse(self, text):
        parts = _integers(self.name, text)
        if len(parts) != self.rank:
            raise MalformedInput(f"expected {self.rank} components, got {text!r}")
        return parts

    def neighborhood(self, k: int) -> frozenset:
        return frozenset({self.identity()})

    def norm(self, a):
        return Fraction(max(abs(x) for x in a))

    def conjugacy_class(self, g) -> tuple:
        return (g,)

class DirectSumZGroup(GroupModel):
    """The direct sum of countably many copies of Z with the sup norm.

    Elements are finitely supported integer sequences stored as tuples
    with trailing zeros stripped; the identity is the empty tuple.
    """

    def __init__(self, generator_span: int = 4):
        if generator_span < 1:
            raise ValueError("generator span must be >= 1")
        self.generator_span = generator_span
        self.name = "sumZ"

    @staticmethod
    def _trim(a: tuple) -> tuple:
        out = list(a)
        while out and out[-1] == 0:
            out.pop()
        return tuple(out)

    def mul(self, a, b):
        n = max(len(a), len(b))
        a = a + (0,) * (n - len(a))
        b = b + (0,) * (n - len(b))
        return self._trim(tuple(x + y for x, y in zip(a, b)))

    def inv(self, a):
        return tuple(-x for x in a)

    def identity(self):
        return ()

    def key(self, a):
        return tuple(a)

    def format(self, a):
        return "/".join(str(x) for x in a) if a else "0"

    def parse(self, text):
        if text in ("", "0"):
            return ()
        return self._trim(_integers(self.name, text))

    def norm(self, a):
        return Fraction(max((abs(x) for x in a), default=0))

    def neighborhood(self, k: int) -> frozenset:
        return frozenset({()})

    def conjugacy_class(self, g) -> tuple:
        return (g,)

class DirectProductGroup(GroupModel):
    """Direct product of two models; elements are pairs."""

    def __init__(self, left: GroupModel, right: GroupModel):
        self.left = left
        self.right = right
        self.name = f"{left.name}x{right.name}"

    def mul(self, a, b):
        return (self.left.mul(a[0], b[0]), self.right.mul(a[1], b[1]))

    def inv(self, a):
        return (self.left.inv(a[0]), self.right.inv(a[1]))

    def identity(self):
        return (self.left.identity(), self.right.identity())

    def key(self, a):
        return (self.left.key(a[0]), self.right.key(a[1]))

    def format(self, a):
        return f"{self.left.format(a[0])}|{self.right.format(a[1])}"

    def parse(self, text):
        # single-level products only: the split is on the first bar
        l, bar, r = text.partition("|")
        if not bar:
            raise MalformedInput(f"{self.name} has no element {text!r}")
        return (self.left.parse(l), self.right.parse(r))

    def norm(self, a):
        nl, nr = self.left.norm(a[0]), self.right.norm(a[1])
        if nl is None or nr is None:
            return None
        return max(nl, nr)

    def elements(self):
        el, er = self.left.elements(), self.right.elements()
        if el is None or er is None:
            return None
        return [(a, b) for a in el for b in er]

    def neighborhood(self, k: int) -> frozenset:
        return frozenset(
            (a, b) for a in self.left.neighborhood(k) for b in self.right.neighborhood(k))

    def conjugacy_class(self, g) -> tuple:
        cl = self.left.conjugacy_class(g[0])
        cr = self.right.conjugacy_class(g[1])
        if len(cl) * len(cr) > CLASS_BUDGET:
            raise UnboundedClass(f"product class exceeds budget {CLASS_BUDGET}")
        members = [(a, b) for a in cl for b in cr]
        return tuple(sorted(members, key=self.key))


# ---------------------------------------------------------------------------
# Covering numbers and conjugate closures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Cover:
    """An optimal translate cover of a conjugacy class: the class can be
    covered by the sets U d with d drawn from `centers`, and by no
    fewer; their count is the covering number."""

    centers: tuple

    @property
    def number(self) -> int:
        return len(self.centers)


def covering_number(model: GroupModel, g: Element, u_index: int) -> Cover:
    """Minimum number of U-translates U d (U the u_index-th identity
    neighborhood, d in the class of g) needed to cover the class of g.

    U is a normal subgroup, so its translates are cosets: the class
    needs one translate per coset it meets, and no translate covers two.
    Each coset's center is its least class member by key, and the
    centers come in key order.
    """
    u = model.neighborhood(u_index)
    centers: list = []
    covered: set = set()
    for d in model.conjugacy_class(g):
        if model.key(d) not in covered:
            centers.append(d)
            covered.update(model.key(model.mul(x, d)) for x in u)
    return Cover(tuple(centers))


def conjugate_closure(model: GroupModel, generators: Iterable[Element]) -> tuple:
    """Union of the conjugacy classes of the given elements, sorted."""
    out = set()
    for h in generators:
        out.update(model.conjugacy_class(h))
        if len(out) > CLASS_BUDGET:
            raise UnboundedClass(f"conjugate closure exceeds budget {CLASS_BUDGET}")
    return tuple(sorted(out, key=model.key))


def closure_norm_bound(model: GroupModel, closure: Sequence[Element]) -> Optional[Fraction]:
    """sup of the model norm over the closure, when the model has one."""
    norms = [model.norm(h) for h in closure]
    if any(n is None for n in norms):
        return None
    return max(norms, default=ZERO)


# ---------------------------------------------------------------------------
# Config-driven construction
# ---------------------------------------------------------------------------

def model_from_config(cfg: dict) -> GroupModel:
    """Build a model from a {kind: ..., ...} mapping."""
    kind = cfg.get("kind")
    if kind == "cyclic":
        return cyclic_group(int(cfg["order"]))
    if kind in ("symmetric", "dihedral"):
        n, build = {"symmetric": (3, symmetric_group_3),
                    "dihedral": (4, dihedral_group_4)}[kind]
        if int(cfg.get("n", n)) != n:
            raise ConfigError(f"group kind {kind!r} supports n = {n} only, "
                              f"not {cfg['n']!r}")
        return build()
    if kind == "finite":
        return FiniteTableGroup.from_csv(cfg.get("name", "table"), cfg["table"],
                                         cfg.get("labels"))
    if kind == "free-abelian":
        return FreeAbelianGroup(int(cfg["rank"]))
    if kind == "direct-sum-z":
        return DirectSumZGroup(int(cfg.get("generator_span", 4)))
    if kind == "product":
        return DirectProductGroup(model_from_config(cfg["left"]),
                                  model_from_config(cfg["right"]))
    raise ConfigError(f"unknown group kind: {kind!r}")
