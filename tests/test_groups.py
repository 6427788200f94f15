"""Group models, conjugacy machinery, and exact translate covers.

The symmetric-group table is checked against a permutation model built
here from scratch; covering numbers are checked against a brute-force
minimal cover.
"""
import csv
import io
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cocyclelab import groups
from cocyclelab.errors import (CocycleLabError, ConfigError, MalformedInput,
                               UnboundedClass)
from cocyclelab.evc import delta_for
from cocyclelab.groups import (Cover, DirectProductGroup, DirectSumZGroup,
                               FiniteTableGroup,
                               FreeAbelianGroup, closure_norm_bound, conjugate_closure,
                               covering_number, cyclic_group,
                               dihedral_group_4, model_from_config,
                               symmetric_group_3)

S3 = symmetric_group_3()
D4 = dihedral_group_4()
Z2 = cyclic_group(2)
Z4 = cyclic_group(4)
Z5 = cyclic_group(5)
FINITE = [Z2, Z5, S3, D4, DirectProductGroup(S3, Z2), DirectProductGroup(D4, S3)]


def compose(a: tuple, b: tuple) -> tuple:
    """a after b on {0..n-1}, one-line notation."""
    return tuple(a[b[i]] for i in range(len(a)))


PERMS = {
    "e": (0, 1, 2),
    "t01": (1, 0, 2),
    "t12": (0, 2, 1),
    "t02": (2, 1, 0),
}
THREE_CYCLES = [(1, 2, 0), (2, 0, 1)]


class TestSymmetricGroupOracle:
    def find_assignment(self):
        """The unique (rotation labels, composition order) making the
        table a faithful copy of the permutation group."""
        matches = []
        for r, r2 in itertools.permutations(THREE_CYCLES):
            perms = {**PERMS, "r": r, "r2": r2}
            for order in ("ab", "ba"):
                ok = True
                for x, y in itertools.product(perms, perms):
                    lhs = S3.format(S3.mul(S3.parse(x), S3.parse(y)))
                    want = (compose(perms[x], perms[y]) if order == "ab"
                            else compose(perms[y], perms[x]))
                    if perms[lhs] != want:
                        ok = False
                        break
                if ok:
                    matches.append((perms, order))
        return matches

    def test_table_is_the_permutation_group(self):
        # one match per composition convention (rotation labels swap
        # between them); either way the table is a faithful copy
        matches = self.find_assignment()
        assert 1 <= len(matches) <= 2

    def test_element_orders(self):
        def order(label):
            g = S3.parse(label)
            acc, k = g, 1
            while acc != S3.identity():
                acc, k = S3.mul(acc, g), k + 1
            return k

        assert {label: order(label) for label in
                ("e", "r", "r2", "t01", "t12", "t02")} == {
            "e": 1, "r": 3, "r2": 3, "t01": 2, "t12": 2, "t02": 2}

    def test_transposition_class_is_all_transpositions(self):
        g = S3.parse("t01")
        cls = S3.conjugacy_class(g)
        assert sorted(S3.format(m) for m in cls) == ["t01", "t02", "t12"]
        # the members are exactly the conjugates of g, sorted by key
        assert set(cls) == {S3.conjugate(g, x) for x in S3.elements()}
        assert list(cls) == sorted(cls, key=S3.key)

    def test_inverses(self):
        for label in ("t01", "t12", "t02"):
            g = S3.parse(label)
            assert S3.inv(g) == g
        r = S3.parse("r")
        assert S3.mul(r, S3.inv(r)) == S3.identity()


def brute_min_cover(model, g, u_index) -> tuple[int, tuple]:
    """The lexicographically least minimum cover of the class of g by
    translates U c, c in the class: every subset of the class is tried,
    by size, then in key order."""
    cls = sorted(model.conjugacy_class(g), key=model.key)
    u = model.neighborhood(u_index)
    translates = [(c, frozenset(model.key(model.mul(x, c)) for x in u))
                  for c in cls]
    need = frozenset(model.key(c) for c in cls)
    for k in range(1, len(cls) + 1):
        for pick in itertools.combinations(translates, k):
            if need <= frozenset().union(*(covered for _, covered in pick)):
                return k, tuple(c for c, _ in pick)
    raise AssertionError("class not coverable by its own translates")


class TestCoveringNumbers:
    CASES = [
        (S3, "t01", 1, 3),
        (S3, "t01", 0, 1),
        (S3, "r", 1, 2),     # {r, r2} needs two singleton translates
        (D4, "r", 1, 2),     # {r, r3}
        (D4, "s", 1, 2),     # {s, r2 s}
        (D4, "r2", 1, 1),    # central
        (Z4, "1", 1, 1),
        (Z2, "1", 0, 1),
    ]

    @pytest.mark.parametrize("model,label,u,expected", CASES)
    def test_against_brute_force(self, model, label, u, expected):
        g = model.parse(label)
        cover = covering_number(model, g, u)
        assert cover.number == brute_min_cover(model, g, u)[0] == expected
        # returned centers actually cover the class
        cls = model.conjugacy_class(g)
        uset = model.neighborhood(u)
        hit = {model.key(model.mul(x, c))
               for c in cover.centers for x in uset}
        assert {model.key(c) for c in cls} <= hit

    @pytest.mark.parametrize("u", [0, 1])
    @pytest.mark.parametrize("model", FINITE, ids=lambda m: m.name)
    def test_every_element_against_brute_force(self, model, u):
        for g in model.elements():
            number, centers = brute_min_cover(model, g, u)
            cover = covering_number(model, g, u)
            assert cover == Cover(centers), model.format(g)
            assert cover.number == number

    def test_class_beyond_brute_force(self):
        # the 81 elements of (S3 x S3) x (S3 x S3) that are transpositions
        # in every factor: one identity coset each, one coset of the whole
        # group together
        t = S3.parse("t01")
        model = DirectProductGroup(DirectProductGroup(S3, S3),
                                   DirectProductGroup(S3, S3))
        g = ((t, t), (t, t))
        members = model.conjugacy_class(g)
        assert len(members) == 81
        assert covering_number(model, g, 1) == Cover(members)
        assert covering_number(model, g, 0) == Cover(members[:1])

    @pytest.mark.parametrize("model,label,u,expected", CASES)
    def test_delta_formula(self, model, label, u, expected):
        delta, cover = delta_for(model, model.parse(label), u)
        assert delta == Fraction(1, 3 * expected)
        assert cover.number == expected


class TestConjugacyAndClosure:
    def test_direct_conjugation_matches_class(self):
        for model in (S3, D4):
            for g in model.elements():
                cls = {model.key(c)
                       for c in model.conjugacy_class(g)}
                naive = {model.key(model.mul(model.mul(x, g), model.inv(x)))
                         for x in model.elements()}
                assert cls == naive

    def test_closure_of_transposition(self):
        closure = conjugate_closure(S3, (S3.parse("t01"),))
        assert sorted(S3.format(c) for c in closure) == ["t01", "t02", "t12"]

    def test_abelian_closure_is_the_family(self):
        fam = (1, 3)
        assert set(conjugate_closure(Z4, fam)) == set(fam)

    def test_closure_norm_bound(self):
        ds = DirectSumZGroup(2)
        units = tuple(ds.parse(u) for u in ("1", "-1", "0/1", "0/-1"))
        assert closure_norm_bound(ds, conjugate_closure(ds, units)) == 1
        wide = (ds.parse("5"), ds.parse("-5"))
        assert closure_norm_bound(ds, conjugate_closure(ds, wide)) == 5


class TestGuards:
    def test_class_budget(self, monkeypatch):
        monkeypatch.setattr(groups, "CLASS_BUDGET", 2)
        with pytest.raises(UnboundedClass):
            S3.conjugacy_class(S3.parse("t01"))
        with pytest.raises(UnboundedClass):
            conjugate_closure(Z4, (1, 2, 3))
        with pytest.raises(UnboundedClass):
            # each factor's class has 2 members, the product's 4
            groups.DirectProductGroup(S3, S3).conjugacy_class(
                (S3.parse("r"), S3.parse("r")))


class TestNeighborhoods:
    @pytest.mark.parametrize("model", [S3, D4, Z2, Z4])
    def test_nested_and_normal(self, model):
        whole = model.neighborhood(0)
        assert set(whole) == set(model.elements())
        tight = model.neighborhood(1)
        assert set(tight) == {model.identity()}
        assert set(model.neighborhood(5)) == {model.identity()}

    def test_infinite_models_identity_only(self):
        for model in (FreeAbelianGroup(2), DirectSumZGroup(3)):
            assert set(model.neighborhood(1)) == {model.identity()}

    @pytest.mark.parametrize("cfg", [
        {"kind": "cyclic", "order": 4},
        {"kind": "symmetric"},
        {"kind": "dihedral"},
        {"kind": "finite", "table": "0,1\n1,0\n"},
        {"kind": "free-abelian", "rank": 2},
        {"kind": "direct-sum-z"},
        {"kind": "product", "left": {"kind": "symmetric"},
         "right": {"kind": "free-abelian", "rank": 1}},
        {"kind": "product", "left": {"kind": "dihedral"},
         "right": {"kind": "symmetric"}},
    ], ids=lambda cfg: cfg["kind"] + ("-" + cfg["left"]["kind"]
                                      if "left" in cfg else ""))
    def test_every_neighborhood_is_a_normal_subgroup(self, cfg):
        # covering numbers count cosets, which needs U_k to be a subgroup;
        # conjugation invariance is checked where the elements are listed
        model = model_from_config(cfg)
        for k in (-1, 0, 1, 2):
            u = model.neighborhood(k)
            assert model.identity() in u
            assert all(model.inv(a) in u for a in u)
            assert all(model.mul(a, b) in u for a in u for b in u)
            for x in model.elements() or ():
                assert all(model.conjugate(a, x) in u for a in u)


class TestLatticeModels:
    def test_free_abelian_arithmetic(self):
        fa = FreeAbelianGroup(2)
        a, b = fa.parse("1/2"), fa.parse("-1/3")
        assert fa.mul(a, b) == (0, 5)
        assert fa.inv(a) == (-1, -2)
        assert fa.norm(fa.parse("1/-2")) == 2
        assert fa.format(fa.mul(a, fa.inv(a))) == fa.format(fa.identity())

    def test_direct_sum_trailing_zeros(self):
        ds = DirectSumZGroup(2)
        assert ds.parse("1/0") == (1,)
        assert ds.parse("0/0") == ()
        assert ds.format(ds.identity()) == "0"
        assert ds.format(ds.parse("0/1")) == "0/1"
        assert ds.norm(ds.parse("2/-3")) == 3


class TestTableGroups:
    def test_identity_is_element_zero(self):
        for model in (S3, D4, Z2, Z4):
            e = model.identity()
            for g in model.elements():
                assert model.mul(e, g) == g == model.mul(g, e)
                assert model.mul(g, model.inv(g)) == e

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5))
    def test_associativity_spot_check(self, a, b, c):
        assert S3.mul(S3.mul(a, b), c) == S3.mul(a, S3.mul(b, c))

    def test_csv_round_trip(self):
        buf = io.StringIO()
        csv.writer(buf).writerows(S3.table)
        back = FiniteTableGroup.from_csv("S3-copy", buf.getvalue())
        for a in range(6):
            for b in range(6):
                assert back.mul(a, b) == S3.mul(a, b)


class TestModelFromConfig:
    @pytest.mark.parametrize("cfg,order", [
        ({"kind": "cyclic", "order": 2}, 2),
        ({"kind": "cyclic", "order": 3}, 3),
        ({"kind": "symmetric"}, 6),
        ({"kind": "dihedral"}, 8),
    ])
    def test_finite_kinds(self, cfg, order):
        model = model_from_config(cfg)
        assert len(model.elements()) == order

    def test_lattice_kinds(self):
        assert model_from_config({"kind": "free-abelian", "rank": 2}).elements() is None
        assert model_from_config(
            {"kind": "direct-sum-z", "generator_span": 2}).elements() is None

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            model_from_config({"kind": "nope"})


@pytest.mark.parametrize("model,text", [
    (Z2, "7"), (Z2, "-1"), (Z2, "2"), (Z2, "z"), (S3, "6"), (S3, "t03")])
def test_table_group_parse_rejects_unknown_labels(model, text):
    with pytest.raises(MalformedInput) as exc:
        model.parse(text)
    assert isinstance(exc.value, CocycleLabError)
    assert isinstance(exc.value, ValueError)
    assert model.parse("1") == 1 and model.parse(model.format(0)) == 0


@pytest.mark.parametrize("model,text", [
    (FreeAbelianGroup(2), "x"), (FreeAbelianGroup(2), "1/y"),
    (FreeAbelianGroup(2), "1"), (DirectSumZGroup(2), "x"),
    (DirectSumZGroup(2), "1//2"), (groups.DirectProductGroup(Z2, Z2), "1"),
    (groups.DirectProductGroup(Z2, Z2), "1|x")])
def test_parse_rejects_malformed_text(model, text):
    with pytest.raises(MalformedInput):
        model.parse(text)


@pytest.mark.parametrize("model", [
    FreeAbelianGroup(2), DirectSumZGroup(2), groups.DirectProductGroup(Z2, S3)])
def test_parse_inverts_format(model):
    for element in (model.identity(), model.inv(model.identity())):
        assert model.parse(model.format(element)) == element
