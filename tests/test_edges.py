"""Every public entry refuses a non-integer weight entry and a negative
degree bound with ValueError, so no check passes after checking nothing."""

import re

import pytest

from hlvertex import (
    apply_B,
    apply_H,
    apply_H_word,
    check_col_skew,
    dual_basis_pair_check,
    elementary,
    elementary_perp,
    homogeneous,
    kostant_series,
    kostka_foulkes,
    kostka_kostant,
    kostka_table,
    kostka_vertex,
    one,
    operators_equal,
    powersum,
    relation_instance,
    roots_set,
    schur,
    X_TIMES_QM1,
)
from hlvertex.kostka import kostka
from hlvertex.rewrite import OpSum, normalize, rewrite_dominant

# entry point -> a call with the bad entry x in a weight the parent let through
ENTRIES = {
    "schur": lambda x: schur((2, x)),
    "powersum": lambda x: powersum((x,)),
    "elementary": lambda x: elementary(x),
    "elementary_perp": lambda x: elementary_perp(x, schur((2, 1))),
    "homogeneous": lambda x: homogeneous(x),
    "apply_H": lambda x: apply_H((x,), one()),
    "apply_H_word": lambda x: apply_H_word(((1,), (x,)), one()),
    # the rows named for the removed aliases apply_H_any and basis_element
    # call the code that stood behind them: a one-block word, a schur index
    "apply_H_any": lambda x: apply_H_word(((0, x),), one()),
    "basis_element": lambda x: schur((x,)),
    "apply_B": lambda x: apply_B((x,), one()),
    "kostka": lambda x: kostka((x,), ((1,),)),
    "kostka_kostant": lambda x: kostka_kostant((1,), ((x,),)),
    "kostka_vertex": lambda x: kostka_vertex((x,), ((1,),)),
    "kostka_foulkes": lambda x: kostka_foulkes((x,), (x,)),
    "check_col_skew": lambda x: check_col_skew((x,), ((1,),), 0),
    "kostant_series": lambda x: kostant_series((1, 1), (x, 0)),
    "roots_set": lambda x: roots_set((1, x)),
    "kostka_table": lambda x: kostka_table((x,), 2),
    "relation_instance": lambda x: relation_instance("same-width", a=1, k=1, n=x),
}


class TestNonIntegerEntries:
    @pytest.mark.parametrize("entry", [1.5, "3", None], ids=["float", "str", "none"])
    @pytest.mark.parametrize("name", sorted(ENTRIES))
    def test_refused_with_the_entry_named(self, name, entry):
        message = f"^word entry {re.escape(repr(entry))} is not an integer$"
        with pytest.raises(ValueError, match=message):
            ENTRIES[name](entry)

    def test_relation_instance_multiplicity(self):
        with pytest.raises(ValueError, match=r"^word entry 1\.5 is not an integer$"):
            relation_instance("same-width", a=1, k=1, n=1.5)

    def test_kostka_foulkes(self):
        with pytest.raises(ValueError, match=r"^word entry 1\.5 is not an integer$"):
            kostka_foulkes((1.5,), (1.5,))


class TestNegativeDegree:
    MESSAGE = "^max_degree must be nonnegative, got -1$"

    def test_operators_equal(self):
        with pytest.raises(ValueError, match=self.MESSAGE):
            operators_equal(OpSum(), OpSum(), -1)
        assert operators_equal(OpSum(), OpSum(), 0)

    def test_is_zero_operator(self):
        with pytest.raises(ValueError, match=self.MESSAGE):
            operators_equal(OpSum({((1,),): 1}), OpSum(), -1)
        # degree 0 still evaluates: H_(0) is the identity on 1
        assert not operators_equal(OpSum({((0,),): 1}), OpSum(), 0)

    def test_dual_basis_pair_check(self):
        with pytest.raises(ValueError, match=self.MESSAGE):
            dual_basis_pair_check(X_TIMES_QM1, -1)
        assert dual_basis_pair_check(X_TIMES_QM1, 0)


class TestKostkaTableArguments:
    def test_unknown_method(self):
        with pytest.raises(ValueError, match="^unknown method 'nope'$"):
            kostka_table((1,), 0, method="nope")

    @pytest.mark.parametrize("eta", [(), (0,), (2, 0), (1, -1)])
    def test_empty_or_nonpositive_eta(self, eta):
        message = f"^eta parts must be positive, got {re.escape(repr(eta))}$"
        with pytest.raises(ValueError, match=message):
            kostka_table(eta, 2)

    def test_negative_degree_bound(self):
        with pytest.raises(ValueError, match="^degree_bound must be nonnegative, got -1$"):
            kostka_table((1,), -1)
        assert kostka_table((1,), 0) == []


class TestRelationParameters:
    """Each relation kind takes exactly its named parameters."""

    PARAMS = {
        "com1": dict(mu=(2,), a=1, b=3, nu=(1,)),
        "com2": dict(mu=(2,), a=1, nu=(1,)),
        "move": dict(mu=(2,), a=1, nu=(1,)),
        "bigmove": dict(alpha=(2,), beta=(1,), gamma=(1,)),
        "same-width": dict(a=1, k=1, n=2),
        "one-more": dict(a=1, k=2),
        "quad": dict(a=1, k=2),
    }
    EXTRA = {"com1": "alpha", "com2": "b", "move": "b", "bigmove": "mu",
             "same-width": "b", "one-more": "n", "quad": "n"}

    @pytest.mark.parametrize("kind", sorted(PARAMS))
    def test_missing_parameter_is_named(self, kind):
        for name in self.PARAMS[kind]:
            params = {k: v for k, v in self.PARAMS[kind].items() if k != name}
            message = f"^relation {kind!r} needs parameter {name!r}$"
            with pytest.raises(ValueError, match=message):
                relation_instance(kind, **params)

    @pytest.mark.parametrize("kind", sorted(PARAMS))
    def test_extra_parameter_is_named(self, kind):
        extra = self.EXTRA[kind]
        params = dict(self.PARAMS[kind], **{extra: 7})
        message = f"^relation {kind!r} takes no parameter {extra!r}$"
        with pytest.raises(ValueError, match=message):
            relation_instance(kind, **params)

    @pytest.mark.parametrize("kind", sorted(PARAMS))
    def test_exact_parameters_build_a_zero_operator(self, kind):
        rel = relation_instance(kind, **self.PARAMS[kind])
        assert not rel.is_zero()
        assert operators_equal(rel, OpSum(), 2)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="^unknown relation kind 'nope'$"):
            relation_instance("nope", a=1)

    @pytest.mark.parametrize("kind", ["com1", "com2", "move", "bigmove"])
    def test_weight_not_a_sequence_is_named(self, kind):
        for name, value in self.PARAMS[kind].items():
            if isinstance(value, tuple):
                params = dict(self.PARAMS[kind], **{name: 5})
                message = f"^relation {kind!r} parameter {name!r} is not a sequence$"
                with pytest.raises(ValueError, match=message):
                    relation_instance(kind, **params)

    @pytest.mark.parametrize("kind,params,name", [
        ("quad", dict(a=1, k=0), "k"),
        ("quad", dict(a=1, k=-1), "k"),
        ("one-more", dict(a=1, k=-2), "k"),
        ("same-width", dict(a=1, k=1, n=0), "n"),
        ("com2", dict(mu=(0, 1), a=0, nu=()), "mu"),
        ("com1", dict(mu=(), a=0, b=2, nu=(0, 1)), "nu"),
    ])
    def test_parameter_outside_the_domain_is_named(self, kind, params, name):
        # each of these once built a sum that is not the zero operator:
        # (a,) * k is () for k < 1, and the strip lift needs dominant mu, nu
        message = f"^relation {kind!r} parameter {name!r} (must be at least 1|is not dominant)$"
        with pytest.raises(ValueError, match=message):
            relation_instance(kind, **params)

    @pytest.mark.parametrize("kind", [None, 5, "COM2", ["com2"]],
                             ids=["none", "int", "upper", "list"])
    def test_kind_is_taken_exactly(self, kind):
        message = f"^unknown relation kind {re.escape(repr(kind))}$"
        with pytest.raises(ValueError, match=message):
            relation_instance(kind, mu=(2,), a=1, nu=(1,))


# entry point -> a call with a word whose blocks are the integers 1 and 2
FLAT_WORDS = {
    "rewrite_dominant": lambda w: rewrite_dominant(w),
    "OpSum": lambda w: OpSum({w: 1}),
    "normalize": lambda w: normalize({w: 1}),
    "apply_H_word": lambda w: apply_H_word(w, one()),
    "kostka": lambda w: kostka((1, 1), w),
}


class TestBlockNotASequence:
    @pytest.mark.parametrize("name", sorted(FLAT_WORDS))
    def test_refused_with_the_block_named(self, name):
        with pytest.raises(ValueError, match="^word block 1 is not a sequence$"):
            FLAT_WORDS[name]((1, 2))

    @pytest.mark.parametrize("name", sorted(FLAT_WORDS))
    def test_word_not_a_sequence_is_named(self, name):
        with pytest.raises(ValueError, match="^word 5 is not a sequence of blocks$"):
            FLAT_WORDS[name](5)
