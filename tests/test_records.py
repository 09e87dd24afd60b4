"""The package's one record idiom: plain records are ``typing.NamedTuple``,
records that normalize or validate their input are ``__slots__`` classes,
and only ``LinearForm`` and ``Lagrangian`` compare by value."""

from fractions import Fraction

import pytest

from torusvar.critical_solver import DegeneracyInfo, SolutionReport, VerificationResult
from torusvar.energetics import EnergyReport, Perturbation
from torusvar.exact_algebra import HPoly, LinearForm, LinearSolution, PencilReduction, ReducedRows
from torusvar.h_calculus import ExactTorus, TorusShape
from torusvar.shape_equation import HelfrichParams, Lagrangian, ResidualRows
from torusvar.torus_geometry import AreaVolume

# each plain record's fields, in order, and its defaults
PLAIN = {
    HPoly: (("coeffs",), {"coeffs": ()}),
    LinearSolution: (("assignments", "free", "pivot_unknowns", "consistent"), {}),
    ReducedRows: (("unknowns", "reduced", "pivot_columns", "consistent"), {}),
    ResidualRows: (("coefficients", "weights", "u", "v"), {}),
    DegeneracyInfo: (("vanished", "note"), {}),
    VerificationResult: (("exact", "numeric_max_residual", "numeric_scale"), {"numeric_scale": 1.0}),
    SolutionReport: (
        (
            "degree", "r", "a2", "constraint", "kterms", "unknowns",
            "free_parameters", "assignments", "delta", "degeneracy", "consistent",
        ),
        {},
    ),
    EnergyReport: (("area_term", "pressure_term", "total"), {}),
    AreaVolume: (("area", "volume", "reduced_volume", "area_quadrature", "volume_quadrature"), {}),
}

SLOTTED = (LinearForm, Lagrangian, HelfrichParams, ExactTorus, TorusShape, Perturbation, PencilReduction)


@pytest.mark.parametrize("cls", list(PLAIN), ids=lambda cls: cls.__name__)
def test_a_plain_record_is_a_named_tuple_whose_fields_cannot_be_assigned(cls):
    fields, defaults = PLAIN[cls]
    assert issubclass(cls, tuple)
    assert cls._fields == fields
    assert cls._field_defaults == defaults
    record = cls(*range(len(fields)))
    for index, name in enumerate(fields):
        assert getattr(record, name) == index
        with pytest.raises(AttributeError):
            setattr(record, name, None)


@pytest.mark.parametrize("cls", SLOTTED, ids=lambda cls: cls.__name__)
def test_a_normalizing_record_has_slots_and_no_instance_dict(cls):
    assert "__slots__" in vars(cls)
    assert "__dict__" not in dir(cls)


def test_no_two_records_share_a_mutable_default():
    first, second = Perturbation(), Perturbation()
    assert len({id(first.cos_modes), id(first.sin_modes), id(second.cos_modes), id(second.sin_modes)}) == 4
    assert LinearForm().terms is not LinearForm().terms
    assert Lagrangian().terms is not Lagrangian().terms
    first.cos_modes[1] = 1.0
    assert Perturbation().cos_modes == {}


def test_linear_forms_compare_by_value_after_cleaning():
    assert LinearForm({"a": 0, "b": 1}) == LinearForm({"b": Fraction(1)})
    assert LinearForm({"b": 1}, "1/2") == LinearForm({"b": Fraction(1)}, Fraction(1, 2))
    assert LinearForm({"b": 1}) != LinearForm({"b": 2})
    assert LinearForm({"b": 1}) != LinearForm({"b": 1}, 1)
    assert LinearForm() == LinearForm({}, 0)
    assert LinearForm() != 0


def test_linear_form_of_equals_the_cleaning_constructor():
    terms = {"a1": Fraction(3), "a3": Fraction(-1, 2)}
    assert LinearForm._of(dict(terms), Fraction(5, 4)) == LinearForm({**terms, "a2": 0}, "5/4")
    assert LinearForm._of({}, Fraction(0)) == LinearForm()
    assert LinearForm.variable("x") == LinearForm({"x": 1})


def test_lagrangians_compare_by_value_after_cleaning():
    assert Lagrangian({(2, 0): 1, (1, 0): 0}) == Lagrangian({(2, 0): Fraction(1)}, Fraction(0))
    assert Lagrangian({(2, 0): "a2"}, "p") == Lagrangian.pure_h({2: "a2"}, "p")
    assert Lagrangian({(2, 0): 1}) != Lagrangian({(2, 0): 1}, 1)
    assert Lagrangian({(2, 0): 1}) != Lagrangian({(2, 0): "a2"})
    assert Lagrangian() == Lagrangian({}, 0)
    assert Lagrangian() != LinearForm()
