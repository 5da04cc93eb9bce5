"""The labelled integer store: n+! n-! (or n!) times every count, in int.

The store equals the oracle's walk totals with no division, every exact
division raises ArithmeticError on a value that does not divide (also under
python -O), and the exp/log recurrence keeps integer input integral.
"""

import json
import os
import subprocess
import sys
from fractions import Fraction
from math import gcd

import pytest

import realhurwitz
from realhurwitz.cli import main
from realhurwitz.evolution import SIGNED, disconnected_series, hurwitz_value
from realhurwitz.model import (Bidegree, RamificationType, bidegree_box, canonical_key,
                              enumerate_bidegrees, enumerate_types, euler_characteristic,
                              p_minus, p_plus, rtype)
from realhurwitz import evolution, nonsep, operators
from realhurwitz.nonsep import (UNSIGNED, TildeType, tilde_connected_value,
                               tilde_labelled_by_paths, tilde_operator_matrix, ttype)
from realhurwitz.operators import (OperatorKind, block_matrix, cached_columns, evolve,
                                   wplus_column)
from realhurwitz.oracle import labelled_by_paths
from realhurwitz.poly import LabelledSeries, series, series_exp, series_log


def _walk_totals(model, grade, max_m):
    """The walk totals of a grade of either model, read from the oracle."""
    return (labelled_by_paths(grade, max_m) if model is SIGNED
            else tilde_labelled_by_paths(*grade, max_m))


# signed bidegrees through total degree nine, unsigned degrees through nine elements
@pytest.mark.parametrize("model, grade", [
    *(pytest.param(SIGNED, b, id=f"signed{tuple(b)}") for b in enumerate_bidegrees(9)),
    *(pytest.param(UNSIGNED, (n,), id=f"unsigned({n},)") for n in range(10)),
])
def test_store_equals_walk_totals(model, grade):
    vectors = evolve(model, grade, 6)
    assert vectors == _walk_totals(model, grade, 6)
    assert all(type(x) is int for vec in vectors for x in vec.values())


def test_an_edited_result_leaves_the_next_request_intact():
    # every request evolves a store of its own, so a caller may change the
    # vectors it gets without changing what a later request returns
    mu = p_plus(1).union(p_minus(1))
    disconnected_series(2, 2).pieces[Bidegree(1, 1)][0][mu] += 5
    evolve(SIGNED, Bidegree(1, 1), 2)[1].clear()
    evolve(SIGNED, Bidegree(1, 1), 2)[0][mu] += 5
    evolve(UNSIGNED, (3,), 2)[2].clear()
    assert disconnected_series(2, 2).pieces[Bidegree(1, 1)][0][mu] == 1
    # the piece of (1, 2) is the mirror of that of (2, 1): editing either
    # leaves the other as it was
    pieces = disconnected_series(3, 2).pieces
    pieces[Bidegree(1, 2)][1].clear()
    pieces[Bidegree(2, 1)][2][rtype((3,))] += 5
    assert pieces[Bidegree(2, 1)][1] == labelled_by_paths(Bidegree(2, 1), 2)[1]
    assert pieces[Bidegree(1, 2)][2] == labelled_by_paths(Bidegree(1, 2), 2)[2]
    assert evolve(SIGNED, Bidegree(1, 1), 2) == labelled_by_paths(Bidegree(1, 1), 2)
    assert evolve(UNSIGNED, (3,), 2) == tilde_labelled_by_paths(3, 2)


def test_log_and_exp_of_an_integer_store_stay_integral():
    blocks = list(enumerate_bidegrees(5))
    disc = LabelledSeries({b: evolve(SIGNED, b, 5) for b in blocks}, 5, False)
    conn = series_log(disc, 5, blocks)
    assert isinstance(conn, LabelledSeries) and conn.connected
    assert all(type(x) is int for piece in conn.pieces.values()
               for vec in piece for x in vec.values())
    regrown = series_exp(conn, 5, blocks)
    assert regrown.coeffs == disc.coeffs


# an operator whose image function yields 1/2
HALF_COLUMN = """
from fractions import Fraction
from realhurwitz.model import p_plus, rtype
from realhurwitz.operators import cached_columns
cached_columns(lambda mu: [(mu, Fraction(1, 2))], rtype)(p_plus(1))
"""

# a store holding 1/2: |b| F_b for b = (2,) sums 1 * comb(2, 1) * F_1 * H_1
# = 2 * (1/2)^2 = 1/2, which 2 does not divide
HALF_ENTRY = """
from fractions import Fraction
from realhurwitz.nonsep import TILDE_EMPTY, ttype
from realhurwitz.poly import LabelledSeries, series_log
store = LabelledSeries({(0,): [{TILDE_EMPTY: 1}], (1,): [{ttype(kappa_odd=(1,)): Fraction(1, 2)}],
                        (2,): [{}]}, 0, False)
series_log(store, 0, [(0,), (1,), (2,)])
"""


@pytest.mark.parametrize("code", [HALF_COLUMN, HALF_ENTRY], ids=["column", "log"])
def test_exact_division_rejects_a_remainder(code):
    with pytest.raises(ArithmeticError):
        exec(code, {})


@pytest.mark.parametrize("code", [HALF_COLUMN, HALF_ENTRY], ids=["column", "log"])
def test_exact_division_check_survives_optimized_mode(code):
    src = os.path.dirname(os.path.dirname(realhurwitz.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "ArithmeticError" in proc.stderr


def test_an_image_of_another_grade_raises_and_names_both_types():
    column = cached_columns(lambda mu: [(p_plus(2), 1)], rtype)
    with pytest.raises(RuntimeError) as err:
        column(p_plus(1))
    assert repr(p_plus(2)) in str(err.value) and repr(p_plus(1)) in str(err.value)


# images in the grade of their type, (2, 1) and 1, that lie in no block basis:
# parts out of order, a zero part, an odd part among the signed even ones.
# Then images whose partitions equal, and hash like, those of their type,
# which the column interns first: so each partition's int twin is interned
# before the image, with a float or bool part in its place. No other test
# reaches these grades, so the image's own int twin is interned nowhere.
@pytest.mark.parametrize("mu, nu, canonical", [
    (rtype((2, 1)), RamificationType((1, 2), (), ()), rtype),
    (rtype((2, 1)), RamificationType((2, 1, 0), (), ()), rtype),
    (ttype(kappa_odd=(1,)), TildeType((1,), (), (), ()), ttype),
    (rtype((21,), (19,), (1,)), RamificationType((19.0,), (21,), (1,)), rtype),
    (rtype((21,), (19,), (1,)), RamificationType((19,), (21,), (True,)), rtype),
    (ttype((20,), (18,), (1,)), TildeType((18,), (20,), (True,), ()), ttype),
], ids=["unsorted", "zero-part", "parity", "float-part", "bool-part", "unsigned-bool-part"])
def test_an_image_not_in_canonical_form_raises(mu, nu, canonical):
    assert nu.grade == mu.grade
    column = cached_columns(lambda _: [(nu, 1)], canonical)
    with pytest.raises(RuntimeError, match="canonical form") as err:
        column(mu)
    assert repr(nu) in str(err.value)


def test_a_column_cache_hit_reads_a_type_by_equality():
    # kept as it is: a hit costs no check, and the exported entry points
    # check a type before it reaches a column cache. A type with a float
    # part equal to a cached one reads that column; on first sight it is refused
    col = wplus_column(rtype((2, 1)))
    assert wplus_column(RamificationType((2.0, 1), (), ())) is col
    with pytest.raises(RuntimeError, match="canonical form"):
        wplus_column(RamificationType((25.0,), (), ()))


def test_a_column_drops_the_entries_that_cancel():
    mu, nu, kappa = rtype((1,), (1,)), rtype((2,)), rtype(lam=(1,))
    column = cached_columns(lambda _: [(nu, 1), (kappa, 2), (nu, -1)], rtype)(mu)
    assert dict(column) == {kappa: 2} and nu not in column
    with pytest.raises(TypeError):
        column[nu] = 1


def test_a_column_without_cancellation_is_its_summed_images_read_only():
    for b in bidegree_box(Bidegree(4, 4)):
        for mu in enumerate_types(b):
            summed = {}
            for nu, c in operators.wplus_images(mu):
                summed[nu] = summed.get(nu, 0) + c
            assert all(summed.values()) and wplus_column(mu) == summed
    mu = rtype((2, 1))
    column = cached_columns(lambda _: [(rtype((3,)), 1), (mu, 2), (rtype((3,)), 3)], rtype)(mu)
    assert dict(column) == {rtype((3,)): 4, mu: 2}
    with pytest.raises(TypeError):
        column[mu] = 5
    with pytest.raises(TypeError):
        del column[mu]


# counts the full partition checks during a cold disconnected table (each
# sorts the parts, so they are the calls of sorted from model.partition), and
# compares its records with the stored entries
COLD_TABLE = """
import json, sys
from realhurwitz import model, operators
from realhurwitz.evolution import SIGNED
from realhurwitz.poly import series
checks = 0


def count(frame, event, arg):
    global checks
    checks += event == "c_call" and arg is sorted and frame.f_code is model.partition.__code__


sys.setprofile(count)
series = series(SIGNED, model.bidegree_box(model.Bidegree(6, 6)), 10, False)
sys.setprofile(None)
partitions = {p for mu in operators._INTERNED for p in mu}
stored = sorted((m, repr(k)) for piece in series.pieces.values()
                for m, vec in enumerate(piece) for k, x in vec.items() if x)
records = sorted((m, repr(k)) for m, k, *_ in series.records())
print(json.dumps({"checks": checks, "partitions": len(partitions),
                  "types": len(operators._INTERNED), "stored": len(stored),
                  "records_equal_stored": records == stored}))
"""


def test_a_cold_table_checks_each_partition_once_and_records_each_entry_once():
    src = os.path.dirname(os.path.dirname(realhurwitz.__file__))
    proc = subprocess.run([sys.executable, "-c", COLD_TABLE], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    # 2,433 types hold 138 distinct partitions; each is checked in full at most once
    assert 0 < got["checks"] <= got["partitions"] < got["types"]
    assert got["stored"] == 11701 and got["records_equal_stored"]


def test_the_mirror_swaps_each_key_once(monkeypatch):
    piece = evolve(SIGNED, Bidegree(3, 2), 6)
    swapped = []
    swap = RamificationType.swap_signs
    monkeypatch.setattr(RamificationType, "swap_signs", lambda mu: swapped.append(mu) or swap(mu))
    mirrored = operators.mirror(piece)
    assert sorted(swapped) == sorted(set().union(*piece))
    assert mirrored == labelled_by_paths(Bidegree(2, 3), 6)


@pytest.mark.parametrize("model, grade, shared, block", [
    (SIGNED, Bidegree(2, 1), wplus_column,
     lambda: block_matrix(OperatorKind.WPLUS, Bidegree(2, 1))),
    (UNSIGNED, (4,), nonsep.tilde_column, lambda: tilde_operator_matrix(4)),
], ids=["signed", "unsigned"])
def test_the_evolution_reads_the_columns_the_blocks_hold(model, grade, shared, block):
    # the binding holds the shared accessor; evolving through a copy of it
    # whose accessor records what it returns sees the blocks' column objects
    assert model.column is shared
    seen = {}

    def column(mu):
        seen[mu] = shared(mu)
        return seen[mu]

    evolve(model._replace(column=column), grade, 4)
    columns = block().columns
    assert seen and all(columns[mu] is col for mu, col in seen.items())


def test_cached_columns_refuse_edits_and_the_evolution_stays_intact():
    mu = p_plus(1).union(p_minus(1))
    plus = block_matrix(OperatorKind.WPLUS, Bidegree(1, 1))
    with pytest.raises(TypeError):
        plus.columns[mu][p_minus(2)] += 5
    with pytest.raises(TypeError):
        plus.columns[mu] = {}
    with pytest.raises(TypeError):
        wplus_column(mu)[p_minus(2)] = 6
    unsigned = tilde_operator_matrix(2)
    nu = unsigned.basis[0]
    with pytest.raises(TypeError):
        unsigned.columns[nu][nu] = 5
    with pytest.raises(TypeError):
        nonsep.tilde_column(nu)[nu] = 5
    store = disconnected_series(2, 2)
    for b, piece in store.pieces.items():
        assert tuple(piece) == labelled_by_paths(b, 2)
    for n in range(4):
        assert evolve(UNSIGNED, (n,), 2) == tilde_labelled_by_paths(n, 2)


# the evolution with model.types_by_grade, the one type enumerator of both
# models, rebound to raise before any module binds it, in a fresh
# interpreter so that no cached block or basis exists yet
NO_BASIS = """
from realhurwitz import model

def refuse(*args):
    raise AssertionError("the evolution enumerated a block basis")

model.types_by_grade = refuse
from realhurwitz import evolution, nonsep, operators

for enumerate_basis, grade in ((operators.enumerate_types, (1, 1)),
                               (nonsep.tilde_enumerate_types, 2)):
    try:
        enumerate_basis(grade)
    except AssertionError:
        pass
    else:
        raise SystemExit("the patch does not reach " + enumerate_basis.__name__)
print(repr(evolution.table_rows(3, 6, connected=False)))
print(repr(nonsep.tilde_table_rows(5, 6, connected=False)))
"""


def test_the_evolution_enumerates_no_block_basis():
    src = os.path.dirname(os.path.dirname(realhurwitz.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", NO_BASIS], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        repr(evolution.table_rows(3, 6, connected=False)),
        repr(nonsep.tilde_table_rows(5, 6, connected=False))]


@pytest.mark.parametrize("series", [
    series(SIGNED, bidegree_box(Bidegree(4, 4)), 8, connected=True),
    series(SIGNED, bidegree_box(Bidegree(4, 4)), 8, connected=False),
    series(UNSIGNED, [(n,) for n in range(7)], 8, connected=True),
    series(UNSIGNED, [(n,) for n in range(7)], 8, connected=False),
], ids=["box-connected", "box-disconnected", "unsigned-connected", "unsigned-disconnected"])
def test_records_are_the_rows_in_lowest_terms(series):
    records = list(series.records())
    assert records == [(r.m, r.mu, r.chi, r.value.numerator, r.value.denominator)
                       for r in series.rows()]
    # each record is the store's value in lowest terms, every nonzero entry
    # once, ordered by m and then by canonical_key
    assert len(records) == sum(len(vec) for piece in series.pieces.values() for vec in piece)
    assert records == sorted(records, key=lambda r: (r[0], canonical_key(r[1])))
    for m, mu, chi, num, den in records:
        assert den > 0 and gcd(num, den) == 1
        assert Fraction(num, den) == series.value(mu, m) != 0
        assert chi == euler_characteristic(mu, m)


# a type beside its canonical twin: parts out of order, a float or bool part,
# an even part in the odd slot, a type of the other model or none; the first
# five used to read a wrong value or to fail deep inside the pipeline
@pytest.mark.parametrize("value, mu, m, twin, count", [
    (hurwitz_value, RamificationType((1, 2), (), ()), 3, rtype((2, 1)), 1),
    (hurwitz_value, RamificationType((2.0, 1), (), ()), 3, rtype((2, 1)), 1),
    (hurwitz_value, RamificationType((True,), (), ()), 0, rtype((1,)), 1),
    (tilde_connected_value, TildeType((), (), (2,), ()), 5, ttype(kappa_plus=(2,)),
     Fraction(1, 2)),
    (tilde_connected_value, TildeType((), (), (3.0,), ()), 6, ttype(kappa_odd=(3,)), 9),
    (hurwitz_value, ttype(kappa_odd=(3,)), 6, rtype((3,)), 4),
    (tilde_connected_value, rtype((3,)), 6, ttype(kappa_odd=(3,)), 9),
    (hurwitz_value, ((2, 1), (), ()), 3, rtype((2, 1)), 1),
], ids=["unsorted", "float-part", "bool-part", "unsigned-parity", "unsigned-float-part",
        "unsigned-type", "signed-type", "plain-tuple"])
def test_a_value_of_a_type_not_in_canonical_form_raises(value, mu, m, twin, count):
    with pytest.raises(ValueError):
        value(mu, m)
    assert value(twin, m) == count


def _order_shifted(powers):
    """powers that reads order m + 1 where order m is meant, for every m >= 1."""
    def broken(column, start, max_m):
        out = powers(column, start, max_m + 1)
        return out[:1] + out[2:]
    return broken


@pytest.mark.parametrize("suite", ["oracle", "nonsep"])
def test_a_broken_shared_evolve_step_fails_the_walk_check_of_both_models(
        monkeypatch, capsys, suite):
    # both models evolve through operators.evolve, so one break reaches both
    monkeypatch.setattr(operators, "powers", _order_shifted(operators.powers))
    assert main(["verify", "--suite", suite]) == 1
    assert "\nFAIL walk counts equal evolution on " in capsys.readouterr().out


def test_the_unsigned_series_never_calls_the_mirror(monkeypatch):
    def refuse(piece):
        raise AssertionError("the mirror was called")

    monkeypatch.setattr(operators, "mirror", refuse)
    degrees = [(n,) for n in range(7)]
    for (n,), piece in series(UNSIGNED, degrees, 6, False).pieces.items():
        assert piece == tilde_labelled_by_paths(n, 6)
    assert series(UNSIGNED, degrees, 6, True).value(ttype(kappa_odd=(3,)), 6) == 9
    with pytest.raises(AssertionError, match="mirror"):  # the signed series mirrors
        series(SIGNED, enumerate_bidegrees(1), 0, False)


def test_a_table_evolves_one_block_of_each_sign_swap_pair(monkeypatch, capsys):
    evolved = []
    powers = operators.powers

    def recording(column, start, max_m):
        evolved.append(next(iter(start)).grade)
        return powers(column, start, max_m)

    monkeypatch.setattr(operators, "powers", recording)
    assert main(["table", "--max-degree", "6", "--max-m", "10", "--format", "csv"]) == 0
    assert capsys.readouterr().out
    assert len(bidegree_box(Bidegree(6, 6))) == 49
    assert len(evolved) == len(set(evolved)) == 28
    assert all(b.n_plus >= b.n_minus for b in evolved)
