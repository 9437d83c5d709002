"""Harness behavior: determinism, discretization convergence, experiments."""

import hashlib
import json
import logging
import re
import struct
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ivtest import (
    DGPSpec,
    Dataset,
    DegenerateGridError,
    EmptyBinError,
    GridDistribution,
    IVTestError,
    NonAtomicityError,
    ValidationError,
    discretize,
    make_test,
    nontestability_demo,
    product_conditional,
    run_experiment,
    sample,
)
from ivtest import measures, simulate
from ivtest.measures import Conditional2D, JointLaw, LawBatch
from ivtest.simulate import COMPARE_MAX_BINS, replication_seed
from ivtest.validity import Runner, TestReport

from conftest import float_loop_csv_rows, per_bin_discretize, random_joint_law


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def test_sample_reproducible_byte_identical():
    spec = DGPSpec(name="loc")
    a = sample(spec, 4, seed=11)
    b = sample(spec, 4, seed=11)
    assert a.to_csv_text() == b.to_csv_text()
    assert np.array_equal(a.rows, b.rows)
    c = sample(spec, 4, seed=12)
    assert not np.array_equal(a.rows, c.rows)


def test_sample_valid_instrument_independence():
    spec = DGPSpec(name="loc")
    d = sample(spec, 100_000, seed=3)
    u = d.rows[:, 1] - d.rows[:, 2]  # x - z recovers u for the location DGP
    corr = float(np.corrcoef(d.rows[:, 2], u)[0, 1])
    assert abs(corr) < 0.01


def test_sample_copula_weight_one_ties_z_to_u():
    spec = DGPSpec(name="tied", instrument_valid=False, copula_weight=1.0)
    d = sample(spec, 50_000, seed=3)
    u = d.rows[:, 1] - d.rows[:, 2]
    corr = float(np.corrcoef(d.rows[:, 2], u)[0, 1])
    assert corr > 0.99


def direct_sample(spec, n, seed):
    """One spec's rows computed directly: the three rank streams in the
    order u, v, z, each law's quantile taken on its own."""
    rng = np.random.default_rng(np.random.SeedSequence((seed,)))
    t_u, t_v, t_z = rng.uniform(size=n), rng.uniform(size=n), rng.uniform(size=n)
    u, v = spec.u_law.quantile(t_u), spec.v_law.quantile(t_v)
    z = spec.z_law.quantile(t_z)
    if spec.copula_weight != 0.0:
        tied = spec.z_law.quantile(t_u if spec.copula_target == "u" else t_v)
        z = (1.0 - spec.copula_weight) * z + spec.copula_weight * tied
    x = spec.first_stage_values(z, u)
    return np.column_stack([spec.outcome_values(x, v), x, z])


def shared_draw_specs():
    """Equal laws held as distinct objects (one read from JSON), different
    u, v and z laws, both copula targets and weights 0, 0.5 and 1."""
    skewed = GridDistribution(np.array([0.0, 0.5, 1.0]), np.array([0.3, 0.7]))
    atomic = GridDistribution(np.array([-1.0, 1.0]), np.array([0.6]), ((0.0, 0.4),))
    invalid = dict(instrument_valid=False)
    return [
        DGPSpec(name="loc"),
        DGPSpec(name="loc-json", u_law=GridDistribution.from_json_dict(
            GridDistribution.uniform(0, 1).to_json_dict())),
        DGPSpec(name="skewed", first_stage="scale", z_law=skewed, u_law=atomic,
                v_law=GridDistribution.uniform(-1, 2, 3)),
        DGPSpec(name="half-u", copula_weight=0.5, copula_target="u", **invalid),
        DGPSpec(name="half-v", z_law=skewed, copula_weight=0.5, copula_target="v", **invalid),
        DGPSpec(name="tied-v", first_stage="jump", copula_weight=1.0, copula_target="v",
                outcome="jump", **invalid),
        DGPSpec(name="tied-u", z_law=GridDistribution(skewed.edges, skewed.masses),
                copula_weight=1.0, copula_target="u", **invalid),
    ]


def binned_rows(monkeypatch):
    """Record the rows of every spec ``run_experiment`` bins, in the order
    binned, as the bytes of an ``(n, 3)`` array."""
    seen = []
    count_cells = simulate._count_cells

    def recording(block, *bins):
        seen.extend(np.ascontiguousarray(rows.T).tobytes() for rows in block)
        return count_cells(block, *bins)

    monkeypatch.setattr(simulate, "_count_cells", recording)
    return seen


def test_solo_sample_matches_the_direct_draw():
    for spec in shared_draw_specs():
        d = sample(spec, 300, seed=41)
        assert d.rows.tobytes() == direct_sample(spec, 300, 41).tobytes()


def test_run_experiment_shares_each_replications_draw(monkeypatch):
    """Every spec of a replication is sampled from one draw of the ranks,
    and its rows are bit for bit those of a solo ``sample`` with the
    replication's seed."""
    specs = shared_draw_specs()
    seen = binned_rows(monkeypatch)
    run_experiment(specs, [make_test("fosd")], n=400, reps=3, seed=17, bins=(3, 3, 2))
    want = []
    for rep in range(3):
        rep_seed = replication_seed(17, rep)
        want += [sample(s, 400, rep_seed).rows.tobytes() for s in specs]
    assert seen == want


def test_shared_draw_takes_each_quantile_once(monkeypatch):
    """One replication takes one quantile per distinct (law value, rank
    stream): equal laws given as distinct objects share theirs."""
    specs = shared_draw_specs()
    calls = []
    quantile = GridDistribution.quantile

    def counting(law, p):
        calls.append(law)
        return quantile(law, p)

    monkeypatch.setattr(GridDistribution, "quantile", counting)
    run_experiment(specs, [], n=100, reps=1, seed=3, bins=(3, 3, 2))
    # uniform(0, 1) at u, v and z (loc; loc-json, half-u and tied-v add
    # none); atomic at u, uniform(-1, 2, 3) at v and skewed at z (skewed);
    # skewed at v (half-v); skewed at u (tied-u, whose z law is a copy)
    assert len(calls) == 8
    calls.clear()
    run_experiment(specs[:2], [], n=100, reps=1, seed=3, bins=(3, 3, 2))
    assert len(calls) == 3


def test_custom_stage_writing_into_its_inputs_changes_no_other_spec(monkeypatch):
    def scribble_first(z, u):
        z += 100.0
        u *= -1.0
        return z + u

    def scribble_outcome(x, v):
        x[:] = 0.0
        v -= 7.0
        return v

    specs = [
        DGPSpec(name="scribble", first_stage="custom", first_stage_fn=scribble_first,
                outcome="custom", outcome_fn=scribble_outcome),
        DGPSpec(name="loc"),
        DGPSpec(name="tied", instrument_valid=False, copula_weight=1.0, copula_target="v"),
    ]
    seen = binned_rows(monkeypatch)
    run_experiment(specs, [], n=200, reps=1, seed=5, bins=(3, 3, 2))
    rep_seed = replication_seed(5, 0)
    assert seen == [direct_sample(s, 200, rep_seed).tobytes() for s in specs]
    rows = [np.frombuffer(r).reshape(-1, 3) for r in seen]
    # the scribbling stages wrote into copies: the z column is the shared draw
    assert np.array_equal(rows[0][:, 2], rows[1][:, 2])


@pytest.mark.parametrize(
    "n, message",
    [
        (0, "n must be at least 1: 0"),
        (-3, "n must be at least 1: -3"),
        (2.5, "n must be an integer: 2.5"),
        (True, "n must be an integer: True"),
    ],
)
def test_a_row_count_that_is_not_a_positive_integer_is_refused(n, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        sample(DGPSpec(name="loc"), n, seed=1)
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        run_experiment([DGPSpec(name="loc")], [], n=n, reps=1, seed=1)


@pytest.mark.parametrize(
    "seed, message",
    [(-1, "seed must be at least 0: -1"), (1.5, "seed must be an integer: 1.5")],
)
def test_a_seed_that_is_not_a_non_negative_integer_is_refused(seed, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        sample(DGPSpec(name="loc"), 10, seed)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"reps": True}, "reps must be an integer: True"),
        ({"reps": 2.5}, "reps must be an integer: 2.5"),
        ({"reps": 0}, "reps must be at least 1: 0"),
        ({"seed": 1.5}, "seed must be an integer: 1.5"),
        ({"seed": -1}, "seed must be at least 0: -1"),
        ({"nontestability_depth": True}, "nontestability_depth must be an integer: True"),
        ({"nontestability_depth": 2.0}, "nontestability_depth must be an integer: 2.0"),
        ({"nontestability_depth": -1}, "nontestability_depth must be at least 0: -1"),
    ],
)
def test_run_experiment_refuses_counts_seeds_and_depths_that_are_not_integers(kwargs, message):
    args = {"n": 200, "reps": 1, "seed": 1, **kwargs}
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        run_experiment([DGPSpec(name="loc")], [], **args)


def test_numpy_integer_arguments_give_the_same_table_in_plain_json():
    specs, tests = [DGPSpec(name="loc")], [make_test("fosd")]
    plain = run_experiment(specs, tests, n=400, reps=2, seed=4, bins=(3, 3, 3),
                           nontestability_depth=2)
    numpy = run_experiment(specs, tests, n=np.int64(400), reps=np.int64(2), seed=np.uint32(4),
                           bins=(np.int64(3),) * 3, nontestability_depth=np.int32(2))
    assert json.dumps(numpy.to_json_dict()) == json.dumps(plain.to_json_dict())
    assert numpy.to_csv_text() == plain.to_csv_text()


def test_spec_validation():
    with pytest.raises(ValidationError):
        DGPSpec(name="bad", copula_weight=0.5)  # valid forces weight 0
    with pytest.raises(ValidationError):
        DGPSpec(name="bad", first_stage="warp")
    with pytest.raises(ValidationError):
        DGPSpec(name="bad", instrument_valid=False, copula_weight=2.0)
    with pytest.raises(ValidationError):
        DGPSpec(name="bad", first_stage="custom")  # needs a callable
    with pytest.raises(ValidationError, match="^unknown outcome 'warp'$"):
        DGPSpec(name="bad", outcome="warp")
    with pytest.raises(ValidationError, match="^copula_target must be 'u' or 'v'$"):
        DGPSpec(name="bad", instrument_valid=False, copula_weight=0.5, copula_target="z")


def test_copula_weight_is_a_finite_number_stored_as_a_float():
    """``copula_weight`` passes the rule of the jump constants: a bool, a
    string or NaN is refused by name, and an int or NumPy number is kept
    as a plain float."""
    for bad in (True, "x", float("nan"), 10**400):
        with pytest.raises(ValidationError, match="^copula_weight must be a finite number"):
            DGPSpec(name="bad", instrument_valid=False, copula_weight=bad)
    for weight in (1, np.float32(0.5), np.int64(0)):
        spec = DGPSpec(name="ok", instrument_valid=False, copula_weight=weight)
        assert type(spec.copula_weight) is float and spec.copula_weight == weight


def test_product_conditional_refuses_atoms():
    atomic = GridDistribution(np.array([0.0, 1.0]), np.array([0.5]), ((0.5, 0.5),))
    for y, x in ((atomic, GridDistribution.uniform(0, 1)), (GridDistribution.uniform(0, 1), atomic)):
        with pytest.raises(ValidationError, match="^product conditionals require atom-free"):
            product_conditional(y, x)


@pytest.mark.parametrize("fn", ["abc", 3])
def test_custom_stage_that_is_not_callable_is_refused(fn):
    """Refused when the spec is built, not when replication 0 calls it."""
    with pytest.raises(ValidationError, match="needs a callable first_stage_fn"):
        DGPSpec(name="bad", first_stage="custom", first_stage_fn=fn)
    with pytest.raises(ValidationError, match="needs a callable outcome_fn"):
        DGPSpec(name="bad", outcome="custom", outcome_fn=fn)


def test_first_stage_kinds():
    z = np.array([0.0, 1.0])
    u = np.array([0.5, 0.5])
    assert np.allclose(DGPSpec(name="a").first_stage_values(z, u), [0.5, 1.5])
    assert np.allclose(
        DGPSpec(name="a", first_stage="scale").first_stage_values(z, u), [0.5, 1.0]
    )
    assert np.allclose(
        DGPSpec(name="a", first_stage="sign_flip").first_stage_values(z, u), [0.5, -0.5]
    )
    jump = DGPSpec(name="a", first_stage="jump", jump_size=3.0, jump_at=0.5)
    assert np.allclose(jump.first_stage_values(z, u), [0.5, 3.5])
    custom = DGPSpec(name="a", first_stage="custom", first_stage_fn=lambda z, u: z * u)
    assert np.allclose(custom.first_stage_values(z, u), [0.0, 0.5])


def test_dataset_csv_roundtrip():
    spec = DGPSpec(name="loc")
    d = sample(spec, 10, seed=2)
    back = Dataset.from_csv_text(d.to_csv_text())
    assert np.array_equal(back.rows, d.rows)
    with pytest.raises(ValidationError):
        Dataset.from_csv_text("a,b\n1,2\n")


def test_dataset_csv_accepts_float_grammar():
    # blank lines, CRLF endings, spaces in the header and around fields, and
    # an underscore literal: every field is read by float()
    text = "\r\n y , x , z \r\n\r\n 1.5 ,2, -3e2\r\n\n\t4,1_0,+.25 \r\n\n"
    rows = Dataset.from_csv_text(text).rows
    assert rows.tolist() == [[1.5, 2.0, -300.0], [4.0, 10.0, 0.25]]


def test_dataset_csv_seventeen_digits_round_trip_bitwise():
    values = np.random.default_rng(5).normal(scale=1e3, size=(40, 3))
    values[0] = [np.nextafter(1.0, 2.0), 5e-324, -1.7976931348623157e308]
    text = "y,x,z\n" + "".join(f"{y:.17g},{x:.17g},{z:.17g}\n" for y, x, z in values)
    assert Dataset.from_csv_text(text).rows.tobytes() == values.tobytes()


BAD_CSVS = {
    "header-only": ("y,x,z\n", "non-empty"),
    "ragged-row": ("y,x,z\n1,2,3\n4,5\n6,7,8\n", "row 2: need 3 fields, got '4,5'"),
    "long-row": ("y,x,z\n1,2,3,4\n", "row 1: need 3 fields"),
    "empty-field": ("y,x,z\n1,,3\n", "malformed dataset row 1: could not convert"),
    "non-numeric-field": ("y,x,z\n1,2,3\n1,two,3\n", "row 2: could not convert string to float: 'two'"),
    "nan": ("y,x,z\n1,2,3\nnan,2,3\n", "rows must be finite: nan at index \\(1, 0\\)"),
    "no-header": ("1,2,3\n", "header y,x,z"),
}


@pytest.mark.parametrize("case", list(BAD_CSVS))
def test_dataset_csv_refuses_malformed(case):
    text, message = BAD_CSVS[case]
    with pytest.raises(ValidationError, match=message):
        Dataset.from_csv_text(text)


def csv_outcome(parse, text):
    """The bytes of the rows ``parse`` gives, or the type and message it
    raises; warnings are raised as errors."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return parse(text).rows.tobytes()
        except Exception as exc:
            return type(exc), str(exc)


def assert_parses_as_float_loop(text):
    want = csv_outcome(lambda t: Dataset(float_loop_csv_rows(t)), text)
    assert csv_outcome(Dataset.from_csv_text, text) == want


# random float64 bit patterns, written as repr or with 17 significant digits
BIT_PATTERN_FIELDS = st.integers(0, 2**64 - 1).map(
    lambda bits: struct.unpack("<d", bits.to_bytes(8, "little"))[0]
).flatmap(lambda v: st.sampled_from([repr(v), "%.17g" % v]))

# 1-40 digits with an optional point, exponents by the subnormal and overflow edges
EDGE_DIGIT_FIELDS = st.builds(
    lambda sign, digits, point, exp: f"{sign}{digits[:point]}.{digits[point:]}e{exp}"
    if point <= len(digits) else f"{sign}{digits}e{exp}",
    st.sampled_from(["", "-", "+"]),
    st.text("0123456789", min_size=1, max_size=40),
    st.integers(0, 41),
    st.one_of(st.integers(-345, -300), st.integers(280, 330)),
)

# forms that only float reads, with a signed zero and spaced fields among them
FLOAT_ONLY_FIELDS = st.sampled_from(["1_0", "١٢", "1_0e-1_0", "-0.0", " 1.5 ", "\t2"])
# forms that neither reads whole, or that split a row
REFUSED_FIELDS = st.sampled_from(
    ["#1", '"1"', "inf", "0x10", "1d5", "", " ", "1\x0c2", "3\x854", "5\u20286"]
)

ROW_BREAKS = st.sampled_from(["\n", "\r\n", "\n\n", "\r", "\x0c", "\x85", "\u2028", "\n \n"])


def csv_texts(fields, min_fields=3, max_fields=3):
    """Dataset CSV texts whose rows hold ``fields``, three to a row or, with
    other bounds, as many as the bounds allow."""
    rows = st.lists(fields, min_size=min_fields, max_size=max_fields)
    return st.builds(
        lambda header, rows, breaks: header + "".join(
            brk + ",".join(row) for row, brk in zip(rows, breaks)
        ) + "\n",
        st.sampled_from(["y,x,z", " y , x , z "]),
        st.lists(rows, min_size=1, max_size=5),
        st.lists(ROW_BREAKS, min_size=5, max_size=5),
    )


@settings(max_examples=150, deadline=None)
@given(csv_texts(st.one_of(BIT_PATTERN_FIELDS, EDGE_DIGIT_FIELDS)))
def test_dataset_csv_matches_float_loop_bitwise_on_numbers(text):
    assert_parses_as_float_loop(text)


@settings(max_examples=150, deadline=None)
@given(csv_texts(st.one_of(BIT_PATTERN_FIELDS, FLOAT_ONLY_FIELDS)))
def test_dataset_csv_matches_float_loop_on_float_only_grammar(text):
    assert_parses_as_float_loop(text)


@settings(max_examples=150, deadline=None)
@given(csv_texts(st.one_of(BIT_PATTERN_FIELDS, FLOAT_ONLY_FIELDS, REFUSED_FIELDS), 2, 4))
def test_dataset_csv_refuses_as_float_loop(text):
    assert_parses_as_float_loop(text)


@pytest.mark.parametrize(
    "text",
    [text for text, _ in BAD_CSVS.values()]
    + ["\r\n y , x , z \r\n\r\n 1.5 ,2, -3e2\r\n\n\t4,1_0,+.25 \r\n\n", "y,x,z\n1,2,3\n \n4,5,6\n"],
    ids=[*BAD_CSVS, "float-grammar", "whitespace-line"],
)
def test_dataset_csv_matches_float_loop_on_fixed_cases(text):
    assert_parses_as_float_loop(text)


def test_dataset_csv_header_only_warns_nothing():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="non-empty"):
            Dataset.from_csv_text("y,x,z\n")


def test_dataset_csv_plain_body_is_one_loadtxt_result(monkeypatch):
    loadtxt, read = np.loadtxt, []

    def spy(*args, **kwargs):
        read.append(loadtxt(*args, **kwargs))
        return read[-1]

    monkeypatch.setattr(np, "loadtxt", spy)
    rows = Dataset.from_csv_text("y,x,z\n1,2,3\n 4 , 5e-1 ,-6\n").rows
    assert len(read) == 1 and rows is read[0]
    assert rows.tolist() == [[1.0, 2.0, 3.0], [4.0, 0.5, -6.0]]


def test_dataset_csv_writer_matches_float_repr_loop():
    rng = np.random.default_rng(11)
    bits = rng.integers(0, 2**64, size=300, dtype=np.uint64).view(np.float64)
    rows = np.concatenate([
        [[-0.0, 5e-324, 1e16], [1e-5, 1.7976931348623157e308, -1.7976931348623157e308]],
        rng.normal(scale=1e3, size=(40, 3)),
        bits[np.isfinite(bits)][:240].reshape(-1, 3),
    ])
    want = "y,x,z\n" + "".join(f"{float(y)!r},{float(x)!r},{float(z)!r}\n" for y, x, z in rows)
    assert Dataset(rows).to_csv_text() == want


# ---------------------------------------------------------------------------
# discretize
# ---------------------------------------------------------------------------


def test_discretize_uniform_concentration():
    """Flat DGP at large n: conditionals approach the flat matrix."""
    flat = DGPSpec(
        name="flat",
        first_stage="custom",
        outcome="custom",
        first_stage_fn=lambda z, u: u,
        outcome_fn=lambda x, v: v,
    )
    law = discretize(sample(flat, 100_000, seed=9), 4, 4, 4)
    target = np.full((4, 4), 1 / 16)
    for c in law.conditionals:
        tv = 0.5 * float(np.abs(c.mass - target).sum())
        assert tv <= 0.02


@pytest.mark.parametrize("bad", [4.5, 4.0, "4", True, np.bool_(True), None])
def test_discretize_refuses_a_bin_count_that_is_not_an_integer(bad):
    data = sample(DGPSpec(name="loc"), 200, seed=1)
    for k, name in enumerate(("y_bins", "x_bins", "z_bins")):
        bins = [4, 4, 4]
        bins[k] = bad
        with pytest.raises(ValidationError, match=f"^{name} must be an integer: "):
            discretize(data, *bins)
        # refused before replication 0 is sampled
        with pytest.raises(ValidationError, match=f"^{name} must be an integer: "):
            run_experiment([DGPSpec(name="loc")], [], n=200, reps=1, seed=1, bins=tuple(bins))
    law = discretize(data, np.int64(4), np.int32(4), 4)
    assert law.conditionals[0].mass.shape == (4, 4) and len(law.z_grid) == 4


def test_discretize_single_z_bin_rejected_but_two_work():
    spec = DGPSpec(name="loc")
    with pytest.raises(ValidationError):
        discretize(sample(spec, 100, seed=1), 4, 4, 1)
    law = discretize(sample(spec, 200, seed=1), 2, 2, 2)
    assert len(law.conditionals) == 2


def test_discretize_identical_rows_point_mass():
    rows = np.tile(np.array([[1.0, 2.0, 3.0]]), (50, 1))
    data = Dataset(rows)
    law = discretize(data, 2, 2, 2)
    # everything lands in one (y, x) cell of the populated z bin
    assert max(float(c.mass.max()) for c in law.conditionals) == 1.0


def test_discretize_empty_z_bin_error():
    rows = np.column_stack(
        [np.linspace(0, 1, 50), np.linspace(0, 1, 50), np.concatenate([np.zeros(25), np.ones(25)])]
    )
    data = Dataset(rows)
    with pytest.raises(EmptyBinError):
        discretize(data, 2, 2, 5)  # middle z bins are empty


def assert_same_law(a, b):
    """Bit-for-bit equality of two joint laws."""
    assert a.z_grid.tobytes() == b.z_grid.tobytes()
    assert a.pz.edges.tobytes() == b.pz.edges.tobytes()
    assert a.pz.masses.tobytes() == b.pz.masses.tobytes()
    assert a.pz.atoms == b.pz.atoms
    assert len(a.conditionals) == len(b.conditionals)
    for c, d in zip(a.conditionals, b.conditionals):
        assert c.y_edges.tobytes() == d.y_edges.tobytes()
        assert c.x_edges.tobytes() == d.x_edges.tobytes()
        assert c.mass.tobytes() == d.mass.tobytes()


@pytest.mark.parametrize("first_stage", ["location", "scale", "jump", "sign_flip"])
@pytest.mark.parametrize("n, bins", [(500, (4, 4, 4)), (3_000, (8, 5, 3)), (20_000, (2, 7, 6))])
def test_discretize_matches_per_bin_oracle(first_stage, n, bins):
    spec = DGPSpec(name=first_stage, first_stage=first_stage)
    data = sample(spec, n, seed=n + len(first_stage))
    assert_same_law(discretize(data, *bins), per_bin_discretize(data, *bins))


def test_discretize_matches_per_bin_oracle_on_edges():
    # integer rows on the equal-width edges 0, 1, ..., 4 of every axis: each
    # value sits on an edge, and 4 on the closed last one
    grid = np.array([[y, x, z] for y in range(5) for x in range(5) for z in range(5)], float)
    rows = np.concatenate([grid, grid[grid[:, 2] == 4.0], grid[::7]])
    data = Dataset(rows)
    law = discretize(data, 4, 4, 4)
    assert_same_law(law, per_bin_discretize(data, 4, 4, 4))
    assert law.conditionals[3].mass[3, 3] > 0  # (4, 4, 4) lands in the last cell
    # constant instrument: one z bin around the single value
    const = Dataset(np.column_stack([rows[:, :2], np.full(len(rows), 2.0)]))
    law = discretize(const, 3, 2, 5)
    assert_same_law(law, per_bin_discretize(const, 3, 2, 5))
    assert law.pz.edges.tolist() == [1.5, 2.5]


def test_discretize_empty_z_bin_matches_per_bin_oracle():
    rows = np.column_stack([np.arange(6.0), np.arange(6.0), [0, 0, 0, 4, 4, 1]])
    data = Dataset(rows)
    for fn in (discretize, per_bin_discretize):
        with pytest.raises(EmptyBinError, match="^z bin 2 received no samples$"):
            fn(data, 2, 2, 4)


def test_discretize_refuses_collapsed_edges():
    """Values 1e16 + {0, 2, 4} are 2 apart at a spacing of 2: four bins
    between them need edges that do not exist, and linspace repeats one."""
    y = 1e16 + np.array([0.0, 2.0, 4.0] * 4)
    rows = np.column_stack([y, np.arange(12.0), np.arange(12.0) % 2])
    data = Dataset(rows)
    with pytest.raises(ValidationError, match="^y edges must be strictly increasing$"):
        discretize(data, 4, 2, 2)
    assert discretize(data, 2, 2, 2).conditionals[0].y_edges.tolist() == [1e16, 1e16 + 2, 1e16 + 4]
    # the same values as z: the collapsed edges leave z bins empty, and the
    # error names the edges
    data = Dataset(rows[:, [1, 2, 0]])
    with pytest.raises(ValidationError, match="^z edges must be strictly increasing$"):
        discretize(data, 2, 2, 4)


@pytest.mark.parametrize("y_bins", [2, COMPARE_MAX_BINS + 1])
def test_discretize_refuses_a_range_past_the_largest_float(y_bins):
    """y, or z, from -1e308 to 1e308 spans more than the largest float:
    linspace gives NaN edges, which are refused with a ValidationError,
    whichever binning path runs."""
    rows = np.array([[-1e308, 0.0, 0.0], [1e308, 1.0, 1.0], [0.0, 0.5, 0.5]])
    with np.errstate(all="ignore"), pytest.raises(
        ValidationError, match="^y edges must be finite: nan at index 0$"
    ):
        discretize(Dataset(rows), y_bins, 2, 2)
    # the same values as z, whose NaN edges leave z bins empty
    with np.errstate(all="ignore"), pytest.raises(
        ValidationError, match="^z edges must be finite: nan at index 0$"
    ):
        discretize(Dataset(rows[:, [1, 2, 0]]), 2, 2, y_bins)


BIN_COUNTS = [*range(2, COMPARE_MAX_BINS + 1), COMPARE_MAX_BINS + 1]


@settings(max_examples=30, deadline=None)
@given(
    lo=st.floats(-1e12, 1e12),
    spans=st.lists(st.floats(1e-6, 1e12), min_size=1, max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
def test_bin_index_matches_searchsorted_on_edges_and_their_neighbours(lo, spans, seed):
    """The comparison count, and the search above the cut, give
    histogramdd's bin of every value at or above the first edge: each edge,
    the float on either side of it and values between, at every bin count
    up to the cut and one past it.  A row padded with +inf past its first
    edge puts every value in bin 0."""
    rng = np.random.default_rng(seed)
    for bins in BIN_COUNTS:
        edges = np.array([np.linspace(lo, lo + span, bins + 1) for span in spans])
        edges = edges[(np.diff(edges, axis=1) > 0).all(axis=1)]
        if not len(edges):
            continue
        values = np.concatenate(
            [edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
             rng.uniform(edges[:, :1], edges[:, -1:], (len(edges), 16))],
            axis=1,
        )
        values = np.maximum(values, edges[:, :1])
        padded = np.full(bins + 1, np.inf)
        padded[0] = edges[0, 0]
        edges, values = np.vstack([edges, padded]), np.vstack([values, values[0]])
        want = [np.minimum(np.searchsorted(e, v, "right") - 1, bins - 1)
                for e, v in zip(edges, values)]
        assert np.array_equal(simulate._bin_index(values, edges), want), bins


def edge_valued_spec():
    """Integer y, x and z values, which sit on the edges of many grids; z
    takes the seven values 0..6, so every grid of up to 6 z bins fills."""
    return DGPSpec(
        name="edges",
        first_stage="custom", first_stage_fn=lambda z, u: np.floor(5.0 * u),
        outcome="custom", outcome_fn=lambda x, v: np.floor(5.0 * v),
        z_law=GridDistribution.from_atoms([(float(k), 1 / 7) for k in range(7)]),
    )


@pytest.mark.parametrize("bins", [(8, 5, 3), (2, 7, 6), (4, COMPARE_MAX_BINS + 8, 3)])
def test_each_replications_laws_are_discretize_of_each_sample(bins):
    """The laws ``run_experiment`` tests are, bit for bit, ``discretize``
    and the per-bin oracle of each spec's sample with the replication's
    seed: every first stage, a constant instrument (one z bin) and values
    on the edges, at bin counts below and past the cut."""
    specs = [DGPSpec(name=kind, first_stage=kind)
             for kind in ("location", "scale", "jump", "sign_flip")]
    specs += [DGPSpec(name="const-z", z_law=GridDistribution.point_mass(0.5)), edge_valued_spec()]
    seen = []

    def recording(law):
        seen.append(law)
        return TestReport("record", 0.0, 1.0)

    record = Runner(lambda laws: [recording(law) for law in laws.laws])
    run_experiment(specs, [("record", record)], n=3_000, reps=2, seed=11, bins=bins)
    assert len(seen) == 2 * len(specs)
    for k, law in enumerate(seen):
        rep, spec = divmod(k, len(specs))
        data = sample(specs[spec], 3_000, replication_seed(11, rep))
        assert_same_law(law, discretize(data, *bins))
        assert_same_law(law, per_bin_discretize(data, *bins))
    assert len(seen[4].z_grid) == 1


def test_discretize_sample_converges_sqrt_n():
    """TV against the analytic conditional roughly halves as n quadruples."""
    flat = DGPSpec(
        name="flat",
        first_stage="custom",
        outcome="custom",
        first_stage_fn=lambda z, u: u,
        outcome_fn=lambda x, v: v,
    )
    target = np.full((4, 4), 1 / 16)

    def tv_at(n):
        vals = []
        for seed in range(5):
            law = discretize(sample(flat, n, seed=seed), 4, 4, 4)
            vals.append(
                np.mean([0.5 * float(np.abs(c.mass - target).sum()) for c in law.conditionals])
            )
        return float(np.mean(vals))

    t1, t2 = tv_at(4_000), tv_at(16_000)
    assert t2 < t1
    assert t2 >= t1 / 4  # within a factor 2 of exact sqrt scaling


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------


def test_replication_seed_deterministic():
    assert replication_seed(7, 3) == replication_seed(7, 3)
    assert replication_seed(7, 3) != replication_seed(7, 4)
    assert replication_seed(8, 3) != replication_seed(7, 3)


def test_run_experiment_monotone_soundness_and_power():
    specs = [
        DGPSpec(name="loc-valid"),
        DGPSpec(name="flip", first_stage="sign_flip"),
    ]
    tests = [make_test("fosd", tol=0.12)]
    res = run_experiment(specs, tests, n=10_000, reps=40, seed=99)
    assert res.entries[("loc-valid", "fosd")].rejection_rate == 0.0
    assert res.entries[("flip", "fosd")].rejection_rate >= 0.95


def test_run_experiment_logs_progress_at_info(caplog):
    specs = [DGPSpec(name="loc"), DGPSpec(name="scale", first_stage="scale")]
    tests = [make_test("fosd")]
    run_experiment(specs, tests, n=200, reps=2, seed=1)
    assert not [r for r in caplog.records if r.name == "ivtest.simulate"]

    caplog.set_level(logging.INFO, logger="ivtest.simulate")
    t0 = time.perf_counter()
    run_experiment(specs, tests, n=20_000, reps=2, seed=1)
    wall = time.perf_counter() - t0
    records = [r for r in caplog.records if r.name == "ivtest.simulate"]
    # replication-major: every spec of a replication after its test pass
    assert [(r.levelno, r.spec, r.rep) for r in records] == [
        (logging.INFO, name, rep) for rep in (0, 1) for name in ("loc", "scale")
    ]
    assert all(r.elapsed_s >= 0.0 and f"replication {r.rep} of 2" in r.getMessage()
               for r in records)
    # each spec's share of the rank draw and of the test pass is counted
    # once: the records sum to the run's wall time, less its untimed glue
    assert 0.75 * wall <= sum(r.elapsed_s for r in records) <= wall


def test_run_experiment_empty_tests():
    res = run_experiment([DGPSpec(name="loc")], [], n=100, reps=2, seed=1)
    assert res.entries == {}


def test_run_experiment_rejects_zero_reps():
    with pytest.raises(ValidationError):
        run_experiment([DGPSpec(name="loc")], [], n=100, reps=0, seed=1)


def no_draw(*args):
    raise AssertionError("a replication was drawn")


FLIP = DGPSpec(name="flip", first_stage="sign_flip")


@pytest.mark.parametrize(
    "specs, tests, depth, message",
    [
        ([FLIP], [make_test("fosd"), make_test("fosd")], None, "test name 'fosd' is not unique"),
        ([DGPSpec(name="a"), replace(FLIP, name="a")], [make_test("fosd")], None,
         "row name 'a' is not unique"),
        ([DGPSpec(name="a"), replace(FLIP, name="a@replicated")], [make_test("fosd")], 3,
         "row name 'a@replicated' is not unique"),
        ([FLIP], [make_test("fosd"), ("plain", lambda law: None)], None,
         "test 'plain' must be a make_test runner, not <function"),
    ],
    ids=["duplicate-test", "duplicate-spec", "spec-named-like-a-twin", "plain-callable"],
)
def test_run_experiment_refuses_before_any_draw(monkeypatch, specs, tests, depth, message):
    """Repeated test or row names, which would add two tests into one row
    or let one spec's rows replace another's, and a test that is not a
    ``make_test`` runner are refused before any replication is drawn."""
    monkeypatch.setattr(simulate, "RankDraw", no_draw)
    with pytest.raises(ValidationError, match="^" + re.escape(message)):
        run_experiment(specs, tests, n=200, reps=1, seed=1, nontestability_depth=depth)


def test_a_spec_named_like_a_twin_is_refused_only_with_a_depth():
    """Without a depth there are no twin rows, so a spec may be named
    ``a@replicated``; each row is its own spec's."""
    specs = [DGPSpec(name="a"), replace(FLIP, name="a@replicated")]
    tests = [make_test("fosd")]
    res = run_experiment(specs, tests, n=2_000, reps=3, seed=1)
    for spec in specs:
        alone = run_experiment([spec], tests, n=2_000, reps=3, seed=1)
        assert res.entries[(spec.name, "fosd")] == alone.entries[(spec.name, "fosd")]
    with pytest.raises(ValidationError, match="^row name 'a@replicated' is not unique$"):
        run_experiment(specs, tests, n=2_000, reps=3, seed=1, nontestability_depth=3)


def test_run_experiment_propagates_spec_context():
    bad = DGPSpec(name="needle", first_stage="jump", jump_size=50.0)
    # jump of 50 splits z into two clusters: middle z bins get no samples
    with pytest.raises(Exception, match="needle"):
        run_experiment(
            [bad], [make_test("fosd")], n=50, reps=1, seed=1, bins=(2, 2, 30)
        )


def stage_that_raises(z, u):
    raise ArithmeticError("stage c is broken")


def nan_at_row_5(z, u):
    return np.where(np.arange(len(z)) == 5, np.nan, z + u)


# a spec whose rows are not finite; one whose custom stage raises; one that
# leaves z bin 1 of 3 empty; one with collapsed y edges at bins (4, 2, 2);
# one whose z edges collapse at 3 z bins, and one whose z edges overflow to
# NaN, each of which leaves z bins empty too
NAN_ROWS = dict(first_stage="custom", first_stage_fn=nan_at_row_5)
RAISES = dict(first_stage="custom", first_stage_fn=stage_that_raises)
EMPTY_Z_BIN = dict(z_law=GridDistribution.from_atoms([(0.0, 0.5), (1.0, 0.5)]))
COLLAPSED_Y = dict(outcome="custom", outcome_fn=lambda x, v: 1e16 + 2.0 * np.floor(3.0 * v))
COLLAPSED_Z = dict(z_law=GridDistribution.from_atoms([(1e16 + d, 1 / 3) for d in (0.0, 2.0, 4.0)]))
with np.errstate(over="ignore"):  # the law's edges are 2e308 apart
    OVERFLOWED_Z = dict(z_law=GridDistribution.from_atoms([(z, 1 / 3) for z in (-1e308, 0.0, 1e308)]))


@pytest.mark.parametrize(
    "b, c, error, message",
    [
        (EMPTY_Z_BIN, NAN_ROWS, EmptyBinError, "z bin 1 received no samples"),
        (COLLAPSED_Y, RAISES, ValidationError, "y edges must be strictly increasing"),
        (NAN_ROWS, EMPTY_Z_BIN, ValidationError, "rows must be finite: nan at index (5, 0)"),
        (NAN_ROWS, RAISES, ValidationError, "rows must be finite: nan at index (5, 0)"),
        (COLLAPSED_Z, NAN_ROWS, ValidationError, "z edges must be strictly increasing"),
        (OVERFLOWED_Z, RAISES, ValidationError, "z edges must be finite: nan at index 0"),
    ],
)
def test_run_experiment_raises_the_first_failure_in_spec_order(b, c, error, message):
    """Of three specs the second fails and the third fails too, at a stage
    that the stacked path reaches before the second's: the error raised is
    the second's, as a spec-by-spec loop of sample and discretize meets it,
    type, message and prefix.  A non-finite row is named by its index among
    its own spec's rows."""
    specs = [DGPSpec(name="a"), DGPSpec(name="b", **b), DGPSpec(name="c", **c)]
    with np.errstate(all="ignore"), pytest.raises(IVTestError) as info:
        run_experiment(specs, [make_test("fosd")], n=400, reps=1, seed=3, bins=(4, 2, 3))
    assert type(info.value) is error
    assert str(info.value) == f"spec 'b', replication 0: {message}"


def test_run_experiment_replicates_every_earlier_law_before_a_later_spec_fails():
    """An earlier spec's refused replication comes before a later spec's
    failure to sample."""
    specs = [DGPSpec(name="a", first_stage="jump", jump_size=50.0),
             DGPSpec(name="b", **RAISES)]
    with pytest.raises(NonAtomicityError, match="^spec 'a', replication 0: x-marginals"):
        run_experiment(specs, [], n=400, reps=1, seed=3, bins=(4, 4, 2), nontestability_depth=2)


@pytest.mark.parametrize(
    "fn, shape", [(lambda z, u: 1.0, "()"), (lambda z, u: z[:, None], "(50, 1)")]
)
def test_custom_stage_must_give_one_value_per_row(fn, shape):
    spec = DGPSpec(name="odd", first_stage="custom", first_stage_fn=fn)
    message = re.escape(f"custom first stage must give one value per row: shape {shape}, not (50,)")
    with pytest.raises(ValidationError, match=f"^{message}$"):
        sample(spec, 50, seed=1)
    with pytest.raises(ValidationError, match=f"^spec 'odd', replication 0: {message}$"):
        run_experiment([DGPSpec(name="loc"), spec], [], n=50, reps=1, seed=1)


def test_cell_table_cap_boundaries(monkeypatch):
    """A z * y * x table at the cap is counted; one entry past it is refused
    by discretize and run_experiment before any binning."""
    data = sample(DGPSpec(name="loc"), 500, seed=2)
    monkeypatch.setattr(measures, "MAX_CELL_ENTRIES", 3 * 4 * 5)
    law = discretize(data, 3, 4, 5)
    assert len(law.z_grid) == 5 and law.conditionals[0].mass.shape == (3, 4)
    run_experiment([DGPSpec(name="loc")], [], n=500, reps=1, seed=2, bins=(5, 4, 3))
    monkeypatch.setattr(measures, "MAX_CELL_ENTRIES", 3 * 4 * 5 - 1)
    monkeypatch.setattr(simulate, "_count_cells", None)  # never reached
    message = "^a 3x4x5 cell table needs 60 entries, more than 59$"
    with pytest.raises(ValidationError, match=message):
        discretize(data, 3, 4, 5)
    with pytest.raises(ValidationError, match=message.replace("3x4x5", "5x4x3")):
        run_experiment([DGPSpec(name="loc")], [], n=500, reps=1, seed=2, bins=(5, 4, 3))


def test_run_experiment_wraps_foreign_errors():
    """An exception whose constructor takes other arguments surfaces as an
    IVTestError naming the spec, chained to the original."""

    class FirstStageError(Exception):
        def __init__(self, code, detail):
            super().__init__(code, detail)

    def broken(z, u):
        raise FirstStageError(7, "no such stage")

    spec = DGPSpec(name="broken-stage", first_stage="custom", first_stage_fn=broken)
    with pytest.raises(IVTestError, match="broken-stage") as info:
        run_experiment([spec], [make_test("fosd")], n=50, reps=1, seed=1)
    assert isinstance(info.value.__cause__, FirstStageError)
    assert info.value.__cause__.args == (7, "no such stage")


def test_run_experiment_names_the_spec_whose_law_a_test_refuses():
    """A batched test that refuses one law raises that law's error, type
    kept, with its spec and replication; a foreign error too."""
    specs = [
        DGPSpec(name="loc"),
        DGPSpec(name="const-z", z_law=GridDistribution.point_mass(0.5)),  # one z bin
    ]
    with pytest.raises(DegenerateGridError) as info:
        run_experiment(specs, [make_test("fosd"), make_test("moment")], n=200, reps=2, seed=1)
    assert str(info.value) == (
        "spec 'const-z', replication 0: need at least 3 z points for the moment test"
    )

    def picky(law):
        if len(law.z_grid) < 2:
            raise ValueError("one z bin")
        return make_test("fosd")[1](law)

    with pytest.raises(IVTestError, match=r"^spec 'const-z', replication 0: ValueError"):
        run_experiment(specs, [("picky", Runner(lambda laws: [picky(law) for law in laws.laws]))],
                       n=200, reps=1, seed=1)


def test_run_experiment_tests_law_by_law_where_the_batch_is_refused(monkeypatch):
    """A batch whose pair gather the table cap refuses, though each of its
    laws fits, is tested one law at a time, with the same table.  One law's
    moment gather holds 3 pairs x 2 axes x 2 rows x 2 level columns x 5
    breakpoints = 120 entries, and the two laws' batch 240."""
    specs = [DGPSpec(name="loc"), DGPSpec(name="scale", first_stage="scale")]
    tests = [make_test("moment"), make_test("fosd", tol=0.1)]
    want = run_experiment(specs, tests, n=500, reps=2, seed=4).to_csv_text()
    laws = [discretize(sample(spec, 500, replication_seed(4, 0)), 4, 4, 4) for spec in specs]
    monkeypatch.setattr(measures, "MAX_CELL_ENTRIES", 160)
    for law in laws:
        tests[0][1](law)
    with pytest.raises(ValidationError, match="pair gather"):
        tests[0][1].batch(LawBatch(laws))
    assert run_experiment(specs, tests, n=500, reps=2, seed=4).to_csv_text() == want


def test_run_experiment_twin_rows_match():
    specs = [DGPSpec(name="inv", instrument_valid=False, copula_weight=1.0, copula_target="v")]
    tests = [make_test("fosd", tol=0.12), make_test("moment")]
    res = run_experiment(specs, tests, n=4_000, reps=5, seed=3, nontestability_depth=4)
    for name, _ in tests:
        a = res.entries[("inv", name)]
        b = res.entries[("inv@replicated", name)]
        assert a.rejection_rate == b.rejection_rate
        assert a.mean_statistic == pytest.approx(b.mean_statistic, abs=1e-12)


# sha256 of the CSV below, recorded with the spec-by-spec loop that tested
# one law at a time
GOLDEN_SIMULATE_SHA256 = "17139b9593208edf036cfcb03ece06ad287ad0f1c56672c8ef8b96df9f237b2d"


def criterion8_specs_and_tests():
    """The four processes and five tests of the criterion-8 config."""
    invalid = dict(instrument_valid=False, copula_weight=1.0, copula_target="v")
    specs = [
        DGPSpec(name="loc-valid"),
        DGPSpec(name="scale-valid", first_stage="scale"),
        DGPSpec(name="loc-invalid", **invalid),
        DGPSpec(name="scale-invalid", first_stage="scale", **invalid),
    ]
    tests = [
        make_test("fosd", tol=0.12),
        make_test("sure-decrease", K=1.0),
        make_test("jump", K=1.0),
        make_test("pearl"),
        make_test("moment"),
    ]
    return specs, tests


def test_run_experiment_tests_each_replication_in_one_batched_call(monkeypatch):
    """On the criterion-8 processes every registered test takes each
    replication's eight laws in one batched call, and no law is replayed
    alone."""
    specs, tests = criterion8_specs_and_tests()
    sizes = []

    def counted(batch_fn):
        def batch(laws):
            sizes.append(len(laws.laws))
            return batch_fn(laws)

        return batch

    singles = []
    monkeypatch.setattr(Runner, "__call__", lambda self, law: singles.append(law))
    counting = [(name, Runner(counted(fn.batch))) for name, fn in tests]
    run_experiment(specs, counting, n=500, reps=2, seed=8, nontestability_depth=4)
    assert sizes == [8] * (2 * len(tests))
    assert singles == []


def test_run_experiment_raises_a_defect_of_the_batched_code():
    """A batched call that fails with a foreign error on laws that each
    pass alone raises that error, not a table built law by law."""
    fosd = make_test("fosd")[1]

    def batch(laws):
        if len(laws.laws) > 1:
            raise IndexError("stacked rows out of range")
        return fosd.batch(laws)

    specs = [DGPSpec(name="loc"), DGPSpec(name="scale", first_stage="scale")]
    with pytest.raises(IndexError, match="stacked rows out of range"):
        run_experiment(specs, [("fosd", Runner(batch))], n=200, reps=1, seed=1)


def test_run_experiment_names_the_spec_of_a_report_it_cannot_read():
    """A runner whose report is not a TestReport fails as an IVTestError
    naming the spec and replication of the law it was given."""
    specs = [DGPSpec(name="loc"), DGPSpec(name="scale", first_stage="scale")]
    with pytest.raises(IVTestError, match=r"^spec 'loc', replication 0: AttributeError"):
        run_experiment(specs, [("none", Runner(lambda laws: [None for law in laws.laws]))],
                       n=200, reps=1, seed=1)


def test_run_experiment_without_specs_is_empty():
    assert run_experiment([], [make_test("fosd")], n=100, reps=2, seed=1).entries == {}


def test_seeded_simulate_csv_is_pinned():
    """The criterion-8 processes and tests at n=2000, 3 replications and
    replication depth 4: the seeded CSV keeps its bytes, twin rows
    included."""
    specs, tests = criterion8_specs_and_tests()
    csv = run_experiment(
        specs, tests, n=2000, reps=3, seed=2024, bins=(4, 4, 4), nontestability_depth=4
    ).to_csv_text()
    assert len(csv.splitlines()) == 1 + 8 * 5
    assert hashlib.sha256(csv.encode()).hexdigest() == GOLDEN_SIMULATE_SHA256


def test_experiment_result_serialization():
    import json

    specs = [DGPSpec(name="loc")]
    res = run_experiment(specs, [make_test("fosd", tol=0.1)], n=500, reps=3, seed=5)
    csv = res.to_csv_text()
    assert csv.splitlines()[0] == "spec,test,rejection_rate,reps,mean_statistic"
    assert json.dumps(res.to_json_dict())


# ---------------------------------------------------------------------------
# nontestability pipeline
# ---------------------------------------------------------------------------


def test_demo_replicates_invalid_copula_law(rng):
    spec = DGPSpec(
        name="max-invalid", instrument_valid=False, copula_weight=1.0, copula_target="v"
    )
    law = discretize(sample(spec, 10_000, seed=5), 8, 8, 8)
    model, err = nontestability_demo(law, 6)
    assert err == 0.0
    assert model.to_json_dict()["independence"] is True


def test_demo_constant_conditionals_depth0(rng):
    law = random_joint_law(rng, nz=1, ny=4, nx=4)
    conds = (law.conditionals[0],) * 3
    pz = GridDistribution.uniform(0, 1, 3)
    same = JointLaw([1 / 6, 0.5, 5 / 6], pz, conds)
    _, err = nontestability_demo(same, 0)
    assert err == 0.0


@pytest.mark.parametrize(
    "depth, message",
    [
        (True, "depth must be an integer: True"),
        (2.0, "depth must be an integer: 2.0"),
        (2.5, "depth must be an integer: 2.5"),
        (-1, "depth must be at least 0: -1"),
    ],
)
def test_demo_refuses_a_depth_that_is_not_a_non_negative_integer(rng, depth, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        nontestability_demo(random_joint_law(rng), depth)


def test_demo_at_a_numpy_integer_depth_writes_the_same_json(rng):
    law = random_joint_law(rng)
    model, err = nontestability_demo(law, np.int64(3))
    plain, _ = nontestability_demo(law, 3)
    assert err == 0.0 and type(model.generator.depth) is int
    assert json.dumps(model.to_json_dict()) == json.dumps(plain.to_json_dict())


def test_demo_refuses_atomic_marginal():
    """A discrete treatment stacking more than unit mass across two z sites
    is refused, and the refusal carries the forced collision mass."""
    y_edges = np.linspace(0, 1, 3)
    x_edges = np.linspace(0, 1, 3)
    m1 = np.array([[0.7, 0.0], [0.0, 0.3]])
    m2 = np.array([[0.5, 0.0], [0.0, 0.5]])
    # one positive x bin per conditional: atomic at grid resolution
    m1_deg = np.array([[1.0, 0.0], [0.0, 0.0]])
    m2_deg = np.array([[1.0, 0.0], [0.0, 0.0]])
    pz = GridDistribution.uniform(0, 1, 2)
    law = JointLaw(
        [0.25, 0.75],
        pz,
        (Conditional2D(y_edges, x_edges, m1_deg), Conditional2D(y_edges, x_edges, m2_deg)),
    )
    with pytest.raises(NonAtomicityError, match="collision mass"):
        nontestability_demo(law, 2)
    law_ok = JointLaw(
        [0.25, 0.75],
        pz,
        (Conditional2D(y_edges, x_edges, m1), Conditional2D(y_edges, x_edges, m2)),
    )
    _, err = nontestability_demo(law_ok, 3)
    assert err == 0.0


ATOMIC_MARGINALS = {
    # two sites with their one positive x bin in common: every coupling collides
    "forced-collision": (
        [[1, 0, 0], [1, 0, 0], [0.5, 0.5, 0]],
        "x-marginals at z sites [0, 1] are atomic at grid resolution; z sites 0 and 1"
        " force collision mass 1 under every coupling",
    ),
    # one atomic site: no pair to account
    "one-site": (
        [[0.5, 0.5, 0], [0, 0, 1], [0.2, 0.3, 0.5]],
        "x-marginals at z sites [1] are atomic at grid resolution",
    ),
    # two atomic sites on different bins: a coupling without collision exists
    "no-forced-collision": (
        [[0.25, 0.75, 0], [0, 1, 0], [0, 0, 1]],
        "x-marginals at z sites [1, 2] are atomic at grid resolution",
    ),
}


@pytest.mark.parametrize("case", list(ATOMIC_MARGINALS))
def test_demo_refusal_names_the_atomic_sites(case):
    """The refusal lists every site with fewer than two positive x bins and,
    for the first two, the collision mass they force, when positive."""
    x_masses, message = ATOMIC_MARGINALS[case]
    y_edges, x_edges = np.linspace(0, 1, 3), np.linspace(0, 1, 4)
    conds = tuple(
        Conditional2D(y_edges, x_edges, np.outer([0.5, 0.5], m)) for m in x_masses
    )
    law = JointLaw([1 / 6, 0.5, 5 / 6], GridDistribution.uniform(0, 1, 3), conds)
    with pytest.raises(NonAtomicityError) as info:
        nontestability_demo(law, 2)
    assert str(info.value) == message


def test_demo_atomic_pz_uses_cyclic_variant():
    from conftest import bernoulli_support_jump_law

    law = bernoulli_support_jump_law()
    model, err = nontestability_demo(law, 2)
    assert err == 0.0
    assert model.generator.arity == 4  # two atoms plus the two continuum slots
