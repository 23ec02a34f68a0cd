import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from switchctrl import fixtures
from switchctrl.cli import main
from switchctrl.model import (
    ConstantSystem,
    Mode,
    NotConstantError,
    SpecFormatError,
    SwitchSystem,
    as_constant,
    parse_spec,
    serialize_spec,
    system_digest,
    validate,
)
from switchctrl.pdmp import (
    FeedbackDualControl,
    ModePath,
    ZeroPolicy,
    sample_jump_chains,
    sample_mode_path,
    simulate_dual,
    simulate_forward,
    simulate_forward_batch,
)
from switchctrl.riccati import integrate_riccati, viability_test
from switchctrl.synth import piecewise_null_policy


def make_system(**overrides):
    sys_ = fixtures.nec1_not_det()
    if not overrides:
        return sys_
    fields = dict(n=sys_.n, d=sys_.d, m=sys_.m, beta=sys_.beta,
                  modes=sys_.modes, Q=sys_.Q, C=dict(sys_.C))
    fields.update(overrides)
    return SwitchSystem(**fields)


# ------------------------------------------------------------------ validate


def test_fixture_systems_are_valid():
    for name in fixtures.FIXTURE_NAMES:
        assert validate(fixtures.example_system(name)) == []


def test_row_not_stochastic_detected():
    bad = make_system(Q=np.array([[0.0, 1.0], [0.5, 0.4]]))
    codes = [v.code for v in validate(bad)]
    assert "row-not-stochastic" in codes


def test_diagonal_nonzero_detected():
    bad = make_system(Q=np.array([[0.1, 0.9], [1.0, 0.0]]))
    codes = [v.code for v in validate(bad)]
    assert "diagonal-nonzero" in codes


def test_missing_and_unused_edge_matrices_detected():
    sys_ = fixtures.nec1_not_det()
    C = dict(sys_.C)
    del C[(0, 1)]
    codes = [v.code for v in validate(make_system(C=C))]
    assert "C-missing:0->1" in codes

    C = dict(sys_.C)
    C[(0, 0)] = np.zeros((2, 2))
    codes = [v.code for v in validate(make_system(C=C))]
    assert "C-unused:0->0" in codes


def test_negative_rate_and_shape_mismatch_detected():
    sys_ = fixtures.nec1_not_det()
    bad_mode = Mode(id="0", embedding=sys_.modes[0].embedding, rate=-1.0,
                    A=np.zeros((2, 3)), B0=sys_.modes[0].B0)
    codes = [v.code for v in validate(make_system(modes=(bad_mode, sys_.modes[1])))]
    assert "rate-negative" in codes
    assert "dim-mismatch:modes[0].A" in codes


def test_recorded_bounds_are_computed():
    sys_ = fixtures.cont_switch_bound()
    assert sys_.a0 == pytest.approx(1.0)
    assert sys_.c0 == pytest.approx(1.0)


@settings(max_examples=80, deadline=None)
@given(
    which=st.sampled_from(["ok", "row", "diag", "rate", "edge"]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_validate_empty_iff_invariants_hold(which, seed):
    rng = np.random.default_rng(seed)
    sys_ = fixtures.nec1_det_not_nec2()
    if which == "ok":
        assert validate(sys_) == []
        return
    if which == "row":
        Q = np.array(sys_.Q)
        Q[0, 1] += float(rng.uniform(0.01, 0.5))
        assert any(v.code == "row-not-stochastic" for v in validate(make_system(Q=Q)))
    elif which == "diag":
        eps = float(rng.uniform(0.01, 0.5))
        Q = np.array([[eps, 1 - eps], [1.0, 0.0]])
        assert any(v.code == "diagonal-nonzero" for v in validate(make_system(Q=Q)))
    elif which == "rate":
        m0 = sys_.modes[0]
        bad = Mode(id=m0.id, embedding=m0.embedding, rate=-float(rng.uniform(0.1, 2)),
                   A=m0.A, B0=m0.B0)
        assert any(v.code == "rate-negative"
                    for v in validate(make_system(modes=(bad, sys_.modes[1]))))
    else:
        C = dict(sys_.C)
        del C[(1, 0)]
        assert any(v.code.startswith("C-missing") for v in validate(make_system(C=C)))


# ------------------------------------------------------- parse and serialize


def test_parse_round_trips_canonical_bytes():
    for name in fixtures.FIXTURE_NAMES:
        sys_ = fixtures.example_system(name)
        blob = serialize_spec(sys_)
        again = serialize_spec(parse_spec(blob))
        assert blob == again


def test_parse_ctrl_not_suf1_shape():
    sys_ = parse_spec(serialize_spec(fixtures.ctrl_not_suf1()))
    assert (sys_.n, sys_.d, sys_.n_modes) == (3, 1, 2)


def test_digest_stable_and_sensitive():
    a = system_digest(fixtures.nec1_not_det())
    b = system_digest(fixtures.nec1_not_det())
    c = system_digest(fixtures.nec1_det_not_nec2())
    assert a == b
    assert a != c
    assert len(a) == 64


def test_parse_no_modes():
    doc = serialize_spec(fixtures.nec1_not_det()).decode()
    doc = doc.replace('"modes":[{', '"modes":[],"was":[{', 1)
    with pytest.raises(SpecFormatError) as err:
        parse_spec(doc)
    assert err.value.code == "no-modes"


def test_parse_dim_mismatch_in_A(tmp_path, capsys):
    # parse_spec takes any shape; validate is the one place that checks it
    doc = json.loads(serialize_spec(fixtures.nec1_not_det()))
    doc["modes"][0]["A"] = [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
    codes = [v.code for v in validate(parse_spec(json.dumps(doc)))]
    assert codes == ["dim-mismatch:modes[0].A"]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["check", str(path)]) == 1
    assert capsys.readouterr().err == (
        "violation: dim-mismatch:modes[0].A: expected (2, 2), got (2, 3)\n")


def test_parse_rejects_bad_edge_key():
    doc = json.loads(serialize_spec(fixtures.nec1_not_det()))
    doc["C"]["0->missing"] = doc["C"]["0->1"]
    with pytest.raises(SpecFormatError) as err:
        parse_spec(json.dumps(doc))
    assert err.value.code == "bad-edge-key"


def test_parse_accepts_plain_json_numbers():
    text = """
    {"n":2,"d":1,"m":1,"beta":[0],
     "modes":[
       {"id":"a","embedding":[0],"lambda":1,"A":[[0,0],[0,0]],"B0":[[1],[0]]},
       {"id":"b","embedding":[1],"lambda":1,"A":[[0,0],[0,0]],"B0":[[1],[0]]}],
     "Q":[[0,1],[1,0]],
     "C":{"a->b":[[0,0.5],[0.5,0]],"b->a":[[0,0.5],[0.5,0]]}}
    """
    sys_ = parse_spec(text)
    assert validate(sys_) == []
    assert sys_.mode_ids == ("a", "b")


#: (field of the nec1-not-det spec, raw JSON put there, expected code); an
#: empty field replaces the whole text
BIG = "9" * 400
MALFORMED = [
    (("beta",), "[NaN]", "nonfinite:beta"),
    (("beta",), "[Infinity]", "nonfinite:beta"),
    (("beta",), "[1e999]", "nonfinite:beta"),
    (("modes", 0, "A"), f"[[{BIG}, 0], [0, 0]]", "bad-number"),
    (("modes", 0, "lambda"), BIG, "bad-number"),
    (("n",), "true", "bad-dimension"),
    (("modes", 0, "lambda"), "true", "bad-number"),
    (("modes", 0, "A"), "[[0, true], [0, 0]]", "bad-number"),
    (("beta",), '["1.5"]', "bad-number"),
    (("modes", 0, "B0"), "[[1], [null]]", "bad-number"),
    (("modes", 0, "A"), "[[0, 0], [0]]", "bad-number"),
    (("modes", 0, "lambda"), "[1]", "bad-number"),
    (("modes", 0, "A"), "[[0, 0, 0], [0, 0, 0]]", "dim-mismatch:modes[0].A"),
    (("Q",), "[[0, 1]]", "dim-mismatch:Q"),
    (("beta",), "[0, 0]", "dim-mismatch:beta"),
    (("C", "0->1"), "[[0, 0, 0], [0, 0, 0], [0, 0, 0]]", "dim-mismatch:C[0->1]"),
    (("Q",), "[[0, NaN], [1, 0]]", "nonfinite:Q"),
    (("C", "0->1"), "[[0, NaN], [0.5, 0]]", "nonfinite:C[0->1]"),
    (("modes",), "[]", "no-modes"),
    ((), "[1, 2]", "invalid-json"),
    ((), '{"n": 2,', "invalid-json"),
    ((), b'\xff\xfe{}', "invalid-json"),
    (("modes", 0, "A"), "[" * 500 + "1" + "]" * 500, "invalid-json"),
]


def malformed_spec(field, raw):
    if not field:
        return raw
    doc = json.loads(serialize_spec(fixtures.nec1_not_det()))
    *parents, last = field
    target = doc
    for key in parents:
        target = target[key]
    target[last] = "@raw@"
    return json.dumps(doc).replace('"@raw@"', raw)


@pytest.mark.parametrize("field, raw, code", MALFORMED, ids=lambda v: str(v)[:24])
def test_malformed_spec_ends_in_located_lines(tmp_path, capsys, field, raw, code):
    text = malformed_spec(field, raw)
    try:
        codes = [v.code for v in validate(parse_spec(text))]
    except SpecFormatError as exc:
        codes = [exc.code]
    assert code in codes
    path = tmp_path / "bad.json"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    assert main(["check", str(path)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert lines and all(ln.startswith(("error: ", "violation: ")) for ln in lines)


def test_bad_number_is_located_at_its_entry():
    cases = [(("modes", 0, "A"), "[[0, true], [0, 0]]", "$.modes[0].A[0][1]"),
             (("beta",), '["1.5"]', "$.beta[0]"),
             (("C", "0->1"), f"[[0, 0], [{BIG}, 0]]", "$.C['0->1'][1][0]"),
             (("modes", 0, "lambda"), BIG, "$.modes[0].lambda")]
    for field, raw, path in cases:
        with pytest.raises(SpecFormatError) as err:
            parse_spec(malformed_spec(field, raw))
        assert (err.value.code, err.value.path) == ("bad-number", path)


def test_parse_reads_every_integer_a_float_can_hold():
    # integers beyond int64 take the entry-by-entry route, at float()'s value
    doc = json.loads(serialize_spec(fixtures.nec1_not_det()))
    doc["modes"][0]["A"] = [[10**30, 2**64 - 1], [-(2**63), 0]]
    doc["modes"][0]["lambda"] = 10**30
    sys_ = parse_spec(json.dumps(doc))
    assert sys_.modes[0].A.tolist() == [[1e30, float(2**64 - 1)], [-(2.0**63), 0.0]]
    assert sys_.modes[0].rate == 1e30


# ------------------------------------------------------------- as_constant


def test_as_constant_single_shared_jump_matrix():
    const = as_constant(fixtures.nec1_det_not_nec2())
    assert isinstance(const, ConstantSystem)
    assert len(const.marks) == 1
    weight, C = const.marks[0]
    assert weight == pytest.approx(1.0)
    assert np.allclose(C, [[0.0, 0.5], [0.5, 0.0]])
    assert const.total_rate == pytest.approx(1.0)


def test_as_constant_refuses_mode_dependent_drift():
    with pytest.raises(NotConstantError) as err:
        as_constant(fixtures.nec2_det_not_nec1())
    assert err.value.field == "A"
    assert err.value.pair == ("0", "1")


def test_as_constant_silent_mode_no_jumps():
    mode = Mode(id="only", embedding=np.zeros(1), rate=0.0,
                A=np.zeros((2, 2)), B0=np.array([[1.0], [0.0]]))
    sys_ = SwitchSystem(n=2, d=1, m=1, beta=np.zeros(1), modes=(mode,),
                        Q=np.zeros((1, 1)), C={})
    const = as_constant(sys_)
    assert const.marks == ()


def test_as_constant_refuses_mismatched_rates():
    base = fixtures.nec1_det_not_nec2()
    m0, m1 = base.modes
    fast = Mode(id=m1.id, embedding=m1.embedding, rate=2.0, A=m1.A, B0=m1.B0)
    sys_ = SwitchSystem(n=2, d=1, m=1, beta=base.beta, modes=(m0, fast),
                        Q=base.Q, C=dict(base.C))
    with pytest.raises(NotConstantError) as err:
        as_constant(sys_)
    assert err.value.field == "lambda"


def test_as_constant_refuses_distinct_jump_matrices():
    base = fixtures.nec1_det_not_nec2()
    C = dict(base.C)
    C[(1, 0)] = np.array([[0.0, 0.25], [0.25, 0.0]])
    sys_ = SwitchSystem(n=2, d=1, m=1, beta=base.beta, modes=base.modes,
                        Q=base.Q, C=C)
    with pytest.raises(NotConstantError) as err:
        as_constant(sys_)
    assert err.value.field == "C"


def test_mode_support_respects_zero_rate():
    mode_a = Mode(id="a", embedding=np.zeros(1), rate=0.0,
                  A=np.zeros((1, 1)), B0=np.ones((1, 1)))
    mode_b = Mode(id="b", embedding=np.ones(1), rate=1.0,
                  A=np.zeros((1, 1)), B0=np.ones((1, 1)))
    sys_ = SwitchSystem(n=1, d=1, m=1, beta=np.zeros(1), modes=(mode_a, mode_b),
                        Q=np.array([[0.0, 1.0], [1.0, 0.0]]),
                        C={(0, 1): np.zeros((1, 1)), (1, 0): np.zeros((1, 1))})
    assert sys_.support(0) == ()
    assert sys_.support(1) == (0,)


def test_canonical_json_rejects_non_finite():
    from switchctrl.model import canonical_json

    with pytest.raises(ValueError):
        canonical_json({"x": float("nan")})
    with pytest.raises(ValueError):
        canonical_json([float("inf")])
    with pytest.raises(ValueError):
        canonical_json({"x": np.array([[0.0, np.nan]])})
    with pytest.raises(ValueError):
        canonical_json(np.array([1.0, -np.inf]))


def test_canonical_json_writes_arrays_as_their_lists():
    from switchctrl.model import canonical_json

    arrays = [
        np.array([[1.0, -0.0], [5e-324, 1e308]]),
        np.array([-0.0, 2.2250738585072014e-308 / 3, -1e308, 0.1]),
        np.zeros((0, 3)),
        np.zeros((3, 0)),
        np.array([]),
    ]
    for a in arrays:
        assert canonical_json(a) == canonical_json(a.tolist()), a.shape
        assert canonical_json({"a": a}) == canonical_json({"a": a.tolist()})
    assert canonical_json(np.zeros((0, 3))) == b"[]\n"
    assert canonical_json(np.array([-0.0])) == b"[-0.0000000000000000e+00]\n"


def test_parse_rejects_hostile_mode_ids():
    doc = json.loads(serialize_spec(fixtures.nec1_not_det()))
    doc["modes"][0]["id"] = "a->b"
    with pytest.raises(SpecFormatError) as err:
        parse_spec(json.dumps(doc))
    assert err.value.code == "bad-mode-id"

    doc = json.loads(serialize_spec(fixtures.nec1_not_det()))
    doc["modes"][1]["id"] = doc["modes"][0]["id"]
    with pytest.raises(SpecFormatError) as err:
        parse_spec(json.dumps(doc))
    assert err.value.code == "duplicate-mode-id"


# ------------------------------------------------------------------ positivity


def _positivity_cases():
    sys_ = fixtures.nec1_not_det()
    const = as_constant(fixtures.nec1_det_not_nec2())
    path = ModePath(1.0, np.array([0.5]), (0, 1))
    chains = sample_jump_chains(sys_, 0, 1.0, [np.random.default_rng(1)])
    x0 = np.ones(2)
    # the viability vector lies outside ker(B*), whose verdict needs no flow:
    # the arguments are checked before anything else
    return {
        "integrate_riccati-T": ("T", lambda v: integrate_riccati(const, 1.0, v)),
        "integrate_riccati-N": ("N", lambda v: integrate_riccati(const, v, 1.0)),
        "viability_test-T": ("T", lambda v: viability_test(const, [1.0, 0.0], v)),
        "viability_test-N": ("N", lambda v: viability_test(const, [1.0, 0.0], 1.0,
                                                           N_list=(1.0, 10.0, v))),
        "ModePath": ("t_end", lambda v: ModePath(v, np.array([]), (0,))),
        "sample_mode_path": ("t_end", lambda v: sample_mode_path(
            sys_, 0, v, np.random.default_rng(1))),
        "sample_jump_chains": ("t_end", lambda v: sample_jump_chains(
            sys_, 0, v, [np.random.default_rng(1)])),
        "simulate_forward": ("dt", lambda v: simulate_forward(
            sys_, x0, ZeroPolicy(), path, v)),
        "simulate_forward_batch": ("dt", lambda v: simulate_forward_batch(
            sys_, x0, ZeroPolicy(), chains, v)),
        "simulate_dual": ("dt", lambda v: simulate_dual(
            sys_, x0, FeedbackDualControl({}), path, v)),
        "piecewise_null_policy": ("T", lambda v: piecewise_null_policy(
            fixtures.cont_switch_bound(), 4, v)),
    }


@pytest.mark.parametrize("value", [0.0, -1.0, np.inf, np.nan])
@pytest.mark.parametrize("case", sorted(_positivity_cases()))
def test_every_positivity_check_raises_the_one_error(case, value):
    # T = inf used to integrate forever, T = nan to give a one-point run
    # and a false verdict, dt = inf to take one step per segment, and a
    # policy horizon of 0 or nan to be refused as a singular Gramian; a
    # hand-built ModePath ending at inf used to overflow in simulate_forward
    # and one ending at -1 to simulate nothing
    name, call = _positivity_cases()[case]
    with pytest.raises(ValueError, match=f"^{name} must be positive and finite$"):
        call(value)
