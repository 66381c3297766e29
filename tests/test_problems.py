"""Tests for problem construction, validation and config parsing."""

import contextlib
import io
import json
import pickle
import struct
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oddperiodic import cli, problems
from oddperiodic import (
    MAX_MODES,
    CertificateError,
    ContractionCertificate,
    MajorantError,
    Nonlinearity,
    OddPeriodicFunction,
    Problem,
    ProblemError,
    apriori_bound,
    builtin,
    certify,
    inverse_norm_bound,
    make_problem,
    parse_problem,
)

T2PI = 2.0 * np.pi


class TestBuiltins:
    def test_pendulum_flagship_instance(self):
        p = builtin("pendulum", {"a": 0.04}, period=T2PI, forcing=[(1, 0.05)])
        cert = certify(p)
        assert cert.holds
        assert cert.factor == pytest.approx(0.7895683520871487, rel=1e-14)

    def test_cubic_has_no_usable_majorant(self):
        p = builtin("cubic", {"c3": 1.0}, period=T2PI, forcing=[(1, 1.0)])
        assert p.gprime_bound is None
        assert p.majorants == ()
        with pytest.raises(MajorantError):
            apriori_bound(p)

    def test_linear_majorant_bound_value(self):
        # (T^2/2)*|k| / (1 - 0.01*T^2/2) with |k| = 1
        p = builtin("linear", {"c": 0.01}, period=T2PI, forcing=[(1, 1.0)])
        assert 0.01 < 2.0 / T2PI**2
        assert apriori_bound(p) == pytest.approx(24.593837797495507, rel=1e-13)

    def test_family_metadata(self):
        z = builtin("zero", period=1.0, forcing=[(1, 1.0)])
        assert z.gprime_bound == 0.0 and z.majorants == ((0.0, 0.0),)
        t = builtin("tanh_g", {"s": 2.0}, period=1.0, forcing=[(1, 1.0)])
        assert t.gprime_bound == 2.0 and t.majorants == ((0.0, 2.0),)
        l = builtin("linear", {"c": -0.3}, period=1.0, forcing=[(1, 1.0)])
        assert l.gprime_bound == 0.3 and l.majorants == ((0.3, 0.0),)

    def test_unknown_family_and_params(self):
        with pytest.raises(ProblemError) as e:
            builtin("quartic", {}, period=1.0, forcing=[])
        assert e.value.code == "unknown_family"
        with pytest.raises(ProblemError) as e:
            builtin("pendulum", {"b": 1.0}, period=1.0, forcing=[])
        assert e.value.code == "bad_params"

    def test_rejects_bad_period(self):
        with pytest.raises(ProblemError) as e:
            builtin("zero", period=-1.0, forcing=[])
        assert e.value.code == "bad_period"

    @pytest.mark.parametrize("a,T,expected", [
        (0.04, T2PI, True),          # 0.04 < 2/T^2 is false... certified via factor
        (0.0506, T2PI, True),
        (0.0507, T2PI, False),
        (0.04, 7.0, True),           # just under sqrt(2/0.04) = 7.071
        (0.04, 7.1, False),
    ])
    def test_pendulum_certificate_matches_threshold(self, a, T, expected):
        p = builtin("pendulum", {"a": a}, period=T, forcing=[(1, 0.05)])
        assert certify(p).holds == (a < 2.0 / T**2) == expected


class TestValidation:
    def test_even_perturbation_rejected(self):
        crooked = Nonlinearity("crooked", lambda x: 0.04 * np.sin(x) + 0.01,
                               lambda x: 0.04 * np.cos(x), gprime_bound=0.04)
        with pytest.raises(ProblemError) as e:
            make_problem(T2PI, crooked, [(1, 0.05)])
        assert e.value.code in ("g_origin", "g_symmetry")

    def test_asymmetric_odd_through_origin_rejected(self):
        # passes g(0)=0 but not g(-x) = -g(x)
        crooked = Nonlinearity("skew", lambda x: np.where(np.asarray(x) > 0,
                                                          np.asarray(x), 0.5 * np.asarray(x)),
                               lambda x: np.ones_like(np.asarray(x, dtype=float)),
                               gprime_bound=1.0)
        with pytest.raises(ProblemError) as e:
            make_problem(1.0, crooked, [(1, 1.0)])
        assert e.value.code == "g_symmetry"

    def test_understated_derivative_bound_rejected(self):
        lying = Nonlinearity("lying", lambda x: np.sin(x), lambda x: np.cos(x),
                             gprime_bound=0.5)
        with pytest.raises(ProblemError) as e:
            make_problem(1.0, lying, [(1, 1.0)])
        assert e.value.code == "gprime_bound_violated"

    def test_false_majorant_rejected(self):
        lying = Nonlinearity("lying", lambda x: np.asarray(x, dtype=float),
                             lambda x: np.ones_like(np.asarray(x, dtype=float)),
                             gprime_bound=1.0, majorants=((0.0, 1.0),))
        with pytest.raises(ProblemError) as e:
            make_problem(1.0, lying, [(1, 1.0)])
        assert e.value.code == "majorant_violated"

    def test_custom_callable_pair_accepted(self):
        g = Nonlinearity("soft_sign", lambda x: np.arctan(x),
                         lambda x: 1.0 / (1.0 + np.asarray(x, dtype=float) ** 2),
                         gprime_bound=1.0, majorants=((0.0, np.pi / 2),))
        p = make_problem(T2PI, g, [(1, 0.1)], label="custom")
        assert p.label == "custom"
        assert certify(p).lipschitz_g == 1.0

    def test_validation_is_idempotent(self):
        p = builtin("pendulum", {"a": 0.04}, period=T2PI, forcing=[(1, 0.05)])
        q = Problem(p.period, p.g, p.k, label=p.label)
        assert q.label == p.label and q.gprime_bound == p.gprime_bound

    def test_forcing_period_must_match(self):
        k = OddPeriodicFunction(1.0, [1.0])
        with pytest.raises(ProblemError) as e:
            Problem(2.0, builtin("zero", period=2.0, forcing=[]).g, k)
        assert e.value.code == "bad_forcing"


class TestParseProblem:
    PENDULUM = {
        "family": "pendulum",
        "params": {"a": 0.04},
        "period": 6.283185307179586,
        "forcing": [{"mode": 1, "amplitude": 0.05}],
    }

    def test_flagship_config(self):
        p = parse_problem(json.dumps(self.PENDULUM))
        assert p.g.name == "pendulum"
        assert p.k.coeffs[0] == 0.05
        assert certify(p).holds

    def test_zero_config_unique_zero_solution(self):
        p = parse_problem({"family": "zero", "period": 1.0, "forcing": []})
        assert p.g.name == "zero"
        assert np.all(p.k.coeffs == 0.0)

    def test_mode_zero_rejected(self):
        cfg = dict(self.PENDULUM, forcing=[{"mode": 0, "amplitude": 1.0}])
        with pytest.raises(ProblemError) as e:
            parse_problem(cfg)
        assert e.value.code == "bad_mode"

    def test_mode_above_ceiling_rejected(self):
        cfg = dict(self.PENDULUM,
                   forcing=[{"mode": MAX_MODES + 1, "amplitude": 1.0}])
        with pytest.raises(ProblemError) as e:
            parse_problem(cfg)
        assert e.value.code == "bad_mode"
        assert "ceiling" in str(e.value)

    def test_mode_at_ceiling_accepted(self):
        cfg = dict(self.PENDULUM, forcing=[{"mode": MAX_MODES, "amplitude": 1e-3}])
        p = parse_problem(cfg)
        assert p.k.modes == MAX_MODES and p.k.coeffs[-1] == 1e-3
        assert certify(p).holds

    def test_unknown_keys_rejected(self):
        cfg = dict(self.PENDULUM, flavor="salty")
        with pytest.raises(ProblemError) as e:
            parse_problem(cfg)
        assert e.value.code == "unknown_key"

    def test_malformed_json_rejected(self):
        with pytest.raises(ProblemError) as e:
            parse_problem("{not json")
        assert e.value.code == "bad_document"

    def test_missing_keys_rejected(self):
        with pytest.raises(ProblemError) as e:
            parse_problem({"family": "zero"})
        assert e.value.code == "missing_key"

    def test_duplicate_modes_rejected(self):
        cfg = dict(self.PENDULUM, forcing=[{"mode": 1, "amplitude": 1.0},
                                           {"mode": 1, "amplitude": 2.0}])
        with pytest.raises(ProblemError) as e:
            parse_problem(cfg)
        assert e.value.code == "bad_forcing"

    def test_derivative_bound_override_is_validated(self):
        cfg = dict(self.PENDULUM, derivative_bound=0.01)  # < true sup|g'|
        with pytest.raises(ProblemError) as e:
            parse_problem(cfg)
        assert e.value.code == "gprime_bound_violated"
        cfg = dict(self.PENDULUM, derivative_bound=0.05)  # safe over-estimate
        p = parse_problem(cfg)
        assert certify(p).lipschitz_g == 0.05

    def test_extra_majorants_are_validated_and_used(self):
        cfg = dict(self.PENDULUM, majorants=[{"eps": 0.0, "M": 0.04}])
        p = parse_problem(cfg)
        assert (0.0, 0.04) in p.majorants
        cfg = dict(self.PENDULUM, majorants=[{"eps": 0.0, "M": 0.001}])
        with pytest.raises(ProblemError) as e:
            parse_problem(cfg)
        assert e.value.code == "majorant_violated"

    def test_bad_majorant_shape_rejected(self):
        cfg = dict(self.PENDULUM, majorants=[{"eps": 0.0}])
        with pytest.raises(ProblemError) as e:
            parse_problem(cfg)
        assert e.value.code == "bad_majorant"

    def test_non_object_config_rejected(self):
        with pytest.raises(ProblemError):
            parse_problem("[1, 2, 3]")

    @pytest.mark.parametrize("amplitude", ["x", None, [1.0], 10 ** 400],
                             ids=["string", "null", "array", "huge_integer"])
    def test_non_numeric_amplitude_rejected(self, amplitude):
        cfg = dict(self.PENDULUM, forcing=[{"mode": 1, "amplitude": amplitude}])
        with pytest.raises(ProblemError) as e:
            parse_problem(cfg)
        assert e.value.code == "bad_forcing"

    @pytest.mark.parametrize("params", [[0.04], {"a": "x"}, {"a": None},
                                        {"a": [0.04]}, {"a": 10 ** 400}],
                             ids=["list", "string", "null", "array",
                                  "huge_integer"])
    def test_malformed_params_rejected(self, params):
        with pytest.raises(ProblemError) as e:
            parse_problem(dict(self.PENDULUM, params=params))
        assert e.value.code == "bad_params"

    @pytest.mark.parametrize("period", [1e-300, 1e-160, 1e300])
    def test_period_with_unrepresentable_threshold_rejected(self, period):
        # T^2 underflows to 0 or 2/T^2 overflows (1e-160), or T^2 overflows
        with pytest.raises(ProblemError) as e:
            parse_problem(dict(self.PENDULUM, period=period))
        assert e.value.code == "bad_period"

    @pytest.mark.parametrize("override,code", [
        ({"forcing": [{"mode": 1, "amplitude": 1e308}]}, "bad_forcing"),
        ({"majorants": [{"eps": 0.0, "M": 1e308}], "family": "cubic",
          "params": {"c3": 1.0}}, "bad_forcing"),
        ({"derivative_bound": 1e308}, "bad_derivative_bound"),
        ({"params": {"a": 1e308}}, "bad_derivative_bound"),
    ], ids=["amplitude", "majorant", "derivative_bound", "param"])
    def test_non_finite_bounds_rejected_without_warnings(self, override, code):
        # a probe radius or a certificate factor that overflows is refused
        # before any probing, so no RuntimeWarning comes first
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ProblemError) as e:
                parse_problem(dict(self.PENDULUM, **override))
        assert e.value.code == code

    @pytest.mark.parametrize("override,code", [
        ({"period": 10 ** 400}, "bad_period"),
        ({"derivative_bound": 10 ** 400}, "bad_derivative_bound"),
        ({"majorants": [{"eps": 0.0, "M": 10 ** 400}]}, "bad_majorant"),
        ({"majorants": [{"eps": 10 ** 400, "M": 0.0}]}, "bad_majorant"),
    ], ids=["period", "derivative_bound", "majorant_M", "majorant_eps"])
    def test_huge_integer_in_any_number_field_rejected(self, override, code):
        with pytest.raises(ProblemError) as e:
            parse_problem(dict(self.PENDULUM, **override))
        assert e.value.code == code

    @pytest.mark.parametrize("override,code,what", [
        ({"period": True}, "bad_period", "period"),
        ({"params": {"a": True}}, "bad_params", "param a"),
        ({"forcing": [{"mode": 1, "amplitude": True}]}, "bad_forcing",
         "amplitude for mode 1"),
        ({"derivative_bound": True}, "bad_derivative_bound", "derivative_bound"),
        ({"majorants": [{"eps": True, "M": 0.0}]}, "bad_majorant", "majorant eps"),
    ], ids=["period", "params", "forcing", "derivative_bound", "majorant"])
    def test_boolean_in_any_number_field_rejected(self, override, code, what,
                                                  tmp_path):
        # float(True) is 1.0: a JSON true or false is not read as 1 or 0
        cfg = dict(self.PENDULUM, **override)
        message = f"{what} must be a number, got True"
        with pytest.raises(ProblemError) as e:
            parse_problem(cfg)
        assert (e.value.code, str(e.value)) == (code, message)
        numpy_cfg = json.loads(json.dumps(cfg), object_hook=lambda d: {
            k: np.bool_(v) if isinstance(v, bool) else v for k, v in d.items()})
        with pytest.raises(ProblemError) as e:
            parse_problem(numpy_cfg)
        assert e.value.code == code
        path = tmp_path / "boolean.json"
        path.write_text(json.dumps(cfg))
        with contextlib.redirect_stdout(io.StringIO()) as stdout:
            exit_code = cli.main(["certify", str(path)])
        assert (exit_code, json.loads(stdout.getvalue())["error"]) == (
            2, {"code": code, "message": message})

    @pytest.mark.parametrize("family", [["pendulum"], {"a": 1}, 7])
    def test_non_string_family_rejected(self, family):
        with pytest.raises(ProblemError) as e:
            parse_problem(dict(self.PENDULUM, family=family))
        assert e.value.code == "unknown_family"

    def test_non_string_label_rejected(self):
        with pytest.raises(ProblemError) as e:
            parse_problem(dict(self.PENDULUM, label=5))
        assert e.value.code == "bad_document"

    # an int over the interpreter's 4300-digit limit has no repr, so an error
    # message naming it must not try to print it
    HUGE = 10 ** 5000

    @pytest.mark.parametrize("override,code", [
        ({"family": HUGE}, "unknown_family"),
        ({"family": [HUGE]}, "unknown_family"),
        ({"params": [HUGE]}, "bad_params"),
        ({"params": {"a": [HUGE]}}, "bad_params"),
        ({"params": {HUGE: 1.0, "a": 0.04}}, "bad_params"),
        ({"forcing": [{"mode": 1, "amplitude": [HUGE]}]}, "bad_forcing"),
        ({"forcing": [{"mode": [HUGE], "amplitude": 1.0}]}, "bad_mode"),
        ({"forcing": [{"mode": HUGE, "amplitude": 1.0}]}, "bad_mode"),
        ({"forcing": [{"mode": -HUGE, "amplitude": 1.0}]}, "bad_mode"),
        ({"forcing": [HUGE]}, "bad_forcing"),
        ({"majorants": [{"eps": [HUGE], "M": 1.0}]}, "bad_majorant"),
        ({"label": HUGE}, "bad_document"),
        ({HUGE: 1}, "unknown_key"),
        ({1: 1, "flavor": 2}, "unknown_key"),
    ])
    def test_unprintable_value_rejected(self, override, code):
        with pytest.raises(ProblemError) as e:
            parse_problem({**self.PENDULUM, **override})
        assert e.value.code == code
        assert "0" * 100 not in str(e.value)

    # with two faults, the one checked first is reported: period, forcing
    # entry shapes, family and params, modes and amplitudes, then overrides
    @pytest.mark.parametrize("override,code", [
        ({"period": "x", "params": {"b": 1.0}}, "bad_period"),
        ({"period": -1.0, "family": "nope"}, "bad_period"),
        ({"forcing": [{"mode": 1}], "params": {"b": 1.0}}, "bad_forcing"),
        ({"forcing": [{"mode": 1}], "derivative_bound": "x"}, "bad_forcing"),
        ({"forcing": [{"mode": 0, "amplitude": 1.0}], "derivative_bound": "x"},
         "bad_mode"),
        ({"params": {"a": "x"}, "forcing": [{"mode": "1", "amplitude": 1.0}]},
         "bad_params"),
        ({"derivative_bound": "x", "majorants": 5}, "bad_derivative_bound"),
        ({"majorants": 5, "label": 5}, "bad_majorant"),
        ({"label": 5, "derivative_bound": -1.0}, "bad_document"),
    ])
    def test_first_fault_in_check_order_is_reported(self, override, code):
        with pytest.raises(ProblemError) as e:
            parse_problem(dict(self.PENDULUM, **override))
        assert e.value.code == code

    def test_tanh_probe_raises_no_warning(self):
        # s = 2 at T = 2*pi probes out to |x| ~ 503, where cosh(x)^2 overflows
        cfg = {"family": "tanh_g", "params": {"s": 2.0}, "period": T2PI,
               "forcing": [{"mode": 1, "amplitude": 0.5}]}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = parse_problem(cfg)
        x = np.array([-1e4, -710.0, -20.0, -1.0, 0.0, 0.5, 20.0, 710.0, 1e4])
        # underflow to 0 is exact enough here and numpy ignores it by default
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            derivative = p.g.derivative(x)
            big = builtin("tanh_g", {"s": 1e308}, period=1e-3,
                          forcing=[(1, 1.0)]).g.derivative(x)
        inner = x[2:-2]
        np.testing.assert_allclose(derivative[2:-2], 2.0 / np.cosh(inner) ** 2,
                                   rtol=1e-14)
        assert derivative[4] == 2.0 and big[4] == 1e308
        assert np.all(derivative[[0, 1, -2, -1]] < 1e-300)
        assert np.all(np.isfinite(big))

    def test_odd_family_passes_probe_far_from_origin(self):
        # probed on [-8680, 8680], where an asymmetric grid gave sin a
        # defect of 2e-11 > tol, rejecting an exactly odd g
        cfg = {"family": "pendulum", "params": {"a": -7.820295334188421},
               "period": 14.886447569695013,
               "forcing": [{"mode": 1, "amplitude": 0.0}]}
        assert parse_problem(cfg).g.name == "pendulum"


def count_validations(monkeypatch) -> dict:
    """Count every Problem._validate_g call from here on."""
    calls = {"validate_g": 0}
    original = Problem._validate_g

    def counted(self):
        calls["validate_g"] += 1
        return original(self)

    monkeypatch.setattr(Problem, "_validate_g", counted)
    return calls


@pytest.mark.parametrize("override", [
    {},
    {"derivative_bound": 0.05},
    {"derivative_bound": 0.05, "majorants": [{"eps": 0.0, "M": 0.04}]},
], ids=["plain", "derivative_bound", "both_overrides"])
def test_one_validation_pass_per_config(monkeypatch, override):
    calls = count_validations(monkeypatch)
    p = parse_problem(dict(TestParseProblem.PENDULUM, **override))
    assert calls == {"validate_g": 1}
    assert p.gprime_bound == override.get("derivative_bound", 0.04)
    assert len(p.majorants) == 1 + len(override.get("majorants", []))


@pytest.mark.parametrize("pairs,code", [
    (((np.nan, 0.0),), "bad_forcing"),
    (((0.0, np.nan),), "bad_forcing"),
    (((0.0, 1.0), (np.nan, 0.0)), "bad_majorant"),
    (((np.inf, 0.0),), "bad_majorant"),
    (((-np.inf, 0.0),), "bad_majorant"),
], ids=["nan_eps", "nan_M", "nan_eps_after_a_usable_pair", "inf_eps", "-inf_eps"])
def test_non_finite_majorant_is_refused_in_check_order(pairs, code):
    # a NaN bound from the first pair is refused as the probe radius,
    # before the majorant checks; an unusable or later pair by those checks
    g = Nonlinearity("p", lambda x: 0.04 * np.sin(x), lambda x: 0.04 * np.cos(x),
                     gprime_bound=0.04, majorants=pairs)
    with pytest.raises(ProblemError) as e:
        make_problem(T2PI, g, [(1, 0.05)])
    assert e.value.code == code


def reference_certificate(problem) -> ContractionCertificate:
    """``certify`` as it formed the certificate before problems carried it."""
    bound = problem.gprime_bound
    if bound is None:
        raise CertificateError(
            f"no sup|g'| bound is available for g = {problem.g.name!r}; "
            "the contraction certificate cannot be evaluated")
    norm_bound = inverse_norm_bound(problem.period)
    factor = float(bound) * norm_bound
    return ContractionCertificate(
        lipschitz_g=float(bound),
        norm_bound=norm_bound,
        factor=factor,
        holds=factor < 1.0,
    )


def reference_apriori_bound(problem) -> float:
    """``apriori_bound`` as it formed the bound before problems carried it,
    with sup|k| taken as its upper bound sum |b_n|."""
    nb = inverse_norm_bound(problem.period)
    k_norm = float(np.sum(np.abs(problem.k.coeffs)))
    best = None
    for eps, M in problem.majorants:
        denom = 1.0 - eps * nb
        if denom <= 0.0:
            continue
        value = nb * (k_norm + M) / denom
        if best is None or value < best:
            best = value
    if best is None:
        raise MajorantError(
            f"no usable majorant at period {problem.period:g}: need a "
            f"declared pair with eps < {2.0 / problem.period ** 2:.6g}")
    return best


def _bits(value):
    """A float's bits, so that -0.0 and 0.0 differ and NaN equals NaN."""
    return struct.pack("<d", value)


def _outcome(call, problem):
    """What ``call(problem)`` returns, or its error's type and message."""
    try:
        return call(problem)
    except (CertificateError, MajorantError) as exc:
        return type(exc), str(exc)


@settings(max_examples=200, deadline=None)
@given(family=st.sampled_from(sorted(problems.FAMILIES)),
       param=st.floats(-3.0, 3.0) | st.sampled_from([0.0, -0.0, 1e-300]),
       period=st.floats(1e-3, 50.0) | st.sampled_from([T2PI, 1e-150, 1e150]),
       forcing=st.lists(st.tuples(st.integers(1, 8), st.floats(-10.0, 10.0)),
                        max_size=3, unique_by=lambda pair: pair[0]),
       bound=st.none() | st.floats(0.0, 10.0) | st.sampled_from([-0.0, 1e300]),
       # eps as a share of the threshold 2/T^2: below 1 the pair is usable
       majorants=st.lists(st.tuples(st.floats(0.0, 1.5), st.floats(0.0, 20.0)),
                          max_size=2))
def test_problem_derives_the_reference_certificate_and_bound(
        family, param, period, forcing, bound, majorants):
    cfg = {"family": family,
           "params": {name: param for name in problems.FAMILIES[family][1]},
           "period": period,
           "forcing": [{"mode": m, "amplitude": a} for m, a in forcing],
           "majorants": [{"eps": share * 2.0 / period ** 2, "M": M}
                         for share, M in majorants]}
    if bound is not None:
        cfg["derivative_bound"] = bound
    try:
        p = parse_problem(cfg)
    except ProblemError:
        return
    cert = _outcome(certify, p)
    assert cert == _outcome(reference_certificate, p)
    if p.certificate is None:
        assert cert[0] is CertificateError
    else:
        assert cert is p.certificate
        ref = reference_certificate(p)
        assert [_bits(x) for x in (p.certificate.lipschitz_g,
                                   p.certificate.norm_bound,
                                   p.certificate.factor)] == [
            _bits(x) for x in (ref.lipschitz_g, ref.norm_bound, ref.factor)]
    bound_outcome = _outcome(apriori_bound, p)
    reference = _outcome(reference_apriori_bound, p)
    if p.apriori_bound is None:
        assert bound_outcome == reference and reference[0] is MajorantError
    else:
        assert _bits(bound_outcome) == _bits(reference) == _bits(p.apriori_bound)


# --- g of many rows: one call per family ----------------------------------

@st.composite
def _rows_of_g(draw):
    """The g of 1..6 rows: of one built-in family, or one draw in four of
    any families, each with its own parameter and perhaps an override of
    its bound or majorants, as a config's are applied."""
    names = sorted(problems.FAMILIES)
    family, mixed = draw(st.sampled_from(names)), draw(st.integers(0, 3)) == 0
    gs = []
    for _ in range(draw(st.integers(1, 6))):
        factory, params = problems.FAMILIES[
            draw(st.sampled_from(names)) if mixed else family]
        g = factory(*(draw(st.floats(-1e3, 1e3) | st.floats(allow_nan=False))
                      for _ in params))
        if draw(st.booleans()):
            g = replace(g, gprime_bound=draw(st.floats(0.0, 1e3)))
        if draw(st.booleans()):
            g = replace(g, majorants=g.majorants + ((0.5, 2.0),))
        gs.append(g)
    return gs


def _bytes_of(value):
    return np.asarray(value, dtype=float).tobytes()


@settings(max_examples=300, deadline=None)
@given(gs=_rows_of_g(), data=st.data())
def test_g_of_rows_equals_each_rows_g(gs, data):
    # a parameter column times the rows makes the products of each row's
    # own scalar, bit for bit, on (R, P) arrays and on (R,) arrays alike
    x = data.draw(hnp.arrays(float, (len(gs), data.draw(st.integers(1, 16))),
                             elements=st.floats(-1e3, 1e3) | st.floats()))
    with np.errstate(all="ignore"):
        for rows in (x, x[:, 0]):
            out = problems._row_values(gs)(rows)
            assert out.shape == rows.shape
            for g, row, got in zip(gs, rows, out):
                assert _bytes_of(got) == _bytes_of(g.value(row))


def test_g_of_one_family_is_one_call_and_a_custom_g_one_per_row():
    calls = []

    def counted(name):
        family = problems._VALUES[name]
        return lambda *args: calls.append(name) or family(*args)

    x = np.linspace(-3.0, 3.0, 12).reshape(3, 4)
    pend = [builtin("pendulum", {"a": a}, period=T2PI, forcing=[(1, 0.05)]).g
            for a in (0.01, 0.02, 0.03)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(problems._VALUES, "pendulum", counted("pendulum"))
        batched = [problems.FAMILIES["pendulum"][0](a) for a in (0.01, 0.02, 0.03)]
        out = problems._row_values(batched)(x)
    assert calls == ["pendulum"]
    assert out.tobytes() == problems._row_values(pend)(x).tobytes()
    # a custom g with a family's name and params but its own value is not
    # that family: it goes row by row
    rows = []
    custom = Nonlinearity("pendulum", lambda u: rows.append(u) or 2.0 * np.sin(u),
                          pend[0].derivative, params={"a": 0.01})
    out = problems._row_values([pend[0], custom, pend[2]])(x)
    assert len(rows) == 1 and np.array_equal(rows[0], x[1])
    assert [r.tobytes() for r in out] == [
        pend[0].value(x[0]).tobytes(), (2.0 * np.sin(x[1])).tobytes(),
        pend[2].value(x[2]).tobytes()]


# --- the input contract, fuzzed -------------------------------------------
# Every JSON-shaped config ends in a Problem or a ProblemError, never in
# another exception or a warning; `certify` on its file agrees (exit 2 with
# the same error code, or a record).

FUZZ_MAX_MODES = 8

def _mostly(good, other):
    """``good`` three draws in four, else ``other``."""
    return st.integers(0, 3).flatmap(lambda i: good if i else other)


_huge_ints = (st.integers(min_value=10 ** 300, max_value=10 ** 1000)
              | st.integers(min_value=-10 ** 1000, max_value=-10 ** 300))
_extreme_floats = (st.floats(1e250, 1.7976931348623157e308)
                   | st.floats(5e-324, 1e-250)).flatmap(
    lambda x: st.sampled_from([x, -x]))
_finite = st.floats(-10.0, 10.0) | _extreme_floats | st.integers(-3, 3)
_numbers = _finite | st.floats() | _huge_ints | st.booleans()
_json_values = st.recursive(
    st.none() | st.booleans() | st.floats() | st.integers() | _huge_ints
    | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6)


@st.composite
def _configs(draw):
    """A well-formed config with numbers from anywhere on the float line,
    then at most one key removed or set to an arbitrary JSON value."""
    families = problems.FAMILIES
    family = draw(st.sampled_from(sorted(families)))
    value = _mostly(_finite, _numbers)
    cfg = {
        "family": family,
        "params": {name: draw(value) for name in families[family][1]},
        "period": draw(_mostly(st.floats(1e-3, 20.0), _numbers)),
        "forcing": draw(st.lists(st.fixed_dictionaries({
            "mode": _mostly(st.integers(-1, FUZZ_MAX_MODES + 1), _numbers),
            "amplitude": _mostly(st.floats(-10.0, 10.0), _numbers)}),
            max_size=3)),
    }
    if draw(st.booleans()):
        cfg["derivative_bound"] = draw(value)
    if draw(st.booleans()):
        cfg["majorants"] = draw(st.lists(st.fixed_dictionaries(
            {"eps": value, "M": value}), max_size=2))
    if draw(st.booleans()):
        cfg["label"] = draw(st.text(max_size=4))
    key = draw(st.none() | st.sampled_from(
        sorted(problems._CONFIG_KEYS) + ["flavor"]))
    if key in cfg and draw(st.booleans()):
        del cfg[key]
    elif key is not None:
        cfg[key] = draw(_json_values)
    return cfg


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cfg=_mostly(_configs(), _json_values))
# g, and a majorant's M + eps*|x|, overflowing on the probe grid
@example(cfg={"family": "cubic", "params": {"c3": 1e306}, "period": 6.0,
              "forcing": []})
@example(cfg={"family": "pendulum", "params": {"a": 0.04}, "period": 1e-3,
              "forcing": [], "majorants": [{"eps": 1e308, "M": 0.0}]})
def test_fuzzed_config_is_a_problem_or_a_problem_error(cfg, tmp_path,
                                                       monkeypatch):
    monkeypatch.setattr(problems, "MAX_MODES", FUZZ_MAX_MODES)
    path = tmp_path / "fuzz.json"
    path.write_text(json.dumps(cfg))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            parse_problem(cfg)
            code = None
        except ProblemError as exc:
            code = exc.code
        with contextlib.redirect_stdout(io.StringIO()) as stdout:
            exit_code = cli.main(["certify", str(path)])
    assert [str(w.message) for w in caught] == []
    record = json.loads(stdout.getvalue())
    if code is None:
        assert exit_code in (0, 3) or record["error"]["code"] == "no_derivative_bound"
    else:
        assert exit_code == 2 and record["error"]["code"] == code


@pytest.mark.parametrize("error,code", [
    (ProblemError("bad_x", "m"), "bad_x"),
    (CertificateError("m"), "no_derivative_bound"),
    (MajorantError("m"), "no_majorant"),
], ids=["ProblemError", "CertificateError", "MajorantError"])
@pytest.mark.parametrize("protocol", [0, pickle.HIGHEST_PROTOCOL])
def test_refusals_survive_a_pickle_round_trip(error, code, protocol):
    # a refusal sent across processes arrives as itself; error records
    # print str(error), the bare message
    copy = pickle.loads(pickle.dumps(error, protocol))
    assert (type(copy), copy.code, str(copy)) == (type(error), code, "m")
