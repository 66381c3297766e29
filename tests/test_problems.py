"""Tests for problem construction, validation and config parsing."""

import json
import warnings

import numpy as np
import pytest

from oddperiodic import (
    MAX_MODES,
    MajorantError,
    Nonlinearity,
    OddPeriodicFunction,
    Problem,
    ProblemError,
    apriori_bound,
    builtin,
    certify,
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
            make_problem(2.0, builtin("zero", period=2.0, forcing=[]).g, k)
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
