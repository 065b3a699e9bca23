import argparse
import json
import math
import os

import numpy as np
import pytest

from cubgreeks import algebra, checks, cli, cubature, greeks, mc, rng, sde
from cubgreeks.algebra import context, heat_element, word_degree
from cubgreeks.cli import main, parse_direction, parse_scale
from cubgreeks.errors import ConfigError, DomainError


@pytest.fixture
def bs_model(tmp_path):
    path = tmp_path / "bs.json"
    path.write_text('{"model":"black_scholes","params":{"r":0.05,"sigma":0.3}}')
    return str(path)


@pytest.fixture
def heisenberg_model(tmp_path):
    path = tmp_path / "heisenberg.json"
    path.write_text('{"model":"heisenberg_toy"}')
    return str(path)


class TestDirectionGrammar:
    def test_vector(self):
        system = sde.heisenberg_toy()
        v = parse_direction("0.5,-1", system, [0.0, 0.0])
        assert np.allclose(v, [0.5, -1.0])

    def test_base_field(self):
        system = sde.heisenberg_toy()
        assert np.allclose(parse_direction("V1", system, [0.3, 0.0]), [1.0, 0.0])

    def test_bracket(self):
        system = sde.heisenberg_toy()
        assert np.allclose(parse_direction("[V1,V2]", system, [0.0, 0.0]), [0.0, 1.0])

    def test_sum_with_coefficients(self):
        system = sde.heisenberg_toy()
        v = parse_direction("2*V1 + 0.5*[V1,V2] - V2", system, [1.0, 0.0])
        # V1=(1,0), [V1,V2]=(0,1), V2=(0,1) at x=1
        assert np.allclose(v, [2.0, -0.5])

    def test_nested_brackets(self):
        system = sde.heisenberg_toy()
        v = parse_direction("[V1,[V1,V2]]", system, [0.2, 0.1])
        assert np.allclose(v, [0.0, 0.0], atol=1e-6)

    def test_bad_input(self):
        system = sde.heisenberg_toy()
        with pytest.raises(ConfigError):
            parse_direction("V9", system, [0.0, 0.0])
        with pytest.raises(ConfigError):
            parse_direction("[V1,V2", system, [0.0, 0.0])
        with pytest.raises(ConfigError):
            parse_direction("V1 $ V2", system, [0.0, 0.0])
        # nested finite differences lose accuracy fast with depth (1e-2 at
        # four brackets), and 199 brackets, the most Python's parser takes,
        # would never finish; 200 do not parse
        deep = ["[[V1, [V1, [V1, V2]]], V1]", "V1 + [V1, [V1, 0.5*[V1, [V1, V2]]]]"]
        for text in deep + ["[V1," * 199 + "V2" + "]" * 199]:
            with pytest.raises(ConfigError, match="deeper than 3"):
                parse_direction(text, system, [0.0, 0.0])
        with pytest.raises(ConfigError):
            parse_direction("[V1," * 200 + "V2" + "]" * 200, system, [0.0, 0.0])

    def test_depth_limits_are_the_library_one(self, monkeypatch):
        # a degree-m decomposition nests m - 2 deep, so --m stops at depth + 2
        sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        for command in ("greek", "converge"):
            m_flag = next(a for a in sub.choices[command]._actions if "--m" in a.option_strings)
            assert m_flag.type(str(sde.BRACKET_DEPTH + 2)) == sde.BRACKET_DEPTH + 2
            with pytest.raises(argparse.ArgumentTypeError):
                m_flag.type(str(sde.BRACKET_DEPTH + 3))
        monkeypatch.setattr(sde, "BRACKET_DEPTH", 1)
        with pytest.raises(ConfigError, match="deeper than 1"):
            parse_direction("[V1,[V1,V2]]", sde.heisenberg_toy(), [0.0, 0.0])

    def test_scale_forms(self):
        assert parse_scale("sqrt_t", 0.25) == 0.5
        assert abs(parse_scale("t^1", 0.25) - 0.25) < 1e-15
        assert abs(parse_scale("t^3/2", 0.25) - 0.125) < 1e-15
        assert parse_scale(None, 0.25) == 1.0
        with pytest.raises(ConfigError):
            parse_scale("2t", 0.25)


def _long_sum(atoms, n=500):
    """An n-term +/- chain with coefficients like 4.3e-0 and 5.6e-1 over the atoms."""
    parts = []
    for k in range(n):
        term = f"{(k % 9) + 1}.{k % 7}e-{k % 3}*{atoms[k % len(atoms)]}"
        parts.append(term if k == 0 else ("- " if k % 4 == 1 else "+ ") + term)
    return " ".join(parts)


LONG_SUMS = {
    "heisenberg_toy": _long_sum(["V1", "[V1,V2]", "V2", "V0"]),
    "black_scholes": _long_sum(["V1", "V0", "[V0,V1]"]),
}


class TestDirectionRecorded:
    """parse_direction against float.hex values recorded from the hand-written
    tokenizer and recursive-descent parser that Python's parser replaced."""

    CASES = [
        ("heisenberg_toy", (0.3, -0.7), "0.5,-1", ("0x1.0000000000000p-1", "-0x1.0000000000000p+0")),
        ("heisenberg_toy", (0.3, -0.7), "0,1", ("0x0.0p+0", "0x1.0000000000000p+0")),
        ("heisenberg_toy", (0.3, -0.7), "V1", ("0x1.0000000000000p+0", "0x0.0p+0")),
        ("heisenberg_toy", (0.3, -0.7), "[V1,V2]", ("0x0.0p+0", "0x1.0000000000000p+0")),
        ("heisenberg_toy", (0.3, -0.7), "2*V1 + 0.5*[V1,V2] - V2", ("0x1.0000000000000p+1", "0x1.999999999999ap-3")),
        ("heisenberg_toy", (0.3, -0.7), "[V1,[V1,V2]]", ("0x0.0p+0", "0x0.0p+0")),
        ("heisenberg_toy", (0.3, -0.7), "2*V1 + 0.5*[V1,[V1,V2]]", ("0x1.0000000000000p+1", "0x0.0p+0")),
        ("heisenberg_toy", (0.3, -0.7), "1.5e-1*V2 - 2E+1*[V2,V1]", ("0x0.0p+0", "0x1.40b851eb851ecp+4")),
        ("heisenberg_toy", (0.3, -0.7), "V0 + 3*(V1 - 0.25*V2)", ("0x1.8000000000000p+1", "-0x1.cccccccccccccp-3")),
        ("heisenberg_toy", (0.3, -0.7), "[2*V1 - V2, [V1, (V2 + V0)]]", ("0x0.0p+0", "0x0.0p+0")),
        ("heisenberg_toy", (0.3, -0.7), " V1 - V2 + V1 ", ("0x1.0000000000000p+1", "-0x1.3333333333333p-2")),
        ("heisenberg_toy", (0.3, -0.7), "SUM", ("0x1.9ae2d0e560418p+7", "-0x1.116b1c432ca58p+7")),
        ("heisenberg_toy", (1.25, 0.5), "0.5,-1", ("0x1.0000000000000p-1", "-0x1.0000000000000p+0")),
        ("heisenberg_toy", (1.25, 0.5), "0,1", ("0x0.0p+0", "0x1.0000000000000p+0")),
        ("heisenberg_toy", (1.25, 0.5), "V1", ("0x1.0000000000000p+0", "0x0.0p+0")),
        ("heisenberg_toy", (1.25, 0.5), "[V1,V2]", ("0x0.0p+0", "0x1.0000000000000p+0")),
        ("heisenberg_toy", (1.25, 0.5), "2*V1 + 0.5*[V1,V2] - V2", ("0x1.0000000000000p+1", "-0x1.8000000000000p-1")),
        ("heisenberg_toy", (1.25, 0.5), "[V1,[V1,V2]]", ("0x0.0p+0", "0x0.0p+0")),
        ("heisenberg_toy", (1.25, 0.5), "2*V1 + 0.5*[V1,[V1,V2]]", ("0x1.0000000000000p+1", "0x0.0p+0")),
        ("heisenberg_toy", (1.25, 0.5), "1.5e-1*V2 - 2E+1*[V2,V1]", ("0x0.0p+0", "0x1.4300000000000p+4")),
        ("heisenberg_toy", (1.25, 0.5), "V0 + 3*(V1 - 0.25*V2)", ("0x1.8000000000000p+1", "-0x1.e000000000000p-1")),
        ("heisenberg_toy", (1.25, 0.5), "[2*V1 - V2, [V1, (V2 + V0)]]", ("0x0.0p+0", "0x0.0p+0")),
        ("heisenberg_toy", (1.25, 0.5), " V1 - V2 + V1 ", ("0x1.0000000000000p+1", "-0x1.4000000000000p+0")),
        ("heisenberg_toy", (1.25, 0.5), "SUM", ("0x1.9ae2d0e560418p+7", "0x1.cdb645a1cac06p+5")),
        ("black_scholes", (1.1,), "1", ("0x1.0000000000000p+0",)),
        ("black_scholes", (1.1,), "-0.5", ("-0x1.0000000000000p-1",)),
        ("black_scholes", (1.1,), "V1", ("0x1.51eb851eb851fp-2",)),
        ("black_scholes", (1.1,), "0.5*V0 - 1e-3*[V0,V1] + V1", ("0x1.54bc6a7ef9db3p-2",)),
        ("black_scholes", (1.1,), "SUM", ("0x1.e78342edbb59dp+6",)),
    ]

    @pytest.mark.parametrize("model, y, text, expected", CASES)
    def test_bitwise_equal_to_recorded(self, model, y, text, expected):
        system = sde.heisenberg_toy() if model == "heisenberg_toy" else sde.black_scholes(0.05, 0.3)
        text = LONG_SUMS[model] if text == "SUM" else text
        v = parse_direction(text, system, list(y))
        assert tuple(float(x).hex() for x in np.asarray(v)) == expected

    def test_signed_literal_coefficients(self):
        system = sde.heisenberg_toy()
        v = parse_direction("-2*V1 + +0.5*V2 - -1*V0", system, [3.0, 0.0])
        assert v.tolist() == [-2.0, 1.5]


class TestMalformedInput:
    """Malformed flags and files print one error line and exit 2."""

    @pytest.mark.parametrize(
        "direction",
        [
            "1,2,", "e,e", "1..2", "V1*2", "[V1,V2", "V9", "V1 $ V2", "2V1", "(V1,V2)", "1e999*V1",
            "[" * 201 + "V1" + ",V2]" * 201,
            " + ".join(["V1"] * 5000),
        ],
        ids=lambda text: text if len(text) < 20 else f"{len(text)} chars",
    )
    def test_direction(self, heisenberg_model, capsys, direction):
        argv = ["greek", "--model", heisenberg_model, "--y", "0,0", "--t", "0.1", "--m", "3"]
        assert main(argv + ["--direction", direction]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("payoff", ["call:abc", "call:nan", "smoothed_call:1:nan", "bogus"])
    @pytest.mark.parametrize("command", ["greek", "converge"])
    def test_payoff(self, bs_model, capsys, command, payoff):
        if command == "greek":
            argv = ["greek", "--y", "1.0", "--direction", "1", "--t", "0.5"]
        else:
            argv = ["converge", "--study", "expectation"]
        assert main(argv + ["--model", bs_model, "--payoff", payoff]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("y", ["nan", "inf", "-inf"])
    def test_non_finite_state(self, bs_model, capsys, y):
        argv = ["greek", "--model", bs_model, f"--y={y}", "--direction", "V1", "--t", "0.1"]
        assert main(argv) == 2
        assert "non-finite" in capsys.readouterr().err

    def test_state_outside_the_closed_form_domain(self, bs_model, capsys):
        # the reference's DomainError is a configuration error, as its own message says
        assert main(["converge", "--model", bs_model, "--study", "greek", "--y", "-1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: need finite r and y, t, sigma > 0") and err.count("\n") == 1

    def test_non_finite_horizon(self, bs_model, capsys):
        argv = ["converge", "--model", bs_model, "--study", "expectation", "--t-list", "0.1,nan"]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: --t-list vector")

    def test_formula_file_that_is_not_json(self, tmp_path, capsys):
        path = tmp_path / "f.json"
        path.write_text('{"flavor": ')
        assert main(["cubature", "import", "--in", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: formula file is not valid JSON")

    @pytest.mark.parametrize(
        "edit",
        [
            lambda data: [],
            lambda data: {**data, "d": "x"},
            lambda data: {**data, "d": 0},
            lambda data: {**data, "t": -1.0},
            lambda data: {**data, "flavor": "bogus"},
            lambda data: {**data, "items": [{"w": 1.0, "path": {"t_end": 1.0, "knots": [{"s": 0.0, "x": [0.0, 0.0]}]}}]},
            lambda data: {**data, "items": [{"w": 1.0, "path": {"t_end": 1.0, "knots": [
                {"s": 0.0, "x": [0.0, 0.0, 0.0]}, {"s": 1.0, "x": [1.0, 1.0, 0.0]},
            ]}}]},
            lambda data: {**data, "flavor": "greeks", "direction": {"d": 2, "m": 3, "coeffs": []}},
            lambda data: {**data, "d": 6, "m": 12},
        ],
        ids=[
            "list", "d-not-int", "d-zero", "negative-t", "flavor", "one-knot", "wrong-dimension",
            "direction-context", "context-too-large",
        ],
    )
    def test_malformed_formula_file(self, tmp_path, capsys, edit):
        path = tmp_path / "f.json"
        assert main(["cubature", "export", "--d", "1", "--m", "3", "--out", str(path)]) == 0
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        assert main(["cubature", "import", "--in", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: formula file {path} is malformed: ") and err.count("\n") == 1


class TestHorizonFlags:
    """Horizons, steps and exponents are positive finite numbers, or exit 2."""

    @pytest.mark.parametrize(
        "flags",
        [
            ["greek", "--t", "nan"],
            ["greek", "--t", "inf"],
            ["greek", "--t", "0"],
            ["greek", "--t", "1.0", "--partition", "3,nan", "--s0", "0.1"],
            ["greek", "--t", "1.0", "--partition", "3,-2", "--s0", "0.1"],
            ["greek", "--t", "1.0", "--partition", "3,2", "--s0", "-0.1"],
            ["greek", "--t", "1.0", "--partition", "3,2", "--s0", "inf"],
            ["greek", "--t", "0.5", "--scale", "t^1/0"],
            ["greek", "--t", "2.0", "--scale", "t^5000/1"],
            ["diagnostics", "--t", "-1"],
            ["diagnostics", "--t", "nan"],
            ["cubature", "export", "--kind", "greeks2pt", "--t", "inf"],
            ["converge", "--study", "greek", "--t-list", "0.1,-0.2"],
            ["converge", "--study", "greek", "--t-list", "0.1"],
            ["converge", "--study", "expectation", "--t-list", "0.1,0.1"],
        ],
    )
    def test_bad_horizon_is_a_usage_error(self, bs_model, capsys, flags):
        if flags[0] == "greek":
            flags = flags + ["--y", "1.0", "--direction", "1"]
        if flags[0] in ("greek", "converge"):
            flags = flags + ["--model", bs_model]
        assert main(flags) == 2
        err = capsys.readouterr().err
        assert "error: " in err and "Traceback" not in err


class TestRangeFlags:
    """Counts, degrees and the partition are range-checked flags, or exit 2."""

    @pytest.mark.parametrize(
        "flags",
        [
            ["greek", "--ode-steps", "0"],
            ["greek", "--s0", "0.1", "--partition", "0,2"],
            ["greek", "--s0", "0.1", "--partition", "3,0.5"],
            ["greek", "--s0", "1.5", "--partition", "3,2"],
            ["greek", "--m", "0"],
            ["greek", "--m", "1"],
            ["greek", "--m", "6"],
            ["greek", "--m", "12"],
            ["greek", "--m", "30"],
            ["converge", "--study", "greek", "--m", "6"],
            ["greek", "--m", "5"],
            ["converge", "--study", "greek", "--m", "5"],
            ["greek", "--mprime", "0", "--s0", "0.1", "--partition", "2,1"],
            ["converge", "--study", "greek", "--ode-steps", "0"],
            ["cubature", "export", "--m", "4"],
            ["cubature", "export", "--kind", "expectation5", "--m", "3"],
            ["cubature", "export", "--kind", "expectation5", "--d", "6", "--m", "5"],
            ["cubature", "export", "--kind", "greeks2pt", "--m", "3"],
            ["cubature", "export", "--d", "0"],
            ["diagnostics", "--paths", "0"],
            ["diagnostics", "--steps", "0"],
            ["verify", "--d", "0", "--m", "2"],
            ["diagnostics", "--paths", "1"],
            ["verify", "--d", "4", "--m", "8"],
            ["cubature", "export", "--kind", "expectation3", "--d", "300"],
            ["greek", "--mprime", "4", "--s0", "0.1", "--partition", "2,1"],
            ["converge", "--study", "expectation", "--mprime", "4"],
        ],
    )
    def test_out_of_range_is_a_usage_error(self, bs_model, capsys, flags):
        if flags[0] == "greek":
            flags = flags + ["--t", "1", "--y", "1.0", "--direction", "1"]
        if flags[0] in ("greek", "converge"):
            flags = flags + ["--model", bs_model]
        assert main(flags) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len([line for line in err.splitlines() if "error: " in line]) == 1

    @pytest.mark.parametrize(
        "model, y, direction, m",
        [
            ("bs", "1.0", "1", "5"),
            ("heisenberg", "0.3,-0.2", "[V1,V2]", "4"),
            ("heisenberg", "0.3,-0.2", "[V1,V2]", "5"),
            ("heisenberg", "0.3,-0.2", "1,0", "5"),
            ("heisenberg", "0,-0.2", "0,1", "5"),
        ],
    )
    def test_m_past_the_dictionary_reach_is_refused(self, bs_model, heisenberg_model, capsys, model, y, direction, m):
        # the solve fails its moment check; that is a refused degree, not a numerical failure
        path = bs_model if model == "bs" else heisenberg_model
        argv = ["greek", "--model", path, "--y", y, "--direction", direction, "--t", "0.2", "--m", m]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: m={m} is beyond the reach of the default Greeks dictionary for this direction")
        assert err.count("\n") == 1

    def test_highest_reachable_m_runs(self, bs_model, heisenberg_model, tmp_path):
        out = tmp_path / "g.json"
        argv = ["greek", "--model", bs_model, "--y", "1.0", "--direction", "1", "--t", "0.5", "--m", "4"]
        assert main(argv + ["--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert (data["estimate"].hex(), data["leaves"]) == ("0x1.066bb689970acp+0", 6)
        assert main([
            "greek", "--model", heisenberg_model, "--y", "0.3,-0.2", "--direction", "[V1,V2]",
            "--t", "0.2", "--m", "3", "--out", str(out),
        ]) == 0
        # V1 decomposes into degree-1 words only, which the dictionary reaches at m = 4 for any d;
        # the fixed 16 RK4 steps keep the bits recorded before the default step rule; both pins
        # (and the Black-Scholes one above) were re-recorded with greeks_solve's pseudo-inverse weights
        for direction in ("1,0", "V1"):
            for ode_steps, estimate in (([], "0x1.ffffffffffffcp-1"), (["--ode-steps", "16"], "0x1.ffffffffffff9p-1")):
                assert main([
                    "greek", "--model", heisenberg_model, "--y", "0.3,-0.2", "--direction", direction,
                    "--t", "0.2", "--m", "4", "--out", str(out), *ode_steps,
                ]) == 0
                data = json.loads(out.read_text())
                assert (data["estimate"].hex(), data["leaves"]) == (estimate, 10)
        assert main(["converge", "--model", bs_model, "--study", "greek", "--m", "4", "--out", str(out)]) == 0

    def test_lowest_accepted_values_run(self, bs_model, capsys):
        assert main(["cubature", "export", "--kind", "greeks2pt", "--m", "1"]) == 0
        assert main([
            "greek", "--model", bs_model, "--y", "1.0", "--direction", "1", "--t", "1",
            "--m", "2", "--ode-steps", "1", "--s0", "0.5", "--partition", "1,1",
        ]) == 0


class TestPartitionRecorded:
    """Iterated deltas pinned to float.hex values.  CASES run at a fixed 16
    RK4 steps per segment: they were recorded before the inner formulas were
    carried from horizon 1, the m'=5 cases re-recorded when the degree-5
    formula became the Ninomiya-Victoir splitting (3 paths in place of 7).  DEFAULT_CASES
    are the same deltas under the default step rule, re-recorded when it took the
    smallest integer step count in place of the smallest power of two, and again
    when the stages after the first took greeks.INNER_ODE_TOL in place of ODE_TOL."""

    CASES = [
        ("3", "0.1", "4,2.0", "0x1.e5561ae698e2fp-2", 32),
        ("3", "0.1", "8,3.0", "0x1.dd9335694aae8p-2", 512),
        ("3", "0.05", "6,1.5", "0x1.e3e633687b023p-2", 128),
        ("5", "0.1", "2,1.0", "0x1.a7195cab9b170p-2", 18),
        ("5", "0.2", "3,2.0", "0x1.b9e0844d96450p-2", 54),
    ]
    DEFAULT_CASES = [
        ("3", "0.1", "4,2.0", "0x1.e5561ac6fe48cp-2", 32),
        ("3", "0.1", "8,3.0", "0x1.dd933548c12c2p-2", 512),
        ("3", "0.05", "6,1.5", "0x1.e3e6334c66b51p-2", 128),
        ("5", "0.1", "2,1.0", "0x1.a7195ca944800p-2", 18),
        ("5", "0.2", "3,2.0", "0x1.b9e0844619456p-2", 54),
    ]

    @staticmethod
    def delta(bs_model, tmp_path, mprime, s0, partition, *flags):
        out = tmp_path / "g.json"
        assert main([
            "greek", "--model", bs_model, "--y", "1.0", "--direction", "1", "--t", "1.0",
            "--m", "2", "--mprime", mprime, "--s0", s0, "--partition", partition,
            "--payoff", "smoothed_call:1.15:0.05", "--out", str(out), *flags,
        ]) == 0
        data = json.loads(out.read_text())
        return data["estimate"].hex(), data["leaves"]

    @pytest.mark.parametrize("mprime, s0, partition, estimate, leaves", CASES)
    def test_estimate_is_bitwise_recorded(self, bs_model, tmp_path, mprime, s0, partition, estimate, leaves):
        flags = ("--ode-steps", "16")
        assert self.delta(bs_model, tmp_path, mprime, s0, partition, *flags) == (estimate, leaves)

    @pytest.mark.parametrize("mprime, s0, partition, estimate, leaves", DEFAULT_CASES)
    def test_default_estimate_is_bitwise_recorded(self, bs_model, tmp_path, mprime, s0, partition, estimate, leaves):
        assert self.delta(bs_model, tmp_path, mprime, s0, partition) == (estimate, leaves)


class TestStageZeroCaches:
    """Stage-0 formulas come from per-context caches that leave every output byte alone."""

    def test_two_point_cache_keeps_iterated_output_bytes(self, bs_model, capsys, monkeypatch):
        argv = [
            "greek", "--model", bs_model, "--y", "1.0", "--direction", "1", "--t", "1.0", "--m", "2",
            "--mprime", "3", "--s0", "0.1", "--partition", "8,3.0", "--payoff", "smoothed_call:1.15:0.05",
        ]
        cubature._unit_pair.cache_clear()
        outputs = []
        for _ in range(2):  # cold, then warm
            assert main(argv) == 0
            outputs.append(capsys.readouterr().out)
        assert cubature._unit_pair.cache_info()[:2] == (1, 1)  # (hits, misses)
        monkeypatch.setattr(cubature, "_unit_pair", cubature._unit_pair.__wrapped__)
        assert main(argv) == 0
        assert outputs == [capsys.readouterr().out] * 2

    def test_tiny_direction_is_served_as_its_scaled_unit(self, bs_model, tmp_path):
        out = tmp_path / "g.json"

        def greek(direction):
            argv = ["greek", "--model", bs_model, "--y", "1.0", "--t", "0.5", "--m", "3", "--direction", direction]
            assert main(argv + ["--out", str(out)]) == 0
            return json.loads(out.read_text())

        unit = greek("1")
        for c in (1e-13, 1e-14):
            data = greek(repr(c))
            assert data["leaves"] == unit["leaves"] == 7
            assert abs(data["estimate"] - c * unit["estimate"]) <= 1e-13 * c * unit["estimate"]


class TestVerifyCommand:
    def test_passes(self, capsys):
        assert main(["verify", "--d", "2", "--m", "2"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") >= 12

    def test_passes_high_degree(self):
        assert main(["verify", "--d", "1", "--m", "5"]) == 0

    def test_usage_error_on_bad_degree(self, capsys):
        assert main(["verify", "--d", "1", "--m", "0"]) == 2

    def test_missing_required_flag(self):
        assert main(["verify", "--d", "1"]) == 2


class TestGreekCommand:
    def test_sinh_estimate(self, bs_model, tmp_path, capsys):
        out = tmp_path / "result.json"
        code = main([
            "greek", "--model", bs_model, "--y", "1.0", "--direction", "V1",
            "--scale", "sqrt_t", "--t", "0.1", "--m", "2", "--out", str(out),
        ])
        assert code == 0
        data = json.loads(out.read_text())
        assert abs(data["estimate"] - math.sinh(0.3 * math.sqrt(0.1))) < 1e-9
        assert data["leaves"] == 2
        assert data["settings"]["direction_degree_k"] == 1

    def test_missing_model_file(self, capsys):
        code = main([
            "greek", "--model", "/nope/missing.json", "--y", "1.0",
            "--direction", "V1", "--t", "0.1",
        ])
        assert code == 2

    def test_bracket_direction_on_heisenberg(self, heisenberg_model, tmp_path):
        out = tmp_path / "r.json"
        code = main([
            "greek", "--model", heisenberg_model, "--y", "0,0",
            "--direction", "[V1,V2]", "--t", "0.1", "--m", "3", "--out", str(out),
        ])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["settings"]["direction_degree_k"] == 2
        assert data["settings"]["decomposition_residual"] < 1e-10

    def test_iterated_run(self, bs_model, tmp_path):
        out = tmp_path / "r.json"
        code = main([
            "greek", "--model", bs_model, "--y", "1.0", "--direction", "1",
            "--t", "1.0", "--m", "2", "--mprime", "3", "--s0", "0.1",
            "--partition", "4,3", "--payoff", "smoothed_call:1.15:0.05",
            "--out", str(out),
        ])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["leaves"] == 2 * 2**4

    @pytest.mark.parametrize(
        "model, flags",
        [
            ("heisenberg", ["--y", "0.2,0.1", "--direction", "[V1,V2]", "--t", "0.1", "--m", "3"]),
            ("bs", [
                "--y", "1.0", "--direction", "1", "--t", "1.0", "--m", "2", "--mprime", "3",
                "--s0", "0.1", "--partition", "4,3", "--payoff", "smoothed_call:1.15:0.05",
            ]),
        ],
    )
    def test_output_carries_the_one_decomposition(self, bs_model, heisenberg_model, tmp_path, model, flags):
        # the bytes equal those of a separate decompose_direction at the first step
        model_path = bs_model if model == "bs" else heisenberg_model
        out = tmp_path / "r.json"
        assert main(["greek", "--model", model_path, *flags, "--out", str(out)]) == 0
        args = cli.build_parser().parse_args(["greek", "--model", model_path, *flags])
        system = sde.load_model(model_path)
        y = np.array([float(p) for p in args.y.split(",")])
        v = np.asarray(parse_direction(args.direction, system, y), dtype=float)
        if args.partition:
            partition = greeks.gamma_partition(args.t, args.s0, *args.partition)
        else:
            partition = [args.t]
        request = greeks.GreekRequest(
            system=system, payoff=mc.parse_payoff(args.payoff), y=tuple(y), v=tuple(v),
            t=args.t, m=args.m, m_prime=args.mprime, partition=tuple(partition),
        )
        result = greeks.greek_iterated(request)
        assert sorted(result.to_dict()) == ["estimate", "leaves", "residuals"]
        coeffs, residual = sde.decompose_direction(system, y, v, partition[0], args.m)
        assert result.direction_words == coeffs
        assert result.decomposition_residual == residual
        expected = result.to_dict()
        expected["settings"] = {
            "model": system.name,
            "y": list(y),
            "v": list(v),
            "t": args.t,
            "m": args.m,
            "mprime": args.mprime,
            "partition": list(partition),
            "payoff": repr(request.payoff),
            "direction_words": {"".join(map(str, w)): c for w, c in sorted(coeffs.items())},
            "direction_degree_k": max(word_degree(w) for w in coeffs),
            "decomposition_residual": residual,
        }
        assert out.read_text() == json.dumps(expected, indent=2, sort_keys=True) + "\n"

    def test_decomposition_runs_once(self, bs_model, tmp_path, monkeypatch):
        calls = []
        original = sde.decompose_direction

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(sde, "decompose_direction", counted)
        for m in ("2", "4"):
            calls.clear()
            assert main([
                "greek", "--model", bs_model, "--y", "1.0", "--direction", "V1",
                "--t", "0.1", "--m", m, "--out", str(tmp_path / "r.json"),
            ]) == 0
            assert len(calls) == 1

    @pytest.mark.parametrize(
        "text",
        [
            '{"model":"black_scholes","params":{"r":"abc","sigma":0.3}}',
            "[1,2]",
            '{"model":"black_scholes","params":[1]}',
            '{"model":"black_scholes","params":{"r":NaN,"sigma":0.3}}',
            '{"model":"black_scholes","params":{"r":0.05,"sigma":Infinity}}',
        ],
    )
    def test_malformed_model_file_is_a_usage_error(self, tmp_path, capsys, text):
        model = tmp_path / "bad.json"
        model.write_text(text)
        for argv in (
            ["greek", "--model", str(model), "--y", "1.0", "--direction", "V1", "--t", "0.1"],
            ["converge", "--model", str(model), "--study", "expectation"],
        ):
            assert main(argv) == 2
            assert capsys.readouterr().err.startswith("error: ")

    def test_threads_flag_is_a_no_op(self, bs_model, tmp_path):
        argv = [
            "greek", "--model", bs_model, "--y", "1.0", "--direction", "1",
            "--t", "0.5", "--m", "2", "--mprime", "3", "--s0", "0.1",
            "--partition", "3,2", "--payoff", "smoothed_call:1.15:0.05",
        ]
        serial, threaded = tmp_path / "serial.json", tmp_path / "threaded.json"
        assert main(argv + ["--out", str(serial)]) == 0
        assert main(argv + ["--threads", "4", "--out", str(threaded)]) == 0
        assert threaded.read_bytes() == serial.read_bytes()


class TestConvergeCommand:
    def test_expectation_study(self, bs_model, tmp_path):
        out = tmp_path / "table.csv"
        code = main([
            "converge", "--model", bs_model, "--study", "expectation",
            "--t-list", "0.4,0.2,0.1,0.05", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t,estimate,reference,abs_error"
        assert len(lines) == 6
        slope = float(lines[-1].split(",")[1])
        assert slope >= 1.9

    def test_greek_study_references_closed_form(self, bs_model, tmp_path):
        out = tmp_path / "table.csv"
        code = main([
            "converge", "--model", bs_model, "--study", "greek",
            "--direction", "V1", "--scale", "sqrt_t",
            "--t-list", "0.4,0.2,0.1,0.05", "--m", "2", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        slope = float(lines[-1].split(",")[1])
        assert slope >= 1.4
        # the reference column is the closed-form delta scaled by the direction
        from cubgreeks.mc import Payoff, bs_closed_form

        t0 = 0.4
        _, delta = bs_closed_form(0.05, 0.3, 1.0, t0, Payoff("identity"))
        ref = float(lines[1].split(",")[2])
        assert abs(ref - delta * math.sqrt(t0) * 0.3) < 1e-12

    def test_extra_param_is_ignored(self, bs_model, tmp_path):
        # greek and converge read the same one parse of the model file
        extra = tmp_path / "extra.json"
        extra.write_text('{"model":"black_scholes","params":{"r":0.05,"sigma":0.3,"name":"x"}}')
        for flags in (
            ["converge", "--study", "greek", "--t-list", "0.2,0.1"],
            ["greek", "--y", "1.0", "--direction", "V1", "--t", "0.1"],
        ):
            plain, with_extra = tmp_path / "plain.out", tmp_path / "extra.out"
            assert main([*flags, "--model", bs_model, "--out", str(plain)]) == 0
            assert main([*flags, "--model", str(extra), "--out", str(with_extra)]) == 0
            assert with_extra.read_bytes() == plain.read_bytes()

    @pytest.mark.parametrize(
        "flags",
        [
            ["--study", "expectation", "--y", "1.0,2.0"],
            ["--study", "greek", "--y", "1.0,2.0"],
            ["--study", "expectation", "--t-list", "0.4,abc"],
            ["--study", "greek", "--scale", "2t"],
            ["--study", "greek", "--direction", "V7"],
        ],
    )
    def test_bad_flags_are_usage_errors(self, bs_model, capsys, flags):
        assert main(["converge", "--model", bs_model, *flags]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_requires_black_scholes(self, heisenberg_model):
        code = main([
            "converge", "--model", heisenberg_model, "--study", "expectation",
        ])
        assert code == 2


class TestCubatureCommand:
    def test_export_import_roundtrip(self, tmp_path):
        out = tmp_path / "formula.json"
        assert main([
            "cubature", "export", "--kind", "expectation5", "--d", "1", "--m", "5",
            "--t", "0.5", "--out", str(out),
        ]) == 0
        report = tmp_path / "report.json"
        assert main([
            "cubature", "import", "--in", str(out), "--out", str(report),
        ]) == 0
        data = json.loads(report.read_text())
        assert data["valid"] is True
        assert data["max_residual"] < 1e-10

    def test_residual_at_the_tolerance_is_valid(self, tmp_path, monkeypatch):
        # import and the constructors' check share one rule: a residual equal to VERIFY_TOL passes
        out = tmp_path / "formula.json"
        argv = ["cubature", "export", "--kind", "expectation5", "--d", "2", "--m", "5", "--t", "0.5"]
        assert main(argv + ["--out", str(out)]) == 0
        data = json.loads(out.read_text())
        formula = cubature.formula_from_dict(data, verify=False)
        worst = max(cubature.verify_moments(formula, formula.target()).values())
        assert 0.0 < worst < cubature.VERIFY_TOL
        monkeypatch.setattr(cubature, "VERIFY_TOL", worst)
        assert cubature.formula_from_dict(data).residual == worst
        report = tmp_path / "report.json"
        assert main(["cubature", "import", "--in", str(out), "--out", str(report)]) == 0
        assert json.loads(report.read_text())["valid"] is True

    @pytest.mark.parametrize("kind, d, m", [("expectation3", 1, 3), ("greeks2pt", 1, 2)])
    @pytest.mark.parametrize("item", [0, 1])
    def test_import_of_a_nan_weight_is_a_usage_error(self, tmp_path, capsys, kind, d, m, item):
        out = tmp_path / "formula.json"
        main(["cubature", "export", "--kind", kind, "--d", str(d), "--m", str(m), "--out", str(out)])
        data = json.loads(out.read_text())
        data["items"][item]["w"] = math.nan
        out.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["cubature", "import", "--in", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: formula file {out} is malformed: formula weights must be finite")

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_import_of_a_non_finite_direction_coefficient_is_a_usage_error(self, tmp_path, capsys, value):
        out = tmp_path / "formula.json"
        main(["cubature", "export", "--kind", "greeks2pt", "--d", "2", "--m", "2", "--direction", "3,4",
              "--out", str(out)])
        data = json.loads(out.read_text())
        data["direction"]["coeffs"][0]["c"] = value
        out.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["cubature", "import", "--in", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: formula file {out} is malformed: element coefficients must be finite")

    def test_import_detects_corruption(self, tmp_path):
        out = tmp_path / "formula.json"
        main(["cubature", "export", "--kind", "expectation3", "--d", "2", "--m", "3",
              "--t", "1.0", "--out", str(out)])
        data = json.loads(out.read_text())
        data["items"][0]["w"] *= 1.01
        out.write_text(json.dumps(data))
        assert main(["cubature", "import", "--in", str(out)]) == 1

    @pytest.mark.parametrize("drop", ["flavor", "path"])
    def test_import_missing_key_is_a_usage_error(self, tmp_path, capsys, drop):
        out = tmp_path / "formula.json"
        main(["cubature", "export", "--kind", "expectation3", "--d", "1", "--m", "3",
              "--t", "1.0", "--out", str(out)])
        data = json.loads(out.read_text())
        del (data if drop == "flavor" else data["items"][1])[drop]
        out.write_text(json.dumps(data))
        assert main(["cubature", "import", "--in", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: formula file {out} is missing key '{drop}'")

    def test_import_of_paths_that_miss_the_horizon_is_a_usage_error(self, tmp_path, capsys):
        ctx = context(2, 3)
        w = algebra.bracket(algebra.generator(ctx, 1), algebra.generator(ctx, 2))
        formula = cubature.greeks_solve(ctx, w, 1.0, cubature.default_greeks_dictionary(ctx))
        out = tmp_path / "formula.json"
        out.write_text(json.dumps({**cubature.formula_to_dict(formula), "t": 0.5}))
        assert main(["cubature", "import", "--in", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: formula file {out} is malformed: path ends at 1.0")

    def test_greeks_export(self, tmp_path):
        out = tmp_path / "g.json"
        assert main([
            "cubature", "export", "--kind", "greeks2pt", "--d", "2", "--m", "2",
            "--t", "0.25", "--direction", "1,0", "--out", str(out),
        ]) == 0
        data = json.loads(out.read_text())
        assert data["flavor"] == "greeks"
        assert sorted(item["w"] for item in data["items"]) == [-0.5, 0.5]

    def test_greeks_export_non_unit_direction(self, tmp_path):
        # the paths stay at unit scale; |w| = 5 rides on the weights
        out = tmp_path / "g.json"
        assert main([
            "cubature", "export", "--kind", "greeks2pt", "--d", "2", "--m", "2",
            "--t", "0.25", "--direction", "3,4", "--out", str(out),
        ]) == 0
        data = json.loads(out.read_text())
        assert [item["w"] for item in data["items"]] == [2.5, -2.5]
        assert np.allclose(data["items"][0]["path"]["knots"][-1]["x"], [0.0, 0.3, 0.4])
        assert main(["cubature", "import", "--in", str(out)]) == 0


class TestDiagnosticsCommand:
    def test_small_run_and_reproducibility(self, tmp_path):
        out1 = tmp_path / "d1.csv"
        out2 = tmp_path / "d2.csv"
        args = ["diagnostics", "--t", "0.25", "--paths", "4000", "--steps", "64",
                "--seed", "5"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        lines = out1.read_text().strip().splitlines()
        assert lines[0] == "quantity,estimate,stderr,reference,z_score"
        quantities = [line.split(",")[0] for line in lines[1:]]
        assert "covariance_det_identity_rel" in quantities
        assert "malliavin_delta" in quantities

    @pytest.mark.parametrize("seed", [3, 6, 7, 11])
    def test_zero_stderr_rows_fail_with_a_table(self, tmp_path, capsys, seed):
        # two paths, four steps: both calls end out of the money, so the
        # Malliavin and finite-difference standard errors are exactly 0
        out = tmp_path / "d.csv"
        argv = ["diagnostics", "--paths", "2", "--steps", "4", "--seed", str(seed), "--out", str(out)]
        assert main(argv) == 1
        assert "Traceback" not in capsys.readouterr().err
        rows = {line.split(",")[0]: line.split(",") for line in out.read_text().splitlines()[1:]}
        assert rows["malliavin_delta"][2] == "0" and rows["malliavin_delta"][4] == "-inf"
        assert rows["fd_delta"][4] == "-inf"

    @pytest.mark.parametrize("z", [5.0, -5.0])
    def test_fd_delta_far_from_the_closed_form_fails(self, tmp_path, monkeypatch, z):
        _, ref = mc.bs_closed_form(0.05, 0.3, 1.0, 0.25, mc.Payoff("call", 1.0))
        monkeypatch.setattr(mc, "fd_greek", lambda *args, **kwargs: (ref + z * 0.01, 0.01))
        out = tmp_path / "d.csv"
        argv = ["diagnostics", "--t", "0.25", "--paths", "4000", "--steps", "64", "--seed", "5", "--out", str(out)]
        assert main(argv) == 1
        rows = {line.split(",")[0]: line.split(",") for line in out.read_text().splitlines()[1:]}
        assert float(rows["fd_delta"][4]) == pytest.approx(z)
        assert abs(float(rows["malliavin_delta"][4])) < 4.0


def _diagnostics_csv_one_by_one(t, cfg):
    """The diagnostics table from the four public oracles, each drawing its
    own windows, in the rows and formats of ``cmd_diagnostics``."""
    report = mc.covariance_diagnostics(t, cfg)
    rows = [
        ["covariance_det_identity_rel", report.max_det_rel_error, 0.0, 0.0, 0.0],
        ["covariance_e0_block_abs", report.e0_max_abs, 0.0, 0.0, 0.0],
        ["covariance_positivity_fraction", report.positivity_fraction, 0.0, 1.0, 0.0],
        ["covariance_scaling_max_z", report.scaling_max_z, 0.0, 0.0, report.scaling_max_z],
    ]
    ctx = context(2, 3)
    element, stderr = mc.signature_expectation_stats(ctx, 1.0, cfg)
    heat = heat_element(ctx, 1.0)
    max_z = 0.0
    for w in ctx.basis:
        max_z = max(max_z, mc.z_score(abs(element.coeff(w) - heat.coeff(w)), stderr[w]))
    rows.append(["signature_mc_max_z", max_z, 0.0, 0.0, max_z])
    system = sde.black_scholes(0.05, 0.3)
    payoff = mc.Payoff("call", 1.0)
    _, ref = mc.bs_closed_form(0.05, 0.3, 1.0, t, payoff)
    for name, oracle in [("malliavin_delta", mc.malliavin_delta_m1), ("fd_delta", mc.fd_greek)]:
        est, se = oracle(system, payoff, [1.0], [1.0], t, cfg)
        rows.append([name, est, se, ref, mc.z_score(est - ref, se)])
    lines = ["quantity,estimate,stderr,reference,z_score"]
    lines += [f"{q},{e:.10g},{s:.4g},{r:.10g},{z:.4g}" for q, e, s, r, z in rows]
    return "\n".join(lines) + "\n"


class TestDiagnosticsSharedDraws:
    """``diagnostics`` draws each noise window once: the signature check and
    the horizon-t covariance ensemble share one d = 2 draw, and the Malliavin
    and finite-difference deltas read its first n * S draws as their d = 1
    window.  Its table is the bytes of the public oracles run one by one."""

    @pytest.mark.parametrize(
        "seed, paths, steps, code",
        [(0, 4000, 64, 0), (5, 4000, 64, 0), (41, 4000, 64, 0), (3, 2, 4, 1), (7, 2, 4, 1)],
    )
    def test_table_is_the_oracles_one_by_one(self, tmp_path, seed, paths, steps, code):
        out = tmp_path / "d.csv"
        argv = ["diagnostics", "--paths", str(paths), "--steps", str(steps), "--seed", str(seed)]
        assert main(argv + ["--out", str(out)]) == code
        cfg = mc.McConfig(n_paths=paths, n_steps=steps, seed=seed)
        assert out.read_bytes() == _diagnostics_csv_one_by_one(0.25, cfg).encode()

    def test_each_window_is_drawn_once(self, tmp_path, monkeypatch):
        draw = rng.normal_increments
        windows = []

        def counted(seed, path_start, n_paths, n_steps, d):
            windows.append((path_start, n_paths, n_steps, d))
            return draw(seed, path_start, n_paths, n_steps, d)

        monkeypatch.setattr(mc, "normal_increments", counted)
        monkeypatch.setattr(rng, "normal_increments", counted)
        argv = ["diagnostics", "--paths", "4000", "--steps", "64", "--seed", "5"]
        assert main(argv + ["--out", str(tmp_path / "d.csv")]) == 0
        # one full-size d = 2 draw, whose prefix is the d = 1 window: the
        # horizon-1 covariance ensemble (paths n..2n) is drawn in blocks of
        # mc._SIG_BLOCK paths
        assert windows == [(0, 4000, 64, 2), (4000, 2048, 64, 2), (6048, 1952, 64, 2)]
        assert sum(math.prod(w[1:]) for w in windows) == 1_024_000
        # the oracles one by one draw the d = 2 window 0..n and the d = 1 window twice each
        windows.clear()
        _diagnostics_csv_one_by_one(0.25, mc.McConfig(n_paths=4000, n_steps=64, seed=5))
        assert sum(math.prod(w[1:]) for w in windows) == 2_048_000

    @pytest.mark.parametrize("seed, paths, steps", [(5, 1, 1), (0, 3, 7), (41, 4001, 63), (2**40 + 1, 17, 129)])
    def test_d1_window_is_the_d2_draws_prefix(self, seed, paths, steps):
        # draw (p, k, i) sits at counter (p * S + k) * d + i, so the first n * S
        # d = 2 draws are the d = 1 window, bit for bit
        prefix = rng.normal_increments(seed, 0, paths, steps, 2).reshape(-1)[: paths * steps]
        assert prefix.reshape(paths, steps, 1).tobytes() == rng.normal_increments(seed, 0, paths, steps, 1).tobytes()

    def test_each_oracle_is_called_once_by_its_public_name(self, tmp_path, monkeypatch):
        # a tracer that wraps the public names of mc sees every oracle
        calls = []
        for name in ["signature_expectation_stats", "covariance_diagnostics", "malliavin_delta_m1", "fd_greek"]:
            oracle = getattr(mc, name)
            monkeypatch.setattr(
                mc, name, lambda *a, name=name, oracle=oracle, **k: calls.append(name) or oracle(*a, **k)
            )
        argv = ["diagnostics", "--paths", "500", "--steps", "16", "--seed", "5"]
        assert main(argv + ["--out", str(tmp_path / "d.csv")]) == 0
        assert calls == ["signature_expectation_stats", "covariance_diagnostics", "malliavin_delta_m1", "fd_greek"]


class TestVerifySeed:
    """``verify`` refuses a seed that is not an integer >= 0, which numpy's
    generator would refuse with an untyped error, as a usage error."""

    @pytest.mark.parametrize("seed", [-1, -(2**70), 1.5, True, None, "3"])
    def test_library_call_refuses_the_seed(self, seed):
        with pytest.raises(DomainError, match="seed must be an integer >= 0"):
            checks.run_property_checks(1, 2, seed=seed)

    def test_numpy_integer_seed_is_the_int_seed(self):
        assert checks.run_property_checks(1, 2, seed=np.int64(7)) == checks.run_property_checks(1, 2, seed=7)

    def test_flag_exits_2(self, capsys):
        assert main(["verify", "--d", "1", "--m", "2", "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "error: seed must be an integer >= 0, got -1" in captured.err

    def test_environment_exits_2(self, monkeypatch, capsys):
        monkeypatch.setenv("CUBGREEKS_SEED", "-1")
        assert main(["verify", "--d", "1", "--m", "2"]) == 2
        assert "error: seed must be an integer >= 0, got -1" in capsys.readouterr().err


class TestDiagnosticsSeed:
    """``diagnostics`` applies ``verify``'s seed rule through ``McConfig``."""

    def test_flag_exits_2(self, capsys):
        assert main(["diagnostics", "--paths", "2", "--steps", "1", "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "error: seed must be an integer >= 0, got -1" in captured.err

    def test_environment_exits_2(self, monkeypatch, capsys):
        monkeypatch.setenv("CUBGREEKS_SEED", "-1")
        assert main(["diagnostics", "--paths", "2", "--steps", "1"]) == 2
        assert "error: seed must be an integer >= 0, got -1" in capsys.readouterr().err


class TestEnvOverrides:
    def test_seed_from_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CUBGREEKS_SEED", "99")
        parser = cli.build_parser()
        args = parser.parse_args(["diagnostics"])
        assert args.seed == 99

    def test_flag_wins_over_environment(self, monkeypatch):
        monkeypatch.setenv("CUBGREEKS_SEED", "99")
        parser = cli.build_parser()
        args = parser.parse_args(["diagnostics", "--seed", "3"])
        assert args.seed == 3

    @pytest.mark.parametrize("name,argv", [
        ("CUBGREEKS_SEED", ["verify", "--d", "1", "--m", "2"]),
        ("CUBGREEKS_PATHS", ["diagnostics"]),
    ])
    def test_malformed_integer_is_a_usage_error(self, monkeypatch, capsys, name, argv):
        monkeypatch.setenv(name, "abc" if name == "CUBGREEKS_SEED" else "x")
        assert main(argv) == 2
        assert "invalid int value" in capsys.readouterr().err

    def test_flag_wins_over_malformed_environment(self, monkeypatch):
        monkeypatch.setenv("CUBGREEKS_SEED", "abc")
        assert main(["verify", "--d", "1", "--m", "2", "--seed", "4"]) == 0


class TestJsonFormat:
    def test_verify_json_table(self, tmp_path):
        out = tmp_path / "table.json"
        assert main(["verify", "--d", "1", "--m", "3", "--format", "json",
                     "--out", str(out)]) == 0
        rows = json.loads(out.read_text())
        assert all(row["status"] == "PASS" for row in rows)
        assert len(rows) >= 12

    def test_diagnostics_json(self, tmp_path):
        out = tmp_path / "d.json"
        assert main(["diagnostics", "--t", "0.25", "--paths", "2000",
                     "--steps", "32", "--seed", "1", "--format", "json",
                     "--out", str(out)]) == 0
        rows = json.loads(out.read_text())
        assert {"quantity", "estimate", "stderr", "reference", "z_score"} == set(rows[0])
