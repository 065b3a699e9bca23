import json
import math
import os

import numpy as np
import pytest

from cubgreeks import cli, greeks, mc, sde
from cubgreeks.algebra import word_degree
from cubgreeks.cli import main, parse_direction, parse_scale
from cubgreeks.errors import ConfigError


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

    @pytest.mark.parametrize("y", ["nan", "inf", "-inf"])
    def test_non_finite_state(self, bs_model, capsys, y):
        argv = ["greek", "--model", bs_model, f"--y={y}", "--direction", "V1", "--t", "0.1"]
        assert main(argv) == 2
        assert "non-finite" in capsys.readouterr().err

    def test_non_finite_horizon(self, bs_model, capsys):
        argv = ["converge", "--model", bs_model, "--study", "expectation", "--t-list", "0.1,nan"]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: --t-list vector")

    def test_formula_file_that_is_not_json(self, tmp_path, capsys):
        path = tmp_path / "f.json"
        path.write_text('{"flavor": ')
        assert main(["cubature", "import", "--in", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: formula file is not valid JSON")


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
        assert main([
            "greek", "--model", bs_model, "--y", "1.0", "--direction", "V1",
            "--t", "0.1", "--out", str(tmp_path / "r.json"),
        ]) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "text",
        [
            '{"model":"black_scholes","params":{"r":"abc","sigma":0.3}}',
            "[1,2]",
            '{"model":"black_scholes","params":[1]}',
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
