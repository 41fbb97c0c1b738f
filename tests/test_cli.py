"""Command line behavior: outputs, exit codes, determinism."""

from __future__ import annotations

import json
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainshadow import (
    build_delta_graph,
    decompose,
    format_rational,
    invariant_core,
    parse_generator_string,
)
from chainshadow.cli import _dumps, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# The arguments each command needs besides its system source.
COMMAND_ARGS = {
    "analyze": ("--delta", "1"),
    "shadow": ("--delta", "1", "--eps", "1"),
    "ladder": ("--deltas", "1"),
    "verify": (),
}

# Malformed generator shorthands. None names a system of more than 64
# points; sizes past the generators' cap are refused before any build.
MALFORMED_GENS = [
    # unknown or empty names
    "", " ", "Rotation:4:1", "rotat:4:1", "far-two-cycles", "rotation 4 1",
    # wrong arity
    "rotation", "rotation:4", "rotation:4:1:1", "north-south", "north-south:6:1",
    "parallel-cycles:1", "tent:4:4", "cantor-identity",
    # non-integer params
    "rotation:x:1", "rotation:4:y", "rotation:4.5:1", "rotation:4:1/2", "tent:1e2",
    "doubling:0x10", "cantor-identity:two", "north-south:6.0", "tent:",
    # params are ASCII digits with an optional sign: no other digits,
    # padding or underscores
    "rotation:\u0664:1", "rotation: 4 :1", "rotation:4_0:1", "tent:1_6",
    "rotation:\uff14:1", "rotation:4\n:1", "rotation:+-4:1", "rotation:-:1",
    "rotation:+:1",
    # out-of-range params
    "rotation:0:1", "rotation:-4:1", "rotation:4097:1", "north-south:2",
    "north-south:99999", "tent:0", "doubling:-1", "cantor-identity:-1",
    "cantor-identity:99",
    # stray colons
    ":", "::", ":rotation:4:1", "rotation::4:1", "rotation:4::1", "rotation:4:1:",
    "parallel-cycles:", "north-south:6:",
]


class TestMalformedGenerators:
    @pytest.mark.parametrize("command", sorted(COMMAND_ARGS))
    @pytest.mark.parametrize("spec", MALFORMED_GENS, ids=repr)
    def test_exits_2_with_a_message(self, capsys, command, spec):
        code, out, err = run_cli(capsys, command, "--gen", spec, *COMMAND_ARGS[command])
        assert code == 2 and out == ""
        assert err.startswith("error:")
        assert "Traceback" not in err


def _two_points(dist=(("0", "1"), ("1", "0")), fmap=(1, 0), n=2):
    return {"n": n, "dist": [list(row) for row in dist], "map": list(fmap)}


# Malformed explicit files, one fault each, on a two-point system.
MALFORMED_FILES = [
    _two_points(dist=((0, 0.5), (0.5, 0))),  # float entry
    _two_points(dist=((0, True), (True, 0))),  # bool entry
    _two_points(dist=(("0", "1"), (True, "0"))),  # bool beside an equal string
    _two_points(dist=((0, [1]), ([1], 0))),  # nested list
    _two_points(dist=((0, None), (None, 0))),  # null
    _two_points(dist=(("0", "1/0"), ("1/0", "0"))),
    _two_points(dist=(("0", "1e99999"), ("1e99999", "0"))),
    _two_points(dist=(("0", "1"), ("1",))),  # ragged row
    _two_points(fmap=(1, 2)),  # map index out of range
    _two_points(fmap=(1, -1)),
    _two_points(n="2"),  # n not an int
    _two_points(n=None),
]


# Files with a key missing or unknown, and the message that names the keys.
KEY_FAULTS = [
    ({"n": 2, "dist": [[0, 1], [1, 0]]}, "system spec missing keys: ['map']"),
    ({"n": 2, "map": [1, 0]}, "system spec missing keys: ['dist']"),
    ({"map": [1, 0]}, "system spec missing keys: ['dist', 'n']"),
    ({"generator": "rotation", "params": {"n": 4}}, "rotation: missing params ['k']"),
    ({"generator": "tent", "params": {}}, "tent: missing params ['cells']"),
    ({"generator": "rotation", "params": {"n": 4, "k": 1, "m": 2}},
     "rotation: unknown params ['m']"),
    ({"generator": "parallel-cycles", "params": {"n": 5}}, "parallel-cycles: unknown params ['n']"),
]


class TestMalformedFiles:
    @pytest.mark.parametrize("command", ["analyze", "shadow", "verify"])
    @pytest.mark.parametrize("spec", MALFORMED_FILES, ids=json.dumps)
    def test_exits_2_with_a_message(self, capsys, tmp_path, command, spec):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(spec))
        code, out, err = run_cli(capsys, command, "--file", str(bad), *COMMAND_ARGS[command])
        assert code == 2 and out == ""
        assert err.startswith("error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["analyze", "shadow", "verify"])
    @pytest.mark.parametrize(
        "spec, message", KEY_FAULTS, ids=[json.dumps(spec) for spec, _ in KEY_FAULTS]
    )
    def test_exits_2_naming_the_keys(self, capsys, tmp_path, command, spec, message):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(spec))
        code, out, err = run_cli(capsys, command, "--file", str(bad), *COMMAND_ARGS[command])
        assert (code, out, err) == (2, "", f"error: {message}\n")


class TestAnalyze:
    def test_north_south_two_classes(self, capsys):
        code, out, _ = run_cli(
            capsys, "analyze", "--gen", "north-south:8", "--delta", "1/10"
        )
        assert code == 0
        report = json.loads(out)
        assert report["cr_size"] == 2
        flags = {(c["initial"], c["terminal"]) for c in report["classes"]}
        assert flags == {(True, False), (False, True)}

    def test_rotation_single_class(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--gen", "rotation:4:1", "--delta", "0")
        assert code == 0
        report = json.loads(out)
        assert len(report["classes"]) == 1
        assert report["classes"][0]["points"] == [0, 1, 2, 3]

    def test_invalid_file_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps(
                {"n": 3, "dist": [[0, 1, 5], [1, 0, 1], [5, 1, 0]], "map": [0, 1, 2]}
            )
        )
        code, _, err = run_cli(capsys, "analyze", "--file", str(bad), "--delta", "1")
        assert code == 2
        assert "triangle" in err

    @pytest.mark.parametrize("bits, code", [(1024, 0), (1025, 2)])
    def test_common_denominator_width_limit(self, capsys, tmp_path, bits, code):
        d = f"1/{2 ** (bits - 1)}"
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(_two_points(dist=(("0", d), (d, "0")))))
        got, out, err = run_cli(capsys, "analyze", "--file", str(path), "--delta", "0")
        assert got == code
        if code:
            assert out == "" and "wider than 1024 bits" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "spec",
        [
            {"n": 1, "dist": 5, "map": [0]},
            {"n": 1, "dist": [5], "map": [0]},
            {"n": 1, "dist": ["0"], "map": [0]},
            {"n": 1, "dist": [[0]], "map": 5},
            {"n": 1, "dist": [[0]], "map": [0], "invertible": "no"},
            {"generator": "rotation", "params": 5},
            {"generator": ["rotation"], "params": [4, 1]},
            {"n": True, "dist": [[0]], "map": [0]},
            {"n": 1.0, "dist": [[0]], "map": [0]},
            {"generator": "rotation", "params": ["4_0", 1]},
            # one class: no distance is printed, so the parse is what fails
            {"n": 2, "dist": [[0, "1e4301"], ["1e4301", 0]], "map": [1, 0]},
            # a misspelled key, and a table beside a generator
            {"n": 2, "dist": [[0, 1], [1, 0]], "map": [1, 0], "invertable": True},
            {"generator": "rotation", "params": [2, 1], "dist": [[0, 1], [1, 0]]},
        ],
    )
    def test_malformed_file_exits_2(self, capsys, tmp_path, spec):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(spec))
        code, _, err = run_cli(capsys, "analyze", "--file", str(bad), "--delta", "1")
        assert code == 2
        assert err.startswith("error:")

    def test_file_that_is_not_json_exits_2(self, capsys, tmp_path):
        empty = tmp_path / "empty.json"
        empty.write_text("")
        code, out, err = run_cli(capsys, "analyze", "--file", str(empty), "--delta", "1")
        assert code == 2 and out == ""
        assert err == (
            "error: system description is not JSON: Expecting value: line 1 column 1 (char 0)\n"
        )

    def test_missing_file_exits_2(self, capsys, tmp_path):
        missing = tmp_path / "missing.json"
        code, out, err = run_cli(capsys, "analyze", "--file", str(missing), "--delta", "1")
        assert code == 2 and out == ""
        assert err == f"error: [Errno 2] No such file or directory: {str(missing)!r}\n"

    def test_file_that_is_not_utf8_exits_2(self, capsys, tmp_path):
        latin = tmp_path / "latin.json"
        latin.write_bytes(b"\xff{}")
        code, out, err = run_cli(capsys, "analyze", "--file", str(latin), "--delta", "1")
        assert code == 2 and out == ""
        assert err == (
            "error: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n"
        )

    @pytest.mark.parametrize(
        "delta, table",
        [
            (
                "1/8",
                "delta: 1/8\n"
                "chain recurrent points: 2\n"
                "classes: 2\n"
                "  C0: points=[0] flags=initial sep=1/2\n"
                "  C1: points=[4] flags=terminal sep=1/2\n"
                "  C1 <= C0\n",
            ),
            (
                "1/2",
                "delta: 1/2\n"
                "chain recurrent points: 8\n"
                "classes: 1\n"
                "  C0: points=[0, 1, 2, 3, 4, 5, 6, 7] flags=terminal,initial sep=-\n",
            ),
        ],
    )
    def test_table_format(self, capsys, delta, table):
        code, out, err = run_cli(
            capsys, "analyze", "--gen", "north-south:8", "--delta", delta, "--format", "table"
        )
        assert (code, out, err) == (0, table, "")

    def test_deeply_nested_file_exits_2(self, capsys, tmp_path):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 2000 + "]" * 2000)
        code, out, err = run_cli(capsys, "analyze", "--file", str(deep), "--delta", "1")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("delta", ["1e4301", "1E-4301"])
    def test_huge_exponent_delta_exits_2(self, capsys, delta):
        code, out, err = run_cli(capsys, "analyze", "--gen", "rotation:4:1", "--delta", delta)
        assert code == 2 and out == ""
        assert "exponent" in err

    @pytest.mark.parametrize("delta", ["1e4300", "1e-4300", "12345e4296"])
    def test_delta_past_4300_digits_exits_2(self, capsys, delta):
        code, out, err = run_cli(capsys, "analyze", "--gen", "rotation:4:1", "--delta", delta)
        assert code == 2 and out == ""
        assert "argument --delta" in err and "exceeds 4300 digits" in err

    @pytest.mark.parametrize("command", sorted(COMMAND_ARGS))
    def test_empty_generator_exits_2(self, capsys, command):
        code, out, err = run_cli(capsys, command, "--gen", "", *COMMAND_ARGS[command])
        assert code == 2 and out == ""
        assert err.startswith("error: unknown generator ''")

    def test_too_many_points_exits_2(self, capsys, tmp_path):
        rows = 4097
        row = [0]
        big = tmp_path / "big.json"
        big.write_text(json.dumps({"n": rows, "dist": [row] * rows, "map": [0] * rows}))
        code, out, err = run_cli(capsys, "analyze", "--file", str(big), "--delta", "1")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "4096" in err
        assert "Traceback" not in err

    def test_missing_source_is_usage_error(self, capsys):
        assert main(["analyze", "--delta", "1"]) == 2

    def test_dot_format(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "analyze", "--gen", "north-south:6", "--delta", "1/24", "--format", "dot",
        )
        assert code == 0
        assert out.startswith("digraph") and "C0 -> C1;" in out

    def test_unknown_generator_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "--gen", "far-or-not", "--delta", "1")
        assert code == 2 and "unknown generator" in err

    def test_explicit_file_round_trip(self, capsys, tmp_path):
        from chainshadow import rotation

        spec = tmp_path / "rot.json"
        spec.write_text(json.dumps(rotation(4, 1).to_spec()))
        code, out, _ = run_cli(capsys, "analyze", "--file", str(spec), "--delta", "0")
        assert code == 0 and json.loads(out)["cr_size"] == 4

    def test_generator_file_form(self, capsys, tmp_path):
        spec = tmp_path / "gen.json"
        spec.write_text(json.dumps({"generator": "rotation", "params": {"n": 4, "k": 1}}))
        code, out, _ = run_cli(capsys, "analyze", "--file", str(spec), "--delta", "0")
        assert code == 0 and json.loads(out)["cr_size"] == 4


class TestShadow:
    def test_slimit_failure_exit_1(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "shadow", "--gen", "parallel-cycles", "--property", "slimit",
            "--delta", "1", "--eps", "1",
        )
        assert code == 1
        verdict = json.loads(out)
        assert verdict["pass"] is False
        assert verdict["witness"]["points"] == [0, 4]
        assert verdict["witness"]["tail_start"] == 1

    def test_cantor_slimit_passes(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "shadow", "--gen", "cantor-identity:2", "--property", "slimit",
            "--delta", "1/20", "--eps", "1/20",
        )
        assert code == 0 and json.loads(out)["pass"] is True

    def test_global_sink_big_eps(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "shadow", "--gen", "north-south:6", "--delta", "1/2", "--eps", "1/2",
        )
        assert code == 0 and json.loads(out)["pass"] is True

    def test_table_format(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "shadow", "--gen", "parallel-cycles", "--property", "slimit",
            "--delta", "1", "--eps", "1", "--format", "table",
        )
        assert code == 1
        assert "pass: no" in out and "witness" in out

    def test_workers_option_is_gone(self):
        proc = subprocess.run(
            [sys.executable, "-m", "chainshadow.cli", "shadow",
             "--gen", "parallel-cycles", "--delta", "1", "--eps", "1", "--workers", "2"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2
        assert "usage:" in proc.stderr and "--workers" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_negative_rational_rejected(self, capsys):
        assert main(
            ["shadow", "--gen", "parallel-cycles", "--delta", "-1", "--eps", "1"]
        ) == 2


class TestLadder:
    def test_cantor_counts(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "ladder", "--gen", "cantor-identity:2", "--deltas", "1,1/4,1/20",
        )
        assert code == 0
        report = json.loads(out)
        assert [level["class_count"] for level in report["levels"]] == [1, 2, 4]
        assert report["functional_threshold"] == "2/9"
        assert report["stabilized_at_level"] == 2

    def test_not_decreasing_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys, "ladder", "--gen", "cantor-identity:2", "--deltas", "1/4,1"
        )
        assert code == 2 and "decrease" in err

    def test_not_decreasing_prints_exact_deltas(self, capsys):
        code, out, err = run_cli(
            capsys, "ladder", "--gen", "north-south:16", "--deltas", "1/2,1/2"
        )
        assert code == 2 and out == ""
        assert "deltas must strictly decrease, got 1/2, 1/2" in err
        assert "Fraction(" not in err

    @pytest.mark.parametrize(
        "gen, deltas, table",
        [
            (
                "north-south:8",
                "1/2,1/8,1/64",
                "deltas: 1/2, 1/8, 1/64\n"
                "  delta=1/2: 1 classes, 8 recurrent points\n"
                "  delta=1/8: 2 classes, 2 recurrent points\n"
                "  delta=1/64: 2 classes, 2 recurrent points\n"
                "functional threshold: 1/32\n"
                "stabilized at level: 2\n",
            ),
            (
                "north-south:8",
                "1/2,1/8",
                "deltas: 1/2, 1/8\n"
                "  delta=1/2: 1 classes, 8 recurrent points\n"
                "  delta=1/8: 2 classes, 2 recurrent points\n"
                "functional threshold: 1/32\n"
                "stabilized at level: never\n",
            ),
            (
                "rotation:1:0",
                "1,0",
                "deltas: 1, 0\n"
                "  delta=1: 1 classes, 1 recurrent points\n"
                "  delta=0: 1 classes, 1 recurrent points\n"
                "functional threshold: -\n"
                "stabilized at level: 0\n",
            ),
        ],
    )
    def test_table_format(self, capsys, gen, deltas, table):
        code, out, err = run_cli(
            capsys, "ladder", "--gen", gen, "--deltas", deltas, "--format", "table"
        )
        assert (code, out, err) == (0, table, "")

    def test_single_delta(self, capsys):
        code, out, _ = run_cli(
            capsys, "ladder", "--gen", "rotation:4:1", "--deltas", "1"
        )
        assert code == 0 and len(json.loads(out)["levels"]) == 1


class TestVerify:
    def test_parallel_cycles_exit_0(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--gen", "parallel-cycles")
        assert code == 0
        report = json.loads(out)
        assert report["nonvacuous_failures"] == 0
        statuses = {r["status"] for e in report["entries"] for r in e["results"]}
        assert "vacuous" in statuses  # the slimit-failing entries report vacuity

    def test_explicit_grid(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify", "--gen", "cantor-identity:2", "--deltas", "1/4,1/20",
            "--eps", "1/20",
        )
        assert code == 0
        report = json.loads(out)
        assert [e["delta_fine"] for e in report["entries"]] == ["1/4", "1/20"]
        assert all(e["delta_coarse"] == "1/4" for e in report["entries"])

    @pytest.mark.parametrize(
        "deltas, got",
        [("1/2,1/4,1/3", "1/2, 1/4, 1/3"), ("1/4,1/2", "1/4, 1/2"), ("1/4,1/4", "1/4, 1/4")],
    )
    def test_deltas_must_strictly_decrease(self, capsys, deltas, got):
        """As for ``ladder``: a list that does not strictly decrease exits 2
        with the exact deltas, before any search runs."""
        code, out, err = run_cli(capsys, "verify", "--gen", "north-south:8", "--deltas", deltas)
        assert code == 2 and out == ""
        assert err == f"error: deltas must strictly decrease, got {got}\n"

    def test_corpus_only_member_is_not_a_generator(self, capsys):
        code, _, err = run_cli(
            capsys, "verify", "--gen", "far-two-cycles", "--format", "table"
        )
        assert code == 2 and "unknown generator" in err

    def test_verify_table_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--gen", "rotation:4:1", "--format", "table"
        )
        assert code == 0 and "nonvacuous failures: 0" in out

    def test_eps_without_deltas_keeps_the_default_grid(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", "--gen", "rotation:2:1", "--eps", "1/4", "--format", "table"
        )
        assert (code, err) == (0, "")
        assert out == (
            "system: rotation:2:1\n"
            "  [dc=1/2 df=1/4 eps=1/4] slimit_implies_shadowing: holds\n"
            "  [dc=1/2 df=1/4 eps=1/4] shadowing_class_denseness: holds\n"
            "  [dc=1/2 df=1/4 eps=1/4] initial_classes_shadow: holds\n"
            "  [dc=1/2 df=1/4 eps=1/4] isolated_classes_shadow: holds\n"
            "  [dc=1/2 df=1/2 eps=1/4] slimit_implies_shadowing: holds\n"
            "  [dc=1/2 df=1/2 eps=1/4] shadowing_class_denseness: vacuous\n"
            "  [dc=1/2 df=1/2 eps=1/4] initial_classes_shadow: vacuous\n"
            "  [dc=1/2 df=1/2 eps=1/4] isolated_classes_shadow: vacuous\n"
            "nonvacuous failures: 0\n"
        )

    def test_a_coarse_class_of_empty_cores_fails_with_no_witness(self, capsys):
        """Under a passing slimit check every nonempty fine core shadows, so
        a denseness failure comes from structure alone. On north-south:8 at
        coarse delta 7/32, coarse classes 1 ({2}) and 3 ({6}) each hold one
        fine class, whose invariant core is empty; at both fine deltas they
        have no certifier, and the run exits 1 with no witness."""
        code, out, err = run_cli(
            capsys, "verify", "--gen", "north-south:8", "--deltas", "7/32,3/16", "--eps", "1/2"
        )
        report = json.loads(out)
        assert (code, err, report["nonvacuous_failures"]) == (1, "", 2)
        system = parse_generator_string("north-south:8")
        for entry in report["entries"]:
            failed = [r for r in entry["results"] if r["status"] == "fails"]
            assert [r["theorem"] for r in failed] == ["shadowing_class_denseness"]
            assert failed[0]["witnesses"] == []
            coarse = failed[0]["details"]["coarse_classes"]
            uncertified = [c for c in coarse if c["certifier"] is None]
            assert [c["coarse"] for c in uncertified] == [1, 3]
            fine = decompose(build_delta_graph(system, Fraction(entry["delta_fine"])))
            for c in uncertified:
                assert c["degenerate"] == c["fine_classes"] != []
                assert not any(invariant_core(system, fine.classes[j]) for j in c["fine_classes"])

    def test_harness_state_cap_exit_3(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", "--gen", "rotation:6:2", "--state-cap", "5"
        )
        assert code == 3 and out == ""
        assert err == "inconclusive: state cap 5 exceeded after 6 states\n"


# Generator systems whose explicit tables must run as the generators do.
FILE_GENS = ["north-south:64", "cantor-identity:7", "rotation:96:89", "tent:64"]

# One run per command, given the system's four least positive distances.
FILE_RUNS = {
    "analyze": lambda v: ("analyze", "--delta", v[0]),
    "shadowing": lambda v: ("shadow", "--property", "shadowing", "--delta", v[0], "--eps", v[1]),
    "slimit": lambda v: ("shadow", "--property", "slimit", "--delta", v[0], "--eps", v[1]),
    "ladder": lambda v: ("ladder", "--deltas", f"{v[2]},{v[1]},{v[0]},0"),
    "verify": lambda v: ("verify", "--deltas", f"{v[3]},{v[1]},{v[0]}"),
}


class TestFileMatchesGenerator:
    """A ``--file`` run on a generator's ``to_spec()`` table, which is read
    and searched as an explicit table, matches the ``--gen`` run on the
    generator's positions byte for byte: exit code, stdout and stderr.
    Only a harness report differs, in the name of its system."""

    @pytest.mark.parametrize("run", sorted(FILE_RUNS))
    @pytest.mark.parametrize("name", FILE_GENS)
    def test_file_run_matches_gen_run(self, capsys, tmp_path, name, run):
        system = parse_generator_string(name)
        path = tmp_path / "system.json"
        path.write_text(json.dumps(system.to_spec()))
        command, *args = FILE_RUNS[run](list(map(format_rational, system.distance_values)))
        by_gen = run_cli(capsys, command, "--gen", name, *args)
        by_file = run_cli(capsys, command, "--file", str(path), *args)
        if command == "verify":
            runs = (by_gen, by_file)
            reports = [json.loads(out) for _, out, _ in runs]
            assert [report.pop("system") for report in reports] == [name, str(path)]
            by_gen, by_file = [(code, rep, err) for (code, _, err), rep in zip(runs, reports)]
        assert by_gen[1] and by_gen == by_file


class TestPlumbing:
    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys,
            "analyze", "--gen", "rotation:4:1", "--delta", "0", "--out", str(target),
        )
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["cr_size"] == 4

    def test_quantization_warning(self, capsys, tmp_path):
        """The warning holds for the generator and for its explicit file,
        which carries the quantization."""
        from chainshadow import doubling

        spec = tmp_path / "doubling8.json"
        spec.write_text(json.dumps(doubling(8).to_spec()))
        for source in (["--gen", "doubling:8"], ["--file", str(spec)]):
            _, _, err = run_cli(capsys, "analyze", *source, "--delta", "1/100")
            assert "quantization" in err

    def test_state_cap_exit_3(self, capsys):
        code, _, err = run_cli(
            capsys,
            "shadow", "--gen", "parallel-cycles", "--delta", "1", "--eps", "1",
            "--state-cap", "2",
        )
        assert code == 3 and "inconclusive" in err

    # Plain ASCII digits only, as for generator params: int() would read
    # these as 5, 10 and 7.
    @pytest.mark.parametrize("cap", ["\u0665", "1_0", " 7 "], ids=repr)
    def test_state_cap_is_ascii_digits(self, capsys, cap):
        code, out, err = run_cli(
            capsys,
            "shadow", "--gen", "parallel-cycles", "--delta", "1", "--eps", "1",
            "--state-cap", cap,
        )
        assert code == 2 and out == ""
        assert "--state-cap" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "cap, message",
        [
            ("0", "state cap out of range: 0 is not an integer >= 1"),
            ("-5", "state cap out of range: -5 is not an integer >= 1"),
            ("-0", "state cap out of range: 0 is not an integer >= 1"),
            ("+-5", "state cap: expected an integer of at most 4300 digits, got '+-5'"),
        ],
    )
    def test_state_cap_below_one_is_refused(self, capsys, cap, message):
        code, out, err = run_cli(
            capsys,
            "shadow", "--gen", "parallel-cycles", "--delta", "1", "--eps", "1",
            "--state-cap", cap,
        )
        assert code == 2 and out == ""
        assert err.endswith(f"error: argument --state-cap: {message}\n")

    def test_console_script_subprocess(self):
        proc = subprocess.run(
            [sys.executable, "-m", "chainshadow.cli", "analyze",
             "--gen", "parallel-cycles", "--delta", "1/2"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["cr_size"] == 4

    def test_python_dash_m_package(self, tmp_path):
        """``python -m chainshadow`` runs the same command line as ``main``."""
        ran, called = tmp_path / "ran.json", tmp_path / "called.json"
        proc = subprocess.run(
            [sys.executable, "-m", "chainshadow", "verify",
             "--gen", "parallel-cycles", "--out", str(ran)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert main(["verify", "--gen", "parallel-cycles", "--out", str(called)]) == 0
        assert ran.read_bytes() == called.read_bytes()

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0


# json escapes the quote, the backslash and every character outside
# " ".."~": controls, DEL, non-ASCII, astral and lone surrogates. It leaves
# "/" as it is.
_SPECIAL = '"\\/\x00\x08\t\n\x1f\x7f\x80\u00e9\u2028\ud800\udfff\U0001f600'
_TEXT = st.text(st.one_of(st.characters(blacklist_categories=()), st.sampled_from(_SPECIAL)))
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(2**300), 2**300),
    _TEXT,
)
_VALUES = st.recursive(
    _SCALARS,
    lambda children: st.one_of(
        st.lists(children),
        st.lists(children).map(tuple),
        st.lists(st.one_of(st.integers(), st.booleans())),
        st.dictionaries(_TEXT, children),
    ),
    max_leaves=30,
)


class _Text(str):
    pass


class _Int(int):
    pass


def _circular():
    loop = [1]
    loop.append(loop)
    return loop


class TestReportWriter:
    """``_dumps`` writes ``json.dumps(value, indent=2)`` and a newline."""

    @given(_VALUES)
    @settings(max_examples=200)
    def test_matches_json(self, value):
        assert _dumps(value) == json.dumps(value, indent=2) + "\n"

    @pytest.mark.parametrize(
        "value",
        [
            1.5,
            [1, 2.5],
            {"a": [float("nan")]},
            {1: "a"},
            {True: 1, "b": 2},
            {None: 0},
            {(1, 2): 3},
            {"a": _Text("b")},
            [_Text("x"), 1],
            {_Text("k"): 1},
            [1, _Int(2)],
            {"a": {1, 2}},
            [object()],
            _circular(),
            [10**5000],
        ],
        ids=[
            "float", "float-in-ints", "nan", "int-key", "bool-key", "none-key", "tuple-key",
            "str-subclass", "str-subclass-in-list", "str-subclass-key", "int-subclass",
            "set", "object", "circular", "int-past-the-digit-limit",
        ],
    )
    def test_other_values_take_json(self, value):
        """A value of another type sends the whole object to json, so the
        bytes, or the exception, are json's."""
        try:
            expected = json.dumps(value, indent=2) + "\n"
        except Exception as exc:
            with pytest.raises(type(exc)) as caught:
                _dumps(value)
            assert str(caught.value) == str(exc)
        else:
            assert _dumps(value) == expected
