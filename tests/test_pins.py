"""The pinned runs of ``pins.py`` without an RSS bound, and three generated
system files run within their timeouts."""

from __future__ import annotations

import json
import random
from decimal import Decimal
from fractions import Fraction

import pytest

from chainshadow import rotation
from pins import EMPTY, PINS, Pin, check, run


@pytest.mark.parametrize("pin", [p for p in PINS if p.rss_kb is None], ids=lambda p: p.argv)
def test_pinned_run(pin):
    assert check(pin) == []


def test_a_512_point_file_loads_and_a_stretched_copy_exits_2(tmp_path):
    """It reports as ``--gen rotation:512:1`` does; a copy with one pair
    stretched to 3 times the diameter exits 2 with a triangle violation."""
    system = rotation(512, 1)
    spec = system.to_spec()
    (tmp_path / "rot512.json").write_text(json.dumps(spec))
    spec["dist"][1][300] = spec["dist"][300][1] = str(3 * system.diameter)
    (tmp_path / "bad.json").write_text(json.dumps(spec))
    good = Pin("analyze --file rot512.json --delta 1/512", 0,
               "441207bb4470f14a24e972537c83209a2fd09a17a1d04e1a1a1a54718234993c", timeout=120)
    bad = Pin("analyze --file bad.json --delta 1/512", 2, EMPTY, "triangle", timeout=120)
    assert check(good, tmp_path) == check(bad, tmp_path) == []


def mixed_l1_spec(seed: int, n: int) -> dict:
    """n distinct plane points with coordinates over 1, 2, 3, 4, 5 or 8 under
    the L1 metric, and a random map. Each entry is spelled on its own, at
    random: "p/q", the same padded with whitespace, an int when whole and a
    decimal when it terminates, so d(i, j) and d(j, i) may be spelled apart."""
    rng, denominators = random.Random(seed), (1, 2, 3, 4, 5, 8)
    points: set = set()
    while len(points) < n:
        points.add(tuple(Fraction(rng.randrange(100), rng.choice(denominators)) for _ in "xy"))
    ordered = sorted(points)

    def spell(d: Fraction):
        forms = [str(d), f" {d}\t"]
        if d.denominator == 1:
            forms.append(d.numerator)
        if 10**3 % d.denominator == 0:
            forms.append(str(Decimal(d.numerator) / d.denominator))
        return rng.choice(forms)

    dist = [[spell(abs(a[0] - b[0]) + abs(a[1] - b[1])) for b in ordered] for a in ordered]
    return {"n": n, "dist": dist, "map": [rng.randrange(n) for _ in range(n)]}


def test_a_96_point_file_of_mixed_spellings_loads_and_a_stretched_copy_exits_2(tmp_path):
    """Its report is the one recorded when every entry was read through a
    Fraction; a copy with one pair stretched to 3 times the diameter exits 2
    with a triangle violation."""
    spec = mixed_l1_spec(96, 96)
    (tmp_path / "l1mixed96.json").write_text(json.dumps(spec))
    diameter = max(Fraction(str(v)) for row in spec["dist"] for v in row)
    spec["dist"][1][50] = spec["dist"][50][1] = str(3 * diameter)
    (tmp_path / "bad.json").write_text(json.dumps(spec))
    good = Pin("analyze --file l1mixed96.json --delta 1", 0,
               "f12e41d1b6dad209759ae47b6b7d9a26d12e34d63821cf41ae32367962415743")
    bad = Pin("analyze --file bad.json --delta 1", 2, EMPTY, "triangle")
    assert check(good, tmp_path) == check(bad, tmp_path) == []


def plain_l1_spec(seed: int, n: int) -> dict:
    """n distinct plane points with coordinates over 1 to 8 under the L1
    metric, and a random map. Each entry is a plain "p/q" text (a whole
    number as "p/1"), and about one in three is written unreduced, p and q
    both times 2 or 3; d(i, j) and d(j, i) are spelled on their own."""
    rng = random.Random(seed)
    points: set = set()
    while len(points) < n:
        points.add(tuple(Fraction(rng.randrange(100), rng.randrange(1, 9)) for _ in "xy"))
    ordered = sorted(points)

    def spell(d: Fraction) -> str:
        k = rng.choice((1, 1, 1, 1, 2, 3))
        return f"{k * d.numerator}/{k * d.denominator}"

    dist = [[spell(abs(a[0] - b[0]) + abs(a[1] - b[1])) for b in ordered] for a in ordered]
    return {"n": n, "dist": dist, "map": [rng.randrange(n) for _ in range(n)]}


def test_padded_entries_of_a_128_point_file_report_as_plain_ones(tmp_path):
    """A file of plain texts and a copy with every entry padded as " p/q ",
    which reads each entry on its own, give byte-equal reports, and their
    stretched copies byte-equal errors."""
    spec = plain_l1_spec(128, 128)
    padded = {**spec, "dist": [[f" {v} " for v in row] for row in spec["dist"]]}
    runs = []
    # Every distance is under 200, so 1000 is longer than any two-step path.
    for name, base, far in (("plain", spec, "1000/1"), ("padded", padded, " 1000/1 ")):
        stretched = {**base, "dist": [list(row) for row in base["dist"]]}
        stretched["dist"][3][70] = stretched["dist"][70][3] = far
        (tmp_path / name).mkdir()
        (tmp_path / name / "l1.json").write_text(json.dumps(base))
        (tmp_path / name / "bad.json").write_text(json.dumps(stretched))
        runs.append([
            run(args, 60, tmp_path / name)[:3]
            for args in (
                "analyze --file l1.json --delta 1",
                "ladder --file l1.json --deltas 2,1,1/2",
                "analyze --file bad.json --delta 1",
            )
        ])
    assert runs[0] == runs[1]
    (code, report, _), (ladder_code, ladder, _), (bad_code, _, error) = runs[0]
    assert (code, ladder_code, bad_code) == (0, 0, 2)
    assert report and ladder and "triangle" in error


def test_a_table_wider_than_1024_bits_is_refused_within_10_s(tmp_path):
    """64 points with one ~40-bit denominator per pair: refused before the
    axioms are checked, with a message and no traceback."""
    n = 64
    dist = [["0"] * n for _ in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(i)]
    for q, (i, j) in enumerate(pairs, start=2**40):
        dist[i][j] = dist[j][i] = str(1 + Fraction(1, q))
    spec = {"n": n, "dist": dist, "map": list(range(n))}
    (tmp_path / "wide64.json").write_text(json.dumps(spec))
    code, out, err, _ = run("analyze --file wide64.json --delta 0", 10, tmp_path)
    assert (code, out) == (2, b"")
    assert err == "error: the distances' least common denominator is wider than 1024 bits\n"
