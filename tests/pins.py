"""Pinned command-line runs: each row is one ``python -m chainshadow`` call
with its exit code, stdout sha256, a text its stderr must hold, a timeout in
seconds and, on some rows, a peak-RSS bound in KB (``ru_maxrss`` on Linux).

``test_pins.py`` runs the rows without an RSS bound in tier-1, and ``python
tests/pins.py`` runs them all; it exits 1 if any row differs. A change that
means to change a report records the digest its failing row prints, and
names the change in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

SRC = Path(__file__).resolve().parent.parent / "src"
EMPTY = hashlib.sha256(b"").hexdigest()
CAPPED = "state cap 100000 exceeded after 100001 states"


class Pin(NamedTuple):
    argv: str
    code: int
    sha256: str
    stderr: str = ""
    timeout: float = 60
    rss_kb: int | None = None


PINS = [
    # The two largest harness inputs, each under a second per report.
    Pin("verify --gen north-south:128", 0,
        "308cda9a57c693d3314a9a08fb766c995b968539f9c51b3894d20c1d57d2f6e0"),
    Pin("verify --gen cantor-identity:8", 0,
        "77bf26cf20f277539202124ef4c770d2fe2e60c5720d87e255abd2de487844f1"),
    # The harness's delta = eps on a many-to-one map reads one ball radius.
    Pin("verify --gen doubling:1024", 0,
        "2681096f275688d35a3d1bd6c03222ce7e5f22ea7987bd7a6c403a416e948c75", timeout=120),
    # Balls read off the sorted positions, and no table built: 1.5 x the
    # 32,000 KB read then.
    Pin("verify --gen cantor-identity:10", 0,
        "5a78e557354c29453bd7b408c5d1de34f175cda86592a370810d5cfd7fd83ab4", rss_kb=48000),
    # Radius 1/32 is the eps table of every search and the delta table of one;
    # in the second run every delta is below eps.
    Pin("verify --gen tent:64 --deltas 1/16,1/32 --eps 1/32", 0,
        "aa61231506dae94feeaf4441c67e9484ea44f22175aa5621c9a52f3176ef8dcf"),
    Pin("verify --gen tent:64 --deltas 1/32,1/64 --eps 1/16", 0,
        "d889da79cbfd993e9febc62bbefc28302a11cea9341880ee54096d44a829c4c2"),
    # The cap at the boundary of the level where the harness's joint search
    # first fails: c - 1 stops it, c lets the run finish. The public check
    # still counts that level in full.
    Pin("verify --gen north-south:64 --state-cap 11654", 3, EMPTY,
        "inconclusive: state cap 11654 exceeded after 11655 states"),
    Pin("verify --gen north-south:64 --state-cap 11655", 0,
        "eeb5f013ba3b0a14a2755ed63a3c38d1f4ca2931312d050910bea0e1e66c8aa1"),
    Pin("verify --gen cantor-identity:7 --state-cap 2427", 3, EMPTY,
        "inconclusive: state cap 2427 exceeded after 2428 states"),
    Pin("verify --gen cantor-identity:7 --state-cap 2428", 0,
        "1db71de400ab8d4babdcc9a69e6d70e1694095c6cdd9cb88921a7db519290b58"),
    Pin("shadow --gen north-south:64 --delta 127/496 --eps 127/496", 1,
        "ce1efeb18fd894201ab1d5242e32cf0dcf29434fd63a5660416d31b62d70692f"),
    # A failing slimit check at delta != eps reads two radii.
    Pin("shadow --gen tent:256 --property slimit --delta 1/128 --eps 1/32", 1,
        "805cf4f62dae565b31386379df57ee3bd90f6e7c1b16603425c1bb1629bde5bc"),
    # One translation run per point, so images are read a byte at a time from a
    # memo kept with the system; no table is built: 1.5 x the 29,700 KB read then.
    Pin("shadow --gen doubling:2048 --property shadowing --delta 1/2048 --eps 1/16", 1,
        "014c73246e76efd5daad8a4e6432459cc08e45bb68bf3ddfceb54cfd0142fd49",
        timeout=120, rss_kb=44550),
    Pin("shadow --gen doubling:2048 --property slimit --delta 1/2048 --eps 1/16", 1,
        "337d285c43a7fe058e236e9396ee620133a48715f80ff000d72b65c8d1e512d4",
        timeout=120, rss_kb=44550),
    # The system lies inside every ball at eps 1/2, so the states are counted
    # a BFS level at a time, with no search and no merge set
    # ("states_explored": 262656): 1.25 x the 19,260 KB read then.
    Pin("shadow --gen north-south:1024 --property slimit --delta 1/8192 --eps 1/2", 0,
        "ee6bcccfec3ff02c26f285aff724bd0aac069dfc4dc198f97ce758a143b2b945", rss_kb=24075),
    # Just below 1/2 the source and the sink leave each other's balls, so the
    # search runs, and the sink's merge set (``_asymp_masks``) sweeps out to
    # 1,023 of the 1,024 points ("states_explored": 262656): 1.25 x the
    # 93,460 KB read then.
    Pin("shadow --gen north-south:1024 --property slimit --delta 1/8192 --eps 2047/4096", 0,
        "e8f11cb3b07f9ef92e91056ddd8ad1bdff63875cd7037ad58797b7c4ecb66585", timeout=10,
        rss_kb=116825),
    # The same count passes the default cap at its 1,000,001st state, as the
    # search does, in well under a second: 1.25 x the 20,592 KB read then.
    Pin("shadow --gen north-south:2048 --delta 1/8192 --eps 1/2", 3, EMPTY,
        "inconclusive: state cap 1000000 exceeded after 1000001 states", timeout=10,
        rss_kb=25740),
    # Successor rows are built as the search reaches them, so a search
    # stopped at the state cap in its first level builds few of them.
    Pin("shadow --gen north-south:2048 --property slimit --delta 1365/5456"
        " --eps 1365/5456 --state-cap 100000", 3, EMPTY, CAPPED, timeout=120),
    # The shift i -> i + 1 maps rotation by 89 onto itself, so both checks
    # search one state per orbit and rebuild the plain BFS's least witness.
    Pin("shadow --gen rotation:96:89 --property shadowing --delta 1/96 --eps 1/4", 1,
        "432a45af3cb2322958e2fc064cb26cbfdfb52d24d23b0e7271dffadb822d940a"),
    Pin("shadow --gen rotation:96:89 --property slimit --delta 1/96 --eps 1/4", 1,
        "5064c4d574bff1af910c828ef89c4bde5cc95f8f857548650cebd2aff7344fe0"),
    # The orbit search at the boundary of its stopping level (866 sets).
    Pin("shadow --gen rotation:96:89 --property shadowing --delta 1/96 --eps 1/4"
        " --state-cap 83135", 3, EMPTY, "inconclusive: state cap 83135 exceeded after 83136 states"),
    Pin("shadow --gen rotation:96:89 --property shadowing --delta 1/96 --eps 1/4"
        " --state-cap 83136", 1,
        "432a45af3cb2322958e2fc064cb26cbfdfb52d24d23b0e7271dffadb822d940a"),
    # One candidate set per n states, and no table: 1.5 x the 18,450 KB read then.
    Pin("shadow --gen rotation:1024:1 --property shadowing --delta 1/1024 --eps 1/8"
        " --state-cap 100000", 3, EMPTY, CAPPED, timeout=120, rss_kb=27675),
    # At the point cap the positioned generators build no table: successor
    # rows are slices of position order, and classes are apart by the gaps
    # between neighbours. 1.25 x the 19,524, 19,920 and 20,160 KB read then.
    Pin("analyze --gen rotation:4096:1 --delta 0", 0,
        "12b8c5b682b9b75ad5f0fd8311337996ecb3474b74b661297d9f71e2ce677acd",
        timeout=120, rss_kb=24405),
    Pin("analyze --gen tent:4096 --delta 0", 0,
        "5df6727f353e2780347c2a57fff13ec4b5d90f78d0825184f5c1b2fa74acc2f6",
        "warning: delta 0 is below the grid quantization bound 1/8192", timeout=120, rss_kb=24900),
    Pin("analyze --gen north-south:4096 --delta 0", 0,
        "d56b6b31d03ced21c5e3dbcd671e122d17fa9b1df251c4eab381ceec0c6287c8",
        timeout=120, rss_kb=25200),
    Pin("analyze --gen tent:32 --delta 1/32", 0,
        "eca52c74d585f97c10814501beee290da28203cd0f699847d7a734a242101ad7"),
    Pin("analyze --gen rotation:12:5 --delta 1/12", 0,
        "de90cfbc7634c099a91617249e388dd9cd32cc245af2c2b55b4397846f62de5a"),
    Pin("analyze --gen cantor-identity:4 --delta 1/81", 0,
        "dca8d1dd17d7c06d71b3592a247279d8b6aeaac6e1d150e006ec0d8ae53c322c"),
    Pin("ladder --gen north-south:16 --deltas 1/2,1/64", 0,
        "3f6d196c11f2c2fe3fbedb358be782491040390e9a9ea695f413867655842c91"),
    Pin("ladder --gen north-south:16 --deltas 1/2,1/64 --format table", 0,
        "7faaa01072d680374b721650edd901f1289980a771a75b62864d3f89a732c0c0"),
    # The bench ladder: levels of up to 382 classes, and two levels whose
    # graph equals the one before (2683/586752 and 383/97792, 1/768 and
    # 1/1536), which are decomposed once.
    Pin("ladder --gen north-south:384 --deltas 5369/293376,767/146688,2683/586752,"
        "383/97792,479/146688,767/293376,1/768,1/1536", 0,
        "3bf55927e92a32a02da67e374c875c556d1c24e79a82db518861b6c6fe90e286"),
    # 62 classes: the DOT edges ("C61 -> C31;") and the order lines
    # ("C61 <= C60") are read off the class masks of the component pass.
    Pin("analyze --gen north-south:64 --delta 127/7936 --format dot", 0,
        "9fc289c7eb39510e54c1ede538e433b8dfcd9faf60d41311ed8a56616a85ca46"),
    Pin("analyze --gen north-south:64 --delta 127/7936 --format table", 0,
        "92ebc12523f5a62cc73a2d56ed0e32056fb49396ba2264ed290af57ef6bebbeb"),
    # 380 classes and 36,289 order lines, read a run of class ids at a time.
    Pin("analyze --gen north-south:384 --delta 479/146688 --format table", 0,
        "e00393bf30644e398e713bd32fb1faed7e49dc9e39e49694dfe5b0a708d6e42d"),
    # The same report as JSON, 1.27 MB, written in one pass by ``cli._dumps``.
    Pin("analyze --gen north-south:384 --delta 479/146688", 0,
        "d6e21237590c5bc2ec4ebe20aba04c2488ec7154ac86db1ff906b74060bde22d"),
    # A rational of 4300 digits parses and prints (4301 would exit 2).
    Pin("analyze --gen rotation:4:1 --delta 1e4299", 0,
        "b8ea0b743a3156622fd7d93bbcec635b2a00ef0c903a0bbf717accbf7ad408d9"),
]


def run(args: str, timeout: float, cwd=None) -> tuple[int, bytes, str, int]:
    """Exit code, stdout, stderr and peak RSS in KB of ``python -m chainshadow
    args`` run in ``cwd`` on this checkout's ``src``; past ``timeout``
    seconds it is killed and subprocess.TimeoutExpired raised."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    argv = [sys.executable, "-m", "chainshadow", *args.split()]
    env = {**os.environ, "PYTHONPATH": path}
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=cwd, env=env)
        deadline = time.monotonic() + timeout
        # os.wait4, unlike proc.wait, returns the run's own resource usage.
        while not (ended := os.wait4(proc.pid, os.WNOHANG))[0]:
            if time.monotonic() > deadline:
                proc.kill()
                proc.returncode = os.waitstatus_to_exitcode(os.wait4(proc.pid, 0)[1])
                raise subprocess.TimeoutExpired(argv, timeout)
            time.sleep(0.01)
        proc.returncode = os.waitstatus_to_exitcode(ended[1])
        out.seek(0)
        err.seek(0)
        return proc.returncode, out.read(), err.read().decode(), ended[2].ru_maxrss


def check(pin: Pin, cwd=None) -> list[str]:
    """One line for each field of the row that its run does not match."""
    try:
        code, out, err, kb = run(pin.argv, pin.timeout, cwd)
    except subprocess.TimeoutExpired:
        return [f"no exit within {pin.timeout} s"]
    digest = hashlib.sha256(out).hexdigest()
    return [fault for differs, fault in [
        (code != pin.code, f"exit {code}, pinned {pin.code}"),
        (digest != pin.sha256, f"stdout sha256 {digest}, pinned {pin.sha256}"),
        (pin.stderr not in err, f"stderr lacks {pin.stderr!r}: {err[-500:]!r}"),
        (pin.rss_kb is not None and kb > pin.rss_kb, f"peak RSS {kb} KB, bound {pin.rss_kb} KB"),
    ] if differs]


def main() -> int:
    failed = 0
    for pin in PINS:
        start = time.monotonic()
        faults = check(pin)
        failed += bool(faults)
        line = f"{'FAIL' if faults else 'ok':4} {time.monotonic() - start:6.2f} s  {pin.argv}"
        print("\n     ".join([line, *faults]), flush=True)
    print(f"{len(PINS) - failed} of {len(PINS)} pinned runs match")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
