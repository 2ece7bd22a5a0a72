import math

import pytest

from shieldtiles.alpha import GENERIC, make_alpha
from shieldtiles.cli import main
from shieldtiles.errors import (
    AtlasViolation,
    EdgeMismatchError,
    OutOfRange,
    OverlapError,
    ShieldError,
)
from shieldtiles.generators import gen_line_tiling, gen_triangle_tiling
from shieldtiles import patch as patch_module
from shieldtiles.patch import Patch
from shieldtiles.placement import FloatPoint, Placement
from shieldtiles.shieldio import FormatError, dumps, loads
from shieldtiles.symbolic import Direction, ExactPoint


@pytest.mark.parametrize("alpha", [GENERIC, make_alpha("rational", 5, 12)])
def test_roundtrip_exact(alpha):
    patch = gen_line_tiling("+-", 3, alpha)
    again = loads(dumps(patch))
    assert again.alpha == patch.alpha
    # exact anchors and headings are written as they are placed
    assert again.tiles == patch.tiles
    assert again.validate().ok


def test_roundtrip_decimal_alpha():
    patch = gen_triangle_tiling(0, 4, make_alpha("decimal", 99.34))
    again = loads(dumps(patch))
    assert again.alpha.radians() == pytest.approx(math.radians(99.34))
    assert len(again) == len(patch)


def test_roundtrip_numeric_anchor():
    patch = Patch(make_alpha("decimal", 99.34))
    patch.add_tile(Placement("T", FloatPoint(0.25, -1.5), Direction.of(1, 0)))
    text = dumps(patch)
    assert " num " in text
    again = loads(text)
    assert again.tiles[0].anchor.x == pytest.approx(0.25)


def test_exact_form_is_emitted_for_exact_patches():
    patch = Patch(GENERIC)
    patch.add_tile(Placement("T", ExactPoint(), Direction.of(0, 0)))
    assert " exact " in dumps(patch)


def test_comments_and_blank_lines_ignored():
    patch = Patch(GENERIC)
    patch.add_tile(Placement("T", ExactPoint(), Direction.of(0, 0)))
    text = dumps(patch)
    lines = text.splitlines()
    noisy = [lines[0], "", "# a comment", lines[1], " ", *lines[2:]]
    again = loads("\n".join(noisy))
    assert len(again) == 1


@pytest.mark.parametrize("text", [
    "not-a-header\nalpha generic\n",
    "shield-patch 1\n",
    "shield-patch 1\nalpha bogus\n",
    "shield-patch 1\nalpha generic\ntile X exact 0:0,0 0 0\n",
    "shield-patch 1\nalpha generic\nvertex 0 0\n",
])
def test_malformed_inputs_rejected(text):
    with pytest.raises(FormatError):
        loads(text)


HEAD = "shield-patch 1\nalpha "
BIG = "1" + "0" * 400  # too large for a float


@pytest.mark.parametrize("text, error", [
    ("shield-patch 1\nalpha generic\ntile T\n", FormatError),
    ("shield-patch 1\nalpha generic\ntile\n", FormatError),
    ("shield-patch 1\nalpha rational 1 0\n", OutOfRange),
    ("shield-patch 1\nalpha rational x 2\n", FormatError),
    (HEAD + "degrees 110\ntile T num inf 0 0 0\n", FormatError),
    (HEAD + "degrees 110\ntile T num 1e400 0 0 0\n", FormatError),
    (HEAD + "degrees 110\ntile T num nan 0 0 0\n", FormatError),
    (HEAD + "degrees 110\ntile T num 1e308 1e308 0 0\n", FormatError),
    (HEAD + f"generic\ntile T exact 0:{BIG},0 0 0\n", FormatError),
    (HEAD + f"degrees 110\ntile T exact 0:{BIG},0 0 0\n", FormatError),
    (HEAD + "generic\ntile T exact 1:2 0 0\n", FormatError),
    (HEAD + "generic\ntile T exact 0:x,1 0 0\n", FormatError),
    (HEAD + "generic\ntile T exact 0:1:2 0 0\n", FormatError),
    (HEAD + "generic\ntile T exact 0:0,0 a 0\n", FormatError),
    (HEAD + "generic\ntile T num 0 0 0 0\n", FormatError),
], ids=[
    "tile-without-anchor", "bare-tile", "zero-denominator", "alpha-not-int",
    "num-inf", "num-1e400", "num-nan", "num-overflows", "exact-400-digits",
    "exact-400-digits-decimal", "exact-no-comma", "exact-not-int",
    "exact-two-colons", "heading-not-int", "num-at-generic",
])
def test_short_lines_and_zero_denominators_are_errors(tmp_path, capsys, text, error):
    # an error of the package, which the command line reports, not a traceback
    with pytest.raises(ShieldError) as exc:
        loads(text)
    assert type(exc.value) is error
    f = tmp_path / "bad.shield"
    f.write_text(text)
    assert main(["classify", str(f)]) == 1
    assert "error:" in capsys.readouterr().err
    assert main(["render", str(f), "--svg", str(tmp_path / "bad.svg")]) == 1
    assert "error:" in capsys.readouterr().err


# invalid files, with the error that reading them raised when each tile
# went through add_tile in turn
INVALID_FILES = {
    "duplicate-tile": (
        HEAD + "generic\ntile T exact 0:0,0 0 0\ntile S exact 0:2,0 0 0\n"
        "tile T exact 0:0,0 0 0\n",
        OverlapError,
    ),
    # triangles from 0 to 60 and from 30 to 90 degrees about the origin
    "angular-overlap": (
        HEAD + "rational 1 2\ntile T exact 0:0,0 0 0\ntile T exact 0:0,0 5 1\n",
        OverlapError,
    ),
    # the second triangle's top corner is the midpoint of the first's base
    "t-junction": (
        HEAD + "degrees 110\ntile T num 0 0 0 0\ntile T num 0.5 0 4 0\n",
        EdgeMismatchError,
    ),
    # four sharp corners a microdegree above pi/2 close a turn within
    # tolerance, off the atlas
    "star-off-atlas": (
        HEAD + "degrees 90.000001\n"
        + "".join(f"tile S exact 0:0,0 0 {k}\n" for k in range(4)),
        AtlasViolation,
    ),
    "edge-with-three-tiles": (
        HEAD + "generic\ntile T exact 0:0,0 0 0\ntile T exact 0:1,0 3 0\n"
        "tile S exact 0:0,0 0 0\n",
        OverlapError,
    ),
    # two faults: the error is that of the one add_tile meets first
    "t-junction-then-three-tiles": (
        HEAD + "degrees 110\ntile T num 0 0 0 0\ntile T num 0.5 0 4 0\n"
        "tile T num 5 0 0 0\ntile T num 6 0 3 0\ntile S num 5 0 0 0\n",
        EdgeMismatchError,
    ),
    "three-tiles-then-t-junction": (
        HEAD + "degrees 110\ntile T num 5 0 0 0\ntile T num 6 0 3 0\n"
        "tile S num 5 0 0 0\ntile T num 0 0 0 0\ntile T num 0.5 0 4 0\n",
        OverlapError,
    ),
    # a fifth tile at the closed star overlaps it, after the star fault
    "star-off-atlas-then-overlap": (
        HEAD + "degrees 90.000001\n"
        + "".join(f"tile S exact 0:0,0 0 {k}\n" for k in range(4))
        + "tile T exact 0:0,0 0 0\n",
        AtlasViolation,
    ),
}


@pytest.mark.parametrize("name", sorted(INVALID_FILES))
def test_invalid_files_raise_what_add_tile_raises(name):
    text, error = INVALID_FILES[name]
    with pytest.raises(ShieldError) as exc:
        loads(text)
    assert type(exc.value) is error
    # added one by one, the same tiles are refused with the same error
    header, lines = text.splitlines()[:2], text.splitlines()[2:]
    tiles = [loads("\n".join(header + [ln])).tiles[0] for ln in lines]
    patch = Patch(loads("\n".join(header)).alpha)
    with pytest.raises(error):
        for t in tiles:
            patch.add_tile(t)


def test_loaded_patch_is_validated_once(monkeypatch):
    text = dumps(gen_line_tiling("+-", 3, GENERIC))
    reports = []

    class Counted(patch_module.ValidationReport):
        def __init__(self):
            super().__init__()
            reports.append(self)

    monkeypatch.setattr(patch_module, "ValidationReport", Counted)
    patch = loads(text)
    assert patch.validate().ok and patch.validate().ok
    assert len(reports) == 1


def test_cli_atlas_generic(capsys):
    assert main(["atlas", "--alpha", "generic"]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 3
    for name in ("hex", "bowtie", "fault"):
        assert name in out


def test_cli_exceptional(capsys):
    assert main(["exceptional"]) == 0
    out = capsys.readouterr().out
    assert "2pi/5" in out and "(5,0,0)" in out


def test_cli_generate_classify_roundtrip(tmp_path, capsys):
    f = tmp_path / "t2.shield"
    assert main([
        "generate", "triangle", "--order", "2", "--extent", "7",
        "--out", str(f),
    ]) == 0
    assert main(["classify", str(f)]) == 0
    assert "Triangle(order=2" in capsys.readouterr().out


def test_cli_classify_inconclusive_exit_2(tmp_path, capsys):
    f = tmp_path / "d.shield"
    assert main([
        "generate", "dodecagon", "--filling", "0", "--extent", "4",
        "--out", str(f),
    ]) == 0
    assert main(["classify", str(f)]) == 2
    assert "Inconclusive" in capsys.readouterr().out


def test_cli_enumerate(capsys):
    assert main([
        "enumerate", "--alpha", "generic", "--radius", "0.1",
    ]) == 0
    assert "P_n = 3" in capsys.readouterr().out


@pytest.mark.parametrize("radius", ["-1", "nan", "inf"])
def test_cli_enumerate_refuses_radii_that_make_no_sense(capsys, radius):
    assert main([
        "enumerate", "--alpha", "generic", "--radius", radius,
    ]) == 1
    assert "error: radius n" in capsys.readouterr().err


def test_cli_fillings(capsys):
    assert main(["fillings"]) == 0
    out = capsys.readouterr().out
    assert out.count("# filling") == 3
    assert out.count("shield-patch 1") == 3


def test_cli_render_deterministic(tmp_path):
    f = tmp_path / "line.shield"
    main(["generate", "line", "--word", "+-", "--extent", "2",
          "--out", str(f)])
    s1, s2 = tmp_path / "a.svg", tmp_path / "b.svg"
    assert main(["render", str(f), "--svg", str(s1)]) == 0
    assert main(["render", str(f), "--svg", str(s2)]) == 0
    b1, b2 = s1.read_bytes(), s2.read_bytes()
    assert b1 == b2
    assert b1.startswith(b"<?xml")
    assert b1.count(b"<polygon") == len(loads(f.read_text()).tiles)


def test_cli_root(capsys):
    assert main(["root"]) == 0
    out = capsys.readouterr().out
    assert "0.5451510421" in out
    assert "99.34" in out


def test_cli_error_exit_1(tmp_path, capsys):
    assert main(["classify", str(tmp_path / "missing.shield")]) == 1
    assert "error:" in capsys.readouterr().err
    assert main(["atlas", "--alpha", "1/3"]) == 1
    assert main(["atlas", "--alpha", "1/0"]) == 1
    assert "zero denominator" in capsys.readouterr().err
