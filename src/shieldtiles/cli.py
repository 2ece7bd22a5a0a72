"""Command-line interface.

Exit codes: 0 success, 1 parse/validation error, 2 inconclusive
classification.
"""

from __future__ import annotations

import argparse
import math
import sys

from .alpha import parse_alpha
from .atlas import atlas_configs, exceptional_alphas
from .classify import classify
from .diskroot import PACKING_ALPHA_DEGREES, disk_radius_root
from .errors import ShieldError
from .generators import (
    DodecagonChoice,
    gen_dodecagon_tiling,
    gen_line_tiling,
    gen_triangle_tiling,
)
from .patterns import DEFAULT_BUDGET, count_patterns, dodecagon_fillings
from .render import render_svg
from .shieldio import dumps, load_file, save_file

CONFIG_NAMES = {"TTTTTT": "hex", "ATBT": "bowtie", "ABTT": "fault"}


def _cmd_atlas(args) -> int:
    alpha = parse_alpha(args.alpha)
    configs = sorted(atlas_configs(alpha), key=lambda c: (len(c.word), c.word))
    for cfg in configs:
        c = cfg.counts()
        name = CONFIG_NAMES.get(cfg.word, "-")
        print(f"{cfg.word}  counts=(p={c.p}, q={c.q}, r={c.r})  {name}")
    return 0


def _cmd_exceptional(args) -> int:
    table = exceptional_alphas(include_right=args.include_right)
    for alpha in sorted(table, key=lambda a: a.radians()):
        c = table[alpha]
        print(f"alpha = {alpha}  witness (p,q,r) = ({c.p},{c.q},{c.r})")
    return 0


def _cmd_generate(args) -> int:
    if args.family == "line":
        alpha = parse_alpha(args.alpha)
        patch = gen_line_tiling(args.word, args.extent, alpha)
    elif args.family == "triangle":
        alpha = parse_alpha(args.alpha)
        order = math.inf if args.order == "inf" else int(args.order)
        patch = gen_triangle_tiling(order, args.extent, alpha)
    else:
        choice = DodecagonChoice.constant(args.filling)
        patch = gen_dodecagon_tiling(choice, args.extent)
    if args.out:
        save_file(patch, args.out)
    else:
        sys.stdout.write(dumps(patch))
    return 0


def _cmd_classify(args) -> int:
    patch = load_file(args.file)
    patch.require_valid()
    verdict = classify(patch)
    print(verdict)
    return 2 if verdict.family == "Inconclusive" else 0


def _cmd_enumerate(args) -> int:
    alpha = parse_alpha(args.alpha)
    res = count_patterns(
        args.radius, alpha, budget=args.budget, keep=args.keys
    )
    suffix = "" if res.complete else " (lower bound: budget exhausted)"
    print(f"P_n = {res.count}{suffix}")
    print(f"translation classes = {res.translation_count}{suffix}")
    if args.keys:
        for key in sorted(res.patterns):
            print(key)
    return 0


def _cmd_fillings(args) -> int:
    for i, patch in enumerate(dodecagon_fillings()):
        print(f"# filling {i}")
        sys.stdout.write(dumps(patch))
    return 0


def _cmd_render(args) -> int:
    patch = load_file(args.file)
    svg = render_svg(patch, args.scale)
    with open(args.svg, "w", encoding="utf-8") as f:
        f.write(svg)
    return 0


def _cmd_root(args) -> int:
    r = disk_radius_root()
    print(f"packing radius r = {r.value:.12f}  |P(r)| = {r.residual:.3e}")
    print(f"shield angle alpha = {PACKING_ALPHA_DEGREES} degrees (reference)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="shieldtiles",
        description="Exact engine for shield tilings.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("atlas", help="vertex configurations for an angle")
    s.add_argument("--alpha", required=True,
                   help="'generic', 's/t' (times pi), or degrees")
    s.set_defaults(func=_cmd_atlas)

    s = sub.add_parser("exceptional",
                       help="angles with extra vertex configurations")
    s.add_argument("--include-right", action="store_true",
                   help="also report alpha = pi/2")
    s.set_defaults(func=_cmd_exceptional)

    s = sub.add_parser("generate", help="write a tiling window as SHIELD/1")
    fam = s.add_subparsers(dest="family", required=True)
    f = fam.add_parser("line")
    f.add_argument("--word", required=True, help="orientation word over +-")
    f.add_argument("--extent", type=int, default=3)
    f.add_argument("--alpha", default="generic")
    f.add_argument("--out")
    f = fam.add_parser("triangle")
    f.add_argument("--order", required=True, help="k >= 0 or 'inf'")
    f.add_argument("--extent", type=int, default=4)
    f.add_argument("--alpha", default="generic")
    f.add_argument("--out")
    f = fam.add_parser("dodecagon")
    f.add_argument("--filling", type=int, default=0, choices=(0, 1, 2))
    f.add_argument("--extent", type=int, default=4)
    f.add_argument("--out")
    s.set_defaults(func=_cmd_generate)

    s = sub.add_parser("classify", help="family verdict for a patch file")
    s.add_argument("file")
    s.set_defaults(func=_cmd_classify)

    s = sub.add_parser("enumerate", help="count radius-n patterns")
    s.add_argument("--alpha", required=True)
    s.add_argument("--radius", type=float, required=True)
    s.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    s.add_argument("--keys", action="store_true",
                   help="also print canonical pattern keys")
    s.set_defaults(func=_cmd_enumerate)

    s = sub.add_parser("fillings", help="the three dodecagon fillings")
    s.set_defaults(func=_cmd_fillings)

    s = sub.add_parser("render", help="draw a patch file as SVG")
    s.add_argument("file")
    s.add_argument("--svg", required=True)
    s.add_argument("--scale", type=float, default=60.0)
    s.set_defaults(func=_cmd_render)

    s = sub.add_parser("root", help="disk-packing radius polynomial root")
    s.set_defaults(func=_cmd_root)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ShieldError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
