"""Command-line interface.

Subcommands: validate | diagram | cube | jones | homology | verify | deform
| svg.  Exit codes: 0 success, 1 validation or property failure, 2 usage or
parse error.  All runs are deterministic for a fixed seed.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

from .geometry import (GeometryError, PolygonalLink, validate_link,
                       find_regular_direction, deform_add_vertex,
                       deform_remove_vertex)
from .linkfile import (LinkFileError, parse_link, parse_integer,
                       parse_rational, load_link, dump_link)
from .diagram import DiagramError, GoodDiagram, good_diagram_auto
from .cube import Cube, CubeError, build_cube
from .khovanov import (KhovanovError, jones_state_sum, normalized_jones,
                       build_complex, homology, khovanov_homology,
                       euler_characteristic, homology_tsv, generator_count)
from .moves import MoveError, apply_move
from .perm import PermError


DOMAIN_ERRORS = (GeometryError, DiagramError, CubeError, KhovanovError,
                 MoveError, PermError)

# `polykh homology` peaks at about 16 bytes of RSS per generator at scale
# (T(2,14): 92 MB for 4,782,972; twist12: 30 MB for 531,444; 18 MB of
# each is the interpreter), so 10M generators take about 170 MB.
DEFAULT_MAX_GENERATORS = 10_000_000


def _parse_direction(text: str):
    try:
        parts = [parse_rational(tok) for tok in text.split(",")]
    except LinkFileError as exc:
        raise LinkFileError(f"bad direction {text!r}: {exc}") from None
    if len(parts) != 3:
        raise LinkFileError(f"bad direction {text!r}: expected three components")
    if not any(parts):
        raise LinkFileError(f"bad direction {text!r}: expected a nonzero "
                            "vector")
    return tuple(parts)


def _count(text: str) -> int:
    """An argparse type: an int >= 0, so that a negative count is a usage
    error (exit 2) instead of a run that does nothing."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"expected an integer >= 0, got {text!r}")
    return value


def _parse_order(text: str, k: int):
    """``--order`` as a tuple; a usage error (exit 2) unless it is a
    permutation of the diagram's crossings 1..k."""
    try:
        order = tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise LinkFileError(f"bad order {text!r}: expected comma-separated integers")
    if sorted(order) != list(range(1, k + 1)):
        raise LinkFileError(f"bad order {text!r}: expected a permutation of "
                            f"the crossings 1..{k}")
    return order


def _pipeline(args) -> tuple[GoodDiagram, PolygonalLink, tuple]:
    link = load_link(args.file)
    direction = _parse_direction(args.dir) if args.dir else None
    return good_diagram_auto(link, direction=direction, seed=args.seed)


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# diagram serialization


def dump_diagram(diagram: GoodDiagram) -> str:
    lines = ["# diagram"]
    lines.append("boundaries " + " ".join(str(b) for b in diagram.boundaries))
    for q in diagram.vertices:
        lines.append(f"vertex {q[0]} {q[1]}")
    for cr in diagram.crossings:
        lines.append(f"crossing {cr.index} {cr.i} {cr.j} {cr.v} {cr.w} "
                     f"{cr.sign:+d} {cr.point[0]} {cr.point[1]}")
    return "\n".join(lines) + "\n"


def crossing_table(diagram: GoodDiagram) -> str:
    rows = [f"{cr.index}\t{cr.i}\t{cr.j}\t{cr.v}\t{cr.w}\t{cr.sign:+d}"
            for cr in diagram.crossings]
    return "\n".join(rows) + ("\n" if rows else "")


# ---------------------------------------------------------------------------
# subcommands


def cmd_validate(args) -> int:
    try:
        link = parse_link(Path(args.file).read_text())
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    problems = validate_link(link)
    if not problems:
        print(f"ok: {len(link.components)} component(s), {link.n} vertices")
        return 0
    for p in problems:
        print(f"invalid: {p.message}")
    return 1


def cmd_diagram(args) -> int:
    diagram, _link, direction = _pipeline(args)
    if args.format == "json":
        payload = {
            "direction": [str(x) for x in direction],
            "boundaries": list(diagram.boundaries),
            "vertices": [[str(q[0]), str(q[1])] for q in diagram.vertices],
            "crossings": [[cr.index, cr.i, cr.j, cr.v, cr.w, cr.sign]
                          for cr in diagram.crossings],
        }
        print(json.dumps(payload, indent=2))
    else:
        sys.stdout.write(crossing_table(diagram))
    if args.output:
        _emit(dump_diagram(diagram), args.output)
    return 0


def cube_dump(cube: Cube) -> str:
    lines = []
    for word in sorted(cube.vertices):
        vx = cube.vertices[word]
        text = "".join(str(x) for x in word)
        cycles = vx.state.successor.cycle_str()
        orders = ",".join(str(g.group_order) for g in vx.groups)
        lines.append(f"vertex {text} {cycles} c={vx.c} orders={orders}")
    for edge in sorted(cube.edges, key=lambda e: (str(e.star_word),)):
        star = "".join(str(x) for x in edge.star_word)
        lines.append(f"edge {star} {edge.kind} {edge.sign:+d}")
    return "\n".join(lines) + "\n"


def cmd_cube(args) -> int:
    diagram, _link, _direction = _pipeline(args)
    order = _parse_order(args.order, diagram.k) if args.order else None
    cube = build_cube(diagram, order=order)
    text = cube_dump(cube)
    _emit(text, args.output)
    return 0


def cmd_jones(args) -> int:
    diagram, _link, _direction = _pipeline(args)
    cube = build_cube(diagram)
    j_hat = jones_state_sum(cube)
    print(f"J-hat = {j_hat.to_text()}")
    print(f"J = {normalized_jones(j_hat).to_text()}")
    return 0


def _check_generator_budget(cube: Cube, budget: int) -> None:
    count = generator_count(cube)
    if count > budget:
        raise KhovanovError(
            f"the chain complex would have {count} generators, more than "
            f"the budget of {budget} (--max-generators)")


def cmd_homology(args) -> int:
    diagram, _link, _direction = _pipeline(args)
    cube = build_cube(diagram)
    _check_generator_budget(cube, args.max_generators)
    table = khovanov_homology(cube)
    if args.format == "json":
        text = json.dumps([[i, j, d] for (i, j), d in sorted(table.items())])
        text += "\n"
    else:
        text = homology_tsv(table)
    _emit(text, args.output)
    return 0


def cmd_svg(args) -> int:
    diagram, _link, _direction = _pipeline(args)
    _emit(render_svg(diagram), args.output)
    return 0


def cmd_deform(args) -> int:
    link = load_link(args.file)
    direction = _parse_direction(args.dir) if args.dir else \
        find_regular_direction(link, seed=args.seed)
    if args.remove is not None:
        if not 1 <= args.remove <= link.n:
            raise LinkFileError(f"--remove: no vertex {args.remove} in a "
                                f"{link.n}-vertex link")
        move, link2, _d2 = apply_move(link, direction, args.remove)
        print(move.log_line())
    elif args.add is not None:
        fields = args.add.split(",")
        if len(fields) != 5:
            print("error: --add expects ci,pos,x,y,z", file=sys.stderr)
            return 2
        ci, pos = parse_integer(fields[0]), parse_integer(fields[1])
        if not 0 <= ci < len(link.components):
            raise LinkFileError(f"--add: no component {ci} in a "
                                f"{len(link.components)}-component link")
        if not 0 <= pos < len(link.components[ci]):
            raise LinkFileError(f"--add: no position {pos} on component "
                                f"{ci} of {len(link.components[ci])} vertices")
        point = tuple(map(parse_rational, fields[2:]))
        link2 = deform_add_vertex(link, ci, pos, point)
        print(f"added vertex at component {ci} position {pos}")
    else:
        print("error: deform needs --remove or --add", file=sys.stderr)
        return 2
    if args.output:
        _emit(dump_link(link2), args.output)
    return 0


# ---------------------------------------------------------------------------
# SVG rendering


def _svg_coords(diagram: GoodDiagram):
    xs = [float(q[0]) for q in diagram.vertices]
    ys = [float(q[1]) for q in diagram.vertices]
    for cr in diagram.crossings:
        xs.append(float(cr.point[0]))
        ys.append(float(cr.point[1]))
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    span = max(x1 - x0, y1 - y0, 1.0)
    pad = 0.1 * span
    scale = 400.0 / (span + 2 * pad)

    def to_svg(q):
        x = (float(q[0]) - x0 + pad) * scale
        y = (y1 - float(q[1]) + pad) * scale  # flip y for screen coordinates
        return (x, y)

    return to_svg


def render_svg(diagram: GoodDiagram) -> str:
    """Schematic planar rendering with under-strand gaps at crossings."""
    to_svg = _svg_coords(diagram)
    under: dict[tuple[int, int], list] = {}
    for cr in diagram.crossings:
        under.setdefault((cr.v, cr.w), []).append(cr.point)
    parts = []
    gaps = 0
    for g in range(1, diagram.n + 1):
        h = diagram.successor(g)
        a, b = diagram.vertex(g), diagram.vertex(h)
        cuts = under.get((g, h), [])
        if not cuts:
            segs = [(a, b)]
        else:
            # parameterize and leave a gap of radius 0.08 around each cut
            dx, dy = b[0] - a[0], b[1] - a[1]
            length2 = dx * dx + dy * dy
            ts = sorted(Fraction((c[0] - a[0]) * dx + (c[1] - a[1]) * dy,
                                 length2) for c in cuts)
            segs = []
            lo = Fraction(0)
            r = Fraction(2, 25)
            for t in ts:
                segs.append((lo, max(lo, t - r)))
                lo = min(Fraction(1), t + r)
                gaps += 1
            segs.append((lo, Fraction(1)))
            segs = [((a[0] + t0 * dx, a[1] + t0 * dy),
                     (a[0] + t1 * dx, a[1] + t1 * dy))
                    for (t0, t1) in segs if t1 > t0]
        for (pa, pb) in segs:
            (x1, y1), (x2, y2) = to_svg(pa), to_svg(pb)
            parts.append(f'<line class="strand" x1="{x1:.3f}" y1="{y1:.3f}" '
                         f'x2="{x2:.3f}" y2="{y2:.3f}"/>')
    for g in range(1, diagram.n + 1):
        x, y = to_svg(diagram.vertex(g))
        parts.append(f'<text x="{x:.3f}" y="{y:.3f}">{g}</text>')
    body = "\n".join("  " + p for p in parts)
    return (f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 400 400">\n'
            f"  <!-- gaps: {gaps} -->\n"
            '  <g stroke="black" stroke-width="2" font-size="10">\n'
            f"{body}\n"
            "  </g>\n</svg>\n")


# ---------------------------------------------------------------------------
# verification driver


def cmd_verify(args) -> int:
    results: list[tuple[str, bool, str]] = []

    def record(name: str, ok: bool, detail: str = "") -> None:
        results.append((name, ok, detail))

    diagram, refined, direction = _pipeline(args)
    rng = random.Random(args.seed)

    # theorem vs trace along the default order, plus sampled orders
    cube = None
    try:
        cube = build_cube(diagram)
        record("theorem-trace", True,
               f"k={diagram.k}" + (" (vacuous)" if diagram.k == 0 else ""))
    except CubeError as exc:
        record("theorem-trace", False, _mismatch_detail(exc))

    if cube is not None and diagram.k > 1:
        base = {w: vx.state.cycle_partition() for w, vx in cube.vertices.items()}
        ok, detail = True, ""
        for _ in range(min(args.trials, 5)):
            order = list(range(1, diagram.k + 1))
            rng.shuffle(order)
            try:
                other = build_cube(diagram, order=tuple(order))
            except CubeError as exc:
                ok, detail = False, f"order {order}: {_mismatch_detail(exc)}"
                break
            for w, vx in other.vertices.items():
                if vx.state.cycle_partition() != base[w]:
                    ok, detail = False, f"order {order}, word {w}"
                    break
            if not ok:
                break
        record("path-independence", ok, detail)

    complex_ = None
    if cube is not None:
        _check_generator_budget(cube, args.max_generators)
        try:
            complex_ = build_complex(cube)
            record("d-squared", True)
        except KhovanovError as exc:
            # grading violations break the Euler bookkeeping, not d^2
            if "grading" in str(exc):
                record("euler-identity", False, str(exc))
            else:
                record("d-squared", False, str(exc))

    table = None
    if cube is not None and complex_ is not None:
        try:
            table = homology(complex_)
            j_hat = jones_state_sum(cube)
            chain_ok = complex_.chain_euler() == j_hat
            hom_ok = euler_characteristic(table) == j_hat
            record("euler-identity", chain_ok and hom_ok,
                   "" if chain_ok and hom_ok else
                   f"chain={'ok' if chain_ok else 'FAIL'} "
                   f"homology={'ok' if hom_ok else 'FAIL'}")
        except KhovanovError as exc:
            record("euler-identity", False, str(exc))

    if table is not None:
        ok, detail = _move_invariance(refined, direction, table, args.trials,
                                      rng)
        record("move-invariance", ok, detail)

    failed = [r for r in results if not r[1]]
    for name, ok, detail in results:
        line = f"{'PASS' if ok else 'FAIL'} {name}"
        if detail:
            line += f": {detail}"
        print(line)
    print(f"{'OK' if not failed else 'FAILED'} "
          f"({len(results) - len(failed)}/{len(results)} checks)")
    return 1 if failed else 0


def _mismatch_detail(exc: CubeError) -> str:
    word = getattr(exc, "word", None)
    if word is not None:
        return (f"word {word}, crossing {exc.crossing}, "
                f"choice {exc.choice}")
    return str(exc)


def _move_invariance(link: PolygonalLink, direction, base_table,
                     trials: int, rng: random.Random) -> tuple[bool, str]:
    """Random insert/remove round trips: the insertion must preserve the
    homology table, and the removal must restore the link exactly."""
    done = 0
    attempts = 0
    current = link
    while done < trials and attempts < 40 * max(trials, 1):
        attempts += 1
        ci = rng.randrange(len(current.components))
        comp = current.components[ci]
        pos = rng.randrange(len(comp))
        lo, _hi = current.component_range(ci)
        gl = lo + pos
        gm = current.successor(gl)
        a, b = current.vertex(gl), current.vertex(gm)
        lam = Fraction(rng.randrange(1, 8), 8)
        off = [Fraction(rng.randrange(-4, 5), 16) for _ in range(3)]
        apex = tuple(a[i] + lam * (b[i] - a[i]) + off[i] for i in range(3))
        try:
            link2 = deform_add_vertex(current, ci, pos, apex)
            diagram2 = good_diagram_auto(link2, direction)[0]
        except (GeometryError, DiagramError):
            continue
        if diagram2.n != link2.n:
            continue  # refinement added vertices; keep the sample simple
        try:
            table2 = khovanov_homology(build_cube(diagram2))
        except (CubeError, KhovanovError) as exc:
            return False, f"insertion at ({ci},{pos}): {exc}"
        if table2 != base_table:
            return False, f"homology changed after insertion at ({ci},{pos})"
        # removing the vertex again must give back the link itself, whose
        # table is base_table
        try:
            link3 = deform_remove_vertex(link2, gl + 1)
        except GeometryError as exc:
            return False, f"removal round-trip at ({ci},{pos}): {exc}"
        if link3 != current:
            return False, f"removal at ({ci},{pos}) did not restore the link"
        done += 1
    if done < trials:
        return True, f"only {done}/{trials} deformations constructible"
    return True, f"{done} deformation round trips"


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polykh",
        description="Exact polygonal links: diagrams, cubes of smoothings, "
                    "Jones polynomial and Khovanov homology.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, output=True, formats=False):
        p.add_argument("file", help="link file")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--dir", default=None,
                       help="projection direction dx,dy,dz")
        if formats:
            p.add_argument("--format", choices=("tsv", "json"),
                           default="tsv")
        if output:
            p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("validate", help="check link invariants")
    p.add_argument("file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("diagram", help="crossing table of a good diagram")
    common(p, formats=True)
    p.set_defaults(func=cmd_diagram)

    p = sub.add_parser("cube", help="dump the cube of smoothings")
    common(p)
    p.add_argument("--order", default=None, help="resolution order, e.g. 2,1,3")
    p.set_defaults(func=cmd_cube)

    p = sub.add_parser("jones", help="unnormalized and normalized Jones polynomial")
    common(p, output=False)
    p.set_defaults(func=cmd_jones)

    def budget(p):
        p.add_argument("--max-generators", type=_count,
                       default=DEFAULT_MAX_GENERATORS,
                       help="refuse a chain complex with more generators "
                            f"(default {DEFAULT_MAX_GENERATORS})")

    p = sub.add_parser("homology", help="Khovanov homology table")
    common(p, formats=True)
    budget(p)
    p.set_defaults(func=cmd_homology)

    p = sub.add_parser("verify", help="run the full invariant suite")
    common(p, output=False)
    budget(p)
    p.add_argument("--trials", type=_count, default=10)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("deform", help="apply a triangle move to the link")
    common(p)
    p.add_argument("--remove", type=int, default=None,
                   help="global index of the vertex to remove")
    p.add_argument("--add", default=None, help="ci,pos,x,y,z vertex insertion")
    p.set_defaults(func=cmd_deform)

    p = sub.add_parser("svg", help="schematic SVG rendering")
    common(p)
    p.set_defaults(func=cmd_svg)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except LinkFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DOMAIN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
