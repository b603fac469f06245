"""Plain-text reports and deterministic SVG/CSV plots for diagrams and solves."""

from __future__ import annotations

from .groupoid import SFactor, WcfSolution
from .lattice import angular_sort, primitive_part
from .scattering import Diagram, new_rays
from .serialize import ratio_str
from .vertexlie import LieElem


def format_term_lines(x: LieElem, indent: str = "") -> list[str]:
    """Human-readable one-line-per-component rendering of a Lie element."""
    lines = []
    for (m, j), (a, d) in x.ratios().items():
        for row, entries in enumerate(a):
            for col, (p, q) in enumerate(entries):
                if not p:
                    continue
                coeff = "" if p == q else f"{ratio_str(p, q)} * "
                lines.append(f"{indent}t^{j} * {coeff}E[{row + 1},{col + 1}] * z^({m[0]},{m[1]})")
        if d[0][0] or d[1][0]:
            lines.append(f"{indent}t^{j} * d({ratio_str(*d[0])},{ratio_str(*d[1])}) * "
                         f"z^({m[0]},{m[1]})")
    return lines


def completion_report(initial: Diagram, completed: Diagram, consistent: bool) -> str:
    lines = [
        "completion report",
        f"  truncation order: {completed.ctx.order}",
        f"  matrix rank: {completed.ctx.rank}",
        f"  initial walls: {len(initial.walls)}",
        f"  completed walls: {len(completed.walls)}",
        f"  consistency: {'PASS' if consistent else 'FAIL'}",
    ]
    rays = new_rays(initial, completed)
    if rays:
        lines.append(f"  new rays: {len(rays)}")
        for w in sorted(rays, key=lambda w: w.direction):
            lines.append(f"    direction ({w.direction[0]},{w.direction[1]}) [{w.kind.value}]")
            lines.extend(format_term_lines(w.logf, indent="      "))
    else:
        lines.append("  new rays: none")
    return "\n".join(lines) + "\n"


def defect_report(defect: LieElem) -> str:
    """The ``check`` report of a defect's lowest-degree part, as given, one block per frequency."""
    lines = [f"inconsistent: lowest defect at t-degree {defect.t_order()}"]
    for m in sorted(defect.frequencies()):
        lines.append(f"  frequency ({m[0]},{m[1]}):")
        lines.extend(format_term_lines(defect.restrict(lambda k: k[:2] == m), indent="    "))
    return "\n".join(lines) + "\n"


def wcf_report(sol: WcfSolution) -> str:
    problem = sol.problem
    ctx = problem.context
    lines = [
        "wall-crossing report",
        f"  truncation order: {ctx.order}",
        f"  vacua: {', '.join(ctx.vacua) if ctx.vacua else '(none)'}",
        "  input factors:",
    ]
    if problem.factors:
        for f in problem.factors:
            if isinstance(f, SFactor):
                lines.append(
                    f"    S[{f.pair[0]},{f.pair[1]}] gamma=({f.gamma[0]},{f.gamma[1]}) "
                    f"mu={f.mu} (t^{f.degree})"
                )
            else:
                lines.append(
                    f"    K gamma=({f.gamma[0]},{f.gamma[1]}) Omega={f.omega} (t^{f.degree})"
                )
    else:
        lines.append("    (none)")
    lines.append("  produced factors:")
    if sol.produced:
        for p in sol.produced:
            if p.kind == "S":
                lines.append(
                    f"    S'[{p.pair[0]},{p.pair[1]}] charge=({p.charge[0]},{p.charge[1]}) "
                    f"mu'={p.strength} (t^{p.degree})"
                )
            else:
                extra = "" if p.dilog_pattern else " [nonstandard series]"
                lines.append(
                    f"    K' charge=({p.charge[0]},{p.charge[1]}) "
                    f"Omega'={p.strength} (t^{p.degree}){extra}"
                )
    else:
        lines.append("    identity; no produced factors")
    lines.append(f"  identity: {wcf_identity_string(sol)}")
    lines.append(f"  consistency: {'PASS' if sol.consistent else 'FAIL'}")
    return "\n".join(lines) + "\n"


def wcf_identity_string(sol: WcfSolution) -> str:
    """The verified identity in S/K letters, walls in crossing order.

    Left side: initial factors, last-crossed first.  Right side: the
    completed sequence, first-crossed first.
    """
    initial = angular_sort([w.direction for w in sol.initial.walls])
    completed = angular_sort([w.direction for w in sol.completed.walls])
    initial_dirs = set(initial)

    def letter(direction, produced: bool) -> str:
        # S' before K', the order in which the read-back lists a ray's factors
        kinds = {p.kind for p in sol.produced if p.direction == direction} if produced else ()
        if kinds:
            return " ".join(f"{k}'" for k in "SK" if k in kinds)
        letters = [
            "S" if isinstance(f, SFactor) else "K"
            for f in sol.problem.factors
            if primitive_part(f.gamma) == direction
        ]
        return "".join(letters) if letters else "?"

    lhs = " ".join(letter(d, False) for d in reversed(initial))
    rhs = " ".join(letter(d, d not in initial_dirs) for d in completed)
    return f"{lhs} = {rhs}" if lhs else "1 = 1"


# -- plots -----------------------------------------------------------------------

_CANVAS = 480
_RADIUS = 200.0


def diagram_svg(d: Diagram) -> str:
    """Deterministic SVG: rays as segments from the canvas center, labeled."""
    mid = _CANVAS // 2
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_CANVAS}" height="{_CANVAS}" '
        f'viewBox="0 0 {_CANVAS} {_CANVAS}">',
        f'<rect width="{_CANVAS}" height="{_CANVAS}" fill="white"/>',
    ]
    segments = [(p, w) for w in sorted(d.walls, key=lambda w: w.direction) for p in w.rays]
    for direction, w in segments:
        x, y = direction
        shift = max(max(abs(x), abs(y)).bit_length() - 64, 0)  # to 64 bits: no float overflow
        fx, fy = x >> shift, y >> shift
        norm = (fx * fx + fy * fy) ** 0.5
        ex = mid + _RADIUS * fx / norm
        ey = mid - _RADIUS * fy / norm
        color = "black" if direction == w.direction else "gray"
        parts.append(
            f'<line x1="{mid}" y1="{mid}" x2="{ex:.2f}" y2="{ey:.2f}" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        if direction == w.direction:
            lx, ly = mid + (_RADIUS + 16) * fx / norm, mid - (_RADIUS + 16) * fy / norm
            label = f"({x},{y}) {_lowest_term_summary(w.logf)}"
            parts.append(
                f'<text x="{lx:.2f}" y="{ly:.2f}" font-size="10" text-anchor="middle">'
                f"{label}</text>"
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _lowest_term_summary(x: LieElem) -> str:
    return format_term_lines(x.degree_part(x.t_order()))[0]


def diagram_csv(d: Diagram) -> str:
    """One CSV row per wall; the summary holds commas and no quote, so it is quoted (RFC 4180)."""
    rows = ["dir_x,dir_y,kind,lowest_degree,summary"]
    for w in sorted(d.walls, key=lambda w: w.direction):
        rows.append(
            f"{w.direction[0]},{w.direction[1]},{w.kind.value},"
            f'{w.logf.t_order()},"{_lowest_term_summary(w.logf)}"'
        )
    return "\n".join(rows) + "\n"
