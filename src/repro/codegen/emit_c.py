"""C/OpenMP source emission.

Produces the C a PATUS-style generator would hand to the backend compiler:
restrict-qualified buffer pointers, an index macro over the halo-padded
layout, an OpenMP ``parallel for`` with ``schedule(dynamic, chunk)`` on the
outer tile loop, clipped tile bounds via ``MIN``, the unrolled main x loop
plus its remainder loop.

The test suite does not compile the emitted source: it checks it
structurally (pragmas, bounds, unroll replication), and execution
semantics come from the IR interpreter.  The output is plain C99 with
OpenMP and builds with e.g. ``gcc -O3 -fopenmp -shared``.
"""

from __future__ import annotations

from repro.codegen.ir import Bound, Loop, LoopNest, PointUpdate

__all__ = ["emit_c"]

_CTYPE = {"float": "float", "double": "double"}


def emit_c(nest: LoopNest, function_name: str | None = None) -> str:
    """Emit the complete C translation unit for one sweep."""
    name = function_name or f"{nest.kernel_name.replace('-', '_')}_sweep"
    ctype = _CTYPE[nest.dtype]
    h = nest.halo
    bufs = ", ".join(
        f"const {ctype} *restrict in{b}" for b in range(nest.num_buffers)
    )
    lines = [
        "#include <stddef.h>",
        "#include <omp.h>",
        "",
        f"/* generated by repro.codegen for {nest.describe()} */",
        f"#define HALO {h}",
        "#define MIN(a, b) ((a) < (b) ? (a) : (b))",
        "#define IDX(x, y, z, sx, sy) \\",
        "    (((size_t)((z) + HALO) * ((sy) + 2 * HALO) + ((y) + HALO)) * \\",
        "     ((sx) + 2 * HALO) + ((x) + HALO))",
        "",
        f"void {name}({ctype} *restrict out, {bufs},",
        "               int sx, int sy, int sz) {",
    ]
    _emit_loop(nest.root, lines, indent=1)
    lines.append("}")
    return "\n".join(lines) + "\n"


def _bound_expr(bound: Bound, loop_var: str | None = None, step: int = 0) -> str:
    return str(bound)


def _emit_loop(loop: Loop, lines: list[str], indent: int) -> None:
    pad = "    " * indent
    if loop.parallel:
        lines.append(
            f"{pad}#pragma omp parallel for schedule(dynamic, {loop.chunk})"
        )
    var, lo, hi = loop.var, str(loop.lo), str(loop.hi)
    if loop.var.startswith("t"):
        axis = var[-1]
        lines.append(
            f"{pad}for (int {var} = {lo}; {var} < {hi}; {var} += {loop.step}) {{"
        )
        lines.append(
            f"{pad}    const int {var}e = MIN({var} + {loop.step}, s{axis});"
        )
        for child in loop.body:
            _emit_body_item(child, lines, indent + 1)
        lines.append(f"{pad}}}")
        return

    if loop.var == "x" and loop.unrolled:
        u = loop.step
        lines.append(
            f"{pad}int x;"
        )
        lines.append(
            f"{pad}for (x = {lo}; x + {u} <= {hi}; x += {u}) {{  /* unrolled x{u} */"
        )
        for child in loop.body:
            _emit_body_item(child, lines, indent + 1)
        lines.append(f"{pad}}}")
        lines.append(f"{pad}for (; x < {hi}; ++x) {{  /* remainder */")
        _emit_body_item(loop.body[0], lines, indent + 1, force_shift0=True)
        lines.append(f"{pad}}}")
        return

    lines.append(f"{pad}for (int {var} = {lo}; {var} < {hi}; {var} += {loop.step}) {{")
    for child in loop.body:
        _emit_body_item(child, lines, indent + 1)
    lines.append(f"{pad}}}")


def _emit_body_item(
    item: "Loop | PointUpdate", lines: list[str], indent: int, force_shift0: bool = False
) -> None:
    if isinstance(item, Loop):
        _emit_loop(item, lines, indent)
        return
    pad = "    " * indent
    sdx, sdy, sdz = (0, 0, 0) if force_shift0 else item.shift
    ox = _plus("x", sdx)
    oy = _plus("y", sdy)
    oz = _plus("z", sdz)
    terms = []
    for (buf, (dx, dy, dz)), weight in item.terms:
        ix = _plus("x", sdx + dx)
        iy = _plus("y", sdy + dy)
        iz = _plus("z", sdz + dz)
        terms.append(f"{weight!r} * in{buf}[IDX({ix}, {iy}, {iz}, sx, sy)]")
    joined = ("\n" + pad + "    + ").join(terms)
    lines.append(f"{pad}out[IDX({ox}, {oy}, {oz}, sx, sy)] =")
    lines.append(f"{pad}    {joined};")


def _plus(var: str, delta: int) -> str:
    if delta == 0:
        return var
    sign = "+" if delta > 0 else "-"
    return f"{var} {sign} {abs(delta)}"
