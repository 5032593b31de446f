"""Generate the q = 2 shear atlas used by the ``shear2-r2`` workload.

Chart A carries the polynomial metric G_A below; the transition to chart B
is the shear (x1, x2) -> (x1, x2 + x1^2).  Chart B's metric is derived here
as the exact pushforward of G_A, so holonomy of the lifted metric holds up
to rounding.  Usage: ``python3 bench/shear2.py OUT.json``.
"""

from __future__ import annotations

import json
import sys

import sympy as sp

X1, X2 = sp.symbols("x1 x2", real=True)
G_A = sp.Matrix([[1 + X1**2, X1 * X2 / 5], [X1 * X2 / 5, 2 + X2**2]])
FORWARD = ("x1", "x2 + x1^2")
INVERSE = sp.Matrix([X1, X2 - X1**2])
LEAF = [0.0, 1.0]
DOMAIN_A = [LEAF, [0.5, 1.5], [0.5, 1.5]]
# image of DOMAIN_A under the shear: x2 + x1^2 ranges over [0.75, 3.75]
DOMAIN_B = [LEAF, [0.5, 1.5], [0.75, 3.75]]
OVERLAP_B = [LEAF, [0.5, 1.5], [0.75, 1.75]]


def _text(polynomial):
    """Atlas text of a polynomial in x1, x2 with rational coefficients.

    Written as a sum of monomials joined by binary + and -: the atlas
    grammar binds unary minus tighter than ^, so sympy's "-x1**2" would
    read back as (-x1)^2.
    """
    out = ""
    for (a, b), c in sp.Poly(sp.expand(polynomial), X1, X2).terms():
        factors = [f"x{i + 1}^{k}" if k > 1 else f"x{i + 1}"
                   for i, k in enumerate((a, b)) if k]
        if abs(c) != 1 or not factors:
            factors.insert(0, str(abs(c)))
        term = "*".join(factors)
        if not out:
            out = term if c > 0 else f"0 - {term}"
        else:
            out += f" + {term}" if c > 0 else f" - {term}"
    return out or "0"


def pushforward_metric():
    """G_B(y) = D(phi^-1)^T G_A(phi^-1(y)) D(phi^-1), expanded exactly."""
    jac = INVERSE.jacobian([X1, X2])
    pulled = G_A.subs({X1: INVERSE[0], X2: INVERSE[1]}, simultaneous=True)
    return (jac.T * pulled * jac).applyfunc(sp.expand)


def atlas_document():
    g_b = pushforward_metric()

    def rows(matrix):
        return [[_text(matrix[i, j]) for j in range(2)] for i in range(2)]

    return {
        "leaf_dim": 1,
        "transverse_dim": 2,
        "charts": [
            {"name": "A", "domain": DOMAIN_A},
            {"name": "B", "domain": DOMAIN_B},
        ],
        "transitions": [
            {"name": "A->B", "from": "A", "to": "B", "leaf_exprs": ["u1"],
             "transverse_exprs": list(FORWARD), "overlap": DOMAIN_A,
             "inverse_of": "B->A"},
            {"name": "B->A", "from": "B", "to": "A", "leaf_exprs": ["u1"],
             "transverse_exprs": [_text(e) for e in INVERSE],
             "overlap": OVERLAP_B, "inverse_of": "A->B"},
        ],
        "metrics": [
            {"name": "g", "chart": "A", "components": rows(G_A)},
            {"name": "g", "chart": "B", "components": rows(g_b)},
        ],
    }


def write_atlas(path):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(atlas_document(), handle, indent=2, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: shear2.py OUT.json")
    write_atlas(sys.argv[1])
