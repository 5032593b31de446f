#!/usr/bin/env python3
"""Show the recursive metric lift at work on a single chart.

For the flat metric the lifted fiber metric is the identity at every jet
point; for exp(x1) the script prints the lift lagrangian, the closed forms
of the prolonged connection coefficients and the lifted metric (whose
coefficients are computed numerically) at a sample point.
"""

import numpy as np

from folijet.jets import TransverseJetPoint
from folijet.riemann import (
    MetricField,
    lift_lagrangian,
    lift_metric,
    prolongation_coefficients,
)

R = 3


def run():
    flat = MetricField.from_components([["1"]], 1, name="flat")
    point = TransverseJetPoint("", R, (), (0.7,),
                               tuple((0.3 * k,) for k in range(1, R + 1)))
    G = lift_metric(flat, R)
    print(f"flat lift, r={R}: max |G - I| =",
          np.max(np.abs(G.evaluate(point) - np.eye(R + 1))))

    expg = MetricField.from_components([["exp(x1)"]], 1, name="exp")
    L = lift_lagrangian(expg, R)
    print(f"\nexp(x1) lift lagrangian (r={R}):")
    print(" ", L.program.to_text())
    lifted = lift_metric(expg, R)
    coefficients = prolongation_coefficients(expg, R)
    for k, mat in enumerate(coefficients, start=1):
        print(f"connection coefficient M_({k}):",
              [[prog.to_text() for prog in row] for row in mat])
    print("\nlifted metric at", point.to_dict())
    print(np.array_str(lifted.evaluate(point), precision=6,
                       suppress_small=True))
    restricted = lifted.evaluate_at("", (0.7,), np.zeros((R, 1)))[:1, :1]
    print("zero-section restriction:", restricted,
          "vs g(0.7) =", expg.evaluate((0.7,)))


if __name__ == "__main__":
    run()
