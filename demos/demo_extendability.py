"""Deciding whether jet data extends to a C^m horizontal curve.

Samples jets from a genuinely horizontal polynomial curve (they pass all
three conditions), then perturbs one derivative value and watches the
ODE constraint fail, then builds the counterexample straddle jets and
watches the area/velocity condition fail.

Run with:  python3 demos/demo_extendability.py
"""

from fractions import Fraction as F

from heislusin import (
    PiecewisePolynomial,
    Polynomial,
    build_curve,
    default_params,
    extendability_report,
    lift,
    straddle_jets,
)
from heislusin.jets import Jet, JetTriple


def show(title, rep):
    print("== %s ==" % title)
    print("  whitney fields decay:", rep.whitney_pass)
    print("  ODE constraints hold:", rep.ode_pass,
          " (max residual %s)" % rep.max_ode_residual)
    print("  area/velocity ratio vanishes:", rep.ratio_pass)
    print("  verdict:", "extendable" if rep.verdict else "obstructed")
    print()


def main():
    # A lifted polynomial curve: f = t, g = t^2, h from the lift.
    f, g = Polynomial((0, 1)), Polynomial((0, 0, 1))
    c = lift(PiecewisePolynomial([0, 1], [f]), PiecewisePolynomial([0, 1], [g]))
    sites = [F(i, 8) for i in range(9)]
    t = JetTriple.from_curve_samples(f, g, c.h_pieces[0], sites, 3)
    show("jets sampled from a horizontal curve", extendability_report(t))

    rows = [list(r) for r in t.H.values]
    rows[4][1] += F(1, 50)  # corrupt h' at t = 1/2
    bad = JetTriple(t.F, t.G, Jet(3, t.sites, tuple(tuple(r) for r in rows)))
    show("same jets with h' corrupted at one site", extendability_report(bad))

    # The counterexample straddle jets: zero horizontal data, but the
    # vertical component must jump by the exact component increment.
    n = 7
    straddle = straddle_jets(build_curve(default_params(9)), n)
    show("counterexample straddle jets (n = %d)" % n,
         extendability_report(straddle))


if __name__ == "__main__":
    main()
