"""Walkthrough: cocycles, their projections, and the telescoping solver.

Builds the coboundary of a random finitely supported vector, checks that
its relation residuals and projected values vanish, reconstructs the
primitive exactly, verifies the decay bound, and shows a perturbed input
being caught.
"""

import random
from fractions import Fraction

from twistlab import (
    Cocycle,
    GeneratorSet,
    NonCocycleError,
    SparseVector,
    applicable_relations,
    coboundary,
    max_relation_residual,
    s_vector,
    smoothness_report,
    solve_coboundary,
    x_basis,
    y_basis,
)
from twistlab.exact import GaussianRational
from twistlab.lattice import HomologyClass

g = 3
rng = random.Random(2)
gens = GeneratorSet.symplectic_basis(g)


def random_vector(size):
    entries = {}
    while len(entries) < size:
        coords = tuple(rng.randint(-3, 3) for _ in range(2 * g))
        if not any(coords):
            continue
        entries[HomologyClass(coords)] = GaussianRational(
            Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
            Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
        )
    return SparseVector(g, entries)


f = random_vector(25)
u = coboundary(f, gens)
catalog = applicable_relations(gens)

print("== a coboundary is a cocycle ==")
print("relation residual over %d instances:" % len(catalog), max_relation_residual(u, catalog))
print("projected values vanish:", all(not s_vector(u, c) for c in gens))

print()
print("== exact reconstruction ==")
report = solve_coboundary(u)
print("residual:", report.residual)
print("reconstructed f equals the input:", report.f == f)
print("support size:", len(report.f))

print()
print("== decay bound from the reconstruction ==")
for k, fk, gk in report.decay:
    print("  k=%d  F_k = %-22s G_{k+1} = %s" % (k, fk, gk))
for check in smoothness_report(report, kmax=5):
    print("  bound at k=%d:" % check.k, "holds" if check.passed else "FAILS")

print()
print("== negative controls ==")
bump = SparseVector.basis(y_basis(g, 1), Fraction(1, 2))
values = dict(u.values)
values["x1"] = values["x1"] + bump
try:
    solve_coboundary(Cocycle(gens, values))
except NonCocycleError as exc:
    print("perturbation at x1 refused:", exc)

values = dict(u.values)
values["x3"] = values["x3"] + SparseVector.basis(x_basis(g, 1) + 2 * y_basis(g, 3))
rogue = solve_coboundary(Cocycle(gens, values), relations=[])
print("perturbation at x3 leaves residual:", rogue.residual)
